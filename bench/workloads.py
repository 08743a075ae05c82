"""Seeded workloads for the twotower benchmark.

Input generation uses only the standard library: the program under test
receives plain disc tuples and integers, never objects built by its own
code.  The independent arithmetic here (trial division, Jacobi symbols,
Redei ranks over F2) also backs the output checks.

Each workload is a closed loop with one caller.  `stream(rng)` yields op
inputs forever in blocks of `block` ops that mix cheap and dear ops the
same way for every seed.  `run(tt, x)` performs one op through the public
API of the `twotower` package `tt`, `canon` renders its output as the
bytes users see, and `check` returns the invariants the output breaks.
A run starts with `golden_ops` fixed inputs, and its latency quantiles
use its first `latency_ops` ops, so their percentile is the same in
every run.
"""

from __future__ import annotations

import itertools
import json
import random
from math import isqrt

def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


# Trial division by these factors every |D| up to 1e8.
_SMALL_PRIMES = _primes_up_to(10_000)


def _squarefree_primes(n: int) -> list[int] | None:
    """Distinct primes of n > 0 (ascending), or None if n is not squarefree."""
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            out.append(p)
    if n > 1:
        out.append(n)
    return out


def prime_discs(d: int) -> tuple[int, ...] | None:
    """Prime discriminants of d ascending by prime, or None if d is not fundamental."""
    if d % 4 == 1:
        primes = _squarefree_primes(abs(d))
    elif d % 4 == 0 and (d // 4) % 4 in (2, 3):
        primes = _squarefree_primes(abs(d // 4))
    else:
        return None
    if primes is None:
        return None
    odd = [p if p % 4 == 1 else -p for p in primes if p != 2]
    two = d
    for v in odd:
        two //= v
    return tuple(odd) if two == 1 else (two, *odd)


def _prime_of(v: int) -> int:
    return 2 if v in (-4, 8, -8) else abs(v)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def kron(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a prime p."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    return jacobi(d, p)


def _discriminant(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def redei_rows(values) -> list[list[int]]:
    """Redei matrix over F2 of a disc tuple, rows and columns in tuple order."""
    delta = _discriminant(values)
    t = len(values)
    rows = []
    for i in range(t):
        row = []
        for j in range(t):
            top = delta // values[i] if i == j else values[i]
            row.append(0 if kron(top, _prime_of(values[j])) == 1 else 1)
        rows.append(row)
    return rows


def four_rank(values) -> int:
    """Narrow 4-rank by the Redei-Reichardt formula: t - 1 - rank over F2."""
    rows = [sum(bit << k for k, bit in enumerate(r)) for r in redei_rows(values)]
    rank = 0
    for k in range(len(values)):
        pivot = next((r for r in rows if r >> k & 1), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if r >> k & 1 else r for r in rows if r != pivot]
    return len(values) - 1 - rank


def _random_prime_disc(rng, primes) -> int:
    p = rng.choice(primes)
    if p == 2:
        return rng.choice((-4, 8, -8))
    return p if p % 4 == 1 else -p


class Census:
    """analyze on imaginary fields with five prime discriminants."""

    name = "census"
    op = "one tower.analyze call on one field"
    block = 1
    lo, hi = 10**6, 10**7
    golden_ops = 100
    latency_ops = 600
    trace_ops = 200

    def stream(self, rng):
        while True:
            discs = prime_discs(-rng.randrange(self.lo, self.hi + 1))
            if discs is not None and len(discs) == 5:
                yield discs

    def run(self, tt, discs):
        return tt.analyze(tt.QuadFieldSpec.from_disc_values(discs))

    def canon(self, discs, report) -> str:
        return report.to_json()

    def check(self, tt, discs, report) -> list[str]:
        bad = []
        if report.spec.values() != discs:
            bad.append("report is for another field")
        if report.d2 != len(discs) - 1:
            bad.append(f"d2 = {report.d2}, genus theory gives {len(discs) - 1}")
        if report.d4 != four_rank(discs):
            bad.append(f"d4 = {report.d4}, Redei-Reichardt gives {four_rank(discs)}")
        if (report.verdict == "InfiniteProven") != (report.certificate is not None):
            bad.append(f"verdict {report.verdict} disagrees with the certificate")
        if report.certificate and not tt.replay_certificate(report.certificate, report.spec):
            bad.append(f"certificate {report.certificate.criterion} does not replay")
        return bad

    def props(self, inputs) -> dict:
        absd = [abs(_discriminant(x)) for x in inputs]
        refs = []
        for discs in inputs:
            for triple in itertools.combinations(discs, 3):
                if _discriminant(triple) < 0:
                    refs.append(triple)
            for pair in itertools.combinations(discs, 2):
                if max(pair) > 0:
                    refs.append(pair)
        distinct = len(set(refs))
        return {
            "abs_disc_range": [min(absd), max(absd)],
            "sign_mix": {
                "negative_discs": sum(v < 0 for x in inputs for v in x),
                "positive_discs": sum(v > 0 for x in inputs for v in x),
            },
            "base_fields_referenced": len(refs),
            "base_fields_distinct": distinct,
            "base_field_reuse_ratio": round(len(refs) / distinct, 4),
        }


class ClassGroup:
    """narrow_class_group then wide_class_group on one discriminant near the bound."""

    name = "classgroup"
    op = "narrow_class_group then wide_class_group on one discriminant"
    lo, hi = 10**7, 10**8
    # Cost grows with |D|, and for D < 0 with h, which follows L(1, chi).
    # Each block of the stream visits 8 log-spaced |D| strata in
    # bit-reversed order, each with a negative then a positive
    # discriminant.  Each cell takes the candidate of rank 0, 1 or 2, in
    # turn over three blocks, by L(1, chi) estimate among three random
    # ones: a ranked set sample, which keeps the population's distribution.
    # The mix of cheap and dear ops is then nearly the same for every seed.
    strata = 8
    block = 16
    golden_ops = 16
    latency_ops = 48
    trace_ops = 16
    _euler_primes = _primes_up_to(300)

    def _l_estimate(self, d: int) -> float:
        out = 1.0
        for p in self._euler_primes:
            out /= 1 - kron(d, p) / p
        return out

    def stream(self, rng):
        bits = self.strata.bit_length() - 1
        edges = [round(self.lo * (self.hi / self.lo) ** (k / self.strata)) for k in range(self.strata + 1)]
        for pos in itertools.count():
            k = int(f"{(pos // 2) % self.strata:0{bits}b}"[::-1], 2)
            sign = -1 if pos % 2 == 0 else 1
            ranked = []
            while len(ranked) < 3:
                d = sign * rng.randrange(edges[k], edges[k + 1])
                if prime_discs(d) is not None:
                    ranked.append(d)
            ranked.sort(key=self._l_estimate)
            yield ranked[(pos // 2 + pos // self.block) % 3]

    def run(self, tt, d):
        return tt.narrow_class_group(d), tt.wide_class_group(d)

    def canon(self, d, groups) -> str:
        narrow, wide = groups
        return f"{d}\t{narrow.describe()}\t{wide.describe()}"

    def check(self, tt, d, groups) -> list[str]:
        narrow, wide = groups
        bad = []
        for label, g in (("narrow", narrow), ("wide", wide)):
            prod = 1
            for e in g.elementary_divisors:
                prod *= e
            if prod != g.order:
                bad.append(f"{label}: divisors multiply to {prod}, order is {g.order}")
        discs = prime_discs(d)
        if narrow.two_rank != len(discs) - 1:
            bad.append(f"narrow 2-rank {narrow.two_rank}, genus theory gives {len(discs) - 1}")
        if narrow.four_rank != four_rank(discs):
            bad.append(f"narrow 4-rank {narrow.four_rank}, Redei gives {four_rank(discs)}")
        if narrow.order not in (wide.order, 2 * wide.order) or (d < 0 and narrow.order != wide.order):
            bad.append(f"wide order {wide.order} does not fit narrow order {narrow.order}")
        return bad

    def props(self, inputs) -> dict:
        absd = [abs(d) for d in inputs]
        return {
            "abs_disc_range": [min(absd), max(absd)],
            "sign_mix": {"negative": sum(d < 0 for d in inputs), "positive": sum(d > 0 for d in inputs)},
            "distinct_discs": len(set(inputs)),
        }


class Sweep:
    """splitlab sweeps over all primes up to a fixed bound on small base fields."""

    name = "sweep"
    op = "one explore_symbol_dependence, verify_real_pair or verify_imag_triple call"
    prime_bound = 30_000
    block = 5
    # Prime limits keep |D| of explore fields near 1e6 or below, so the
    # table build is small next to the per-prime lookups.
    explore_limits = {2: 1000, 3: 100, 4: 31}
    golden_ops = 10
    latency_ops = 100
    trace_ops = 10

    def stream(self, rng):
        odd = {k: _primes_up_to(v) for k, v in self.explore_limits.items()}
        one_mod_4 = [p for p in _primes_up_to(1000) if p % 4 == 1]
        three_mod_4 = [p for p in _primes_up_to(200) if p % 4 == 3]
        while True:
            for k in (2, 3, 4):
                while True:
                    values = tuple(sorted({_random_prime_disc(rng, odd[k]) for _ in range(k)}, key=_prime_of))
                    if len({_prime_of(v) for v in values}) == k:
                        break
                yield ("explore", values)
            yield ("real_pair", tuple(rng.sample(one_mod_4, 2)))
            while True:
                triple = tuple(rng.sample(three_mod_4, 3))
                neg = [-q for q in triple]
                if any(redei_rows(p) == [[0, 1, 1], [0, 1, 1], [0, 0, 0]] for p in itertools.permutations(neg)):
                    break
            yield ("imag_triple", triple)

    def run(self, tt, x):
        kind, args = x
        if kind == "explore":
            return tt.explore_symbol_dependence(tt.QuadFieldSpec.from_disc_values(args), self.prime_bound)
        if kind == "real_pair":
            return tt.verify_real_pair(*args, self.prime_bound)
        return tt.verify_imag_triple(*args, self.prime_bound)

    def canon(self, x, out) -> str:
        kind, args = x
        head = f"# {kind} {list(args)} bound {self.prime_bound}"
        if kind == "explore":
            rows = "\n".join(row.tsv() for row in out.rows)
            return f"{head}\n{rows}\n# summary\t{json.dumps(out.summary())}"
        return f"{head} {list(out.base_field.values())}\n{out.describe()}"

    def check(self, tt, x, out) -> list[str]:
        kind, args = x
        primes = _primes_up_to(self.prime_bound)
        if kind == "explore":
            d = _discriminant(args)
            want = [p for p in primes if d % p]
            if [row.p for row in out.rows] != want:
                return ["rows do not cover exactly the primes coprime to D"]
            for row in out.rows:
                sym = kron(d, row.p)
                if row.symbols != tuple(kron(v, row.p) for v in args):
                    return [f"p = {row.p}: symbol vector {row.symbols} is wrong"]
                if row.split_type != ("inert" if sym == -1 else "split"):
                    return [f"p = {row.p}: {row.split_type} but (D/p) = {sym}"]
                if row.order_2part & (row.order_2part - 1) or row.count_in_l < 1:
                    return [f"p = {row.p}: impossible order 2-part or count in L"]
            return []
        bad = [f"{why} (p = {p})" for p, why in out.violations]
        if kind == "real_pair":
            want = sum(1 for p in primes if kron(args[0], p) == kron(args[1], p) == -1)
        else:
            d = -args[0] * args[1] * args[2]
            want = sum(1 for p in primes if d % p)
        if out.checked != want:
            bad.append(f"checked {out.checked} primes, expected {want}")
        return bad

    def props(self, inputs) -> dict:
        fields = [
            args if kind == "explore" else tuple(v if kind == "real_pair" else -v for v in args)
            for kind, args in inputs
        ]
        absd = [abs(_discriminant(f)) for f in fields]
        return {
            "abs_disc_range": [min(absd), max(absd)],
            "sign_mix": {
                "negative": sum(_discriminant(f) < 0 for f in fields),
                "positive": sum(_discriminant(f) > 0 for f in fields),
            },
            "discs_per_field": {str(k): sum(len(f) == k for f in fields) for k in (2, 3, 4)},
            "prime_bound": self.prime_bound,
            "base_field_reuse_ratio": round(len(fields) / len(set(fields)), 4),
        }


class Complete:
    """search.complete_tuple on every open catalog case, holes chosen by the seed."""

    name = "complete"
    op = "one search.complete_tuple call"
    # One member of each open case, in catalog slot order, so that every
    # choice of holes leaves a consistent partial tuple with a completion.
    references = {
        "A": (-31, -11, -43, -7, -3),
        "B": (-3, -47, -11, -43, -7),
        "C": (-4, -7, -31, -43, -3),
        "D1": (-4, -11, -43, -7, -3),
        "D2": (-4, -11, -7, -19, -3),
        "FamD2a": (-4, -19, -31, 13, 29),
        "FamD2b": (-4, -31, -11, 13, 29),
        "FamD2c": (-4, -19, -31, 13, 37),
        "FamD2d": (-4, -43, -19, 29, 37),
        "M16": (-31, -3, -11, 13, 5),
        "M28": (-11, -7, -19, 5, 13),
        "M30": (-23, -11, -7, 13, 5),
        "M32": (-7, -19, -3, 5, 13),
        "M34a": (-11, -7, -19, 29, 13),
        "M34b": (-23, -11, -7, 5, 17),
        "M49": (-3, -11, -7, 13, 17),
    }
    holes = 2
    bound = 300
    # Each block is one call per case; every ten blocks, each case has had
    # each of its ten hole pairs once, in an order the seed shuffles.  The
    # latency sample is the golden prefix plus twenty whole blocks.
    block = 16
    golden_ops = 32
    latency_ops = 352
    trace_ops = 32

    def stream(self, rng):
        pairs = list(itertools.combinations(range(5), self.holes))
        while True:
            orders = {tag: rng.sample(pairs, len(pairs)) for tag in self.references}
            for r in range(len(pairs)):
                for tag, ref in self.references.items():
                    holes = orders[tag][r]
                    partial = tuple(None if i in holes else v for i, v in enumerate(ref))
                    yield (tag, partial, self.bound)

    def run(self, tt, x):
        tag, partial, bound = x
        return tt.complete_tuple(tag, list(partial), bound, count=5)

    def canon(self, x, specs) -> str:
        tag = x[0]
        return "\n".join(
            json.dumps(
                {
                    "discriminant": s.discriminant,
                    "discs": list(s.values()),
                    "case": tag,
                    "cl2_order": None,
                    "certificate": None,
                }
            )
            for s in specs
        )

    def check(self, tt, x, specs) -> list[str]:
        tag, partial, bound = x
        want_d4 = four_rank(self.references[tag])
        bad = []
        if not specs:
            bad.append("no completion returned")
        for s in specs:
            values = s.values()
            if any(p is not None and p != v for p, v in zip(partial, values)):
                bad.append(f"{list(values)} changes a known slot")
            if any(p is None and _prime_of(v) > bound for p, v in zip(partial, values)):
                bad.append(f"{list(values)} fills a hole beyond the bound")
            got = tt.classify_open_case(s).tag
            if got != tag:
                bad.append(f"{list(values)} re-classifies to {got}")
            if tt.four_rank_narrow(s) != want_d4 or four_rank(values) != want_d4:
                bad.append(f"{list(values)}: 4-rank is not {want_d4}")
        return bad

    def props(self, inputs) -> dict:
        return {
            "cases": len({x[0] for x in inputs}),
            "holes_per_call": self.holes,
            "holes_total": sum(p is None for x in inputs for p in x[1]),
            "bound": self.bound,
        }


WORKLOADS = {w.name: w for w in (Census(), ClassGroup(), Sweep(), Complete())}


def golden_stream(workload):
    """The fixed inputs every run starts with, whatever its seed."""
    return workload.stream(random.Random(f"{workload.name}-golden"))


def op_stream(workload, seed: int):
    """The golden prefix, then inputs drawn from the seed.

    The prefix makes the byte-identity digest and the memory reading
    independent of the seed; the ops after it are the seed's own.
    """
    prefix = itertools.islice(golden_stream(workload), workload.golden_ops)
    return itertools.chain(prefix, workload.stream(random.Random(f"{workload.name}-{seed}")))
