"""Constructive searches: complete partial disc tuples to a target open
matrix case, list base fields with prescribed 2-class size, and generate
members of the two published infinite families of base fields.

complete_tuple keeps, for each hole, the primes whose Redei entries against
the known discs are the case's fixed entries, checked with the same entry
rule that builds the Redei matrix.  Those entries are read off cached
columns: per known disc, hole sign code and bound, two bitmasks over the
code's candidate pool, one bit per candidate, so a hole's filter is a few
ANDs of whole columns and its candidate count a popcount.  It walks the
hole fillings in ascending |D| and stops at the `count`-th field that
classifies as the case.  Each field it meets is classified once, on its
Redei columns, assembled here bit by bit in the orientation redei owns (bit
i of column j is the entry of slot i's disc at slot j's prime): the OR of
bits made once per call (known against known, and each candidate's against
the known discs, read off the same pool bitmasks) and the filling's own
hole-against-hole entries, so results are verified, never assumed.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache
from math import prod
from typing import Iterator

from .arith import (
    PrimeDiscriminant,
    QuadFieldSpec,
    _primes,
    is_prime,
    prime_disc_factorization,
)
from .errors import Exhausted, NotFundamental, TemplateMismatch
from .redei import CatalogCase, _case_of, _code, _entry, catalog_cases, four_rank_narrow
from .tower import cl2_order


# Fillings complete_tuple will walk at most, a few microseconds each.
_MAX_FILLS = 10**6

# Sized from the distinct keys met in a 20 s `complete` benchmark run (one
# bound): 3 pools, one per sign code, and 36 columns, which these hold with
# room for a few more bounds.
_POOL_CACHE_SIZE = 8
_COLUMN_CACHE_SIZE = 128


@lru_cache(maxsize=_POOL_CACHE_SIZE)
def _pool(code: str, bound: int) -> tuple[tuple[tuple[int, int], ...], dict[int, int]]:
    """A hole's candidates for a sign code, as (v, its prime) ascending by
    |v|, and each prime's position: -4 for '4', else -q for '-' or +q for
    '+', q an odd prime <= bound and v = 1 (mod 4)."""
    if code == "4":
        pool = ((-4, 2),)
    else:
        sign = -1 if code == "-" else 1
        pool = tuple((sign * q, q) for q in _primes(bound)[1:] if sign * q % 4 == 1)
    return pool, {q: n for n, (_, q) in enumerate(pool)}


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _columns(w: int, p: int, code: str, bound: int) -> tuple[int, int]:
    """Bitmasks over _pool(code, bound) for the prime discriminant w of
    prime p: bit n of the first is v_n's Redei entry against p, of the
    second w's entry against q_n.  The entry rule is taken uncached, so a
    column's pass over the whole pool leaves _entry's slots to the
    hole-against-hole entries of the walk."""
    entry = _entry.__wrapped__
    row = col = 0
    for n, (v, q) in enumerate(_pool(code, bound)[0]):
        row |= entry(v, p) << n
        col |= entry(w, q) << n
    return row, col


def _case_by_tag(tag) -> CatalogCase:
    name = getattr(tag, "tag", tag)
    for case in catalog_cases():
        if case.tag == name and case.status == "open":
            return case
    raise TemplateMismatch(f"unknown or non-open catalog case {name!r}")


def _candidates(
    cat: CatalogCase, known: dict[int, PrimeDiscriminant], holes: list[int], bound: int
) -> list[list[tuple[int, int, tuple[int, ...]]]]:
    """Per hole, ascending by |v|: (v, its prime, its Redei entries against
    the known discs as five column bitmasks in slot order, as in
    redei._redei_columns), for the v that pass complete_tuple's filter.
    ValueError when they give more than _MAX_FILLS fillings, counted before
    any list is built."""
    known_primes = {d.prime for d in known.values()}
    # Per hole, the bits of its pool it keeps and (i, row mask, column mask)
    # for each known disc i; -4 takes no entry filter.
    kept = []
    for j in holes:
        code = cat.signs[j]
        pool, where = _pool(code, bound)
        keep = (1 << len(pool)) - 1
        for p in known_primes & where.keys():
            keep &= ~(1 << where[p])
        cols = [(i,) + _columns(d.value, d.prime, code, bound) for i, d in known.items()]
        if code != "4":
            for i, row, col in cols:
                for mask, want in ((row, cat.fixed[j][i]), (col, cat.fixed[i][j])):
                    if want is not None:
                        keep &= mask if want else ~mask
        kept.append((j, pool, keep, cols))
    fills = prod(keep.bit_count() for _, _, keep, _ in kept)
    if fills > _MAX_FILLS:
        raise ValueError(f"{fills} hole fillings to try, above the cap of {_MAX_FILLS}")
    candidates = []
    for j, pool, keep, cols in kept:
        candidates.append([])
        while keep:
            n = (keep & -keep).bit_length() - 1
            keep &= keep - 1
            # v's entry against d_i is bit j of column i, d_i's against q bit i of column j.
            bits = [0] * 5
            for i, row, col in cols:
                bits[i] |= (row >> n & 1) << j
                bits[j] |= (col >> n & 1) << i
            candidates[-1].append(pool[n] + (tuple(bits),))
    return candidates


def complete_tuple(case, partial, bound: int, count: int = 5) -> list[QuadFieldSpec]:
    """Fill the holes of a partial disc tuple so the field matches the case.

    `partial` lists one entry per catalog slot: a prime discriminant
    value, or None (or '_') for a hole.  A hole takes -4 in a '4' slot and
    otherwise -q or +q for an odd prime q <= `bound`, never -8 or 8, and
    keeps only the q whose entries against the known discs at the slots
    given are the case's fixed entries.  The fillings are walked in
    ascending |D|, ties (one field, its hole values in another order) in
    itertools.product order of the candidate lists, which ascend by |v|.
    The first filling of each field is classified, through the cached
    catalog match, and the field is accepted when it classifies as the
    case under any permutation; the walk stops at the `count`-th field
    accepted.  So a result may fit the case only with its discs at other
    slots: FamD2d (-4, -19, -43, 29, 37) completes (-4, _, _, 29, 37) and
    fits under (0, 2, 1, 3, 4).  A field that fits only when known discs
    move is never tried: D1 with holes at slots 2 and 4 of (-4, -11, -43,
    -7, -3) misses |D| = 43428, (-4, -3, -7, -11, -47).

    A hole's candidates are its code's pool (_pool, cached per code and
    bound) less the known primes, ANDed with each known disc's cached
    columns (_columns, keyed on the disc, its prime, the code and the bound:
    bit n of one is the nth candidate's entry against the disc, of the other
    the disc's entry against the candidate) or their complements wherever
    the case fixes an entry.  Returns the first `count` distinct fields by
    |D|; raises Exhausted when nothing completes and ValueError when `count`
    is below 1 or the holes' candidate lists give more than _MAX_FILLS
    fillings, counted exactly by popcount before any is tried.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, not {count}")
    cat = _case_by_tag(case)
    slots = [None if v in (None, "_") else int(v) for v in partial]
    if len(slots) != 5:
        raise TemplateMismatch("a partial tuple needs exactly 5 slots")
    known: dict[int, PrimeDiscriminant] = {}
    for i, v in enumerate(slots):
        if v is not None:
            known[i] = PrimeDiscriminant.from_value(v)
            if _code(known[i]) != cat.signs[i]:
                raise TemplateMismatch(f"slot {i}: {v} does not fit sign code {cat.signs[i]!r}")
    holes = [i for i, v in enumerate(slots) if v is None]
    known_primes = {d.prime for d in known.values()}
    if len(known_primes) != len(known):
        raise TemplateMismatch("known discs share an underlying prime")
    # Redei columns in slot order: known against known here, where they must
    # already match the case, each candidate's against the known discs from
    # _candidates, hole against hole per filling.
    base = [0] * 5
    for i, j in itertools.permutations(known, 2):
        a = _entry(known[i].value, known[j].prime)
        if cat.fixed[i][j] not in (None, a):
            raise Exhausted(f"known discs violate fixed entry ({i},{j}); no completion exists")
        base[j] |= a << i
    candidates = _candidates(cat, known, holes, bound)
    n = len(holes)
    hole_pairs = [(holes[x], holes[y], x, y) for x, y in itertools.permutations(range(n), 2)]
    # Fillings are index tuples into the candidate lists, walked from a heap
    # in ascending (|D|, index tuple).  A tuple's one parent takes 1 off its
    # last nonzero index, and each list ascends by |v|, so a tuple is pushed
    # when its parent pops and every |D| is met in full, in product order.
    # The sign codes fix the sign of D (odd count of negatives: imaginary),
    # and equal |D| means one field, whose verdict no order of its discs moves.
    heap = []
    if all(candidates) and sum(code != "+" for code in cat.signs) % 2:
        absd = prod(abs(d.value) for d in known.values()) * prod(abs(c[0][0]) for c in candidates)
        heap.append((absd, (0,) * n))
    results: list[QuadFieldSpec] = []
    prev = 0
    while heap and len(results) < count:
        absd, idx = heapq.heappop(heap)
        k = n - 1
        while k > 0 and not idx[k]:
            k -= 1
        for k in range(max(k, 0), n):
            if idx[k] + 1 < len(candidates[k]):
                up = absd // abs(candidates[k][idx[k]][0]) * abs(candidates[k][idx[k] + 1][0])
                heapq.heappush(heap, (up, idx[:k] + (idx[k] + 1,) + idx[k + 1 :]))
        fill = [c[i] for c, i in zip(candidates, idx)]
        # A hole takes -4 for the prime 2, -q only for q = 3 (mod 4) and +q
        # only for q = 1 (mod 4), so two hole values share a prime exactly
        # when they are equal.
        if absd == prev or len({v for v, _, _ in fill}) != n:
            continue
        prev = absd
        cols = base
        for _, _, bits in fill:
            cols = [a | b for a, b in zip(cols, bits)]
        for i, j, x, y in hole_pairs:
            cols[j] |= _entry(fill[x][0], fill[y][1]) << i
        if _case_of(cat.signs, tuple(cols)).tag == cat.tag:
            values = list(slots)
            for j, (v, _, _) in zip(holes, fill):
                values[j] = v
            results.append(QuadFieldSpec.from_disc_values(values))
    if not results:
        raise Exhausted(f"no completion of {partial} to case {cat.tag} below {bound}")
    return results


# Each template's number of discs, sign of D, and predicate on the disc values.
_TEMPLATES = {
    "imaginary-3-neg": (3, -1, lambda vs: all(v < 0 for v in vs) and -4 not in vs),
    # usable under a -4-bearing parent: contains -4, or leaves 2 unramified
    "imaginary-with-minus4": (3, -1, lambda vs: -4 in vs or all(v % 2 for v in vs)),
    "imaginary-mixed-pair": (2, -1, lambda vs: True),
    "real-pos-pair": (2, 1, lambda vs: all(v > 0 for v in vs)),
}


def find_base_fields(
    sign_pattern: str, min_cl2: int, redei_rank_max: int, bound: int
) -> list[QuadFieldSpec]:
    """All template-matching fields with |D| <= bound, small Redei rank,
    and |Cl_2| >= min_cl2, ascending by |D|."""
    if sign_pattern not in _TEMPLATES:
        raise TemplateMismatch(f"unknown template {sign_pattern!r}")
    t, sign, fits = _TEMPLATES[sign_pattern]
    out = []
    for absd in range(3, bound + 1):
        try:
            spec = prime_disc_factorization(sign * absd)
        except NotFundamental:
            continue
        if spec.t != t or not fits(spec.values()):
            continue
        if spec.t - 1 - four_rank_narrow(spec) > redei_rank_max:
            continue
        if cl2_order(spec) < min_cl2:
            continue
        out.append(spec)
    return out


def dmw_family(n: int, m_max: int) -> Iterator[QuadFieldSpec]:
    """Imaginary fields (-q3, +q5) with cyclic 2-class group of order 2^n.

    Candidates satisfy q3 = 3 mod 8, q5 = 5 mod 8 prime, and
    q3 + q5 = 4*(2*M^2)^(2^(n-1)) for odd M; each emitted field's
    2-class structure is verified computationally, not assumed.  Two discs
    give 2-rank 1, so Cl_2 is cyclic and its order decides it.
    """
    if n < 1:
        raise ValueError("n >= 1")
    for m in range(1, m_max + 1, 2):
        total = 4 * (2 * m * m) ** (2 ** (n - 1))
        for q3 in range(3, total, 8):
            q5 = total - q3
            if q5 <= 0 or q5 % 8 != 5:
                continue
            if not (is_prime(q3) and is_prime(q5)):
                continue
            spec = QuadFieldSpec.from_disc_values([-q3, q5])
            if cl2_order(spec) == 2**n:
                yield spec


def lopez_family(n: int, m_max: int) -> Iterator[QuadFieldSpec]:
    """Imaginary fields (-4, -q3, -q4) with 2-class group C2 x C2^n.

    Candidates satisfy q3 = 11 mod 24, q4 = 7 mod 24 prime, and
    q3 + q4 = 2*(3*m^2)^(2^(n-1)) for odd m; verified computationally.
    Three discs give 2-rank 2, so |Cl_2| = 4 decides n = 1, and for n >= 2
    the Redei 4-rank 1 with |Cl_2| = 2^(n+1).
    """
    if n < 1:
        raise ValueError("n >= 1")
    for m in range(1, m_max + 1, 2):
        total = 2 * (3 * m * m) ** (2 ** (n - 1))
        for q3 in range(11, total, 24):
            q4 = total - q3
            if q4 <= 0 or q4 % 24 != 7:
                continue
            if not (is_prime(q3) and is_prime(q4)):
                continue
            spec = QuadFieldSpec.from_disc_values([-4, -q3, -q4])
            if cl2_order(spec) == 2 ** (n + 1) and (n == 1 or four_rank_narrow(spec) == 1):
                yield spec
