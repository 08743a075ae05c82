"""Empirical verification of the principal-genus splitting theorems.

Two families of proved statements are swept over primes up to a bound (a
violation would mean a defect in the class-group kernel, so the reports
must come back clean), and one open-ended experiment tabulates how the
2-part of prime ideal class orders depends on the Kronecker symbol
vector at the base field's prime discriminants.

Each sweep fetches the class table of its base field once, after its
bound is checked (a QuadFieldSpec is fundamental by construction), reads
|Cl_2| off the table's class number, and asks it about one prime at a time
(_ClassTable.prime_info, which hands back one shared PrimeClassInfo per
class).  The primes come from arith._primes, which keeps the latest
bound's primes as a tuple, so sweeps repeated to one bound sieve once.
The symbols come by columns, one per value v, built over chunks of
_SYMBOL_CHUNK primes so a large bound holds one chunk's columns beside
its prime tuple: for a fundamental discriminant v, n -> (v/n) on n > 0
is periodic mod |v|, so the column is read from one kronecker call per
residue class of p mod |v| met, and a sweep makes at most min(|v|,
number of primes) kronecker calls per value.  The columns are zipped into one symbol vector per
prime, and (d/p) is their product.

A row (ExperimentRow) is a NamedTuple: the prime, its symbol vector, its
split type in F, the 2-part of its class's order and the number of
primes of L above it.  Rows unpack and compare as tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from .arith import QuadFieldSpec, _primes, is_prime, kronecker
from .errors import PreconditionUnmet
from .quadforms import _ClassTable, _check_bound, _table
from .redei import redei_matrix
from .tower import _count_in_l


def _symbol_key(symbols: tuple[int, ...]) -> str:
    return ",".join(f"{s:+d}" for s in symbols)


class ExperimentRow(NamedTuple):
    """One prime's decomposition data over the base field."""

    p: int
    symbols: tuple[int, ...]
    split_type: str
    order_2part: int
    count_in_l: int

    def symbol_key(self) -> str:
        return _symbol_key(self.symbols)

    def tsv(self) -> str:
        return (
            f"{self.p}\t{self.symbol_key()}\t{self.split_type}"
            f"\t{self.order_2part}\t{self.count_in_l}"
        )


@dataclass(frozen=True)
class SplittingExperiment:
    """All primes up to the bound, coprime to the base discriminant."""

    base_field: QuadFieldSpec
    prime_bound: int
    group: str  # "wide" | "narrow"
    rows: tuple[ExperimentRow, ...]

    def summary(self) -> dict[str, list[int]]:
        return summarize_rows(self.rows)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of sweeping a proved splitting statement."""

    base_field: QuadFieldSpec
    prime_bound: int
    group: str
    checked: int
    violations: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        word = "violation" if len(self.violations) == 1 else "violations"
        return f"checked {self.checked} primes, {len(self.violations)} {word}"


# Primes whose symbol columns _symbol_vectors holds at once.
_SYMBOL_CHUNK = 4096


def _symbol_column(v: int, memo: dict[int, int], primes: list[int]) -> list[int]:
    """(v/p) for each p in primes, read from memo, keyed by p mod |v|.

    (v/p) depends only on the class of p mod |v|, so kronecker runs once
    for each class that memo does not hold yet.
    """
    m = abs(v)
    residues = [p % m for p in primes]
    # dict() keeps one prime per residue class met.
    for r, p in dict(zip(residues, primes)).items():
        if r not in memo:
            memo[r] = kronecker(v, p)
    return [memo[r] for r in residues]


def _symbol_vectors(
    values: tuple[int, ...], bound: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """(p, ((v/p) for v in values), (d/p)) for each prime p <= bound not dividing d.

    d is the product of values, all prime discriminants.  The primes go
    by chunks of _SYMBOL_CHUNK; in each, every value's symbols form one
    column (_symbol_column, with one memo per value for the whole sweep),
    and (d/p) is the product of the columns.
    """
    d = prod(values)
    memos = [(v, {}) for v in values]
    primes = _primes(bound)
    for i in range(0, len(primes), _SYMBOL_CHUNK):
        chunk = [p for p in primes[i : i + _SYMBOL_CHUNK] if d % p]
        columns = [_symbol_column(v, memo, chunk) for v, memo in memos]
        d_column = columns[0]
        for column in columns[1:]:
            d_column = list(map(mul, d_column, column))
        yield from zip(chunk, zip(*columns), d_column)


def _base_table(f: QuadFieldSpec, wide: bool) -> tuple[_ClassTable, int]:
    """f's class table, fetched once f's bound is checked, and |Cl_2(f)|,
    wide or narrow, read off the table's class number."""
    _check_bound(f.discriminant)
    t = _table(f.discriminant)
    h = t.h_wide if wide else t.h_plus
    return t, h & -h


def iter_rows(
    f: QuadFieldSpec, bound: int, wide: bool = True
) -> Iterator[ExperimentRow]:
    """Stream one row per prime <= bound coprime to the discriminant."""
    t, c = _base_table(f, wide)
    for p, symbols, sym in _symbol_vectors(f.values(), bound):
        info = t.prime_info(p, sym, wide)
        yield ExperimentRow(p, symbols, info.split_type, info.order_2part, _count_in_l(c, info))


def summarize_rows(rows: Iterable[ExperimentRow]) -> dict[str, list[int]]:
    """The order 2-parts seen under each symbol vector, both sorted.

    Rows are grouped on the symbol tuple, so each of the at most 2^t
    distinct vectors is formatted once.
    """
    acc: dict[tuple[int, ...], set[int]] = {}
    for row in rows:
        acc.setdefault(row.symbols, set()).add(row.order_2part)
    keyed = {_symbol_key(symbols): parts for symbols, parts in acc.items()}
    return {key: sorted(parts) for key, parts in sorted(keyed.items())}


def explore_symbol_dependence(
    f: QuadFieldSpec, bound: int, wide: bool = True
) -> SplittingExperiment:
    """Tabulate order 2-parts by Kronecker symbol vector; pure data, no claim."""
    rows = tuple(iter_rows(f, bound, wide))
    return SplittingExperiment(f, bound, "wide" if wide else "narrow", rows)


def verify_real_pair(
    l1: int, l2: int, bound: int, wide: bool = True
) -> VerifyReport:
    """Check that doubly-inert primes meet exactly 2 primes in the 2-class field.

    For F on two positive prime discriminants l1, l2 (both 1 mod 4) and
    any prime p with (l1/p) = (l2/p) = -1, the prime p splits into
    exactly two primes of F and both stay inert all the way up.
    """
    if l1 == l2 or l1 % 4 != 1 or l2 % 4 != 1 or not (is_prime(l1) and is_prime(l2)):
        raise PreconditionUnmet("need distinct primes l1, l2, both 1 mod 4")
    f = QuadFieldSpec.from_disc_values([l1, l2])
    t, c = _base_table(f, wide)
    checked = 0
    violations = []
    for p, symbols, sym in _symbol_vectors(f.values(), bound):
        if symbols != (-1, -1):
            continue
        checked += 1
        count = _count_in_l(c, t.prime_info(p, sym, wide))
        if count != 2:
            violations.append((p, f"expected 2 primes in L, found {count}"))
    return VerifyReport(f, bound, "wide" if wide else "narrow", checked, tuple(violations))


_TRIPLE_SHAPE = ((0, 1, 1), (0, 1, 1), (0, 0, 0))


def verify_imag_triple(
    l1: int, l2: int, l3: int, bound: int, wide: bool = True
) -> VerifyReport:
    """Check the two-primes-in-L criterion for an imaginary three-disc field.

    Requires, after reordering the three negative prime discriminants, the
    Redei matrix [[0,1,1],[0,1,1],[0,0,0]].  Under that ordering a prime
    of F above p splits into exactly 2 primes of the 2-class field iff the
    symbol vector at p is (+1,-1,-1) or (-1,+1,-1).

    The shape forces Cl_2(F) of type C2 x C2^n with n >= 2, so no group
    structure is built: the 2-rank is t - 1 = 2, and the 4-rank is
    t - 1 - rank(R) = 3 - 1 - 1 = 1.  With c = |Cl_2(F)| the largest
    cyclic 2-part is then c / 2.
    """
    primes = (l1, l2, l3)
    if len(set(primes)) != 3 or any(q % 4 != 3 or not is_prime(q) for q in primes):
        raise PreconditionUnmet("need three distinct primes, all 3 mod 4")
    base = QuadFieldSpec.from_disc_values([-q for q in primes])
    ordered = None
    for perm in itertools.permutations(range(3)):
        candidate = base.reordered(perm)
        if redei_matrix(candidate) == _TRIPLE_SHAPE:
            ordered = candidate
            break
    if ordered is None:
        raise PreconditionUnmet("no ordering gives the required Redei matrix shape")
    t, c = _base_table(ordered, wide)
    max_cyclic = c // 2
    good = {(1, -1, -1), (-1, 1, -1)}
    checked = 0
    violations = []
    for p, symbols, sym in _symbol_vectors(ordered.values(), bound):
        checked += 1
        info = t.prime_info(p, sym, wide)
        two_primes_in_l = info.split_type == "split" and info.order_2part == max_cyclic
        predicted = symbols in good
        if two_primes_in_l != predicted:
            violations.append(
                (p, f"splits-into-2 = {two_primes_in_l} but symbols predict {predicted}")
            )
    return VerifyReport(ordered, bound, "wide" if wide else "narrow", checked, tuple(violations))
