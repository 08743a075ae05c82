"""Constructive searches: complete partial disc tuples to a target open
matrix case, list base fields with prescribed 2-class size, and generate
members of the two published infinite families of base fields.

Each hole keeps the primes whose Redei entries against the known discs
are the case's fixed entries, checked with the same entry rule that builds
the Redei matrix; every candidate tuple is then re-classified before it is
returned, so results are verified, never assumed.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Iterator

from .arith import (
    PrimeDiscriminant,
    QuadFieldSpec,
    is_prime,
    prime_disc_factorization,
    primes_up_to,
)
from .errors import Exhausted, NotFundamental, TemplateMismatch
from .redei import (
    CatalogCase,
    _classify,
    _code,
    _entry,
    catalog_cases,
    f2_rank,
    four_rank_narrow,
    redei_matrix,
)
from .tower import cl2_order


# Fillings complete_tuple walks at most, a few microseconds each (about 4 s).
_MAX_FILLS = 10**6


def _case_by_tag(tag) -> CatalogCase:
    name = getattr(tag, "tag", tag)
    for case in catalog_cases():
        if case.tag == name and case.status == "open":
            return case
    raise TemplateMismatch(f"unknown or non-open catalog case {name!r}")


def complete_tuple(case, partial, bound: int, count: int = 5) -> list[QuadFieldSpec]:
    """Fill the holes of a partial disc tuple so the field matches the case.

    `partial` lists one entry per catalog slot: a prime discriminant
    value, or None (or '_') for a hole.  A hole takes -4 in a '4' slot and
    otherwise -q or +q for an odd prime q <= `bound`, never -8 or 8, and
    keeps only the q whose entries against the known discs at the slots
    given are the case's fixed entries; every completed field is then
    re-classified, through the cached catalog match, and accepted when it
    classifies as the case under any permutation.  So a result may fit
    the case only with its discs at other slots: FamD2d (-4, -19, -43, 29,
    37) completes (-4, _, _, 29, 37) and fits under (0, 2, 1, 3, 4).  A
    field that fits only when known discs move is never tried: D1 with
    holes at slots 2 and 4 of (-4, -11, -43, -7, -3) misses |D| = 43428,
    (-4, -3, -7, -11, -47).  Returns the first `count` distinct fields by
    |D|; raises Exhausted when nothing completes and ValueError when
    `count` is below 1 or the holes' candidate lists give more than
    _MAX_FILLS fillings, before any is tried.
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
    # Known-against-known symbols must already match the case.
    for i, j in itertools.permutations(known, 2):
        want = cat.fixed[i][j]
        if want is not None and _entry(known[i].value, known[j].prime) != want:
            raise Exhausted(f"known discs violate fixed entry ({i},{j}); no completion exists")
    odd_primes = [q for q in primes_up_to(bound)[1:] if q not in known_primes]
    candidates: list[list[int]] = []
    for j in holes:
        code = cat.signs[j]
        if code == "4":
            candidates.append([-4] if 2 not in known_primes else [])
            continue
        sign = -1 if code == "-" else 1
        # (v, p, (q*/p), (v/q)) for each known disc v = p*; None is a wildcard.
        entries = [(d.value, d.prime, cat.fixed[j][i], cat.fixed[i][j]) for i, d in known.items()]
        candidates.append(
            [
                sign * q
                for q in odd_primes
                if sign * q % 4 == 1
                and all(
                    (row is None or _entry(sign * q, p) == row)
                    and (col is None or _entry(v, q) == col)
                    for v, p, row, col in entries
                )
            ]
        )
    fills = prod(map(len, candidates))
    if fills > _MAX_FILLS:
        raise ValueError(f"{fills} hole fillings to try, above the cap of {_MAX_FILLS}")
    results: list[QuadFieldSpec] = []
    seen_fields: set[int] = set()
    for fill in itertools.product(*candidates):
        # A hole takes -4 for the prime 2, -q only for q = 3 (mod 4) and +q
        # only for q = 1 (mod 4), so two hole values share a prime exactly
        # when they are equal.
        if len(set(fill)) != len(fill):
            continue
        values = list(slots)
        for j, v in zip(holes, fill):
            values[j] = v
        spec = QuadFieldSpec.from_disc_values(values)
        if not spec.is_imaginary or spec.discriminant in seen_fields:
            continue
        if _classify(spec, redei_matrix(spec)).tag == cat.tag:
            seen_fields.add(spec.discriminant)
            results.append(spec)
    if not results:
        raise Exhausted(f"no completion of {partial} to case {cat.tag} below {bound}")
    results.sort(key=lambda s: (abs(s.discriminant), s.values()))
    return results[:count]


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
        if f2_rank(redei_matrix(spec)) > redei_rank_max:
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
