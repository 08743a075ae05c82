"""Infinite 2-class field tower criteria for imaginary quadratic fields.

The engine proves infinitude either by Golod-Shafarevich directly on the
2-rank, or by picking a quadratic subfield F of the genus field, passing
to its Hilbert 2-class field L, and counting primes of L over the
ramified primes of K that are unramified in F.  Splitting counts come
from the decomposition law, never from constructing L.  Everything that
fails is recorded as a near-miss diagnostic.

The table CRITERIA, with the base-field shapes in BASE_KINDS, is the
single source of the base-field criteria and their attempt order.
analyze, base_field_certificate and kl_rank_lower_bound run them, and so
does replay_certificate: it recomputes a certificate and compares.
gs_required states the Golod-Shafarevich threshold once.

A base field F is a subset sub of K's discs, so every Redei entry F needs
is one of K's: each call takes K's Redei columns from redei once into
_Masks, with K's sign mask.  K's 4-rank, case and every F's 4-rank are
read off those columns by redei, and each witness's genus characters here,
as the bits cols[j] & sub in redei's orientation.  _checked_base turns a
given F into sub, _base_fields yields analyze's, and _kind counts signs.
_evaluate is the one route from sub to |Cl_2(F)|, its Witness records and
the bound (only checked: d_F is fundamental by construction).  An F of
narrow Redei 4-rank 0 takes the genus rule on the masks
(_genus_witnesses).  Else h is counted, on reduced forms for an imaginary
F (each witness's order 2-part from powering its prime form) and off the
class table for a real F.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, replace
from math import isqrt, prod

from .arith import QuadFieldSpec
from .errors import BoundExceeded, DivisibilityViolation, PreconditionUnmet, TwoTowerError
from .quadforms import (
    _INERT,
    PrimeClassInfo,
    _check_bound,
    _class_number,
    _prime_info,
    max_disc_bound,
    prime_class_info,
)
from .redei import CaseId, _classify, _four_rank, _redei_columns, _wide_two_rank, two_ranks


def gs_infinite(d2: int, unit_2rank: int) -> bool:
    """Golod-Shafarevich: 2-tower provably infinite once d2 >= 2 + 2*sqrt(1 + unit_2rank).

    Decided exactly against gs_required, the least such integer d2.
    """
    if d2 < 0 or unit_2rank < 0:
        raise ValueError("ranks are nonnegative")
    return d2 >= gs_required(unit_2rank)


def gs_required(unit_2rank: int) -> int:
    """Least integer d2 >= 2 + 2*sqrt(1 + unit_2rank): 2 + ceil(sqrt(4 * (1 + unit_2rank)))."""
    return 2 + isqrt(4 * (1 + unit_2rank) - 1) + 1


def cl2_order(f: QuadFieldSpec, wide: bool = True) -> int:
    """|Cl_2(F)| (wide by default), the 2-part of the class number.

    F's discriminant is fundamental by construction, so only its bound is
    checked; for F imaginary h is counted on reduced forms, without a table.
    """
    _check_bound(f.discriminant)
    h = _class_number(f.discriminant, wide)
    return h & -h


def splitting_count(f: QuadFieldSpec, p: int, wide: bool = True) -> int:
    """Number of primes of L = F^1_(2) above the rational prime p.

    By the decomposition law each prime of F above p splits into
    |Cl_2(F)| / (2-part of its class order) primes of L; an inert p is
    principal in F and therefore totally split in L/F.
    """
    return _count_in_l(cl2_order(f, wide), prime_class_info(f.discriminant, p, wide=wide))


def _count_in_l(c: int, info: PrimeClassInfo) -> int:
    """Primes of L above p, from c = |Cl_2(F)| and p's decomposition in F."""
    if info.split_type == "inert":
        return c
    if info.split_type == "split":
        return 2 * (c // info.order_2part)
    return c // info.order_2part


@dataclass(frozen=True)
class Witness:
    """Decomposition data for one unramified-in-F prime of K."""

    prime: int
    split_type: str
    order_2part: int
    count_in_l: int

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["count_in_L"] = out.pop("count_in_l")  # renamed, and still the last key
        return out


@dataclass(frozen=True)
class ThresholdCheck:
    """The exact Golod-Shafarevich instance a certificate rests on."""

    lhs: int
    required: int
    unit_2rank: int
    totally_real: bool

    def holds(self) -> bool:
        return self.lhs >= self.required

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Certificate:
    """Replayable proof that K has an infinite 2-class field tower."""

    criterion: str
    base_field_discs: tuple[int, ...]
    cl2_order: int | None
    witnesses: tuple[Witness, ...]
    threshold_check: ThresholdCheck

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "base_field_discs": list(self.base_field_discs),
            "cl2_order": self.cl2_order,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "threshold_check": self.threshold_check.to_json_dict(),
        }


@dataclass(frozen=True)
class Diagnostic:
    """Near-miss record: what a criterion achieved versus what it needed."""

    criterion: str
    achieved: int
    required: int
    detail: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TowerReport:
    """Verdict for one field: proven infinite, or open with diagnostics."""

    spec: QuadFieldSpec
    verdict: str  # "InfiniteProven" | "Open"
    d2: int
    d4: int
    case: CaseId
    certificate: Certificate | None
    diagnostics: tuple[Diagnostic, ...]

    def to_json_dict(self) -> dict:
        return {
            "discriminant": self.spec.discriminant,
            "discs": list(self.spec.values()),
            "d2": self.d2,
            "d4": self.d4,
            "case": self.case.to_json_dict(),
            "verdict": self.verdict,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "diagnostics": [d.to_json_dict() for d in self.diagnostics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def _bound_check(d: int, c: int, witnesses) -> ThresholdCheck:
    """Golod-Shafarevich on KL from F's discriminant d, c = |Cl_2(F)| and witnesses.

    L is the Hilbert 2-class field of F, of degree 2c over Q, and KL/L is
    quadratic.  Roquette-Zassenhaus (as in Schoof, J. reine angew. Math.
    372 (1986)) bounds d2 Cl(KL) below by the places of L that ramify in
    KL, less 1, less d2(E_L).  The finite ones lie over K's primes
    unramified in F, and the witness counts sum to them.  A real F has a
    totally real L of 2c real places, all ramified in the imaginary KL,
    which cancel d2(E_L) = 2c; an imaginary F has a totally complex L with
    d2(E_L) = c, so c is subtracted.  KL is totally complex of degree 4c,
    so its unit 2-rank is 2c, and Golod-Shafarevich at 2c gives the
    required d2.  The CRITERIA minima on c and the witnesses play no part
    in this soundness.
    """
    total = sum(w.count_in_l for w in witnesses)
    imaginary = d < 0
    lhs = total - 1 - (c if imaginary else 0)
    return ThresholdCheck(lhs, gs_required(2 * c), 2 * c, not imaginary)


@dataclass(frozen=True)
class BaseKind:
    """Shape of a base field F: how many of K's discs it takes and their signs."""

    size: int
    positives: tuple[int, ...]  # admissible counts of positive discs in F
    label: str  # prefix of the kind's prop32-bound diagnostic


@dataclass(frozen=True)
class Criterion:
    """One base-field lemma: the minima |Cl_2(F)| and the witness counts must reach."""

    name: str
    base_kind: str
    min_cl2: int
    min_inert: int
    min_total_split: int = 0


# The parts of a criterion's shortfall diagnostics, one per minimum above.
_PARTS = ("cl2", "inert", "split-complete")


BASE_KINDS = {
    "triple": BaseKind(3, (0, 2), "triple-16-two-inert"),
    "pos-pair": BaseKind(2, (2,), "pos-pair"),
    "mixed-pair": BaseKind(2, (1,), "mixed-pair"),
}

# The single source of the base-field criteria.  analyze tries base fields
# largest first, in combination order of K's discs, and on each one the
# criteria of its kind in this order; the first that passes gives the
# certificate.
CRITERIA = (
    Criterion("triple-16-two-inert", "triple", 16, 2),
    Criterion("pos-pair-8-one-inert", "pos-pair", 8, 1),
    Criterion("pos-pair-4-two-inert", "pos-pair", 4, 2),
    Criterion("mixed-16-two-inert", "mixed-pair", 16, 2),
    Criterion("mixed-4-one-inert-one-split", "mixed-pair", 4, 1, 1),
)


def _kind(sub: int, neg: int) -> str | None:
    """The base kind that the F on the discs in sub fits (see _Masks); the kinds are disjoint."""
    size, positives = sub.bit_count(), (sub & ~neg).bit_count()
    for kind, shape in BASE_KINDS.items():
        if size == shape.size and positives in shape.positives:
            return kind
    return None


@dataclass(frozen=True)
class _Masks:
    """K's Redei columns (redei._redei_columns: bit i of cols[j] is
    _entry(d_i, p_j) for i != j), and bit i of neg is set when d_i < 0.  For
    the F on the discs in sub, cols[j] & sub is F's Redei column j (off the
    diagonal) for j in sub, and the genus characters of the witness p_j for
    j outside it."""

    values: tuple[int, ...]
    primes: tuple[int, ...]
    cols: tuple[int, ...]
    neg: int

    def values_of(self, sub: int) -> tuple[int, ...]:
        return tuple(v for i, v in enumerate(self.values) if sub >> i & 1)


def _masks(k: QuadFieldSpec) -> _Masks:
    """K's _Masks, on K's Redei columns."""
    neg = sum(1 << i for i, d in enumerate(k.discs) if d.value < 0)
    return _Masks(k.values(), tuple(d.prime for d in k.discs), _redei_columns(k), neg)


def _checked_base(k: QuadFieldSpec, f: QuadFieldSpec) -> tuple[_Masks, int, str | None]:
    """(K's _Masks, F's discs as a subset sub of K's, F's kind or None).

    Raises DivisibilityViolation unless F's discs are discs of K that leave
    at least one prime of K unramified.
    """
    sub = sum(1 << i for i, d in enumerate(k.discs) if d in f.discs)
    if sub.bit_count() < f.t:
        raise DivisibilityViolation("F's prime discriminants must divide K's")
    if sub.bit_count() == k.t:
        raise DivisibilityViolation("at least one prime of K must be unramified in F")
    g = _masks(k)
    return g, sub, _kind(sub, g.neg)


def _symbol(a: int) -> int:
    """(d_F/q) from q's Redei entries a against F's discs: -1 when an odd number are 1."""
    return -1 if a.bit_count() & 1 else 1


# A split prime's class info under _genus_witnesses: order 2-part 1, else 2.
_GENUS_SPLIT = (PrimeClassInfo("split", 1), PrimeClassInfo("split", 2))


def _genus_witnesses(sub: int, neg: int, cols, rest) -> tuple[int, list[PrimeClassInfo]] | None:
    """(|Cl_2(F)|, the class info of each p_j, j in rest) by genus theory
    alone for the F on the discs in sub, or None when F's narrow Redei
    4-rank is above 0.  cols and neg are as in _Masks, at any primes p_j
    prime to d_F.  With t = |sub|, d_1..d_t F's discs and s = neg & sub:

    - Elementary narrow Cl_2.  Genus theory gives the narrow 2-rank t - 1,
      and Redei-Reichardt the narrow 4-rank (_four_rank), here 0.  So
      the narrow Cl_2 is elementary abelian of order 2^(t-1).
    - c from the wide 2-rank.  Cl^+ -> Cl is onto, and its kernel is
      generated by the narrow class k of a principal ideal whose generator
      has negative norm.  So the wide Cl_2 is the narrow one modulo a
      subgroup of order 1 or 2, itself elementary, and c is 2 to its wide
      2-rank (_wide_two_rank): t - 1 for F imaginary (k trivial) and for
      F real with every d_i > 0 (d_F a sum of two squares, k trivial), and
      t - 2 for F real with a negative disc (no sum of two squares).
    - Genus characters as Kronecker symbols.  At a prime q not dividing
      d_F the genus characters of a prime of F above q are the symbols
      (d_i/q), whose F2 entries are the bits a = cols[j] & sub.  (d_F/q)
      is their product, so q is inert iff a has an odd number of bits; an
      inert prime is principal, generated by the positive q: order 2-part
      1, count c.
    - Frobenius test.  The kernel of the genus characters is the square
      classes, so with the narrow Cl_2 elementary a narrow class's 2-part
      is fixed by its characters, and k's are the signs of the d_i (the
      characters at -1): entries s.  So a split prime's wide class has
      order 2-part 1 exactly when a is 0 or s, and 2 otherwise;
      _count_in_l gives the count from c.  No sign case is needed: for F
      imaginary s has an odd number of bits, so a = s is inert and never
      reaches the test; for F real with every d_i > 0, s is 0.
    """
    if _four_rank(cols, sub):
        return None
    s = neg & sub
    infos = []
    for j in rest:
        a = cols[j] & sub
        infos.append(_INERT if a.bit_count() & 1 else _GENUS_SPLIT[a != 0 and a != s])
    return 1 << _wide_two_rank(sub.bit_count(), s.bit_count()), infos


def _evaluate(g: _Masks, sub: int):
    """(|Cl_2(F)|, the witnesses at K's primes unramified in F, the bound check)
    for the F on the discs in sub.  c and the witnesses' classes come from
    the genus rule on g's masks, or for F of 4-rank above 0 from the 2-part
    of the wide class number (L = F^1_(2) is unramified at infinity too)
    and a class lookup per prime.  Here alone _count_in_l makes Witnesses.
    """
    d = prod(g.values_of(sub))
    _check_bound(d)
    rest = [j for j in range(len(g.primes)) if not sub >> j & 1]
    genus = _genus_witnesses(sub, g.neg, g.cols, rest)
    if genus is None:
        h = _class_number(d, True)
        genus = h & -h, [_prime_info(d, g.primes[j], _symbol(g.cols[j] & sub)) for j in rest]
    c, infos = genus
    wit = tuple(
        Witness(g.primes[j], info.split_type, info.order_2part, _count_in_l(c, info))
        for j, info in zip(rest, infos)
    )
    return c, wit, _bound_check(d, c, wit)


def _attempt(g: _Masks, sub: int, kind: str, criteria=None):
    """(certificate of the first criterion F passes or None, diagnostics); default: kind's."""
    c, wit, check = _evaluate(g, sub)
    values = g.values_of(sub)
    inert = sum(w.split_type == "inert" for w in wit)
    complete = sum(w.split_type == "split" and w.order_2part == 1 for w in wit)
    where = f"F={list(values)}"
    diags = []
    for cr in criteria or [cr for cr in CRITERIA if cr.base_kind == kind]:
        needs = zip(_PARTS, (c, inert, complete), (cr.min_cl2, cr.min_inert, cr.min_total_split))
        short = [(part, got, need) for part, got, need in needs if got < need]
        if not short and check.holds():
            return Certificate(cr.name, values, c, wit, check), []
        diags += [Diagnostic(f"{cr.name}:{part}", got, need, where) for part, got, need in short]
    diags.append(
        Diagnostic(
            "prop32-bound",
            check.lhs,
            check.required,
            f"{BASE_KINDS[kind].label} {where}: d2 Cl(KL) >= {check.lhs} by relative genus "
            f"theory, Golod-Shafarevich at [L:Q]={check.unit_2rank} needs {check.required}; "
            "the full d2 Cl(KL) criterion is not evaluated",
        )
    )
    return None, diags


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise PreconditionUnmet(msg)


def base_field_certificate(k: QuadFieldSpec, f: QuadFieldSpec) -> Certificate | None:
    """Certificate from base field F of K by the criteria of F's kind, if one holds.

    F's kind follows from its discs' signs (see BASE_KINDS).  K must be
    imaginary and F must fit a kind (else PreconditionUnmet), and F's discs
    must be discs of K leaving a prime of K unramified (else
    DivisibilityViolation).  The call is about one field, so an F above the
    discriminant bound raises BoundExceeded, where analyze records a
    skipped:bound diagnostic and goes on.
    """
    _require(k.is_imaginary, "K must be imaginary")
    g, sub, kind = _checked_base(k, f)
    _require(kind is not None, "F's discs fit no base kind")
    return _attempt(g, sub, kind)[0]


def kl_rank_lower_bound(k: QuadFieldSpec, f: QuadFieldSpec) -> int:
    """Relative-genus-theory lower bound on d2 Cl(KL), L the 2-class field of F.

    The call is about the one field F, so an F above the discriminant bound
    raises BoundExceeded by design rather than degrading as analyze does.
    """
    g, sub, _ = _checked_base(k, f)
    return _evaluate(g, sub)[2].lhs


def _base_fields(g: _Masks):
    """(sub, F's kind) for every base field F analyze tries, in attempt order:
    largest first, and in combination order of K's disc indices within a size."""
    t = len(g.values)
    for size in sorted({shape.size for shape in BASE_KINDS.values()}, reverse=True):
        if t <= size:
            continue
        for idx in itertools.combinations(range(t), size):
            sub = sum(1 << i for i in idx)
            kind = _kind(sub, g.neg)
            if kind is not None:
                yield sub, kind


def _gs_certificate(k: QuadFieldSpec) -> Certificate | None:
    """Golod-Shafarevich on K itself: an imaginary K has unit 2-rank 1."""
    d2, _ = two_ranks(k)
    if not gs_infinite(d2, 1):
        return None
    check = ThresholdCheck(d2, gs_required(1), 1, False)
    return Certificate("gs-two-rank", k.values(), None, (), check)


def analyze(k: QuadFieldSpec) -> TowerReport:
    """Full verdict for an imaginary quadratic field.

    Applies Golod-Shafarevich on the 2-rank, then every sign-admissible
    triple and pair through the criteria of CRITERIA in a fixed order; the
    first certificate wins and any further passes are listed in the
    diagnostics.  A base field above the discriminant bound is skipped with
    a skipped:bound diagnostic.
    """
    _require(k.is_imaginary, "K must be imaginary")
    d2, _ = two_ranks(k)
    g = _masks(k)
    d4 = _four_rank(g.cols)
    if k.t == 5:
        case = _classify(k, g.cols)
    else:
        case = CaseId("NotOpen", (), "open-case catalog covers t = 5 only")
    diagnostics: list[Diagnostic] = []
    certificate = _gs_certificate(k)
    if certificate is None:
        diagnostics.append(
            Diagnostic("gs-two-rank", d2, gs_required(1), "direct Golod-Shafarevich on K")
        )
        for sub, kind in _base_fields(g):
            try:
                cert, diags = _attempt(g, sub, kind)
            except BoundExceeded:
                # Any other base field's certificate is valid on its own.
                values = g.values_of(sub)
                diagnostics.append(
                    Diagnostic(
                        "skipped:bound", abs(prod(values)), max_disc_bound(), f"F={list(values)}"
                    )
                )
                continue
            if cert is not None and certificate is None:
                certificate = cert
            elif cert is not None:
                diagnostics.append(
                    Diagnostic(
                        f"also-passes:{cert.criterion}",
                        cert.threshold_check.lhs,
                        cert.threshold_check.required,
                        f"F={list(cert.base_field_discs)}",
                    )
                )
            diagnostics.extend(diags)
    verdict = "InfiniteProven" if certificate else "Open"
    return TowerReport(k, verdict, d2, d4, case, certificate, tuple(diagnostics))


def _unordered(cert: Certificate) -> Certificate:
    """cert with its base discs and witnesses in one fixed order."""
    wit = tuple(sorted(cert.witnesses, key=lambda w: w.prime))
    return replace(cert, base_field_discs=tuple(sorted(cert.base_field_discs)), witnesses=wit)


def replay_certificate(cert: Certificate, k: QuadFieldSpec) -> bool:
    """True iff analyze's code, run on K for cert's criterion and base field, rebuilds cert.

    The base discs must be discs of K whose kind is the criterion's; every
    other field is recomputed and compared, in any order.  Base discs that
    fail the base-field checks or are no ints, or any other package error,
    give False.
    """
    if not k.is_imaginary:
        return False
    try:
        if cert.criterion == "gs-two-rank":
            fresh = _gs_certificate(k)
        else:
            g, sub, kind = _checked_base(k, QuadFieldSpec.from_disc_values(cert.base_field_discs))
            criteria = [cr for cr in CRITERIA if cr.name == cert.criterion]
            if not criteria or criteria[0].base_kind != kind:
                return False
            fresh, _ = _attempt(g, sub, kind, criteria)
    except (TwoTowerError, TypeError):
        return False
    return fresh is not None and _unordered(fresh) == _unordered(cert)
