"""Infinite 2-class field tower criteria for imaginary quadratic fields.

The engine proves infinitude either by Golod-Shafarevich directly on the
2-rank, or by picking a quadratic subfield F of the genus field, passing
to its Hilbert 2-class field L, and counting primes of L over the
ramified primes of K that are unramified in F.  Splitting counts come
from the decomposition law, never from constructing L.  Everything that
fails is recorded as a near-miss diagnostic.

The table CRITERIA, with the base-field shapes in BASE_KINDS, is the
single source of the base-field criteria and their attempt order.  A base
field is a QuadFieldSpec F throughout: _checked_base is the one check of F
against K, and _kind finds F's shape from its discs' signs once per base
field (_base_fields yields it beside F).  analyze, base_field_certificate
and kl_rank_lower_bound run them, and so does replay_certificate: it
recomputes a certificate and compares.  gs_required states the
Golod-Shafarevich threshold once; gs_infinite compares with it.

_evaluate is the one route from F to |Cl_2(F)|, its Witness records and
the bound.  F's discriminant is fundamental by construction, so only its
bound is checked and no base field is factored.  Both sources give c and
one PrimeClassInfo per witness prime.  Every F of narrow Redei 4-rank 0,
of either sign, takes one genus-theory rule (_genus_witnesses): c is 2 to
F's wide 2-rank, and each witness's type and order 2-part follow from the
Redei entries of F's discs at the witness, the cached Kronecker symbols
of K's own Redei matrix, compared with F's sign vector.  An F of 4-rank
above 0 counts its class number: for an imaginary F no class table is
built, h is counted once on reduced forms (cached) and each witness's
order 2-part comes from powering its prime form; a real F reads both off
its class table.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from math import isqrt

from .arith import QuadFieldSpec, kronecker
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
from .redei import CaseId, _classify, _entry, _four_rank, redei_matrix, two_ranks


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
        return {
            "prime": self.prime,
            "split_type": self.split_type,
            "order_2part": self.order_2part,
            "count_in_L": self.count_in_l,
        }


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
        return {
            "lhs": self.lhs,
            "required": self.required,
            "unit_2rank": self.unit_2rank,
            "totally_real": self.totally_real,
        }


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
        return {
            "criterion": self.criterion,
            "achieved": self.achieved,
            "required": self.required,
            "detail": self.detail,
        }


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


def _bound_check(f: QuadFieldSpec, c: int, witnesses) -> ThresholdCheck:
    """Golod-Shafarevich on KL from F's c = |Cl_2(F)| and witnesses.

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
    imaginary = f.discriminant < 0
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

    def shortfalls(self, c: int, witnesses) -> list[tuple[str, int, int]]:
        """(part, achieved, required) for every minimum F falls short of."""
        achieved = (
            c,
            sum(1 for w in witnesses if w.split_type == "inert"),
            sum(1 for w in witnesses if w.split_type == "split" and w.order_2part == 1),
        )
        required = (self.min_cl2, self.min_inert, self.min_total_split)
        return [
            (part, got, need)
            for part, got, need in zip(("cl2", "inert", "split-complete"), achieved, required)
            if got < need
        ]


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


def _kind(values) -> str | None:
    """The base kind whose size and signs F's disc values fit; the kinds are disjoint."""
    positives = sum(v > 0 for v in values)
    for kind, shape in BASE_KINDS.items():
        if len(values) == shape.size and positives in shape.positives:
            return kind
    return None


def _checked_base(k: QuadFieldSpec, f: QuadFieldSpec) -> QuadFieldSpec:
    """F with its discs in K's order.

    Raises DivisibilityViolation unless F's discs are discs of K that leave
    at least one prime of K unramified.
    """
    discs = tuple(d for d in k.discs if d in f.discs)
    if len(discs) < f.t:
        raise DivisibilityViolation("F's prime discriminants must divide K's")
    if len(discs) == k.t:
        raise DivisibilityViolation("at least one prime of K must be unramified in F")
    return QuadFieldSpec(discs)


# A split prime's class info under _genus_witnesses: order 2-part 1 when its
# Redei entries are 0 or F's sign vector, else 2.
_GENUS_SPLIT = (PrimeClassInfo("split", 1), PrimeClassInfo("split", 2))


def _genus_witnesses(f: QuadFieldSpec, primes) -> tuple[int, list[PrimeClassInfo]] | None:
    """(|Cl_2(F)|, the class info of each prime in primes) by genus theory
    alone; None when F's narrow Redei 4-rank is above 0.

    With t = F.t, d_1..d_t F's discs and s the F2 vector with s_i = 1
    exactly when d_i < 0:

    - Elementary narrow Cl_2.  Genus theory gives the narrow 2-rank t - 1,
      and Redei-Reichardt the narrow 4-rank t - 1 - rank(R_F), here 0.  So
      the narrow Cl_2 is elementary abelian of order 2^(t-1).
    - c from the wide 2-rank.  Cl^+ -> Cl is onto, and its kernel is
      generated by the narrow class k of a principal ideal whose generator
      has negative norm.  So the wide Cl_2 is the elementary narrow one
      modulo a subgroup of order 1 or 2, itself elementary, and c is 2 to
      its wide 2-rank, which two_ranks derives.  For F imaginary k is
      trivial and c = 2^(t-1).  For F real with every d_i > 0, d_F is a sum
      of two squares, the wide 2-rank is t - 1, and so c = 2^(t-1) and k is
      trivial too.  For F real with a negative disc, d_F is no sum of two
      squares, the wide 2-rank is t - 2, and c = 2^(t-2): k is not trivial.
    - Genus characters as Kronecker symbols.  At a prime q not dividing
      d_F the genus characters of a prime of F above q are the symbols
      (d_i/q), whose F2 entries a_i = _entry(d_i, q) are Redei entries of
      K when F's discs and q are K's.  (d_F/q) is their product, so q is
      inert iff sum a_i is odd; an inert prime is principal, generated by
      the positive q: order 2-part 1, count c.
    - Frobenius test.  The kernel of the genus characters is the square
      classes, so with the narrow Cl_2 elementary a narrow class's 2-part
      is fixed by its characters, and k's are the signs of the d_i (the
      characters at -1): entries s.  So a split prime's wide class has
      order 2-part 1 exactly when a is 0 or s, and 2 otherwise;
      _count_in_l gives the count from c.  No sign case is needed: for F
      imaginary sum s_i is odd, so a = s is inert and never reaches the
      test; for F real with every d_i > 0, s is 0.
    """
    values = f.values()
    if _four_rank(redei_matrix(f)):
        return None
    c = 1 << two_ranks(f)[1]
    s = [int(v < 0) for v in values]
    infos = []
    for q in primes:
        a = [_entry(v, q) for v in values]
        infos.append(_INERT if sum(a) % 2 else _GENUS_SPLIT[any(a) and a != s])
    return c, infos


def _evaluate(k: QuadFieldSpec, f: QuadFieldSpec):
    """(|Cl_2(F)|, the witnesses at K's primes unramified in F, the bound check).

    Past F's one bound check, c and the witness primes' classes come from
    genus theory for F of narrow Redei 4-rank 0 (_genus_witnesses: no class
    number, table or form powering), else from the 2-part of the wide class
    number (as L = F^1_(2) is unramified at infinity too) and a class
    lookup per prime.
    Here alone _count_in_l makes each class a Witness.
    """
    rest = [d.prime for d in k.discs if d not in f.discs]
    d = f.discriminant
    _check_bound(d)
    genus = _genus_witnesses(f, rest)
    if genus is None:
        h = _class_number(d, True)
        genus = h & -h, [_prime_info(d, p, kronecker(d, p)) for p in rest]
    c, infos = genus
    wit = tuple(
        Witness(p, info.split_type, info.order_2part, _count_in_l(c, info))
        for p, info in zip(rest, infos)
    )
    return c, wit, _bound_check(f, c, wit)


def _attempt(k: QuadFieldSpec, f: QuadFieldSpec, kind: str, criteria=None):
    """(certificate of the first criterion F passes or None, diagnostics); default: kind's."""
    c, wit, check = _evaluate(k, f)
    where = f"F={list(f.values())}"
    diags = []
    for cr in criteria or [cr for cr in CRITERIA if cr.base_kind == kind]:
        short = cr.shortfalls(c, wit)
        if not short and check.holds():
            return Certificate(cr.name, f.values(), c, wit, check), []
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
    f = _checked_base(k, f)
    kind = _kind(f.values())
    _require(kind is not None, "F's discs fit no base kind")
    return _attempt(k, f, kind)[0]


def kl_rank_lower_bound(k: QuadFieldSpec, f: QuadFieldSpec) -> int:
    """Relative-genus-theory lower bound on d2 Cl(KL), L the 2-class field of F.

    The call is about the one field F, so an F above the discriminant bound
    raises BoundExceeded by design rather than degrading as analyze does.
    """
    return _evaluate(k, _checked_base(k, f))[2].lhs


def _base_fields(k: QuadFieldSpec):
    """(F, F's kind) for every base field F analyze tries, in attempt order."""
    for size in sorted({shape.size for shape in BASE_KINDS.values()}, reverse=True):
        if k.t <= size:
            continue
        for discs in itertools.combinations(k.discs, size):
            kind = _kind([d.value for d in discs])
            if kind is not None:
                yield QuadFieldSpec(discs), kind


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
    m = redei_matrix(k)
    d4 = _four_rank(m)
    if k.t == 5:
        case = _classify(k, m)
    else:
        case = CaseId("NotOpen", (), "open-case catalog covers t = 5 only")
    diagnostics: list[Diagnostic] = []
    certificate = _gs_certificate(k)
    if certificate is None:
        diagnostics.append(
            Diagnostic("gs-two-rank", d2, gs_required(1), "direct Golod-Shafarevich on K")
        )
        for f, kind in _base_fields(k):
            try:
                cert, diags = _attempt(k, f, kind)
            except BoundExceeded:
                # Any other base field's certificate is valid on its own.
                diagnostics.append(
                    Diagnostic(
                        "skipped:bound",
                        abs(f.discriminant),
                        max_disc_bound(),
                        f"F={list(f.values())}",
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
            f = _checked_base(k, QuadFieldSpec.from_disc_values(cert.base_field_discs))
            kind = _kind(f.values())
            criteria = [cr for cr in CRITERIA if cr.name == cert.criterion]
            if not criteria or criteria[0].base_kind != kind:
                return False
            fresh, _ = _attempt(k, f, kind, criteria)
    except (TwoTowerError, TypeError):
        return False
    return fresh is not None and _unordered(fresh) == _unordered(cert)
