"""Infinite 2-class field tower criteria for imaginary quadratic fields.

The engine proves infinitude either by Golod-Shafarevich directly on the
2-rank, or by picking a quadratic subfield F of the genus field, passing
to its Hilbert 2-class field L, and counting primes of L over the
ramified primes of K that are unramified in F.  Splitting counts come
from the decomposition law, never from constructing L.  Everything that
fails is recorded as a near-miss diagnostic.

The table CRITERIA, with the base-field shapes in BASE_KINDS, is the
single source of the base-field criteria and their attempt order, and
_evaluate the one computation of a base field's |Cl_2(F)|, witnesses and
bound.  analyze, the lemma_* functions and kl_rank_lower_bound run them,
and so does replay_certificate: it recomputes a certificate and compares.

A base field's discriminant is a QuadFieldSpec's, fundamental by
construction, so only its bound is checked and no base field is factored.
For an imaginary F no class table is built: h is counted once on reduced
forms (cached) and each witness's order 2-part comes from powering its
prime form.  A real F reads both off its class table.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from math import isqrt

from .arith import QuadFieldSpec, kronecker
from .errors import BoundExceeded, DivisibilityViolation, PreconditionUnmet
from .quadforms import (
    PrimeClassInfo,
    _check_bound,
    _class_number,
    _prime_info,
    max_disc_bound,
    prime_class_info,
)
from .redei import CaseId, _classify, _four_rank, redei_matrix, two_ranks


def gs_infinite(d2: int, unit_2rank: int) -> bool:
    """Golod-Shafarevich: 2-tower provably infinite once d2 >= 2 + 2*sqrt(1 + unit_2rank).

    Decided in exact integer arithmetic by squaring.
    """
    if d2 < 0 or unit_2rank < 0:
        raise ValueError("ranks are nonnegative")
    return d2 >= 2 and (d2 - 2) ** 2 >= 4 * (1 + unit_2rank)


def gs_required(unit_2rank: int) -> int:
    """Least integer d2 satisfying the Golod-Shafarevich criterion."""
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


def _sub_spec(k: QuadFieldSpec, indices) -> QuadFieldSpec:
    return QuadFieldSpec(tuple(k.discs[i] for i in indices))


def _witnesses(f: QuadFieldSpec, c: int, primes) -> tuple[Witness, ...]:
    d = f.discriminant
    out = []
    for p in primes:
        info = _prime_info(d, p, kronecker(d, p))
        out.append(Witness(p, info.split_type, info.order_2part, _count_in_l(c, info)))
    return tuple(out)


def _bound_check(f: QuadFieldSpec, c: int, witnesses) -> ThresholdCheck:
    total = sum(w.count_in_l for w in witnesses)
    imaginary = f.discriminant < 0
    lhs = total - 1 - (c if imaginary else 0)
    return ThresholdCheck(lhs, gs_required(2 * c), 2 * c, not imaginary)


@dataclass(frozen=True)
class BaseKind:
    """Shape of a base field F: how many of K's discs it takes and their signs."""

    size: int
    positives: tuple[int, ...]  # admissible counts of positive discs in F
    sign_rule: str  # why a choice of discs with other signs is refused
    label: str  # prefix of the kind's prop32-bound diagnostic

    def fits(self, values) -> bool:
        return len(values) == self.size and sum(v > 0 for v in values) in self.positives


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
    "triple": BaseKind(
        3, (0, 2), "chosen discs must have negative product", "triple-16-two-inert"
    ),
    "pos-pair": BaseKind(2, (2,), "chosen discs must be positive", "pos-pair"),
    "mixed-pair": BaseKind(2, (1,), "chosen discs must have opposite sign", "mixed-pair"),
}

# The single source of the base-field criteria.  analyze tries base fields
# largest first, in index-combination order, and on each one the criteria
# of its kind in this order; the first that passes gives the certificate.
CRITERIA = (
    Criterion("triple-16-two-inert", "triple", 16, 2),
    Criterion("pos-pair-8-one-inert", "pos-pair", 8, 1),
    Criterion("pos-pair-4-two-inert", "pos-pair", 4, 2),
    Criterion("mixed-16-two-inert", "mixed-pair", 16, 2),
    Criterion("mixed-4-one-inert-one-split", "mixed-pair", 4, 1, 1),
)


def _evaluate(k: QuadFieldSpec, f: QuadFieldSpec):
    """(|Cl_2(F)|, the witnesses at K's primes unramified in F, the bound check)."""
    rest = [d.prime for d in k.discs if d not in f.discs]
    c = cl2_order(f)  # wide: L = F^1_(2) is unramified at infinity too
    wit = _witnesses(f, c, rest)
    return c, wit, _bound_check(f, c, wit)


def _attempt(k: QuadFieldSpec, kind: str, idx, criteria=None):
    """(certificate of the first criterion F passes or None, diagnostics); default: the kind's."""
    f = _sub_spec(k, idx)
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


def _lemma(k: QuadFieldSpec, kind: str, idx) -> Certificate | None:
    shape = BASE_KINDS[kind]
    idx = tuple(sorted(idx))
    _require(k.is_imaginary, "K must be imaginary")
    _require(
        len(set(idx)) == len(idx) == shape.size and all(0 <= i < k.t for i in idx),
        "bad indices",
    )
    _require(k.t > shape.size, "at least one prime of K must stay unramified in F")
    _require(shape.fits([k.discs[i].value for i in idx]), shape.sign_rule)
    return _attempt(k, kind, idx)[0]


def lemma_triple(k: QuadFieldSpec, triple) -> Certificate | None:
    """Certificate from an imaginary three-disc base field, if the criteria hold.

    Like every lemma_* function this asks about one field, so a base field
    above the discriminant bound raises BoundExceeded by design, where
    analyze records a skipped:bound diagnostic and goes on.
    """
    return _lemma(k, "triple", triple)


def lemma_pos_pair(k: QuadFieldSpec, pair) -> Certificate | None:
    """Certificate from a real base field on two positive discs, if the criteria hold.

    Raises BoundExceeded by design for a base field above the bound.
    """
    return _lemma(k, "pos-pair", pair)


def lemma_mixed_pair(k: QuadFieldSpec, pair) -> Certificate | None:
    """Certificate from an imaginary base field on two opposite-sign discs.

    Raises BoundExceeded by design for a base field above the bound.
    """
    return _lemma(k, "mixed-pair", pair)


def kl_rank_lower_bound(k: QuadFieldSpec, f: QuadFieldSpec) -> int:
    """Relative-genus-theory lower bound on d2 Cl(KL), L the 2-class field of F.

    The call is about the one field F, so an F above the discriminant bound
    raises BoundExceeded by design rather than degrading as analyze does.
    """
    f_values, k_values = set(f.values()), set(k.values())
    if not f_values <= k_values:
        raise DivisibilityViolation("F's prime discriminants must divide K's")
    if f_values == k_values:
        raise DivisibilityViolation("at least one prime of K must be unramified in F")
    return _evaluate(k, f)[2].lhs


def _base_fields(k: QuadFieldSpec):
    """(kind, indices) of every base field analyze tries, in attempt order."""
    for size in sorted({shape.size for shape in BASE_KINDS.values()}, reverse=True):
        if k.t <= size:
            continue
        for idx in itertools.combinations(range(k.t), size):
            values = [k.discs[i].value for i in idx]
            for kind, shape in BASE_KINDS.items():
                if shape.fits(values):
                    yield kind, idx


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
        for kind, idx in _base_fields(k):
            try:
                cert, diags = _attempt(k, kind, idx)
            except BoundExceeded:
                # Any other base field's certificate is valid on its own.
                f = _sub_spec(k, idx)
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

    The base discs must be distinct discs of K that fit the criterion's base
    kind; every other field is recomputed and compared, in any order.
    """
    if not k.is_imaginary:
        return False
    if cert.criterion == "gs-two-rank":
        fresh = _gs_certificate(k)
    else:
        cr = next((cr for cr in CRITERIA if cr.name == cert.criterion), None)
        base, values = cert.base_field_discs, k.values()
        idx = sorted({values.index(v) for v in base if v in values})
        if cr is None or len(idx) != len(base) or not BASE_KINDS[cr.base_kind].fits(base):
            return False
        fresh, _ = _attempt(k, cr.base_kind, idx, [cr])
    return fresh is not None and _unordered(fresh) == _unordered(cert)
