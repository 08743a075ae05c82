import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest

from twotower.arith import (
    QuadFieldSpec,
    is_fundamental,
    kronecker,
    prime_disc_factorization,
    primes_up_to,
)
from twotower.errors import BoundExceeded, DivisibilityViolation, PreconditionUnmet
from twotower.quadforms import (
    _class_number_neg,
    _prime_info,
    _table,
    narrow_class_group,
    wide_class_group,
)
from twotower.redei import _entry, _four_rank, _wide_two_rank, four_rank_narrow, two_ranks
from twotower.search import complete_tuple, dmw_family
from twotower.tower import (
    CRITERIA,
    Certificate,
    ThresholdCheck,
    Witness,
    _base_fields,
    _bound_check,
    _count_in_l,
    _genus_witnesses,
    _masks,
    _symbol,
    analyze,
    base_field_certificate,
    cl2_order,
    gs_infinite,
    gs_required,
    kl_rank_lower_bound,
    replay_certificate,
    splitting_count,
)

SCHMITHALS = QuadFieldSpec.from_disc_values([-11, 5, 461])
EX36 = QuadFieldSpec.from_disc_values([-7, -3, -8, 29, 5])
F45 = QuadFieldSpec.from_disc_values([29, 5])


def test_public_names_resolve():
    # Every name in twotower.__all__ exists, so `from twotower import *`
    # works, and the list stays sorted.
    import twotower

    names = {}
    exec("from twotower import *", names)
    assert all(name in names for name in twotower.__all__)
    assert twotower.__all__ == sorted(set(twotower.__all__))
    assert "base_field_certificate" in names


def test_gs_examples():
    assert gs_infinite(5, 1)
    assert not gs_infinite(4, 1)
    assert gs_infinite(8, 8)  # boundary attained exactly
    assert not gs_infinite(0, 0) and not gs_infinite(1, 0)
    assert gs_required(1) == 5 and gs_required(8) == 8


def test_gs_monotone():
    for d2 in range(51):
        for r in range(51):
            if gs_infinite(d2, r):
                assert gs_infinite(d2 + 1, r)
    # antitone in the unit rank
    for d2 in range(51):
        for r in range(50):
            if gs_infinite(d2, r + 1):
                assert gs_infinite(d2, r)


def _gs_by_squaring(d2, r):
    """Golod-Shafarevich, d2 >= 2 + 2*sqrt(1 + r), decided by squaring."""
    return d2 >= 2 and (d2 - 2) ** 2 >= 4 * (1 + r)


def test_gs_matches_squaring_reference():
    for r in range(2001):
        need = gs_required(r)
        assert _gs_by_squaring(need, r) and not _gs_by_squaring(need - 1, r), r
        for d2 in range(201):
            assert gs_infinite(d2, r) == _gs_by_squaring(d2, r), (d2, r)


def test_splitting_count_examples():
    assert splitting_count(F45, 7) == 4
    assert splitting_count(F45, 3) == 2
    assert splitting_count(F45, 2) == 2
    # 11 has symbol vector (+1, -1): inert, so totally split in L/F
    assert kronecker(145, 11) == -1
    assert splitting_count(F45, 11) == cl2_order(F45) == 4
    # 59 splits; the count follows the 2-part of its class order
    from twotower.quadforms import prime_class_info

    assert kronecker(145, 59) == 1
    part = prime_class_info(145, 59).order_2part
    assert splitting_count(F45, 59) == 2 * 4 // part
    # doubly-negative symbol vectors are pinned to 2 by the genus theorem
    assert kronecker(5, 17) == kronecker(29, 17) == -1
    assert splitting_count(F45, 17) == 2


def test_cl2_order_matches_group_structure():
    # real fields with a nontrivial wide quotient (no unit of norm -1) are
    # where the wide and narrow 2-parts differ
    differ = 0
    for absd in range(3, 3001):
        for d in (-absd, absd):
            if not is_fundamental(d):
                continue
            f = prime_disc_factorization(d)
            for wide, group in ((True, wide_class_group), (False, narrow_class_group)):
                parts = [e & -e for e in group(d).elementary_divisors]
                assert cl2_order(f, wide) == math.prod(parts), (d, wide)
            differ += cl2_order(f, True) != cl2_order(f, False)
    assert differ > 0


def test_splitting_count_divides_degree():
    rng = random.Random(41)
    checked = 0
    while checked < 50:
        d = -rng.randint(3, 4000)
        if not is_fundamental(d):
            continue
        f = prime_disc_factorization(d)
        c = cl2_order(f)
        for p in rng.sample(primes_up_to(100), 6):
            n = splitting_count(f, p)
            assert (2 * c) % n == 0, (d, p)
        for disc in f.discs:
            n = splitting_count(f, disc.prime)
            assert (2 * c) % n == 0, (d, disc)
        checked += 1


def test_inert_primes_totally_split_in_l():
    rng = random.Random(43)
    done = 0
    while done < 200:
        d = rng.choice([-1, 1]) * rng.randint(3, 3000)
        if not is_fundamental(d):
            continue
        p = rng.choice(primes_up_to(300))
        if kronecker(d, p) != -1:
            continue
        f = prime_disc_factorization(d)
        assert splitting_count(f, p) == cl2_order(f), (d, p)
        done += 1


def test_analyze_imaginary_triples_touch_no_table():
    # Five negative discs leave only imaginary triples as base fields, and
    # those are counted and walked on reduced forms: no class table is built
    # or looked up.
    k = QuadFieldSpec.from_disc_values([-3, -7, -11, -19, -23])
    assert {kind for _, kind in _base_fields(_masks(k))} == {"triple"}
    before = _table.cache_info()
    report = analyze(k)
    after = _table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    tried = [d for d in report.diagnostics if d.criterion == "prop32-bound"]
    assert len(tried) + (report.certificate is not None) == 10


def test_analyze_factors_no_base_field(monkeypatch):
    # A base field's discriminant is fundamental by construction: from cold
    # caches, real base fields get class tables and imaginary ones counts,
    # but no |d_F| is factored.
    from twotower import arith

    calls = []
    real_factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or real_factor(n))
    for k in (SCHMITHALS, EX36):
        _table.cache_clear()
        _class_number_neg.cache_clear()
        analyze(k)
        assert _table.cache_info().misses > 0, k
        assert calls == [], (k, calls)


def _genus_oracle_fields():
    """Every F, imaginary or real, with 2 to 4 prime discs and |d_F| <= 2e4."""
    for n in range(3, 20001):
        for d in (-n, n):
            if not is_fundamental(d):
                continue
            f = prime_disc_factorization(d)
            if 2 <= f.t <= 4:
                yield f


def _field_columns(f: QuadFieldSpec, rest):
    """(_Masks columns, sign mask) over F's discs, at F's own primes and then
    at the primes in rest, built entry by entry with _entry."""
    values = f.values()

    def column(q):
        return sum([1 << i for i, v in enumerate(values) if _entry(v, q)])

    # The diagonal is left out: d_j's own entry at p_j is 1.
    cols = [column(d.prime) & ~(1 << j) for j, d in enumerate(f.discs)] + list(map(column, rest))
    return cols, sum(1 << i for i, v in enumerate(values) if v < 0)


def test_genus_path_matches_class_groups():
    # Where F's Redei 4-rank is 0, the genus rule on masks gives c = 2^(wide
    # 2-rank) and every witness: each must match the class number count and
    # the prime classes (form powering for d < 0, the class table for d > 0),
    # at every odd prime up to 500 prime to d_F and at 2 when it is
    # unramified.  The columns at those primes are built with _entry.
    primes = primes_up_to(500)
    on_path = {"imaginary": 0, "real": 0, "real, a negative disc": 0}
    for f in _genus_oracle_fields():
        d = f.discriminant
        # Witness columns only where the rule reads them: 4-rank 0.
        four_rank = four_rank_narrow(f)
        rest = [] if four_rank else [q for q in primes if d % q]
        cols, neg = _field_columns(f, rest)
        genus = _genus_witnesses((1 << f.t) - 1, neg, cols, range(f.t, f.t + len(rest)))
        if four_rank:
            assert genus is None, f
            continue
        c = cl2_order(f)
        assert c == 2 ** two_ranks(f)[1], f
        assert genus == (c, [_prime_info(d, q, kronecker(d, q)) for q in rest]), f
        negative = min(f.values()) < 0
        on_path["imaginary" if d < 0 else "real, a negative disc" if negative else "real"] += 1
    assert on_path["imaginary"] > 1000, on_path
    assert on_path["real"] > 100, on_path
    assert on_path["real, a negative disc"] > 3000, on_path


def test_genus_path_gives_real_f_with_a_negative_disc_its_wide_group():
    # F = (-3, -7), d = 21, has Redei 4-rank 0, and its narrow group C2
    # collapses to a trivial wide group: genus theory takes c from the wide
    # 2-rank, 0, and matches the class table.
    f = QuadFieldSpec.from_disc_values([-3, -7])
    k = QuadFieldSpec.from_disc_values([-3, -7, 5, -11, 13])
    g = _masks(k)
    assert four_rank_narrow(f) == 0
    assert (cl2_order(f, wide=False), cl2_order(f)) == (2, 1)
    infos = [_prime_info(21, q, kronecker(21, q)) for q in (5, 11, 13)]
    assert _genus_witnesses(0b11, g.neg, g.cols, [2, 3, 4]) == (1, infos)
    wit = [
        Witness(q, i.split_type, i.order_2part, _count_in_l(1, i))
        for q, i in zip((5, 11, 13), infos)
    ]
    assert kl_rank_lower_bound(k, f) == _bound_check(21, 1, wit).lhs


def test_masks_match_field_oracles_on_every_subfield():
    # Every F on 2 to t - 1 of K's discs, of every shape (also those no base
    # kind tries yet): the 4-rank, 2 to the wide 2-rank and each (d_F/q)
    # read off K's masks equal the ones computed from F itself.
    shapes = set()
    for k in _pinned_fields():
        g = _masks(k)
        for size in range(2, k.t):
            for idx in itertools.combinations(range(k.t), size):
                sub = sum(1 << i for i in idx)
                f = k.reordered(idx)
                d = f.discriminant
                assert _four_rank(g.cols, sub) == four_rank_narrow(f), (k, f)
                wide = _wide_two_rank(size, (sub & g.neg).bit_count())
                assert wide == two_ranks(f)[1], (k, f)
                for j in set(range(k.t)) - set(idx):
                    assert _symbol(g.cols[j] & sub) == kronecker(d, g.primes[j]), (k, f, j)
                shapes.add((size, sum(v > 0 for v in f.values())))
    assert {(3, 3), (3, 1), (2, 0), (4, 2), (5, 4)} <= shapes, shapes


def test_one_redei_matrix_per_call(monkeypatch):
    # analyze reads every base field off K's Redei columns: one read per K
    # however many base fields it tries, and one per call of
    # base_field_certificate, kl_rank_lower_bound and replay_certificate.
    # complete_tuple assembles its columns itself and reads none.
    from twotower import redei, tower

    calls = []
    real = redei._redei_columns

    def counting(spec):
        calls.append(spec)
        return real(spec)

    five = [k for k in _pinned_fields() if k.t == 5]
    for module in (redei, tower):
        monkeypatch.setattr(module, "_redei_columns", counting)
    replayed = 0
    for k in [EX36, SCHMITHALS, GS_FIELD] + five:
        calls.clear()
        report = analyze(k)
        assert calls == [k], k
        if report.certificate is not None and report.certificate.criterion != "gs-two-rank":
            calls.clear()
            assert replay_certificate(report.certificate, k)
            assert calls == [k], k
            replayed += 1
    assert replayed > 5, replayed
    calls.clear()
    assert base_field_certificate(EX36, F45) is None
    assert kl_rank_lower_bound(EX36, F45) == 7
    assert calls == [EX36, EX36]
    calls.clear()
    assert complete_tuple("M49", [None, -11, -7, 13, None], 300, count=3)
    assert calls == []


def test_kl_rank_lower_bound_example():
    assert kl_rank_lower_bound(EX36, F45) == 7
    assert kl_rank_lower_bound(EX36, F45.reordered((1, 0))) == 7
    assert gs_required(2 * cl2_order(F45)) == 8
    with pytest.raises(DivisibilityViolation):
        kl_rank_lower_bound(EX36, EX36)  # m = 0
    with pytest.raises(DivisibilityViolation):
        kl_rank_lower_bound(EX36, QuadFieldSpec.from_disc_values([13, 17]))


def test_out_of_bound_base_field_raises_when_given():
    # analyze skips such a base field (tests/test_cli.py); the functions
    # that are handed one F still raise
    k = QuadFieldSpec.from_disc_values([-3, 5, 13, 100000037])
    with pytest.raises(BoundExceeded):
        base_field_certificate(k, QuadFieldSpec.from_disc_values([-3, 5, 100000037]))
    with pytest.raises(BoundExceeded):
        kl_rank_lower_bound(k, QuadFieldSpec.from_disc_values([5, 100000037]))


def test_lemma_preconditions():
    def base(*values):
        return QuadFieldSpec.from_disc_values(values)

    with pytest.raises(PreconditionUnmet):
        base_field_certificate(EX36, base(-7, -3, 29))  # (-7)(-3)(29) > 0
    with pytest.raises(PreconditionUnmet):
        base_field_certificate(EX36, base(-7, -3))  # two negative discs
    with pytest.raises(PreconditionUnmet):
        base_field_certificate(EX36, base(-7))  # no kind has one disc
    with pytest.raises(PreconditionUnmet):
        base_field_certificate(base(5, 29), base(5))  # not imaginary
    with pytest.raises(DivisibilityViolation):
        base_field_certificate(EX36, base(-7, -3, 13))  # 13 is no disc of K
    with pytest.raises(DivisibilityViolation):
        base_field_certificate(SCHMITHALS, SCHMITHALS)  # no prime of K left unramified


def test_schmithals_pos_pair():
    cert = base_field_certificate(SCHMITHALS, QuadFieldSpec.from_disc_values([461, 5]))
    assert cert is not None and cert.base_field_discs == (5, 461)
    assert cert.criterion == "pos-pair-8-one-inert"
    assert cert.cl2_order == 16
    assert cert.witnesses[0].prime == 11 and cert.witnesses[0].split_type == "inert"
    assert replay_certificate(cert, SCHMITHALS)


def test_example36_pos_pair_fails():
    assert base_field_certificate(EX36, F45) is None
    # |Cl2(-168)| = 4 < 16
    assert base_field_certificate(EX36, QuadFieldSpec.from_disc_values([-7, -3, -8])) is None


def test_triple_certificate_on_matrix_a_field():
    k = complete_tuple("A", [None, None, -7, -19, -3], 500, count=1)[0]
    cert = base_field_certificate(k, k.reordered((2, 3, 4)))
    assert cert is not None and cert.criterion == "triple-16-two-inert"
    assert cert.cl2_order == 16
    assert all(w.split_type == "inert" for w in cert.witnesses)
    assert replay_certificate(cert, k)
    report = analyze(k)
    assert report.verdict == "InfiniteProven"
    assert report.case.tag == "A"


def test_mixed_pair_16_on_matrix_32_field():
    # Base pair from the cyclic-2-class-group family with n = 4: C16.
    f = next(dmw_family(4, 1))
    assert cl2_order(f) == 16
    values = f.values()  # (-q3, +q5)
    k = complete_tuple("M32", [None, None, values[0], None, values[1]], 400, count=1)[0]
    cert = base_field_certificate(k, f)
    assert cert is not None and cert.criterion == "mixed-16-two-inert"
    assert replay_certificate(cert, k)
    assert analyze(k).verdict == "InfiniteProven"


def test_mixed_pair_split_route_on_matrix_16_field():
    # F = (-3, +13), |Cl_2| = 4; p1 = 43 is split with principal class,
    # hence totally split in the 2-class field.
    f = QuadFieldSpec.from_disc_values([-3, 13])
    assert cl2_order(f) == 4
    from twotower.quadforms import prime_class_info

    info = prime_class_info(-39, 43)
    assert info.split_type == "split" and info.order_2part == 1
    k = complete_tuple("M16", [-43, None, -3, None, 13], 400, count=1)[0]
    cert = base_field_certificate(k, f)
    assert cert is not None and cert.criterion == "mixed-4-one-inert-one-split"
    assert replay_certificate(cert, k)


def test_analyze_example36():
    report = analyze(EX36)
    assert report.verdict == "Open"
    assert report.case.tag == "M49"
    assert report.d2 == 4 and report.d4 == 0
    near = [
        d
        for d in report.diagnostics
        if d.criterion == "prop32-bound" and d.achieved == 7 and d.required == 8
    ]
    assert near, "missing the 7-vs-8 near miss"


def test_analyze_gs_route():
    k = QuadFieldSpec.from_disc_values([-3, -7, -11, -19, -23, 29])
    report = analyze(k)
    assert report.verdict == "InfiniteProven"
    assert report.certificate.criterion == "gs-two-rank"
    assert report.d2 == 5
    assert replay_certificate(report.certificate, k)


def test_analyze_deterministic():
    a = analyze(EX36).to_json()
    b = analyze(EX36).to_json()
    assert a == b
    # reordering the discs is a different spec and may reorder attempts,
    # but the verdict and case are stable
    shuffled = EX36.reordered((4, 2, 0, 1, 3))
    r = analyze(shuffled)
    assert r.verdict == "Open" and r.case.tag == "M49"


def test_analyze_schmithals_first_match_order():
    report = analyze(SCHMITHALS)
    assert report.verdict == "InfiniteProven"
    assert report.certificate.criterion == "pos-pair-8-one-inert"
    assert report.certificate.base_field_discs == (5, 461)
    assert replay_certificate(report.certificate, SCHMITHALS)


def test_threshold_locks():
    # paper derivations: 7+2*sqrt(11), 3+2*sqrt(3), 5+2*sqrt(7); the exact
    # integer boundaries are 13/14, 6/7, 10/11, landed at 2-powers 16/8/16.
    for c, want in [(13, False), (14, True), (16, True), (8, False)]:
        assert gs_infinite(2 * c - 1 - c, 2 * c) == want, c
    for c, want in [(6, False), (7, True), (8, True), (4, False)]:
        assert gs_infinite(c + 4 - 1, 2 * c) == want, c
    for c, want in [(3, False), (4, True)]:
        assert gs_infinite(2 * c + 2 - 1, 2 * c) == want, c
    for c, want in [(10, False), (11, True), (16, True), (8, False)]:
        assert gs_infinite(2 * c + 2 - 1 - c, 2 * c) == want, c
    for c, want in [(3, False), (4, True)]:
        assert gs_infinite(3 * c + 2 - 1 - c, 2 * c) == want, c


def test_certificates_replay_from_reports():
    for spec in (
        SCHMITHALS,
        QuadFieldSpec.from_disc_values([-3, -7, -11, -19, -23, 29]),
    ):
        report = analyze(spec)
        if report.certificate is not None:
            assert replay_certificate(report.certificate, spec)


def _fuzz_fields():
    """60 seeded imaginary fields, each with five prime discriminants."""
    rng = random.Random(12345)
    pool = [-3, -7, -11, -19, -23, -31, -43, -47, -59, -67,
            5, 13, 17, 29, 37, 41, 53, 61, 73, 89, -4, 8, -8]
    for _ in range(60):
        while True:
            combo = rng.sample(pool, 5)
            primes = [2 if v in (-4, 8, -8) else abs(v) for v in combo]
            if len(set(primes)) != 5:
                continue
            prod = 1
            for v in combo:
                prod *= v
            if prod < 0:
                break
        yield QuadFieldSpec.from_disc_values(combo)


def test_analyze_fuzz_replay_and_serialize():
    for k in _fuzz_fields():
        rep = analyze(k)
        assert rep.verdict in ("InfiniteProven", "Open")
        if rep.certificate is not None:
            assert replay_certificate(rep.certificate, k), k
        assert rep.to_json()  # serializes


def test_one_evaluator_for_analyze_lemmas_and_kl_bound():
    # analyze, kl_rank_lower_bound and base_field_certificate evaluate a base
    # field the same way: the bound analyze records for every F it tries is
    # kl_rank_lower_bound(K, F), and base_field_certificate(K, F) gives
    # analyze's certificate on its base field, the criterion of an
    # also-passes record on another, and None on every other F.
    certified = also = 0
    for k in _fuzz_fields():
        report = analyze(k)
        cert = report.certificate
        recorded, passes = {}, {}
        if cert is not None:
            recorded[cert.base_field_discs] = cert.threshold_check.lhs
        for d in report.diagnostics:
            assert d.criterion != "skipped:bound", d
            if d.criterion == "prop32-bound" or d.criterion.startswith("also-passes:"):
                where = tuple(json.loads(d.detail.split("F=")[1].split("]")[0] + "]"))
                recorded[where] = d.achieved
                if d.criterion.startswith("also-passes:"):
                    passes[where] = d.criterion.split(":", 1)[1]
        subs = [sub for sub, _ in _base_fields(_masks(k))]
        tried = [k.reordered([i for i in range(k.t) if sub >> i & 1]) for sub in subs]
        assert len(recorded) == len(tried), k
        for f in tried:
            assert kl_rank_lower_bound(k, f) == recorded[f.values()], (k, f)
            got = base_field_certificate(k, f.reordered(range(f.t - 1, -1, -1)))
            if cert is not None and cert.base_field_discs == f.values():
                assert got == cert, k
                certified += 1
            elif f.values() in passes:
                assert got.criterion == passes[f.values()], (k, f)
                also += 1
            else:
                assert got is None, (k, f)
    assert certified > 0 and also > 0


def _pinned_fields():
    """60 seeded imaginary fields of each t = 2..6, from prime discs up to 200."""
    rng = random.Random(18)
    pool = [-4, 8, -8] + [q if q % 4 == 1 else -q for q in primes_up_to(200)[1:]]
    for t in range(2, 7):
        n = 0
        while n < 60:
            combo = rng.sample(pool, t)
            primes = [2 if v in (-4, 8, -8) else abs(v) for v in combo]
            k = QuadFieldSpec.from_disc_values(combo) if len(set(primes)) == t else None
            if k is not None and k.is_imaginary:
                n += 1
                yield k


# sha256 over analyze's JSON on _pinned_fields, taken while every base
# field's c and witnesses came from class numbers and prime classes.
ANALYZE_OUTPUT_SHA256 = "e58f67571c83b231da2c697b5abb4d9b786799ee6446fb4f3bb2227a2406d7ba"


def test_analyze_output_pinned():
    h = hashlib.sha256()
    genus_path = set()
    for k in _pinned_fields():
        h.update(analyze(k).to_json().encode())
        g = _masks(k)
        for sub, _ in _base_fields(g):
            genus_path.add(_genus_witnesses(sub, g.neg, g.cols, []) is not None)
    assert genus_path == {True, False}
    assert h.hexdigest() == ANALYZE_OUTPUT_SHA256


@pytest.fixture(scope="module")
def genuine_certificates():
    """(K, certificate) for one certificate of each CRITERIA kind, in table order."""
    a = complete_tuple("A", [None, None, -7, -19, -3], 500, count=1)[0]
    c16 = next(dmw_family(4, 1)).values()
    m32 = complete_tuple("M32", [None, None, c16[0], None, c16[1]], 400, count=1)[0]
    m16 = complete_tuple("M16", [-43, None, -3, None, 13], 400, count=1)[0]
    pos4 = QuadFieldSpec.from_disc_values([8, 89, -3, 5, 41])  # from _fuzz_fields
    pairs = [
        (k, base_field_certificate(k, k.reordered(idx)))
        for k, idx in [
            (a, (2, 3, 4)),
            (SCHMITHALS, (1, 2)),
            (pos4, (0, 4)),
            (m32, (2, 4)),
            (m16, (2, 4)),
        ]
    ]
    assert [cert.criterion for _, cert in pairs] == [cr.name for cr in CRITERIA]
    return pairs


GS_FIELD = QuadFieldSpec.from_disc_values([-3, -7, -11, -19, -23, 29])
FOREIGN = 1009  # a prime discriminant of none of the fields above


def _other_ints(v):
    return sorted({v - 1, v + 1, 2 * v, 0} - {v})


def _single_changes(k, cert):
    """(what, changed) for changes of one certificate field or one witness field."""
    values = k.values()
    for name in [cr.name for cr in CRITERIA] + ["gs-two-rank"]:
        if name != cert.criterion:
            yield f"criterion {name}", dataclasses.replace(cert, criterion=name)
    base = cert.base_field_discs
    for i in range(len(base)):
        for v in [v for v in values if v not in base] + [FOREIGN]:
            yield f"base disc {i} -> {v}", dataclasses.replace(
                cert, base_field_discs=base[:i] + (v,) + base[i + 1:]
            )
        yield f"base disc {i} dropped", dataclasses.replace(
            cert, base_field_discs=base[:i] + base[i + 1:]
        )
    if base != values:
        yield "base = K", dataclasses.replace(cert, base_field_discs=values)
    for c in [None] + _other_ints(cert.cl2_order or 0):
        if c != cert.cl2_order:
            yield f"cl2_order {c}", dataclasses.replace(cert, cl2_order=c)
    wit = cert.witnesses
    c = cert.cl2_order or 1
    yield "foreign witness added", dataclasses.replace(
        cert, witnesses=wit + (Witness(FOREIGN, "inert", 1, c),)
    )
    for i, w in enumerate(wit):
        yield f"witness {i} dropped", dataclasses.replace(cert, witnesses=wit[:i] + wit[i + 1:])
        yield f"witness {i} repeated", dataclasses.replace(cert, witnesses=wit + (w,))
        changes = [("prime", p) for p in _other_ints(w.prime) + [d.prime for d in k.discs]]
        changes += [("split_type", s) for s in ("inert", "split", "ramified")]
        changes += [("order_2part", n) for n in _other_ints(w.order_2part)]
        changes += [("count_in_l", n) for n in _other_ints(w.count_in_l)]
        for field, value in changes:
            if getattr(w, field) != value:
                new = dataclasses.replace(w, **{field: value})
                yield f"witness {i} {field} {value}", dataclasses.replace(
                    cert, witnesses=wit[:i] + (new,) + wit[i + 1:]
                )
    check = cert.threshold_check
    for field in ("lhs", "required", "unit_2rank"):
        for n in _other_ints(getattr(check, field)):
            yield f"{field} {n}", dataclasses.replace(
                cert, threshold_check=dataclasses.replace(check, **{field: n})
            )
    yield "totally_real flipped", dataclasses.replace(
        cert, threshold_check=dataclasses.replace(check, totally_real=not check.totally_real)
    )


def test_replay_rejects_every_single_change(genuine_certificates):
    gs = analyze(GS_FIELD).certificate
    assert gs.criterion == "gs-two-rank"
    for k, cert in genuine_certificates + [(GS_FIELD, gs)]:
        assert replay_certificate(cert, k), cert.criterion
        changes = list(_single_changes(k, cert))
        assert len(changes) > 20
        for what, changed in changes:
            assert changed != cert, what
            assert not replay_certificate(changed, k), (cert.criterion, what)


def test_replay_rejects_forged_two_rank_certificates():
    # An Open t = 5 field: d2 = 4 falls short of Golod-Shafarevich at unit
    # 2-rank 1, so no recorded unit 2-rank may make its forgery replay.
    k = QuadFieldSpec.from_disc_values([-3, -7, 5, -11, 13])
    assert analyze(k).verdict == "Open"
    forged = Certificate("gs-two-rank", k.values(), None, (), ThresholdCheck(4, 4, 0, False))
    assert not replay_certificate(forged, k)
    # A real K with d2 = 5 has unit 2-rank 2, where Golod-Shafarevich needs 6.
    real = QuadFieldSpec.from_disc_values([5, 13, 17, 29, 37, 41])
    forged = Certificate("gs-two-rank", real.values(), None, (), ThresholdCheck(5, 5, 1, False))
    assert not replay_certificate(forged, real)


def test_replay_of_base_discs_outside_k_is_false():
    # 9, 1, 0, "5" and None are no prime discriminants, 13 is no disc of K,
    # and the base K leaves no prime of K unramified: all give False, none
    # raises.
    cert = analyze(SCHMITHALS).certificate
    for base in (
        (5, 9), (5, 5), (5,), (5, 461, 461), (5, 1), (0, 461), ("5", 461), (None, 461),
        (5, 13), (-11, 5, 461),
    ):
        assert not replay_certificate(dataclasses.replace(cert, base_field_discs=base), SCHMITHALS)


def test_replay_ignores_order(genuine_certificates):
    for k, cert in genuine_certificates + [(GS_FIELD, analyze(GS_FIELD).certificate)]:
        backwards = k.reordered(range(k.t - 1, -1, -1))
        assert replay_certificate(cert, backwards), cert.criterion
        assert analyze(backwards).verdict == "InfiniteProven"
        for changed in (
            dataclasses.replace(cert, witnesses=cert.witnesses[::-1]),
            dataclasses.replace(cert, base_field_discs=cert.base_field_discs[::-1]),
        ):
            assert replay_certificate(changed, k), cert.criterion
            assert replay_certificate(changed, backwards), cert.criterion


def test_replay_rejects_criterion_on_wrong_base_shape():
    # A three-disc base field may only back the triple criterion: the same
    # witnesses relabelled as a mixed-pair certificate must not replay.
    k = complete_tuple("A", [None, None, -7, -19, -3], 500, count=1)[0]
    cert = analyze(k).certificate
    assert cert.criterion == "triple-16-two-inert" and len(cert.base_field_discs) == 3
    assert replay_certificate(cert, k)
    for name in ("mixed-16-two-inert", "pos-pair-4-two-inert", "no-such-criterion"):
        assert not replay_certificate(dataclasses.replace(cert, criterion=name), k), name


EX36_DIAGNOSTICS = [
    ("gs-two-rank", 4, 5),
    ("triple-16-two-inert:cl2", 4, 16),
    ("triple-16-two-inert:inert", 1, 2),
    ("prop32-bound", 3, 8),
    ("triple-16-two-inert:inert", 1, 2),
    ("prop32-bound", 3, 14),
    ("triple-16-two-inert:cl2", 4, 16),
    ("prop32-bound", 3, 8),
    ("triple-16-two-inert:cl2", 4, 16),
    ("triple-16-two-inert:inert", 0, 2),
    ("prop32-bound", 3, 8),
    ("mixed-16-two-inert:cl2", 4, 16),
    ("mixed-4-one-inert-one-split:split-complete", 0, 1),
    ("prop32-bound", 5, 8),
    ("mixed-16-two-inert:cl2", 2, 16),
    ("mixed-16-two-inert:inert", 1, 2),
    ("mixed-4-one-inert-one-split:cl2", 2, 4),
    ("prop32-bound", 5, 7),
    ("mixed-16-two-inert:cl2", 2, 16),
    ("mixed-16-two-inert:inert", 1, 2),
    ("mixed-4-one-inert-one-split:cl2", 2, 4),
    ("prop32-bound", 5, 7),
    ("mixed-16-two-inert:cl2", 2, 16),
    ("mixed-4-one-inert-one-split:cl2", 2, 4),
    ("mixed-4-one-inert-one-split:split-complete", 0, 1),
    ("prop32-bound", 3, 7),
    ("mixed-16-two-inert:cl2", 2, 16),
    ("mixed-4-one-inert-one-split:cl2", 2, 4),
    ("mixed-4-one-inert-one-split:split-complete", 0, 1),
    ("prop32-bound", 3, 7),
    ("mixed-16-two-inert:cl2", 2, 16),
    ("mixed-4-one-inert-one-split:cl2", 2, 4),
    ("mixed-4-one-inert-one-split:split-complete", 0, 1),
    ("prop32-bound", 3, 7),
    ("pos-pair-8-one-inert:cl2", 4, 8),
    ("pos-pair-4-two-inert:inert", 1, 2),
    ("prop32-bound", 7, 8),
]

SCHMITHALS_DIAGNOSTICS = [
    ("gs-two-rank", 2, 5),
    ("mixed-16-two-inert:cl2", 4, 16),
    ("mixed-16-two-inert:inert", 1, 2),
    ("mixed-4-one-inert-one-split:split-complete", 0, 1),
    ("prop32-bound", -1, 8),
    ("mixed-16-two-inert:cl2", 2, 16),
    ("mixed-16-two-inert:inert", 0, 2),
    ("mixed-4-one-inert-one-split:cl2", 2, 4),
    ("mixed-4-one-inert-one-split:inert", 0, 1),
    ("prop32-bound", 1, 7),
]


@pytest.mark.parametrize(
    "k, want, labels",
    [
        (EX36, EX36_DIAGNOSTICS, ["triple-16-two-inert"] * 4 + ["mixed-pair"] * 6 + ["pos-pair"]),
        (SCHMITHALS, SCHMITHALS_DIAGNOSTICS, ["mixed-pair"] * 2),
    ],
)
def test_analyze_diagnostic_sequence(k, want, labels):
    # Triples come before pairs, base fields in index-combination order; per
    # base field the cl2, inert and split-complete misses of each criterion
    # in table order, closed by its prop32-bound record.
    report = analyze(k)
    assert [(d.criterion, d.achieved, d.required) for d in report.diagnostics] == want
    prop32 = [d.detail for d in report.diagnostics if d.criterion == "prop32-bound"]
    assert [detail.split(" F=")[0] for detail in prop32] == labels
