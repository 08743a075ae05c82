import gc
import hashlib
import itertools
import random

import pytest

from twotower.arith import (
    QuadFieldSpec,
    is_fundamental,
    kronecker,
    prime_disc_factorization,
    primes_up_to,
)
from twotower import redei
from twotower.quadforms import narrow_class_group, wide_class_group
from twotower.redei import (
    CaseId,
    _case_of,
    _entry,
    _parse_catalog,
    catalog_cases,
    catalog_text,
    classify_open_case,
    f2_rank,
    four_rank_narrow,
    redei_matrix,
    two_ranks,
)
from twotower.search import complete_tuple


def spec_of(*values):
    return QuadFieldSpec.from_disc_values(values)


def random_spec(rng):
    """Random valid spec with t <= 6."""
    odd = [p for p in primes_up_to(300) if p % 2 == 1]
    while True:
        t = rng.randint(1, 6)
        picks = rng.sample(odd, t)
        values = [p if p % 4 == 1 else -p for p in picks]
        if rng.random() < 0.4:
            values[0] = rng.choice([-4, 8, -8])
        return QuadFieldSpec.from_disc_values(values)


def test_redei_matrix_examples():
    assert redei_matrix(spec_of(-7, -19, -3)) == ((0, 1, 1), (0, 1, 1), (0, 0, 0))
    assert redei_matrix(spec_of(-4)) == ((0,),)
    assert redei_matrix(spec_of(5, 29)) == ((0, 0), (0, 0))


def test_f2_rank_examples():
    assert f2_rank(redei_matrix(spec_of(-7, -19, -3))) == 1
    assert f2_rank(redei_matrix(spec_of(5, 29))) == 0
    m = redei_matrix(spec_of(5, 29, 109, 661))
    # independent elimination over F2 on column vectors
    cols = [[m[i][j] for i in range(len(m))] for j in range(len(m))]
    basis = []
    for v in cols:
        v = list(v)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if v[lead]:
                v = [x ^ y for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    assert f2_rank(m) == len(basis)


def test_four_rank_examples():
    assert four_rank_narrow(spec_of(-7, -19, -3)) == 1
    assert four_rank_narrow(spec_of(5, 29)) == 1
    assert four_rank_narrow(spec_of(-4)) == 0


def test_two_ranks_examples():
    assert two_ranks(spec_of(-4, 5, 37, -3, -7)) == (4, 4)
    assert two_ranks(spec_of(8, -3)) == (1, 1)
    assert two_ranks(spec_of(5, 29)) == (1, 1)
    assert two_ranks(spec_of(8, -3, -7)) == (2, 1)


def test_column_sums_always_zero_rows_where_expected():
    rng = random.Random(99)
    for _ in range(500):
        spec = random_spec(rng)
        m = redei_matrix(spec)
        for j in range(len(m)):
            assert sum(m[i][j] for i in range(len(m))) % 2 == 0, spec
        # row sums vanish too for imaginary fields avoiding -4
        if spec.discriminant < 0 and -4 not in spec.values():
            for row in m:
                assert sum(row) % 2 == 0, spec


def test_diagonal_is_cofactor_symbol():
    rng = random.Random(5)
    for _ in range(200):
        spec = random_spec(rng)
        m = redei_matrix(spec)
        delta = spec.discriminant
        for i, d in enumerate(spec.discs):
            want = 0 if kronecker(delta // d.value, d.prime) == 1 else 1
            assert m[i][i] == want


def test_redei_matrix_matches_kronecker_symbols():
    # Off-diagonal symbols and the cofactor-symbol diagonal, both straight
    # from kronecker, on seeded fields of 3 to 6 discs.
    rng = random.Random(23)
    sizes = []
    while len(sizes) < 200:
        spec = random_spec(rng)
        if spec.t < 3:
            continue
        sizes.append(spec.t)
        discs, delta = spec.discs, spec.discriminant
        want = tuple(
            tuple(
                int(kronecker(delta // di.value if i == j else di.value, dj.prime) != 1)
                for j, dj in enumerate(discs)
            )
            for i, di in enumerate(discs)
        )
        assert redei_matrix(spec) == want, spec
    assert set(sizes) == {3, 4, 5, 6}


def test_redei_reichardt_oracle_small():
    for d in list(range(-6000, 0)) + list(range(2, 6001)):
        if not is_fundamental(d):
            continue
        spec = prime_disc_factorization(d)
        assert four_rank_narrow(spec) == narrow_class_group(d).four_rank, d


def test_two_ranks_match_groups_small():
    for d in list(range(-4000, 0)) + list(range(2, 4001)):
        if not is_fundamental(d):
            continue
        spec = prime_disc_factorization(d)
        narrow, wide = two_ranks(spec)
        assert narrow_class_group(d).two_rank == narrow, d
        assert wide_class_group(d).two_rank == wide, d


def test_classify_examples():
    assert classify_open_case(spec_of(-3, -8, -23, -7, -19)).tag == "B"
    assert classify_open_case(spec_of(-7, -3, -8, 29, 5)).tag == "M49"
    assert classify_open_case(spec_of(-3, -11, -107, -7, -31)).tag == "B"
    # d4 >= 3 means Redei rank <= 1: settled territory, never in the catalog
    high = spec_of(-7, 17, 41, 97, 8)
    assert four_rank_narrow(high) == 3
    got = classify_open_case(high)
    assert got.tag == "NotOpen" and "4-rank" in got.reason


def test_classify_permutation_invariance():
    rng = random.Random(13)
    fields = [spec_of(-3, -8, -23, -7, -19), spec_of(-7, -3, -8, 29, 5)]
    tags = [classify_open_case(f).tag for f in fields]
    for _ in range(200):
        perm = list(range(5))
        rng.shuffle(perm)
        for field, tag in zip(fields, tags):
            assert classify_open_case(field.reordered(perm)).tag == tag


def test_classify_matched_permutation_is_faithful():
    spec = spec_of(-8, 29, -7, 5, -3)  # shuffled Example-3.6 field
    case = classify_open_case(spec)
    assert case.tag == "M49"
    rearranged = spec.reordered(case.permutation)
    cat = next(c for c in catalog_cases() if c.tag == "M49")
    m = redei_matrix(rearranged)
    for i in range(5):
        for j in range(5):
            if cat.fixed[i][j] is not None:
                assert m[i][j] == cat.fixed[i][j]


def slot_ok(code, d):
    """Whether disc d fits catalog sign code code."""
    if code == "4":
        return d.value == -4
    if code == "-":
        return d.value < 0 and d.value != -4
    return code == "+" and d.value > 0


def classify_by_permutation_scan(spec):
    """Reference classifier: scan every permutation in lexicographic order."""
    a = redei_matrix(spec)
    for case in catalog_cases():
        for perm in itertools.permutations(range(5)):
            if not all(slot_ok(code, spec.discs[i]) for code, i in zip(case.signs, perm)):
                continue
            if all(
                want is None or a[perm[r]][perm[c]] == want
                for r, row in enumerate(case.fixed)
                for c, want in enumerate(row)
            ):
                if case.status == "resolved":
                    return CaseId("NotOpen", perm, f"resolved elsewhere: {case.tag} ({case.note})")
                return CaseId(case.tag, perm)
    if four_rank_narrow(spec) >= 3:
        reason = "4-rank >= 3: infinite 2-tower already known (Hajir), not an open case"
    else:
        reason = "no open-case match: settled in the literature or outside the catalog"
    return CaseId("NotOpen", (), reason)


# One member of every catalog block, in catalog slot order.
CATALOG_MEMBERS = {
    "A": (-31, -11, -43, -7, -3),
    "B": (-3, -47, -11, -43, -7),
    "C": (-4, -7, -31, -43, -3),
    "D1": (-4, -11, -43, -7, -3),
    "D1-sueyoshi": (-4, -59, -31, -23, -7),
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


def test_classify_matches_permutation_scan():
    assert set(CATALOG_MEMBERS) == {c.tag for c in catalog_cases()}
    rng = random.Random(29)
    fields = [spec_of(-7, 17, 41, 97, 8)]  # 4-rank 3
    for values in CATALOG_MEMBERS.values():
        fields.append(spec_of(*values))
        for _ in range(4):
            fields.append(spec_of(*rng.sample(values, 5)))
    primes = primes_up_to(60)
    while len(fields) < 400:
        values = [
            rng.choice((-4, 8, -8)) if p == 2 else (p if p % 4 == 1 else -p)
            for p in rng.sample(primes, 5)
        ]
        spec = spec_of(*values)
        if spec.discriminant < 0:
            fields.append(spec)
    # Cold, then warm: the memoized verdicts must be the ones worked out.
    _case_of.cache_clear()
    _entry.cache_clear()
    cold = [classify_open_case(spec) for spec in fields]
    warm = [classify_open_case(spec) for spec in fields]
    assert _case_of.cache_info().hits >= len(fields)
    tags = set()
    for spec, got, again in zip(fields, cold, warm):
        assert got == again == classify_by_permutation_scan(spec), spec.values()
        tags.add(got.reason.split(":")[0] if got.tag == "NotOpen" else got.tag)
    # every block matched (the resolved one as NotOpen), and both no-match reasons
    assert len(tags) == len(CATALOG_MEMBERS) - 1 + 3


def test_memo_keys_on_sign_codes_and_stays_bounded():
    assert _case_of.cache_info().maxsize == redei._CASE_CACHE_SIZE
    assert _entry.cache_info().maxsize == redei._ENTRY_CACHE_SIZE
    # The same entries under other sign codes are another key: M49 needs
    # the codes - - - + +, so with a 4 in place of a - it cannot match.
    cols = redei._redei_columns(spec_of(*CATALOG_MEMBERS["M49"]))
    assert _case_of(("-", "-", "-", "+", "+"), cols).tag == "M49"
    assert _case_of(("4", "-", "-", "+", "+"), cols).tag == "NotOpen"
    # Distinct column tuples, zero on the diagonal, one bit of n per entry.
    entries = [(i, j) for j in range(5) for i in range(5) if i != j]
    _case_of.cache_clear()
    for n in range(redei._CASE_CACHE_SIZE + 10):
        cols = [0] * 5
        for k, (i, j) in enumerate(entries):
            cols[j] |= (n >> k & 1) << i
        _case_of(("-",) * 5, tuple(cols))
    assert _case_of.cache_info().misses == redei._CASE_CACHE_SIZE + 10
    for v in range(redei._ENTRY_CACHE_SIZE + 10):
        _entry(v, 7)
    assert _case_of.cache_info().currsize <= redei._CASE_CACHE_SIZE
    assert _entry.cache_info().currsize <= redei._ENTRY_CACHE_SIZE


def test_repeated_completion_makes_no_kronecker_call(monkeypatch):
    calls = []

    def counted(a, n):
        calls.append((a, n))
        return kronecker(a, n)

    monkeypatch.setattr(redei, "kronecker", counted)
    _case_of.cache_clear()
    _entry.cache_clear()
    first = complete_tuple("M49", [None, -11, -7, 13, None], 300, count=3)
    assert calls
    calls.clear()
    assert complete_tuple("M49", [None, -11, -7, 13, None], 300, count=3) == first
    assert calls == []


def test_classify_leaves_no_reference_cycles():
    # Cyclic garbage per call would keep the collector busy on hot loops
    # such as search.complete_tuple, which classifies every candidate.
    fields = [spec_of(*values) for values in CATALOG_MEMBERS.values()]
    fields.append(spec_of(-7, 17, 41, 97, 8))
    catalog_cases()
    gc.collect()
    gc.disable()
    try:
        for spec in fields:
            classify_open_case(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_open_case(spec_of(-3, -7))
    with pytest.raises(ValueError):
        classify_open_case(spec_of(5, 29, 109, 661, 13))


def test_catalog_parses_as_before():
    # sha256 of the parsed shipped catalog, taken before the parser
    # validated blocks.
    digest = hashlib.sha256(repr(_parse_catalog(catalog_text())).encode()).hexdigest()
    assert digest == "3b61cce34dc959189f0d8d6e36c34e541df466fa23f365043e43838e99f09bf7"


def test_catalog_rejects_malformed_blocks():
    good = """
case X
status open
signs - - - + +
row - 1 * 0 0
row 0 - 1 * 0
row 0 0 - 1 *
row * 0 0 - 1
row 1 * 0 0 -
note fine
"""
    assert [c.tag for c in _parse_catalog(good)] == ["X"]
    bad = [
        good.replace("signs - - - + +", "signs - - x + +"),
        good.replace("signs - - - + +", "signs - - - +"),
        good.replace("signs - - - + +\n", ""),
        good.replace("row 1 * 0 0 -\n", ""),
        good + "row 1 * 0 0 -\n",
        good.replace("row 0 0 - 1 *", "row 0 0 - 1"),
        good.replace("row 0 0 - 1 *", "row 0 0 0 1 *"),
        good.replace("row 0 0 - 1 *", "row 0 - - 1 *"),
        good.replace("row 0 0 - 1 *", "row 0 0 - 1 2"),
        good.replace("status open", "status opne"),
        good.replace("status open\n", ""),
        good + good,
        "row - 1 1 0 1\n" + good,
    ]
    for text in bad:
        with pytest.raises(ValueError):
            _parse_catalog(text)


def test_catalog_text_round_trip():
    text = catalog_text()
    assert "case M49" in text and "case FamD2d" in text
    cases = catalog_cases()
    tags = [c.tag for c in cases]
    assert len(tags) == len(set(tags))
    open_tags = {c.tag for c in cases if c.status == "open"}
    assert open_tags == {
        "A", "B", "C", "D1", "D2",
        "FamD2a", "FamD2b", "FamD2c", "FamD2d",
        "M16", "M28", "M30", "M32", "M34a", "M34b", "M49",
    }
    for c in cases:
        assert len(c.signs) == 5 and len(c.fixed) == 5
        for i, row in enumerate(c.fixed):
            assert len(row) == 5
            assert row[i] is None  # diagonals never pinned
