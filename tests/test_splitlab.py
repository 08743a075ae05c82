import hashlib
import json
import random
from collections import Counter

import pytest

import twotower.quadforms as quadforms
import twotower.splitlab as splitlab
from twotower.arith import QuadFieldSpec, kronecker, primes_up_to
from twotower.errors import PreconditionUnmet
from twotower.quadforms import (
    _ClassTable,
    _prime_form,
    _table,
    prime_class_info,
    prime_form,
    wide_class_group,
)
from twotower.splitlab import (
    ExperimentRow,
    explore_symbol_dependence,
    iter_rows,
    verify_imag_triple,
    verify_real_pair,
)
from twotower.tower import cl2_order


def test_verify_real_pair_small():
    report = verify_real_pair(5, 29, 2000)
    assert report.ok and report.checked > 0
    assert "0 violations" in report.describe()


def test_verify_real_pair_vacuous():
    report = verify_real_pair(5, 29, 1)
    assert report.checked == 0 and report.ok


def test_verify_real_pair_preconditions():
    with pytest.raises(PreconditionUnmet):
        verify_real_pair(5, 5, 100)
    with pytest.raises(PreconditionUnmet):
        verify_real_pair(3, 29, 100)  # 3 mod 4
    with pytest.raises(PreconditionUnmet):
        verify_real_pair(15, 29, 100)  # not prime


def test_verify_imag_triple_small():
    report = verify_imag_triple(7, 19, 3, 2000)
    assert report.ok
    assert report.base_field.values() == (-7, -19, -3)
    # input order is irrelevant: the precondition reorders
    report2 = verify_imag_triple(3, 7, 19, 500)
    assert report2.ok and report2.base_field.values() == (-7, -19, -3)


def test_imag_triple_shape_forces_cl2_type():
    # verify_imag_triple builds no group structure: the Redei shape it
    # requires forces Cl_2 = C2 x C_(c/2) with c = |Cl_2| >= 8.
    rng = random.Random(31)
    primes = [q for q in primes_up_to(200) if q % 4 == 3]
    found = 0
    while found < 30:
        try:
            report = verify_imag_triple(*rng.sample(primes, 3), 100)
        except PreconditionUnmet:
            continue
        c = cl2_order(report.base_field)
        group = wide_class_group(report.base_field.discriminant)
        parts = [e & -e for e in group.elementary_divisors if e % 2 == 0]
        assert report.ok and c >= 8 and parts == [2, c // 2], (report.base_field, parts)
        found += 1


def test_verify_imag_triple_precondition_unmet():
    # (-3,-7,-11) has Redei rank 2: Cl_2(-231) = C2 x C2
    with pytest.raises(PreconditionUnmet):
        verify_imag_triple(3, 7, 11, 100)
    with pytest.raises(PreconditionUnmet):
        verify_imag_triple(5, 7, 19, 100)  # 5 is 1 mod 4


def test_explore_partitions_primes():
    f = QuadFieldSpec.from_disc_values([5, 29])
    exp = explore_symbol_dependence(f, 500)
    seen = [row.p for row in exp.rows]
    expected = [p for p in primes_up_to(500) if 145 % p]
    assert seen == expected
    assert len(exp.rows) == len(set(seen))
    # summary row counts are consistent with the partition
    total = sum(
        sum(1 for row in exp.rows if row.symbol_key() == key) for key in exp.summary()
    )
    assert total == len(exp.rows)


def test_explore_consistent_with_real_pair_theorem():
    f = QuadFieldSpec.from_disc_values([5, 29])
    exp = explore_symbol_dependence(f, 3000)
    for row in exp.rows:
        if row.symbols == (-1, -1):
            assert row.split_type == "split" and row.count_in_l == 2, row
        if row.split_type == "inert":
            assert row.order_2part == 1 and row.count_in_l == 4


def test_split_conjugates_share_order_2part():
    rng = random.Random(7)
    f = QuadFieldSpec.from_disc_values([-7, -19, -3])
    table = _table(-399)
    done = 0
    for row in iter_rows(f, 800):
        if row.split_type != "split" or rng.random() < 0.5:
            continue
        form = prime_form(-399, row.p)
        i = table.class_index(form)
        j = table.class_index((form.a, -form.b, form.c))
        assert table.order_2part_mod(i, wide=True) == table.order_2part_mod(j, wide=True)
        done += 1
    assert done > 5


def test_explore_tsv_format():
    f = QuadFieldSpec.from_disc_values([5, 29])
    row = next(iter_rows(f, 10))
    cols = row.tsv().split("\t")
    assert len(cols) == 5
    assert int(cols[0]) == row.p
    assert cols[1].count(",") == 1


def test_explore_narrow_variant_runs():
    f = QuadFieldSpec.from_disc_values([5, 29])
    wide = explore_symbol_dependence(f, 300, wide=True)
    narrow = explore_symbol_dependence(f, 300, wide=False)
    assert len(wide.rows) == len(narrow.rows)
    assert narrow.group == "narrow"


# Reference sweeps: one kronecker call per symbol and, per prime, the class
# of its prime form in a fresh uncached _ClassTable, as the sweeps were
# first written.  No memo is shared with the kernel they check.


def _reference_info(table, p, wide):
    """(split type, 2-part of the class order) of p, p prime to the discriminant."""
    sym = kronecker(table.d, p)
    if sym == -1:
        return "inert", 1
    return "split", table.order_2part_mod(table.class_index(prime_form(table.d, p)), wide)


def _reference_c(table, wide):
    h = table.h_wide if wide else table.h_plus
    return h & -h


def _reference_count(c, split_type, part):
    return c if split_type == "inert" else 2 * (c // part)


def _reference_rows(f, bound, wide):
    d = f.discriminant
    table = _ClassTable(d)
    c = _reference_c(table, wide)
    rows = []
    for p in primes_up_to(bound):
        if d % p == 0:
            continue
        split_type, part = _reference_info(table, p, wide)
        symbols = tuple(kronecker(v, p) for v in f.values())
        rows.append(ExperimentRow(p, symbols, split_type, part, _reference_count(c, split_type, part)))
    return rows


def _reference_real_pair(l1, l2, bound, wide):
    table = _ClassTable(l1 * l2)
    c = _reference_c(table, wide)
    checked, bad = 0, []
    for p in primes_up_to(bound):
        if kronecker(l1, p) != -1 or kronecker(l2, p) != -1:
            continue
        checked += 1
        if _reference_count(c, *_reference_info(table, p, wide)) != 2:
            bad.append(p)
    return checked, bad


def _reference_imag_triple(ordered, bound, wide):
    d = ordered.discriminant
    table = _ClassTable(d)
    max_cyclic = max((e & -e for e in table.group(wide).elementary_divisors), default=1)
    checked, bad = 0, []
    for p in primes_up_to(bound):
        if d % p == 0:
            continue
        checked += 1
        split_type, part = _reference_info(table, p, wide)
        two_primes_in_l = split_type == "split" and part == max_cyclic
        predicted = tuple(kronecker(v, p) for v in ordered.values()) in {(1, -1, -1), (-1, 1, -1)}
        if two_primes_in_l != predicted:
            bad.append(p)
    return checked, bad


def _counting_kronecker(monkeypatch):
    calls = Counter()

    def counted(a, n):
        calls[a] += 1
        return kronecker(a, n)

    monkeypatch.setattr(splitlab, "kronecker", counted)
    return calls


# Fields with -4, 8 and -8, with a disc above the prime bound (1009, -719),
# and real ones for narrow mode with d > 0.
SWEEP_FIELDS = [
    (-3, 5, -31), (-4, 5, -31), (8, -3, 13), (-8, 5, -7),
    (-4, 13), (8, 5, 13), (5, 1009), (-8, -719),
]


def test_sweeps_match_reference(monkeypatch):
    bound = 700
    for values in SWEEP_FIELDS:
        f = QuadFieldSpec.from_disc_values(values)
        for wide in (True, False):
            calls = _counting_kronecker(monkeypatch)
            rows = list(iter_rows(f, bound, wide))
            assert rows == _reference_rows(f, bound, wide), (values, wide)
            # (v/p) has period |v| in p, so one kronecker call per class met.
            for v in values:
                assert calls[v] <= len({row.p % abs(v) for row in rows}), (values, v, calls[v])
    for l1, l2 in [(5, 29), (13, 17), (29, 1009)]:
        for wide in (True, False):
            report = verify_real_pair(l1, l2, bound, wide)
            want = _reference_real_pair(l1, l2, bound, wide)
            assert (report.checked, [p for p, _ in report.violations]) == want, (l1, l2)
    for triple in [(7, 19, 3), (3, 7, 719)]:
        for wide in (True, False):
            report = verify_imag_triple(*triple, bound, wide)
            want = _reference_imag_triple(report.base_field, bound, wide)
            assert (report.checked, [p for p, _ in report.violations]) == want, triple



def test_symbol_chunks_join_up(monkeypatch):
    # Chunks of 16 primes: rows cross many chunk edges, and each value's
    # memo carries over them, so the kronecker-call bound still holds.
    monkeypatch.setattr(splitlab, "_SYMBOL_CHUNK", 16)
    bound = 700
    for values in SWEEP_FIELDS:
        f = QuadFieldSpec.from_disc_values(values)
        calls = _counting_kronecker(monkeypatch)
        rows = list(iter_rows(f, bound))
        assert rows == _reference_rows(f, bound, True), values
        for v in values:
            assert calls[v] <= len({row.p % abs(v) for row in rows}), (values, v, calls[v])

# SHA-256 over SWEEP_FIELDS explored at bound 3000 (TSV and summary, wide
# and narrow) and the reports of the sweeps above, taken before the sweep
# kernel was tuned (symbol columns, shared PrimeClassInfo objects, cached
# Tonelli constants and prime lists).
SWEEP_OUTPUT_SHA256 = "6b7402c5093d0e22681a15e2735393d2e8203878ecf6b65f7e9b4d8808b81262"


def test_sweep_output_pinned():
    h = hashlib.sha256()
    for values in SWEEP_FIELDS:
        f = QuadFieldSpec.from_disc_values(values)
        for wide in (True, False):
            exp = explore_symbol_dependence(f, 3000, wide)
            h.update("\n".join(row.tsv() for row in exp.rows).encode())
            h.update(json.dumps(exp.summary()).encode())
    both = (True, False)
    reports = [verify_real_pair(*pair, 3000, w) for pair in [(5, 29), (13, 17), (29, 1009)] for w in both]
    reports += [verify_imag_triple(*triple, 3000, w) for triple in [(7, 19, 3), (3, 7, 719)] for w in both]
    for report in reports:
        h.update(f"{report.describe()}\n{report.violations}".encode())
    assert h.hexdigest() == SWEEP_OUTPUT_SHA256


def test_imaginary_sweeps_read_cl2_off_the_table(monkeypatch):
    # A cold sweep over an imaginary F takes |Cl_2(F)| from the class table
    # it fetches anyway, and never counts h on reduced forms beside it.
    f = QuadFieldSpec.from_disc_values([-7, -19, -3])
    c = cl2_order(f)
    _table.cache_clear()
    want = (verify_imag_triple(7, 19, 3, 2000), explore_symbol_dependence(f, 2000))
    counted = []
    monkeypatch.setattr(quadforms, "_class_number_neg", counted.append)
    _table.cache_clear()
    report = verify_imag_triple(7, 19, 3, 2000)
    _table.cache_clear()
    got = (report, explore_symbol_dependence(f, 2000))
    assert counted == [] and got == want
    assert {row.count_in_l for row in got[1].rows if row.split_type == "inert"} == {c}


def test_experiment_row_is_immutable_tuple():
    row = next(iter_rows(QuadFieldSpec.from_disc_values([5, 29]), 10))
    with pytest.raises(AttributeError):
        row.p = 2
    p, symbols, split_type, order_2part, count_in_l = row
    assert row == (p, symbols, split_type, order_2part, count_in_l)


def _split_primes_by_class(d, bound):
    t = _table(d)
    by_class = {}
    for p in primes_up_to(bound):
        if kronecker(d, p) == 1:
            by_class.setdefault(t.class_index(_prime_form(d, p)), []).append(p)
    return t, by_class


def test_prime_info_shared_per_class():
    shared = 0
    for d in (145, -399):
        t, by_class = _split_primes_by_class(d, 400)
        for p1, p2, *_ in (ps for ps in by_class.values() if len(ps) > 1):
            for wide in (True, False):
                assert t.prime_info(p1, 1, wide) is t.prime_info(p2, 1, wide), (d, p1, p2)
            shared += 1
    assert shared >= 10


def test_ramified_and_split_prime_in_one_class_keep_split_type():
    # A ramified prime's class also holds split primes; the memo must not
    # hand one's split type to the other.  Real d, wide and narrow.
    met = 0
    for d in (145, 1365, 2305):
        t, by_class = _split_primes_by_class(d, 2000)
        for q in (q for q in primes_up_to(d) if d % q == 0):
            for p in by_class.get(t.class_index(_prime_form(d, q)), [])[:1]:
                for wide in (True, False):
                    assert prime_class_info(d, q, wide=wide).split_type == "ramified", (d, q)
                    assert prime_class_info(d, p, wide=wide).split_type == "split", (d, p)
                met += 1
    assert met >= 3
