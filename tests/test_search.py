import hashlib
import itertools
import json
import math

import pytest

from test_redei import CATALOG_MEMBERS, slot_ok
from twotower.arith import (
    PrimeDiscriminant,
    QuadFieldSpec,
    is_fundamental,
    is_prime,
    prime_disc_factorization,
    primes_up_to,
)
from twotower.errors import Exhausted, TemplateMismatch
from twotower.quadforms import wide_class_group
from twotower.redei import (
    _entry,
    _redei_columns,
    catalog_cases,
    classify_open_case,
    f2_rank,
    redei_matrix,
)
from twotower import search
from twotower.search import complete_tuple, dmw_family, find_base_fields, lopez_family


def test_complete_case_b_gives_107_first():
    specs = complete_tuple("B", [-3, -11, None, -7, -31], 200, count=3)
    assert specs[0].values() == (-3, -11, -107, -7, -31)


def test_complete_case_b_progression():
    # 107's whole residue class mod 3*11*7*31*4 stays admissible: its next
    # prime member 107 + 28644 passes the hole's entry filter and
    # re-classifies.
    specs = complete_tuple("B", [-3, -11, None, -7, -31], 30000, count=500)
    qs = {-s.values()[2] for s in specs}
    assert 107 in qs and 107 + 28644 in qs
    mod = 3 * 11 * 7 * 31 * 4
    for spec in specs:
        q = -spec.values()[2]
        assert q % 4 == 3
        assert classify_open_case(spec).tag == "B"
    assert min(qs) == 107


def member_hole_pairs():
    """(tag, partial) for every pair of holes in each open case's catalog
    member: 160 partial tuples."""
    cases = {c.tag for c in catalog_cases() if c.status == "open"}
    return [
        (tag, [None if i in holes else v for i, v in enumerate(member)])
        for tag, member in CATALOG_MEMBERS.items()
        if tag in cases
        for holes in itertools.combinations(range(5), 2)
    ]


def complete_or_empty(tag, partial, count):
    try:
        return complete_tuple(tag, partial, 300, count=count)
    except Exhausted:
        return []


def test_complete_reclassifies_to_case():
    # classify_open_case rebuilds each field's matrix with redei_matrix.
    pairs = member_hole_pairs()
    assert len(pairs) == 160
    total = 0
    for tag, partial in pairs:
        for spec in complete_or_empty(tag, partial, 10**6):
            assert classify_open_case(spec).tag == tag, (tag, partial, spec)
            total += 1
    assert total == 1368


def test_complete_stops_at_count(monkeypatch):
    # The walk in order of |D| stops at the count-th field accepted, and
    # gives the prefix of the whole walk's result.
    classified = []
    real = search._case_of

    def counted(codes, a):
        classified.append(a)
        return real(codes, a)

    monkeypatch.setattr(search, "_case_of", counted)
    fewer = 0
    for tag, partial in member_hole_pairs():
        classified.clear()
        full = complete_or_empty(tag, partial, 10**6)
        walked = len(classified)
        for k in (1, 3, 5):
            classified.clear()
            assert complete_or_empty(tag, partial, k) == full[:k], (tag, partial, k)
            if k == 1 and len(classified) < walked:
                fewer += 1
    assert fewer > 0


def test_complete_against_brute_force():
    # Hole patterns of one member of each open case, and of two members
    # with a known +-8, against a brute force over all hole values
    # complete_tuple documents: -4 and +-q for odd primes q <= bound (+-8
    # is never a hole value).  The hole-against-known entries are read from
    # the Redei matrix at the given slots, not from the search's filter.
    bound = 150
    pool = [PrimeDiscriminant.from_value(-4)] + [
        PrimeDiscriminant.from_value(p if p % 4 == 1 else -p) for p in primes_up_to(bound)[1:]
    ]
    cases = {c.tag: c for c in catalog_cases() if c.status == "open"}

    def check(tag, member, holes):
        case = cases[tag]
        partial = [None if i in holes else v for i, v in enumerate(member)]
        try:
            specs = complete_tuple(tag, partial, bound, count=10**6)
        except Exhausted:
            specs = []
        got = {s.discriminant: s.values() for s in specs}
        pairs = [(i, j) for j in holes for i in range(5) if i not in holes]
        want = {}
        choices = [[d.value for d in pool if slot_ok(case.signs[j], d)] for j in holes]
        for fill in itertools.product(*choices):
            values = list(partial)
            for j, v in zip(holes, fill):
                values[j] = v
            if len({PrimeDiscriminant.from_value(v).prime for v in values}) != 5:
                continue
            spec = QuadFieldSpec.from_disc_values(values)
            if spec.discriminant > 0 or spec.discriminant in want:
                continue
            a = redei_matrix(spec)
            if any(
                case.fixed[x][y] is not None and a[x][y] != case.fixed[x][y]
                for i, j in pairs
                for x, y in ((i, j), (j, i))
            ):
                continue
            if classify_open_case(spec).tag == tag:
                want[spec.discriminant] = spec.values()
        assert got == want, (tag, member, holes)
        return len(got)

    def total(members, k):
        return sum(
            check(tag, member, holes)
            for tag, member in members
            for holes in itertools.combinations(range(5), k)
        )

    members = [(tag, CATALOG_MEMBERS[tag]) for tag in cases]
    assert total(members, 2) == 513
    assert total(members, 1) == 125
    with_8 = [("M28", (-7, -3, -47, 8, 5)), ("B", (-8, -47, -31, -43, -3))]
    assert total(with_8, 1) == 15
    assert total(with_8, 2) == 63


def test_complete_output_pinned():
    # sha256 over every hole pair of every open case's member at bound 300,
    # taken before candidates were classified through the cached catalog
    # match; an Exhausted call is recorded by its message.
    cases = {c.tag for c in catalog_cases() if c.status == "open"}
    lines = []
    for tag, member in CATALOG_MEMBERS.items():
        if tag not in cases:
            continue
        for holes in itertools.combinations(range(5), 2):
            partial = [None if i in holes else v for i, v in enumerate(member)]
            try:
                out = [list(s.values()) for s in complete_tuple(tag, partial, 300, count=50)]
            except Exhausted as exc:
                out = str(exc)
            lines.append(json.dumps([tag, list(holes), out]))
    assert len(lines) == 160
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ad21bada49dff59d268f74aaee43669f340d8e99ef8803ecfc0d6713b2c726e2"


def test_complete_sieves_once_per_bound(monkeypatch):
    # Calls at one bound share one cached prime tuple.
    from twotower import arith

    sieved = []
    real = arith.primes_up_to
    monkeypatch.setattr(arith, "primes_up_to", lambda n: sieved.append(n) or real(n))
    arith._primes.cache_clear()
    search._pool.cache_clear()
    search._columns.cache_clear()
    results = [complete_tuple("M49", [None, -11, -7, 13, None], 300, 3) for _ in range(10)]
    assert sieved == [300]
    assert [list(s.values()) for s in results[0]] == [
        [-3, -11, -7, 13, 17],
        [-3, -11, -7, 13, 101],
        [-3, -11, -7, 13, 173],
    ]
    assert all(r == results[0] for r in results)


def test_complete_template_mismatch():
    from twotower.errors import NotFundamental

    with pytest.raises(NotFundamental):
        complete_tuple("B", [3, -11, None, -7, -31], 200)  # +3 is not a disc
    with pytest.raises(TemplateMismatch):
        complete_tuple("B", [5, -11, None, -7, -31], 200)  # positive in '-' slot
    with pytest.raises(TemplateMismatch):
        complete_tuple("NotOpen", [None] * 5, 100)
    with pytest.raises(TemplateMismatch):
        complete_tuple("B", [-3, -11, -7, -31], 200)  # four slots


def test_complete_exhausted():
    with pytest.raises(Exhausted):
        complete_tuple("B", [-3, -11, None, -7, -31], 100)  # 107 > 100


def test_complete_refuses_too_many_fillings(within):
    # five holes of A at bound 1000 would be about 5e9 fillings to walk
    with within(2), pytest.raises(ValueError, match=r"fillings to try, above the cap of 1000000"):
        complete_tuple("A", [None] * 5, 1000)


def columns_of(ones):
    """Five column bitmasks with bit i of column j set at each (i, j) in ones."""
    cols = [0] * 5
    for i, j in ones:
        cols[j] |= 1 << i
    return tuple(cols)


def test_complete_classifies_each_result_on_its_redei_columns(monkeypatch):
    # Every field complete_tuple returns was classified on its own Redei
    # columns as redei builds them, in slot order: the columns search
    # assembles from its bitmasks and hole-against-hole entries have the
    # same orientation (bit i of column j is slot i's entry at slot j).
    seen = set()
    real = search._case_of

    def recorded(codes, cols):
        seen.add(cols)
        return real(codes, cols)

    monkeypatch.setattr(search, "_case_of", recorded)
    returned = 0
    for tag, partial in member_hole_pairs():
        seen.clear()
        for spec in complete_or_empty(tag, partial, 10):
            assert _redei_columns(spec) in seen, (tag, partial, spec)
            returned += 1
    assert returned > 1000


def reference_candidates(cat, known, holes, bound):
    """complete_tuple's hole filter as it was before the cached columns: per
    hole, each candidate's entries against the known discs looked up one by
    one, the first that misses a fixed entry dropping it; -4 is not filtered."""
    known_primes = {d.prime for d in known.values()}
    odd_primes = [q for q in primes_up_to(bound)[1:] if q not in known_primes]
    candidates = []
    for j in holes:
        code = cat.signs[j]
        if code == "4":
            pool = [] if 2 in known_primes else [(-4, 2)]
        else:
            sign = -1 if code == "-" else 1
            pool = [(sign * q, q) for q in odd_primes if sign * q % 4 == 1]
        keep = []
        for v, q in pool:
            ones = []
            for i, d in known.items():
                a, b = _entry(v, d.prime), _entry(d.value, q)
                if code != "4" and cat.fixed[j][i] not in (None, a):
                    break
                if code != "4" and cat.fixed[i][j] not in (None, b):
                    break
                ones += [(j, i)] * a + [(i, j)] * b
            else:
                keep.append((v, q, sorted(ones)))
        candidates.append(keep)
    return candidates


def test_hole_candidates_match_per_candidate_filter():
    # Every hole, pair and triple of one member of each open case, and of
    # members with a known 8 or -8, at three bounds: the bitmask filter
    # keeps the candidates, in order, with the entries, that the one-by-one
    # filter kept.  An entry at (row i, column j) is bit i of column j.
    cases = {c.tag: c for c in catalog_cases() if c.status == "open"}
    members = [(tag, CATALOG_MEMBERS[tag]) for tag in cases] + [
        ("M28", (-7, -3, -47, 8, 5)),
        ("B", (-8, -47, -31, -43, -3)),
        ("FamD2c", (-4, -19, -31, 8, 37)),  # 8 takes the prime of a '4' hole
        ("C", (-4, -3, -31, -43, -7)),  # -4 misses C's a_50 = 1 but stays
    ]
    compared = dropped = fours = 0
    for tag, member in members:
        cat = cases[tag]
        for k in (1, 2, 3):
            for holes in itertools.combinations(range(5), k):
                holes = list(holes)
                known = {
                    i: PrimeDiscriminant.from_value(v)
                    for i, v in enumerate(member)
                    if i not in holes
                }
                for bound in (150, 300, 1000):
                    got = search._candidates(cat, known, holes, bound)
                    want = [
                        [(v, q, columns_of(ones)) for v, q, ones in c]
                        for c in reference_candidates(cat, known, holes, bound)
                    ]
                    assert got == want, (
                        tag,
                        member,
                        holes,
                        bound,
                    )
                    compared += 1
                    fours += sum(cat.signs[j] == "4" for j in holes)
                    dropped += sum(
                        d.prime <= bound and slot_ok(cat.signs[j], d)
                        for j in holes
                        for d in known.values()
                    )
    assert compared == 20 * 25 * 3
    assert fours > 0 and dropped > 0
    cat = cases["FamD2c"]
    known = {3: PrimeDiscriminant.from_value(8)}
    assert search._candidates(cat, known, [0, 1, 2, 4], 150)[0] == []


def test_complete_cap_counts_fillings_exactly(within):
    # five holes of A at bound 1000: 87 candidates each, 87**5 fillings,
    # refused at once
    with within(2), pytest.raises(ValueError) as refused:
        complete_tuple("A", [None] * 5, 1000)
    assert str(refused.value) == "4984209207 hole fillings to try, above the cap of 1000000"
    cat = search._case_by_tag("A")
    lists = reference_candidates(cat, {}, list(range(5)), 1000)
    assert list(map(len, lists)) == [87] * 5
    # five holes of A at bound 80: 12 candidates each, 248,832 fillings,
    # under the cap
    lists = search._candidates(cat, {}, list(range(5)), 80)
    assert list(map(len, lists)) == [12] * 5
    with within(5):
        (spec,) = complete_tuple("A", [None] * 5, 80, count=1)
    assert classify_open_case(spec).tag == "A"


def test_complete_count_below_one():
    for count in (0, -1):
        with pytest.raises(ValueError):
            complete_tuple("B", [-3, -11, None, -7, -31], 200, count=count)


def test_find_base_fields_named_sets():
    r1 = find_base_fields("imaginary-3-neg", 16, 1, 1100)
    assert {-399, -1023} <= {s.discriminant for s in r1}
    r2 = find_base_fields("imaginary-with-minus4", 16, 1, 2300)
    assert {-740, -2211} <= {s.discriminant for s in r2}
    r3 = find_base_fields("real-pos-pair", 8, 0, 3000)
    assert {904, 2605} <= {s.discriminant for s in r3}
    # ascending |D|
    for r in (r1, r2, r3):
        absd = [abs(s.discriminant) for s in r]
        assert absd == sorted(absd)


def template_ok(name, d, values):
    """Whether the field of discriminant d with these disc values fits the
    named base-field template."""
    if name == "imaginary-3-neg":
        return d < 0 and len(values) == 3 and max(values) < 0 and -4 not in values
    if name == "imaginary-with-minus4":
        # -4 among the discs, or 2 unramified (d odd)
        return d < 0 and len(values) == 3 and (-4 in values or d % 2 == 1)
    if name == "imaginary-mixed-pair":
        return d < 0 and len(values) == 2
    assert name == "real-pos-pair"
    return d > 0 and len(values) == 2 and min(values) > 0


def test_find_base_fields_brute_force_oracle():
    # independent dumb filter over every fundamental discriminant
    for template, min_cl2, rank_max in [
        ("imaginary-3-neg", 16, 1),
        ("imaginary-with-minus4", 8, 1),
        ("imaginary-mixed-pair", 8, 0),
        ("real-pos-pair", 8, 0),
    ]:
        got = {s.discriminant for s in find_base_fields(template, min_cl2, rank_max, 5000)}
        want = set()
        for d in range(-5000, 5001):
            if not is_fundamental(d):
                continue
            spec = prime_disc_factorization(d)
            if not template_ok(template, d, spec.values()):
                continue
            if f2_rank(redei_matrix(spec)) > rank_max:
                continue
            if math.prod(e & -e for e in wide_class_group(d).elementary_divisors) < min_cl2:
                continue
            want.add(d)
        assert want and got == want, template


def test_find_base_fields_pinned():
    # sha256 over every template at min_cl2 4, 8 and 16 and Redei rank at
    # most 0, 1 and 2, bound 3000 (1,738 fields), taken while each template
    # was still stated twice, in a table and in an if-chain.
    names = ["imaginary-3-neg", "imaginary-mixed-pair", "imaginary-with-minus4", "real-pos-pair"]
    lines = [
        json.dumps([name, c, r, [list(s.values()) for s in find_base_fields(name, c, r, 3000)]])
        for name in names
        for c in (4, 8, 16)
        for r in (0, 1, 2)
    ]
    assert sum(len(json.loads(line)[3]) for line in lines) == 1738
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e827f5f165b50e10aec4d6d077417e85c95d18a95e6e774dfb41d8c1c65969e6"


def test_unknown_template():
    with pytest.raises(TemplateMismatch):
        find_base_fields("nope", 4, 1, 100)


def test_dmw_family_verified():
    fields = list(itertools.islice(dmw_family(2, 5), 3))
    assert fields
    for spec in fields:
        q3, q5 = -spec.values()[0], spec.values()[1]
        assert q3 % 8 == 3 and q5 % 8 == 5
        group = wide_class_group(spec.discriminant)
        assert [d & -d for d in group.elementary_divisors if d % 2 == 0] == [4]


def test_lopez_family_verified():
    fields = list(itertools.islice(lopez_family(2, 3), 2))
    assert fields
    for spec in fields:
        assert spec.values()[0] == -4
        group = wide_class_group(spec.discriminant)
        assert sorted(d & -d for d in group.elementary_divisors if d % 2 == 0) == [2, 4]


def _dmw_reference(n, m_max):
    """dmw_family as it selected fields from the whole wide class group."""
    for m in range(1, m_max + 1, 2):
        total = 4 * (2 * m * m) ** (2 ** (n - 1))
        for q3 in range(3, total, 8):
            q5 = total - q3
            if q5 % 8 == 5 and is_prime(q3) and is_prime(q5):
                spec = QuadFieldSpec.from_disc_values([-q3, q5])
                group = wide_class_group(spec.discriminant)
                if [d & -d for d in group.elementary_divisors if d % 2 == 0] == [2**n]:
                    yield spec


def _lopez_reference(n, m_max):
    """lopez_family as it selected fields from the whole wide class group."""
    for m in range(1, m_max + 1, 2):
        total = 2 * (3 * m * m) ** (2 ** (n - 1))
        for q3 in range(11, total, 24):
            q4 = total - q3
            if q4 > 0 and q4 % 24 == 7 and is_prime(q3) and is_prime(q4):
                spec = QuadFieldSpec.from_disc_values([-4, -q3, -q4])
                group = wide_class_group(spec.discriminant)
                divs = sorted(d & -d for d in group.elementary_divisors if d % 2 == 0)
                if divs == [2, 2**n]:
                    yield spec


def test_family_predicates_match_group_structure():
    # The 2-part predicates select the fields the whole group selected.
    for n, m_max in ((1, 15), (2, 5), (3, 1)):
        assert list(dmw_family(n, m_max)) == list(_dmw_reference(n, m_max)), n
    for n, m_max in ((1, 15), (2, 3), (3, 1)):
        assert list(lopez_family(n, m_max)) == list(_lopez_reference(n, m_max)), n


CASE_SEEDS = {
    "A": ([None, None, -7, -19, -3], 500),
    "B": ([-3, -11, None, -7, -31], 200),
    "C": ([-4, None, -67, -3, -11], 200),
    "D1": ([-4, None, -67, -7, None], 200),
    "D2": ([-4, None, None, None, None], 60),
    "FamD2a": ([-4, None, None, 5, 29], 200),
    "FamD2b": ([-4, None, None, 5, 29], 200),
    "FamD2c": ([-4, None, None, 5, 37], 200),
    "FamD2d": ([-4, None, None, 5, 37], 200),
    "M16": ([-43, None, -3, None, 13], 200),
    "M28": ([None, None, -3, 13, None], 100),
    "M30": ([None, None, None, 5, 37], 80),
    "M32": ([None, None, -3, None, 1021], 400),
    "M34a": ([None, None, None, 5, 29], 80),
    "M34b": ([None, None, None, 5, 37], 80),
    "M49": ([None, None, None, 29, 5], 80),
}


def test_every_open_case_is_constructible():
    from twotower.redei import four_rank_narrow

    for tag, (partial, bound) in CASE_SEEDS.items():
        spec = complete_tuple(tag, partial, bound, count=1)[0]
        assert classify_open_case(spec).tag == tag
        # the family cases carry 4-rank 2, all other open matrices rank 4
        want_d4 = 2 if tag.startswith("FamD2") else 0
        assert four_rank_narrow(spec) == want_d4, (tag, spec)
