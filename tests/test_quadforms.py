import hashlib
import os
import random
from math import isqrt, log, pi, prod, sin, sqrt

import pytest

from twotower.arith import (
    factorization,
    is_fundamental,
    kronecker,
    prime_disc_factorization,
    primes_up_to,
)
from twotower.errors import (
    BoundExceeded,
    DiscriminantMismatch,
    NoSquareRoot,
    NotFundamental,
    SquareDiscriminant,
)
from twotower.quadforms import (
    _CLASS_NUMBER_CACHE_SIZE,
    _TABLE_CACHE_SIZE,
    QuadForm,
    _class_number_neg,
    _cycle,
    _is_reduced_indef,
    _odd_roots,
    _reduce_indef,
    _reduced_forms_neg,
    _rho,
    _root_counts,
    _roots_by_leading_coefficient,
    _prime_info,
    _smallest_prime_factors,
    _table,
    class_number,
    compose,
    inverse,
    narrow_class_group,
    prime_class_info,
    prime_form,
    principal_form,
    reduce_form,
    wide_class_group,
)

FULL = os.environ.get("TWOTOWER_FULL_SWEEPS") == "1"

# Spot values from standard class number tables.
KNOWN_H_NEG = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2,
    -31: 3, -39: 4, -47: 5, -56: 4, -71: 7, -84: 4, -95: 8, -163: 1,
    -403: 2, -420: 8, -427: 2,
}

ODD_RANK_TWO = {
    -3299: (3, 9), -4027: (3, 3), -3896: (3, 12), -11199: (5, 20),
    -12451: (5, 5), -15544: (6, 6), -63499: (7, 7),
}


def test_reduce_examples():
    assert reduce_form(QuadForm(2, 2, 3)) == (2, 2, 3)
    assert reduce_form(QuadForm(1, 0, 1)) == (1, 0, 1)
    assert reduce_form(QuadForm(12, 23, 34)).discriminant == 23 * 23 - 4 * 12 * 34
    # idempotent in both signatures
    for f in (QuadForm(12, 23, 34), QuadForm(3, 4, -2), QuadForm(7, 5, -19)):
        once = reduce_form(f)
        assert reduce_form(once) == once


def test_reduce_indefinite_canonical_and_cycle():
    f = QuadForm(3, 4, -2)
    assert f.discriminant == 40
    red = reduce_form(f)
    all_forms = sorted(_table(40).index)
    assert tuple(red) in all_forms
    # canonical representative is on f's own cycle
    cyc = _cycle(_reduce_indef(3, 4, -2, 40), 40)
    assert tuple(red) == min(g for g in cyc if g[0] > 0)
    # cycle membership and length agree with brute-force enumeration
    assert set(cyc) <= set(all_forms)
    assert len(cyc) == len(set(cyc))


def test_reduce_rejects_square_disc():
    with pytest.raises(SquareDiscriminant):
        reduce_form(QuadForm(1, 3, 2))  # disc 1
    with pytest.raises(SquareDiscriminant):
        reduce_form(QuadForm(1, 2, 1))  # disc 0
    with pytest.raises(ValueError):
        reduce_form(QuadForm(-1, 0, -1))  # negative definite


def test_compose_identity_and_mismatch():
    rng = random.Random(1)
    table = _table(-399)
    e = principal_form(-399)
    for _ in range(20):
        f = QuadForm(*table.reps[rng.randrange(table.h_plus)])
        assert compose(e, f) == reduce_form(f)
    with pytest.raises(DiscriminantMismatch):
        compose(principal_form(-399), principal_form(-4))


def test_compose_order_eight_class():
    f = QuadForm(2, 1, 50)
    assert f.discriminant == -399
    e = principal_form(-399)
    acc = f
    order = 1
    while reduce_form(acc) != e:
        acc = compose(acc, f)
        order += 1
        assert order <= 16
    assert order == 8


def test_cayley_table_minus84():
    table = _table(-84)
    h = table.h_plus
    assert h == 4
    for i in range(h):
        for j in range(h):
            assert table.mul(i, j) == table.mul(j, i)
            for k in range(h):
                assert table.mul(table.mul(i, j), k) == table.mul(i, table.mul(j, k))
    # elementary abelian: every square is principal
    for i in range(h):
        assert table.mul(i, i) == table.principal


def test_group_laws_small_range():
    # both signs: the indefinite path exercises cycle-based identification
    for d in list(range(-2000, 0)) + list(range(2, 1200)):
        if not is_fundamental(d):
            continue
        table = _table(d)
        h = table.h_plus
        if h > 24:
            continue
        for i in range(h):
            inv = table.inv(i)
            assert table.mul(i, inv) == table.principal
        for i in range(h):
            for j in range(i, h):
                ij = table.mul(i, j)
                for k in range(h):
                    assert table.mul(ij, k) == table.mul(i, table.mul(j, k))


def test_composition_group_laws_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ds = _seeded_fundamentals(61, 10**3, 10**6, 12)
    assert {d > 0 for d in ds} == {False, True}

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(ds), st.data())
    def laws(d, data):
        reps = _table(d).reps
        f, g, h = (QuadForm(*reps[data.draw(st.integers(0, len(reps) - 1))]) for _ in range(3))
        e = reduce_form(principal_form(d))
        assert compose(f, e) == reduce_form(f)
        assert compose(f, inverse(f)) == e
        assert compose(f, g) == compose(g, f)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    laws()


def test_compose_raw_preserves_discriminant():
    from twotower.quadforms import _compose_raw

    rng = random.Random(77)
    for d in (-399, -420, 145, 904, 2305, 12, 40, 229):
        table = _table(d)
        for _ in range(120):
            f = table.reps[rng.randrange(table.h_plus)]
            g = table.reps[rng.randrange(table.h_plus)]
            a, b, c = _compose_raw(f, g, d)
            assert b * b - 4 * a * c == d, (d, f, g)


def test_known_class_numbers():
    for d, h in KNOWN_H_NEG.items():
        assert narrow_class_group(d).order == h, d


def test_structure_examples():
    assert narrow_class_group(-399).elementary_divisors == (2, 8)
    assert narrow_class_group(-399).order == 16
    assert narrow_class_group(145).elementary_divisors == (4,)
    assert wide_class_group(145).elementary_divisors == (4,)
    assert narrow_class_group(-4).elementary_divisors == ()
    assert narrow_class_group(-4).order == 1
    assert wide_class_group(12).order == 1
    assert narrow_class_group(12).elementary_divisors == (2,)
    assert wide_class_group(2305).order == 16
    # Odd Sylow subgroups of rank 2; -3299 is the least |d| of 3-rank 2.
    for d, divs in ODD_RANK_TWO.items():
        assert narrow_class_group(d).elementary_divisors == divs, d


def test_generators_match_divisors():
    for absd in range(3, 3001):
        for d in (-absd, absd):
            if not is_fundamental(d):
                continue
            table = _table(d)
            if table.neg_principal == table.principal:
                assert wide_class_group(d) is narrow_class_group(d), d
            for group, kernel in (
                (narrow_class_group(d), {table.principal}),
                (wide_class_group(d), table.wide_kernel),
            ):
                assert len(group.generators) == len(group.elementary_divisors)
                prod = 1
                for div in group.elementary_divisors:
                    prod *= div
                assert prod == group.order
                for gen, div in zip(group.generators, group.elementary_divisors):
                    assert gen.discriminant == d
                    # generator order in the quotient is exactly its divisor
                    i = table.class_index(gen)
                    assert table.pow(i, div) in kernel, (d, gen, div)
                    for p in factorization(div):
                        assert table.pow(i, div // p) not in kernel, (d, gen, div, p)


def test_odd_sylow_generators_span():
    for d in ODD_RANK_TWO:
        table = _table(d)
        group = narrow_class_group(d)
        assert len(group.generators) == len(group.elementary_divisors) == 2
        span = {table.principal}
        for gen, div in zip(group.generators, group.elementary_divisors):
            i = table.class_index(gen)
            assert table.pow(i, div) == table.principal, (d, gen, div)
            for p in factorization(div):
                assert table.pow(i, div // p) != table.principal, (d, gen, div, p)
            span = {table.mul(z, table.pow(i, k)) for z in span for k in range(div)}
        assert len(span) == group.order == table.h_plus, d


def _divisors(n):
    out = [1]
    for p, e in factorization(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _plog(n, p):
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def _reference_structure(t, rep):
    """The torsion-counting structure: the order of every element, the
    divisor multiset from the counts of p^j-torsion, then a maximal-order
    peel for generators."""
    elements = sorted(set(rep))
    identity = rep[t.principal]
    h = len(elements)
    if h == 1:
        return (), []
    h_fac = factorization(h)
    orders = {}
    for x in elements:
        o = h
        for p in h_fac:
            while o % p == 0 and rep[t.pow(x, o // p)] == identity:
                o //= p
        orders[x] = o
    layer_ranks = {}
    for p, e_max in h_fac.items():
        prev = 0
        ranks = []
        for j in range(1, e_max + 1):
            q = p**j
            cnt = sum(1 for x in elements if q % orders[x] == 0)
            lg = _plog(cnt, p)
            ranks.append(lg - prev)
            prev = lg
            if ranks[-1] == 0:
                break
        layer_ranks[p] = [r for r in ranks if r > 0]
    width = max(r[0] for r in layer_ranks.values())
    divisors_desc = []
    for k in range(width):
        dk = 1
        for p, ranks in layer_ranks.items():
            dk *= p ** sum(1 for r in ranks if r > k)
        divisors_desc.append(dk)
    by_order_desc = sorted(elements, key=lambda e: -orders[e])
    subgroup = {identity}
    gens = []
    for dk in divisors_desc:
        pick = None
        for x in by_order_desc:
            if x in subgroup or orders[x] % dk:
                continue
            co = orders[x]
            for k in _divisors(orders[x]):
                if rep[t.pow(x, k)] in subgroup:
                    co = k
                    break
            if co == dk:
                pick = x
                break
        assert pick is not None, "no element matches the invariant factor"
        tgt = rep[t.pow(pick, dk)]
        if tgt != identity:
            adj = next(y for y in subgroup if rep[t.pow(y, dk)] == tgt)
            pick = rep[t.mul(pick, t.inv(adj))]
        gens.append(pick)
        new = set()
        g = identity
        for _ in range(dk):
            for z in subgroup:
                new.add(rep[t.mul(z, g)])
            g = rep[t.mul(g, pick)]
        subgroup = new
    assert len(subgroup) == h, "generators do not span the group"
    return tuple(divisors_desc), gens


def _reference_divisors(d, wide):
    t = _table(d)
    if wide and t.neg_principal != t.principal:
        rep = [min(i, t.mul(i, t.neg_principal)) for i in range(t.h_plus)]
    else:
        rep = list(range(t.h_plus))
    return tuple(reversed(_reference_structure(t, rep)[0]))


def test_structure_matches_torsion_counting_reference():
    ds = [s * a for a in range(3, 3001) for s in (-1, 1) if is_fundamental(s * a)]
    ds += _seeded_fundamentals(53, 10**7, 10**8, 6)
    for d in ds:
        assert narrow_class_group(d).elementary_divisors == _reference_divisors(d, False), d
        assert wide_class_group(d).elementary_divisors == _reference_divisors(d, True), d


def test_enumeration_consistency_sweep():
    top = 10**5 if FULL else 6000
    count = 0
    for d in range(-top, -2):
        if not is_fundamental(d):
            continue
        forms = _reduced_forms_neg(d)
        group = narrow_class_group(d)
        assert group.order == len(forms), d
        count += 1
        # the group exponent annihilates every enumerated class
        if d >= -1200:
            table = _table(d)
            exponent = group.elementary_divisors[-1] if group.elementary_divisors else 1
            for i in range(table.h_plus):
                assert table.pow(i, exponent) == table.principal, (d, i)
    assert count > 0
    if not FULL:
        rng = random.Random(23)
        hits = 0
        while hits < 40:
            d = -rng.randint(3, 10**5)
            if not is_fundamental(d):
                continue
            assert narrow_class_group(d).order == len(_reduced_forms_neg(d))
            hits += 1


def _reference_forms_neg(d):
    """The b-first enumeration (loop over b, trial-divide (b^2 - d)/4 by a)."""
    out = []
    b = d & 1
    while 3 * b * b <= -d:
        m = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                out.append((a, b, c))
                if 0 < b < a < c:
                    out.append((a, -b, c))
            a += 1
        b += 2
    out.sort()
    return out


def _reference_forms_pos(d):
    """The b-first enumeration of reduced indefinite forms, both leading signs."""
    out = []
    s = isqrt(d)
    b = 2 - (d & 1)
    while b <= s:
        m = (d - b * b) // 4
        lo = max((s - b) // 2 + 1, 1)
        hi = (s + b) // 2
        if hi - lo <= isqrt(m):
            for a in range(lo, hi + 1):
                if m % a == 0:
                    out.append((a, b, -(m // a)))
                    out.append((-a, b, m // a))
        else:
            a = 1
            while a * a <= m:
                if m % a == 0:
                    for w in {a, m // a}:
                        if lo <= w <= hi:
                            out.append((w, b, -(m // w)))
                            out.append((-w, b, m // w))
                a += 1
        b += 2
    out.sort()
    return out


def _reference_partition(d):
    """The b-loop forms of d > 0 split into reduction cycles, each walked in
    full with _rho, classes numbered as the forms ascend, each represented
    by its least form with a > 0."""
    s = isqrt(d)
    index, reps = {}, []
    for f in _reference_forms_pos(d):
        if f not in index:
            cyc = [f]
            g = _rho(*f, d, s)
            while g != f:
                cyc.append(g)
                g = _rho(*g, d, s)
            index.update(dict.fromkeys(cyc, len(reps)))
            reps.append(min(g for g in cyc if g[0] > 0))
    return index, reps


def _seeded_fundamentals(seed, lo, hi, count, signs=(-1, 1)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice(signs) * rng.randint(lo, hi)
        if is_fundamental(d):
            out.append(d)
    return out


# Real discriminants whose tables are checked against the b-loop partition
# and whose group structures are pinned.
SEEDED_REAL = _seeded_fundamentals(67, 10**7, 10**8, 6, signs=(1,))


def _check_against_reference(d):
    if d < 0:
        forms = _reference_forms_neg(d)
        assert _reduced_forms_neg(d) == forms, d
        assert _class_number_neg(d) == len(forms), d
        return
    t = _table(d)
    index, reps = _reference_partition(d)
    # Equal dicts: the same reduced forms, each in the same class.
    assert t.index == index and t.reps == reps, d


def test_enumeration_matches_b_loop_reference():
    count = 0
    for absd in range(3, 20001):
        for d in (-absd, absd):
            if is_fundamental(d):
                _check_against_reference(d)
                count += 1
    assert count == 12160
    for d in _seeded_fundamentals(41, 10**7, 10**8, 6) + SEEDED_REAL:
        _check_against_reference(d)


def test_every_real_class_has_a_small_leading_coefficient():
    # Forms (a, b, c), (c, ...) next to each other on a reduction cycle have
    # |ac| < d/4, so every class holds a form with |a| <= isqrt(d) // 2: the
    # only leading coefficients the table starts its walks from.  That the
    # table misses no class is the b-loop test above; here some class needs
    # the bound with equality, so it cannot be lowered.  The table stops
    # enumerating once its cycles hold the n forms of each sign with
    # |a| <= isqrt(d) // 2 that _root_counts counts, so it must hold exactly
    # those; on the tight d the enumeration has to reach the last a.
    tight = 0
    for d in [d for d in range(5, 20001) if is_fundamental(d)] + SEEDED_REAL:
        t = _table(d)
        top = isqrt(d) // 2
        least = [d] * t.h_plus
        small = [0, 0]  # forms with a < 0, a > 0
        for (a, _, _), i in t.index.items():
            least[i] = min(least[i], abs(a))
            if abs(a) <= top:
                small[a > 0] += 1
        n = _root_counts(d, top, top)[0]
        assert max(least) <= top, d
        assert small == [n, n], d
        tight += max(least) == top
    assert tight > 0


# SHA-256 of the structures below as the table built from every reduced
# form, sorted, gave them.
PINNED_STRUCTURES = "f846d4ea89224cd6bac4a5eaf772decad9eb17a984dc30f41cf679c65fd4f53d"


def test_group_structures_pinned():
    # Divisors, orders and generators of both groups, over |d| <= 2000 of
    # both signs and the seeded real d.
    ds = [s * a for a in range(3, 2001) for s in (-1, 1) if is_fundamental(s * a)]
    digest = hashlib.sha256()
    for d in ds + SEEDED_REAL:
        for g in (narrow_class_group(d), wide_class_group(d)):
            gens = [tuple(f) for f in g.generators]
            digest.update(f"{d} {g.elementary_divisors} {g.order} {gens}\n".encode())
    assert digest.hexdigest() == PINNED_STRUCTURES


def test_leading_coefficient_roots_against_sympy():
    # Every a from 1, as the tables list them, and a band from start > 1 up,
    # as _class_number_neg lists it: each a listed has its roots and no
    # other, and every a left out has none.
    sympy_ntheory = pytest.importorskip("sympy.ntheory")
    ds = [-3, -4, -8, 5, 8, 12, -399, 904, -2379, 2305]
    ds += _seeded_fundamentals(43, 10**3, 10**8, 24)
    rng = random.Random(47)
    for d in ds:
        top = isqrt(abs(d))
        _, two, rho = _root_counts(d, top, top)
        for start in (1, isqrt(abs(d) - 1) // 2 + 1):
            got = dict(_roots_by_leading_coefficient(d, start, top, two, rho))
            assert all(start <= a <= top and roots for a, roots in got.items()), d
            sample = rng.sample(range(start, top + 1), min(top + 1 - start, 60))
            for a in sorted({*range(start, min(top, start + 199) + 1), *sample}):
                want = {r % (2 * a) for r in sympy_ntheory.sqrt_mod_iter(d % (4 * a), 4 * a)}
                roots = got.get(a, [])
                assert len(roots) == len(set(roots)), (d, a)
                assert set(roots) == want, (d, a)


def test_odd_roots_of_moduli_without_roots():
    # The lister asks only for moduli that rho says have roots, so the roots
    # mod an odd m make no residue test of their own.  Asked anyway, a prime
    # p where d is a non-residue and p^2 for p | d must raise NoSquareRoot
    # or give no roots, never a wrong root.
    cases = 0
    for d in [-3, -4, -8, 5, 8, 12, -399, 904, -2379, 2305, -99999636, 99998185]:
        if not is_fundamental(d):
            continue
        for p in primes_up_to(200)[1:]:
            moduli = [p, p * p] if kronecker(d, p) == -1 else [p * p] if d % p == 0 else []
            for m in moduli:
                cases += 1
                try:
                    roots = _odd_roots(d, m, _smallest_prime_factors(m), {1: [0]})
                except NoSquareRoot:
                    continue
                assert all((r * r - d) % m == 0 for r in roots), (d, m, roots)
    assert cases > 100


def test_class_number_counts_reduced_forms():
    # Every fundamental d in [-30000, -3], which includes -3, -4 and forms on
    # both sides of the band edge 4a^2 = |d| (c = a among them), and 50
    # seeded d in [-1e8, -1e6]: the count equals the enumeration's length.
    count = band = square = 0
    for d in range(-30000, -2):
        if not is_fundamental(d):
            continue
        forms = _reduced_forms_neg(d)
        assert _class_number_neg(d) == len(forms), d
        band += any(4 * a * a >= -d for a, _, _ in forms)
        square += any(a == c for a, _, c in forms)
        count += 1
    assert count == 9125 and band > 1000 and square > 100
    assert _class_number_neg(-3) == _class_number_neg(-4) == 1
    rng = random.Random(53)
    hits = 0
    while hits < 50:
        d = -rng.randint(10**6, 10**8)
        if is_fundamental(d):
            assert _class_number_neg(d) == len(_reduced_forms_neg(d)), d
            hits += 1


def test_reduced_form_walk_matches_table():
    # Seeded imaginary fields with 2 to 4 discs and every prime p <= 2000:
    # the table-free path (count and reduced-form walk) gives the
    # PrimeClassInfo of the table, whose walk runs on class indices.
    rng = random.Random(59)
    primes = primes_up_to(2000)
    for t_discs in (2, 3, 4) * 5:
        while True:
            chosen = rng.sample(primes_up_to({2: 400, 3: 120, 4: 60}[t_discs]), t_discs)
            values = [
                rng.choice((-4, 8, -8)) if q == 2 else (q if q % 4 == 1 else -q) for q in chosen
            ]
            d = prod(values)
            if d < 0:
                break
        t = _table(d)
        assert class_number(d) == t.h_plus, d
        for p in primes:
            sym = kronecker(d, p)
            for wide in (True, False):
                info = _prime_info(d, p, sym, wide)
                assert info == t.prime_info(p, sym, wide), (d, p, wide)


def test_smallest_prime_factor_table_grows_on_demand():
    import subprocess
    import sys

    import twotower

    # Importing the package builds no table.
    src = os.path.dirname(os.path.dirname(twotower.__file__))
    code = "import twotower.quadforms as q; print(len(q._spf))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "0"
    small = _smallest_prime_factors(10)
    assert len(small) > 10
    big = _smallest_prime_factors(len(small))
    assert len(big) >= 2 * len(small)
    assert _smallest_prime_factors(5) is big
    for n in range(2, len(big), 7):
        assert big[n] == min(factorization(n)), n


def test_indefinite_enumeration_against_brute_force():
    def brute(d):
        out = []
        s = isqrt(d)
        for a in range(-s - 2, s + 3):
            if a == 0:
                continue
            for b in range(1, s + 1):
                if (b * b - d) % (4 * a):
                    continue
                c = (b * b - d) // (4 * a)
                if _is_reduced_indef(a, b, c, d):
                    out.append((a, b, c))
        return sorted(out)

    for d in (5, 8, 12, 13, 40, 60, 145, 229, 904, 1596, 2305, 3624):
        assert sorted(_table(d).index) == brute(d), d


def test_prime_form_and_class_info():
    info = prime_class_info(145, 7)
    assert (info.split_type, info.order_2part) == ("inert", 1)
    info = prime_class_info(145, 3)
    assert (info.split_type, info.order_2part) == ("split", 4)
    info = prime_class_info(-399, 2)
    assert kronecker(-399, 2) == 1
    assert info.split_type == "split"
    assert info.order_2part in (1, 2, 4, 8)
    # ramified primes: the class above p squares to the principal class
    for d, p in [(-399, 3), (-399, 7), (-399, 19), (-24, 2), (-24, 3), (904, 2), (904, 113)]:
        f = prime_form(d, p)
        assert f.discriminant == d
        table = _table(d)
        idx = table.class_index(f)
        assert table.mul(idx, idx) == table.principal
        assert prime_class_info(d, p).split_type == "ramified"


def test_prime_form_and_class_info_reject_non_primes(within):
    # At the parent prime_class_info(-84, 25) hung, (-23, 1) reported
    # "split" and (-23, 0) raised ZeroDivisionError.
    for d, n in [(-84, 25), (-23, 1), (-23, 0), (-23, -3), (145, 9)]:
        with within(5):
            with pytest.raises(ValueError):
                prime_class_info(d, n)
            with pytest.raises(ValueError):
                prime_form(d, n)


def test_forms_reject_non_discriminants():
    # No form has a discriminant that is 2 or 3 mod 4; building one anyway
    # gives a form of another discriminant, e.g. (1, 0, 1) for -6.
    for call, args in [(principal_form, (-6,)), (principal_form, (7,)), (prime_form, (-6, 11))]:
        with pytest.raises(ValueError, match="not a discriminant"):
            call(*args)
    # Non-fundamental discriminants keep their forms.
    assert prime_form(-12, 3) == QuadForm(3, 0, 1)
    assert principal_form(-12) == QuadForm(1, 0, 3)
    assert principal_form(-3) == QuadForm(1, 1, 1)


def _order_2part_oracle(d, p, wide):
    """2-part of the order of a prime above p, by public composition alone.

    The form of norm p comes from a search for b, and its powers are
    composed until they reach the identity: the principal class, or for
    the wide group with d > 0 also the class of the negated principal form.
    """
    b = next((b for b in range(2 * p) if (b * b - d) % (4 * p) == 0), None)
    if b is None:
        return "inert", 1
    f = reduce_form(QuadForm(p, b, (b * b - d) // (4 * p)))
    identity = {reduce_form(principal_form(d))}
    if wide and d > 0:
        b0 = d & 1
        identity.add(reduce_form(QuadForm(-1, b0, (d - b0 * b0) // 4)))
    g, n = f, 1
    while g not in identity:
        g, n = compose(g, f), n + 1
    return ("ramified" if d % p == 0 else "split"), n & -n


def test_order_2part_against_composition_oracle():
    rng = random.Random(4099)
    discs = [d for d in range(-6000, 6000) if is_fundamental(d)]
    seen = set()
    for d in rng.sample(discs, 80):
        for p in {2, *factorization(abs(d)), *rng.sample(primes_up_to(150), 4)}:
            for wide in (True, False):
                want = _order_2part_oracle(d, p, wide)
                info = prime_class_info(d, p, wide=wide)
                assert (info.split_type, info.order_2part) == want, (d, p, wide)
                seen.add((d > 0, wide, want[0], p == 2))
    for sign in (True, False):
        for wide in (True, False):
            for kind in ("split", "ramified", "inert"):
                for two in (True, False):
                    assert (sign, wide, kind, two) in seen


def test_split_primes_are_inverse_pairs():
    rng = random.Random(31)
    done = 0
    while done < 100:
        d = -rng.randint(3, 5000)
        if not is_fundamental(d):
            continue
        p = rng.choice(primes_up_to(200))
        if kronecker(d, p) != 1:
            continue
        f = prime_form(d, p)
        table = _table(d)
        i = table.class_index(f)
        j = table.class_index((f.a, -f.b, f.c))
        assert table.mul(i, j) == table.principal, (d, p)
        done += 1


def test_bound_and_fundamentality_checks(monkeypatch):
    # Every public function checks the bound, then fundamentality, on every
    # call, also once the table of d (or of a nearby d) is cached.
    public = {
        "class_number": class_number,
        "narrow_class_group": narrow_class_group,
        "wide_class_group": wide_class_group,
        "prime_class_info": lambda d: prime_class_info(d, 3),
    }
    monkeypatch.delenv("TWO_TOWER_MAX_DISC", raising=False)
    for d in (-2379, 2379 * 4, -2383):
        _table(d)
    for name, fn in public.items():
        for d in (-9, 45, -2379 * 9, 2379 * 9):
            with pytest.raises(NotFundamental):
                fn(d)
        for d in (-(10**9), 10**9 + 1):
            with pytest.raises(BoundExceeded):
                fn(d)
        for d in (-2379, 2379 * 4, -2383, -11):
            monkeypatch.setenv("TWO_TOWER_MAX_DISC", str(abs(d) - 1))
            with pytest.raises(BoundExceeded, match=f"bound {abs(d) - 1}$"):
                fn(d)
            monkeypatch.setenv("TWO_TOWER_MAX_DISC", str(abs(d)))
            fn(d)
        monkeypatch.setenv("TWO_TOWER_MAX_DISC", "8")
        with pytest.raises(BoundExceeded):
            fn(-9)  # the bound is checked first
        # a malformed bound is refused by name, not as a bare int() error
        monkeypatch.setenv("TWO_TOWER_MAX_DISC", "abc")
        with pytest.raises(ValueError, match="^TWO_TOWER_MAX_DISC='abc' is not an integer$"):
            fn(-11)
        monkeypatch.delenv("TWO_TOWER_MAX_DISC")
    # prime_class_info on d < 0 walks reduced forms and builds no table
    misses = _table.cache_info().misses
    for d in (-3, -4, -399, -2381 * 4, -3 * 7 * 11 * 13):
        for p in (2, 3, 5, 7, 13):
            prime_class_info(d, p)
    assert _table.cache_info().misses == misses
    # the one table cache and the class-number count's cache stay bounded
    fundamental = [d for d in range(-3, -1000, -1) if is_fundamental(d)]
    assert len(fundamental) > _TABLE_CACHE_SIZE
    for d in fundamental:
        _table(d)
    assert _table.cache_info().currsize <= _TABLE_CACHE_SIZE
    assert _class_number_neg.cache_info().maxsize == _CLASS_NUMBER_CACHE_SIZE
    fundamental = [d for d in range(-3, -4000, -1) if is_fundamental(d)]
    assert len(fundamental) > _CLASS_NUMBER_CACHE_SIZE
    for d in fundamental:
        _class_number_neg(d)
    assert _class_number_neg.cache_info().currsize <= _CLASS_NUMBER_CACHE_SIZE


def test_inverse_and_rank_helpers():
    g = narrow_class_group(-399)
    assert g.two_rank == 2 and g.four_rank == 1 and g.rank(2, 3) == 1 and g.rank(2, 4) == 0
    parts = [e & -e for e in g.elementary_divisors]
    assert prod(parts) == 16 and max(parts) == 8
    f = QuadForm(2, 1, 50)
    assert compose(f, inverse(f)) == principal_form(-399)


def test_reduce_invariant_under_sl2():
    def transform(f, m):
        a, b, c = f
        p, q, r, s = m
        return (
            a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s,
        )

    def random_sl2(rng, steps=12):
        p, q, r, s = 1, 0, 0, 1
        for _ in range(steps):
            if rng.random() < 0.5:
                n = rng.randint(-4, 4)
                p, q, r, s = p + n * r, q + n * s, r, s  # T^n
            else:
                p, q, r, s = -r, -s, p, q  # S
        return p, q, r, s

    rng = random.Random(2025)
    for d in (-399, -84, -971, 145, 904, 2305, 40):
        table = _table(d)
        for _ in range(60):
            f = table.reps[rng.randrange(table.h_plus)]
            g = transform(f, random_sl2(rng))
            assert g[1] * g[1] - 4 * g[0] * g[2] == d
            assert reduce_form(QuadForm(*g)) == reduce_form(QuadForm(*f)), (d, f, g)


def test_known_real_class_numbers():
    known = {2: 1, 3: 1, 5: 1, 10: 2, 15: 2, 26: 2, 79: 3, 82: 4, 145: 4,
             199: 1, 226: 8, 229: 3, 401: 5, 577: 7}
    for n, h in known.items():
        d = n if n % 4 == 1 else 4 * n
        assert wide_class_group(d).order == h, n


def test_real_class_numbers_against_the_analytic_formula():
    # Dirichlet's class number formula for d > 0, with no form in it:
    # h log(eps) = -(1/2) sum_{0<a<d} chi_d(a) log sin(pi a / d), eps the
    # fundamental unit (x + y sqrt(d)) / 2 from sympy's least solution of
    # x^2 - d y^2 = -4, or of = +4 when -4 has none.  chi_d is even, so the
    # sum is twice the one over a < d/2.  The narrow group is twice the wide
    # one exactly when -4 has no solution.
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    count = 0
    for d in range(5, 3001):
        if not is_fundamental(d):
            continue
        minus = [(abs(x), abs(y)) for x, y in diophantine.diop_DN(d, -4) if y]
        x, y = min(minus or [(abs(x), abs(y)) for x, y in diophantine.diop_DN(d, 4) if y])
        log_eps = log((x + y * sqrt(d)) / 2)
        s = sum(kronecker(d, a) * log(sin(pi * a / d)) for a in range(1, (d + 1) // 2))
        h = round(-s / log_eps)
        assert abs(h + s / log_eps) < 1e-6, d
        assert class_number(d) == h, d
        assert class_number(d, wide=False) == (h if minus else 2 * h), d
        count += 1
    assert count == 909


def test_analytic_class_number_formula():
    # Character-sum oracles fully independent of forms and composition, for
    # D < -4: h(D) = (sum of chi_D over (0, |D|/2)) / (2 - chi_D(2)), and
    # Dirichlet's h(D) = -(1/|D|) sum_{a=1}^{|D|-1} chi_D(a) a, in integers,
    # against class_number, which counts reduced forms without a table.
    count = 0
    for d in range(-3000, -4):
        if not is_fundamental(d):
            continue
        s = sum(kronecker(d, a) for a in range(1, (-d + 1) // 2))
        assert s % (2 - kronecker(d, 2)) == 0
        assert s // (2 - kronecker(d, 2)) == narrow_class_group(d).order, d
        s = sum(kronecker(d, a) * a for a in range(1, -d))
        assert s % d == 0
        assert class_number(d) == s // d, d
        count += 1
    assert count == 909
