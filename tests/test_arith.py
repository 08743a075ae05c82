import os
import random
from collections import Counter

import pytest

import twotower.arith as arith
from twotower.arith import (
    PrimeDiscriminant,
    QuadFieldSpec,
    crt_prime_search,
    factor,
    is_fundamental,
    is_prime,
    kronecker,
    prime_disc_factorization,
    primes_up_to,
    sqrt_mod_prime,
)
from twotower.errors import FactorizationFailed, NoSolution, NoSquareRoot, NotFundamental

FULL = os.environ.get("TWOTOWER_FULL_SWEEPS") == "1"


def brute_legendre(a, p):
    """Legendre symbol by exhausting squares mod an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def test_kronecker_examples():
    assert kronecker(5, 11) == 1
    assert kronecker(7, 1) == 1
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 7) == -1


def test_kronecker_against_brute_legendre():
    for p in primes_up_to(120):
        if p == 2:
            continue
        for a in range(-2 * p, 2 * p + 1):
            assert kronecker(a, p) == brute_legendre(a, p), (a, p)


def test_kronecker_edge_denominators():
    assert kronecker(0, 1) == 1
    assert kronecker(0, -1) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(3, 0) == 0
    assert kronecker(-3, -1) == -1
    assert kronecker(3, -1) == 1
    # (a/2) by residue mod 8
    for a, want in [(1, 1), (7, 1), (3, -1), (5, -1), (9, 1), (15, 1), (-7, 1), (4, 0)]:
        assert kronecker(a, 2) == want, a


def test_kronecker_multiplicative():
    # (0/n) = 0 for |n| > 1 keeps multiplicativity with zero arguments;
    # the lone exception is the (0/+-1) = 1 convention, excluded below.
    box = 200 if FULL else 60
    for n in range(-box, box + 1):
        table = {}

        def k(x):
            if x not in table:
                table[x] = kronecker(x, n)
            return table[x]

        for a in range(-box, box + 1):
            ka = k(a)
            for b in range(-box, box + 1):
                if a * b == 0 and abs(n) == 1:
                    continue
                assert k(a * b) == ka * k(b), (a, b, n)
    if not FULL:
        rng = random.Random(17)
        for _ in range(20000):
            a = rng.randint(-200, 200)
            b = rng.randint(-200, 200)
            n = rng.randint(-200, 200)
            if a * b == 0 and abs(n) == 1:
                continue
            assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_against_sympy():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for a in range(-60, 61):
        for n in range(-60, 61):
            assert kronecker(a, n) == numbers.kronecker_symbol(a, n), (a, n)


def test_prime_disc_reciprocity():
    """Symmetric unless both discs negative (and not -4): then antisymmetric."""
    odd_primes = [p for p in primes_up_to(500) if p != 2]
    discs = [p if p % 4 == 1 else -p for p in odd_primes]
    for i, d1 in enumerate(discs):
        for d2 in discs[i + 1 :]:
            lhs = kronecker(d1, abs(d2))
            rhs = kronecker(d2, abs(d1))
            if d1 < 0 and d2 < 0:
                assert lhs == -rhs, (d1, d2)
            else:
                assert lhs == rhs, (d1, d2)


def test_is_prime_small_and_big():
    small = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in small), n
    assert is_prime(2305843009213693951)  # 2^61 - 1
    assert not is_prime(2305843009213693951 * 3)
    assert is_prime(170141183460469231731687303715884105727)  # 2^127 - 1
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for n in [*range(-5, 20001), *(rng.randint(10**12, 10**18) for _ in range(300))]:
        assert is_prime(n) == sympy.isprime(n), n


def test_factor_examples():
    assert factor(12) == [2, 2, 3]
    assert factor(2305) == [5, 461]
    assert factor(2211) == [3, 11, 67]
    assert factor(1) == []


def test_factor_recomposes():
    rng = random.Random(5)
    for n in list(range(1, 4000)) + [rng.randint(10**6, 10**12) for _ in range(60)]:
        fs = factor(n)
        prod = 1
        for p in fs:
            prod *= p
            assert is_prime(p)
        assert prod == n


def test_factor_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        assert Counter(factor(n)) == sympy.factorint(n), n


def test_prime_disc_factorization_examples():
    assert prime_disc_factorization(-399).values() == (-3, -7, -19)
    assert prime_disc_factorization(-4).values() == (-4,)
    assert prime_disc_factorization(-740).values() == (-4, 5, 37)
    assert prime_disc_factorization(904).values() == (8, 113)
    assert prime_disc_factorization(-24).values() == (8, -3)


def test_prime_disc_factorization_sweep():
    top = 10**5 if FULL else 6000
    for d in range(-top, top + 1):
        if not is_fundamental(d):
            continue
        spec = prime_disc_factorization(d)
        assert spec.discriminant == d
        for part in spec.discs:
            assert is_fundamental(part.value), (d, part)
    if not FULL:
        rng = random.Random(9)
        hits = 0
        while hits < 400:
            d = rng.randint(-(10**5), 10**5)
            if is_fundamental(d):
                spec = prime_disc_factorization(d)
                assert spec.discriminant == d
                assert all(is_fundamental(p.value) for p in spec.discs)
                hits += 1


def test_prime_disc_factorization_factors_once(monkeypatch):
    # One factor call per d that passes the test mod 4, none for the rest;
    # find_base_fields adds none for the class tables it builds.
    from twotower import arith
    from twotower.quadforms import _table
    from twotower.search import find_base_fields

    calls = []
    real_factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or real_factor(n))
    screened = 0
    for d in range(-3000, 3001):
        fundamental = is_fundamental(d)
        screened_d = d != 1 and (d % 4 == 1 or d % 4 == 0 and d // 4 % 4 in (2, 3))
        calls.clear()
        try:
            spec = prime_disc_factorization(d)
        except NotFundamental:
            assert not fundamental, d
        else:
            assert fundamental and spec.discriminant == d, d
        assert len(calls) == screened_d, d
        screened += screened_d and d >= 3
    calls.clear()
    _table.cache_clear()
    assert len(find_base_fields("real-pos-pair", 4, 3, 3000)) == 26
    assert _table.cache_info().misses > 0
    assert len(calls) == screened  # 2,168 when is_fundamental factored first


def test_not_fundamental_rejected():
    for d in (0, 1, -2, -9, 8 * 4, 45, -100):
        if is_fundamental(d):
            continue
        with pytest.raises(NotFundamental):
            prime_disc_factorization(d)
    with pytest.raises(NotFundamental):
        PrimeDiscriminant.from_value(9)
    with pytest.raises(NotFundamental):
        QuadFieldSpec.from_disc_values([-3, -3])  # shared prime


def test_prime_discriminants_are_interned():
    for v in (-4, 8, -8, -3, 5, -7, 13, -10007):
        first = PrimeDiscriminant.from_value(v)
        assert PrimeDiscriminant.from_value(v) is first
        assert (first.value, first.prime) == (v, abs(v) if v % 2 else 2)
    # Invalid values raise on every call and are never cached.
    before = PrimeDiscriminant.from_value.cache_info().currsize
    for v in (9, 7, -5, 4, 0, 1, -10007 * 3):
        for _ in range(2):
            with pytest.raises(NotFundamental):
                PrimeDiscriminant.from_value(v)
    assert PrimeDiscriminant.from_value.cache_info().currsize == before
    assert PrimeDiscriminant.from_value.cache_info().maxsize is not None


def test_crt_prime_search_examples():
    mod = 3 * 11 * 7 * 31 * 4
    hits = crt_prime_search([(mod, {107})], 10**6)
    assert hits[0] == 107 and hits[1] == 107 + 28644
    assert all(p % mod == 107 for p in hits)

    assert crt_prime_search([(2, {1})], 10) == [3, 5, 7]

    hits = crt_prime_search([(20, {3, 7})], 100)
    assert hits == [3, 7, 23, 43, 47, 67, 83]


def test_crt_prime_search_inconsistent():
    with pytest.raises(NoSolution):
        crt_prime_search([(4, {1}), (2, {0})], 100)
    with pytest.raises(NoSolution):
        crt_prime_search([(5, set())], 100)


def test_sqrt_mod_prime():
    # Every a mod p for p < 300, against the set of squares: NoSquareRoot is
    # raised on exactly the non-residues.
    for p in primes_up_to(300):
        squares = {x * x % p for x in range(p)}
        for a in range(-p, p):
            if a % p not in squares:
                with pytest.raises(NoSquareRoot):
                    sqrt_mod_prime(a, p)
                continue
            r = sqrt_mod_prime(a, p)
            assert r * r % p == a % p, (a, p)
            assert 0 <= r <= p // 2 or p == 2
    # A large 2-adic valuation of p - 1 gives Tonelli-Shanks many rounds.
    rng = random.Random(1229)
    for p in [769, 7681, 12289, 40961, 65537, 786433, 1000003]:
        n = next(n for n in range(2, p) if kronecker(n, p) == -1)
        for _ in range(40):
            x = rng.randrange(1, p)
            assert sqrt_mod_prime(x * x, p) == min(x, p - x), (x, p)
            with pytest.raises(NoSquareRoot):
                sqrt_mod_prime(x * x * n, p)


def test_sqrt_mod_composite_modulus_raises_or_roots(within):
    # At the parent these hung in the unbounded Tonelli-Shanks loops, and
    # (2, 15) gave 1, which is no root.
    for a, n in [(1, 9), (1, 25), (4, 21), (2, 33), (2, 65), (2, 15)]:
        with within(5), pytest.raises(NoSquareRoot):
            sqrt_mod_prime(a, n)
    # Any other composite modulus gives a true root or raises, quickly.
    # After the first residue of each n = 1 (mod 4), every later call reads
    # n's cached Tonelli constants, so this also covers a warm cache.
    with within(20):
        for n in range(4, 400):
            if is_prime(n):
                continue
            for a in range(n):
                try:
                    r = sqrt_mod_prime(a, n)
                except NoSquareRoot:
                    continue
                assert r * r % n == a, (a, n)


def _least_roots(p):
    """{a: least x with x^2 = a mod p} over the nonzero squares a mod p."""
    roots = {}
    for x in range(p // 2, 0, -1):
        roots[x * x % p] = x
    return roots


def test_sqrt_mod_prime_least_root_oracle():
    # Every nonzero residue mod every odd prime below 3000, first with the
    # Tonelli constants uncached, then with each prime's constants cached.
    primes = primes_up_to(3000)[1:]
    arith._tonelli.cache_clear()
    for _ in ("cold", "warm"):
        for p in primes:
            for a, x in _least_roots(p).items():
                assert sqrt_mod_prime(a, p) == x, (a, p)
    assert arith._tonelli.cache_info().hits > 0


def test_tonelli_cache_bounded():
    info = arith._tonelli.cache_info()
    assert info.maxsize == arith._TONELLI_CACHE_SIZE
    primes = [p for p in primes_up_to(100_000) if p % 4 == 1]
    assert len(primes) > arith._TONELLI_CACHE_SIZE
    for p in primes:
        arith._tonelli(p)
    assert arith._tonelli.cache_info().currsize <= arith._TONELLI_CACHE_SIZE


def test_factorization_failed_names_budget(monkeypatch):
    monkeypatch.setattr(arith, "_RHO_ROUNDS", 0)
    with pytest.raises(FactorizationFailed) as err:
        factor(1_000_003 * 1_000_033)
    assert f"0 polynomials x {arith._RHO_ITERS} iterations" in str(err.value)


def test_primes_up_to_against_trial_division():
    for n in range(-2, 301):
        want = [m for m in range(2, n + 1) if all(m % q for q in range(2, m))]
        assert primes_up_to(n) == want, n
