"""Exact integer arithmetic: Kronecker symbols, factoring, prime discriminants.

Everything here is pure and deterministic; all arithmetic is arbitrary
precision.  Primality is never probabilistic in the colloquial sense: a
fixed Miller-Rabin base set proven complete below 3.3e24 is used first,
with a Baillie-PSW check (strong base-2 plus strong Lucas) for anything
larger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

from .errors import FactorizationFailed, NoSolution, NoSquareRoot, NotFundamental

# Trial division handles everything below this squared; Brent rho takes over.
_TRIAL_BOUND = 10**6
# Brent rho tries _RHO_ROUNDS polynomials, each for up to _RHO_ITERS iterations.
_RHO_ROUNDS = 32
_RHO_ITERS = 1 << 20

# Deterministic for n < 3_317_044_064_679_887_385_961_981 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
# Distinct values PrimeDiscriminant.from_value keeps interned.
_INTERNED_PRIME_DISCS = 4096
# Prime bounds whose sieved primes _primes keeps: only the latest, which
# sweeps and completions repeated to one bound reuse; a new bound replaces it.
_PRIME_LIST_CACHE_SIZE = 1


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def kronecker(a: int, n: int) -> int:
    """Full Kronecker symbol (a/n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                k = -k
    # Jacobi symbol on odd positive n.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses the compositeness of n (n odd, n-1 = d*2^s)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters."""
    # Find D = 5, -7, 9, ... with (D/n) = -1.
    d = 5
    while True:
        s = kronecker(d, n)
        if s == -1:
            break
        if s == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    # n + 1 = k * 2^r with k odd
    k = n + 1
    r = 0
    while k % 2 == 0:
        k //= 2
        r += 1
    # Lucas sequence by binary ladder on index k.
    u, v, qk = 0, 2, 1
    for bit in bin(k)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * ((n + 1) // 2) % n, (d * u + p * v) * ((n + 1) // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for 64-bit-ish inputs, BPSW beyond."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_LIMIT:
        return not any(_mr_witness(n, a, d, s) for a in _MR_BASES)
    if _mr_witness(n, 2, d, s):
        return False
    if isqrt(n) ** 2 == n:
        return False
    return _strong_lucas_prp(n)


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of odd composite n, or raise."""
    for c in range(1, _RHO_ROUNDS + 1):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1 and count < _RHO_ITERS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            count += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise FactorizationFailed(
        f"no factor of {n} within effort bound"
        f" ({_RHO_ROUNDS} polynomials x {_RHO_ITERS} iterations)"
    )


def factor(n: int) -> list[int]:
    """Prime factorization of n >= 1 as a sorted list with multiplicity."""
    if n < 1:
        raise ValueError("factor() needs n >= 1")
    out: list[int] = []
    for p in (2, 3, 5):
        while n % p == 0:
            out.append(p)
            n //= p
    d = 7
    wheel = itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6))
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            out.append(d)
            n //= d
        d += next(wheel)
    if n == 1:
        return sorted(out)
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return sorted(out)


def factorization(n: int) -> dict[int, int]:
    """Prime factorization as an exponent map."""
    fac: dict[int, int] = {}
    for p in factor(n):
        fac[p] = fac.get(p, 0) + 1
    return fac


def is_fundamental(d: int) -> bool:
    """True if d is the discriminant of a quadratic field; prime_disc_factorization decides."""
    try:
        prime_disc_factorization(d)
    except NotFundamental:
        return False
    return True


@dataclass(frozen=True)
class PrimeDiscriminant:
    """One coprime factor of a fundamental discriminant: -4, +-8, or (-1)^((p-1)/2) p."""

    value: int
    prime: int

    @classmethod
    @lru_cache(maxsize=_INTERNED_PRIME_DISCS, typed=True)
    def from_value(cls, v: int) -> "PrimeDiscriminant":
        """The prime discriminant v; valid values are interned, so repeated
        calls share one object and one primality test.  An invalid v raises
        NotFundamental on every call (exceptions are never cached)."""
        if v in (-4, 8, -8):
            return cls(v, 2)
        p = abs(v)
        if v % 4 == 1 and p % 2 == 1 and is_prime(p):
            return cls(v, p)
        raise NotFundamental(f"{v} is not a prime discriminant")

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value:+d}"


@dataclass(frozen=True)
class QuadFieldSpec:
    """Quadratic field given by an ordered tuple of pairwise coprime prime discriminants."""

    discs: tuple[PrimeDiscriminant, ...]

    def __post_init__(self) -> None:
        if not self.discs:
            raise NotFundamental("at least one prime discriminant required")
        primes = [d.prime for d in self.discs]
        if len(set(primes)) != len(primes):
            raise NotFundamental("underlying primes must be pairwise distinct")

    @classmethod
    def from_disc_values(cls, values) -> "QuadFieldSpec":
        return cls(tuple(PrimeDiscriminant.from_value(v) for v in values))

    @property
    def discriminant(self) -> int:
        return prod(d.value for d in self.discs)

    @property
    def t(self) -> int:
        return len(self.discs)

    @property
    def is_imaginary(self) -> bool:
        return self.discriminant < 0

    def values(self) -> tuple[int, ...]:
        return tuple(d.value for d in self.discs)

    def reordered(self, perm) -> "QuadFieldSpec":
        return QuadFieldSpec(tuple(self.discs[i] for i in perm))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d.value:+d}" for d in self.discs)
        return f"QuadFieldSpec({inner})"


def prime_disc_factorization(d: int) -> QuadFieldSpec:
    """Split a fundamental discriminant into prime discriminants, ascending by prime.

    One factorization of |d| also decides fundamentality: past the test mod
    4 (d = 1 mod 4, or d = 4q with q = 2 or 3 mod 4), d is fundamental iff
    no odd prime divides it twice.  What the odd prime discriminants leave
    of d is then 1, -4, 8 or -8.
    """
    ok = d != 1 and (d % 4 == 1 or d % 4 == 0 and d // 4 % 4 in (2, 3))
    fac = factorization(abs(d)) if ok else {}
    fac.pop(2, None)
    if not ok or any(e > 1 for e in fac.values()):
        raise NotFundamental(f"{d} is not a fundamental discriminant")
    parts = [PrimeDiscriminant(p if p % 4 == 1 else -p, p) for p in sorted(fac)]
    rest = d
    for part in parts:
        rest //= part.value
    if rest != 1:
        parts.insert(0, PrimeDiscriminant(rest, 2))
    spec = QuadFieldSpec(tuple(parts))
    assert spec.discriminant == d
    return spec


def primes_up_to(n: int) -> list[int]:
    """Ascending primes <= n, by a sieve over the odd numbers only.

    Slot i of the sieve stands for 2i + 1, so an odd prime p strikes every
    p-th slot from p*p's.
    """
    if n < 2:
        return []
    size = (n + 1) // 2
    sieve = bytearray([1]) * size
    sieve[0] = 0
    for i in range(1, (isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, size, p)))
    return [2, *itertools.compress(range(1, n + 1, 2), sieve)]


@lru_cache(maxsize=_PRIME_LIST_CACHE_SIZE, typed=True)
def _primes(bound: int) -> tuple[int, ...]:
    """primes_up_to(bound) as a tuple, sieved once per bound.

    Typed, so a float bound still fails in the sieve instead of hitting an
    int bound's entry.
    """
    return tuple(primes_up_to(bound))


def crt_prime_search(conditions, range_bound: int) -> list[int]:
    """All primes <= range_bound meeting every (modulus, allowed residues) condition.

    Raises NoSolution when the residue system is inconsistent (an empty
    residue set, or two conditions that cannot agree modulo the gcd of
    their moduli).
    """
    conds = [(int(m), frozenset(r % int(m) for r in rs)) for m, rs in conditions]
    for m, rs in conds:
        if m < 1:
            raise ValueError("moduli must be positive")
        if not rs:
            raise NoSolution(f"empty residue set modulo {m}")
    for (m1, r1), (m2, r2) in itertools.combinations(conds, 2):
        g = gcd(m1, m2)
        if g > 1 and not ({r % g for r in r1} & {r % g for r in r2}):
            raise NoSolution(f"conditions mod {m1} and mod {m2} are incompatible")
    hits = []
    for p in primes_up_to(range_bound):
        if all(p % m in rs for m, rs in conds):
            hits.append(p)
    return hits


def sqrt_mod_prime(a: int, p: int) -> int:
    """Least square root of a modulo prime p; raises NoSquareRoot if none.

    Residues are told by Euler's criterion, and the root is Tonelli-Shanks
    (Cohen, GTM 138, Alg. 1.5.1).  For p = 1 (mod 4) the per-prime
    constants (s, e, n^s mod p), with p - 1 = s * 2^e and n the least
    non-residue, are cached (_tonelli, _TONELLI_CACHE_SIZE primes).  Both
    Tonelli loops are bounded and the root is checked by squaring on every
    call, so a composite p raises NoSquareRoot or gives a true root, warm
    cache or cold; it never hangs.
    """
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise NoSquareRoot(f"{a} is not a square mod {p}")
    return _sqrt_of_residue(a, p)


# Odd moduli whose Tonelli-Shanks constants _tonelli keeps.  The cache
# pays only when one process takes roots mod the same primes again, as
# repeated sweeps to one bound do; a single sweep meets each prime once
# and misses on all of them.  2048 holds the 1,611 primes = 1 (mod 4)
# below 3e4, the sweep benchmark's bound.  A sweep meets its primes in
# ascending order, so past bound 39157 (2048 such primes) the LRU evicts
# each entry before the next sweep asks for it again.
_TONELLI_CACHE_SIZE = 2048


@lru_cache(maxsize=_TONELLI_CACHE_SIZE)
def _tonelli(p: int) -> tuple[int, int, int]:
    """(s, e, n^s mod p) with p - 1 = s * 2^e, s odd, and n the least
    non-residue mod p by Euler's criterion; raises NoSquareRoot if none."""
    half = (p - 1) // 2
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while n < p and pow(n, half, p) != p - 1:
        n += 1
    if n == p:
        raise NoSquareRoot(f"no quadratic non-residue mod {p}")
    return s, e, pow(n, s, p)


def _sqrt_of_residue(a: int, p: int) -> int:
    """sqrt_mod_prime for an odd prime p and a residue 0 < a < p that the
    caller has already told from a non-residue; the root is still checked."""
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
    else:
        s, r, g = _tonelli(p)
        x = pow(a, (s + 1) // 2, p)
        b = pow(a, s, p)
        while b != 1:
            # The order of b is 2^m with m < r; r falls on every round.
            t, m = b, 0
            while t != 1 and m < r:
                t = t * t % p
                m += 1
            if m == r:
                raise NoSquareRoot(f"{a} has no square root found mod {p}")
            gs = pow(g, 1 << (r - m - 1), p)
            g = gs * gs % p
            x = x * gs % p
            b = b * g % p
            r = m
    if x * x % p != a:
        raise NoSquareRoot(f"{a} has no square root found mod {p}")
    return min(x, p - x)
