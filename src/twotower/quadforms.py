"""Class groups of quadratic fields via binary quadratic forms.

Classes of forms of fundamental discriminant D under proper (SL2)
equivalence realize the narrow class group; the wide group is the
quotient by the class of a form representing -1 (a trivial quotient for
D < 0, and for D > 0 exactly when x^2 - D y^2 = -4 is solvable).

Reduced forms are enumerated by leading coefficient: for each a up to
sqrt(|D|/3) (D < 0) or isqrt(D) // 2 (D > 0), the b with b^2 = D (mod 4a)
come from the square roots of D modulo 4a, and the reduction inequalities
keep at most one b per root.  One lister (_roots_by_leading_coefficient)
serves every enumeration: the multiplicative root count rho
(_root_counts) picks the a that have roots, and the roots modulo the odd
part m of a are built from roots modulo prime powers (Hensel lifting, a
shared smallest-prime-factor table) joined by CRT, memoized by modulus so
that each m costs one CRT step.  That costs O(sqrt|D| * 2^omega) steps,
omega the number of prime factors of a, instead of the O(|D|) of looping
over b and dividing (b^2 - D)/4.  For D > 0 the forms (a, b, c), (c, ...)
that follow each other on a reduction cycle have |ac| = (D - b^2)/4 < D/4,
so every cycle holds a form with |a| <= isqrt(D) // 2, and the cycles are
walked from those forms alone (Buchmann and Vollmer, Binary Quadratic Forms,
ch. 6).  Their number is known in advance: each root of b^2 = D (mod 4a)
with 0 < a <= isqrt(D) // 2 gives one of them and its negation
(-a, b, -c), so the leading coefficients are enumerated only until the
cycles walked hold them all, which on large D is usually after a small
share of the a.  Negation commutes with the reduction step, so each walk
stops at its start f or at -f: at f the negated cycle is a second class,
met in the same pass, and at -f the rest of the cycle is the negation of
the half walked.  The group structure is built one Sylow subgroup at a
time: for p^e || h the p-Sylow subgroup is spanned by the classes
x^(h/p^e), its cyclic factors are peeled largest first, and the invariant
factors multiply the factors of equal rank across primes.

Inputs are checked at the public edge: class_number, narrow_class_group,
wide_class_group and prime_class_info check the bound, then
fundamentality, on every call; max_disc_bound reads the bound afresh
from TWO_TOWER_MAX_DISC (default 1e8), its one source, on each check.
The cores _table, _class_number and _prime_info trust their callers,
which check at least the bound.

_class_number is the cheap path.  For D < 0 it counts the reduced forms
without listing them (_class_number_neg, an LRU cache of ints): while
4a^2 < |D| each root of b^2 = D (mod 4a) is one reduced form, so those a
add the root count rho, and only the band 4a^2 >= |D|, about 13% of the
a, goes through the lister and is checked form by form.
A reduced form labels its class, so an imaginary field needs no table
for h or for prime classes: _prime_info walks reduced prime forms.  For
D > 0 both read the class table.  Tables sit in one LRU cache of
_TABLE_CACHE_SIZE entries.  Each table computes its narrow and wide
structures on first request and keeps them, and
_ClassTable.prime_info memoizes the PrimeClassInfo object itself, keyed
by class, narrow or wide, and split or ramified: one shared object per
key, so a sweep builds no object per prime, and at most 2h split entries
plus two per ramified prime per table.  The order 2-part behind each
entry is walked on class indices, whose memoized products repeat across
the classes of a sweep.  Both walks are _order_2part, given the product.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import isqrt, prod
from typing import NamedTuple, Sequence

from .arith import _sqrt_of_residue, factorization, is_fundamental, is_prime, kronecker, xgcd
from .errors import (
    BoundExceeded,
    DiscriminantMismatch,
    NoSquareRoot,
    NotFundamental,
    SquareDiscriminant,
)

DEFAULT_MAX_DISC = 10**8
_ENV_MAX_DISC = "TWO_TOWER_MAX_DISC"


class QuadForm(NamedTuple):
    """Integer binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def max_disc_bound() -> int:
    env = os.environ.get(_ENV_MAX_DISC)
    try:
        bound = int(env) if env else DEFAULT_MAX_DISC
    except ValueError:
        raise ValueError(f"{_ENV_MAX_DISC}={env!r} is not an integer") from None
    if bound < 1:
        raise ValueError(f"{_ENV_MAX_DISC}={env!r} is not a positive integer")
    return bound


def _check_bound(d: int) -> None:
    limit = max_disc_bound()
    if abs(d) > limit:
        raise BoundExceeded(f"|{d}| exceeds the discriminant bound {limit}")


def _check(d: int) -> None:
    """The public functions' input check: the bound, then fundamentality."""
    _check_bound(d)
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not a fundamental discriminant")


def _require_discriminant(d: int) -> None:
    if d % 4 > 1:
        raise ValueError(f"{d} is not a discriminant: it is {d % 4} mod 4")


def principal_form(d: int) -> QuadForm:
    """The form (1, d mod 2, c) of discriminant d; ValueError unless d = 0, 1 mod 4."""
    _require_discriminant(d)
    b = d & 1
    return QuadForm(1, b, (b * b - d) // 4)


def _reduce_def(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Unique reduced representative for D < 0 (positive definite)."""
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            q = (b - r) // (2 * a)
            c += q * q * a - q * b
            b = r
            continue
        if (b == -a or a == c) and b < 0:
            b = -b
            continue
        return a, b, c


def _is_reduced_indef(a: int, b: int, c: int, d: int) -> bool:
    if b <= 0 or b * b >= d:
        return False
    w = 2 * abs(a)
    return (w + b) ** 2 > d and (w <= b or (w - b) ** 2 < d)


def _rho(a: int, b: int, c: int, d: int, s: int) -> tuple[int, int, int]:
    """One reduction step for indefinite forms; s = isqrt(d)."""
    ac = abs(c)
    hi = ac if ac > s else s
    r = hi - ((hi + b) % (2 * ac))
    return c, r, (r * r - d) // (4 * c)


def _reduce_indef(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """Some reduced form on the cycle of (a, b, c), disc d > 0 nonsquare."""
    s = isqrt(d)
    while not _is_reduced_indef(a, b, c, d):
        a, b, c = _rho(a, b, c, d, s)
    return a, b, c


def _half_cycle(
    f: tuple[int, int, int], d: int, s: int
) -> tuple[list[tuple[int, int, int]], bool]:
    """Walk the reduction cycle of a reduced indefinite form f, s = isqrt(d),
    until it meets f or -f; return the forms walked and whether it met f.

    Write -(a, b, c) for (-a, b, -c).  Then rho(-g) = -rho(g).  So if the
    walk meets -f, the cycle is the forms walked followed by their
    negations.  If it meets f, the forms walked are the whole cycle, and
    their negations are a second cycle: another class.  Each step is _rho
    with hi = s, since a reduced form has |a| < sqrt(d), and so has every
    form on its cycle.
    """
    a, b, c = f
    neg = (-a, b, -c)
    out = [f]
    while True:
        b = s - (s + b) % (-2 * c if c < 0 else 2 * c)
        a, c = c, (b * b - d) // (4 * c)
        g = (a, b, c)
        if g == f or g == neg:
            return out, g == f
        out.append(g)


def _cycle(form: tuple[int, int, int], d: int) -> list[tuple[int, int, int]]:
    """Full reduction cycle through a reduced indefinite form, in walk order."""
    forms, closed = _half_cycle(form, d, isqrt(d))
    return forms if closed else forms + [(-a, b, -c) for a, b, c in forms]


def reduce_form(f: QuadForm) -> QuadForm:
    """Canonical reduced representative properly equivalent to f.

    For D < 0 this is the unique reduced form of the class; for D > 0 it
    is the lexicographically least (a, b) on the reduction cycle among
    forms with a > 0.
    """
    a, b, c = f
    d = b * b - 4 * a * c
    if d >= 0 and isqrt(d) ** 2 == d:
        raise SquareDiscriminant(f"discriminant {d} is a perfect square")
    if d < 0:
        if a < 0:
            raise ValueError("negative definite form; negate it first")
        return QuadForm(*_reduce_def(a, b, c))
    red = _reduce_indef(a, b, c, d)
    return QuadForm(*min(g for g in _cycle(red, d) if g[0] > 0))


def _compose_raw(f1, f2, d: int) -> tuple[int, int, int]:
    """Dirichlet composition of primitive forms of discriminant d."""
    a1, b1, _ = f1
    a2, b2, _ = f2
    s = (b1 + b2) // 2
    g1, u1, v1 = xgcd(a1, a2)
    g, u2, v2 = xgcd(g1, s)
    a3 = a1 * a2 // (g * g)
    num = u2 * (u1 * a1 * b2 + v1 * a2 * b1) + v2 * ((b1 * b2 + d) // 2)
    b3 = (num // g) % (2 * abs(a3))
    c3 = (b3 * b3 - d) // (4 * a3)
    return a3, b3, c3


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Reduced Gauss composite of two form classes."""
    d = f.b * f.b - 4 * f.a * f.c
    if g.b * g.b - 4 * g.a * g.c != d:
        raise DiscriminantMismatch("forms have different discriminants")
    return reduce_form(QuadForm(*_compose_raw(f, g, d)))


def inverse(f: QuadForm) -> QuadForm:
    return reduce_form(QuadForm(f.a, -f.b, f.c))


_spf: Sequence[int] = ()


def _smallest_prime_factors(n: int) -> Sequence[int]:
    """Smallest prime factor of every integer up to n (at least).

    One table serves every enumeration.  It is built on first use, not at
    import, and rebuilt at least twice as large when an n above it comes.
    """
    global _spf
    if len(_spf) <= n:
        # Imported here, not at the top: loading the extension module would
        # add to the start-up time of every command, most of which build no
        # table.
        from array import array

        size = max(n + 1, 2 * len(_spf), 1 << 14)
        spf = array("I", range(size))
        for p in reversed(range(2, isqrt(size - 1) + 1)):
            # Smaller primes come later and overwrite, so each entry ends
            # up holding its least prime factor (composite p are harmless).
            spf[p * p :: p] = array("I", [p]) * len(range(p * p, size, p))
        _spf = spf
    return _spf


def _crt(r1, m1: int, r2, m2: int) -> list[int]:
    """Every x mod m1*m2 with x = r1 (mod m1) and x = r2 (mod m2), coprime moduli."""
    u = pow(m1, -1, m2)
    return [x + m1 * ((y - x) * u % m2) for x in r1 for y in r2]


def _is_residue(d: int, p: int) -> bool:
    """Whether d is a square modulo an odd prime p not dividing it (Euler)."""
    return pow(d, (p - 1) // 2, p) == 1


def _two_adic_roots(d: int, top: int) -> list[list[int]]:
    """Entry k lists each r mod 2^(k+1) with r^2 = d (mod 2^(k+2)), for 2^k <= top.

    The list stops early at the first k without roots; r^2 = d (mod
    2^(k+2)) depends only on r mod 2^(k+1), so each entry lifts the last.
    """
    two = [[r for r in (0, 1) if (r * r - d) % 4 == 0]]
    while 1 << len(two) <= top:
        k = len(two)
        lifted = [r for t in two[-1] for r in (t, t + (1 << k)) if (r * r - d) % (4 << k) == 0]
        if not lifted:
            break
        two.append(lifted)
    return two


def _prime_power_roots(d: int, p: int, pe: int, lower: list[int]) -> list[int]:
    """Square roots of d modulo pe = p^e for an odd prime p and fundamental d.

    lower holds the roots modulo pe // p.  No residue test is made here:
    callers ask only where rho (_root_counts) has found roots, and a
    non-residue still raises NoSquareRoot at e = 1, where _sqrt_of_residue
    checks its root by squaring.  For p | d only e = 1 has a root.
    """
    if d % p == 0:
        return [0] if pe == p else []
    if pe == p:
        x = _sqrt_of_residue(d % p, p)
    else:
        # One Newton (Hensel) step doubles the precision of a root.
        y = lower[0]
        x = (y - (y * y - d) * pow(2 * y, -1, pe)) % pe
    return [x, pe - x]


def _odd_roots(d: int, m: int, spf: Sequence[int], memo: dict[int, list[int]]) -> list[int]:
    """Square roots of d modulo an odd m that has some, memoized by modulus.

    memo starts as {1: [0]}.  The roots mod m join, by CRT, the roots mod
    m's largest power pe of its least prime and the roots mod m // pe, so a
    modulus whose parts are in memo costs one CRT step.
    """
    roots = memo.get(m)
    if roots is None:
        p = pe = spf[m]
        while m % (pe * p) == 0:
            pe *= p
        if pe == m:
            roots = _prime_power_roots(d, p, pe, _odd_roots(d, pe // p, spf, memo))
        else:
            q = m // pe
            roots = _crt(_odd_roots(d, pe, spf, memo), pe, _odd_roots(d, q, spf, memo), q)
        memo[m] = roots
    return roots


def _roots_by_leading_coefficient(
    d: int, start: int, top: int, two: list[list[int]], rho: list[int]
):
    """Yield (a, roots) for start <= a <= top, skipping every a without a
    root; roots lists each r mod 2a with r^2 = d (mod 4a).

    For fundamental d, with two and rho from _root_counts(d, top, ...).
    With a = 2^k m and m odd, a has roots when two[k] exists and rho[m] > 0;
    the roots mod 2^(k+1) are two[k], and those mod m come from _odd_roots.
    """
    spf = _smallest_prime_factors(top)
    memo = {1: [0]}
    for a in range(start, top + 1):
        k = (a & -a).bit_length() - 1
        m = a >> k
        if k < len(two) and rho[m]:
            yield a, _crt(two[k], 2 << k, _odd_roots(d, m, spf, memo), m)


def _root_counts(d: int, top: int, low: int) -> tuple[int, list[list[int]], list[int]]:
    """(n, two, rho) for fundamental d and low <= top.

    two is _two_adic_roots(d, top), rho[m] the number of roots of d modulo
    each odd m <= top (0 at even m), and n the number of pairs (a, r) with
    1 <= a <= low and r mod 2a a root of r^2 = d (mod 4a).  That number of
    roots rho(a) is multiplicative: with a = 2^k m and m odd, it is
    len(two[k]) * rho[m], and rho(p^e) is 1 + (d/p) for p not dividing d,
    1 for p || d with e = 1 and 0 above.  Its one residue test per odd
    prime is the only one: two and rho tell _roots_by_leading_coefficient
    which a have roots, so no root is ever sought where there is none.
    """
    two = _two_adic_roots(d, top)
    spf = _smallest_prime_factors(top)
    rho = [0] * (top + 1)
    rho[1] = 1
    for m in range(3, top + 1, 2):
        p = spf[m]
        q = m // p
        if q == 1:
            rho[m] = 1 if d % p == 0 else 2 * _is_residue(d, p)
        elif q % p:
            rho[m] = rho[p] * rho[q]
        elif d % p:
            rho[m] = rho[q]
    odd_sums = list(accumulate(rho[: low + 1]))
    n = sum(len(roots) * odd_sums[low >> k] for k, roots in enumerate(two))
    return n, two, rho


_CLASS_NUMBER_CACHE_SIZE = 1024


@lru_cache(maxsize=_CLASS_NUMBER_CACHE_SIZE)
def _class_number_neg(d: int) -> int:
    """h(d) for a fundamental d < 0: the reduced forms counted, not listed.

    Each root r of b^2 = d (mod 4a) taken mod 2a gives one b in (-a, a] and
    so one form (a, b, c) with c = (b^2 - d) / (4a) >= |d| / (4a).  While
    4a^2 < |d|, that is a <= isqrt(|d| - 1) // 2, c > a and every such form
    is reduced, so those a add the number of roots rho(a), which
    _root_counts sums.  Only the band 4a^2 >= |d| up to sqrt(|d|/3), about
    13% of the a, lists its reduced forms (_reduced_neg).
    Unchecked: callers prove d fundamental.
    """
    top = isqrt(-d // 3)
    low = isqrt(-d - 1) // 2
    h, two, rho = _root_counts(d, top, low)
    return h + sum(1 for _ in _reduced_neg(d, low + 1, two, rho))


def _reduced_neg(d: int, start: int, two: list[list[int]], rho: list[int]):
    """Yield the reduced forms (a, b, c) of fundamental d < 0 with a >= start,
    two and rho from _root_counts(d, isqrt(-d // 3), ...)."""
    for a, roots in _roots_by_leading_coefficient(d, start, isqrt(-d // 3), two, rho):
        for r in roots:
            # The one b = r (mod 2a) with -a < b <= a; reduced needs a <= c,
            # and b >= 0 when a == c.
            b = r - 2 * a if r > a else r
            c = (b * b - d) // (4 * a)
            if c > a or (c == a and b >= 0):
                yield a, b, c


def _reduced_forms_neg(d: int) -> list[tuple[int, int, int]]:
    """All reduced forms of fundamental d < 0, ascending."""
    _, two, rho = _root_counts(d, isqrt(-d // 3), 0)
    return sorted(_reduced_neg(d, 1, two, rho))


def _real_cycles(d: int) -> tuple[dict[tuple[int, int, int], int], list[tuple[int, int, int]]]:
    """index and reps of fundamental d > 0: every reduced form to its class,
    and each class's least form with a > 0.

    Every cycle holds a form with |a| <= isqrt(d) // 2 (module docstring).
    For such an a > 0 every b with s - 2a < b <= s is reduced, so each root
    of b^2 = d (mod 4a) gives one reduced form, and its negation is reduced
    too: there are 2n such forms, n from _root_counts.  The leading
    coefficients a > 0 that rho gives roots are listed by
    _roots_by_leading_coefficient, with the roots mod odd m memoized by
    modulus, until the cycles walked hold all 2n, and each walk from a form
    f not yet met stops at f or -f (_half_cycle), registering f's cycle and
    the negated one in one pass.  Classes are numbered by their least form.
    """
    s = isqrt(d)
    half = s // 2
    # Forms with 0 < a <= half not yet met.  The cycles registered from a
    # walk hold as many of them as the forms walked hold forms with
    # |a| <= half, of either sign.
    left, two, rho = _root_counts(d, half, half)
    seen: set[tuple[int, int, int]] = set()
    classes = []
    for a, roots in _roots_by_leading_coefficient(d, 1, half, two, rho):
        lo = s - 2 * a + 1
        for r in roots:
            b = lo + (r - lo) % (2 * a)
            f = (a, b, (b * b - d) // (4 * a))
            if f in seen:
                continue
            forms, closed = _half_cycle(f, d, s)
            negs = [(-x, y, -z) for x, y, z in forms]
            seen.update(forms, negs)
            left -= sum(-half <= g[0] <= half for g in forms)
            for cyc in (forms, negs) if closed else (forms + negs,):
                # a > 0 on every other form: its sign alternates on a cycle.
                classes.append((min(cyc), min(cyc[cyc[0][0] < 0 :: 2]), cyc))
        if not left:
            break
    assert not left, "the cycles walked do not hold the counted small forms"
    classes.sort()
    index: dict[tuple[int, int, int], int] = {}
    for i, (_, _, cyc) in enumerate(classes):
        index.update(dict.fromkeys(cyc, i))
    return index, [rep for _, rep, _ in classes]


def _power(mul, x, n: int, one):
    """x^n by binary powering in the group with product mul and identity one."""
    r = one
    while n:
        if n & 1:
            r = mul(r, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return r


def _order_2part(mul, x, one, h: int, kernel) -> int:
    """Largest 2-power dividing the order of x modulo the subgroup kernel,
    for h a multiple of that order: x^m, m the odd part of h, is squared
    until it lands in kernel."""
    y = _power(mul, x, h // (h & -h), one)
    part = 1
    while y not in kernel:
        y = mul(y, y)
        part *= 2
    return part


class _ClassTable:
    """Per-discriminant registry of form classes and the group law on them."""

    def __init__(self, d: int):
        self.d = d
        if d < 0:
            self.reps = _reduced_forms_neg(d)
            self.index = {f: i for i, f in enumerate(self.reps)}
        else:
            self.index, self.reps = _real_cycles(d)
        self.h_plus = len(self.reps)
        self.principal = self.class_index(principal_form(d))
        if d > 0:
            b0 = d & 1
            self.neg_principal = self.class_index((-1, b0, (d - b0 * b0) // 4))
        else:
            self.neg_principal = self.principal
        self.wide_kernel = frozenset({self.principal, self.neg_principal})
        self.h_wide = self.h_plus // len(self.wide_kernel)
        self._mul: dict[tuple[int, int], int] = {}
        self._prime_infos: dict[tuple[int, bool, int], PrimeClassInfo] = {}
        self._groups: dict[bool, AbelianGroupStructure] = {}

    def class_index(self, f) -> int:
        a, b, c = f
        if self.d < 0:
            return self.index[_reduce_def(a, b, c)]
        return self.index[_reduce_indef(a, b, c, self.d)]

    def mul(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        key = (i, j)
        k = self._mul.get(key)
        if k is None:
            k = self.class_index(_compose_raw(self.reps[i], self.reps[j], self.d))
            self._mul[key] = k
        return k

    def pow(self, i: int, n: int) -> int:
        return _power(self.mul, i, n, self.principal)

    def inv(self, i: int) -> int:
        a, b, c = self.reps[i]
        return self.class_index((a, -b, c))

    def order_2part_mod(self, i: int, wide: bool) -> int:
        """Largest 2-power dividing the class order, narrow or wide."""
        h, kernel = (self.h_wide, self.wide_kernel) if wide else (self.h_plus, (self.principal,))
        return _order_2part(self.mul, i, self.principal, h, kernel)

    def prime_info(self, p: int, sym: int, wide: bool) -> PrimeClassInfo:
        """prime_class_info for a prime p with sym = (d/p), neither rechecked.

        The PrimeClassInfo is kept per (class, wide, sym) and handed back
        as one shared object: at most 2h entries with sym = 1, and two per
        ramified prime (sym = 0), whose split type differs from a split
        prime's in the same class.
        """
        if sym == -1:
            return _INERT
        i = self.class_index(_prime_form(self.d, p))
        info = self._prime_infos.get((i, wide, sym))
        if info is None:
            split_type = "split" if sym == 1 else "ramified"
            info = PrimeClassInfo(split_type, self.order_2part_mod(i, wide))
            self._prime_infos[i, wide, sym] = info
        return info

    def group(self, wide: bool) -> AbelianGroupStructure:
        """Narrow or wide class group structure, computed once per table.

        The wide group is the quotient by {principal, neg_principal}; when
        that kernel is trivial it is the narrow group, the same object.
        """
        wide = wide and self.neg_principal != self.principal
        got = self._groups.get(wide)
        if got is None:
            if wide:
                rep = [min(i, self.mul(i, self.neg_principal)) for i in range(self.h_plus)]
            else:
                rep = list(range(self.h_plus))
            divisors_desc, gens = _structure(self, rep)
            got = self._groups[wide] = AbelianGroupStructure(
                tuple(reversed(divisors_desc)),
                self.h_wide if wide else self.h_plus,
                tuple(QuadForm(*self.reps[g]) for g in reversed(gens)),
            )
        return got


_TABLE_CACHE_SIZE = 48


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table(d: int) -> _ClassTable:
    """The class table of d, unchecked."""
    return _ClassTable(d)


def class_number(d: int, wide: bool = True) -> int:
    """Class number of Q(sqrt(d)), wide by default, without the group structure.

    Raises BoundExceeded and NotFundamental exactly as wide_class_group does.
    """
    _check(d)
    return _class_number(d, wide)


def _class_number(d: int, wide: bool) -> int:
    """class_number, unchecked.  For d < 0 the reduced forms are counted
    without a table (_class_number_neg); for d > 0 h is read off the table."""
    if d < 0:
        return _class_number_neg(d)
    t = _table(d)
    return t.h_wide if wide else t.h_plus


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Elementary divisor presentation d1 | d2 | ... with one generator each."""

    elementary_divisors: tuple[int, ...]
    order: int
    generators: tuple[QuadForm, ...]

    def rank(self, p: int, i: int = 1) -> int:
        """Generalized p^i-rank d_{p^i}: divisors divisible by p^i."""
        q = p**i
        return sum(1 for d in self.elementary_divisors if d % q == 0)

    @property
    def two_rank(self) -> int:
        return self.rank(2, 1)

    @property
    def four_rank(self) -> int:
        return self.rank(2, 2)

    def describe(self) -> str:
        if not self.elementary_divisors:
            return "trivial (order 1)"
        parts = " x ".join(f"C{d}" for d in self.elementary_divisors)
        return f"{parts} (order {self.order})"


def _span(t: _ClassTable, rep: list[int], subgroup: set[int], y: int) -> set[int]:
    """The subgroup generated by subgroup and y, in the quotient given by rep."""
    out = set(subgroup)
    g = y
    while g not in subgroup:
        out.update(rep[t.mul(z, g)] for z in subgroup)
        g = rep[t.mul(g, y)]
    return out


def _sylow_factors(t: _ClassTable, rep: list[int], elements: list[int], p: int, pe: int):
    """Cyclic factors (order, generator) of the p-Sylow subgroup, largest first.

    pe = p^e exactly divides h = len(elements).  The subgroup is spanned by
    the images x^(h/pe), x ascending, until it has pe elements.  Each factor
    comes from a least-index element of largest order modulo the factors
    before it, that order found by repeated p-th powers; the pick is then
    divided by a root inside the running subgroup so its order equals its
    factor exactly.
    """
    identity = rep[t.principal]
    m = len(elements) // pe
    sylow = {identity}
    for x in elements:
        if len(sylow) == pe:
            break
        sylow = _span(t, rep, sylow, rep[t.pow(x, m)])
    members = sorted(sylow)
    factors: list[tuple[int, int]] = []
    subgroup = {identity}
    while True:
        # No order modulo subgroup exceeds the previous factor or the index.
        top = len(sylow) // len(subgroup)
        if factors:
            top = min(top, factors[-1][0])
        best, pick = 1, identity
        for x in members:
            q, y = 1, x
            while y not in subgroup:
                y = rep[t.pow(y, p)]
                q *= p
            if q > best:
                best, pick = q, x
                if q == top:
                    break
        tgt = rep[t.pow(pick, best)]
        if tgt != identity:
            adj = min(z for z in subgroup if rep[t.pow(z, best)] == tgt)
            pick = rep[t.mul(pick, t.inv(adj))]
        factors.append((best, pick))
        if len(subgroup) * best == pe:
            break  # the factors fill the subgroup: no span after the last
        subgroup = _span(t, rep, subgroup, pick)
    return factors


def _structure(t: _ClassTable, rep: list[int]):
    """Invariant factors (descending) and matching generators.

    The group is t's classes modulo a subgroup: rep[i] is the least class
    index in i's coset, and the cosets' reps are the elements.  It is built
    one Sylow subgroup at a time (Teske, Math. Comp. 67, 1998; Cohen, GTM
    138, section 5.4): invariant factor k is the product of the k-th cyclic
    factor of every Sylow subgroup, and its generator the product of theirs.
    """
    elements = sorted(set(rep))
    h = len(elements)
    if h == 1:
        return (), []
    sylows = [_sylow_factors(t, rep, elements, p, p**e) for p, e in factorization(h).items()]
    divisors_desc = []
    gens = []
    for k in range(max(len(f) for f in sylows)):
        dk, g = 1, rep[t.principal]
        for factors in sylows:
            if k < len(factors):
                q, x = factors[k]
                dk *= q
                g = rep[t.mul(g, x)]
        divisors_desc.append(dk)
        gens.append(g)
    assert prod(divisors_desc) == h, "generators do not span the group"
    return tuple(divisors_desc), gens


def narrow_class_group(d: int) -> AbelianGroupStructure:
    """Structure of the narrow class group Cl+(Q(sqrt(d)))."""
    _check(d)
    return _table(d).group(wide=False)


def wide_class_group(d: int) -> AbelianGroupStructure:
    """Structure of the wide class group Cl(Q(sqrt(d)))."""
    _check(d)
    return _table(d).group(wide=True)


def _prime_form(d: int, p: int) -> QuadForm:
    """prime_form for a prime p known to be split or ramified; nothing is rechecked."""
    if p == 2:
        for b in (0, 1, 2):
            if (b * b - d) % 8 == 0:
                return QuadForm(2, b, (b * b - d) // 8)
        raise NoSquareRoot(f"no form of norm 2 for discriminant {d}")
    if d % p == 0:
        for cand in (0, p, 2 * p):
            if (cand * cand - d) % (4 * p) == 0:
                return QuadForm(p, cand, (cand * cand - d) // (4 * p))
        raise NoSquareRoot(f"no ramified form above {p} for discriminant {d}")
    if d % 2:
        r = _sqrt_of_residue(d % p, p)
        b = r if r % 2 == 1 else p - r
    else:
        r = _sqrt_of_residue((d // 4) % p, p)
        b = 2 * r
    b %= 2 * p
    assert (b * b - d) % (4 * p) == 0
    return QuadForm(p, b, (b * b - d) // (4 * p))


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")


def prime_form(d: int, p: int) -> QuadForm:
    """A form (p, b, c) of discriminant d for a prime p split or ramified in Q(sqrt(d)).

    Raises ValueError unless d = 0 or 1 mod 4 and p is prime.
    """
    _require_discriminant(d)
    _require_prime(p)
    if kronecker(d, p) == -1:
        raise NoSquareRoot(f"{p} is inert in discriminant {d}")
    return _prime_form(d, p)


@dataclass(frozen=True)
class PrimeClassInfo:
    """Splitting of a rational prime and the 2-part of its ideal-class order."""

    split_type: str  # "split" | "inert" | "ramified"
    order_2part: int


# Inert primes are principal.
_INERT = PrimeClassInfo("inert", 1)


def prime_class_info(d: int, p: int, wide: bool = True) -> PrimeClassInfo:
    """Decomposition data for p in Q(sqrt(d)).

    order_2part is the largest power of 2 dividing the order of the
    class of a prime above p, in the wide group by default (the narrow
    variant is experimental).  Inert primes are principal, so 1.  Raises
    ValueError unless p is prime.
    """
    _require_prime(p)
    _check(d)
    return _prime_info(d, p, kronecker(d, p), wide)


def _prime_info(d: int, p: int, sym: int, wide: bool = True) -> PrimeClassInfo:
    """prime_class_info for a prime p with sym = (d/p), unchecked.

    For d < 0, where narrow equals wide, no table is built: a reduced
    form labels its class, so _order_2part walks the reduced prime form
    under composition, with h from _class_number_neg.
    """
    if d > 0:
        return _table(d).prime_info(p, sym, wide)
    if sym == -1:
        return _INERT
    one = principal_form(d)
    part = _order_2part(
        lambda f, g: _reduce_def(*_compose_raw(f, g, d)),
        _reduce_def(*_prime_form(d, p)),
        one,
        _class_number_neg(d),
        (one,),
    )
    return PrimeClassInfo("split" if sym == 1 else "ramified", part)
