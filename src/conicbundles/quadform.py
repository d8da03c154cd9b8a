"""Binary forms q(x, y) = x^2 - a y^2: automorphs, representation orbits,
local densities.

For a < 0 the (proper) automorph group is finite of order w(4a): the four
rotations when a = -1, else {+-1}.  For a > 0 nonsquare it is {+-1} times
the infinite cyclic group generated by the smallest Pell solution
t + u*sqrt(a), t^2 - a u^2 = 1.  Representation counts R(n) are orbit
counts; for a > 0 one solution per orbit is selected by the fundamental
domain

    x + y*sqrt(a) > 0,   1 <= (x + y*sqrt(a)) / sqrt|n| < t + u*sqrt(a),

and membership is decided with exact integer arithmetic (comparisons of
A + B*sqrt(a) against 0 via squaring).  By convention R(0) = 0, and
R(n) = 0 for n < 0 when a < 0.

rho(q, A) counts solutions of x^2 - a y^2 = A over Z/q; it is
multiplicative in q, computed at prime powers from the square-count tables
S[v] = #{x : x^2 = v} and T[w] = #{y : -a y^2 = w}.  Substituting
(x, y) -> (c x, c y) shows rho(p^k; c^2 A) = rho(p^k; A) for every unit
c, so a full table mod p^k is constant on each orbit (v_p(A), unit
square class of A / p^v): two classes per valuation at odd p, up to four
at p = 2, and A = 0.  rho_table evaluates one member of each orbit
exactly and fills the rest, so the scaling identity

    rho(p^k; A) = (1/p) rho(p^(k+1); A + l p^k)

remains an honest downstream check rather than a construction rule.  The
identity holds for A != 0 mod p^k once k >= v_p(4a) at odd p; at p = 2 that
margin is not enough (a = -1, k = 2, A = 2: rho(4;2) = 4 but rho(8;2) = 16,
since the odd squares mod 2^k only stabilize three bits up) and the sharp
domain is k >= v_2(4a) + v_2(A).  scaling_valid() encodes this and is the
single source of truth for both rho()'s reduction path and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .exactnum import ExactNumError, factorize, is_square, legendre, valuation

DIRECT_ENUMERATION_CAP = 1_000_000


class QuadFormError(ExactNumError):
    pass


@dataclass(frozen=True)
class BinaryForm:
    """x^2 - a y^2 for a nonzero integer a, not a perfect square."""

    a: int

    def __post_init__(self):
        if is_square(self.a):
            raise QuadFormError("form coefficient must be nonzero and nonsquare")

    @property
    def discriminant(self) -> int:
        return 4 * self.a

    def value(self, x: int, y: int) -> int:
        return x * x - self.a * y * y


@dataclass(frozen=True)
class PellSolution:
    t: int
    u: int


@dataclass(frozen=True)
class AutomorphGroup:
    """order is None for the infinite (indefinite) case; generator is the
    rotation (t, u) acting by (x, y) -> (t x + a u y, u x + t y)."""

    order: Optional[int]
    generator: tuple


def w(d: int) -> int:
    """Order of the automorph group for negative discriminant d."""
    if d >= 0:
        raise QuadFormError("w(d) needs d < 0, got %r" % (d,))
    return 4 if d == -4 else 2


def _sqrt_cf_fundamental(a: int):
    # continued fraction of sqrt(a); first convergent with h^2 - a k^2 = +-1
    a0 = math.isqrt(a)
    m, d, A = 0, 1, a0
    h1, h0 = 1, a0
    k1, k0 = 0, 1
    while True:
        n = h0 * h0 - a * k0 * k0
        if n == 1 or n == -1:
            return h0, k0, n
        m = d * A - m
        d = (a - m * m) // d
        A = (a0 + m) // d
        h1, h0 = h0, A * h0 + h1
        k1, k0 = k0, A * k0 + k1


def fundamental_unit(a: int):
    """Smallest unit x + y*sqrt(a) > 1 of Z[sqrt(a)], a > 0 nonsquare.
    Returns (x, y, norm) with x^2 - a y^2 = norm in {+1, -1}."""
    if a <= 0 or is_square(a):
        raise QuadFormError("fundamental_unit needs a positive nonsquare")
    return _sqrt_cf_fundamental(a)


@lru_cache(maxsize=None)
def pell_fundamental(a: int) -> PellSolution:
    """Smallest (t, u), t, u > 0, with t^2 - a u^2 = 1."""
    x, y, n = fundamental_unit(a)
    if n == -1:
        x, y = x * x + a * y * y, 2 * x * y
    return PellSolution(x, y)


def automorph_group(form: BinaryForm) -> AutomorphGroup:
    a = form.a
    if a == -1:
        return AutomorphGroup(4, (0, 1))
    if a < 0:
        return AutomorphGroup(2, (-1, 0))
    p = pell_fundamental(a)
    return AutomorphGroup(None, (p.t, p.u))


def _sign_plus_root(A: int, B: int, a: int) -> int:
    """Sign of A + B*sqrt(a) for a > 0 nonsquare (never zero)."""
    if A >= 0 and B >= 0:
        return 1 if (A or B) else 0
    if A <= 0 and B <= 0:
        return -1 if (A or B) else 0
    if A > 0:  # B < 0
        return 1 if A * A > a * B * B else -1
    return 1 if a * B * B > A * A else -1


def _in_fundamental_domain(form: BinaryForm, x: int, y: int, n: int) -> bool:
    a = form.a
    pell = pell_fundamental(a)
    t, u = pell.t, pell.u
    if _sign_plus_root(x, y, a) <= 0:
        return False
    m = abs(n)
    # (x + y sqrt a)^2 >= |n|
    if _sign_plus_root(x * x + a * y * y - m, 2 * x * y, a) < 0:
        return False
    # (x + y sqrt a)^2 < |n| (t + u sqrt a)^2
    lhs_a = x * x + a * y * y - m * (t * t + a * u * u)
    lhs_b = 2 * x * y - 2 * m * t * u
    return _sign_plus_root(lhs_a, lhs_b, a) < 0


def primary_representatives(form: BinaryForm, n: int):
    """One solution of x^2 - a y^2 = n per automorph orbit."""
    a = form.a
    if n == 0:
        return []
    reps = []
    if a < 0:
        if n < 0:
            return []
        b = -a
        y = 0
        while b * y * y <= n:
            r = n - b * y * y
            x = math.isqrt(r)
            if x * x == r:
                if a == -1:
                    if x > 0:
                        reps.append((x, y))
                else:
                    if x > 0:
                        reps.append((x, y))
                        if y > 0:
                            reps.append((x, -y))
                    elif y > 0:
                        reps.append((0, y))
            y += 1
        return sorted(reps)
    pell = pell_fundamental(a)
    t, u = pell.t, pell.u
    eps = t + u * math.sqrt(a)
    sq = math.sqrt(abs(n))
    ra = math.sqrt(a)
    if n > 0:
        ylo, yhi = 0, (eps - 1.0 / eps) * sq / (2 * ra)
    else:
        ylo, yhi = (1 + 1.0 / eps) * sq / (2 * ra), (eps + 1) * sq / (2 * ra)
    for y in range(int(ylo) - 2, int(yhi) + 3):
        r = n + a * y * y
        if not is_square(r):
            continue
        x0 = math.isqrt(r)
        for x in {x0, -x0}:
            if _in_fundamental_domain(form, x, y, n):
                reps.append((x, y))
    return sorted(reps)


def representation_count(form: BinaryForm, n: int) -> int:
    """R(n): number of automorph orbits of solutions of x^2 - a y^2 = n.
    R(0) = 0 by convention."""
    return len(primary_representatives(form, n))


def representation_table(form: BinaryForm, lo: int, hi: int):
    """R(n) for lo <= n <= hi, as a list indexed by n - lo.

    Same orbit selection as primary_representatives, but batched: one sweep
    over the representatives landing in the window instead of a separate
    search per n."""
    if lo > hi:
        raise QuadFormError("empty representation window")
    out = [0] * (hi - lo + 1)
    a = form.a
    if a < 0:
        b = -a
        nlo = max(lo, 1)
        if hi < nlo:
            return out
        ymax = math.isqrt(hi // b)
        for y in range(0 if a == -1 else -ymax, ymax + 1):
            by2 = b * y * y
            if hi - by2 < 1:
                continue
            b1 = nlo - by2
            x0 = 1 if b1 <= 1 else math.isqrt(b1 - 1) + 1
            for x in range(x0, math.isqrt(hi - by2) + 1):
                out[x * x + by2 - lo] += 1
        if a < -1:
            y0 = 1 if b >= nlo else math.isqrt((nlo - 1) // b) + 1
            for y in range(y0, math.isqrt(hi // b) + 1):
                out[b * y * y - lo] += 1
        return out
    pell = pell_fundamental(a)
    big = max(abs(lo), abs(hi), 1)
    eb = pell.t + pell.u * (math.isqrt(a) + 1)
    ymax = math.isqrt(big * (eb + 1) ** 2 // (4 * a)) + 2
    for y in range(-ymax, ymax + 1):
        ay2 = a * y * y
        b2 = hi + ay2
        if b2 < 0:
            continue
        b1 = lo + ay2
        x0 = 0 if b1 <= 0 else (1 if b1 == 1 else math.isqrt(b1 - 1) + 1)
        for x in range(x0, math.isqrt(b2) + 1):
            n = x * x - ay2
            if n == 0:
                continue
            for sx in ((x,) if x == 0 else (x, -x)):
                if _in_fundamental_domain(form, sx, y, n):
                    out[n - lo] += 1
    return out


# ---------------------------------------------------------------------------
# local densities


_st_cache = {}


def _square_tables(a: int, m: int):
    """S[v] = #{x mod m : x^2 = v},  T[w] = #{y mod m : -a y^2 = w}."""
    key = (a % m, m)
    hit = _st_cache.get(key)
    if hit is not None:
        return hit
    S = [0] * m
    T = [0] * m
    na = (-a) % m
    for x in range(m):
        x2 = x * x % m
        S[x2] += 1
        T[na * x2 % m] += 1
    _st_cache[key] = (S, T)
    return S, T


def _rho_single(a: int, m: int, A: int) -> int:
    S, T = _square_tables(a, m)
    A = A % m
    total = 0
    for v in range(m):
        s = S[v]
        if s:
            total += s * T[(A - v) % m]
    return total


def scaling_valid(form: BinaryForm, p: int, k: int, A: int) -> bool:
    """Whether rho(p^k; A) = (1/p) rho(p^(k+1); A + l p^k) for every l.

    Odd p: k >= v_p(4a) and A != 0 mod p^k.  p = 2 needs the extra margin
    k >= v_2(4a) + v_2(A); below it the identity can fail pointwise even
    though it still holds on average over l.
    """
    A %= p**k
    if A == 0:
        return False
    v4a = valuation(4 * form.a, p)
    if p == 2:
        return k >= v4a + valuation(A, p)
    return k >= v4a


_table_cache = {}


def rho_table(form: BinaryForm, p: int, k: int):
    """The full vector (rho(p^k; A))_{A mod p^k}, computed exactly.

    One `_rho_single` evaluation per orbit (v_p(A), unit square class of
    A / p^v) fills every A of that orbit."""
    a = form.a
    m = p**k
    key = (a, p, k)
    hit = _table_cache.get(key)
    if hit is not None:
        return hit
    tab = [_rho_single(a, m, 0)] * m
    for v in range(k):
        # A = p^v w with w prime to p; up to unit squares w is its
        # Legendre symbol at odd p, and w mod 2^min(k - v, 3) at p = 2,
        # where the unit squares are the units = 1 mod 8
        j = min(k - v, 3) if p == 2 else 1
        step = p ** (v + j)
        by_class = {}
        for w in range(1, p ** j):
            if w % p == 0:
                continue
            start = w * p**v
            cls = w if p == 2 else legendre(w, p)
            if cls not in by_class:
                by_class[cls] = _rho_single(a, m, start)
            tab[start::step] = [by_class[cls]] * len(range(start, m, step))
    _table_cache[key] = tab
    return tab


def rho(form: BinaryForm, q: int, A: int,
        cap: int = DIRECT_ENUMERATION_CAP) -> int:
    """Number of (x, y) mod q with x^2 - a y^2 = A, for q >= 1.

    Prime powers above `cap` are reduced with the scaling identity where it
    applies; otherwise an error asks for a larger cap.
    """
    if q < 1:
        raise QuadFormError("modulus must be positive")
    a = form.a
    total = 1
    for p, k in factorize(q):
        m = p**k
        scale = 1
        while m > cap:
            if not scaling_valid(form, p, k - 1, A):
                raise QuadFormError(
                    "rho at %d^%d is beyond the enumeration cap %d and the "
                    "scaling identity does not apply; raise the cap" % (p, k, cap))
            scale *= p
            k -= 1
            m //= p
        total *= scale * _rho_single(a, m, A % m)
    return total
