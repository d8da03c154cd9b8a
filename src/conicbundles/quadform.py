"""Binary forms q(x, y) = x^2 - a y^2: automorphs, representation orbits,
local densities.

For a < 0 the (proper) automorph group is finite of order w(4a): the four
rotations when a = -1, else {+-1}.  For a > 0 nonsquare it is {+-1} times
the infinite cyclic group generated by the smallest Pell solution
eps = t + u*sqrt(a), t^2 - a u^2 = 1.  Representation counts R(n) are orbit
counts.  By convention R(0) = 0, and R(n) = 0 for n < 0 when a < 0.

An orbit count does not depend on which fundamental domain picks the
orbits, and representation_table uses a balanced one.  Write z = x + y*sqrt(a)
and z' = x - y*sqrt(a), so z z' = n; eps multiplies z / z' by eps^2 and -1
flips the sign of z.  So each orbit has one solution with z > 0 and
1/eps <= z / z' < eps (n > 0), or 1/eps <= -z / z' < eps (n < 0).  With
s = t + 1, so that s^2 - a u^2 = 2 s and s (t - 1) = a u^2, expanding gives

    eps z' - z = (u x - s y) c,     eps z - z' = (u x + s y) c,
    -eps z' - z = (a u y - s x) d,  eps z + z' = (s x + a u y) d,

with c = (t - 1) / u + sqrt(a) > 0 and d = 1 + u*sqrt(a) / s > 0.  Hence
the domain is exactly two integer half-planes,

    n > 0:  -s y <= u x  and  s y < u x;     n < 0:  -a u y <= s x < a u y,

which already force z > 0 (x > 0, resp. y > 0).  They bound the rows:
u x >= s |y| gives n >= (s^2 - a u^2) y^2 / u^2 = 2 s y^2 / u^2, and
s |x| <= a u y gives |n| >= a y^2 (s^2 - a u^2) / s^2 = 2 a y^2 / s.  The
classical domain 1 <= z / sqrt|n| < eps, that is 1 <= |z / z'| < eps^2,
turns by the same computation into y >= 0 and u x > t y (n > 0), x >= 0
and t x < a u y (n < 0), whose rows reach y^2 < n u^2 and
a y^2 < |n| t^2: about sqrt(t / 2) times as many row intervals, nearly
all of them empty when t is large.  representation_table counts its rows
before the first and raises QuadFormError when they number more than
DEFAULT_ENUMERATION_CAP (the rows grow like sqrt(t |n| / a)).  For a > 0
the convergent denominators k <= u of sqrt(a) bound the rows from below
while the Pell solution is sought, so a large one is refused before it
is built, and none is sought when no row can meet the window; a table
numpy cannot allocate raises QuadFormError too.
representation_count(form, n) reads the table of the one-value window
[n, n], so R(n) has one implementation.

rho(q, A) counts solutions of x^2 - a y^2 = A over Z/q, multiplicatively
in q.  _local_count finds N_k(Q; A) = #{(x, y) mod p^k : c1 x^2 + c2 y^2 =
A} from (c1, c2) = (1, -a) by the good/zero/bad split of local densities
(Hanke, Duke Math. J. 124, 2004; Cassels, Rational Quadratic Forms, ch. 8)
in O(k + v_p(a)) steps, as each lowers k or v_p(c2):

1. if p^g, g >= 1, divides both c_i: N_k = p^(2k) [A = 0] for k <= g, else
   [p^g | A] p^(2g) N_(k-g)(Q / p^g; A / p^g);
2. with c1 a unit, the solutions with p not dividing x have gradient
   valuation v_p(2), so by Hensel's lemma they number p^(k-j) G_j(A),
   j = min(k, 2 v_p(2) + 1), G_j their count mod p^j: at p = 2, 2^(j-1)
   odd x per y mod 2^j with c1 (A - c2 y^2) = 1 mod 2^j (odd squares and
   c1^2 are 1 mod 8); at odd p, p (1 + (c1 A | p)) [p does not divide A]
   if p | c2, else the p - e (A != 0) or p + (p - 1) e (A = 0) points of
   the conic over F_p, e = (-c1 c2 | p), less the 1 + (c2 A | p) with x = 0;
3. the solutions with x = p x1 number N_k(c2 y^2 + p^2 c1 x1^2; A) / p.

Substituting (x, y) -> (c x, c y) shows rho(p^k; c^2 A) = rho(p^k; A) for
every unit c, so a full table mod p^k is constant on each orbit (v_p(A),
unit square class of A / p^v): two classes per valuation at odd p, up to
four at p = 2, and A = 0.  rho_table counts one member of each orbit and
fills the rest.  No construction uses the scaling identity rho(p^k; A) =
(1/p) rho(p^(k+1); A + l p^k), so it remains an honest downstream check.
It holds for A != 0 mod p^k once k >= v_p(4a) at odd p; at p = 2 that
margin is not enough (a = -1, k = 2, A = 2: rho(4;2) = 4 but rho(8;2) = 16,
since the odd squares mod 2^k only stabilize three bits up) and the sharp
domain is k >= v_2(4a) + v_2(A).  scaling_valid() states this domain and
the tests check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy

from .exactnum import (ExactNumError, _check_cap, _refusal, _unit_digits,
                       _valuation_unit, as_integer, as_integer_at_least,
                       as_prime, factorize, is_square, legendre, valuation)


class QuadFormError(ExactNumError):
    pass


# int64 entries per numpy temporary, a cache-sized 128 KB beside the
# tables: the points representation_table adds to its table per batch,
# and the cells of each of counting's grid-sum pieces
_CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class BinaryForm:
    """x^2 - a y^2 for a nonzero integer a, not a perfect square."""

    a: int

    def __post_init__(self):
        object.__setattr__(self, "a", as_integer(self.a, QuadFormError))
        if is_square(self.a):
            raise QuadFormError("form coefficient must be nonzero and nonsquare")


class PellSolution(NamedTuple):
    t: int
    u: int


def w(d: int) -> int:
    """Order of the automorph group for negative discriminant d."""
    d = as_integer(d, QuadFormError)
    if d >= 0:
        raise _refusal(QuadFormError, "w(d) needs d < 0, got {}", d)
    return 4 if d == -4 else 2


def fundamental_unit(a: int):
    """Smallest unit x + y*sqrt(a) > 1 of Z[sqrt(a)], a > 0 nonsquare.
    Returns (x, y, norm) with x^2 - a y^2 = norm in {+1, -1}: the first
    convergent h/k of the continued fraction of sqrt(a) with
    h^2 - a k^2 = +-1."""
    a = as_integer(a, QuadFormError)
    if a <= 0 or is_square(a):
        raise QuadFormError("fundamental_unit needs a positive nonsquare")
    return next(c for c in _convergents(a) if c[2] in (1, -1))


def _convergents(a: int):
    # (h, k, h^2 - a k^2) for the convergents h/k of the continued
    # fraction of sqrt(a), a > 0 nonsquare, in order, so k never decreases
    a0 = math.isqrt(a)
    m, d, A = 0, 1, a0
    h1, h0 = 1, a0
    k1, k0 = 0, 1
    while True:
        yield h0, k0, h0 * h0 - a * k0 * k0
        m = d * A - m
        d = (a - m * m) // d
        A = (a0 + m) // d
        h1, h0 = h0, A * h0 + h1
        k1, k0 = k0, A * k0 + k1


@lru_cache(maxsize=None, typed=True)
def pell_fundamental(a: int) -> PellSolution:
    """Smallest (t, u), t, u > 0, with t^2 - a u^2 = 1."""
    a = as_integer(a, QuadFormError)
    x, y, n = fundamental_unit(a)
    if n == -1:
        x, y = x * x + a * y * y, 2 * x * y
    return PellSolution(x, y)


def representation_count(form: BinaryForm, n: int) -> int:
    """R(n): number of automorph orbits of solutions of x^2 - a y^2 = n.
    R(0) = 0 by convention."""
    return int(representation_table(form, n, n)[0])


def _ceil_isqrt(m: int) -> int:
    # least x >= 0 with x^2 >= m
    return 0 if m <= 0 else math.isqrt(m - 1) + 1


def _square_roots(step: int) -> dict:
    # residue mod step -> the x mod step whose square it is
    roots = {}
    for x in range(step):
        roots.setdefault(x * x % step, []).append(x)
    return roots


def _class_ranges(start: int, stop: int, step: int, classes) -> list:
    # the y in range(start, stop) whose residue mod step is in classes,
    # one range per class
    return [range(start + (c - start) % step, stop, step) for c in classes]


def _check_rows(a: int, rows: int) -> None:
    # a row search for x^2 - a y^2 is refused before its first row when it
    # has more than DEFAULT_ENUMERATION_CAP rows
    _check_cap(rows, 1, QuadFormError,
               "the row search of x^2 - a y^2, a = {}, has {count} rows", a)


def _row_count(ranges) -> int:
    # len() of a range stops at sys.maxsize, so they are counted here
    return sum(max(0, -((r.start - r.stop) // r.step)) for r in ranges)


def _gather_rows(rows, width: int, step: int, roots: dict):
    # rows (x0, x1, c) with 0 <= x0 <= x1 and -c a square mod step: one
    # count at (x^2 + c) / step for each x0 <= x <= x1 with step | x^2 + c,
    # every such index in [0, width).  Those x form one progression
    # x = first + step m per square root of -c mod step (roots, from
    # _square_roots); point m sits at index base + (2 first + step m) m
    # with the Python-int base = (first^2 + c) / step.  The points are
    # numbered progression by progression and added to the table in
    # batches of _CHUNK_CELLS, each finding the progressions it spans by
    # a binary search over the progression ends, so no array but the
    # table outgrows a batch.  The base is an index and (2 first + step m) m
    # a difference of two; 2 first enters only progressions of two or
    # more points, where 2 first + step is such a difference too, and
    # step m <= (2 first + step m) m.  So no int64 value in a batch
    # exceeds the table length or the number of points, and none can
    # overflow: no guard and no Python-int path are needed
    bases, firsts, lengths = [], [], []
    for x0, x1, c in rows:
        for root in roots[-c % step]:
            first = x0 + (root - x0) % step
            if first <= x1:
                count = (x1 - first) // step + 1
                bases.append((first * first + c) // step)
                firsts.append(2 * first if count > 1 else 0)
                lengths.append(count)
    try:
        table = numpy.zeros(width, dtype=numpy.int64)
    except MemoryError:
        raise _refusal(QuadFormError, "a table of {} entries does not fit "
                       "in memory", width) from None
    if not lengths:
        return table
    bases = numpy.array(bases, dtype=numpy.int64)
    firsts = numpy.array(firsts, dtype=numpy.int64)
    lengths = numpy.array(lengths, dtype=numpy.int64)
    ends = numpy.cumsum(lengths)
    starts = ends - lengths
    points = int(ends[-1])
    for p0 in range(0, points, _CHUNK_CELLS):
        p1 = min(p0 + _CHUNK_CELLS, points)
        # the progressions r0..r1 hold points p0..p1 - 1
        r0, r1 = numpy.searchsorted(ends, (p0, p1 - 1), side="right")
        part = slice(r0, r1 + 1)
        counts = (numpy.minimum(ends[part], p1)
                  - numpy.maximum(starts[part], p0))
        m = numpy.arange(p0, p1, dtype=numpy.int64)
        m -= numpy.repeat(starts[part], counts)
        idx = numpy.repeat(firsts[part], counts)
        idx += step * m
        idx *= m
        idx += numpy.repeat(bases[part], counts)
        numpy.add.at(table, idx, 1)
    return table


def _definite_rows(b: int, lo: int, hi: int, step: int, classes):
    # a = -b < 0: orbit representatives x > 0, y >= 0 for b = 1 (the four
    # rotations), else x > 0, or x = 0 and y > 0 (the pair +-1); the rows
    # for n = x^2 + b y^2 in [max(lo, 1), hi] with y mod step in classes
    nlo = max(lo, 1)
    if hi < nlo:
        return
    ymax = math.isqrt(hi // b)
    ys = _class_ranges(0 if b == 1 else -ymax, ymax + 1, step, classes)
    _check_rows(-b, _row_count(ys))
    for y in chain.from_iterable(ys):
        by2 = b * y * y
        x0 = max(0 if b > 1 and y > 0 else 1, _ceil_isqrt(nlo - by2))
        x1 = math.isqrt(hi - by2)
        if x0 <= x1:
            yield x0, x1, by2 - lo


def _check_pell_rows(a: int, lo: int, hi: int, step: int, classes) -> None:
    # refuses the row search of the Pell solution (t, u) before building
    # it, walking the convergents h/k of sqrt(a).  Each k is at most u, and
    # with a0 = isqrt(a) and s = t + 1, u a0 <= s <= u (a0 + 3), so
    # u^2 / s >= k / (a0 + 3) and s / a >= k a0 / a: the rows y up to the
    # bounds below are rows of the search, and each whole period of step
    # among them holds len(classes).  As k at least doubles every two
    # steps, a search past the cap is refused a few steps after its rows
    # pass it, with this lower bound as its count
    a0 = math.isqrt(a)
    for _, k, n in _convergents(a):
        above = math.isqrt(hi * k // (2 * (a0 + 3))) + 1 if hi >= 1 else 0
        below = math.isqrt(-lo * k * a0 // (2 * a)) if lo <= -1 else 0
        _check_rows(a, len(classes) * (above // step + below // step))
        if n in (1, -1):
            return


def _indefinite_rows(a: int, lo: int, hi: int, step: int, classes):
    # a > 0: the rows of the balanced domain (module docstring) of the
    # Pell solution (t, u) for n = x^2 - a y^2 in [lo, hi], n != 0, with
    # y mod step in classes; rows y and -y, and the two signs of x for
    # n < 0, share their values of n (and -y is in a class with y).  No
    # unit is built when no row can meet the window
    if not classes or lo == hi == 0:
        return
    _check_pell_rows(a, lo, hi, step, classes)
    t, u = pell_fundamental(a)
    s = t + 1
    above = below = []
    if hi >= 1:
        above = _class_ranges(0, math.isqrt(hi * u * u // (2 * s)) + 1,
                              step, classes)
    if lo <= -1:
        below = _class_ranges(1, math.isqrt(-lo * s // (2 * a)) + 1,
                              step, classes)
    _check_rows(a, _row_count(above + below))
    nlo, nhi = max(lo, 1), min(hi, -1)
    # n > 0: x > s y / u for y >= 0, x >= s |y| / u for y < 0
    for y in chain.from_iterable(above):
        ay2 = a * y * y
        x0 = _ceil_isqrt(nlo + ay2)
        x1 = math.isqrt(hi + ay2)
        for end in (s * y // u + 1, -(-s * y // u)) if y else (1,):
            first = max(x0, end)
            if first <= x1:
                yield first, x1, -ay2 - lo
    # n < 0: y >= 1, 0 <= s x < a u y or 0 < -s x <= a u y
    for y in chain.from_iterable(below):
        ay2 = a * y * y
        if nhi + ay2 < 0:
            continue
        x0 = _ceil_isqrt(lo + ay2)
        x1 = math.isqrt(nhi + ay2)
        for first, end in ((x0, (a * u * y - 1) // s),
                           (max(x0, 1), a * u * y // s)):
            last = min(x1, end)
            if first <= last:
                yield first, last, -ay2 - lo


def representation_table(form: BinaryForm, lo: int, hi: int, step: int = 1):
    """R(lo + step k) for 0 <= k <= (hi - lo) // step, as an int64 numpy
    array indexed by k: the class of lo mod step in the window [lo, hi].

    Counts the automorph orbits, one solution each from the balanced
    domain of the module docstring, by rows.  For a > 0 row y meets the
    domain in x-intervals whose ends are s y // u + 1 or -(-s y // u)
    (n > 0) and (a u y - 1) // s or a u y // s (n < 0), s = t + 1, cut
    by the isqrt of the window bounds shifted by a y^2, so no quadratic
    irrational is compared; only rows with 2 s y^2 <= hi u^2 (n > 0) and
    2 a y^2 <= |lo| s (n < 0) can meet the window.  For a < 0 the rows
    are those of x^2 + |a| y^2 over the orbit representatives.  Row y
    hits the class only at the x whose square is lo + a y^2 mod step:
    one progression with difference step per square root, read off a root
    list of O(step) entries, and step is at most hi - lo whenever the
    table has two entries.  Only the rows whose y mod step makes
    lo + a y^2 a square mod step are generated.  The progressions are
    added into the table in batches of _CHUNK_CELLS points, so memory
    beyond the table stays O(rows + batch); every int64 index is below
    the table length (_gather_rows).  QuadFormError is raised past
    DEFAULT_ENUMERATION_CAP rows, for a > 0 before the Pell solution is
    built once its convergents bound the rows past the cap, and for a
    table that does not fit in memory."""
    lo = as_integer(lo, QuadFormError)
    hi = as_integer(hi, QuadFormError)
    step = as_integer_at_least(step, 1, "step", QuadFormError)
    if lo > hi:
        raise QuadFormError("empty representation window")
    width = (hi - lo) // step + 1
    hi = lo + (width - 1) * step
    if width == 1:
        step = 1
    a = form.a
    roots = _square_roots(step)
    classes = [y for y in range(step) if (lo + a * y * y) % step in roots]
    if a < 0:
        rows = _definite_rows(-a, lo, hi, step, classes)
    else:
        rows = _indefinite_rows(a, lo, hi, step, classes)
    return _gather_rows(rows, width, step, roots)


# ---------------------------------------------------------------------------
# local densities


def _local_count(a: int, p: int, k: int, A: int) -> int:
    """#{(x, y) mod p^k : x^2 - a y^2 = A}, by the steps of the module
    docstring."""
    c1, c2 = 1, -a
    # p^drops * result = total + mult * N_k(c1 x^2 + c2 y^2; A): the
    # descent's division by p waits until the end
    total, mult, drops = 0, 1, 0
    while True:
        A %= p**k
        g = min(_valuation_unit(c1, p)[0], _valuation_unit(c2, p)[0])
        pg = p**g
        if k <= g or A % pg:
            break
        if g:
            mult *= pg * pg
            c1, c2, A, k = c1 // pg, c2 // pg, A // pg, k - g
            continue
        if c1 % p == 0:
            c1, c2 = c2, c1
        j = min(k, _unit_digits(p))
        if p == 2:
            good = sum(1 << j - 1 for y in range(1 << j)
                       if c1 * (A - c2 * y * y) % (1 << j) == 1)
        elif c2 % p:
            e = legendre(-c1 * c2, p)
            good = (p + (p - 1) * e if A % p == 0 else p - e) - 1 \
                - legendre(c2 * A, p)
        else:
            good = p * (1 + legendre(c1 * A, p)) if A % p else 0
        total = p * (total + mult * good * p ** (k - j))
        drops += 1
        c1, c2 = c2, p * p * c1
    # N_k = p^(2k) [A = 0] if k <= g; otherwise p^g does not divide A != 0
    last = mult * p ** (2 * k) if A == 0 else 0
    return (total + last) // p**drops


def scaling_valid(form: BinaryForm, p: int, k: int, A: int) -> bool:
    """Whether rho(p^k; A) = (1/p) rho(p^(k+1); A + l p^k) for every l.

    Odd p: k >= v_p(4a) and A != 0 mod p^k.  p = 2 needs the extra margin
    k >= v_2(4a) + v_2(A); below it the identity can fail pointwise even
    though it still holds on average over l.
    """
    p = as_prime(p, QuadFormError)
    k = as_integer_at_least(k, 0, "k", QuadFormError)
    A = as_integer(A, QuadFormError)
    # p^k divides A exactly when A = 0 or v_p(A) >= k: p^k is never built
    if A == 0 or valuation(A, p) >= k:
        return False
    v4a = valuation(4 * form.a, p)
    if p == 2:
        return k >= v4a + valuation(A, p)
    return k >= v4a


def rho_table(form: BinaryForm, p: int, k: int):
    """The full vector (rho(p^k; A))_{A mod p^k}, computed exactly.

    One `_local_count` per orbit (v_p(A), unit square class of A / p^v)
    fills every A of that orbit.  Nothing is cached, so every call builds
    a fresh list of its own and a dropped table frees its memory.  A
    table of more than DEFAULT_ENUMERATION_CAP entries is refused with
    QuadFormError before it is built."""
    p = as_prime(p, QuadFormError)
    k = as_integer_at_least(k, 0, "k", QuadFormError)
    a = form.a
    m = _check_cap(p, k, QuadFormError, "rho_table({}^{}) has {count} entries",
                   p, k)
    tab = [_local_count(a, p, k, 0)] * m
    for v in range(k):
        # A = p^v w with w prime to p; up to unit squares w is its
        # Legendre symbol at odd p, and w mod 2^min(k - v, 3) at p = 2,
        # where the unit squares are the units = 1 mod 8
        j = min(k - v, _unit_digits(p))
        step = p ** (v + j)
        by_class = {}
        for w in range(1, p ** j):
            if w % p == 0:
                continue
            start = w * p**v
            cls = w if p == 2 else legendre(w, p)
            if cls not in by_class:
                by_class[cls] = _local_count(a, p, k, start)
            tab[start::step] = [by_class[cls]] * len(range(start, m, step))
    return tab


def rho(form: BinaryForm, q: int, A: int) -> int:
    """Number of (x, y) mod q with x^2 - a y^2 = A, for q >= 1: the product
    of the prime-power counts over the factorization of q."""
    q = as_integer_at_least(q, 1, "q", QuadFormError)
    A = as_integer(A, QuadFormError)
    total = 1
    for p, k in factorize(q):
        total *= _local_count(form.a, p, k, A)
    return total
