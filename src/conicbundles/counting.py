"""Counting primary solutions of norm-form systems against local densities.

A counting job fixes a system x_i^2 - a_i y_i^2 = f_i(u), a congruence
u = u^(M) mod M, a direction u^(inf) with f_i(u^(inf)) > 0 for the definite
indices, and a box |u - B u^(inf)| < eps B in the sup norm.  N(B) is the
number of solutions with u in the box and each (x_i, y_i) reduced to the
fundamental domain of the automorph group of its form, so each u
contributes prod_i R_i(f_i(u)) with R_i the orbit-counting representation
function.  The expected main term is beta_inf * prod_p beta_p.

Archimedean density.  The mean of R(n) per unit n is pi/(w(4a) sqrt|a|)
for a < 0 and log(eps1)/(2 sqrt a) for a > 0, where eps1 = t + u sqrt(a)
is the smallest Pell solution of t^2 - a u^2 = 1, i.e. the generator of
the automorph group.  When Z[sqrt a] has a unit of norm -1 this equals
log(eta)/sqrt(a) for the fundamental unit eta; when all units have norm
+1 (a = 3, 6, 7, ...) the orbit density is half the naive log(eta)/sqrt(a),
and direct counts confirm the halved value, so that is what beta_infinity
uses.  beta_inf = (2 eps B / M)^s times the product of these factors,
evaluated with the standard library's decimal module at 30 significant
digits.  Each decimal operation (divide, multiply, add, sqrt, ln) is
correctly rounded, so it contributes a relative error of at most
h = 5e-30, half a unit in the 30th digit; the 49-digit literal for pi is
off by less than 1e-48.  The box measure costs one rounding.  A factor
with a < 0 costs four: sqrt(-a), its product with w, the product with pi
and the quotient.  A factor with a > 0 costs at most 7.28h: sqrt(a), its
product with the Pell u and the sum with t leave eps1 within 3h, which
log turns into an absolute, so relative, error below
3h / log(2 + sqrt 3) < 2.28h, the smallest eps1 being 2 + sqrt 3; then
come the roundings of log, of the product, of 2 sqrt(a) (2h with the
sqrt) and of the quotient.  For r <= 8 beta_inf is therefore within
1h + 8 * 7.28h < 60h = 3e-28 < 2^-91 of its value, and each reported
float (at most three more roundings) is the correctly rounded double
unless the exact value lies within that distance of a tie.

Finite densities.  G(p^k) counts (x, y, t) mod p^k solving the system at
g_i(t) = f_i(u^(M) + M t); beta_p is the limit of p^(-(s+r)k) G(p^k).  For
p not dividing M it is 1 when the forms have rank r mod p, that is when p
does not divide the gcd of the r x r minors of the form matrix (0 when
r > s); otherwise it is detected by finding G(p^(k+1)) exactly equal to
p^(s+r) G(p^k) at the first admissible k (persistence beyond the detected
step is the theory's statement, not re-verified numerically).  So for
r <= s the Euler product is finite: it runs over the bad set of primes
dividing M or the minors gcd, which predict_and_compare computes once per
job and always includes, writing 1 at every other prime up to the cutoff.
For p | M with m = val_p(M), beta_p = p^(-(s+r)m) G(p^m) exactly; when the
mod-M data x^2 - a_i y^2 = f_i(u^(M)) is solvable mod p^m this is at least
p^(-rm) > 0, and a violation of that bound is reported as an error since
it contradicts an identity; when the mod-M data admits no lift, beta_p is
honestly 0 and prediction is refused place by place.

Lattice lines.  enumerate_N and G sum prod_i R_i(f_i(u)) (resp. the
rho_i) along lattice lines rather than cell by cell, in one grid-sum
kernel.  Both work in t-coordinates, u = u^(M) + M t, where
f_i(u) = f_i(u^(M)) + M f_i(t).  So enumerate_N reads R_i only on the
class of f_i(u^(M)) mod M: its table is representation_table with
step M, M times smaller than the window of f_i(u), indexed by f_i(t)
minus its least value on the box.  For one form f_j and a primitive
direction w with f_i . w = 0 for every i != j, each R_i with i != j is
constant along a line parallel to w and f_j(t) steps by d = f_j . w (so
f_j(u) by M d).  In the box a line is a segment of L points from its
entry point, where f_j(t) has index x, contributing the other factors
times the prefix difference P_d[x + (L - 1) d] - P_d[x - d] of the
stride-d prefix sum P_d of R_j's class table (L R_j(x) when d = 0).
That table starts d values before the window, so P_d[x - d] exists, and
holds a whole number of rows of d, so P_d is its column sums, built in
place.  On the torus (Z/p^k)^s a line is a full cycle of p^k points,
where g_j steps by M d, contributing the other factors times
g C_g[x mod g] with g = gcd(M d, p^k) and C_g the residue-class sums of
the rho_j table, read from a table of p^k entries repeating g C_g.  When
no form admits such a w (r > s), every cell is its own line.

Memory.  Tables are O(window): the class tables of the R_i, R_j's
holding its own stride prefix, and the rho_i tables of G, one entry per
residue mod p^k, all read at random.  Every other array is O(piece): the
grid sum takes the cells in pieces of at most _CHUNK_CELLS and builds
each piece's indices and line lengths from numpy.arange over the piece's
own ranges, an index axis being just a coefficient (G reduces each
form's index mod p^k once), and representation_table adds its
progressions into the table in batches of quadform._GATHER_POINTS
points.  So a count needs its tables and a fixed number of piece-sized
temporaries beside them.

Lattice counts, line directions (a fraction-free elimination), box ends
(integer floor division over one common denominator) and the rank test
run on Python integers; the only Fractions are the job's uInf and eps,
the box measure and the beta_p values, each an integer count over a
power of p.  Only beta_inf and the final ratios are floating point.
Beyond the bad set the Euler product is truncated at a configurable
cutoff, recorded on every report; for r > s the tail factors are
1 + O(p^-2) but the constant is not estimated here.
"""

from __future__ import annotations

import decimal
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy

from .exactnum import (
    ExactNumError,
    _clear_denominators,
    _det,
    _dot,
    _primes_dividing,
    _primes_upto,
    _primitive,
    as_integer,
    as_integer_at_least,
    as_prime,
    as_rational,
    factorize,
    json_value,
    valuation,
)
from .pencil import NormFormSystem, technical_bound
from .quadform import (
    BinaryForm,
    pell_fundamental,
    representation_table,
    rho_table,
    w,
)


class CountingError(ExactNumError):
    pass


DEFAULT_PRIME_CUTOFF = 100
DEFAULT_ENUMERATION_CAP = 10**7
# beta_inf arithmetic, passed to every operation so that the thread's
# global decimal context never applies
_CTX = decimal.Context(prec=30)
_PI = decimal.Decimal("3.141592653589793238462643383279502884197169399375")
# cells per grid-sum piece: each of a piece's index, length and product
# arrays is 128 KB, a cache-sized temporary beside the tables
_CHUNK_CELLS = 1 << 14
_SUM_GUARD = 1 << 62
# entry cells below which enumerate_N sums on one thread: on a 2-core host
# two threads lost at 2.8e5 cells (s = 3, 1.2x the one-thread time) and
# won from 3.9e5 (0.8x; 0.5x from 5.3e5), while s = 2 jobs broke even
# from 3e5 to 6e5; starting the pool and splitting the boxes cost more
# than the share of the sum they save on smaller jobs
_THREAD_MIN_CELLS = 350_000


@dataclass(frozen=True)
class CountJob:
    """A congruence-and-box counting problem for one norm-form system.

    B values in the schedule must be C^2 with C = 1 mod M, so that the
    dilation (x, y, u) -> (Cx, Cy, C^2 u) respects the congruence."""

    system: NormFormSystem
    M: int = 1
    uM: Tuple[int, ...] = ()
    uInf: Tuple[Fraction, ...] = ()
    epsilon: Fraction = Fraction(1, 2)
    B_schedule: Tuple[int, ...] = ()

    def __post_init__(self):
        s = self.system.s
        object.__setattr__(self, "M", as_integer(self.M, CountingError))
        object.__setattr__(self, "uM", tuple(
            as_integer(x, CountingError) for x in (self.uM or (0,) * s)))
        object.__setattr__(self, "uInf", tuple(
            as_rational(x, CountingError) for x in self.uInf))
        object.__setattr__(self, "epsilon",
                           as_rational(self.epsilon, CountingError))
        object.__setattr__(self, "B_schedule", tuple(
            as_integer(b, CountingError) for b in self.B_schedule))
        if self.M < 1:
            raise CountingError("modulus M must be positive")
        if len(self.uM) != s or len(self.uInf) != s:
            raise CountingError("uM and uInf must have length s = %d" % s)
        if self.epsilon <= 0:
            raise CountingError("epsilon must be positive")
        for i in self.system.i_minus:
            if self._f(i, self.uInf) <= 0:
                raise CountingError(
                    "f_%d(uInf) must be positive for definite index %d"
                    % (i + 1, i + 1))
        for p, m in factorize(self.M):
            bound = technical_bound(self.system, p)
            if m < bound:
                raise CountingError(
                    "val_%d(M) = %d is below the technical bound %d"
                    % (p, m, bound))
            pm = p**m
            for i in range(self.system.r):
                if self._f(i, self.uM) % pm == 0:
                    raise CountingError(
                        "f_%d(uM) vanishes mod %d^%d" % (i + 1, p, m))
        for B in self.B_schedule:
            if B < 1:
                raise CountingError("B must be positive, got %r" % B)
            c = math.isqrt(B)
            if c * c != B or c % self.M != 1 % self.M:
                raise CountingError(
                    "B = %d is not C^2 with C = 1 mod %d" % (B, self.M))

    def _f(self, i: int, u):
        return _dot(self.system.forms[i], u)


def box_measure(s: int, epsilon: Fraction, M: int, B: int) -> Fraction:
    """(2 eps B / M)^s: the raw sup-norm measure formula.

    Kept separate from CountJob so the formula is usable for parameter
    combinations a valid job cannot carry (eq. M = 2 never clears the
    technical valuation bound at p = 2)."""
    s, M, B = (as_integer(x, CountingError) for x in (s, M, B))
    if B < 1 or M < 1 or s < 1:
        raise CountingError("B, M, s must be positive")
    eps = as_rational(epsilon, CountingError)
    if eps <= 0:
        raise CountingError("epsilon must be positive")
    return (2 * eps * B / M) ** s


def region_measure(job: CountJob, B: int) -> Fraction:
    """Sup-norm measure (2 eps B / M)^s of the congruence-scaled box."""
    return box_measure(job.system.s, job.epsilon, job.M, B)


def _axis_range(job: CountJob, B: int, j: int):
    # the t with |uM_j + M t - B uInf_j| < eps B, as (t0, t1), or None: over
    # a common denominator D, with x = D uInf_j and e = D eps, they are the
    # t with B (x - e) < D (uM_j + M t) < B (x + e)
    D, (x, e) = _clear_denominators((job.uInf[j], job.epsilon))
    step, base = job.M * D, job.uM[j] * D
    t0 = (B * (x - e) - base) // step + 1
    t1 = -((base - B * (x + e)) // step) - 1
    return None if t0 > t1 else (t0, t1)


def _form_window(coeffs, spans):
    # least and greatest value of the form on the box of the given spans
    lo = hi = 0
    for c, (t0, t1) in zip(coeffs, spans):
        lo += min(c * t0, c * t1)
        hi += max(c * t0, c * t1)
    return lo, hi


def _nullspace(rows, s: int):
    # a basis of {w in Z^s : row . w = 0 for every row}, one primitive
    # vector per free column of the reduced echelon form E.  Gauss-Jordan
    # elimination on integer rows, each kept primitive, leaves pivot row i
    # equal to lead_i times row i of E, so the free column f gives the
    # vector with w_f = L and w_(pivot i) = -row_i[f] L / lead_i, L the lcm
    # of the leads: a positive multiple of the vector read off E
    mat = [_primitive(row) for row in rows]
    pivots = []
    for col in range(s):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        lead = top[col]
        for i, row in enumerate(mat):
            f = row[col]
            if i != rank and f:
                mat[i] = _primitive([lead * v - f * q
                                     for v, q in zip(row, top)])
        pivots.append(col)
    leads = [row[col] for row, col in zip(mat, pivots)]
    L = math.lcm(*leads)
    basis = []
    for free in range(s):
        if free in pivots:
            continue
        vec = [0] * s
        vec[free] = L
        for row, col, lead in zip(mat, pivots, leads):
            vec[col] = -row[free] * (L // lead)
        basis.append(tuple(_primitive(vec)))
    return basis


def _minors_gcd(forms, s: int) -> int:
    # gcd of the r x r minors of the form matrix, 0 when r > s: the forms
    # have rank r mod p exactly when p divides none of the minors
    r = len(forms)
    return math.gcd(*(_det([[f[c] for c in cols] for f in forms])
                      for cols in itertools.combinations(range(s), r)))


def _line_direction(forms, extents):
    # (j, w) with w primitive, f_i . w = 0 for every i != j and f_j . w >= 0,
    # chosen so that lines parallel to w cover the index box of the given
    # extents with the fewest entry points; None when no form admits one
    cells = math.prod(extents)
    best = None
    for j in range(len(forms)):
        for w in _nullspace(forms[:j] + forms[j + 1:], len(extents)):
            if _dot(forms[j], w) < 0:
                w = tuple(-c for c in w)
            entries = cells - math.prod(
                max(0, n - abs(c)) for n, c in zip(extents, w))
            if best is None or entries < best[0]:
                best = (entries, j, w)
    return None if best is None else best[1:]


def _entry_boxes(extents, w):
    # the entry points t of the lines t + k w (t - w outside the index box)
    # as disjoint boxes: for each axis h with w_h != 0, the |w_h|-thick
    # slab at the face t - w leaves through, minus the earlier slabs
    boxes = []
    box = [(0, n) for n in extents]
    for h, (n, c) in enumerate(zip(extents, w)):
        if c == 0:
            continue
        cut = min(abs(c), n)
        slab, rest = ((0, cut), (cut, n)) if c > 0 else ((n - cut, n),
                                                          (0, n - cut))
        cand = tuple(box[:h] + [slab] + box[h + 1:])
        if all(a < b for a, b in cand):
            boxes.append(cand)
        box[h] = rest
    return boxes


def _pieces(box, limit: int):
    # sub-boxes of at most `limit` cells, cut across the longest axis (and
    # recursively when a single slice across it is still too large)
    extents = [b - a for a, b in box]
    cells = math.prod(extents)
    if cells <= limit:
        yield box
        return
    h = max(range(len(box)), key=extents.__getitem__)
    rows = max(1, limit // (cells // extents[h]))
    a, b = box[h]
    for r0 in range(a, b, rows):
        yield from _pieces(box[:h] + ((r0, min(r0 + rows, b)),) + box[h + 1:],
                           limit)


def _grid_sum(boxes, coeffs, consts, tables, modulus=None, line=None):
    # sum over every cell t of the boxes (tuples of index ranges, one per
    # axis) of prod_i tables[i][x_i], exact, with the index
    # x_i = consts[i] + sum_h coeffs[i][h] t_h reduced once mod `modulus`
    # unless it is None.  With line = (j, w, extents, d) factor j is
    # instead the sum of R over the L(t) points x, x + d, ... of the line
    # through t in direction w, L(t) the fewest steps of w from t to the
    # far face of the index box of the given extents: Q[x + L d] - Q[x]
    # for the stride prefix Q[y] = R(y - d) + R(y - 2d) + ... that
    # tables[j] then holds, or L tables[j][x] when d = 0.
    # Axes that neither an index nor L reads give every one of their
    # values the same sum, so each box keeps one of them and multiplies.
    # Cells are taken in pieces of at most `limit`, each building its index
    # and length arrays from the piece's own ranges: no array but the
    # tables exceeds _CHUNK_CELLS, and a piece's int64 sum stays below
    # limit * cap <= _SUM_GUARD, cap being the product of the factors'
    # maxima
    maxima = [int(tab.max()) for tab in tables]
    read = [any(col) for col in zip(*coeffs)]
    if line is not None:
        j, w, extents, d = line
        read = [r or c != 0 for r, c in zip(read, w)]
        if not d:
            maxima[j] *= max((n - 1) // abs(c) + 1
                             for n, c in zip(extents, w) if c)
    cap = max(1, math.prod(maxima))
    limit = max(1, min(_CHUNK_CELLS, _SUM_GUARD // cap))
    total = 0
    for box in boxes:
        mult = math.prod(b - a for (a, b), r in zip(box, read) if not r)
        box = tuple(span if r else (span[0], span[0] + 1)
                    for span, r in zip(box, read))
        for piece in _pieces(box, limit):
            ts = []
            for h, (a, b) in enumerate(piece):
                shape = [1] * len(piece)
                shape[h] = b - a
                ts.append(numpy.arange(a, b, dtype=numpy.int64).reshape(shape)
                          if read[h] else None)
            prod = 1
            for i, (row, const, tab) in enumerate(zip(coeffs, consts,
                                                      tables)):
                idx = const
                for c, t in zip(row, ts):
                    if c:
                        idx = idx + c * t
                if modulus is not None:
                    idx = idx % modulus
                if line is not None and i == j:
                    L = None
                    for n, c, t in zip(extents, w, ts):
                        if c:
                            v = (n - 1 - t) // c + 1 if c > 0 else t // -c + 1
                            L = v if L is None else numpy.minimum(L, v)
                    looked = tab[idx + L * d] - tab[idx] if d else L * tab[idx]
                else:
                    looked = tab[idx]
                prod = prod * looked
            total += int(numpy.sum(prod)) * mult
    return total


def enumerate_N(job: CountJob, B: int, threads: int = 1) -> int:
    """Exact number of primary solutions in the congruence class and box.

    In t-coordinates (u = uM + M t) the box is a product of index ranges.
    One form f_j and a primitive direction w with f_i . w = 0 for every
    i != j split it into disjoint segments {t + k w : 0 <= k < L(t)}, one
    per entry point t (t - w outside the box); the entry points fill the
    |w_h|-thick slabs at the faces with w_h != 0, so there are
    O(|w|_1 B^(s-1)) of them instead of B^s cells, and (j, w) is chosen to
    make them fewest.  Each R_i is tabulated on the class of f_i(uM)
    mod M only, indexed by f_i(t) (module docstring).  Along a segment
    every R_i with i != j is constant and f_j(t) steps by d = f_j . w, so
    the segment contributes
    prod_{i != j} R_i(f_i(u)) * (P_d[x + (L - 1) d] - P_d[x - d]) with
    x the index of f_j(t) and P_d the stride-d prefix sum of R_j's class
    table, which P_d overwrites in place, or L R_j(x) when d = 0.  When
    no form admits such a w (r > s), every cell is its own segment.  With
    threads > 1 the entry points are partitioned among at most
    os.cpu_count() worker threads; partial sums are exact integers, so
    the result does not depend on the partition; fewer than
    _THREAD_MIN_CELLS entry points are summed on one thread, as the pool
    would cost more than it saves."""
    B = as_integer(B, CountingError)
    parts = min(as_integer_at_least(threads, 1, "threads", CountingError),
                os.cpu_count() or 1)
    spans = [_axis_range(job, B, j) for j in range(job.system.s)]
    if any(span is None for span in spans):
        return 0
    forms = job.system.forms
    extents = [t1 - t0 + 1 for t0, t1 in spans]
    corner = [t0 for t0, _ in spans]
    choice = _line_direction(forms, extents)
    if choice is None:
        boxes = [tuple((0, n) for n in extents)]
        j = d = line = None
    else:
        j, w = choice
        d = _dot(forms[j], w)
        boxes = _entry_boxes(extents, w)
        line = (j, w, extents, d)
    consts = []
    tables = []
    for i, form in enumerate(forms):
        # f_i(u) = f_i(uM) + M f_i(t): the table of R_i on that class mod M,
        # indexed by f_i(t) - lo, which is f_i(corner) - lo plus f_i of the
        # cell's offset from the box's least corner
        lo, hi = _form_window(form, spans)
        consts.append(_dot(form, corner) - lo)
        prefix = d and i == j
        if prefix:
            # R_j from d values before lo, in whole rows of d, so that its
            # column sums are P_d; the index f_j(t) - lo then sits d
            # entries before f_j(t)'s own and reads P_d[x - d]
            lo -= d
            hi = lo + d * -(-(hi - lo + 1) // d) - 1
        base = job._f(i, job.uM)
        tab = representation_table(BinaryForm(job.system.a[i]),
                                   base + job.M * lo, base + job.M * hi,
                                   job.M)
        if prefix:
            # in place: representation_table returns a fresh array that no
            # cache holds, so nothing else reads R_j's values
            grid = tab.reshape(-1, d)
            numpy.cumsum(grid, axis=0, out=grid)
        tables.append(tab)
    sizes = [math.prod(b - a for a, b in box) for box in boxes]
    if parts == 1 or sum(sizes) < _THREAD_MIN_CELLS:
        return _grid_sum(boxes, forms, consts, tables, line=line)
    shares = [[] for _ in range(parts)]
    for box, cells in zip(boxes, sizes):
        for q, piece in enumerate(_pieces(box, -(-cells // parts))):
            shares[q % parts].append(piece)
    shares = [share for share in shares if share]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=len(shares)) as pool:
        sums = pool.map(
            lambda bs: _grid_sum(bs, forms, consts, tables, line=line),
            shares)
        return sum(sums)


def beta_infinity(job: CountJob, B: int) -> decimal.Decimal:
    """Archimedean density: measure of the box times the mean orbit count
    of each form, as a Decimal of 30 significant digits.

    Every operation is correctly rounded, so the relative error is below
    3e-28 (< 2**-91) for r <= 8; the module docstring counts the
    roundings."""
    ctx = _CTX
    meas = region_measure(job, B)
    val = ctx.divide(meas.numerator, meas.denominator)
    for a in job.system.a:
        if a < 0:
            val = ctx.divide(ctx.multiply(val, _PI),
                             ctx.multiply(w(4 * a), ctx.sqrt(-a)))
        else:
            pell = pell_fundamental(a)
            root = ctx.sqrt(a)
            eps1 = ctx.add(pell.t, ctx.multiply(pell.u, root))
            val = ctx.divide(ctx.multiply(val, ctx.ln(eps1)),
                             ctx.multiply(2, root))
    return val


def G(job: CountJob, p: int, k: int,
      cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """#{(x, y, t) mod p^k : x_i^2 - a_i y_i^2 = g_i(t) for all i}, exact.

    The sum over t of prod_i rho_i(g_i(t)) runs along lattice lines of the
    torus (Z/p^k)^s.  For f_j and a primitive w with f_i . w = 0 for every
    i != j, some w_h is a unit mod p, so every line t + k w is a full
    cycle of length p^k meeting {t_h = 0} exactly once: p^(k(s-1)) lines.
    Along one, each rho_i with i != j is constant and g_j steps by
    d = M (f_j . w), so with g = gcd(d, p^k) it visits each residue
    x mod g exactly g times and contributes g * C_g[x mod g], C_g holding
    the residue-class sums of rho_j.  When no form admits such a w
    (r > s), every cell is its own line.  `cap` bounds the cells summed,
    m^(s-1) with a line direction and m^s without, before any table."""
    p, k = as_prime(p, CountingError), as_integer(k, CountingError)
    if k < 1:
        raise CountingError("k must be >= 1")
    s = job.system.s
    m = p**k
    forms = job.system.forms
    choice = _line_direction(forms, (m,) * s)
    cells = m ** (s if choice is None else s - 1)
    if cells > cap:
        raise CountingError(
            "G(%d^%d) sums %d cells, beyond the cap %d; raise the cap or use "
            "beta_p's stabilization shortcut" % (p, k, cells, cap))
    # g_i(t) = f_i(uM) + M f_i(t) with every coefficient reduced mod m:
    # _grid_sum reduces each index once, below (s + 1) m^2 unreduced
    coeffs = []
    consts = []
    tables = []
    for form, a in zip(forms, job.system.a):
        consts.append(_dot(form, job.uM) % m)
        coeffs.append(tuple(job.M * c % m for c in form))
        tables.append(numpy.array(rho_table(BinaryForm(a), p, k),
                                  dtype=numpy.int64))
    if choice is None:
        boxes = [((0, m),) * s]
    else:
        j, w = choice
        g = math.gcd(job.M * _dot(forms[j], w), m)
        class_sums = tables[j].reshape(m // g, g).sum(axis=0)
        tables[j] = numpy.tile(g * class_sums, m // g)
        h0 = next(h for h, c in enumerate(w) if c % p)
        boxes = [tuple((0, 1) if h == h0 else (0, m) for h in range(s))]
    return _grid_sum(boxes, coeffs, consts, tables, modulus=m)


def beta_p(job: CountJob, p: int, k_max: Optional[int] = None) -> Fraction:
    """Exact local density at p.

    p | M: p^(-(s+r)m) G(p^m) with m = val_p(M); if the mod-M data is
    solvable mod p^m the value is checked against the lower bound p^(-rm).
    Else, once k_max is checked against the first admissible k: 1 when
    the form matrix has rank r mod p, that is when p does not divide the
    gcd of its r x r minors (0 when r > s), at every p and for all a_i,
    since t -> (g_i(t)) mod p^k is uniform onto (Z/p^k)^r and
    sum_A rho(p^k; A) = p^2k for each form; otherwise detect
    G(p^(k+1)) = p^(s+r) G(p^k) at the first admissible k and return
    p^(-(s+r)k) G(p^k)."""
    p = as_prime(p, CountingError)
    if k_max is not None:
        k_max = as_integer(k_max, CountingError)
    s, r = job.system.s, job.system.r
    if job.M % p == 0:
        m = valuation(job.M, p)
        val = Fraction(G(job, p, m), p ** ((s + r) * m))
        pm = p**m
        liftable = all(
            rho_table(BinaryForm(a), p, m)[job._f(i, job.uM) % pm] > 0
            for i, a in enumerate(job.system.a))
        if liftable and val < Fraction(1, p ** (r * m)):
            raise CountingError(
                "G(%d^%d) < %d^%d despite a solvable congruence witness"
                % (p, m, p, s * m))
        return val
    bound = technical_bound(job.system, p)
    k0 = max(1, bound + 1)
    if k_max is None:
        k_max = bound + 4
    if k_max < k0:
        raise CountingError("k_max = %d is below the first admissible k = %d"
                            % (k_max, k0))
    if _minors_gcd(job.system.forms, s) % p:
        return Fraction(1)
    step = p ** (s + r)
    prev = G(job, p, k0)
    history = [(k0, prev)]
    for k in range(k0, k_max + 1):
        nxt = G(job, p, k + 1)
        history.append((k + 1, nxt))
        if nxt == step * prev:
            return Fraction(prev, p ** ((s + r) * k))
        prev = nxt
    raise CountingError(
        "no stabilization G(%d^(k+1)) = %d^(s+r) G(%d^k) for k <= %d; "
        "history %r" % (p, p, p, k_max, history))


@dataclass(frozen=True)
class DensityReport:
    """Prediction vs. exact count at one B.

    beta_p values are exact; beta_inf_per_Bs, predicted, and ratio are
    floats rounded to 53 bits from 30-digit decimal intermediates, whose
    relative error is below 3.2e-28 for r <= 8 (beta_inf's bound plus at
    most three more correctly rounded operations).
    beta_p holds every prime up to prime_cutoff and every bad prime above
    it: those dividing M and, when r <= s, those dividing the gcd of the
    r x r minors of the form matrix.  For r <= s every other factor is
    exactly 1, so the product is complete; for r > s the factors beyond
    the cutoff are 1 + O(p^-2) and are not estimated.  The note keeps its
    "tail factors ... not estimated" wording in both cases."""

    B: int
    beta_inf_per_Bs: float
    beta_p: dict
    prime_cutoff: int
    predicted: float
    empirical: int
    ratio: float
    note: str = ""

    def as_json_dict(self) -> dict:
        return json_value(self)


def predict_and_compare(job: CountJob,
                        prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
                        threads: int = 1) -> Tuple[DensityReport, ...]:
    """One DensityReport per scheduled B.

    beta_p runs at the bad primes, those dividing M or the gcd of the
    r x r minors of the form matrix: at each one up to prime_cutoff, and
    above it at those dividing M, or the gcd when it is nonzero (r <= s).
    Every other prime up to the cutoff gets 1, the value beta_p returns
    there.  If some beta_p vanishes the job is locally obstructed: the
    reports carry predicted = 0 and name the place, and the exact count is
    still taken (it must be 0)."""
    prime_cutoff = as_integer_at_least(prime_cutoff, 2, "prime_cutoff",
                                       CountingError)
    threads = as_integer_at_least(threads, 1, "threads", CountingError)
    if not job.B_schedule:
        raise CountingError("empty B schedule")
    # the gcd is 0, making every prime bad, exactly when r > s or the forms
    # are dependent; then only the primes of M are kept beyond the cutoff
    minors = _minors_gcd(job.system.forms, job.system.s)
    primes = set(_primes_upto(prime_cutoff))
    primes |= _primes_dividing((job.M, minors))
    finite = Fraction(1)
    betas = dict.fromkeys(sorted(primes), finite)
    zero_at = []
    for p in betas:
        if job.M % p == 0 or minors % p == 0:
            betas[p] = val = beta_p(job, p)
            finite *= val
            if val == 0:
                zero_at.append(p)
    if zero_at:
        note = "no prediction: beta_p = 0 at p = %s" % ", ".join(
            str(p) for p in zero_at)
    else:
        note = ("Euler product truncated at %d; tail factors 1 + O(p^-2) "
                "not estimated" % prime_cutoff)
    reports = []
    for B in job.B_schedule:
        empirical = enumerate_N(job, B, threads=threads)
        binf = beta_infinity(job, B)
        predicted, ratio = 0.0, float("nan")
        if not zero_at:
            pred = _CTX.divide(_CTX.multiply(binf, finite.numerator),
                               finite.denominator)
            predicted = float(pred)
            ratio = float(_CTX.divide(empirical, pred))
        reports.append(DensityReport(
            B=B,
            beta_inf_per_Bs=float(_CTX.divide(binf, B**job.system.s)),
            beta_p=dict(betas),
            prime_cutoff=prime_cutoff,
            predicted=predicted,
            empirical=empirical,
            ratio=ratio,
            note=note))
    return tuple(reports)
