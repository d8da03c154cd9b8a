"""Local solubility of norm-form systems, with explicit witnesses.

A system x_i^2 - a_i y_i^2 = f_i(u) is soluble at a place v when some u
makes every right-hand side a nonzero norm from the relevant quadratic
extension of Q_v.  Over the reals only signs matter: the i with a_i < 0
need f_i(u) > 0 and the rest just need f_i(u) != 0, so the question is
feasibility of a homogeneous system of strict linear inequalities and is
decided exactly by Fourier-Motzkin elimination.  Its point depends only on
the open cone, not on the rows that cut it out, so the combined rows that
Chernikov's rule shows redundant are dropped with no point changed, and
the rows no longer square at each elimination.  Over Q_p the predicate
is finite by design: a residue u mod p^depth determines val_p(f_i(u)) and
the unit part of each value as far as its digits reach.  padic_soluble
takes a good place's witness from the moment curve, else walks the balls
u + p^L Z_p^s with `exactnum._balls` reading each form on its whole value
ball; its docstring states the cuts and the margin every witness keeps.
When that walk ends empty, a null vector (w, c), c != 0, of [F | -1]
gives u = c w with every f_i(u) = c^2: x_i = c, y_i = 0 is a rational point.

diagonal_quadric_soluble decides c_1 x_1^2 + ... + c_4 x_4^2 = 0 by the
classical rank-4 criterion: isotropic at v unless the determinant class
is a local square and the product of the symbols (c_i, c_j)_v over i < j
differs from (-1, -1)_v.
"""

import math
from fractions import Fraction
from itertools import accumulate, chain, product, repeat
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple

from .exactnum import (
    ExactNumError,
    Place,
    REAL_PLACE,
    Verdict,
    _balls,
    _checked_place,
    _clear_denominators,
    _decimal,
    _dot,
    _minus_on_odd_shells,
    _nullspace,
    _places,
    _primes_dividing,
    _primes_upto,
    _primitive,
    _symbol_reader,
    _unit_digits,
    _valuation_unit,
    as_integer,
    as_prime,
    as_rational,
    hilbert,
    legendre,
)
from .pencil import NormFormSystem, technical_bound


class LocalSolveError(ExactNumError):
    pass


class LocalWitness(NamedTuple):
    """A certified local point of the parameter space.

    Finite place: u is a residue vector mod p^precision with every
    f_i(u) != 0 mod p^precision and all symbols determined and +1.
    Real place: u is rational with f_i(u) > 0 for the definite indices
    and f_i(u) != 0 everywhere.
    """

    place: Place
    u: Tuple
    precision: Optional[int] = None


# ---------------------------------------------------------------------------
# the real place


def _fm_witness(rows, s: int):
    """A rational point with row . u > 0 for every integer row, or None.

    Homogeneous strict system; eliminates the last variable, recursing on
    the combined system, then back-substitutes into the open interval the
    eliminated variable must occupy: its midpoint, one past its only end,
    or 1 when it is unbounded both ways.  Rows are kept primitive, a
    positive rescaling that keeps every inequality and back-substituted
    bound.

    The point is a function of the open cone the rows cut out, not of the
    rows.  At any point of the cone's projection, the largest lower and
    the least upper bound are the ends of the cone's fibre over it,
    whatever rows describe the cone; so by induction on s any rows that
    cut out each projected cone give the same point, and None exactly when
    the cone is empty.  The rows that bound no projected cone are
    therefore dropped, by Chernikov's rule (Imbert, "Fourier's elimination:
    which to choose?", PPCP 1993).  Each row carries its history, the
    input rows it combines, the smaller one when a row arrives twice.
    After the (k + 1)-th elimination, a combination of more than k + 2
    input rows is a positive combination of kept rows, so it cuts nothing
    off the open cone.  Only 0 > 0 is not implied that way; two primitive
    rows combine to it exactly when one is the other's negation, so such
    a pair is looked for before any row is dropped.
    """
    return _fm_point({_primitive(row): 1 << i for i, row in enumerate(rows)},
                     s, 2)


def _fm_point(rows, s: int, cap: int):
    """`_fm_witness` on primitive rows mapped to their histories, as bit
    sets of the input rows; a combination of more than cap input rows is
    dropped."""
    if s == 0:
        return None if rows else ()  # a row left here reads 0 > 0
    lower = [row for row in rows if row[-1] > 0]
    upper = [row for row in rows if row[-1] < 0]
    if any(tuple([-x for x in lo]) in rows for lo in lower):
        return None  # lo + (-lo) is 0 > 0
    combined = {row[:-1]: h for row, h in rows.items() if not row[-1]}
    for lo, up in product(lower, upper):
        h = rows[lo] | rows[up]
        if h.bit_count() <= cap:
            # lo_s (up . u) - up_s (lo . u) > 0 eliminates the last variable
            nr = _primitive([lo[-1] * up[j] - up[-1] * lo[j]
                             for j in range(s - 1)])
            combined[nr] = min(combined.get(nr, h), h, key=int.bit_count)
    rest = _fm_point(combined, s - 1, cap + 1)
    if rest is None:
        return None
    # each bound -(row' . rest) / row_s over rest's common denominator D
    D, n = _clear_denominators(rest)
    lo_vals = [Fraction(-_dot(row[:-1], n), D * row[-1]) for row in lower]
    up_vals = [Fraction(-_dot(row[:-1], n), D * row[-1]) for row in upper]
    if lo_vals and up_vals:
        last = (max(lo_vals) + min(up_vals)) / 2
    elif lo_vals:
        last = max(lo_vals) + 1
    elif up_vals:
        last = min(up_vals) - 1
    else:
        last = Fraction(1)
    return rest + (last,)


def real_soluble(system: NormFormSystem) -> Verdict:
    """Whether f_i(u) > 0 for all i with a_i < 0 is feasible over R.

    Returns a Verdict whose evidence, when it holds, is a witness that
    also avoids the hyperplanes f_i = 0 of the indefinite indices: it is
    base + eps d, d the first (1, t, ..., t^(s - 1)), t = 0, ..., r s,
    off every hyperplane through base (a nonzero form vanishes at s - 1
    of these at most), so those forms take eps f(d) != 0, and eps = 1,
    1/2, ... halves until the other forms keep their signs at base, as
    all do for small eps.
    """
    s = system.s
    base = _fm_witness([system.forms[i] for i in system.i_minus], s)
    if base is None:
        return Verdict(False, None)
    _, v = _clear_denominators(base)
    through = [f for f in system.forms if not _dot(f, v)]
    if not through:
        return Verdict(True, LocalWitness(place=REAL_PLACE, u=base))
    direction = next(d for d in (tuple(Fraction(t)**j for j in range(s))
                                 for t in range(system.r * s + 1))
                     if all(_dot(f, d) for f in through))
    eps = Fraction(1)
    while True:
        cand = tuple(b + eps * d for b, d in zip(base, direction))
        _, v = _clear_denominators(cand)  # read in integers
        if all(x > 0 if a < 0 else x for a, x in
               zip(system.a, [_dot(f, v) for f in system.forms])):
            return Verdict(True, LocalWitness(place=REAL_PLACE, u=cand))
        eps /= 2


# ---------------------------------------------------------------------------
# finite places


def padic_soluble(system: NormFormSystem, p: int,
                  depth: Optional[int] = None) -> Verdict:
    """Search u mod p^depth certifying solubility at p.

    Returns a Verdict whose evidence, when it holds, is the witness.  It
    holds when some residue u has every f_i(u) != 0 mod p^precision with
    all symbols (a_i, f_i(u))_p determined by the residue and equal to
    +1; such a u survives arbitrary lifting.  The precision is depth, or
    more for the square witness below.

    At a good place, an odd p > r(s - 1) dividing no a_i, the witness is
    the first u_t = (1, t, ..., t^(s - 1)), t = 0, ..., r(s - 1), with
    every f_i(u_t) a unit, so every symbol is +1; each form vanishes at
    s - 1 of them at most unless p divides it, when the search runs.

    Otherwise the search walks the balls u + p^L Z_p^s depth first in
    digit order, through the package's one ball walker `exactnum._balls`,
    and returns the first residue that is a witness.  On such a ball the
    form f_i, of p-content c_i, takes values only in x_i + p^(L + c_i) Z_p
    with x_i = f_i(u), so a ball is cut when the symbol read on that value
    ball is -1, or when the value ball lies in p^floor_i Z_p: no value of
    valuation above late = depth - need keeps the witness margin
    (need = `exactnum._unit_digits(p)`), so floor_i = late + 1, or late
    when the symbol is -1 on every unit times p^late.  The symbol
    formulas decide that without a read: late is odd, v_p(a_i) even and
    the unit part of a_i a non-residue mod p (5 mod 8 at p = 2), as
    `exactnum._minus_on_odd_shells` reads once per a_i.  Both cuts drop
    only balls with no witness in them, so the surviving balls keep their
    order and the first witness is the one a plain digit search finds.
    Acceptance needs v_p(x_i) <= L - need, which already fixes the symbol
    on x_i + p^L Z_p, equal to the one read on the smaller value ball; so
    one symbol read per form serves both the cut and the acceptance.
    The walk runs over the coordinates some form reads and writes 0 in the
    others, where the digit search's first witness has 0 as well.

    A walk that ends empty is not yet a verdict when (1, ..., 1) is in the
    column space of the form matrix F, as for r <= s forms of rank r.  Then
    `exactnum._nullspace` on [F | -1] gives (w, c) with F w = c (1, ..., 1)
    and c != 0, so u = c w has every f_i(u) = c^2: x_i = c, y_i = 0 is a
    rational point.  That square witness is returned reduced mod
    p^precision, precision = max(v_p(c^2) + need, bound + 1), which exceeds
    depth: there the walk found nothing.  It is built once per system, on
    the first empty walk.  So Verdict(False, None) comes only from forms
    with (1, ..., 1) outside their column space, and means no witness mod
    p^depth, not insolubility: a deeper search may still find one.
    """
    place = Place(as_prime(p, LocalSolveError))
    depth = None if depth is None else as_integer(depth, LocalSolveError)
    return _place_solver(system)(place, depth)


def _place_solver(system: NormFormSystem):
    """solve(place, depth): `padic_soluble` with p and depth coerced.  What
    no prime changes is read here once; p divides quad_product exactly
    when the technical bound max v_p(4 a_i) is positive."""
    s, forms = system.s, system.forms
    quad_product = math.prod([4 * a for a in system.a])
    gcds = [math.gcd(*f) for f in forms]
    top = system.r * (s - 1)
    moment = [(u, math.prod([sum(map(mul, f, u)) for f in forms])) for u in
              (tuple(t**j for j in range(s)) for t in range(top + 1))]
    # the digit walk runs over the coordinates some form reads and leaves
    # the others 0: a ball with digit d != 0 there has a twin with digit 0
    # that comes first in digit order and reads the same symbols
    columns = list(zip(*forms))
    read_at = [j for j, col in enumerate(columns) if any(col)]
    read_forms = list(zip(*[col for col in columns if any(col)]))
    square = []  # the square witness, built on the first empty walk

    def solve(place, depth):
        p = place.p
        bound = 0 if quad_product % p else technical_bound(system, p)
        if depth is None:
            # floor of 4, a heuristic: degenerate form matrices force extra
            # valuation on the values, and p^4 covers common cases but not
            # all.  At p = 5, a = (-1, -3), forms ((0, 25), (125, 0)) the
            # walk finds nothing, where depth 9 finds u = (3125, 15625);
            # the square witness below answers, here u = (125, 625) at
            # precision 7
            depth = max(bound + 2, 4)
        if depth < bound + 1:
            raise LocalSolveError(
                "depth %s at p = %d does not exceed the technical bound %d"
                % (_decimal(depth), p, bound))
        if bound == 0 and p > top:
            for u, product in moment:
                if product % p:
                    return Verdict(True, LocalWitness(
                        place=place, u=tuple([x % p**depth for x in u]),
                        precision=depth))
        need = _unit_digits(p)  # the unit digits a LocalWitness keeps
        power = list(accumulate(repeat(p, depth), mul, initial=1))
        late = depth - need  # the largest valuation a witness's value has
        rows = []  # (f_i, its reader, c_i, floor_i - c_i, p^floor_i)
        for a, f, g in zip(system.a, read_forms, gcds):
            sym = _symbol_reader(a, p)
            c = _valuation_unit(g, p)[0] if g % p == 0 else 0
            shell = late & 1 and _minus_on_odd_shells(a, p)
            floor = late if shell else late + 1
            rows.append((f, sym, c, floor - c, power[floor]))

        def read(u, level):
            # False when no lift of u mod p^level is a witness (a value ball
            # lies in p^floor_i Z_p or reads -1), True when u is one: every
            # symbol +1 with `need` unit digits known; else None
            accept = level >= need
            margin = power[level - need + 1] if accept else 0
            for f, sym, c, floor_level, floor_power in rows:
                x = sum(map(mul, f, u))
                if level >= floor_level and not x % floor_power:
                    return False
                value = sym(x, level + c)
                if value == -1:
                    return False
                accept = accept and value == 1 and x % margin != 0
            return True if accept else None

        for _, u, ok in _balls(p, len(read_at), depth, read):
            if ok:
                witness = [0] * s
                for j, x in zip(read_at, u):
                    witness[j] = x
                return Verdict(True, LocalWitness(
                    place=place, u=tuple(witness), precision=depth))
        if not square:
            square.append(_square_witness(forms))
        if square[0] is None:
            return Verdict(False, None)
        # every f_i(u) = c^2: kept to v_p(c^2) + need digits, each value
        # keeps its unit square class, so every symbol is +1
        c, u = square[0]
        precision = max(2 * _valuation_unit(c, p)[0] + need, bound + 1)
        return Verdict(True, LocalWitness(
            place=place, u=tuple([x % p**precision for x in u]),
            precision=precision))
    return solve


def _square_witness(forms):
    """(c, u) with f_i(u) = c^2 != 0 for every form, or None when
    (1, ..., 1) is not in the column space of the form matrix F.  A null
    vector (w, c) of [F | -1] with c != 0 exists exactly when the last
    column is free, and `_nullspace` lists that column's vector last, with
    c > 0; F w = c (1, ..., 1), so u = c w has F u = c^2 (1, ..., 1)."""
    s = len(forms[0])
    basis = _nullspace([[*f, -1] for f in forms], s + 1)
    if not basis or not basis[-1][-1]:
        return None
    *w, c = basis[-1]
    return c, [c * x for x in w]


class LocalReport(NamedTuple):
    soluble: bool
    bad_places: Tuple[Place, ...]
    witnesses: Tuple[Tuple[Place, LocalWitness], ...]
    checked: Tuple[Place, ...]


def everywhere_locally_soluble(system: NormFormSystem, L: int = 100,
                               depth: Optional[int] = None) -> LocalReport:
    """Check the real place, 2, all odd p <= L, and all bad primes.

    Bad primes are those dividing some a_i or some coefficient of some
    f_i; beyond them and L, solubility is automatic for odd good primes.
    The per-prime depth defaults to the technical bound + 2, floored at
    4 by a heuristic.  Forms with (1, ..., 1) in their column space have
    a rational point, so the square witness makes every prime soluble where
    the walk finds nothing; otherwise a place insoluble at the default
    depth may be soluble deeper (see `padic_soluble`).  Soluble places
    carry witnesses.  An L past
    DEFAULT_ENUMERATION_CAP raises LocalSolveError before the sieve.

    Each system is prepared once for all places: L, depth and the Places
    are coerced once, and prod 4 a_i, the form gcds and prod_i f_i(u_t) at
    the moment-curve points are read once, so a good place's witness, the
    first u_t whose product is prime to p, costs a remainder per point.
    """
    L = as_integer(L, LocalSolveError)
    depth = None if depth is None else as_integer(depth, LocalSolveError)
    places = _places(chain(_primes_upto(L, LocalSolveError),
                           _primes_dividing(chain(system.a, *system.forms))))
    solve = _place_solver(system)
    found = [(v, real_soluble(system) if v.is_real else solve(v, depth))
             for v in places]
    bad = tuple(v for v, verdict in found if not verdict.holds)
    return LocalReport(
        soluble=not bad,
        bad_places=bad,
        witnesses=tuple((v, verdict.evidence) for v, verdict in found
                        if verdict.holds),
        checked=places,
    )


# ---------------------------------------------------------------------------
# quaternary diagonal forms


def _is_local_square(x: Fraction, place: Place) -> bool:
    if place.is_real:
        return x > 0
    p = place.p
    v, unit = _valuation_unit(x, p)
    if v % 2 != 0:
        return False
    if p == 2:
        return unit % 8 == 1
    return legendre(unit, p) == 1


def diagonal_quadric_soluble(coeffs: Sequence, place: Place) -> bool:
    """Whether c_1 x_1^2 + c_2 x_2^2 + c_3 x_3^2 + c_4 x_4^2 = 0 has a
    nontrivial point over the completion at `place`.

    A rank-4 form is anisotropic exactly when its determinant is a local
    square and the product of the symbols (c_i, c_j) over i < j is the
    negative of (-1, -1).
    """
    _checked_place(place, LocalSolveError)
    c = [as_rational(x, LocalSolveError) for x in coeffs]
    if len(c) != 4 or any(x == 0 for x in c):
        raise LocalSolveError("four nonzero coefficients are required")
    det = c[0] * c[1] * c[2] * c[3]
    if not _is_local_square(det, place):
        return True
    eps = 1
    for i in range(4):
        for j in range(i + 1, 4):
            eps *= hilbert(c[i], c[j], place)
    return eps == hilbert(-1, -1, place)
