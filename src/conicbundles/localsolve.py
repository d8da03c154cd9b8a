"""Local solubility of norm-form systems, with explicit witnesses.

A system x_i^2 - a_i y_i^2 = f_i(u) is soluble at a place v when some u
makes every right-hand side a nonzero norm from the relevant quadratic
extension of Q_v.  Over the reals only signs matter: the i with a_i < 0
need f_i(u) > 0 and the rest just need f_i(u) != 0, so the question is
feasibility of a homogeneous system of strict linear inequalities and is
decided exactly by Fourier-Motzkin elimination.  Over Q_p the predicate
is finite by design: a residue u mod p^depth determines val_p(f_i(u)) and
the unit part of each value as far as its digits reach.  padic_soluble
takes a good place's witness from the moment curve, else walks the balls
u + p^L Z_p^s with `exactnum._balls` reading each form on its whole value
ball; its docstring states the cuts and the margin every witness keeps.

diagonal_quadric_soluble decides c_1 x_1^2 + ... + c_4 x_4^2 = 0 by the
classical rank-4 criterion: isotropic at v unless the determinant class
is a local square and the product of the symbols (c_i, c_j)_v over i < j
differs from (-1, -1)_v.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Optional, Sequence, Tuple

from .exactnum import (
    ExactNumError,
    Place,
    REAL_PLACE,
    _balls,
    _checked_place,
    _clear_denominators,
    _dot,
    _primes_dividing,
    _primes_upto,
    _primitive,
    _symbol_reader,
    _valuation_unit,
    as_integer,
    as_prime,
    as_rational,
    hilbert,
    legendre,
)
from .pencil import NormFormSystem


class LocalSolveError(ExactNumError):
    pass


@dataclass(frozen=True)
class LocalWitness:
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
    eliminated variable must occupy.  Rows are kept primitive, a positive
    rescaling that keeps every inequality and back-substituted bound.
    """
    clean = []
    for row in rows:
        if not any(row):
            return None  # 0 > 0 is infeasible
        nr = _primitive(row)
        if nr not in clean:
            clean.append(nr)
    if s == 0:
        return ()  # no rows: an empty one (0 > 0) returned None above
    lower = [row for row in clean if row[-1] > 0]
    upper = [row for row in clean if row[-1] < 0]
    combined = [row[:-1] for row in clean if not row[-1]]
    for lo in lower:
        for up in upper:
            # lo_s (up . u) - up_s (lo . u) > 0 eliminates the last variable
            combined.append(tuple(lo[-1] * up[j] - up[-1] * lo[j]
                                  for j in range(s - 1)))
    rest = _fm_witness(combined, s - 1)
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


def real_soluble(system: NormFormSystem):
    """Whether f_i(u) > 0 for all i with a_i < 0 is feasible over R.

    Returns (verdict, witness); the witness additionally avoids the
    hyperplanes f_i = 0 of the indefinite indices.
    """
    s = system.s
    base = _fm_witness([system.forms[i] for i in system.i_minus], s)
    if base is None:
        return False, None
    # nudge base off the hyperplanes through it, along no direction in them
    _, v = _clear_denominators(base)
    through = [f for f in system.forms if not _dot(f, v)]
    if not through:
        return True, LocalWitness(place=REAL_PLACE, u=base)
    for t in range(system.r * s + 1):
        direction = tuple(Fraction(t)**j for j in range(s))
        if any(not _dot(f, direction) for f in through):
            continue
        eps = Fraction(1)
        for _ in range(64):
            cand = tuple(b + eps * d for b, d in zip(base, direction))
            _, v = _clear_denominators(cand)  # read in integers
            if all(x > 0 if a < 0 else x for a, x in
                   zip(system.a, [_dot(f, v) for f in system.forms])):
                return True, LocalWitness(place=REAL_PLACE, u=cand)
            eps /= 2
    raise LocalSolveError("could not perturb the witness off a hyperplane")


# ---------------------------------------------------------------------------
# finite places


def padic_soluble(system: NormFormSystem, p: int, depth: Optional[int] = None):
    """Search u mod p^depth certifying solubility at p.

    Returns (verdict, witness).  True means some residue u has every
    f_i(u) != 0 mod p^depth with all symbols (a_i, f_i(u))_p determined
    by the residue and equal to +1; such a u survives arbitrary lifting.

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
    valuation above late = depth - need keeps the witness margin, so
    floor_i = late + 1, or late when the symbol is -1 on every unit times
    p^late.  Both cuts drop only balls with no witness in them, so the
    surviving balls keep their order and the first witness is the one a
    plain digit search finds.
    Acceptance needs v_p(x_i) <= L - need, which already fixes the symbol
    on x_i + p^L Z_p, equal to the one read on the smaller value ball; so
    one symbol read per form serves both the cut and the acceptance.
    """
    place = Place(as_prime(p, LocalSolveError))
    depth = None if depth is None else as_integer(depth, LocalSolveError)
    return _place_solver(system)(place, depth)


def _place_solver(system: NormFormSystem):
    """solve(place, depth): `padic_soluble` with p and depth coerced.  What
    no prime changes is read here once; an odd p divides quad_product
    exactly when the technical bound max v_p(4 a_i) is positive."""
    s, forms = system.s, system.forms
    quads = [4 * a for a in system.a]
    quad_product = math.prod(quads)
    gcds = [math.gcd(*f) for f in forms]
    top = system.r * (s - 1)
    moment = [(u, math.prod([sum(map(mul, f, u)) for f in forms])) for u in
              (tuple(t**j for j in range(s)) for t in range(top + 1))]

    def solve(place, depth):
        p = place.p
        bound = 0 if quad_product % p else max(
            _valuation_unit(x, p)[0] for x in quads)
        if depth is None:
            # floor of 4, a heuristic: degenerate form matrices force extra
            # valuation on the values, and p^4 covers common cases but not
            # all: at p = 5, a = (-1, -3), forms ((0, 25), (125, 0)) it
            # reports insoluble, while depth 9 finds u = (3125, 15625)
            depth = max(bound + 2, 4)
        if depth < bound + 1:
            raise LocalSolveError("depth %d is below the technical bound %d"
                                  % (depth, bound + 1))
        if bound == 0 and p > top:
            for u, product in moment:
                if product % p:
                    return True, LocalWitness(
                        place=place, u=tuple([x % p**depth for x in u]),
                        precision=depth)
        need = 3 if p == 2 else 1  # unit digits a LocalWitness keeps
        power = list(accumulate(repeat(p, depth), mul, initial=1))
        late = depth - need  # the largest valuation a witness's value has
        rows = []  # (f_i, its reader, c_i, floor_i - c_i, p^floor_i)
        for a, f, g in zip(system.a, forms, gcds):
            sym = _symbol_reader(a, p)
            c = _valuation_unit(g, p)[0] if g % p == 0 else 0
            floor = late if _shell_minus(a, p, late) else late + 1
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

        for _, u, ok in _balls(p, s, depth, read):
            if ok:
                return True, LocalWitness(place=place, u=u, precision=depth)
        return False, None
    return solve


@lru_cache(maxsize=1024)
def _shell_minus(a: int, p: int, v: int) -> bool:
    """Whether (a, p^v y)_p = -1 for every unit y, read at one unit per
    square class: 1, 3, 5, 7 at p = 2, else 1 and the least non-residue.
    Cached: every digit search at p asks it once per form."""
    units = (3, 5, 7) if p == 2 else (
        next(y for y in range(2, p) if legendre(y, p) == -1),)
    return all(_symbol_reader(a, p)(p**v * y, v + 3) < 0 for y in (1, *units))


@dataclass(frozen=True)
class LocalReport:
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
    4 by a heuristic, so a place insoluble at the default depth may be
    soluble deeper (see `padic_soluble`); soluble places carry witnesses.

    Each system is prepared once for all places: L, depth and the Places
    are coerced once, and prod 4 a_i, the form gcds and prod_i f_i(u_t) at
    the moment-curve points are read once, so a good place's witness, the
    first u_t whose product is prime to p, costs a remainder per point.
    """
    L = as_integer(L, LocalSolveError)
    depth = None if depth is None else as_integer(depth, LocalSolveError)
    primes = {2, *_primes_upto(L)}
    primes |= _primes_dividing(chain(system.a, *system.forms))
    places = [REAL_PLACE] + [Place(q) for q in sorted(primes)]
    solve = _place_solver(system)
    found = [(v, real_soluble(system) if v.is_real else solve(v, depth))
             for v in places]
    bad = tuple(v for v, (ok, _) in found if not ok)
    return LocalReport(
        soluble=not bad,
        bad_places=bad,
        witnesses=tuple((v, wit) for v, (ok, wit) in found if ok),
        checked=tuple(places),
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
