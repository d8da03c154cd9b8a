"""Local solubility of norm-form systems, with explicit witnesses.

A system x_i^2 - a_i y_i^2 = f_i(u) is soluble at a place v when some u
makes every right-hand side a nonzero norm from the relevant quadratic
extension of Q_v.  Over the reals only signs matter: the i with a_i < 0
need f_i(u) > 0 and the rest just need f_i(u) != 0, so the question is
feasibility of a homogeneous system of strict linear inequalities and is
decided exactly by Fourier-Motzkin elimination.  Over Q_p the predicate
is finite by design: a residue u mod p^depth determines val_p(f_i(u)) and
the unit part of each value as far as its digits reach.  padic_soluble
walks the balls u + p^L Z_p^s depth first with `exactnum._balls`, the
ball walker the Brauer-Manin scans share, and reads each form on the
whole value ball: with c_i the p-content of f_i (least valuation of a
coefficient), the ball u + p^L Z_p^s maps into f_i(u) + p^(L + c_i) Z_p.
A ball is pruned when the symbol reader `exactnum._symbol_reader` of a_i,
built once per call, reads (a_i, f_i(u))_p as -1 on that value ball, or
when every value in it is 0 mod p^(depth - need + 1) and so keeps no
witness margin; no point of a pruned ball is a witness.  It accepts only
with the margin a LocalWitness keeps: every value nonzero with `need`
unit digits known (one at odd p, three bits at p = 2) and every symbol
+1, so a returned witness survives every lift.  A form of large content
thus costs a few balls instead of a tree of digits its values do not yet
read.

diagonal_quadric_soluble decides c_1 x_1^2 + ... + c_4 x_4^2 = 0 by the
classical rank-4 criterion: isotropic at v unless the determinant class
is a local square and the product of the symbols (c_i, c_j)_v over i < j
differs from (-1, -1)_v.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Optional, Sequence, Tuple

from .exactnum import (
    ExactNumError,
    Place,
    REAL_PLACE,
    _balls,
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
from .pencil import NormFormSystem, technical_bound


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
    if s == 1:
        signs = {c > 0 for (c,) in clean}
        if len(signs) == 2:
            return None
        if not clean:
            return (Fraction(1),)
        return (Fraction(1) if signs == {True} else Fraction(-1),)
    lower, upper, passed = [], [], []
    for row in clean:
        c = row[-1]
        if c > 0:
            lower.append(row)
        elif c < 0:
            upper.append(row)
        else:
            passed.append(row[:-1])
    combined = list(passed)
    for lo in lower:
        for up in upper:
            # lo_s (up . u) - up_s (lo . u) > 0 eliminates the last variable
            combined.append(tuple(lo[-1] * up[j] - up[-1] * lo[j]
                                  for j in range(s - 1)))
    rest = _fm_witness(combined, s - 1)
    if rest is None:
        return None
    lo_vals = [-_dot(row[:-1], rest) / row[-1] for row in lower]
    up_vals = [-_dot(row[:-1], rest) / row[-1] for row in upper]
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
    # nudge off the remaining hyperplanes while keeping the strict rows
    if _real_witness(system, base):
        return True, LocalWitness(place=REAL_PLACE, u=base)
    for t in range(system.r * s + 1):
        direction = tuple(Fraction(t)**j for j in range(s))
        eps = Fraction(1)
        for _ in range(64):
            cand = tuple(b + eps * d for b, d in zip(base, direction))
            if _real_witness(system, cand):
                return True, LocalWitness(place=REAL_PLACE, u=cand)
            eps /= 2
    raise LocalSolveError("could not perturb the witness off a hyperplane")


def _real_witness(system: NormFormSystem, u) -> bool:
    """Whether the rational point u has f_i(u) > 0 for the i with a_i < 0
    and f_i(u) != 0 for every i, read in integers on the positive
    multiple of u that clears its denominators."""
    _, v = _clear_denominators(u)
    values = (_dot(f, v) for f in system.forms)
    return all(x > 0 if a < 0 else x != 0 for a, x in zip(system.a, values))


# ---------------------------------------------------------------------------
# finite places


def padic_soluble(system: NormFormSystem, p: int, depth: Optional[int] = None):
    """Search u mod p^depth certifying solubility at p.

    Returns (verdict, witness).  True means some residue u has every
    f_i(u) != 0 mod p^depth with all symbols (a_i, f_i(u))_p determined
    by the residue and equal to +1; such a u survives arbitrary lifting.

    The search walks the balls u + p^L Z_p^s depth first in digit order,
    through the package's one ball walker `exactnum._balls`, and returns
    the first residue that is a witness.  On such a ball the form f_i, of
    p-content c_i, takes values only in x_i + p^(L + c_i) Z_p with
    x_i = f_i(u), so a ball is cut when the symbol read on that value
    ball is -1, or when L + c_i > depth - need and
    x_i = 0 mod p^(depth - need + 1), since then every value of every lift
    is too divisible to keep the witness margin.  Both cuts drop only
    balls with no witness in them, so the surviving balls keep their
    order and the first witness is the one a plain digit search finds.
    Acceptance needs v_p(x_i) <= L - need, which already fixes the symbol
    on x_i + p^L Z_p, equal to the one read on the smaller value ball; so
    one symbol read per form serves both the cut and the acceptance.
    """
    p = as_prime(p, LocalSolveError)
    if depth is not None:
        depth = as_integer(depth, LocalSolveError)
    bound = technical_bound(system, p)
    if depth is None:
        # floor of 4, a heuristic: degenerate form matrices force extra
        # valuation on the values, and p^4 covers common cases but not
        # all: at p = 5, a = (-1, -3), forms ((0, 25), (125, 0)) it reports
        # insoluble, while depth 9 finds the witness u = (3125, 15625)
        depth = max(bound + 2, 4)
    if depth < bound + 1:
        raise LocalSolveError(
            "depth %d is below the technical bound %d" % (depth, bound + 1))
    fast = _good_prime_witness(system, p, depth)
    if fast is not None:
        return True, fast
    need = 3 if p == 2 else 1  # unit digits a LocalWitness keeps
    power = list(accumulate(repeat(p, depth), mul, initial=1))
    # (f_i, its symbol reader, c_i the p-content of f_i: the valuation
    # of the gcd of its coefficients)
    rows = [(f, _symbol_reader(ai, p), _valuation_unit(math.gcd(*f), p)[0])
            for ai, f in zip(system.a, system.forms)]
    late = depth - need  # value balls finer than p^late can be dead
    dead = power[late + 1]  # values 0 mod dead keep no margin

    def read(u, level):
        # False when no lift of u mod p^level is a witness: on the value
        # ball of some f_i the symbol is -1, or every value is 0 mod dead;
        # True when u is a witness: every symbol +1 with `need` unit digits
        # of every value known; None when a lift may still be one
        accept = level >= need
        margin = power[level - need + 1] if accept else 0
        for f, sym, c in rows:
            x = _dot(f, u)
            K = level + c
            value = sym(x, K)
            if value == -1 or (K > late and x % dead == 0):
                return False
            accept = accept and value == 1 and x % margin != 0
        return True if accept else None

    for _, u, ok in _balls(p, system.s, depth, read):
        if ok:
            return True, LocalWitness(place=Place(p), u=u, precision=depth)
    return False, None


def _good_prime_witness(system: NormFormSystem, p: int, depth: int):
    """Immediate witness at odd p where every a_i is a p-adic unit.

    If some u mod p keeps every f_i(u) a unit, all symbols are symbols of
    two units at an odd place and equal +1.  Candidates run through the
    moment curve, which meets each hyperplane f_i = 0 at most s - 1
    times.
    """
    r, s = system.r, system.s
    if p == 2 or p <= r * (s - 1) or not all(a % p for a in system.a):
        return None
    for t in range(r * (s - 1) + 1):
        u = tuple(pow(t, j, p**depth) if t else (1 if j == 0 else 0)
                  for j in range(s))
        if all(_dot(f, u) % p for f in system.forms):
            return LocalWitness(place=Place(p), u=u, precision=depth)
    return None


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
    """
    L = as_integer(L, LocalSolveError)
    primes = {2, *_primes_upto(L)}
    primes |= _primes_dividing(chain(system.a, *system.forms))
    places = [REAL_PLACE] + [Place(q) for q in sorted(primes)]
    bad = []
    witnesses = []
    for place in places:
        if place.is_real:
            ok, wit = real_soluble(system)
        else:
            ok, wit = padic_soluble(system, place.p, depth)
        if ok:
            witnesses.append((place, wit))
        else:
            bad.append(place)
    return LocalReport(
        soluble=not bad,
        bad_places=tuple(bad),
        witnesses=tuple(witnesses),
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
