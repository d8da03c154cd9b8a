"""Local-solubility verdicts against facts that hold whatever the library
computes: the rational points that the test-side search of ROADMAP item
17 finds, and the good-place theorem behind item 19.  A verdict known to
be wrong is a strict xfail citing its item, so the fix shows as an XPASS,
which fails the run until the mark goes."""

import math
import random
from fractions import Fraction

import pytest

from conicbundles.localsolve import (everywhere_locally_soluble,
                                     padic_soluble, real_soluble)
from conicbundles.pencil import (ConicBundleData, NormFormSystem, PencilError,
                                 torsor_system)
from jobs import local_pool_system
from oracle import check_local_witness, valuation
from reference import (brute_hilbert, random_classes, rational_point_search,
                       trial_primes)

# x_i^2 - a_i y_i^2 = f_i(u, v) with a = (-6, 5, -1) and the forms u + 2v,
# 8u + 2v and 32u + 32v: (u, v) = (2, 2) with x = (0, 5, 8), y = (1, 1, 8)
# solves it, yet the search at the default depth finds no 2-adic point
SOLVED = NormFormSystem(r=3, s=2, a=(-6, 5, -1),
                        forms=((1, 2), (8, 2), (32, 32)))
POINT, X, Y = (2, 2), (0, 5, 8), (1, 1, 8)


def test_solved_system_has_a_rational_point():
    for ai, f, x, y in zip(SOLVED.a, SOLVED.forms, X, Y):
        assert x * x - ai * y * y == f[0] * POINT[0] + f[1] * POINT[1]
    assert rational_point_search(SOLVED.a, SOLVED.forms, 12, 30) is not None
    ok, wit = padic_soluble(SOLVED, 2, depth=8)
    assert ok
    assert check_local_witness(SOLVED.a, SOLVED.forms, 2, wit.u,
                               wit.precision) is None


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the default depth max(bound + 2, 4) is a heuristic, "
    "and the walk at it reads the place 2 insoluble"))
def test_solved_system_is_everywhere_locally_soluble():
    assert everywhere_locally_soluble(SOLVED).soluble


def test_point_search_finds_none_on_a_real_insoluble_system():
    # u, v and -u - v are never all positive, so every (-1, c f_i)_oo = +1
    # fails for some i
    assert rational_point_search((-1, -1, -1), ((1, 0), (0, 1), (-1, -1)),
                                 12, 30) is None


def test_point_search_agrees_with_real_soluble():
    # a rational point is a local point everywhere: wherever the search
    # finds one, real_soluble must say soluble, and the point must pass the
    # witness checker at infinity and at every prime of 2 a_i f_i.  Half the draws are the local workload's,
    # which are nearly all real soluble; in the other half every a_i is
    # negative, so every form must be positive at a real point
    rng = random.Random(1717)
    found = real_insoluble = 0
    for index in range(300):
        if index % 2:
            system = local_pool_system(rng, rng.choice((2, 3, 5)))
        else:
            r = rng.randint(3, 4)
            a = tuple(rng.choice((-1, -2, -3, -5, -6)) for _ in range(r))
            forms = tuple((rng.randint(-6, 6), rng.randint(-6, 6))
                          for _ in range(r))
            try:
                system = NormFormSystem(r=r, s=2, a=a, forms=forms)
            except PencilError:
                continue
        if system.s != 2:
            continue
        hit = rational_point_search(system.a, system.forms, 6, 10)
        real = real_soluble(system)[0]
        real_insoluble += not real
        if hit is None:
            continue
        found += 1
        c, (u0, v0) = hit
        u = (c * u0, c * v0)
        assert real, (system, hit)
        assert check_local_witness(system.a, system.forms, None, u, 0) is None
        values = [f[0] * u[0] + f[1] * u[1] for f in system.forms]
        for p in trial_primes(2 * math.prod(system.a) * math.prod(values)):
            precision = max(valuation(n, p) for n in values) + 3
            assert check_local_witness(system.a, system.forms, p, u,
                                       precision) is None, (system, hit, p)
    assert found >= 80 and real_insoluble >= 30, (found, real_insoluble)


def test_good_places_need_no_check():
    # an odd prime p > r(s - 1) dividing no a_i and no coefficient is
    # soluble by the moment curve (padic_soluble's docstring), so checking
    # the odd primes up to r(s - 1) besides the bad ones decides as much as
    # checking every odd prime up to 100
    rng = random.Random(1919)
    poles = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
    systems = [local_pool_system(rng, rng.choice((2, 3, 5, 7)))
               for _ in range(80)]
    for _ in range(40):
        r = rng.randint(2, 5)
        e = rng.sample(poles, r)
        a = tuple(random_classes(rng, r, force_faddeev=True))
        systems.append(torsor_system(ConicBundleData(e=tuple(e), a=a)))
    bad = 0
    for system in systems:
        few = everywhere_locally_soluble(
            system, L=max(2, system.r * (system.s - 1)))
        full = everywhere_locally_soluble(system, L=100)
        assert (few.soluble, few.bad_places) == \
            (full.soluble, full.bad_places), system
        bad += not full.soluble
    assert bad >= 8, bad


# e = (0, 1, 2, 3), a = 5: the torsor of lam is x_i^2 - 5 y_i^2 =
# (u - e_i v) / lam_i, and a local point (u, v) of it has every
# (5, lam_i (u - e_i v))_p = +1
TORSOR_E, TORSOR_A = (0, 1, 2, 3), (5, 5, 5, 5)


def _torsor_symbols_off(lam):
    """The (p, i) where a finite witness that `everywhere_locally_soluble`
    certifies for the torsor system of lam has (a_i, lam_i (u - e_i v))_p
    = -1 by brute force, so that it is no point of the torsor of lam."""
    system = torsor_system(ConicBundleData(e=TORSOR_E, a=TORSOR_A, lam=lam))
    report = everywhere_locally_soluble(system, L=7)
    return [(v.p, i) for v, wit in report.witnesses if not v.is_real
            for i, (a, e, scale) in enumerate(zip(TORSOR_A, TORSOR_E, lam))
            if brute_hilbert(a, scale * (wit.u[0] - e * wit.u[1]), v.p) != 1]


def test_untwisted_torsor_witnesses_are_torsor_points():
    assert _torsor_symbols_off((1, 1, 1, 1)) == []


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: torsor_system clears by the least multiple, which "
    "cancels the numerator of lam, so lam = (2, 1, 1, 1) and (2, 3, 1, 1) "
    "get the forms of lam = (1, 1, 1, 1), and u = (1, 0) at 2 and "
    "u = (125, 0) at 5 are certified for a torsor they do not lie on"))
def test_twisted_torsor_witnesses_are_torsor_points():
    assert _torsor_symbols_off((2, 1, 1, 1)) == []
    assert _torsor_symbols_off((2, 3, 1, 1)) == []
