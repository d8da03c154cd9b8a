import itertools
import random
import re
from fractions import Fraction

import pytest

from conicbundles.exactnum import squarefree_class
from conicbundles.pencil import (
    BrauerElement,
    ConicBundleData,
    NormFormSystem,
    PencilError,
    brauer_element,
    brauer_group,
    delta,
    quadric_intersection_system,
    torsor_system,
    validate,
)
from reference import brute_kernel, random_classes, span


def test_validate_examples():
    rep = validate(ConicBundleData(e=(0, 1), a=(2, 2)))
    assert rep.faddeev_holds and not rep.warnings
    rep = validate(ConicBundleData(e=(0, 1, 2), a=(2, 3, 5)))
    assert not rep.faddeev_holds
    assert rep.faddeev_class == squarefree_class(30)
    assert rep.warnings
    with pytest.raises(PencilError):
        ConicBundleData(e=(0, 0), a=(2, 2))
    with pytest.raises(PencilError):
        ConicBundleData(e=(0, 1), a=(2, 4))
    with pytest.raises(PencilError):
        ConicBundleData(e=(0, 1), a=(2, 3), lam=(1, 0))
    with pytest.raises(PencilError):
        ConicBundleData(e=(0, 1), a=(2, 3, 5))


def test_delta_examples():
    data = ConicBundleData(e=(0, 1, 2), a=(2, 3, 6))
    assert delta(data, (1, 1, 1)).is_trivial
    assert delta(data, (1, 0, 0)) == squarefree_class(2)
    data = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))
    assert delta(data, (1, 1, 0, 0)).is_trivial
    with pytest.raises(PencilError):
        delta(data, (1, 0))
    with pytest.raises(PencilError):
        delta(data, (2, 0, 0, 0))


def test_delta_is_linear():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 6)
        data = ConicBundleData(e=tuple(range(r)), a=random_classes(rng, r))
        n1 = [rng.randint(0, 1) for _ in range(r)]
        n2 = [rng.randint(0, 1) for _ in range(r)]
        nsum = [x ^ y for x, y in zip(n1, n2)]
        assert delta(data, nsum) == delta(data, n1) * delta(data, n2)


def test_faddeev_forces_allones_in_kernel():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(2, 6)
        a = random_classes(rng, r, force_faddeev=True)
        data = ConicBundleData(e=tuple(range(len(a))), a=a)
        assert data.faddeev_holds
        assert delta(data, (1,) * data.r).is_trivial


def test_brauer_group_examples():
    desc = brauer_group(ConicBundleData(e=(0, 1, 2), a=(2, 3, 6)))
    assert desc.kernel_basis == ((1, 1, 1),)
    assert desc.quotient_rank == 0
    assert desc.weak_approximation

    desc = brauer_group(ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5)))
    assert desc.quotient_rank == 2
    assert span(desc.kernel_basis, 4) == \
        {v for v in itertools.product((0, 1), repeat=4) if sum(v) % 2 == 0}

    desc = brauer_group(ConicBundleData(e=(0, 1), a=(2, 2)))
    assert desc.kernel_basis == ((1, 1),)
    assert desc.quotient_rank == 0


def test_brauer_group_faddeev_failure_is_error():
    with pytest.raises(PencilError):
        brauer_group(ConicBundleData(e=(0, 1, 2), a=(2, 3, 5)))


def test_brauer_group_matches_brute_kernel():
    rng = random.Random(23)
    for _ in range(25):
        r = rng.randint(2, 7)
        a = random_classes(rng, r, force_faddeev=True)
        data = ConicBundleData(e=tuple(range(len(a))), a=a)
        desc = brauer_group(data)
        kernel = brute_kernel(a)
        assert span(desc.kernel_basis, data.r) == kernel
        assert desc.quotient_rank == len(desc.kernel_basis) - 1
        assert (1,) * data.r in kernel
        assert desc.weak_approximation == (kernel == {(0,) * data.r,
                                                      (1,) * data.r})


def test_brauer_group_invariances():
    rng = random.Random(41)
    for _ in range(15):
        r = rng.randint(2, 6)
        a = random_classes(rng, r, force_faddeev=True)
        data = ConicBundleData(e=tuple(range(len(a))), a=a)
        desc = brauer_group(data)
        # permuting the fibres permutes the kernel
        perm = list(range(data.r))
        rng.shuffle(perm)
        data2 = ConicBundleData(e=tuple(range(data.r)),
                                a=tuple(data.a[p] for p in perm))
        desc2 = brauer_group(data2)
        assert desc2.quotient_rank == desc.quotient_rank
        permuted = {tuple(v[p] for p in perm) for v in span(desc.kernel_basis,
                                                            data.r)}
        assert span(desc2.kernel_basis, data.r) == permuted
        # multiplying any a_i by a square changes nothing
        i = rng.randrange(data.r)
        scaled = [x.representative() for x in data.a]
        scaled[i] *= rng.choice([4, 9, 25])
        desc3 = brauer_group(ConicBundleData(e=data.e, a=tuple(scaled)))
        assert desc3 == desc


def test_brauer_element():
    data = ConicBundleData(e=(0, 1, 2), a=(2, 3, 6))
    el = brauer_element(data, (1, 1, 1))
    assert len(set(el.n)) == 1
    with pytest.raises(PencilError):
        brauer_element(data, (1, 0, 0))
    assert BrauerElement((1, 0, 1)).canonical() == (0, 1, 0)
    assert BrauerElement((0, 1, 1)).canonical() == (0, 1, 1)
    with pytest.raises(PencilError):
        BrauerElement((0, 2))


def test_torsor_system_examples():
    sys1 = torsor_system(ConicBundleData(e=(0, 1), a=(2, 3)))
    assert sys1.s == 2 and sys1.a == (2, 3)
    assert sys1.forms == ((1, 0), (1, -1))
    assert sys1.clearing == (1, 1)

    sys2 = torsor_system(ConicBundleData(e=(0, 1), a=(2, 3),
                                         lam=(Fraction(1, 2), 1)))
    assert sys2.forms == ((2, 0), (1, -1))

    sys3 = torsor_system(ConicBundleData(e=(0,), a=(-1,)))
    assert sys3.r == 1 and sys3.forms == ((1, 0),)

    # fractional e clears by the denominator and records it
    sys4 = torsor_system(ConicBundleData(e=(Fraction(1, 2), 3), a=(2, 3)))
    assert sys4.forms == ((2, -1), (1, -3))
    assert sys4.clearing == (2, 1)


def test_torsor_system_clears_by_the_least_multiple():
    # clearing[i] is the least d > 0 making d / lam_i and d e_i / lam_i
    # integral, found by counting up; forms[i] is (d / lam_i, -d e_i / lam_i)
    rng = random.Random(83)
    dens = (1, 1, 2, 3, 4, 6, 9, 10)
    for _ in range(300):
        r = rng.randint(1, 4)
        e = rng.sample([Fraction(n, d) for n in range(-12, 13) for d in dens],
                       r)
        if len(set(e)) < r:
            continue
        lam = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                        rng.choice(dens)) for _ in range(r)]
        a = [rng.choice((-1, 2, 3, -5, 6)) for _ in range(r)]
        system = torsor_system(ConicBundleData(e=e, a=a, lam=lam))
        for i in range(r):
            cu, cv = 1 / lam[i], -e[i] / lam[i]
            d = 1
            while (cu * d).denominator != 1 or (cv * d).denominator != 1:
                d += 1
            assert system.clearing[i] == d
            assert system.forms[i] == (cu * d, cv * d)


def test_norm_form_system_invariants():
    with pytest.raises(PencilError):
        NormFormSystem(r=1, s=1, a=(2,), forms=((1,),))
    with pytest.raises(PencilError):
        NormFormSystem(r=2, s=2, a=(2, 3), forms=((1, 2), (2, 4)))
    with pytest.raises(PencilError):
        NormFormSystem(r=1, s=2, a=(9,), forms=((1, 0),))
    with pytest.raises(PencilError):
        NormFormSystem(r=1, s=2, a=(2,), forms=((0, 0),))
    sysm = NormFormSystem(r=3, s=2, a=(-2, 3, -5),
                          forms=((1, 0), (1, -1), (1, -2)))
    assert sysm.i_minus == (0, 2)


def test_norm_form_system_rejects_exactly_the_proportional_pairs():
    # seeded forms with zero entries, negative multiples of earlier forms
    # and sums of two earlier forms: a system is accepted exactly when
    # every pair has a nonzero 2 x 2 minor, so a dependent triple of
    # pairwise independent forms is accepted
    rng = random.Random(77)
    seen = {"rejected": 0, "accepted": 0, "dependent triple": 0}
    for _ in range(600):
        s, r = rng.choice((2, 3, 4)), rng.randint(2, 4)
        forms = []
        while len(forms) < r:
            kind = rng.random()
            if forms and kind < 0.25:
                f = rng.choice(forms)
                forms.append(tuple(rng.choice((-3, -1, 2)) * c for c in f))
            elif len(forms) > 1 and kind < 0.5:
                f, g = rng.sample(forms, 2)
                forms.append(tuple(x + y for x, y in zip(f, g)))
            else:
                forms.append(tuple(rng.choice((0, 0, 1, -1, 2, -3, 5))
                                   for _ in range(s)))
        if not all(any(f) for f in forms):
            continue
        independent = all(
            any(f[i] * g[j] != f[j] * g[i]
                for i, j in itertools.combinations(range(s), 2))
            for f, g in itertools.combinations(forms, 2))
        try:
            NormFormSystem(r=r, s=s, a=(2, 3, 5, 6)[:r], forms=tuple(forms))
        except PencilError as exc:
            assert not independent and "proportional" in str(exc), forms
            seen["rejected"] += 1
            continue
        assert independent, forms
        seen["accepted"] += 1
        # three forms in s >= 3 coordinates with every 3 x 3 minor 0
        seen["dependent triple"] += s > 2 and any(
            not any(f[i] * (g[j] * h[k] - g[k] * h[j])
                    - f[j] * (g[i] * h[k] - g[k] * h[i])
                    + f[k] * (g[i] * h[j] - g[j] * h[i])
                    for i, j, k in itertools.combinations(range(s), 3))
            for f, g, h in itertools.combinations(forms, 3))
    assert min(seen.values()) >= 30, seen


def test_quadric_intersection_examples():
    one = quadric_intersection_system(e=(0, 1), a=(5,), c=(1,))
    assert one.n == 1 and one.combined.r == 2
    assert one.factors[0].faddeev_holds

    two = quadric_intersection_system(e=(0, 1, 2, 3), a=(5, 13), c=(1, 1))
    assert two.combined.r == 4
    assert [x.representative() for x in two.combined.a] == [5, 5, 13, 13]
    assert not two.shared_points
    assert brauer_group(two.combined).quotient_rank == 1

    with pytest.raises(PencilError):
        quadric_intersection_system(e=(0, 1, 0, 2), a=(5, 13), c=(1, 1))

    merged = quadric_intersection_system(e=(0, 1, 0, 2), a=(5, 5), c=(1, 1))
    assert merged.combined.r == 3
    assert merged.shared_points == (Fraction(0),)

    with pytest.raises(PencilError):
        quadric_intersection_system(e=(0, 0, 1, 2), a=(5, 13), c=(1, 1))
    with pytest.raises(PencilError):
        quadric_intersection_system(e=(0, 1), a=(5,), c=(0,))


# test id -> (message, call that breaks one input check of the pencil
# constructors)
PENCIL_INPUT_CHECKS = {
    "no fibre": ("at least one degenerate fibre",
                 lambda: ConicBundleData(e=(), a=())),
    "lambda length": ("lambda must have one entry per fibre",
                      lambda: ConicBundleData(e=(0, 1), a=(5, 5), lam=(1,))),
    "empty vector": ("empty coefficient vector", lambda: BrauerElement(())),
    "r zero": ("r must be >= 1",
               lambda: NormFormSystem(r=0, s=2, a=(), forms=())),
    "a length": ("a, forms and clearing must have length r",
                 lambda: NormFormSystem(r=1, s=2, a=(-1, 2),
                                        forms=((1, 0),))),
    "clearing length": ("a, forms and clearing must have length r",
                        lambda: NormFormSystem(r=1, s=2, a=(-1,),
                                               forms=((1, 0),),
                                               clearing=(1, 1))),
    "form length": ("each form needs 2 coefficients",
                    lambda: NormFormSystem(r=1, s=2, a=(-1,),
                                           forms=((1, 0, 0),))),
    "no factor": ("at least one factor is required",
                  lambda: quadric_intersection_system((), (), ())),
    "point count": ("expected 2 points, got 3",
                    lambda: quadric_intersection_system((0, 1, 2), (5,),
                                                        (1,))),
}


@pytest.mark.parametrize("message, call", list(PENCIL_INPUT_CHECKS.values()),
                         ids=list(PENCIL_INPUT_CHECKS))
def test_pencil_input_checks(message, call):
    with pytest.raises(PencilError, match=re.escape(message)):
        call()
