import random
from fractions import Fraction

import pytest

from conicbundles.delpezzo import (
    BundleReport,
    DP1Data,
    DP2Data,
    DelPezzoError,
    Quartic,
    SplitPolynomial,
    bundle_from_fgh,
    dp1_condition,
    dp1_minimality,
    dp2_minimality,
    dp2_ramification_quartic,
    quartic_discriminant,
)
from conicbundles.delpezzo import (_coprime, _det, _first_subresultant,
                                   _quartic_surface_smooth)
from conicbundles.pencil import validate
from reference import (cofactor_det, form_has_repeated_root, pderiv, pgcd,
                       pmul, ptrim, resultant)

F = Fraction


# -- local exact-polynomial oracle helpers (ascending coefficients) ----------

def pfromroots(lead, roots):
    out = [F(lead)]
    for r in roots:
        out = pmul(out, [F(-r), F(1)])
    return out


def tri_mul(d1, d2):
    out = {}
    for k1, v1 in d1.items():
        for k2, v2 in d2.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, F(0)) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


# -- split polynomials and bundles --------------------------------------------

def test_split_polynomial():
    p = SplitPolynomial(2, (1, -3))
    assert p.coefficients() == (F(-6), F(4), F(2))
    assert p.evaluate(F(1, 2)) == 2 * F(-1, 2) * F(7, 2)
    assert p.degree == 2
    with pytest.raises(DelPezzoError, match="nonzero"):
        SplitPolynomial(0, (1,))


def test_bundle_example():
    rep = bundle_from_fgh(SplitPolynomial(1, (0, 1)),
                          SplitPolynomial(1, (2, 3)),
                          SplitPolynomial(1, (4, 5)))
    assert isinstance(rep, BundleReport)
    assert rep.data.e == tuple(F(i) for i in range(6))
    assert [str(c) for c in rep.data.a] == \
        ["-30", "-6", "-3", "-3", "-6", "-30"]
    assert rep.degrees == (2, 2, 2)
    assert rep.parity == 0
    assert rep.smooth_at_infinity
    assert rep.infinity_form == (1, 1, 1)
    assert validate(rep.data).faddeev_holds


def test_bundle_odd_parity():
    rep = bundle_from_fgh(SplitPolynomial(1, (0,)),
                          SplitPolynomial(1, (1,)),
                          SplitPolynomial(1, (3,)))
    assert rep.parity == 1
    assert [str(c) for c in rep.data.a] == ["-3", "2", "-6"]
    assert rep.data.faddeev_holds


def test_bundle_errors():
    with pytest.raises(DelPezzoError, match="parity"):
        bundle_from_fgh(SplitPolynomial(1, (0,)), SplitPolynomial(1, (1,)),
                        SplitPolynomial(1, (2, 3)))
    with pytest.raises(DelPezzoError, match="pairwise distinct"):
        bundle_from_fgh(SplitPolynomial(1, (0, 1)),
                        SplitPolynomial(1, (1, 2)),
                        SplitPolynomial(1, (4, 5)))
    with pytest.raises(DelPezzoError, match="split"):
        bundle_from_fgh(SplitPolynomial(1, (0,)), SplitPolynomial(1, (1,)),
                        SplitPolynomial(1, (-1,)))


def test_bundle_random_reciprocity():
    rng = random.Random(4)
    done = 0
    while done < 50:
        deg = rng.choice((1, 2))
        roots = rng.sample(range(-25, 25), 3 * deg)
        leads = [rng.choice((1, -1, 2, 3, 5, -2)) for _ in range(3)]
        try:
            rep = bundle_from_fgh(
                SplitPolynomial(leads[0], tuple(roots[:deg])),
                SplitPolynomial(leads[1], tuple(roots[deg:2 * deg])),
                SplitPolynomial(leads[2], tuple(roots[2 * deg:])))
        except DelPezzoError:
            continue  # split fibre; resample
        assert rep.data.r == 3 * deg
        assert validate(rep.data).faddeev_holds
        done += 1


# -- degree 2 ------------------------------------------------------------------

DP2_EXAMPLE = DP2Data(SplitPolynomial(1, (0, 1)), SplitPolynomial(1, (2, 3)),
                      SplitPolynomial(1, (4, 5)))


def test_dp2_data_validation():
    with pytest.raises(DelPezzoError, match="degree 2"):
        DP2Data(SplitPolynomial(1, (0,)), SplitPolynomial(1, (2, 3)),
                SplitPolynomial(1, (4, 5)))
    with pytest.raises(DelPezzoError, match="distinct"):
        DP2Data(SplitPolynomial(1, (0, 1)), SplitPolynomial(2, (1, 3)),
                SplitPolynomial(1, (4, 5)))
    # -5(t + 1)(t - 6/5) = -6 f + g for f = t(t-1), g = (t-2)(t-3)
    with pytest.raises(DelPezzoError, match="independent"):
        DP2Data(SplitPolynomial(1, (0, 1)), SplitPolynomial(1, (2, 3)),
                SplitPolynomial(-5, (-1, F(6, 5))))


def test_dp2_quartic_example():
    quartic = dp2_ramification_quartic(DP2_EXAMPLE)
    got = (quartic.x4, quartic.y4, quartic.z4,
           quartic.x2y2, quartic.x2z2, quartic.y2z2)
    assert got == (1, 1, 1, -14, -62, -14)
    assert quartic.smooth and quartic.singular_reasons == ()
    # oracle: expand (f1 x^2 + g1 y^2 + h1 z^2)^2 - 4 (f0 ...)(f2 ...)
    cs = [p.coefficients() for p in (DP2_EXAMPLE.f, DP2_EXAMPLE.g,
                                     DP2_EXAMPLE.h)]
    level = lambda k: {(2, 0, 0): cs[0][k], (0, 2, 0): cs[1][k],
                       (0, 0, 2): cs[2][k]}
    mid, lo, hi = level(1), level(0), level(2)
    expanded = tri_mul(mid, mid)
    for key, val in tri_mul(lo, hi).items():
        expanded[key] = expanded.get(key, F(0)) - 4 * val
    assert {k: v for k, v in expanded.items() if v} == {
        (4, 0, 0): F(1), (0, 4, 0): F(1), (0, 0, 4): F(1),
        (2, 2, 0): F(-14), (2, 0, 2): F(-62), (0, 2, 2): F(-14)}


def test_dp2_quartic_scaling():
    doubled = DP2Data(SplitPolynomial(2, (0, 1)), SplitPolynomial(2, (2, 3)),
                      SplitPolynomial(2, (4, 5)))
    q1 = dp2_ramification_quartic(DP2_EXAMPLE)
    q2 = dp2_ramification_quartic(doubled)
    assert (q2.x4, q2.y4, q2.z4, q2.x2y2, q2.x2z2, q2.y2z2) == \
        tuple(4 * v for v in (q1.x4, q1.y4, q1.z4, q1.x2y2, q1.x2z2, q1.y2z2))
    assert q1.smooth == q2.smooth


def test_quartic_smooth_helper_failure_modes():
    ok, reasons = _quartic_surface_smooth(*(F(x) for x in (1, 1, 1, -14, -62, -14)))
    assert ok and reasons == ()
    ok, reasons = _quartic_surface_smooth(*(F(x) for x in (0, 1, 1, 1, 1, 1)))
    assert not ok and any("vertex" in r for r in reasons)
    ok, reasons = _quartic_surface_smooth(*(F(x) for x in (1, 1, 1, 2, 2, 2)))
    assert not ok and any("singular" in r for r in reasons)
    ok, reasons = _quartic_surface_smooth(*(F(x) for x in (1, 1, 1, 2, 0, 0)))
    assert not ok and any("line z = 0" in r for r in reasons)


def test_dp2_minimality_trivial_leads():
    rep = dp2_minimality(DP2_EXAMPLE)
    assert not rep.independent
    assert rep.certificate == ("a",)  # the class of 1 is already trivial
    assert len(rep.classes) == 19


def test_dp2_minimality_duplicate_class():
    data = DP2Data(SplitPolynomial(2, (2, 0)), SplitPolynomial(3, (5, 7)),
                   SplitPolynomial(5, (13, 19)))
    rep = dp2_minimality(data)
    assert not rep.independent
    assert rep.certificate == ("a", "e1-e2")  # both are the class of 2
    by_label = dict(rep.classes)
    prod = by_label["a"] * by_label["e1-e2"]
    assert prod.is_trivial


def test_dp2_minimality_prime_separated_instance():
    data = DP2Data(SplitPolynomial(101, (19, -63)),
                   SplitPolynomial(103, (-3, -74)),
                   SplitPolynomial(107, (66, 71)))
    rep = dp2_minimality(data)
    assert rep.independent and rep.certificate is None


def test_dp2_minimality_square_lead_never_independent():
    rng = random.Random(9)
    done = 0
    while done < 10:
        roots = rng.sample(range(-40, 40), 6)
        square = rng.choice((1, 4, 9, F(4, 9)))
        try:
            data = DP2Data(SplitPolynomial(square, tuple(roots[0:2])),
                           SplitPolynomial(3, tuple(roots[2:4])),
                           SplitPolynomial(5, tuple(roots[4:6])))
        except DelPezzoError:
            continue
        assert not dp2_minimality(data).independent
        done += 1


# -- quartic discriminant ------------------------------------------------------

def test_quartic_discriminant_pins():
    assert quartic_discriminant(Quartic((-1, 0, 0, 0, 1))) == 256
    assert quartic_discriminant(Quartic((0, 0, 0, 0, 1))) == 0
    assert quartic_discriminant(Quartic((1, 0, -2, 0, 1))) == 0
    assert quartic_discriminant(Quartic((3, 0, 0, 0, 1))) == -6912
    assert quartic_discriminant(Quartic((0, -1, 0, 1, 0))) == -4
    # degree drop by two: double root at infinity
    assert quartic_discriminant(Quartic((1, 0, 1, 0, 0))) == 0
    coeffs = pfromroots(1, (1, 2, 3, 4))
    assert quartic_discriminant(Quartic(tuple(coeffs))) == -144
    with pytest.raises(DelPezzoError, match="five"):
        Quartic((1, 2, 3))


def random_quartic(rng):
    kind = rng.randrange(3)
    if kind == 0:
        coeffs = [F(rng.randint(-9, 9)) for _ in range(5)]
    elif kind == 1:
        alpha = F(rng.randint(-4, 4))
        rest = [F(rng.randint(-4, 4)) for _ in range(3)]
        coeffs = pmul(pmul([-alpha, F(1)], [-alpha, F(1)]), rest) or [F(0)]
        coeffs = (coeffs + [F(0)] * 5)[:5]
    else:
        coeffs = [F(rng.randint(-9, 9)) for _ in range(3)] + [F(0), F(0)]
    return coeffs


def test_quartic_discriminant_gcd_oracle():
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        coeffs = random_quartic(rng)
        if not any(coeffs):
            continue
        d4 = quartic_discriminant(Quartic(tuple(coeffs)))
        assert (d4 == 0) == form_has_repeated_root(coeffs), coeffs
        checked += 1


def test_quartic_discriminant_resultant_oracle():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        coeffs = [F(rng.randint(-9, 9)) for _ in range(5)]
        if coeffs[4] == 0:
            continue
        d4 = quartic_discriminant(Quartic(tuple(coeffs)))
        res = resultant(coeffs, pderiv(coeffs))
        assert d4 == -res / coeffs[4]
        checked += 1


# -- degree 1 ------------------------------------------------------------------

DP1_REFERENCE = DP1Data(tuple(range(8)), 1, 1)


def test_dp1_data_validation():
    with pytest.raises(DelPezzoError, match="eight"):
        DP1Data(tuple(range(7)), 1, 1)
    with pytest.raises(DelPezzoError, match="eight"):
        DP1Data((0, 0, 1, 2, 3, 4, 5, 6), 1, 1)
    with pytest.raises(DelPezzoError, match="nonzero"):
        DP1Data(tuple(range(8)), 0, 1)


def test_dp1_pencil_coefficients():
    p = DP1_REFERENCE.p_coefficients()
    q = DP1_REFERENCE.q_coefficients()
    assert p == tuple(F(c, 840) for c in pfromroots(1, (0, 1, 2, 3)))
    assert q == tuple(pfromroots(1, (4, 5, 6, 7)))


def test_dp1_condition_reference():
    rep = dp1_condition(DP1_REFERENCE)
    assert rep.holds
    assert rep.full_degree and rep.discriminant_squarefree \
        and rep.double_roots_simple
    assert rep.failed == ()
    assert len(rep.discriminant) == 7
    assert rep.discriminant[0] == -144  # disc of (t-4)(t-5)(t-6)(t-7)
    assert rep.discriminant[6] == F(-144, 840 ** 6)  # disc of p


def test_dp1_condition_two_double_roots():
    # the pencil of even quartics through (t^2-1)(t^2-4) and
    # (t^2-1/4)(t^2-16) contains a member c (t^2-v)^2 at a rational
    # parameter, so the member discriminant acquires a repeated root
    e = (1, -1, 2, -2, F(1, 2), F(-1, 2), 4, -4)
    rep = dp1_condition(DP1Data(e, 1, 1))
    assert not rep.holds
    assert not rep.discriminant_squarefree
    assert not rep.double_roots_simple
    assert "discriminant squarefree" in rep.failed
    assert rep.full_degree  # p and q themselves are squarefree


def test_dp1_condition_affine_invariance():
    for e in (tuple(range(8)), (1, -1, 2, -2, F(1, 2), F(-1, 2), 4, -4)):
        base = dp1_condition(DP1Data(e, 1, 1))
        moved = dp1_condition(
            DP1Data(tuple(3 * F(x) - 5 for x in e), 1, 1))
        assert (base.holds, base.full_degree, base.discriminant_squarefree,
                base.double_roots_simple) == \
            (moved.holds, moved.full_degree, moved.discriminant_squarefree,
             moved.double_roots_simple)


def test_dp1_condition_scale_invariance():
    scaled = dp1_condition(DP1Data(tuple(range(8)), 3, 5))
    base = dp1_condition(DP1_REFERENCE)
    assert scaled.holds == base.holds
    assert scaled.failed == base.failed


def test_dp1_minimality_reference():
    rep = dp1_minimality(DP1_REFERENCE)
    assert not rep.independent
    assert rep.certificate == ("e1-e5", "e2-e6")  # -4 and -4
    assert [str(c) for c in rep.fibre_classes] == \
        ["210", "10", "30", "6", "35", "7", "21"]
    assert rep.contracted_bundle is not None
    assert rep.contracted_bundle.r == 7
    assert rep.contracted_bundle.faddeev_holds
    assert rep.contracted_bundle.e == tuple(F(i) for i in range(7))


def test_dp1_minimality_independent_instance():
    e = (42, 130, 142, 161, 208, 282, 362, 388)
    rep = dp1_minimality(DP1Data(e, 1, 1))
    assert rep.independent and rep.certificate is None
    assert len(rep.classes) == 16
    shifted = dp1_minimality(DP1Data(tuple(x + 17 for x in e), 1, 1))
    assert shifted.independent
    assert [c for _, c in shifted.classes] == [c for _, c in rep.classes]


def test_dp1_minimality_constructed_dependent():
    # e1 - e5 = 8 and e2 - e6 = 2 share the square class 2
    e = (8, 3, 11, 13, 0, 1, 101, 103)
    rep = dp1_minimality(DP1Data(e, 1, 1))
    assert not rep.independent
    by_label = dict(rep.classes)
    prod = by_label[rep.certificate[0]]
    for label in rep.certificate[1:]:
        prod = prod * by_label[label]
    assert prod.is_trivial


def test_first_subresultant_detects_gcd_degree():
    def psc01(roots):
        coeffs = pfromroots(1, roots)
        res = resultant(coeffs, pderiv(coeffs))
        return res, _first_subresultant(coeffs)

    res, s1 = psc01((1, 1, 2, 2))
    assert res == 0 and s1 == 0
    res, s1 = psc01((1, 1, 2, 3))
    assert res == 0 and s1 != 0
    res, s1 = psc01((1, 2, 3, 4))
    assert res != 0


# sum_{i<=4} e_i = sum_{j>=5} e_j = -23/2 (ROADMAP item 10)
DP1_ROOT_AT_INFINITY = DP1Data((-1, F(-1, 2), -6, -4, -9, F(-5, 2), 3, -3),
                               1, F(2, 3))


def test_dp1_root_at_infinity_member():
    # the member r = -q4/p4 loses its t^4 and t^3 terms and is U^2 times a
    # quadratic with distinct roots, a single double root at t = infinity;
    # D is squarefree
    data = DP1_ROOT_AT_INFINITY
    p, q = data.p_coefficients(), data.q_coefficients()
    r = -q[4] / p[4]
    member = [r * x + y for x, y in zip(p, q)]
    assert r == F(-20, 3) and member[4] == member[3] == 0
    assert member[2] != 0 and member[1] ** 2 != 4 * member[0] * member[2]
    rep = dp1_condition(data)
    assert rep.full_degree and rep.discriminant_squarefree


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the formal S1 has the factor r p4 + q4, so the member with a single "
    "double root at t = infinity reads as not simple (ROADMAP item 10)"))
def test_dp1_condition_double_root_at_infinity():
    assert dp1_condition(DP1_ROOT_AT_INFINITY).holds


# -- integer kernels -----------------------------------------------------------

def test_bareiss_det_against_cofactor_expansion():
    rng = random.Random(31)
    singular = swapped = fractions = 0
    for trial in range(400):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 0 and n > 1:
            # a row that is a combination of two others
            i, j, k = (rng.sample(range(n), 3) if n > 2
                       else (1, 0, 0))
            m[i] = [2 * x - 3 * y for x, y in zip(m[j], m[k])]
        if trial % 4 == 1:
            m[0][0] = 0  # the first pivot needs a row swap
        if trial % 2:
            m = [[F(x, rng.choice((1, 2, 3, 7))) if rng.random() < 0.7
                  else x for x in row] for row in m]
            fractions += 1
        copy = [row[:] for row in m]
        want = cofactor_det(m)
        got = _det(m)
        assert got == want, m
        assert m == copy  # the input is left alone
        if all(type(x) is int for row in m for x in row):
            assert type(got) is int  # integers stay in Z
        singular += want == 0
        swapped += want != 0 and m[0][0] == 0
    assert singular >= 80 and swapped >= 40 and fractions == 200


def _ints(poly):
    return [int(x) for x in poly]


def test_coprime_against_fraction_euclid():
    # planted common factors: a rational root u/v as the factor v t - u,
    # under contents that share a prime and do not change the gcd over Q
    rng = random.Random(32)
    verdicts = []
    for trial in range(300):
        a = [F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
        b = [F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]
        if trial % 2:
            u, v = rng.randint(-5, 5), rng.randint(1, 4)
            a, b = pmul(a, [F(-u), F(v)]), pmul(b, [F(-u), F(v)])
        ca, cb = rng.choice((1, 2, 6, 12)), rng.choice((1, 3, 4))
        a, b = [ca * x for x in a], [cb * x for x in b]
        want = len(pgcd(ptrim(a), ptrim(b))) == 1
        assert _coprime(_ints(a), _ints(b)) == want, (a, b)
        assert _coprime(_ints(b), _ints(a)) == want, (a, b)
        verdicts.append(want)
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 140
