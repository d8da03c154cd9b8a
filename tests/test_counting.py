import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy
import pytest

from conicbundles import counting, quadform
from conicbundles.counting import (
    CountJob,
    CountingError,
    G,
    beta_infinity,
    beta_p,
    enumerate_N,
    predict_and_compare,
    region_measure,
)
from conicbundles.exactnum import json_value
from conicbundles.pencil import NormFormSystem, PencilError
from conicbundles.quadform import (
    BinaryForm,
    pell_fundamental,
    representation_count,
    rho,
)
from jobs import job1, job2, system1, system2
from reference import brute_orbit_count, brute_orbits, nullspace


def job_m12(**kw):
    # val_2(4) = 2 <= 2 and val_3(4) = 0 <= 1, f(uM) = 1 coprime to 12
    kw.setdefault("M", 12)
    kw.setdefault("uM", (1, 0))
    return job1(**kw)


def brute_N(system, M, uM, uInf, eps, B):
    # direct loop over the u = uM mod M of each axis window, with exact
    # rational box tests and brute-force orbit counts; independent of the
    # table-and-grid path in enumerate_N
    eps = Fraction(eps)
    windows = []
    for j in range(system.s):
        center = B * Fraction(uInf[j])
        start = math.floor(center - eps * B)
        start += (uM[j] - start) % M
        windows.append(range(start, math.ceil(center + eps * B) + 1, M))
    counts = {}
    total = 0
    for u in itertools.product(*windows):
        if any((u[j] - uM[j]) % M for j in range(system.s)):
            continue
        if any(abs(u[j] - B * Fraction(uInf[j])) >= eps * B
               for j in range(system.s)):
            continue
        prod = 1
        for i in range(system.r):
            n = sum(c * x for c, x in zip(system.forms[i], u))
            if (i, n) not in counts:
                counts[i, n] = brute_orbit_count(system.a[i], n)
            prod *= counts[i, n]
            if not prod:
                break
        total += prod
    return total


def brute_G(job, p, k):
    # sum over residue vectors t of the product of pointwise congruence
    # counts; rho itself is brute-verified in the quadform tests
    m = p**k
    total = 0
    for t in itertools.product(range(m), repeat=job.system.s):
        prod = 1
        for i, a in enumerate(job.system.a):
            g = job._f(i, job.uM) + job.M * sum(
                c * x for c, x in zip(job.system.forms[i], t))
            prod *= rho(BinaryForm(a), m, g % m)
            if not prod:
                break
        total += prod
    return total


def test_job_validation():
    j = job_m12(B_schedule=(169,))
    assert j.M == 12 and j.uM == (1, 0) and j.B_schedule == (169,)
    assert job1().uM == (0, 0)  # default congruence class
    with pytest.raises(CountingError, match="technical bound"):
        job1(M=2)  # val_2(4a) = 2 > 1
    with pytest.raises(CountingError, match="vanishes"):
        job1(M=4, uM=(0, 0))
    job1(M=4, uM=(2, 1))  # f(uM) = 2 is nonzero mod 4, accepted
    with pytest.raises(CountingError, match="not C"):
        job1(B_schedule=(8,))
    with pytest.raises(CountingError, match="not C"):
        job1(M=3, uM=(1, 0), B_schedule=(4,))  # C = 2 != 1 mod 3
    job1(M=3, uM=(1, 0), B_schedule=(16,))  # C = 4 = 1 mod 3
    with pytest.raises(CountingError, match="positive for definite"):
        job1(uInf=(Fraction(-1), Fraction(0)))
    with pytest.raises(CountingError, match="epsilon"):
        job1(epsilon=Fraction(0))
    with pytest.raises(CountingError, match="length"):
        job1(uM=(1,))
    with pytest.raises(CountingError, match="M must be >= 1, got 0"):
        job1(M=0)
    with pytest.raises(CountingError, match="B must be >= 1, got 0"):
        job1(B_schedule=(0,))


def test_job_validation_f_uM_mod_4():
    # f(uM) = 2 vanishes mod 2 but not mod 4; the check is at p^m, so this
    # is rejected only when it is 0 mod 4
    job1(M=4, uM=(6, 0))  # f = 6 = 2 mod 4, fine
    with pytest.raises(CountingError, match="vanishes"):
        job1(M=4, uM=(8, 0))


def test_measure_examples():
    assert region_measure(job1(), 100) == 10000
    cube = NormFormSystem(r=1, s=3, a=(-1,), forms=((1, 0, 0),))
    assert region_measure(CountJob(system=cube, epsilon=Fraction(1)), 1) == 8
    j = job1(M=4, uM=(1, 0), epsilon=Fraction(1, 4))
    assert region_measure(j, 16) == 4
    assert region_measure(j, 25) == Fraction(625, 64)
    with pytest.raises(CountingError, match="B must be >= 1"):
        region_measure(job1(), 0)
    with pytest.raises(CountingError, match="float"):
        region_measure(job1(), 4.0)
    with pytest.raises(CountingError, match="float"):
        job1(epsilon=0.5)


def test_enumerate_hand_counted():
    # B = 4, eps = 1/2: u1 in {3, 4, 5}, u2 in {-1, 0, 1};
    # R(3) = 0, R(4) = 1, R(5) = 2 for x^2 + y^2
    f = BinaryForm(-1)
    assert [representation_count(f, n) for n in (3, 4, 5)] == [0, 1, 2]
    assert enumerate_N(job1(), 4) == 3 * (0 + 1 + 2) == 9


def test_enumerate_empty_box():
    # window (4/3 - 4/25, 4/3 + 4/25) contains no integer
    j = job1(uInf=(Fraction(1, 3), Fraction(0)), epsilon=Fraction(1, 25))
    assert enumerate_N(j, 4) == 0


def test_negative_direction_rejected_and_zero():
    # a direction with f < 0 on the whole box can never produce solutions
    # for a definite form; the job type rejects it outright, and the raw
    # count of the region it would describe is 0
    with pytest.raises(CountingError, match="positive for definite"):
        job1(uInf=(Fraction(-1), Fraction(0)))
    for B in (4, 16):
        assert brute_N(system1(), 1, (0, 0), (Fraction(-1), Fraction(0)),
                       Fraction(1, 2), B) == 0


def random_job(rng):
    for _ in range(200):
        r = rng.choice((1, 1, 2))
        s = 2
        a = tuple(rng.choice((-1, -2, 2, 3, -5, 5)) for _ in range(r))
        forms = tuple(
            tuple(rng.randrange(-2, 3) for _ in range(s)) for _ in range(r))
        M, B_pool = rng.choice(((1, (4, 9, 25)), (1, (4, 9, 25)),
                                (3, (16, 49)), (4, (25,))))
        uM = tuple(rng.randrange(M) for _ in range(s))
        uInf = tuple(Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3)))
                     for _ in range(s))
        eps = rng.choice((Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)))
        try:
            sysm = NormFormSystem(r=r, s=s, a=a, forms=forms)
            job = CountJob(system=sysm, M=M, uM=uM, uInf=uInf, epsilon=eps)
        except Exception:
            continue
        return job, B_pool
    raise AssertionError("rejection sampling failed to find a valid job")


def test_enumerate_against_brute_random():
    rng = random.Random(11)
    for _ in range(25):
        job, B_pool = random_job(rng)
        B = rng.choice(B_pool)
        expect = brute_N(job.system, job.M, job.uM, job.uInf, job.epsilon, B)
        assert enumerate_N(job, B) == expect, (job, B)


def test_enumerate_monotone_in_epsilon():
    rng = random.Random(31)
    for _ in range(8):
        job, B_pool = random_job(rng)
        B = B_pool[0]
        counts = []
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
            j = CountJob(system=job.system, M=job.M, uM=job.uM,
                         uInf=job.uInf, epsilon=eps)
            counts.append(enumerate_N(j, B))
        assert counts == sorted(counts), (job, counts)


def test_scaling_map_sends_solutions_to_solutions():
    # (x, y, u) -> (Cx, Cy, C^2 u) with C = 1 mod M maps every counted
    # solution at B injectively into the counted set at C^2 B
    for job, B, C in ((job1(), 4, 3),
                      (job1(M=3, uM=(1, 0)), 16, 4),
                      (job2(), 4, 3)):
        assert C % job.M == 1 % job.M
        B2 = C * C * B
        mapped = 0
        eps = job.epsilon
        for j in range(job.system.s):
            assert (C * C) % job.M == 1 % job.M
        windows = [range(math.floor(B * Fraction(job.uInf[j]) - eps * B),
                         math.ceil(B * Fraction(job.uInf[j]) + eps * B) + 1)
                   for j in range(job.system.s)]
        for u in itertools.product(*windows):
            if any((u[j] - job.uM[j]) % job.M for j in range(job.system.s)):
                continue
            if any(abs(u[j] - B * Fraction(job.uInf[j])) >= eps * B
                   for j in range(job.system.s)):
                continue
            u2 = tuple(C * C * x for x in u)
            # the image congruence class and box membership are preserved
            assert all((u2[j] - job.uM[j]) % job.M == 0
                       for j in range(job.system.s))
            assert all(abs(u2[j] - B2 * Fraction(job.uInf[j])) < eps * B2
                       for j in range(job.system.s))
            prod = 1
            for i, a in enumerate(job.system.a):
                n = sum(c * x for c, x in zip(job.system.forms[i], u))
                reps = brute_orbits(a, n)
                prod *= len(reps)
                n2 = sum(c * x2 for c, x2 in zip(job.system.forms[i], u2))
                reps2 = brute_orbits(a, n2)
                for x, y in reps:
                    assert (C * x) ** 2 - a * (C * y) ** 2 == n2
                    # the dilated pair is itself a counted representative
                    assert (C * x, C * y) in reps2
            mapped += prod
        assert mapped == enumerate_N(job, B)
        assert enumerate_N(job, B2) >= mapped


def test_beta_infinity_definite():
    with mpmath.workprec(90):
        val = mpmath.mpf(str(beta_infinity(job1(), 10)))
        assert abs(val / 100 - mpmath.pi / 4) < mpmath.mpf(2) ** -70


def test_beta_infinity_indefinite_norm_minus_one():
    # a = 2: the Pell generator 3 + 2 sqrt 2 is the square of the unit
    # 1 + sqrt 2 of norm -1, so the orbit factor log(3 + 2 sqrt2)/(2 sqrt2)
    # coincides with log(1 + sqrt 2)/sqrt 2
    sysm = NormFormSystem(r=1, s=2, a=(2,), forms=((1, 0),))
    j = CountJob(system=sysm, uInf=(Fraction(1), Fraction(0)))
    with mpmath.workprec(90):
        val = mpmath.mpf(str(beta_infinity(j, 10)))
        expect = 100 * mpmath.log(1 + mpmath.sqrt(2)) / mpmath.sqrt(2)
        assert abs(val - expect) < mpmath.mpf(2) ** -60


def test_beta_infinity_indefinite_norm_plus_one():
    # a = 3: all units of Z[sqrt 3] have norm +1, so the orbit factor is
    # log(2 + sqrt 3)/(2 sqrt 3), half the naive log(eta)/sqrt(3)
    sysm = NormFormSystem(r=1, s=2, a=(3,), forms=((1, 0),))
    j = CountJob(system=sysm, uInf=(Fraction(1), Fraction(0)))
    with mpmath.workprec(90):
        val = mpmath.mpf(str(beta_infinity(j, 10)))
        expect = 100 * mpmath.log(2 + mpmath.sqrt(3)) / (2 * mpmath.sqrt(3))
        assert abs(val - expect) < mpmath.mpf(2) ** -60


def _mpmath_beta_infinity(job, B):
    # the same density from mpmath at the working precision in force
    val = (2 * job.epsilon * B / job.M) ** job.system.s
    val = mpmath.mpf(val.numerator) / val.denominator
    for a in job.system.a:
        if a < 0:
            val *= mpmath.pi / ((4 if a == -1 else 2) * mpmath.sqrt(-a))
        else:
            pell = pell_fundamental(a)
            assert pell.t**2 - a * pell.u**2 == 1
            val *= mpmath.log(pell.t + pell.u * mpmath.sqrt(a)) \
                / (2 * mpmath.sqrt(a))
    return val


def test_beta_infinity_against_mpmath():
    # 30-digit decimal arithmetic keeps beta_inf within 3e-28 < 2^-91 for
    # r <= 8 (counting's docstring); checked against mpmath at 120 bits
    # with a margin, on mixed signs of a, |a| up to 10^6 and r up to 8
    with mpmath.workprec(200):
        assert abs(mpmath.mpf(str(counting._PI)) - mpmath.pi) < \
            mpmath.mpf(10) ** -48
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        r, s = rng.randint(1, 8), rng.randint(1, 4)
        a = []
        while len(a) < r:
            x = rng.choice((rng.randint(-400, 400), rng.randint(-9, 9),
                            rng.randint(-10**6, 10**6)))
            if x < 0 or (x > 1 and math.isqrt(x) ** 2 != x):
                a.append(x)
        uInf = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(s))
        # nonnegative rows keep the definite forms positive at uInf; a
        # zero row or two proportional rows fail validation: skip the draw
        forms = tuple(tuple(rng.randint(0, 5) for _ in range(s))
                      for _ in range(r))
        try:
            job = CountJob(system=NormFormSystem(r=r, s=s, a=tuple(a),
                                                 forms=forms),
                           uInf=uInf,
                           epsilon=Fraction(rng.randint(1, 50),
                                            rng.randint(1, 50)))
        except ValueError:
            continue
        B = rng.choice((1, rng.randint(2, 10**4), rng.randint(1, 10**30)))
        val = beta_infinity(job, B)
        with mpmath.workprec(120):
            expect = _mpmath_beta_infinity(job, B)
            assert abs(mpmath.mpf(str(val)) / expect - 1) < \
                mpmath.mpf(2) ** -85, (job, B, val)
        checked += 1


def test_beta_infinity_matches_direct_count():
    # x^2 - 3y^2 = u1 over the box at B = 400: all finite densities are 1
    # (sum_A rho(q; A) = q^2 makes G(p^k) = p^3k for a single unimodular
    # form), so the count per B^2 pins the archimedean constant alone;
    # the naive doubled constant would put the ratio near 1/2
    sysm = NormFormSystem(r=1, s=2, a=(3,), forms=((1, 0),))
    j = CountJob(system=sysm, uInf=(Fraction(1), Fraction(0)),
                 B_schedule=(400,))
    (rep,) = predict_and_compare(j, prime_cutoff=30)
    for p, v in rep.beta_p.items():
        assert v == 1, p
    assert 0.95 < rep.ratio < 1.05
    assert not 0.95 < 2 * rep.ratio < 1.05


def test_G_hand_values():
    assert G(job1(), 3, 1) == 27
    assert G(job1(), 5, 1) == 125


def test_G_against_brute():
    rng = random.Random(41)
    cases = [(job1(), 2, 1), (job1(), 2, 2), (job1(), 3, 1),
             (job2(), 2, 1), (job2(), 2, 2), (job2(), 3, 1),
             (job_m12(), 2, 2), (job_m12(), 3, 1)]
    for _ in range(6):
        job, _ = random_job(rng)
        p = rng.choice((2, 3))
        cases.append((job, p, 1))
        if job.system.r == 1:
            cases.append((job, p, 2))
    for job, p, k in cases:
        assert G(job, p, k) == brute_G(job, p, k), (job, p, k)


def test_G_fully_brute_tiny():
    # one case with no shared machinery at all: explicit loops over
    # (x, y, t) mod p
    for job, p in ((job1(), 2), (job1(), 3)):
        count = 0
        a = job.system.a[0]
        for x, y, t1, t2 in itertools.product(range(p), repeat=4):
            g = job._f(0, job.uM) + job.M * (
                job.system.forms[0][0] * t1 + job.system.forms[0][1] * t2)
            if (x * x - a * y * y - g) % p == 0:
                count += 1
        assert G(job, p, 1) == count


def cokernel_exponent(forms, p, top):
    # the least D with p^D (Z/p^k)^r inside the subgroup that the columns
    # of the form matrix generate mod p^k, found at the first k > D: the
    # exponent of the cokernel, p to the largest elementary divisor's
    # exponent at p.  None when no k <= top shows it
    r = len(forms)
    for k in range(1, top + 1):
        m = p**k
        image = {(0,) * r}
        for col in zip(*forms):
            image = {tuple((x + t * c) % m for x, c in zip(v, col))
                     for v in image for t in range(m)}
        for d in range(k):
            if all(tuple(p**d if h == i else 0 for h in range(r)) in image
                   for i in range(r)):
                return d
    return None


def test_G_stabilization_identity():
    # G(p^(k+1)) = p^(s+r) G(p^k) from the first admissible k onward
    from conicbundles.exactnum import valuation
    for job in (job1(), job2(), job_m12()):
        s, r = job.system.s, job.system.r
        for p in (2, 3, 5):
            if job.M % p == 0:
                continue
            k = max(valuation(4 * a, p) for a in job.system.a) + 1
            assert G(job, p, k + 1) == p ** (s + r) * G(job, p, k), (job, p)
    # and from k = D on for seeded rank-r jobs, D the cokernel exponent,
    # whatever the a_i: beta_p is the count scaled at any such level
    rng = random.Random(46)
    seen, depths = set(), set()
    while len(seen) < 24:
        p, s = rng.choice((2, 3)), rng.choice((2, 3))
        r = rng.randint(1, s)
        a = tuple(rng.choice((-1, 2, -3, 5, 6, p, -p, 2 * p, p * p))
                  for _ in range(r))
        forms = tuple(tuple(rng.choice((0, 1, -1, 2, p, -p, 2 * p, p * p))
                            for _ in range(s)) for _ in range(r))
        M = rng.choice((1, 5))
        uM = tuple(rng.randrange(M) for _ in range(s))
        try:
            job = CountJob(system=NormFormSystem(r=r, s=s, a=a, forms=forms),
                           M=M, uM=uM, uInf=(2,) * s)
        except (PencilError, CountingError):
            continue
        D = cokernel_exponent(forms, p, 9 // (r + 1))
        if not D or (job, p) in seen:
            continue
        seen.add((job, p))
        depths.add(D)
        counts = [G(job, p, k) for k in (D, D + 1, D + 2)]
        assert counts[1] == p ** (s + r) * counts[0], (job, p, D)
        assert counts[2] == p ** (s + r) * counts[1], (job, p, D)
        assert beta_p(job, p) == Fraction(counts[1],
                                          p ** ((s + r) * (D + 1))), (job, p)
    assert depths == {1, 2}


def test_G_tables_hold_one_period(monkeypatch):
    # every table G sums holds at most p^k entries: each form's index is
    # reduced mod p^k once, so no table is repeated to absorb the s terms
    seen = []
    grid_sum = counting._grid_sum

    def spy(boxes, coeffs, consts, tables, modulus=None, line=None):
        seen.append((modulus, [tab.size for tab in tables]))
        return grid_sum(boxes, coeffs, consts, tables, modulus, line)

    monkeypatch.setattr(counting, "_grid_sum", spy)
    three = NormFormSystem(r=3, s=2, a=(-1, 2, -3),
                           forms=((1, 1), (1, -2), (2, 1)))
    cases = [(job1(), 3, 2), (job2(), 2, 3), (job_m12(), 2, 2),
             (CountJob(system=three, uInf=(Fraction(2), Fraction(1))), 2, 2)]
    for job, p, k in cases:
        seen.clear()
        assert G(job, p, k) == brute_G(job, p, k), (job, p, k)
        assert seen == [(p**k, [p**k] * job.system.r)], (job, p, k, seen)


def test_G_errors():
    with pytest.raises(CountingError, match="not prime"):
        G(job1(), 6, 1)
    with pytest.raises(CountingError, match="k must be"):
        G(job1(), 3, 0)
    # with a line direction G(2^24) sums 2^24 lines, beyond the cap
    with pytest.raises(CountingError, match="cap"):
        G(job1(), 2, 24)


def test_beta_p_one_for_good_primes():
    j = job1()
    for p in (2, 3, 5, 7, 11):
        assert beta_p(j, p) == Fraction(1)
    # the shortcut value agrees with the directly detected limit
    for p in (3, 5, 7):
        assert G(j, p, 2) == p**3 * G(j, p, 1)
        assert Fraction(G(j, p, 1), p**3) == 1
    # p = 2 and p | a_i take the shortcut too when p does not divide M
    # and the form matrix has rank r mod p; each value is checked against
    # the count stabilized at the first admissible k0 = 1 + max v_p(4 a_i)
    j3 = CountJob(system=NormFormSystem(r=2, s=2, a=(-3, 5),
                                        forms=((1, 1), (1, 2))),
                  uInf=(Fraction(1), Fraction(1)))
    for j, p in ((job2(), 2), (job2(), 3), (j3, 2), (j3, 3), (j3, 5)):
        s, r = j.system.s, j.system.r
        k0 = 1 + max(max(e for e in range(8) if (4 * a) % p**e == 0)
                     for a in j.system.a)
        assert G(j, p, k0 + 1) == p ** (s + r) * G(j, p, k0)
        assert Fraction(G(j, p, k0), p ** ((s + r) * k0)) == 1
        assert beta_p(j, p) == 1


def test_beta_p_reads_G_at_the_largest_elementary_divisor():
    # forms u and u + 3^5 v have one elementary divisor 3^5 at 3, so the
    # identity G(3^(k+1)) = 3^4 G(3^k) starts at k = 5, past the old
    # search window k <= 4, and fails one level below it
    sysm = NormFormSystem(r=2, s=2, a=(-1, 2), forms=((1, 0), (1, 3**5)))
    job = CountJob(system=sysm, uInf=(Fraction(1), Fraction(1)))
    counts = [G(job, 3, k) for k in (4, 5, 6)]
    assert counts[2] == 3**4 * counts[1]
    assert counts[1] != 3**4 * counts[0]
    assert beta_p(job, 3) == Fraction(counts[1], 3**20) == Fraction(971, 729)
    # 3^8 u and 3^8 v have D = 8 but v_3(g) = 16: the read at D sums 3^8
    # lines, and a read at v_3(g), as valid, would pass G's cap
    square = NormFormSystem(r=2, s=2, a=(-1, 2),
                            forms=((3**8, 0), (0, 3**8)))
    job = CountJob(system=square, uInf=(Fraction(1), Fraction(1)))
    assert beta_p(job, 3) == Fraction(G(job, 3, 9), 3**36) == 1
    with pytest.raises(CountingError, match="cap"):
        G(job, 3, 16)


def test_beta_p_refuses_a_zero_minors_gcd():
    # r > s, and dependent forms with r = s, have no nonzero r x r minor:
    # no level reads the density.  For a = (2, 6, 7) and forms (3u + 2v,
    # -2u + 2v, u + 3v) the scaled counts 2^(-5k) G(2^k) read 1 up to
    # k = 5, then 33/32 and 131/128, so a read at any fixed level would
    # be wrong; beta_p refuses the prime and names ROADMAP item 4
    wide = NormFormSystem(r=3, s=2, a=(2, 6, 7),
                          forms=((3, 2), (-2, 2), (1, 3)))
    job = CountJob(system=wide, uInf=(Fraction(1), Fraction(1)))
    assert [Fraction(G(job, 2, k), 2 ** (5 * k)) for k in (5, 6, 7)] == [
        1, Fraction(33, 32), Fraction(131, 128)]
    flat = NormFormSystem(r=3, s=3, a=(3, 2, 6),
                          forms=((1, 1, 0), (1, 5, -2), (0, 2, -1)))
    for job, p in ((job, 2), (CountJob(system=flat), 3)):
        with pytest.raises(CountingError, match="ROADMAP item 4"):
            beta_p(job, p)


def test_beta_p_dividing_M():
    j = job_m12()
    # g(t) = 1 + 12 t1 is constant mod 4 and mod 3, so G is a pure rho count
    assert rho(BinaryForm(-1), 4, 1) == 8
    assert G(j, 2, 2) == 4 * 4 * 8
    assert beta_p(j, 2) == Fraction(128, 2**6) == 2
    assert rho(BinaryForm(-1), 3, 1) == 4
    assert G(j, 3, 1) == 3 * 3 * 4
    assert beta_p(j, 3) == Fraction(36, 27) == Fraction(4, 3)
    # solvable congruence data keeps beta_p at or above p^(-rm)
    assert beta_p(j, 2) >= Fraction(1, 2**2)
    assert beta_p(j, 3) >= Fraction(1, 3)
    assert beta_p(j, 5) == 1


def test_G_at_p_dividing_M_is_the_conic_counts():
    # p^m | M makes every g_i(t) = f_i(uM) + M f_i(t) constant mod p^m, so
    # G(p^m) = p^(ms) prod_i rho_i(p^m; f_i(uM)), with r <= s (a line
    # direction) and r > s (cell by cell); beta_p reads the counts alone
    rng = random.Random(45)
    cases = [(job_m12(), 2), (job_m12(), 3)]
    for r, s, p, M in ((1, 2, 2, 4), (2, 2, 3, 9), (2, 2, 5, 25),
                       (2, 3, 2, 8), (3, 2, 3, 27), (3, 2, 2, 4),
                       (3, 3, 3, 3), (4, 2, 3, 9)):
        for _ in range(3):
            cases.append((geometry_job(rng, r, s, M, Fraction(1, 2)), p))
    assert {j.system.r > j.system.s for j, _ in cases} == {False, True}
    for job, p in cases:
        s, r = job.system.s, job.system.r
        m = max(e for e in range(1, 8) if job.M % p**e == 0)
        counts = math.prod(rho(BinaryForm(a), p**m, job._f(i, job.uM))
                           for i, a in enumerate(job.system.a))
        assert G(job, p, m) == p ** (m * s) * counts, (job, p)
        assert beta_p(job, p) == Fraction(G(job, p, m),
                                          p ** ((s + r) * m)), (job, p)


def test_beta_p_dividing_a_large_M():
    # past the reach of G: its cells (3^15 lines, 5^12 cells) and its int64
    # sums (3^14), while the conic counts are read at once; x^2 + y^2 = 1
    # has 4/3 3^m solutions mod 3^m, x^2 + 2 y^2 = 2 has 2/3 3^m, and
    # x^2 + y^2 = 1, 2 have 4/5 5^m mod 5^m
    pair = NormFormSystem(r=2, s=2, a=(-1, -2), forms=((1, 0), (1, 1)))
    for m in (14, 15):
        job = CountJob(system=pair, M=3**m, uM=(1, 1))
        assert beta_p(job, 3) == Fraction(8, 9), m
    triple = NormFormSystem(r=3, s=2, a=(-1, -1, -1),
                            forms=((1, 0), (0, 1), (1, 1)))
    job = CountJob(system=triple, M=5**6, uM=(1, 1))
    assert beta_p(job, 5) == Fraction(64, 125)


def test_grid_sum_refuses_a_product_past_the_guard(monkeypatch):
    # one cell's product of the factors' maxima must fit in int64: past
    # the guard the sum is refused before it starts, never wrapped.  At
    # k = 21 the unimodular job2, G(2^k) = 2^(4k), sums its line form's
    # whole table, 2^42, times the other's peak, 2^22: 2^64 once wrapped
    want = [G(job1(), 3, 2), enumerate_N(job2(), 100)]
    assert want == [brute_G(job1(), 3, 2),
                    brute_N(system2(), 1, (0, 0), job2().uInf,
                            job2().epsilon, 100)]
    monkeypatch.setattr(counting, "_SUM_GUARD", 10)
    with pytest.raises(CountingError, match="past the int64 guard 10"):
        G(job1(), 3, 2)
    with pytest.raises(CountingError, match="past the int64 guard 10"):
        enumerate_N(job2(), 100)
    monkeypatch.undo()
    with pytest.raises(CountingError, match="past the int64 guard"):
        G(job2(), 2, 21)


def test_beta_p_zero_when_obstructed():
    # u1 = 3 mod 4 forces x^2 + y^2 = 3 mod 4, which has no solutions
    j = job1(M=4, uM=(3, 0))
    assert rho(BinaryForm(-1), 4, 3) == 0
    assert beta_p(j, 2) == 0


def test_beta_p_errors():
    with pytest.raises(CountingError, match="not prime"):
        beta_p(job1(), 9)


def test_predict_and_compare_fields():
    j = job1(B_schedule=(4, 100))
    reports = predict_and_compare(j, prime_cutoff=30)
    assert len(reports) == 2
    for rep, B in zip(reports, (4, 100)):
        assert rep.B == B
        assert rep.empirical == enumerate_N(j, B)
        assert rep.predicted > 0
        assert rep.ratio == pytest.approx(rep.empirical / rep.predicted,
                                          rel=1e-12)
        assert set(rep.beta_p) == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        assert all(v == 1 for v in rep.beta_p.values())
        assert "truncated at 30" in rep.note
        d = json_value(rep)
        assert d["beta_p"]["2"] == "1/1"
        assert d["predicted"]["precision_bits"] == 53
        assert d["empirical"] == rep.empirical
    assert 0.85 < reports[1].ratio < 1.15


def test_predict_and_compare_permutation_invariant():
    ja = job2(B_schedule=(25,))
    sys_swapped = NormFormSystem(r=2, s=2, a=(2, -1), forms=((0, 1), (1, 0)))
    jb = CountJob(system=sys_swapped, uInf=(Fraction(1), Fraction(1)),
                  B_schedule=(25,))
    (ra,) = predict_and_compare(ja, prime_cutoff=20)
    (rb,) = predict_and_compare(jb, prime_cutoff=20)
    assert ra.empirical == rb.empirical
    assert ra.beta_p == rb.beta_p
    assert ra.predicted == pytest.approx(rb.predicted, rel=1e-12)


def test_predict_and_compare_obstructed():
    j = job1(M=4, uM=(3, 0), B_schedule=(25,))
    (rep,) = predict_and_compare(j, prime_cutoff=10)
    assert rep.predicted == 0.0
    assert rep.empirical == 0
    assert math.isnan(rep.ratio)
    assert rep.note == "no prediction: beta_p = 0 at p = 2"
    assert json_value(rep)["beta_p"]["2"] == "0/1"


def test_predict_and_compare_empty_schedule():
    with pytest.raises(CountingError, match="schedule"):
        predict_and_compare(job1())


# a = (-1, -2) makes both forms definite, and the box about B (1, 0) of
# half-width B / 2 has u + 2v < 0 on 1/16 of its area, where no point lies;
# counting that 1/16 out of beta_inf gives a ratio of 1.0002
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: beta_infinity integrates over the whole box, also "
    "where a definite form is negative"))
def test_predict_ratio_with_a_definite_form():
    system = NormFormSystem(r=2, s=2, a=(-1, -2), forms=((1, 0), (1, 2)))
    job = CountJob(system=system, uInf=(1, 0), B_schedule=(10**4,))
    (rep,) = predict_and_compare(job)
    assert abs(rep.ratio - 1) < 0.01


@pytest.mark.xfail(strict=True, raises=CountingError, reason=(
    "ROADMAP item 4: for r > s, or dependent forms, the r x r minors "
    "gcd is 0, so beta_p refuses every prime not dividing M"))
@pytest.mark.parametrize("a, forms, uInf", [
    ((-1, -2, 5), ((1, 0), (0, 1), (1, 1)), (1, 1)),
    ((3, 2, 6), ((1, 1, 0), (1, 5, -2), (0, 2, -1)), (1, 1, 1)),
], ids=["r > s", "dependent forms"])
def test_predict_in_the_papers_regime(a, forms, uInf):
    system = NormFormSystem(r=len(a), s=len(uInf), a=a, forms=forms)
    job = CountJob(system=system, uInf=uInf, B_schedule=(4,))
    reports = predict_and_compare(job)
    assert [rep.B for rep in reports] == [4]


def geometry_job(rng, r, s, M, eps):
    # a valid job whose forms have no zero coefficient and whose direction
    # has a negative entry; M = 4 needs odd a_i, M = 8 no 4 | a_i, M = 3
    # and 9 no 9 | a_i, M = 27 no 27 | a_i, M = 25 no 25 | a_i
    pool = {1: (-1, -2, 2, 3, -5), 3: (-1, -2, 2, -5, 5), 4: (-1, 3, -5, 5),
            8: (-1, -2, 2, 3, -5, 6), 9: (-1, -2, 2, 3, -5, 5),
            25: (-1, -2, 2, 3, -5, 5), 27: (-1, -2, 2, 3, -5, 6)}
    for _ in range(2000):
        a = tuple(rng.choice(pool[M]) for _ in range(r))
        forms = tuple(tuple(rng.choice((-2, -1, 1, 2, 3)) for _ in range(s))
                      for _ in range(r))
        uM = tuple(rng.randrange(M) for _ in range(s))
        uInf = tuple(Fraction(rng.randrange(-3, 4), rng.choice((1, 2)))
                     for _ in range(s))
        if min(uInf) >= 0:
            continue
        try:
            sysm = NormFormSystem(r=r, s=s, a=a, forms=forms)
            return CountJob(system=sysm, M=M, uM=uM, uInf=uInf, epsilon=eps)
        except Exception:
            continue
    raise AssertionError("rejection sampling failed to find a valid job")


def largest_B(M, eps, s, points):
    # the largest admissible B = C^2, C = 1 mod M, whose brute window
    # (2 eps B + 2)^s stays within `points`
    best = 1
    for C in range(1, 200, M):
        if (2 * eps * C * C + 2) ** s <= points:
            best = C * C
    return best


def test_enumerate_line_geometry_against_brute():
    # lines along a direction w with f_i . w = 0 for i != j: s = 3 with
    # r = 1, 2; r = 3 > s = 2, where no w exists and every cell is its own
    # line; forms without zero coefficients, so for r >= 2 the direction is
    # not a coordinate axis; M in {1, 3, 4}, several eps, negative uInf
    from conicbundles.counting import _line_direction
    rng = random.Random(57)
    seen = set()
    for r, s in ((1, 3), (2, 3), (3, 2), (2, 2)):
        for M in (1, 3, 4):
            for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(2)):
                job = geometry_job(rng, r, s, M, eps)
                B = largest_B(M, eps, s, 6000 if s == 3 else 12000)
                choice = _line_direction(job.system.forms, (B,) * s)
                if r > s:
                    assert choice is None
                    seen.add("cells")
                elif r >= 2:
                    j, w = choice
                    assert sum(1 for c in w if c) >= 2, (job, w)
                    seen.add("oblique")
                expect = brute_N(job.system, job.M, job.uM, job.uInf,
                                 job.epsilon, B)
                assert enumerate_N(job, B) == expect, (job, B)
                seen.add(expect > 0)
    assert seen == {"cells", "oblique", True, False}


def test_enumerate_on_prime_power_classes_against_brute():
    # class tables with step M = 8, 9, 25, 27 at B = (M + 1)^2 and, for
    # s = 2, (2 M + 1)^2: r = 1, 2 and s = 2, 3; a narrower box keeps the
    # s = 3 brute counts below about 2,500 points
    rng = random.Random(71)
    seen = set()
    for M in (8, 9, 25, 27):
        for r, s in ((1, 2), (2, 2), (1, 3), (2, 3)):
            eps = Fraction(1, 2) if s == 2 else Fraction(1, 4)
            job = geometry_job(rng, r, s, M, eps)
            Bs = [(M + 1) ** 2] + ([(2 * M + 1) ** 2] if s == 2 else [])
            for B in Bs:
                expect = brute_N(job.system, job.M, job.uM, job.uInf,
                                 job.epsilon, B)
                assert enumerate_N(job, B) == expect, (job, B)
                seen.add((M, expect > 0))
    assert {M for M, positive in seen if positive} == {8, 9, 25, 27}


def test_enumerate_tables_hold_only_the_class(monkeypatch):
    # every table enumerate_N asks for is the class of f(uM) mod M: one
    # entry per value lo + 125 k of its window, not hi - lo + 1 of them
    calls = []
    table = counting.representation_table

    def spy(form, lo, hi, step=1):
        arr = table(form, lo, hi, step)
        calls.append((lo, hi, step, arr.size))
        return arr

    monkeypatch.setattr(counting, "representation_table", spy)
    sysm = NormFormSystem(r=1, s=2, a=(-1,), forms=((1, 2),))
    job = CountJob(system=sysm, M=125, uM=(1, 0), uInf=(1, 1))
    B = 251**2
    got = enumerate_N(job, B)
    assert calls and all(step == 125 and size == (hi - lo) // 125 + 1
                         for lo, hi, step, size in calls), calls
    # the same sum over the box from one full-window table, indexed by u
    from conicbundles.counting import _axis_range
    spans = [_axis_range(job, B, j) for j in range(2)]
    u1, u2 = (job.uM[j] + job.M * numpy.arange(t0, t1 + 1)
              for j, (t0, t1) in enumerate(spans))
    values = u1[:, None] + 2 * u2[None, :]
    lo = int(values.min())
    full = table(BinaryForm(-1), lo, int(values.max()))
    assert got == int(full[values - lo].sum()) > 0


def test_enumerate_memory_is_tables_and_pieces(monkeypatch):
    # the traced peak of a count is its tables and a fixed number of
    # piece- or batch-sized temporaries: no index axis, line length array,
    # gather list or copy of a table grows with the box beside them
    import tracemalloc
    sizes = []
    table = counting.representation_table

    def spy(*args):
        arr = table(*args)
        sizes.append(arr.nbytes)
        return arr

    monkeypatch.setattr(counting, "representation_table", spy)
    sysm = NormFormSystem(r=2, s=2, a=(-1, 2), forms=((1, 1), (1, -1)))
    job = CountJob(system=sysm, uInf=(Fraction(1), Fraction(1, 3)))
    piece = 8 * max(counting._CHUNK_CELLS, quadform._CHUNK_CELLS)
    for B, count in ((10**5, 4894735284), (10**6, 489479441711)):
        sizes.clear()
        tracemalloc.start()
        try:
            got = enumerate_N(job, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == count
        assert peak <= sum(sizes) + 16 * piece, (B, peak, sizes)


def test_tiny_budgets_change_no_count(monkeypatch):
    # pieces of 7 cells and batches of 5 points cut lines across pieces
    # and progressions across batches.  Counts, G and tables must equal
    # their values at the default budgets.  The last job has an axis that
    # neither form nor line reads, summed once per box and multiplied
    rng = random.Random(23)
    jobs = [(geometry_job(rng, r, s, M, eps), B)
            for r, s, M, eps, B in ((1, 2, 1, Fraction(1, 2), 121),
                                    (2, 2, 9, Fraction(1, 2), 361),
                                    (3, 2, 1, Fraction(1, 2), 49),
                                    (2, 3, 1, Fraction(1, 4), 49),
                                    (1, 3, 25, Fraction(1, 4), 676))]
    flat = NormFormSystem(r=2, s=3, a=(-1, 2), forms=((1, 0, 0), (0, 1, 0)))
    flat_job = CountJob(system=flat, uInf=(Fraction(1), Fraction(1, 2),
                                           Fraction(-1, 2)))
    jobs.append((flat_job, 49))
    assert enumerate_N(flat_job, 25) == brute_N(
        flat, 1, (0, 0, 0), flat_job.uInf, flat_job.epsilon, 25) == 7560
    # lines with d = 3 through a window of 481 values, not a multiple of 3:
    # R's table starts 3 values before the window, at n < 0, where R is 0
    # for a = -1 and not for a = 2
    from conicbundles.counting import (_axis_range, _dot, _form_window,
                                       _line_direction)
    for a, front in ((-1, False), (2, True)):
        steep = NormFormSystem(r=1, s=2, a=(a,), forms=((3, 1),))
        steep_job = CountJob(system=steep, uInf=(Fraction(0), Fraction(1)))
        spans = [_axis_range(steep_job, 121, h) for h in range(2)]
        j, w = _line_direction(steep.forms,
                               [t1 - t0 + 1 for t0, t1 in spans])
        lo, hi = _form_window(steep.forms[j], spans)
        assert _dot(steep.forms[j], w) == 3 and hi - lo + 1 == 481
        assert quadform.representation_table(
            BinaryForm(a), lo - 3, lo - 1).any() == front
        assert enumerate_N(steep_job, 121) == brute_N(
            steep, 1, (0, 0), steep_job.uInf, steep_job.epsilon, 121) > 0
        jobs.append((steep_job, 121))
    windows = [(a, lo, hi, step) for a in (-1, -3, 2, 7)
               for lo, hi in ((-500, 3000), (10**4, 3 * 10**4))
               for step in (1, 9, 125)]

    def everything():
        counts = [enumerate_N(job, B) for job, B in jobs]
        gs = [G(job, p, k) for job, _ in jobs
              for p, k in ((2, 3), (3, 2), (5, 1))]
        tables = [quadform.representation_table(BinaryForm(a), lo, hi,
                                                step).tolist()
                  for a, lo, hi, step in windows]
        return counts, gs, tables

    want = everything()
    assert any(want[0]) and any(want[1])
    monkeypatch.setattr(counting, "_CHUNK_CELLS", 7)
    monkeypatch.setattr(quadform, "_CHUNK_CELLS", 5)
    assert everything() == want


def test_G_line_geometry_against_brute():
    # every line of the torus (Z/p^k)^s is one full cycle; cover s = 3,
    # r = 3 > s = 2 (cell by cell), and k >= 2 with a direction entry
    # divisible by p or a step d = 0 mod p^k (d = 5 mod 25: g = 5)
    from conicbundles.counting import _line_direction
    oblique = NormFormSystem(r=2, s=2, a=(-1, 3), forms=((1, 2), (2, -1)))
    j, w = _line_direction(oblique.forms, (4, 4))
    assert (j, w) == (0, (1, 2))  # w_2 = 2 is 0 mod 2, f_0 . w = 5
    cases = [
        (CountJob(system=oblique, uInf=(Fraction(1), Fraction(0))), 2, 2),
        (CountJob(system=oblique, uInf=(Fraction(1), Fraction(0))), 2, 3),
        (CountJob(system=oblique, uInf=(Fraction(1), Fraction(0))), 5, 2),
        # d = 4 * 5 = 0 mod 4
        (CountJob(system=oblique, M=4, uM=(1, 0),
                  uInf=(Fraction(1), Fraction(0))), 2, 2),
        # w = e_2 with f . w = 0, so d = 0
        (job1(), 3, 2),
        (CountJob(system=NormFormSystem(r=3, s=2, a=(-1, 2, -3),
                                        forms=((1, 1), (1, -2), (2, 1))),
                  uInf=(Fraction(2), Fraction(1))), 2, 2),
        (CountJob(system=NormFormSystem(r=3, s=2, a=(-1, 2, -3),
                                        forms=((1, 1), (1, -2), (2, 1))),
                  uInf=(Fraction(2), Fraction(1))), 3, 2),
    ]
    # w_1 = 0 mod p: the lines start on {t_2 = 0}, not {t_1 = 0}; in the
    # first system d = 4 = 0 mod 4 as well
    for forms, p, w in ((((1, 2), (3, 2)), 2, (2, -1)),
                        (((1, 3), (2, 3)), 3, (3, -1)),
                        (((2, 1, 1), (1, 2, 2)), 2, (2, -1, 0))):
        s = len(w)
        steep = NormFormSystem(r=2, s=s, a=(-1, 3), forms=forms)
        assert _line_direction(forms, (p * p,) * s)[1] == w
        steep_job = CountJob(system=steep,
                             uInf=(Fraction(1),) + (Fraction(0),) * (s - 1))
        cases += [(steep_job, p, 2), (steep_job, p, 3 if p == 2 else 1)]
    rng = random.Random(61)
    for r in (1, 2, 2):
        job = geometry_job(rng, r, 3, 1, Fraction(1, 2))
        cases += [(job, 2, 1), (job, 2, 2), (job, 3, 1), (job, 3, 2)]
    for job, p, k in cases:
        assert G(job, p, k) == brute_G(job, p, k), (job, p, k)


def test_enumerate_separable_at_ten_billion_cells():
    # forms u_1 and u_2 with definite a: N is the product of the two
    # one-dimensional sums of R over the axis windows, on a box of more
    # than 10^10 cells that no cell-by-cell pass could visit
    from conicbundles.quadform import representation_table
    sysm = NormFormSystem(r=2, s=2, a=(-1, -2), forms=((1, 0), (0, 1)))
    job = CountJob(system=sysm, uInf=(Fraction(1), Fraction(1)))
    B = 317**2
    lo, hi = B // 2 + 1, B + B // 2  # |u - B| < B / 2 with B odd
    assert (hi - lo + 1) ** 2 >= 10**10
    expect = 1
    for a in sysm.a:
        expect *= int(representation_table(BinaryForm(a), lo, hi).sum())
    assert enumerate_N(job, B) == expect


def _reference_line_direction(forms, extents):
    # the fewest entry points over every form j and every reference
    # null vector w of the other forms, oriented so f_j . w >= 0; the
    # first minimum wins
    cells = math.prod(extents)
    best = None
    for j in range(len(forms)):
        for w in nullspace(forms[:j] + forms[j + 1:], len(extents)):
            if sum(c * x for c, x in zip(forms[j], w)) < 0:
                w = tuple(-c for c in w)
            entries = cells - math.prod(
                max(0, n - abs(c)) for n, c in zip(extents, w))
            if best is None or entries < best[0]:
                best = (entries, j, w)
    return None if best is None else best[1:]


def test_nullspace_and_line_direction_against_fraction_reference():
    from conicbundles.counting import _line_direction
    from conicbundles.exactnum import _nullspace
    rng = random.Random(71)
    ranks = set()
    for _ in range(3000):
        s, r = rng.randint(1, 5), rng.randint(1, 5)
        rows = [tuple(rng.choice((0, 0, 1, -1, 2, -3, 6, -12,
                                  rng.randint(-30, 30)))
                      for _ in range(s)) for _ in range(r)]
        basis = _nullspace(rows, s)
        assert basis == nullspace(rows, s), rows
        for w in basis:
            assert all(type(c) is int for c in w)
            assert math.gcd(*w) == 1
            assert all(sum(c * x for c, x in zip(row, w)) == 0
                       for row in rows)
        ranks.add(s - len(basis))
        extents = tuple(rng.randint(1, 15) for _ in range(s))
        assert (_line_direction(rows, extents)
                == _reference_line_direction(rows, extents)), (rows, extents)
    assert ranks == {0, 1, 2, 3, 4, 5}


def test_minors_gcd_rank_test_against_brute_rank():
    # the forms have rank r mod p exactly when t -> (f_i . t) mod p is onto
    # F_p^r, counted here over every t in F_p^s
    from conicbundles.counting import _minors_gcd
    rng = random.Random(73)
    seen = set()
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7))
        s = rng.randint(1, 3 if p < 7 else 2)
        r = rng.randint(1, 4)
        forms = [tuple(rng.choice((0, 0, 1, -1, 2, -3, p, -p, 2 * p, p * p))
                       for _ in range(s)) for _ in range(r)]
        image = {tuple(sum(c * x for c, x in zip(f, t)) % p for f in forms)
                 for t in itertools.product(range(p), repeat=s)}
        onto = len(image) == p**r
        assert (_minors_gcd(forms, s) % p != 0) == onto, (forms, p)
        seen.add((onto, r > s))
    assert seen == {(True, False), (False, False), (False, True)}


def test_predict_beta_p_is_beta_p_at_every_prime():
    # predict_and_compare calls beta_p only at primes dividing M or the
    # minors gcd and writes 1 at the others; on seeded jobs every value up
    # to the cutoff must be what beta_p itself returns.  r > s jobs take
    # M = 36 and cutoff 3, so that every prime up to the cutoff divides M
    from conicbundles.counting import _minors_gcd
    rng = random.Random(79)
    seen = set()
    jobs = 0
    while jobs < 60:
        r, s = rng.choice(((3, 2), (1, 2), (2, 2), (2, 2), (2, 3), (1, 1)))
        M = 36 if r > s else rng.choice((1, 1, 4, 9, 25))
        c = 3 if r > s else rng.choice((2, 3, 5, 7))
        a = tuple(rng.choice((-1, -3, 3, 5, -5, 7)) for _ in range(r))
        forms = tuple(tuple(rng.choice((0, 1, -1, 2, -2, 3, 5))
                            for _ in range(s)) for _ in range(r))
        uM = tuple(rng.randrange(M) for _ in range(s))
        uInf = tuple(Fraction(rng.randint(0, 2)) for _ in range(s))
        try:
            job = CountJob(system=NormFormSystem(r=r, s=s, a=a, forms=forms),
                           M=M, uM=uM, uInf=uInf, B_schedule=(1,))
        except (PencilError, CountingError):
            continue
        (rep,) = predict_and_compare(job, prime_cutoff=c)
        jobs += 1
        minors = _minors_gcd(forms, s)
        for p in (2, 3, 5, 7):
            if p > c:
                continue
            assert rep.beta_p[p] == beta_p(job, p), (job, p)
            if r > s:
                seen.add("r > s")
            elif M % p == 0:
                seen.add("p | M")
            elif minors % p == 0:
                seen.add("p = 2 | minors" if p == 2 else "p | minors")
            else:
                seen.add("good")
    assert seen == {"r > s", "p | M", "p = 2 | minors", "p | minors",
                    "good"}


def test_bad_primes_above_the_cutoff_enter_the_euler_product():
    # forms u and u + 7v: the minors gcd is 7, so beta_7 is kept at cutoff
    # 6; its value is the stabilized brute-force count G(7) / 7^4
    sysm = NormFormSystem(r=2, s=2, a=(-1, -2), forms=((1, 0), (1, 7)))
    job = CountJob(system=sysm, uInf=(Fraction(1), Fraction(0)),
                   B_schedule=(1,))
    assert brute_G(job, 7, 2) == 7**4 * brute_G(job, 7, 1)
    assert Fraction(brute_G(job, 7, 1), 7**4) == Fraction(55, 49)
    assert beta_p(job, 7) == Fraction(55, 49)
    (rep,) = predict_and_compare(job, prime_cutoff=6)
    assert rep.beta_p == {2: 1, 3: 1, 5: 1, 7: Fraction(55, 49)}
    assert rep.note == ("Euler product truncated at 6; tail factors "
                        "1 + O(p^-2) not estimated")
    # a prime of M above the cutoff is kept too, also when r > s makes
    # every prime bad: M = 100 at cutoff 2 keeps 5 and leaves 3 out
    wide = NormFormSystem(r=3, s=2, a=(-1, 3, 5),
                          forms=((1, 0), (0, 1), (1, 1)))
    job = CountJob(system=wide, M=100, uM=(1, 1),
                   uInf=(Fraction(1), Fraction(1)), B_schedule=(1,))
    (rep,) = predict_and_compare(job, prime_cutoff=2)
    assert sorted(rep.beta_p) == [2, 5]
    assert rep.beta_p[5] == Fraction(brute_G(job, 5, 2), 5 ** (5 * 2))
    assert rep.beta_p[2] == Fraction(brute_G(job, 2, 2), 2 ** (5 * 2))


def test_G_cap_counts_the_lines_summed():
    # forms u and u + 59v: with a line direction G(59^2) sums 59^2 lines,
    # within the cap; G(59^4) sums 59^4 lines, beyond it, though far fewer
    # than its 59^8 residue vectors.  beta_59 enters the report, equal to
    # beta_p and to the brute count
    p = 59
    sysm = NormFormSystem(r=2, s=2, a=(-1, -2), forms=((1, 0), (1, p)))
    job = CountJob(system=sysm, uInf=(Fraction(1), Fraction(0)),
                   B_schedule=(1,))
    # #{(x, y) mod p : x^2 - a y^2 = A} for each form, by enumeration
    counts = []
    for a in sysm.a:
        tab = [0] * p
        for x in range(p):
            for y in range(p):
                tab[(x * x - a * y * y) % p] += 1
        counts.append(tab)
    brute = sum(counts[0][u % p] * counts[1][(u + p * v) % p]
                for u in range(p) for v in range(p))
    assert G(job, p, 1) == brute
    (rep,) = predict_and_compare(job)
    assert rep.beta_p[p] == beta_p(job, p) == Fraction(brute, p**4)
    assert rep.beta_p[p] == Fraction(3423, 3481)
    with pytest.raises(CountingError, match="sums 12117361 cells"):
        G(job, p, 4)


def test_axis_values_against_direct_window():
    # the integers u = uM mod M with |u - B uInf_j| < eps B, found by
    # testing every integer of a slightly wider window in Fractions
    from conicbundles.counting import _axis_range
    rng = random.Random(97)
    sysm = NormFormSystem(r=1, s=2, a=(3,), forms=((1, 1),))
    for _ in range(400):
        M = rng.choice((1, 4, 9, 25))
        uInf = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     for _ in range(2))
        eps = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        # f(uM) = uM_1 must not vanish mod M
        job = CountJob(system=sysm, M=M, uM=(rng.randrange(1, max(2, M)), 0),
                       uInf=uInf, epsilon=eps)
        B = rng.choice((1, 4, 9, 25, 49, 121, 169, 361))
        for j in range(2):
            centre, half = B * uInf[j], eps * B
            want = [u for u in range(math.floor(centre - half) - 1,
                                     math.ceil(centre + half) + 2)
                    if (u - job.uM[j]) % M == 0 and abs(u - centre) < half]
            span = _axis_range(job, B, j)
            got = [] if span is None else [
                job.uM[j] + job.M * t for t in range(span[0], span[1] + 1)]
            assert got == want, (job, B)
