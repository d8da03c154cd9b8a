"""End-to-end acceptance: nine checks, one printed pass/fail line each.

Each check is one test, so the verbose pytest report carries one
PASSED/FAILED line per criterion; with -s each also prints a summary
line including its wall time.  Stated budgets are asserted.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy

from conicbundles.exactnum import (Place, factorize, hilbert,
                                   hilbert_support, is_prime, valuation)
from conicbundles.quadform import (BinaryForm, representation_count, rho,
                                   rho_table, scaling_valid, w)
from conicbundles.counting import G, beta_p, predict_and_compare
from conicbundles.pencil import (ConicBundleData, NormFormSystem, PencilError,
                                 brauer_group)
from conicbundles.brauermanin import global_point, pairing, \
    quotient_generators
from conicbundles.localsolve import everywhere_locally_soluble
from conicbundles.delpezzo import (DP1Data, DP2Data, Quartic, SplitPolynomial,
                                   dp1_condition, dp2_minimality,
                                   quartic_discriminant)
from jobs import job1, job2
from oracle import check_local_witness, local_symbol
from reference import (brute_solutions, form_has_repeated_root, pderiv,
                       pdiv, pgcd, pmul, ptrim, reduce_to_domain, resultant)


@contextmanager
def criterion(number, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, \
                "criterion %d took %.1fs, budget %.0fs" % (number, elapsed,
                                                           budget)
    except BaseException:
        print("CRITERION %d: FAIL - %s" % (number, label))
        raise
    print("CRITERION %d: PASS - %s (%.2fs)" % (number, label, elapsed))


PRIMES_20 = (2, 3, 5, 7, 11, 13, 17, 19)
PRIMES_50 = tuple(p for p in range(2, 51) if is_prime(p))


# 1 ---------------------------------------------------------------------

def test_criterion_1_hilbert_reciprocity():
    with criterion(1, "Hilbert reciprocity on 500 random pairs", budget=5):
        rng = random.Random(101)
        for _ in range(500):
            a = b = 0
            while a == 0:
                a = rng.randint(-10_000, 10_000)
            while b == 0:
                b = rng.randint(-10_000, 10_000)
            product = 1
            for place in hilbert_support(a, b):
                product *= hilbert(a, b, place)
            assert product == 1, (a, b)


# 2 ---------------------------------------------------------------------

def test_criterion_2_representation_oracle():
    with criterion(2, "representation counts against brute force",
                   budget=30):
        for a in (-1, -2, -5):
            form = BinaryForm(a)
            order = w(4 * a)
            for n in range(1, 501):
                raw = len(brute_solutions(a, n, math.isqrt(n // -a) + 1))
                assert order * representation_count(form, n) == raw, (a, n)
        for a in (2, 3):
            form = BinaryForm(a)
            for n in range(-200, 201):
                if n == 0:
                    continue
                # one reduced solution per orbit
                reduced = {reduce_to_domain(a, x, y, n)
                           for x, y in brute_solutions(a, n, 10_000)}
                assert representation_count(form, n) == len(reduced), (a, n)


# 3 ---------------------------------------------------------------------

def test_criterion_3_local_density_identities():
    with criterion(3, "rho identities: total mass, CRT, Hensel scaling"):
        rng = random.Random(301)
        pool = (-1, -2, -5, 2, 3, 5, -6, 6, 7, 10)
        # total mass: the sum over residues of rho(q; .) is q^2
        for _ in range(100):
            a = rng.choice(pool)
            form = BinaryForm(a)
            q = rng.randint(2, 10_000)
            total = 1
            for p, k in factorize(q):
                total *= sum(rho_table(form, p, k))
            assert total == q * q, (a, q)
        for _ in range(5):
            a = rng.choice(pool)
            form = BinaryForm(a)
            q = rng.randint(2, 60)
            assert sum(rho(form, q, A) for A in range(q)) == q * q, (a, q)
        # CRT multiplicativity, verified against direct enumeration
        powers = (2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 11, 13, 23, 31)
        checked = 0
        while checked < 100:
            a = rng.choice(pool)
            q1, q2 = rng.choice(powers), rng.choice(powers)
            if math.gcd(q1, q2) != 1 or q1 * q2 > 1200:
                continue
            checked += 1
            form = BinaryForm(a)
            Q = q1 * q2
            xs = numpy.arange(Q, dtype=numpy.int64)
            values = (xs[:, None] ** 2 - a * xs[None, :] ** 2) % Q
            table = numpy.bincount(values.ravel(), minlength=Q)
            assert int(table.sum()) == Q * Q
            for A in (rng.randrange(Q), 0, 1):
                left = rho(form, Q, A)
                assert left == int(table[A]), (a, q1, q2, A)
                assert left == rho(form, q1, A % q1) * rho(form, q2, A % q2)
        # Hensel scaling on its full documented domain, p^(k+1) <= 10^5
        for a in (-1, 2, 3, -6):
            form = BinaryForm(a)
            for p in (2, 3, 5):
                v4a = valuation(4 * a, p)
                k = 1
                while p ** (k + 1) <= 100_000:
                    m = p ** k
                    low = numpy.array(rho_table(form, p, k))
                    high = numpy.array(rho_table(form, p, k + 1))
                    A = numpy.arange(m)
                    vals = numpy.zeros(m, dtype=numpy.int64)
                    step = p
                    level = 1
                    while step <= m:
                        vals[::step] = level
                        step *= p
                        level += 1
                    vals[0] = k
                    if p == 2:
                        valid = (A != 0) & (k >= v4a + vals)
                    else:
                        valid = (A != 0) & (k >= v4a)
                    spots = rng.sample(range(m), min(8, m))
                    for A0 in spots:
                        assert scaling_valid(form, p, k, A0) == \
                            bool(valid[A0]), (a, p, k, A0)
                    for ell in range(p):
                        ok = p * low[valid] == high[(A[valid] + ell * m) %
                                                    (m * p)]
                        assert bool(ok.all()), (a, p, k, ell)
                    k += 1


# 4 ---------------------------------------------------------------------

def test_criterion_4_stabilization():
    with criterion(4, "G stabilizes at the first admissible k, p <= 50",
                   budget=60):
        for job in (job1(), job2()):
            s, r = job.system.s, job.system.r
            for p in PRIMES_50:
                bound = max(valuation(4 * a, p) for a in job.system.a)
                k0 = max(1, bound + 1)
                low = G(job, p, k0)
                assert G(job, p, k0 + 1) == p ** (s + r) * low, (r, p)
        for p in PRIMES_50:
            assert beta_p(job1(), p) == 1, p


# 5 ---------------------------------------------------------------------

def test_criterion_5_counting_asymptotic():
    with criterion(5, "empirical over predicted counts approach 1",
                   budget=300):
        schedule = (4, 9, 100, 961)
        for job in (job1(B_schedule=schedule), job2(B_schedule=schedule)):
            reports = predict_and_compare(job)
            ratios = [rep.ratio for rep in reports]
            assert 0.85 <= ratios[2] <= 1.15, ratios
            assert 0.93 <= ratios[3] <= 1.07, ratios
            gaps = [abs(x - 1) for x in ratios]
            toward = sum(1 for lo, hi in zip(gaps, gaps[1:]) if hi <= lo)
            assert toward >= 2, ratios


# 6 ---------------------------------------------------------------------

def test_criterion_6_brauer_suite():
    with criterion(6, "quotient ranks and vanishing global pairings"):
        split = ConicBundleData(e=(0, 1, 2), a=(2, 3, 6))
        desc = brauer_group(split)
        assert desc.quotient_rank == 0
        assert desc.weak_approximation is True
        flagship = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))
        assert brauer_group(flagship).quotient_rank == 2
        rng = random.Random(601)
        mixed = ConicBundleData(e=(0, 1, 2, 5), a=(5, 5, -1, -1))
        for data in (flagship, mixed):
            gens = quotient_generators(data)
            assert gens
            count = 0
            while count < 50:
                t = Fraction(rng.randint(-60, 60), rng.randint(1, 24))
                if t in data.e:
                    continue
                count += 1
                point = global_point(data, t)
                for gen in gens:
                    assert pairing(data, point, gen.n) == 0, (data.a, t)


# 7 ---------------------------------------------------------------------

def test_criterion_7_congruence_density_lower_bound():
    with criterion(7, "beta_p >= p^(-r val_p(M)) for the mod-12 job"):
        job = job1(M=12, uM=(1, 0))
        r = job.system.r
        b2, b3 = beta_p(job, 2), beta_p(job, 3)
        assert b2 == 2 and b3 == Fraction(4, 3)
        assert b2 >= Fraction(1, 2 ** (r * valuation(12, 2)))
        assert b3 >= Fraction(1, 3 ** (r * valuation(12, 3)))


# 8 ---------------------------------------------------------------------

def _peval(a, t):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _subresultant_prs(a, b):
    """Ducos-style subresultant polynomial remainder sequence.

    Returns the chain [a, b, ...] down to a constant; the entries are
    the subresultant polynomials up to sign when the chain is regular."""
    chain = [ptrim(a), ptrim(b)]
    g, h = Fraction(1), Fraction(1)
    while len(chain[-1]) > 1:
        A, B = chain[-2], chain[-1]
        d = len(A) - len(B)
        lead = B[-1] ** (d + 1)
        rem = pdiv([lead * c for c in A], B)[1]
        if not rem:
            break
        divisor = g * h ** d
        chain.append([c / divisor for c in rem])
        g = B[-1]
        h = (g ** d / h ** (d - 1)) if d > 1 else (h ** (1 - d) * g ** d)
    return chain


def _interpolate(points):
    # Lagrange interpolation through (x, y) pairs, exact
    out = [Fraction(0)]
    for i, (xi, yi) in enumerate(points):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = pmul(num, [-xj, Fraction(1)])
            den *= xi - xj
        term = [yi * c / den for c in num]
        out = [x + y for x, y in
               zip(out + [Fraction(0)] * (len(term) - len(out)),
                   term + [Fraction(0)] * (len(out) - len(term)))]
    return ptrim(out)


def _dp1_second_route(data):
    """Recompute the pencil condition by interpolation over sample slopes
    with a Euclidean resultant and a subresultant PRS; independent of the
    ternary-invariant and minor-determinant formulas under test."""
    p = list(data.p_coefficients())
    q = list(data.q_coefficients())
    disc_points = []
    s1_points = []
    r0 = 10
    while len(disc_points) < 8 or len(s1_points) < 7:
        r0 += 1
        member = [Fraction(r0) * x + y for x, y in zip(p, q)]
        if member[4] == 0:
            continue
        deriv = pderiv(member)
        disc_val = -resultant(member, deriv) / member[4]
        if len(disc_points) < 8:
            disc_points.append((Fraction(r0), disc_val))
        chain = _subresultant_prs(member, deriv)
        if [len(c) for c in chain] == [5, 4, 3, 2, 1] and len(s1_points) < 7:
            s1_points.append((Fraction(r0), chain[-2][-1]))
    disc = _interpolate(disc_points[:7])
    extra_x, extra_y = disc_points[7]
    assert _peval(disc, extra_x) == extra_y
    s1 = _interpolate(s1_points[:6])
    extra_x, extra_y = s1_points[6]
    assert _peval(s1, extra_x) == extra_y
    full_degree = len(ptrim(p)) == 5 and len(ptrim(q)) == 5 \
        and len(disc) == 7
    squarefree = len(pgcd(disc, pderiv(disc))) == 1
    simple = bool(s1) and len(pgcd(disc, s1)) == 1
    return full_degree and squarefree and simple, \
        (full_degree, squarefree, simple), disc


def test_criterion_8_del_pezzo_suite():
    with criterion(8, "discriminant oracle, pencil condition, minimality",
                   budget=60):
        rng = random.Random(801)
        for trial in range(200):
            kind = trial % 3
            if kind == 0:
                coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
            elif kind == 1:
                alpha = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                square = pmul([-alpha, Fraction(1)], [-alpha, Fraction(1)])
                rest = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
                coeffs = pmul(square, rest)
                coeffs += [Fraction(0)] * (5 - len(coeffs))
            else:
                degree = rng.randint(0, 2)
                coeffs = [Fraction(rng.randint(-6, 6))
                          for _ in range(degree + 1)]
                coeffs += [Fraction(0)] * (5 - len(coeffs))
            if not any(coeffs):
                continue
            disc = quartic_discriminant(Quartic(tuple(coeffs)))
            assert (disc == 0) == form_has_repeated_root(coeffs), coeffs
        reference = DP1Data(e=(0, 1, 2, 3, 4, 5, 6, 7), c1=1, c2=1)
        report = dp1_condition(reference)
        holds, clauses, disc = _dp1_second_route(reference)
        assert report.holds is True and holds is True
        assert clauses == (report.full_degree,
                           report.discriminant_squarefree,
                           report.double_roots_simple)
        assert ptrim(list(report.discriminant)) == disc
        degenerate = DP1Data(
            e=(1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 4, -4),
            c1=1, c2=1)
        report = dp1_condition(degenerate)
        holds, clauses, disc = _dp1_second_route(degenerate)
        assert report.holds is False and holds is False
        assert clauses == (report.full_degree,
                           report.discriminant_squarefree,
                           report.double_roots_simple)
        assert ptrim(list(report.discriminant)) == disc
        pencil_rng = random.Random(802)
        scalars = (1, 2, Fraction(1, 2), -3, Fraction(2, 3))
        for trial in range(40):
            points = set()
            if trial % 4:
                while len(points) < 8:
                    points.add(Fraction(pencil_rng.randint(-12, 12),
                                        pencil_rng.randint(1, 3)))
                e = pencil_rng.sample(sorted(points), 8)
            else:
                # e = (v1, -v1, ..., v4, -v4) makes p and q even: degenerate
                while len(points) < 4:
                    points.add(Fraction(pencil_rng.randint(1, 12),
                                        pencil_rng.randint(1, 3)))
                e = [y for v in pencil_rng.sample(sorted(points), 4)
                     for y in (v, -v)]
            data = DP1Data(e=tuple(e), c1=pencil_rng.choice(scalars),
                           c2=pencil_rng.choice(scalars))
            report = dp1_condition(data)
            holds, clauses, disc = _dp1_second_route(data)
            assert report.holds is holds, data
            assert clauses == (report.full_degree,
                               report.discriminant_squarefree,
                               report.double_roots_simple), data
            assert ptrim(list(report.discriminant)) == disc, data
        for _ in range(10):
            lead = rng.choice((1, 4, 9, 25))
            roots = []
            while len(set(roots)) != 6:
                roots = [rng.randint(-30, 30) for _ in range(6)]
            try:
                data = DP2Data(
                    f=SplitPolynomial(lead, tuple(roots[:2])),
                    g=SplitPolynomial(rng.randint(1, 20), tuple(roots[2:4])),
                    h=SplitPolynomial(rng.randint(1, 20), tuple(roots[4:])))
            except Exception:
                continue
            assert dp2_minimality(data).independent is False
        separated = DP2Data(f=SplitPolynomial(101, (19, -63)),
                            g=SplitPolynomial(103, (-3, -74)),
                            h=SplitPolynomial(107, (66, 71)))
        assert dp2_minimality(separated).independent is True


# 9 ---------------------------------------------------------------------

_ODD_NONSQUARES = (-1, 3, -3, 5, -5, 7)


def _random_odd_system(rng):
    while True:
        r = rng.randint(1, 2)
        a = tuple(rng.choice(_ODD_NONSQUARES) for _ in range(r))
        forms = tuple(tuple(rng.randint(-4, 4) for _ in range(2))
                      for _ in range(r))
        try:
            return NormFormSystem(r=r, s=2, a=a, forms=forms)
        except PencilError:
            continue


_ADMISSIBLE_CACHE = {}


def _admissible(a, p):
    """Residues v mod p^4 certified soluble for x^2 - a y^2 = v over Z_p:
    nonzero with lifting margin and positive Hilbert symbol."""
    key = (a, p)
    if key in _ADMISSIBLE_CACHE:
        return _ADMISSIBLE_CACHE[key]
    m = p ** 4
    need = 3 if p == 2 else 1
    vals = numpy.zeros(m, dtype=numpy.int64)
    step, level = p, 1
    while step <= m:
        vals[::step] = min(level, 4)
        step *= p
        level += 1
    cls = 8 if p == 2 else p
    units = numpy.zeros(m, dtype=numpy.int64)
    indices = numpy.arange(m)
    for ell in range(4):
        sel = vals == ell
        units[sel] = (indices[sel] // p ** ell) % cls
    symbols = {}
    for parity in (0, 1):
        for u in range(1, cls):
            if u % p == 0 and p != 2:
                continue
            if p == 2 and u % 2 == 0:
                continue
            symbols[(parity, u)] = local_symbol(a, p ** parity * u, p)
    sym = numpy.zeros(m, dtype=numpy.int64)
    for (parity, u), value in symbols.items():
        sym[(vals % 2 == parity) & (units == u)] = value
    ok = (vals <= 4 - need) & (sym == 1)
    _ADMISSIBLE_CACHE[key] = ok
    return ok


def _smith_with_left(mat):
    """M = U diag(d1, d2) V with U, V unimodular; returns U and (d1, d2)."""
    a = [list(mat[0]), list(mat[1])]
    u = [[1, 0], [0, 1]]
    while a[0][1] != 0 or a[1][0] != 0:
        entries = [(abs(a[i][j]), i, j) for i in (0, 1) for j in (0, 1)
                   if a[i][j] != 0]
        _, i, j = min(entries)
        if i == 1:
            a[0], a[1] = a[1], a[0]
            for row in u:
                row[0], row[1] = row[1], row[0]
        if j == 1:
            for row in a:
                row[0], row[1] = row[1], row[0]
        if a[1][0]:
            quot = a[1][0] // a[0][0]
            a[1] = [x - quot * y for x, y in zip(a[1], a[0])]
            for row in u:
                row[0] += quot * row[1]
        if a[0][1]:
            quot = a[0][1] // a[0][0]
            for row in a:
                row[1] -= quot * row[0]
    return u, (a[0][0], a[1][1])


def _cap_val(x, p):
    v = 0
    while x % p == 0 and v < 4:
        x //= p
        v += 1
    return v


def _oracle_soluble(system, p):
    """Exhaustive search for u mod p^4 with every f_i(u) admissible,
    organized over form values so large p stays tractable."""
    m = p ** 4
    admissible = [_admissible(a, p) for a in system.a]
    if system.r == 1:
        c1, c2 = system.forms[0]
        e = _cap_val(math.gcd(abs(c1), abs(c2)) or m, p)
        return bool(admissible[0][::p ** e].any())
    mat = [list(system.forms[0]), list(system.forms[1])]
    u, (d1, d2) = _smith_with_left(mat)
    det_u = u[0][0] * u[1][1] - u[0][1] * u[1][0]
    assert det_u in (1, -1)
    inv = [[det_u * u[1][1], -det_u * u[0][1]],
           [-det_u * u[1][0], det_u * u[0][0]]]
    alpha = _cap_val(abs(d1), p)
    beta = _cap_val(abs(d2), p)
    gamma = max(alpha, beta)
    P = p ** gamma
    c1 = numpy.arange(P)
    pair_ok = numpy.ones((P, P), dtype=bool)
    if alpha:
        pair_ok &= (inv[0][0] * c1[:, None] + inv[0][1] * c1[None, :]) \
            % p ** alpha == 0
    if beta:
        pair_ok &= (inv[1][0] * c1[:, None] + inv[1][1] * c1[None, :]) \
            % p ** beta == 0
    hist = [adm.reshape(m // P, P).any(axis=0) for adm in admissible]
    return bool((pair_ok & hist[0][:, None] & hist[1][None, :]).any())


def _oracle_soluble_meshgrid(system, p):
    # the same search as a literal sweep of u mod p^4; small p only
    m = p ** 4
    admissible = [_admissible(a, p) for a in system.a]
    u1 = numpy.arange(m, dtype=numpy.int64)
    ok = numpy.ones((m, m), dtype=bool)
    for adm, (c1, c2) in zip(admissible, system.forms):
        values = (c1 * u1[:, None] + c2 * u1[None, :]) % m
        ok &= adm[values]
    return bool(ok.any())


def test_criterion_9_local_solubility_against_search():
    with criterion(9, "local verdicts match residue search; witnesses "
                      "lift"):
        rng = random.Random(901)
        for index in range(25):
            system = _random_odd_system(rng)
            report = everywhere_locally_soluble(system, L=20)
            module_bad = {place.p for place in report.bad_places
                          if not place.is_real}
            found = dict(report.witnesses)
            for p in PRIMES_20:
                # oracle soluble implies module soluble, that is, module
                # insoluble implies oracle insoluble; a module verdict of
                # soluble is checked below by lifting its witness.  Where
                # the oracle finds nothing mod p^4 that witness lies
                # deeper, as one kept to p^4 or less would lift to a
                # residue the oracle accepts (r = 1, a = (5,), form (-4, 4)
                # at p = 2 takes f = 16 at precision 7)
                verdict = _oracle_soluble(system, p)
                assert not verdict or p not in module_bad, (index, system, p)
                if not verdict and p not in module_bad:
                    assert found[Place(p)].precision > 4, (index, system, p)
                if p <= 5:
                    assert verdict == _oracle_soluble_meshgrid(system, p)
            for place, witness in report.witnesses:
                if place.is_real:
                    continue
                # some lift of the witness one digit deeper is again a
                # witness
                p, k = place.p, witness.precision
                lifted = any(
                    check_local_witness(
                        system.a, system.forms, p,
                        (witness.u[0] + delta1 * p ** k,
                         witness.u[1] + delta2 * p ** k), k + 1) is None
                    for delta1 in range(p) for delta2 in range(p))
                assert lifted, (index, system, place)
