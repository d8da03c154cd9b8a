import itertools
import random
from fractions import Fraction

import numpy
import pytest

from conicbundles import localsolve
from conicbundles.exactnum import (
    Place,
    REAL_PLACE,
    factorize,
    is_prime,
    valuation,
)
from conicbundles.localsolve import (
    LocalSolveError,
    _fm_witness,
    diagonal_quadric_soluble,
    everywhere_locally_soluble,
    padic_soluble,
    real_soluble,
)
from conicbundles.pencil import NormFormSystem, PencilError, technical_bound
from jobs import local_pool_system
from oracle import check_local_witness, local_symbol
from reference import cofactor_det, trial_primes


def evaluate(form, u):
    return sum(c * x for c, x in zip(form, u))


def check_real_witness(system, wit):
    assert wit.place.is_real
    for i in system.i_minus:
        assert evaluate(system.forms[i], wit.u) > 0
    for f in system.forms:
        assert evaluate(f, wit.u) != 0


def check_padic_witness(system, p, wit):
    why = check_local_witness(system.a, system.forms, p, wit.u, wit.precision)
    assert why is None, why


def full_rank(forms):
    # whether some r x r minor of the form matrix is nonzero, by Laplace
    # expansion: the r forms have rank r, and r <= s
    return any(cofactor_det([[f[j] for j in cols] for f in forms])
               for cols in itertools.combinations(range(len(forms[0])),
                                                  len(forms)))


def brute_padic(system, p, depth):
    # exhaustive residue search implementing the documented predicate
    return any(
        check_local_witness(system.a, system.forms, p, u, depth) is None
        for u in itertools.product(range(p**depth), repeat=system.s))


def brute_quadric(coeffs, place):
    # primitive-solution search at enough precision to settle Hensel lifting
    if place.is_real:
        signs = {x > 0 for x in coeffs}
        return len(signs) == 2
    p = place.p
    k = 3 if p != 2 else 6
    m = p**k
    xs = numpy.arange(m, dtype=numpy.int64)
    sq = [(int(c) * xs * xs) % m for c in coeffs]
    unit = xs % p != 0
    prim_mask = unit[:, None] | unit[None, :]
    half = [(sq[0][:, None] + sq[1][None, :]) % m,
            (sq[2][:, None] + sq[3][None, :]) % m]
    vals = [numpy.zeros(m, dtype=bool), numpy.zeros(m, dtype=bool)]
    anyv = [numpy.zeros(m, dtype=bool), numpy.zeros(m, dtype=bool)]
    for t in (0, 1):
        vals[t][numpy.unique(half[t][prim_mask])] = True
        anyv[t][numpy.unique(half[t])] = True
    neg = (m - numpy.arange(m)) % m
    return bool((vals[0] & anyv[1][neg]).any() or
                (anyv[0] & vals[1][neg]).any())


def random_system(rng):
    while True:
        r = rng.randint(1, 3)
        s = 2
        a = []
        for _ in range(r):
            x = rng.choice([-1, 2, 3, -2, 5, -5, 6, -3])
            a.append(x)
        forms = [tuple(rng.randint(-4, 4) for _ in range(s))
                 for _ in range(r)]
        try:
            return NormFormSystem(r=r, s=s, a=tuple(a), forms=tuple(forms))
        except PencilError:
            continue


def test_real_soluble_examples():
    sys1 = NormFormSystem(r=2, s=2, a=(-1, -2), forms=((1, 0), (0, 1)))
    ok, wit = real_soluble(sys1)
    assert ok
    check_real_witness(sys1, wit)

    # the core decides u > 0 and -u > 0 infeasible; the packaged system
    # version needs non-proportional forms, so route the sum through r = 3
    assert _fm_witness([(1, 0), (-1, 0)], 2) is None
    sys2 = NormFormSystem(r=3, s=2, a=(-1, -1, -2),
                          forms=((1, 0), (0, 1), (-1, -1)))
    ok, wit = real_soluble(sys2)
    assert not ok and wit is None

    sys3 = NormFormSystem(r=1, s=2, a=(2,), forms=((1, 0),))
    ok, wit = real_soluble(sys3)
    assert ok
    check_real_witness(sys3, wit)


def test_checked_places_are_two_small_and_bad_primes():
    # oo, then {2}, the primes <= L and the primes of every nonzero a_i
    # and coefficient, sorted; primes found by trial division
    rng = random.Random(44)
    coeffs = (0, 0, 1, -1, 4, -8, 9, 25, -27, 6, -10, 15, 21, -35)
    made = 0
    while made < 60:
        s = 2 + made % 2
        r = rng.randint(1, 3)
        a = tuple(rng.choice((-1, 2, -3, 5, -6, 10, -14, 22, 27, -49, 8))
                  for _ in range(r))
        forms = tuple(tuple(rng.choice(coeffs) for _ in range(s))
                      for _ in range(r))
        try:
            system = NormFormSystem(r=r, s=s, a=a, forms=forms)
        except PencilError:
            continue
        made += 1
        L = rng.choice((0, 2, 5, 12))
        primes = {2} | {q for q in range(2, L + 1) if trial_primes(q) == {q}}
        for x in a + sum(forms, ()):
            if x:
                primes |= trial_primes(x)
        expected = (REAL_PLACE,) + tuple(Place(q) for q in sorted(primes))
        assert everywhere_locally_soluble(system, L).checked == expected


def test_real_soluble_against_sampling():
    rng = random.Random(101)
    grid = [Fraction(n, 4) for n in range(-12, 13)]
    for _ in range(100):
        system = random_system(rng)
        ok, wit = real_soluble(system)
        if ok:
            check_real_witness(system, wit)
            continue
        # sampled points must all violate some strict positivity
        for u in itertools.product(grid, repeat=system.s):
            assert any(evaluate(system.forms[i], u) <= 0
                       for i in system.i_minus), (system, u)


def test_real_nudge_skips_directions_inside_a_hyperplane(monkeypatch):
    # the Fourier-Motzkin point lies on a hyperplane that contains the
    # first direction (1, 0), so no step along it can leave; that
    # direction is never tried, and the witness is still the first one off
    # every hyperplane, (2, 1)
    cleared = []
    clear = localsolve._clear_denominators
    monkeypatch.setattr(localsolve, "_clear_denominators",
                        lambda xs: cleared.append(xs) or clear(xs))
    for a, forms in (((2, -1), ((0, 2), (32, 32))),
                     ((-6, 6), ((1, -1), (0, 2))),
                     ((-10, 5, 5), ((1, -1), (1, 0), (0, 4)))):
        system = NormFormSystem(r=len(a), s=2, a=a, forms=forms)
        cleared.clear()
        ok, wit = real_soluble(system)
        assert ok and wit.u == (2, 1)
        check_real_witness(system, wit)
        assert len(cleared) < 10


@pytest.mark.parametrize("a, forms", [
    ((5, -3), ((10**20 + 1, 1), (-10**20, -1))),
    ((-1, -1, 5), ((-1, -1), (10**20 + 1, 10**20 - 1),
                   (10**20, 10**20 - 1))),
    ((-1, 5, 2), ((-10**20, 1), (10**20 + 1, -1),
                  (10**20 + 1, 10**20 + 1))),
], ids=["r2", "r3 definite pair", "r3 one definite"])
def test_real_nudge_halves_past_large_coefficients(a, forms):
    # the Fourier-Motzkin point lies on a hyperplane f_i = 0 and leaves it
    # only for eps < 10^-20, more than 64 halvings from eps = 1, so a nudge
    # with a fixed cap of 64 halvings fails these real-soluble systems
    system = NormFormSystem(r=len(a), s=2, a=a, forms=forms)
    ok, wit = real_soluble(system)
    assert ok
    check_real_witness(system, wit)
    assert max(x.denominator for x in wit.u) > 2**64


def test_padic_examples():
    sys1 = NormFormSystem(r=1, s=2, a=(-1,), forms=((1, 0),))
    for p in (5, 3):
        ok, wit = padic_soluble(sys1, p)
        assert ok
        check_padic_witness(sys1, p, wit)
    with pytest.raises(LocalSolveError):
        padic_soluble(sys1, 5, depth=0)
    with pytest.raises(LocalSolveError):
        padic_soluble(sys1, 4)
    with pytest.raises(PencilError):
        NormFormSystem(r=1, s=1, a=(-1,), forms=((1,),))


def test_padic_matches_brute_force():
    rng = random.Random(303)
    seen = set()
    for _ in range(12):
        system = random_system(rng)
        for p in (2, 3):
            bound = max(valuation(4 * a, p) for a in system.a)
            depth = bound + 2
            if p**(depth * system.s) > 3**8:
                continue
            ok, wit = padic_soluble(system, p, depth)
            assert ok == brute_padic(system, p, depth), (system, p, depth)
            seen.add(ok)
            if ok:
                check_padic_witness(system, p, wit)
    assert seen == {True, False}


class ReferenceBudget(Exception):
    pass


def moment_witness(system, p, depth):
    """The documented good-place witness, found here without the library:
    at an odd p > r(s - 1) dividing no a_i, the first moment-curve point
    (1, t, ..., t^(s - 1)), t = 0, ..., r(s - 1), at which no form is 0
    mod p, reduced mod p^depth.  None at any other p, or when no point
    qualifies."""
    r, s = system.r, system.s
    if p == 2 or p <= r * (s - 1) or any(a % p == 0 for a in system.a):
        return None
    for t in range(r * (s - 1) + 1):
        u = tuple(t**j % p**depth for j in range(s))
        if all(evaluate(f, u) % p for f in system.forms):
            return u
    return None


def digit_dfs(system, p, depth, budget):
    """padic_soluble's search without its value-ball prunes.

    Residues u mod p^level grow digit by digit in the library's order; a
    node is cut only when some value already keeps the witness margin
    (valuation at most level - need) and its symbol is -1, which no lift
    changes.  Every cut here and in the library is sound, so both return
    the first witness of the same preorder.  At a good place the test's
    own moment-curve rule, `moment_witness`, answers first, as the
    library's documented rule does.  Raises ReferenceBudget past `budget`
    nodes.
    """
    fast = moment_witness(system, p, depth)
    if fast is not None:
        return True, fast
    need = 3 if p == 2 else 1
    nodes = [0]

    def state(u, level):
        # None: cut; True: witness; False: read deeper
        witness = True
        for a, f in zip(system.a, system.forms):
            x = evaluate(f, u)
            kept = x % p**level != 0 and valuation(x, p) <= level - need
            if kept and local_symbol(a, x, p) == -1:
                return None
            witness = witness and kept
        return witness

    def dfs(u, level):
        nodes[0] += 1
        if nodes[0] > budget:
            raise ReferenceBudget
        st = state(u, level)
        if st is None:
            return None
        if st:
            return tuple(x % p**depth for x in u)
        if level == depth:
            return None
        for digits in itertools.product(range(p), repeat=system.s):
            hit = dfs(tuple(x + d * p**level for x, d in zip(u, digits)),
                      level + 1)
            if hit is not None:
                return hit
        return None

    found = dfs((0,) * system.s, 0)
    return found is not None, found


def content_system(rng, p):
    # forms with p-power contents and null coordinates, the shapes whose
    # values sit in small balls
    pool = [0, 1, -1, 2, p, p**2, p**3, p**5, -p**4, 7]
    while True:
        r = rng.randint(1, 3)
        s = rng.choice([2, 3])
        a = tuple(rng.choice([-1, 2, -2, 3, -3, 5, -5, 6, 7, -10])
                  for _ in range(r))
        forms = tuple(tuple(rng.choice(pool) for _ in range(s))
                      for _ in range(r))
        try:
            return NormFormSystem(r=r, s=s, a=a, forms=forms)
        except PencilError:
            continue


def test_padic_value_ball_prunes_keep_the_search():
    # verdict, witness and precision equal those of the digit search on a
    # seeded family, but where that search finds nothing and the test's
    # own determinants show r <= s forms of rank r, a deeper witness the
    # checker accepts is required; systems whose reference search passes
    # its node budget are skipped, and enough are compared
    rng = random.Random(909)
    compared = brute = rescued = 0
    verdicts = set()
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        system = content_system(rng, p)
        depth = rng.choice([None, 5, 6])
        ok, wit = padic_soluble(system, p, depth)
        used = max(technical_bound(system, p) + 2, 4) if depth is None \
            else depth
        try:
            want = digit_dfs(system, p, used, budget=5000)
        except ReferenceBudget:
            continue
        compared += 1
        verdicts.add(ok)
        if want[0] or not full_rank(system.forms):
            assert (ok, wit and wit.u, wit and wit.precision) == \
                (want[0], want[1], used if want[0] else None), \
                (system, p, depth)
        else:
            # the walk ends empty, and forms of rank r <= s fall back on
            # the rank witness, deeper than the walk
            rescued += 1
            assert ok and wit.precision > used, (system, p, depth)
        if ok:
            check_padic_witness(system, p, wit)
        if p**(used * system.s) <= 2**12:
            brute += 1
            assert want[0] == brute_padic(system, p, used), (system, p, used)
    assert compared >= 120 and brute >= 30 and verdicts == {True, False}
    assert rescued >= 2, rescued


def counting_reader(calls):
    """A stand-in for `localsolve._symbol_reader` that reads through the
    reader in place when it is made and appends the argument x of every
    read to `calls`."""
    reader = localsolve._symbol_reader

    def counted_reader(a, p):
        sym = reader(a, p)
        return lambda x, K: calls.append(x) or sym(x, K)
    return counted_reader


def test_padic_kernel_calls_on_small_value_balls(monkeypatch):
    # forms with large p-content: values lie in small balls that the
    # search reads whole, instead of branching digit by digit
    calls = []
    item1 = NormFormSystem(r=2, s=2, a=(-1, -3), forms=((0, 25), (125, 0)))
    null = NormFormSystem(r=2, s=3, a=(7, 11),
                          forms=((7, 1, 0), (-125, -125, 0)))
    monkeypatch.setattr(localsolve, "_symbol_reader", counting_reader(calls))
    # the walk at the default depth, whose heuristic floor of 4 is too
    # shallow for this system's walk witnesses, ends empty; the forms have
    # rank 2, so the rank witness u = -3125 (-25, -125) answers, with both
    # values 3125^2 = 5^10, kept to precision 11
    ok, wit = padic_soluble(item1, 5)
    assert ok and (wit.u, wit.precision) == ((78125, 390625), 11)
    check_padic_witness(item1, 5, wit)
    assert len(calls) < 1000
    calls.clear()
    ok, wit = padic_soluble(null, 5)
    assert ok and wit.u == (0, 1, 0) and len(calls) < 1000
    ok, wit = padic_soluble(item1, 5, depth=9)
    assert ok and wit.u == (3125, 15625) and wit.precision == 9
    check_padic_witness(item1, 5, wit)


def test_padic_cuts_value_balls_whose_last_valuation_reads_minus_one(
        monkeypatch):
    # p = 7, default depth 4: a witness's values have valuation 3 at most,
    # and 10 is a non-residue mod 7, so (10, 7^3 y)_7 = -1 for every unit
    # y.  The ball u = 0 mod 7^3, where 32 u_2 lies in 7^3 Z_7, is cut
    # whole instead of read through its 49 children; the witness is still
    # the digit search's
    calls = []
    monkeypatch.setattr(localsolve, "_symbol_reader", counting_reader(calls))
    system = NormFormSystem(r=2, s=2, a=(10, 14), forms=((0, 32), (2, 2)))
    ok, wit = padic_soluble(system, 7)
    assert (ok, wit.u) == digit_dfs(system, 7, 4, budget=10**4) == \
        (True, (0, 49))
    assert len(calls) < 20


def test_padic_search_skips_coordinates_no_form_reads(monkeypatch):
    # a seeded system and its copy with zero columns inserted: where both
    # reach the digit walk, the copy reads no more symbols than the
    # original, and its witness is the original's with 0 in every added
    # coordinate; a walk that also split balls on the zero columns read
    # several times as much
    calls = []

    def reads(system, p):
        localsolve._shell_minus.cache_clear()
        calls.clear()
        return padic_soluble(system, p), len(calls)

    monkeypatch.setattr(localsolve, "_symbol_reader", counting_reader(calls))
    rng = random.Random(3030)
    compared = found = 0
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        system = local_pool_system(rng, p)
        zeros = sorted(rng.sample(range(system.s + 2), rng.choice((1, 2))))
        wide = []
        for f in system.forms:
            f = list(f)
            for j in zeros:
                f.insert(j, 0)
            wide.append(tuple(f))
        padded = NormFormSystem(r=system.r, s=len(wide[0]), a=system.a,
                                forms=tuple(wide))
        (ok, wit), narrow_reads = reads(system, p)
        (wide_ok, wide_wit), wide_reads = reads(padded, p)
        if not narrow_reads or not wide_reads:
            continue  # a good place's moment-curve witness answered
        compared += 1
        assert wide_reads <= narrow_reads, (system, zeros, p)
        assert wide_ok == ok, (system, zeros, p)
        if ok:
            found += 1
            u = list(wit.u)
            for j in zeros:
                u.insert(j, 0)
            assert (wide_wit.u, wide_wit.precision) == \
                (tuple(u), wit.precision), (system, zeros, p)
            check_padic_witness(padded, p, wide_wit)
    assert compared >= 120 and found >= 80, (compared, found)


def test_full_rank_systems_are_soluble_at_every_prime():
    # r <= s forms of rank r: some u has every f_i(u) = d^2, d a nonzero
    # r x r minor, so every default-depth verdict is soluble, with a
    # witness the checker accepts, also where the digit walk finds none
    rng = random.Random(3131)
    deeper = checked = 0
    while checked < 150:
        p = rng.choice((2, 3, 5))
        s = rng.choice((2, 3))
        r = rng.randint(1, s)
        a = tuple(rng.choice((-1, 2, -2, 3, -3, 5, -5, 6, 7, -10))
                  for _ in range(r))
        forms = tuple(tuple(p**rng.randint(0, 3) * rng.choice((0, 1, -1, 2))
                            for _ in range(s)) for _ in range(r))
        if not full_rank(forms):
            continue
        checked += 1
        system = NormFormSystem(r=r, s=s, a=a, forms=forms)
        ok, wit = padic_soluble(system, p)
        assert ok, (system, p)
        check_padic_witness(system, p, wit)
        deeper += wit.precision > max(technical_bound(system, p) + 2, 4)
    assert deeper >= 20, deeper


def test_padic_deep_search_keeps_no_stack():
    # the walk descends 1100 levels along the zero ball; a recursive walker
    # passed Python's recursion limit here
    system = NormFormSystem(r=2, s=2, a=(-1, -3), forms=((0, 25), (125, 0)))
    ok, wit = padic_soluble(system, 5, depth=1100)
    assert ok and wit.precision == 1100
    check_padic_witness(system, 5, wit)


def test_padic_search_at_a_large_prime_lists_no_children():
    # p = 5964848081 divides 10^20 + 1, so it is a bad prime of this
    # real-soluble system; a walker that listed the p^2 children of a ball
    # before taking the first raised MemoryError here
    system = NormFormSystem(r=3, s=2, a=(-1, 5, 2),
                            forms=((-10**20, 1), (10**20 + 1, -1),
                                   (10**20 + 1, 10**20 + 1)))
    p = 5964848081
    ok, wit = padic_soluble(system, p)
    assert ok and (wit.u, wit.precision) == ((0, p**2), 4)
    check_padic_witness(system, p, wit)
    report = everywhere_locally_soluble(system)
    assert report.soluble and Place(p) in report.checked
    assert dict(report.witnesses)[Place(p)] == wit


def test_padic_witness_lifts():
    rng = random.Random(404)
    for _ in range(10):
        system = random_system(rng)
        p = rng.choice([2, 3, 5])
        ok, wit = padic_soluble(system, p)
        if not ok:
            continue
        depth = wit.precision
        m = p**depth
        for _ in range(5):
            lift = tuple(x + m * rng.randrange(p) for x in wit.u)
            for i, f in enumerate(system.forms):
                c = evaluate(f, lift) % (m * p)
                assert c != 0
                assert local_symbol(system.a[i], c, p) == 1


def test_padic_good_primes_are_soluble():
    system = NormFormSystem(r=2, s=2, a=(-1, 2), forms=((1, 0), (1, -1)))
    count = 0
    p = 101
    while count < 20:
        if is_prime(p):
            ok, wit = padic_soluble(system, p)
            assert ok
            check_padic_witness(system, p, wit)
            count += 1
        p += 2


def test_everywhere_locally_soluble():
    system = NormFormSystem(r=2, s=2, a=(-1, 2), forms=((1, 0), (0, 1)))
    report = everywhere_locally_soluble(system, L=20)
    assert report.soluble and not report.bad_places
    assert REAL_PLACE in report.checked and Place(2) in report.checked
    for place, wit in report.witnesses:
        if place.is_real:
            check_real_witness(system, wit)
        else:
            check_padic_witness(system, place.p, wit)

    system = NormFormSystem(r=2, s=2, a=(-5, -5), forms=((1, 0), (0, 1)))
    report = everywhere_locally_soluble(system, L=20)
    assert report.soluble

    bad = NormFormSystem(r=3, s=2, a=(-1, -1, -2),
                         forms=((1, 0), (0, 1), (-1, -1)))
    report = everywhere_locally_soluble(bad, L=10)
    assert not report.soluble
    assert REAL_PLACE in report.bad_places


def test_everywhere_witnesses_agree_with_each_place():
    # the report prepares each system once for all its places; every
    # verdict and witness must be the one the place's own entry point
    # gives, a good place's the test's first moment-curve point, and every
    # witness must pass the test-side checkers.  r <= s forms of rank r are
    # soluble at every prime, so past the first 80 draws only r > s systems
    # are kept, for the insoluble places
    rng = random.Random(2025)
    good = searched = bad = 0
    for index in range(200):
        p = rng.choice((2, 3, 5, 7))
        system = local_pool_system(rng, p)
        if index >= 80 and system.r <= system.s:
            continue
        report = everywhere_locally_soluble(system, L=rng.choice((30, 50)))
        found = dict(report.witnesses)
        for place in report.checked:
            wit = found.get(place)
            if place.is_real:
                assert real_soluble(system) == (wit is not None, wit)
                if wit is not None:
                    check_real_witness(system, wit)
                continue
            q = place.p
            assert padic_soluble(system, q) == (wit is not None, wit), \
                (system, q)
            if wit is None:
                bad += 1
                continue
            check_padic_witness(system, q, wit)
            fast = moment_witness(system, q, wit.precision)
            if fast is None:
                searched += 1
            else:
                good += 1
                assert wit.u == fast, (system, q)
        assert set(found) | set(report.bad_places) == set(report.checked)
    # enough of each kind of place was compared
    assert good >= 600 and searched >= 180 and bad >= 20, (good, searched,
                                                           bad)


def test_good_place_rule_needs_p_above_r_s_minus_1():
    # r(s - 1) = 3: at p = 3 the moment curve has only three points mod p,
    # so the digit search answers, with a witness deep in the zero ball;
    # at 7 and 11 the first moment-curve point with unit values does
    system = NormFormSystem(r=3, s=2, a=(-1, 2, 5),
                            forms=((1, 0), (0, 1), (1, 1)))
    report = dict(everywhere_locally_soluble(system, L=11).witnesses)
    ok, wit = padic_soluble(system, 3)
    assert (ok, wit.u) == digit_dfs(system, 3, 4, budget=10**4) == \
        (True, (9, 9))
    assert report[Place(3)] == wit
    for p, u in ((7, (1, 1)), (11, (1, 1))):
        assert moment_witness(system, p, 4) == u
        assert padic_soluble(system, p) == (True, report[Place(p)])
        assert report[Place(p)].u == u


def test_diagonal_quadric_examples():
    assert not diagonal_quadric_soluble((1, 1, 1, 1), REAL_PLACE)
    for place in (REAL_PLACE, Place(2), Place(3), Place(5)):
        assert diagonal_quadric_soluble((1, -1, 1, -1), place)
    # x^2 + y^2 = 3 z^2 + 3 w^2 forces odd against even 3-adic valuation
    assert not diagonal_quadric_soluble((1, 1, -3, -3), Place(3))
    assert brute_quadric((1, 1, -3, -3), Place(3)) is False
    # a coefficient beyond trial division: the oracle reads it mod 5^3,
    # a 5-adic unit of the same square class
    N = 1000003 * 1000033
    assert diagonal_quadric_soluble((1, 1, 1, N), Place(5)) == \
        brute_quadric((1, 1, 1, N % 125), Place(5))
    with pytest.raises(LocalSolveError):
        diagonal_quadric_soluble((1, 0, 1, 1), Place(3))


def quadric_support(coeffs):
    support = {REAL_PLACE, Place(2)}
    for c in coeffs:
        if abs(c) > 1:
            for p, _ in factorize(abs(c)):
                support.add(Place(p))
    return support


def test_diagonal_quadric_against_brute_force():
    rng = random.Random(505)
    pool = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10]
    places = [REAL_PLACE, Place(2), Place(3), Place(5), Place(7)]
    for _ in range(50):
        coeffs = tuple(rng.choice(pool) for _ in range(4))
        for place in places:
            assert diagonal_quadric_soluble(coeffs, place) == \
                brute_quadric(coeffs, place), (coeffs, place)


def test_diagonal_quadric_square_disc_parity():
    # insoluble places pair up only when the discriminant is a square:
    # the form is then a scaled quaternion norm and inherits the even
    # ramification count, which fails for general discriminants
    rng = random.Random(606)
    pool = [1, -1, 2, -2, 3, -3, 5, -5]
    places = [REAL_PLACE, Place(2), Place(3), Place(5), Place(7)]
    insoluble_counts = []
    for _ in range(40):
        head = tuple(rng.choice(pool) for _ in range(3))
        coeffs = head + (head[0] * head[1] * head[2],)
        for place in places:
            assert diagonal_quadric_soluble(coeffs, place) == \
                brute_quadric(coeffs, place), (coeffs, place)
        bad = sum(not diagonal_quadric_soluble(coeffs, v)
                  for v in quadric_support(coeffs))
        insoluble_counts.append(bad)
        assert bad % 2 == 0, (coeffs, bad)
    assert any(n > 0 for n in insoluble_counts)

    # boundary witness: nonsquare discriminant, insoluble at 2 alone
    odd_case = (1, 1, 1, -7)
    bad = [v for v in quadric_support(odd_case)
           if not diagonal_quadric_soluble(odd_case, v)]
    assert bad == [Place(2)]
