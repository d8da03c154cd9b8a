import gc
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from conicbundles import exactnum, quadform
from conicbundles.quadform import (
    BinaryForm,
    PellSolution,
    QuadFormError,
    fundamental_unit,
    pell_fundamental,
    representation_count,
    representation_table,
    rho,
    rho_table,
    scaling_valid,
    w,
)
from reference import brute_orbit_count, brute_pell


def brute_fundamental_unit(a):
    y = 1
    while True:
        best = None
        for norm in (1, -1):
            x2 = norm + a * y * y
            if x2 >= 0:
                x = math.isqrt(x2)
                if x * x == x2:
                    if best is None or x < best[0]:
                        best = (x, y, norm)
        if best:
            return best
        y += 1


def test_form_validation():
    BinaryForm(-1)
    BinaryForm(2)
    with pytest.raises(QuadFormError):
        BinaryForm(0)
    with pytest.raises(QuadFormError):
        BinaryForm(9)


def test_w():
    assert w(-4) == 4
    assert w(-8) == 2
    assert w(-20) == 2
    with pytest.raises(QuadFormError):
        w(8)


def test_pell_fundamental_examples():
    assert pell_fundamental(2) == PellSolution(3, 2)
    assert pell_fundamental(3) == PellSolution(2, 1)
    assert pell_fundamental(5) == PellSolution(9, 4)


def test_pell_against_brute():
    for a in (2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 19, 21, 61):
        sol = pell_fundamental(a)
        assert sol.t * sol.t - a * sol.u * sol.u == 1
        assert (sol.t, sol.u) == brute_pell(a)


def test_fundamental_unit_examples():
    assert fundamental_unit(2) == (1, 1, -1)
    assert fundamental_unit(3) == (2, 1, 1)
    assert fundamental_unit(5) == (2, 1, -1)
    with pytest.raises(QuadFormError):
        fundamental_unit(-2)
    with pytest.raises(QuadFormError):
        fundamental_unit(4)


def test_fundamental_unit_against_brute():
    for a in (2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 15, 17):
        x, y, n = fundamental_unit(a)
        assert x * x - a * y * y == n
        assert (x, y, n) == brute_fundamental_unit(a)


def test_definite_counts_examples():
    f = BinaryForm(-1)
    assert representation_count(f, 25) == 3
    assert representation_count(f, 3) == 0
    assert representation_count(f, 0) == 0
    assert representation_count(f, -5) == 0
    assert representation_count(f, 1) == 1
    assert representation_count(f, 2) == 1


def test_indefinite_examples():
    f = BinaryForm(2)
    assert representation_count(f, -1) == 1
    assert representation_count(f, 7) == 2
    assert representation_count(f, 0) == 0
    f3 = BinaryForm(3)
    assert representation_count(f3, 1) == 1
    assert representation_count(f3, -1) == 0
    assert representation_count(f3, 13) == 2


def test_representation_table_matches_pointwise():
    # windows straddling 0 (symmetric and not), all positive, all
    # negative, and single values, among them n = 1 and n = -1
    windows = [(-30, 30), (0, 120), (-120, -1), (17, 17), (-45, 13),
               (-7, 60), (-300, -200), (1, 1), (-1, -1)]
    for a in (-1, -2, -3, -5, -6, -7, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15):
        f = BinaryForm(a)
        for lo, hi in windows:
            arr = representation_table(f, lo, hi)
            assert arr.dtype == np.int64
            tab = arr.tolist()
            assert len(tab) == hi - lo + 1
            for n in range(lo, hi + 1):
                assert tab[n - lo] == brute_orbit_count(a, n), (a, n)
    with pytest.raises(QuadFormError):
        representation_table(BinaryForm(-1), 5, 3)


def test_representation_table_on_a_class_matches_pointwise():
    # the class lo mod step of each window: windows straddling 0, all
    # negative, one value, and lo prime to step; the last entry is the
    # largest lo + step k <= hi, so hi need not be in the class
    windows = [(-300, 300), (-257, 146), (-400, -1), (-1000, -601),
               (17, 17), (-9, -9), (-45, 13), (3, 700), (0, 500)]
    steps = (1, 2, 3, 4, 8, 9, 25, 27, 125)
    for a in (-1, -2, -3, -5, -6, -7, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15):
        f = BinaryForm(a)
        counts = {}
        for lo, hi in windows:
            for step in steps:
                arr = representation_table(f, lo, hi, step)
                assert arr.dtype == np.int64
                assert arr.size == (hi - lo) // step + 1, (a, lo, hi, step)
                for k, got in enumerate(arr.tolist()):
                    n = lo + step * k
                    if n not in counts:
                        counts[n] = brute_orbit_count(a, n)
                    assert got == counts[n], (a, lo, hi, step, n)
    with pytest.raises(QuadFormError, match="step must be >= 1"):
        representation_table(BinaryForm(-1), 3, 5, 0)
    with pytest.raises(QuadFormError, match="empty"):
        representation_table(BinaryForm(2), 5, 3, 2)


def test_representation_table_needs_no_domain_test(monkeypatch):
    # the rows of the cone need no per-point domain test: with
    # pell_fundamental counted, the tables are unchanged and each reads
    # the Pell solution at most once
    windows = [(-50, 50), (3, 400), (-400, -3), (-1, 1), (-9, -9)]
    cases = [(BinaryForm(a), lo, hi) for a in (2, 3, 6) for lo, hi in windows]
    expected = [representation_table(*case).tolist() for case in cases]

    calls = []

    def counted(a):
        calls.append(a)
        return pell_fundamental(a)

    monkeypatch.setattr(quadform, "pell_fundamental", counted)
    for case, tab in zip(cases, expected):
        del calls[:]
        assert representation_table(*case).tolist() == tab
        assert len(calls) <= 1, (case, calls)


def test_table_oracle_reads_no_pell_solution_of_the_library(monkeypatch):
    # with pell_fundamental answering eps^2 for eps, every orbit of
    # x^2 - 2 y^2 = n splits in two and the table doubles; the oracle
    # finds its own Pell solution, so it must see the fault
    f = BinaryForm(2)
    oracle = [brute_orbit_count(2, n) for n in range(-30, 31)]
    assert representation_table(f, -30, 30).tolist() == oracle
    original = quadform.pell_fundamental

    def squared(a):
        eps = original(a)
        return PellSolution(eps.t ** 2 + a * eps.u ** 2, 2 * eps.t * eps.u)

    monkeypatch.setattr(quadform, "pell_fundamental", squared)
    faulted = representation_table(f, -30, 30).tolist()
    assert faulted != oracle
    assert faulted == [2 * r for r in oracle]


def test_representation_table_rows_have_roots_in_their_class(monkeypatch):
    # with step > 1 the row generators yield only the rows y whose
    # lo + a y^2 is a square mod step: exactly the rows the unrestricted
    # generators (step 1) give that have a root, and the tables equal
    # every step-th entry of the step-1 table.  The first case is the
    # a = -1, M = 125 table of test_enumerate_tables_hold_only_the_class,
    # where 132 of the 533 rows have a root
    made = []
    for name in ("_definite_rows", "_indefinite_rows"):
        gen = getattr(quadform, name)

        def spy(*args, gen=gen):
            rows = list(gen(*args))
            made.append((gen, args, rows))
            return rows

        monkeypatch.setattr(quadform, name, spy)
    cases = [(-1, 94751, 283501, 125)]
    cases += [(a, lo, hi, step) for a in (-1, -3, 2, 7)
              for lo, hi in ((-400, 700), (5, 2000), (-2000, -3))
              for step in (8, 9, 25, 125)]
    for a, lo, hi, step in cases:
        del made[:]
        tab = representation_table(BinaryForm(a), lo, hi, step)
        assert tab.tolist() == representation_table(
            BinaryForm(a), lo, hi)[::step].tolist(), (a, lo, hi, step)
        squares = {x * x % step for x in range(step)}
        gen, args, rows = made[0]
        everyone = list(gen(*args[:-2], 1, [0]))
        rooted = [row for row in everyone if -row[2] % step in squares]
        assert sorted(rows) == sorted(rooted), (a, lo, hi, step)
        if (a, lo, step) == (-1, 94751, 125):
            assert (len(everyone), len(rows)) == (533, 132)


def test_row_searches_refuse_more_rows_than_the_cap():
    # the Pell solution of 30781 has 361 digits, so no row search can
    # finish: each counts its rows before the first and refuses at once;
    # for a < 0 the cap is met near |n| = 10^14
    big = BinaryForm(30781)
    searches = [
        (30781, lambda: representation_count(big, 1)),
        (30781, lambda: representation_count(big, -1)),
        (30781, lambda: representation_table(big, 1, 1)),
        (30781, lambda: representation_table(big, -1, -1)),
        (-1, lambda: representation_count(BinaryForm(-1), 10**15)),
        (-1, lambda: representation_table(BinaryForm(-1), 10**15, 10**15)),
    ]
    for a, search in searches:
        with pytest.raises(QuadFormError, match=r"a = %d, has \d+ rows, "
                           r"beyond the cap 10000000" % a):
            search()


def test_large_pell_solution_is_refused_before_it_is_built(monkeypatch):
    # the convergents of sqrt(30781) bound the rows past the cap long
    # before its 361-digit unit, and a window no row can meet needs none
    def unbuilt(a):
        pytest.fail("the Pell solution of %d was built" % a)

    monkeypatch.setattr(quadform, "pell_fundamental", unbuilt)
    big = BinaryForm(30781)
    for lo, hi in ((1, 1), (-1, -1), (-10**6, 10**6)):
        with pytest.raises(QuadFormError, match=r"a = 30781, has \d+ rows, "
                           r"beyond the cap 10000000"):
            representation_table(big, lo, hi)
    assert representation_table(big, 0, 0).tolist() == [0]
    # 5 + 2 y^2 is 5 or 7 mod 8, never a square: the class has no rows
    assert representation_table(BinaryForm(2), 5, 2000, 8).tolist() == \
        [0] * 250


def test_early_row_refusal_refuses_only_past_the_cap(monkeypatch):
    # under a cap of 1000 a table is refused exactly when its own row
    # search, counted here from the Pell solution, has more rows: the
    # bound the convergents give, which refuses before the solution is
    # read, never refuses a search that fits
    monkeypatch.setattr(exactnum, "DEFAULT_ENUMERATION_CAP", 1000)
    reads = []

    def read(a):
        reads.append(a)
        return pell_fundamental(a)

    monkeypatch.setattr(quadform, "pell_fundamental", read)
    forms = [a for a in range(2, 200) if math.isqrt(a) ** 2 != a
             and pell_fundamental(a).u < 5000]
    rng = random.Random(54)
    refused = early = 0
    for _ in range(1500):
        a = rng.choice(forms)
        lo = rng.randint(-10**5, 10**5)
        step = rng.randint(1, 12)
        hi = lo + rng.randint(0, 2000) // step * step
        step = step if hi > lo else 1
        t, u = pell_fundamental(a)
        squares = {x * x % step for x in range(step)}
        classes = [c for c in range(step)
                   if (lo + a * c * c) % step in squares]
        spans = []
        if hi >= 1:
            spans.append((0, math.isqrt(hi * u * u // (2 * t + 2))))
        if lo <= -1:
            spans.append((1, math.isqrt(-lo * (t + 1) // (2 * a))))
        rows = sum(len(range(start + (c - start) % step, last + 1, step))
                   for start, last in spans for c in classes)
        del reads[:]
        try:
            representation_table(BinaryForm(a), lo, hi, step)
        except QuadFormError:
            refused += 1
            early += not reads
            assert rows > 1000, (a, lo, hi, step, rows)
        else:
            assert rows <= 1000, (a, lo, hi, step, rows)
    # both the bound and the exact count refuse some of these windows
    assert 0 < early < refused


def test_representation_table_reports_a_table_past_memory(monkeypatch):
    # a table numpy cannot allocate is a QuadFormError naming its length,
    # not a MemoryError
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(quadform.numpy, "zeros", no_memory)
    with pytest.raises(QuadFormError, match=r"a table of 100 entries does "
                       r"not fit in memory"):
        representation_table(BinaryForm(-1), 1, 100)


# sha256 of repr((a, n, R(n))) over 1000 draws of random.Random(0): a
# among -60..-1 and the nonsquares in 2..199 whose Pell u is below 5000,
# n in -3000..3000.  Recorded from the per-n search of a fixed fundamental
# domain that representation_count read before it became the table's
REPRESENTATION_COUNTS_DIGEST = (
    "a751cd2b28c8e472fde34aa2a26d973ba1855edbc01e1c3e61bbc7e685b07b93")


def test_representation_counts_match_their_pinned_digest():
    forms = list(range(-60, 0))
    forms += [a for a in range(2, 200) if math.isqrt(a) ** 2 != a
              and pell_fundamental(a).u < 5000]
    rng = random.Random(0)
    digest = hashlib.sha256()
    for _ in range(1000):
        a = rng.choice(forms)
        n = rng.randint(-3000, 3000)
        count = representation_count(BinaryForm(a), n)
        digest.update(repr((a, n, count)).encode())
    assert digest.hexdigest() == REPRESENTATION_COUNTS_DIGEST


def brute_rho(a, m, A):
    c = 0
    for x in range(m):
        for y in range(m):
            if (x * x - a * y * y - A) % m == 0:
                c += 1
    return c


def test_rho_brute_small():
    rng = random.Random(7)
    for a in (-1, 2, -5, 6, 3):
        f = BinaryForm(a)
        for m in (2, 3, 4, 5, 8, 9, 16, 25, 27):
            for _ in range(4):
                A = rng.randrange(m)
                assert rho(f, m, A) == brute_rho(a, m, A), (a, m, A)


def test_rho_example():
    assert rho(BinaryForm(-1), 4, 1) == 8


def test_rho_total_mass():
    for a in (-1, 2, 3, -5, 6):
        f = BinaryForm(a)
        for q in (2, 3, 4, 5, 8, 9, 16, 27, 49):
            assert sum(rho(f, q, A) for A in range(q)) == q * q


def test_rho_multiplicative():
    rng = random.Random(19)
    for a in (-1, 2, -6):
        f = BinaryForm(a)
        for q1, q2 in [(4, 3), (8, 9), (5, 4), (25, 2), (7, 9)]:
            for _ in range(5):
                A = rng.randrange(q1 * q2)
                assert rho(f, q1 * q2, A) == rho(f, q1, A) * rho(f, q2, A)


def test_rho_table_matches_pointwise():
    for a in (-1, 2, 3, -6):
        f = BinaryForm(a)
        for p, k in [(2, 5), (3, 3), (5, 2), (7, 2)]:
            tab = rho_table(f, p, k)
            m = p**k
            assert len(tab) == m
            assert sum(tab) == m * m
            for A in (0, 1, 2, m - 1, m // 2):
                assert tab[A] == rho(f, m, A)


def test_rho_table_against_bincount():
    # every entry of the orbit-filled table against an exhaustive count of
    # x^2 - a y^2 mod p^k, including p | a and a with square factors
    for a in (-1, 2, 3, -6, 5, 12, 18, -4, 45, -27, 50, 8, -250, 375, -192):
        f = BinaryForm(a)
        for p in (2, 3, 5, 7):
            k = 1
            while p ** k <= 1 << 10:
                m = p ** k
                x = np.arange(m, dtype=np.int64)
                values = (x[:, None] ** 2 - a * x[None, :] ** 2) % m
                expect = np.bincount(values.ravel(), minlength=m)
                assert rho_table(f, p, k) == expect.tolist(), (a, p, k)
                k += 1


def test_rho_scaling_identity_spots():
    # rho(p^k; A) = (1/p) rho(p^(k+1); A + l p^k) on the scaling_valid domain
    from conicbundles.exactnum import valuation
    for a in (-1, 2, 3):
        f = BinaryForm(a)
        for p in (2, 3, 5):
            v = valuation(4 * a, p)
            for k in range(max(v, 1), max(v, 1) + 2):
                m = p**k
                for A in range(1, m):
                    if not scaling_valid(f, p, k, A):
                        continue
                    for l in range(p):
                        assert p * rho(f, m, A) == rho(f, m * p, A + l * m), \
                            (a, p, k, A, l)


def test_rho_scaling_two_adic_margin():
    # At p = 2 the naive domain k >= v_2(4a) admits pointwise failures; the
    # identity still holds after averaging over l.  Pin one such case.
    f = BinaryForm(-1)
    assert not scaling_valid(f, 2, 2, 2)
    assert rho(f, 4, 2) == 4
    assert rho(f, 8, 2) == 16
    assert rho(f, 8, 6) == 0
    assert 2**2 * rho(f, 4, 2) == rho(f, 8, 2) + rho(f, 8, 6)
    # one step up the margin is restored
    assert scaling_valid(f, 2, 3, 2)
    assert 2 * rho(f, 8, 2) == rho(f, 16, 2) == rho(f, 16, 10)


def test_scaling_valid_never_builds_p_to_the_k():
    # whether p^k divides A is read off v_p(A), so a k far past any power
    # of p that fits in memory answers at once
    assert scaling_valid(BinaryForm(-1), 3, 10**20, 5)
    assert scaling_valid(BinaryForm(-1), 2, 10**20, 2**50)
    assert not scaling_valid(BinaryForm(-1), 3, 10**20, 0)


def test_scaling_valid_against_its_p_to_the_k_definition():
    # the domain as stated, with A reduced mod p^k: A != 0 mod p^k, and
    # k >= v_p(4a), plus v_2(A mod 2^k) at p = 2
    def v(x, p):
        n = 0
        while x % p == 0:
            x //= p
            n += 1
        return n

    def by_definition(a, p, k, A):
        A %= p**k
        if A == 0:
            return False
        return k >= v(4 * a, p) + (v(A, p) if p == 2 else 0)

    rng = random.Random(114)
    for a in rng.sample([x for x in range(-30, 31)
                         if x < 0 or math.isqrt(x)**2 != x], 12):
        f = BinaryForm(a)
        for p in (2, 3, 5):
            for k in range(9):
                for A in range(-60, 61):
                    assert scaling_valid(f, p, k, A) == \
                        by_definition(a, p, k, A), (a, p, k, A)


def test_rho_cap_behaviour():
    f = BinaryForm(-1)
    # beyond any enumeration: 5^9 by scaling and by the split closed form
    # below; at 2^k, 4 | A forces x and y even, so
    # rho(2^k; A) = 4 rho(2^(k-2); A / 4), and rho(4; 0) = 4
    big = 5**9
    assert rho(f, big, 1) == 5**7 * rho(f, 25, 1)
    assert rho(f, big, 0) == 16015625
    assert rho(f, 2**30, 2**28) == 4**14 * rho(f, 4, 1)
    assert rho(f, 2**30, 0) == 4**14 * rho(f, 4, 0) == 2**30


def test_rho_table_refuses_more_entries_than_the_cap():
    # 2^24 entries are past DEFAULT_ENUMERATION_CAP: the table is refused
    # before a list of 16,777,216 counts is built and cached, while rho
    # still answers pointwise at that modulus (the scaling identity from
    # 2^3, where it holds for odd A)
    f = BinaryForm(-1)
    with pytest.raises(QuadFormError, match=r"rho_table\(2\^24\) has "
                       r"16777216 entries, beyond the cap 10000000"):
        rho_table(f, 2, 24)
    assert rho(f, 2**24, 5) == 2**21 * rho(f, 8, 5)


def test_rho_table_frees_what_its_callers_drop():
    # only the O(k) orbit counts are cached: six tables of 3^13 = 1,594,323
    # entries, about 12.8 MB each, leave almost nothing behind once dropped
    tracemalloc.start()
    try:
        for a in (-1, 2, -2, 5, -5, 7):
            table = rho_table(BinaryForm(a), 3, 13)
            assert len(table) == 3**13
            del table
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20, kept


def test_rho_table_returns_a_list_of_the_callers_own():
    f = BinaryForm(-5)
    first = rho_table(f, 2, 6)
    want = list(first)
    first[:] = [0] * len(first)
    assert rho_table(f, 2, 6) == want
    assert rho_table(f, 2, 6) is not rho_table(f, 2, 6)


def closed_form_rho(chi, p, k, v):
    # rho(p^k; A) for x^2 - a y^2 at odd p not dividing a, chi = (a|p),
    # v = v_p(A) (v = k for A = 0 mod p^k): the split and inert cases
    if chi == 1:
        if v < k:
            return (v + 1) * (p**k - p**(k - 1))
        return k * (p**k - p**(k - 1)) + p**k
    if v < k:
        return (p + 1) * p**(k - 1) if v % 2 == 0 else 0
    return p ** (2 * (k // 2))


def test_rho_split_and_inert_closed_forms():
    from conicbundles.exactnum import legendre
    for p in (3, 5, 7, 13):
        chis = set()
        for a in (-1, 2, 3, -5):
            if a % p == 0:
                continue
            f = BinaryForm(a)
            chi = legendre(a, p)
            chis.add(chi)
            for k in range(1, 41):
                m = p**k
                for v in range(k + 1):
                    for u in (1, 2, p - 1):
                        assert rho(f, m, u * p**v) == \
                            closed_form_rho(chi, p, k, v), (a, p, k, v, u)
                if m > 3**8:
                    continue
                tab = rho_table(f, p, k)
                for A in range(m):
                    v = k if A == 0 else next(
                        i for i in range(k) if A % p ** (i + 1))
                    assert tab[A] == closed_form_rho(chi, p, k, v), \
                        (a, p, k, A)
        assert chis == {1, -1}, p


def test_rho_two_adic_mass_beyond_enumeration():
    # the orbit of A = 2^v w holds 2^(k - v - j) residues, j = min(k - v, 3),
    # one per class of w mod 2^j, and the masses over all A add up to 4^k
    for a in (-1, 3, -6, 12, -250, 384):
        f = BinaryForm(a)
        for k in range(1, 41):
            m = 2**k
            total = rho(f, m, 0)
            for v in range(k):
                j = min(k - v, 3)
                for w in range(1, 2**j, 2):
                    total += 2 ** (k - v - j) * rho(f, m, w * 2**v)
            assert total == 4**k, (a, k)
