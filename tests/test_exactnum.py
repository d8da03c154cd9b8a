import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import pytest

from conicbundles.exactnum import (
    ExactNumError,
    FactorizationError,
    Place,
    REAL_PLACE,
    SquareClass,
    TRIVIAL_CLASS,
    Verdict,
    _balls,
    _minus_on_odd_shells,
    _primes_upto,
    _symbol_reader,
    _unit_digits,
    f2_independent,
    factorize,
    hilbert,
    hilbert_support,
    is_prime,
    json_value,
    legendre,
    squarefree_class,
    valuation,
)
from oracle import local_symbol
from reference import brute_hilbert, local_class, trial_primes


def eratosthenes(bound):
    """sieve[n] is 1 exactly when n < bound is prime."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return sieve


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    # against a sieve of Eratosthenes below 10^5
    bound = 10**5
    sieve = eratosthenes(bound)
    assert [n for n in range(bound) if is_prime(n)] == \
        [n for n in range(bound) if sieve[n]]


def test_factorize():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(97 * 97) == ((97, 2),)
    with pytest.raises(ExactNumError):
        factorize(0)
    # Pollard-Brent rho splits a product of two primes near 10^9; one
    # whose factors its step budget cannot reach must still fail loudly
    assert factorize((10**9 + 7) * (10**9 + 9)) == ((10**9 + 7, 1),
                                                     (10**9 + 9, 1))
    with pytest.raises(FactorizationError, match="Pollard-Brent"):
        factorize((10**15 + 37) * (10**15 + 91))


def test_factorize_caches_its_failures(monkeypatch):
    # a second call on an integer beyond the budget raises the same error
    # without searching again; the cache is fresh, so the first call must
    # search whatever ran before
    from conicbundles import exactnum
    monkeypatch.setattr(exactnum, "_factor",
                        lru_cache(maxsize=None)(exactnum._factor.__wrapped__))
    calls = []
    search = exactnum._pollard_brent

    def counted(n, budget):
        calls.append(n)
        return search(n, budget)

    monkeypatch.setattr(exactnum, "_pollard_brent", counted)
    n = (10**15 + 37) * (10**15 + 91)
    messages = []
    for _ in range(2):
        with pytest.raises(FactorizationError, match="Pollard-Brent") as err:
            factorize(n)
        messages.append((str(err.value), len(calls)))
    assert messages[0][1] > 0
    assert messages[1] == messages[0]


def test_pollard_brent_replays_a_block_whose_gcd_is_n():
    # at these n one block of products x - y reaches 0 mod n, so its gcd
    # is n itself and the block is replayed one step at a time
    from conicbundles import exactnum
    for n in (35, 55):
        g = exactnum._pollard_brent(n, 10**4)
        assert 1 < g < n and n % g == 0, (n, g)


def _primes_above(rng, lo, hi, count):
    primes = set()
    while len(primes) < count:
        n = rng.randrange(lo, hi) | 1
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            primes.add(n)
    return sorted(primes)


def test_factorize_beyond_trial_division():
    # seeded primes between 10^6 and 10^7, primality checked by odd trial
    # division in the test: semiprimes, prime squares, cubes and three
    # distinct factors all come back whole, each factor a prime
    rng = random.Random(2024)
    big = _primes_above(rng, 10**6, 10**7, 12)
    cases = [(p, q) for p, q in zip(big[::2], big[1::2])]
    cases += [(p, p) for p in big[:3]] + [(big[3],) * 3, tuple(big[4:7])]
    cases += [(2, 2, 3, 97) + tuple(big[7:9]), (1000003, 1000033)]
    for factors in cases:
        n = math.prod(factors)
        want = tuple(sorted((p, factors.count(p)) for p in set(factors)))
        assert factorize(n) == want, factors
    N = 1000003 * 1000033
    assert squarefree_class(N) == SquareClass(0, frozenset({1000003,
                                                            1000033}))
    assert squarefree_class(Fraction(-7, N * N * 1000003)) == SquareClass(
        1, frozenset({7, 1000003}))
    from conicbundles.pencil import ConicBundleData, brauer_group
    desc = brauer_group(ConicBundleData(e=(0, 1, 2, 3), a=(N, N, 5, 5)))
    assert desc.kernel_basis == ((1, 1, 0, 0), (0, 0, 1, 1))


def test_factorize_against_an_oracle_across_the_ranges():
    # products of 1-4 primes with exponents 1-3, drawn from the primes
    # that is_prime screens by (2..41), from 43..10^6 and from fixed primes
    # near 10^9 and 10^12; at most one prime near 10^12 per product, at
    # most squared (a square cofactor splits into its roots), since two of
    # them, or a cube, lie beyond the Pollard-Brent step budget.  Every
    # drawn prime passes the test's own trial division and the product is
    # n, so by unique factorization factorize must return exactly them
    rng = random.Random(32)
    screen = [p for p in range(2, 42) if all(p % d for d in range(2, p))]
    middle = _primes_above(rng, 43, 10**6, 60)
    near_1e9 = [10**9 + 7, 10**9 + 9, 10**9 + 21]
    near_1e12 = [10**12 + 39, 10**12 + 61]
    assert all(n % d for n in near_1e9 + near_1e12
               for d in range(3, math.isqrt(n) + 1, 2))
    for _ in range(150):
        factors = {}
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            if kind < 3:
                pool = (screen, middle, near_1e9)[kind]
                factors[rng.choice(pool)] = rng.randint(1, 3)
            elif not factors.keys() & set(near_1e12):
                factors[rng.choice(near_1e12)] = rng.randint(1, 2)
        n = math.prod(p**e for p, e in factors.items())
        assert factorize(n) == tuple(sorted(factors.items())), factors


def test_psi_12_is_composite():
    # psi_12, the least strong pseudoprime to the twelve prime bases up to
    # 37, is composite; base 41 exposes it
    from conicbundles.pencil import ConicBundleData, brauer_group
    p, q = 399165290221, 798330580441
    psi_12 = 318665857834031151167461
    assert p * q == psi_12
    assert not is_prime(psi_12)
    assert factorize(psi_12) == ((p, 1), (q, 1))
    with pytest.raises(ExactNumError):
        Place(psi_12)
    data = ConicBundleData(e=(0, 1, 2), a=(psi_12, p, q))
    assert data.faddeev_holds
    assert brauer_group(data).quotient_rank == 0


def test_psi_13_is_composite():
    # psi_13, the least strong pseudoprime to the thirteen prime bases up
    # to 41, is composite; the strong Lucas test exposes it.  Its factors
    # lie beyond the Pollard-Brent budget, so factorize fails loudly
    p, q = 1287836182261, 2575672364521
    psi_13 = 3317044064679887385961981
    assert p * q == psi_13
    assert not is_prime(psi_13)
    with pytest.raises(ExactNumError):
        Place(psi_13)
    with pytest.raises(FactorizationError,
                       match="resisted 1000000 Pollard-Brent steps"):
        factorize(psi_13)
    # primes above psi_13 pass both tests
    for prime in (2**89 - 1, 2**127 - 1, 2**521 - 1):
        assert prime > psi_13 and is_prime(prime)
    assert is_prime(p) and is_prime(q) and is_prime(10**12 + 39)


def test_strong_lucas_against_a_sieve():
    # the strong Lucas test with Selfridge's parameters on every odd n
    # below 10^5 free of the primes up to 41: it accepts every prime and
    # exactly the composites of the published list of strong Lucas
    # pseudoprimes (Baillie and Wagstaff 1980; OEIS A217255) in range
    from conicbundles.exactnum import _strong_lucas
    bound = 10**5
    sieve = eratosthenes(bound)
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                    40309, 58519, 75077, 97439]
    odd = [n for n in range(43, bound, 2)
           if all(n % p for p in range(3, 42, 2) if sieve[p])]
    assert [n for n in odd if _strong_lucas(n) and not sieve[n]] == \
        pseudoprimes
    assert all(_strong_lucas(n) for n in odd if sieve[n])


def test_strong_lucas_exits_on_a_shared_factor():
    # n = 43 * 1,002,817: (D|n) = 1 for every Selfridge D from 5 to 41,
    # so the search reaches D = -43, which shares the factor 43 with n, and
    # the test rejects n there.  The Jacobi symbols are read by Euler's
    # criterion at both prime factors, apart from the library's
    from conicbundles.exactnum import _strong_lucas
    n, q = 43_121_131, 1_002_817
    assert n == 43 * q and trial_primes(q) == {q}

    def euler(D, p):
        r = pow(D, (p - 1) // 2, p)
        return -1 if r == p - 1 else r

    selfridge = [d if d % 4 == 1 else -d for d in range(5, 45, 2)]
    assert selfridge[0] == 5 and selfridge[-1] == -43
    jacobi = [euler(D, 43) * euler(D, q) for D in selfridge]
    assert jacobi == [1] * (len(selfridge) - 1) + [0]
    assert not _strong_lucas(n)


def test_valuation():
    assert valuation(Fraction(9, 4), 3) == 2
    assert valuation(Fraction(9, 4), 2) == -2
    assert valuation(-48, 2) == 4
    with pytest.raises(ExactNumError):
        valuation(0, 5)
    with pytest.raises(ExactNumError):
        valuation(3, 4)


def test_place():
    assert REAL_PLACE.is_real and REAL_PLACE.p is None
    assert not Place(7).is_real
    with pytest.raises(ExactNumError):
        Place(6)


def test_squarefree_class_examples():
    assert squarefree_class(18).representative() == 2
    assert squarefree_class(-4).representative() == -1
    assert squarefree_class(Fraction(1, 2)).representative() == 2
    assert squarefree_class(Fraction(-27, 50)).representative() == -6
    assert squarefree_class(49).is_trivial


def test_squarefree_class_homomorphism():
    rng = random.Random(11)
    for _ in range(300):
        x = Fraction(rng.randint(1, 4000) * rng.choice([1, -1]), rng.randint(1, 4000))
        y = Fraction(rng.randint(1, 4000) * rng.choice([1, -1]), rng.randint(1, 4000))
        assert squarefree_class(x) * squarefree_class(y) == squarefree_class(x * y)
        assert squarefree_class(x * x).is_trivial
        r = squarefree_class(x).representative()
        assert squarefree_class(Fraction(x, r)).is_trivial


def test_legendre_brute():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        residues = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expect = 1 if a in residues else -1
            assert legendre(a, p) == expect
        assert legendre(p, p) == 0
        assert legendre(a + p, p) == legendre(a, p)


def test_hilbert_real():
    assert hilbert(-1, -1, REAL_PLACE) == -1
    assert hilbert(-1, 2, REAL_PLACE) == 1
    assert hilbert(Fraction(1, 3), Fraction(-5, 7), REAL_PLACE) == 1


def test_hilbert_known_values():
    assert hilbert(-1, -1, Place(2)) == -1
    assert hilbert(2, 3, Place(3)) == -1
    assert hilbert(-1, 5, Place(5)) == 1
    assert hilbert(5, 5, Place(5)) == 1
    assert hilbert(2, 2, Place(2)) == 1
    assert hilbert(2, 5, Place(5)) == -1


def test_hilbert_against_brute_oracle():
    # the integer cases also pin oracle.local_symbol, the symbol that the
    # tests' local-solubility oracles read
    cases_odd = [
        (1, 1), (1, 3), (3, 3), (-1, 3), (2, 3), (5, 7), (-5, 7),
        (6, 10), (15, 21), (-6, -10), (7, 11), (-7, 11), (30, 42),
    ]
    # with p-divisible arguments
    cases = [(a, b, p) for p in (3, 5, 7, 11, 13)
             for a, b in cases_odd + [(p, 1), (p, 2), (p, p), (-p, p),
                                      (2 * p, 3), (p, -1)]]
    small = (-2, -1, 1, 2, 3, 5, 6, 7, 10, -10, 14, 15)
    cases += [(a, b, 2) for a in small for b in small]
    for a, b, p in cases:
        want = brute_hilbert(a, b, p)
        assert hilbert(a, b, Place(p)) == want, (a, b, p)
        assert local_symbol(a, b, p) == want, (a, b, p)
    # arguments beyond trial division: the symbol reads only v_p and the
    # unit part, so the oracle runs on small integers of the same local
    # square classes, built from residues of N (a unit and its residue
    # mod p^k differ by a unit = 1 mod p, or mod 8, a local square)
    N = 1000003 * 1000033
    cases = [
        (5, N, 5, (5, N % 125)),
        (5, N - 1, 5, (5, (N - 1) % 125)),
        (Fraction(1, N), 3, 3, (N % 27, 3)),
        (2 * N, Fraction(-N, 7), 7, (2 * N % 343, 7 * (-N % 49))),
        (N, 2, 2, (N % 64, 2)),
        (Fraction(2, N), 3 * N, 2, (2 * N % 64, 3 * N % 64)),
    ]
    for a, b, p, small in cases:
        assert hilbert(a, b, Place(p)) == brute_hilbert(*small, p), (a, b, p)


def test_residue_symbol_against_brute_on_balls():
    # on the ball y = x mod p^K the reader must return the one symbol every
    # sampled lift has (sound), and None with v_p(x) < K only when two
    # lifts disagree (sharp); at p = 2 eight lifts cover the three unit
    # bits the formulas can read
    checked = {None: 0, 1: 0, -1: 0}
    for p in (2, 3, 5):
        avals = (1, 5, -3, 13, -1, 3, 7, -5, p, -p, 2 * p, 3 * p, 4 * p,
                 p * p * 3, Fraction(3, p))
        readers = {a: _symbol_reader(a, p) for a in avals}
        xs = list(range(-12, 13)) + [p ** 3, -2 * p ** 2] + \
            [Fraction(x, p ** j) for x in (1, -1, 2, 3, -7) for j in (1, 2)]
        for K in range(1, 6):
            lifts = range(8) if p == 2 else range(p)
            for a in avals:
                for x in xs:
                    sym = readers[a](x, K)
                    checked[sym] += 1
                    if x == 0:
                        assert sym is None
                        continue
                    seen = {brute_hilbert(a, x + t * p ** K, p)
                            for t in lifts if x + t * p ** K != 0}
                    if sym is not None:
                        assert sym == brute_hilbert(a, x, p), (a, x, p, K)
                        assert seen == {sym}, (a, x, p, K)
                    elif valuation(x, p) < K:
                        assert p == 2 and seen == {1, -1}, (a, x, p, K)
    assert min(checked.values()) > 100, checked


def test_odd_shell_formula_against_brute_over_unit_residues():
    # (a, p^v y)_p = -1 for every unit y exactly when v is odd and
    # _minus_on_odd_shells(a, p).  The brute runs over every unit residue
    # y mod p (mod 8 at p = 2) and reads the symbol once per local square
    # class it meets, on the `local_class` members of the classes of a and
    # p^v y, which carry the same symbols.
    # brute_hilbert's table has p^6 entries, out of reach at p = 101,
    # where the benchmark's independent local_symbol reads them instead
    assert [_unit_digits(p) for p in (2, 3, 5, 101)] == [3, 1, 1, 1]
    cases = 0
    for p in (2, 3, 5, 7, 11, 13, 101):
        symbol = local_symbol if p == 101 else brute_hilbert
        classes = {local_class(y, p)
                   for y in range(1, 8 if p == 2 else p) if y % p}
        for a in range(-400, 401):
            if not a:
                continue
            rep = local_class(a, p)
            formula = _minus_on_odd_shells(a, p)
            for v in range(6):
                seen = {symbol(rep, p ** (v % 2) * y, p) for y in classes}
                assert (seen == {-1}) == bool(v % 2 and formula), (a, p, v)
                cases += 1
    assert cases == 33_600


def _digit_key(u, k, p):
    # the digit vectors of u at levels 0, ..., k - 1: depth-first digit
    # order is the lexicographic order of these keys
    return tuple(tuple(x // p**j % p for x in u) for j in range(k))


def test_ball_walker_on_random_readers():
    rng = random.Random(29)
    deep = 0  # walks that yield a ball below level 1
    for p, s in itertools.product((2, 3, 5), (1, 2)):
        for _ in range(15):
            last = rng.choice([k for k in range(5) if p ** (s * k) <= 729])
            reads = []

            def read(u, k):
                value = rng.choice((None, None, None, 0, 1))
                reads.append((u, k, value))
                return value

            out = list(_balls(p, s, last, read))
            deep += max(k for k, _, _ in out) >= 2
            # read runs once per visited ball, and a ball is visited
            # exactly when it is the root or a child of a ball read as
            # None below `last`
            visited = [(u, k) for u, k, _ in reads]
            assert len(set(visited)) == len(visited)
            want = {((0,) * s, 0)}
            for u, k, value in reads:
                if value is None and k < last:
                    want.update(
                        (tuple(x + d * p**k for x, d in zip(u, ds)), k + 1)
                        for ds in itertools.product(range(p), repeat=s))
            assert set(visited) == want
            # every other ball is yielded with its value, in the order read
            assert out == [(k, u, value) for u, k, value in reads
                           if value is not None or k == last]
            # reads, so yields, come in depth-first digit order
            keys = [_digit_key(u, k, p) for u, k in visited]
            assert keys == sorted(keys)
            # the yielded balls partition (Z/p^last)^s
            cover = dict.fromkeys(
                itertools.product(range(p**last), repeat=s), 0)
            for k, u, _ in out:
                assert all(0 <= x < p**k for x in u)
                for v in itertools.product(range(p ** (last - k)), repeat=s):
                    cover[tuple(x + p**k * y for x, y in zip(u, v))] += 1
            assert set(cover.values()) == {1}, (p, s, last)
    assert deep >= 25, deep


def test_hilbert_bilinearity_and_symmetry():
    rng = random.Random(23)
    places = [REAL_PLACE, Place(2), Place(3), Place(5), Place(7), Place(13)]
    for _ in range(200):
        a = rng.choice([1, -1]) * rng.randint(1, 300)
        b = rng.choice([1, -1]) * rng.randint(1, 300)
        c = rng.choice([1, -1]) * rng.randint(1, 300)
        v = rng.choice(places)
        assert hilbert(a, b, v) == hilbert(b, a, v)
        assert hilbert(a, b * c, v) == hilbert(a, b, v) * hilbert(a, c, v)
        assert hilbert(a, -a, v) == 1
        if a != 1:
            assert hilbert(a, 1 - a, v) == 1
        assert hilbert(a, b * b, v) == 1


def test_hilbert_reciprocity():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.choice([1, -1]) * rng.randint(1, 10**4)
        b = rng.choice([1, -1]) * rng.randint(1, 10**4)
        prod = 1
        for v in hilbert_support(a, b):
            prod *= hilbert(a, b, v)
        assert prod == 1, (a, b)


def test_hilbert_support_lists_its_primes_in_increasing_order():
    assert hilbert_support(7, 3) == [REAL_PLACE, Place(2), Place(3),
                                     Place(7)]
    assert hilbert_support(-70, Fraction(33, 10)) == [
        REAL_PLACE, Place(2), Place(3), Place(5), Place(7), Place(11)]


def test_f2_independent_examples():
    cl = lambda n: squarefree_class(n)
    assert f2_independent([cl(-1), cl(2), cl(3)]) == (True, None)
    assert f2_independent([cl(5), cl(5)]) == (False, (0, 1))
    assert f2_independent([cl(2), cl(3), cl(6)]) == (False, (0, 1, 2))
    assert f2_independent([cl(4)]) == (False, (0,))
    assert f2_independent([cl(2), cl(3), cl(5), cl(30)]) == (False, (0, 1, 2, 3))
    ok, cert = f2_independent([cl(n) for n in (2, 3, 5, 7, 11, 13, 17, 19)])
    assert ok and cert is None


def test_f2_certificate_is_minimal_and_lowest():
    # two distinct dependencies; the shorter one must win, then lowest indices
    cl = lambda n: squarefree_class(n)
    classes = [cl(2), cl(3), cl(6), cl(7), cl(7)]
    ok, cert = f2_independent(classes)
    assert not ok
    assert cert == (3, 4)
    classes = [cl(5), cl(2), cl(10), cl(5), cl(13)]
    ok, cert = f2_independent(classes)
    assert not ok
    assert cert == (0, 3)  # size-2 beats the size-3 dependency {0,1,2}


def test_f2_certificate_is_minimal_beyond_22_classes():
    # 21 primes, their product, then 2 again: elimination meets the
    # 22-class dependency first, but the minimal certificate is (0, 22)
    primes = [q for q in range(2, 74) if is_prime(q)]
    assert len(primes) == 21
    classes = [squarefree_class(q) for q in primes]
    classes += [squarefree_class(math.prod(primes)), squarefree_class(2)]
    assert f2_independent(classes) == (False, (0, 22))


def test_square_class_multiplication():
    c6 = squarefree_class(6)
    c10 = squarefree_class(10)
    assert (c6 * c10).representative() == 15
    assert (c6 * c6).is_trivial
    assert (squarefree_class(-2) * squarefree_class(-3)).representative() == 6
    assert TRIVIAL_CLASS * c6 == c6
    with pytest.raises(TypeError):
        SquareClass() * 3


@dataclass(frozen=True)
class _Row:
    q: Fraction
    note: Optional[str] = None


@pytest.mark.parametrize("x, encoded", [
    (Fraction(3), "3/1"),
    (True, True),
    (7, 7),
    (0.5, {"value": 0.5, "precision_bits": 53}),
    (float("nan"), None),
    (-math.inf, None),
    (REAL_PLACE, "oo"),
    (squarefree_class(-5), "-5"),
    ({2: Fraction(1, 2)}, {"2": "1/2"}),
    (_Row(Fraction(-1, 2)), {"q": "-1/2"}),
    (((1, Fraction(2)), (Place(3),)), [[1, "2/1"], ["3"]]),
], ids=["fraction", "bool", "int", "float", "nan", "infinity", "place",
        "square class", "dict keys", "dataclass", "nested tuples"])
def test_json_value_rules(x, encoded):
    # compared as JSON text, where true is not 1; JSON has no NaN or
    # infinity, so a float that is not finite is written null
    assert json.dumps(json_value(x), sort_keys=True) \
        == json.dumps(encoded, sort_keys=True)


class _RowTuple(NamedTuple):
    q: Fraction
    note: Optional[str] = None


def test_json_value_writes_a_named_tuple_as_a_dataclass():
    # engine results are NamedTuples and inputs dataclasses: both are the
    # dict of their fields that are not None, never a list
    for note in (None, "x"):
        assert json_value(_RowTuple(Fraction(-1, 2), note)) \
            == json_value(_Row(Fraction(-1, 2), note))
    assert json_value(Verdict(True, None)) == {"holds": True}
    assert json_value([_RowTuple(Fraction(1))]) == [{"q": "1/1"}]


def test_verdict_reads_as_the_pair_it_replaced():
    verdict = f2_independent([squarefree_class(5), squarefree_class(5)])
    assert type(verdict) is Verdict
    assert (verdict.holds, verdict.evidence) == (False, (0, 1))
    holds, evidence = verdict
    assert verdict == (holds, evidence) and verdict[0] is False
    assert type(f2_independent([squarefree_class(2)])) is Verdict


def test_primes_upto_is_the_trial_division_list():
    primes = [n for n in range(2, 2001) if trial_primes(n) == {n}]
    for n in range(-2, 2001):
        assert _primes_upto(n) == [p for p in primes if p <= n], n


def test_primes_upto_leaves_the_primality_cache_alone():
    # a sieve: listing the primes runs no primality test, so is_prime's
    # unbounded cache does not grow by one entry per integer up to n
    before = is_prime.cache_info().currsize
    assert len(_primes_upto(10**5)) == 9592
    assert is_prime.cache_info().currsize == before
