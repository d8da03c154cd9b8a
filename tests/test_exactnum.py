import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np
import pytest

from conicbundles.exactnum import (
    ExactNumError,
    FactorizationError,
    Place,
    REAL_PLACE,
    SquareClass,
    TRIVIAL_CLASS,
    _balls,
    _symbol_reader,
    f2_independent,
    factorize,
    hilbert,
    hilbert_support,
    is_prime,
    json_value,
    legendre,
    squarefree_class,
    squarefree_part,
    valuation,
)


def brute_hilbert(a, b, p):
    """Brute-force (a, b)_p by searching for a primitive solution of
    z^2 = a x^2 + b y^2 mod p^3 (odd p) or mod 2^6.

    A primitive solution at that depth lifts by Hensel's lemma once the
    coefficients are squarefree, so this decides the symbol with no use of
    the formula under test.
    """
    a = squarefree_part(a)
    b = squarefree_part(b)
    m = 64 if p == 2 else p**3
    x = np.arange(m, dtype=np.int64)
    squares = np.zeros(m, dtype=bool)
    unit_squares = np.zeros(m, dtype=bool)
    squares[(x * x) % m] = True
    unit_squares[(x[x % p != 0] ** 2) % m] = True
    ax2 = (a * x * x) % m
    by2 = (b * x * x) % m
    t = (ax2[:, None] + by2[None, :]) % m
    xu = (x % p != 0)
    prim_xy = xu[:, None] | xu[None, :]
    ok = (squares[t] & prim_xy) | unit_squares[t]
    return 1 if ok.any() else -1


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_factorize():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(97 * 97) == ((97, 2),)
    with pytest.raises(ExactNumError):
        factorize(0)
    # Pollard-Brent rho splits a product of two primes beyond
    # TRIAL_DIVISION_BOUND; one whose factors its step budget cannot reach
    # must still fail loudly
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


def test_valuation():
    assert valuation(Fraction(9, 4), 3) == 2
    assert valuation(Fraction(9, 4), 2) == -2
    assert valuation(-48, 2) == 4
    with pytest.raises(ExactNumError):
        valuation(0, 5)
    with pytest.raises(ExactNumError):
        valuation(3, 4)


def test_place():
    assert REAL_PLACE.is_real and not REAL_PLACE.is_finite
    assert Place(7).is_finite
    with pytest.raises(ExactNumError):
        Place(6)


def test_squarefree_class_examples():
    assert squarefree_part(18) == 2
    assert squarefree_part(-4) == -1
    assert squarefree_part(Fraction(1, 2)) == 2
    assert squarefree_part(Fraction(-27, 50)) == -6
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
    cases_odd = [
        (1, 1), (1, 3), (3, 3), (-1, 3), (2, 3), (5, 7), (-5, 7),
        (6, 10), (15, 21), (-6, -10), (7, 11), (-7, 11), (30, 42),
    ]
    for p in (3, 5, 7, 11, 13):
        for a, b in cases_odd:
            assert hilbert(a, b, Place(p)) == brute_hilbert(a, b, p), (a, b, p)
        # p-divisible arguments
        for a, b in [(p, 1), (p, 2), (p, p), (-p, p), (2 * p, 3), (p, -1)]:
            assert hilbert(a, b, Place(p)) == brute_hilbert(a, b, p), (a, b, p)
    for a in (-2, -1, 1, 2, 3, 5, 6, 7, 10, -10, 14, 15):
        for b in (-2, -1, 1, 2, 3, 5, 6, 7, 10, -10, 14, 15):
            assert hilbert(a, b, Place(2)) == brute_hilbert(a, b, 2), (a, b)
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


@lru_cache(maxsize=None)
def _brute_cached(a, b, p):
    return brute_hilbert(a, b, p)


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
                    seen = {_brute_cached(a, x + t * p ** K, p)
                            for t in lifts if x + t * p ** K != 0}
                    if sym is not None:
                        assert sym == _brute_cached(a, x, p), (a, x, p, K)
                        assert seen == {sym}, (a, x, p, K)
                    elif valuation(x, p) < K:
                        assert p == 2 and seen == {1, -1}, (a, x, p, K)
    assert min(checked.values()) > 100, checked


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


@dataclass(frozen=True)
class _Row:
    q: Fraction
    note: Optional[str] = None


@pytest.mark.parametrize("x, encoded", [
    (Fraction(3), "3/1"),
    (True, True),
    (7, 7),
    (float("nan"), {"value": math.nan, "precision_bits": 53}),
    (REAL_PLACE, "oo"),
    (squarefree_class(-5), "-5"),
    ({2: Fraction(1, 2)}, {"2": "1/2"}),
    (_Row(Fraction(-1, 2)), {"q": "-1/2"}),
    (((1, Fraction(2)), (Place(3),)), [[1, "2/1"], ["3"]]),
], ids=["fraction", "bool", "int", "nan", "place", "square class",
        "dict keys", "dataclass", "nested tuples"])
def test_json_value_rules(x, encoded):
    # compared as JSON text, where NaN matches NaN and true is not 1
    assert json.dumps(json_value(x), sort_keys=True) \
        == json.dumps(encoded, sort_keys=True)
