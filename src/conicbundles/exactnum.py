"""Exact arithmetic substrate: places, square classes, Hilbert symbols.

Everything in this module is plain integer arithmetic.  Rationals are
`fractions.Fraction` values (normalized, positive denominator), square
classes are elements of Q*/Q*^2 stored as a sign bit plus the set of primes
with odd exponent, and Hilbert symbols (a, b)_v in {+1, -1} are computed
from the classical valuation/unit-part formulas: at an odd prime p, with
a = p^alpha * u and b = p^beta * w,

    (a, b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (w|p)^alpha,

and at p = 2, with odd parts u, w,

    (a, b)_2 = (-1)^(eps(u)eps(w) + alpha*omega(w) + beta*omega(u)),

where eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2.  At the real place
the symbol is -1 exactly when both arguments are negative.  The formulas
are anchored in the test suite by brute-force residue searches (mod p^3 at
odd p, mod 2^6 at p = 2), not trusted as transcriptions.

Symbols and local squares read only v_p and the unit part mod p (mod 8 at
p = 2), so they need no factorization and accept arguments of any size.
Only global data factors: square classes, `hilbert_support` and the lists
of bad primes.  Factorization is trial division up to the fixed
TRIAL_DIVISION_BOUND, a deterministic Miller-Rabin primality check and
Pollard-Brent rho for the composite cofactors, with a fixed step budget;
inputs at desk scale are small.

The formulas live once, in the one symbol reader `_symbol_reader(a, p)`.
It splits a once and returns sym(x, K): the symbol (a, y)_p common to
every y = x mod p^K, or None when that ball does not pin v_p(y) and the
unit bits the formulas read.  `hilbert` reads through it at a ball small
enough to be exact; readers are cached per (a, p), so all callers share
them.  Beside it sits the one ball walker, `_balls`, a flat loop over a
stack of lazy child iterators with no depth limit, which `localsolve`
walks for witnesses and `brauermanin` for scan cells, both reading the
balls with such readers.

The integer primitives live here once, beside the walker: `_dot`, a
form's value f(u) (`localsolve`, `counting`); `_primitive`, a row over
the gcd of its entries (`localsolve`, `counting`); `_clear_denominators`
(`localsolve`, `counting`, `pencil`, `delpezzo`); `_primes_upto` and
`_primes_dividing` (`localsolve`, `counting`, `brauermanin`); and `_det`,
Bareiss's fraction-free determinant (`counting`, `delpezzo`).  Beside
them sit `_checked_place`, the one check that a place argument is a
`Place` (`hilbert`, `localsolve`, `brauermanin`), and `json_value`, the
one writer of the report encoding (`cli`, `counting`, `brauermanin`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence, Union

IntLike = Union[int, Fraction]

TRIAL_DIVISION_BOUND = 1_000_000


class ExactNumError(ValueError):
    pass


class FactorizationError(ExactNumError):
    """An integer resisted factorization at desk scale."""


def as_rational(x, error=ExactNumError) -> Fraction:
    """x as an exact Fraction; floats and non-numbers raise `error`.

    Every module coerces its rational inputs here, passing its own error
    class, so a float never silently becomes its binary expansion."""
    if isinstance(x, float):
        raise error("rational data must not pass through floats: %r" % (x,))
    try:
        q = Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error("not a rational number: %r" % (x,)) from exc
    if type(q.numerator) is not int:
        # Fraction keeps numpy integers, whose arithmetic wraps silently
        q = Fraction(int(q.numerator), int(q.denominator))
    return q


def as_integer(x, error=ExactNumError) -> int:
    """x as a Python int; floats and non-integral values raise `error`."""
    if isinstance(x, int):
        return int(x)
    q = as_rational(x, error)
    if q.denominator != 1:
        raise error("not an integer: %r" % (x,))
    return q.numerator


def as_integer_at_least(x, least: int, name: str,
                        error=ExactNumError) -> int:
    """x as a Python int no smaller than `least`; anything else raises
    `error`, naming the parameter."""
    x = as_integer(x, error)
    if x < least:
        raise error("%s must be >= %d, got %d" % (name, least, x))
    return x


def as_prime(p, error=ExactNumError) -> int:
    """p as a Python int that is prime; anything else raises `error`."""
    p = as_integer(p, error)
    if not is_prime(p):
        raise error("%r is not prime" % (p,))
    return p


def as_bits(n, error=ExactNumError, r: Optional[int] = None) -> tuple:
    """n as a tuple of 0/1 Python ints, of length r when r is given;
    anything else raises `error`."""
    bits = tuple(as_integer(b, error) for b in n)
    if r is not None and len(bits) != r:
        raise error("vector length %d does not match r = %d"
                    % (len(bits), r))
    if any(b not in (0, 1) for b in bits):
        raise error("coefficients must be 0 or 1")
    return bits


# Deterministic for n < 3,317,044,064,679,887,385,961,981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None, typed=True)
def is_prime(n: int) -> bool:
    # typed: a float key never meets the cached verdict of an int
    n = as_integer(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int) -> Optional[int]:
    """A proper factor of the composite n, or None once `budget` steps of
    x -> x^2 + c mod n are spent.

    Pollard's rho with Brent's cycle detection (Brent, BIT 20, 1980;
    Cohen, A Course in Computational Algebraic Number Theory, 8.5): y runs
    ahead of the saved x in rounds of doubling length, the differences
    x - y are multiplied mod n in blocks of 128 with one gcd per block,
    and a block whose gcd is all of n is replayed step by step.  A prime
    factor p is met after about sqrt(p) steps.  The start x = 2 and the
    constants c = 1, 2, ... make every run deterministic."""
    steps = 0
    c = 0
    while steps < budget:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += r + min(k, r)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def factorize(n: int) -> tuple:
    """Prime factorization of n >= 1 as a tuple of (p, exponent) pairs.

    Trial division up to TRIAL_DIVISION_BOUND, then the cofactor is split
    into primes: a perfect square into its two roots, any other composite
    by Pollard-Brent rho (_pollard_brent) within TRIAL_DIVISION_BOUND
    steps per split, which finds prime factors up to about the square of
    that bound.  A composite that survives its budget raises
    FactorizationError.  Results and failures are both cached, so asking
    again for an n beyond the budget raises without searching again.
    """
    n = as_integer(n)
    if n < 1:
        raise ExactNumError("factorize expects a positive integer, got %r" % (n,))
    out = _factor(n)
    if isinstance(out, str):
        raise FactorizationError(out)
    return out


@lru_cache(maxsize=None)
def _factor(n: int):
    # factorize on a positive int: its (p, exponent) pairs, or the message
    # of the FactorizationError it raises
    out = {}
    for p in (2, 3):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    q = 5
    while q * q <= n and q <= TRIAL_DIVISION_BOUND:
        for p in (q, q + 2):
            while n % p == 0:
                n //= p
                out[p] = out.get(p, 0) + 1
        q += 6
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        elif is_square(m):
            rest += [math.isqrt(m)] * 2
        else:
            d = _pollard_brent(m, TRIAL_DIVISION_BOUND)
            if d is None:
                return ("cofactor %d has no prime factor below %d, and %d "
                        "Pollard-Brent steps found none"
                        % (m, TRIAL_DIVISION_BOUND, TRIAL_DIVISION_BOUND))
            rest += [d, m // d]
    return tuple(sorted(out.items()))


def is_square(n: int) -> bool:
    """Whether the integer n is a perfect square (0 included)."""
    if n < 0:
        return False
    s = math.isqrt(n)
    return s * s == n


def _exact(x) -> IntLike:
    # plain ints skip the Fraction round trip: the symbols below sit on
    # every hot path, and ints are their commonest input
    return x if type(x) is int else as_rational(x)


def _valuation_unit(x: IntLike, p: int):
    """(v_p(x), w) for a nonzero int or Fraction x and a prime p, where w,
    the numerator times the denominator of x / p^v, is an integer prime to
    p in the square class of the unit part: all that a symbol reads."""
    n, d = x.as_integer_ratio()
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n * d


def valuation(x: IntLike, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    p = as_prime(p)
    x = _exact(x)
    if x == 0:
        raise ExactNumError("valuation of 0 is undefined")
    return _valuation_unit(x, p)[0]


@dataclass(frozen=True)
class Place:
    """A place of Q: the real place (p is None) or a finite prime p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            object.__setattr__(self, "p", as_prime(self.p))

    @property
    def is_real(self) -> bool:
        return self.p is None

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __str__(self):
        return "oo" if self.p is None else str(self.p)


REAL_PLACE = Place(None)


def _checked_place(v, error=ExactNumError) -> Place:
    """v itself when it is a Place; anything else raises `error`."""
    if not isinstance(v, Place):
        raise error("not a Place: %r" % (v,))
    return v


@dataclass(frozen=True)
class SquareClass:
    """An element of Q*/Q*^2: sign bit and the primes with odd exponent."""

    sign: int = 0
    primes: frozenset = frozenset()

    def __post_init__(self):
        if self.sign not in (0, 1):
            raise ExactNumError("sign bit must be 0 or 1")
        for q in self.primes:
            if not is_prime(q):
                raise ExactNumError("square class support must be prime, got %r" % (q,))

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if not isinstance(other, SquareClass):
            return NotImplemented
        return SquareClass(self.sign ^ other.sign,
                           self.primes.symmetric_difference(other.primes))

    @property
    def is_trivial(self) -> bool:
        return self.sign == 0 and not self.primes

    def representative(self) -> int:
        """The squarefree integer representing this class."""
        n = -1 if self.sign else 1
        for q in self.primes:
            n *= q
        return n

    def __str__(self):
        return str(self.representative())


TRIVIAL_CLASS = SquareClass()


def squarefree_class(x: IntLike) -> SquareClass:
    """Image of a nonzero rational in Q*/Q*^2."""
    x = _exact(x)
    if x == 0:
        raise ExactNumError("0 has no square class")
    sign = 1 if x < 0 else 0
    primes = set()
    for n in (abs(x.numerator), x.denominator):
        for p, e in factorize(n):
            if e % 2:
                primes.symmetric_difference_update({p})
    return SquareClass(sign, frozenset(primes))


def squarefree_part(x: IntLike) -> int:
    return squarefree_class(x).representative()


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, via Euler's criterion."""
    a, p = as_integer(a), as_prime(p)
    if p == 2:
        raise ExactNumError("legendre needs an odd prime, got 2")
    a = a % p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


@lru_cache(maxsize=1024, typed=True)
def _symbol_reader(a: IntLike, p: int):
    """sym(x, K): the symbol (a, y)_p shared by every y = x mod p^K, or
    None when it is not constant on that ball.

    a is a nonzero int or Fraction and p a prime; x is an int or
    Fraction.  a is split into p^alpha u once, here, and the Serre
    formulas of the module docstring are specialised to that split, so a
    read splits only x = p^beta w, with integer operations when x is an
    int.  The ball pins v_p(y) = beta when beta < K, and the unit part
    mod p^(K - beta).  At odd p the formulas read one unit digit; at
    p = 2 they read 3 bits when alpha is odd, 2 when u = 3 mod 4 and 1
    otherwise, so None is returned exactly when two points of the ball
    can disagree.  Readers are cached (typed): each is a pure closure over
    the split (alpha, u) of a, so all callers can share one safely."""
    alpha, u = _valuation_unit(a, p)
    alpha &= 1
    if p == 2:
        # (a, y)_2 = (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u))
        eps_u = u >> 1 & 1
        omega_u = (u * u - 1) >> 3 & 1
        need = 3 if alpha else 2 if eps_u else 1

        def sym(x, K):
            if not x:
                return None
            if type(x) is int:
                beta = (x & -x).bit_length() - 1
                w = x >> beta & 7
            else:
                beta, w = _valuation_unit(x, 2)
                w &= 7
            if K - beta < need:
                return None
            e = eps_u & w >> 1 ^ alpha & (w * w - 1) >> 3 ^ beta & omega_u
            return -1 if e & 1 else 1
        return sym

    # (a, y)_p = (-1)^(alpha beta (p - 1)/2) (u|p)^beta (w|p)^alpha
    half = (p - 1) >> 1
    odd_beta = 1 if pow(u, half, p) == 1 else -1
    if alpha and half & 1:
        odd_beta = -odd_beta

    def sym(x, K):
        if not x:
            return None
        if type(x) is int:
            beta = 0
            while beta < K and not x % p:
                x //= p
                beta += 1
        else:
            beta, x = _valuation_unit(x, p)
        if beta >= K:
            return None
        s = odd_beta if beta & 1 else 1
        if alpha and pow(x, half, p) != 1:
            return -s
        return s
    return sym


def hilbert(a: IntLike, b: IntLike, place: Place) -> int:
    """Hilbert symbol (a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    Q_v-point.  Depends only on the square classes of a and b, and at a
    prime p only on v_p and the unit parts, so nothing is factorized."""
    a = _exact(a)
    b = _exact(b)
    if a == 0 or b == 0:
        raise ExactNumError("hilbert symbol needs nonzero arguments")
    if _checked_place(place).is_real:
        return -1 if (a < 0 and b < 0) else 1
    # v_p(b) is below the bit length of its numerator, so this ball pins
    # v_p(b) and the three unit digits the formulas can read: b itself
    return _symbol_reader(a, place.p)(b, b.numerator.bit_length() + 3)


def _det(m):
    """Determinant by Bareiss's fraction-free elimination: each entry left
    after step k is a (k+1)-minor, so dividing by the previous pivot is
    exact; integers stay in Z, other input runs on Fractions and `/`."""
    n = len(m)
    if all(type(x) is int for row in m for x in row):
        m, div = [list(row) for row in m], int.__floordiv__
    else:
        m, div = [list(map(Fraction, row)) for row in m], Fraction.__truediv__
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = div(pivot * row[j] - lead * top[j], prev)
        prev = pivot
    return sign * m[-1][-1]


def _dot(form, u):
    """f(u) = sum_j f_j u_j for a linear form f."""
    return sum(map(mul, form, u))


def _primitive(row) -> list:
    """The integer row over the gcd of its entries; a zero row stays."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else list(row)


def _clear_denominators(xs):
    """(L, [L x]) for the least L > 0 making every int or Fraction x in xs
    integral."""
    L = math.lcm(*(x.denominator for x in xs))
    return L, [x.numerator * (L // x.denominator) for x in xs]


def _primes_upto(n: int) -> list:
    return [p for p in range(2, n + 1) if is_prime(p)]


def _primes_dividing(xs) -> set:
    """The primes of the numerators and denominators of the nonzero xs."""
    out = set()
    for x in xs:
        if x:
            for part in (abs(x.numerator), x.denominator):
                if part > 1:
                    out.update(p for p, _ in factorize(part))
    return out


def _balls(p: int, s: int, last: int, read):
    """Walk the balls u + p^k Z_p^s (u a tuple of s integers in [0, p^k))
    depth first in digit order from the root, k = 0.  `read(u, k)` runs
    once per ball; while it returns None and k < last, the ball splits
    into its p^s children u + p^k d, d in {0, ..., p - 1}^s taken
    lexicographically.  Every other ball is yielded as (k, u, value), so
    the yielded balls partition Z_p^s.

    One loop over a stack of lazy child iterators, one per open ball, so
    the walk keeps no generator chain and has no depth limit."""
    stack = []  # stack[j]: the unread children, at level j + 1, of a ball
    u, k = (0,) * s, 0
    while True:
        value = read(u, k)
        if value is None and k < last:
            step = p ** k
            stack.append(itertools.product(
                *[range(x, x + p * step, step) for x in u]))
        else:
            yield k, u, value
        while stack:
            u = next(stack[-1], None)
            if u is not None:
                break
            stack.pop()
        else:
            return
        k = len(stack)


def hilbert_support(a: IntLike, b: IntLike) -> list:
    """Places where (a, b)_v can be nontrivial: the real place, 2, and odd
    primes dividing the squarefree parts."""
    out = [REAL_PLACE, Place(2)]
    for x in (a, b):
        for q in squarefree_class(x).primes:
            if q != 2:
                pl = Place(q)
                if pl not in out:
                    out.append(pl)
    return out


def class_masks(classes: Sequence[SquareClass]) -> list:
    """Bitmasks of square classes: bit 0 is the sign, bit i the i-th
    smallest prime in the combined support."""
    keys = sorted({q for c in classes for q in c.primes})
    pos = {q: i + 1 for i, q in enumerate(keys)}
    masks = []
    for c in classes:
        m = c.sign
        for q in c.primes:
            m |= 1 << pos[q]
        masks.append(m)
    return masks


def f2_insert(rows: list, vec: int, tag: int = 0):
    """Reduce an F2 vector against echelon rows and keep the remainder.

    `rows` holds (pivot bit, row, tag) triples in insertion order; every
    stored row whose pivot bit is set in the running vector is XORed in,
    tag included, so tags record which inputs were combined.  A nonzero
    remainder is appended with its top bit as pivot.  Returns the reduced
    (vec, tag); vec == 0 means the input lay in the span of the rows.
    """
    for pivot, row, row_tag in rows:
        if vec & pivot:
            vec ^= row
            tag ^= row_tag
    if vec:
        rows.append((1 << (vec.bit_length() - 1), vec, tag))
    return vec, tag


def f2_independent(classes: Sequence[SquareClass]):
    """Whether the classes are independent in the F2-vector space Q*/Q*^2.

    Returns (True, None) or (False, certificate) where the certificate is a
    nonempty tuple of indices whose classes multiply to the trivial class,
    of minimal support, ties broken by lowest index order.  Elimination
    decides dependence; the certificate is then found by enumerating the
    index subsets by size, so the search is exponential in the size of
    the certificate.
    """
    masks = class_masks(list(classes))
    rows: list = []
    if all(f2_insert(rows, m)[0] for m in masks):
        return True, None
    # minimal-support certificate: smallest subset, then lexicographically
    # first index tuple
    for size in range(1, len(masks) + 1):
        for subset in itertools.combinations(range(len(masks)), size):
            acc = 0
            for i in subset:
                acc ^= masks[i]
            if acc == 0:
                return False, subset
    raise AssertionError("elimination found a dependency but enumeration did not")


def json_value(x):
    """x in the report encoding, the one place that encoding is written.

    Ints, bools, strings and None stay as they are; a Fraction becomes
    "num/den" (denominator 1 included) and a float {"value": x,
    "precision_bits": 53}; a Place or SquareClass becomes its string; dict
    keys become strings; a dataclass becomes the dict of its fields that
    are not None, and any other sequence a list."""
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, float):
        return {"value": x, "precision_bits": 53}
    if isinstance(x, (Place, SquareClass)):
        return str(x)
    if isinstance(x, dict):
        return {str(k): json_value(v) for k, v in x.items()}
    if is_dataclass(x):
        return {f.name: json_value(v) for f in fields(x)
                if (v := getattr(x, f.name)) is not None}
    return [json_value(v) for v in x]
