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
of bad primes.  Factorization divides out the primes up to 41, then
splits the cofactor with Pollard-Brent rho within the fixed step budget
POLLARD_BRENT_BUDGET.  Primality is strong Miller-Rabin to the thirteen
prime bases 2..41, deterministic below 3,317,044,064,679,887,385,961,981,
and from there on a strong Lucas test joins it (Baillie-PSW); inputs at
desk scale are small.  The Lucas test's Jacobi symbol `_jacobi`, a
quadratic reciprocity loop, is also the one Legendre symbol.

The formulas live once, in the one symbol reader `_symbol_reader(a, p)`.
It splits a once and returns sym(x, K): the symbol (a, y)_p common to
every y = x mod p^K, or None when that ball does not pin v_p(y) and the
unit bits the formulas read.  Beside it, `_minus_on_odd_shells(a, p)`
reads the same split for `localsolve`'s floor cut: (a, p^v y)_p = -1
for every unit y exactly when v is odd, v_p(a) even and the unit part of
a a non-residue mod p (5 mod 8 at p = 2).  `_unit_digits(p)`, the digits
of a unit that fix its square class (1 at odd p, 3 at p = 2), is the one
precision every symbol read keeps (`hilbert`, `localsolve`,
`brauermanin`, `quadform`), and `_exact_level(x, p)` the one ball where
a read is the symbol at x itself (`hilbert`, `brauermanin`); readers
are cached per (a, p), so all callers share them.  Beside it sits the one
ball walker, `_balls`, a flat loop over a stack of lazy child iterators
with no depth limit, which `localsolve` walks for witnesses and
`brauermanin` for scan cells, both reading the balls with such readers.

The integer primitives live here once, beside the walker: `_dot`, a
form's value f(u) (`localsolve`, `counting`); `_primitive`, a row over
the gcd of its entries (`localsolve`, `_nullspace`); `_clear_denominators`
(`localsolve`, `counting`, `pencil`, `delpezzo`); `_primes_upto` and
`_primes_dividing` (`localsolve`, `counting`, `brauermanin`); `_places`,
the real place followed by 2 and given primes in increasing order
(`hilbert_support`, `localsolve`, `brauermanin`); and `_echelon`, the
one elimination loop (Bareiss's fraction-free echelon form), read by
`pencil`, `_det` (`counting`, `delpezzo`) and `_nullspace`, the one
integer solver (`counting`, `localsolve`).  Beside them sit the one
check of a place argument, `_checked_place`, of an integer's lower bound,
`as_integer_at_least`, and of a count against DEFAULT_ENUMERATION_CAP,
`_check_cap`; `_decimal`, the one writer of a refused value;
`json_value`, the one writer of the report encoding (`cli`, `counting`,
`brauermanin`); and `Verdict`, the one shape of a yes/no answer with its
evidence (`localsolve`, `delpezzo`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

IntLike = Union[int, Fraction]

POLLARD_BRENT_BUDGET = 1_000_000
# the most cells an exhaustive sum or scan allocates; `_check_cap`, its one
# check, refuses larger jobs for counting's G, brauermanin's scan cells,
# quadform's row searches and rho_table, and `_primes_upto`, the sieve of
# the L of everywhere_locally_soluble and predict_and_compare's cutoff
DEFAULT_ENUMERATION_CAP = 10**7


class ExactNumError(ValueError):
    pass


def _decimal(x) -> str:
    """x for an error message, the one writer of a refused value: an int
    in decimal, anything else as its repr.  Past the int-to-str digit
    limit, where writing it would raise ValueError in place of the
    refusal, an int is named by its size ("at least 2^b", "at most -2^b")
    and any other value by its type."""
    if isinstance(x, int):
        try:
            return "%d" % x
        except ValueError:
            b = abs(x).bit_length() - 1
            return ("at least 2^%d" if x > 0 else "at most -2^%d") % b
    if isinstance(x, Fraction):
        return "Fraction(%s, %s)" % (_decimal(x.numerator),
                                     _decimal(x.denominator))
    try:
        return repr(x)
    except ValueError:
        return "a %s past the digit limit" % type(x).__name__


def _check_cap(base: int, exponent: int, error, template: str, *args) -> int:
    """base^exponent, a count of cells, entries, rows or primes, or `error`
    past DEFAULT_ENUMERATION_CAP.  A power is not built past the cap: each
    product by a base >= 2 at least doubles, so 24 pass 10^7.  The refusal
    is `template` formatted by the args and `{count}`, each written by
    `_decimal` (an unbuilt power as the power of 2 it reaches)."""
    count, left = base, 0
    if exponent != 1:
        count, left = 1, exponent if base > 1 else 0
        while left and count <= DEFAULT_ENUMERATION_CAP:
            count *= base
            left -= 1
    if count <= DEFAULT_ENUMERATION_CAP:
        return count
    written = "at least 2^%s" % _decimal(
        count.bit_length() - 1 + left * (base.bit_length() - 1)) \
        if left else _decimal(count)
    raise error(template.format(*map(_decimal, args), count=written)
                + ", beyond the cap %d" % DEFAULT_ENUMERATION_CAP)


class FactorizationError(ExactNumError):
    """An integer resisted factorization at desk scale."""


def as_rational(x, error=ExactNumError) -> Fraction:
    """x as an exact Fraction; floats and non-numbers raise `error`.

    Every module coerces its rational inputs here, passing its own error
    class, so a float never silently becomes its binary expansion."""
    if isinstance(x, float):
        raise error("rational data must not pass through floats: %s"
                    % _decimal(x))
    try:
        q = Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error("not a rational number: %s" % _decimal(x)) from exc
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
        raise error("not an integer: %s" % _decimal(x))
    return q.numerator


def as_integer_at_least(x, least: int, name: str,
                        error=ExactNumError) -> int:
    """x as a Python int no smaller than `least`; anything else raises
    `error`, naming the parameter: the one lower-bound check of an
    integer argument."""
    x = as_integer(x, error)
    if x < least:
        raise error("%s must be >= %d, got %s" % (name, least, _decimal(x)))
    return x


def as_prime(p, error=ExactNumError) -> int:
    """p as a Python int that is prime; anything else raises `error`."""
    p = as_integer(p, error)
    if not is_prime(p):
        raise error("%s is not prime" % _decimal(p))
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


# The first thirteen primes: the strong Miller-Rabin bases (Sorenson and
# Webster, Math. Comp. 86, 2017: the twelve up to 37 pass the composite
# psi_12 = 318,665,857,834,031,151,167,461, and all thirteen pass psi_13
# below), and the small primes that is_prime screens by and factorize
# divides out before splitting.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None, typed=True)
def is_prime(n: int) -> bool:
    """Whether the integer n is prime.

    A strong Miller-Rabin test to the bases _MR_BASES, a proof for
    n < psi_13 = 3,317,044,064,679,887,385,961,981 = 1,287,836,182,261 *
    2,575,672,364,521.  From psi_13 on a strong Lucas test with Selfridge's
    parameters joins it (_strong_lucas), so the test contains Baillie-PSW:
    no composite is known to pass, though none is proved not to."""
    # typed: a float key never meets the cached verdict of an int
    n = as_integer(n)
    if n < 2:
        return False
    for p in _MR_BASES:
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
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for an odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Whether the odd n > 41 with no prime factor up to 41 is a strong
    Lucas probable prime (Baillie and Wagstaff, Math. Comp. 35, 1980).

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    (D|n) = -1, P = 1 and Q = (1 - D) / 4.  With n + 1 = d 2^s, d odd,
    n passes when U_d = 0 or V_(d 2^r) = 0 mod n for some r < s.  A
    square n has no such D, so it is rejected before the search."""
    if is_square(n):
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n from k = 1, read down the bits of d:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, and for k + 1, with P = 1,
    # U_(k+1) = (U_k + V_k) / 2, V_(k+1) = (D U_k + V_k) / 2, halved by
    # (n + 1) / 2, the inverse of 2 mod the odd n
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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

    The primes in _MR_BASES are divided out, then the cofactor is split
    into primes: a prime is kept, a perfect square splits into its two
    roots, and any other composite is split by Pollard-Brent rho
    (_pollard_brent) within POLLARD_BRENT_BUDGET steps, which finds prime
    factors up to about the square of that budget.  A composite that
    survives its budget raises FactorizationError.  Results and failures
    are both cached, so asking again for an n beyond the budget raises
    without searching again.
    """
    out = _factor(as_integer_at_least(n, 1, "n"))
    if isinstance(out, str):
        raise FactorizationError(out)
    return out


@lru_cache(maxsize=None)
def _factor(n: int):
    # factorize on a positive int: its (p, exponent) pairs, or the message
    # of the FactorizationError it raises
    out = {}
    for p in _MR_BASES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        elif is_square(m):
            rest += [math.isqrt(m)] * 2
        else:
            d = _pollard_brent(m, POLLARD_BRENT_BUDGET)
            if d is None:
                return ("cofactor %s resisted %d Pollard-Brent steps"
                        % (_decimal(m), POLLARD_BRENT_BUDGET))
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

    def __str__(self):
        return "oo" if self.p is None else str(self.p)


REAL_PLACE = Place(None)


def _places(primes) -> tuple:
    """The real place, then 2 and the primes, once each, increasing."""
    return (REAL_PLACE,) + tuple(Place(q) for q in sorted({2, *primes}))


def _checked_place(v, error=ExactNumError) -> Place:
    """v itself when it is a Place; anything else raises `error`."""
    if not isinstance(v, Place):
        raise error("not a Place: %s" % _decimal(v))
    return v


@dataclass(frozen=True)
class SquareClass:
    """An element of Q*/Q*^2: sign bit and the primes with odd exponent.

    The sign is stored as a Python int and the primes as a frozenset of
    Python ints, whatever integers or iterable they arrive as; a prime
    listed twice is refused, since its exponent would be even."""

    sign: int = 0
    primes: frozenset = frozenset()

    def __post_init__(self):
        sign = as_integer(self.sign)
        if sign not in (0, 1):
            raise ExactNumError("sign bit must be 0 or 1")
        primes = [as_integer(q) for q in self.primes]
        for q in primes:
            if not is_prime(q):
                raise ExactNumError(
                    "square class support must be prime, got %s"
                    % _decimal(q))
        support = frozenset(primes)
        if len(support) != len(primes):
            raise ExactNumError("square class support lists a prime twice: %s"
                                % _decimal(sorted(primes)))
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "primes", support)

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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p: the Jacobi symbol `_jacobi`,
    by quadratic reciprocity."""
    a, p = as_integer(a), as_prime(p)
    if p == 2:
        raise ExactNumError("legendre needs an odd prime, got 2")
    return _jacobi(a, p)


def _unit_digits(p: int) -> int:
    """The digits of a unit that fix its square class, and so every symbol
    it enters: 1 at odd p, 3 at p = 2 (Hensel's 2 v_p(2) + 1)."""
    return 3 if p == 2 else 1


def _exact_level(x: IntLike, p: int) -> int:
    """The K at which a reader's sym(x, K) is the symbol at x: the ball
    pins v_p(x), below the bit length of x's numerator, and the units."""
    return x.numerator.bit_length() + _unit_digits(p)


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
    odd_beta = _jacobi(u, p)
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
        # (w|p) by Euler's criterion: the package's hottest line, where the
        # builtin pow beats the reciprocity loop of _jacobi at small p
        if alpha and pow(x, half, p) != 1:
            return -s
        return s
    return sym


def _minus_on_odd_shells(a: IntLike, p: int) -> bool:
    """Whether (a, p^v y)_p = -1 for every unit y and odd v.  With
    a = p^alpha u, the formulas give (u|p)^v at odd p and (-1)^(eps(u)
    eps(y) + v omega(u)) at p = 2 when alpha is even, so exactly when
    (u|p) = -1, resp. u = 5 mod 8; an odd alpha lets the unit y flip the
    symbol, and at even v the unit y = 1 reads +1."""
    alpha, u = _valuation_unit(a, p)
    return not alpha & 1 and (u % 8 == 5 if p == 2 else _jacobi(u, p) < 0)


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
    p = place.p
    return _symbol_reader(a, p)(b, _exact_level(b, p))


def _echelon(m):
    """Bareiss's fraction-free row echelon form of the matrix m, as
    (rows, pivots, sign): the eliminated rows, each leading row's pivot
    column and the sign of the row swaps.  A column with no nonzero entry
    below the rows already pivoted is skipped.  After the k-th pivot each
    entry below it is a (k+1)-minor of m, so dividing by the previous
    pivot is exact; integers stay in Z, other input runs on Fractions."""
    if all(type(x) is int for row in m for x in row):
        m, div = [list(row) for row in m], int.__floordiv__
    else:
        m, div = [list(map(Fraction, row)) for row in m], Fraction.__truediv__
    width = len(m[0]) if m else 0
    pivots, sign, prev = [], 1, 1
    for col in range(width):
        k = len(pivots)
        piv = next((r for r in range(k, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, top = m[k][col], m[k]
        for row in m[k + 1:]:
            lead, row[col] = row[col], 0
            for j in range(col + 1, width):
                row[j] = div(pivot * row[j] - lead * top[j], prev)
        prev = pivot
        pivots.append(col)
    return m, pivots, sign


def _det(m):
    """Determinant of the square matrix m: the signed last pivot of
    `_echelon` when every column pivots, else 0; 1 for the 0 x 0 matrix."""
    if not m:
        return 1
    rows, pivots, sign = _echelon(m)
    return sign * rows[-1][-1] if len(pivots) == len(m) else 0


def _nullspace(rows, s: int):
    """A basis of {w in Z^s : row . w = 0 for every row}, one primitive
    vector per free column f of `_echelon(rows)`, in column order: the one
    with w_f > 0 and 0 at the other free columns.  Its pivot entries are
    back-substituted from the last pivot row up, the vector scaled by a
    positive integer where a pivot does not divide, so it stays integral."""
    mat, pivots, _ = _echelon(rows)
    basis = []
    for free in range(s):
        if free in pivots:
            continue
        w = [0] * s
        w[free] = 1
        for row, col in reversed(list(zip(mat, pivots))):
            lead, t = row[col], _dot(row, w)
            scale = abs(lead) // math.gcd(t, lead)
            w = [x * scale for x in w]
            w[col] = -t * scale // lead
        basis.append(_primitive(w))
    return basis


def _dot(form, u):
    """f(u) = sum_j f_j u_j for a linear form f."""
    return sum(map(mul, form, u))


def _primitive(row) -> tuple:
    """The integer row over the gcd of its entries; a zero row stays."""
    g = math.gcd(*row)
    return tuple([v // g for v in row]) if g > 1 else tuple(row)


def _clear_denominators(xs):
    """(L, [L x]) for the least L > 0 making every int or Fraction x in xs
    integral."""
    L = math.lcm(*(x.denominator for x in xs))
    return L, [x.numerator * (L // x.denominator) for x in xs]


def _primes_upto(n: int, error=ExactNumError) -> list:
    """The primes up to n, sieved: `is_prime`'s cache stays as it was.
    An n past DEFAULT_ENUMERATION_CAP raises `error` before the sieve."""
    _check_cap(n, 1, error, "cannot sieve the primes up to {count}")
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


def _primes_dividing(xs) -> set:
    """The primes of the numerators and denominators of the nonzero xs."""
    out = set()
    for x in xs:
        if x:
            for part in (abs(x.numerator), x.denominator):
                if part > 1:
                    out.update(p for p, _ in factorize(part))
    return out


def _extend(heads, digits):
    # every head followed by every digit, lexicographically and lazily
    return (head + (d,) for head in heads for d in digits)


def _balls(p: int, s: int, last: int, read):
    """Walk the balls u + p^k Z_p^s (u a tuple of s integers in [0, p^k))
    depth first in digit order from the root, k = 0.  `read(u, k)` runs
    once per ball; while it returns None and k < last, the ball splits
    into its p^s children u + p^k d, d in {0, ..., p - 1}^s taken
    lexicographically.  Every other ball is yielded as (k, u, value), so
    the yielded balls partition Z_p^s.

    One loop over a stack of lazy child iterators, one per open ball, so
    the walk keeps no generator chain across levels and has no depth
    limit.  A ball's children are made one at a time, never listed, so the
    walk's memory does not grow with p."""
    stack = []  # stack[j]: the unread children, at level j + 1, of a ball
    u, k = (0,) * s, 0
    while True:
        value = read(u, k)
        if value is None and k < last:
            step = p ** k
            children = ((),)
            for x in u:
                children = _extend(children, range(x, x + p * step, step))
            stack.append(children)
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
    """Places where (a, b)_v can be nontrivial: the real place, 2, and the
    odd primes dividing the squarefree parts, in increasing order."""
    return list(_places(q for x in (a, b) for q in squarefree_class(x).primes))


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


class Verdict(NamedTuple):
    """An engine's yes/no answer: `holds` is True or False (None is kept
    for undetermined) and `evidence` the witness or certificate, or None.
    It unpacks, indexes and compares as the pair (holds, evidence)."""

    holds: Optional[bool]
    evidence: object


def f2_independent(classes: Sequence[SquareClass]) -> Verdict:
    """Whether the classes are independent in the F2-vector space Q*/Q*^2.

    Returns Verdict(True, None) or Verdict(False, certificate), where the
    certificate is a nonempty tuple of indices whose classes multiply to
    the trivial class, of minimal support, ties broken by lowest index
    order.  Elimination decides dependence; the certificate is then found
    by enumerating the index subsets by size, so the search is
    exponential in the size of the certificate.
    """
    masks = class_masks(list(classes))
    rows: list = []
    if all(f2_insert(rows, m)[0] for m in masks):
        return Verdict(True, None)
    # minimal-support certificate: smallest subset, then lexicographically
    # first index tuple
    for size in range(1, len(masks) + 1):
        for subset in itertools.combinations(range(len(masks)), size):
            acc = 0
            for i in subset:
                acc ^= masks[i]
            if acc == 0:
                return Verdict(False, subset)
    raise AssertionError("elimination found a dependency but enumeration did not")


def json_value(x):
    """x in the report encoding, the one place that encoding is written.

    Ints, bools, strings and None stay as they are; a Fraction becomes
    "num/den" (denominator 1 included), a finite float {"value": x,
    "precision_bits": 53} and any other float None, as JSON has no NaN or
    infinity; a Place or SquareClass becomes its string; dict
    keys become strings; a record, a dataclass or a NamedTuple, becomes
    the dict of its fields that are not None, and any other sequence a
    list."""
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, float):
        return {"value": x, "precision_bits": 53} if math.isfinite(x) else None
    if isinstance(x, (Place, SquareClass)):
        return str(x)
    if isinstance(x, dict):
        return {str(k): json_value(v) for k, v in x.items()}
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return {name: json_value(v) for name, v in zip(x._fields, x)
                if v is not None}
    if is_dataclass(x):
        return {f.name: json_value(v) for f in fields(x)
                if (v := getattr(x, f.name)) is not None}
    return [json_value(v) for v in x]
