"""Independent oracles that the tests share.

Everything here is brute force or plain integer arithmetic, and nothing is
imported from `conicbundles`: an oracle that calls the code it checks
passes whatever that code gets wrong.  Local-solubility oracles take their
symbols from the benchmark's `oracle.local_symbol` and judge witnesses
with `oracle.check_local_witness` (`bench/oracle.py`), so no oracle reads
`exactnum.hilbert` or the symbol reader behind it.  A helper that more
than one test module needs lives here, apart from the standard count jobs
and the seeded local systems, which are library objects and live in
`jobs.py`; test modules import no other test module.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from oracle import local_symbol


# -- integers and square classes ----------------------------------------------

def trial_primes(n):
    """The primes dividing the nonzero integer n, by trial division."""
    n, out, q = abs(n), set(), 2
    while q * q <= n:
        while n % q == 0:
            out.add(q)
            n //= q
        q += 1
    return out | {n} if n > 1 else out


def squarefree(x):
    """The squarefree integer in the square class of the nonzero rational x,
    by trial division."""
    x = Fraction(x)
    n = x.numerator * x.denominator
    out = -1 if n < 0 else 1
    n, q = abs(n), 2
    while q * q <= n:
        while n % (q * q) == 0:
            n //= q * q
        if n % q == 0:
            n //= q
            out *= q
        q += 1
    return out * n


@lru_cache(maxsize=None)
def brute_hilbert(a, b, p):
    """Brute-force (a, b)_p by searching for a primitive solution of
    z^2 = a x^2 + b y^2 mod p^3 (odd p) or mod 2^6.

    A primitive solution at that depth lifts by Hensel's lemma once the
    coefficients are squarefree, so this decides the symbol with no use of
    the formula under test.
    """
    m = 64 if p == 2 else p**3
    a, b = squarefree(a) % m, squarefree(b) % m
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


# -- F_2 vectors of square classes --------------------------------------------

def random_classes(rng, count, force_faddeev=False):
    """`count` integers that are not squares; with `force_faddeev` their
    product is a square and the last is not."""
    while True:
        vals = []
        for _ in range(count - (1 if force_faddeev else 0)):
            x = 0
            while x == 0 or squarefree(x) == 1:
                x = rng.choice([-1, 1]) * rng.randint(2, 30)
            vals.append(x)
        if force_faddeev:
            prod = math.prod(vals)
            if squarefree(prod) == 1:
                continue
            vals.append(prod)
        return vals


def brute_kernel(a):
    """All F_2 vectors n with prod a_i^(n_i) a square, by enumeration."""
    return {bits for bits in itertools.product((0, 1), repeat=len(a))
            if squarefree(math.prod(x for x, b in zip(a, bits) if b)) == 1}


def span(vectors, r):
    out = set()
    for coeffs in itertools.product((0, 1), repeat=len(vectors)):
        v = [0] * r
        for c, vec in zip(coeffs, vectors):
            if c:
                v = [x ^ y for x, y in zip(v, vec)]
        out.add(tuple(v))
    return out


def cofactor_det(m):
    # Laplace expansion along the first row
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


# -- x_i^2 - a_i y_i^2 = f_i(u, v) --------------------------------------------

def rational_point_search(a, forms, height, c_bound):
    """The first (c, (u0, v0)) that makes every c f_i(u0, v0) a norm from
    Q(sqrt a_i), or None: a refutation oracle for "insoluble" verdicts on
    systems x_i^2 - a_i y_i^2 = f_i(u, v) with s = 2.

    (u0, v0) runs over the primitive pairs with first nonzero entry
    positive, by max(|u0|, |v0|) up to `height` and then in lexicographic
    order; for each, c runs over the squarefree integers 1, -1, 2, -2, 3,
    ... with |c| <= c_bound.  Every f_i(u0, v0) must be nonzero, and
    (a_i, c f_i(u0, v0))_v must be +1 at infinity and at every prime of
    2 a_i c f_i(u0, v0); at the other primes both entries are units at an
    odd prime, so the symbol is +1 there.  By Hasse's norm theorem each
    c f_i(u0, v0) is then a norm x_i^2 - a_i y_i^2 with rational x_i, y_i,
    and as the forms are linear, (u, v) = c (u0, v0) is a rational point
    of the system.
    """
    cs = [(c, trial_primes(c)) for n in range(1, c_bound + 1)
          if squarefree(n) == n for c in (n, -n)]
    primes = [trial_primes(2 * ai) for ai in a]
    box = range(-height, height + 1)
    pairs = sorted(((u, v) for u in box for v in box
                    if (u, v) > (0, 0) and math.gcd(u, v) == 1),
                   key=lambda uv: max(map(abs, uv)))
    for u0, v0 in pairs:
        values = [f[0] * u0 + f[1] * v0 for f in forms]
        if 0 in values:
            continue
        support = [ps | trial_primes(n) for ps, n in zip(primes, values)]
        for c, c_primes in cs:
            if all(ai > 0 or c * n > 0 for ai, n in zip(a, values)) and \
                    all(local_symbol(ai, c * n, p) == 1
                        for ai, n, ps in zip(a, values, support)
                        for p in ps | c_primes):
                return c, (u0, v0)
    return None


# -- x^2 - a y^2 = n ----------------------------------------------------------

@lru_cache(maxsize=None)
def brute_pell(a, chunk=1 << 20):
    # every u = 1, 2, ... in order, a chunk at a time in int64: the float
    # square root only proposes t, and (t - 1)^2, t^2, (t + 1)^2 are
    # compared with 1 + a u^2 exactly, which brackets the true root
    start = 1
    while True:
        assert a * (start + chunk) ** 2 + 1 < 2**62, "int64 chunk would wrap"
        u = np.arange(start, start + chunk, dtype=np.int64)
        t2 = a * u * u + 1
        t = np.sqrt(t2.astype(np.float64)).astype(np.int64)
        hit = ((t - 1) * (t - 1) == t2) | (t * t == t2) | \
            ((t + 1) * (t + 1) == t2)
        if hit.any():
            u = int(u[np.argmax(hit)])
            return math.isqrt(1 + a * u * u), u
        start += chunk


def brute_solutions(a, n, ybound):
    """Every (x, y) with x^2 - a y^2 = n and |y| <= ybound, in order of y."""
    # the float square root only proposes x; x^2 is compared exactly
    y = np.arange(-ybound, ybound + 1, dtype=np.int64)
    x2 = n + a * y * y
    keep = x2 >= 0
    x2k, yk = x2[keep], y[keep]
    x = np.sqrt(x2k.astype(np.float64)).round().astype(np.int64)
    exact = x * x == x2k
    out = []
    for xx, yy in zip(x[exact], yk[exact]):
        out.append((int(xx), int(yy)))
        if xx:
            out.append((int(-xx), int(yy)))
    return out


def _sign_plus_root(A, B, a):
    # the sign of A + B sqrt(a) for a > 0 not a square
    if A * B >= 0:
        s = A or B
        return (s > 0) - (s < 0)
    return 1 if (A > 0) == (A * A > a * B * B) else -1


def reduce_to_domain(a, x, y, n):
    """The image of the solution (x, y) of x^2 - a y^2 = n, a > 0, in the
    domain |n| <= (x + y sqrt a)^2 < |n| eps^2, eps = t + u sqrt a the
    fundamental solution of Pell's equation."""
    t, u = brute_pell(a)
    if _sign_plus_root(x, y, a) < 0:
        x, y = -x, -y
    m = abs(n)
    for _ in range(10_000):
        if _sign_plus_root(x * x + a * y * y - m, 2 * x * y, a) < 0:
            x, y = t * x + a * u * y, u * x + t * y
            continue
        la = x * x + a * y * y - m * (t * t + a * u * u)
        lb = 2 * x * y - 2 * m * t * u
        if _sign_plus_root(la, lb, a) >= 0:
            x, y = t * x - a * u * y, t * y - u * x
            continue
        return x, y
    raise AssertionError("reduction did not terminate")


# -- exact polynomials, ascending coefficients --------------------------------

def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def pderiv(a):
    return [i * a[i] for i in range(1, len(a))]


def pdiv(a, b):
    """Quotient and remainder of a by b over Q."""
    a, b = ptrim(a), ptrim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = Fraction(a[-1]) / b[-1]
        d = len(a) - len(b)
        q[d] = c
        a = ptrim([x - c * y for x, y in zip(a, [Fraction(0)] * d + b)])
    return q, a


def pgcd(a, b):
    """The monic gcd of a and b over Q, [] when both are 0."""
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pdiv(a, b)[1]
    return [x / a[-1] for x in a] if a else []


def form_has_repeated_root(coeffs):
    # chart-aware: a finite repeated root shows in gcd(q, q'); a repeated
    # root at infinity shows after reversing the homogenized coefficients
    affine = ptrim(coeffs)
    rev = ptrim(list(reversed(list(coeffs))))
    for poly in (affine, rev):
        if len(pgcd(poly, pderiv(poly))) > 1:
            return True
    return False
