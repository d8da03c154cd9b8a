"""Checks that do not trust the library under test.

Everything here is plain integer arithmetic written for the benchmark:
the local symbol is evaluated from the valuation and the unit part of its
arguments (Serre, A Course in Arithmetic, ch. III) and never calls
`conicbundles.exactnum.hilbert`.  The checks are

- `check_local_witness`: a soluble verdict's witness really certifies
  solubility (nonzero values, enough valuation margin, every symbol +1);
- `quotient_rank`: the F2 rank count the Brauer description must match;
- `strip_timings`: a CLI report with only its top-level `timings` member
  removed, so two reports compare byte for byte apart from timings.
"""

from fractions import Fraction


def valuation(n, p):
    """v_p of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(u, p):
    t = pow(u % p, (p - 1) // 2, p)
    return 1 if t == 1 else (0 if t == 0 else -1)


def local_symbol(a, b, p):
    """(a, b)_p for nonzero integers a, b and a prime p."""
    alpha, beta = valuation(a, p), valuation(b, p)
    u, w = a // p**alpha, b // p**beta
    if p == 2:
        eps = ((u - 1) // 2 % 2) * ((w - 1) // 2 % 2)
        omega = alpha * ((w * w - 1) // 8 % 2) + beta * ((u * u - 1) // 8 % 2)
        return -1 if (eps + omega) % 2 else 1
    sign = -1 if (alpha * beta % 2 and p % 4 == 3) else 1
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(w, p)
    return sign


def _value(form, u):
    return sum(c * x for c, x in zip(form, u))


def check_local_witness(a, forms, place, u, precision):
    """None if the witness certifies solubility at `place`, else why not.

    `place` is None for the real place, where u must give f_i(u) > 0 for
    a_i < 0 and f_i(u) != 0 for every i.  At a prime p, u is a residue
    vector mod p^precision: each f_i(u) mod p^precision must be nonzero,
    its valuation must leave the margin the symbol reads (1 digit of the
    unit at odd p, 3 at p = 2), and (a_i, f_i(u))_p must be +1, so that
    every lift of u is a local point.
    """
    if len(u) != len(forms[0]):
        return "witness has %d coordinates, forms have %d" % (
            len(u), len(forms[0]))
    if place is None:
        u = [Fraction(x) for x in u]
        for i, (ai, form) in enumerate(zip(a, forms)):
            val = _value(form, u)
            if val == 0 or (ai < 0 and val < 0):
                return "real witness fails at form %d: value %s" % (i + 1, val)
        return None
    p = place
    m = p**precision
    need = 3 if p == 2 else 1
    for i, (ai, form) in enumerate(zip(a, forms)):
        val = _value(form, u) % m
        if val == 0:
            return "form %d vanishes mod %d^%d" % (i + 1, p, precision)
        v = valuation(val, p)
        if precision - v < need:
            return "form %d: valuation %d leaves no margin mod %d^%d" % (
                i + 1, v, p, precision)
        if local_symbol(ai, val, p) != 1:
            return "form %d: symbol (%d, %d)_%d is -1" % (i + 1, ai, val, p)
    return None


def _class_mask(n, index):
    # sign in bit 0, then one bit per prime with an odd exponent
    mask = 1 if n < 0 else 0
    n = abs(n)
    q = 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e % 2:
            mask ^= 1 << index.setdefault(q, len(index) + 1)
        q += 1
    if n > 1:
        mask ^= 1 << index.setdefault(n, len(index) + 1)
    return mask


def quotient_rank(a):
    """Rank of Ker(delta) / <(1, ..., 1)> for integer square classes a_i.

    delta sends n to prod a_i^(n_i) in Q*/Q*^2; its kernel has dimension
    r - rank, and the all-ones vector lies in it when prod a_i is a square.
    """
    index = {}
    pivots = {}
    rank = 0
    for x in a:
        m = _class_mask(x, index)
        while m:
            top = m.bit_length()
            if top not in pivots:
                pivots[top] = m
                rank += 1
                break
            m ^= pivots[top]
    return len(a) - rank - 1


def strip_timings(text):
    """The report text without its top-level `timings` member.

    Reports are JSON written with indent 2, so top-level members start
    with exactly two spaces.  The member is cut from its key line through
    the line closing it; if it was the last member, the comma that ended
    the previous member goes too.  Nothing else is touched.
    """
    lines = text.split("\n")
    start = next((i for i, line in enumerate(lines)
                  if line.startswith('  "timings": ')), None)
    if start is None:
        return text
    end = start
    if lines[start].rstrip(",").endswith("{"):
        end = next(i for i in range(start + 1, len(lines))
                   if lines[i] in ("  }", "  },"))
    last = not lines[end].endswith(",")
    kept = lines[:start] + lines[end + 1:]
    if last and start > 0 and kept[start - 1].endswith(","):
        kept[start - 1] = kept[start - 1][:-1]
    return "\n".join(kept)
