"""Conic bundles built from split polynomials and del Pezzo checks.

A triple (f, g, h) of rational polynomials that split into distinct
rational roots defines the conic bundle f(t) x^2 + g(t) y^2 + h(t) z^2
over the t-line.  The fibre over a root e of f degenerates into a pair
of lines conjugate over Q(sqrt(-g(e) h(e))), and cyclically, so the
triple induces degenerate-fibre data (e_i, a_i) with one entry per root;
matching degree parities let the bundle close up smoothly over t =
infinity, where the fibre is the conic of leading coefficients.

For three quadratics the total space is a degree-2 del Pezzo surface:
the anticanonical map is a double plane cover branched in the quartic
(f_1 x^2 + g_1 y^2 + h_1 z^2)^2 - 4 (f_0 x^2 + ...) (f_2 x^2 + ...)
whose smoothness is certified here by direct elimination: the curve is
a conic in the squared coordinates, and it is smooth exactly when that
conic is smooth, misses the coordinate vertices, and is nowhere tangent
to a coordinate line.  Minimality of the surface reduces to the classes
-1, a, b, c and the root differences being independent in Q*/Q*^2.

The degree-1 construction takes eight distinct points e_1..e_8 and two
scalars and forms the pencil r p(t) + s q(t) of quartics with
p = c1^2 prod_{i<=4} (t - e_i)/(e_8 - e_i) and
q = c2^2 prod_{j>=5} (t - e_j).  The construction needs the pencil to
contain exactly six members with a repeated root, each with a single
double root.  Both parts are certified exactly by gcds: the discriminant
of the pencil member is a degree-6 form D, squarefree when gcd(D, D') is
constant, and "no member has a repeated factor of degree >= 2" holds
when D is coprime to the first principal subresultant coefficient S1 of
(P, dP/dt).  The coefficients of P are linear in r, so D(r, 1) has
degree <= 6 and S1 degree <= 5 in r; both are interpolated exactly from
their scalar values on the members r = 0..6, in Z: for the common
denominator L of p and q the members L (r p + q) are integral, S1 is a
fraction-free determinant (Bareiss, Math. Comp. 22, 1968), and both gcd
clauses are primitive pseudo-remainder sequences.

S1 is the formal determinant for a quartic, so it vanishes on the member
whose t^4 coefficient does: if D vanishes there too, the clause fails
although that member may have a single double root.  This happens when
sum_{i<=4} e_i = sum_{j>=5} e_j: the member is then U^2 times a
quadratic, a double root at t = infinity.

The quartic discriminant uses the degree-6 invariant of the binary form
p_4 T^4 + ... + p_0 U^4, normalized so t^4 + a maps to -256 a^3; it
vanishes exactly when the form has a repeated root, a root at infinity
(a degree drop of two or more) included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple, Optional, Tuple

from .exactnum import (
    ExactNumError,
    SquareClass,
    _clear_denominators,
    _det,
    as_rational,
    f2_independent,
    squarefree_class,
)
from .pencil import ConicBundleData


class DelPezzoError(ExactNumError):
    pass


# -- dense polynomials, ascending coefficients --------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _times_linear(a, root):
    # a * (t - root)
    return [x - root * y for x, y in zip([0] + a, a + [0])]


def _pderiv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


def _coprime(a, b) -> bool:
    """Whether gcd(a, b) is a nonzero constant, for integer polynomials:
    the primitive pseudo-remainder sequence, which stays in Z."""
    a, b = _trim(a), _trim(b)
    while b:
        g = gcd(*b)
        b = [x // g for x in b]
        while len(a) >= len(b):
            # b_top a - a_top t^d b cancels the top coefficient of a
            top, d = a[-1], len(a) - len(b)
            a = [b[-1] * x for x in a]
            for i, x in enumerate(b):
                a[d + i] -= top * x
            a = _trim(a[:-1])
        a, b = b, a
    return len(a) == 1


def _interpolate(values):
    # the integer polynomial taking values[k] at r = k: Newton divided
    # differences on the nodes 0, 1, ..., integral as the falling factorials
    # r (r - 1) ... (r - k + 1) are a basis of Z[r], expanded by Horner
    c = list(values)
    for k in range(1, len(c)):
        for i in range(len(c) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // k
    poly = []
    for k in reversed(range(len(c))):
        poly = _times_linear(poly, k)
        poly[0] += c[k]
    return _trim(poly)


# -- split polynomials and the induced bundle --------------------------------

@dataclass(frozen=True)
class SplitPolynomial:
    """leading * prod (t - root) with rational leading and roots."""

    leading: Fraction
    roots: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "leading",
                           as_rational(self.leading, DelPezzoError))
        object.__setattr__(self, "roots", tuple(
            as_rational(x, DelPezzoError) for x in self.roots))
        if self.leading == 0:
            raise DelPezzoError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.roots)

    def coefficients(self) -> Tuple[Fraction, ...]:
        poly = [self.leading]
        for e in self.roots:
            poly = _times_linear(poly, e)
        return tuple(poly)

    def evaluate(self, t) -> Fraction:
        t = as_rational(t, DelPezzoError)
        acc = self.leading
        for e in self.roots:
            acc *= t - e
        return acc


class BundleReport(NamedTuple):
    data: ConicBundleData
    degrees: Tuple[int, int, int]
    parity: int
    infinity_form: Tuple[Fraction, Fraction, Fraction]
    smooth_at_infinity: bool


def bundle_from_fgh(f: SplitPolynomial, g: SplitPolynomial,
                    h: SplitPolynomial) -> BundleReport:
    """Degenerate-fibre data of the bundle f x^2 + g y^2 + h z^2.

    Fibres are listed in root order of f, then g, then h; the class over
    a root of f is the squarefree part of -g(e) h(e), and cyclically.
    """
    degs = (f.degree, g.degree, h.degree)
    if len({d % 2 for d in degs}) != 1:
        raise DelPezzoError(
            "degrees %d, %d, %d do not share a parity" % degs)
    roots = f.roots + g.roots + h.roots
    if len(set(roots)) != len(roots):
        raise DelPezzoError("the roots of f, g, h must be pairwise distinct")
    classes = []
    for poly, left, right in ((f, g, h), (g, h, f), (h, f, g)):
        for e in poly.roots:
            value = -left.evaluate(e) * right.evaluate(e)
            cls = squarefree_class(value)
            if cls.is_trivial:
                raise DelPezzoError(
                    "the fibre at t = %s is split: %s is a square"
                    % (e, value))
            classes.append(cls)
    data = ConicBundleData(e=roots, a=tuple(classes))
    if not data.faddeev_holds:
        raise DelPezzoError("fibre classes violate reciprocity")
    lead = (f.leading, g.leading, h.leading)
    return BundleReport(
        data=data,
        degrees=degs,
        parity=degs[0] % 2,
        infinity_form=lead,
        smooth_at_infinity=lead[0] * lead[1] * lead[2] != 0,
    )


# -- degree 2 -----------------------------------------------------------------

@dataclass(frozen=True)
class DP2Data:
    """Three quadratics with six distinct roots, independent over Q."""

    f: SplitPolynomial
    g: SplitPolynomial
    h: SplitPolynomial

    def __post_init__(self):
        for poly in (self.f, self.g, self.h):
            if poly.degree != 2:
                raise DelPezzoError("f, g, h must each have degree 2")
        roots = self.f.roots + self.g.roots + self.h.roots
        if len(set(roots)) != 6:
            raise DelPezzoError("the six roots must be pairwise distinct")
        if self.coefficient_determinant() == 0:
            raise DelPezzoError("f, g, h must be linearly independent")

    @property
    def roots(self) -> Tuple[Fraction, ...]:
        return self.f.roots + self.g.roots + self.h.roots

    def coefficient_determinant(self) -> Fraction:
        return _det([p.coefficients() for p in (self.f, self.g, self.h)])


class RamificationQuartic(NamedTuple):
    """A x^4 + B y^4 + C z^4 + D x^2 y^2 + E x^2 z^2 + F y^2 z^2."""

    x4: Fraction
    y4: Fraction
    z4: Fraction
    x2y2: Fraction
    x2z2: Fraction
    y2z2: Fraction
    smooth: bool
    singular_reasons: Tuple[str, ...]


def _quartic_surface_smooth(A, B, C, D, E, F):
    # the quartic is q(x^2, y^2, z^2) for the conic q = A X^2 + B Y^2 +
    # C Z^2 + D XY + E XZ + F YZ; checking each coordinate stratum of a
    # would-be singular point reduces smoothness to these five conditions
    reasons = []
    for val, name in ((A, "x"), (B, "y"), (C, "z")):
        if val == 0:
            reasons.append("the %s-vertex lies on the quartic" % name)
    gram = [[2 * A, D, E], [D, 2 * B, F], [E, F, 2 * C]]
    if _det(gram) == 0:
        reasons.append("the conic in the squared coordinates is singular")
    for disc, name in ((D * D - 4 * A * B, "z"),
                       (E * E - 4 * A * C, "y"),
                       (F * F - 4 * B * C, "x")):
        if disc == 0:
            reasons.append("tangent to the coordinate line %s = 0" % name)
    return not reasons, tuple(reasons)


def dp2_ramification_quartic(data: DP2Data) -> RamificationQuartic:
    """Branch quartic of the double plane cover, with a smoothness check."""
    cf = data.f.coefficients()
    cg = data.g.coefficients()
    ch = data.h.coefficients()
    A = cf[1] ** 2 - 4 * cf[0] * cf[2]
    B = cg[1] ** 2 - 4 * cg[0] * cg[2]
    C = ch[1] ** 2 - 4 * ch[0] * ch[2]
    D = 2 * cf[1] * cg[1] - 4 * (cf[0] * cg[2] + cf[2] * cg[0])
    E = 2 * cf[1] * ch[1] - 4 * (cf[0] * ch[2] + cf[2] * ch[0])
    F = 2 * cg[1] * ch[1] - 4 * (cg[0] * ch[2] + cg[2] * ch[0])
    smooth, reasons = _quartic_surface_smooth(A, B, C, D, E, F)
    return RamificationQuartic(A, B, C, D, E, F, smooth, reasons)


class IndependenceReport(NamedTuple):
    """Whether labelled classes are independent in Q*/Q*^2; when they are
    not, `certificate` names a dependent subset of minimal support."""
    independent: bool
    classes: Tuple[Tuple[str, SquareClass], ...]
    certificate: Optional[Tuple[str, ...]]


def _independence(labeled) -> IndependenceReport:
    verdict = f2_independent([cls for _, cls in labeled])
    names = None if verdict.evidence is None else tuple(
        labeled[i][0] for i in verdict.evidence)
    return IndependenceReport(verdict.holds, tuple(labeled), names)


def dp2_minimality(data: DP2Data) -> IndependenceReport:
    """Independence of -1, the leading coefficients, and the root
    differences in Q*/Q*^2; independence certifies minimality."""
    labeled = [("-1", squarefree_class(-1)),
               ("a", squarefree_class(data.f.leading)),
               ("b", squarefree_class(data.g.leading)),
               ("c", squarefree_class(data.h.leading))]
    roots = data.roots
    for i in range(6):
        for j in range(i + 1, 6):
            labeled.append(("e%d-e%d" % (i + 1, j + 1),
                            squarefree_class(roots[i] - roots[j])))
    return _independence(labeled)


# -- quartic discriminant -----------------------------------------------------

@dataclass(frozen=True)
class Quartic:
    """p0 + p1 t + p2 t^2 + p3 t^3 + p4 t^4, degree <= 4 allowed."""

    coefficients: Tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        coeffs = tuple(as_rational(x, DelPezzoError)
                       for x in self.coefficients)
        if len(coeffs) != 5:
            raise DelPezzoError("a quartic takes five coefficients p0..p4")
        object.__setattr__(self, "coefficients", coeffs)


def _disc_from_invariants(p0, p1, p2, p3, p4):
    # integer coefficients: 27 divides J^2 - 4 I^3 as a polynomial
    i_inv = 12 * p4 * p0 - 3 * p3 * p1 + p2 * p2
    j_inv = (72 * p4 * p2 * p0 + 9 * p3 * p2 * p1 - 27 * p4 * p1 * p1
             - 27 * p0 * p3 * p3 - 2 * p2 ** 3)
    return (j_inv * j_inv - 4 * i_inv ** 3) // 27


def quartic_discriminant(q: Quartic) -> Fraction:
    """Degree-6 discriminant form of the homogenized quartic, normalized
    by t^4 + a -> -256 a^3; zero exactly at repeated roots, a double
    root at infinity (degree drop by two) included."""
    scale, coeffs = _clear_denominators(q.coefficients)
    return Fraction(_disc_from_invariants(*coeffs), scale ** 6)


# -- degree 1 -----------------------------------------------------------------

@dataclass(frozen=True)
class DP1Data:
    """Eight distinct points and two nonzero scalars; the induced pencil
    is r p(t) + s q(t) with p = c1^2 prod_{i<=4} (t-e_i)/(e_8-e_i) and
    q = c2^2 prod_{j>=5} (t-e_j)."""

    e: Tuple[Fraction, ...]
    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        e = tuple(as_rational(x, DelPezzoError) for x in self.e)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "c1", as_rational(self.c1, DelPezzoError))
        object.__setattr__(self, "c2", as_rational(self.c2, DelPezzoError))
        if len(e) != 8 or len(set(e)) != 8:
            raise DelPezzoError("e must hold eight pairwise distinct points")
        if self.c1 == 0 or self.c2 == 0:
            raise DelPezzoError("c1 and c2 must be nonzero")

    def p_coefficients(self) -> Tuple[Fraction, ...]:
        scale = self.c1 ** 2
        for i in range(4):
            scale /= self.e[7] - self.e[i]
        return SplitPolynomial(scale, self.e[:4]).coefficients()

    def q_coefficients(self) -> Tuple[Fraction, ...]:
        return SplitPolynomial(self.c2 ** 2, self.e[4:]).coefficients()


class DP1ConditionReport(NamedTuple):
    holds: bool
    full_degree: bool
    discriminant_squarefree: bool
    double_roots_simple: bool
    failed: Tuple[str, ...]
    discriminant: Tuple[Fraction, ...]  # D(r, 1), ascending in r


def _first_subresultant(p):
    # first principal subresultant coefficient of (P, dP/dt) for the
    # formal quartic P = p0 + p1 t + ... + p4 t^4: the 5x5 determinant
    # whose rows are t*P, P, t^2*P', t*P', P' read off degrees 5 down to 1
    b = _pderiv(p)

    def row(poly, shift):
        return [poly[d - shift] if 0 <= d - shift < len(poly) else 0
                for d in range(5, 0, -1)]

    return _det([row(p, 1), row(p, 0), row(b, 2), row(b, 1), row(b, 0)])


def dp1_condition(data: DP1Data) -> DP1ConditionReport:
    """Whether the pencil has exactly six members with a repeated root,
    each a single double root.

    Three exact clauses: the member discriminant D(r, s) has full degree
    six (nonzero on both charts), D is squarefree, and gcd(D, S1) is
    constant for the first subresultant coefficient S1 of (P, dP/dt), so
    no member carries a repeated factor of degree two or more.  The
    formal S1 vanishes on the member with no t^4 term, so that member
    fails the last clause whenever D vanishes there, even with a single
    double root at t = infinity (see the module docstring).

    The t-coefficients of P = r p + q are linear in r, so D(r, 1), a
    sextic in them, has degree <= 6 in r and S1, a 5x5 determinant of
    them, degree <= 5.  Both are interpolated exactly from their values
    on the integer members L P, r = 0..6 (r = 0..5 for S1); D(q) L^6 and
    D(p) L^6 are the constant and r^6 coefficients, the two charts.
    """
    scale, pq = _clear_denominators(data.p_coefficients()
                                    + data.q_coefficients())
    members = [[r * x + y for x, y in zip(pq[:5], pq[5:])] for r in range(7)]
    disc = _interpolate([_disc_from_invariants(*m) for m in members])
    s1 = _interpolate([_first_subresultant(m) for m in members[:6]])
    full_degree = len(disc) == 7 and disc[0] != 0
    squarefree = _coprime(disc, _pderiv(disc))
    simple = bool(disc) and bool(s1) and _coprime(disc, s1)
    failed = tuple(name for name, ok in (
        ("full degree", full_degree),
        ("discriminant squarefree", squarefree),
        ("double roots simple", simple)) if not ok)
    return DP1ConditionReport(
        holds=not failed,
        full_degree=full_degree,
        discriminant_squarefree=squarefree,
        double_roots_simple=simple,
        failed=failed,
        discriminant=tuple(Fraction(c, scale ** 6) for c in disc),
    )


class DP1MinimalityReport(NamedTuple):
    """`dp2_minimality`'s report, for the sixteen cross differences, with
    the fibre classes of the contracted bundle and that bundle after it:
    an IndependenceReport's three fields, then two more."""
    independent: bool
    classes: Tuple[Tuple[str, SquareClass], ...]
    certificate: Optional[Tuple[str, ...]]
    fibre_classes: Tuple[SquareClass, ...]
    contracted_bundle: Optional[ConicBundleData]


def dp1_minimality(data: DP1Data) -> DP1MinimalityReport:
    """Independence of the sixteen cross differences e_i - e_j with
    i <= 4 < j, and the fibre data of the contracted bundle.

    The contracted bundle has the seven fibres a_i = prod_j (e_i - e_j)
    for i <= 4 and a_j = prod_i (e_j - e_i)/(e_8 - e_i) for j = 5, 6, 7;
    it is reported whenever every class is nontrivial.
    """
    e = data.e
    labeled = [("e%d-e%d" % (i + 1, j + 1), squarefree_class(e[i] - e[j]))
               for i in range(4) for j in range(4, 8)]
    rep = _independence(labeled)
    fibre = [squarefree_class(prod([e[i] - e[j] for j in range(4, 8)]))
             for i in range(4)]
    fibre += [squarefree_class(prod([(e[j] - e[i]) / (e[7] - e[i])
                                     for i in range(4)]))
              for j in range(4, 7)]
    bundle = None
    if all(not cls.is_trivial for cls in fibre):
        bundle = ConicBundleData(e=e[:7], a=tuple(fibre))
    return DP1MinimalityReport(*rep, tuple(fibre), bundle)
