"""Conic bundles over the projective line with split degenerate fibres.

The data model is a finite set of pairwise distinct rational points e_i
together with a nontrivial square class a_i attached to each: the fibre
over e_i degenerates into a pair of lines conjugate over Q(sqrt(a_i)).
The map delta sends an F_2 vector (n_1, ..., n_r) to the square class of
prod a_i^{n_i}; vectors in Ker(delta) correspond to quaternion classes
sum n_i (a_i, t - e_i) on the bundle, and the quotient of Ker(delta) by
the all-ones vector measures the Brauer classes not coming from the base
field.  Reciprocity for the residues along the t-line forces prod a_i to
be a square whenever the bundle extends smoothly over infinity; data
violating it is accepted with a warning since several constructions here
deliberately work with an extra class at infinity.

Norm-form systems x_i^2 - a_i y_i^2 = f_i(u_1, ..., u_s) with integer
linear forms f_i are the arithmetic face of the same data: torsor_system
produces the s = 2 system f_i = (u - e_i v) / lambda_i cleared to integer
coefficients, and quadric_intersection_system assembles the pencil data
of a fibred product of two-fibre bundles (u - e v)(u - e' v) = c N(x, y).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .exactnum import (
    ExactNumError,
    SquareClass,
    TRIVIAL_CLASS,
    _clear_denominators,
    _echelon,
    as_bits,
    as_integer,
    as_integer_at_least,
    as_rational,
    class_masks,
    f2_insert,
    is_square,
    squarefree_class,
    valuation,
)


class PencilError(ExactNumError):
    pass


def _as_class(x) -> SquareClass:
    if isinstance(x, SquareClass):
        return x
    return squarefree_class(as_rational(x, PencilError))


@dataclass(frozen=True)
class ConicBundleData:
    """Degenerate-fibre data (e_i, a_i), optionally with torsor scalings."""

    e: Tuple[Fraction, ...]
    a: Tuple[SquareClass, ...]
    lam: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self):
        e = tuple(as_rational(x, PencilError) for x in self.e)
        a = tuple(_as_class(x) for x in self.a)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "a", a)
        if not e:
            raise PencilError("at least one degenerate fibre is required")
        if len(a) != len(e):
            raise PencilError("e and a must have the same length")
        if len(set(e)) != len(e):
            raise PencilError("the points e_i must be pairwise distinct")
        for cls in a:
            if cls.is_trivial:
                raise PencilError("each a_i must be a nontrivial square class")
        if self.lam is not None:
            lam = tuple(as_rational(x, PencilError) for x in self.lam)
            object.__setattr__(self, "lam", lam)
            if len(lam) != len(e):
                raise PencilError("lambda must have one entry per fibre")
            if any(x == 0 for x in lam):
                raise PencilError("lambda entries must be nonzero")

    @property
    def r(self) -> int:
        return len(self.e)

    def faddeev_class(self) -> SquareClass:
        return delta(self, (1,) * self.r)

    @property
    def faddeev_holds(self) -> bool:
        return self.faddeev_class().is_trivial


class ValidationReport(NamedTuple):
    e_distinct: bool
    a_nontrivial: bool
    faddeev_holds: bool
    faddeev_class: SquareClass
    warnings: Tuple[str, ...]


def validate(data: ConicBundleData) -> ValidationReport:
    """Check the bundle data and report the reciprocity flag.

    Structural defects (repeated e_i, trivial a_i, zero lambda) already
    fail at construction; a nontrivial product of the a_i is legitimate
    for bundles with an extra class at infinity, so it only warns.
    """
    cls = data.faddeev_class()
    warnings = ()
    if not cls.is_trivial:
        warnings = (
            "product of the a_i is the nontrivial class %s; the bundle "
            "carries a class at infinity" % (cls,),
        )
    return ValidationReport(
        e_distinct=True,
        a_nontrivial=True,
        faddeev_holds=cls.is_trivial,
        faddeev_class=cls,
        warnings=warnings,
    )


def delta(data: ConicBundleData, n: Sequence[int]) -> SquareClass:
    """The square class of prod a_i^{n_i}."""
    bits = as_bits(n, PencilError, data.r)
    cls = TRIVIAL_CLASS
    for b, x in zip(bits, data.a):
        if b:
            cls = cls * x
    return cls


@dataclass(frozen=True)
class BrauerElement:
    """An F_2 vector n in Ker(delta), read modulo the all-ones vector.

    The associated quaternion class is sum n_i (a_i, t - e_i).
    """

    n: Tuple[int, ...]

    def __post_init__(self):
        bits = as_bits(self.n, PencilError)
        object.__setattr__(self, "n", bits)
        if not bits:
            raise PencilError("empty coefficient vector")

    def canonical(self) -> Tuple[int, ...]:
        """The representative of {n, n + (1,...,1)} with leading entry 0."""
        if self.n[0] == 0:
            return self.n
        return tuple(1 - b for b in self.n)


def brauer_element(data: ConicBundleData, n: Sequence[int]) -> BrauerElement:
    """Construct an element, checking membership in Ker(delta)."""
    bits = as_bits(n, PencilError, data.r)
    if not delta(data, bits).is_trivial:
        raise PencilError(
            "the vector %s is not in Ker(delta): class %s"
            % (bits, delta(data, bits)))
    return BrauerElement(bits)


class BrauerGroupDescription(NamedTuple):
    """Ker(delta) and its quotient by the all-ones class."""

    kernel_basis: Tuple[Tuple[int, ...], ...]
    quotient_rank: int

    @property
    def weak_approximation(self) -> bool:
        return self.quotient_rank == 0

    def kernel_dim(self) -> int:
        return len(self.kernel_basis)


def brauer_group(data: ConicBundleData) -> BrauerGroupDescription:
    """Basis of Ker(delta) and the rank of Ker(delta)/<(1,...,1)>.

    Requires the product of the a_i to be a square, so that the all-ones
    vector lies in the kernel and the quotient is well defined.
    """
    cls = data.faddeev_class()
    if not cls.is_trivial:
        raise PencilError(
            "product of the a_i is the nontrivial class %s; the Brauer "
            "description needs it to be a square" % (cls,))
    # incremental nullspace of delta: an input dependent on the earlier
    # ones yields a kernel vector whose last nonzero entry is that input
    # and whose other entries lie on independent inputs only, so the
    # vectors come out as the reduced echelon basis, ordered by that entry
    rows: list = []
    kernel = []
    for idx, m in enumerate(class_masks(data.a)):
        cur, combo = f2_insert(rows, m, 1 << idx)
        if cur == 0:
            kernel.append(combo)
    vectors = tuple(tuple(combo >> i & 1 for i in range(data.r))
                    for combo in kernel)
    return BrauerGroupDescription(
        kernel_basis=vectors,
        quotient_rank=max(len(vectors) - 1, 0),
    )


@dataclass(frozen=True)
class NormFormSystem:
    """Simultaneous norm equations x_i^2 - a_i y_i^2 = f_i(u_1, ..., u_s)."""

    r: int
    s: int
    a: Tuple[int, ...]
    forms: Tuple[Tuple[int, ...], ...]
    clearing: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "r",
                           as_integer_at_least(self.r, 1, "r", PencilError))
        object.__setattr__(self, "s",
                           as_integer_at_least(self.s, 2, "s", PencilError))
        a = tuple(as_integer(x, PencilError) for x in self.a)
        forms = tuple(tuple(as_integer(c, PencilError) for c in f)
                      for f in self.forms)
        clearing = tuple(as_integer(c, PencilError)
                         for c in self.clearing) or (1,) * self.r
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "clearing", clearing)
        if len(a) != self.r or len(forms) != self.r or len(clearing) != self.r:
            raise PencilError("a, forms and clearing must have length r")
        for x in a:
            if is_square(x):
                raise PencilError("each a_i must be a nonzero nonsquare")
        for f in forms:
            if len(f) != self.s:
                raise PencilError("each form needs %d coefficients" % self.s)
            if not any(f):
                raise PencilError("forms must be nonzero")
        for i in range(self.r):
            for j in range(i + 1, self.r):
                if len(_echelon((forms[i], forms[j]))[1]) < 2:
                    raise PencilError(
                        "forms %d and %d are proportional" % (i + 1, j + 1))

    @property
    def i_minus(self) -> Tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.a) if x < 0)


def technical_bound(system: NormFormSystem, p: int) -> int:
    """max_i v_p(4 a_i), the technical bound at the prime p: local search
    depths must exceed it and the p-part of a congruence modulus reach it."""
    return max(valuation(4 * a, p) for a in system.a)


def torsor_system(data: ConicBundleData) -> NormFormSystem:
    """The s = 2 system x_i^2 - a_i y_i^2 = (u - e_i v) / lambda_i.

    Coefficients are cleared to integers by the least positive multiple;
    the multipliers are recorded so downstream densities refer to the
    integral model rather than the original scaling.
    """
    lam = data.lam if data.lam is not None else (Fraction(1),) * data.r
    a = []
    forms = []
    clearing = []
    for i in range(data.r):
        mu = 1 / lam[i]
        d, form = _clear_denominators((mu, -mu * data.e[i]))
        forms.append(tuple(form))
        clearing.append(d)
        a.append(data.a[i].representative())
    return NormFormSystem(r=data.r, s=2, a=tuple(a), forms=tuple(forms),
                          clearing=tuple(clearing))


class QuadricIntersectionData(NamedTuple):
    """Pencil data of a fibred product of two-fibre conic bundles.

    Factor i is (u - e_{2i-1} v)(u - e_{2i} v) = c_i (x_i^2 - a_i y_i^2);
    `combined` collects the degenerate points of the product, merging a
    point shared by several factors (legal only when their square classes
    agree).  Each factor is itself valid bundle data with trivial product
    of classes.
    """

    n: int
    e: Tuple[Fraction, ...]
    a: Tuple[SquareClass, ...]
    c: Tuple[Fraction, ...]
    factors: Tuple[ConicBundleData, ...]
    combined: ConicBundleData
    shared_points: Tuple[Fraction, ...]


def quadric_intersection_system(e: Sequence, a: Sequence,
                                c: Sequence) -> QuadricIntersectionData:
    """Assemble the pencil data for (u - e_{2i-1} v)(u - e_{2i} v) = c_i N_i.

    A degenerate point shared across factors is allowed only when the
    factors' fibre components live over the same quadratic field; a shared
    point with mismatched classes is an error.
    """
    aa = tuple(_as_class(x) for x in a)
    cc = tuple(as_rational(x, PencilError) for x in c)
    ee = tuple(as_rational(x, PencilError) for x in e)
    n = len(aa)
    if n < 1:
        raise PencilError("at least one factor is required")
    if len(ee) != 2 * n:
        raise PencilError("expected %d points, got %d" % (2 * n, len(ee)))
    if len(cc) != n or any(x == 0 for x in cc):
        raise PencilError("each c_i must be a nonzero rational")
    factors = []
    for i in range(n):
        if ee[2 * i] == ee[2 * i + 1]:
            raise PencilError("factor %d has a repeated point" % (i + 1))
        factors.append(ConicBundleData(e=(ee[2 * i], ee[2 * i + 1]),
                                       a=(aa[i], aa[i])))
    seen: dict = {}
    order = []
    shared = []
    for i in range(n):
        for j in (2 * i, 2 * i + 1):
            prev = seen.get(ee[j])
            if prev is None:
                seen[ee[j]] = aa[i]
                order.append(ee[j])
            elif prev != aa[i]:
                raise PencilError(
                    "point %s is shared by factors with different classes "
                    "%s and %s" % (ee[j], prev, aa[i]))
            else:
                shared.append(ee[j])
    combined = ConicBundleData(e=tuple(order),
                               a=tuple(seen[x] for x in order))
    return QuadricIntersectionData(
        n=n, e=ee, a=aa, c=cc,
        factors=tuple(factors),
        combined=combined,
        shared_points=tuple(shared),
    )
