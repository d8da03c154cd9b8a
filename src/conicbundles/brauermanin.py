"""Local invariants of vertical quaternion classes and the adelic pairing.

A class on a bundle with degenerate-fibre data (e_i, a_i) is an F_2
vector n in Ker(delta); at a fibre parameter t distinct from every e_i
and a place v its local invariant is

    inv_v(n, t) = sum_i n_i iota((a_i, t - e_i)_v)  in F_2,

with iota(+1) = 0 and iota(-1) = 1.  The all-ones vector represents a
class from the ground field (its residues cancel), and ground-field
classes pair to 0 with every adelic point by reciprocity, so the pairing
is well defined on the quotient modulo (1, ..., 1) and is evaluated on
the canonical representative with leading entry 0.

An adelic fibre point carries explicit parameters on a finite support.
Everywhere else it means the unramified default: an integral parameter
whose invariant vanishes.  Away from 2, infinity, the primes in the a_i
and in the denominators of the e_i, and the primes up to r, every
residue avoiding the e_i gives symbols with unit arguments and unit
first entry, which all vanish, so the default is automatic.  At the
finitely many remaining places the pairing walks Z_p by balls to a
depth K* that the fibre data certify.  A walk that finds no ball of
invariant 0 proves that no integral parameter at p has invariant 0, so
the declared support omits a place that carries a nonzero invariant,
and the pairing reports an error naming the place.

The depth.  Let u_p = `_unit_digits(p)`, and W the largest
v_p(e_i - e_j) over pairs of selected fibres with e_i and e_j
p-integral (W = 0 when there are fewer than two); K* = W + 2 u_p + 1.

- Other symbols.  On the shell v_p(t - e_i) = v >= W + u_p, every other
  selected t - e_j = (t - e_i) + (e_i - e_j) has valuation
  v_p(e_i - e_j) <= W and a unit part fixed mod p^u_p, so its symbol
  (a_j, t - e_j) is fixed.
- The pole's own symbol.  (a_i, t - e_i) depends only on v mod 2 and
  the unit class of (t - e_i) / p^v, since u -> p^2 u changes no symbol
  (Serre, *A Course in Arithmetic*, ch. III).
- Depth.  So the shells v and v + 2 take the same values, and every
  value near e_i is taken on a shell v <= W + u_p + 1.  When
  v = max_i v_p(t - e_i) over the selected p-integral poles (0 when
  there are none), every symbol is constant on the ball
  t + p^(v + u_p) Z_p.  So every invariant value at an integral t off
  the poles is taken on a constant ball of level <= K*, and the walk,
  which stops splitting only at constant balls or at level K*, meets it.
- Other poles.  A selected e_j = n/d that is not p-integral has
  v_p(t - e_j) = v_p(e_j) < 0 on all of Z_p, and the reader's
  2 v_p(d) shift (below) fixes its unit part on those same balls.

Every symbol is read through one reader per place, `_reader(data, v,
fibres)`: the mask of the selected fibres with (a_i, t - e_i)_v = -1,
at t itself or on a ball t + p^m Z_p.  At infinity a symbol is -1
exactly when a_i < 0 and t < e_i, so it is constant between consecutive
poles and a scan reads one point per interval.  At p the reader reads
through `exactnum._symbol_reader(a_i, p)`.

Constancy on balls is decided analytically, not by sampling.  With
e = n/d and v = v_p(d), (a, t - e)_p = (a, (d t - n) d)_p as d^2 is a
square, and the ball c + p^k Z_p maps onto the ball
(d c - n) d + p^(k + 2v) Z_p, integral when c is.  The reader reads
each symbol on that ball once and returns it only when every point of
the ball shares it, so balls too close to a pole are rejected rather
than mis-evaluated.  The reader's answer is monotone: a sub-ball has
the same v_p and more known unit digits, so it returns the same symbol
there.  Scans therefore descend by balls t = c mod p^k, depth first
from k = 0, through the package's one ball walker `exactnum._balls`
with that reader: a ball on which every selected symbol is constant
gives its values to all its residues mod p^resolution at once, and only
the balls that are not constant split into their p children.  The
invariant depends only on which ball around the e_i t lies in (Serre,
*A Course in Arithmetic*, ch. III), so the readers run about r p times
per level rather than once per residue.  A residue
still undetermined at the stated resolution splits further, so scans
may list cells finer than that resolution.  That soundness is tested,
not re-checked at run time: against brute-force symbols on balls in
`tests/test_exactnum.py` and on every scan cell in
`tests/test_brauermanin.py`.

A scan keeps one record per place, the real place included: parallel
columns of cell labels, representatives written "num/den" and generator
values, built once by the scan in the form the JSON report prints them.
`ScanCell` objects are built from the records only when asked.  The scan
counts the allowed combinations by convolving one histogram of invariant
masks per place over F_2^g, in O(places * masks^2) steps rather than one
step per cell.

Evaluation at t = e_i and t = infinity is excluded throughout: the
chosen representatives have their polar locus there and no alternative
representative is provided.  Default searches cover integral residues
only; a place whose only trivializing parameters are non-integral ends
in the enlarge-the-support error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice, product
from operator import xor
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .exactnum import (
    ExactNumError,
    Place,
    REAL_PLACE,
    _balls,
    _check_cap,
    _checked_place,
    _exact_level,
    _places,
    _primes_dividing,
    _primes_upto,
    _refusal,
    _symbol_reader,
    _unit_digits,
    _valuation_unit,
    as_bits,
    as_integer_at_least,
    as_rational,
    f2_insert,
    json_value,
)
from .pencil import BrauerElement, ConicBundleData, brauer_group, delta

DEFAULT_RESOLUTION_ODD = 3
DEFAULT_RESOLUTION_TWO = 4


class BrauerManinError(ExactNumError):
    pass


class ScanCapError(BrauerManinError):
    """A place's residues mod p^resolution outnumber the enumeration cap."""


def _place_key(v: Place):
    return (0, 0) if v.is_real else (1, v.p)


def _bits(data: ConicBundleData, n) -> Tuple[int, ...]:
    return as_bits(n.n if isinstance(n, BrauerElement) else n,
                   BrauerManinError, data.r)


def _canonical(bits: Tuple[int, ...]) -> Tuple[int, ...]:
    return BrauerElement(bits).canonical()


def _check_pole(data: ConicBundleData, t: Fraction):
    for i, e in enumerate(data.e):
        if t == e:
            raise _refusal(BrauerManinError, "the invariant has a pole at "
                           "t = e_{} = {}", i + 1, e)


def local_invariant(data: ConicBundleData, n, t, v: Place) -> int:
    """sum_i n_i iota((a_i, t - e_i)_v) in F_2, for t distinct from all e_i.

    Evaluates the vector as given.  The pairing, which works modulo the
    all-ones class, does not call this: it reads through
    `invariant_vector`, which canonicalizes the class first."""
    bits = _bits(data, n)
    t = as_rational(t, BrauerManinError)
    _checked_place(v, BrauerManinError)
    _check_pole(data, t)
    return _reader(data, v, bits)(t).bit_count() % 2


@dataclass(frozen=True)
class LocalParameter:
    """A fibre parameter at one place.

    precision m on a finite place p means t is only trusted mod p^m; the
    pairing refuses the component unless every symbol it needs is
    already determined at that precision.  None means exact."""

    place: Place
    t: Fraction
    precision: Optional[int] = None

    def __post_init__(self):
        _checked_place(self.place, BrauerManinError)
        object.__setattr__(self, "t", as_rational(self.t, BrauerManinError))
        if self.precision is not None:
            if self.place.is_real:
                raise BrauerManinError(
                    "precision tags apply to finite places only")
            object.__setattr__(self, "precision", as_integer_at_least(
                self.precision, 1, "precision", BrauerManinError))


@dataclass(frozen=True)
class AdelicFiberPoint:
    """Fibre parameters on a finite set of places, unramified elsewhere."""

    components: Tuple[LocalParameter, ...]

    def __post_init__(self):
        for c in self.components:
            if not isinstance(c, LocalParameter):
                raise _refusal(BrauerManinError, "not a LocalParameter: {!r}",
                               c)
        comps = tuple(sorted(self.components,
                             key=lambda c: _place_key(c.place)))
        object.__setattr__(self, "components", comps)
        places = [c.place for c in comps]
        if len(set(places)) != len(places):
            raise BrauerManinError("one component per place")

    @classmethod
    def from_pairs(cls, pairs) -> "AdelicFiberPoint":
        items = tuple(pairs.items() if hasattr(pairs, "items") else pairs)
        for item in items:
            if not isinstance(item, (tuple, list)) or len(item) != 2:
                raise _refusal(BrauerManinError, "not a (place, parameter) "
                               "pair: {!r}", item)
        return cls(tuple(LocalParameter(v, t) for v, t in items))

    @property
    def support(self) -> Tuple[Place, ...]:
        return tuple(c.place for c in self.components)


class InvariantVector(NamedTuple):
    """Local invariants of one class at one point, place by place."""

    entries: Tuple[Tuple[Place, int], ...]

    def total(self) -> int:
        return reduce(xor, (val for _, val in self.entries), 0)


def _reader(data: ConicBundleData, v: Place, fibres):
    """signs(t, m=None): the sum of 2^i over the fibres i with
    fibres[i] = 1 and (a_i, t - e_i)_v = -1, read on the ball t + p^m Z_p,
    None when a symbol is not constant there, or with m None at t itself,
    on the exact ball `hilbert` reads."""
    picked = [(1 << i, a.representative(), e)
              for i, (b, a, e) in enumerate(zip(fibres, data.a, data.e)) if b]
    if v.is_real:
        negative = [(bit, e) for bit, a, e in picked if a < 0]
        return lambda t, m=None: sum(bit for bit, e in negative if t < e)
    model = [(bit, _symbol_reader(a, v.p), e.numerator, e.denominator,
              2 * _valuation_unit(e.denominator, v.p)[0])
             for bit, a, e in picked]

    def signs(t, m=None):
        out = 0
        for bit, sym, n, d, shift in model:
            x = (d * t - n) * d
            value = sym(x, _exact_level(x, v.p) if m is None else m + shift)
            if value is None:
                return None
            if value == -1:
                out |= bit
        return out
    return signs


def _default_resolution(p: int) -> int:
    return DEFAULT_RESOLUTION_TWO if p == 2 else DEFAULT_RESOLUTION_ODD


def _support_places(data: ConicBundleData, bits: Tuple[int, ...],
                    values=()) -> Tuple[Place, ...]:
    # places where an unramified integral residue is not automatically
    # invariant-free: 2 and infinity, primes carried by the a_i or by the
    # denominators of the e_i of the selected fibres, and small primes
    # whose residues the e_i might exhaust; plus the odd primes in the
    # numerators and denominators of the nonzero rationals `values`
    picked = [(a, e) for b, a, e in zip(bits, data.a, data.e) if b]
    primes = _primes_dividing([e.denominator for _, e in picked] + [*values])
    primes.update(q for a, _ in picked for q in a.primes)
    primes.update(_primes_upto(data.r))
    return _places(primes)


def _default_trivial_parameter(data: ConicBundleData, bits: Tuple[int, ...],
                               v: Place) -> Optional[Fraction]:
    """An integral parameter at v with invariant 0, the first one the walk
    meets, or None when there is none: the walk descends to
    K* = W + 2 _unit_digits(p) + 1, W the largest v_p(e_i - e_j) over the
    selected p-integral poles, and meets every value (module docstring)."""
    if v.is_real:
        return max(data.e) + 1  # every t - e_i > 0, all symbols +1
    p = v.p
    poles = [e for b, e in zip(bits, data.e) if b and e.denominator % p]
    W = max((_valuation_unit(x - y, p)[0]
             for x, y in combinations(poles, 2)), default=0)
    signs_at = _reader(data, v, bits)
    for _, (c,), signs in _balls(p, 1, W + 2 * _unit_digits(p) + 1,
                                 lambda u, k: signs_at(u[0], k)):
        if signs is not None and signs.bit_count() % 2 == 0:
            return Fraction(c)
    return None


def invariant_vector(data: ConicBundleData, point: AdelicFiberPoint,
                     n) -> InvariantVector:
    """Per-place invariants of the canonical representative on the support;
    a component with precision m at p is read on the ball t + p^m Z_p."""
    bits = _canonical(_bits(data, n))
    entries = []
    for comp in point.components:
        v, t, m = comp.place, comp.t, comp.precision
        _check_pole(data, t)
        signs = _reader(data, v, bits)(t, m)
        if signs is None:
            raise _refusal(BrauerManinError, "precision {} at place {} does "
                           "not determine every symbol the class reads", m, v)
        entries.append((v, signs.bit_count() % 2))
    return InvariantVector(tuple(entries))


def pairing(data: ConicBundleData, point: AdelicFiberPoint, n) -> int:
    """Sum of local invariants of the class at the point, in F_2.

    The class must lie in Ker(delta); it is evaluated through its
    canonical representative, so the all-ones class pairs to 0.  Places
    outside the support contribute 0 through the unramified default.  At
    the finitely many places where that is not automatic, the balls of
    Z_p are walked to K* = W + 2 u_p + 1, u_p = `_unit_digits(p)` and W
    the largest v_p(e_i - e_j) over the selected p-integral poles.  Past
    W + u_p a shell around a pole fixes every other symbol, and
    u -> p^2 u changes no symbol, so the shells repeat with period 2 and
    the walk meets every invariant value (module docstring).  A walk that
    finds no ball of invariant 0 thus proves that no integral parameter
    there has one, and the pairing raises, asking for an explicit
    component there."""
    raw = _bits(data, n)
    if not delta(data, raw).is_trivial:
        raise _refusal(BrauerManinError, "the vector {} is not in "
                       "Ker(delta); the pairing is defined on kernel classes "
                       "only", raw)
    bits = _canonical(raw)
    vec = invariant_vector(data, point, bits)
    support = set(point.support)
    for v in _support_places(data, bits):
        if v in support:
            continue
        if _default_trivial_parameter(data, bits, v) is None:
            raise _refusal(BrauerManinError, "the class has a nonzero "
                           "invariant at every integral parameter at {}, "
                           "outside the declared support; add a component "
                           "there", v)
    return vec.total()


def global_point(data: ConicBundleData, t) -> AdelicFiberPoint:
    """The diagonal adelic point with the same rational t everywhere.

    The support collects every place where any (a_i, t - e_i) can be
    nontrivial, plus the places the pairing always wants declared, so
    pairing against any kernel class reproduces the full reciprocity sum."""
    t = as_rational(t, BrauerManinError)
    _check_pole(data, t)
    places = _support_places(data, (1,) * data.r, [t - e for e in data.e])
    return AdelicFiberPoint(tuple(LocalParameter(v, t) for v in places))


def quotient_generators(data: ConicBundleData) -> Tuple[BrauerElement, ...]:
    """A basis of Ker(delta) modulo the all-ones class, canonical form."""
    group = brauer_group(data)
    r = data.r
    rows: list = []  # n_1 is the top bit, so a pivot is a leading 1
    for vec in group.kernel_basis:
        f2_insert(rows, sum(b << (r - 1 - i)
                            for i, b in enumerate(_canonical(vec))))
    if len(rows) != group.quotient_rank:
        raise _refusal(BrauerManinError, "internal rank mismatch: reduced "
                       "{} generators, group rank {}", len(rows),
                       group.quotient_rank)
    return tuple(BrauerElement(tuple(row >> (r - 1 - i) & 1 for i in range(r)))
                 for _, row, _ in rows)


class ScanCell(NamedTuple):
    """One cell of the parameter space at one place, with the invariant of
    every generator on it."""

    place: Place
    label: str
    representative: Fraction
    values: Tuple[int, ...]


class _PlaceCells(NamedTuple):
    """The cells at one place as parallel columns: cell i has the label
    labels[i], the representative representatives[i] written "num/den",
    and the generator values values[i].  resolution is None at infinity."""

    place: Place
    resolution: Optional[int]
    labels: Tuple[str, ...]
    representatives: Tuple[str, ...]
    values: Tuple[Tuple[int, ...], ...]

    def cells(self) -> Tuple[ScanCell, ...]:
        return tuple(ScanCell(self.place, label, Fraction(rep), vals)
                     for label, rep, vals in zip(
                         self.labels, self.representatives, self.values))


def _mask(values: Tuple[int, ...]) -> int:
    m = 0
    for g, val in enumerate(values):
        m |= val << g
    return m


class ScanTable(NamedTuple):
    """Cell partition per supported place and the generator invariants.

    A combination picks one cell per place; it is allowed when the
    F_2 sums over the picked cells vanish for every generator, i.e. when
    a point with those local residues clears the obstruction.  Every
    place, the real one included, keeps its cells as one `_PlaceCells`
    record, in `places` order; `ScanCell` objects are built when asked."""

    generators: Tuple[Tuple[int, ...], ...]
    place_cells: Tuple[_PlaceCells, ...]

    @property
    def places(self) -> Tuple[Place, ...]:
        return tuple(rec.place for rec in self.place_cells)

    @property
    def cells(self) -> Tuple[ScanCell, ...]:
        return tuple(cell for rec in self.place_cells for cell in rec.cells())

    def cells_at(self, v: Place) -> Tuple[ScanCell, ...]:
        for rec in self.place_cells:
            if rec.place == v:
                return rec.cells()
        return ()

    def allowed_count(self) -> int:
        # convolve the per-place histograms of invariant masks over F_2^g
        counts = {0: 1}
        for rec in self.place_cells:
            nxt: Dict[int, int] = {}
            for vals, mult in Counter(rec.values).items():
                m = _mask(vals)
                for vec, cnt in counts.items():
                    nxt[vec ^ m] = nxt.get(vec ^ m, 0) + cnt * mult
            counts = nxt
        return counts.get(0, 0)

    def allowed_combinations(self, limit: Optional[int] = None):
        """Tuples of cell labels, one per place, pairing to 0 with every
        generator; at most `limit` of them in tabulation order, the last
        place varying fastest."""
        if limit is not None:
            limit = as_integer_at_least(limit, 0, "limit", BrauerManinError)
        groups = [tuple(zip(rec.labels, map(_mask, rec.values)))
                  for rec in self.place_cells]
        allowed = (tuple(label for label, _ in combo)
                   for combo in product(*groups)
                   if reduce(xor, (m for _, m in combo), 0) == 0)
        return tuple(islice(allowed, limit))

    def as_json_dict(self) -> dict:
        # labels and representatives are written already; each call makes
        # one fresh values list per distinct vector and place
        out = json_value({
            "generators": self.generators,
            "places": self.places,
            "resolution": {rec.place: rec.resolution for rec in
                           self.place_cells if rec.resolution is not None},
        })
        out["cells"] = []
        for rec in self.place_cells:
            place = str(rec.place)
            lists = {vals: list(vals) for vals in set(rec.values)}
            out["cells"] += [{"cell": label, "place": place,
                              "representative": rep, "values": lists[vals]}
                             for label, rep, vals in zip(
                                 rec.labels, rec.representatives, rec.values)]
        out["allowed_count"] = self.allowed_count()
        return out


def _finite_cells(data: ConicBundleData, gens, p: int, K: int) -> _PlaceCells:
    # a constant ball above level K gives its values to every residue mod
    # p^K it holds; a residue mod p^K on which some symbol is not yet
    # forced (at p = 2 the unit part of t - e_i may need pinning mod 4 or
    # 8) splits into its p children, at any starting resolution such cells
    # exist whenever val_2(c - e_i) reaches K - 1, so refinement is part
    # of the partition rather than an error.  Off the poles every value has
    # valuation below K + shift, so its unit digits are known by level
    # K + _unit_digits(p) - 1; the walk allows one level more.  The
    # residues mod p^K get one slot each, so they are counted against the
    # cap before any is made, or p^K itself built
    pK = _check_cap(p, K, ScanCapError, "the scan at {0} has {0}^{1} residues",
                    p, K)
    # every fibre some generator selects, read once per ball
    signs_at = _reader(data, Place(p), map(any, zip(*(g.n for g in gens))))
    masks = [_mask(g.n) for g in gens]
    values = {}  # the generator values per sign mask
    # the residues mod p^K of the p-integral e_i; other e_i have
    # valuation(c - e_i) < 0 and never hug an integral cell
    poles = {e.numerator * pow(e.denominator, -1, pK) % pK
             for e in data.e if e.denominator % p}
    at_K = [None] * pK  # the values of each residue mod p^K
    deeper = []

    def read(u, k):
        # a pole residue mod p^K stops the descent; it is cleared below
        if k == K and u[0] in poles:
            return 0
        return signs_at(u[0], k)

    extra = _unit_digits(p) + 1
    for k, (c,), signs in _balls(p, 1, K + extra, read):
        if signs is None:
            raise _refusal(BrauerManinError, "the cell {} mod {}^{} resisted "
                           "{} refinements", c, p, k, extra)
        if signs not in values:
            values[signs] = tuple((g & signs).bit_count() % 2 for g in masks)
        if k > K:
            deeper.append((k, c, values[signs]))
        else:
            at_K[c::p ** k] = (values[signs],) * p ** (K - k)
    # a pole residue hugs its pole, and so does a residue in a ball
    # constant for the selected fibres that holds the pole of a fibre no
    # generator selects: both are dropped
    for c in poles:
        at_K[c] = None
    kept = [c for c, vals in enumerate(at_K) if vals is not None]
    deeper.sort()
    levels = [K] * len(kept) + [k for k, _, _ in deeper]
    text = list(map(str, kept + [c for _, c, _ in deeper]))
    # one suffix per level; the integer representative is written as
    # json_value writes Fraction(c), "c/1", but inline: every finite cell
    # of every scan passes through here
    suffix = {k: " mod %d^%d" % (p, k) for k in set(levels)}
    return _PlaceCells(Place(p), K,
                       tuple([c + suffix[k] for k, c in zip(levels, text)]),
                       tuple([c + "/1" for c in text]),
                       tuple([at_K[c] for c in kept]
                             + [vals for _, _, vals in deeper]))


def _real_cells(data: ConicBundleData, gens) -> _PlaceCells:
    # symbols at the real place are constant between consecutive poles
    signs_at = _reader(data, REAL_PLACE, map(any, zip(*(g.n for g in gens))))
    masks = [_mask(g.n) for g in gens]
    es = sorted(data.e)
    bounds = list(zip([None] + es, es + [None]))
    reps = [hi - 1 if lo is None else lo + 1 if hi is None else (lo + hi) / 2
            for lo, hi in bounds]
    return _PlaceCells(
        REAL_PLACE, None,
        tuple("(%s, %s)" % ("-oo" if lo is None else lo,
                            "+oo" if hi is None else hi) for lo, hi in bounds),
        tuple(map(json_value, reps)),
        tuple(tuple((g & signs_at(rep)).bit_count() % 2 for g in masks)
              for rep in reps))


def obstruction_scan(data: ConicBundleData, support: Iterable[Place],
                     resolution: Optional[int] = None) -> ScanTable:
    """Partition the parameter space at each supported place into cells of
    constant invariant and tabulate every generator on every cell.

    Finite cells start as residues mod p^resolution away from the poles
    and refine as needed; real cells are the pole-cut open intervals."""
    places = tuple(sorted({_checked_place(v, BrauerManinError)
                           for v in support}, key=_place_key))
    if resolution is not None:
        resolution = as_integer_at_least(resolution, 1, "resolution",
                                         BrauerManinError)
    gens = quotient_generators(data)
    return ScanTable(tuple(g.n for g in gens), tuple(
        _real_cells(data, gens) if v.is_real else
        _finite_cells(data, gens, v.p, resolution or _default_resolution(v.p))
        for v in places))
