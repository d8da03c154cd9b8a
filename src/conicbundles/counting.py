"""Counting primary solutions of norm-form systems against local densities.

A counting job fixes a system x_i^2 - a_i y_i^2 = f_i(u), a congruence
u = u^(M) mod M, a direction u^(inf) with f_i(u^(inf)) > 0 for the definite
indices, and a box |u - B u^(inf)| < eps B in the sup norm.  N(B) is the
number of solutions with u in the box and each (x_i, y_i) reduced to the
fundamental domain of the automorph group of its form, so each u
contributes prod_i R_i(f_i(u)) with R_i the orbit-counting representation
function.  The expected main term is beta_inf * prod_p beta_p.

Archimedean density.  The mean of R(n) per unit n is pi/(w(4a) sqrt|a|)
for a < 0 and log(eps1)/(2 sqrt a) for a > 0, where eps1 = t + u sqrt(a)
is the smallest Pell solution of t^2 - a u^2 = 1, i.e. the generator of
the automorph group.  When Z[sqrt a] has a unit of norm -1 this equals
log(eta)/sqrt(a) for the fundamental unit eta; when all units have norm
+1 (a = 3, 6, 7, ...) the orbit density is half the naive log(eta)/sqrt(a),
and direct counts confirm the halved value, so that is what beta_infinity
uses.  beta_inf = (2 eps B / M)^s times the product of these factors,
evaluated with mpmath at >= 80 working bits.

Finite densities.  G(p^k) counts (x, y, t) mod p^k solving the system at
g_i(t) = f_i(u^(M) + M t); beta_p is the limit of p^(-(s+r)k) G(p^k).  For
p not dividing M the limit is detected by finding G(p^(k+1)) exactly equal
to p^(s+r) G(p^k) at the first admissible k (persistence beyond the
detected step is the theory's statement, not re-verified numerically).
For p | M with m = val_p(M), beta_p = p^(-(s+r)m) G(p^m) exactly; when the
mod-M data x^2 - a_i y^2 = f_i(u^(M)) is solvable mod p^m this is at least
p^(-rm) > 0, and a violation of that bound is reported as an error since
it contradicts an identity; when the mod-M data admits no lift, beta_p is
honestly 0 and prediction is refused place by place.

All lattice counts and beta_p values are exact (Python integers and
Fractions); only beta_inf and the final ratios are floating point.  The
Euler product is truncated at a configurable cutoff and the truncation is
recorded on every report; the tail factors are 1 + O(p^-2) but the
constant is not estimated here.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import mpmath
import numpy

from .exactnum import (
    ExactNumError,
    as_integer,
    as_rational,
    factorize,
    is_prime,
    valuation,
)
from .pencil import NormFormSystem
from .quadform import (
    BinaryForm,
    pell_fundamental,
    representation_table,
    rho_table,
    w,
)


class CountingError(ExactNumError):
    pass


DEFAULT_PRIME_CUTOFF = 100
DEFAULT_ENUMERATION_CAP = 10**7
_CHUNK_CELLS = 1 << 22
_SUM_GUARD = 1 << 62


@dataclass(frozen=True)
class CountJob:
    """A congruence-and-box counting problem for one norm-form system.

    B values in the schedule must be C^2 with C = 1 mod M, so that the
    dilation (x, y, u) -> (Cx, Cy, C^2 u) respects the congruence."""

    system: NormFormSystem
    M: int = 1
    uM: Tuple[int, ...] = ()
    uInf: Tuple[Fraction, ...] = ()
    epsilon: Fraction = Fraction(1, 2)
    B_schedule: Tuple[int, ...] = ()

    def __post_init__(self):
        s = self.system.s
        object.__setattr__(self, "M", as_integer(self.M, CountingError))
        object.__setattr__(self, "uM", tuple(
            as_integer(x, CountingError) for x in (self.uM or (0,) * s)))
        object.__setattr__(self, "uInf", tuple(
            as_rational(x, CountingError) for x in self.uInf))
        object.__setattr__(self, "epsilon",
                           as_rational(self.epsilon, CountingError))
        object.__setattr__(self, "B_schedule", tuple(
            as_integer(b, CountingError) for b in self.B_schedule))
        if self.M < 1:
            raise CountingError("modulus M must be positive")
        if len(self.uM) != s or len(self.uInf) != s:
            raise CountingError("uM and uInf must have length s = %d" % s)
        if self.epsilon <= 0:
            raise CountingError("epsilon must be positive")
        for i in self.system.i_minus:
            if self._f(i, self.uInf) <= 0:
                raise CountingError(
                    "f_%d(uInf) must be positive for definite index %d"
                    % (i + 1, i + 1))
        for p, m in factorize(self.M) if self.M > 1 else ():
            bound = max(valuation(4 * a, p) for a in self.system.a)
            if m < bound:
                raise CountingError(
                    "val_%d(M) = %d is below the technical bound %d"
                    % (p, m, bound))
            pm = p**m
            for i in range(self.system.r):
                if self._f(i, self.uM) % pm == 0:
                    raise CountingError(
                        "f_%d(uM) vanishes mod %d^%d" % (i + 1, p, m))
        for B in self.B_schedule:
            if B < 1:
                raise CountingError("B must be positive, got %r" % B)
            c = math.isqrt(B)
            if c * c != B or c % self.M != 1 % self.M:
                raise CountingError(
                    "B = %d is not C^2 with C = 1 mod %d" % (B, self.M))

    def _f(self, i: int, u):
        return sum(c * x for c, x in zip(self.system.forms[i], u))


def box_measure(s: int, epsilon: Fraction, M: int, B: int) -> Fraction:
    """(2 eps B / M)^s: the raw sup-norm measure formula.

    Kept separate from CountJob so the formula is usable for parameter
    combinations a valid job cannot carry (eq. M = 2 never clears the
    technical valuation bound at p = 2)."""
    s, M, B = (as_integer(x, CountingError) for x in (s, M, B))
    if B < 1 or M < 1 or s < 1:
        raise CountingError("B, M, s must be positive")
    eps = as_rational(epsilon, CountingError)
    if eps <= 0:
        raise CountingError("epsilon must be positive")
    return (2 * eps * B / M) ** s


def region_measure(job: CountJob, B: int) -> Fraction:
    """Sup-norm measure (2 eps B / M)^s of the congruence-scaled box."""
    return box_measure(job.system.s, job.epsilon, job.M, B)


def _axis_values(job: CountJob, B: int, j: int):
    # integers u_j = uM_j mod M with |u_j - B uInf_j| < eps B, ascending
    lo = B * job.uInf[j] - job.epsilon * B
    hi = B * job.uInf[j] + job.epsilon * B
    tlo = (lo - job.uM[j]) / job.M
    thi = (hi - job.uM[j]) / job.M
    t0 = math.floor(tlo) + 1
    t1 = math.ceil(thi) - 1
    if t0 > t1:
        return None
    return job.uM[j] + job.M * numpy.arange(t0, t1 + 1, dtype=numpy.int64)


def _form_window(coeffs, axes):
    lo = hi = 0
    for c, ax in zip(coeffs, axes):
        vals = (c * int(ax[0]), c * int(ax[-1]))
        lo += min(vals)
        hi += max(vals)
    return lo, hi


def _grid_sum(axes, coeff_rows, consts, tables, maxima, row_range,
              modulus=None):
    # sum over the sub-grid axes[0][row_range] x axes[1] x ... of the
    # product of lookups tables[i][consts[i] + coeff_rows[i] . u], the
    # index taken mod `modulus` when one is given; exact, chunked to bound
    # memory and to keep every partial int64 sum below _SUM_GUARD.  With a
    # modulus m the caller passes consts, coefficients and axis values in
    # [0, m), so the unreduced index stays below (s + 1) m^2, far inside
    # int64 for any grid small enough to allocate
    rest = 1
    for ax in axes[1:]:
        rest *= ax.size
    prod_cap = 1
    for m in maxima:
        prod_cap *= max(m, 1)
    rows_mem = max(1, _CHUNK_CELLS // max(rest, 1))
    rows_sum = max(1, _SUM_GUARD // max(rest * prod_cap, 1))
    step = min(rows_mem, rows_sum)
    shapes = []
    for j in range(1, len(axes)):
        shape = [1] * len(axes)
        shape[j] = axes[j].size
        shapes.append(axes[j].reshape(shape[1:]))
    total = 0
    start, stop = row_range
    for r0 in range(start, stop, step):
        r1 = min(r0 + step, stop)
        head = axes[0][r0:r1].reshape((r1 - r0,) + (1,) * (len(axes) - 1))
        prod = None
        for coeffs, const, tab in zip(coeff_rows, consts, tables):
            vals = const + coeffs[0] * head
            for c, ax in zip(coeffs[1:], shapes):
                if c:
                    vals = vals + c * ax
            if modulus is not None:
                vals = vals % modulus
            looked = tab[vals]
            prod = looked if prod is None else prod * looked
        # axes never touched by any nonzero coefficient stay broadcast
        # length 1; each such axis multiplies the count uniformly
        mult = 1
        for j in range(1, len(axes)):
            if prod.shape[j] == 1:
                mult *= axes[j].size
        total += int(prod.sum()) * mult
    return total


def enumerate_N(job: CountJob, B: int, threads: int = 1) -> int:
    """Exact number of primary solutions in the congruence class and box.

    The box is partitioned along the first coordinate; partial sums are
    exact integers, so the merge is associative and the result does not
    depend on the partition."""
    axes = [_axis_values(job, B, j) for j in range(job.system.s)]
    if any(ax is None for ax in axes):
        return 0
    coeff_rows = job.system.forms
    tables = []
    consts = []
    maxima = []
    for i, form in enumerate(coeff_rows):
        lo, hi = _form_window(form, axes)
        tab = representation_table(BinaryForm(job.system.a[i]), lo, hi)
        tables.append(numpy.array(tab, dtype=numpy.int64))
        consts.append(-lo)
        maxima.append(max(tab) if tab else 0)
    n0 = axes[0].size
    parts = max(1, min(int(threads), n0))
    bounds = [(n0 * q // parts, n0 * (q + 1) // parts) for q in range(parts)]
    if parts == 1:
        return _grid_sum(axes, coeff_rows, consts, tables, maxima, bounds[0])
    with ThreadPoolExecutor(max_workers=parts) as pool:
        sums = pool.map(
            lambda rr: _grid_sum(axes, coeff_rows, consts, tables, maxima, rr),
            bounds)
    return sum(sums)


def beta_infinity(job: CountJob, B: int, bits: int = 80):
    """Archimedean density: measure of the box times the mean orbit count
    of each form, as an mpmath float at >= 80 working bits.

    Each factor is exact up to directed rounding, so the relative error is
    below 2**(6 - bits) for r <= 8."""
    meas = region_measure(job, B)
    with mpmath.workprec(max(bits, 80)):
        val = mpmath.mpf(meas.numerator) / meas.denominator
        for a in job.system.a:
            if a < 0:
                val *= mpmath.pi / (w(4 * a) * mpmath.sqrt(-a))
            else:
                pell = pell_fundamental(a)
                eps1 = pell.t + pell.u * mpmath.sqrt(a)
                val *= mpmath.log(eps1) / (2 * mpmath.sqrt(a))
        return +val


def _g_rows(job: CountJob):
    # g_i(t) = f_i(uM + M t): constant term and t coefficients
    rows = []
    for i, form in enumerate(job.system.forms):
        const = job._f(i, job.uM)
        rows.append((const, tuple(job.M * c for c in form)))
    return rows


def G(job: CountJob, p: int, k: int,
      cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """#{(x, y, t) mod p^k : x_i^2 - a_i y_i^2 = g_i(t) for all i}, exact."""
    if not is_prime(p):
        raise CountingError("%r is not prime" % (p,))
    if k < 1:
        raise CountingError("k must be >= 1")
    s = job.system.s
    m = p**k
    if m**s > cap:
        raise CountingError(
            "G(%d^%d) needs %d residue vectors, beyond the cap %d; raise the "
            "cap or use beta_p's stabilization shortcut" % (p, k, m**s, cap))
    tables = []
    maxima = []
    consts = []
    coeff_rows = []
    for (const, coeffs), a in zip(_g_rows(job), job.system.a):
        tab = rho_table(BinaryForm(a), p, k)
        tables.append(numpy.array(tab, dtype=numpy.int64))
        maxima.append(max(tab))
        consts.append(const % m)
        coeff_rows.append(tuple(c % m for c in coeffs))
    axes = [numpy.arange(m, dtype=numpy.int64)] * s
    return _grid_sum(axes, coeff_rows, consts, tables, maxima, (0, m), m)


def _rank_mod_p(rows, p: int) -> int:
    mat = [list(c % p for c in row) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def beta_p(job: CountJob, p: int, k_max: Optional[int] = None,
           cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Exact local density at p.

    Odd p with p dividing neither M nor any a_i, and the form matrix of
    full rank r mod p: beta_p = 1 exactly, since t -> (g_i(t)) mod p^k is
    then uniform onto (Z/p^k)^r and each form has sum_A rho(p^k; A) = p^2k.
    p | M: p^(-(s+r)m) G(p^m) with m = val_p(M); if the mod-M data is
    solvable mod p^m the value is checked against the lower bound p^(-rm).
    Otherwise: detect G(p^(k+1)) = p^(s+r) G(p^k) at the first admissible k
    and return p^(-(s+r)k) G(p^k)."""
    if not is_prime(p):
        raise CountingError("%r is not prime" % (p,))
    s, r = job.system.s, job.system.r
    if (p % 2 and job.M % p and all(a % p for a in job.system.a)
            and _rank_mod_p(job.system.forms, p) == r):
        return Fraction(1)
    if job.M % p == 0:
        m = valuation(job.M, p)
        val = Fraction(G(job, p, m, cap=cap), p ** ((s + r) * m))
        pm = p**m
        liftable = all(
            rho_table(BinaryForm(a), p, m)[job._f(i, job.uM) % pm] > 0
            for i, a in enumerate(job.system.a))
        if liftable and val < Fraction(1, p ** (r * m)):
            raise CountingError(
                "G(%d^%d) < %d^%d despite a solvable congruence witness"
                % (p, m, p, s * m))
        return val
    bound = max(valuation(4 * a, p) for a in job.system.a)
    k0 = max(1, bound + 1)
    if k_max is None:
        k_max = bound + 4
    if k_max < k0:
        raise CountingError("k_max = %d is below the first admissible k = %d"
                            % (k_max, k0))
    step = p ** (s + r)
    prev = G(job, p, k0, cap=cap)
    history = [(k0, prev)]
    for k in range(k0, k_max + 1):
        nxt = G(job, p, k + 1, cap=cap)
        history.append((k + 1, nxt))
        if nxt == step * prev:
            return Fraction(prev, p ** ((s + r) * k))
        prev = nxt
    raise CountingError(
        "no stabilization G(%d^(k+1)) = %d^(s+r) G(%d^k) for k <= %d; "
        "history %r" % (p, p, p, k_max, history))


@dataclass(frozen=True)
class DensityReport:
    """Prediction vs. exact count at one B.

    beta_p values are exact; beta_inf_per_Bs, predicted, and ratio are
    floats computed from >= 80-bit intermediates and rounded to 53 bits.
    The Euler product is truncated at prime_cutoff; the tail is 1 + O(p^-2)
    per factor and is not estimated."""

    B: int
    beta_inf_per_Bs: float
    beta_p: dict
    prime_cutoff: int
    predicted: float
    empirical: int
    ratio: float
    note: str = ""

    def as_json_dict(self) -> dict:
        return {
            "B": self.B,
            "beta_inf_per_Bs": {"value": self.beta_inf_per_Bs,
                                "precision_bits": 53},
            "beta_p": {str(p): "%d/%d" % (v.numerator, v.denominator)
                       for p, v in sorted(self.beta_p.items())},
            "prime_cutoff": self.prime_cutoff,
            "predicted": {"value": self.predicted, "precision_bits": 53},
            "empirical": self.empirical,
            "ratio": {"value": self.ratio, "precision_bits": 53},
            "note": self.note,
        }


def _primes_upto(n: int):
    return [p for p in range(2, n + 1) if is_prime(p)]


def predict_and_compare(job: CountJob,
                        prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
                        bits: int = 80,
                        cap: int = DEFAULT_ENUMERATION_CAP,
                        threads: int = 1) -> Tuple[DensityReport, ...]:
    """One DensityReport per scheduled B.

    If some beta_p vanishes the job is locally obstructed: the reports
    carry predicted = 0 and name the place, and the exact count is still
    taken (it must be 0)."""
    if not job.B_schedule:
        raise CountingError("empty B schedule")
    betas = {}
    zero_at = []
    for p in _primes_upto(prime_cutoff):
        betas[p] = beta_p(job, p, cap=cap)
        if betas[p] == 0:
            zero_at.append(p)
    finite = Fraction(1)
    for v in betas.values():
        finite *= v
    reports = []
    for B in job.B_schedule:
        empirical = enumerate_N(job, B, threads=threads)
        if zero_at:
            reports.append(DensityReport(
                B=B,
                beta_inf_per_Bs=float(beta_infinity(job, B, bits) / B**job.system.s),
                beta_p=dict(betas),
                prime_cutoff=prime_cutoff,
                predicted=0.0,
                empirical=empirical,
                ratio=float("nan"),
                note="no prediction: beta_p = 0 at p = %s"
                     % ", ".join(str(p) for p in zero_at)))
            continue
        with mpmath.workprec(max(bits, 80)):
            binf = beta_infinity(job, B, bits)
            pred = binf * mpmath.mpf(finite.numerator) / finite.denominator
            ratio = mpmath.mpf(empirical) / pred
        reports.append(DensityReport(
            B=B,
            beta_inf_per_Bs=float(binf / B**job.system.s),
            beta_p=dict(betas),
            prime_cutoff=prime_cutoff,
            predicted=float(pred),
            empirical=empirical,
            ratio=float(ratio),
            note="Euler product truncated at %d; tail factors 1 + O(p^-2) "
                 "not estimated" % prime_cutoff))
    return tuple(reports)
