"""Exactness policy: no entry path lets a float, or a wrapping numpy
integer, into exact data; each rejects a float with its module's error."""

from fractions import Fraction

import numpy as np
import pytest

from conicbundles.brauermanin import (AdelicFiberPoint, BrauerManinError,
                                      LocalParameter, global_point,
                                      local_invariant, obstruction_scan,
                                      pairing)
from conicbundles.cli import CLIInputError, run_selftest
from conicbundles.counting import (CountJob, CountingError, G, beta_p,
                                   box_measure, enumerate_N,
                                   predict_and_compare)
from conicbundles.delpezzo import (DelPezzoError, DP1Data, Quartic,
                                   SplitPolynomial)
from conicbundles.exactnum import (ExactNumError, Place, REAL_PLACE,
                                   SquareClass, as_rational, factorize,
                                   hilbert, is_prime, legendre,
                                   squarefree_class, valuation)
from conicbundles.localsolve import (LocalSolveError, diagonal_quadric_soluble,
                                     everywhere_locally_soluble,
                                     padic_soluble)
from conicbundles.pencil import (BrauerElement, ConicBundleData,
                                 NormFormSystem, PencilError,
                                 quadric_intersection_system)
from conicbundles.quadform import (BinaryForm, QuadFormError,
                                   pell_fundamental, primary_representatives,
                                   representation_count, representation_table,
                                   rho, rho_table, scaling_valid, w)

FLAG = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))
SYSTEM = NormFormSystem(r=1, s=2, a=(-1,), forms=((1, 0),))
F64 = np.float64(0.5)


def job(**kw):
    args = dict(system=SYSTEM, uInf=(1, 0), B_schedule=(100,))
    args.update(kw)
    return CountJob(**args)


# test id -> (expected error, call that feeds a float to one entry path)
FLOAT_ENTRY_PATHS = {
    "bundle e": (PencilError,
                 lambda: ConicBundleData(e=(0.1, 1), a=(5, 5))),
    "bundle e float64": (PencilError,
                         lambda: ConicBundleData(e=(F64, 1), a=(5, 5))),
    "bundle a": (PencilError,
                 lambda: ConicBundleData(e=(0, 1), a=(5.0, 5))),
    "bundle lam": (PencilError,
                   lambda: ConicBundleData(e=(0, 1), a=(5, 5), lam=(0.5, 1))),
    "quadric e": (PencilError,
                  lambda: quadric_intersection_system((0.5, 1), (5,), (1,))),
    "quadric c": (PencilError,
                  lambda: quadric_intersection_system((0, 1), (5,), (1.5,))),
    "norm a": (PencilError, lambda: NormFormSystem(
        r=1, s=2, a=(-1.5,), forms=((1, 0),))),
    "norm forms": (PencilError, lambda: NormFormSystem(
        r=1, s=2, a=(-1,), forms=((1.9, 0.2),))),
    "job M": (CountingError, lambda: job(M=1.5)),
    "job uM": (CountingError, lambda: job(uM=(0.0, 1))),
    "job uInf": (CountingError, lambda: job(uInf=(1.0, 0))),
    "job epsilon": (CountingError, lambda: job(epsilon=0.5)),
    "job B": (CountingError, lambda: job(B_schedule=(100.7,))),
    "enumerate B": (CountingError, lambda: enumerate_N(job(), 100.0)),
    "enumerate threads": (CountingError,
                          lambda: enumerate_N(job(), 100, threads=2.7)),
    "predict prime_cutoff": (CountingError, lambda: predict_and_compare(
        job(), prime_cutoff=10.0)),
    "predict threads": (CountingError,
                        lambda: predict_and_compare(job(), threads=2.7)),
    "G p": (CountingError, lambda: G(job(), 5.0, 1)),
    "G k": (CountingError, lambda: G(job(), 5, 1.5)),
    "beta p": (CountingError, lambda: beta_p(job(), 5.0)),
    "box epsilon": (CountingError, lambda: box_measure(2, 0.5, 1, 4)),
    "box B": (CountingError, lambda: box_measure(2, 1, 1, 4.0)),
    "local invariant": (BrauerManinError, lambda: local_invariant(
        FLAG, (1, 1, 0, 0), 0.5, Place(5))),
    "local parameter": (BrauerManinError,
                        lambda: LocalParameter(Place(5), 0.5)),
    "local parameter precision": (BrauerManinError,
                                  lambda: LocalParameter(Place(5), 1, 2.0)),
    "global point": (BrauerManinError, lambda: global_point(FLAG, F64)),
    "pairing resolution": (BrauerManinError, lambda: pairing(
        FLAG, AdelicFiberPoint.from_pairs({REAL_PLACE: 100, Place(5): 12}),
        (1, 1, 0, 0), resolution=2.5)),
    "scan resolution": (BrauerManinError, lambda: obstruction_scan(
        FLAG, [Place(5)], resolution=3.0)),
    "scan combinations limit": (BrauerManinError, lambda: obstruction_scan(
        FLAG, [Place(5), REAL_PLACE]).allowed_combinations(limit=2.5)),
    "split roots": (DelPezzoError, lambda: SplitPolynomial(1, (0.5,))),
    "split leading": (DelPezzoError, lambda: SplitPolynomial(0.5, (1,))),
    "quartic": (DelPezzoError, lambda: Quartic((0.5, 0, 0, 0, 1))),
    "dp1 e": (DelPezzoError,
              lambda: DP1Data((0.5, 1, 2, 3, 4, 5, 6, 7), 1, 1)),
    "dp1 c": (DelPezzoError, lambda: DP1Data(tuple(range(8)), 1, 0.5)),
    "square class": (ExactNumError, lambda: squarefree_class(0.1)),
    "square class float64": (ExactNumError,
                             lambda: squarefree_class(np.float64(2.0))),
    "place": (ExactNumError, lambda: Place(5.0)),
    "binary form": (QuadFormError, lambda: BinaryForm(-1.0)),
    "rho q": (QuadFormError, lambda: rho(BinaryForm(-1), 25.0, 1)),
    "rho A": (QuadFormError, lambda: rho(BinaryForm(-1), 25, 1.5)),
    "valuation": (ExactNumError, lambda: valuation(0.5, 2)),
    "valuation p": (ExactNumError, lambda: valuation(8, 2.0)),
    "is prime": (ExactNumError, lambda: is_prime(7.0)),
    "factorize": (ExactNumError, lambda: factorize(12.0)),
    "legendre": (ExactNumError, lambda: legendre(3, 7.0)),
    "w": (QuadFormError, lambda: w(-4.0)),
    "pell": (QuadFormError, lambda: pell_fundamental(2.0)),
    "representation count": (QuadFormError, lambda: representation_count(
        BinaryForm(-1), 5.0)),
    "representation table lo": (QuadFormError, lambda: representation_table(
        BinaryForm(-1), 1.0, 9)),
    "representation table hi": (QuadFormError, lambda: representation_table(
        BinaryForm(2), -9, 9.0)),
    "representation table step": (QuadFormError,
                                  lambda: representation_table(
                                      BinaryForm(-1), 1, 9, 2.0)),
    "primary representatives": (QuadFormError,
                                lambda: primary_representatives(
                                    BinaryForm(2), 7.0)),
    "rho table k": (QuadFormError,
                    lambda: rho_table(BinaryForm(-1), 3, 2.0)),
    "scaling k": (QuadFormError,
                  lambda: scaling_valid(BinaryForm(-1), 3, 2.0, 5)),
    "scaling A": (QuadFormError,
                  lambda: scaling_valid(BinaryForm(-1), 3, 2, 5.5)),
    "hilbert": (ExactNumError, lambda: hilbert(-1.0, -1, REAL_PLACE)),
    "diagonal quadric": (LocalSolveError, lambda: diagonal_quadric_soluble(
        (1.0, 1, 1, -1), Place(2))),
    "padic p": (LocalSolveError, lambda: padic_soluble(SYSTEM, 5.0)),
    "padic depth": (LocalSolveError,
                    lambda: padic_soluble(SYSTEM, 3, 5.5)),
    "everywhere L": (LocalSolveError,
                     lambda: everywhere_locally_soluble(SYSTEM, L=10.5)),
    "everywhere depth": (LocalSolveError, lambda: everywhere_locally_soluble(
        SYSTEM, depth=5.5)),
    "brauer element": (PencilError, lambda: BrauerElement((1.0, 0.0, 1, 0))),
    "selftest seed": (CLIInputError,
                      lambda: run_selftest(quick=True, seed=2.5)),
}


@pytest.mark.parametrize("error, call", list(FLOAT_ENTRY_PATHS.values()),
                         ids=list(FLOAT_ENTRY_PATHS))
def test_exact_inputs_reject_floats(error, call):
    with pytest.raises(error, match="float"):
        call()


FORM = BinaryForm(-1)

# test id -> (expected error, message, call with a modulus that is no prime,
# an exponent below 0, a bare int for a Place or another argument outside
# its domain); rho_table once looped forever at p = 1 and divided by zero
# at p = 0, scaling_valid answered at p = 1 and k = -1, and hilbert and
# diagonal_quadric_soluble raised an AttributeError at the int 5
NON_PRIME_MODULI = {
    "rho table p 0": (QuadFormError, "not prime",
                      lambda: rho_table(FORM, 0, 2)),
    "rho table p 1": (QuadFormError, "not prime",
                      lambda: rho_table(FORM, 1, 2)),
    "rho table p 4": (QuadFormError, "not prime",
                      lambda: rho_table(FORM, 4, 2)),
    "rho table p -3": (QuadFormError, "not prime",
                       lambda: rho_table(FORM, -3, 2)),
    "rho table k -1": (QuadFormError, "k must be >= 0",
                       lambda: rho_table(FORM, 3, -1)),
    "scaling p 0": (QuadFormError, "not prime",
                    lambda: scaling_valid(FORM, 0, 2, 5)),
    "scaling p 1": (QuadFormError, "not prime",
                    lambda: scaling_valid(FORM, 1, 2, 5)),
    "scaling k -1": (QuadFormError, "k must be >= 0",
                     lambda: scaling_valid(FORM, 3, -1, 5)),
    "valuation p 4": (ExactNumError, "not prime", lambda: valuation(8, 4)),
    "place 1": (ExactNumError, "not prime", lambda: Place(1)),
    "legendre p 9": (ExactNumError, "not prime", lambda: legendre(2, 9)),
    "legendre p 2": (ExactNumError, "odd prime", lambda: legendre(3, 2)),
    "G p -3": (CountingError, "not prime", lambda: G(job(), -3, 1)),
    "beta p 0": (CountingError, "not prime", lambda: beta_p(job(), 0)),
    "padic p 1": (LocalSolveError, "not prime",
                  lambda: padic_soluble(SYSTEM, 1)),
    "hilbert place 5": (ExactNumError, "not a Place",
                        lambda: hilbert(2, 3, 5)),
    "diagonal quadric place 5": (LocalSolveError, "not a Place",
                                 lambda: diagonal_quadric_soluble(
                                     (1, 1, 1, 1), 5)),
    "hilbert 0": (ExactNumError, "needs nonzero arguments",
                  lambda: hilbert(0, 3, Place(5))),
    "square class 0": (ExactNumError, "0 has no square class",
                       lambda: squarefree_class(0)),
    "square class sign 2": (ExactNumError, "sign bit must be 0 or 1",
                            lambda: SquareClass(sign=2)),
    "square class prime 4": (ExactNumError, "support must be prime, got 4",
                             lambda: SquareClass(0, frozenset({4}))),
    "rational 'x'": (ExactNumError, "not a rational number",
                     lambda: as_rational("x")),
    "rho q 0": (QuadFormError, "modulus must be positive",
                lambda: rho(FORM, 0, 1)),
    "box epsilon 0": (CountingError, "epsilon must be positive",
                      lambda: box_measure(2, 0, 1, 4)),
    "scan combinations limit -1": (
        BrauerManinError, "limit must be >= 0",
        lambda: obstruction_scan(FLAG, [Place(5), REAL_PLACE])
        .allowed_combinations(limit=-1)),
    "selftest seed -1": (CLIInputError, "seed must be >= 0",
                         lambda: run_selftest(quick=True, seed=-1)),
}


@pytest.mark.parametrize("error, match, call",
                         list(NON_PRIME_MODULI.values()),
                         ids=list(NON_PRIME_MODULI))
def test_moduli_must_be_primes(error, match, call):
    with pytest.raises(error, match=match):
        call()


def test_integer_inputs_are_python_ints():
    with pytest.raises(PencilError, match="not an integer"):
        NormFormSystem(r=1, s=2, a=(Fraction(-3, 2),), forms=((1, 0),))
    with pytest.raises(CountingError, match="not an integer"):
        job(B_schedule=(Fraction(201, 2),))
    system = NormFormSystem(r=1, s=2, a=(np.int64(-1),), forms=((1, 0),))
    assert system.a == (-1,) and type(system.a[0]) is int
    # numpy integers become Python integers, so later products cannot wrap
    data = ConicBundleData(e=(np.int64(2**62), 1), a=(5, 5))
    assert data.e[0] * 4 == 2**64
    # a numpy window is read as Python ints, so each row constant is one
    table = representation_table(BinaryForm(2), -40, 60, 3).tolist()
    assert representation_table(BinaryForm(2), np.int64(-40), np.int64(60),
                                np.int64(3)).tolist() == table
    # 2^62 + 1 = 1 mod 8 is a 2-adic square, whatever the second argument
    assert hilbert(np.int64(2**62 + 1), np.int64(-1), Place(2)) == 1


def test_cached_entry_points_refuse_a_float_after_the_int():
    # a cache keyed on the value alone would hand 7.0 the verdict of 7, and
    # (3.0, 2) the table of (3, 2)
    assert is_prime(7)
    with pytest.raises(ExactNumError, match="float"):
        is_prime(7.0)
    table = rho_table(BinaryForm(-1), 3, 2)
    with pytest.raises(QuadFormError, match="float"):
        rho_table(BinaryForm(-1), 3.0, 2)
    # a numpy prime is read as the Python int, not refused
    assert rho_table(BinaryForm(-1), np.int64(3), 2) == table


@pytest.mark.parametrize("call, match", [
    (lambda: predict_and_compare(job(), prime_cutoff=1), "prime_cutoff"),
    (lambda: predict_and_compare(job(), prime_cutoff=-5), "prime_cutoff"),
    (lambda: predict_and_compare(job(), threads=0), "threads"),
    (lambda: predict_and_compare(job(), threads=-3), "threads"),
    (lambda: enumerate_N(job(), 100, threads=0), "threads"),
    (lambda: enumerate_N(job(), 100, threads=-3), "threads"),
], ids=["cutoff 1", "cutoff -5", "predict threads 0", "predict threads -3",
        "enumerate threads 0", "enumerate threads -3"])
def test_counts_below_their_minimum_are_refused(call, match):
    # an Euler product over no prime is no prediction, and no thread count
    # below one is meaningful: the minimums the CLI enforces
    with pytest.raises(CountingError, match=match):
        call()


def test_integral_cutoff_and_threads_are_accepted():
    base = predict_and_compare(job())
    assert predict_and_compare(job(), prime_cutoff=Fraction(100),
                               threads=np.int64(2)) == base
    assert predict_and_compare(job(), prime_cutoff=2)[0].beta_p.keys() == {2}
    assert enumerate_N(job(), 100, threads=Fraction(2)) == base[0].empirical
