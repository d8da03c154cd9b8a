"""Exactness policy: no entry path lets a float, or a wrapping numpy
integer, into exact data; each rejects a float with its module's error.
The internal-consistency raises, which only a broken helper reaches, are
checked here too."""

from fractions import Fraction

import numpy as np
import pytest

from conicbundles import brauermanin, delpezzo, exactnum
from conicbundles.brauermanin import (AdelicFiberPoint, BrauerManinError,
                                      LocalParameter, ScanCapError,
                                      global_point, local_invariant,
                                      obstruction_scan, quotient_generators)
from conicbundles.cli import CLIInputError, main, run_selftest
from conicbundles.counting import (CountJob, CountingError, G, beta_p,
                                   enumerate_N, predict_and_compare,
                                   region_measure)
from conicbundles.delpezzo import (DelPezzoError, DP1Data, Quartic,
                                   SplitPolynomial, bundle_from_fgh)
from conicbundles.exactnum import (ExactNumError, Place, REAL_PLACE,
                                   SquareClass, _primes_upto, as_integer,
                                   as_rational, f2_independent, factorize,
                                   hilbert, is_prime, legendre,
                                   squarefree_class, valuation)
from conicbundles.localsolve import (LocalSolveError, diagonal_quadric_soluble,
                                     everywhere_locally_soluble,
                                     padic_soluble)
from conicbundles.pencil import (BrauerElement, ConicBundleData,
                                 NormFormSystem, PencilError,
                                 quadric_intersection_system)
from conicbundles.quadform import (BinaryForm, QuadFormError,
                                   pell_fundamental, representation_count,
                                   representation_table, rho, rho_table,
                                   scaling_valid, w)

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
    "predict prime_cutoff": (CountingError, lambda: predict_and_compare(
        job(), prime_cutoff=10.0)),
    "G p": (CountingError, lambda: G(job(), 5.0, 1)),
    "G k": (CountingError, lambda: G(job(), 5, 1.5)),
    "beta p": (CountingError, lambda: beta_p(job(), 5.0)),
    "region B": (CountingError, lambda: region_measure(job(), 4.0)),
    "local invariant": (BrauerManinError, lambda: local_invariant(
        FLAG, (1, 1, 0, 0), 0.5, Place(5))),
    "local parameter": (BrauerManinError,
                        lambda: LocalParameter(Place(5), 0.5)),
    "local parameter precision": (BrauerManinError,
                                  lambda: LocalParameter(Place(5), 1, 2.0)),
    "global point": (BrauerManinError, lambda: global_point(FLAG, F64)),
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
    "square class sign": (ExactNumError, lambda: SquareClass(sign=1.0)),
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
    "square class prime 5 twice": (ExactNumError, "lists a prime twice",
                                   lambda: SquareClass(0, (5, 5))),
    "rational 'x'": (ExactNumError, "not a rational number",
                     lambda: as_rational("x")),
    "rho q 0": (QuadFormError, "q must be >= 1, got 0",
                lambda: rho(FORM, 0, 1)),
    "job epsilon 0": (CountingError, "epsilon must be positive",
                      lambda: job(epsilon=0)),
    "scan combinations limit -1": (
        BrauerManinError, "limit must be >= 0",
        lambda: obstruction_scan(FLAG, [Place(5), REAL_PLACE])
        .allowed_combinations(limit=-1)),
    "selftest seed -1": (CLIInputError, "seed must be >= 0",
                         lambda: run_selftest(quick=True, seed=-1)),
    "selftest quick 0.5": (CLIInputError, "quick must be True or False",
                           lambda: run_selftest(quick=0.5)),
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


# test id -> (square class built from integers of another type or another
# container, its representative); a numpy prime product once wrapped to
# 2852214296931983, and a list or set of primes could not be hashed
LOOSE_SQUARE_CLASSES = {
    "numpy primes": (lambda: SquareClass(0, frozenset(
        np.int64(q) for q in (1000003, 1000033, 999983, 999979))),
        999997999088009090035343),
    "prime list": (lambda: SquareClass(0, [5]), 5),
    "prime set": (lambda: SquareClass(1, {5}), -5),
    "numpy sign": (lambda: SquareClass(np.int64(1), frozenset({2})), -2),
}


@pytest.mark.parametrize("call, representative",
                         list(LOOSE_SQUARE_CLASSES.values()),
                         ids=list(LOOSE_SQUARE_CLASSES))
def test_square_class_fields_are_python_ints(call, representative):
    cls = call()
    assert type(cls.sign) is int and type(cls.primes) is frozenset
    assert all(type(q) is int for q in cls.primes)
    assert cls.representative() == representative
    assert cls == squarefree_class(representative)
    assert hash(cls) == hash(squarefree_class(representative))


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
    (lambda: enumerate_N(job(), 0), "B must be >= 1"),
    (lambda: enumerate_N(job(), -4), "B must be >= 1"),
], ids=["cutoff 1", "cutoff -5", "enumerate B 0", "enumerate B -4"])
def test_counts_below_their_minimum_are_refused(call, match):
    # an Euler product over no prime is no prediction, and a box of height
    # B <= 0 holds no point to count: the minimums the CLI enforces
    with pytest.raises(CountingError, match=match):
        call()


@pytest.mark.parametrize("sieve, error", [
    (_primes_upto, ExactNumError),
    (lambda n: everywhere_locally_soluble(SYSTEM, L=n), LocalSolveError),
    (lambda n: predict_and_compare(job(B_schedule=(4,)), prime_cutoff=n),
     CountingError),
], ids=["primes", "everywhere L", "predict cutoff"])
def test_sieves_past_the_cap_are_refused(monkeypatch, sieve, error):
    # the primes up to L or the cutoff are sieved a byte per integer, so
    # past the cap, made small here, each caller refuses before the sieve
    monkeypatch.setattr(exactnum, "DEFAULT_ENUMERATION_CAP", 1000)
    with pytest.raises(error, match="up to 2000, beyond the cap 1000"):
        sieve(2000)
    assert sieve(1000)


@pytest.mark.parametrize("call, error, match", [
    (lambda: representation_count(BinaryForm(-1), 10**9000), QuadFormError,
     r"a = -1, has at least 2\^\d+ rows, beyond the cap 10000000"),
    (lambda: rho_table(BinaryForm(-1), 2, 20000), QuadFormError,
     r"rho_table\(2\^20000\) has at least 2\^20000 entries, beyond the cap"),
    (lambda: G(job(), 2, 20000), CountingError,
     r"G\(2\^20000\) sums at least 2\^20000 cells, beyond the cap"),
    (lambda: _primes_upto(10**5000), ExactNumError,
     r"primes up to at least 2\^\d+, beyond the cap"),
], ids=["rows", "rho_table", "G", "primes"])
def test_cap_refusals_name_counts_past_the_digit_limit(call, error, match):
    # a count past the interpreter's int-to-str digit limit is written as
    # the power of 2 it reaches, so the refusal raises its module's error
    # at once rather than a ValueError from its own message
    with pytest.raises(error, match=match):
        call()


def test_integral_cutoff_and_B_are_accepted():
    base = predict_and_compare(job())
    assert predict_and_compare(job(), prime_cutoff=Fraction(100)) == base
    assert predict_and_compare(
        job(), prime_cutoff=np.int64(2))[0].beta_p.keys() == {2}
    assert enumerate_N(job(), Fraction(100)) == \
        enumerate_N(job(), np.int64(100)) == base[0].empirical


BIG = 10**5000  # 5001 digits, past the int-to-str limit of 4300
CUBE = NormFormSystem(r=1, s=3, a=(-1,), forms=((1, 0, 0),))

# test id -> (expected error, message, call that refuses an integer past
# the digit limit, or a power far past the cap); each once raised a bare
# ValueError from its own message, or built the power before refusing it
# (a MemoryError, or no return within a minute)
OVERSIZED_INPUTS = {
    "place": (ExactNumError, r"at least 2\^16609 is not prime",
              lambda: Place(BIG)),
    "integer half": (ExactNumError, r"not an integer: at least 2\^16609/2",
                     lambda: as_integer(Fraction(BIG + 1, 2))),
    "rho table k": (QuadFormError, r"k must be >= 0, got at most -2\^16609",
                    lambda: rho_table(FORM, 2, -BIG)),
    "job B": (CountingError, r"B must be >= 1, got at most -2\^16609",
              lambda: job(B_schedule=(-BIG,))),
    "w": (QuadFormError, r"needs d < 0, got at least 2\^16609",
          lambda: w(BIG)),
    "valuation p": (ExactNumError, r"at least 2\^16609 is not prime",
                    lambda: valuation(5, BIG)),
    "square class prime": (ExactNumError,
                           r"must be prime, got at least 2\^16609",
                           lambda: SquareClass(0, (BIG,))),
    "factorize": (ExactNumError, r"n must be >= 1, got at most -2\^16609",
                  lambda: factorize(-BIG)),
    "padic depth": (LocalSolveError, r"depth at most -2\^16609 at p = 3",
                    lambda: padic_soluble(SYSTEM, 3, depth=-BIG)),
    "scan resolution": (BrauerManinError,
                        r"resolution must be >= 1, got at most -2\^16609",
                        lambda: obstruction_scan(FLAG, [Place(5)],
                                                 resolution=-BIG)),
    "local parameter precision": (
        BrauerManinError, r"precision must be >= 1, got at most -2\^16609",
        lambda: LocalParameter(Place(5), 1, -BIG)),
    "hilbert place": (ExactNumError, r"not a Place: at least 2\^16609",
                      lambda: hilbert(2, 3, BIG)),
    "hilbert place tuple": (ExactNumError,
                            "not a Place: a tuple past the digit limit",
                            lambda: hilbert(2, 3, (BIG,))),
    "rho table 3^(10^20)": (
        QuadFormError, r"rho_table\(3\^100000000000000000000\) has at least "
                       r"2\^\d+ entries, beyond the cap",
        lambda: rho_table(FORM, 3, 10**20)),
    "G 3^(10^20)": (
        CountingError, r"G\(3\^100000000000000000000\) sums at least "
                       r"2\^\d+ cells, beyond the cap",
        lambda: G(CountJob(system=CUBE, uInf=(1, 0, 0)), 3, 10**20)),
    "scan 5^(10^20)": (
        ScanCapError, r"5\^100000000000000000000 residues, beyond the cap",
        lambda: obstruction_scan(FLAG, [Place(5)], resolution=10**20)),
    "local invariant pole": (
        BrauerManinError, r"pole at t = e_1 = at least 2\^16609",
        lambda: local_invariant(ConicBundleData(e=(BIG, 1), a=(5, 5)),
                                (1, 1), BIG, Place(5))),
    "adelic point component": (
        BrauerManinError, r"not a LocalParameter: at least 2\^16609",
        lambda: AdelicFiberPoint((BIG,))),
    "adelic point pair": (
        BrauerManinError,
        r"not a \(place, parameter\) pair: a tuple past the digit limit",
        lambda: AdelicFiberPoint.from_pairs([(BIG,)])),
    "selftest quick": (CLIInputError,
                       r"quick must be True or False, got at least 2\^16609",
                       lambda: run_selftest(quick=BIG)),
}


@pytest.mark.parametrize("error, match, call",
                         list(OVERSIZED_INPUTS.values()),
                         ids=list(OVERSIZED_INPUTS))
def test_oversized_integers_get_the_module_error(error, match, call):
    # the refused value is named by its size, and a power is decided
    # without being built, so each refusal returns at once
    with pytest.raises(error, match=match):
        call()


def test_bm_resolution_far_past_the_cap_exit_2(tmp_path, capsys):
    # 5^(10^20) residues are refused before p^K is built, so a resolution
    # far past the cap is an input error like one just past it
    path = tmp_path / "flag.txt"
    path.write_text("kind = pencil\ne = 0, 1, 2, 3\na = 5, 5, 5, 5\n"
                    "support = oo, 5\n")
    out = tmp_path / "report.json"
    code = main(["bm", str(path), "--resolution", "100000000000000000000",
                 "--out", str(out)])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert "5^100000000000000000000 residues, beyond the cap" in err


def _keep_no_row(rows, vec, tag=0):
    # an F_2 insert that reduces every vector to 0 and stores nothing
    return 0, tag


# test id -> (module, helper, broken stand-in, error, message, call): each
# raise guards a fact the package's own helpers guarantee, so only a broken
# helper reaches it
INTERNAL_RAISES = {
    "quotient rank": (
        brauermanin, "f2_insert", _keep_no_row, BrauerManinError,
        "internal rank mismatch: reduced 0 generators, group rank 2",
        lambda: quotient_generators(FLAG)),
    "scan refinement": (
        brauermanin, "_reader", lambda data, v, fibres: lambda t, m: None,
        BrauerManinError, r"the cell 5 mod 5\^4 resisted 2 refinements",
        lambda: obstruction_scan(FLAG, [Place(5)], resolution=2)),
    "bundle reciprocity": (
        delpezzo, "squarefree_class", lambda value: squarefree_class(2),
        DelPezzoError, "fibre classes violate reciprocity",
        lambda: bundle_from_fgh(SplitPolynomial(1, (0,)),
                                SplitPolynomial(1, (1,)),
                                SplitPolynomial(1, (3,)))),
    "f2 certificate": (
        exactnum, "f2_insert", _keep_no_row, AssertionError,
        "elimination found a dependency but enumeration did not",
        lambda: f2_independent([squarefree_class(2), squarefree_class(3)])),
}


@pytest.mark.parametrize("module, helper, broken, error, match, call",
                         list(INTERNAL_RAISES.values()),
                         ids=list(INTERNAL_RAISES))
def test_internal_consistency_raises(monkeypatch, module, helper, broken,
                                     error, match, call):
    monkeypatch.setattr(module, helper, broken)
    with pytest.raises(error, match=match):
        call()
