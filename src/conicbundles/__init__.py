"""Exact arithmetic of conic bundles over Q with rational degenerate fibres:
Brauer group descriptions, local solubility, counting densities for the
associated norm-form systems, and del Pezzo double-cover constructions."""

__version__ = "0.1.0"

from .exactnum import (Place, REAL_PLACE, SquareClass, Verdict,
                       f2_independent, factorize, hilbert, hilbert_support,
                       is_prime, legendre, squarefree_class, valuation)
from .quadform import (BinaryForm, pell_fundamental, representation_count,
                       rho, rho_table, scaling_valid, w)
from .pencil import (BrauerElement, BrauerGroupDescription, ConicBundleData,
                     NormFormSystem, QuadricIntersectionData, ValidationReport,
                     brauer_element, brauer_group, delta,
                     quadric_intersection_system, torsor_system, validate)
from .localsolve import (LocalReport, LocalWitness, diagonal_quadric_soluble,
                         everywhere_locally_soluble, padic_soluble,
                         real_soluble)
from .brauermanin import (AdelicFiberPoint, InvariantVector, LocalParameter,
                          ScanTable, global_point, invariant_vector,
                          local_invariant, obstruction_scan, pairing,
                          quotient_generators)
from .counting import (CountJob, DensityReport, G, beta_infinity, beta_p,
                       enumerate_N, predict_and_compare, region_measure)
from .delpezzo import (BundleReport, DP1ConditionReport, DP1Data,
                       DP1MinimalityReport, DP2Data, IndependenceReport,
                       Quartic, RamificationQuartic, SplitPolynomial,
                       bundle_from_fgh, dp1_condition, dp1_minimality,
                       dp2_minimality, dp2_ramification_quartic,
                       quartic_discriminant)


def __getattr__(name):
    # the batch front end, and argparse with it, loads on first use
    if name in ("main", "run_selftest"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "AdelicFiberPoint", "BinaryForm", "BrauerElement",
    "BrauerGroupDescription", "BundleReport", "ConicBundleData", "CountJob",
    "DP1ConditionReport", "DP1Data", "DP1MinimalityReport", "DP2Data",
    "DensityReport", "G", "IndependenceReport", "InvariantVector",
    "LocalParameter", "LocalReport", "LocalWitness", "NormFormSystem",
    "Place", "QuadricIntersectionData", "Quartic", "REAL_PLACE",
    "RamificationQuartic", "ScanTable", "SplitPolynomial", "SquareClass",
    "ValidationReport", "Verdict", "beta_infinity", "beta_p",
    "brauer_element", "brauer_group", "bundle_from_fgh", "delta",
    "diagonal_quadric_soluble", "dp1_condition", "dp1_minimality",
    "dp2_minimality", "dp2_ramification_quartic", "enumerate_N",
    "everywhere_locally_soluble", "f2_independent", "factorize",
    "global_point", "hilbert", "hilbert_support", "invariant_vector",
    "is_prime", "legendre", "local_invariant", "main", "obstruction_scan",
    "padic_soluble", "pairing", "pell_fundamental", "predict_and_compare",
    "quadric_intersection_system", "quartic_discriminant",
    "quotient_generators", "real_soluble", "region_measure",
    "representation_count", "rho", "rho_table", "run_selftest",
    "scaling_valid", "squarefree_class", "torsor_system",
    "validate", "valuation", "w",
]
