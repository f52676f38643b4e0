"""The public surface of `liegeom`, written out: a name that leaves or joins
`__all__` has to leave or join this list too."""

import liegeom

PUBLIC_API = {
    # algebra and catalog
    "MetricLieAlgebra", "SingularMetric", "Violation", "vector_str",
    "CatalogEntry", "ParseError", "ReferenceNote", "ValidationFailed",
    "abelian_control", "berger", "catalog", "dumps", "load", "loads",
    # geometry
    "CaseAnalysisIncomplete", "EinsteinVerdict", "EnergyReport",
    "GeodesicClassification", "HarmonicityReport", "KillingVerdict",
    "LedgerReport", "SolitonVerdict", "WalkerVerdict", "einstein_check",
    "energy_density", "energy_report", "geodesic_check", "geodesic_classify",
    "grad_norm_sq", "harmonicity_classify", "killing_solve", "ledger_check",
    "ricci_soliton_solve", "rough_laplacian", "solve_zero_set", "walker_check",
    # numeric
    "NumericModel", "SingularMetricAtPoint", "evaluate_numeric", "null_parallel_scan",
    # scalars
    "DivisionByZeroFunction", "PoleAtEvaluationPoint", "RatFunc",
    "ScalarSyntaxError", "EPS", "parse_scalar", "scalar_str",
    # solvers
    "EigenDecomposition", "EigenPair", "ParametricSolution", "eigen_analyze",
    "solve_parametric",
    "__version__",
}


def test_public_api_is_pinned():
    assert len(liegeom.__all__) == len(set(liegeom.__all__))
    assert set(liegeom.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 53


def test_every_public_name_imports():
    # a star import fails on a name in `__all__` that the package lacks
    namespace = {}
    exec("from liegeom import *", namespace)
    assert PUBLIC_API <= set(namespace)


def test_removed_names_stay_removed():
    # the dense and the sparse polynomial classes and the Fraction alias
    # left the package
    for name in ("Poly", "MultiPoly", "Rational"):
        assert not hasattr(liegeom, name)
        assert not hasattr(liegeom.scalars, name)
