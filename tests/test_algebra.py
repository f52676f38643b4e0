import random
from fractions import Fraction

import pytest

from liegeom import algebra
from liegeom.algebra import MetricLieAlgebra, SingularMetric, mat_inv, mat_mul, vector_str
from liegeom.scalars import EPS, ONE, ZERO, parse_scalar, ratfunc

from test_solvers import DENSE, _sympy_ratfunc
from test_tensor_reference import corpus_case
import test_properties


def smat(rows):
    return [[str(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# construction and validation


def test_from_brackets_fills_antisymmetry(berger_alg):
    C = berger_alg.brackets
    assert C[0][1][2] == 2 and C[1][0][2] == -2
    assert C[1][2][0] == 2 and C[2][1][0] == -2
    assert C[0][2][1] == -2 and C[2][0][1] == 2


def test_catalog_algebras_validate(berger_alg, abelian_alg):
    assert berger_alg.validate() == []
    assert abelian_alg.validate() == []


def test_antisymmetry_violation_reported_once():
    # built directly, past the antisymmetric fill-in of `from_brackets`:
    # [X1,X2] = X1 but [X2,X1] = 0, and [X1,X1] = X2
    def brackets(broken):
        C = [[[ZERO, ZERO] for _ in range(2)] for _ in range(2)]
        for i, j, k in broken:
            C[i][j][k] = ONE
        return tuple(tuple(tuple(row) for row in plane) for plane in C)
    identity = ((ONE, ZERO), (ZERO, ONE))
    alg = MetricLieAlgebra("broken", 2, brackets([(0, 1, 0)]), identity)
    assert [str(v) for v in alg.validate()] == [
        "antisymmetry: [X1,X2] and [X2,X1] disagree in the X1 component",
    ]
    alg = MetricLieAlgebra("broken", 2, brackets([(0, 0, 1)]), identity)
    assert [str(v) for v in alg.validate()] == [
        "antisymmetry: [X1,X1] and [X1,X1] disagree in the X2 component",
    ]


def test_jacobi_violation_detected():
    # su(2) with [X3,X1] = 2 X2 + X3 breaks the cyclic identity
    alg = MetricLieAlgebra.from_brackets(
        3,
        {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2, 2: -1}},
        [[EPS, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
    )
    laws = {v.law for v in alg.validate()}
    assert laws == {"jacobi"}
    assert [str(v) for v in alg.validate()] == [
        "jacobi: cyclic bracket sum on (X1,X2,X3) has nonzero X1 component 2",
    ]
    # the violations are computed once, and each call hands out a fresh list
    first = alg.validate()
    first.clear()
    assert len(alg.validate()) == 1 and alg.validate() is not alg.validate()


def test_jacobi_violation_messages_4d():
    # every nonzero component of every cyclic sum, in order, with its value
    alg = MetricLieAlgebra.from_brackets(
        4,
        {(0, 1): {2: 1, 3: 1}, (0, 2): {1: -1, 3: "eps"}, (1, 2): {0: 1, 3: -1},
         (2, 3): {1: 2}, (1, 3): {2: "1/eps"}, (0, 3): {0: 3}},
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "eps", 0], [0, 0, 0, 1]],
    )
    prefix = "jacobi: cyclic bracket sum on"
    assert [str(v) for v in alg.validate()] == [
        f"{prefix} (X1,X2,X3) has nonzero X1 component -3",
        f"{prefix} (X1,X2,X3) has nonzero X2 component 2",
        f"{prefix} (X1,X2,X3) has nonzero X3 component -1",
        f"{prefix} (X1,X2,X4) has nonzero X2 component (-1-2*eps)/eps",
        f"{prefix} (X1,X2,X4) has nonzero X3 component 3",
        f"{prefix} (X1,X2,X4) has nonzero X4 component 4",
        f"{prefix} (X1,X3,X4) has nonzero X2 component -3",
        f"{prefix} (X1,X3,X4) has nonzero X3 component (1+2*eps)/eps",
        f"{prefix} (X1,X3,X4) has nonzero X4 component 2+3*eps",
        f"{prefix} (X2,X3,X4) has nonzero X1 component -3",
    ]


def test_scaling_one_bracket_keeps_jacobi():
    # each double bracket lands back on the generator it kills
    alg = MetricLieAlgebra.from_brackets(
        3,
        {(0, 1): {2: 2}, (1, 2): {0: 3}, (0, 2): {1: -2}},
        [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
    )
    assert alg.validate() == []


def test_metric_violations_detected():
    asym = MetricLieAlgebra.from_brackets(
        2, {}, [[ONE, ONE], [ZERO, ONE]])
    assert {v.law for v in asym.validate()} == {"metric-symmetry"}
    degenerate = MetricLieAlgebra.from_brackets(
        2, {}, [[ONE, ZERO], [ZERO, ZERO]])
    assert {v.law for v in degenerate.validate()} == {"metric-nondegenerate"}


def test_dimension_range_enforced():
    with pytest.raises(ValueError):
        MetricLieAlgebra.from_brackets(
            5, {}, [[ONE if i == j else ZERO for j in range(5)] for i in range(5)])


def test_constructors_refuse_mismatched_shapes():
    identity = [[ONE, ZERO], [ZERO, ONE]]
    zero_planes = ((ZERO, ZERO), (ZERO, ZERO))
    with pytest.raises(ValueError, match="tensor shapes do not match the dimension"):
        MetricLieAlgebra("bad", 2, (zero_planes,), tuple(map(tuple, identity)))
    with pytest.raises(ValueError, match=r"bracket key \(1, 0\) must satisfy 0 <= i < j < dim"):
        MetricLieAlgebra.from_brackets(2, {(1, 0): {0: 1}}, identity)
    with pytest.raises(ValueError, match="metric must be a dim x dim matrix"):
        MetricLieAlgebra.from_brackets(2, {}, [[ONE], [ONE]])


@pytest.mark.parametrize("k", [-1, 3])
def test_from_brackets_refuses_a_component_out_of_range(k):
    # a negative index would wrap to X3, and 3 would be past the last one
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match=rf"bracket component {k} must satisfy 0 <= k < dim"):
        MetricLieAlgebra.from_brackets(3, {(0, 1): {k: 2}}, identity)


def test_singular_parameters(berger_alg, abelian_alg):
    assert berger_alg.singular_parameters() == [Fraction(0)]
    assert abelian_alg.singular_parameters() == []


# ---------------------------------------------------------------------------
# connection


def test_covariant_derivative_table(berger_alg):
    K = berger_alg.nabla_basis
    expect = {
        (0, 1): "(2-eps)*X3",
        (0, 2): "(-2+eps)*X2",
        (1, 0): "-eps*X3",
        (1, 2): "X1",
        (2, 0): "eps*X2",
        (2, 1): "-X1",
    }
    for i in range(3):
        for j in range(3):
            got = vector_str(K[i][j])
            assert got == expect.get((i, j), "0"), (i, j, got)


def test_connection_operators(berger_alg):
    ops = berger_alg.connection_operators
    assert smat(ops[0]) == [["0", "0", "0"], ["0", "0", "-2+eps"], ["0", "2-eps", "0"]]
    assert smat(ops[1]) == [["0", "0", "1"], ["0", "0", "0"], ["-eps", "0", "0"]]
    assert smat(ops[2]) == [["0", "-1", "0"], ["eps", "0", "0"], ["0", "0", "0"]]


def test_connection_is_torsion_free_and_metric(berger_alg):
    alg = berger_alg
    K = alg.nabla_basis
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert K[i][j][k] - K[j][i][k] == alg.brackets[i][j][k]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                ej = [ONE if m == j else ZERO for m in range(3)]
                ek = [ONE if m == k else ZERO for m in range(3)]
                assert alg.inner(K[i][j], ek) + alg.inner(ej, K[i][k]) == ZERO


# ---------------------------------------------------------------------------
# curvature and Ricci


def test_curvature_operators(berger_alg):
    alg = berger_alg
    assert smat(alg.curvature_operator(0, 1)) == [
        ["0", "-eps", "0"], ["eps^2", "0", "0"], ["0", "0", "0"]]
    assert smat(alg.curvature_operator(0, 2)) == [
        ["0", "0", "-eps"], ["0", "0", "0"], ["eps^2", "0", "0"]]
    assert smat(alg.curvature_operator(1, 2)) == [
        ["0", "0", "0"], ["0", "0", "-4+3*eps"], ["0", "4-3*eps", "0"]]


def test_curvature_components(berger_alg):
    R4 = berger_alg.curvature_tensor
    assert str(R4[0][1][0][1]) == "eps^2"
    assert str(R4[0][2][0][2]) == "eps^2"
    assert str(R4[1][2][1][2]) == "4-3*eps"
    # antisymmetry in both index pairs
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    assert R4[i][j][k][l] == -R4[j][i][k][l]
                    assert R4[i][j][k][l] == -R4[i][j][l][k]
                    assert R4[i][j][k][l] == R4[k][l][i][j]


def test_ricci_and_scalar_curvature(berger_alg):
    assert smat(berger_alg.ricci) == [
        ["2*eps^2", "0", "0"],
        ["0", "4-2*eps", "0"],
        ["0", "0", "4-2*eps"],
    ]
    assert str(berger_alg.scalar_curvature) == "8-2*eps"


def test_round_metric_is_einstein(berger_alg):
    round_sphere = berger_alg.at_eps(Fraction(1))
    for i in range(3):
        for j in range(3):
            assert round_sphere.ricci[i][j] == 2 * round_sphere.metric[i][j]
    assert round_sphere.scalar_curvature == parse_scalar("6")


def test_at_eps_lorentzian_slice(berger_alg):
    alg = berger_alg.at_eps(Fraction(-1))
    assert alg.metric_det == parse_scalar("-1")
    assert smat(alg.ricci) == [["2", "0", "0"], ["0", "6", "0"], ["0", "0", "6"]]


MILNOR_LAMBDAS = (ZERO, ONE, -ONE, 2 * ONE, -2 * ONE, EPS, -EPS, EPS + 1)
MILNOR_METRIC = (ONE, -ONE, 2 * ONE, EPS, -EPS, EPS * EPS, EPS + 1)


def test_unimodular_ricci_matches_milnor():
    # Milnor (Adv. Math. 21, 1976, section 4): with [X2,X3] = l1 X1,
    # [X3,X1] = l2 X2, [X1,X2] = l3 X3 and g = diag(a1, a2, a3), ric is
    # diagonal with ric(X1,X1) = (a1/2)(l1^2 a1/(a2 a3) - l2^2 a2/(a3 a1)
    # - l3^2 a3/(a1 a2) + 2 l2 l3/a1), and cyclically; an identity in
    # Q(a, l), so it holds in every signature
    rng = random.Random(20261019)
    for _ in range(150):
        lam = [rng.choice(MILNOR_LAMBDAS) for _ in range(3)]
        a = [rng.choice(MILNOR_METRIC) for _ in range(3)]
        alg = MetricLieAlgebra.from_brackets(
            3, {(1, 2): {0: lam[0]}, (0, 2): {1: -lam[1]}, (0, 1): {2: lam[2]}},
            [[a[i] if i == j else ZERO for j in range(3)] for i in range(3)])
        expected = [[ZERO] * 3 for _ in range(3)]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            expected[i][i] = a[i] / 2 * (
                lam[i] ** 2 * a[i] / (a[j] * a[k]) - lam[j] ** 2 * a[j] / (a[k] * a[i])
                - lam[k] ** 2 * a[k] / (a[i] * a[j]) + 2 * lam[j] * lam[k] / a[i])
        assert alg.ricci == expected, (lam, a)


def test_abelian_is_flat(abelian_alg):
    R4 = abelian_alg.curvature_tensor
    assert all(
        R4[i][j][k][l] == ZERO
        for i in range(3) for j in range(3) for k in range(3) for l in range(3))
    assert abelian_alg.scalar_curvature == ZERO


# ---------------------------------------------------------------------------
# basis changes


P = [[1, 0, 0], [0, 1, 1], [0, 1, -1]]


def test_transform_basis_preserves_invariants(berger_alg):
    moved = berger_alg.transform_basis(P)
    assert moved.validate() == []
    assert moved.scalar_curvature == berger_alg.scalar_curvature
    assert moved.metric[1][1] == parse_scalar("2")


def test_transform_basis_round_trip(berger_alg):
    Pr = [[ratfunc(x) for x in row] for row in P]
    back = berger_alg.transform_basis(Pr).transform_basis(mat_inv(Pr))
    assert back.brackets == berger_alg.brackets
    assert back.metric == berger_alg.metric


def test_transform_basis_moves_ricci_covariantly(berger_alg):
    moved = berger_alg.transform_basis(P)
    rho = berger_alg.ricci
    n = 3
    expect = [
        [
            sum((rho[r][s] * P[r][i] * P[s][j] for r in range(n) for s in range(n)),
                start=ZERO)
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert moved.ricci == expect


# ---------------------------------------------------------------------------
# small helpers


def test_vector_str():
    assert vector_str([ONE, ZERO, ZERO]) == "X1"
    assert vector_str([-ONE, ZERO, 2 * ONE]) == "-X1+2*X3"
    assert vector_str([parse_scalar("2-eps"), ZERO, ZERO]) == "(2-eps)*X1"
    assert vector_str([ZERO, ZERO, ZERO]) == "0"


def test_singular_metric_raised():
    alg = MetricLieAlgebra.from_brackets(
        2, {}, [[EPS, ZERO], [ZERO, EPS]])
    assert alg.singular_parameters() == [Fraction(0)]
    with pytest.raises(SingularMetric):
        mat_inv([[ZERO, ZERO], [ZERO, ZERO]])


# ---------------------------------------------------------------------------
# the inverse by one elimination

INVERSE_SEEDS = (None, 1, 2, 3, 23)
CORPUS_KEYS = list(test_properties.corpus.TEXTS)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def inverse_cases(corpus_alg):
    """The 45 corpus metrics, unmixed and under mixing seeds 1, 2, 3 and 23,
    then the 20 dense matrices of `test_solvers`."""
    metrics = [[list(row) for row in corpus_case(corpus_alg, key, seed).metric]
               for key in CORPUS_KEYS for seed in INVERSE_SEEDS]
    return metrics + DENSE


def test_mat_inv_is_the_inverse(corpus_alg):
    cases = inverse_cases(corpus_alg)
    assert len(cases) == 65
    for A in cases:
        assert mat_mul(A, mat_inv(A)) == identity(len(A))


def test_mat_inv_matches_sympy(corpus_alg):
    sympy = pytest.importorskip("sympy")
    eps = sympy.Symbol("eps")
    for A in inverse_cases(corpus_alg):
        expect = sympy.Matrix([[_sympy_ratfunc(sympy, eps, x) for x in row] for row in A]).inv()
        ours = mat_inv(A)
        assert all(sympy.cancel(_sympy_ratfunc(sympy, eps, x) - expect[i, j]) == 0
                   for i, row in enumerate(ours) for j, x in enumerate(row))


@pytest.mark.parametrize("rows", [
    [["eps", 1], ["eps^2", "eps"]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[1, 1], [1, 1]],
])
def test_mat_inv_refuses_singular_matrices_without_zero_entries(rows):
    A = [[ratfunc(x) for x in row] for row in rows]
    assert not any(x.is_zero for row in A for x in row)
    with pytest.raises(SingularMetric):
        mat_inv(A)


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_transform_basis_round_trip_on_the_corpus(corpus_alg, key):
    alg = corpus_alg(key)
    for seed in INVERSE_SEEDS[1:]:
        P = [[ratfunc(x) for x in row]
             for row in test_properties.corpus.mixing_matrix(random.Random(seed), alg.dim)]
        back = alg.transform_basis(P).transform_basis(mat_inv(P))
        assert back.brackets == alg.brackets
        assert back.metric == alg.metric


def test_metric_inverse_computes_no_determinant(monkeypatch, corpus_alg):
    # mat_inv forms no determinant, so metric_det (cached) is the only one
    # an algebra computes; minors of the Laplace expansion are not counted
    calls = []
    laplace = algebra.mat_det

    def counting(a):
        calls.append(len(a))
        return laplace(a)

    monkeypatch.setattr(algebra, "mat_det", counting)
    for key in CORPUS_KEYS:
        for seed in INVERSE_SEEDS:
            case = corpus_case(corpus_alg, key, seed)
            alg = MetricLieAlgebra(case.name, case.dim, case.brackets, case.metric)
            calls.clear()
            assert mat_mul([list(r) for r in alg.metric], alg.metric_inverse) == identity(alg.dim)
            assert calls == []
            alg.validate(), alg.singular_parameters(), alg.nabla_basis
            assert calls.count(alg.dim) == 1
