import random
from fractions import Fraction

import pytest

from liegeom import algebra
from liegeom.algebra import (
    MetricLieAlgebra, SingularMetric, ValidationFailed, _entry, _view, _zdet, _zinverse,
    vector_str)
from liegeom.catalog import dumps
from liegeom.scalars import EPS, ONE, ZERO, _clear, _zpow, parse_scalar, ratfunc, record

from poly_reference import mat_det, mat_inv, mat_mul, transform_basis
from test_solvers import DENSE, _sympy_ratfunc
from test_tensor_reference import ALMOST_ABELIAN_SAMPLE, corpus_case
import test_properties


def smat(rows):
    return [[str(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# records: `scalars.record` gives every result class its methods


@record
class Pair:
    left: int
    right: object = None


@record
class Twin:  # the fields of Pair, and a repr of its own
    left: int
    right: object = None

    def __repr__(self):
        return "twin"


@record(frozen=True)
class Key:
    name: str
    parts: tuple = ()


def test_record_takes_fields_by_position_keyword_and_default():
    assert vars(Pair(1, 2)) == {"left": 1, "right": 2}
    assert vars(Pair(right=2, left=1)) == {"left": 1, "right": 2}
    assert vars(Pair(1, right=2)) == {"left": 1, "right": 2}
    assert Pair(right=2, left=1) == Pair(1, right=2) == Pair(1, 2)
    assert Pair(1).right is None and Pair(left=1).right is None
    assert Key("k").parts == () and Key("k", parts=(1,)).parts == (1,)
    assert Pair.__match_args__ == ("left", "right")
    match Pair(1, 2):
        case Pair(left, right=r):
            assert (left, r) == (1, 2)


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, r"Pair\(\) missing required argument\(s\): 'left'"),
    ((), {"right": 2}, r"Pair\(\) missing required argument\(s\): 'left'"),
    ((1,), {"middle": 2}, r"Pair\(\) got an unexpected keyword argument 'middle'"),
    ((1,), {"left": 2}, r"Pair\(\) got multiple values for argument 'left'"),
    ((1, 2, 3), {}, r"Pair\(\) takes 2 positional arguments but 3 were given"),
])
def test_record_refuses_a_missing_unknown_or_repeated_field(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_record_defaults_trail():
    with pytest.raises(TypeError, match="a field without a default follows one with a default"):
        @record
        class Broken:
            first: int = 0
            second: int


def test_record_equality_and_repr():
    assert Pair(1, [2]) == Pair(1, [2]) and Pair(1, 2) != Pair(1, 3)
    # the same fields in another class are not equal
    assert Pair(1, 2) != Twin(1, 2) and Twin(1, 2) != Pair(1, 2)
    assert Pair(1, 2).__eq__(Twin(1, 2)) is NotImplemented
    assert repr(Pair(1, "x")) == "Pair(left=1, right='x')"
    assert repr(Key("k", (1,))) == "Key(name='k', parts=(1,))"
    assert repr(Twin(1, 2)) == "twin"


def test_frozen_record_refuses_assignment_and_hashes_its_fields():
    key = Key("k", (1,))
    with pytest.raises(AttributeError, match="cannot set attribute 'name' of frozen Key"):
        key.name = "other"
    with pytest.raises(AttributeError, match="cannot delete attribute 'name' of frozen Key"):
        del key.name
    assert key.name == "k"
    assert hash(key) == hash(Key("k", (1,))) and {key: 1}[Key("k", (1,))] == 1


def test_a_mutable_record_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(Pair(1, 2))
    pair = Pair(1, 2)
    pair.right = 3
    assert pair == Pair(1, 3)


def test_a_frozen_algebra_keeps_its_cached_tensors(berger_alg):
    alg = MetricLieAlgebra(berger_alg.name, berger_alg.dim, berger_alg.brackets,
                           berger_alg.metric)
    assert alg == berger_alg and hash(alg) == hash(berger_alg)
    ricci = alg.ricci
    assert alg.__dict__["ricci"] is ricci and alg.ricci is ricci
    with pytest.raises(AttributeError, match="cannot set attribute 'ricci'"):
        alg.ricci = None
    assert alg.ricci is ricci


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


def refusal(build, *args, **kwargs) -> ValidationFailed:
    """The ValidationFailed that `build(*args, **kwargs)` raises."""
    with pytest.raises(ValidationFailed) as exc:
        build(*args, **kwargs)
    return exc.value


def test_antisymmetry_violation_reported_once():
    # built directly, past the antisymmetric fill-in of `from_brackets`:
    # [X1,X2] = X1 but [X2,X1] = 0, and [X1,X1] = X2
    def brackets(broken):
        C = [[[ZERO, ZERO] for _ in range(2)] for _ in range(2)]
        for i, j, k in broken:
            C[i][j][k] = ONE
        return tuple(tuple(tuple(row) for row in plane) for plane in C)
    identity = ((ONE, ZERO), (ZERO, ONE))
    failure = refusal(MetricLieAlgebra, "broken", 2, brackets([(0, 1, 0)]), identity)
    assert (failure.name, failure.dim) == ("broken", 2)
    assert [str(v) for v in failure.violations] == [
        "antisymmetry: [X1,X2] and [X2,X1] disagree in the X1 component",
    ]
    failure = refusal(MetricLieAlgebra, "broken", 2, brackets([(0, 0, 1)]), identity)
    assert [str(v) for v in failure.violations] == [
        "antisymmetry: [X1,X1] and [X1,X1] disagree in the X2 component",
    ]


def test_jacobi_violation_detected():
    # su(2) with [X3,X1] = 2 X2 + X3 breaks the cyclic identity
    failure = refusal(
        MetricLieAlgebra.from_brackets,
        3,
        {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2, 2: -1}},
        [[EPS, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
    )
    assert (failure.name, failure.dim) == ("unnamed", 3)
    assert {v.law for v in failure.violations} == {"jacobi"}
    assert [str(v) for v in failure.violations] == [
        "jacobi: cyclic bracket sum on (X1,X2,X3) has nonzero X1 component 2",
    ]
    assert str(failure) == ("algebra data is not a metric Lie algebra: "
                            + str(failure.violations[0]))


def test_jacobi_violation_messages_4d():
    # every nonzero component of every cyclic sum, in order, with its value
    failure = refusal(
        MetricLieAlgebra.from_brackets,
        4,
        {(0, 1): {2: 1, 3: 1}, (0, 2): {1: -1, 3: "eps"}, (1, 2): {0: 1, 3: -1},
         (2, 3): {1: 2}, (1, 3): {2: "1/eps"}, (0, 3): {0: 3}},
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "eps", 0], [0, 0, 0, 1]],
    )
    prefix = "jacobi: cyclic bracket sum on"
    assert [str(v) for v in failure.violations] == [
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
    asym = refusal(MetricLieAlgebra.from_brackets, 2, {}, [[ONE, ONE], [ZERO, ONE]])
    assert {v.law for v in asym.violations} == {"metric-symmetry"}
    degenerate = refusal(MetricLieAlgebra.from_brackets, 2, {}, [[ONE, ZERO], [ZERO, ZERO]])
    assert {v.law for v in degenerate.violations} == {"metric-nondegenerate"}


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


def test_the_constructor_refuses_ragged_rows():
    # the inner rows are checked too, before `validate` reads them
    identity = ((ONE, ZERO), (ZERO, ONE))
    zero_planes = ((ZERO, ZERO), (ZERO, ZERO))
    for brackets, metric in [(((ONE,), (ONE,)), identity),
                             ((ONE, ONE), identity),
                             ((zero_planes[0], (ZERO,)), identity),
                             ((zero_planes, zero_planes), ((ONE,), (ZERO, ONE))),
                             ((zero_planes, zero_planes), (ONE, ONE))]:
        with pytest.raises(ValueError, match="tensor shapes do not match the dimension"):
            MetricLieAlgebra("ragged", 2, brackets, metric)


def test_the_shape_check_runs_for_keyword_construction():
    with pytest.raises(ValueError, match="tensor shapes do not match the dimension"):
        MetricLieAlgebra(name="bad", dim=2, brackets=(), metric=())
    with pytest.raises(ValueError, match="dimension 5 not in 1..4"):
        MetricLieAlgebra("bad", metric=(), brackets=(), dim=5)


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
    with pytest.raises(SingularMetric, match="matrix determinant is identically zero"):
        engine_inverse([[ZERO, ZERO], [ZERO, ZERO]])


# ---------------------------------------------------------------------------
# det and inverse on the integer forms, against the `RatFunc` oracles

INVERSE_SEEDS = (None, 1, 2, 3, 23)
CORPUS_KEYS = list(test_properties.corpus.TEXTS)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def engine_det(A):
    """det A of a `RatFunc` matrix on the engine's route: `_zdet` of A
    cleared to N / d, over d^n."""
    N, d = _clear(A)
    return _entry(_zdet(N), _zpow(d, len(A)))


def engine_inverse(A):
    """A^{-1} of a `RatFunc` matrix on the engine's route (`_zinverse`)."""
    N, d = _clear(A)
    return _view(*_zinverse(N, d, _zdet(N)))


def inverse_cases(corpus_alg):
    """The 45 corpus metrics, unmixed and under mixing seeds 1, 2, 3 and 23,
    then the 20 dense matrices of `test_solvers`."""
    metrics = [[list(row) for row in corpus_case(corpus_alg, key, seed).metric]
               for key in CORPUS_KEYS for seed in INVERSE_SEEDS]
    return metrics + DENSE


def test_inverse_is_the_inverse(corpus_alg):
    cases = inverse_cases(corpus_alg)
    assert len(cases) == 65
    for A in cases:
        assert mat_mul(A, engine_inverse(A)) == identity(len(A))


def test_inverse_matches_sympy(corpus_alg):
    sympy = pytest.importorskip("sympy")
    eps = sympy.Symbol("eps")
    for A in inverse_cases(corpus_alg):
        expect = sympy.Matrix([[_sympy_ratfunc(sympy, eps, x) for x in row] for row in A]).inv()
        ours = engine_inverse(A)
        assert all(sympy.cancel(_sympy_ratfunc(sympy, eps, x) - expect[i, j]) == 0
                   for i, row in enumerate(ours) for j, x in enumerate(row))


@pytest.mark.parametrize("rows", [
    [["eps", 1], ["eps^2", "eps"]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[1, 1], [1, 1]],
])
def test_inverse_refuses_singular_matrices_without_zero_entries(rows):
    A = [[ratfunc(x) for x in row] for row in rows]
    assert not any(x.is_zero for row in A for x in row)
    with pytest.raises(SingularMetric, match="matrix determinant is identically zero"):
        engine_inverse(A)


@pytest.mark.parametrize("rows", [
    [[0]],
    [[1, 0], ["eps", 0]],
    [["eps", 0, 1], [0, 0, 0], [1, 0, "eps"]],
    [[1, 0, 0, 0], [0, "eps", 1, 0], [0, "eps^2", "eps", 0], [0, 0, 0, 1]],
])
def test_inverse_refuses_singular_matrices_with_zero_entries(rows):
    A = [[ratfunc(x) for x in row] for row in rows]
    with pytest.raises(SingularMetric, match="matrix determinant is identically zero"):
        engine_inverse(A)


def oracle_metrics(corpus_alg):
    """The metrics of the corpus and its mixed copies under seeds 1-3,
    `GENERATED`, `ALMOST_ABELIAN_SAMPLE` and a 1 x 1 algebra."""
    algebras = [corpus_case(corpus_alg, key, seed) for key in CORPUS_KEYS
                for seed in (None, 1, 2, 3)]
    algebras += list(test_properties.GENERATED.values()) + ALMOST_ABELIAN_SAMPLE
    algebras.append(MetricLieAlgebra.from_brackets(1, {}, [["-2/3*eps"]], name="line"))
    return algebras


def test_det_and_inverse_match_the_oracles(corpus_alg):
    algebras = oracle_metrics(corpus_alg)
    assert len(algebras) == 36 + len(test_properties.GENERATED) + 32 + 1
    for alg in algebras:
        G = [list(row) for row in alg.metric]
        assert engine_det(G) == mat_det(G) == alg.metric_det, alg.name
        assert engine_inverse(G) == mat_inv(G) == _view(*alg._zmetric_inverse), alg.name
        assert alg._zmetric_inverse[1][-1] > 0  # a denominator of the tensor layer
    assert {alg.metric_det.is_constant and alg.metric_det.constant_value() < 0
            for alg in algebras} == {True, False}


def test_an_algebra_forms_one_full_size_determinant(monkeypatch, corpus_alg):
    # metric_det, g^{-1} and the constructor's check share one cached `_zdet`
    # of the cleared metric: one of full size (besides its Laplace minors and
    # the cofactors of the adjugate) while the algebra is built, none after
    calls = []
    laplace = algebra._zdet

    def counting(N):
        calls.append(len(N))
        return laplace(N)

    monkeypatch.setattr(algebra, "_zdet", counting)
    for key in CORPUS_KEYS:
        for seed in INVERSE_SEEDS:
            case = corpus_case(corpus_alg, key, seed)
            calls.clear()
            alg = MetricLieAlgebra(case.name, case.dim, case.brackets, case.metric)
            assert calls.count(alg.dim) == 1
            alg.nabla_basis
            assert calls.count(alg.dim) == 1
            built = len(calls)
            assert mat_mul([list(r) for r in alg.metric],
                           _view(*alg._zmetric_inverse)) == identity(alg.dim)
            alg.singular_parameters(), alg.metric_det, alg.scalar_curvature, alg.rough_laplacian
            assert len(calls) == built


# ---------------------------------------------------------------------------
# the basis change on the integer forms, against the `RatFunc` reference

P_ENTRIES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), "eps", "1+eps", "-eps^2")


def seeded_basis_changes(key, n):
    """Six P for one algebra: one with rational entries, two with entries
    in eps, one `corpus.mixing_matrix`, and two with a duplicated row (one
    in eps, one unimodular but for that row), which are singular."""
    rng = random.Random(f"{key}-basis-change")
    mixing = test_properties.corpus.mixing_matrix
    out = [[[rng.choice(entries) for _ in range(n)] for _ in range(n)]
           for entries in (P_ENTRIES[:7], P_ENTRIES, P_ENTRIES, P_ENTRIES)]
    out[-1][-1] = out[-1][0]
    out += [mixing(rng, n), mixing(rng, n)]
    out[-1][0] = out[-1][-1]
    return out


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_transform_basis_matches_the_reference(corpus_alg, key):
    alg = corpus_alg(key)
    refused = 0
    for P in seeded_basis_changes(key, alg.dim):
        try:
            want = dumps(transform_basis(alg, P, name="moved"))
        except SingularMetric as exc:
            with pytest.raises(SingularMetric) as got:
                alg.transform_basis(P, name="moved")
            assert str(got.value) == str(exc)
            refused += 1
            continue
        assert dumps(alg.transform_basis(P, name="moved")) == want
    assert 2 <= refused <= 4


@pytest.mark.parametrize("P", [
    [[1, 0, 0], [0, 1, 0]],
    [[1, 0], [0, 1], [0, 0]],
    [[1, 0, 0], [0, 1], [0, 0, 1]],
    [],
], ids=["2x3", "3x2", "ragged", "empty"])
def test_transform_basis_refuses_a_matrix_of_the_wrong_shape(berger_alg, P):
    with pytest.raises(ValueError, match="basis change must be a dim x dim matrix"):
        berger_alg.transform_basis(P)


def test_transform_basis_refuses_a_singular_square_matrix(berger_alg):
    with pytest.raises(SingularMetric, match="matrix determinant is identically zero"):
        berger_alg.transform_basis([[1, 0, 1], [0, "eps", 0], [2, 0, 2]])


def test_transform_basis_of_a_line():
    line = MetricLieAlgebra.from_brackets(1, {}, [["eps"]], name="line")
    moved = line.transform_basis([["2/eps"]])
    assert moved.metric == ((parse_scalar("4/eps"),),)
    assert moved.transform_basis([["eps/2"]]).metric == line.metric


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_transform_basis_round_trip_on_the_corpus(corpus_alg, key):
    alg = corpus_alg(key)
    for seed in INVERSE_SEEDS[1:]:
        P = [[ratfunc(x) for x in row]
             for row in test_properties.corpus.mixing_matrix(random.Random(seed), alg.dim)]
        back = alg.transform_basis(P).transform_basis(mat_inv(P))
        assert back.brackets == alg.brackets
        assert back.metric == alg.metric
