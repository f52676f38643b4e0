import math
import random
import zlib
from fractions import Fraction

import numpy as np
import pytest

from liegeom import numeric
from liegeom.algebra import MetricLieAlgebra
from liegeom.geometry import energy_report, walker_check
from liegeom.numeric import (
    OutsideFloatRange,
    SingularMetricAtPoint,
    evaluate_numeric,
    null_parallel_scan,
)
from liegeom.scalars import EPS, ONE, ZERO

import test_properties


def F(*parts):
    return Fraction(*parts)


def test_riemannian_round_sphere(berger_alg):
    m = evaluate_numeric(berger_alg, F(1))
    assert m.signature == "Riemannian"
    assert m.signs == (1, 1, 1)
    assert np.allclose(m.ricci, 2 * np.eye(3))
    assert math.isclose(m.scalar_curvature, 6.0)
    assert np.allclose(m.laplacian_eigenvalues, [-2.0, -2.0, -2.0])


def test_lorentzian_slice(berger_alg):
    m = evaluate_numeric(berger_alg, F(-1))
    assert m.signature == "Lorentzian"
    assert m.signs == (-1, 1, 1)
    assert math.isclose(m.scalar_curvature, 10.0)
    assert np.allclose(m.laplacian_eigenvalues, [2.0, 10.0, 10.0])


def test_frame_is_orthonormal(berger_alg):
    for eps0 in (F(4), F(-3), F(1, 2)):
        m = evaluate_numeric(berger_alg, eps0)
        gram = m.frame.T @ m.metric @ m.frame
        assert np.allclose(gram, np.diag(m.signs), atol=1e-12)


def test_diagonal_metric_frame_is_scaled_basis(berger_alg):
    m = evaluate_numeric(berger_alg, F(4))
    assert np.allclose(m.frame, np.diag([0.5, 1.0, 1.0]))


def frame_grad_norm_sq(model, coords) -> float:
    """|nabla V|^2 = sum_a s_a g(nabla_{e_a} V, nabla_{e_a} V) in the
    orthonormal frame of the float model; equals the X-basis contraction
    with the inverse metric."""
    v = np.asarray(coords, dtype=float)
    total = 0.0
    for a in range(model.dim):
        ea = model.frame[:, a]
        dV = np.einsum("i,ijk,j->k", ea, model.nabla, v)
        total += model.signs[a] * float(dV @ model.metric @ dV)
    return total


def test_grad_norm_and_energy(berger_alg):
    m = evaluate_numeric(berger_alg, F(4))
    # V = e1 = X1/2; exact gradient square is 2 eps^2 alpha^2 = 8
    g = frame_grad_norm_sq(m, [0.5, 0.0, 0.0])
    assert math.isclose(g, 8.0, rel_tol=1e-12)
    # the exact energy density there is n/2 + g/2
    V = [F(1, 2), F(0), F(0)]
    density = energy_report(berger_alg).density_generic
    exact = sum(c.eval(F(4)) * math.prod(V[i] for i in key) for key, c in density.items())
    assert math.isclose(exact, 1.5 + g / 2, rel_tol=1e-12)


def test_singular_point_rejected(berger_alg):
    with pytest.raises(SingularMetricAtPoint):
        evaluate_numeric(berger_alg, F(0))


def test_nearly_singular_metric_is_refused():
    # determinant 10^-12 at every eps: exactly nondegenerate, but its
    # smaller float eigenvalue is below the frame tolerance
    alg = MetricLieAlgebra.from_brackets(2, {}, [[1, 1], [1, 1 + F(1, 10**12)]])
    with pytest.raises(SingularMetricAtPoint) as exc:
        evaluate_numeric(alg, F(1))
    assert str(exc.value) == "metric eigenvalue below tolerance at eps=1"


def neutral_abelian():
    """The flat abelian 4-dimensional algebra with a metric of signature (2, 2)."""
    return MetricLieAlgebra.from_brackets(
        4, {},
        [[-ONE, ZERO, ZERO, ZERO], [ZERO, -ONE, ZERO, ZERO],
         [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]],
    )


def test_signature_names(abelian_alg):
    assert evaluate_numeric(abelian_alg, F(7)).signature == "Lorentzian"
    signature = evaluate_numeric(neutral_abelian(), F(1)).signature
    assert signature not in ("Riemannian", "Lorentzian")


def test_null_parallel_scan(berger_alg, abelian_alg, corpus_alg):
    def scan(alg, *eps_values):
        return null_parallel_scan(alg, [F(x) for x in eps_values])

    # flat abelian factor: every null direction is parallel
    assert scan(abelian_alg, 5) == [True]
    assert scan(neutral_abelian(), 1) == [True]
    # the oscillator's central X3 is null and parallel; Heisenberg x R has
    # null vectors but no parallel one
    assert scan(corpus_alg("oscillator"), 1) == [True]
    assert scan(corpus_alg("heisenberg-x-r"), 1) == [False]
    # undefined where the metric is definite or degenerate; one call takes
    # the values together and answers each in order
    assert scan(berger_alg, 2, -1, 0, -2) == [None, False, None, False]
    assert scan(corpus_alg("u2"), 2) == [None]
    assert scan(berger_alg) == []


def test_null_parallel_scan_answers_none_at_a_pole():
    # a pole of a bracket coefficient or of a metric entry is a singular
    # value: it answers None and the other values are still decided
    bracket = MetricLieAlgebra.from_brackets(2, {(0, 1): {0: "1/(eps-3)"}}, [[-1, 0], [0, 1]])
    assert null_parallel_scan(bracket, [3, 1]) == [None, True]
    metric = MetricLieAlgebra.from_brackets(2, {(0, 1): {0: 1}}, [[-1, 0], [0, "1/(eps-3)"]])
    assert null_parallel_scan(metric, [3, 4]) == [None, True]
    assert null_parallel_scan(metric, [3]) == [None]


def big_berger(x):
    """The berger brackets over the metric diag(-1, 1, x)."""
    return MetricLieAlgebra.from_brackets(
        3, {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2}}, [[-1, 0, 0], [0, 1, 0], [0, 0, x]],
        name="big")


@pytest.mark.parametrize("x", [10**400, F(1, 10**400), 10**200],
                         ids=["10^400", "1/10^400", "10^200"])
def test_floats_outside_their_range_refuse(x):
    # an entry with no finite float, one with no nonzero float, and finite
    # entries whose squares overflow: never an inf or NaN model or verdict
    alg = big_berger(x)
    with pytest.raises(OutsideFloatRange, match="^big leaves the float range: "):
        evaluate_numeric(alg, 1)
    with pytest.raises(OutsideFloatRange):
        null_parallel_scan(alg, [1, 2])
    # the Walker cross-check is not dropped: its refusal propagates
    with pytest.raises(OutsideFloatRange):
        walker_check(alg)


def test_an_entry_that_vanishes_exactly_is_a_zero_float():
    # eps - 1 at eps = 1 is exactly 0: a zero float, not an underflow
    alg = MetricLieAlgebra.from_brackets(2, {(0, 1): {0: EPS - 1}}, [[-1, 0], [0, 1]])
    assert not evaluate_numeric(alg, 1).nabla.any()
    assert null_parallel_scan(alg, [1]) == [True]


def test_a_connection_that_is_not_finite_refuses(monkeypatch, berger_alg):
    # numpy's einsum builds the connection without a floating-point error:
    # a NaN or inf there still refuses, in both entry points
    koszul = numeric._koszul

    def poisoned(*args):
        K, ops = koszul(*args)
        return np.full_like(K, np.nan), np.full_like(ops, np.inf)

    monkeypatch.setattr(numeric, "_koszul", poisoned)
    with pytest.raises(OutsideFloatRange):
        evaluate_numeric(berger_alg, -1)
    with pytest.raises(OutsideFloatRange):
        null_parallel_scan(berger_alg, [-1])


@pytest.mark.parametrize(("key", "bound"), [
    ("berger", 3), ("abelian", 3), ("sl2r", 3), ("e2", 3), ("heisenberg", 3),
    ("u2", 4), ("oscillator", 4), ("heisenberg-x-r", 4),
])
def test_walker_check_linalg_calls(monkeypatch, corpus_alg, key, bound):
    # the cross-check decides all sample eps in one pass of batched calls:
    # eigh of the metrics (definiteness and g^-1), then one call per stack.
    # One call per value and subspace took 20, 24, 32, 23, 32, 26, 56 and 68
    alg = corpus_alg(key)
    calls = [0]

    def counting(fn):
        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return counted

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(fn))
    walker_check(alg)
    assert 0 < calls[0] <= bound, calls[0]


def test_numeric_matches_exact_specialization(berger_alg):
    m = evaluate_numeric(berger_alg, F(1, 2))
    spec = berger_alg.at_eps(F(1, 2))
    exact_ricci = [[float(x.eval(F(1, 2))) for x in row] for row in berger_alg.ricci]
    assert np.allclose(m.ricci, exact_ricci, rtol=1e-12)
    exact_scal = float(berger_alg.scalar_curvature.eval(F(1, 2)))
    assert math.isclose(m.scalar_curvature, exact_scal, rel_tol=1e-12)
    assert spec.validate() == []


# ---------------------------------------------------------------------------
# the exact engine against the float route, on the whole corpus


def relative_error(exact, approx) -> float:
    """Largest entry of |exact - approx| over the largest entry of |exact|
    (over 1 when exact vanishes)."""
    exact = np.array(exact, dtype=float)
    scale = np.max(np.abs(exact)) or 1.0
    return float(np.max(np.abs(exact - np.asarray(approx)))) / scale


def sample_eps(alg, rng, count=2):
    """`count` distinct seeded parameter values where the algebra is regular."""
    singular = set(alg.singular_parameters())
    out = []
    while len(out) < count:
        eps0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if eps0 not in singular and eps0 not in out:
            out.append(eps0)
    return out


def non_unimodular():
    """[X3,X1] = X1, [X3,X2] = X1 + X2.  The trace of ad(X3) makes the field
    H = sum g^{ij} nabla_{Xi} Xj nonzero, and ad(X3) is not normal, so
    nabla_H is nonzero too: the term of the rough Laplacian that vanishes on
    every corpus algebra (r4 has H != 0, but nabla_{X4} = 0)."""
    return MetricLieAlgebra.from_brackets(
        3,
        {(0, 2): {0: -1}, (1, 2): {0: -1, 1: -1}},
        [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, EPS]],
        name="non-unimodular",
    )


@pytest.mark.parametrize("mixed", [False, True], ids=["basis", "mixed"])
@pytest.mark.parametrize("key", list(test_properties.corpus.TEXTS) + ["non-unimodular"])
def test_exact_engine_matches_numeric(corpus_alg, key, mixed):
    # Ricci, scalar curvature and the rough Laplacian, evaluated exactly at
    # eps0, against `evaluate_numeric`'s independent float construction
    rng = random.Random(zlib.crc32(key.encode()))
    alg = non_unimodular() if key == "non-unimodular" else corpus_alg(key)
    if mixed:
        P = test_properties.corpus.mixing_matrix(rng, alg.dim)
        alg = alg.transform_basis(P, name=f"{key}/mixed")
    laplacian = alg.rough_laplacian
    for eps0 in sample_eps(alg, rng):
        m = evaluate_numeric(alg, eps0)
        pairs = [
            (alg.ricci, m.ricci),
            ([[alg.scalar_curvature]], [[m.scalar_curvature]]),
            (laplacian, m.laplacian),
        ]
        for exact, approx in pairs:
            exact = [[float(x.eval(eps0)) for x in row] for row in exact]
            assert relative_error(exact, approx) < 1e-12, eps0
