"""Structural identities that must hold on every metric Lie algebra the
generators below can produce, not just the catalog entries."""

import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegeom.algebra import MetricLieAlgebra, mat_det
from liegeom.scalars import (
    EPS,
    ONE,
    ZERO,
    MultiPoly,
    Poly,
    RatFunc,
    parse_scalar,
    poly_div_exact,
    poly_gcd,
    scalar_str,
)
from liegeom.solvers import rref_solve

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# hypothesis strategies for the scalar field

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12)

polys = st.lists(rationals, min_size=0, max_size=4).map(Poly)

ratfuncs = st.tuples(polys, polys.filter(lambda p: not p.is_zero)).map(
    lambda nd: RatFunc(nd[0], nd[1]))

# the denominators of the catalog: constants and c*eps^k, besides dense ones
monomials = st.tuples(rationals.filter(bool), st.integers(0, 4)).map(
    lambda ck: Poly([0] * ck[1] + [ck[0]]))
denominators = st.one_of(monomials, polys.filter(lambda p: not p.is_zero))


def checked(value):
    """Run the value's `check_invariants` and hand the value back."""
    value.check_invariants()
    return value


def euclid_over_q(num, den):
    """The normalization over Q: cancel the monic gcd by Euclid's
    algorithm, then make the denominator monic."""
    if num.is_zero:
        return Poly(), Poly((1,))
    g = poly_gcd(num, den)
    num, den = poly_div_exact(num, g), poly_div_exact(den, g)
    return num.scale(1 / den.leading), den.monic()


@given(polys, denominators, denominators)
def test_ratfunc_matches_euclid_over_q(num, den, common):
    for n, d in ((num, den), (num * common, den * common)):
        f = checked(RatFunc(n, d))
        assert (f.num, f.den) == euclid_over_q(n, d)


# (root, multiplicity, whether it is a pole), at most one entry per root
chosen_roots = st.lists(
    st.tuples(rationals, st.integers(1, 3), st.booleans()),
    max_size=4, unique_by=lambda t: t[0])


@given(chosen_roots, rationals.filter(bool))
def test_zeros_and_poles_recover_chosen_roots(chosen, scale):
    # the quadratic cofactors have no rational root and nothing cancels
    x = Poly.x()
    num, den = (x ** 2 + 2).scale(scale), x ** 2 - 2
    for r, m, is_pole in chosen:
        if is_pole:
            den = den * (x - r) ** m
        else:
            num = num * (x - r) ** m
    f = checked(RatFunc(num, den))
    assert f.zeros() == sorted((r, m) for r, m, is_pole in chosen if not is_pole)
    assert f.poles() == sorted((r, m) for r, m, is_pole in chosen if is_pole)


@given(ratfuncs)
def test_print_parse_round_trip(f):
    assert checked(parse_scalar(scalar_str(f))) == f


@given(ratfuncs, ratfuncs)
def test_field_commutativity(f, g):
    assert checked(f + g) == g + f
    assert checked(f * g) == g * f


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_distributivity(f, g, h):
    assert checked(f * (g + h)) == f * g + f * h
    x = MultiPoly.var(("x",), "x")
    assert checked((x * f + g) * (x * h)) == x * x * (f * h) + x * (g * h)


@given(ratfuncs)
def test_field_inverses(f):
    assert checked(f - f) == ZERO
    if not f.is_zero:
        assert checked(f * (ONE / f)) == ONE


@given(polys, polys, rationals)
def test_poly_eval_homomorphism(p, q, v):
    assert checked(p + q).eval(v) == p.eval(v) + q.eval(v)
    assert checked(p * q).eval(v) == p.eval(v) * q.eval(v)


# ---------------------------------------------------------------------------
# randomized metric Lie algebras

BASE_BUILDERS = []


def base_builder(fn):
    BASE_BUILDERS.append(fn)
    return fn


@base_builder
def su2_scaled(rng):
    s = Fraction(rng.randint(1, 3))
    return MetricLieAlgebra.from_brackets(
        3,
        {(0, 1): {2: 2 * s}, (1, 2): {0: 2 * s}, (0, 2): {1: -2 * s}},
        [[EPS, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
        name="su2-scaled",
    )


@base_builder
def heisenberg(rng):
    return MetricLieAlgebra.from_brackets(
        3,
        {(0, 1): {2: Fraction(rng.randint(1, 3))}},
        [[ONE, ZERO, ZERO], [ZERO, EPS, ZERO], [ZERO, ZERO, ONE]],
        name="heisenberg",
    )


@base_builder
def solvable(rng):
    # [X1,X3] = X1, [X2,X3] = -X2: every double bracket cancels
    return MetricLieAlgebra.from_brackets(
        3,
        {(0, 2): {0: 1}, (1, 2): {1: -1}},
        [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, EPS]],
        name="solvable",
    )


@base_builder
def abelian(rng):
    return MetricLieAlgebra.from_brackets(
        3, {},
        [[-ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
        name="abelian",
    )


def random_invertible(rng, n):
    while True:
        P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if mat_det([row[:] for row in P]) != 0:
            return P


def random_algebras(count=20, seed=20260816):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = BASE_BUILDERS[len(out) % len(BASE_BUILDERS)](rng)
        alg = base.transform_basis(random_invertible(rng, base.dim))
        if alg.validate() == []:
            out.append(alg)
    return out


ALGEBRAS = random_algebras()

ALG_KEYS = ["berger", "abelian-control"] + [
    f"{i:02d}-{a.name}" for i, a in enumerate(ALGEBRAS)]


@pytest.fixture(params=ALG_KEYS, ids=ALG_KEYS)
def alg(request, berger_alg, abelian_alg):
    if request.param == "berger":
        return berger_alg
    if request.param == "abelian-control":
        return abelian_alg
    return ALGEBRAS[int(request.param[:2])]


def basis_vec(n, i):
    return [ONE if k == i else ZERO for k in range(n)]


def test_generator_is_deterministic():
    again = random_algebras()
    assert [a.brackets for a in again] == [a.brackets for a in ALGEBRAS]
    assert [a.metric for a in again] == [a.metric for a in ALGEBRAS]


def test_torsion_free(alg):
    n = alg.dim
    K, C = alg.nabla_basis, alg.brackets
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert K[i][j][k] - K[j][i][k] == C[i][j][k]


def test_metric_compatible(alg):
    n = alg.dim
    K = alg.nabla_basis
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.inner(K[i][j], basis_vec(n, k))
                rhs = alg.inner(basis_vec(n, j), K[i][k])
                assert lhs + rhs == ZERO


def test_curvature_symmetries(alg):
    n = alg.dim
    R4 = alg.curvature_tensor
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    assert R4[i][j][k][l] == -R4[j][i][k][l]
                    assert R4[i][j][k][l] == -R4[i][j][l][k]
                    assert R4[i][j][k][l] == R4[k][l][i][j]


def test_first_bianchi(alg):
    n = alg.dim
    R4 = alg.curvature_tensor
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = R4[i][j][k][l] + R4[j][k][i][l] + R4[k][i][j][l]
                    assert acc == ZERO


def test_second_bianchi(alg):
    n = alg.dim
    D = alg.cov_curvature
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for c in range(n):
                    for d in range(n):
                        acc = (D[i][j][k][c][d]
                               + D[j][k][i][c][d]
                               + D[k][i][j][c][d])
                        assert acc == ZERO


def test_ricci_symmetric(alg):
    n = alg.dim
    rho = alg.ricci
    for i in range(n):
        for j in range(n):
            assert rho[i][j] == rho[j][i]


def test_lie_derivative_linearity(alg):
    n = alg.dim
    u = [Fraction(k + 1) * ONE for k in range(n)]
    v = [parse_scalar("1-eps") if k == 0 else Fraction(2 - k) * ONE for k in range(n)]
    Lu = alg.lie_derivative_metric(u)
    Lv = alg.lie_derivative_metric(v)
    Lsum = alg.lie_derivative_metric([a + b for a, b in zip(u, v)])
    for i in range(n):
        for j in range(n):
            assert Lsum[i][j] == Lu[i][j] + Lv[i][j]


def test_scalar_curvature_is_a_frame_invariant(alg):
    rng = random.Random(zlib.crc32(alg.name.encode()))
    moved = alg.transform_basis(random_invertible(rng, alg.dim))
    assert moved.scalar_curvature == alg.scalar_curvature


def test_solver_back_substitution(alg):
    # random consistent system over the scalar field
    rng = random.Random(42)
    n = alg.dim
    rows = [[alg.ricci[i][j] + Fraction(rng.randint(0, 2)) for j in range(n)]
            for i in range(n)]
    x0 = [Fraction(rng.randint(-3, 3)) * ONE for _ in range(n)]
    rhs = [sum((rows[i][j] * x0[j] for j in range(n)), start=ZERO) for i in range(n)]
    res = rref_solve(rows, rhs)
    assert res.status in ("unique", "underdetermined")
    xs = res.particular
    for i in range(n):
        assert sum((rows[i][j] * xs[j] for j in range(n)), start=ZERO) == rhs[i]
    for k in res.kernel:
        for i in range(n):
            assert sum((rows[i][j] * k[j] for j in range(n)), start=ZERO) == ZERO
