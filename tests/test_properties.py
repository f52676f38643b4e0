"""Structural identities that must hold on every metric Lie algebra the
generators below can produce, not just the catalog entries."""

import importlib.util
import os
import random
import subprocess
import sys
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegeom.algebra import MetricLieAlgebra, mat_det
from liegeom.catalog import loads
from liegeom.geometry import einstein_check, killing_solve, ricci_soliton_solve
from liegeom.scalars import (
    EPS,
    ONE,
    ZERO,
    parse_scalar,
    ratfunc,
)
from poly_reference import (
    MultiPoly,
    Poly,
    check,
    denominator,
    nabla,
    numerator,
    poly_div_exact,
    poly_gcd,
    ratfunc_of,
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
    lambda nd: ratfunc_of(nd[0], nd[1]))

# the denominators of the catalog: constants and c*eps^k, besides dense ones
monomials = st.tuples(rationals.filter(bool), st.integers(0, 4)).map(
    lambda ck: Poly([0] * ck[1] + [ck[0]]))
denominators = st.one_of(monomials, polys.filter(lambda p: not p.is_zero))


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
        f = check(ratfunc_of(n, d))
        assert (numerator(f), denominator(f)) == euclid_over_q(n, d)


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
    f = check(ratfunc_of(num, den))
    assert f.zeros() == sorted((r, m) for r, m, is_pole in chosen if not is_pole)
    assert f.poles() == sorted((r, m) for r, m, is_pole in chosen if is_pole)


@given(ratfuncs)
def test_print_parse_round_trip(f):
    assert check(parse_scalar(str(f))) == f


@given(ratfuncs, ratfuncs)
def test_field_commutativity(f, g):
    assert check(f + g) == g + f
    assert check(f * g) == g * f


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_distributivity(f, g, h):
    assert check(f * (g + h)) == f * g + f * h
    x = MultiPoly.var(("x",), "x")
    assert check((x * f + g) * (x * h)) == x * x * (f * h) + x * (g * h)


@given(ratfuncs)
def test_field_inverses(f):
    assert check(f - f) == ZERO
    if not f.is_zero:
        assert check(f * (ONE / f)) == ONE


@given(polys, polys, rationals)
def test_poly_eval_homomorphism(p, q, v):
    assert check(p + q).eval(v) == p.eval(v) + q.eval(v)
    assert check(p * q).eval(v) == p.eval(v) * q.eval(v)


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
        P = [[ratfunc(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if not mat_det(P).is_zero:
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

TESTS = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location(
    "bench_corpus", TESTS.parent / "bench" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def mixed_4d_algebras(seed=20261018):
    """The 4D corpus algebras after a seeded unimodular basis change, built
    as the benchmark's basis-mixed workload builds them."""
    rng = random.Random(seed)
    out = []
    for key in corpus.WORKLOADS["report-4d"]["algebras"]:
        base = loads(corpus.TEXTS[key])
        out.append(base.transform_basis(corpus.mixing_matrix(rng, base.dim),
                                        name=f"{key}-mixed"))
    return out


ALGEBRAS_4D = mixed_4d_algebras()

GENERATED = {f"{i:02d}-{a.name}": a for i, a in enumerate(ALGEBRAS)}
GENERATED.update((f"4d-{a.name}", a) for a in ALGEBRAS_4D)

# entries of the almost-abelian derivation D
D_ENTRIES = (1, -1, 2, Fraction(1, 2), EPS, -EPS, EPS + 1, 2 * EPS)


def almost_abelian(rng, n, name):
    """R x_D R^(n-1): X_n acts on the abelian ideal span(X_1..X_(n-1)) by a
    random D, about half its entries zero, so [X_a, X_n] = -sum_b D[b][a] X_b
    (a Lie algebra for every D); a diagonal metric of random signs, one
    entry scaled by eps."""
    D = [[rng.choice(D_ENTRIES) if rng.random() < 0.5 else None for _ in range(n - 1)]
         for _ in range(n - 1)]
    brackets = {(a, n - 1): {b: -D[b][a] for b in range(n - 1) if D[b][a] is not None}
                for a in range(n - 1)}
    signs = [rng.choice((1, -1)) for _ in range(n)]
    p = rng.randrange(n)
    metric = [[0] * n for _ in range(n)]
    for i, s in enumerate(signs):
        metric[i][i] = s * (EPS if i == p else ONE)
    return MetricLieAlgebra.from_brackets(n, brackets, metric, name=name)


def almost_abelian_family(per_dim=150, seed=20261019):
    """`per_dim` seeded almost-abelian algebras in dimension 3, then in 4,
    each in its own basis."""
    rng = random.Random(seed)
    return [almost_abelian(rng, n, f"almost-abelian-{n}d-{i}")
            for n in (3, 4) for i in range(per_dim)]


def mixed_copies(algebras, seed=7):
    """Each algebra after a basis change by `corpus.mixing_matrix`, drawn in
    order from one generator seeded with `seed`."""
    rng = random.Random(seed)
    return [alg.transform_basis(corpus.mixing_matrix(rng, alg.dim), name=f"{alg.name}-mixed")
            for alg in algebras]

ALG_KEYS = ["berger", "abelian-control"] + list(GENERATED)


@pytest.fixture(params=ALG_KEYS, ids=ALG_KEYS)
def alg(request, berger_alg, abelian_alg):
    if request.param == "berger":
        return berger_alg
    if request.param == "abelian-control":
        return abelian_alg
    return GENERATED[request.param]


# Refusals of `almost_abelian_sweep.py` (150 algebras per dimension) by
# (family, dimension, section), measured when the sweep was added.  Later
# rules that decide more cases lower them; raising one is a regression.
SWEEP_REFUSAL_BOUNDS = {
    ("unmixed", 3, "geodesic"): 91, ("unmixed", 3, "walker"): 36,
    ("unmixed", 4, "geodesic"): 145, ("unmixed", 4, "walker"): 100,
    ("mixed", 3, "geodesic"): 133, ("mixed", 3, "walker"): 137,
    ("mixed", 4, "geodesic"): 149, ("mixed", 4, "walker"): 137,
}


def test_almost_abelian_sweep():
    """Full reports of the almost-abelian family and its mixed copy: no
    exception but `CaseAnalysisIncomplete`, the same bytes under two hash
    seeds (one interpreter each, run side by side), and no more refusals
    than `SWEEP_REFUSAL_BOUNDS`."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)] + (
        [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    procs = [subprocess.Popen(
        [sys.executable, str(TESTS / "almost_abelian_sweep.py")],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) for seed in ("0", "1")]
    try:
        outs = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    runs = [out.splitlines() for out, _ in outs]
    assert len(runs[0]) == 600
    assert [(a, b) for a, b in zip(*runs) if a != b][:5] == []
    refusals, completed = Counter(), Counter()
    for family, dim, _, *status, digest in (line.split() for line in runs[0]):
        for section, st in zip(("geodesic", "walker"), status):
            refusals[family, int(dim), section] += st == "refused"
        completed[family, int(dim)] += digest != "-"
    over = {key: refusals[key] for key, bound in SWEEP_REFUSAL_BOUNDS.items()
            if refusals[key] > bound}
    assert not over, (f"refusals {dict(refusals)}, full reports completed "
                      f"{dict(completed)}; over the bounds: {over}")


def basis_vec(n, i):
    return [ONE if k == i else ZERO for k in range(n)]


def test_generator_is_deterministic():
    for again, first in ((random_algebras(), ALGEBRAS), (mixed_4d_algebras(), ALGEBRAS_4D)):
        assert [a.brackets for a in again] == [a.brackets for a in first]
        assert [a.metric for a in again] == [a.metric for a in first]


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


def lie_derivative_metric(alg, v):
    """(Lie_v g)(Xi, Xj) for an invariant vector v, contracted from
    `lie_derivative_metric_basis`."""
    L = alg.lie_derivative_metric_basis
    rn = range(alg.dim)
    return [[sum((v[m] * L[m][i][j] for m in rn), start=ZERO) for j in rn] for i in rn]


def test_lie_derivative_linearity(alg):
    n = alg.dim
    u = [Fraction(k + 1) * ONE for k in range(n)]
    v = [parse_scalar("1-eps") if k == 0 else Fraction(2 - k) * ONE for k in range(n)]
    w = [a + b for a, b in zip(u, v)]
    Lu = lie_derivative_metric(alg, u)
    Lv = lie_derivative_metric(alg, v)
    Lsum = lie_derivative_metric(alg, w)
    e = [[ONE if k == i else ZERO for k in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert Lsum[i][j] == Lu[i][j] + Lv[i][j]
            # the definition: g(nabla_{Xi} w, Xj) + g(Xi, nabla_{Xj} w)
            assert Lsum[i][j] == alg.inner(nabla(alg, e[i], w), e[j]) + alg.inner(e[i], nabla(alg, e[j], w))


def test_scalar_curvature_is_a_frame_invariant(alg):
    rng = random.Random(zlib.crc32(alg.name.encode()))
    moved = alg.transform_basis(random_invertible(rng, alg.dim))
    assert moved.scalar_curvature == alg.scalar_curvature


def linear_verdicts(alg):
    """The basis-free content of the Einstein, Killing and soliton solves."""
    ein = einstein_check(alg)
    kil = killing_solve(alg)
    sol = ricci_soliton_solve(alg)
    return (
        (ein.generic, ein.lam, [eps for eps, _ in ein.exceptional]),
        (len(kil.basis), [(b.eps, b.result.kernel_dim) for b in kil.exceptional]),
        (sol.generic_soliton, [(b.eps, b.kind) for b in sol.exceptional]),
    )


def test_linear_verdicts_are_frame_invariants(alg):
    # the same seeded basis change as the scalar curvature test
    rng = random.Random(zlib.crc32(alg.name.encode()))
    moved = alg.transform_basis(random_invertible(rng, alg.dim))
    assert linear_verdicts(moved) == linear_verdicts(alg)


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
