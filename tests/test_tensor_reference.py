"""The tensor layer against a brute-force reference.

`MetricLieAlgebra` computes the curvature operators R(Xi, Xj), the
curvature tensor and its covariant derivative only on the independent
index pairs and fills the rest by sign, so the antisymmetries of its
output hold by construction and checking them proves nothing.  The
reference below computes every ordered pair and every entry by the naive
loops, from `connection_operators` and `brackets` alone, and the tests
compare the two entry for entry.

The same goes for the two polynomials built from those tensors.  The
engine contracts g^{-1} into the coefficient tensors and multiplies only
their coefficients, and reads the energy off the rough Laplacian L as
|nabla V|^2 = -g(LV, V); the references below multiply polynomials first,
as the definitions read: the degree-5 Ledger polynomial as every product
A[a][b] * B[c][d] scaled by g^{ac} g^{bd}, and the energy as
sum g^{ij} g(nabla_{Xi} u, nabla_{Xj} v) of the covariant derivatives
themselves, on generic vectors and on every pair of family vectors.

The connection and the tensors contracted from it (`nabla_basis`,
`lie_derivative_metric_basis`, `ricci`, `cov_ricci`, `rough_laplacian`) are
formed over the nonzero entries of each factor only, and some read a
lowered copy of the connection; their references below are the dense loops
of each definition, from `brackets`, `metric` and `metric_inverse`, with
the curvature tensor of `reference_tensors`.  The kind of every soliton
branch is checked against the Ricci tensor of the algebra specialized at
its eps (`at_eps`), computed anew there.

The geodesic and Walker equations are read off `nabla_basis` and
`metric` as sparse dicts from slot (i, j) to the coefficient of x_i x_j,
whose layout (i <= j, no zero coefficient, the sum over the slots the
printed equation) is checked too, and the harmonic-map trace flag off the
polarized trace, formed from the raised connection and the curvature
operators.  The references build them as the definitions read, on vectors
of indeterminates (`poly_reference.MultiPoly`): nabla_V V, the 2x2 minors
of [nabla_{Xi} V, V] and g(V, V), and the trace
sum_ij g^{ij} R(nabla_{Xi} V, V) Xj on the whole family vector
sum_k t_k u_k, from `reference_nabla` and `reference_operators`.  A
second geodesic reference uses the brackets and the metric alone (Koszul),
without the connection.
"""

import random
from fractions import Fraction

import pytest

from liegeom.algebra import bilinear, mat_mul
from liegeom.catalog import loads
from liegeom.geometry import (
    _geodesic_forms,
    _walker_forms,
    energy_report,
    harmonicity_classify,
    ledger_check,
    ricci_soliton_solve,
)
from liegeom.report import energy_section
from liegeom.scalars import ONE, ZERO, component_names, poly_str

from poly_reference import MultiPoly, from_terms, is_zero, nabla
import test_properties


MIXING_SEEDS = (None, 1, 2, 3)
CORPUS_CASES = [(key, seed) for key in test_properties.corpus.TEXTS for seed in MIXING_SEEDS]
CORPUS_IDS = [f"{key}-{'unmixed' if seed is None else f'mixed{seed}'}"
              for key, seed in CORPUS_CASES]


def grad_norm_sq(alg, V):
    """|nabla V|^2 as the engine reads it, -g(LV, V) = -V^T (G L) V with L
    the rough Laplacian (`geometry.energy_report`); the components of V may
    be `RatFunc`s or `MultiPoly`s."""
    return -bilinear(mat_mul(alg.metric, alg.rough_laplacian), V, V)


def corpus_case(corpus_alg, key, seed):
    """A corpus algebra, as parsed or after the basis change of
    `corpus.mixing_matrix` under the given seed (a fresh object, so its
    cached tensors are computed anew)."""
    alg = corpus_alg(key)
    if seed is None:
        return alg
    P = test_properties.corpus.mixing_matrix(random.Random(seed), alg.dim)
    return alg.transform_basis(P, name=f"{key}-mixed{seed}")


def reference_operators(alg):
    """R(Xi, Xj) = nabla_{[Xi,Xj]} - [nabla_{Xi}, nabla_{Xj}] for all n^2
    ordered pairs, as {(i, j): matrix}."""
    n = alg.dim
    A, C = alg.connection_operators, alg.brackets
    rn = range(n)
    return {
        (i, j): [[sum((C[i][j][k] * A[k][r][c] for k in rn), start=ZERO)
                  - sum((A[i][r][s] * A[j][s][c] - A[j][r][s] * A[i][s][c]
                         for s in rn), start=ZERO)
                  for c in rn] for r in rn]
        for i in rn for j in rn
    }


def reference_tensors(alg):
    """(R4, DR): all n^4 entries R4[i][j][k][l] = g(R(Xi,Xj) Xk, Xl) and
    all n^5 entries DR[i][a][b][c][d] = (nabla_{Xi} R)(Xa, Xb, Xc, Xd)."""
    n = alg.dim
    A, G = alg.connection_operators, alg.metric
    ops = reference_operators(alg)
    rn = range(n)
    R4 = [[[[sum((ops[i, j][r][k] * G[r][l] for r in rn), start=ZERO)
             for l in rn] for k in rn] for j in rn] for i in rn]
    # A[i][m][a] is the Xm-coordinate of nabla_{Xi} Xa
    DR = [[[[[-sum((A[i][m][a] * R4[m][b][c][d] + A[i][m][b] * R4[a][m][c][d]
                    + A[i][m][c] * R4[a][b][m][d] + A[i][m][d] * R4[a][b][c][m]
                    for m in rn), start=ZERO)
              for d in rn] for c in rn] for b in rn] for a in rn] for i in rn]
    return R4, DR


def reference_operator_vec(ops, u, v):
    """R(u, v) = sum over all ordered (i, j) of u_i v_j R(Xi, Xj), from the
    operators of `reference_operators`."""
    n = len(u)
    out = [[ZERO] * n for _ in range(n)]
    for (i, j), op in ops.items():
        w = u[i] * v[j]
        for r in range(n):
            for c in range(n):
                out[r][c] = out[r][c] + w * op[r][c]
    return out


def first_mismatch(got, want, index=()):
    """The index of the first entry where two nested lists differ, or None."""
    if not isinstance(want, list):
        return None if got == want else index
    for k, (g, w) in enumerate(zip(got, want, strict=True)):
        bad = first_mismatch(g, w, index + (k,))
        if bad is not None:
            return bad
    return None


def check_against_reference(alg):
    ops = reference_operators(alg)
    for (i, j), want in ops.items():
        assert first_mismatch(alg.curvature_operator(i, j), want) is None, (i, j)
    R4, DR = reference_tensors(alg)
    assert first_mismatch(alg.curvature_tensor, R4) is None
    assert first_mismatch(alg.cov_curvature, DR) is None


def reference_l5(alg):
    """sum g^{ac} g^{bd} R(V,Xa,V,Xb) (nabla_V R)(V,Xc,V,Xd) as n^4
    products of polynomials, from `reference_tensors`."""
    n = alg.dim
    names = component_names(n)
    V = [MultiPoly.var(names, nm) for nm in names]
    R4, DR = reference_tensors(alg)
    ginv = alg.metric_inverse
    rn = range(n)
    zero = MultiPoly.zero(names)
    A = [[sum((V[i] * V[k] * R4[i][a][k][b] for i in rn for k in rn), start=zero)
          for b in rn] for a in rn]
    B = [[sum((V[m] * V[i] * V[k] * DR[m][i][c][k][d]
               for m in rn for i in rn for k in rn), start=zero)
          for d in rn] for c in rn]
    return sum((A[a][b] * B[c][d] * (ginv[a][c] * ginv[b][d])
                for a in rn for b in rn for c in rn for d in rn), start=zero)


def reference_gradient(alg, u, v):
    """sum_ij g^{ij} g(nabla_{Xi} u, nabla_{Xj} v)."""
    n = alg.dim
    ginv = alg.metric_inverse
    basis = [[ONE if k == i else ZERO for k in range(n)] for i in range(n)]
    du = [nabla(alg, e, u) for e in basis]
    dv = [nabla(alg, e, v) for e in basis]
    acc = ZERO
    for i in range(n):
        for j in range(n):
            if not ginv[i][j].is_zero:
                acc = acc + alg.inner(du[i], dv[j]) * ginv[i][j]
    return acc


def check_forms_against_reference(alg):
    """Compare the Ledger polynomial, |nabla V|^2 and the energy
    density with the references; return the number of terms of l5."""
    n = alg.dim
    names = component_names(n)
    V = [MultiPoly.var(names, nm) for nm in names]
    l5 = ledger_check(alg).l5_poly
    assert from_terms(names, l5) == reference_l5(alg)
    grad = reference_gradient(alg, V, V)
    assert grad_norm_sq(alg, V) == grad
    rep = energy_report(alg)
    density = grad * Fraction(1, 2) + Fraction(n, 2)
    got = rep.density_generic
    assert (from_terms(names, got) if isinstance(got, dict) else got) == density
    # the printed form too: a flat connection leaves the RatFunc n/2
    assert energy_section(alg)["density_generic"] == str(density)
    for fam in rep.families:
        for a, u in enumerate(fam.basis):
            assert grad_norm_sq(alg, u) == reference_gradient(alg, u, u)
            for b, w in enumerate(fam.basis):
                # the gradient Gram form of an eigenspace is -lam times its Gram form
                assert -fam.eigenvalue * fam.gram[a][b] == reference_gradient(alg, u, w), (a, b)
    return len(l5)


@pytest.mark.parametrize(("key", "seed"), CORPUS_CASES,
                         ids=[key if seed is None else f"{key}-mixed{seed}"
                              for key, seed in CORPUS_CASES])
def test_corpus_forms_match_reference(corpus_alg, key, seed):
    # the mixed cases give dense metrics; an unmixed case is named by its key
    check_forms_against_reference(corpus_case(corpus_alg, key, seed))


@pytest.mark.parametrize("key", list(test_properties.GENERATED))
def test_property_forms_match_reference(key):
    check_forms_against_reference(test_properties.GENERATED[key])


@pytest.mark.parametrize("key", list(test_properties.corpus.TEXTS))
def test_corpus_tensors_match_reference(corpus_alg, key):
    check_against_reference(corpus_alg(key))


@pytest.mark.parametrize("key", list(test_properties.GENERATED))
def test_property_tensors_match_reference(key):
    check_against_reference(test_properties.GENERATED[key])


def test_curvature_operator_returns_a_copy(berger_alg):
    op = berger_alg.curvature_operator(0, 1)
    op[0][0] = ONE
    assert berger_alg.curvature_operator(0, 1)[0][0] == ZERO
    assert berger_alg.curvature_operator(1, 1) == [[ZERO] * 3 for _ in range(3)]


def test_reference_forms_include_nonzero_l5():
    # the l5 comparison above is not all zeros against zeros
    nonzero = {key: len(ledger_check(alg).l5_poly)
               for key, alg in test_properties.GENERATED.items()
               if not ledger_check(alg).l5_holds}
    assert sorted(nonzero) == ["02-solvable/basis-change", "06-solvable/basis-change",
                               "10-solvable/basis-change", "14-solvable/basis-change",
                               "18-solvable/basis-change", "4d-r4-mixed"]
    assert min(nonzero.values()) >= 14


# ---------------------------------------------------------------------------
# geodesic, Walker and harmonic-map conditions


def generic_vector(names):
    return [MultiPoly.var(names, nm) for nm in names]


def reference_geodesic(alg, names):
    """The nonzero components of nabla_V V for a generic V."""
    V = generic_vector(names)
    return [e for e in nabla(alg, V, V) if not e.is_zero]


def rank_one_conditions(columns):
    """All nonzero 2x2 minors of the matrix with the given columns, column
    pair by column pair, then row pair by row pair."""
    ncols, nrows = len(columns), len(columns[0])
    out = []
    for c1 in range(ncols):
        for c2 in range(c1 + 1, ncols):
            for r1 in range(nrows):
                for r2 in range(r1 + 1, nrows):
                    minor = (columns[c1][r1] * columns[c2][r2]
                             - columns[c1][r2] * columns[c2][r1])
                    if not is_zero(minor):
                        out.append(minor)
    return out


def reference_walker(alg, names):
    """The minors of [nabla_{Xi} V, V] for each i, then g(V, V) if nonzero."""
    n = alg.dim
    V = generic_vector(names)
    eqs = []
    for i in range(n):
        e = [ONE if k == i else ZERO for k in range(n)]
        eqs.extend(rank_one_conditions([nabla(alg, e, V), V]))
    null = alg.inner(V, V)
    if not null.is_zero:
        eqs.append(null)
    return eqs


def reference_trace(alg, V):
    """The harmonic-map trace sum_ij g^{ij} R(nabla_{Xi} V, V) Xj as the
    definition reads: nabla_{Xi} V = sum_p V_p K[i][p] with K of
    `reference_nabla`, the operator R(nabla_{Xi} V, V) of
    `reference_operator_vec`, and its column j scaled by g^{ij}."""
    n = alg.dim
    K, ops, ginv = reference_nabla(alg), reference_operators(alg), alg.metric_inverse
    rn = range(n)
    out = [ZERO] * n
    for i in rn:
        dV = [sum((V[p] * K[i][p][r] for p in rn), start=ZERO) for r in rn]
        op = reference_operator_vec(ops, dV, V)
        for j in rn:
            for r in rn:
                out[r] = out[r] + op[r][j] * ginv[i][j]
    return out


def reference_trace_vanishes(alg, vectors):
    """Whether the harmonic-map trace vanishes on the family vector
    sum_k t_k u_k, identically in the t's."""
    tnames = tuple(f"t{k + 1}" for k in range(len(vectors)))
    V = [MultiPoly.zero(tnames) for _ in range(alg.dim)]
    for k, u in enumerate(vectors):
        t = MultiPoly.var(tnames, tnames[k])
        V = [acc + t * x for acc, x in zip(V, u)]
    return all(is_zero(x) for x in reference_trace(alg, V))


def koszul_geodesic(alg, names):
    """nabla_V V from the brackets and the metric alone.  The Koszul formula
    gives g(nabla_V V, Xk) = g([Xk, V], V) = sum_ijm C[k][i][m] G[m][j] V_i V_j
    for every nondegenerate metric (Kowalski-Szenthe); raising the index with
    g^{-1} gives the components, of which the nonzero ones are kept."""
    n = alg.dim
    C, G, ginv = alg.brackets, alg.metric, alg.metric_inverse
    V = generic_vector(names)
    rn = range(n)
    zero = MultiPoly.zero(names)
    lowered = [sum((V[i] * V[j] * (C[k][i][m] * G[m][j])
                    for i in rn for j in rn for m in rn), start=zero) for k in rn]
    raised = [sum((lowered[k] * ginv[l][k] for k in rn), start=zero) for l in rn]
    return [e for e in raised if not e.is_zero]


def assert_same_forms(forms, want, names):
    """The engine's forms print as the reference polynomials and equal them."""
    assert [poly_str(names, U) for U in forms] == [str(e) for e in want]
    assert [from_terms(names, U) for U in forms] == want


def check_form_layout(forms, names):
    """Each form keeps x_i x_j at the slot (i, j), i <= j, only, with a
    nonzero coefficient, and prints as sum c * V_i * V_j over its slots on
    a vector of indeterminates."""
    V = generic_vector(names)
    for U in forms:
        assert U and all(i <= j and not c.is_zero for (i, j), c in U.items())
        eq = sum((V[i] * V[j] * c for (i, j), c in U.items()), MultiPoly.zero(names))
        assert poly_str(names, U) == str(eq)


def check_conditions_against_reference(alg):
    names = component_names(alg.dim)
    geodesic, walker = _geodesic_forms(alg), _walker_forms(alg)
    assert_same_forms(geodesic, reference_geodesic(alg, names), names)
    assert_same_forms(walker, reference_walker(alg, names), names)
    check_form_layout(geodesic, names)
    check_form_layout(walker, names)
    h = harmonicity_classify(alg)
    assert [f.trace_vanishes for f in h.families] == [
        reference_trace_vanishes(alg, pair.vectors) for pair in alg.laplacian_spectrum.pairs]


@pytest.mark.parametrize(("key", "seed"), CORPUS_CASES, ids=CORPUS_IDS)
def test_corpus_conditions_match_reference(corpus_alg, key, seed):
    check_conditions_against_reference(corpus_case(corpus_alg, key, seed))


@pytest.mark.parametrize("key", list(test_properties.GENERATED))
def test_property_conditions_match_reference(key):
    check_conditions_against_reference(test_properties.GENERATED[key])


@pytest.mark.parametrize(("key", "seed"), CORPUS_CASES, ids=CORPUS_IDS)
def test_corpus_geodesic_equations_match_koszul(corpus_alg, key, seed):
    alg = corpus_case(corpus_alg, key, seed)
    names = component_names(alg.dim)
    assert_same_forms(_geodesic_forms(alg), koszul_geodesic(alg, names), names)


@pytest.mark.parametrize("key", list(test_properties.GENERATED))
def test_property_geodesic_equations_match_koszul(key):
    alg = test_properties.GENERATED[key]
    names = component_names(alg.dim)
    assert_same_forms(_geodesic_forms(alg), koszul_geodesic(alg, names), names)


# ---------------------------------------------------------------------------
# the connection and the tensors contracted from it


def reference_nabla(alg):
    """K[i][j][l], the Xl-coordinate of nabla_{Xi} Xj, by the Koszul formula
    2 g(nabla_{Xi} Xj, Xk) = g([Xi,Xj],Xk) - g([Xj,Xk],Xi) + g([Xk,Xi],Xj)
    and g^{-1}."""
    n = alg.dim
    C, G, ginv = alg.brackets, alg.metric, alg.metric_inverse
    rn = range(n)
    koszul = [[[sum((C[i][j][m] * G[m][k] - C[j][k][m] * G[m][i] + C[k][i][m] * G[m][j]
                     for m in rn), start=ZERO)
                for k in rn] for j in rn] for i in rn]
    return [[[sum((ginv[l][k] * koszul[i][j][k] for k in rn), start=ZERO) * Fraction(1, 2)
              for l in rn] for j in rn] for i in rn]


def reference_lie_derivatives(alg, K):
    """L[m][i][j] = g(nabla_{Xi} Xm, Xj) + g(Xi, nabla_{Xj} Xm)."""
    n = alg.dim
    G = alg.metric
    rn = range(n)
    return [[[sum((K[i][m][r] * G[r][j] + G[i][r] * K[j][m][r] for r in rn), start=ZERO)
              for j in rn] for i in rn] for m in rn]


def reference_ricci(alg, R4):
    """ric[i][j] = sum_kl g^{kl} R4[i][k][j][l]."""
    n = alg.dim
    ginv = alg.metric_inverse
    rn = range(n)
    return [[sum((ginv[k][l] * R4[i][k][j][l] for k in rn for l in rn), start=ZERO)
             for j in rn] for i in rn]


def reference_cov_ricci(K, ric):
    """(nabla_{Xi} ric)(Xj, Xk) = -ric(nabla_{Xi} Xj, Xk) - ric(Xj, nabla_{Xi} Xk)."""
    rn = range(len(ric))
    return [[[-sum((K[i][j][m] * ric[m][k] + K[i][k][m] * ric[j][m] for m in rn), start=ZERO)
              for k in rn] for j in rn] for i in rn]


def reference_laplacian(alg, K):
    """sum_ij g^{ij} (A_i A_j - sum_k K[i][j][k] A_k), where the matrix A_i
    of nabla_{Xi} has column j equal to nabla_{Xi} Xj."""
    n = alg.dim
    ginv = alg.metric_inverse
    rn = range(n)
    A = [[[K[i][c][r] for c in rn] for r in rn] for i in rn]
    return [[sum((ginv[i][j] * (sum((A[i][r][s] * A[j][s][c] for s in rn), start=ZERO)
                                - sum((K[i][j][k] * A[k][r][c] for k in rn), start=ZERO))
                  for i in rn for j in rn), start=ZERO)
             for c in rn] for r in rn]


def check_connection_against_reference(alg):
    K = reference_nabla(alg)
    assert first_mismatch(alg.nabla_basis, K) is None
    assert first_mismatch(alg.lie_derivative_metric_basis, reference_lie_derivatives(alg, K)) is None
    ric = reference_ricci(alg, reference_tensors(alg)[0])
    assert first_mismatch(alg.ricci, ric) is None
    assert first_mismatch(alg.rough_laplacian, reference_laplacian(alg, K)) is None
    assert first_mismatch(alg.cov_ricci, reference_cov_ricci(K, ric)) is None


@pytest.mark.parametrize(("key", "seed"), CORPUS_CASES, ids=CORPUS_IDS)
def test_corpus_connection_tensors_match_reference(corpus_alg, key, seed):
    check_connection_against_reference(corpus_case(corpus_alg, key, seed))


@pytest.mark.parametrize("key", list(test_properties.GENERATED))
def test_property_connection_tensors_match_reference(key):
    check_connection_against_reference(test_properties.GENERATED[key])


def check_soliton_kinds_against_specialization(alg):
    """A soliton branch is "einstein" exactly when ric = lam g holds for the
    algebra specialized at its eps, with the tensors computed anew there."""
    n = alg.dim
    for b in ricci_soliton_solve(alg).exceptional:
        if b.kind in ("einstein", "soliton"):
            spec = alg.at_eps(b.eps)
            einstein = all(spec.ricci[i][j] == b.lam * spec.metric[i][j]
                           for i in range(n) for j in range(n))
            assert b.kind == ("einstein" if einstein else "soliton"), b


@pytest.mark.parametrize(("key", "seed"), CORPUS_CASES, ids=CORPUS_IDS)
def test_corpus_soliton_kinds_match_specialization(corpus_alg, key, seed):
    check_soliton_kinds_against_specialization(corpus_case(corpus_alg, key, seed))


@pytest.mark.parametrize("key", list(test_properties.GENERATED))
def test_property_soliton_kinds_match_specialization(key):
    check_soliton_kinds_against_specialization(test_properties.GENERATED[key])


def almost_abelian_sample(per_dim=8, seed=21):
    """`per_dim` algebras of each dimension of `almost_abelian_family`, drawn
    by a seeded generator, then their `mixed_copies`."""
    family = test_properties.almost_abelian_family()
    half = len(family) // 2
    rng = random.Random(seed)
    sample = rng.sample(family[:half], per_dim) + rng.sample(family[half:], per_dim)
    return sample + test_properties.mixed_copies(sample)


ALMOST_ABELIAN_SAMPLE = almost_abelian_sample()


@pytest.mark.parametrize("alg", ALMOST_ABELIAN_SAMPLE, ids=[a.name for a in ALMOST_ABELIAN_SAMPLE])
def test_almost_abelian_jacobi_reduced_tensors_match_reference(alg):
    # `cov_ricci` lowers K by a symmetric Ricci once, `cov_curvature` forms
    # one slot per pair of index pairs, and the Ledger contracts l5 over
    # c <= d: all three rest on the Jacobi identity, which the dense
    # references do not use
    R4, DR = reference_tensors(alg)
    ric = reference_ricci(alg, R4)
    assert first_mismatch(alg.cov_ricci, reference_cov_ricci(reference_nabla(alg), ric)) is None
    assert first_mismatch(alg.cov_curvature, DR) is None
    assert from_terms(component_names(alg.dim), ledger_check(alg).l5_poly) == reference_l5(alg)


def test_almost_abelian_sample_is_not_flat():
    # the comparison above is not all zeros against zeros
    curved = [alg.name for alg in ALMOST_ABELIAN_SAMPLE if not ledger_check(alg).l5_holds]
    assert len(curved) == 26, curved


class SlotRecorder:
    """A read-only view of a nested list that records the full index of
    every entry read through it."""

    def __init__(self, data, reads, index=()):
        self.data, self.reads, self.index = data, reads, index

    def __getitem__(self, k):
        value = self.data[k]
        if isinstance(value, list):
            return SlotRecorder(value, self.reads, self.index + (k,))
        self.reads.add(self.index + (k,))
        return value


@pytest.mark.parametrize(("key", "seed"), [(key, seed) for key in test_properties.corpus.TEXTS
                                           for seed in (None, 1)])
def test_ledger_reads_independent_slots_only(corpus_alg, key, seed):
    # with `cov_curvature` built, the Ledger reads it only at a < b, c < d,
    # (a, b) <= (c, d), and never reads `curvature_tensor`
    alg = corpus_case(corpus_alg, key, seed)
    want = ledger_check(alg)
    reads = set()
    alg.__dict__["cov_curvature"] = SlotRecorder(alg.cov_curvature, reads)
    alg.__dict__["curvature_tensor"] = None
    got = ledger_check(alg)
    assert got.l3_violations == want.l3_violations and got.l5_poly == want.l5_poly
    assert reads and all(a < b and c < d and (a, b) <= (c, d) for _, a, b, c, d in reads)


@pytest.mark.parametrize("key", list(test_properties.corpus.TEXTS))
def test_ricci_reads_no_curvature_tensor(key):
    # the Ricci tensor is the trace of the curvature operators
    alg = loads(test_properties.corpus.TEXTS[key])
    alg.ricci
    assert "curvature_tensor" not in alg.__dict__
