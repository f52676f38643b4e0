"""The Walker numeric cross-check against the route it replaced.

`numeric.null_parallel_scan` decides every sample parameter value in one
batched pass: one float specialization (integer Horner and one int/int
division per entry), one batched Koszul, and one work list of equal-dimension
stacks of subspaces.  The reference below is the older route, kept as it
was: one value at a time, the specialization through `Fraction`s, and a
joint-eigenspace loop that makes one small numpy call per subspace.  Both
must give the same True/False/None at every sample value of
`geometry.walker_check`, on the 36 corpus cases (unmixed and under mixing
seeds 1-3), on the property algebras and on the 300 seeded almost-abelian
algebras R x_D R^(n-1) of `test_properties.almost_abelian_family`.
"""

import random
from collections import Counter

import numpy as np
import pytest

from liegeom.geometry import _NUMERIC_EPS_CANDIDATES
from liegeom.numeric import _specialize, null_parallel_scan

import test_properties
from test_tensor_reference import CORPUS_CASES, corpus_case

_NULL_TOL = 1e-9
_CLUSTER_TOL = 1e-6
_MIX_SEED = 20240501


def reference_ops(alg, eps0):
    """The float metric and connection operators at eps0, each entry
    specialized through its exact `Fraction` value."""
    G = np.array([[float(x.eval(eps0)) for x in row] for row in alg.metric])
    C = np.array([[[float(c.eval(eps0)) for c in row] for row in plane]
                  for plane in alg.brackets])
    CG = C @ G
    rhs = CG - np.einsum("jki->ijk", CG) + np.einsum("kij->ijk", CG)
    K = 0.5 * np.einsum("km,ijm->ijk", np.linalg.inv(G), rhs)
    return G, np.ascontiguousarray(K.transpose(0, 2, 1))


def null_rows(M, scale):
    _, s, Vt = np.linalg.svd(M)
    return Vt[np.count_nonzero(s > _NULL_TOL * scale):]


def invariant_part(B, ops, scale):
    while B.shape[1]:
        outside = np.eye(len(B)) - B @ B.T
        keep = null_rows((outside @ ops @ B).reshape(-1, B.shape[1]), scale)
        if len(keep) == B.shape[1]:
            break
        B = B @ keep.T
    return B


def real_eigenspaces(M, scale):
    cluster_tol = _CLUSTER_TOL * scale
    clusters = []
    for z in np.linalg.eigvals(M):
        for c in clusters:
            if abs(z - c[0]) < cluster_tol:
                c.append(z)
                break
        else:
            clusters.append([z])
    spaces = []
    for c in clusters:
        mu = sum(c) / len(c)
        if abs(mu.imag) < cluster_tol:
            null = null_rows(M - mu.real * np.eye(len(M)), scale)
            if len(null):
                spaces.append(null.T)
    return spaces


def reference_null_parallel(alg, eps0):
    """The older per-value route: None where the metric degenerates or is
    definite, otherwise whether a joint eigenspace of the connection
    operators holds a null line."""
    if alg.metric_det.eval(eps0) == 0:
        return None
    G, ops = reference_ops(alg, eps0)
    g_vals = np.linalg.eigvalsh(G)
    if g_vals[0] > 0 or g_vals[-1] < 0:
        return None
    scale = max(1.0, float(abs(ops).max()))
    g_tol = _NULL_TOL * float(abs(g_vals).max())
    rng = random.Random(_MIX_SEED)
    todo = [np.eye(alg.dim)]
    while todo:
        B = todo.pop()
        k = B.shape[1]
        if k == 0:
            continue
        restricted = B.T @ ops @ B
        traces = np.trace(restricted, axis1=1, axis2=2)
        deviation = restricted - traces[:, None, None] / k * np.eye(k)
        if abs(deviation).max() < _NULL_TOL * scale:
            g_W = np.linalg.eigvalsh(B.T @ G @ B)
            if g_W[0] <= g_tol and g_W[-1] >= -g_tol:
                return True
            continue
        coeffs = np.array([rng.uniform(-1.0, 1.0) for _ in restricted])
        mix = np.einsum("i,ijk->jk", coeffs, restricted)
        for E in real_eigenspaces(mix, scale):
            todo.append(invariant_part(B @ E, ops, scale))
    return False


# ---------------------------------------------------------------------------
# the sweep


@pytest.fixture(scope="module")
def sweep_algebras(corpus_alg):
    algebras = [corpus_case(corpus_alg, key, seed) for key, seed in CORPUS_CASES]
    algebras += list(test_properties.GENERATED.values())
    return algebras + test_properties.almost_abelian_family()


def test_scan_matches_reference(sweep_algebras):
    assert len(sweep_algebras) == 360
    counts, mismatches = Counter(), []
    for alg in sweep_algebras:
        verdicts = null_parallel_scan(alg, _NUMERIC_EPS_CANDIDATES)
        for eps0, verdict in zip(_NUMERIC_EPS_CANDIDATES, verdicts):
            expected = reference_null_parallel(alg, eps0)
            counts[expected] += 1
            if verdict is not expected:
                mismatches.append((alg.name, eps0, verdict, expected))
    assert mismatches == []
    # every kind of decision is exercised, so the sweep cannot go vacuous
    assert counts[True] >= 255 and counts[False] >= 1996 and counts[None] >= 629, counts


def test_specialization_is_correctly_rounded(sweep_algebras):
    # each float is the exact value rounded once, as float(Fraction) gives
    for alg in sweep_algebras[::3]:
        C, G = _specialize(alg, _NUMERIC_EPS_CANDIDATES)
        for e, eps0 in enumerate(_NUMERIC_EPS_CANDIDATES):
            exact = [float(c.eval(eps0)) for plane in alg.brackets for row in plane for c in row]
            exact += [float(x.eval(eps0)) for row in alg.metric for x in row]
            got = list(C[e].ravel()) + list(G[e].ravel())
            assert [x.hex() for x in got] == [x.hex() for x in exact], (alg.name, eps0)
