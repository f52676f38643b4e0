"""Floating-point evaluation at a fixed parameter value.

This is the one module where floats and orthonormal frames exist.  It
rebuilds the geometry from the specialized structure constants with numpy,
independently of the symbolic engine, which gives the test suite a
genuinely separate route to every number: agreement between the float
route and the exact engine evaluated at the same parameter is a
two-implementation check, not a tautology.

Two entry points share the specialization and the Koszul formula:

* `evaluate_numeric` builds the whole model (connection, curvature, Ricci,
  Laplacian) through an orthonormal frame.  The frame keeps the basis order
  when the metric is already diagonal and otherwise comes from a symmetric
  eigendecomposition; its signs determine the reported signature.
* `null_parallel_scan` decides whether the slice has a null parallel line
  (the numeric cross-check of `geometry.walker_check`, in any dimension).
  It needs only the metric and the connection operators, and it decides
  from the joint eigenspaces of those operators, not by sampling the null
  cone.

Both refuse parameter values where the metric degenerates (the determinant
is checked exactly, before any float geometry is built).  numpy is imported
inside the functions that compute, so importing the package, and every
exact analysis, never loads it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MetricLieAlgebra

_FRAME_TOL = 1e-9
# Walker decision, relative to the largest entry of the connection operators:
# a singular value or matrix entry below _NULL_TOL is zero, and eigenvalues
# closer than _CLUSTER_TOL are one eigenvalue, which absorbs the
# ~sqrt(machine eps) split of a defective eigenvalue.
_NULL_TOL = 1e-9
_CLUSTER_TOL = 1e-6
_MIX_SEED = 20240501


class SingularMetricAtPoint(ArithmeticError):
    """The metric determinant vanishes at the requested parameter value."""


def _signature_name(signs: tuple[int, ...]) -> str:
    minus = signs.count(-1)
    plus = signs.count(1)
    if minus == 0:
        return "Riemannian"
    if min(minus, plus) == 1:
        return "Lorentzian"
    return "other"


@dataclass
class NumericModel:
    """Everything about one metric Lie algebra at one parameter value, in
    floating point: X-basis tensors, an orthonormal frame, and the frame
    versions of curvature and Ricci."""

    eps: Fraction
    dim: int
    signs: tuple[int, ...]
    signature: str
    brackets: np.ndarray       # C[i, j, k]
    metric: np.ndarray
    metric_inv: np.ndarray
    frame: np.ndarray          # column a = frame vector e_a in X coordinates
    nabla: np.ndarray          # K[i, j, k]: nabla_{Xi} Xj = sum_k K[i,j,k] Xk
    connection_ops: np.ndarray # ops[i] = matrix of nabla_{Xi}
    curvature: np.ndarray      # R4[i, j, k, l] = g(R(Xi,Xj)Xk, Xl)
    ricci: np.ndarray
    scalar_curvature: float
    laplacian: np.ndarray
    laplacian_eigenvalues: list[float]
    frame_curvature: np.ndarray
    frame_ricci: np.ndarray

    def grad_norm_sq(self, coords) -> float:
        """sum_a s_a g(nabla_{e_a} V, nabla_{e_a} V) in the frame; equals
        the X-basis contraction with the inverse metric."""
        import numpy as np

        v = np.asarray(coords, dtype=float)
        total = 0.0
        for a in range(self.dim):
            ea = self.frame[:, a]
            dV = np.einsum("i,ijk,j->k", ea, self.nabla, v)
            total += self.signs[a] * float(dV @ self.metric @ dV)
        return total

    def energy_density(self, coords) -> float:
        return self.dim / 2 + self.grad_norm_sq(coords) / 2


def _brackets_at(alg: MetricLieAlgebra, eps0: Fraction):
    """The structure constants C[i, j, k] at eps0, in floats."""
    import numpy as np

    return np.array(
        [[[0.0 if c.is_zero else float(c.eval(eps0)) for c in row] for row in plane]
         for plane in alg.brackets]
    )


def _metric_at(alg: MetricLieAlgebra, eps0: Fraction):
    """The exact metric rows and the float metric at eps0; raises
    SingularMetricAtPoint where the metric degenerates."""
    import numpy as np

    G_exact = [[0 if x.is_zero else x.eval(eps0) for x in row] for row in alg.metric]
    if alg.metric_det.eval(eps0) == 0:
        raise SingularMetricAtPoint(f"metric of {alg.name} degenerates at eps={eps0}")
    return G_exact, np.array(G_exact, dtype=float)


def _koszul(C, G, Ginv):
    """The Koszul formula in floats: K[i, j, k] with nabla_{Xi} Xj =
    sum_k K[i,j,k] Xk, and ops[i], the matrix of nabla_{Xi}."""
    import numpy as np

    CG = C @ G  # CG[i, j, k] = g([Xi, Xj], Xk)
    rhs = CG - np.einsum("jki->ijk", CG) + np.einsum("kij->ijk", CG)
    K = 0.5 * np.einsum("km,ijm->ijk", Ginv, rhs)
    ops = np.ascontiguousarray(K.transpose(0, 2, 1))  # ops[i][r][c] = K[i, c, r]
    return K, ops


def evaluate_numeric(alg: MetricLieAlgebra, eps0) -> NumericModel:
    """Specialize exactly, then rebuild the geometry in floating point."""
    import numpy as np

    eps0 = Fraction(eps0)
    C = _brackets_at(alg, eps0)
    G_exact, G = _metric_at(alg, eps0)
    n = alg.dim
    Ginv = np.linalg.inv(G)

    # orthonormal frame: keep the basis order for a diagonal metric
    if all(G_exact[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        signs = tuple(1 if G_exact[i][i] > 0 else -1 for i in range(n))
        E = np.diag([1.0 / math.sqrt(abs(float(G_exact[i][i]))) for i in range(n)])
    else:
        w, U = np.linalg.eigh(G)
        if np.min(np.abs(w)) < _FRAME_TOL:
            raise SingularMetricAtPoint(
                f"metric eigenvalue below tolerance at eps={eps0}"
            )
        signs = tuple(1 if x > 0 else -1 for x in w)
        E = U / np.sqrt(np.abs(w))[None, :]
    gram = E.T @ G @ E
    assert np.max(np.abs(gram - np.diag(signs))) < _FRAME_TOL

    K, ops = _koszul(C, G, Ginv)

    R4 = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            op = np.einsum("k,kab->ab", C[i, j], ops) - (ops[i] @ ops[j] - ops[j] @ ops[i])
            R4[i, j] = np.einsum("rk,rl->kl", op, G)
    ricci = np.einsum("kl,ikjl->ij", Ginv, R4)
    scal = float(np.einsum("ij,ij->", Ginv, ricci))

    lap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            lap += Ginv[i, j] * (ops[i] @ ops[j] - np.einsum("k,kab->ab", K[i, j], ops))
    eig = np.linalg.eigvals(lap)
    if np.max(np.abs(eig.imag)) < 1e-9:
        eigenvalues = sorted(float(x) for x in eig.real)
    else:
        eigenvalues = sorted(eig, key=lambda z: (z.real, z.imag))

    frame_R4 = np.einsum("ia,jb,kc,ld,ijkl->abcd", E, E, E, E, R4)
    frame_ricci = E.T @ ricci @ E

    return NumericModel(
        eps=eps0,
        dim=n,
        signs=signs,
        signature=_signature_name(signs),
        brackets=C,
        metric=G,
        metric_inv=Ginv,
        frame=E,
        nabla=K,
        connection_ops=ops,
        curvature=R4,
        ricci=ricci,
        scalar_curvature=scal,
        laplacian=lap,
        laplacian_eigenvalues=eigenvalues,
        frame_curvature=frame_R4,
        frame_ricci=frame_ricci,
    )


def _null_rows(M, scale: float):
    """Orthonormal rows spanning the null space of M, up to _NULL_TOL * scale."""
    import numpy as np

    _, s, Vt = np.linalg.svd(M)
    return Vt[np.count_nonzero(s > _NULL_TOL * scale):]


def _invariant_part(B, ops, scale: float):
    """The largest subspace of span(B) that every operator maps into
    itself, as orthonormal columns (B has orthonormal columns)."""
    import numpy as np

    while B.shape[1]:
        outside = np.eye(len(B)) - B @ B.T
        keep = _null_rows((outside @ ops @ B).reshape(-1, B.shape[1]), scale)
        if len(keep) == B.shape[1]:
            break
        B = B @ keep.T
    return B


def _real_eigenspaces(M, scale: float):
    """Orthonormal bases of the real eigenspaces of the square matrix M, as
    columns.  Computed eigenvalues within _CLUSTER_TOL * scale of each other
    count as one, taken at their mean; a cluster whose mean is not real has
    no real eigenvector."""
    import numpy as np

    cluster_tol = _CLUSTER_TOL * scale
    clusters: list[list[complex]] = []
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
            null = _null_rows(M - mu.real * np.eye(len(M)), scale)
            if len(null):
                spaces.append(null.T)
    return spaces


def null_parallel_scan(alg: MetricLieAlgebra, eps0) -> bool | None:
    """Whether the specialization at eps0 has a null vector spanning a
    parallel line, in any dimension.

    Returns None where the question does not apply: the metric degenerates
    at eps0, or it is definite (no null vector at all).  Otherwise a null
    parallel line is a null common eigenvector of the connection operators
    A_i = nabla_{Xi}, found from their joint eigenspaces.  The work list
    starts with W = R^n and holds only subspaces that every A_i maps into
    themselves.  For each W on it:

    1. if every A_i acts on W as a scalar, every vector of W spans a
       parallel line, and the answer is yes exactly when g restricted to W
       is indefinite or degenerate;
    2. otherwise W is split into the real eigenspaces of a random
       combination of the restricted operators, and each eigenspace E is
       shrunk to its largest invariant subspace (repeatedly, to the
       vectors v with A_i v in E for every i) before it is listed.

    The coefficients are drawn afresh for every split, from a generator
    with a fixed seed: a combination used twice is scalar on every subspace
    of one of its own eigenspaces, so a second split by it could not make
    progress.  A common eigenvector lies in an eigenspace of every
    combination, and a line that A_i preserves survives every shrink, so
    no candidate is lost.
    """
    import numpy as np

    eps0 = Fraction(eps0)
    try:
        _, G = _metric_at(alg, eps0)
    except SingularMetricAtPoint:
        return None
    g_vals = np.linalg.eigvalsh(G)
    if g_vals[0] > 0 or g_vals[-1] < 0:
        return None
    _, ops = _koszul(_brackets_at(alg, eps0), G, np.linalg.inv(G))
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
        for E in _real_eigenspaces(mix, scale):
            todo.append(_invariant_part(B @ E, ops, scale))
    return False
