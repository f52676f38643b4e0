"""Floating-point evaluation at a fixed parameter value.

This is the one module where floats and orthonormal frames exist.  It
rebuilds the whole geometry (connection, curvature, Ricci, Laplacian)
from the specialized structure constants with numpy, independently of the
symbolic engine, which gives the test suite a genuinely separate route to
every number: agreement between `evaluate_numeric` and the exact engine
evaluated at the same parameter is a two-implementation check, not a
tautology.

The entry point refuses parameter values where the metric degenerates
(the determinant is checked exactly before any float is produced).  The
orthonormal frame keeps the basis order when the metric is already
diagonal and otherwise comes from a symmetric eigendecomposition; its
signs determine the reported signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import MetricLieAlgebra

_FRAME_TOL = 1e-9
# null-cone scan: coarse angles, then the defect below which a line is parallel
_SCAN_ANGLES = 720
_SCAN_TOL = 1e-9


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
        v = np.asarray(coords, dtype=float)
        total = 0.0
        for a in range(self.dim):
            ea = self.frame[:, a]
            dV = np.einsum("i,ijk,j->k", ea, self.nabla, v)
            total += self.signs[a] * float(dV @ self.metric @ dV)
        return total

    def energy_density(self, coords) -> float:
        return self.dim / 2 + self.grad_norm_sq(coords) / 2


def evaluate_numeric(alg: MetricLieAlgebra, eps0) -> NumericModel:
    """Specialize exactly, then rebuild the geometry in floating point."""
    eps0 = Fraction(eps0)
    spec = alg.at_eps(eps0)
    if spec.metric_det.is_zero:
        raise SingularMetricAtPoint(f"metric of {alg.name} degenerates at eps={eps0}")
    n = alg.dim

    C = np.array(
        [[[float(spec.brackets[i][j][k].constant_value()) for k in range(n)]
          for j in range(n)] for i in range(n)]
    )
    G_exact = [[spec.metric[i][j].constant_value() for j in range(n)] for i in range(n)]
    G = np.array([[float(x) for x in row] for row in G_exact])
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

    # Koszul formula, all in floats
    K = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            rhs = np.zeros(n)
            for k in range(n):
                rhs[k] = (
                    C[i, j] @ G[:, k] - C[j, k] @ G[:, i] + C[k, i] @ G[:, j]
                )
            K[i, j] = 0.5 * (Ginv @ rhs)
    ops = np.array([K[i].T for i in range(n)])  # ops[i][r][c] = K[i, c, r]

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


def _parallel_defect(model: NumericModel, v: np.ndarray) -> float:
    """max over i of the second singular value of [nabla_{Xi} v | v]; zero
    exactly when span{v} is invariant under every covariant derivative."""
    worst = 0.0
    for i in range(model.dim):
        dv = model.connection_ops[i] @ v
        s = np.linalg.svd(np.column_stack([dv, v]), compute_uv=False)
        if len(s) > 1:
            worst = max(worst, float(s[1]))
    return worst


def null_parallel_scan(alg: MetricLieAlgebra, eps0) -> bool | None:
    """Scan the null cone of a 3-dimensional Lorentzian specialization for
    a direction spanning a parallel line field.

    Returns True/False when the scan applies, None when it does not
    (wrong dimension, definite or degenerate metric).  The cone is
    parameterized through the orthonormal frame as
    v(theta) = e_minority + cos(theta) e_1 + sin(theta) e_2, coarse-scanned
    and then refined by ternary search around the best angle.
    """
    if alg.dim != 3:
        return None
    try:
        model = evaluate_numeric(alg, eps0)
    except SingularMetricAtPoint:
        return None
    if model.signature != "Lorentzian":
        return None
    minority_sign = -1 if model.signs.count(-1) == 1 else 1
    base_idx = model.signs.index(minority_sign)
    majors = [i for i in range(3) if i != base_idx]
    e0 = model.frame[:, base_idx]
    e1 = model.frame[:, majors[0]]
    e2 = model.frame[:, majors[1]]

    def score(theta: float) -> float:
        v = e0 + math.cos(theta) * e1 + math.sin(theta) * e2
        return _parallel_defect(model, v)

    best_theta, best = 0.0, float("inf")
    for k in range(_SCAN_ANGLES):
        theta = 2 * math.pi * k / _SCAN_ANGLES
        s = score(theta)
        if s < best:
            best_theta, best = theta, s
    lo = best_theta - 2 * math.pi / _SCAN_ANGLES
    hi = best_theta + 2 * math.pi / _SCAN_ANGLES
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if score(m1) <= score(m2):
            hi = m2
        else:
            lo = m1
    best = min(best, score((lo + hi) / 2))
    return best < _SCAN_TOL
