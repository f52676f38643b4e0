"""Floating-point evaluation at fixed parameter values.

This is the one module where floats and orthonormal frames exist.  It
rebuilds the geometry from the specialized structure constants with numpy,
independently of the symbolic engine, which gives the test suite a
genuinely separate route to every number: agreement between the float
route and the exact engine evaluated at the same parameter is a
two-implementation check, not a tautology.

Two entry points share the specialization (every entry the correctly
rounded float of its exact value) and the Koszul formula, both over a
leading axis of parameter values:

* `evaluate_numeric` builds the model at one value (connection, Ricci from
  the curvature, Laplacian) and an orthonormal frame.  The frame
  keeps the basis order when the metric is already diagonal and otherwise
  comes from a symmetric eigendecomposition; its signs determine the
  reported signature.
* `null_parallel_scan` decides, for a list of values in one batched pass,
  whether each slice has a null parallel line (the numeric cross-check of
  `geometry.walker_check`, in any dimension), from the joint eigenspaces
  of the connection operators, not by sampling the null cone.

Both refuse parameter values where the metric degenerates, tested exactly
before any float is computed, and raise `OutsideFloatRange` where floats
cannot model the values.  numpy is imported inside the functions that
compute, so importing the package, and every exact analysis, never loads it.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .algebra import MetricLieAlgebra
from .scalars import record

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


class OutsideFloatRange(ArithmeticError):
    """The floats at the requested parameter value cannot model the algebra."""


def _in_float_range(compute):
    """compute(alg, eps), where an exact entry with no finite nonzero float,
    a float that overflows or is invalid, and a numpy.linalg refusal (of an
    inf or NaN, or of a singular float g) raise OutsideFloatRange."""

    @functools.wraps(compute)
    def run(alg: MetricLieAlgebra, eps):
        import numpy as np

        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return compute(alg, eps)
        except (FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
            raise OutsideFloatRange(f"{alg.name} leaves the float range: {exc}") from None

    return run


def _signature_name(signs: tuple[int, ...]) -> str:
    minus = signs.count(-1)
    plus = signs.count(1)
    if minus == 0:
        return "Riemannian"
    if min(minus, plus) == 1:
        return "Lorentzian"
    return "other"


@record
class NumericModel:
    """One metric Lie algebra at one parameter value, in floating point: the
    metric, connection, Ricci and Laplacian in the X basis, an orthonormal
    frame, and Ricci in that frame."""

    eps: Fraction
    dim: int
    signs: tuple[int, ...]
    signature: str
    metric: np.ndarray
    frame: np.ndarray          # column a = frame vector e_a in X coordinates
    nabla: np.ndarray          # K[i, j, k]: nabla_{Xi} Xj = sum_k K[i,j,k] Xk
    ricci: np.ndarray
    scalar_curvature: float
    laplacian: np.ndarray
    laplacian_eigenvalues: list[float]
    frame_ricci: np.ndarray


def _specialize(alg: MetricLieAlgebra, eps_values):
    """The brackets C[e, i, j, k] and the metric G[e, i, j] at each
    eps_values[e], every entry the correctly rounded float of its exact
    value (`RatFunc.eval_float`)."""
    import numpy as np

    n = alg.dim

    def at(entries, *shape):
        out = np.zeros((len(entries), len(eps_values)))
        for p, f in enumerate(entries):
            if not f.is_zero:
                values = [f.eval_float(x) for x in eps_values]
                if any(v == 0 and f.eval(x) for v, x in zip(values, eps_values)):
                    raise FloatingPointError("a nonzero exact entry underflows to 0")
                out[p] = values
        return out.T.reshape(len(eps_values), *shape)

    return (at([c for plane in alg.brackets for row in plane for c in row], n, n, n),
            at([x for row in alg.metric for x in row], n, n))


def _koszul(C, G, Ginv):
    """The Koszul formula in floats, over any leading axes: K[..., i, j, k]
    with nabla_{Xi} Xj = sum_k K[..., i,j,k] Xk, and ops[..., i], the matrix
    of nabla_{Xi}."""
    import numpy as np

    CG = C @ G[..., None, :, :]  # CG[..., i, j, k] = g([Xi, Xj], Xk)
    rhs = CG - np.einsum("...jki->...ijk", CG) + np.einsum("...kij->...ijk", CG)
    K = 0.5 * np.einsum("...km,...ijm->...ijk", Ginv, rhs)
    ops = np.ascontiguousarray(np.swapaxes(K, -1, -2))  # ops[..., i, r, c] = K[..., i, c, r]
    return K, ops


@_in_float_range
def evaluate_numeric(alg: MetricLieAlgebra, eps0) -> NumericModel:
    """Specialize exactly, then rebuild the geometry in floating point.
    Like every analysis, it refuses input that is not a metric Lie algebra
    (`MetricLieAlgebra.require_valid`)."""
    alg.require_valid()
    import numpy as np

    eps0 = Fraction(eps0)
    if alg.metric_det.eval(eps0) == 0:
        raise SingularMetricAtPoint(f"metric of {alg.name} degenerates at eps={eps0}")
    C, G = (x[0] for x in _specialize(alg, [eps0]))
    n = alg.dim
    Ginv = np.linalg.inv(G)

    # orthonormal frame: keep the basis order for a diagonal metric (a float
    # entry is zero, or positive, exactly when its exact value is)
    if not np.any(G - np.diag(np.diag(G))):
        signs = tuple(1 if G[i, i] > 0 else -1 for i in range(n))
        E = np.diag([1.0 / math.sqrt(abs(G[i, i])) for i in range(n)])
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

    R4 = np.zeros((n, n, n, n))  # R4[i, j, k, l] = g(R(Xi,Xj)Xk, Xl)
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

    return NumericModel(
        eps=eps0, dim=n, signs=signs, signature=_signature_name(signs),
        metric=G, frame=E, nabla=K, ricci=ricci, scalar_curvature=scal,
        laplacian=lap, laplacian_eigenvalues=eigenvalues,
        frame_ricci=E.T @ ricci @ E,
    )


@_in_float_range
def null_parallel_scan(alg: MetricLieAlgebra, eps_values) -> list[bool | None]:
    """Whether the specialization at each of eps_values has a null vector
    spanning a parallel line, in any dimension: one answer per value.

    None at every value of `alg.singular_parameters()` and where g is definite.
    Otherwise a null parallel line is a null common eigenvector of the
    connection operators A_i = nabla_{Xi}.  One pass serves every value:
    one specialization, one batched `eigh` of g (definiteness and g^-1), one
    batched Koszul, and one work list of subspaces W, from W = R^n at each
    indefinite value, taken by dimension, largest first, each step one
    batched call over the stack of that dimension.  An invariant W on which
    every A_i is scalar answers yes iff g restricted to W is indefinite or
    degenerate.  Any other is split into the real eigenspaces of a random
    combination of the restricted A_i (eigenvalues within _CLUSTER_TOL are
    one, at their mean), each shrunk to its largest invariant subspace;
    every split draws fresh seeded coefficients, since a combination used
    twice could not split further.  A line v is decided directly: invariant
    iff the stacked residual |(I - v v^T) A_i v| is at most _NULL_TOL times
    the largest entry of the A_i, null iff |g(v, v)| is at most _NULL_TOL
    times the largest |eigenvalue| of g.  A common eigenvector lies in an
    eigenspace of every combination and survives every shrink.
    """
    import numpy as np

    eps_values = [Fraction(x) for x in eps_values]
    live = [e for e, x in enumerate(eps_values) if x not in alg._singular_parameters]
    C, G = _specialize(alg, [eps_values[e] for e in live])
    g_vals, U = np.linalg.eigh(G)
    indefinite = (g_vals[:, 0] <= 0) & (g_vals[:, -1] >= 0)
    live = [e for e, keep in zip(live, indefinite) if keep]
    if not live:
        return [None] * len(eps_values)
    G, g_vals, U = G[indefinite], g_vals[indefinite], U[indefinite]
    _, ops = _koszul(C[indefinite], G, (U / g_vals[:, None]) @ np.swapaxes(U, 1, 2))
    scale = np.maximum(1.0, abs(ops).max(axis=(1, 2, 3)))
    g_tol = _NULL_TOL * abs(g_vals).max(axis=1)
    found = np.zeros(len(live), dtype=bool)
    n, rng = alg.dim, random.Random(_MIX_SEED)
    # by dimension k, chunks (value indices, n x k bases): subspaces every A_i
    # maps into themselves, and subspaces to shrink (lines to test)
    invariant = {n: [(np.arange(len(live)), np.repeat(np.eye(n)[None], len(live), axis=0))]}
    shrink: dict[int, list] = {}

    while invariant or shrink:
        k = max([*invariant, *shrink])
        if k in shrink:
            idx, B = (np.concatenate(parts) for parts in zip(*shrink.pop(k)))
            if k == 1:
                v = B[..., 0]
                Av = np.einsum("eirc,ec->eir", ops[idx], v)
                residual = Av - np.einsum("eir,er->ei", Av, v)[..., None] * v[:, None]
                stays = np.sqrt((residual ** 2).sum(axis=(1, 2))) <= _NULL_TOL * scale[idx]
                null = abs(np.einsum("er,erc,ec->e", v, G[idx], v)) <= g_tol[idx]
                found[idx[stays & null]] = True
            else:
                outside = np.eye(n) - B @ np.swapaxes(B, 1, 2)
                M = (outside[:, None] @ ops[idx] @ B[:, None]).reshape(len(idx), -1, k)
                for d, chunk in _null_parts(M, idx, B, scale).items():
                    (invariant if d == k else shrink).setdefault(d, []).append(chunk)
        if k not in invariant:
            continue
        idx, B = (np.concatenate(parts) for parts in zip(*invariant.pop(k)))
        Bt = np.swapaxes(B, 1, 2)
        R = Bt[:, None] @ ops[idx] @ B[:, None]
        trace = np.trace(R, axis1=2, axis2=3)
        deviation = abs(R - trace[..., None, None] / k * np.eye(k)).max(axis=(1, 2, 3))
        scalar = deviation < _NULL_TOL * scale[idx]
        if scalar.any():
            e = idx[scalar]
            g_W = np.linalg.eigvalsh((Bt @ G[idx] @ B)[scalar])
            found[e[(g_W[:, 0] <= g_tol[e]) & (g_W[:, -1] >= -g_tol[e])]] = True
        split = ~scalar & ~found[idx]
        if split.any():
            _split(idx[split], B[split], R[split], rng, scale, shrink)
    verdicts = dict(zip(live, found.tolist()))
    return [verdicts.get(e) for e in range(len(eps_values))]


def _null_parts(M, idx, B, scale) -> dict:
    """B[j] times an orthonormal basis of the null space of M[j], up to
    _NULL_TOL * scale[idx[j]], for each j, as chunks by dimension."""
    import numpy as np

    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    rank, k = np.count_nonzero(s > _NULL_TOL * scale[idx, None], axis=1), M.shape[-1]
    return {k - r: (idx[rank == r], B[rank == r] @ np.swapaxes(Vt[rank == r, r:], 1, 2))
            for r in sorted(set(rank.tolist()) - {k})}


def _split(idx, B, R, rng, scale, shrink) -> None:
    """List in `shrink`, by dimension, the real eigenspaces in each subspace
    B[j] (of value idx[j]) of a random combination of its operators R[j]."""
    import numpy as np

    coeffs = np.array([[rng.uniform(-1.0, 1.0) for _ in range(R.shape[1])] for _ in idx])
    mix = np.einsum("ei,eirc->erc", coeffs, R)
    real = []  # (j, mean) of each real cluster of eigenvalues of mix[j]
    for j, (values, x) in enumerate(zip(np.linalg.eigvals(mix).tolist(), scale[idx].tolist())):
        cluster_tol = _CLUSTER_TOL * x
        clusters: dict[int, list[int]] = {}  # first member -> members
        for a, z in enumerate(values):
            first = next((b for b in clusters if abs(z - values[b]) < cluster_tol), a)
            clusters.setdefault(first, []).append(a)
        for c in clusters.values():
            mu = complex(sum(values[a] for a in c) / len(c))
            if abs(mu.imag) < cluster_tol:
                real.append((j, mu.real))
    if real:  # the null spaces of mix - mu I
        j, mu = np.array([j for j, _ in real]), np.array([mu for _, mu in real])
        M = mix[j] - mu[:, None, None] * np.eye(mix.shape[-1])
        for d, chunk in _null_parts(M, idx[j], B[j], scale).items():
            shrink.setdefault(d, []).append(chunk)
