"""Metric Lie algebras and their left-invariant geometry, exactly.

A `MetricLieAlgebra` is a Lie algebra of dimension at most four together
with an inner product, both given in a fixed basis X1..Xn by structure
constants and a Gram matrix whose entries are rational functions of the
deformation parameter.  All derived objects (connection, curvature, Ricci,
Lie derivatives of the metric, covariant derivatives) are computed in that
basis by exact field arithmetic, so equality of tensors is decidable.

Conventions used throughout:

  * bracket coefficients: [Xi, Xj] = sum_k C[i][j][k] Xk
  * connection by the Koszul formula,
      2 g(nabla_x y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y)
  * curvature operator R(x,y) = nabla_{[x,y]} - [nabla_x, nabla_y]
  * covariant 4-tensor R(x,y,z,w) = g(R(x,y)z, w)
  * Ricci by the metric trace ric(x,y) = sum g^{kl} R(x, Xk, y, Xl)

The sign pattern of the curvature convention makes the unit round sphere
come out Einstein with ric = 2g, which is the normalization every golden
value in the test suite is pinned to.

Vector and operator values are plain lists (of scalars, and of rows); the
scalar entries may be `RatFunc` or, when generic coefficients are being
solved for, `MultiPoly`.  All helpers here are written against the common
arithmetic of those two types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .scalars import (
    MultiPoly,
    RatFunc,
    ONE,
    ZERO,
    ratfunc,
    scalar_is_zero,
)

MAX_DIM = 4


class SingularMetric(ArithmeticError):
    """Inversion of a Gram matrix whose determinant is identically zero."""


# ---------------------------------------------------------------------------
# small exact matrix helpers, generic over the scalar type


def zeros(rows: int, cols: int | None = None) -> list[list]:
    cols = rows if cols is None else cols
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> list[list]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for r in range(1, k):
                acc = acc + a[i][r] * b[r][j]
            row.append(acc)
        out.append(row)
    return out


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_det(a):
    """Laplace expansion; fine for the n <= 4 matrices this package sees.

    Entries may be of any exact scalar type, `Poly` over Q(eps) included;
    the result has the entries' type."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    acc = None
    for j in range(n):
        if scalar_is_zero(a[0][j]):
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return a[0][0] * 0 if acc is None else acc


def mat_inv(a) -> list[list[RatFunc]]:
    """Inverse by the adjugate; entries must be RatFunc."""
    n = len(a)
    det = mat_det(a)
    if scalar_is_zero(det):
        raise SingularMetric("matrix determinant is identically zero")
    if n == 1:
        return [[ONE / det]]
    out = zeros(n)
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            cof = mat_det(minor)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof / det
    return out


def vector_str(coords: Sequence) -> str:
    """Render a coordinate vector as a combination of X1..Xn: the linear
    `MultiPoly` in X1..Xn with these coefficients."""
    n = len(coords)
    names = tuple(f"X{i+1}" for i in range(n))
    return str(MultiPoly(names, {
        tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coords)
    }))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One failed structural law, found by `MetricLieAlgebra.validate`."""

    law: str
    detail: str

    def __str__(self) -> str:
        return f"{self.law}: {self.detail}"


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra with inner product, in a fixed basis of dim <= 4.

    `brackets[i][j][k]` is the Xk-coefficient of [Xi, Xj]; `metric[i][j]`
    is g(Xi, Xj).  Entries are `RatFunc`.  Instances are immutable; the
    derived geometry is computed once and cached.
    """

    name: str
    dim: int
    brackets: tuple
    metric: tuple

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} not in 1..{MAX_DIM}")
        if len(self.brackets) != self.dim or len(self.metric) != self.dim:
            raise ValueError("tensor shapes do not match the dimension")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_brackets(
        dim: int,
        bracket: Mapping[tuple[int, int], Mapping[int, object]],
        metric: Sequence[Sequence[object]],
        name: str = "unnamed",
    ) -> "MetricLieAlgebra":
        """Build from 0-based sparse brackets {(i, j): {k: coeff}}, i < j.

        Antisymmetry is filled in; coefficients may be ints, Fractions,
        scalar text, or RatFunc.
        """
        C = [[[ZERO for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for (i, j), comp in bracket.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            for k, coeff in comp.items():
                val = ratfunc(coeff)
                C[i][j][k] = val
                C[j][i][k] = -val
        G = [[ratfunc(x) for x in row] for row in metric]
        if any(len(row) != dim for row in G) or len(G) != dim:
            raise ValueError("metric must be a dim x dim matrix")
        return MetricLieAlgebra(
            name=name,
            dim=dim,
            brackets=tuple(tuple(tuple(row) for row in plane) for plane in C),
            metric=tuple(tuple(row) for row in G),
        )

    def at_eps(self, value) -> "MetricLieAlgebra":
        """Specialize the parameter to a rational number, exactly.

        Raises PoleAtEvaluationPoint if any entry has a pole there; the
        result still degenerates if the metric determinant vanishes at the
        point, which callers check via `singular_parameters`.
        """
        v = Fraction(value)
        spec = lambda f: ratfunc(f.eval(v))
        C = tuple(
            tuple(tuple(spec(c) for c in row) for row in plane)
            for plane in self.brackets
        )
        G = tuple(tuple(spec(x) for x in row) for row in self.metric)
        return MetricLieAlgebra(
            name=f"{self.name}[eps={v}]", dim=self.dim, brackets=C, metric=G
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check antisymmetry, the Jacobi identity, metric symmetry, and
        that the metric is not degenerate for every parameter value.
        Returns all violations found, empty when the data is a genuine
        metric Lie algebra.
        """
        out: list[Violation] = []
        n = self.dim
        C, G = self.brackets, self.metric
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if not scalar_is_zero(C[i][j][k] + C[j][i][k]):
                        out.append(Violation(
                            "antisymmetry",
                            f"[X{i+1},X{j+1}] and [X{j+1},X{i+1}] disagree in the X{k+1} component",
                        ))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for l in range(n):
                        acc = ZERO
                        for m in range(n):
                            acc = acc + C[j][k][m] * C[i][m][l]
                            acc = acc + C[k][i][m] * C[j][m][l]
                            acc = acc + C[i][j][m] * C[k][m][l]
                        if not scalar_is_zero(acc):
                            out.append(Violation(
                                "jacobi",
                                f"cyclic bracket sum on (X{i+1},X{j+1},X{k+1}) has nonzero X{l+1} component {acc}",
                            ))
        for i in range(n):
            for j in range(i + 1, n):
                if G[i][j] != G[j][i]:
                    out.append(Violation(
                        "metric-symmetry", f"g[{i+1}][{j+1}] != g[{j+1}][{i+1}]"
                    ))
        if scalar_is_zero(mat_det([list(r) for r in G])):
            out.append(Violation(
                "metric-nondegenerate", "determinant of the metric is identically zero"
            ))
        return out

    def singular_parameters(self) -> list[Fraction]:
        """Rational parameter values where the data stops making sense:
        poles of any entry, and zeros of the metric determinant."""
        return list(self._singular_parameters)

    @cached_property
    def _singular_parameters(self) -> tuple[Fraction, ...]:
        entries = [c for plane in self.brackets for row in plane for c in row]
        entries += [x for row in self.metric for x in row]
        bad = {r for f in entries for r, _ in f.poles()}
        det = self.metric_det
        if not det.is_zero:
            bad.update(r for r, _ in det.zeros() + det.poles())
        return tuple(sorted(bad))

    # -- basic operations --------------------------------------------------

    def inner(self, u: Sequence, v: Sequence):
        """g(u, v) for coordinate vectors."""
        n = self.dim
        acc = ZERO
        for i in range(n):
            if scalar_is_zero(u[i]):
                continue
            for j in range(n):
                if scalar_is_zero(v[j]):
                    continue
                acc = acc + u[i] * v[j] * self.metric[i][j]
        return acc

    @cached_property
    def metric_inverse(self) -> list[list[RatFunc]]:
        return mat_inv([list(r) for r in self.metric])

    @cached_property
    def metric_det(self) -> RatFunc:
        return mat_det([list(r) for r in self.metric])

    # -- connection and curvature ------------------------------------------

    @cached_property
    def nabla_basis(self) -> list[list[list[RatFunc]]]:
        """K[i][j] = coordinates of nabla_{Xi} Xj, from the Koszul formula."""
        n = self.dim
        C, G = self.brackets, self.metric
        ginv = self.metric_inverse
        K = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rhs = []
                for k in range(n):
                    acc = ZERO
                    for m in range(n):
                        acc = acc + C[i][j][m] * G[m][k]
                        acc = acc - C[j][k][m] * G[m][i]
                        acc = acc + C[k][i][m] * G[m][j]
                    rhs.append(acc)
                half = RatFunc(1, 2)
                K[i][j] = [x * half for x in mat_vec(ginv, rhs)]
        return K

    @cached_property
    def connection_operators(self) -> list[list[list[RatFunc]]]:
        """Matrices of nabla_{Xi}: column j holds nabla_{Xi} Xj."""
        n = self.dim
        K = self.nabla_basis
        return [
            [[K[i][j][r] for j in range(n)] for r in range(n)]
            for i in range(n)
        ]

    def nabla(self, u: Sequence, v: Sequence) -> list:
        """nabla_u v for invariant vectors with constant coefficients."""
        n = self.dim
        K = self.nabla_basis
        out = [ZERO for _ in range(n)]
        for i in range(n):
            if scalar_is_zero(u[i]):
                continue
            for j in range(n):
                if scalar_is_zero(v[j]):
                    continue
                for k in range(n):
                    c = K[i][j][k]
                    if not c.is_zero:
                        out[k] = out[k] + u[i] * v[j] * c
        return out

    def curvature_operator(self, i: int, j: int) -> list[list[RatFunc]]:
        """Matrix of R(Xi, Xj) = nabla_{[Xi,Xj]} - [nabla_{Xi}, nabla_{Xj}]."""
        n = self.dim
        ops = self.connection_operators
        acc = zeros(n)
        for k in range(n):
            c = self.brackets[i][j][k]
            if not c.is_zero:
                acc = mat_add(acc, mat_scale(ops[k], c))
        return mat_sub(acc, mat_commutator(ops[i], ops[j]))

    def curvature_operator_vec(self, u: Sequence, v: Sequence) -> list[list]:
        """R(u, v) for coordinate vectors, possibly with generic entries."""
        n = self.dim
        out = zeros(n)
        for i in range(n):
            for j in range(n):
                if i == j or scalar_is_zero(u[i]) or scalar_is_zero(v[j]):
                    continue
                op = self.curvature_operator(i, j)
                w = u[i] * v[j]
                for r in range(n):
                    for c in range(n):
                        if not op[r][c].is_zero:
                            out[r][c] = out[r][c] + w * op[r][c]
        return out

    @cached_property
    def curvature_tensor(self) -> list:
        """R4[i][j][k][l] = g(R(Xi,Xj) Xk, Xl)."""
        n = self.dim
        G = self.metric
        R4 = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                op = self.curvature_operator(i, j)
                for k in range(n):
                    for l in range(n):
                        acc = ZERO
                        for r in range(n):
                            acc = acc + op[r][k] * G[r][l]
                        R4[i][j][k][l] = acc
        return R4

    @cached_property
    def ricci(self) -> list[list[RatFunc]]:
        """ric[i][j] = sum_{k,l} g^{kl} R4[i][k][j][l]."""
        n = self.dim
        R4 = self.curvature_tensor
        ginv = self.metric_inverse
        out = zeros(n)
        for i in range(n):
            for j in range(n):
                acc = ZERO
                for k in range(n):
                    for l in range(n):
                        if not ginv[k][l].is_zero:
                            acc = acc + ginv[k][l] * R4[i][k][j][l]
                out[i][j] = acc
        return out

    @cached_property
    def scalar_curvature(self) -> RatFunc:
        n = self.dim
        ginv = self.metric_inverse
        ric = self.ricci
        acc = ZERO
        for i in range(n):
            for j in range(n):
                acc = acc + ginv[i][j] * ric[i][j]
        return acc

    # -- Lie and covariant derivatives --------------------------------------

    @cached_property
    def lie_derivative_metric_basis(self) -> list[list[list[RatFunc]]]:
        """L[m][i][j] = (Lie_{Xm} g)(Xi, Xj) = g(nabla_{Xi}Xm, Xj) + g(Xi, nabla_{Xj}Xm)."""
        n = self.dim
        K, G = self.nabla_basis, self.metric
        out = []
        for m in range(n):
            mat = zeros(n)
            for i in range(n):
                for j in range(n):
                    acc = ZERO
                    for r in range(n):
                        acc = acc + K[i][m][r] * G[r][j]
                        acc = acc + K[j][m][r] * G[i][r]
                    mat[i][j] = acc
            out.append(mat)
        return out

    def lie_derivative_metric(self, v: Sequence) -> list[list]:
        """(Lie_v g) for an invariant vector; linear in the coordinates."""
        n = self.dim
        basis = self.lie_derivative_metric_basis
        out = zeros(n)
        for m in range(n):
            if scalar_is_zero(v[m]):
                continue
            for i in range(n):
                for j in range(n):
                    if not basis[m][i][j].is_zero:
                        out[i][j] = out[i][j] + v[m] * basis[m][i][j]
        return out

    @cached_property
    def cov_ricci(self) -> list[list[list[RatFunc]]]:
        """D[i][j][k] = (nabla_{Xi} ric)(Xj, Xk); for invariant tensors only
        the connection terms contribute."""
        n = self.dim
        K, ric = self.nabla_basis, self.ricci
        out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = ZERO
                    for m in range(n):
                        acc = acc - K[i][j][m] * ric[m][k]
                        acc = acc - K[i][k][m] * ric[j][m]
                    out[i][j][k] = acc
        return out

    @cached_property
    def cov_curvature(self) -> list:
        """D[i][a][b][c][d] = (nabla_{Xi} R)(Xa, Xb, Xc, Xd)."""
        n = self.dim
        K, R4 = self.nabla_basis, self.curvature_tensor
        out = [
            [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
        for i in range(n):
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        for d in range(n):
                            acc = ZERO
                            for m in range(n):
                                acc = acc - K[i][a][m] * R4[m][b][c][d]
                                acc = acc - K[i][b][m] * R4[a][m][c][d]
                                acc = acc - K[i][c][m] * R4[a][b][m][d]
                                acc = acc - K[i][d][m] * R4[a][b][c][m]
                            out[i][a][b][c][d] = acc
        return out

    # -- basis change --------------------------------------------------------

    def transform_basis(self, P: Sequence[Sequence[object]], name: str | None = None) -> "MetricLieAlgebra":
        """Re-express everything in the basis Yi = sum_r P[r][i] Xr.

        P must be invertible; structure constants and metric transform the
        usual way, so the geometry is the same object in new coordinates.
        """
        n = self.dim
        Pm = [[ratfunc(x) for x in row] for row in P]
        Pinv = mat_inv(Pm)
        C = self.brackets
        newC = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                # [Yi, Yj] in old coordinates, then back through P^{-1}
                old = [ZERO] * n
                for r in range(n):
                    for s in range(n):
                        w = Pm[r][i] * Pm[s][j]
                        if scalar_is_zero(w):
                            continue
                        for k in range(n):
                            if not C[r][s][k].is_zero:
                                old[k] = old[k] + w * C[r][s][k]
                new = mat_vec(Pinv, old)
                for m in range(n):
                    newC[i][j][m] = new[m]
        G = [list(r) for r in self.metric]
        newG = mat_mul(transpose(Pm), mat_mul(G, Pm))
        return MetricLieAlgebra(
            name=name or f"{self.name}/basis-change",
            dim=n,
            brackets=tuple(tuple(tuple(row) for row in plane) for plane in newC),
            metric=tuple(tuple(row) for row in newG),
        )
