"""Metric Lie algebras and their left-invariant geometry, exactly.

A `MetricLieAlgebra` is a Lie algebra of dimension at most four together
with an inner product, both given in a fixed basis X1..Xn by structure
constants and a Gram matrix whose entries are rational functions of the
deformation parameter.  All derived objects (connection, curvature, Ricci,
Lie derivatives, covariant derivatives, the rough Laplacian, its spectrum)
are computed in that basis exactly, so equality of tensors is decidable.

Conventions used throughout:

  * bracket coefficients: [Xi, Xj] = sum_k C[i][j][k] Xk
  * connection by the Koszul formula,
      2 g(nabla_x y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y)
  * curvature operator R(x,y) = nabla_{[x,y]} - [nabla_x, nabla_y]
  * covariant 4-tensor R(x,y,z,w) = g(R(x,y)z, w)
  * Ricci by the trace ric(x,y) = tr(z -> R(x,z)y) = sum g^{kl} R(x, Xk, y, Xl)

The sign pattern of the curvature convention makes the unit round sphere
come out Einstein with ric = 2g, which is the normalization every golden
value in the test suite is pinned to.

Vector and operator values are plain lists (of scalars, and of rows) with
`RatFunc` entries: the engine reads every polynomial condition off the
coefficient tensors instead of passing generic vectors.  The helpers use
only the ring operations of `RatFunc` and `.is_zero`: `bilinear`, the one
evaluator of a quadratic form on vectors, also takes components of any
other type with those, such as the polynomials that the references in the
tests pass to it.

Every contraction runs over the nonzero entries of each factor only (the
`scalars.nonzero` helper), and a tensor contracted more than once is
lowered once (`_nabla_lowered`) or raised once (`_nabla_dual`, the only
place where g^{-1} meets the connection in the harmonic and energy layer).
A left-invariant metric in an adapted frame has few nonzero structure
constants and often a diagonal Gram matrix, so the dense sums were mostly
products with a zero factor.  Exact arithmetic with canonical `RatFunc`s
makes the result independent of the order of the terms.  The modules
layer as scalars -> solvers -> algebra -> {catalog, numeric} -> geometry
-> report -> cli (`tests/test_layers.py`), so the algebra caches tensors,
never a verdict: g^{-1} comes from `solvers.kernel_basis` and the Laplacian
spectrum from `solvers.eigen_analyze`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .scalars import (
    RatFunc,
    ONE,
    ZERO,
    nonzero,
    ratfunc,
    record,
    terms_str,
)
from .solvers import EigenDecomposition, eigen_analyze, kernel_basis

MAX_DIM = 4
_HALF = RatFunc(1, 2)


class SingularMetric(ArithmeticError):
    """Inversion of a Gram matrix whose determinant is identically zero."""


# ---------------------------------------------------------------------------
# small exact matrix helpers over Q(eps)
#
# Entries are `RatFunc`s (a value at one eps is a constant one); the zero
# test is `.is_zero`, so `bilinear` takes components of any type that has it
# and the ring operations.  They form no product with a zero factor:
# `scalars.nonzero` lists the nonzero entries of a row, and
# `add_scaled`/`add_product` accumulate in place over such lists.  An entry
# that no product reaches is the `RatFunc` ZERO.  The one elimination is
# `solvers.kernel_basis`: `mat_inv` reads the inverse off it, and the
# zero-skipping Laplace `mat_det` is the one determinant.


def zeros(n: int) -> list[list]:
    return [[ZERO for _ in range(n)] for _ in range(n)]


def add_scaled(out, s, a) -> None:
    """out += s * a in place; `a` given by the `nonzero` lists of its rows."""
    for orow, row in zip(out, a):
        for c, x in row:
            orow[c] = orow[c] + s * x


def add_product(out, a, b, negate: bool = False) -> None:
    """out += a b in place (out -= a b when `negate`); `a` and `b` given by
    the `nonzero` lists of their rows."""
    for orow, row in zip(out, a):
        for s, x in row:
            for c, y in b[s]:
                p = x * y
                orow[c] = orow[c] - p if negate else orow[c] + p


def mat_mul(a, b):
    out = [[ZERO for _ in b[0]] for _ in a]
    add_product(out, [nonzero(row) for row in a], [nonzero(row) for row in b])
    return out


def mat_vec(a, v):
    nz = nonzero(v)
    out = []
    for row in a:
        acc = ZERO
        for k, y in nz:
            if not row[k].is_zero:
                acc = acc + row[k] * y
        out.append(acc)
    return out


def bilinear(Q, u, v):
    """u^T Q v, as sum_p u_p (Q v)_p: n products of components, the rest
    scalar multiples.  `Q` has `RatFunc` entries; the components of u and
    v may be `RatFunc`s or of any type with the ring operations of
    `RatFunc` and `.is_zero`.  A `RatFunc` zero when no term survives."""
    nv = nonzero(v)
    acc = ZERO
    for p, up in nonzero(u):
        w = ZERO
        for q, vq in nv:
            if not Q[p][q].is_zero:
                w = w + vq * Q[p][q]
        if not w.is_zero:
            acc = acc + up * w
    return acc


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_det(a):
    """Laplace expansion over `RatFunc` entries; fine for the n <= 4
    matrices this package sees."""
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = None
    for j in range(n):
        if a[0][j].is_zero:
            continue
        minor = mat_det([row[:j] + row[j + 1:] for row in a[1:]])
        if minor.is_zero:
            continue
        term = a[0][j] * minor
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return ZERO if acc is None else acc


def mat_inv(a) -> list[list[RatFunc]]:
    """Inverse of a square `RatFunc` matrix by one elimination: the reduced
    echelon kernel of [a | -I].  Each kernel vector v has a v[:n] = v[n:],
    so the v[:n] are the columns of a^{-1} exactly when the v[n:] are the
    unit vectors e_0..e_{n-1}; otherwise a is singular.  No cofactor and no
    determinant is formed."""
    n = len(a)
    unit = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    kernel = kernel_basis([list(row) + [-x for x in e] for row, e in zip(a, unit)])
    if [v[n:] for v in kernel] != unit:
        raise SingularMetric("matrix determinant is identically zero")
    return transpose([v[:n] for v in kernel])


def vector_str(coords: Sequence) -> str:
    """Render a coordinate vector as a combination of X1..Xn, as
    `scalars.poly_str` prints the linear polynomial in X1..Xn with these
    coefficients."""
    return terms_str((f"X{i+1}", c) for i, c in enumerate(coords))


# ---------------------------------------------------------------------------


@record(frozen=True)
class Violation:
    """One failed structural law, found by `MetricLieAlgebra.validate`."""

    law: str
    detail: str

    def __str__(self) -> str:
        return f"{self.law}: {self.detail}"


class ValidationFailed(ValueError):
    """The data is not a metric Lie algebra: `MetricLieAlgebra.validate`
    found these violations, and the constructor refused the data.  It names
    the refused data by its `name` and `dim`, as the `validate` report
    does."""

    def __init__(self, name: str, dim: int, violations: list[Violation]):
        super().__init__(
            "algebra data is not a metric Lie algebra: "
            + "; ".join(str(v) for v in violations)
        )
        self.name = name
        self.dim = dim
        self.violations = violations


@record(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra with inner product, in a fixed basis of dim <= 4.

    `brackets[i][j][k]` is the Xk-coefficient of [Xi, Xj]; `metric[i][j]`
    is g(Xi, Xj).  Entries are `RatFunc`.  Instances are immutable; the
    derived geometry is computed once and cached.  The constructor checks
    the data once (`validate`) and raises `ValidationFailed` on any
    violation, so every instance is a metric Lie algebra and every analysis
    may use the Jacobi identity.
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
        violations = self.validate()
        if violations:
            raise ValidationFailed(self.name, self.dim, violations)

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
                if not 0 <= k < dim:
                    raise ValueError(f"bracket component {k} must satisfy 0 <= k < dim")
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

        Raises PoleAtEvaluationPoint if any entry has a pole there, and
        ValidationFailed if the metric determinant vanishes at the point:
        both are among the `singular_parameters`.
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
        Returns all violations found.  The constructor runs it once and
        refuses data with any violation, so on an instance it returns [].
        """
        out: list[Violation] = []
        n = self.dim
        C, G = self.brackets, self.metric
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    x, y = C[i][j][k], C[j][i][k]
                    if not (x.is_zero and y.is_zero or (x + y).is_zero):
                        out.append(Violation(
                            "antisymmetry",
                            f"[X{i+1},X{j+1}] and [X{j+1},X{i+1}] disagree in the X{k+1} component",
                        ))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [Xc, [Xa, Xb]] summed cyclically, over nonzero [Xa, Xb] only:
                    # (Xm-coefficient of [Xa, Xb], coefficients of [Xc, Xm])
                    terms = [(x, C[c][m]) for a, b, c in ((j, k, i), (k, i, j), (i, j, k))
                             for m, x in nonzero(C[a][b])]
                    for l in range(n):
                        acc = ZERO
                        for x, row in terms:
                            if not row[l].is_zero:
                                acc = acc + x * row[l]
                        if not acc.is_zero:
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
        if self.metric_det.is_zero:
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
        return bilinear(self.metric, u, v)

    @cached_property
    def metric_inverse(self) -> list[list[RatFunc]]:
        return mat_inv([list(r) for r in self.metric])

    @cached_property
    def metric_det(self) -> RatFunc:
        return mat_det([list(r) for r in self.metric])

    # -- connection and curvature ------------------------------------------

    @cached_property
    def _nabla_lowered(self) -> list[list[list[RatFunc]]]:
        """Kl[i][j][k] = g(nabla_{Xi} Xj, Xk), by the Koszul formula
        2 Kl[i][j][k] = Cl[i][j][k] - Cl[j][k][i] + Cl[k][i][j] with
        Cl[i][j][k] = g([Xi, Xj], Xk).  Each bracket is lowered once, and
        each nonzero entry of Cl is scattered, halved, to the three entries
        of Kl it appears in."""
        n = self.dim
        Gt = transpose(self.metric)
        Kl = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                for c, x in nonzero(mat_vec(Gt, self.brackets[a][b])):
                    h = x * _HALF
                    Kl[a][b][c] = Kl[a][b][c] + h
                    Kl[c][a][b] = Kl[c][a][b] - h
                    Kl[b][c][a] = Kl[b][c][a] + h
        return Kl

    @cached_property
    def nabla_basis(self) -> list[list[list[RatFunc]]]:
        """K[i][j] = coordinates of nabla_{Xi} Xj: the lowered Koszul
        values raised by g^{-1}."""
        ginv = self.metric_inverse
        return [[mat_vec(ginv, row) for row in plane] for plane in self._nabla_lowered]

    @cached_property
    def connection_operators(self) -> list[list[list[RatFunc]]]:
        """Matrices of nabla_{Xi}: column j holds nabla_{Xi} Xj."""
        return [transpose(plane) for plane in self.nabla_basis]

    @cached_property
    def _nabla_dual(self) -> list[list[list[RatFunc]]]:
        """M[j][p] = coordinates of nabla_{X^j} Xp = sum_i g^{ij} K[i][p],
        along the dual basis X^j = sum_i g^{ij} Xi: the rough Laplacian (and
        through it the energy) and the harmonic-map trace read g^{-1} here."""
        n = self.dim
        M = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, grow in enumerate(self.metric_inverse):
            Ki = [nonzero(v) for v in self.nabla_basis[i]]
            for j, w in nonzero(grow):
                add_scaled(M[j], w, Ki)
        return M

    @cached_property
    def _connection_rows(self) -> list[list[list[tuple[int, RatFunc]]]]:
        """The `nonzero` lists of the rows of each nabla_{Xi}."""
        return [[nonzero(row) for row in op] for op in self.connection_operators]

    @cached_property
    def _curvature_operators(self) -> dict[tuple[int, int], list[list[RatFunc]]]:
        """R(Xi, Xj) for i < j only, keyed by (i, j)."""
        n = self.dim
        rows = self._connection_rows
        out = {}
        for i in range(n):
            for j in range(i + 1, n):
                acc = zeros(n)
                for k, c in nonzero(self.brackets[i][j]):
                    add_scaled(acc, c, rows[k])
                add_product(acc, rows[j], rows[i])
                add_product(acc, rows[i], rows[j], negate=True)
                out[i, j] = acc
        return out

    def curvature_operator(self, i: int, j: int) -> list[list[RatFunc]]:
        """Matrix of R(Xi, Xj) = nabla_{[Xi,Xj]} - [nabla_{Xi}, nabla_{Xj}].

        Only the operators with i < j are computed, once per algebra; the
        call returns a fresh copy of one of them, its negation for i > j,
        and zeros for i = j.  R(Xj, Xi) = -R(Xi, Xj) needs nothing but an
        antisymmetric bracket: both terms of the definition change sign
        (and vanish for i = j).
        """
        if i == j:
            return zeros(self.dim)
        if i < j:
            return [row[:] for row in self._curvature_operators[i, j]]
        return [[-x for x in row] for row in self._curvature_operators[j, i]]

    @cached_property
    def curvature_tensor(self) -> list:
        """R4[i][j][k][l] = g(R(Xi,Xj) Xk, Xl).

        Only the entries with i < j and k < l are computed; the other three
        signed copies of each are filled in by sign, and the entries with
        i = j or k = l are zero.  Antisymmetry in (i, j) is that of
        `curvature_operator`.  Antisymmetry in (k, l) holds because every
        Koszul nabla_{Xi} is g-skew, which needs only an antisymmetric
        bracket and a symmetric metric; so R(Xi, Xj), a combination of
        nabla_{Xk} and commutators of them, is g-skew too.  Pair symmetry,
        R4[i][j][k][l] = R4[k][l][i][j], needs the Jacobi identity (through
        the first Bianchi identity), which every instance satisfies; it is
        not used here, and `cov_curvature` relies on it.
        """
        n = self.dim
        G = self.metric
        R4 = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (i, j), op in self._curvature_operators.items():
            for k in range(n):
                col = [(r, op[r][k]) for r in range(n) if not op[r][k].is_zero]
                for l in range(k + 1, n):
                    acc = ZERO
                    for r, x in col:
                        if not G[r][l].is_zero:
                            acc = acc + x * G[r][l]
                    neg = -acc
                    R4[i][j][k][l] = R4[j][i][l][k] = acc
                    R4[j][i][k][l] = R4[i][j][l][k] = neg
        return R4

    @cached_property
    def ricci(self) -> list[list[RatFunc]]:
        """ric[i][j] = sum_k (R(Xi, Xk) Xj)_k, the trace of Z -> R(Xi, Z) Xj.

        This is the metric trace sum_{k,l} g^{kl} g(R(Xi, Xk) Xj, Xl): g^{-1}
        cancels the lowering by g.  Each R(Xa, Xb), a < b, of
        `_curvature_operators` adds its row b to row a of ric (k = b), and
        as R(Xb, Xa) = -R(Xa, Xb) subtracts its row a from row b (k = a).
        Neither g^{-1} nor `curvature_tensor` is read.  The sum does not use
        the Jacobi identity, but the result is symmetric because every
        instance satisfies it, and `cov_ricci` relies on that."""
        out = zeros(self.dim)
        for (a, b), op in self._curvature_operators.items():
            for j, x in nonzero(op[b]):
                out[a][j] = out[a][j] + x
            for j, x in nonzero(op[a]):
                out[b][j] = out[b][j] - x
        return out

    @cached_property
    def scalar_curvature(self) -> RatFunc:
        ric = self.ricci
        acc = ZERO
        for i, row in enumerate(self.metric_inverse):
            for j, w in nonzero(row):
                if not ric[i][j].is_zero:
                    acc = acc + w * ric[i][j]
        return acc

    # -- Lie and covariant derivatives, rough Laplacian ---------------------

    @cached_property
    def lie_derivative_metric_basis(self) -> list[list[list[RatFunc]]]:
        """L[m][i][j] = (Lie_{Xm} g)(Xi, Xj) = g(nabla_{Xi}Xm, Xj) + g(Xi, nabla_{Xj}Xm)
        = Kl[i][m][j] + Kl[j][m][i], read off the lowered connection of
        `_nabla_lowered` (the metric is symmetric); symmetric in i, j."""
        n = self.dim
        Kl = self._nabla_lowered
        out = []
        for m in range(n):
            mat = zeros(n)
            for i in range(n):
                for j in range(i, n):
                    mat[i][j] = mat[j][i] = Kl[i][m][j] + Kl[j][m][i]
            out.append(mat)
        return out

    @cached_property
    def cov_ricci(self) -> list[list[list[RatFunc]]]:
        """D[i][j][k] = (nabla_{Xi} ric)(Xj, Xk); for invariant tensors only
        the connection terms contribute:
        D[i][j][k] = -(sum_m K[i][j][m] ric[m][k] + sum_m K[i][k][m] ric[j][m]).

        Ricci is symmetric on a Lie algebra (the Jacobi identity, which the
        constructor checks), so both sums are one lowering of K by Ricci,
        P[i][j] = ric K[i][j], and D[i][j][k] = -(P[i][j][k] + P[i][k][j]).
        D is symmetric in (j, k): the entries j <= k are computed and the
        others copied.
        """
        rn = range(self.dim)
        ric = self.ricci
        P = [[mat_vec(ric, row) for row in plane] for plane in self.nabla_basis]
        D = [[[ZERO] * self.dim for _ in rn] for _ in rn]
        for i in rn:
            for j in rn:
                for k in range(j, self.dim):
                    D[i][j][k] = D[i][k][j] = -(P[i][j][k] + P[i][k][j])
        return D

    @cached_property
    def cov_curvature(self) -> list:
        """D[i][a][b][c][d] = (nabla_{Xi} R)(Xa, Xb, Xc, Xd)
        = -sum_m K[i][a][m] R4[m][b][c][d] + K[i][b][m] R4[a][m][c][d]
                 + K[i][c][m] R4[a][b][m][d] + K[i][d][m] R4[a][b][c][m].

        Each nabla_{Xi} R has the symmetries of R4: antisymmetry in (a, b)
        and in (c, d), which hold for any antisymmetric bracket and
        symmetric metric, and pair symmetry, which needs the Jacobi identity
        (checked by the constructor).  So only the slots with
        a < b, c < d and (a, b) <= (c, d) in the order of the index pairs
        are computed, 21 of the 36 pairs of index pairs per Xi in
        dimension 4 (6 of 9 in dimension 3), each from the terms whose K
        and R4 factors are both nonzero; a nonzero slot is copied to its
        other seven signed places, and every other entry is zero.
        """
        n = self.dim
        K, R4 = self.nabla_basis, self.curvature_tensor
        out = [
            [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for i in range(n):
            # nonzero Christoffel entries of nabla_{Xi} Xa, as (m, K[i][a][m])
            Ki = [nonzero(K[i][a]) for a in range(n)]
            Di = out[i]
            for p, (a, b) in enumerate(pairs):
                for c, d in pairs[p:]:
                    acc = ZERO
                    for m, x in Ki[a]:
                        y = R4[m][b][c][d]
                        if not y.is_zero:
                            acc = acc + x * y
                    for m, x in Ki[b]:
                        y = R4[a][m][c][d]
                        if not y.is_zero:
                            acc = acc + x * y
                    for m, x in Ki[c]:
                        y = R4[a][b][m][d]
                        if not y.is_zero:
                            acc = acc + x * y
                    for m, x in Ki[d]:
                        y = R4[a][b][c][m]
                        if not y.is_zero:
                            acc = acc + x * y
                    if acc.is_zero:
                        continue
                    neg = -acc
                    Di[a][b][c][d] = Di[b][a][d][c] = Di[c][d][a][b] = Di[d][c][b][a] = neg
                    Di[b][a][c][d] = Di[a][b][d][c] = Di[d][c][a][b] = Di[c][d][b][a] = acc
        return out

    @cached_property
    def rough_laplacian(self) -> list[list[RatFunc]]:
        """Matrix of sum_ij g^{ij} (nabla_i nabla_j - nabla_{nabla_i Xj}) acting
        on invariant fields.

        With M = `_nabla_dual`, B_j the matrix of nabla_{X^j} (column p holds
        M[j][p]) and H = sum_j M[j][j] the mean-curvature vector, this is
        L = sum_j B_j A_j - sum_k H_k A_k, A_k the matrix of nabla_{Xk}: n
        operator products, each formed from the nonzero entries of its factors
        (the A_k as `_connection_rows`)."""
        n = self.dim
        M, rows = self._nabla_dual, self._connection_rows
        rn = range(n)
        L = zeros(n)
        for j in rn:
            add_product(L, [nonzero([M[j][p][r] for p in rn]) for r in rn], rows[j])
        H = [sum((M[j][j][k] for j in rn if not M[j][j][k].is_zero), ZERO) for k in rn]
        for k, h in nonzero(H):
            add_scaled(L, -h, rows[k])
        return L

    @cached_property
    def laplacian_spectrum(self) -> EigenDecomposition:
        """`solvers.eigen_analyze` of the rough Laplacian: the critical families."""
        return eigen_analyze(self.rough_laplacian)

    # -- basis change --------------------------------------------------------

    def transform_basis(self, P: Sequence[Sequence[object]], name: str | None = None) -> "MetricLieAlgebra":
        """Re-express everything in the basis Yi = sum_r P[r][i] Xr.

        P must be invertible.  With C_k the matrix of Xk-coefficients of the
        brackets, [Yi, Yj] has old coordinates (P^T C_k P)[i][j], taken back
        through P^{-1}; the metric becomes P^T G P.  So the geometry is the
        same object in new coordinates.
        """
        n = self.dim
        Pm = [[ratfunc(x) for x in row] for row in P]
        Pinv, Pt = mat_inv(Pm), transpose(Pm)
        C = self.brackets
        old = [mat_mul(Pt, mat_mul([[C[r][s][k] for s in range(n)] for r in range(n)], Pm))
               for k in range(n)]
        newC = [[mat_vec(Pinv, [ok[i][j] for ok in old]) for j in range(n)] for i in range(n)]
        newG = mat_mul(Pt, mat_mul([list(r) for r in self.metric], Pm))
        return MetricLieAlgebra(
            name=name or f"{self.name}/basis-change",
            dim=n,
            brackets=tuple(tuple(tuple(row) for row in plane) for plane in newC),
            metric=tuple(tuple(row) for row in newG),
        )
