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

The tensor layer runs on integer numerators.  The brackets and the metric
are cleared of their denominators once (`scalars._clear`); det g is the
Laplace expansion `_zdet` of the cleared metric, and g^{-1} its adjugate
over that determinant (`_zinverse`).  Every tensor after them, the
lowered and raised connection, the connection along the dual basis, the
curvature operators, the curvature tensor, Ricci and the rough Laplacian,
is held as nested lists of Z[eps] tuples over one denominator per tensor.
Each is formed with the integer kernels `_zmul` and `_zadd` only, over
the product of its factors' denominators, and then divided once by the
gcd of its denominator and all its numerators (`_ztensor`), which keeps
the degrees at those of the canonical entries.  A zero test is a test of
a numerator.  Every contraction runs over the nonzero entries of each
factor only (`_znonzero`, `_zscatter`), and a tensor contracted more than
once is lowered once (`_znabla_lowered`) or raised once (`_znabla_dual`,
the only place where g^{-1} meets the connection in the harmonic and
energy layer).  A left-invariant metric in an adapted frame has few
nonzero structure constants and often a diagonal Gram matrix, so the dense
sums were mostly products with a zero factor.

The public tensors (`nabla_basis`, `connection_operators`,
`curvature_operator`, `curvature_tensor`, `ricci`, `rough_laplacian`,
`lie_derivative_metric_basis`) are views of the integer forms: each entry
is made a canonical `RatFunc` by one `_canonical`, once, where it is read
as a `RatFunc`, to be printed or handed to `solve_parametric` or
`kernel_basis`.  The analyses of `geometry` that only test zeros or build
a polynomial (the Ledger conditions, the harmonic-map trace, the energy
density) read the integer forms themselves, and `laplacian_spectrum`
hands the integer Laplacian to `solvers.eigen_analyze`.  Canonical forms
make every view independent of the order of the terms.

Vector and operator values outside the tensor layer are plain lists (of
scalars, and of rows) with `RatFunc` entries.  The helpers on them use
only the ring operations of `RatFunc` and `.is_zero`: `bilinear`, the one
evaluator of a quadratic form on vectors, also takes components of any
other type with those, such as the polynomials that the references in the
tests pass to it.  The modules layer as scalars -> solvers -> algebra ->
{catalog, numeric} -> geometry -> report -> cli (`tests/test_layers.py`),
so the algebra caches tensors, never a verdict.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property, reduce

from .scalars import (
    RatFunc,
    ZERO,
    _canonical,
    _clear,
    _ratfunc,
    _zadd,
    _zcommon,
    _zdiv_exact,
    _zdot,
    _zlcm,
    _zmul,
    _zneg,
    _zpow,
    nonzero,
    ratfunc,
    record,
    terms_str,
)
from .solvers import EigenDecomposition, eigen_analyze

MAX_DIM = 4


class SingularMetric(ArithmeticError):
    """Inversion of a matrix whose determinant is identically zero: a basis
    change (`transform_basis`); the constructor refuses a degenerate metric."""


# ---------------------------------------------------------------------------
# matrix helpers
#
# The few helpers on `RatFunc` entries (a value at one eps is a constant
# one) test zeros by `.is_zero`, so `bilinear` takes components of any type
# that has it and the ring operations.  Every exact matrix job of the
# algebra, its tensors, det g, g^{-1} and the basis change, runs on the
# integer forms of the helpers after them: nested lists of Z[eps] tuples
# over one denominator (`_ztensor`, `_zadd_scaled`, `_zscatter`), the
# zero-skipping Laplace determinant `_zdet`, the adjugate inverse
# `_zinverse`, and `_entry` and `_view`, which make `RatFunc`s of them.


def zeros(n: int) -> list[list]:
    return [[ZERO for _ in range(n)] for _ in range(n)]


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


def _zleaves(T) -> list[tuple]:
    """The numerators of an integer tensor: nested lists, or a dict of
    them, whose leaves are `scalars` integer tuples."""
    T = list(T.values()) if type(T) is dict else T
    while type(T[0]) is not tuple:
        T = [x for sub in T for x in sub]
    return T


def _zmap(f, T):
    """The integer tensor T with f applied to each numerator."""
    if type(T) is dict:
        return {key: _zmap(f, x) for key, x in T.items()}
    if type(T) is tuple:
        return f(T)
    if type(T[0]) is tuple:
        return [f(x) for x in T]
    return [_zmap(f, x) for x in T]


def _ztensor(T, d: tuple):
    """(T, d) divided by the gcd of d and every numerator of T
    (`scalars._zcommon`), so that the degrees stay those of the canonical
    entries."""
    if not T:
        return T, d
    g = _zcommon(d, _zleaves(T))
    if g == (1,):
        return T, d
    return _zmap(lambda x: _zdiv_exact(x, g), T), _zdiv_exact(d, g)


def _znonzero(row) -> list[tuple[int, tuple]]:
    """The (index, numerator) pairs of the nonzero entries of an integer row."""
    return [(k, x) for k, x in enumerate(row) if x]


def _zadd_scaled(out, s: tuple, a) -> None:
    """out += s a in place, for an integer matrix `a` given by the
    `_znonzero` lists of its rows."""
    for orow, row in zip(out, a):
        for c, y in row:
            orow[c] = _zadd(orow[c], _zmul(s, y))


def _zscatter(out, a, b, s: tuple = (1,)) -> None:
    """out += s a b in place, for integer matrices: `a` and `b` given by the
    `_znonzero` lists of their rows."""
    for orow, row in zip(out, a):
        for t, x in row:
            if s != (1,):
                x = _zmul(s, x)
            for c, y in b[t]:
                orow[c] = _zadd(orow[c], _zmul(x, y))


def _zdet(N) -> tuple:
    """det N of a square integer matrix (1 for the empty one), by Laplace
    expansion along the first row over its nonzero entries."""
    if len(N) < 2:
        return N[0][0] if N else (1,)
    acc = ()
    for j, x in _znonzero(N[0]):
        if minor := _zdet([row[:j] + row[j + 1:] for row in N[1:]]):
            term = _zmul(x, minor)
            acc = _zadd(acc, _zneg(term) if j % 2 else term)
    return acc


def _zinverse(N, d: tuple, det: tuple) -> tuple[list, tuple]:
    """(N / d)^{-1} = d adj(N) / det N for a square integer matrix N over d,
    given det N (`_zdet`), reduced once by `_ztensor`.  The cofactors are
    minors, so no second full-size determinant is formed."""
    if not det:
        raise SingularMetric("matrix determinant is identically zero")
    if det[-1] < 0:
        det, d = _zneg(det), _zneg(d)
    n, s = len(N), (d, _zneg(d))
    adj = [[()] * n for _ in range(n)]
    for i in range(n):
        rows = N[:i] + N[i + 1:]
        for j in range(n):
            if minor := _zdet([row[:j] + row[j + 1:] for row in rows]):
                adj[j][i] = _zmul(minor, s[(i + j) % 2])
    return _ztensor(adj, det)


def _entry(x: tuple, d: tuple) -> RatFunc:
    """The `RatFunc` x / d, by one `_canonical`."""
    return _ratfunc(*_canonical(x, d)) if x else ZERO


def _view(T, d: tuple):
    """The integer tensor (T, d) as nested lists of `RatFunc`s."""
    if type(T) is tuple:
        return _entry(T, d)
    return [_view(x, d) for x in T]


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
        n = self.dim

        def square(rows) -> bool:
            return type(rows) in (tuple, list) and len(rows) == n

        if not (square(self.metric) and all(map(square, self.metric))
                and square(self.brackets)
                and all(square(plane) and all(map(square, plane)) for plane in self.brackets)):
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
        if not self._zmetric_det:
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
    def metric_det(self) -> RatFunc:
        """det g = det N / e^n for the cleared metric N / e."""
        return _entry(self._zmetric_det, _zpow(self._zmetric[1], self.dim))

    # -- the tensor layer on integer numerators -----------------------------
    #
    # Each tensor is held as (T, d): nested lists of `scalars` integer tuples
    # over one denominator tuple d, entry x / d.  It is formed from its
    # factors with `_zmul` and `_zadd` only, over the product of their
    # denominators, and divided once by the gcd of d and its numerators
    # (`_ztensor`).  A zero entry is ().  The public tensors are views of
    # these forms, each entry made a `RatFunc` by one `_canonical`.

    @cached_property
    def _zbrackets(self) -> tuple[list, tuple]:
        n = self.dim
        C, d = _clear(row for plane in self.brackets for row in plane)
        return [C[i * n:(i + 1) * n] for i in range(n)], d

    @cached_property
    def _zmetric(self) -> tuple[list, tuple]:
        return _clear(self.metric)

    @cached_property
    def _zmetric_det(self) -> tuple:
        """det N of the cleared metric N / e: the one full-size determinant
        of an algebra, formed by the constructor's check (`validate`) and
        reused by `_zmetric_inverse` and `metric_det`."""
        return _zdet(self._zmetric[0])

    @cached_property
    def _zmetric_inverse(self) -> tuple[list, tuple]:
        """g^{-1} = e adj(N) / det N, by `_zinverse`."""
        return _zinverse(*self._zmetric, self._zmetric_det)

    @cached_property
    def _znabla_lowered(self) -> tuple[list, tuple]:
        """Kl[i][j][k] / d = g(nabla_{Xi} Xj, Xk), by the Koszul formula
        2 Kl[i][j][k] = Cl[i][j][k] - Cl[j][k][i] + Cl[k][i][j] with
        Cl[i][j][k] = g([Xi, Xj], Xk), over twice the denominators of C and
        g.  Each bracket [Xa, Xb], a < b, is lowered once, and each nonzero
        entry of Cl is scattered to the three entries of Kl it appears in,
        and with the opposite sign (Cl[b][a] = -Cl[a][b]) to three more."""
        n = self.dim
        rn = range(n)
        (C, c), (G, e) = self._zbrackets, self._zmetric
        Gt = transpose(G)
        Kl = [[[()] * n for _ in rn] for _ in rn]
        for a in rn:
            for b in range(a + 1, n):
                if any(C[a][b]):
                    for k in rn:
                        if x := _zdot(Gt[k], C[a][b]):
                            m = _zneg(x)
                            for (p, q, r), y in (((a, b, k), x), ((k, a, b), m), ((b, k, a), x),
                                                 ((b, a, k), m), ((k, b, a), x), ((a, k, b), m)):
                                Kl[p][q][r] = _zadd(Kl[p][q][r], y)
        return _ztensor(Kl, _zmul((2,), _zmul(c, e)))

    @cached_property
    def _znabla(self) -> tuple[list, tuple]:
        """K[i][j][k] / d, the coordinates of nabla_{Xi} Xj: the lowered
        Koszul values raised by g^{-1}, which is symmetric, so each nonzero
        Kl[i][j][c] adds its multiple of row c of g^{-1}."""
        n = self.dim
        Kl, d = self._znabla_lowered
        Gi, e = self._zmetric_inverse
        rows = [_znonzero(row) for row in Gi]
        K = []
        for plane in Kl:
            out = [[()] * n for _ in plane]
            _zscatter(out, [_znonzero(v) for v in plane], rows)
            K.append(out)
        return _ztensor(K, _zmul(d, e))

    @cached_property
    def _zconnection_rows(self) -> list:
        """The `_znonzero` lists of the rows of the matrix of each
        nabla_{Xk} (column j holds nabla_{Xk} Xj), over the denominator of
        `_znabla`."""
        return [[_znonzero(row) for row in transpose(plane)] for plane in self._znabla[0]]

    @cached_property
    def _znabla_dual(self) -> tuple[list, tuple]:
        """M[j][p] / d = coordinates of nabla_{X^j} Xp = sum_i g^{ij} K[i][p],
        along the dual basis X^j = sum_i g^{ij} Xi: the rough Laplacian (and
        through it the energy) and the harmonic-map trace read g^{-1} here."""
        n = self.dim
        rn = range(n)
        K, d = self._znabla
        Gi, e = self._zmetric_inverse
        M = [[[()] * n for _ in rn] for _ in rn]
        for i, grow in enumerate(Gi):
            Ki = [_znonzero(v) for v in K[i]]
            for j, w in _znonzero(grow):
                _zadd_scaled(M[j], w, Ki)
        return _ztensor(M, _zmul(d, e))

    @cached_property
    def _zcurvature(self) -> tuple[dict, tuple]:
        """R[i, j] / d, the matrix of R(Xi, Xj) = nabla_{[Xi,Xj]} -
        [nabla_{Xi}, nabla_{Xj}] for i < j only, keyed by (i, j).  The
        first term is over the denominator c of C times that, e, of K, the
        commutator over e^2; both are brought over e lcm(c, e), which is e^2
        when C is over 1."""
        n = self.dim
        rn = range(n)
        (C, c), (_, e) = self._zbrackets, self._znabla
        rows = self._zconnection_rows
        m = _zlcm(c, e)
        s1, s2 = _zdiv_exact(m, c), _zdiv_exact(m, e)
        out = {}
        for i in rn:
            for j in range(i + 1, n):
                acc = [[()] * n for _ in rn]
                _zscatter(acc, rows[j], rows[i], s2)
                _zscatter(acc, rows[i], rows[j], _zneg(s2))
                for k, x in _znonzero(C[i][j]):
                    _zadd_scaled(acc, _zmul(x, s1), rows[k])
                out[i, j] = acc
        return _ztensor(out, _zmul(e, m))

    @cached_property
    def nabla_basis(self) -> list[list[list[RatFunc]]]:
        """K[i][j] = coordinates of nabla_{Xi} Xj: the lowered Koszul
        values raised by g^{-1}, a view of `_znabla`."""
        return _view(*self._znabla)

    @cached_property
    def connection_operators(self) -> list[list[list[RatFunc]]]:
        """Matrices of nabla_{Xi}: column j holds nabla_{Xi} Xj."""
        return [transpose(plane) for plane in self.nabla_basis]

    @cached_property
    def _curvature_operators(self) -> dict[tuple[int, int], list[list[RatFunc]]]:
        """R(Xi, Xj) for i < j only, keyed by (i, j): a view of `_zcurvature`."""
        R, d = self._zcurvature
        return {key: _view(op, d) for key, op in R.items()}

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

        Only the entries with i < j and k < l are computed, on the integer
        curvature operators lowered by g, and made `RatFunc`s; the other
        three signed copies of each are filled in by sign, and the entries
        with i = j or k = l are zero.  Antisymmetry in (i, j) is that of
        `curvature_operator`.  Antisymmetry in (k, l) holds because every
        Koszul nabla_{Xi} is g-skew, which needs only an antisymmetric
        bracket and a symmetric metric; so R(Xi, Xj), a combination of
        nabla_{Xk} and commutators of them, is g-skew too.  Pair symmetry,
        R4[i][j][k][l] = R4[k][l][i][j], needs the Jacobi identity (through
        the first Bianchi identity), which every instance satisfies; it is
        not used here, and `cov_curvature` relies on it.
        """
        n = self.dim
        rn = range(n)
        (R, d), (G, e) = self._zcurvature, self._zmetric
        low = {}
        for (i, j), op in R.items():
            for k in rn:
                col = [(r, row[k]) for r, row in enumerate(op) if row[k]]
                for l in range(k + 1, n):
                    x = ()
                    for r, y in col:
                        if G[r][l]:
                            x = _zadd(x, _zmul(y, G[r][l]))
                    low[i, j, k, l] = x
        low, d = _ztensor(low, _zmul(d, e))
        R4 = [[[[ZERO] * n for _ in rn] for _ in rn] for _ in rn]
        for (i, j, k, l), x in low.items():
            acc = _entry(x, d)
            neg = -acc
            R4[i][j][k][l] = R4[j][i][l][k] = acc
            R4[j][i][k][l] = R4[i][j][l][k] = neg
        return R4

    @cached_property
    def _zricci(self) -> tuple[list, tuple]:
        """ric[i][j] / d = sum_k (R(Xi, Xk) Xj)_k, the trace of
        Z -> R(Xi, Z) Xj.

        This is the metric trace sum_{k,l} g^{kl} g(R(Xi, Xk) Xj, Xl): g^{-1}
        cancels the lowering by g.  Each R(Xa, Xb), a < b, of `_zcurvature`
        adds its row b to row a of ric (k = b), and as R(Xb, Xa) =
        -R(Xa, Xb) subtracts its row a from row b (k = a).  Neither g^{-1}
        nor `curvature_tensor` is read.  The sum does not use the Jacobi
        identity, but the result is symmetric because every instance
        satisfies it, and `cov_ricci` relies on that."""
        n = self.dim
        R, d = self._zcurvature
        out = [[()] * n for _ in range(n)]
        for (a, b), op in R.items():
            for j, x in _znonzero(op[b]):
                out[a][j] = _zadd(out[a][j], x)
            for j, x in _znonzero(op[a]):
                out[b][j] = _zadd(out[b][j], _zneg(x))
        return _ztensor(out, d)

    @cached_property
    def ricci(self) -> list[list[RatFunc]]:
        """The Ricci tensor, a view of `_zricci`."""
        return _view(*self._zricci)

    @cached_property
    def scalar_curvature(self) -> RatFunc:
        ric, d = self._zricci
        Gi, e = self._zmetric_inverse
        return _entry(_zdot([x for row in Gi for x in row], [x for row in ric for x in row]),
                      _zmul(d, e))

    # -- Lie and covariant derivatives, rough Laplacian ---------------------

    @cached_property
    def lie_derivative_metric_basis(self) -> list[list[list[RatFunc]]]:
        """L[m][i][j] = (Lie_{Xm} g)(Xi, Xj) = g(nabla_{Xi}Xm, Xj) + g(Xi, nabla_{Xj}Xm)
        = Kl[i][m][j] + Kl[j][m][i], read off the lowered connection of
        `_znabla_lowered` (the metric is symmetric); symmetric in i, j, so
        each entry i <= j is made a `RatFunc` once."""
        n = self.dim
        Kl, d = self._znabla_lowered
        out = []
        for m in range(n):
            mat = zeros(n)
            for i in range(n):
                for j in range(i, n):
                    mat[i][j] = mat[j][i] = _entry(_zadd(Kl[i][m][j], Kl[j][m][i]), d)
            out.append(mat)
        return out

    @cached_property
    def cov_ricci(self) -> list[list[list[RatFunc]]]:
        """D[i][j][k] = (nabla_{Xi} ric)(Xj, Xk); for invariant tensors only
        the connection terms contribute:
        D[i][j][k] = -(sum_m K[i][j][m] ric[m][k] + sum_m K[i][k][m] ric[j][m]).

        Ricci is symmetric on a Lie algebra (the Jacobi identity, which the
        constructor checks), so both sums are one lowering of K by Ricci,
        P[i][j] = ric K[i][j], and D[i][j][k] = -(P[i][j][k] + P[i][k][j]):
        a view of that integer form, over the denominators of `_znabla` and
        `_zricci`.
        """
        rn = range(self.dim)
        (K, e), (ric, d) = self._znabla, self._zricci
        rows = [_znonzero(row) for row in ric]
        D = []
        for plane in K:
            P = [[()] * self.dim for _ in rn]
            _zscatter(P, [_znonzero(v) for v in plane], rows)
            D.append([[_zneg(_zadd(P[j][k], P[k][j])) for k in rn] for j in rn])
        return _view(*_ztensor(D, _zmul(e, d)))

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
    def _zlaplacian(self) -> tuple[list, tuple]:
        """L / d, the matrix of sum_ij g^{ij} (nabla_i nabla_j -
        nabla_{nabla_i Xj}) acting on invariant fields.

        With M = `_znabla_dual`, B_j the matrix of nabla_{X^j} (column p holds
        M[j][p]) and H = sum_j M[j][j] the mean-curvature vector, this is
        L = sum_j B_j A_j - sum_k H_k A_k, A_k the matrix of nabla_{Xk}
        (`_zconnection_rows`): n operator products, each formed from the
        nonzero entries of its factors, all over the denominators of M and K."""
        n = self.dim
        rn = range(n)
        (M, d), (_, e) = self._znabla_dual, self._znabla
        rows = self._zconnection_rows
        L = [[()] * n for _ in rn]
        for j in rn:
            _zscatter(L, [_znonzero([M[j][p][r] for p in rn]) for r in rn], rows[j])
        H = [reduce(_zadd, (M[j][j][k] for j in rn), ()) for k in rn]
        for k, h in _znonzero(H):
            _zadd_scaled(L, _zneg(h), rows[k])
        return _ztensor(L, _zmul(d, e))

    @cached_property
    def rough_laplacian(self) -> list[list[RatFunc]]:
        """The rough Laplacian on invariant fields, a view of `_zlaplacian`."""
        return _view(*self._zlaplacian)

    @cached_property
    def laplacian_spectrum(self) -> EigenDecomposition:
        """`solvers.eigen_analyze` of the rough Laplacian, on its integer
        form: the critical families."""
        return eigen_analyze(*self._zlaplacian)

    # -- basis change --------------------------------------------------------

    def transform_basis(self, P: Sequence[Sequence[object]], name: str | None = None) -> "MetricLieAlgebra":
        """Re-express everything in the basis Yi = sum_r P[r][i] Xr.

        P must be an invertible dim x dim matrix.  With C_k the matrix of
        Xk-coefficients of the brackets, [Yi, Yj] has old coordinates
        (P^T C_k P)[i][j], taken back through P^{-1}; the metric becomes
        P^T G P.  So the geometry is the same object in new coordinates.
        It runs on P cleared once, and makes each new entry by one `_entry`.
        """
        n, rn = self.dim, range(self.dim)
        if len(P) != n or any(len(row) != n for row in P):
            raise ValueError("basis change must be a dim x dim matrix")
        Pz, p = _clear([ratfunc(x) for x in row] for row in P)
        Q, q = _zinverse(Pz, p, _zdet(Pz))
        Pt, Pr = [_znonzero(row) for row in transpose(Pz)], [_znonzero(row) for row in Pz]

        def congruent(A):  # P^T A P
            AP, out = [[()] * n for _ in rn], [[()] * n for _ in rn]
            _zscatter(AP, [_znonzero(row) for row in A], Pr)
            _zscatter(out, Pt, [_znonzero(row) for row in AP])
            return out

        (C, c), (G, e) = self._zbrackets, self._zmetric
        new = [[[()] * n for _ in rn] for _ in rn]  # new[l] = sum_k Q[l][k] P^T C_k P
        for k in rn:
            old = [_znonzero(row) for row in congruent([[C[r][s][k] for s in rn] for r in rn])]
            for l, x in _znonzero([row[k] for row in Q]):
                _zadd_scaled(new[l], x, old)
        pp = _zmul(p, p)
        dC, dG = _zmul(_zmul(q, c), pp), _zmul(e, pp)
        return MetricLieAlgebra(
            name=name or f"{self.name}/basis-change", dim=n,
            brackets=tuple(tuple(tuple(_entry(new[l][i][j], dC) for l in rn) for j in rn)
                           for i in rn),
            metric=tuple(tuple(_entry(x, dG) for x in row) for row in congruent(G)),
        )
