"""Linear and spectral solvers over the parametric scalar field.

Two workhorses live here.  `solve_parametric` runs exact Gaussian
elimination on a linear system whose coefficients are rational functions
of the parameter, records every quantity whose vanishing could change the
answer (pivots, cleared denominators, consistency residues), re-solves the
system at each rational root of those quantities, and reports the values
where the outcome genuinely differs from the generic one.  That candidate
set is provably complete for rational exceptional values: away from the
recorded roots the specialized elimination performs the identical pivot
sequence, so rank, consistency, and kernel all specialize.

`eigen_analyze` finds the eigenvalues of an operator that are themselves
rational functions of the parameter.  The characteristic polynomial is
computed exactly, as a `Poly` over Q(eps) in the spectral variable mu, by
the same determinant routine as every other matrix (`mat_det`), and made
squarefree and monic over Q[eps]; that fixes a proven degree bound on its
rational-function roots.  Each rational root at one parameter value where
the polynomial stays squarefree is Newton-lifted in the parameter up to
that bound and kept if it solves the polynomial exactly, so the list is
complete.  What has no rational-function root is returned untouched as a
residual factor, which prints as a polynomial in mu.  No floating point is involved
anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence

from .algebra import mat_det, nonzero
from .scalars import (
    Poly,
    PoleAtEvaluationPoint,
    RatFunc,
    ONE,
    ZERO,
    poly_div_exact,
    poly_lcm,
    poly_rational_roots,
    ratfunc,
    scalar_is_zero,
    square_free_part,
)


# ---------------------------------------------------------------------------
# exact reduced-row-echelon solving over any exact field


@dataclass
class SolveResult:
    """Outcome of exact elimination on A x = b.

    status is 'unique', 'underdetermined', or 'inconsistent'; `particular`
    (free variables set to zero) is None exactly when inconsistent; the
    kernel basis is in reduced echelon form, one vector per free column,
    ordered by free column index.  `watch` holds the scalars whose
    vanishing could alter the outcome: each pivot used, in order, then the
    right-hand side of each row that eliminated to zero.
    """

    status: str
    rank: int
    particular: list | None
    kernel: list[list]
    watch: list

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def rref_solve(rows: Sequence[Sequence], rhs: Sequence) -> SolveResult:
    """Gauss-Jordan elimination over an exact field (Fraction or RatFunc).

    The pivots used and the right-hand sides of the identically-zero rows
    come back in `SolveResult.watch`, so that a parametric caller can find
    the parameter values where the elimination could go differently.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_cols: list[int] = []
    watch = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if not scalar_is_zero(A[i][c])), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        pivot = A[r][c]
        watch.append(pivot)
        A[r] = [x if scalar_is_zero(x) else x / pivot for x in A[r]]
        prow = nonzero(A[r])
        for i in range(m):
            if i != r and not scalar_is_zero(A[i][c]):
                f, row = A[i][c], A[i]
                for k, y in prow:
                    row[k] = row[k] - f * y
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    tails = [A[i][n] for i in range(r, m)]
    watch.extend(tails)
    if not all(scalar_is_zero(t) for t in tails):
        return SolveResult("inconsistent", r, None, [], watch)
    zero = rows[0][0] * 0 if m else ZERO
    one = zero + 1
    particular = [zero for _ in range(n)]
    for i, c in enumerate(pivot_cols):
        particular[c] = A[i][n]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    kernel = []
    for fc in free_cols:
        v = [zero for _ in range(n)]
        v[fc] = one
        for i, c in enumerate(pivot_cols):
            v[c] = zero - A[i][fc]
        kernel.append(v)
    status = "unique" if not free_cols else "underdetermined"
    return SolveResult(status, r, particular, kernel, watch)


# ---------------------------------------------------------------------------
# parametric linear systems


@dataclass
class ExceptionalBranch:
    """The system re-solved at one special parameter value."""

    eps: Fraction
    status: str
    result: SolveResult | None


@dataclass
class ParametricSolution:
    unknowns: tuple[str, ...]
    generic: SolveResult
    candidates: list[Fraction]
    branches: list[ExceptionalBranch]

    def branch_at(self, eps0) -> ExceptionalBranch | None:
        eps0 = Fraction(eps0)
        for b in self.branches:
            if b.eps == eps0:
                return b
        return None


def solve_parametric(
    rows: Sequence[Sequence[RatFunc]],
    rhs: Sequence[RatFunc],
    unknowns: Sequence[str],
) -> ParametricSolution:
    """Solve A(eps) x = b(eps), reporting the generic outcome plus every
    rational parameter value where rank, consistency, or kernel dimension
    changes.  Branches where the system itself is undefined (an entry has
    a pole) are reported with status 'singular'.  The candidate values are
    the poles of the entries and the zeros and poles of the generic
    elimination's `SolveResult.watch`.
    """
    rows = [[ratfunc(x) for x in r] for r in rows]
    rhs = [ratfunc(x) for x in rhs]
    candidates = {
        root for r, b in zip(rows, rhs) for x in r + [b] for root, _ in x.poles()
    }
    generic = rref_solve(rows, rhs)
    for v in generic.watch:
        # a consistency value can be identically zero: no root to record
        if not v.is_zero:
            candidates.update(root for root, _ in v.zeros() + v.poles())

    branches: list[ExceptionalBranch] = []
    for eps0 in sorted(candidates):
        try:
            srows = [[Fraction(x.eval(eps0)) for x in r] for r in rows]
            srhs = [Fraction(b.eval(eps0)) for b in rhs]
        except PoleAtEvaluationPoint:
            branches.append(ExceptionalBranch(eps0, "singular", None))
            continue
        res = rref_solve(srows, srhs)
        differs = (
            res.status != generic.status
            or res.rank != generic.rank
            or res.kernel_dim != generic.kernel_dim
        )
        if differs:
            branches.append(ExceptionalBranch(eps0, res.status, res))
    return ParametricSolution(tuple(unknowns), generic, sorted(candidates), branches)


def kernel_basis(matrix: Sequence[Sequence[RatFunc]]) -> list[list[RatFunc]]:
    """Generic kernel of a RatFunc matrix, reduced echelon form."""
    if not matrix:
        return []
    res = rref_solve(matrix, [ZERO] * len(matrix))
    return res.kernel


# ---------------------------------------------------------------------------
# characteristic polynomials: Poly over Q(eps) in the spectral variable mu


def charpoly(matrix: Sequence[Sequence[RatFunc]]) -> Poly:
    """det(mu I - L) over Q(eps), by `mat_det` on Poly entries."""
    n = len(matrix)
    return mat_det([
        [Poly((-matrix[i][j], ONE) if i == j else (-matrix[i][j],)) for j in range(n)]
        for i in range(n)
    ])


# ---------------------------------------------------------------------------
# rational-function eigenvalues by Newton lifting


@dataclass
class EigenPair:
    value: RatFunc
    multiplicity: int
    vectors: list[list[RatFunc]]


@dataclass
class EigenDecomposition:
    """Certified rational-function spectrum of a parametric operator.

    `pairs` carries every eigenvalue that is a rational function of the
    parameter, ascending as eps -> +oo; `residual` is the cofactor of the
    characteristic polynomial that has no such root (constant 1 when the
    spectrum was fully resolved).  The degrees always satisfy
    sum(multiplicities) + residual.degree == dim.
    """

    charpoly: Poly
    pairs: list[EigenPair]
    residual: Poly


def _horner(coeffs: Sequence, x: Poly, terms: int | None = None) -> Poly:
    """sum_k coeffs[k] * x^k, keeping only the lowest `terms` coefficients
    of every partial sum when `terms` is given."""
    acc = Poly()
    for c in reversed(coeffs):
        acc = acc * x + c
        if terms is not None:
            acc = Poly(acc.coeffs[:terms])
    return acc


def _rational_roots(p: Poly) -> list[RatFunc]:
    """Every root of p in Q(eps), ascending as eps -> +oo.

    With s the squarefree part of p and D the lcm of its coefficient
    denominators, q(nu) = D^m s(nu/D) is monic over Q[eps], and the roots
    of s are nu/D for the roots nu of q in Q[eps] (Q[eps] is integrally
    closed).  Such a root of degree d makes the top term nu^m cancel
    against some q_k nu^k, so d <= deg q_k / (m - k) for that k.  At a
    point eps0 where q stays squarefree every root of q specializes to a
    simple rational root and is its unique Newton lift in t = eps - eps0;
    lifting each rational root up to t^bound and keeping the lifts that
    solve q exactly finds them all.
    """
    s = square_free_part(p)
    m = s.degree
    D = Poly((1,))
    for c in s.coeffs:
        D = poly_lcm(D, c.den)
    q = [c.num * poly_div_exact(D ** (m - k), c.den) for k, c in enumerate(s.coeffs)]
    bound = max((q[k].degree // (m - k) for k in range(m) if not q[k].is_zero), default=0)
    # 0, 1, -1, 2, -2, ...: q is squarefree, so only the finitely many roots
    # of its discriminant fail
    for k in itertools.count():
        eps0 = Fraction((k + 1) // 2 * (1 if k % 2 else -1))
        q0 = Poly([c.eval(eps0) for c in q])
        if square_free_part(q0).degree == m:
            break
    shifted = [_horner(c.coeffs, Poly((eps0, 1))) for c in q]
    roots = []
    for r0, _ in poly_rational_roots(q0):
        slope = q0.derivative().eval(r0)
        nu = Poly((r0,))
        for k in range(1, bound + 1):
            value = _horner(shifted, nu, k + 1)
            if value.degree == k:
                nu = nu + Poly([0] * k + [-value.coeffs[k] / slope])
        nu = _horner(nu.coeffs, Poly((-eps0, 1)))
        if _horner(q, nu).is_zero:
            roots.append(RatFunc(nu, D))
    # distinct roots: the leading coefficient of a difference is nonzero
    return sorted(roots, key=cmp_to_key(lambda f, g: (f - g).num.leading))


def eigen_analyze(matrix: Sequence[Sequence[RatFunc]]) -> EigenDecomposition:
    """Find all eigenvalues of the operator that are rational functions of
    the parameter, with exact eigenvectors and multiplicities.

    The characteristic polynomial is computed exactly, its rational-function
    roots are found by Newton lifting from one rational parameter value and
    certified exactly (`_rational_roots`), and each multiplicity is read off
    by repeated exact division.  Eigenvalues that are not rational
    functions stay in the residual factor.  No floating point is involved.
    """
    n = len(matrix)
    matrix = [[ratfunc(x) for x in row] for row in matrix]
    p = charpoly(matrix)
    residual = p
    pairs: list[EigenPair] = []
    for f in _rational_roots(p):
        factor = Poly((-f, ONE))
        mult = 0
        while residual.degree >= 1:
            quo, rem = residual.pdivmod(factor)
            if not rem.is_zero:
                break
            residual = quo
            mult += 1
        vecs = kernel_basis(
            [
                [matrix[i][j] - f if i == j else matrix[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
        pairs.append(EigenPair(f, mult, vecs))

    assert sum(pr.multiplicity for pr in pairs) + max(residual.degree, 0) == n
    return EigenDecomposition(p, pairs, residual)
