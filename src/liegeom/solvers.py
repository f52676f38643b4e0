"""Linear and spectral solvers over the parametric scalar field.

Two workhorses live here.  `solve_parametric` runs exact Gaussian
elimination on a linear system whose coefficients are rational functions
of the parameter, records every quantity whose vanishing could change the
answer (pivots, cleared denominators, consistency residues), re-solves the
system at each rational root of those quantities, and reports the values
where the outcome genuinely differs from the generic one.  A value where
the system is undefined, a pole of an entry or one the caller names
singular, is reported as a 'singular' branch and never solved.  The
candidate set is provably complete for rational exceptional values: away
from the recorded roots the specialized elimination performs the identical
pivot sequence, so rank, consistency, and kernel all specialize.  A candidate
value is re-solved by the same `rref_solve`, on the constant `RatFunc`s of
the specialized entries, so every result is over Q(eps).

`eigen_analyze` finds the eigenvalues of an operator that are themselves
rational functions of the parameter.  The operator is written L = N/D
over Z[eps] once, and the characteristic polynomial det(nu I - N) comes
from Berkowitz's division-free recurrence on the integer tuples of
`scalars`, as does everything after it.  The integer roots of its
squarefree part at one parameter value are Newton-lifted up to a proven
degree bound, and exact division certifies each lift and counts its
multiplicity, so the list is complete.  The remaining factor is returned as
a residual, a tuple of coefficients in mu that `scalars.mu_poly_str`
prints.  No floating point is involved anywhere.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import cmp_to_key, reduce

from .scalars import (
    RatFunc,
    ONE,
    ZERO,
    _canonical,
    _ratfunc,
    _zadd,
    _zdiv_exact,
    _zgcd,
    _zhomogeneous,
    _zlcm,
    _zmul,
    _zneg,
    _zpow,
    _zroots,
    nonzero,
    ratfunc,
    record,
)


# ---------------------------------------------------------------------------
# exact reduced-row-echelon solving over Q(eps)


@record
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


def rref_solve(rows: Sequence[Sequence[RatFunc]], rhs: Sequence[RatFunc]) -> SolveResult:
    """Gauss-Jordan elimination over Q(eps), on `RatFunc` entries; a system
    specialized at one eps has constant ones.

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
        pr = next((i for i in range(r, m) if not A[i][c].is_zero), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        pivot = A[r][c]
        watch.append(pivot)
        A[r] = [x if x.is_zero else x / pivot for x in A[r]]
        prow = nonzero(A[r])
        for i in range(m):
            if i != r and not A[i][c].is_zero:
                f, row = A[i][c], A[i]
                for k, y in prow:
                    row[k] = row[k] - f * y
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    tails = [A[i][n] for i in range(r, m)]
    watch.extend(tails)
    if not all(t.is_zero for t in tails):
        return SolveResult("inconsistent", r, None, [], watch)
    particular = [ZERO] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = A[i][n]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    kernel = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = ONE
        for i, c in enumerate(pivot_cols):
            v[c] = -A[i][fc]
        kernel.append(v)
    status = "unique" if not free_cols else "underdetermined"
    return SolveResult(status, r, particular, kernel, watch)


# ---------------------------------------------------------------------------
# parametric linear systems


@record
class ExceptionalBranch:
    """The system re-solved at one special parameter value."""

    eps: Fraction
    status: str
    result: SolveResult | None


@record
class ParametricSolution:
    unknowns: tuple[str, ...]
    generic: SolveResult
    candidates: list[Fraction]
    branches: list[ExceptionalBranch]

def solve_parametric(
    rows: Sequence[Sequence[RatFunc]],
    rhs: Sequence[RatFunc],
    unknowns: Sequence[str],
    singular: Sequence[Fraction] = (),
) -> ParametricSolution:
    """Solve A(eps) x = b(eps), reporting the generic outcome plus every
    rational parameter value where rank, consistency, or kernel dimension
    changes.  The values where the system is undefined, the poles of its
    entries and the caller's `singular` ones, are each reported as a branch
    with status 'singular' and are never solved.  The other candidate
    values are the zeros and poles of the generic elimination's
    `SolveResult.watch`.
    """
    # no equation leaves every unknown free: one zero row says so
    rows = [[ratfunc(x) for x in r] for r in rows] or [[ZERO] * len(unknowns)]
    rhs = [ratfunc(x) for x in rhs] or [ZERO]
    undefined = {Fraction(x) for x in singular} | {
        root for r, b in zip(rows, rhs) for x in r + [b] for root, _ in x.poles()
    }
    generic = rref_solve(rows, rhs)
    # a consistency value can be identically zero: no root to record
    candidates = sorted(undefined | {
        root for v in generic.watch if not v.is_zero for root, _ in v.zeros() + v.poles()
    })

    branches: list[ExceptionalBranch] = []
    for eps0 in candidates:
        if eps0 in undefined:
            branches.append(ExceptionalBranch(eps0, "singular", None))
            continue
        res = rref_solve([[ratfunc(x.eval(eps0)) for x in r] for r in rows],
                         [ratfunc(b.eval(eps0)) for b in rhs])
        # the kernel dimension is n - rank when consistent and 0 when not
        if res.status != generic.status or res.rank != generic.rank:
            branches.append(ExceptionalBranch(eps0, res.status, res))
    return ParametricSolution(tuple(unknowns), generic, candidates, branches)


def kernel_basis(matrix: Sequence[Sequence[RatFunc]]) -> list[list[RatFunc]]:
    """Generic kernel of a RatFunc matrix, reduced echelon form."""
    return rref_solve(matrix, [ZERO] * len(matrix)).kernel


# ---------------------------------------------------------------------------
# characteristic polynomials over Z[eps], division-free
#
# A polynomial in nu over Z[eps] is a list of the integer tuples of
# `scalars`, lowest degree first, with no trailing zero coefficient.


def _zdot(u: Sequence[tuple], v: Sequence[tuple]) -> tuple:
    """sum_k u[k] v[k] in Z[eps], over the shorter of the two."""
    return reduce(_zadd, map(_zmul, u, v), ())


def charpoly(matrix: Sequence[Sequence[RatFunc]]) -> tuple[list[tuple], tuple]:
    """(q, D): L = N/D over Z[eps] with D the lcm of the denominators of the
    entries, and q(nu) = det(nu I - N) = D^n det(nu/D I - L), monic.

    Berkowitz's recurrence (Inf. Process. Lett. 18, 1984) over the leading
    principal submatrices: with N_k = [[M, c], [r, a]], the coefficients of
    det(nu I - N_k), highest degree first, are those of det(nu I - M)
    times the lower triangular Toeplitz matrix whose first column is
    1, -a, -r c, -r M c, -r M^2 c, ...  It only multiplies and adds.
    """
    D = reduce(_zlcm, (x._d for row in matrix for x in row), (1,))
    N = [[_zmul(x._n, _zdiv_exact(D, x._d)) for x in row] for row in matrix]
    p = [(1,)]
    for k in range(len(N)):
        M, r, c = [row[:k] for row in N[:k]], N[k][:k], [row[k] for row in N[:k]]
        column = [(1,), _zneg(N[k][k])]
        for _ in range(k):
            column.append(_zneg(_zdot(r, c)))
            c = [_zdot(row, c) for row in M]
        p = [_zdot(column[i::-1], p) for i in range(k + 2)]
    return p[::-1], D


def _over(q: Sequence[tuple], D: tuple) -> tuple[RatFunc, ...]:
    """The coefficients in mu of D^-m q(D mu), for q of degree m."""
    m = len(q) - 1
    return tuple(_ratfunc(*_canonical(c, _zpow(D, m - k))) for k, c in enumerate(q))


# ---------------------------------------------------------------------------
# rational-function eigenvalues by Newton lifting


@record
class EigenPair:
    value: RatFunc
    multiplicity: int
    vectors: list[list[RatFunc]]


@record
class EigenDecomposition:
    """Certified rational-function spectrum of a parametric operator.

    `charpoly` is det(mu I - L) as its coefficients in mu, lowest degree
    first.  `pairs` carries every eigenvalue that is a rational function of
    the parameter, ascending as eps -> +oo; `residual` is the monic cofactor
    of the characteristic polynomial that has no such root, in the same
    form ((ONE,) when the spectrum was fully resolved).  The degrees always
    satisfy sum(multiplicities) + len(residual) - 1 == dim.
    """

    charpoly: tuple[RatFunc, ...]
    pairs: list[EigenPair]
    residual: tuple[RatFunc, ...]


def _zsubs(a: Sequence[tuple], x: tuple, terms: int | None = None) -> tuple:
    """sum_k a[k] x^k in Z[eps], each partial sum cut to `terms` terms."""
    acc = ()
    for c in reversed(a):
        acc = _zadd(_zmul(acc, x), c)[:terms]
    return acc


def _zshift(a: tuple, c: int) -> tuple:
    """a(eps + c)."""
    return _zsubs([(x,) if x else () for x in a], (c, 1))


def _zpdivmod(u: list, v: list) -> tuple[list, list]:
    """The remainder of lc(v)^(deg u - deg v + 1) u by v (`scalars._zprem`
    one level up), and the quotient, which is exact when v is monic."""
    dv = len(v) - 1
    r, quo = list(u), []
    for k in range(len(u) - 1 - dv, -1, -1):
        c = r[k + dv]
        quo.append(c)
        r = [_zmul(v[-1], x) for x in r[:k + dv]]
        for j in range(dv):
            r[k + j] = _zadd(r[k + j], _zneg(_zmul(c, v[j])))
    while r and not r[-1]:
        r.pop()
    return quo[::-1], r


def _zprimitive(a: list) -> list:
    """a divided by the gcd in Z[eps] of its coefficients, lc(lc(a)) > 0."""
    g = reduce(_zgcd, (c for c in a if c))
    g = _zneg(g) if (g[-1] < 0) != (a[-1][-1] < 0) else g
    return a if g == (1,) else [_zdiv_exact(c, g) for c in a]


def _zsquarefree(q: list) -> list:
    """q / gcd(q, dq/dnu) for a monic q, by the primitive pseudo-remainder
    sequence.  The primitive gcd divides q, so it is monic too."""
    u, v = q, _zprimitive([_zmul((k,), q[k]) for k in range(1, len(q))])
    while len(v) > 1:
        r = _zpdivmod(u, v)[1]
        if not r:
            return _zpdivmod(q, v)[0]
        u, v = v, _zprimitive(r)
    return q


def _newton_lift(s: Sequence[tuple], r0: int, slope: int, bound: int) -> tuple | None:
    """The root in Z[t] of s(t, nu) through the simple root nu(0) = r0, where
    ds/dnu(0, r0) = slope, up to t^bound; None when a coefficient of the
    Newton lift leaves Z, and then s has no root in Z[t] there."""
    nu = (r0,) if r0 else ()
    for j in range(1, bound + 1):
        value = _zsubs(s, nu, j + 1)
        # the lift makes every coefficient below t^j 0: value is () or ends at t^j
        if value:
            c, rest = divmod(-value[j], slope)
            if rest:
                return None
            nu = nu + (0,) * (j - len(nu)) + (c,)
    return nu


def _rational_roots(q: list, D: tuple) -> tuple[list[tuple[RatFunc, int]], tuple[RatFunc, ...]]:
    """The roots in Q(eps) with multiplicities, ascending as eps -> +oo, of
    the monic p(mu) = D^-m q(D mu), and the cofactor of p that has none.

    q is monic over the integrally closed Z[eps]: the roots of p are nu/D
    for the roots nu in Z[eps] of the squarefree part s of q.  Such a root
    of degree d makes the top term nu^k of s cancel against some s_j nu^j,
    so d <= deg s_j / (k - j).  At an integer eps0 where s stays squarefree
    each root is the Newton lift in eps - eps0 of a simple integer root.
    Exact division of q by nu - root certifies a lift and counts its
    multiplicity; the last quotient, rescaled, is the cofactor.
    """
    s = _zsquarefree(q)
    k = len(s) - 1
    bound = max(((len(s[j]) - 1) // (k - j) for j in range(k) if s[j]), default=0)
    # 0, 1, -1, 2, -2, ...: s is squarefree, so only the finitely many roots
    # of its discriminant fail
    for i in itertools.count():
        eps0 = (i + 1) // 2 * (1 if i % 2 else -1)
        s0 = tuple(_zhomogeneous(c, eps0, 1) for c in s)
        ds0 = tuple(j * c for j, c in enumerate(s0))[1:]
        if len(_zgcd(s0, ds0)) == 1:
            break
    shifted = [_zshift(c, eps0) for c in s]
    roots = []
    for r0, _ in _zroots(s0):
        nu = _newton_lift(shifted, int(r0), _zhomogeneous(ds0, int(r0), 1), bound)
        if nu is None:
            continue
        nu, mult = _zshift(nu, -eps0), 0
        # the remainder of the first division is q(nu), the certificate
        while len(q) > 1:
            quo, rem = _zpdivmod(q, [_zneg(nu), (1,)])
            if rem:
                break
            q, mult = quo, mult + 1
        if mult:
            roots.append((nu, mult))
    # lc(D) > 0, and distinct roots differ in a nonzero leading coefficient
    roots.sort(key=cmp_to_key(lambda a, b: _zadd(a[0], _zneg(b[0]))[-1]))
    return [(_ratfunc(*_canonical(nu, D)), mult) for nu, mult in roots], _over(q, D)


def eigen_analyze(matrix: Sequence[Sequence[RatFunc]]) -> EigenDecomposition:
    """Find all eigenvalues of the operator that are rational functions of
    the parameter, with exact eigenvectors and multiplicities.

    The characteristic polynomial is computed exactly; its roots in Q(eps),
    their multiplicities and the residual factor come from
    `_rational_roots`, and each eigenspace is the reduced echelon kernel of
    L - lambda I.  No floating point is involved.
    """
    n = len(matrix)
    matrix = [[ratfunc(x) for x in row] for row in matrix]
    q, D = charpoly(matrix)
    roots, residual = _rational_roots(q, D)
    pairs: list[EigenPair] = []
    for f, mult in roots:
        vecs = kernel_basis(
            [
                [matrix[i][j] - f if i == j else matrix[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
        pairs.append(EigenPair(f, mult, vecs))

    assert sum(pr.multiplicity for pr in pairs) + len(residual) - 1 == n
    return EigenDecomposition(_over(q, D), pairs, residual)
