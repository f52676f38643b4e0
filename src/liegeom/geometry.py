"""Geometric verdicts: solitons, symmetries, distinguished vector fields.

Every `MetricLieAlgebra` is a metric Lie algebra (its constructor refuses
other data with `ValidationFailed`), so the Jacobi identity may be used
throughout.

Every analysis here follows the same pattern.  Pose the defining condition
exactly over the scalar field, resolve it symbolically, and report both
the generic answer and the finitely many rational parameter values where
the answer changes.  The Einstein, soliton and Killing conditions are
linear: one equation per metric entry i <= j, whose coefficient row and
right-hand side are read off the metric, Ricci and Lie-derivative tensors
and handed to `solvers.solve_parametric`.  The geodesic and null parallel
conditions are systems of quadratic forms in the components of the field.
Every polynomial read off a tensor (these forms, the soliton equations, the
Ledger l5 and the energy density) is one sparse monomial dict, `_terms`:
the sorted index tuple of each monomial maps to its nonzero `RatFunc`
coefficient, so a quadratic form is keyed by its slots (i, j), i <= j.  The
case analysis reads the slots on the coordinates not yet set to zero, the
verdicts hold the dicts themselves, and `scalars.poly_str` prints them.
The harmonic-map trace is tested on each critical family by polarization:
the raised connection is contracted with the family vectors first, then
with the curvature operators, one component of the trace at a time.
Verdicts are never sampled or approximated: the Walker analysis adds a
float cross-check at sample parameter values, but a disagreement there
refuses rather than decides.  When the polynomial case analysis cannot
finish with its safe inference rules it raises `CaseAnalysisIncomplete`
instead of guessing.

The conditions themselves:

  * Einstein:       ric = lam * g for a constant lam
  * Ricci soliton:  Lie_X g = lam * g - ric  (or twice that, see
                    `ricci_soliton_solve` conventions)
  * Killing field:  Lie_X g = 0
  * geodesic field: nabla_V V = 0
  * null parallel line field (Walker structure): g(V,V) = 0, V != 0, and
    span{V} parallel, i.e. nabla_{Xi} V proportional to V for every i
  * Ledger conditions: the cyclic sum of nabla ric vanishing (degree 3),
    and the degree-5 contraction
      sum g^{ac} g^{bd} R(X,Xa,X,Xb) (nabla_X R)(X,Xc,X,Xd) = 0 for all X
  * critical vector fields of the energy functional: eigenvectors of the
    rough Laplacian L = sum g^{ij} (nabla_i nabla_j - nabla_{nabla_i Xj});
    every nabla_X is g-skew, so |nabla V|^2 = -g(LV, V), and on a critical
    family with eigenvalue lam that is not null the energy is
    E(V) = n/2 - (lam/2) g(V, V)
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .algebra import (
    MetricLieAlgebra,
    _entry,
    _znonzero,
    _ztensor,
    vector_str,
)
from .numeric import null_parallel_scan
from .scalars import (
    ONE,
    RatFunc,
    ZERO,
    _clear,
    _zadd,
    _zdot,
    _zmul,
    _zneg,
    component_names,
    poly_str,
    ratfunc,
    record,
)
from .solvers import (
    ExceptionalBranch,
    ParametricSolution,
    kernel_basis,
    solve_parametric,
)


class CaseAnalysisIncomplete(ArithmeticError):
    """The polynomial case analysis could not decide the zero set."""


# ---------------------------------------------------------------------------
# Einstein and Ricci soliton


def _upper(n: int) -> list[tuple[int, int]]:
    """The entries i <= j of a symmetric n x n matrix, row by row: one
    linear equation each in the Einstein, soliton and Killing systems."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _terms(entries) -> dict[tuple[int, ...], RatFunc]:
    """The sparse monomial dict of sum c * x_{i1} * ... * x_{ik} over the
    (index tuple, coefficient) entries: the sorted index tuple of each
    monomial maps to its nonzero coefficient.  Zero entries are skipped,
    entries that share a key are added, and a sum that cancels is dropped."""
    terms: dict[tuple[int, ...], RatFunc] = {}
    for idx, c in entries:
        if c.is_zero:
            continue
        key = tuple(sorted(idx))
        if key in terms:
            c = terms[key] + c
            if c.is_zero:
                del terms[key]
                continue
        terms[key] = c
    return terms


@record
class EinsteinVerdict:
    generic: bool
    lam: RatFunc | None
    exceptional: list[tuple[Fraction, RatFunc]]


def einstein_check(alg: MetricLieAlgebra) -> EinsteinVerdict:
    """Is ric = lam g, generically or at special parameter values?

    The factor is treated as one unknown in a parametric linear system, so
    the exceptional values come out of the same complete candidate search
    as every other solve.
    """
    ric, G = alg.ricci, alg.metric
    upper = _upper(alg.dim)
    sol = solve_parametric([[G[i][j]] for i, j in upper], [ric[i][j] for i, j in upper], ("lam",),
                           alg.singular_parameters())
    generic = sol.generic.status == "unique"
    lam_val = sol.generic.particular[0] if generic else None
    exceptional = [(b.eps, b.result.particular[0]) for b in sol.branches if b.status == "unique"]
    return EinsteinVerdict(generic, lam_val, exceptional)


@record
class SolitonBranch:
    eps: Fraction
    kind: str  # degenerate-metric | einstein | soliton | none
    lam: RatFunc | None
    witness: list[RatFunc] | None
    kernel_dim: int
    description: str


@record
class SolitonVerdict:
    convention: str
    unknowns: tuple[str, ...]
    equations: list[dict[tuple[int, ...], RatFunc]]
    solution: ParametricSolution
    generic_soliton: bool
    witness: tuple[list[RatFunc], RatFunc] | None
    soliton_type: str | None
    exceptional: list[SolitonBranch]


SOLITON_CONVENTIONS = ("paper", "doubled")


def _soliton_type(lam) -> str | None:
    if not lam.is_constant:
        return None
    v = lam.constant_value()
    if v > 0:
        return "shrinking"
    if v < 0:
        return "expanding"
    return "steady"


def ricci_soliton_solve(alg: MetricLieAlgebra, convention: str = "paper") -> SolitonVerdict:
    """Solve Lie_X g = lam g - ric over invariant X and constant lam.

    convention 'paper' is the equation as written above; 'doubled' puts a
    factor 2 on the right-hand side, the other common normalization.  The
    choice rescales X and lam but never changes solvability, so the
    exceptional parameter set is convention-independent.
    """
    if convention not in SOLITON_CONVENTIONS:
        raise ValueError(f"unknown soliton convention {convention!r}")
    n = alg.dim
    names = tuple(f"x{i+1}" for i in range(n)) + ("lam",)
    factor = 2 if convention == "doubled" else 1
    lie = alg.lie_derivative_metric_basis
    ric, G = alg.ricci, alg.metric
    rows, rhs = [], []
    def scaled(x):  # -factor * x, multiplying only a nonzero x by 2
        return -x if factor == 1 or x.is_zero else x * -factor
    for i, j in _upper(n):
        row = [lie[m][i][j] for m in range(n)] + [scaled(G[i][j])]
        b = scaled(ric[i][j])
        if not (b.is_zero and all(x.is_zero for x in row)):
            rows.append(row)
            rhs.append(b)
    sol = solve_parametric(rows, rhs, names, alg.singular_parameters())
    # one affine equation sum_k row[k] * names[k] - b = 0 per row
    eqs = [_terms([((k,), c) for k, c in enumerate(row)] + [((), -b)])
           for row, b in zip(rows, rhs)]

    generic_ok = sol.generic.status != "inconsistent"
    witness = None
    stype = None
    if generic_ok:
        part = sol.generic.particular
        witness = (part[:n], part[n])
        stype = _soliton_type(part[n])

    branches: list[SolitonBranch] = []
    for b in sol.branches:
        eps0, res = b.eps, b.result
        if b.status == "singular":
            branches.append(SolitonBranch(
                eps0, "degenerate-metric", None, None, 0,
                f"metric or structure data is singular at eps={eps0}",
            ))
            continue
        if res.status == "inconsistent":
            branches.append(SolitonBranch(
                eps0, "none", None, None, 0,
                f"no invariant Ricci soliton at eps={eps0}",
            ))
            continue
        # the branch is solved at eps0: its values are constant `RatFunc`s
        lam0 = res.particular[n]
        coords = res.particular[:n]
        # eps0 is not singular, so no entry of ric or g has a pole there
        lam_q = lam0.constant_value()
        einstein = all(
            ric[i][j].eval(eps0) == lam_q * G[i][j].eval(eps0)
            for i in range(n) for j in range(n)
        )
        kind = "einstein" if einstein else "soliton"
        desc = (
            f"Einstein with lam={lam0} at eps={eps0}"
            if einstein else
            f"soliton with lam={lam0}, X={vector_str(coords)} at eps={eps0}"
        )
        branches.append(SolitonBranch(eps0, kind, lam0, coords, res.kernel_dim, desc))
    return SolitonVerdict(
        convention, names, eqs, sol, generic_ok, witness, stype, branches
    )


# ---------------------------------------------------------------------------
# Killing fields


@record
class KillingVerdict:
    solution: ParametricSolution
    basis: list[list[RatFunc]]
    # the branches that are not 'singular', so each has a result
    exceptional: list[ExceptionalBranch]


def killing_solve(alg: MetricLieAlgebra) -> KillingVerdict:
    """Invariant Killing fields: the kernel of X -> Lie_X g."""
    n = alg.dim
    names = tuple(f"x{i+1}" for i in range(n))
    lie = alg.lie_derivative_metric_basis
    rows = [[lie[m][i][j] for m in range(n)] for i, j in _upper(n)]
    sol = solve_parametric(rows, [ZERO] * len(rows), names, alg.singular_parameters())
    branches = [b for b in sol.branches if b.status != "singular"]
    return KillingVerdict(sol, sol.generic.kernel, branches)


# ---------------------------------------------------------------------------
# polynomial case analysis for quadratic vector-field conditions


def _forced(items) -> set[int] | None:
    """The coordinates that must vanish for one form, given by its live
    (slot, coefficient) items, by safe rules, or None when neither applies.
    Rule 1: a single diagonal entry, c * x_i^2, forces x_i = 0.  Rule 2: a
    diagonal support sum lam_i * x_i^2 whose ratios lam_i / lam_0 are
    positive rational constants is definite up to a common factor, so it
    forces every x_i.
    """
    if any(i != j for (i, j), _ in items):
        return None
    base = items[0][1]
    for _, c in items[1:]:
        ratio = c / base
        if not ratio.is_constant or ratio.constant_value() <= 0:
            return None
    return {i for (i, _), _ in items}


def solve_zero_set(forms: Sequence, names: Sequence[str]) -> list[frozenset[str]]:
    """Describe the real zero set of the quadratic forms, given as `_terms`
    dicts (slot (i, j), i <= j, to the coefficient of x_i x_j), as a union
    of coordinate subspaces {some variables = 0}, if the safe inference
    rules suffice.

    Each component is the frozenset of variables forced to zero, and the
    union over components is the exact zero set: every form vanishes on the
    whole subspace of a component, so each of its unit vectors is a common
    zero.  A coordinate set to zero leaves the live set, so every
    coefficient a rule reads is an entry of an input form, and the
    classifiers re-run the analysis at the rational zeros of all of them
    (`_coefficient_roots`).  Raises CaseAnalysisIncomplete, printing the
    forms left on the live coordinates, when no rule applies.
    """
    names = tuple(names)

    def recurse(live: frozenset[int]) -> list[frozenset[str]]:
        active = [items for U in forms
                  if (items := [(ij, c) for ij, c in U.items() if ij[0] in live and ij[1] in live])]
        if not active:
            return [frozenset(name for i, name in enumerate(names) if i not in live)]
        forced: set[int] = set()
        for items in active:
            forced |= _forced(items) or set()
        if forced:
            return recurse(live - forced)
        # branch on the first single cross term x_i x_j
        cross = next((items[0][0] for items in active if len(items) == 1), None)
        if cross is None:
            raise CaseAnalysisIncomplete("no safe rule applies to: " + "; ".join(
                poly_str(names, dict(items)) for items in active))
        out: list[frozenset[str]] = []
        for var in cross:
            out.extend(recurse(live - {var}))
        return out

    components = recurse(frozenset(range(len(names))))
    minimal = [
        a for a in set(components)
        if not any(b != a and b <= a for b in components)
    ]
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


def component_str(component: frozenset[str], names: Sequence[str]) -> str:
    if not component:
        return "all coefficients free"
    zeroed = [n for n in names if n in component]
    return "=".join(zeroed) + "=0"


def _coefficient_roots(forms: Sequence) -> set[Fraction]:
    return {r for U in forms for c in U.values() for r, _ in c.zeros()}


def _at_eps(forms: Sequence, eps0: Fraction) -> list[dict[tuple[int, int], RatFunc]]:
    """The forms with the parameter pinned to eps0; entries that vanish
    there are dropped."""
    return [{ij: ratfunc(v) for ij, c in U.items() if (v := c.eval(eps0))} for U in forms]


# ---------------------------------------------------------------------------
# geodesic vector fields


@record
class GeodesicBranch:
    eps: Fraction
    components: list[frozenset[str]]


@record
class GeodesicClassification:
    names: tuple[str, ...]
    equations: list[dict[tuple[int, ...], RatFunc]]
    components: list[frozenset[str]]
    exceptional: list[GeodesicBranch]


def geodesic_classify(alg: MetricLieAlgebra) -> GeodesicClassification:
    """All invariant geodesic fields, i.e. solutions of nabla_V V = 0.

    The equation set is quadratic in the coefficients of V; the zero set is
    returned as a union of coordinate subspaces together with the special
    parameter values where the union changes (for example where every
    equation collapses and all fields become geodesic).
    """
    names = component_names(alg.dim)
    forms = _geodesic_forms(alg)
    components = solve_zero_set(forms, names)
    branches = []
    for eps0 in sorted(_coefficient_roots(forms) - set(alg.singular_parameters())):
        comp0 = solve_zero_set(_at_eps(forms, eps0), names)
        if comp0 != components:
            branches.append(GeodesicBranch(eps0, comp0))
    return GeodesicClassification(names, forms, components, branches)


# ---------------------------------------------------------------------------
# Walker structures: null parallel line fields


@record
class WalkerVerdict:
    is_walker: bool
    witness: list[RatFunc] | None
    exceptional: list[tuple[Fraction, bool, list[RatFunc] | None]]
    numeric_checks: list[tuple[Fraction, bool]]


_WITNESS_SEQ = (0, 1, -1, 2, -2, 3, -3)
_NUMERIC_EPS_CANDIDATES = (
    Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
    Fraction(-1), Fraction(-2), Fraction(-1, 2), Fraction(5),
)


def _geodesic_forms(alg: MetricLieAlgebra) -> list[dict[tuple[int, int], RatFunc]]:
    """The components of nabla_V V for V = sum_i x_i Xi as `_terms` dicts,
    read off `nabla_basis` K: the k-th is sum_ij K[i][j][k] x_i x_j.  Zero
    forms are dropped."""
    K = alg.nabla_basis
    rn = range(alg.dim)
    forms = (_terms(((i, j), K[i][j][k]) for i in rn for j in rn) for k in rn)
    return [U for U in forms if U]


def _walker_forms(alg: MetricLieAlgebra) -> list[dict[tuple[int, int], RatFunc]]:
    """The null parallel conditions on V = sum_i x_i Xi as `_terms` dicts,
    read off `nabla_basis` K and `metric` G: for each i and each
    r < s the 2x2 minor (nabla_{Xi} V)_r x_s - (nabla_{Xi} V)_s x_r of the
    columns [nabla_{Xi} V, V], with (nabla_{Xi} V)_r = sum_j K[i][j][r] x_j;
    then g(V, V) = sum_pq G[p][q] x_p x_q.  Zero forms are dropped."""
    n = alg.dim
    K, G = alg.nabla_basis, alg.metric
    rn = range(n)
    forms = [
        _terms([((j, s), K[i][j][r]) for j in rn] + [((j, r), -K[i][j][s]) for j in rn])
        for i in rn for r in rn for s in range(r + 1, n)
    ]
    forms.append(_terms(((p, q), G[p][q]) for p in rn for q in rn))
    return [U for U in forms if U]


@functools.cache
def _grid_points(n: int) -> tuple[tuple[int, ...], ...]:
    """The points of _WITNESS_SEQ^n by increasing 1-norm, sorted once per n."""
    return tuple(sorted(
        itertools.product(_WITNESS_SEQ, repeat=n),
        key=lambda p: sum(abs(x) for x in p),
    ))


def _grid_witness(forms: Sequence, n: int) -> list[RatFunc] | None:
    """Search small integer coefficient vectors for an exact solution of
    every form, identically in the parameter.  Each point is screened
    first at eps0, the first (101 + k)/7 that is no pole of a coefficient,
    in integers (a form that vanishes identically vanishes there), and only
    the points that pass are evaluated exactly, in the same order."""
    poles = {r for U in forms for c in U.values() for r, _ in c.poles()}
    eps0 = next(x for x in (Fraction(101 + k, 7) for k in itertools.count()) if x not in poles)
    at_eps0 = [{s: c.eval(eps0) for s, c in U.items()} for U in forms]
    screens = []  # each form at eps0, scaled to integer coefficients
    for U0 in at_eps0:
        scale = lcm(*(x.denominator for x in U0.values()))
        screens.append([(i, j, x.numerator * (scale // x.denominator)) for (i, j), x in U0.items()])

    def value(U, pt):  # sum_{i <= j} U[(i, j)] p_i p_j, with integer p_i p_j
        return sum((c * (pt[i] * pt[j]) for (i, j), c in U.items() if pt[i] and pt[j]), ZERO)

    for pt in _grid_points(n):
        if (any(pt) and all(sum(c * pt[i] * pt[j] for i, j, c in S) == 0 for S in screens)
                and all(value(U, pt).is_zero for U in forms)):
            return [ratfunc(Fraction(v)) for v in pt]
    return None


def _null_parallel_witness(forms: Sequence, names) -> list[RatFunc] | None:
    """Decide whether the Walker forms have a nonzero common zero.

    Returns None exactly when every component of `solve_zero_set` is the
    origin, and otherwise a witness on which every form vanishes: the unit
    vector X_p of the first free coordinate p of the first nontrivial
    component.  When the case analysis is stuck, a grid witness still
    decides; a stuck analysis without a grid witness raises
    CaseAnalysisIncomplete.
    """
    n = len(names)
    try:
        components = solve_zero_set(forms, names)
    except CaseAnalysisIncomplete:
        witness = _grid_witness(forms, n)
        if witness is None:
            raise
        return witness
    nontrivial = [c for c in components if len(c) < n]
    if not nontrivial:
        return None
    p = next(p for p in range(n) if names[p] not in nontrivial[0])
    return [ONE if q == p else ZERO for q in range(n)]


def walker_check(alg: MetricLieAlgebra) -> WalkerVerdict:
    """Decide whether the metric admits an invariant null parallel line
    field (the invariant core of a Walker structure).

    The symbolic route classifies the common zero set of the parallelism
    minors plus the null condition, generically and at every candidate
    parameter value, with one decision routine.  An independent numeric
    route (`numeric.null_parallel_scan`, from the joint eigenspaces of the
    float connection operators) decides all the sample parameter values in
    one batched call; it must agree at every one that is not singular and
    where the metric is indefinite, in any dimension.  Otherwise
    CaseAnalysisIncomplete names the first value that disagrees, rather
    than reporting either answer.
    """
    names = component_names(alg.dim)
    forms = _walker_forms(alg)
    witness = _null_parallel_witness(forms, names)
    verdict = witness is not None

    singular = set(alg.singular_parameters())
    exceptional: list[tuple[Fraction, bool, list[RatFunc] | None]] = []
    for eps0 in sorted(_coefficient_roots(forms) - singular):
        # a witness at eps0 has constant `RatFunc` coordinates
        w0 = _null_parallel_witness(_at_eps(forms, eps0), names)
        if (w0 is not None) != verdict:
            exceptional.append((eps0, w0 is not None, w0))

    numeric_checks: list[tuple[Fraction, bool]] = []
    override = {eps0: v for eps0, v, _ in exceptional}
    scan = null_parallel_scan(alg, _NUMERIC_EPS_CANDIDATES)
    for eps0, found in zip(_NUMERIC_EPS_CANDIDATES, scan):
        if found is None:
            continue
        expected = override.get(eps0, verdict)
        numeric_checks.append((eps0, found == expected))
        if found != expected:
            raise CaseAnalysisIncomplete(
                f"numeric joint-eigenspace check at eps={eps0} contradicts "
                f"the symbolic verdict ({found} vs {expected})"
            )

    return WalkerVerdict(verdict, witness, exceptional, numeric_checks)


# ---------------------------------------------------------------------------
# Ledger conditions


@record
class LedgerReport:
    l3_holds: bool
    l3_violations: list[tuple[int, int, int]]
    l5_poly: dict[tuple[int, ...], RatFunc]
    l5_holds: bool


def ledger_check(alg: MetricLieAlgebra) -> LedgerReport:
    """The two odd Ledger conditions within reach of invariant data.

    Degree 3: the cyclic sum of the covariant derivative of Ricci must
    vanish.  Degree 5: the full contraction
    l5(X) = sum g^{ac} g^{bd} R(X,Xa,X,Xb)(nabla_X R)(X,Xc,X,Xd) must
    vanish for every X; it is computed as one degree-5 polynomial identity
    in the components of X, so the verdict is exact.  Both are read off the
    integer tensors of the algebra (`_znabla`, `_zricci`, `_zcurvature`);
    a zero test is a test of a numerator, and only the l5 coefficients
    that survive are made `RatFunc`s.

    Both rest on the Jacobi identity, which every `MetricLieAlgebra`
    satisfies.  Ricci is symmetric, so with P[i][j][k] =
    sum_m K[i][j][m] ric[m][k] (see `cov_ricci`) the cyclic sum on
    (i, j, k) is minus the sum of P over the six orderings of (i, j, k).
    It is symmetric in (i, j, k), and zero exactly when the sum of P over
    the distinct orderings is: one sum of K and Ricci numerators per
    multiset {i, j, k}.

    Degree 5 is read off the Jacobi operator J = R(X, .)X, and nabla R is
    never formed.  With W = nabla_X X:
      * R(X,Xa,X,Xb) = g(J Xa, Xb), and (nabla_X R)(X,Xc,X,Xd) =
        g(J' Xc, Xd) with J' = (nabla_X R)(X, .)X, so the two raises by
        g^{-1} leave l5 = tr(J* J'), J* the g-adjoint of J.  J is
        g-self-adjoint, which is the pair symmetry of R (the Jacobi
        identity again), so l5 = tr(J J').
      * For invariant fields, J' = [nabla_X, J] - (R(W, .)X + R(X, .)W).
      * tr(J [nabla_X, J]) = tr(J nabla_X J) - tr(J J nabla_X) = 0 by the
        cyclicity of the trace.
      * J is quadratic in X, and R(W, .)X + R(X, .)W is its derivative
        along W.  So with f = tr(J^2), a quartic in X,
        l5 = -tr(J D_W J) = -1/2 D_W f = -1/2 sum_k W_k df/dx_k,
        where W_k = sum_ij K[i][j][k] x_i x_j are the geodesic forms.
    f is read off the curvature operators, with no g^{-1}; l5 comes over
    twice the square of their denominator times that of K, and is divided
    by the gcd of that and its numerators before its coefficients are made
    `RatFunc`s.
    """
    violations = _cyclic_violations(alg)
    l5 = _ledger_l5(alg)
    return LedgerReport(not violations, violations, l5, not l5)


def _cyclic_violations(alg: MetricLieAlgebra) -> list[tuple[int, int, int]]:
    """The 1-based (i, j, k) whose cyclic sum of `cov_ricci` is nonzero, in
    lexicographic order; one sum of K and Ricci numerators per multiset."""
    rn = range(alg.dim)
    K, ric = alg._znabla[0], alg._zricci[0]
    Kn = [[_znonzero(v) for v in plane] for plane in K]
    bad = set()
    for t in itertools.combinations_with_replacement(rn, 3):
        cyclic = ()
        for a, b, c in set(itertools.permutations(t)):
            for m, x in Kn[a][b]:
                if y := ric[m][c]:
                    cyclic = _zadd(cyclic, _zmul(x, y))
        if cyclic:
            bad.add(t)
    return [(i + 1, j + 1, k + 1) for i, j, k in itertools.product(rn, repeat=3)
            if tuple(sorted((i, j, k))) in bad]


def _add_term(terms: dict, key, x: tuple) -> None:
    """terms[key] += x for integer tuples."""
    terms[key] = _zadd(terms[key], x) if key in terms else x


def _ledger_l5(alg: MetricLieAlgebra) -> dict[tuple[int, ...], RatFunc]:
    """The degree-5 Ledger polynomial as a `_terms` dict, -1/2 D_W tr(J^2)
    as `ledger_check` derives it.

    Its polynomials are dicts from a monomial to its integer numerator.  A
    monomial prod x_i^e_i is coded as the integer sum e_i 8^i (no exponent
    reaches 8), so the code of a product is the sum of the codes."""
    n = alg.dim
    rn = range(n)
    (R, d), (K, e) = alg._zcurvature, alg._znabla
    unit = [8 ** i for i in rn]
    # J[m][a] = sum_ik x_i x_k (R(Xi, Xa) Xk)^m; R(Xp, Xq), p < q, is read
    # at a = q with i = p, and negated at a = p with i = q
    J = [[{} for _ in rn] for _ in rn]
    for (p, q), op in R.items():
        for i, a, sign in ((p, q, 1), (q, p, -1)):
            for k in rn:
                for m in rn:
                    if x := op[m][k]:
                        _add_term(J[m][a], unit[i] + unit[k], x if sign > 0 else _zneg(x))
    # f = tr(J^2) = sum_m J[m][m]^2 + 2 sum_{m < a} J[m][a] J[a][m]
    square: dict[int, tuple] = {}
    cross: dict[int, tuple] = {}
    for m in rn:
        for a in range(m, n):
            out = square if a == m else cross
            for c1, x in J[m][a].items():
                for c2, y in J[a][m].items():
                    _add_term(out, c1 + c2, _zmul(x, y))
    for code, x in cross.items():
        _add_term(square, code, _zmul((2,), x))
    # W_k = (nabla_X X)^k
    W = [{} for _ in rn]
    for i in rn:
        for j in rn:
            for k in rn:
                if x := K[i][j][k]:
                    _add_term(W[k], unit[i] + unit[j], x)
    # sum_k W_k df/dx_k = -2 l5
    l5: dict[int, tuple] = {}
    for code, x in square.items():
        if not x:
            continue
        for k in rn:
            power = code // unit[k] % 8
            if power and W[k]:
                rest, x_k = code - unit[k], _zmul((power,), x)
                for wcode, w in W[k].items():
                    _add_term(l5, rest + wcode, _zmul(x_k, w))
    l5, den = _ztensor({code: _zneg(x) for code, x in l5.items() if x},
                       _zmul((2,), _zmul(_zmul(d, d), e)))
    return {sum(((i,) * (code // unit[i] % 8) for i in rn), ()): _entry(x, den)
            for code, x in l5.items()}


# ---------------------------------------------------------------------------
# rough Laplacian, harmonicity, energy


def _trace_vanishes(alg: MetricLieAlgebra, us: list[list[RatFunc]]) -> bool:
    """Whether the harmonic-map trace t(V) = sum_ij g^{ij} R(nabla_{Xi} V, V) Xj
    = sum_j R(nabla_{X^j} V, V) Xj vanishes on span{u_k}.  By polarization it
    does exactly when t(u_k, u_l) = sum_j R(nabla_{X^j} u_k, u_l) Xj +
    R(nabla_{X^j} u_l, u_k) Xj is zero for every k <= l (for k = l one of
    the two equal halves is enough).

    Only zeros are tested, so every factor is read as its numerators: the
    u_k cleared of their denominators once, M = `_znabla_dual` and the
    curvature operators `_zcurvature`.  nabla_{X^j} u = sum_p u_p M[j][p] is
    formed once per vector.  R(x, y) = sum_{a<b} (x_a y_b - x_b y_a)
    R(Xa, Xb), so for each j the wedge coefficients of the pair are formed
    from the nonzero components, and t(u_k, u_l) one component at a time:
    the test stops at the first nonzero one."""
    n = alg.dim
    rn = range(n)
    M, ops = alg._znabla_dual[0], alg._zcurvature[0]
    Mn = [[_znonzero(v) for v in plane] for plane in M]
    nz = [_znonzero(u) for u in _clear(us)[0]]
    # D[k][j] = nabla_{X^j} u_k, as the (index, numerator) of its nonzero components
    D = []
    for u in nz:
        Du = []
        for j in rn:
            acc = [()] * n
            for p, x in u:
                for r, y in Mn[j][p]:
                    acc[r] = _zadd(acc[r], _zmul(x, y))
            Du.append(_znonzero(acc))
        D.append(Du)
    for k, l in itertools.combinations_with_replacement(range(len(us)), 2):
        halves = [(D[k], nz[l])] + ([(D[l], nz[k])] if k != l else [])
        # W[j][a, b] = the wedge coefficient of R(Xa, Xb) in the j-th term
        W = [{} for _ in rn]
        for Dx, y in halves:
            for j in rn:
                for a, xa in Dx[j]:
                    for b, yb in y:
                        if a < b:
                            _add_term(W[j], (a, b), _zmul(xa, yb))
                        elif a > b:
                            _add_term(W[j], (b, a), _zneg(_zmul(xa, yb)))
        for r in rn:
            acc = ()
            for j in rn:
                for key, w in W[j].items():
                    if w and (z := ops[key][r][j]):
                        acc = _zadd(acc, _zmul(w, z))
            if acc:
                return False
    return True


@record
class CriticalFamily:
    eigenvalue: RatFunc
    multiplicity: int
    basis: list[list[RatFunc]]
    trace_vanishes: bool
    section_harmonic: bool
    map_harmonic: bool
    harmonic_eps: list[Fraction]


@record
class HarmonicityReport:
    families: list[CriticalFamily]
    parallel_basis: list[list[RatFunc]]


def harmonicity_classify(alg: MetricLieAlgebra) -> HarmonicityReport:
    """Critical vector fields of the energy functional and their quality.

    The critical families are the eigenspaces of the rough Laplacian, read
    off `alg.laplacian_spectrum`; harmonic sections are its kernel, the
    eigenspace of the value zero; a family consists of harmonic maps when
    additionally the curvature trace vanishes on it.  By polarization the
    trace vanishes on span{u_k} exactly when the polarized trace vanishes on
    every pair u_k, u_l with k <= l (`_trace_vanishes`).  Parallel fields
    (the trivial critical points) are the joint kernel of all covariant
    derivative operators.  A parallel field V has nabla V = 0, so LV = 0:
    when the spectrum has no eigenvalue 0 (det L is not identically zero,
    and every rational eigenvalue is found) there is none, and the kernel
    is not formed.
    """
    families = []
    singular = None  # read once, when the first root is tested
    for pair in alg.laplacian_spectrum.pairs:
        trace_zero = _trace_vanishes(alg, pair.vectors)
        section = pair.value.is_zero
        roots = [r for r, _ in pair.value.zeros()] if trace_zero and not section else []
        if roots and singular is None:
            singular = set(alg.singular_parameters())
        families.append(CriticalFamily(
            eigenvalue=pair.value,
            multiplicity=pair.multiplicity,
            basis=pair.vectors,
            trace_vanishes=trace_zero,
            section_harmonic=section,
            map_harmonic=section and trace_zero,
            harmonic_eps=[r for r in roots if r not in singular],
        ))
    parallel = (kernel_basis([row for op in alg.connection_operators for row in op])
                if any(f.section_harmonic for f in families) else [])
    return HarmonicityReport(families, parallel)


@record
class FamilyEnergy:
    eigenvalue: RatFunc
    basis: list[list[RatFunc]]
    constant: Fraction
    rho2_coeff: RatFunc | None
    gram: list[list[RatFunc]]


@record
class EnergyReport:
    """The energy section.  `density_generic` is n/2 + |nabla V|^2 / 2 as a
    polynomial in the components of V: a verdict polynomial (a monomial
    dict, see `scalars`) whenever the connection is not flat, but the plain
    `RatFunc` n/2 on a flat one (every nabla_{Xi} Xj = 0), where there is no
    polynomial part.  The two print differently ("(3/2)" as a constant
    term of `poly_str`, "3/2" as a RatFunc), and the report prints it as it
    is."""

    dim: int
    density_generic: dict[tuple[int, ...], RatFunc] | RatFunc
    families: list[FamilyEnergy]


def energy_report(alg: MetricLieAlgebra) -> EnergyReport:
    """Energy along each critical family: n/2 - (lam/2) rho^2.

    The density is n/2 + |nabla V|^2 / 2, |nabla V|^2 =
    sum_ij g^{ij} g(nabla_{Xi} V, nabla_{Xj} V).  Every nabla_X is g-skew,
    so g(nabla_{Xj} V, nabla_{Xi} V) = -g(nabla_{Xi} nabla_{Xj} V, V), and
    the term -nabla_H of L, H = sum_ij g^{ij} nabla_{Xi} Xj, adds
    g(nabla_H V, V) = 0: |nabla V|^2 = -g(LV, V) with L =
    `alg.rough_laplacian`.  So the generic density
    n/2 - (1/2) sum_pq GL[p][q] V_p V_q, GL = G L, is built from the entries
    of GL as one polynomial; (p, q) and (q, p) meet at one sorted slot.  A
    family is an eigenspace of `alg.laplacian_spectrum` (no curvature trace
    is formed) with eigenvalue lam, so its gradient Gram matrix is -lam times
    its Gram matrix, and a member of signed squared length rho^2 = g(V, V)
    has energy n/2 - (lam/2) rho^2.  On a null family (every Gram entry
    zero) every member has rho^2 = 0 and energy exactly n/2, which says
    nothing about lam: its rho^2 coefficient is None, and the report prints
    the constant n/2 as its energy.
    """
    n = alg.dim
    rn = range(n)
    half = ratfunc(Fraction(1, 2))
    density = ratfunc(Fraction(n, 2))
    if any(x for plane in alg._znabla[0] for row in plane for x in row):
        (G, e), (L, d) = alg._zmetric, alg._zlaplacian
        terms: dict[tuple[int, ...], tuple] = {}
        for p in rn:
            for q in rn:
                if x := _zdot(G[p], [row[q] for row in L]):
                    _add_term(terms, (p, q) if p <= q else (q, p), x)
        den = _zmul((2,), _zmul(e, d))
        density = {key: _entry(_zneg(x), den) for key, x in terms.items() if x} | {(): density}
    fams = []
    for pair in alg.laplacian_spectrum.pairs:
        gram = [[alg.inner(u, w) for w in pair.vectors] for u in pair.vectors]
        null = all(x.is_zero for row in gram for x in row)
        fams.append(FamilyEnergy(
            eigenvalue=pair.value,
            basis=pair.vectors,
            constant=Fraction(n, 2),
            rho2_coeff=None if null else (ZERO if pair.value.is_zero else pair.value * -half),
            gram=gram,
        ))
    return EnergyReport(n, density, fams)
