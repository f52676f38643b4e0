"""Geometric verdicts: solitons, symmetries, distinguished vector fields.

Every analysis here follows the same pattern.  Pose the defining condition
as exact equations over the scalar field (linear systems for Killing
fields and Ricci solitons, polynomial systems for geodesic and null
parallel fields), resolve them symbolically, and report both the generic
answer and the finitely many rational parameter values where the answer
changes.  Nothing is sampled and nothing is approximated; when the
polynomial case analysis cannot finish with its safe inference rules it
raises `CaseAnalysisIncomplete` instead of guessing.

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
    rough Laplacian sum g^{ij} (nabla_i nabla_j - nabla_{nabla_i Xj})
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    MetricLieAlgebra,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    vector_str,
    zeros,
)
from .scalars import (
    MultiPoly,
    RatFunc,
    ONE,
    ZERO,
    component_names,
    ratfunc,
    scalar_is_zero,
)
from .solvers import (
    EigenDecomposition,
    ExceptionalBranch,
    ParametricSolution,
    eigen_analyze,
    kernel_basis,
    linear_system_from_equations,
    rank_one_conditions,
    solve_parametric,
)


class CaseAnalysisIncomplete(ArithmeticError):
    """The polynomial case analysis could not decide the zero set."""


# ---------------------------------------------------------------------------
# Einstein and Ricci soliton


@dataclass
class EinsteinVerdict:
    generic: bool
    lam: RatFunc | None
    exceptional: list[tuple[Fraction, Fraction]]


def einstein_check(alg: MetricLieAlgebra) -> EinsteinVerdict:
    """Is ric = lam g, generically or at special parameter values?

    The factor is treated as one unknown in a parametric linear system, so
    the exceptional values come out of the same complete candidate search
    as every other solve.
    """
    names = ("lam",)
    lam = MultiPoly.var(names, "lam")
    ric, G = alg.ricci, alg.metric
    eqs = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            eqs.append(MultiPoly.const(names, ric[i][j]) - lam * G[i][j])
    rows, rhs = linear_system_from_equations(eqs, names)
    sol = solve_parametric(rows, rhs, names)
    generic = sol.generic.status == "unique"
    lam_val = sol.generic.particular[0] if generic else None
    singular = set(alg.singular_parameters())
    exceptional = []
    for b in sol.branches:
        if b.result is not None and b.result.status == "unique" and b.eps not in singular:
            exceptional.append((b.eps, b.result.particular[0]))
    return EinsteinVerdict(generic, lam_val, exceptional)


@dataclass
class SolitonBranch:
    eps: Fraction
    kind: str  # degenerate-metric | einstein | soliton | none
    lam: Fraction | None
    witness: list[Fraction] | None
    kernel_dim: int
    description: str


@dataclass
class SolitonVerdict:
    convention: str
    unknowns: tuple[str, ...]
    equations: list[MultiPoly]
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
    xs = [MultiPoly.var(names, f"x{i+1}") for i in range(n)]
    lam = MultiPoly.var(names, "lam")
    factor = 2 if convention == "doubled" else 1
    lie = alg.lie_derivative_metric_basis
    ric, G = alg.ricci, alg.metric
    eqs = []
    for i in range(n):
        for j in range(i, n):
            acc = MultiPoly.zero(names)
            for m in range(n):
                if not lie[m][i][j].is_zero:
                    acc = acc + xs[m] * lie[m][i][j]
            acc = acc - lam * (factor * G[i][j]) + MultiPoly.const(names, factor * ric[i][j])
            if not acc.is_zero:
                eqs.append(acc)
    rows, rhs = linear_system_from_equations(eqs, names)
    sol = solve_parametric(rows, rhs, names)

    generic_ok = sol.generic.status != "inconsistent"
    witness = None
    stype = None
    if generic_ok:
        part = sol.generic.particular
        witness = (part[:n], part[n])
        stype = _soliton_type(part[n])

    singular = set(alg.singular_parameters())
    branch_eps = {b.eps for b in sol.branches} | singular
    branches: list[SolitonBranch] = []
    for eps0 in sorted(branch_eps):
        if eps0 in singular:
            branches.append(SolitonBranch(
                eps0, "degenerate-metric", None, None, 0,
                f"metric or structure data is singular at eps={eps0}",
            ))
            continue
        b = sol.branch_at(eps0)
        if b is None or b.result is None:
            continue
        res = b.result
        if res.status == "inconsistent":
            branches.append(SolitonBranch(
                eps0, "none", None, None, 0,
                f"no invariant Ricci soliton at eps={eps0}",
            ))
            continue
        lam0 = res.particular[n]
        coords = res.particular[:n]
        spec = alg.at_eps(eps0)
        einstein = all(
            spec.ricci[i][j] == lam0 * spec.metric[i][j]
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


@dataclass
class KillingVerdict:
    solution: ParametricSolution
    basis: list[list[RatFunc]]
    exceptional: list[ExceptionalBranch]


def killing_solve(alg: MetricLieAlgebra) -> KillingVerdict:
    """Invariant Killing fields: the kernel of X -> Lie_X g."""
    n = alg.dim
    names = tuple(f"x{i+1}" for i in range(n))
    xs = [MultiPoly.var(names, nm) for nm in names]
    lie = alg.lie_derivative_metric_basis
    eqs = []
    for i in range(n):
        for j in range(i, n):
            acc = MultiPoly.zero(names)
            for m in range(n):
                if not lie[m][i][j].is_zero:
                    acc = acc + xs[m] * lie[m][i][j]
            eqs.append(acc)
    rows, rhs = linear_system_from_equations(eqs, names)
    sol = solve_parametric(rows, rhs, names)
    singular = set(alg.singular_parameters())
    branches = [b for b in sol.branches if b.eps not in singular]
    return KillingVerdict(sol, sol.generic.kernel, branches)


# ---------------------------------------------------------------------------
# polynomial case analysis for quadratic vector-field conditions


def _forced_vars(eq: MultiPoly, caveats: set[Fraction]) -> set[str] | None:
    """Variables that must vanish for this single equation, by safe rules.

    Rule 1: a single term involving one variable, c * x^k, forces x = 0
    (recording parameter values where c vanishes as caveats).
    Rule 2: a diagonal quadratic sum lam_i * x_i^2 whose coefficient ratios
    are positive rational constants is a definite form up to a common
    factor, so every x_i is forced.
    Returns None when neither rule applies.
    """
    mono = eq.as_monomial()
    if mono is not None:
        coeff, expo = mono
        live = [i for i, e in enumerate(expo) if e]
        if len(live) == 1:
            caveats.update(r for r, _ in coeff.zeros())
            return {eq.names[live[0]]}
        return None
    diag = eq.as_diagonal_quadratic()
    if diag is not None:
        items = list(diag.items())
        base = items[0][1]
        for _, c in items[1:]:
            ratio = c / base
            if not ratio.is_constant or ratio.constant_value() <= 0:
                return None
        caveats.update(r for r, _ in base.zeros())
        return {nm for nm, _ in items}
    return None


def solve_zero_set(
    equations: Sequence[MultiPoly], names: Sequence[str]
) -> tuple[list[frozenset[str]], set[Fraction]]:
    """Describe the real zero set of the equations as a union of coordinate
    subspaces {some variables = 0}, if the safe inference rules suffice.

    Returns (components, caveats): each component is the frozenset of
    variables forced to zero, the union over components is the exact zero
    set, and the caveats are rational parameter values where a rule's
    coefficient degenerates (callers re-run the analysis there).  Raises
    CaseAnalysisIncomplete when no rule applies to any equation.
    """
    names = tuple(names)
    caveats: set[Fraction] = set()

    def recurse(eqs: list[MultiPoly], assigned: frozenset[str]) -> list[frozenset[str]]:
        eqs = [e for e in eqs if not e.is_zero]
        if not eqs:
            return [assigned]
        forced: set[str] = set()
        for e in eqs:
            got = _forced_vars(e, caveats)
            if got:
                forced |= got
        if forced:
            new_eqs = eqs
            for var in forced:
                new_eqs = [e.set_var(var, 0) for e in new_eqs]
            return recurse(new_eqs, assigned | forced)
        # branch on the sparsest pure monomial equation
        best = None
        for e in eqs:
            mono = e.as_monomial()
            if mono is None:
                continue
            live = [e.names[i] for i, ex in enumerate(mono[1]) if ex]
            if best is None or len(live) < len(best):
                best = live
        if best is None:
            raise CaseAnalysisIncomplete(
                f"no safe rule applies to: {'; '.join(str(e) for e in eqs)}"
            )
        out: list[frozenset[str]] = []
        for var in best:
            out.extend(recurse([e.set_var(var, 0) for e in eqs], assigned | {var}))
        return out

    components = recurse(list(equations), frozenset())
    minimal = [
        a for a in set(components)
        if not any(b != a and b <= a for b in components)
    ]
    return sorted(minimal, key=lambda s: (len(s), sorted(s))), caveats


def component_str(component: frozenset[str], names: Sequence[str]) -> str:
    if not component:
        return "all coefficients free"
    zeroed = [n for n in names if n in component]
    return "=".join(zeroed) + "=0"


def _coefficient_roots(equations: Sequence[MultiPoly]) -> set[Fraction]:
    return {r for eq in equations for c in eq.terms.values() for r, _ in c.zeros()}


# ---------------------------------------------------------------------------
# geodesic vector fields


@dataclass
class GeodesicBranch:
    eps: Fraction
    components: list[frozenset[str]]


@dataclass
class GeodesicClassification:
    names: tuple[str, ...]
    equations: list[MultiPoly]
    components: list[frozenset[str]]
    exceptional: list[GeodesicBranch]

    def describe_components(self) -> list[str]:
        return [component_str(c, self.names) for c in self.components]


def geodesic_classify(alg: MetricLieAlgebra) -> GeodesicClassification:
    """All invariant geodesic fields, i.e. solutions of nabla_V V = 0.

    The equation set is quadratic in the coefficients of V; the zero set is
    returned as a union of coordinate subspaces together with the special
    parameter values where the union changes (for example where every
    equation collapses and all fields become geodesic).
    """
    n = alg.dim
    names = component_names(n)
    V = [MultiPoly.var(names, nm) for nm in names]
    eqs = [e for e in alg.nabla(V, V) if not scalar_is_zero(e)]
    components, caveats = solve_zero_set(eqs, names)
    candidates = (caveats | _coefficient_roots(eqs)) - set(alg.singular_parameters())
    branches = []
    for eps0 in sorted(candidates):
        spec = [e.specialize_param(eps0) for e in eqs]
        comp0, _ = solve_zero_set(spec, names)
        if comp0 != components:
            branches.append(GeodesicBranch(eps0, comp0))
    return GeodesicClassification(names, eqs, components, branches)


def geodesic_check(alg: MetricLieAlgebra, coords: Sequence) -> bool:
    """Exact test of nabla_V V = 0 for one concrete invariant vector."""
    v = [ratfunc(c) for c in coords]
    return all(scalar_is_zero(x) for x in alg.nabla(v, v))


# ---------------------------------------------------------------------------
# Walker structures: null parallel line fields


@dataclass
class WalkerVerdict:
    is_walker: bool
    witness: list[RatFunc] | None
    equations: list[MultiPoly]
    components: list[frozenset[str]] | None
    exceptional: list[tuple[Fraction, bool, list[Fraction] | None]]
    numeric_checks: list[tuple[Fraction, bool]]


_WITNESS_SEQ = (0, 1, -1, 2, -2, 3, -3)
_NUMERIC_EPS_CANDIDATES = (
    Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
    Fraction(-1), Fraction(-2), Fraction(-1, 2), Fraction(5),
)


def _walker_equations(alg: MetricLieAlgebra, names: tuple[str, ...]) -> list[MultiPoly]:
    n = alg.dim
    V = [MultiPoly.var(names, nm) for nm in names]
    eqs: list[MultiPoly] = []
    for i in range(n):
        basis_i = [ONE if k == i else ZERO for k in range(n)]
        dV = alg.nabla(basis_i, V)
        eqs.extend(rank_one_conditions([dV, V]))
    null_cond = alg.inner(V, V)
    if not null_cond.is_zero:
        eqs.append(null_cond)
    return eqs


def _grid_witness(eqs: list[MultiPoly], names) -> list[RatFunc] | None:
    """Search small integer coefficient vectors for an exact solution of
    every equation, identically in the parameter."""
    points = sorted(
        itertools.product(_WITNESS_SEQ, repeat=len(names)),
        key=lambda p: sum(abs(x) for x in p),
    )
    for pt in points:
        if all(x == 0 for x in pt):
            continue
        assignment = {nm: Fraction(v) for nm, v in zip(names, pt)}
        if all(eq.evaluate_vars(assignment).is_zero for eq in eqs):
            return [ratfunc(Fraction(v)) for v in pt]
    return None


def _component_witness(eqs: list[MultiPoly], names, components) -> list[RatFunc] | None:
    for comp in components:
        free = [nm for nm in names if nm not in comp]
        if not free:
            continue
        for nm in free:
            assignment = {x: Fraction(1) if x == nm else Fraction(0) for x in names}
            if all(eq.evaluate_vars(assignment).is_zero for eq in eqs):
                return [ratfunc(assignment[x]) for x in names]
    return None


def _null_parallel_witness(eqs: list[MultiPoly], names) -> tuple[
    list[RatFunc] | None, list[frozenset[str]] | None, set[Fraction]
]:
    """Decide whether the Walker equations have a nonzero solution.

    Returns (witness, components, caveats) from `solve_zero_set`; the
    witness is None exactly when every component is the origin.  When the
    case analysis is stuck, a grid witness still decides (components None,
    no caveats).  A nontrivial component without a rational witness, or a
    stuck analysis without a grid witness, raises CaseAnalysisIncomplete.
    """
    try:
        components, caveats = solve_zero_set(eqs, names)
    except CaseAnalysisIncomplete:
        witness = _grid_witness(eqs, names)
        if witness is None:
            raise
        return witness, None, set()
    nontrivial = [c for c in components if len(c) < len(names)]
    if not nontrivial:
        return None, components, caveats
    witness = _component_witness(eqs, names, nontrivial) or _grid_witness(eqs, names)
    if witness is None:
        raise CaseAnalysisIncomplete(
            "zero set has a nontrivial component but no rational witness was found"
        )
    return witness, components, caveats


def walker_check(alg: MetricLieAlgebra) -> WalkerVerdict:
    """Decide whether the metric admits an invariant null parallel line
    field (the invariant core of a Walker structure).

    The symbolic route classifies the common zero set of the parallelism
    minors plus the null condition, generically and at every candidate
    parameter value, with one decision routine; an independent numeric
    route scans the null cone at sample parameter values and must agree,
    otherwise CaseAnalysisIncomplete is raised rather than reporting
    either answer.
    """
    n = alg.dim
    names = component_names(n)
    eqs = _walker_equations(alg, names)
    witness, components, caveats = _null_parallel_witness(eqs, names)
    verdict = witness is not None

    singular = set(alg.singular_parameters())
    exceptional: list[tuple[Fraction, bool, list[Fraction] | None]] = []
    for eps0 in sorted((caveats | _coefficient_roots(eqs)) - singular):
        spec_eqs = [e.specialize_param(eps0) for e in eqs]
        w0, _, _ = _null_parallel_witness([e for e in spec_eqs if not e.is_zero], names)
        if (w0 is not None) != verdict:
            coords = None if w0 is None else [x.constant_value() for x in w0]
            exceptional.append((eps0, w0 is not None, coords))

    numeric_checks: list[tuple[Fraction, bool]] = []
    if n == 3:
        from .numeric import null_parallel_scan

        override = {eps0: v for eps0, v, _ in exceptional}
        for eps0 in _NUMERIC_EPS_CANDIDATES:
            if eps0 in singular:
                continue
            found = null_parallel_scan(alg, eps0)
            if found is None:
                continue
            expected = override.get(eps0, verdict)
            numeric_checks.append((eps0, found == expected))
            if found != expected:
                raise CaseAnalysisIncomplete(
                    f"numeric null-cone scan at eps={eps0} contradicts the "
                    f"symbolic verdict ({found} vs {expected})"
                )

    return WalkerVerdict(verdict, witness, eqs, components, exceptional, numeric_checks)


# ---------------------------------------------------------------------------
# Ledger conditions


@dataclass
class LedgerReport:
    l3_holds: bool
    l3_violations: list[tuple[int, int, int]]
    l5_poly: MultiPoly
    l5_holds: bool


def ledger_check(alg: MetricLieAlgebra) -> LedgerReport:
    """The two odd Ledger conditions within reach of invariant data.

    Degree 3: the cyclic sum of the covariant derivative of Ricci must
    vanish.  Degree 5: the full contraction
    sum g^{ac} g^{bd} R(X,Xa,X,Xb)(nabla_X R)(X,Xc,X,Xd) must vanish for
    every X; it is computed as one degree-5 polynomial identity in the
    components of X, so the verdict is exact.
    """
    n = alg.dim
    D = alg.cov_ricci
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = D[i][j][k] + D[j][k][i] + D[k][i][j]
                if not scalar_is_zero(s):
                    violations.append((i + 1, j + 1, k + 1))
    names = component_names(n)
    V = [MultiPoly.var(names, nm) for nm in names]
    R4, DR = alg.curvature_tensor, alg.cov_curvature
    ginv = alg.metric_inverse

    # A[a][b] = R(V, Xa, V, Xb), quadratic in the components of V
    A = [[MultiPoly.zero(names) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = MultiPoly.zero(names)
            for i in range(n):
                for k in range(n):
                    c = R4[i][a][k][b]
                    if not c.is_zero:
                        acc = acc + V[i] * V[k] * c
            A[a][b] = acc
    # B[c][d] = (nabla_V R)(V, Xc, V, Xd), cubic
    B = [[MultiPoly.zero(names) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for d in range(n):
            acc = MultiPoly.zero(names)
            for m in range(n):
                for i in range(n):
                    for k in range(n):
                        w = DR[m][i][c][k][d]
                        if not w.is_zero:
                            acc = acc + V[m] * V[i] * V[k] * w
            B[c][d] = acc
    l5 = MultiPoly.zero(names)
    for a in range(n):
        for c in range(n):
            if ginv[a][c].is_zero:
                continue
            for b in range(n):
                for d in range(n):
                    if ginv[b][d].is_zero:
                        continue
                    l5 = l5 + (A[a][b] * B[c][d]) * (ginv[a][c] * ginv[b][d])
    return LedgerReport(not violations, violations, l5, l5.is_zero)


# ---------------------------------------------------------------------------
# rough Laplacian, harmonicity, energy


def rough_laplacian(alg: MetricLieAlgebra) -> list[list[RatFunc]]:
    """Matrix of sum_ij g^{ij} (nabla_i nabla_j - nabla_{nabla_i Xj}) acting
    on invariant fields."""
    n = alg.dim
    ops = alg.connection_operators
    K = alg.nabla_basis
    ginv = alg.metric_inverse
    L = zeros(n)
    for i in range(n):
        for j in range(n):
            w = ginv[i][j]
            if w.is_zero:
                continue
            term = mat_mul(ops[i], ops[j])
            corr = zeros(n)
            for k in range(n):
                if not K[i][j][k].is_zero:
                    corr = mat_add(corr, mat_scale(ops[k], K[i][j][k]))
            L = mat_add(L, mat_scale(mat_sub(term, corr), w))
    return L


def harmonic_map_trace(alg: MetricLieAlgebra, V: Sequence) -> list:
    """The curvature trace sum_ij g^{ij} R(nabla_{Xi} V, V) Xj, the term
    that separates harmonic sections from harmonic maps."""
    n = alg.dim
    ginv = alg.metric_inverse
    out = None
    for i in range(n):
        basis_i = [ONE if k == i else ZERO for k in range(n)]
        dV = alg.nabla(basis_i, V)
        op = alg.curvature_operator_vec(dV, V)
        for j in range(n):
            w = ginv[i][j]
            if w.is_zero:
                continue
            col = [op[r][j] * w for r in range(n)]
            out = col if out is None else [x + y for x, y in zip(out, col)]
    return out if out is not None else [ZERO] * n


@dataclass
class CriticalFamily:
    eigenvalue: RatFunc
    multiplicity: int
    basis: list[list[RatFunc]]
    trace_vanishes: bool
    section_harmonic: bool
    map_harmonic: bool
    harmonic_eps: list[Fraction]


@dataclass
class HarmonicityReport:
    laplacian: list[list[RatFunc]]
    decomposition: EigenDecomposition
    families: list[CriticalFamily]
    parallel_basis: list[list[RatFunc]]
    section_kernel: list[list[RatFunc]]


def harmonicity_classify(alg: MetricLieAlgebra) -> HarmonicityReport:
    """Critical vector fields of the energy functional and their quality.

    The critical families are the eigenspaces of the rough Laplacian;
    harmonic sections are its kernel; a family consists of harmonic maps
    when additionally the curvature trace term vanishes on it.  Parallel
    fields (the trivial critical points) are reported separately as the
    joint kernel of all covariant derivative operators.
    """
    n = alg.dim
    L = rough_laplacian(alg)
    decomp = eigen_analyze(L)
    singular = set(alg.singular_parameters())
    families = []
    for pair in decomp.pairs:
        tnames = tuple(f"t{k+1}" for k in range(len(pair.vectors)))
        V = [MultiPoly.zero(tnames) for _ in range(n)]
        for k, vec in enumerate(pair.vectors):
            t = MultiPoly.var(tnames, tnames[k])
            V = [acc + t * comp for acc, comp in zip(V, vec)]
        trace = harmonic_map_trace(alg, V)
        trace_zero = all(scalar_is_zero(x) for x in trace)
        section = pair.value.is_zero
        roots = [] if section else [r for r, _ in pair.value.zeros() if r not in singular]
        families.append(CriticalFamily(
            eigenvalue=pair.value,
            multiplicity=pair.multiplicity,
            basis=pair.vectors,
            trace_vanishes=trace_zero,
            section_harmonic=section,
            map_harmonic=section and trace_zero,
            harmonic_eps=roots if trace_zero else [],
        ))
    section_kernel = kernel_basis(L)
    stacked = []
    for op in alg.connection_operators:
        stacked.extend(op)
    parallel = kernel_basis(stacked)
    return HarmonicityReport(L, decomp, families, parallel, section_kernel)


@dataclass
class FamilyEnergy:
    eigenvalue: RatFunc
    basis: list[list[RatFunc]]
    constant: Fraction
    rho2_coeff: RatFunc | None
    gram: list[list[RatFunc]]
    grad_gram: list[list[RatFunc]]


@dataclass
class EnergyReport:
    dim: int
    density_generic: MultiPoly
    families: list[FamilyEnergy]


def grad_norm_sq(alg: MetricLieAlgebra, V: Sequence):
    """sum_ij g^{ij} g(nabla_{Xi} V, nabla_{Xj} V), the vertical energy."""
    n = alg.dim
    ginv = alg.metric_inverse
    dV = []
    for i in range(n):
        basis_i = [ONE if k == i else ZERO for k in range(n)]
        dV.append(alg.nabla(basis_i, V))
    acc = None
    for i in range(n):
        for j in range(n):
            w = ginv[i][j]
            if w.is_zero:
                continue
            term = alg.inner(dV[i], dV[j]) * w
            acc = term if acc is None else acc + term
    return acc if acc is not None else ZERO


def energy_density(alg: MetricLieAlgebra, V: Sequence):
    """Pointwise energy n/2 + |nabla V|^2 / 2 of the section V."""
    half = Fraction(1, 2)
    return grad_norm_sq(alg, V) * half + Fraction(alg.dim, 2)


def energy_report(alg: MetricLieAlgebra, harmonicity: HarmonicityReport | None = None) -> EnergyReport:
    """Energy along each critical family, reduced against the squared
    length when the gradient form is proportional to the induced metric.

    On a family spanned by eigenvectors the identity checked is
    Q = c * Gram with Q the gradient Gram matrix; when it holds the energy
    of a member of signed squared length rho^2 is n/2 + (c/2) rho^2.
    """
    n = alg.dim
    if harmonicity is None:
        harmonicity = harmonicity_classify(alg)
    names = component_names(n)
    V = [MultiPoly.var(names, nm) for nm in names]
    density = energy_density(alg, V)
    fams = []
    ginv = alg.metric_inverse
    for fam in harmonicity.families:
        k = len(fam.basis)
        gram = [[alg.inner(u, w) for w in fam.basis] for u in fam.basis]
        grad = [[None] * k for _ in range(k)]
        for a in range(k):
            for b in range(k):
                acc = ZERO
                for i in range(n):
                    bi = [ONE if r == i else ZERO for r in range(n)]
                    du = alg.nabla(bi, fam.basis[a])
                    for j in range(n):
                        w = ginv[i][j]
                        if w.is_zero:
                            continue
                        bj = [ONE if r == j else ZERO for r in range(n)]
                        dw = alg.nabla(bj, fam.basis[b])
                        acc = acc + alg.inner(du, dw) * w
                grad[a][b] = acc
        coeff = None
        for a in range(k):
            for b in range(k):
                if not gram[a][b].is_zero:
                    coeff = grad[a][b] / gram[a][b]
                    break
            if coeff is not None:
                break
        proportional = coeff is not None and all(
            grad[a][b] == coeff * gram[a][b] for a in range(k) for b in range(k)
        )
        half = Fraction(1, 2)
        fams.append(FamilyEnergy(
            eigenvalue=fam.eigenvalue,
            basis=fam.basis,
            constant=Fraction(n, 2),
            rho2_coeff=coeff * half if proportional else None,
            gram=gram,
            grad_gram=grad,
        ))
    return EnergyReport(n, density, fams)
