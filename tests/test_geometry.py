import hashlib
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from liegeom import algebra, geometry, scalars, solvers
from liegeom.algebra import MetricLieAlgebra, ValidationFailed, vector_str
from liegeom.catalog import abelian_control, berger, loads
from liegeom.geometry import (
    CaseAnalysisIncomplete,
    component_str,
    einstein_check,
    energy_report,
    geodesic_classify,
    harmonicity_classify,
    killing_solve,
    ledger_check,
    ricci_soliton_solve,
    solve_zero_set,
    walker_check,
)
from liegeom.report import (
    energy_section,
    full_report,
    geodesic_section,
    harmonic_section,
    ledger_section,
    render_json,
    render_text,
    single_report,
    walker_section,
)
from liegeom.scalars import (
    EPS,
    ONE,
    ZERO,
    RatFunc,
    component_names,
    poly_str,
    ratfunc,
)
from liegeom.solvers import rref_solve, solve_parametric

from poly_reference import MultiPoly, from_terms, is_zero, nabla
import test_properties
from test_tensor_reference import (
    CORPUS_CASES, CORPUS_IDS, corpus_case, grad_norm_sq, reference_gradient, reference_trace)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# Einstein


def test_einstein_berger(berger_alg):
    v = einstein_check(berger_alg)
    assert not v.generic
    assert v.lam is None
    assert v.exceptional == [(F(1), F(2))]


def test_einstein_abelian(abelian_alg):
    # flat metric: ricci = 0 = 0 * g for every parameter value
    v = einstein_check(abelian_alg)
    assert v.generic
    assert v.lam == ZERO


# ---------------------------------------------------------------------------
# Ricci solitons


def test_soliton_equations_golden(berger_alg):
    v = ricci_soliton_solve(berger_alg)
    assert v.convention == "paper"
    assert v.unknowns == ("x1", "x2", "x3", "lam")
    assert [poly_str(v.unknowns, e) for e in v.equations] == [
        "-eps*lam+2*eps^2",
        "(-2+2*eps)*x3",
        "(2-2*eps)*x2",
        "-lam+(4-2*eps)",
        "-lam+(4-2*eps)",
    ]


def test_soliton_generic_verdict(berger_alg):
    v = ricci_soliton_solve(berger_alg)
    assert not v.generic_soliton
    assert v.witness is None and v.soliton_type is None
    assert v.solution.generic.status == "inconsistent"


def test_soliton_exceptional_set(berger_alg):
    v = ricci_soliton_solve(berger_alg)
    assert [(b.eps, b.kind) for b in v.exceptional] == [
        (F(0), "degenerate-metric"),
        (F(1), "einstein"),
    ]
    einstein = v.exceptional[1]
    assert einstein.lam == F(2)
    assert einstein.kernel_dim == 3


def test_soliton_doubled_convention(berger_alg):
    v = ricci_soliton_solve(berger_alg, convention="doubled")
    assert [poly_str(v.unknowns, e) for e in v.equations] == [
        "(-2*eps)*lam+4*eps^2",
        "(-2+2*eps)*x3",
        "(2-2*eps)*x2",
        "-2*lam+(8-4*eps)",
        "-2*lam+(8-4*eps)",
    ]
    # rescaling the defining equation cannot change the verdicts
    assert not v.generic_soliton
    assert [(b.eps, b.kind, b.lam) for b in v.exceptional] == [
        (F(0), "degenerate-metric", None),
        (F(1), "einstein", F(2)),
    ]


def test_soliton_rejects_unknown_convention(berger_alg):
    with pytest.raises(ValueError):
        ricci_soliton_solve(berger_alg, convention="halved")


def test_soliton_abelian_is_steady(abelian_alg):
    # ricci = 0, every X Killing: lam = 0 with every field a witness
    v = ricci_soliton_solve(abelian_alg)
    assert v.generic_soliton
    assert v.soliton_type == "steady"
    coords, lam = v.witness
    assert lam == ZERO


IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("alg, lam, soliton_type", [
    # the round sphere, Einstein with ric = 2g
    (berger().at_eps(1), "2", "shrinking"),
    # real hyperbolic 3-space, Einstein with ric = -2g
    (MetricLieAlgebra.from_brackets(3, {(0, 2): {0: 1}, (1, 2): {1: 1}}, IDENTITY_3),
     "-2", "expanding"),
    # the round sphere with metric eps*I: lam depends on eps, so no type
    (MetricLieAlgebra.from_brackets(
        3, {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2}},
        [["eps", 0, 0], [0, "eps", 0], [0, 0, "eps"]]),
     "2/eps", None),
], ids=["round-sphere", "hyperbolic-3-space", "scaled-round-sphere"])
def test_soliton_type(alg, lam, soliton_type):
    v = ricci_soliton_solve(alg)
    assert v.generic_soliton
    assert str(v.witness[1]) == lam
    assert v.soliton_type == soliton_type


# ---------------------------------------------------------------------------
# Killing fields


def test_killing_berger(berger_alg):
    v = killing_solve(berger_alg)
    assert [vector_str(b) for b in v.basis] == ["X1"]
    assert [(b.eps, len(b.result.kernel)) for b in v.exceptional] == [(F(1), 3)]


def test_killing_abelian(abelian_alg):
    v = killing_solve(abelian_alg)
    assert len(v.basis) == 3
    assert v.exceptional == []


# ---------------------------------------------------------------------------
# closed-form oracles: Killing and Einstein verdicts from brackets and metric
# alone, without the connection


@pytest.fixture(scope="module")
def oracle_algebras(corpus_alg):
    """The corpus unmixed and under three mixing seeds, `GENERATED`, 60
    almost-abelian algebras per dimension and mixed copies of the 3D ones."""
    family = test_properties.almost_abelian_family(60)
    return ([corpus_case(corpus_alg, key, seed) for key, seed in CORPUS_CASES]
            + list(test_properties.GENERATED.values()) + family
            + test_properties.mixed_copies(family[:60]))


def test_oracle_algebras_cover_both_dimensions(oracle_algebras):
    assert len(oracle_algebras) == 240
    assert sum(alg.dim == 3 for alg in oracle_algebras) == 160


def test_killing_matches_the_ad_skew_oracle(oracle_algebras):
    # X = sum x_m X_m is Killing iff ad_X is g-skew:
    # sum_m x_m sum_k (C[m][a][k] g_kb + C[m][b][k] g_ak) = 0 for a <= b
    for alg in oracle_algebras:
        n, C, G = alg.dim, alg.brackets, alg.metric
        rows = [[sum((C[m][a][k] * G[k][b] + C[m][b][k] * G[a][k] for k in range(n)),
                     start=ZERO) for m in range(n)]
                for a in range(n) for b in range(a, n)]
        sol = solve_parametric(rows, [ZERO] * len(rows), component_names(n))
        singular = set(alg.singular_parameters())
        v = killing_solve(alg)
        assert len(v.basis) == sol.generic.kernel_dim, alg.name
        assert [(b.eps, b.result.kernel_dim) for b in v.exceptional] == [
            (b.eps, b.result.kernel_dim) for b in sol.branches if b.eps not in singular
        ], alg.name


# Einstein for every eps with lam != 0, which no algebra above is: the
# round sphere scaled by eps (lam = 2/eps) and hyperbolic space with
# curvature -eps^2 (lam = -2 eps^2)
CONSTANT_CURVATURE_3D = [
    MetricLieAlgebra.from_brackets(
        3, {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2}},
        [[EPS, 0, 0], [0, EPS, 0], [0, 0, EPS]], name="round-scaled"),
    MetricLieAlgebra.from_brackets(
        3, {(0, 2): {0: -EPS}, (1, 2): {1: -EPS}},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="hyperbolic-scaled"),
]


def test_einstein_matches_the_constant_curvature_oracle_in_3d(oracle_algebras):
    # in dimension 3 Einstein is constant curvature,
    # R(Xa, Xb, Xc, Xd) = kappa (g_bc g_ad - g_ac g_bd), and then
    # ric = (1 - n) kappa g = -2 kappa g in this curvature convention
    assert [str(einstein_check(alg).lam) for alg in CONSTANT_CURVATURE_3D] == ["2/eps", "-2*eps^2"]
    for alg in [alg for alg in oracle_algebras if alg.dim == 3] + CONSTANT_CURVATURE_3D:
        R, G, r3 = alg.curvature_tensor, alg.metric, range(3)
        slots = [(a, b, c, d) for a in r3 for b in r3 for c in r3 for d in r3]
        sol = solve_parametric([[G[b][c] * G[a][d] - G[a][c] * G[b][d]] for a, b, c, d in slots],
                               [R[a][b][c][d] for a, b, c, d in slots], ("kappa",))
        singular = set(alg.singular_parameters())
        v = einstein_check(alg)
        assert v.generic == (sol.generic.status == "unique"), alg.name
        if v.generic:
            assert v.lam == -2 * sol.generic.particular[0], alg.name
        assert v.exceptional == [
            (b.eps, -2 * b.result.particular[0]) for b in sol.branches
            if b.status == "unique" and b.eps not in singular
        ], alg.name


def test_linear_analyses_leave_singular_values_unsolved(monkeypatch, corpus_alg):
    # Einstein, soliton and Killing pass `singular_parameters()`: each such
    # value is a 'singular' branch with no result, and `rref_solve` runs
    # once generically and once per other candidate
    rref_calls, runs = [], []
    def counting_rref(rows, rhs):
        rref_calls.append(rows)
        return rref_solve(rows, rhs)
    def recording_solve(*args):
        rref_calls.clear()
        sol = solve_parametric(*args)
        runs.append((sol, len(rref_calls)))
        return sol
    monkeypatch.setattr(solvers, "rref_solve", counting_rref)
    monkeypatch.setattr(geometry, "solve_parametric", recording_solve)
    unsolved = 0
    for key, seed in CORPUS_CASES:
        alg = corpus_case(corpus_alg, key, seed)
        singular = alg.singular_parameters()
        runs.clear()
        einstein_check(alg), ricci_soliton_solve(alg), killing_solve(alg)
        assert len(runs) == 3
        for sol, count in runs:
            branches = {b.eps: b for b in sol.branches}
            assert all(branches[e].status == "singular" and branches[e].result is None
                       for e in singular), (key, seed)
            skipped = sum(b.status == "singular" for b in sol.branches)
            assert count == 1 + len(sol.candidates) - skipped, (key, seed)
            unsolved += skipped
    # 18 unsolved branches in each of the 4 bases; 13 of them are candidates
    # of the elimination as well (of 26 on the unmixed corpus)
    assert unsolved == 4 * 18


def constant_ratfuncs(values):
    return all(type(x) is RatFunc and x.is_constant for x in values)


def test_berger_branch_values_are_constant_ratfuncs(berger_alg):
    # each candidate eps is re-solved on the constant `RatFunc`s of the
    # specialized entries, so branch values stay in Q(eps) until printed
    ein = einstein_check(berger_alg)
    assert [eps for eps, _ in ein.exceptional] == [F(1)]
    assert constant_ratfuncs(lam for _, lam in ein.exceptional)
    assert [str(lam) for _, lam in ein.exceptional] == ["2"]

    sol = ricci_soliton_solve(berger_alg)
    (branch,) = [b for b in sol.exceptional if b.lam is not None]
    assert (branch.eps, branch.kind) == (F(1), "einstein")
    assert constant_ratfuncs([branch.lam] + branch.witness)
    assert (str(branch.lam), vector_str(branch.witness)) == ("2", "0")
    assert branch.description == "Einstein with lam=2 at eps=1"
    (res,) = [b.result for b in sol.solution.branches if b.eps == 1]
    assert constant_ratfuncs(res.particular + [x for v in res.kernel for x in v])

    (kil,) = killing_solve(berger_alg).exceptional
    assert constant_ratfuncs(x for v in kil.result.kernel for x in v)
    assert [vector_str(v) for v in kil.result.kernel] == ["X1", "X2", "X3"]


def test_walker_exceptional_witness_is_constant_ratfuncs():
    # a grid witness found at eps = -1 only, printed from its `RatFunc`s
    alg = next(a for a in test_properties.almost_abelian_family(20)
               if a.name == "almost-abelian-3d-17")
    v = walker_check(alg)
    ((eps0, admits, coords),) = v.exceptional
    assert (eps0, admits) == (F(-1), not v.is_walker)
    assert constant_ratfuncs(coords)
    assert walker_section(alg)["exceptional"][0]["witness"] == vector_str(coords) == "X2+X3"


# ---------------------------------------------------------------------------
# zero-set case analysis


def names3():
    return component_names(3)


def form(entries):
    """The quadratic form sum c * x_i * x_j over {(i, j): c} in the layout of
    `solve_zero_set`: slots i <= j, each to a nonzero `RatFunc`."""
    U = {ij: ratfunc(c) for ij, c in entries.items()}
    assert all(i <= j and not c.is_zero for (i, j), c in U.items())
    return U


def test_solve_zero_set_berger_geodesic_shape():
    two = 2 * ONE - 2 * EPS
    forms = [form({(0, 2): -two}), form({(0, 1): two})]
    comps = solve_zero_set(forms, names3())
    assert comps == [frozenset({"a"}), frozenset({"b", "c"})]
    # branching on cross terms needs no division; the coefficient roots
    # are collected separately by the classifiers
    assert geometry._coefficient_roots(forms) == {F(1)}


def test_solve_zero_set_definite_quadratic():
    U = form({(0, 0): EPS, (1, 1): EPS})
    assert solve_zero_set([U], ("a", "b")) == [frozenset({"a", "b"})]
    # the rule divides by eps, so eps = 0 is a root to re-solve at
    assert geometry._coefficient_roots([U]) == {F(0)}


def test_solve_zero_set_single_monomial():
    assert solve_zero_set([form({(0, 0): 3})], ("a", "b")) == [frozenset({"a"})]


def test_solve_zero_set_indefinite_raises():
    with pytest.raises(CaseAnalysisIncomplete, match="no safe rule applies to: a\\^2-b\\^2$"):
        solve_zero_set([form({(0, 0): 1, (1, 1): -1})], ("a", "b"))


def test_solve_zero_set_prints_the_forms_on_the_live_coordinates():
    # c^2 forces c = 0, which leaves a^2 - b^2 of the second form
    forms = [form({(2, 2): EPS}), form({(0, 0): 1, (1, 1): -1, (1, 2): 2})]
    with pytest.raises(CaseAnalysisIncomplete) as exc:
        solve_zero_set(forms, names3())
    assert str(exc.value) == "no safe rule applies to: a^2-b^2"


def test_component_str():
    nm = names3()
    assert component_str(frozenset({"b", "c"}), nm) == "b=c=0"
    assert component_str(frozenset(), nm) == "all coefficients free"


# ---------------------------------------------------------------------------
# geodesic fields


def test_geodesic_berger(berger_alg):
    cls = geodesic_classify(berger_alg)
    assert [poly_str(cls.names, e) for e in cls.equations] == ["(-2+2*eps)*a*c", "(2-2*eps)*a*b"]
    assert cls.components == [frozenset({"a"}), frozenset({"b", "c"})]
    assert [(b.eps, b.components) for b in cls.exceptional] == [(F(1), [frozenset()])]


def test_geodesic_membership(berger_alg):
    def geodesic(coords):
        v = [ratfunc(c) for c in coords]
        return all(x.is_zero for x in nabla(berger_alg, v, v))

    assert geodesic([F(0), F(2), F(-5)])
    assert geodesic([F(3), F(0), F(0)])
    assert not geodesic([F(1), F(1), F(0)])


def test_geodesic_abelian(abelian_alg):
    cls = geodesic_classify(abelian_alg)
    assert cls.components == [frozenset()]
    assert cls.exceptional == []


# ---------------------------------------------------------------------------
# Walker structures


def test_walker_berger_negative(berger_alg):
    v = walker_check(berger_alg)
    assert not v.is_walker
    assert v.witness is None
    # no eps value rescues it, and the numeric scan never disagrees
    assert v.exceptional == []
    assert v.numeric_checks and all(agrees for _, agrees in v.numeric_checks)
    assert {e for e, _ in v.numeric_checks} == {F(-1), F(-2), Fraction(-1, 2)}


def test_walker_numeric_checks_4d(corpus_alg):
    # the numeric check runs wherever the metric is indefinite: u(2) only
    # for eps < 0, the oscillator at every sample value
    u2 = walker_check(corpus_alg("u2"))
    assert not u2.is_walker
    assert u2.numeric_checks == [(F(-1), True), (F(-2), True), (Fraction(-1, 2), True)]
    osc = walker_check(corpus_alg("oscillator"))
    assert osc.is_walker
    assert {e for e, _ in osc.numeric_checks} == {
        F(1), F(2), F(3), Fraction(1, 2), F(-1), F(-2), Fraction(-1, 2), F(5)}
    assert all(agrees for _, agrees in osc.numeric_checks)


def test_walker_abelian_witness(abelian_alg):
    v = walker_check(abelian_alg)
    assert v.is_walker
    assert [str(x) for x in v.witness] == ["1", "0", "1"]
    # the witness is null and parallel within its own line field
    w = v.witness
    assert abelian_alg.inner(w, w) == ZERO


def test_walker_refuses_when_the_numeric_check_disagrees(monkeypatch):
    scan = geometry.null_parallel_scan
    monkeypatch.setattr(geometry, "null_parallel_scan", lambda alg, eps_values: [
        None if found is None else not found for found in scan(alg, eps_values)])
    with pytest.raises(CaseAnalysisIncomplete) as exc:
        walker_check(abelian_control())
    assert str(exc.value) == ("numeric joint-eigenspace check at eps=1 contradicts "
                              "the symbolic verdict (False vs True)")


def test_walker_grid_witness_screens_past_a_pole():
    # the case analysis is stuck on -a^2+b^2+c^2/(7*eps-101), and the grid's
    # first screening point, 101/7, is a pole, so it screens at 102/7
    alg = MetricLieAlgebra.from_brackets(
        3, {}, [[-1, 0, 0], [0, 1, 0], [0, 0, "1/(7*eps-101)"]])
    assert alg.singular_parameters() == [Fraction(101, 7)]
    with pytest.raises(CaseAnalysisIncomplete):
        solve_zero_set(geometry._walker_forms(alg), component_names(3))
    v = walker_check(alg)
    assert v.is_walker and vector_str(v.witness) == "X1+X2"


# The geodesic and Walker sections of the 36 corpus cases (unmixed and
# under three mixing seeds) and of the property algebras: one line
# "<case> <section> <sha256>" each, of the section's JSON or of the refusal
# text, hashed together.  The basis-mixed benchmark workload leaves both
# sections out, so this digest is what pins the case analysis on dense
# bases, refusals included; invariant rules would change it on purpose.
CASE_ANALYSIS_DIGEST = "ef107ad626a2ac8d702c09f33fa7cdbc7fa997716c0235cab5867096fc2d44fb"


def test_case_analysis_output_is_pinned(corpus_alg):
    cases = [(case_id, corpus_case(corpus_alg, key, seed))
             for case_id, (key, seed) in zip(CORPUS_IDS, CORPUS_CASES)]
    cases += list(test_properties.GENERATED.items())
    digest = hashlib.sha256()
    for case_id, alg in cases:
        for name, section in (("geodesic", geodesic_section), ("walker", walker_section)):
            try:
                out = render_json(section(alg))
            except CaseAnalysisIncomplete as exc:
                out = f"{type(exc).__name__}: {exc}"
            sha = hashlib.sha256(out.encode()).hexdigest()
            digest.update(f"{case_id} {name} {sha}\n".encode())
    assert digest.hexdigest() == CASE_ANALYSIS_DIGEST


RATFUNC_OPERATIONS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                      "__truediv__", "__rtruediv__")


def ratfunc_operations(monkeypatch, analysis, alg) -> int:
    """The number of `RatFunc` arithmetic operations of analysis(alg).  The
    fused kernel `scalars.dot` works on the integer tuples, past these
    methods: it is wrapped in every `liegeom` module that holds it, and
    counts one operation per product it sums."""
    calls = [0]
    dot = scalars.dot

    def counting(op):
        def counted(self, other):
            calls[0] += 1
            return op(self, other)
        return counted

    def counting_dot(pairs):
        pairs = list(pairs)
        calls[0] += len(pairs)
        return dot(pairs)

    with monkeypatch.context() as m:
        for name in RATFUNC_OPERATIONS:
            m.setattr(RatFunc, name, counting(getattr(RatFunc, name)))
        for module in [mod for name, mod in sys.modules.items() if name.startswith("liegeom.")]:
            if getattr(module, "dot", None) is dot:
                m.setattr(module, "dot", counting_dot)
        analysis(alg)
    return calls[0]


@pytest.mark.parametrize(("key", "geodesic", "walker"), [
    ("berger", 3, 8), ("u2", 3, 10), ("heisenberg", 3, 4), ("oscillator", 3, 3),
    ("abelian", 0, 41),
])
def test_case_analysis_ratfunc_operations(monkeypatch, key, geodesic, walker):
    # with the connection, g^{-1} and the singular values built beforehand,
    # the geodesic and Walker analyses do only the few additions of entries
    # that share a slot of a form's monomial dict, the divisions of the
    # definite-form rule and the grid witness's evaluations
    alg = loads(test_properties.corpus.TEXTS[key])
    alg.nabla_basis, alg.metric_inverse, alg.singular_parameters()
    counts = [ratfunc_operations(monkeypatch, analysis, alg)
              for analysis in (geodesic_classify, walker_check)]
    assert counts[0] <= geodesic and counts[1] <= walker, counts


def test_every_free_unit_vector_zeroes_every_form(corpus_alg):
    # a component of `solve_zero_set` is a leaf of its recursion, where no
    # form keeps a slot on the free coordinates, so each free unit vector is
    # a common zero and the Walker witness needs no test of its own; the
    # grid serves only a stuck analysis.  Checked on the Walker and geodesic
    # forms of the 60 algebras of the case-analysis digest, generically and
    # at every candidate eps.
    algebras = [corpus_case(corpus_alg, key, seed) for key, seed in CORPUS_CASES]
    algebras += list(test_properties.GENERATED.values())
    checked = Counter()
    for alg in algebras:
        names = component_names(alg.dim)
        for kind, forms in (("walker", geometry._walker_forms(alg)),
                            ("geodesic", geometry._geodesic_forms(alg))):
            candidates = geometry._coefficient_roots(forms) - set(alg.singular_parameters())
            for case in [forms] + [geometry._at_eps(forms, eps0) for eps0 in sorted(candidates)]:
                try:
                    components = solve_zero_set(case, names)
                except CaseAnalysisIncomplete:
                    continue
                for comp in components:
                    for p in (p for p in range(alg.dim) if names[p] not in comp):
                        unit = [int(q == p) for q in range(alg.dim)]
                        assert all(sum((c * (unit[i] * unit[j]) for (i, j), c in U.items()),
                                       ZERO).is_zero for U in case), (alg.name, kind, comp, p)
                        checked[kind] += 1
    # the analyses that decide today give 2 Walker and 130 geodesic vectors
    assert checked["walker"] >= 2 and checked["geodesic"] >= 130, checked


def test_operation_counter_sees_the_fused_kernel(monkeypatch):
    # `dot` works on the integer tuples, past the `RatFunc` methods: the
    # counter wraps it where the engine calls it and counts its products
    pairs = [(EPS, ONE), (ONE, EPS), (ratfunc(2), EPS)]
    assert ratfunc_operations(monkeypatch, lambda alg: geometry.dot(pairs), None) == 3
    assert geometry.dot(pairs) == EPS * 4


# the counts of the Ledger route below, pinned as bounds
LEDGER_OPERATIONS = {"berger": 33, "sl2r": 33, "heisenberg": 33, "u2": 33, "oscillator": 0,
                     "heisenberg-x-r": 33, "r4": 72}


@pytest.mark.parametrize(("key", "before"), [
    ("berger", 90), ("sl2r", 90), ("heisenberg", 90), ("u2", 90), ("oscillator", 0),
    ("heisenberg-x-r", 90), ("r4", 165),
])
def test_ledger_ratfunc_operations(monkeypatch, key, before):
    # with the tensors built, the Ledger sums K ric products once per
    # multiset {i, j, k}, builds B[c][d] for c <= d from the independent
    # slots of `cov_curvature`, raises E[a][d] = (R(X, Xa) X)^d by g^{-1} once
    # where B[c][d] is nonzero, and sums l5 over c <= d, every sum one `dot`.
    # `before` is the bound of the earlier route, which raised both indices
    # of A over every (c, d) and read a prebuilt `cov_ricci` (63 operations
    # on the five, 132 on r4); the oscillator, whose B vanishes, stays at 0
    alg = loads(test_properties.corpus.TEXTS[key])
    alg.cov_ricci, alg.curvature_tensor, alg.cov_curvature, alg.metric_inverse
    count = ratfunc_operations(monkeypatch, ledger_check, alg)
    assert count <= LEDGER_OPERATIONS[key] <= before, count


# ---------------------------------------------------------------------------
# Ledger conditions


def test_ledger_berger(berger_alg):
    rep = ledger_check(berger_alg)
    assert rep.l3_holds and rep.l3_violations == []
    assert rep.l5_holds and rep.l5_poly == {}


def test_ledger_abelian(abelian_alg):
    rep = ledger_check(abelian_alg)
    assert rep.l3_holds and rep.l5_holds


def test_ledger_violation_detected():
    # solvable example with non-cyclic-parallel Ricci
    alg = MetricLieAlgebra.from_brackets(
        3,
        {(0, 2): {0: 1}, (1, 2): {1: -1}},
        [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, EPS]],
    )
    assert alg.validate() == []
    rep = ledger_check(alg)
    assert not rep.l3_holds
    assert rep.l3_violations


def ledger_family():
    """[X1, X4] = X1, [X2, X4] = eps X2, [X3, X4] = X3 with the identity
    metric: H^3 x R at eps = 0 and real hyperbolic 4-space at eps = 1, both
    symmetric spaces (nabla R = 0); generically neither Ledger condition
    holds."""
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    return MetricLieAlgebra.from_brackets(
        4, {(0, 3): {0: 1}, (1, 3): {1: "eps"}, (2, 3): {2: 1}}, identity,
        name="ledger-family")


def test_ledger_section_when_both_conditions_fail():
    alg = ledger_family()
    rep = ledger_check(alg)
    violations = ["(X1,X1,X4)", "(X1,X4,X1)", "(X2,X2,X4)", "(X2,X4,X2)", "(X3,X3,X4)",
                  "(X3,X4,X3)", "(X4,X1,X1)", "(X4,X2,X2)", "(X4,X3,X3)"]
    polynomial = poly_str(("a", "b", "c", "d"), rep.l5_poly)
    assert ledger_section(alg) == {
        "degree3_holds": False,
        "degree5_holds": False,
        "degree3_violations": violations,
        "degree5_nonzero_terms": 9,
        "degree5_polynomial": polynomial,
    }
    assert len(rep.l5_poly) == 9
    assert render_text(single_report("ledger", alg)).splitlines() == [
        "report: ledger",
        "== algebra ==",
        "  name: ledger-family",
        "  dim: 4",
        "",
        "== ledger ==",
        "  degree3_holds: no",
        "  degree5_holds: no",
        "  degree3_violations: " + ", ".join(violations),
        "  degree5_nonzero_terms: 9",
        f"  degree5_polynomial: {polynomial}",
    ]


@pytest.mark.parametrize("mixed", [False, True], ids=["unmixed", "mixed"])
def test_ledger_at_symmetric_specializations(mixed):
    # an oracle from outside the engine: a symmetric space has nabla R = 0,
    # so every Ledger condition holds there; the generic verdict, read at
    # each eps, agrees with the algebra specialized there
    alg = ledger_family()
    if mixed:
        (alg,) = test_properties.mixed_copies([alg])
    rep = ledger_check(alg)
    assert not rep.l3_holds and not rep.l5_holds
    assert (len(rep.l3_violations), len(rep.l5_poly)) == ((27, 21) if mixed else (9, 9))
    for v in (0, 1):
        spec = alg.at_eps(v)
        assert all(x.is_zero for p in spec.cov_curvature for q in p for r in q for s in r for x in s)
        at_v = ledger_check(spec)
        assert at_v.l3_holds and at_v.l5_holds
        # every generic l5 coefficient has the factor eps (eps - 1)
        assert all(c.eval(v) == 0 for c in rep.l5_poly.values())
    for v in (2, -1):
        at_v = ledger_check(alg.at_eps(v))
        assert at_v.l3_violations == rep.l3_violations and not at_v.l5_holds
        assert {e: c.constant_value() for e, c in at_v.l5_poly.items()} == {
            e: c.eval(v) for e, c in rep.l5_poly.items() if c.eval(v)}


def test_every_constructor_refuses_non_lie_data():
    # [X1, X2] = X1, [X2, X3] = X2, [X1, X3] = X3 breaks the Jacobi identity:
    # built directly, from brackets or from text, the data is refused with
    # the same violations, so no analysis and no tensor can be asked of it
    brackets = {(0, 1): {0: 1}, (1, 2): {1: 1}, (0, 2): {2: 1}}
    metric = [[1, 0, 0], [0, 1, 0], [0, 0, "eps"]]
    C = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), comp in brackets.items():
        for k, c in comp.items():
            C[i][j][k], C[j][i][k] = ratfunc(c), ratfunc(-c)
    text = ("dim: 3\nbracket: 1 2 -> 1 : 1\nbracket: 1 3 -> 3 : 1\n"
            "bracket: 2 3 -> 2 : 1\nmetric:\n1 0 0\n0 1 0\n0 0 eps\n")
    builds = [
        lambda: MetricLieAlgebra("unnamed", 3, tuple(tuple(map(tuple, p)) for p in C),
                                 tuple(tuple(map(ratfunc, row)) for row in metric)),
        lambda: MetricLieAlgebra.from_brackets(3, brackets, metric),
        lambda: loads(text),
    ]
    for build in builds:
        with pytest.raises(ValidationFailed) as exc:
            build()
        assert (exc.value.name, exc.value.dim) == ("unnamed", 3)
        assert [str(v) for v in exc.value.violations] == [
            "jacobi: cyclic bracket sum on (X1,X2,X3) has nonzero X1 component 1",
            "jacobi: cyclic bracket sum on (X1,X2,X3) has nonzero X2 component -1",
            "jacobi: cyclic bracket sum on (X1,X2,X3) has nonzero X3 component -1",
        ]
    assert sys.modules["liegeom.catalog"].ValidationFailed is ValidationFailed


def test_specializing_at_a_zero_of_the_determinant_is_refused():
    # det g = eps for the Berger sphere: eps = 0 leaves no metric
    alg = berger()
    assert alg.singular_parameters() == [0]
    with pytest.raises(ValidationFailed) as exc:
        alg.at_eps(0)
    assert (exc.value.name, exc.value.dim) == ("berger-sphere[eps=0]", 3)
    assert [str(v) for v in exc.value.violations] == [
        "metric-nondegenerate: determinant of the metric is identically zero"]


# ---------------------------------------------------------------------------
# rough Laplacian and harmonicity


def test_rough_laplacian_golden(berger_alg):
    L = berger_alg.rough_laplacian
    assert [[str(x) for x in row] for row in L] == [
        ["-2*eps", "0", "0"],
        ["0", "(-4+4*eps-2*eps^2)/eps", "0"],
        ["0", "0", "(-4+4*eps-2*eps^2)/eps"],
    ]


def test_harmonicity_berger(berger_alg):
    rep = harmonicity_classify(berger_alg)
    pairs = [(str(f.eigenvalue), f.multiplicity) for f in rep.families]
    assert pairs == [("-2*eps", 1), ("(-4+4*eps-2*eps^2)/eps", 2)]
    assert [vector_str(v) for v in rep.families[0].basis] == ["X1"]
    assert [vector_str(v) for v in rep.families[1].basis] == ["X2", "X3"]
    for fam in rep.families:
        assert fam.trace_vanishes
        assert not fam.section_harmonic
        assert not fam.map_harmonic
        assert fam.harmonic_eps == []
    assert rep.parallel_basis == []
    # no harmonic sections: the spectrum has no zero family and no residual
    assert not any(pair.value.is_zero for pair in berger_alg.laplacian_spectrum.pairs)
    assert berger_alg.laplacian_spectrum.residual == (ONE,)


def test_harmonicity_abelian(abelian_alg):
    # flat case: everything is parallel, hence harmonic
    rep = harmonicity_classify(abelian_alg)
    assert len(rep.parallel_basis) == 3
    (zero,) = [pair for pair in abelian_alg.laplacian_spectrum.pairs if pair.value.is_zero]
    assert len(zero.vectors) == 3
    assert [f.multiplicity for f in rep.families] == [3]
    assert rep.families[0].section_harmonic
    assert rep.families[0].map_harmonic


# ---------------------------------------------------------------------------
# energy


def test_energy_density_generic(berger_alg):
    rep = energy_report(berger_alg)
    assert poly_str(component_names(3), rep.density_generic) == (
        "eps^2*a^2+((2-2*eps+eps^2)/eps)*b^2+((2-2*eps+eps^2)/eps)*c^2+(3/2)")


def test_energy_density_is_a_ratfunc_on_a_flat_connection(abelian_alg, berger_alg):
    # flat: no polynomial part, the RatFunc n/2 prints without parentheses
    flat = energy_report(abelian_alg).density_generic
    assert isinstance(flat, RatFunc)
    assert energy_section(abelian_alg)["density_generic"] == "3/2"
    # curved: a monomial dict whose constant term prints in parentheses
    assert isinstance(energy_report(berger_alg).density_generic, dict)
    assert energy_section(berger_alg)["density_generic"].endswith("+(3/2)")


def test_energy_family_coefficients(berger_alg):
    rep = energy_report(berger_alg)
    assert [str(f.rho2_coeff) for f in rep.families] == [
        "eps", "(2-2*eps+eps^2)/eps"]
    assert [f.constant for f in rep.families] == [Fraction(3, 2), Fraction(3, 2)]
    # the gradient Gram form is exactly 2 * coeff * (induced metric Gram)
    for fam in rep.families:
        for i, u in enumerate(fam.basis):
            for j, w in enumerate(fam.basis):
                assert reference_gradient(berger_alg, u, w) == 2 * fam.rho2_coeff * fam.gram[i][j]


def test_null_critical_family_has_the_constant_energy():
    # X2 - X1 is null for the metric diag(-1, 1, eps): every member V has
    # g(V, V) = 0, and |nabla V|^2 = 0 by the direct contraction, so its
    # energy is n/2 whatever the eigenvalue.  These are the only 2 of the
    # 300 almost-abelian algebras with a null family.
    family = {alg.name: alg for alg in test_properties.almost_abelian_family()}
    for name in ("almost-abelian-3d-24", "almost-abelian-3d-96"):
        alg = family[name]
        (null,) = [f for f in energy_report(alg).families if f.rho2_coeff is None]
        (u,) = null.basis
        assert vector_str(u) == "-X1+X2"
        assert alg.inner(u, u).is_zero and reference_gradient(alg, u, u).is_zero
        (doc,) = [f for f in energy_section(alg)["families"] if f["basis"] == ["-X1+X2"]]
        assert doc["rho2_coefficient"] is None
        assert doc["constant_term"] == doc["energy"] == "3/2"


def test_harmonicity_is_classified_once_per_algebra(monkeypatch):
    # the harmonic and energy sections share the algebra's one spectrum
    calls = []
    original = algebra.eigen_analyze

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(algebra, "eigen_analyze", counting)
    alg = berger()
    harmonic_section(alg)
    energy_section(alg)
    assert len(calls) == 1


def test_energy_section_forms_no_harmonic_classification(monkeypatch):
    # the energy section reads the spectrum of the algebra, not the harmonic
    # verdict: neither the classification nor its curvature trace runs
    def refuse(*args):
        raise AssertionError("the energy section ran the harmonic classification")

    monkeypatch.setattr(geometry, "harmonicity_classify", refuse)
    monkeypatch.setattr(geometry, "_trace_vanishes", refuse)
    alg = berger()
    section = energy_section(alg)
    assert [f["eigenvalue"] for f in section["families"]] == [
        str(pair.value) for pair in alg.laplacian_spectrum.pairs]


def test_harmonic_eps_are_searched_only_where_the_trace_vanishes(monkeypatch, corpus_alg):
    # the zeros of a nonzero eigenvalue are kept only for a family whose
    # curvature trace vanishes; the other 6 families with a nonzero
    # eigenvalue (1 on heisenberg, 1 on heisenberg-x-r, the 4 of r4) had
    # their zeros searched for nothing
    searched = []
    zeros = RatFunc.zeros
    monkeypatch.setattr(RatFunc, "zeros", lambda self: searched.append(self) or zeros(self))
    skipped = 0
    for key in test_properties.corpus.TEXTS:
        alg = corpus_alg(key)
        # the cached singular values and spectrum search zeros of their own
        alg.singular_parameters()
        alg.laplacian_spectrum
        searched.clear()
        families = harmonicity_classify(alg).families
        assert searched == [f.eigenvalue for f in families
                            if f.trace_vanishes and not f.eigenvalue.is_zero]
        skipped += sum(not (f.trace_vanishes or f.eigenvalue.is_zero) for f in families)
    assert skipped == 6


def test_trace_flag_sees_the_cross_terms(corpus_alg):
    # on heisenberg the 3-dimensional family has a zero curvature trace at
    # each basis vector but not on their span: the verdict needs the cross
    # terms t(u_k, u_l), k < l, of the polarized trace as well
    alg = corpus_alg("heisenberg")
    (fam,) = [f for f in harmonicity_classify(alg).families if len(f.basis) == 3]
    for u in fam.basis:
        assert all(is_zero(x) for x in reference_trace(alg, u))
    assert not fam.trace_vanishes


ARITHMETIC = ("__mul__", "__rmul__", "__add__", "__radd__",
              "__sub__", "__rsub__", "__truediv__", "__rtruediv__")


def test_harmonic_and_energy_sections_bound_their_arithmetic(monkeypatch):
    # the rough Laplacian and the trace test read one raised connection, the
    # energy reads the Laplacian, and the section kernel is read off the spectrum:
    # with the tensors built, the two sections took 305, 523 and 365 RatFunc
    # operations on berger, u2 and heisenberg with trace probes and a second
    # rref, and 70% of that is the bound
    calls = []

    def counting(original):
        def op(self, other):
            calls.append(other)
            return original(self, other)
        return op

    for build, before in ((berger, 305),
                          (lambda: loads(test_properties.corpus.TEXTS["u2"]), 523),
                          (lambda: loads(test_properties.corpus.TEXTS["heisenberg"]), 365)):
        alg = build()
        alg.nabla_basis, alg.curvature_tensor, alg.metric_inverse, alg.singular_parameters()
        with monkeypatch.context() as m:
            for name in ARITHMETIC:
                m.setattr(RatFunc, name, counting(getattr(RatFunc, name)))
            calls.clear()
            harmonic_section(alg)
            energy_section(alg)
        assert len(calls) <= 0.7 * before, (alg.name, len(calls))


def test_analyses_multiply_no_multipolys():
    # every polynomial of a report (the soliton equations, the geodesic and
    # Walker forms, the Ledger l5 and the energy density) is a monomial dict
    # of RatFunc coefficients read off the tensors, and `poly_str` prints
    # it: the engine has no polynomial class to add or multiply
    package = Path(scalars.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "MultiPoly" in p.read_text()] == []
    for alg in (berger(), loads(test_properties.corpus.TEXTS["u2"]),
                loads(test_properties.corpus.TEXTS["heisenberg-x-r"])):
        polys = [*ricci_soliton_solve(alg).equations, *geodesic_classify(alg).equations,
                 ledger_check(alg).l5_poly, energy_report(alg).density_generic]
        assert all(type(p) is dict and all(type(c) is RatFunc and not c.is_zero
                                           for c in p.values()) for p in polys), alg.name


def test_full_report_forms_few_zero_factor_products(monkeypatch):
    # every contraction of the tensor layer runs over the nonzero entries of
    # its factors; dense loops formed 1668 such products on berger and 4084
    # on u2 (construction or parsing included), and 15% of that is the bound
    counts = []
    originals = {name: getattr(RatFunc, name) for name in ("__mul__", "__rmul__")}

    def counting(name):
        def product(self, other):
            if is_zero(self) or is_zero(other):
                counts[-1] += 1
            return originals[name](self, other)
        return product

    for name in originals:
        monkeypatch.setattr(RatFunc, name, counting(name))
    for build in (berger, lambda: loads(test_properties.corpus.TEXTS["u2"])):
        counts.append(0)
        full_report(build())
    assert counts[0] <= 0.15 * 1668
    assert counts[1] <= 0.15 * 4084


def test_full_report_skips_zero_factors_outside_the_tensor_layer(monkeypatch):
    # the case analysis drops a coordinate set to zero from its live set
    # instead of substituting it, `mat_det` and `rref_solve` return ZERO
    # without forming it, and the soliton rows negate: 62 products with a
    # zero factor were left on berger and 98 on u2, 31 and 43 of them in a
    # substitution of zero into the geodesic and Walker polynomials
    sites = []
    originals = {name: getattr(RatFunc, name) for name in ("__mul__", "__rmul__")}

    def counting(name):
        def product(self, other):
            if is_zero(self) or is_zero(other):
                sites.append(sys._getframe(1).f_code.co_name)
            return originals[name](self, other)
        return product

    for name in originals:
        monkeypatch.setattr(RatFunc, name, counting(name))
    for build in (berger, lambda: loads(test_properties.corpus.TEXTS["u2"])):
        sites.clear()
        full_report(build())
        assert len(sites) <= 15, Counter(sites)


def test_full_report_forms_no_zero_factor_products(monkeypatch):
    # the characteristic polynomial forms no RatFunc product (Berkowitz's
    # recurrence runs on integer tuples), and the energy's -lam/2 skips a
    # zero eigenvalue: 8 products with a zero factor were left on berger
    # and 10 on u2
    sites = []
    originals = {name: getattr(RatFunc, name) for name in ("__mul__", "__rmul__")}

    def counting(name):
        def product(self, other):
            if is_zero(self) or is_zero(other):
                sites.append(sys._getframe(1).f_code.co_name)
            return originals[name](self, other)
        return product

    for name in originals:
        monkeypatch.setattr(RatFunc, name, counting(name))
    for build in (berger, lambda: loads(test_properties.corpus.TEXTS["u2"])):
        sites.clear()
        full_report(build())
        assert sites == []


def test_grad_norm_sq_matches_density(berger_alg):
    nm = component_names(3)
    V = [MultiPoly.var(nm, x) for x in nm]
    grad = grad_norm_sq(berger_alg, V)
    dens = from_terms(nm, energy_report(berger_alg).density_generic)
    assert dens == grad * Fraction(1, 2) + Fraction(3, 2)


def test_grad_norm_sq_exact_value(berger_alg):
    # V = X1 at eps = 4: 2 eps^2 alpha^2 = 32
    g = grad_norm_sq(berger_alg, [ONE, ZERO, ZERO])
    assert g.eval(F(4)) == F(32)
