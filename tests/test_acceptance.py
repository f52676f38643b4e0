"""End-to-end reproduction gate.

Each test covers one published claim about the one-parameter sphere
family and its flat control case, at the stated exactness or tolerance,
and prints one PASS line when it holds.  Expected values were either
derived independently (exact arithmetic oracles in this file) or
transcribed from the published tabulations and cross-checked against the
engine's two independent computation routes.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from liegeom.catalog import catalog
from liegeom.geometry import (
    einstein_check,
    energy_report,
    geodesic_classify,
    harmonicity_classify,
    killing_solve,
    ledger_check,
    ricci_soliton_solve,
    walker_check,
)
from liegeom.numeric import evaluate_numeric
from liegeom.scalars import (
    EPS,
    ONE,
    ZERO,
    component_names,
    parse_scalar,
)
from liegeom.algebra import vector_str
from liegeom.solvers import rref_solve
from poly_reference import MultiPoly, from_terms, mat_inv, nabla

import test_properties
import test_tensor_reference
from test_numeric import frame_grad_norm_sq


def F(*parts):
    return Fraction(*parts)


def close(x, y, rel=1e-12):
    return math.isclose(x, y, rel_tol=rel, abs_tol=1e-12)


def notes_by_id(entry):
    return {n.note_id: n for n in entry.notes}


# ---------------------------------------------------------------------------


def test_criterion_01_connection_golden(berger_alg):
    ops = berger_alg.connection_operators
    published = {
        0: [["0", "0", "0"], ["0", "0", "-2+eps"], ["0", "2-eps", "1"]],
        1: [["0", "0", "1"], ["0", "0", "0"], ["-eps", "0", "0"]],
        2: [["0", "-1", "0"], ["eps", "0", "0"], ["0", "0", "0"]],
    }
    for idx in (1, 2):
        for r in range(3):
            for c in range(3):
                assert ops[idx][r][c] == parse_scalar(published[idx][r][c])
    # the first operator agrees everywhere except the bottom-right entry,
    # where the exact Koszul computation forces a zero
    for r in range(3):
        for c in range(3):
            expected = parse_scalar(published[0][r][c])
            if (r, c) == (2, 2):
                assert expected == ONE
                assert ops[0][r][c] == ZERO
            else:
                assert ops[0][r][c] == expected
    note = notes_by_id(catalog()["berger"])["connection-entry-33"]
    assert note.subject == "connection"
    print("ACCEPTANCE 01 PASS: connection operators match, "
          "(3,3) entry corrected to 0 with annotation")


def test_criterion_02_curvature_golden(berger_alg):
    alg = berger_alg
    eps = EPS
    expected_images = {
        (0, 1, 0): [ZERO, eps * eps, ZERO],          # eps^2 X2
        (0, 1, 1): [-eps, ZERO, ZERO],               # -eps X1
        (0, 2, 2): [-eps, ZERO, ZERO],               # -eps X1
        (0, 2, 0): [ZERO, ZERO, eps * eps],          # eps^2 X3
        (1, 2, 1): [ZERO, ZERO, 4 * ONE - 3 * eps],  # (4-3eps) X3
        (1, 2, 2): [ZERO, 3 * eps - 4 * ONE, ZERO],  # (3eps-4) X2
    }
    for i in range(3):
        for j in range(i + 1, 3):
            op = alg.curvature_operator(i, j)
            for k in range(3):
                image = [op[r][k] for r in range(3)]
                want = expected_images.get((i, j, k), [ZERO, ZERO, ZERO])
                assert image == want, (i, j, k)
    R4 = alg.curvature_tensor
    assert R4[0][1][0][1] == eps * eps
    assert R4[0][2][0][2] == eps * eps
    assert R4[1][2][1][2] == 4 * ONE - 3 * eps
    print("ACCEPTANCE 02 PASS: all nonzero curvature components reproduced")


def test_criterion_03_ricci_golden(berger_alg):
    rho = berger_alg.ricci
    want = [parse_scalar("2*eps^2"), parse_scalar("4-2*eps"), parse_scalar("4-2*eps")]
    for i in range(3):
        for j in range(3):
            assert rho[i][j] == (want[i] if i == j else ZERO)
    ein = einstein_check(berger_alg)
    assert not ein.generic
    assert ein.exceptional == [(F(1), F(2))]
    print("ACCEPTANCE 03 PASS: Ricci diag(2*eps^2, 4-2*eps, 4-2*eps); "
          "Einstein at eps=1 with lam=2")


def canon_mod_sign(p):
    return min(str(p), str(-p))


def test_criterion_04_soliton_system(berger_alg):
    v = ricci_soliton_solve(berger_alg)
    names = v.unknowns
    x2 = MultiPoly.var(names, "x2")
    x3 = MultiPoly.var(names, "x3")
    lam = MultiPoly.var(names, "lam")
    published = [
        x3 * (2 * ONE - 2 * EPS),                       # 2(1-eps)c = 0
        x2 * (2 * EPS - 2 * ONE),                       # 2(eps-1)b = 0
        MultiPoly.const(names, 2 * EPS * EPS) - lam * EPS,   # 2eps^2 - lam*eps = 0
        MultiPoly.const(names, 4 * ONE - 2 * EPS) - lam,     # 4 - 2eps - lam = 0
    ]
    assert {canon_mod_sign(from_terms(names, e)) for e in v.equations} == \
        {canon_mod_sign(e) for e in published}
    assert not v.generic_soliton
    assert [(b.eps, b.kind) for b in v.exceptional] == [
        (F(0), "degenerate-metric"), (F(1), "einstein")]
    print("ACCEPTANCE 04 PASS: soliton system reproduced up to row order/sign; "
          "no generic soliton; exceptional set {0, 1}")


def test_criterion_05_harmonicity(berger_alg):
    rep = harmonicity_classify(berger_alg)
    lam2 = parse_scalar("-2*(eps^2-2*eps+2)/eps")
    assert [(f.eigenvalue, f.multiplicity) for f in rep.families] == [
        (-2 * EPS, 1), (lam2, 2)]
    assert [vector_str(b) for b in rep.families[0].basis] == ["X1"]
    assert [vector_str(b) for b in rep.families[1].basis] == ["X2", "X3"]
    # no harmonic sections generically: no family is the kernel of L
    assert not any(fam.section_harmonic for fam in rep.families)
    for fam in rep.families:
        assert not fam.map_harmonic            # harmonic-map test fails
        assert fam.harmonic_eps == []
    assert rep.parallel_basis == []            # no nonzero parallel field
    print("ACCEPTANCE 05 PASS: Laplacian eigenpairs (-2*eps, X1) and "
          "(-2(eps^2-2eps+2)/eps, X2/X3); no harmonic sections or maps; "
          "no parallel fields")


def test_criterion_06_killing_geodesic(berger_alg):
    kil = killing_solve(berger_alg)
    assert [vector_str(b) for b in kil.basis] == ["X1"]
    assert [(b.eps, len(b.result.kernel)) for b in kil.exceptional] == [(F(1), 3)]
    geo = geodesic_classify(berger_alg)
    assert geo.components == [frozenset({"a"}), frozenset({"b", "c"})]
    assert [(b.eps, b.components) for b in geo.exceptional] == [(F(1), [frozenset()])]
    print("ACCEPTANCE 06 PASS: Killing basis {X1}; geodesic set "
          "{a=0} union {b=c=0}; both become everything at eps=1")


def l5_grid_oracle(alg, eps0, radius=3):
    """Independent degree-5 Ledger check: specialize the algebra to plain
    rationals at eps0, build R and nabla R there by the brute-force loops
    of `test_tensor_reference` (not the engine's tensor layer), contract
    numerically at every point of the integer grid [-radius, radius]^n of
    coefficient vectors, and compare with the engine's degree-5 polynomial
    evaluated there.  No multivariate symbols involved on the oracle side.
    Returns the first grid point where the two differ, or None."""
    spec = alg.at_eps(eps0)
    n = spec.dim
    rn = range(n)
    names = component_names(n)
    l5 = from_terms(names, ledger_check(alg).l5_poly)
    R4s, Ds = test_tensor_reference.reference_tensors(spec)
    R4 = [[[[R4s[i][j][k][l].eval(eps0) for l in rn] for k in rn]
           for j in rn] for i in rn]
    D = [[[[[Ds[i][a][b][c][d].eval(eps0) for d in rn] for c in rn] for b in rn]
          for a in rn] for i in rn]
    ginv = [[x.eval(eps0) for x in row] for row in mat_inv(spec.metric)]
    for point in itertools.product(range(-radius, radius + 1), repeat=n):
        x = [F(v) for v in point]
        A = [[sum(x[i] * x[j] * R4[i][a][j][b] for i in rn for j in rn)
              for b in rn] for a in rn]
        B = [[sum(x[i] * x[p] * x[q] * D[i][p][c][q][d]
                  for i in rn for p in rn for q in rn)
              for d in rn] for c in rn]
        total = sum(ginv[a][c] * ginv[b][d] * A[a][b] * B[c][d]
                    for a in rn for b in rn for c in rn for d in rn)
        if l5.evaluate(dict(zip(names, x)), eps0) != total:
            return point
    return None


def test_criterion_07_ledger(berger_alg, abelian_alg):
    rep = ledger_check(berger_alg)
    assert rep.l3_holds
    flat = ledger_check(abelian_alg)
    assert flat.l3_holds and flat.l5_holds
    assert rep.l5_holds
    for eps0 in (F(2), F(-1), F(1, 2)):
        assert l5_grid_oracle(berger_alg, eps0) is None, eps0
    print("ACCEPTANCE 07 PASS: L3 holds; L5 confirmed by symbolic route and "
          "by the grid oracle at eps in {2, -1, 1/2}")


def test_l5_grid_oracle_on_nonzero_l5(corpus_alg):
    # where l5 does not vanish the oracle compares values, not zeros
    solvable = test_properties.GENERATED["02-solvable/basis-change"]
    r4 = corpus_alg("r4")
    assert not ledger_check(solvable).l5_holds and not ledger_check(r4).l5_holds
    for eps0 in (F(2), F(-1, 2)):
        assert l5_grid_oracle(solvable, eps0, radius=2) is None, eps0
    for eps0 in (F(3), F(-5, 2)):
        assert l5_grid_oracle(r4, eps0, radius=1) is None, eps0


def test_criterion_08_walker(berger_alg, abelian_alg):
    v = walker_check(berger_alg)
    assert not v.is_walker
    w = walker_check(abelian_alg)
    assert w.is_walker
    # verify the witness from first principles
    wit = w.witness
    assert abelian_alg.inner(wit, wit) == ZERO            # null
    for i in range(3):
        basis_i = [ONE if k == i else ZERO for k in range(3)]
        dw = nabla(abelian_alg, basis_i, wit)
        # nabla_{Xi} w must stay on the line spanned by w
        for r in range(3):
            for s in range(r + 1, 3):
                assert dw[r] * wit[s] - dw[s] * wit[r] == ZERO
    print("ACCEPTANCE 08 PASS: deformed sphere never Walker; flat control "
          f"Walker with verified null parallel witness {vector_str(wit)}")


def test_criterion_09_energy(berger_alg):
    nm = component_names(3)
    V = [MultiPoly.var(nm, x) for x in nm]
    a, b, c = V
    q_over_eps = parse_scalar("(eps^2-2*eps+2)/eps")
    expected = (a * a * (2 * EPS * EPS)
                + (b * b + c * c) * (2 * q_over_eps))
    assert test_tensor_reference.grad_norm_sq(berger_alg, V) == expected

    # frame-converted comparison against the published closed form
    for eps0 in (F(-2), F(-1), F(-1, 2), F(1, 2), F(3)):
        model = evaluate_numeric(berger_alg, eps0)
        s1 = model.signs[0]
        e0 = float(eps0)
        for fa, fb, fc in ((1, 0, 0), (0, 1, 0), (1, 2, -1), (0.5, 1/3, 1)):
            coords = [fa * model.frame[0][0], fb, fc]
            got = frame_grad_norm_sq(model, coords)
            norm_sq = s1 * fa * fa + fb * fb + fc * fc
            term = ((e0 - 2) ** 2 + e0 ** 2) / e0 * norm_sq
            correction = 4 * (e0 - 1) / e0 * fa * fa
            want = term - correction if s1 < 0 else term + correction
            assert close(got, want), (eps0, (fa, fb, fc), got, want)

    # critical-family energies: gradient term exact, constant annotated
    rep = energy_report(berger_alg)
    assert [str(f.rho2_coeff) for f in rep.families] == [
        "eps", "(2-2*eps+eps^2)/eps"]
    assert [f.constant for f in rep.families] == [F(3, 2), F(3, 2)]
    ids = notes_by_id(catalog()["berger"])
    assert "energy-density-constant" in ids
    assert "energy-coefficient-family-2" in ids
    print("ACCEPTANCE 09 PASS: gradient energy exact, frame values match the "
          "closed form at 5 sample eps, family slopes eps and "
          "(eps^2-2*eps+2)/eps with constants annotated")


def test_criterion_10_property_suites(berger_alg, abelian_alg):
    algebras = [berger_alg, abelian_alg] + test_properties.ALGEBRAS
    assert len(test_properties.ALGEBRAS) == 20
    rng = random.Random(7)
    for alg in algebras:
        assert alg.validate() == []
        n = alg.dim
        K, C, R4 = alg.nabla_basis, alg.brackets, alg.curvature_tensor
        D = alg.cov_curvature
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert K[i][j][k] - K[j][i][k] == C[i][j][k]
                    ek = [ONE if m == k else ZERO for m in range(n)]
                    ej = [ONE if m == j else ZERO for m in range(n)]
                    assert alg.inner(K[i][j], ek) + alg.inner(ej, K[i][k]) == ZERO
                    for l in range(n):
                        assert R4[i][j][k][l] == -R4[j][i][k][l]
                        assert R4[i][j][k][l] == -R4[i][j][l][k]
                        assert R4[i][j][k][l] == R4[k][l][i][j]
                        assert (R4[i][j][k][l] + R4[j][k][i][l]
                                + R4[k][i][j][l]) == ZERO
                        for d in range(n):
                            assert (D[i][j][k][l][d] + D[j][k][i][l][d]
                                    + D[k][i][j][l][d]) == ZERO
        # Lie-derivative linearity on a fixed pair of invariant fields
        u = [Fraction(rng.randint(-2, 2)) * ONE for _ in range(n)]
        v = [Fraction(rng.randint(-2, 2)) * ONE for _ in range(n)]
        Lu, Lv = (test_properties.lie_derivative_metric(alg, x) for x in (u, v))
        Ls = test_properties.lie_derivative_metric(alg, [a + b for a, b in zip(u, v)])
        for i in range(n):
            for j in range(n):
                assert Ls[i][j] == Lu[i][j] + Lv[i][j]
        # solver residual: a consistent system solved over the field
        rows = [[alg.ricci[i][j] + Fraction(rng.randint(0, 2))
                 for j in range(n)] for i in range(n)]
        x0 = [Fraction(rng.randint(-3, 3)) * ONE for _ in range(n)]
        rhs = [sum((rows[i][j] * x0[j] for j in range(n)), start=ZERO)
               for i in range(n)]
        res = rref_solve(rows, rhs)
        assert res.status != "inconsistent"
        for i in range(n):
            got = sum((rows[i][j] * res.particular[j] for j in range(n)),
                      start=ZERO)
            assert got == rhs[i]
    print("ACCEPTANCE 10 PASS: exact connection, curvature, Bianchi, "
          "Lie-derivative, and solver-residual identities on "
          f"{len(algebras)} algebras (catalog + 20 randomized)")


def test_criterion_11_dual_path(berger_alg):
    alg = berger_alg
    lap = [
        parse_scalar("-2*eps"),
        parse_scalar("(-4+4*eps-2*eps^2)/eps"),
        parse_scalar("(-4+4*eps-2*eps^2)/eps"),
    ]
    ric_op = [parse_scalar("2*eps"), parse_scalar("4-2*eps"), parse_scalar("4-2*eps")]
    for eps0 in (F(-2), F(-1), F(1, 2), F(1), F(3)):
        model = evaluate_numeric(alg, eps0)
        assert close(model.scalar_curvature,
                     float(alg.scalar_curvature.eval(eps0)))
        exact_lap = sorted(float(x.eval(eps0)) for x in lap)
        for got, want in zip(model.laplacian_eigenvalues, exact_lap):
            assert close(got, want), eps0
        ric_eigs = sorted(np.linalg.eigvals(
            np.linalg.inv(model.metric) @ model.ricci).real)
        exact_ric = sorted(float(x.eval(eps0)) for x in ric_op)
        for got, want in zip(ric_eigs, exact_ric):
            assert close(got, want), eps0
    print("ACCEPTANCE 11 PASS: symbolic and numeric pipelines agree to 1e-12 "
          "relative at eps in {-2, -1, 1/2, 1, 3}")
