import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegeom import scalars, solvers
from liegeom.algebra import MetricLieAlgebra
from liegeom.catalog import loads
from liegeom.scalars import (
    EPS,
    ONE,
    ZERO,
    RatFunc,
    mu_poly_str,
    parse_scalar,
    ratfunc,
)
from liegeom.solvers import (
    charpoly,
    eigen_analyze,
    kernel_basis,
    rref_solve,
    solve_parametric,
)
from poly_reference import (
    Poly,
    check,
    laplace_charpoly,
    numerator,
    ratfunc_of,
    square_free_part,
)

import test_properties
from test_tensor_reference import corpus_case


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# elimination over constant rational functions: a system specialized at one eps


def consts(values):
    """Constant `RatFunc`s: a list of rationals, or a list of rows of them."""
    return [consts(v) if isinstance(v, list) else ratfunc(v) for v in values]


def test_rref_unique():
    res = rref_solve(consts([[2, 1], [1, -1]]), consts([3, 0]))
    assert res.status == "unique"
    assert res.particular == consts([1, 1])
    assert all(type(x) is RatFunc for x in res.particular)
    assert res.kernel == []


def test_rref_underdetermined():
    res = rref_solve(consts([[1, 1], [2, 2]]), consts([2, 4]))
    assert res.status == "underdetermined"
    assert res.rank == 1
    assert res.kernel_dim == 1
    x0, k = res.particular, res.kernel[0]
    # back substitution of the particular solution and of the kernel vector
    assert x0[0] + x0[1] == ratfunc(2)
    assert (k[0] + k[1]).is_zero and k != consts([0, 0])
    assert all(type(x) is RatFunc for x in x0 + k)


def test_rref_inconsistent():
    res = rref_solve(consts([[1, 1], [1, 1]]), consts([1, 2]))
    assert res.status == "inconsistent"
    assert res.particular is None


def test_rref_watch_lists_pivots_then_zero_row_right_sides():
    # pivot 2 in column 0, pivot -1/2 in column 1; the third row
    # eliminates to 0 = 1
    res = rref_solve(consts([[2, 1], [1, 0], [3, 1]]), consts([3, 1, 5]))
    assert res.watch == consts([2, Fraction(-1, 2), 1])
    assert res.status == "inconsistent"


# ---------------------------------------------------------------------------
# parametric elimination


def test_parametric_pivot_branch():
    sol = solve_parametric([[EPS]], [ONE], ("x",))
    assert sol.generic.status == "unique"
    assert str(sol.generic.particular[0]) == "1/eps"
    assert Fraction(0) in sol.candidates
    (branch,) = [b for b in sol.branches if b.eps == 0]
    assert branch.status == "inconsistent"


def test_parametric_rank_drop_branch():
    row = [EPS - 1]
    sol = solve_parametric([row], [ZERO], ("x",))
    assert sol.generic.status == "unique"
    assert sol.generic.particular == [ZERO]
    (branch,) = [b for b in sol.branches if b.eps == 1]
    assert branch.result.status == "underdetermined"
    assert branch.result.kernel_dim == 1


def test_parametric_no_spurious_branches():
    # rank one for every eps: the candidate 0 is probed and discarded
    sol = solve_parametric([[EPS, ONE], [EPS, ONE]], [ZERO, ZERO], ("x", "y"))
    assert sol.generic.status == "underdetermined"
    assert sol.branches == []


def test_parametric_without_equations_leaves_every_unknown_free():
    sol = solve_parametric([], [], ("x", "y"))
    assert sol.generic.status == "underdetermined"
    assert sol.generic.particular == [ZERO, ZERO]
    assert sol.generic.kernel == [[ONE, ZERO], [ZERO, ONE]]
    assert sol.candidates == [] and sol.branches == []


def test_parametric_pole_branch_is_singular():
    sol = solve_parametric([[ONE / EPS]], [ONE], ("x",))
    (branch,) = [b for b in sol.branches if b.eps == 0]
    assert branch.status == "singular"
    assert branch.result is None


def test_parametric_caller_singular_values_are_not_solved(monkeypatch):
    # (eps-2) x = (eps-2)/(eps-1): a pole at 1 and a rank drop at 2; the
    # caller's 2 and 3 are listed unsolved, watched by the elimination or not
    solved = []
    def counting(rows, rhs):
        solved.append(rows)
        return rref_solve(rows, rhs)
    monkeypatch.setattr(solvers, "rref_solve", counting)
    sol = solve_parametric([[EPS - 2]], [(EPS - 2) / (EPS - 1)], ("x",), [Fraction(2), 3])
    assert sol.candidates == [1, 2, 3]
    assert [(b.eps, b.status, b.result) for b in sol.branches] == [
        (1, "singular", None), (2, "singular", None), (3, "singular", None)]
    assert len(solved) == 1
    assert 4 not in [b.eps for b in sol.branches]
    # without them, 2 is solved and is a rank drop, and 3 is not a candidate
    sol = solve_parametric([[EPS - 2]], [(EPS - 2) / (EPS - 1)], ("x",))
    assert [(b.eps, b.status) for b in sol.branches] == [(1, "singular"), (2, "underdetermined")]
    assert len(solved) == 3


def test_kernel_basis():
    ker = kernel_basis([[ONE, ONE, ZERO]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] == ZERO


# ---------------------------------------------------------------------------
# characteristic polynomials and eigen analysis


def test_charpoly_swap_matrix():
    assert charpoly([[ZERO, ONE], [ONE, ZERO]]) == ([(-1,), (), (1,)], (1,))
    assert mu_poly_str(eigen_analyze([[ZERO, ONE], [ONE, ZERO]]).charpoly) == "mu^2-1"


def test_residual_prints_as_multipoly_in_mu():
    # mu^2 - 2*eps*mu - 1 has no rational-function root; a coefficient
    # c*eps^k in front of a power of mu is parenthesized, as in vectors
    dec = eigen_analyze([[2 * EPS, ONE], [ONE, ZERO]])
    assert dec.pairs == []
    assert mu_poly_str(dec.residual) == "mu^2+(-2*eps)*mu-1"


def zpoly(a) -> RatFunc:
    """The integer tuple a, lowest degree first, as a polynomial in eps."""
    return sum((c * EPS ** k for k, c in enumerate(a)), ZERO)


def dense_matrix(rng, n):
    """An n x n matrix with no zero entry over Q(eps): numerators of degree
    at most 2 over denominators eps, eps+1, eps^2-2, 2*eps-3 or a constant,
    the first two entries over eps and eps+1."""
    dens = [EPS, EPS + 1, EPS * EPS - 2, 2 * EPS - 3, 3 * ONE, ONE]
    out = []
    for k in range(n * n):
        num = zpoly([rng.randint(-3, 3) for _ in range(3)])
        out.append((ONE if num.is_zero else num) / (dens[k] if k < 2 else rng.choice(dens)))
    return [out[i * n:(i + 1) * n] for i in range(n)]


DENSE = [dense_matrix(random.Random(seed), 3 + seed % 2) for seed in range(20)]


def check_charpoly_against_laplace(L):
    # q(nu) = det(nu I - D L) = D^n p(nu/D) for p(mu) = det(mu I - L), so
    # the coefficient of nu^k is D^(n-k) p_k; D is the lcm of the
    # denominators, so D L is over Z[eps]
    n, (q, D) = len(L), charpoly(L)
    assert all((zpoly(D) * x)._d == (1,) for row in L for x in row)
    p = laplace_charpoly(L).coeffs
    assert [zpoly(c) for c in q] == [c * zpoly(D) ** (n - k) for k, c in enumerate(p)]
    assert q[-1] == (1,)


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("key", list(test_properties.corpus.TEXTS))
def test_corpus_charpoly_matches_laplace(corpus_alg, key, seed):
    check_charpoly_against_laplace(corpus_case(corpus_alg, key, seed).rough_laplacian)


@pytest.mark.parametrize("index", range(len(DENSE)))
def test_dense_charpoly_matches_laplace(index):
    L = DENSE[index]
    assert not any(x.is_zero for row in L for x in row)
    assert len({x._d for row in L for x in row if len(x._d) > 1}) >= 2
    check_charpoly_against_laplace(L)


def _sympy_ratfunc(sympy, eps, f):
    """A `RatFunc` as a sympy expression in the symbol eps."""
    def expr(a):
        return sum((c * eps**k for k, c in enumerate(a)), start=sympy.Integer(0))
    return expr(f._n) / expr(f._d)


def test_charpoly_matches_sympy(corpus_alg):
    # sympy's Matrix.charpoly of D L, entries cancelled to polynomials
    sympy = pytest.importorskip("sympy")
    eps, nu = sympy.symbols("eps nu")
    mixed = [corpus_case(corpus_alg, key, 1).rough_laplacian
             for key in test_properties.corpus.TEXTS]
    for L in mixed + DENSE[:6]:
        q, D = charpoly(L)
        scale = _sympy_ratfunc(sympy, eps, zpoly(D))
        N = sympy.Matrix([[sympy.cancel(scale * _sympy_ratfunc(sympy, eps, x)) for x in row]
                          for row in L])
        ours = sum(_sympy_ratfunc(sympy, eps, zpoly(c)) * nu**k for k, c in enumerate(q))
        assert sympy.expand(N.charpoly(nu).as_expr() - ours) == 0


def test_charpoly_forms_no_ratfunc(monkeypatch, corpus_alg):
    # Berkowitz's recurrence runs on integer tuples; over the 9 unmixed
    # corpus Laplacians, the Laplace expansion on `Poly` entries over Q(eps)
    # made 84 RatFunc products, 84 sums and 22 normalizations
    laplacians = [corpus_alg(key).rough_laplacian for key in test_properties.corpus.TEXTS]
    calls = Counter()

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    for name in ("__init__", "__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(RatFunc, name, counting(name, getattr(RatFunc, name)))
    for module in (scalars, solvers):
        for name in ("_canonical", "_ratfunc"):
            monkeypatch.setattr(module, name, counting(name, getattr(scalars, name)))
    results = [charpoly(L) for L in laplacians]
    assert calls == Counter()
    assert sum(len(q) - 1 for q, _ in results) == sum(len(L) for L in laplacians)


def test_square_free_part_over_q_eps():
    mu_eps, mu_1 = Poly((-EPS, ONE)), Poly((-ONE, ONE))
    assert square_free_part(mu_eps * mu_eps * mu_1) == mu_eps * mu_1


def test_poly_over_q_eps_does_not_mix_with_ratfunc():
    with pytest.raises(TypeError):
        Poly((-EPS, ONE)) * EPS
    with pytest.raises(TypeError):
        RatFunc(Poly((EPS,)))


def test_eigen_zero_first_row_in_a_minor():
    # in det(mu*I - M) the minor of the -1 entry starts with a zero row
    M = [[ONE if (i, j) == (0, 1) else ZERO for j in range(4)] for i in range(4)]
    dec = eigen_analyze(M)
    assert [(str(p.value), p.multiplicity) for p in dec.pairs] == [("0", 4)]
    assert dec.residual == (ONE,)


def test_eigen_identity_matrix():
    dec = eigen_analyze([[ONE, ZERO], [ZERO, ONE]])
    assert [(str(p.value), p.multiplicity) for p in dec.pairs] == [("1", 2)]
    assert dec.residual == (ONE,)


def test_eigen_rational_function_values():
    dec = eigen_analyze([[ZERO, EPS * EPS], [ONE, ZERO]])
    assert [(str(p.value), p.multiplicity) for p in dec.pairs] == [
        ("-eps", 1), ("eps", 1)]
    assert dec.residual == (ONE,)
    # eigenvectors actually satisfy M v = mu v
    M = [[ZERO, EPS * EPS], [ONE, ZERO]]
    for pair in dec.pairs:
        for v in pair.vectors:
            image = [M[0][0] * v[0] + M[0][1] * v[1], M[1][0] * v[0] + M[1][1] * v[1]]
            assert image == [pair.value * v[0], pair.value * v[1]]


def test_eigen_irrational_values_stay_in_residual():
    # mu^2 = eps has no rational-function roots
    dec = eigen_analyze([[ZERO, EPS], [ONE, ZERO]])
    assert dec.pairs == []
    assert len(dec.residual) == 3


def test_eigen_newton_lift_that_leaves_the_integers_is_rejected():
    # mu^2 = eps^2+eps+1 is squarefree at eps = 0 with the integer roots
    # +-1, whose Newton lifts leave Z[eps]: no pair, all of it residual
    dec = eigen_analyze([[ZERO, EPS * EPS + EPS + 1], [ONE, ZERO]])
    assert dec.pairs == []
    assert mu_poly_str(dec.residual) == "mu^2+(-1-eps-eps^2)"


def test_eigen_berger_laplacian_matrix():
    lam2 = parse_scalar("(-4+4*eps-2*eps^2)/eps")
    M = [[-2 * EPS, ZERO, ZERO], [ZERO, lam2, ZERO], [ZERO, ZERO, lam2]]
    dec = eigen_analyze(M)
    assert [(str(p.value), p.multiplicity) for p in dec.pairs] == [
        ("-2*eps", 1), ("(-4+4*eps-2*eps^2)/eps", 2)]


def test_eigen_high_degree_value():
    dec = eigen_analyze([[EPS ** 9]])
    assert [(str(p.value), p.multiplicity) for p in dec.pairs] == [("eps^9", 1)]
    assert dec.residual == (ONE,)


def test_eigen_crossing_values():
    # eps crosses 5 and 11 between small sample points; all three are found
    M = [[EPS, ZERO, ZERO], [ZERO, 5 * ONE, ZERO], [ZERO, ZERO, 11 * ONE]]
    dec = eigen_analyze(M)
    assert [(str(p.value), p.multiplicity) for p in dec.pairs] == [
        ("5", 1), ("11", 1), ("eps", 1)]
    assert dec.residual == (ONE,)


def test_eigen_r4_laplacian_fully_resolved():
    # solvable r4 with an eps-dependent bracket and the identity metric
    I4 = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    alg = MetricLieAlgebra.from_brackets(
        4, {(0, 3): {0: 1}, (1, 3): {1: EPS / 5}, (2, 3): {2: 2}}, I4)
    dec = eigen_analyze(alg.rough_laplacian)
    assert [(str(p.value), p.multiplicity) for p in dec.pairs] == [
        ("-5-1/25*eps^2", 1), ("-1/25*eps^2", 1), ("-4", 1), ("-1", 1)]
    assert dec.residual == (ONE,)


small_polys = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=3).map(Poly)
small_ratfuncs = st.tuples(small_polys, small_polys.filter(lambda p: not p.is_zero)).map(
    lambda nd: ratfunc_of(nd[0], nd[1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.lists(small_ratfuncs, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_eigen_triangular_spectrum_is_the_diagonal(rows):
    n = len(rows)
    M = [[rows[i][j] if j >= i else ZERO for j in range(n)] for i in range(n)]
    dec = eigen_analyze(M)
    check(dec.charpoly)
    check(dec.residual)
    found = Counter()
    for p in dec.pairs:
        found[p.value] += p.multiplicity
    assert found == Counter(M[i][i] for i in range(n))
    assert dec.residual == (ONE,)
    # ascending as eps -> +oo
    for a, b in zip(dec.pairs, dec.pairs[1:]):
        assert numerator(b.value - a.value).leading > 0


@pytest.mark.parametrize("key", list(test_properties.corpus.TEXTS))
def test_laplacian_spectrum_matches_sympy_factorization(corpus_alg, key):
    # sympy computes det(mu I - L) itself and factors it over Q(eps): by
    # Gauss's lemma that is its numerator factored over Q in (mu, eps),
    # factors free of mu being units.  The linear factors and their
    # multiplicities are the rational eigenvalues; the rest is the residual.
    sympy = pytest.importorskip("sympy")
    eps, mu = sympy.symbols("eps mu")
    L = corpus_alg(key).rough_laplacian
    n = len(L)
    M = sympy.Matrix([[_sympy_ratfunc(sympy, eps, x) for x in row] for row in L])
    cp = sympy.cancel((mu * sympy.eye(n) - M).det(method="berkowitz"))
    dec = eigen_analyze(L)
    engine_cp = sum((_sympy_ratfunc(sympy, eps, c) * mu**k
                     for k, c in enumerate(dec.charpoly)), start=sympy.Integer(0))
    assert sympy.cancel(cp - engine_cp) == 0
    numerator, _ = sympy.fraction(cp)
    roots, rest = [], 0
    for factor, mult in sympy.factor_list(numerator, mu, eps)[1]:
        degree = sympy.degree(factor, mu)
        if degree == 1:
            a, b = sympy.Poly(factor, mu).all_coeffs()
            roots.append((sympy.cancel(-b / a), mult))
        else:
            rest += degree * mult
    assert len(roots) == len(dec.pairs)
    for pair in dec.pairs:
        value = _sympy_ratfunc(sympy, eps, pair.value)
        (mult,) = [m for r, m in roots if sympy.cancel(r - value) == 0]
        assert mult == pair.multiplicity, str(pair.value)
    assert rest == len(dec.residual) - 1


def test_newton_lift_stops_where_a_coefficient_leaves_z():
    # s = nu^2 - (eps^2 + 3*eps + 4): at eps = 0 the roots are +-2, and the
    # next coefficient of either lift is +-3/4, so s has no root in Z[eps]
    from liegeom.solvers import _newton_lift

    s = [(-4, -3, -1), (), (1,)]
    assert _newton_lift(s, 2, 4, 1) is None
    assert _newton_lift(s, -2, -4, 1) is None
    # s = (nu - eps^2 - 1) * (nu + 3*eps), lifted from eps = 0
    s = [(0, -3, 0, -3), (-1, 3, -1), (1,)]
    assert _newton_lift(s, 1, 1, 2) == (1, 0, 1)
    assert _newton_lift(s, 0, -1, 2) == (0, -3)


def _ratfunc_calls(monkeypatch, run):
    names = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
             "__truediv__", "__rtruediv__")
    calls = [0]

    def counting(method):
        def counted(self, other):
            calls[0] += 1
            return method(self, other)
        return counted

    with monkeypatch.context() as m:
        for name in names:
            m.setattr(RatFunc, name, counting(getattr(RatFunc, name)))
        run()
    return calls[0]


@pytest.mark.parametrize(("key", "before"), [("u2", 305), ("berger", 190)])
def test_spectral_step_ratfunc_work(monkeypatch, key, before):
    # roots, multiplicities and the residual come from integer tuples; the
    # route over Q(eps) made 305 (u2) and 190 (berger) RatFunc operations
    L = loads(test_properties.corpus.TEXTS[key]).rough_laplacian
    assert _ratfunc_calls(monkeypatch, lambda: eigen_analyze(L)) <= before // 2
