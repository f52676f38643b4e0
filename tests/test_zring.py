"""The Z[eps] layer, `liegeom.zring`: its kernels against `Poly` over Q and
the `RatFunc` matrix oracles of `poly_reference` (hypothesis, derandomized,
so every run draws the same cases), against sympy where it is installed,
and the gcds that the scalar field asks of it."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegeom import report, scalars, zring
from liegeom.algebra import SingularMetric
from liegeom.catalog import dumps, loads
from liegeom.scalars import ONE, ZERO, _cancel, clear, quotient
from liegeom.zring import (
    zadd,
    zadd_scaled,
    zcommon,
    zdet,
    zdiv_exact,
    zdot,
    zgcd,
    zinverse,
    zlcm,
    zmul,
    zneg,
    znonzero,
    zpdivmod,
    zpow,
    zprem,
    zprimitive,
    zprs,
    zroots,
    zscatter,
    zshift,
    zsquarefree,
    zsubs,
    ztensor,
)
from poly_reference import (
    Poly,
    mat_det,
    mat_inv,
    mat_mul,
    poly_div_exact,
    poly_gcd,
    poly_rational_roots,
)
from test_solvers import DENSE, _sympy_ratfunc
from test_tensor_reference import corpus_case
import test_properties

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def trim(coeffs) -> tuple:
    """The tuple of the coefficients with the trailing zeros cut."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def canonical(a) -> bool:
    """a keeps the contract: a tuple of ints with no trailing zero."""
    return type(a) is tuple and all(type(c) is int for c in a) and (not a or a[-1] != 0)


zpolys = st.lists(st.integers(-6, 6), max_size=6).map(trim)
nonzero_zpolys = zpolys.filter(bool)


# ---------------------------------------------------------------------------
# the ring against `Poly` over Q


@PROPERTY
@given(zpolys, zpolys)
def test_add_and_mul_match_poly(a, b):
    for got, want in ((zadd(a, b), Poly(a) + Poly(b)), (zmul(a, b), Poly(a) * Poly(b)),
                      (zneg(a), -Poly(a))):
        assert canonical(got) and got == want.coeffs


@PROPERTY
@given(zpolys, nonzero_zpolys)
def test_div_exact_undoes_mul(a, b):
    assert zdiv_exact(zmul(a, b), b) == a
    assert Poly(a) == poly_div_exact(Poly(zmul(a, b)), Poly(b))


@PROPERTY
@given(zpolys, nonzero_zpolys.filter(lambda v: len(v) > 1))
def test_pseudo_remainder_identity(u, v):
    # lc(v)^(deg u - deg v + 1) u = q v + r with deg r < deg v, q in Z[eps]
    r = zprem(u, v)
    assert canonical(r) and len(r) < len(v)
    if len(u) >= len(v):
        scaled = Poly(u) * v[-1] ** (len(u) - len(v) + 1) - Poly(r)
        quo, rem = scaled.pdivmod(Poly(v))
        assert rem.is_zero and all(c.denominator == 1 for c in quo.coeffs)
    else:
        assert r == u


@PROPERTY
@given(nonzero_zpolys, nonzero_zpolys, nonzero_zpolys)
def test_gcd_divides_both_and_has_the_degree_over_q(common, x, y):
    a, b = zmul(common, x), zmul(common, y)
    g = zgcd(a, b)
    assert canonical(g) and g[-1] > 0
    for p in (a, b):
        assert zmul(zdiv_exact(p, g), g) == p
    assert len(g) - 1 == poly_gcd(Poly(a), Poly(b)).degree


def brute_roots(a: tuple) -> list[tuple[Fraction, int]]:
    """The rational roots of a nonzero a with multiplicities, ascending, by
    the rational root theorem: a root p/q in lowest terms has p dividing the
    lowest nonzero coefficient and q dividing lc(a).  The divisors are found
    by trying every integer up to the coefficient, each candidate is tested
    with `Poly` over Q, and divided out while it is a root."""
    def divisors(n):
        return [k for k in range(1, abs(n) + 1) if n % k == 0]
    low = next(c for c in a if c)
    candidates = {Fraction(0)} | {Fraction(s * p, q) for p in divisors(low)
                                  for q in divisors(a[-1]) for s in (1, -1)}
    p, out = Poly(a), []
    for r in sorted(candidates):
        mult = 0
        while p.degree > 0 and p.eval(r) == 0:
            p, mult = poly_div_exact(p, Poly((-r, 1))), mult + 1
        if mult:
            out.append((r, mult))
    return out


linear_factors = st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), max_size=3)


@PROPERTY
@given(linear_factors, nonzero_zpolys.filter(lambda a: len(a) <= 3))
def test_roots_match_the_rational_root_theorem(factors, rest):
    a = rest
    for p, q in factors:
        a = zmul(a, (-p, q))
    assert zroots(a) == brute_roots(a)


def test_rational_roots_with_multiplicity():
    x = Poly.x()
    assert poly_rational_roots(2 * x ** 2 - 4 * x) == [
        (Fraction(0), 1),
        (Fraction(2), 1),
    ]
    p = (x - 1) ** 2 * (2 * x + 3)
    assert poly_rational_roots(p) == [(Fraction(-3, 2), 1), (Fraction(1), 2)]
    assert poly_rational_roots(x ** 2 + 1) == []
    with pytest.raises(ValueError, match="the zero polynomial has every rational root"):
        zroots(())


# ---------------------------------------------------------------------------
# gcds: the special cases, the PRS and the shortcuts of the scalar field

KNUTH_PRS_PAIR = ((-5, 2, 8, -3, -3, 0, 1, 0, 1), (21, -9, -4, 0, 5, 0, 3))


def test_integer_gcd_shortcuts_and_prs():
    # a constant operand: the integer gcd of all the coefficients
    assert zgcd((6,), (4, 8)) == (2,)
    assert zgcd((-3, 6), (-9,)) == (3,)
    # c*eps^k operands: eps^min(valuations) times the gcd of the contents
    assert zgcd((0, 0, 6), (0, 3, 9)) == (0, 3)
    assert zgcd((0, 0, -4), (0, 0, 0, 2, 2)) == (0, 0, 2)
    assert zgcd((0, 5), (1, 1)) == (1,)
    # general case, content included and leading coefficient made positive
    a = zmul(zmul((6,), (1, 1)), zmul((1, 1), (-2, 1)))  # 6(1+e)^2(e-2)
    b = zmul((-4,), zmul((1, 1), (1, 0, 1)))             # -4(1+e)(1+e^2)
    assert zgcd(a, b) == (2, 2)
    assert zgcd((0, 0) + a, (0,) + b) == (0, 2, 2)
    assert zgcd((1, 0, 1), (-1, 1)) == (1,)
    # Knuth's example (TAOCP 4.6.1): every remainder drops two degrees, and
    # each is divided by exactly g*h^delta, so a wrong h changes the sequence
    u, v = KNUTH_PRS_PAIR
    assert zprs(u, v) == [
        u, v, (-9, 0, 3, 0, -15), (-245, 125, 65), (12300, -9326), (260708,)
    ]
    assert zgcd(u, v) == (1,)
    assert zgcd(zmul(u, (2, -1)), zmul(v, (-4, 2))) == (-2, 1)
    # a primitive part of degree 1 is irreducible: the gcd is that part when
    # the other vanishes at its root and 1 when not, with no PRS
    e_minus_1, three_halves = (-1, 1), (-3, 2)          # roots 1 and 3/2
    quad = zmul(e_minus_1, (1, 0, 1))                   # (e-1)(e^2+1)
    assert zgcd(quad, (-3, 3)) == zgcd((-3, 3), quad) == e_minus_1
    assert zgcd(quad, (1, 1)) == (1,) and zgcd((2, 3), (1, 1, 1)) == (1,)
    assert zgcd(zmul(three_halves, (5, 1)), (6, -4)) == three_halves
    assert zgcd(zmul(three_halves, (5, 1)), (3, 2)) == (1,)
    # contents, eps-valuations and a negative leading coefficient
    a = (0, 0) + zmul((6,), zmul(three_halves, (1, 1)))    # 6e^2(2e-3)(e+1)
    b = (0,) + zmul((-4,), three_halves)                    # -4e(2e-3)
    assert zgcd(a, b) == zgcd(b, a) == (0, -6, 4)
    assert zgcd((0, 0, 1, 1), (0, -2, -2)) == (0, 1, 1)    # linear once eps is out
    # two linear parts, and a linear part against a cubic with other roots
    assert zgcd((6, -4), (-9, 6)) == (-3, 2) and zgcd((1, 2), (1, 3)) == (1,)
    assert zgcd(zmul((-4, 0, 1), (1, 1)), (-3, 2)) == (1,)


def test_monomial_shortcuts_agree_with_the_general_gcd(monkeypatch):
    # `scalars._cancel`, `zlcm` and `zcommon` settle an operand c*eps^k by
    # the integer gcd of the coefficients and the lower power of eps, with
    # no `zgcd`; the results are those of the general route
    calls = []
    for module in (scalars, zring):
        monkeypatch.setattr(module, "zgcd", lambda a, b: calls.append((a, b)) or zgcd(a, b))
    assert _cancel((0, 0, 6, -4), (0, 2)) == ((0, 3, -2), (1,))
    assert _cancel((0, 6), (3, 0, 9)) == ((0, 2), (1, 0, 3))
    assert _cancel((1, 1), (0, 0, 4)) == ((1, 1), (0, 0, 4))
    assert zlcm((1,), (5,)) == (5,) and zlcm((2,), (0, 3)) == (0, 6)
    assert zlcm((0, 4), (0, 0, 6)) == (0, 0, 12)
    assert zcommon((0, 4), [(), (0, 2, 6), (0, 0, 8)]) == (0, 2)
    assert zcommon((0, 0, 4), [(0, 2), (1, 1)]) == (1,)
    assert calls == []
    # a denominator that is no monomial takes `zgcd` until the gcd so far is one
    assert zcommon((-1, 0, 1), [(-2, 0, 2), (2, 2)]) == (1, 1)
    assert zcommon((2, 2), [(0, 4, 4), (0, 0, 6, 6)]) == (2, 2)
    # each against the general route, on products of small factors
    factors = [(1,), (3,), (0, 1), (0, 0, 2), (1, 1), (-2, 1), (1, 0, 1), (0, 6)]
    for a in factors:
        for b in factors:
            for c in factors:
                n, d = zmul(a, b), zmul(b, c) if zmul(b, c)[-1] > 0 else zneg(zmul(b, c))
                g = zgcd(n, d)
                assert _cancel(n, d) == (zdiv_exact(n, g), zdiv_exact(d, g))
                assert zcommon(d, [n]) == zgcd(d, n)


# `zgcd` calls of one basis-mixed benchmark operation (parse the mixed
# text, build the basis-invariant sections) per corpus algebra, with the
# shortcuts for a denominator 1, integer denominators, c*eps^k operands and
# linear primitive parts, the tensor layer on integer numerators, and
# g^{-1} by the adjugate on the cleared metric (berger made 67, heisenberg
# 18 and oscillator 19 with g^{-1} by elimination over `RatFunc`s);
# without the shortcuts an operation makes 6 to 107 times as many as with
# the first three (berger 1742, abelian 107, r4 1755), and with them but
# on `RatFunc` tensors berger made 201, sl2r 271 and heisenberg 222.  The
# slack absorbs a change in the order of a set of strings, which varies
# between processes.
ZGCD_CALLS = {"berger": 41, "abelian": 1, "sl2r": 31, "e2": 4, "heisenberg": 5,
              "u2": 32, "oscillator": 1, "heisenberg-x-r": 7, "r4": 17}
ZGCD_SLACK = 5


def test_basis_mixed_operations_bound_their_integer_gcds(monkeypatch, bench_corpus, corpus_alg):
    rng = random.Random("1-mixing")  # the benchmark's mixing under seed 1
    texts = {}
    for key in bench_corpus.WORKLOADS["basis-mixed"]["algebras"]:
        alg = corpus_alg(key)
        P = bench_corpus.mixing_matrix(rng, alg.dim)
        texts[key] = dumps(alg.transform_basis(P, name=f"{alg.name}/mixed"))
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return zgcd(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("liegeom") and getattr(module, "zgcd", None) is zgcd:
            monkeypatch.setattr(module, "zgcd", counting)
    counts = {}
    for key, text in texts.items():
        calls[0] = 0
        alg = loads(text)
        for section in bench_corpus.INVARIANT_SECTIONS:
            getattr(report, f"{section}_section")(alg)
        counts[key] = calls[0]
    assert counts.keys() == ZGCD_CALLS.keys()
    over = {k: n for k, n in counts.items() if n > ZGCD_CALLS[k] + ZGCD_SLACK}
    assert not over, f"zgcd calls per operation {counts}, pinned {ZGCD_CALLS}"


def _sympy_zpoly(sympy, e, a):
    return sympy.Poly(list(reversed(a)), e, domain="ZZ")


def test_prs_agrees_with_sympy_subresultants():
    sympy = pytest.importorskip("sympy")
    e = sympy.Symbol("e")
    rng = random.Random(11)

    def rand_poly(deg):
        return tuple(rng.randint(-6, 6) for _ in range(deg)) + (rng.choice((-3, -1, 1, 2)),)

    pairs = [KNUTH_PRS_PAIR]
    for _ in range(30):
        common = rand_poly(rng.randint(0, 2))
        a = zmul(common, rand_poly(rng.randint(2, 6)))
        b = zmul(common, rand_poly(rng.randint(1, 4)))
        pairs.append((a, b) if len(a) >= len(b) else (b, a))
    for u, v in pairs:
        expected = sympy.subresultants(
            _sympy_zpoly(sympy, e, u).as_expr(), _sympy_zpoly(sympy, e, v).as_expr(), e
        )
        got = zprs(u, v)
        assert len(got) == len(expected)
        for r, s in zip(got, expected):
            s = tuple(int(c) for c in reversed(sympy.Poly(s, e).all_coeffs()))
            assert r in (s, tuple(-c for c in s))


def test_integer_gcd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    e = sympy.Symbol("e")
    rng = random.Random(7)

    def rand_poly(deg):
        return tuple(rng.randint(-6, 6) for _ in range(deg)) + (rng.choice((-3, -1, 1, 2)),)

    def rand_linear():
        # a nonzero root p/q, often with q > 1, and either sign of lc
        return (rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.choice((-3, -2, -1, 1, 2, 3)))

    def scaled(a):
        # a content and a power of eps
        return (0,) * rng.randint(0, 2) + zmul((rng.choice((1, -1, 2, -3, 6)),), a)

    pairs = []
    for _ in range(40):
        common = rand_poly(rng.randint(0, 3))
        pairs.append((zmul(common, rand_poly(rng.randint(0, 4))),
                      zmul(common, rand_poly(rng.randint(0, 4)))))
    # one primitive part linear: sharing its root with the other part or not,
    # against a linear, quadratic or higher part
    for _ in range(40):
        linear, other = rand_linear(), rand_poly(rng.randint(1, 4))
        if rng.random() < 0.5:
            other = zmul(other, linear)
        pairs.append((scaled(linear), scaled(other)) if rng.random() < 0.5
                     else (scaled(other), scaled(linear)))
    for a, b in pairs:
        expected = sympy.Poly(sympy.gcd(
            _sympy_zpoly(sympy, e, a), _sympy_zpoly(sympy, e, b)
        ), e)
        if expected.LC() < 0:
            expected = -expected
        assert zgcd(a, b) == tuple(int(c) for c in reversed(expected.all_coeffs()))


# ---------------------------------------------------------------------------
# polynomials in nu over Z[eps]


def test_polynomials_in_nu():
    # s = (nu - eps)^2 (nu + 1) = nu^3 + (1 - 2 eps) nu^2 + (eps^2 - 2 eps) nu + eps^2
    s = [(0, 0, 1), (0, -2, 1), (1, -2), (1,)]
    assert zsubs(s, (0, 1)) == () and zsubs(s, (-1,)) == ()
    assert zsubs(s, (2,)) == (12, -12, 3)            # (2 - eps)^2 * 3
    assert zsubs(s, (2,), 2) == (12, -12)            # each partial sum cut to two terms
    assert zshift((1, -2, 1), 1) == (0, 0, 1)        # (eps - 1)^2 at eps + 1
    quo, rem = zpdivmod(s, [(0, -1), (1,)])          # by nu - eps, monic
    assert rem == [] and quo == [(0, -1), (1, -1), (1,)]
    assert zpdivmod([(1,), (), (1,)], [(1,), (2,)])[1] == [(5,)]   # 4(nu^2 + 1) mod 2 nu + 1
    assert zprimitive([(0, 2), (0, 0, -4)]) == [(-1,), (0, 2)]   # lc(lc) > 0
    assert zprimitive([(1,), (2,)]) == [(1,), (2,)]
    assert zsquarefree(s) == [(0, -1), (1, -1), (1,)]           # (nu - eps)(nu + 1)
    assert zsquarefree([(0, -1), (1,)]) == [(0, -1), (1,)]


# ---------------------------------------------------------------------------
# integer tensors and matrices


def test_tensor_helpers():
    T = {(0, 1): [[(0, 2), ()], [(0, 0, 4), (0, 6)]]}
    assert ztensor(T, (0, 0, 2)) == ({(0, 1): [[(1,), ()], [(0, 2), (3,)]]}, (0, 1))
    assert ztensor([(1,), (2,)], (3,)) == ([(1,), (2,)], (3,))
    assert ztensor([], (3,)) == ([], (3,))
    assert znonzero([(), (1,), (), (0, 2)]) == [(1, (1,)), (3, (0, 2))]
    # zscatter and zadd_scaled against the dense product and sum
    a = [[(1,), (0, 1)], [(), (2,)]]
    b = [[(1, 1), ()], [(3,), (0, -1)]]
    out = [[()] * 2 for _ in range(2)]
    zscatter(out, [znonzero(r) for r in a], [znonzero(r) for r in b], (2,))
    assert out == [[zmul((2,), zadd(zmul(a[i][0], b[0][j]), zmul(a[i][1], b[1][j])))
                    for j in range(2)] for i in range(2)]
    zadd_scaled(out, (-1,), [znonzero(r) for r in out])
    assert out == [[()] * 2 for _ in range(2)]
    assert zdot([(1,), ()], [(), (2,)]) == () and zdot([(0, 3), (1,)], [(2,), (5,)]) == (5, 6)


def engine_det(A):
    """det A of a `RatFunc` matrix on the engine's route: `zdet` of A
    cleared to N / d, over d^n."""
    N, d = clear(A)
    return quotient(zdet(N), zpow(d, len(A)))


def engine_inverse(A):
    """A^{-1} of a nonsingular `RatFunc` matrix on the engine's route
    (`zinverse`)."""
    N, d = clear(A)
    Q, e = zinverse(N, d, zdet(N))
    assert e[-1] > 0
    return [[quotient(x, e) for x in row] for row in Q]


matrices = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.lists(st.integers(-3, 3), max_size=3).map(trim),
                      min_size=n, max_size=n), min_size=n, max_size=n),
    nonzero_zpolys.filter(lambda d: len(d) <= 2)))


@PROPERTY
@given(matrices)
def test_det_and_inverse_match_the_ratfunc_oracles(case):
    N, d = case
    d = d if d[-1] > 0 else zneg(d)
    A = [[quotient(x, d) for x in row] for row in N]
    assert engine_det(A) == quotient(zdet(N), zpow(d, len(N))) == mat_det(A)
    if zdet(N):
        assert engine_inverse(A) == mat_inv(A)
    else:
        with pytest.raises(SingularMetric):
            mat_inv(A)


INVERSE_SEEDS = (None, 1, 2, 3, 23)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def inverse_cases(corpus_alg):
    """The 45 corpus metrics, unmixed and under mixing seeds 1, 2, 3 and 23,
    then the 20 dense matrices of `test_solvers`."""
    metrics = [[list(row) for row in corpus_case(corpus_alg, key, seed).metric]
               for key in test_properties.corpus.TEXTS for seed in INVERSE_SEEDS]
    return metrics + DENSE


def test_inverse_is_the_inverse(corpus_alg):
    cases = inverse_cases(corpus_alg)
    assert len(cases) == 65
    for A in cases:
        assert mat_mul(A, engine_inverse(A)) == identity(len(A))


def test_inverse_matches_sympy(corpus_alg):
    sympy = pytest.importorskip("sympy")
    eps = sympy.Symbol("eps")
    for A in inverse_cases(corpus_alg):
        expect = sympy.Matrix([[_sympy_ratfunc(sympy, eps, x) for x in row] for row in A]).inv()
        ours = engine_inverse(A)
        assert all(sympy.cancel(_sympy_ratfunc(sympy, eps, x) - expect[i, j]) == 0
                   for i, row in enumerate(ours) for j, x in enumerate(row))
