import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_properties
import test_tensor_reference
from liegeom import report, scalars
from liegeom.algebra import vector_str
from liegeom.catalog import dumps, loads
from liegeom.geometry import (
    _geodesic_forms,
    _walker_forms,
    energy_report,
    ledger_check,
    ricci_soliton_solve,
)
from liegeom.scalars import (
    EPS,
    ONE,
    ZERO,
    DivisionByZeroFunction,
    PoleAtEvaluationPoint,
    RatFunc,
    ScalarSyntaxError,
    _cancel,
    _clear,
    _zcommon,
    _zdiv_exact,
    _zdot,
    _zgcd,
    _zlcm,
    _zmul,
    _zneg,
    _zprs,
    component_names,
    mu_poly_str,
    parse_scalar,
    poly_str,
    ratfunc,
)
from poly_reference import (
    MultiPoly,
    Poly,
    from_terms,
    check,
    check_invariants,
    denominator,
    numerator,
    poly_div_exact,
    poly_gcd,
    poly_rational_roots,
    ratfunc_of,
)


# ---------------------------------------------------------------------------
# Poly, the reference polynomials over Q and Q(eps) of `poly_reference`


def test_poly_trims_trailing_zeros():
    p = Poly([Fraction(1), Fraction(0), Fraction(0)])
    assert p.coeffs == (Fraction(1),)
    assert Poly([]).degree == -1
    assert Poly([Fraction(0)]).degree == -1


def test_poly_arithmetic():
    x = Poly.x()
    one = Poly.const(1)
    assert (one + x) * (one - x) == one - x * x
    assert (one + x) ** 3 == one + 3 * x + 3 * x * x + x ** 3
    q, r = ((x ** 3 - x).pdivmod(x - one))
    assert q * (x - one) + r == x ** 3 - x
    assert r.is_zero


def test_poly_eval_is_a_homomorphism():
    x = Poly.x()
    p = 2 * x ** 2 - 4 * x + 1
    q = x ** 3 + 3
    for v in (Fraction(0), Fraction(1), Fraction(-5, 3)):
        assert (p + q).eval(v) == p.eval(v) + q.eval(v)
        assert (p * q).eval(v) == p.eval(v) * q.eval(v)


def test_poly_str_ascending():
    x = Poly.x()
    assert str(4 - 2 * x) == "4-2*eps"
    assert str(2 * x ** 2) == "2*eps^2"
    assert str(x - 1) == "-1+eps"
    assert str(Poly([])) == "0"


def test_poly_gcd_is_monic():
    x = Poly.x()
    g = poly_gcd(2 * (x - 1) * (x + 2), 4 * (x - 1))
    assert g == x - 1


def test_poly_over_q_eps_not_divisible_raises_value_error():
    # the message prints both polynomials over Q(eps), as polynomials in mu
    with pytest.raises(ValueError, match=r"mu\^2\+eps\*mu\+1 is not divisible by mu\+eps"):
        poly_div_exact(Poly((ONE, EPS, ONE)), Poly((EPS, ONE)))


KNUTH_PRS_PAIR = ((-5, 2, 8, -3, -3, 0, 1, 0, 1), (21, -9, -4, 0, 5, 0, 3))


def test_integer_gcd_shortcuts_and_prs():
    # a constant operand: the integer gcd of all the coefficients
    assert _zgcd((6,), (4, 8)) == (2,)
    assert _zgcd((-3, 6), (-9,)) == (3,)
    # c*eps^k operands: eps^min(valuations) times the gcd of the contents
    assert _zgcd((0, 0, 6), (0, 3, 9)) == (0, 3)
    assert _zgcd((0, 0, -4), (0, 0, 0, 2, 2)) == (0, 0, 2)
    assert _zgcd((0, 5), (1, 1)) == (1,)
    # general case, content included and leading coefficient made positive
    a = _zmul(_zmul((6,), (1, 1)), _zmul((1, 1), (-2, 1)))  # 6(1+e)^2(e-2)
    b = _zmul((-4,), _zmul((1, 1), (1, 0, 1)))              # -4(1+e)(1+e^2)
    assert _zgcd(a, b) == (2, 2)
    assert _zgcd((0, 0) + a, (0,) + b) == (0, 2, 2)
    assert _zgcd((1, 0, 1), (-1, 1)) == (1,)
    # Knuth's example (TAOCP 4.6.1): every remainder drops two degrees, and
    # each is divided by exactly g*h^delta, so a wrong h changes the sequence
    u, v = KNUTH_PRS_PAIR
    assert _zprs(u, v) == [
        u, v, (-9, 0, 3, 0, -15), (-245, 125, 65), (12300, -9326), (260708,)
    ]
    assert _zgcd(u, v) == (1,)
    assert _zgcd(_zmul(u, (2, -1)), _zmul(v, (-4, 2))) == (-2, 1)
    # a primitive part of degree 1 is irreducible: the gcd is that part when
    # the other vanishes at its root and 1 when not, with no PRS
    e_minus_1, three_halves = (-1, 1), (-3, 2)          # roots 1 and 3/2
    quad = _zmul(e_minus_1, (1, 0, 1))                  # (e-1)(e^2+1)
    assert _zgcd(quad, (-3, 3)) == _zgcd((-3, 3), quad) == e_minus_1
    assert _zgcd(quad, (1, 1)) == (1,) and _zgcd((2, 3), (1, 1, 1)) == (1,)
    assert _zgcd(_zmul(three_halves, (5, 1)), (6, -4)) == three_halves
    assert _zgcd(_zmul(three_halves, (5, 1)), (3, 2)) == (1,)
    # contents, eps-valuations and a negative leading coefficient
    a = (0, 0) + _zmul((6,), _zmul(three_halves, (1, 1)))   # 6e^2(2e-3)(e+1)
    b = (0,) + _zmul((-4,), three_halves)                   # -4e(2e-3)
    assert _zgcd(a, b) == _zgcd(b, a) == (0, -6, 4)
    assert _zgcd((0, 0, 1, 1), (0, -2, -2)) == (0, 1, 1)   # linear once eps is out
    # two linear parts, and a linear part against a cubic with other roots
    assert _zgcd((6, -4), (-9, 6)) == (-3, 2) and _zgcd((1, 2), (1, 3)) == (1,)
    assert _zgcd(_zmul((-4, 0, 1), (1, 1)), (-3, 2)) == (1,)


def test_monomial_shortcuts_agree_with_the_general_gcd(monkeypatch):
    # `_cancel`, `_zlcm` and `_zcommon` settle an operand c*eps^k by the
    # integer gcd of the coefficients and the lower power of eps, with no
    # `_zgcd`; the results are those of the general route
    calls = []
    monkeypatch.setattr(scalars, "_zgcd", lambda a, b: calls.append((a, b)) or _zgcd(a, b))
    assert _cancel((0, 0, 6, -4), (0, 2)) == ((0, 3, -2), (1,))
    assert _cancel((0, 6), (3, 0, 9)) == ((0, 2), (1, 0, 3))
    assert _cancel((1, 1), (0, 0, 4)) == ((1, 1), (0, 0, 4))
    assert _zlcm((1,), (5,)) == (5,) and _zlcm((2,), (0, 3)) == (0, 6)
    assert _zlcm((0, 4), (0, 0, 6)) == (0, 0, 12)
    assert _zcommon((0, 4), [(), (0, 2, 6), (0, 0, 8)]) == (0, 2)
    assert _zcommon((0, 0, 4), [(0, 2), (1, 1)]) == (1,)
    assert calls == []
    # a denominator that is no monomial takes `_zgcd` until the gcd so far is one
    assert _zcommon((-1, 0, 1), [(-2, 0, 2), (2, 2)]) == (1, 1)
    assert _zcommon((2, 2), [(0, 4, 4), (0, 0, 6, 6)]) == (2, 2)
    # each against the general route, on products of small factors
    factors = [(1,), (3,), (0, 1), (0, 0, 2), (1, 1), (-2, 1), (1, 0, 1), (0, 6)]
    for a in factors:
        for b in factors:
            for c in factors:
                n, d = _zmul(a, b), _zmul(b, c) if _zmul(b, c)[-1] > 0 else _zneg(_zmul(b, c))
                g = _zgcd(n, d)
                assert _cancel(n, d) == (_zdiv_exact(n, g), _zdiv_exact(d, g))
                assert _zcommon(d, [n]) == _zgcd(d, n)


def test_clear_writes_rows_over_the_lcm_of_their_denominators():
    half, third = RatFunc(1, 2), parse_scalar("1/(3*eps)")
    N, D = _clear([[half, ZERO], [third, EPS]])
    assert D == (0, 6)
    assert N == [[(0, 3), ()], [(2,), (0, 0, 6)]]
    assert _zdot(N[0], N[1]) == (0, 6) and _zdot([(1,), ()], [(), (2,)]) == ()
    assert _clear([]) == ([], (1,))


# `_zgcd` calls of one basis-mixed benchmark operation (parse the mixed
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
    calls, zgcd = [0], scalars._zgcd

    def counting(a, b):
        calls[0] += 1
        return zgcd(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("liegeom") and getattr(module, "_zgcd", None) is zgcd:
            monkeypatch.setattr(module, "_zgcd", counting)
    counts = {}
    for key, text in texts.items():
        calls[0] = 0
        alg = loads(text)
        for section in bench_corpus.INVARIANT_SECTIONS:
            getattr(report, f"{section}_section")(alg)
        counts[key] = calls[0]
    assert counts.keys() == ZGCD_CALLS.keys()
    over = {k: n for k, n in counts.items() if n > ZGCD_CALLS[k] + ZGCD_SLACK}
    assert not over, f"_zgcd calls per operation {counts}, pinned {ZGCD_CALLS}"


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
        a = _zmul(common, rand_poly(rng.randint(2, 6)))
        b = _zmul(common, rand_poly(rng.randint(1, 4)))
        pairs.append((a, b) if len(a) >= len(b) else (b, a))
    for u, v in pairs:
        expected = sympy.subresultants(
            _sympy_zpoly(sympy, e, u).as_expr(), _sympy_zpoly(sympy, e, v).as_expr(), e
        )
        got = _zprs(u, v)
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
        return (0,) * rng.randint(0, 2) + _zmul((rng.choice((1, -1, 2, -3, 6)),), a)

    pairs = []
    for _ in range(40):
        common = rand_poly(rng.randint(0, 3))
        pairs.append((_zmul(common, rand_poly(rng.randint(0, 4))),
                      _zmul(common, rand_poly(rng.randint(0, 4)))))
    # one primitive part linear: sharing its root with the other part or not,
    # against a linear, quadratic or higher part
    for _ in range(40):
        linear, other = rand_linear(), rand_poly(rng.randint(1, 4))
        if rng.random() < 0.5:
            other = _zmul(other, linear)
        pairs.append((scaled(linear), scaled(other)) if rng.random() < 0.5
                     else (scaled(other), scaled(linear)))
    for a, b in pairs:
        expected = sympy.Poly(sympy.gcd(
            _sympy_zpoly(sympy, e, a), _sympy_zpoly(sympy, e, b)
        ), e)
        if expected.LC() < 0:
            expected = -expected
        assert _zgcd(a, b) == tuple(int(c) for c in reversed(expected.all_coeffs()))


def test_rational_roots_with_multiplicity():
    x = Poly.x()
    assert poly_rational_roots(2 * x ** 2 - 4 * x) == [
        (Fraction(0), 1),
        (Fraction(2), 1),
    ]
    p = (x - 1) ** 2 * (2 * x + 3)
    assert poly_rational_roots(p) == [(Fraction(-3, 2), 1), (Fraction(1), 2)]
    assert poly_rational_roots(x ** 2 + 1) == []


# ---------------------------------------------------------------------------
# RatFunc


def test_ratfunc_normalizes():
    x = Poly.x()
    f = ratfunc_of(x ** 2 - 1, x - 1)    # common factor cancels
    assert f == ratfunc_of(x + 1, Poly.const(1))
    g = ratfunc_of(x, 2 * x - 2)         # denominator comes out monic
    assert denominator(g).leading == 1
    assert g * ratfunc_of(2 * x - 2) == ratfunc_of(x, Poly.const(1))


def test_ratfunc_division_by_zero():
    with pytest.raises(DivisionByZeroFunction):
        ONE / ZERO
    with pytest.raises(DivisionByZeroFunction):
        ratfunc_of(Poly.x(), Poly([]))
    with pytest.raises(DivisionByZeroFunction):
        RatFunc(1, 0)


def test_ratfunc_constructor_takes_rationals_only():
    assert RatFunc(3, Fraction(4, 3)) == ratfunc(Fraction(9, 4))
    check(RatFunc(Fraction(-6, 4), -3))
    with pytest.raises(TypeError):
        RatFunc(Poly.x())
    with pytest.raises(TypeError):
        ratfunc(Poly.x())


def test_constant_ratfunc_hashes_as_its_fraction():
    # equal values hash alike: a constant RatFunc equals its Fraction
    assert len({ratfunc(3), 3, Fraction(3)}) == 1
    assert hash(ratfunc("1/2")) == hash(Fraction(1, 2))
    assert len({ZERO, 0}) == 1 and hash(-ONE) == hash(-1)
    assert len({EPS, parse_scalar("eps^2/eps"), ONE / EPS}) == 2


def test_ratfunc_eval_and_poles():
    f = parse_scalar("(-4+4*eps-2*eps^2)/eps")
    assert f.eval(Fraction(2)) == Fraction(-2)
    assert f.eval(Fraction(1)) == Fraction(-2)
    with pytest.raises(PoleAtEvaluationPoint):
        f.eval(Fraction(0))


def test_ratfunc_eval_float_is_the_rounded_exact_value():
    # one correctly rounded division, and a zero over a negative
    # denominator value is +0.0, as float(Fraction) gives
    cases = [("(-4+4*eps-2*eps^2)/eps", Fraction(1, 3)), ("1/(3*eps^5-7)", Fraction(-22, 7)),
             ("(eps+1)/(eps-2)", Fraction(-1)), ("eps^9/(eps+1)", Fraction(10**6, 3))]
    for text, x in cases:
        f = parse_scalar(text)
        assert f.eval_float(x).hex() == float(f.eval(x)).hex(), text
    assert parse_scalar("(eps+1)/(eps-2)").eval_float(Fraction(-1)).hex() == "0x0.0p+0"
    with pytest.raises(PoleAtEvaluationPoint):
        parse_scalar("(-4+4*eps-2*eps^2)/eps").eval_float(Fraction(0))


def test_ratfunc_field_axioms_spot():
    f = parse_scalar("(2-2*eps+eps^2)/eps")
    g = parse_scalar("4-2*eps")
    h = parse_scalar("1/eps")
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f * (ONE / f) == ONE
    assert f - f == ZERO


def test_ratfunc_pow_negative():
    assert EPS ** -2 == ONE / (EPS * EPS)


def test_ratfunc_coercion():
    assert ratfunc(3) == ratfunc_of(Poly.const(3), Poly.const(1))
    assert ratfunc(Fraction(1, 2)) * 2 == ONE
    # ints and Fractions are built as integer pairs directly, canonical
    for c in (0, -7, Fraction(-3, 4)):
        check(ratfunc(c))
        assert ratfunc(c) == ratfunc_of(Poly.const(c)) == RatFunc(c)
    # a bool is stored as the int it equals
    for b in (True, False):
        for x in (ratfunc(b), EPS + b, EPS * b, RatFunc(b)):
            check(x)
        assert ratfunc(b) == RatFunc(b) == int(b) and hash(ratfunc(b)) == hash(int(b))
        assert (EPS + b, EPS * b) == (EPS + int(b), EPS * int(b))
    assert ratfunc("4-2*eps") == 4 - 2 * EPS
    assert ratfunc(EPS) is EPS


# operands of the three classes that the arithmetic takes different routes
# for: integer constants, polynomials in eps over an integer denominator,
# and quotients with a denominator that is not constant (or any of them)
OPERAND_CLASSES = {
    "constant": st.integers(-12, 12).map(RatFunc),
    "polynomial": test_properties.polys.map(ratfunc_of),
    "quotient": test_properties.ratfuncs,
}


@pytest.mark.parametrize("right", OPERAND_CLASSES)
@pytest.mark.parametrize("left", OPERAND_CLASSES)
@settings(max_examples=30)
@given(data=st.data())
def test_arithmetic_fast_paths_match_euclid_over_q(left, right, data):
    # every result against the textbook route over Q: the sum, difference,
    # product or quotient of the two fractions, reduced by Euclid's gcd;
    # a constant operand is also given as the int or Fraction it equals
    f, g = data.draw(OPERAND_CLASSES[left]), data.draw(OPERAND_CLASSES[right])
    (a, b), (c, d) = (numerator(f), denominator(f)), (numerator(g), denominator(g))
    expected = {operator.add: (a * d + c * b, b * d), operator.sub: (a * d - c * b, b * d),
                operator.mul: (a * c, b * d)}
    if not g.is_zero:
        expected[operator.truediv] = (a * d, b * c)
    plain = [x.constant_value() if x.is_constant else x for x in (f, g)]
    plain = [x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x for x in plain]
    for op, (num, den) in expected.items():
        want = test_properties.euclid_over_q(num, den)
        for x, y in ((f, g), (plain[0], g), (f, plain[1])):
            got = op(x, y)
            check_invariants(got)
            assert (numerator(got), denominator(got)) == want, (op.__name__, x, y)


def test_ratfunc_zeros_and_poles():
    f = parse_scalar("(eps^2-1)/eps^3")
    assert f.zeros() == [(Fraction(-1), 1), (Fraction(1), 1)]
    assert f.poles() == [(Fraction(0), 3)]
    g = parse_scalar("(2*eps-3)^2*(eps^2+2)/(3*eps+1)")
    assert g.zeros() == [(Fraction(3, 2), 2)]
    assert g.poles() == [(Fraction(-1, 3), 1)]
    c = ratfunc(Fraction(5, 2))
    assert c.zeros() == [] and c.poles() == []
    assert ZERO.poles() == []
    # the zero function vanishes everywhere: no list of roots is complete
    with pytest.raises(ValueError):
        ZERO.zeros()


def test_ratfunc_zeros_and_poles_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    e = sympy.Symbol("e")
    rng = random.Random(5)

    def rand_side():
        # a few linear factors q*e - p, some repeated, times a dense cofactor
        p = rng.choice((-1, 1, 2, 3)) * e ** rng.randint(0, 2)
        for _ in range(rng.randint(0, 4)):
            p *= (rng.randint(1, 4) * e - rng.randint(-5, 5)) ** rng.randint(1, 3)
        p *= sum(rng.randint(-4, 4) * e ** k for k in range(rng.randint(0, 3))) or 1
        return sympy.Poly(p, e, domain="ZZ")

    def rational_roots(p):
        roots = {}
        for factor, mult in sympy.factor_list(p.as_expr(), e)[1]:
            if sympy.degree(factor, e) == 1:
                a, b = sympy.Poly(factor, e).all_coeffs()
                r = -sympy.Rational(b, a)
                roots[Fraction(int(r.p), int(r.q))] = mult
        return sorted(roots.items())

    for _ in range(30):
        num, den = rand_side(), rand_side()
        f = ratfunc_of(
            Poly(int(c) for c in reversed(num.all_coeffs())),
            Poly(int(c) for c in reversed(den.all_coeffs())),
        )
        reduced_num, reduced_den = sympy.fraction(sympy.cancel(num.as_expr() / den.as_expr()))
        assert f.zeros() == rational_roots(sympy.Poly(reduced_num, e))
        assert f.poles() == rational_roots(sympy.Poly(reduced_den, e))


# ---------------------------------------------------------------------------
# printing and parsing


ROUND_TRIP = [
    "0", "1", "-1", "1/2", "-1/2",
    "eps", "-eps", "2*eps", "-2*eps",
    "1+eps", "-1+eps", "4-2*eps", "2*eps^2", "8-2*eps", "eps^3", "-1+eps^2",
    "1/eps", "-1/eps", "eps/(-1+eps)", "(1+eps)/(-1+eps)",
    "(-4+4*eps-2*eps^2)/eps", "(2-2*eps+eps^2)/eps",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_print_parse_round_trip(text):
    assert str(parse_scalar(text)) == text


def test_parser_accepts_any_term_order():
    assert parse_scalar("-2*eps+4") == parse_scalar("4-2*eps")
    assert parse_scalar("( eps - 2 ) ^ 2") == parse_scalar("4-4*eps+eps^2")


EXPECTED_ATOM = "expected a number, 'eps', or '('"


REJECTED = [
    ("", 0, EXPECTED_ATOM),
    ("2*", 2, EXPECTED_ATOM),
    ("(", 1, EXPECTED_ATOM),
    ("(1", 2, "expected ')'"),
    ("eps^-1", 4, "expected a nonnegative integer exponent"),
    ("eps^x", 4, "expected a nonnegative integer exponent"),
    ("foo", 0, EXPECTED_ATOM),
    ("1//2", 2, EXPECTED_ATOM),
    ("1 2", 2, "unexpected character '2'"),
    ("epsx", 0, "unknown symbol starting at 'epsx'"),
    ("2eps", 1, "unexpected character 'e'"),
]


@pytest.mark.parametrize("bad, position, message", REJECTED, ids=[r[0] for r in REJECTED])
def test_parser_rejects(bad, position, message):
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar(bad)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at offset {position})"


def test_non_decimal_digits_are_syntax_errors():
    # characters that str.isdigit() accepts and int() does not, such as '²'
    digits = [chr(c) for c in range(sys.maxunicode + 1)
              if chr(c).isdigit() and not chr(c).isdecimal()]
    assert len(digits) == 128 and "\u00b2" in digits
    for c in digits:
        for text, position in ((c, 0), ("2" + c, 1), ("eps^" + c, 4)):
            with pytest.raises(ScalarSyntaxError) as exc:
                parse_scalar(text)
            assert exc.value.position == position, text


def test_overlong_numbers_are_syntax_errors():
    # a run of digits longer than int() converts, as a number or an exponent
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        ones = "1" * 5000
        for text, position in ((ones, 0), ("2*" + ones, 2), ("eps^" + ones, 4)):
            with pytest.raises(ScalarSyntaxError) as exc:
                parse_scalar(text)
            assert exc.value.position == position, text
            assert str(exc.value) == f"number of 5000 digits is too long (at offset {position})"
        assert parse_scalar("1" * 4300) == RatFunc(int("1" * 4300))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text, position, k", [
    ("eps^1000000", 4, 1000000),      # degree 10^6
    ("(eps+1)^2000", 8, 2000),        # degree 2000
    ("((eps+1)^40)^40", 13, 40),      # degree 1600, from a small exponent
    ("(((7^99)^99)^99)", 13, 99),     # 99 times 27510 bits
])
def test_oversized_powers_are_syntax_errors(text, position, k):
    # refused at the exponent, before the power is formed
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar(text)
    assert exc.value.position == position
    assert str(exc.value) == f"power ^{k} is too large (at offset {position})"


def test_powers_within_the_bounds_are_formed():
    # degree 256 and 27522 bits are inside the bounds of 256 and 2^16 bits
    assert parse_scalar("(eps+1)^256") == (EPS + 1) ** 256
    assert parse_scalar("((eps+1)^16)^16") == (EPS + 1) ** 256
    assert parse_scalar("(7^99)^99") == RatFunc(7 ** 9801)
    assert parse_scalar("1^65536") == ONE
    for text in ("eps^257", "1^65537"):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(text)


def test_ratfunc_negative_powers_keep_the_canonical_sign():
    x = (1 - EPS) ** -3
    check_invariants(x)
    assert x == ONE / (1 - EPS) ** 3
    assert (-EPS) ** -1 == -1 / EPS
    with pytest.raises(DivisionByZeroFunction):
        ZERO ** -1


def test_ratfunc_non_constant_and_repr():
    with pytest.raises(ValueError):
        EPS.constant_value()
    assert repr(EPS) == "RatFunc('eps')"


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv, operator.pow])
def test_ratfunc_arithmetic_refuses_strings(op):
    # a str is not coerced: the text syntax goes through `parse_scalar`
    for a, b in ((EPS, "eps"), ("eps", EPS)):
        with pytest.raises(TypeError):
            op(a, b)
    assert (EPS == "eps") is False


def test_parser_reads_any_decimal_digits():
    assert parse_scalar("\u0661\u0662") == RatFunc(12)  # Arabic-Indic 12
    assert parse_scalar("eps^\u0662") == EPS * EPS


def test_parser_flags_zero_denominator():
    with pytest.raises(DivisionByZeroFunction):
        parse_scalar("1/(eps-eps)")


# ---------------------------------------------------------------------------
# the printer against the route it replaced
#
# The reference prints the way the package printed before the printer read
# the integer tuples: a RatFunc as its numerator and denominator over Q,
# each a `Poly` of `Fraction`s, with a text scan for a top-level sum; a
# polynomial in named indeterminates, as a `poly_reference.MultiPoly`, term
# by term from those strings; a vector and a polynomial in mu as one of them.


def reference_top_level_sum(s: str) -> bool:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


def reference_poly_q_str(coeffs) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mono = "eps" if k == 1 else f"eps^{k}"
            body = mono if abs(c) == 1 else f"{str(abs(c))}*{mono}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


def reference_ratfunc_str(x: RatFunc) -> str:
    num_s = reference_poly_q_str(numerator(x).coeffs)
    den = denominator(x)
    if den.degree == 0:
        return num_s
    if reference_top_level_sum(num_s):
        num_s = f"({num_s})"
    den_s = reference_poly_q_str(den.coeffs)
    if sum(1 for c in den.coeffs if c) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def reference_multipoly_str(m: MultiPoly) -> str:
    parts = []
    for expo, coeff in m.sorted_terms():
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(m.names, expo) if e)
        cs = reference_ratfunc_str(coeff)
        if not mono:
            body = f"({cs})" if reference_top_level_sum(cs) or "/" in cs else cs
        elif coeff == ONE:
            body = mono
        elif coeff == -ONE:
            body = f"-{mono}"
        else:
            wrap = reference_top_level_sum(cs) or "/" in cs or "*" in cs
            body = f"({cs})*{mono}" if wrap else f"{cs}*{mono}"
        parts.append("+" + body if parts and not body.startswith("-") else body)
    return "".join(parts) or "0"


def reference_poly_str(p: Poly) -> str:
    if p.coeffs and isinstance(p.coeffs[-1], RatFunc):
        return reference_multipoly_str(MultiPoly(("mu",), {(k,): c for k, c in enumerate(p.coeffs)}))
    return reference_poly_q_str(p.coeffs)


def reference_vector_str(coords) -> str:
    n = len(coords)
    names = tuple(f"X{i + 1}" for i in range(n))
    return reference_multipoly_str(MultiPoly(names, {
        tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coords)}))


def random_int_poly(rng, max_degree):
    """Sparse small integer coefficients with a content of 1, 2, 6 or -4."""
    content = rng.choice((1, 1, 2, 6, -4))
    return [content * rng.choice((0, 0, 1, -1, 2, -3, 5, 12))
            for _ in range(rng.randrange(max_degree + 1) + 1)]


def random_ratfunc(rng) -> RatFunc:
    """Zero, a constant or a rational function whose denominator is a
    constant, a c*eps^k or a polynomial that is no monomial, over numerator
    coefficients scaled by 1, 1/2, 1/3 or 1/10."""
    num = random_int_poly(rng, 4)
    shape = rng.randrange(4)
    if shape == 0:
        den = [rng.choice((1, 2, 3, 7, -5))]
    elif shape == 1:
        den = [0] * rng.randrange(1, 4) + [rng.choice((1, 2, -3))]
    else:
        den = random_int_poly(rng, 3)
        if not any(den):
            den = [1]
    scale = Fraction(1, rng.choice((1, 2, 3, 10)))
    return ratfunc_of(Poly(c * scale for c in num), Poly(den))


def random_coefficient(rng) -> RatFunc:
    return rng.choice((ONE, -ONE, EPS, -EPS)) if rng.random() < 0.3 else random_ratfunc(rng)


def printer_sample(seed=20261019):
    rng = random.Random(seed)
    ratfuncs = [ZERO, ONE, -ONE, EPS, -EPS, ONE / EPS, ratfunc(Fraction(-3, 4))]
    ratfuncs += [random_ratfunc(rng) for _ in range(400)]
    polys = [Poly(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6)))
                  for _ in range(rng.randrange(6))) for _ in range(100)]
    polys += [Poly(random_coefficient(rng) for _ in range(rng.randrange(5))) for _ in range(100)]
    multis = []
    for _ in range(200):
        # a monomial dict of the engine: sorted index tuple to nonzero coefficient
        names = ("a", "b", "c", "d")[:rng.randrange(1, 5)]
        terms = {tuple(rng.randrange(3) for _ in names): random_coefficient(rng)
                 for _ in range(rng.randrange(5))}
        multis.append((names, {sum(((i,) * e for i, e in enumerate(expo)), ()): c
                               for expo, c in terms.items() if not c.is_zero}))
    vectors = []
    for _ in range(200):
        n = rng.randrange(1, 5)
        if rng.random() < 0.5:
            vectors.append([random_coefficient(rng) for _ in range(n)])
        else:
            vectors.append([Fraction(rng.choice((0, 0, 1, -1, 3, -7)), rng.choice((1, 1, 2, 5)))
                            for _ in range(n)])
    return ratfuncs, polys, multis, vectors


def test_printer_matches_the_reference_route():
    ratfuncs, polys, multis, vectors = printer_sample()
    for x in ratfuncs:
        assert str(x) == reference_ratfunc_str(x)
        assert parse_scalar(str(x)) == x
    for p in polys:
        # the engine prints a polynomial in mu from its coefficient tuple and
        # one in eps as the RatFunc it is
        over_q_eps = p.coeffs and isinstance(p.leading, RatFunc)
        text = mu_poly_str(p.coeffs) if over_q_eps else str(ratfunc_of(p))
        assert text == reference_poly_str(p)
    for names, terms in multis:
        assert poly_str(names, terms) == reference_multipoly_str(from_terms(names, terms))
    for v in vectors:
        assert vector_str(v) == reference_vector_str(v)
    # the sample reaches every shape the printer tells apart
    texts = [str(x) for x in ratfuncs]
    assert {"0", "1", "-1", "eps", "-eps"} <= set(texts)
    assert any("/(" in t for t in texts) and any("/eps" in t for t in texts)
    assert any(t.startswith("(") for t in texts) and any("*eps" in t for t in texts)
    multi_texts = [poly_str(*m) for m in multis] + [vector_str(v) for v in vectors]
    assert any(")*" in t for t in multi_texts) and any("+(" in t for t in multi_texts)
    assert any("*(" not in t and "-" in t for t in multi_texts)


def report_polynomials(alg):
    """Every verdict polynomial of the full report of `alg` with its
    indeterminates: the soliton equations, the geodesic and Walker forms,
    the Ledger l5 and, on a curved connection, the energy density."""
    names = component_names(alg.dim)
    soliton = ricci_soliton_solve(alg)
    density = energy_report(alg).density_generic
    out = [(soliton.unknowns, e) for e in soliton.equations]
    out += [(names, U) for U in _geodesic_forms(alg) + _walker_forms(alg)]
    out.append((names, ledger_check(alg).l5_poly))
    if isinstance(density, dict):
        out.append((names, density))
    return out


@pytest.mark.parametrize("seed", [None, 1], ids=["unmixed", "mixed1"])
def test_report_polynomials_print_as_the_reference_route(corpus_alg, seed):
    # `poly_str` on the corpus's own polynomials, dense mixed ones included
    polys = [p for key in test_properties.corpus.TEXTS
             for p in report_polynomials(test_tensor_reference.corpus_case(corpus_alg, key, seed))]
    for names, terms in polys:
        assert poly_str(names, terms) == reference_multipoly_str(from_terms(names, terms))
    # a nonzero l5 (r4's) is among them
    assert len(polys) >= 150 and any(len(key) == 5 for _, terms in polys for key in terms)


def test_printing_builds_no_poly_or_multipoly(monkeypatch):
    # every scalar of the metric, brackets, connection and curvature tensor
    # of the 9 corpus algebras, and every row of them as a vector, prints
    # from the integer tuples alone
    algebras = [loads(text) for text in test_properties.corpus.TEXTS.values()]
    rows = []
    for alg in algebras:
        rows += list(alg.metric)
        rows += [v for plane in alg.brackets for v in plane]
        rows += [v for plane in alg.nabla_basis for v in plane]
        rows += [row for a in alg.curvature_tensor for b in a for row in b]
    built = []
    for cls in (Poly, MultiPoly):
        init = cls.__init__

        def counting(self, *args, _init=init, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    texts = [str(x) for row in rows for x in row]
    texts += [vector_str(row) for row in rows]
    assert built == []
    assert len(rows) >= 500 and any("/" in t for t in texts)


# ---------------------------------------------------------------------------
# the reference MultiPoly


def test_multipoly_arithmetic_and_str():
    names = ("a", "b")
    a = MultiPoly.var(names, "a")
    b = MultiPoly.var(names, "b")
    assert str((a + b) ** 2) == "a^2+2*a*b+b^2"
    assert str(a * a * Fraction(3, 2)) == "(3/2)*a^2"
    assert str(a * 0) == "0"
    assert ((a + b) * (a - b)) == a * a - b * b


def test_multipoly_mixed_coefficients():
    names = ("a",)
    a = MultiPoly.var(names, "a")
    q = a * a * EPS + Fraction(3, 2)
    assert str(q) == "eps*a^2+(3/2)"
    assert q.evaluate({"a": Fraction(2)}, Fraction(3)) == Fraction(27, 2)


def test_multipoly_evaluate_at_pole():
    names = ("a",)
    a = MultiPoly.var(names, "a")
    q = a * (ONE / EPS)
    with pytest.raises(PoleAtEvaluationPoint):
        q.evaluate({"a": Fraction(1)}, Fraction(0))


def test_component_names():
    assert component_names(3) == ("a", "b", "c")
    assert component_names(4) == ("a", "b", "c", "d")
