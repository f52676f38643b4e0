import random
from fractions import Fraction

import pytest

from liegeom.scalars import (
    EPS,
    ONE,
    ZERO,
    DivisionByZeroFunction,
    MultiPoly,
    PoleAtEvaluationPoint,
    Poly,
    RatFunc,
    ScalarSyntaxError,
    _zgcd,
    _zmul,
    _zprs,
    component_names,
    parse_scalar,
    poly_div_exact,
    poly_gcd,
    poly_rational_roots,
    ratfunc,
    scalar_str,
)


# ---------------------------------------------------------------------------
# Poly


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
    # the message prints both polynomials over Q(eps), as MultiPolys in mu
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

    for _ in range(40):
        common = rand_poly(rng.randint(0, 3))
        a = _zmul(common, rand_poly(rng.randint(0, 4)))
        b = _zmul(common, rand_poly(rng.randint(0, 4)))
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
    f = RatFunc(x ** 2 - 1, x - 1)    # common factor cancels
    assert f == RatFunc(x + 1, Poly.const(1))
    g = RatFunc(x, 2 * x - 2)         # denominator comes out monic
    assert g.den.leading == 1
    assert g * (2 * x - 2) == RatFunc(x, Poly.const(1))


def test_ratfunc_division_by_zero():
    with pytest.raises(DivisionByZeroFunction):
        ONE / ZERO
    with pytest.raises(DivisionByZeroFunction):
        RatFunc(Poly.x(), Poly([]))


def test_ratfunc_eval_and_poles():
    f = parse_scalar("(-4+4*eps-2*eps^2)/eps")
    assert f.eval(Fraction(2)) == Fraction(-2)
    assert f.eval(Fraction(1)) == Fraction(-2)
    with pytest.raises(PoleAtEvaluationPoint):
        f.eval(Fraction(0))


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
    assert ratfunc(3) == RatFunc(Poly.const(3), Poly.const(1))
    assert ratfunc(Fraction(1, 2)) * 2 == ONE
    # ints and Fractions are built as integer pairs directly, canonical
    for c in (0, -7, Fraction(-3, 4)):
        ratfunc(c).check_invariants()
        assert ratfunc(c) == RatFunc(Poly.const(c))
    assert ratfunc("4-2*eps") == 4 - 2 * EPS
    assert ratfunc(EPS) is EPS


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
        f = RatFunc(
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
    assert scalar_str(parse_scalar(text)) == text


def test_parser_accepts_any_term_order():
    assert parse_scalar("-2*eps+4") == parse_scalar("4-2*eps")
    assert parse_scalar("( eps - 2 ) ^ 2") == parse_scalar("4-4*eps+eps^2")


@pytest.mark.parametrize("bad", ["", "2*", "(", "(1", "eps^-1", "eps^x",
                                 "foo", "1//2", "1 2", "epsx", "2eps"])
def test_parser_rejects(bad):
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar(bad)
    assert isinstance(exc.value.position, int)


def test_parser_flags_zero_denominator():
    with pytest.raises(DivisionByZeroFunction):
        parse_scalar("1/(eps-eps)")


# ---------------------------------------------------------------------------
# MultiPoly


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


def test_multipoly_set_var():
    names = ("a", "b")
    a = MultiPoly.var(names, "a")
    b = MultiPoly.var(names, "b")
    q = a * b + a
    assert q.set_var("b", Fraction(0)) == a
    assert q.set_var("a", Fraction(1)) == b + 1


def test_multipoly_diagonal_quadratic():
    names = ("a", "b")
    a = MultiPoly.var(names, "a")
    b = MultiPoly.var(names, "b")
    q = a * a * EPS + b * b * EPS
    diag = q.as_diagonal_quadratic()
    assert diag is not None
    assert {k: scalar_str(c) for k, c in diag.items()} == {"a": "eps", "b": "eps"}
    assert ((a * b).as_diagonal_quadratic()) is None


def test_component_names():
    assert component_names(3) == ("a", "b", "c")
    assert component_names(4) == ("a", "b", "c", "d")
