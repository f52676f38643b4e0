"""Exact scalar arithmetic over a one-parameter rational function field.

Every symbolic quantity in this package is a rational function of the
deformation parameter ``eps`` with arbitrary-precision rational
coefficients.  This module provides that field: dense univariate
polynomials (`Poly`, lowest degree first, no trailing zero coefficient)
with coefficients in Q or in Q(eps), their quotients in canonical form
(`RatFunc`, numerator and denominator polynomials in eps over Q, coprime,
denominator monic), and a sparse multivariate layer (`MultiPoly`) whose
coefficients are again rational functions, used whenever vector
components or Lagrange multipliers enter an identity.  A `Poly` over Q is
a polynomial in eps; a `Poly` over Q(eps) is one in the spectral variable
of a characteristic polynomial.

Canonical forms make equality decidable by structural comparison, which is
what the geometric verdicts downstream rely on.  Rationals are stdlib
`fractions.Fraction`, whose normalization (reduced, positive denominator)
already matches the contract here.

The text syntax for scalars accepts integers, rationals ``p/q``, the token
``eps``, the operators ``+ - * /``, parentheses, and ``^`` powers, e.g.
``(eps^2-2*eps+2)/eps``.  `parse_scalar` and the canonical printer
(`str` on the value) round-trip.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rational = Fraction

PARAM = "eps"


class DivisionByZeroFunction(ZeroDivisionError):
    """Division by the identically zero polynomial or rational function."""


class PoleAtEvaluationPoint(ArithmeticError):
    """Evaluation of a rational function at a root of its denominator."""


class ScalarSyntaxError(ValueError):
    """Raised by `parse_scalar` on malformed input; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


_ZERO_Q = Fraction(0)


def _coefficient(value):
    if isinstance(value, (Fraction, RatFunc)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int, Fraction or RatFunc, got {type(value).__name__}")


def fraction_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scalar_is_zero(x) -> bool:
    """Exact zero test across every scalar-like type in this package."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q or Q(eps)


class Poly:
    """Dense polynomial over one coefficient field, lowest degree first.

    Over Q (ints are coerced to `Fraction`) it is a polynomial in `eps`;
    over Q(eps) (`RatFunc` coefficients) it is a polynomial in the spectral
    variable of a characteristic polynomial.  Arithmetic, division with
    remainder, `monic`, `derivative`, `poly_gcd` and `square_free_part`
    serve both; `eval`, `int_primitive` and `str` are for Q.

    Invariant: the coefficient tuple never ends in a zero, so the zero
    polynomial is the empty tuple and `degree` of zero is -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coefficient(c) for c in coeffs]
        while cs and scalar_is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "Poly":
        return cls((_fraction(value),))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def check_invariants(self) -> None:
        """One coefficient type (Fraction or a canonical RatFunc), no
        trailing zero."""
        kind = type(self.coeffs[-1]) if self.coeffs else Fraction
        assert kind in (Fraction, RatFunc)
        for c in self.coeffs:
            assert type(c) is kind
            if kind is RatFunc:
                c.check_invariants()
        assert not self.coeffs or not scalar_is_zero(self.coeffs[-1])

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly()
        # the zero of the coefficient field, by type: arithmetic on a
        # coefficient here would cost one field operation per product
        zero = ZERO if isinstance(self.coeffs[-1], RatFunc) else _ZERO_Q
        out = [zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if scalar_is_zero(a):
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, factor) -> "Poly":
        return Poly(tuple(c * factor for c in self.coeffs))

    def pdivmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division with remainder over the coefficient
        field."""
        if other.is_zero:
            raise DivisionByZeroFunction("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return Poly(), self
        quo = [None] * (dq + 1)
        inv_lead = 1 / div[-1]
        for k in range(dq, -1, -1):
            coeff = rem[k + len(div) - 1] * inv_lead
            quo[k] = coeff
            if not scalar_is_zero(coeff):
                for j, d in enumerate(div):
                    rem[k + j] -= coeff * d
        return Poly(quo), Poly(rem)

    def eval(self, x: Fraction) -> Fraction:
        x = _fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def int_primitive(self) -> tuple[int, ...]:
        """Integer coefficients after clearing denominators, content 1."""
        if self.is_zero:
            return ()
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // _gcd_int(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = _gcd_int(g, abs(v))
        return tuple(v // g for v in ints)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = fraction_str(abs(c))
            else:
                mono = PARAM if k == 1 else f"{PARAM}^{k}"
                body = mono if abs(c) == 1 else f"{fraction_str(abs(c))}*{mono}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a.pdivmod(b)[1]
        b = b.monic() if not b.is_zero else b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly()
    g = poly_gcd(a, b)
    return (a.pdivmod(g)[0] * b).monic()


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    quo, rem = a.pdivmod(b)
    if not rem.is_zero:
        raise ValueError(f"{a} is not divisible by {b}")
    return quo


def square_free_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), monic; the radical of p."""
    if p.is_zero:
        return p
    return poly_div_exact(p, poly_gcd(p, p.derivative())).monic()


def _divisors(n: int) -> list[int]:
    # trial division is plenty for the coefficient sizes this package sees
    assert n >= 1
    factors: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    divs = [1]
    for prime, exp in factors:
        divs = [v * prime**k for v in divs for k in range(exp + 1)]
    return sorted(divs)


def poly_rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, by the rational root
    theorem on the primitive integer form; each root verified by exact
    evaluation.  Irrational roots are not isolated; use `square_free_part`
    on the unfactored remainder to report them as square-free factors.

    Raises ValueError on the zero polynomial (every point is a root).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every rational root")
    roots: list[tuple[Fraction, int]] = []
    coeffs = list(p.coeffs)
    k = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        k += 1
    if k:
        roots.append((Fraction(0), k))
    q = Poly(coeffs)
    if q.degree >= 1:
        ints = q.int_primitive()
        lead_divs = _divisors(abs(ints[-1]))
        tail_divs = _divisors(abs(ints[0]))
        candidates = sorted(
            {
                Fraction(sign * num, den)
                for num in tail_divs
                for den in lead_divs
                for sign in (1, -1)
            }
        )
        for r in candidates:
            if q.eval(r) != 0:
                continue
            mult = 0
            factor = Poly((-r, 1))
            while True:
                quo, rem = q.pdivmod(factor)
                if not rem.is_zero:
                    break
                q = quo
                mult += 1
            roots.append((r, mult))
    return sorted(roots)


# ---------------------------------------------------------------------------
# rational functions in canonical form


class RatFunc:
    """Quotient of two `Poly` in canonical form.

    Invariants: denominator nonzero and monic, gcd(num, den) = 1, and the
    zero function is stored as 0/1.  Equality and hashing are structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise DivisionByZeroFunction("denominator is identically zero")
        if num.is_zero:
            self.num = Poly()
            self.den = Poly((1,))
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = poly_div_exact(num, g)
            den = poly_div_exact(den, g)
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def eps(cls) -> "RatFunc":
        return cls(Poly.x())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        if self.num.is_zero:
            return Fraction(0)
        return self.num.coeffs[0]

    def check_invariants(self) -> None:
        for p in (self.num, self.den):
            p.check_invariants()
            assert all(isinstance(c, Fraction) for c in p.coeffs)
        assert not self.den.is_zero and self.den.leading == 1
        if not self.num.is_zero:
            assert poly_gcd(self.num, self.den).degree == 0
        else:
            assert self.den == Poly((1,))

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZeroFunction("division by the zero function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero:
                raise DivisionByZeroFunction("negative power of zero")
            return RatFunc(self.den**(-n), self.num**(-n))
        return RatFunc(self.num**n, self.den**n)

    def eval(self, x: Fraction) -> Fraction:
        x = _fraction(x)
        dv = self.den.eval(x)
        if dv == 0:
            raise PoleAtEvaluationPoint(f"{self} has a pole at {PARAM}={x}")
        return self.num.eval(x) / dv

    def __str__(self) -> str:
        if self.den == Poly((1,)):
            return str(self.num)
        num_s = str(self.num)
        if _top_level_sum(num_s):
            num_s = f"({num_s})"
        # a monic denominator is a bare power of eps or needs parentheses
        den_s = str(self.den)
        if self.den.degree >= 0 and len([c for c in self.den.coeffs if c != 0]) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        if value.coeffs and isinstance(value.coeffs[-1], RatFunc):
            raise TypeError("a Poly over Q(eps) is no element of Q(eps)")
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    if isinstance(value, RatFunc):
        raise TypeError("pass RatFunc values directly, not through Poly slots")
    raise TypeError(f"cannot build Poly from {type(value).__name__}")


def _top_level_sum(s: str) -> bool:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


ZERO = RatFunc(0)
ONE = RatFunc(1)
EPS = RatFunc.eps()


def ratfunc(value) -> RatFunc:
    """Coerce an int, Fraction, Poly, RatFunc, or scalar text to RatFunc."""
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    return RatFunc(value)


# ---------------------------------------------------------------------------
# scalar text syntax


class _ScalarParser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := unary (('*'|'/') unary)*; unary := '-' unary | power;
    power := atom ('^' nonneg_int)?; atom := int | 'eps' | '(' expr ')'.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ScalarSyntaxError:
        return ScalarSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> RatFunc:
        value = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected character {self.text[self.pos]!r}")
        return value

    def parse_expr(self) -> RatFunc:
        value = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.parse_term()
            elif ch == "-":
                self.pos += 1
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self) -> RatFunc:
        value = self.parse_unary()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.parse_unary()
            elif ch == "/":
                self.pos += 1
                value = value / self.parse_unary()
            else:
                return value

    def parse_unary(self) -> RatFunc:
        if self.take("-"):
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> RatFunc:
        base = self.parse_atom()
        if self.take("^"):
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected a nonnegative integer exponent")
            return base ** int(self.text[start:self.pos])
        return base

    def parse_atom(self) -> RatFunc:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.parse_expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return value
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return RatFunc(int(self.text[start:self.pos]))
        if self.text.startswith(PARAM, self.pos):
            end = self.pos + len(PARAM)
            if end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
                raise self.error(f"unknown symbol starting at {self.text[self.pos:end+1]!r}")
            self.pos = end
            return EPS
        raise self.error("expected a number, 'eps', or '('")


def parse_scalar(text: str) -> RatFunc:
    """Parse the scalar text syntax, raising ScalarSyntaxError on bad input.

    Division by a subexpression that is identically zero raises
    DivisionByZeroFunction, as in '1/(eps-eps)'.
    """
    return _ScalarParser(text).parse()


def scalar_str(value: RatFunc) -> str:
    """Canonical printed form; parse_scalar(scalar_str(v)) == v."""
    return str(ratfunc(value))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over the rational function field


class MultiPoly:
    """Sparse polynomial in a fixed tuple of named indeterminates with
    `RatFunc` coefficients.  The indeterminate set belongs to the instance
    (it is fixed per analysis call, not global), terms map exponent tuples
    to nonzero coefficients.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: Sequence[str], terms: Mapping[tuple[int, ...], object] | None = None):
        self.names = tuple(names)
        clean: dict[tuple[int, ...], RatFunc] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != len(self.names):
                    raise ValueError("exponent tuple length does not match indeterminates")
                if any(e < 0 for e in expo):
                    raise ValueError("negative exponent")
                c = ratfunc(coeff)
                if not c.is_zero:
                    if expo in clean:
                        c = clean[expo] + c
                        if c.is_zero:
                            del clean[expo]
                            continue
                    clean[expo] = c
        self.terms = clean

    @classmethod
    def zero(cls, names: Sequence[str]) -> "MultiPoly":
        return cls(names)

    @classmethod
    def const(cls, names: Sequence[str], value) -> "MultiPoly":
        c = ratfunc(value)
        if c.is_zero:
            return cls(names)
        return cls(names, {tuple(0 for _ in names): c})

    @classmethod
    def var(cls, names: Sequence[str], name: str) -> "MultiPoly":
        names = tuple(names)
        idx = names.index(name)
        expo = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls(names, {expo: ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def check_invariants(self) -> None:
        for expo, coeff in self.terms.items():
            assert len(expo) == len(self.names) and all(e >= 0 for e in expo)
            assert isinstance(coeff, RatFunc) and not coeff.is_zero
            coeff.check_invariants()

    def _compat(self, other: "MultiPoly") -> None:
        if self.names != other.names:
            raise ValueError(f"indeterminate mismatch: {self.names} vs {other.names}")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._compat(other)
            return other
        if isinstance(other, (int, Fraction, Poly, RatFunc)):
            return MultiPoly.const(self.names, other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other) if not isinstance(other, MultiPoly) else other
        if o is None:
            return NotImplemented
        return self.names == o.names and self.terms == o.terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for expo, coeff in o.terms.items():
            s = out.get(expo, ZERO) + coeff
            if s.is_zero:
                out.pop(expo, None)
            else:
                out[expo] = s
        result = MultiPoly.__new__(MultiPoly)
        result.names = self.names
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        result = MultiPoly.__new__(MultiPoly)
        result.names = self.names
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], RatFunc] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                s = out.get(expo, ZERO) + prod
                if s.is_zero:
                    out.pop(expo, None)
                else:
                    out[expo] = s
        result = MultiPoly.__new__(MultiPoly)
        result.names = self.names
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a MultiPoly")
        result = MultiPoly.const(self.names, 1)
        for _ in range(n):
            result = result * self
        return result

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, expo: Sequence[int]) -> RatFunc:
        return self.terms.get(tuple(expo), ZERO)

    def set_var(self, name: str, value) -> "MultiPoly":
        """Substitute one indeterminate by a scalar; names are kept."""
        idx = self.names.index(name)
        val = ratfunc(value)
        out = MultiPoly.zero(self.names)
        for expo, coeff in self.terms.items():
            e = expo[idx]
            new_expo = tuple(0 if i == idx else v for i, v in enumerate(expo))
            scaled = coeff * val**e if e else coeff
            out = out + MultiPoly(self.names, {new_expo: scaled})
        return out

    def evaluate(self, point: Mapping[str, Fraction], eps_value: Fraction) -> Fraction:
        """Exact value with all indeterminates and eps given."""
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff.eval(eps_value)
            for i, e in enumerate(expo):
                if e:
                    term *= _fraction(point[self.names[i]]) ** e
            total += term
        return total

    def evaluate_vars(self, point: Mapping[str, object]) -> RatFunc:
        """Substitute every indeterminate; the parameter stays symbolic."""
        acc = ZERO
        for expo, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(expo):
                if e:
                    term = term * ratfunc(point[self.names[i]]) ** e
            acc = acc + term
        return acc

    def specialize_param(self, eps_value: Fraction) -> "MultiPoly":
        """Pin the parameter to a rational value; indeterminates stay."""
        v = _fraction(eps_value)
        out: dict[tuple[int, ...], RatFunc] = {}
        for expo, coeff in self.terms.items():
            c = coeff.eval(v)
            if c != 0:
                out[expo] = RatFunc(Poly((c,)))
        result = MultiPoly.__new__(MultiPoly)
        result.names = self.names
        result.terms = out
        return result

    def as_monomial(self) -> tuple[RatFunc, tuple[int, ...]] | None:
        if len(self.terms) != 1:
            return None
        ((expo, coeff),) = self.terms.items()
        return coeff, expo

    def as_diagonal_quadratic(self) -> dict[str, RatFunc] | None:
        """If every term is coeff * x_i^2, return {x_i: coeff}, else None."""
        if self.is_zero:
            return None
        out: dict[str, RatFunc] = {}
        for expo, coeff in self.terms.items():
            live = [(i, e) for i, e in enumerate(expo) if e]
            if len(live) != 1 or live[0][1] != 2:
                return None
            out[self.names[live[0][0]]] = coeff
        return out

    def sorted_terms(self) -> list[tuple[tuple[int, ...], RatFunc]]:
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for expo, coeff in self.sorted_terms():
            monos = []
            for name, e in zip(self.names, expo):
                if e == 1:
                    monos.append(name)
                elif e > 1:
                    monos.append(f"{name}^{e}")
            mono = "*".join(monos)
            cs = str(coeff)
            if not mono:
                body = f"({cs})" if _top_level_sum(cs) or "/" in cs else cs
            elif coeff == ONE:
                body = mono
            elif coeff == -ONE:
                body = f"-{mono}"
            else:
                cs_wrapped = f"({cs})" if (_top_level_sum(cs) or "/" in cs or "*" in cs) else cs
                body = f"{cs_wrapped}*{mono}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"


def component_names(dim: int) -> tuple[str, ...]:
    """Coordinate indeterminate names for a generic invariant vector."""
    if dim <= 4:
        return ("a", "b", "c", "d")[:dim]
    return tuple(f"a{i+1}" for i in range(dim))
