"""Exact scalar arithmetic over a one-parameter rational function field.

Every symbolic quantity in this package is a rational function of the
deformation parameter ``eps`` with arbitrary-precision rational
coefficients.  This module provides that field: dense univariate
polynomials (`Poly`, lowest degree first, no trailing zero coefficient)
with coefficients in Q or in Q(eps), their quotients in canonical form
(`RatFunc`, a coprime pair of integer polynomials in eps), and a sparse
multivariate layer (`MultiPoly`) whose coefficients are again rational
functions, used whenever vector components or Lagrange multipliers enter
an identity.  A `Poly` over Q is a polynomial in eps; a `Poly` over Q(eps)
is one in the spectral variable of a characteristic polynomial.

Canonical forms make equality decidable by structural comparison, which is
what the geometric verdicts downstream rely on.  A `RatFunc` is stored as
two integer coefficient tuples N/D, coprime in Z[eps] contents included,
with lc(D) > 0; its arithmetic cancels common factors with gcds in Z[eps]
(a shortcut for constant and ``c*eps^k`` operands, the subresultant PRS
otherwise), so no rational coefficient is ever normalized on the way.  Its
rational zeros and poles are found on the same integer tuples, by the
rational root theorem, and its numerator and denominator over Q, with a
monic denominator, are computed on demand.  Rationals are stdlib
`fractions.Fraction`.

The text syntax for scalars accepts integers, rationals ``p/q``, the token
``eps``, the operators ``+ - * /``, parentheses, and ``^`` powers, e.g.
``(eps^2-2*eps+2)/eps``.  `parse_scalar` and the canonical printer
(`str` on the value) round-trip.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    remainder, `monic`, `derivative`, `poly_gcd`, `square_free_part` and
    `str` serve both (over Q(eps) it prints as a `MultiPoly` in ``mu``);
    `eval` and `poly_rational_roots` are for Q.

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

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if isinstance(self.coeffs[-1], RatFunc):
            return str(MultiPoly(("mu",), {(k,): c for k, c in enumerate(self.coeffs)}))
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


def poly_rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of a polynomial over Q with multiplicities,
    ascending: `_zroots` on its integer form.  Irrational roots are not
    isolated; use `square_free_part` on the unfactored remainder to report
    them as square-free factors.

    Raises ValueError on the zero polynomial (every point is a root).
    """
    return _zroots(*_clear_denominators(p))


# ---------------------------------------------------------------------------
# integer polynomial kernels: int tuples, lowest degree first, no trailing
# zero, the zero polynomial is ()


def _clear_denominators(*polys: Poly) -> list[tuple[int, ...]]:
    """The polynomials over Q times the lcm of all their denominators."""
    m = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [tuple(c.numerator * (m // c.denominator) for c in p.coeffs) for p in polys]


def _zneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _zdiv_int(a: tuple, c: int) -> tuple:
    """a / c for an integer c dividing every coefficient."""
    return a if c == 1 else tuple(x // c for x in a)


def _zadd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zmul(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return a if b[0] == 1 else tuple(b[0] * x for x in a)
    if not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _zpow(a: tuple, n: int) -> tuple:
    result = (1,)
    while n:
        if n & 1:
            result = _zmul(result, a)
        a = _zmul(a, a)
        n >>= 1
    return result


def _zdiv_exact(a: tuple, b: tuple) -> tuple:
    """a / b for a nonzero b that divides a in Z[eps]."""
    if len(b) == 1:
        return _zdiv_int(a, b[0])
    db, lb = len(b) - 1, b[-1]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        q = rem[k + db] // lb
        quo[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    return tuple(quo)


def _zprem(u: tuple, v: tuple) -> tuple:
    """Pseudo-remainder: lc(v)^(deg u - deg v + 1) * u mod v."""
    dv, lv = len(v) - 1, v[-1]
    r = list(u)
    for k in range(len(u) - len(v), -1, -1):
        q = r[k + dv]
        r = [lv * x for x in r[:k + dv]]
        for j in range(dv):
            r[k + j] -= q * v[j]
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def _zprs(u: tuple, v: tuple) -> list[tuple]:
    """Subresultant PRS of u and v, deg u >= deg v > 0 (Knuth, TAOCP vol. 2,
    4.6.1, Algorithm C): u, v, then every nonzero pseudo-remainder divided
    by g*h^delta, so its coefficients stay the size of the subresultants.
    The last element is a gcd of u and v up to content.
    """
    seq = [u, v]
    g = h = 1
    while True:
        delta = len(u) - len(v)
        r = _zprem(u, v)
        if not r:
            return seq
        u, v = v, _zdiv_int(r, g * h**delta)
        seq.append(v)
        if len(v) == 1:
            return seq
        g = u[-1]
        if delta:
            h = g**delta // h ** (delta - 1)


def _zgcd(a: tuple, b: tuple) -> tuple:
    """gcd of two nonzero polynomials in Z[eps], content included, lc > 0.

    eps is prime in Z[eps], so the gcd is eps^min(valuations) times the gcd
    of the parts without the factor eps; when one of those is a constant the
    rest is the integer gcd of the contents, and otherwise it is the content
    gcd times the primitive part of the last element of `_zprs`.
    """
    if len(a) == 1 or len(b) == 1:
        return (gcd(*a, *b),)
    va = next(i for i, x in enumerate(a) if x)
    vb = next(i for i, x in enumerate(b) if x)
    a, b = a[va:], b[vb:]
    shift = (0,) * min(va, vb)
    ca, cb = gcd(*a), gcd(*b)
    c = gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return shift + (c,)
    u, v = _zdiv_int(a, ca), _zdiv_int(b, cb)
    if len(u) < len(v):
        u, v = v, u
    v = _zprs(u, v)[-1]
    if len(v) == 1:
        return shift + (c,)
    pv = gcd(*v) if v[-1] > 0 else -gcd(*v)
    return shift + tuple(c * (x // pv) for x in v)


def _canonical(n: tuple, d: tuple) -> tuple[tuple, tuple]:
    """n/d with the gcd cancelled and lc(d) > 0; d is nonzero."""
    if not n:
        return (), (1,)
    g = _zgcd(n, d)
    if g != (1,):
        n, d = _zdiv_exact(n, g), _zdiv_exact(d, g)
    if d[-1] < 0:
        n, d = _zneg(n), _zneg(d)
    return n, d


def _ratfunc(n: tuple, d: tuple) -> "RatFunc":
    """The RatFunc with the canonical integer pair (n, d)."""
    out = object.__new__(RatFunc)
    out._n = n
    out._d = d
    return out


def _times(n1: tuple, d1: tuple, n2: tuple, d2: tuple) -> "RatFunc":
    """(n1/d1) * (n2/d2) for canonical pairs up to the sign of d2: each
    numerator is cancelled against the other denominator (Henrici), which
    leaves the product canonical."""
    if not n1 or not n2:
        return ZERO
    g = _zgcd(n1, d2)
    if g != (1,):
        n1, d2 = _zdiv_exact(n1, g), _zdiv_exact(d2, g)
    g = _zgcd(n2, d1)
    if g != (1,):
        n2, d1 = _zdiv_exact(n2, g), _zdiv_exact(d1, g)
    n, d = _zmul(n1, n2), _zmul(d1, d2)
    if d[-1] < 0:
        n, d = _zneg(n), _zneg(d)
    return _ratfunc(n, d)


def _zhomogeneous(a: tuple, p: int, q: int) -> int:
    """q^deg(a) * a(p/q), by Horner's rule in integers."""
    acc, qk = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc


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


def _zroots(a: tuple) -> list[tuple[Fraction, int]]:
    """Rational roots of a nonzero integer polynomial with multiplicities,
    ascending, by the rational root theorem on its primitive part: each
    candidate p/q is tested by integer Horner and divided out as q*eps - p,
    which by Gauss's lemma divides exactly in Z[eps].
    """
    if len(a) == 1:
        return []
    if not a:
        raise ValueError("the zero polynomial has every rational root")
    k = next(i for i, x in enumerate(a) if x)
    roots = [(Fraction(0), k)] if k else []
    a = a[k:]
    if len(a) > 1:
        a = _zdiv_int(a, gcd(*a))
        candidates = sorted({
            Fraction(sign * p, q)
            for p in _divisors(abs(a[0]))
            for q in _divisors(abs(a[-1]))
            for sign in (1, -1)
        })
        for r in candidates:
            p, q = r.numerator, r.denominator
            mult = 0
            while len(a) > 1 and _zhomogeneous(a, p, q) == 0:
                a = _zdiv_exact(a, (-p, q))
                mult += 1
            if mult:
                roots.append((r, mult))
    return sorted(roots)


# ---------------------------------------------------------------------------
# rational functions in canonical form


class RatFunc:
    """Quotient of two polynomials in eps in canonical form.

    Stored as integer coefficient tuples N/D (lowest degree first, no
    trailing zero) that are coprime in Z[eps] with their contents included,
    with lc(D) > 0; the zero function is ()/(1,).  Equality and hashing
    are structural on the pair.  `zeros` and `poles` read the rational roots
    of N and D off the tuples; `num` and `den` give the same quotient over Q
    with a monic denominator, as `Poly`s.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num=0, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise DivisionByZeroFunction("denominator is identically zero")
        self._n, self._d = _canonical(*_clear_denominators(num, den))

    @classmethod
    def eps(cls) -> "RatFunc":
        return _ratfunc((0, 1), (1,))

    @property
    def num(self) -> Poly:
        lead = self._d[-1]
        return Poly(Fraction(c, lead) for c in self._n)

    @property
    def den(self) -> Poly:
        if len(self._d) == 1:
            return _Q_ONE
        lead = self._d[-1]
        return Poly(Fraction(c, lead) for c in self._d)

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_constant(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def zeros(self) -> list[tuple[Fraction, int]]:
        """Rational roots of the numerator with multiplicities, ascending.
        Raises ValueError on the zero function, which vanishes everywhere."""
        return _zroots(self._n)

    def poles(self) -> list[tuple[Fraction, int]]:
        """Rational roots of the denominator with multiplicities, ascending."""
        return _zroots(self._d)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        if not self._n:
            return Fraction(0)
        return Fraction(self._n[0], self._d[0])

    def check_invariants(self) -> None:
        """The integer pair is canonical, and its form over Q is the one
        Euclid's algorithm over Q gives: coprime, monic denominator."""
        n, d = self._n, self._d
        for t in (n, d):
            assert type(t) is tuple and all(type(c) is int for c in t)
            assert not t or t[-1] != 0
        assert d and d[-1] > 0
        # with no common factor over Q, Gauss's lemma leaves only the contents
        assert gcd(*n, *d) == 1
        num, den = self.num, self.den
        num.check_invariants()
        den.check_invariants()
        assert den.leading == 1 and poly_gcd(num, den) == Poly((1,))

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self) -> int:
        return hash(("RatFunc", self._n, self._d))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return _ratfunc((other,) if other else (), (1,))
        if isinstance(other, Fraction):
            return _ratfunc((other.numerator,) if other else (), (other.denominator,))
        if isinstance(other, Poly):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1, n2, d2 = self._n, self._d, o._n, o._d
        if not n2:
            return self
        if not n1:
            return o
        if d1 == d2:
            return _ratfunc(*_canonical(_zadd(n1, n2), d1))
        # Henrici: with g = gcd(d1, d2), d1 = g*e1 and d2 = g*e2, the sum is
        # t / (e1*e2*g) with t = n1*e2 + n2*e1, and t is coprime to e1 and e2
        g = _zgcd(d1, d2)
        e1, e2 = _zdiv_exact(d1, g), _zdiv_exact(d2, g)
        t = _zadd(_zmul(n1, e2), _zmul(n2, e1))
        if not t:
            return ZERO
        t, g = _canonical(t, g)
        return _ratfunc(t, _zmul(_zmul(e1, e2), g))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _ratfunc(_zneg(self._n), self._d)

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
        return _times(self._n, self._d, o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZeroFunction("division by the zero function")
        return _times(self._n, self._d, o._d, o._n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatFunc":
        num, den = self._n, self._d
        if n < 0:
            if self.is_zero:
                raise DivisionByZeroFunction("negative power of zero")
            num, den, n = den, num, -n
        num, den = _zpow(num, n), _zpow(den, n)
        if den[-1] < 0:
            num, den = _zneg(num), _zneg(den)
        return _ratfunc(num, den)

    def eval(self, x: Fraction) -> Fraction:
        x = _fraction(x)
        p, q = x.numerator, x.denominator
        dv = _zhomogeneous(self._d, p, q)
        if dv == 0:
            raise PoleAtEvaluationPoint(f"{self} has a pole at {PARAM}={x}")
        # N(x) / D(x) = q^(deg D - deg N) * nv / dv
        nv = _zhomogeneous(self._n, p, q)
        shift = len(self._d) - len(self._n)
        if shift >= 0:
            return Fraction(nv * q**shift, dv)
        return Fraction(nv, dv * q**-shift)

    def __str__(self) -> str:
        if len(self._d) == 1:
            return str(self.num)
        num_s = str(self.num)
        if _top_level_sum(num_s):
            num_s = f"({num_s})"
        # a monic denominator is a bare power of eps or needs parentheses
        den_s = str(self.den)
        if sum(1 for c in self._d if c) > 1:
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
# the `den` of every RatFunc with a constant denominator; no Poly is mutated
_Q_ONE = Poly((1,))


def ratfunc(value) -> RatFunc:
    """Coerce an int, Fraction, Poly, RatFunc, or scalar text to RatFunc."""
    if isinstance(value, (RatFunc, int, Fraction)):
        return RatFunc._coerce(value)
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
                out[expo] = ratfunc(c)
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
