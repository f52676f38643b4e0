"""Dense polynomials over Q and over Q(eps), and sparse multivariate ones
over Q(eps): the references the tests keep for the engine, which works on
integer tuples and monomial dicts instead.

`Poly` is a polynomial with `Fraction` coefficients (one in eps) or with
`RatFunc` coefficients (one in the spectral variable mu), lowest degree
first, with no trailing zero coefficient.  Around it: Euclid's gcd, exact
division, the squarefree part and the rational roots; a `RatFunc` over Q
with a monic denominator (`numerator`, `denominator`) and the `RatFunc` of
two polynomials over Q (`ratfunc_of`); det(mu I - L) by Laplace expansion
on `Poly` entries (`laplace_charpoly`), the oracle for Berkowitz's
recurrence in `solvers.charpoly`; `check_invariants`, the canonical form of
a `RatFunc`'s integer pair; and `check`, `check_invariants` plus Euclid's
algorithm over Q on every `RatFunc` in a value.

`MultiPoly` is a polynomial in named indeterminates with `RatFunc`
coefficients, with the ring arithmetic that the engine never needs: the
references build the verdict polynomials with it as the definitions read,
on vectors of indeterminates, and `from_terms` turns one of the engine's
monomial dicts into a `MultiPoly` to compare.

`nabla(alg, u, v)` is nabla_u v for invariant vectors with `RatFunc` or
`MultiPoly` components, read off the engine's `connection_operators`.
"""

from fractions import Fraction
from math import lcm

from liegeom.algebra import mat_vec
from liegeom.scalars import (
    ONE,
    ZERO,
    DivisionByZeroFunction,
    RatFunc,
    _canonical,
    _ratfunc,
    _zgcd,
    _zroots,
    mu_poly_str,
    ratfunc,
    terms_str,
)


def is_zero(x) -> bool:
    """Exact zero test for ints, `Fraction`s and anything with `.is_zero`."""
    return x.is_zero if hasattr(x, "is_zero") else x == 0


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while cs and is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "Poly":
        return cls((value,))

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
    def leading(self):
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

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
        a, b = sorted((self.coeffs, o.coeffs), key=len, reverse=True)
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        result = Poly((1,))
        for _ in range(n):
            result = result * self
        return result

    def scale(self, factor) -> "Poly":
        return Poly(c * factor for c in self.coeffs)

    def pdivmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Division with remainder over the coefficient field."""
        if other.is_zero:
            raise DivisionByZeroFunction("polynomial division by zero")
        rem, div = list(self.coeffs), other.coeffs
        quo = [0] * max(len(rem) - len(div) + 1, 0)
        for k in range(len(quo) - 1, -1, -1):
            quo[k] = c = rem[k + len(div) - 1] / div[-1]
            for j, d in enumerate(div):
                rem[k + j] -= c * d
        return Poly(quo), Poly(rem)

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k)

    def monic(self) -> "Poly":
        return self if self.is_zero else self.scale(1 / self.leading)

    def __str__(self) -> str:
        if self.coeffs and isinstance(self.leading, RatFunc):
            return mu_poly_str(self.coeffs)
        return str(ratfunc_of(self))

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a.pdivmod(b)[1]
    return a.monic()


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    quo, rem = a.pdivmod(b)
    if not rem.is_zero:
        raise ValueError(f"{a} is not divisible by {b}")
    return quo


def square_free_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), monic."""
    return p if p.is_zero else poly_div_exact(p, poly_gcd(p, p.derivative())).monic()


def _cleared(*polys: Poly) -> list[tuple[int, ...]]:
    """Polynomials over Q times the lcm of all their denominators."""
    m = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [tuple(c.numerator * (m // c.denominator) for c in p.coeffs) for p in polys]


def poly_rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """The rational roots of a nonzero polynomial over Q with
    multiplicities, ascending."""
    return _zroots(*_cleared(p))


def ratfunc_of(num, den=1) -> RatFunc:
    """num/den for polynomials over Q, ints or `Fraction`s."""
    num, den = (p if isinstance(p, Poly) else Poly((p,)) for p in (num, den))
    if den.is_zero:
        raise DivisionByZeroFunction("denominator is identically zero")
    return _ratfunc(*_canonical(*_cleared(num, den)))


def numerator(f: RatFunc) -> Poly:
    """The numerator of f over Q, over the monic `denominator(f)`."""
    return Poly(Fraction(c, f._d[-1]) for c in f._n)


def denominator(f: RatFunc) -> Poly:
    return Poly(Fraction(c, f._d[-1]) for c in f._d)


def check_invariants(value: RatFunc) -> None:
    """The integer pair of a `RatFunc` is canonical: coprime in Z[eps] with
    the contents included, lc(D) > 0, and the zero function is ()/(1,)."""
    n, d = value._n, value._d
    for t in (n, d):
        assert type(t) is tuple and all(type(c) is int for c in t)
        assert not t or t[-1] != 0
    assert d and d[-1] > 0
    assert _zgcd(n, d) == (1,) if n else d == (1,)


def check(value):
    """Check every `RatFunc` in the value (itself, a nonzero `MultiPoly`
    coefficient, or a coefficient of a `Poly` or a tuple):
    `check_invariants`, and Euclid's algorithm over Q, a monic denominator
    coprime to the numerator.  The coefficients of a `Poly` or a tuple have
    one type and no trailing zero.  Hand the value back."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (Poly, tuple)):
        coeffs = getattr(value, "coeffs", value)
        assert len({type(c) for c in coeffs}) <= 1 and not (coeffs and is_zero(coeffs[-1]))
        for c in coeffs:
            check(c)
        return value
    if isinstance(value, MultiPoly):
        for c in value.terms.values():
            assert not c.is_zero
            check(c)
        return value
    check_invariants(value)
    den = denominator(value)
    assert den.leading == 1 and poly_gcd(numerator(value), den) == Poly((1,))
    return value


def _laplace_det(a) -> Poly:
    if len(a) == 1:
        return a[0][0]
    minors = ([row[:j] + row[j + 1:] for row in a[1:]] for j in range(len(a)))
    return sum((-1) ** j * a[0][j] * _laplace_det(m) for j, m in enumerate(minors))


def laplace_charpoly(matrix) -> Poly:
    """det(mu I - L) over Q(eps), by Laplace expansion on `Poly` entries."""
    n = len(matrix)
    return _laplace_det([[Poly((-matrix[i][j], ONE) if i == j else (-matrix[i][j],))
                          for j in range(n)] for i in range(n)])


class MultiPoly:
    """Sparse polynomial in a fixed tuple of named indeterminates: exponent
    tuples map to nonzero `RatFunc` coefficients."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {}
        for expo, c in (terms or {}).items():
            if len(expo) != len(self.names) or min(expo, default=0) < 0:
                raise ValueError(f"exponent tuple {expo} for indeterminates {self.names}")
            self._add(tuple(expo), ratfunc(c))

    def _add(self, expo, c) -> None:
        s = self.terms.get(expo, ZERO) + c
        if s.is_zero:
            self.terms.pop(expo, None)
        else:
            self.terms[expo] = s

    @classmethod
    def zero(cls, names) -> "MultiPoly":
        return cls(names)

    @classmethod
    def const(cls, names, value) -> "MultiPoly":
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def var(cls, names, name) -> "MultiPoly":
        return cls(names, {tuple(int(x == name) for x in names): ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.names != self.names:
                raise ValueError(f"indeterminate mismatch: {self.names} vs {other.names}")
            return other
        if isinstance(other, (int, Fraction, RatFunc)):
            return MultiPoly.const(self.names, other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is None else self.terms == o.terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = MultiPoly(self.names)
        out.terms = dict(self.terms)
        for expo, c in o.terms.items():
            out._add(expo, c)
        return out

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = MultiPoly(self.names)
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                out._add(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        result = MultiPoly.const(self.names, 1)
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, point, eps_value) -> Fraction:
        """The exact value with every indeterminate (by name) and eps given."""
        total = Fraction(0)
        for expo, c in self.terms.items():
            term = c.eval(eps_value)
            for name, e in zip(self.names, expo):
                term *= Fraction(point[name]) ** e
            total += term
        return total

    def sorted_terms(self) -> list:
        """By total degree, highest first, then by exponent tuple, descending."""
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self) -> str:
        def mono(expo):
            return "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(self.names, expo) if e)
        return terms_str((mono(expo), c) for expo, c in self.sorted_terms())


def from_terms(names, terms) -> MultiPoly:
    """One of the engine's monomial dicts (the sorted index tuple of each
    monomial to its coefficient) as a `MultiPoly` in `names`."""
    return MultiPoly(names, {tuple(key.count(i) for i in range(len(names))): c
                             for key, c in terms.items()})


def nabla(alg, u, v) -> list:
    """nabla_u v = sum_i u_i A_i v, with A_i = `alg.connection_operators[i]`."""
    columns = [[x * w for w in mat_vec(A, v)] for x, A in zip(u, alg.connection_operators)]
    return [sum(row, ZERO) for row in zip(*columns)]
