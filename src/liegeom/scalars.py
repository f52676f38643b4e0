"""Exact scalar arithmetic over a one-parameter rational function field.

Every symbolic quantity in this package is a rational function of the
deformation parameter ``eps`` with arbitrary-precision rational
coefficients.  This module provides that field in canonical form
(`RatFunc`, a coprime pair of integer polynomials in eps), the kernels on
integer polynomials that it runs on, and the printers of the two kinds of
polynomial the engine builds from it.  A verdict polynomial (the soliton
equations, the geodesic and Walker forms, the Ledger l5 and the energy
density) is a sparse monomial dict in named indeterminates: the sorted
index tuple of each monomial, (0, 0, 2) for x0^2 * x2, maps to its nonzero
`RatFunc` coefficient.  The engine reads each one off the coefficient
tensors and never adds or multiplies two of them; `poly_str` prints it.
A polynomial in the spectral variable ``mu`` is a tuple of its `RatFunc`
coefficients, lowest degree first, and `mu_poly_str` prints it.

Canonical forms make equality decidable by structural comparison, which is
what the geometric verdicts downstream rely on.  A `RatFunc` is stored as
two integer coefficient tuples N/D, coprime in Z[eps] contents included,
with lc(D) > 0; its arithmetic cancels common factors with gcds in Z[eps]
(none against a denominator 1, one integer gcd for a constant or an
integer denominator, the integer gcd and the lower power of eps against
c*eps^k, one root test for a linear primitive part, and the subresultant
PRS otherwise), so no rational coefficient is ever normalized on the way.
The tensor layer of `algebra` works on the tuples themselves: `_clear`
writes rows of `RatFunc`s over one denominator, `_zdot` sums products of
numerators, and `_zcommon` finds the gcd by which a whole tensor is
divided once.  The rational zeros and poles of a `RatFunc` are found on
the same integer tuples, by the rational root theorem.  Rationals are
stdlib `fractions.Fraction`.

The text syntax for scalars accepts integers (runs of decimal digits),
rationals ``p/q``, the token ``eps``, the operators ``+ - * /``,
parentheses, and ``^`` powers, e.g. ``(eps^2-2*eps+2)/eps``.  A power
``base^k`` is refused before it is formed when k times the degree of the
base exceeds 256, or k times the bit length of its largest coefficient
exceeds 65536.
`parse_scalar` and the canonical printer (`str` on the value) round-trip.
The printer reads the integer pair itself: N and D each over lc(D), every
coefficient reduced by one integer gcd, through `_eps_poly_str`, the one
printer of a polynomial in eps.
`terms_str` joins the terms of a verdict polynomial (`poly_str`), of a
polynomial in ``mu`` (`mu_poly_str`) and of `algebra.vector_str`, and
decides each coefficient's sign and parentheses from the tuples as well,
so no `Fraction` or polynomial object is built in order to print.

`record` is the class decorator of every result type of the package (the
verdicts, `MetricLieAlgebra`, the catalog entries).  It sits in this, the
lowest, module so that each layer can use it, and builds its methods
without `exec`, which keeps the cold start of the command line short.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

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


# ---------------------------------------------------------------------------
# integer polynomial kernels: int tuples, lowest degree first, no trailing
# zero, the zero polynomial is ()


def _zneg(a: tuple) -> tuple:
    return tuple([-x for x in a])


def _zdiv_int(a: tuple, c: int) -> tuple:
    """a / c for an integer c dividing every coefficient."""
    return a if c == 1 else tuple([x // c for x in a])


def _zadd(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    if not a:
        return b
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
        c = b[0]
        return a if c == 1 else tuple([c * x for x in a])
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
    """a / b for a nonzero b that divides a in Z[eps]; by one integer
    division per coefficient when b is c*eps^k."""
    if not any(b[:-1]):
        return _zdiv_int(a[len(b) - 1:], b[-1])
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
    rest is the integer gcd of the contents.  Otherwise it is the content
    gcd times the gcd of the primitive parts: a linear part is irreducible,
    so one test at its root decides between it and 1, and two parts of
    degree 2 or more take the primitive part of the last element of `_zprs`.
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
    if len(v) == 2:
        if _zhomogeneous(u, -v[0], v[1]):
            return shift + (c,)
    else:
        v = _zprs(u, v)[-1]
        if len(v) == 1:
            return shift + (c,)
    pv = gcd(*v) if v[-1] > 0 else -gcd(*v)
    return shift + tuple(c * (x // pv) for x in v)


def _zval(a: tuple) -> int:
    """The power of eps that divides the nonzero a."""
    return next(i for i, x in enumerate(a) if x)


def _cancel(n: tuple, d: tuple) -> tuple[tuple, tuple]:
    """n and d over their gcd in Z[eps], for nonzero n and d: nothing to
    do when d is 1, one integer gcd when either is a constant, and when
    either is c*eps^k the integer gcd of the coefficients times eps to the
    lower valuation; `_zgcd` runs only when neither is a monomial."""
    if d == (1,):
        return n, d
    if len(d) == 1 or len(n) == 1:
        g = gcd(*d, *n)
        return (n, d) if g == 1 else (_zdiv_int(n, g), _zdiv_int(d, g))
    if any(n[:-1]) and any(d[:-1]):
        g = _zgcd(n, d)
        return (n, d) if g == (1,) else (_zdiv_exact(n, g), _zdiv_exact(d, g))
    k = min(_zval(n), _zval(d))
    g = gcd(*d, *n)
    if k:
        n, d = n[k:], d[k:]
    return (n, d) if g == 1 else (_zdiv_int(n, g), _zdiv_int(d, g))


def _canonical(n: tuple, d: tuple) -> tuple[tuple, tuple]:
    """n/d with the gcd cancelled and lc(d) > 0; d is nonzero."""
    if not n:
        return (), (1,)
    n, d = _cancel(n, d)
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
    n1, d2 = _cancel(n1, d2)
    n2, d1 = _cancel(n2, d1)
    n = _zmul(n1, n2)
    d = d1 if d2 == (1,) else d2 if d1 == (1,) else _zmul(d1, d2)
    if d[-1] < 0:
        n, d = _zneg(n), _zneg(d)
    return _ratfunc(n, d)


def _plus(n1: tuple, d1: tuple, n2: tuple, d2: tuple) -> "RatFunc":
    """(n1/d1) + (n2/d2) for canonical pairs."""
    if not n2:
        return _ratfunc(n1, d1)
    if not n1:
        return _ratfunc(n2, d2)
    if d1 == d2:
        return _ratfunc(*_canonical(_zadd(n1, n2), d1))
    if len(d1) == len(d2) == 1:  # n1*(b/g) + n2*(a/g) over a*b/g, g = gcd(a, b)
        a, b = d1[0], d2[0]
        g = gcd(a, b)
        t = _zadd(_zmul(n1, (b // g,)), _zmul(n2, (a // g,)))
        return _ratfunc(*_cancel(t, (a // g * b,)))
    # Henrici: with g = gcd(d1, d2), d1 = g*e1 and d2 = g*e2, the sum is
    # t / (e1*e2*g) with t = n1*e2 + n2*e1, and t is coprime to e1 and e2
    g = _zgcd(d1, d2)
    e1, e2 = _zdiv_exact(d1, g), _zdiv_exact(d2, g)
    t = _zadd(_zmul(n1, e2), _zmul(n2, e1))
    t, g = _canonical(t, g)
    return _ratfunc(t, _zmul(_zmul(e1, e2), g))


def _zlcm(a: tuple, b: tuple) -> tuple:
    """lcm of two polynomials in Z[eps] with lc > 0, content included; of
    two c*eps^k, the lcm of the constants times the higher power of eps."""
    if a == b:
        return a
    if not (any(a[:-1]) or any(b[:-1])):
        return (0,) * (max(len(a), len(b)) - 1) + (lcm(a[-1], b[-1]),)
    return _zmul(a, _zdiv_exact(b, _zgcd(a, b)))


def _zdot(u: Iterable[tuple], v: Iterable[tuple]) -> tuple:
    """sum_k u[k] v[k] in Z[eps], over the shorter of the two, past the
    terms with a zero factor."""
    acc = ()
    for x, y in zip(u, v):
        if x and y:
            acc = _zadd(acc, _zmul(x, y))
    return acc


def _clear(rows: Iterable[Iterable["RatFunc"]]) -> tuple[list[list[tuple]], tuple]:
    """(N, D): the rows of `RatFunc`s over one denominator D, the lcm of
    theirs, so that each entry is N[r][c] / D with N[r][c] in Z[eps].  The
    integer tensors of `algebra` start here, and `solvers.eigen_analyze`
    takes an operator in this form."""
    rows = [list(row) for row in rows]
    D = reduce(_zlcm, {x._d for row in rows for x in row}, (1,))
    return [[x._n if x._d == D else _zmul(x._n, _zdiv_exact(D, x._d)) for x in row]
            for row in rows], D


def _zcommon(D: tuple, nums: Iterable[tuple]) -> tuple:
    """The gcd in Z[eps], lc > 0, of D (lc > 0) and the numerators `nums`.

    Once the gcd so far is c*eps^k, which it is from the start for the
    denominators the tensor layer meets, the rest is the integer gcd of the
    coefficients and the lowest valuation, and the scan stops when both
    reach 1; `_zgcd` runs only before that."""
    g = D
    for a in nums:
        if not a:
            continue
        if any(g[:-1]):
            g = _zgcd(g, a)
            continue
        k, c = len(g) - 1, g[-1]
        if c == 1 and not k:
            break
        if c != 1:
            c = gcd(c, *a)
        if k:
            k = 0 if a[0] else min(k, _zval(a))
        g = (0,) * k + (c,)
    return g


def nonzero(row) -> list[tuple[int, object]]:
    """The (index, entry) pairs of the nonzero entries of a row."""
    return [(k, x) for k, x in enumerate(row) if not x.is_zero]


def _zhomogeneous(a: tuple, p: int, q: int) -> int:
    """q^deg(a) * a(p/q), by Horner's rule in integers."""
    acc, qk = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _divisors(n: int) -> list[int]:
    # trial division costs ~p steps per prime factor p: the berger text with
    # metric entry eps-1000000007 takes 31.4 s for a full report (ROADMAP item 15)
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
    which by Gauss's lemma divides exactly in Z[eps].  The candidates are
    tested in any order; only the roots found are sorted.
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
        qs = _divisors(abs(a[-1]))
        candidates = {
            Fraction(sign * p, q) for p in _divisors(abs(a[0])) for q in qs for sign in (1, -1)
        }
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
# the canonical printer, on the integer tuples


def _power(name: str, k: int) -> str:
    """name^k as printed: empty for k = 0, the bare name for k = 1."""
    return "" if not k else name if k == 1 else f"{name}^{k}"


def _eps_poly_str(a: tuple, q: int) -> str:
    """The polynomial sum_k (a[k]/q) eps^k over a q > 0, lowest degree
    first, each coefficient reduced by one integer gcd; a coefficient 1 is
    left off its power of eps, and the zero polynomial prints as 0."""
    parts = []
    for k, c in enumerate(a):
        if not c:
            continue
        g = gcd(c, q)
        p, r = abs(c) // g, q // g
        body = str(p) if r == 1 else f"{p}/{r}"
        if k:
            body = _power(PARAM, k) if p == r == 1 else f"{body}*{_power(PARAM, k)}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def _ratfunc_str(n: tuple, d: tuple) -> str:
    """The text of the canonical pair n/d: N and D each over lc(D), so the
    denominator is monic.  A denominator that is not constant is a bare
    power of eps or a parenthesized sum; over it, a numerator that is a
    sum is parenthesized too."""
    q = d[-1]
    num = _eps_poly_str(n, q)
    if len(d) == 1:
        return num
    if len(n) - n.count(0) > 1:
        num = f"({num})"
    den = _eps_poly_str(d, q)
    if len(d) - d.count(0) > 1:
        den = f"({den})"
    return f"{num}/{den}"


def terms_str(terms: Iterable[tuple[str, object]]) -> str:
    """The sum of the (monomial text, coefficient) terms in the order given,
    the one term printer: a verdict polynomial (`poly_str`), a polynomial in
    mu (`mu_poly_str`) and a vector (`algebra.vector_str`) print through it.
    "" is the constant monomial, a coefficient is any scalar `ratfunc`
    takes, and zero terms are skipped.  A
    coefficient 1 is left off its monomial, -1 leaves a "-"; any other
    coefficient is parenthesized when it is a sum or has a '/' or, in
    front of a monomial, a '*'.  A term joins the ones before it with a
    '+' unless it starts with '-'."""
    parts = []
    for mono, c in terms:
        if type(c) is not RatFunc:
            c = ratfunc(c)
        n, d = c._n, c._d
        if not n:
            continue
        if mono and d == (1,) and n in ((1,), (-1,)):
            body = mono if n[0] == 1 else f"-{mono}"
        else:
            cs = _ratfunc_str(n, d)
            # one term over 1 is the only coefficient that is no sum and has
            # no '/'; of those, a power of eps times |c| != 1 has a '*'
            if d != (1,) or len(n) - n.count(0) > 1 or (mono and len(n) > 1 and abs(n[-1]) != 1):
                cs = f"({cs})"
            body = f"{cs}*{mono}" if mono else cs
        parts.append(body if not parts or body[0] == "-" else "+" + body)
    return "".join(parts) or "0"


def poly_str(names: Sequence[str], terms: Mapping[tuple[int, ...], RatFunc]) -> str:
    """The verdict polynomial `terms` (see the module docstring) in the
    indeterminates `names`: by total degree, highest first, then by
    exponent tuple, descending; each monomial is its powers of `names`
    joined by '*'."""
    expos = ((tuple(key.count(i) for i in range(len(names))), c) for key, c in terms.items())
    return terms_str(("*".join(_power(x, e) for x, e in zip(names, expo) if e), c)
                     for expo, c in sorted(expos, key=lambda t: (sum(t[0]), t[0]), reverse=True))


def mu_poly_str(coeffs: Sequence[RatFunc]) -> str:
    """The polynomial sum_k coeffs[k] mu^k, highest degree first, as
    `poly_str` prints it in the one indeterminate mu."""
    return terms_str((_power("mu", k), c) for k, c in reversed(list(enumerate(coeffs))))


# ---------------------------------------------------------------------------
# rational functions in canonical form


class RatFunc:
    """Quotient of two polynomials in eps in canonical form.

    Stored as integer coefficient tuples N/D (lowest degree first, no
    trailing zero) that are coprime in Z[eps] with their contents included,
    with lc(D) > 0; the zero function is ()/(1,).  Equality is structural
    on the pair, and a constant equals, and hashes as, its `Fraction`.
    `zeros` and `poles` read the rational roots of N and D off the tuples.
    The constructor takes a rational numerator and denominator; `ratfunc`
    and `parse_scalar` build the rest.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num=0, den=1):
        if type(num) is type(den) is int and den == 1:
            self._n, self._d = ((num,) if num else ()), (1,)
            return
        den = _fraction(den)
        if not den:
            raise DivisionByZeroFunction("division by zero")
        q = _fraction(num) / den
        self._n, self._d = ((q.numerator,) if q else ()), (q.denominator,)

    @classmethod
    def eps(cls) -> "RatFunc":
        return _ratfunc((0, 1), (1,))

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

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self) -> int:
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self._n, self._d))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return _ratfunc((int(other),) if other else (), (1,))
        if isinstance(other, Fraction):
            return _ratfunc((other.numerator,) if other else (), (other.denominator,))
        return None

    def __add__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        return _plus(self._n, self._d, o._n, o._d)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _ratfunc(_zneg(self._n), self._d)

    def __sub__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        return _plus(self._n, self._d, _zneg(o._n), o._d)

    def __rsub__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        return _plus(o._n, o._d, _zneg(self._n), self._d)

    def __mul__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        return _times(self._n, self._d, o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
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

    def _eval_ints(self, x: Fraction) -> tuple[int, int]:
        """Integers (a, b) with a / b the value at x."""
        p, q = x.numerator, x.denominator
        dv = _zhomogeneous(self._d, p, q)
        if dv == 0:
            raise PoleAtEvaluationPoint(f"{self} has a pole at {PARAM}={x}")
        # N(x) / D(x) = q^(deg D - deg N) * nv / dv
        nv = _zhomogeneous(self._n, p, q)
        shift = len(self._d) - len(self._n)
        if shift >= 0:
            return nv * q**shift, dv
        return nv, dv * q**-shift

    def eval(self, x: Fraction) -> Fraction:
        return Fraction(*self._eval_ints(_fraction(x)))

    def eval_float(self, x: Fraction) -> float:
        """float(self.eval(x)) without the Fraction: one int/int division,
        which Python rounds correctly (over a positive divisor, so that a
        zero is +0.0)."""
        a, b = self._eval_ints(_fraction(x))
        return a / b if b > 0 else -a / -b

    def __str__(self) -> str:
        return _ratfunc_str(self._n, self._d)

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


ZERO = RatFunc(0)
ONE = RatFunc(1)
EPS = RatFunc.eps()


def ratfunc(value) -> RatFunc:
    """Coerce an int, Fraction, RatFunc, or scalar text to RatFunc."""
    if isinstance(value, str):
        return parse_scalar(value)
    out = RatFunc._coerce(value)
    if out is None:
        raise TypeError(f"cannot make a RatFunc of {type(value).__name__}")
    return out


# ---------------------------------------------------------------------------
# scalar text syntax


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\S)")
_MAX_POWER_DEGREE, _MAX_POWER_BITS = 256, 1 << 16


class _ScalarParser:
    """Recursive descent over the tokens of the text (runs of decimal
    digits, identifiers, single characters): expr := term (('+'|'-') term)*;
    term := unary (('*'|'/') unary)*; unary := '-' unary | power;
    power := atom ('^' nonneg_int)?; atom := int | 'eps' | '(' expr ')'.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]  # "" marks the end
        self.pos = 0

    def error(self, message: str) -> ScalarSyntaxError:
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ScalarSyntaxError(message, starts[self.pos])

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take_int(self) -> int:
        """The next token, a run of decimal digits, consumed as an int."""
        token = self.peek()
        try:
            value = int(token)
        except ValueError:  # longer than `sys.get_int_max_str_digits()`
            raise self.error(f"number of {len(token)} digits is too long") from None
        self.pos += 1
        return value

    def take(self, *tokens: str) -> str:
        """The next token, consumed, if it is one of `tokens`; else ''."""
        token = self.tokens[self.pos]
        if token in tokens:
            self.pos += 1
            return token
        return ""

    def parse(self) -> RatFunc:
        value = self.parse_expr()
        if self.peek():
            raise self.error(f"unexpected character {self.peek()[0]!r}")
        return value

    def parse_expr(self) -> RatFunc:
        value = self.parse_term()
        while op := self.take("+", "-"):
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> RatFunc:
        value = self.parse_unary()
        while op := self.take("*", "/"):
            rhs = self.parse_unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_unary(self) -> RatFunc:
        if self.take("-"):
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> RatFunc:
        base = self.parse_atom()
        if not self.take("^"):
            return base
        if not self.peek().isdecimal():
            raise self.error("expected a nonnegative integer exponent")
        k = self.take_int()
        degree = max(len(base._n), len(base._d)) - 1
        bits = max(abs(c).bit_length() for c in base._n + base._d)
        if k * degree > _MAX_POWER_DEGREE or k * bits > _MAX_POWER_BITS:
            self.pos -= 1  # the error points at the exponent
            raise self.error(f"power ^{k} is too large")
        return base ** k

    def parse_atom(self) -> RatFunc:
        token = self.peek()
        if self.take("("):
            value = self.parse_expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return value
        if token.isdecimal():
            return RatFunc(self.take_int())
        if self.take(PARAM):
            return EPS
        if token.startswith(PARAM):
            raise self.error(f"unknown symbol starting at {token[:len(PARAM) + 1]!r}")
        raise self.error("expected a number, 'eps', or '('")


def parse_scalar(text: str) -> RatFunc:
    """Parse the scalar text syntax, raising ScalarSyntaxError on bad input.

    Division by a subexpression that is identically zero raises
    DivisionByZeroFunction, as in '1/(eps-eps)'.
    """
    return _ScalarParser(text).parse()


def component_names(dim: int) -> tuple[str, ...]:
    """Coordinate indeterminate names for a generic invariant vector (the
    dimension is at most 4, `algebra.MAX_DIM`)."""
    return ("a", "b", "c", "d")[:dim]


def record(cls=None, *, frozen=False):
    """Make a class of annotated fields a plain record, as `@record` or
    `@record(frozen=True)`.

    The fields are the class's own annotations, in order; a class attribute
    of a field's name is its default, and defaults trail.  The class gets:
    an `__init__` that takes the fields by position or keyword (fastest
    given every field, all by position or all by keyword) and then calls
    `__post_init__` when the class has one; `__eq__` on the field tuples of
    two instances of the same class; a `Name(field=value, ...)` `__repr__`;
    and `__match_args__`.  A frozen record refuses to set or delete an
    attribute and hashes its field tuple; any other record is unhashable.
    `functools.cached_property` still caches on a frozen record, since it
    writes the instance `__dict__` directly.  A method the class defines
    itself is kept.  The methods are closures over the field names, so
    defining a record class compiles nothing and imports nothing.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    name = cls.__qualname__
    fields = tuple(cls.__annotations__)
    field_set = frozenset(fields)
    n = len(fields)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    if any(f not in defaults for f in fields[n - len(defaults):]):
        raise TypeError(f"{name}: a field without a default follows one with a default")
    post_init = getattr(cls, "__post_init__", None)

    def values(self) -> tuple:
        return tuple([getattr(self, f) for f in fields])

    def bind(args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not give every field once,
        all by position or all by keyword."""
        if len(args) > n:
            raise TypeError(f"{name}() takes {n} positional arguments but {len(args)} were given")
        bound, missing = list(args), []
        for f in fields[len(args):]:
            if f in kwargs:
                bound.append(kwargs.pop(f))
            elif f in defaults:
                bound.append(defaults[f])
            else:
                missing.append(f)
        for key in kwargs:  # left over: given by position as well, or no field
            problem = "multiple values for" if key in field_set else "an unexpected keyword"
            raise TypeError(f"{name}() got {problem} argument {key!r}")
        if missing:
            raise TypeError(f"{name}() missing required argument(s): "
                            + ", ".join(map(repr, missing)))
        return bound

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == n:
            self.__dict__.update(zip(fields, args))
        elif not args and kwargs.keys() == field_set:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(zip(fields, bind(args, kwargs)))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self) -> str:
        return f"{name}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__match_args__": fields, "__hash__": None}
    if frozen:
        def __setattr__(self, key, value):
            raise AttributeError(f"cannot set attribute {key!r} of frozen {name}")

        def __delattr__(self, key):
            raise AttributeError(f"cannot delete attribute {key!r} of frozen {name}")

        def __hash__(self) -> int:
            return hash(values(self))

        methods.update(__setattr__=__setattr__, __delattr__=__delattr__, __hash__=__hash__)
    for attr, value in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, value)
    return cls
