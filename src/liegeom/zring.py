"""Z[eps]: integer polynomials in the parameter, and the matrices, tensors
and polynomials in a second variable that the engine builds of them.

The contract, for every function here and every caller.  An element of
Z[eps] is a tuple of ints, its coefficients lowest degree first, with no
trailing zero; the zero polynomial is ().  So len(a) - 1 is the degree,
a[-1] the leading coefficient lc(a), and a zero test is a truth test.  A
gcd (`zgcd`, `zlcm`, `zcommon`) includes the content of its operands and
has lc > 0; `zlcm` and `zcommon` take operands with lc > 0 as well.  A
polynomial in nu over Z[eps] is a list of such tuples, lowest degree in nu
first, with no trailing ().  An integer tensor is nested lists (or a dict
of them) whose leaves are tuples, entry x / d over one denominator tuple d
with lc(d) > 0; a matrix given by its `znonzero` rows lists only the
(column, entry) pairs of its nonzero entries.  This module imports only
the stdlib; `scalars.RatFunc` keeps its canonical pair on top of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

# ---------------------------------------------------------------------------
# the ring: arithmetic, exact division, gcds and rational roots


def zneg(a: tuple) -> tuple:
    return tuple([-x for x in a])


def zdiv_int(a: tuple, c: int) -> tuple:
    """a / c for an integer c dividing every coefficient."""
    return a if c == 1 else tuple([x // c for x in a])


def zadd(a: tuple, b: tuple) -> tuple:
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


def zmul(a: tuple, b: tuple) -> tuple:
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


def zpow(a: tuple, n: int) -> tuple:
    result = (1,)
    while n:
        if n & 1:
            result = zmul(result, a)
        a = zmul(a, a)
        n >>= 1
    return result


def zdiv_exact(a: tuple, b: tuple) -> tuple:
    """a / b for a nonzero b that divides a in Z[eps]; by one integer
    division per coefficient when b is c*eps^k."""
    if not any(b[:-1]):
        return zdiv_int(a[len(b) - 1:], b[-1])
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


def zprem(u: tuple, v: tuple) -> tuple:
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


def zprs(u: tuple, v: tuple) -> list[tuple]:
    """Subresultant PRS of u and v, deg u >= deg v > 0 (Knuth, TAOCP vol. 2,
    4.6.1, Algorithm C): u, v, then every nonzero pseudo-remainder divided
    by g*h^delta, so its coefficients stay the size of the subresultants.
    The last element is a gcd of u and v up to content.
    """
    seq = [u, v]
    g = h = 1
    while True:
        delta = len(u) - len(v)
        r = zprem(u, v)
        if not r:
            return seq
        u, v = v, zdiv_int(r, g * h**delta)
        seq.append(v)
        if len(v) == 1:
            return seq
        g = u[-1]
        if delta:
            h = g**delta // h ** (delta - 1)


def zgcd(a: tuple, b: tuple) -> tuple:
    """gcd of two nonzero polynomials in Z[eps], content included, lc > 0.

    eps is prime in Z[eps], so the gcd is eps^min(valuations) times the gcd
    of the parts without the factor eps; when one of those is a constant the
    rest is the integer gcd of the contents.  Otherwise it is the content
    gcd times the gcd of the primitive parts: a linear part is irreducible,
    so one test at its root decides between it and 1, and two parts of
    degree 2 or more take the primitive part of the last element of `zprs`.
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
    u, v = zdiv_int(a, ca), zdiv_int(b, cb)
    if len(u) < len(v):
        u, v = v, u
    if len(v) == 2:
        if zhomogeneous(u, -v[0], v[1]):
            return shift + (c,)
    else:
        v = zprs(u, v)[-1]
        if len(v) == 1:
            return shift + (c,)
    pv = gcd(*v) if v[-1] > 0 else -gcd(*v)
    return shift + tuple(c * (x // pv) for x in v)


def zval(a: tuple) -> int:
    """The power of eps that divides the nonzero a."""
    return next(i for i, x in enumerate(a) if x)


def zlcm(a: tuple, b: tuple) -> tuple:
    """lcm of two polynomials in Z[eps] with lc > 0, content included; of
    two c*eps^k, the lcm of the constants times the higher power of eps."""
    if a == b:
        return a
    if not (any(a[:-1]) or any(b[:-1])):
        return (0,) * (max(len(a), len(b)) - 1) + (lcm(a[-1], b[-1]),)
    return zmul(a, zdiv_exact(b, zgcd(a, b)))


def zdot(u: Iterable[tuple], v: Iterable[tuple]) -> tuple:
    """sum_k u[k] v[k] in Z[eps], over the shorter of the two, past the
    terms with a zero factor."""
    acc = ()
    for x, y in zip(u, v):
        if x and y:
            acc = zadd(acc, zmul(x, y))
    return acc


def zcommon(D: tuple, nums: Iterable[tuple]) -> tuple:
    """The gcd in Z[eps] of D and the numerators `nums`.

    Once the gcd so far is c*eps^k, which it is from the start for the
    denominators the tensor layer meets, the rest is the integer gcd of the
    coefficients and the lowest valuation, and the scan stops when both
    reach 1; `zgcd` runs only before that."""
    g = D
    for a in nums:
        if not a:
            continue
        if any(g[:-1]):
            g = zgcd(g, a)
            continue
        k, c = len(g) - 1, g[-1]
        if c == 1 and not k:
            break
        if c != 1:
            c = gcd(c, *a)
        if k:
            k = 0 if a[0] else min(k, zval(a))
        g = (0,) * k + (c,)
    return g


def zhomogeneous(a: tuple, p: int, q: int) -> int:
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


def zroots(a: tuple) -> list[tuple[Fraction, int]]:
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
        a = zdiv_int(a, gcd(*a))
        qs = _divisors(abs(a[-1]))
        candidates = {
            Fraction(sign * p, q) for p in _divisors(abs(a[0])) for q in qs for sign in (1, -1)
        }
        for r in candidates:
            p, q = r.numerator, r.denominator
            mult = 0
            while len(a) > 1 and zhomogeneous(a, p, q) == 0:
                a = zdiv_exact(a, (-p, q))
                mult += 1
            if mult:
                roots.append((r, mult))
    return sorted(roots)


# ---------------------------------------------------------------------------
# polynomials in nu over Z[eps]


def zsubs(a: Sequence[tuple], x: tuple, terms: int | None = None) -> tuple:
    """sum_k a[k] x^k in Z[eps], each partial sum cut to `terms` terms."""
    acc = ()
    for c in reversed(a):
        acc = zadd(zmul(acc, x), c)[:terms]
    return acc


def zshift(a: tuple, c: int) -> tuple:
    """a(eps + c)."""
    return zsubs([(x,) if x else () for x in a], (c, 1))


def zpdivmod(u: list, v: list) -> tuple[list, list]:
    """The remainder of lc(v)^(deg u - deg v + 1) u by v (`zprem` one level
    up), and the quotient, which is exact when v is monic."""
    dv = len(v) - 1
    r, quo = list(u), []
    for k in range(len(u) - 1 - dv, -1, -1):
        c = r[k + dv]
        quo.append(c)
        r = [zmul(v[-1], x) for x in r[:k + dv]]
        for j in range(dv):
            r[k + j] = zadd(r[k + j], zneg(zmul(c, v[j])))
    while r and not r[-1]:
        r.pop()
    return quo[::-1], r


def zprimitive(a: list) -> list:
    """a divided by the gcd in Z[eps] of its coefficients, lc(lc(a)) > 0."""
    g = reduce(zgcd, (c for c in a if c))
    g = zneg(g) if (g[-1] < 0) != (a[-1][-1] < 0) else g
    return a if g == (1,) else [zdiv_exact(c, g) for c in a]


def zsquarefree(q: list) -> list:
    """q / gcd(q, dq/dnu) for a monic q, by the primitive pseudo-remainder
    sequence.  The primitive gcd divides q, so it is monic too."""
    u, v = q, zprimitive([zmul((k,), q[k]) for k in range(1, len(q))])
    while len(v) > 1:
        r = zpdivmod(u, v)[1]
        if not r:
            return zpdivmod(q, v)[0]
        u, v = v, zprimitive(r)
    return q


# ---------------------------------------------------------------------------
# integer tensors and matrices


def zleaves(T) -> list[tuple]:
    """The numerators of an integer tensor."""
    T = list(T.values()) if type(T) is dict else T
    while type(T[0]) is not tuple:
        T = [x for sub in T for x in sub]
    return T


def zmap(f, T):
    """The integer tensor T with f applied to each numerator."""
    if type(T) is dict:
        return {key: zmap(f, x) for key, x in T.items()}
    if type(T) is tuple:
        return f(T)
    if type(T[0]) is tuple:
        return [f(x) for x in T]
    return [zmap(f, x) for x in T]


def ztensor(T, d: tuple):
    """(T, d) divided by the gcd of d and every numerator of T (`zcommon`),
    so that the degrees stay those of the canonical entries."""
    if not T:
        return T, d
    g = zcommon(d, zleaves(T))
    if g == (1,):
        return T, d
    return zmap(lambda x: zdiv_exact(x, g), T), zdiv_exact(d, g)


def znonzero(row) -> list[tuple[int, tuple]]:
    """The (index, numerator) pairs of the nonzero entries of an integer row."""
    return [(k, x) for k, x in enumerate(row) if x]


def zadd_scaled(out, s: tuple, a) -> None:
    """out += s a in place, for an integer matrix `a` given by its
    `znonzero` rows."""
    for orow, row in zip(out, a):
        for c, y in row:
            orow[c] = zadd(orow[c], zmul(s, y))


def zscatter(out, a, b, s: tuple = (1,)) -> None:
    """out += s a b in place, for integer matrices `a` and `b` given by
    their `znonzero` rows."""
    for orow, row in zip(out, a):
        for t, x in row:
            if s != (1,):
                x = zmul(s, x)
            for c, y in b[t]:
                orow[c] = zadd(orow[c], zmul(x, y))


def zdet(N) -> tuple:
    """det N of a square integer matrix (1 for the empty one), by Laplace
    expansion along the first row over its nonzero entries."""
    if len(N) < 2:
        return N[0][0] if N else (1,)
    acc = ()
    for j, x in znonzero(N[0]):
        if minor := zdet([row[:j] + row[j + 1:] for row in N[1:]]):
            term = zmul(x, minor)
            acc = zadd(acc, zneg(term) if j % 2 else term)
    return acc


def zinverse(N, d: tuple, det: tuple) -> tuple[list, tuple]:
    """(N / d)^{-1} = d adj(N) / det N for a square integer matrix N over d,
    given its nonzero det N (`zdet`), reduced once by `ztensor`.  The
    cofactors are minors, so no second full-size determinant is formed."""
    if det[-1] < 0:
        det, d = zneg(det), zneg(d)
    n, s = len(N), (d, zneg(d))
    adj = [[()] * n for _ in range(n)]
    for i in range(n):
        rows = N[:i] + N[i + 1:]
        for j in range(n):
            if minor := zdet([row[:j] + row[j + 1:] for row in rows]):
                adj[j][i] = zmul(minor, s[(i + j) % 2])
    return ztensor(adj, det)
