"""The spectral step against the route it replaced.

`solvers.eigen_analyze` finds the rational-function eigenvalues on integer
coefficient tuples in Z[eps][nu]: it clears the denominators of the
characteristic polynomial, takes the squarefree part by a primitive
pseudo-remainder sequence, Newton-lifts integer roots and counts
multiplicities by synthetic division.  The reference below is the older
route over Q(eps), kept as it was: the squarefree part by Euclid's
algorithm on `RatFunc` coefficients, the lcm of the monic denominators of
that part over Q, the lift through Horner's rule on `Poly`s of `Poly`s,
and multiplicities by repeated division over Q(eps), all on the reference
polynomials of `poly_reference`, starting from the characteristic
polynomial by Laplace expansion on `Poly` entries.  Both must give the
same eigenvalues in the same order, the same multiplicities and the same
residual factor, on the corpus Laplacians (unmixed and under three mixing
seeds), on the property algebras, and on dense matrices P T P^-1 whose
triangular T repeats diagonal entries, so that the sequence meets
repeated roots in a matrix that is not triangular.
"""

import itertools
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegeom.scalars import EPS, ONE, ZERO, _clear
from liegeom.solvers import eigen_analyze
from poly_reference import (
    Poly,
    check,
    denominator,
    laplace_charpoly,
    mat_inv,
    mat_mul,
    numerator,
    poly_div_exact,
    poly_gcd,
    poly_rational_roots,
    ratfunc_of,
    square_free_part,
)

import test_properties
from test_solvers import small_ratfuncs
from test_tensor_reference import CORPUS_CASES, CORPUS_IDS, corpus_case


def horner(coeffs, x, terms=None):
    """sum_k coeffs[k] * x^k over Poly arithmetic, keeping only the lowest
    `terms` coefficients of every partial sum when `terms` is given."""
    acc = Poly()
    for c in reversed(coeffs):
        acc = acc * x + c
        if terms is not None:
            acc = Poly(acc.coeffs[:terms])
    return acc


def reference_rational_roots(p):
    """Every root of p in Q(eps), ascending as eps -> +oo: q(nu) =
    D^m s(nu/D) for the squarefree part s and the lcm D of its monic
    denominators, each rational root of q at a squarefree sample
    Newton-lifted to the degree bound and kept if it solves q exactly."""
    s = square_free_part(p)
    m = s.degree
    D = Poly((1,))
    for c in s.coeffs:
        D = (D.pdivmod(poly_gcd(D, denominator(c)))[0] * denominator(c)).monic()
    q = [numerator(c) * poly_div_exact(D ** (m - k), denominator(c))
         for k, c in enumerate(s.coeffs)]
    bound = max((q[k].degree // (m - k) for k in range(m) if not q[k].is_zero), default=0)
    for k in itertools.count():
        eps0 = Fraction((k + 1) // 2 * (1 if k % 2 else -1))
        q0 = Poly([c.eval(eps0) for c in q])
        if square_free_part(q0).degree == m:
            break
    shifted = [horner(c.coeffs, Poly((eps0, 1))) for c in q]
    roots = []
    for r0, _ in poly_rational_roots(q0):
        slope = q0.derivative().eval(r0)
        nu = Poly((r0,))
        for k in range(1, bound + 1):
            value = horner(shifted, nu, k + 1)
            if value.degree == k:
                nu = nu + Poly([0] * k + [-value.coeffs[k] / slope])
        nu = horner(nu.coeffs, Poly((-eps0, 1)))
        if horner(q, nu).is_zero:
            roots.append(ratfunc_of(nu, D))
    return sorted(roots, key=cmp_to_key(lambda f, g: numerator(f - g).leading))


def reference_spectrum(matrix):
    """(eigenvalue, multiplicity) pairs and the residual factor, with the
    multiplicities read off by repeated division over Q(eps)."""
    residual = laplace_charpoly(matrix)
    pairs = []
    for f in reference_rational_roots(residual):
        factor = Poly((-f, ONE))
        mult = 0
        while residual.degree >= 1:
            quo, rem = residual.pdivmod(factor)
            if not rem.is_zero:
                break
            residual = quo
            mult += 1
        pairs.append((f, mult))
    return pairs, residual


def check_spectrum_against_reference(matrix):
    dec = eigen_analyze(*_clear(matrix))
    pairs, residual = reference_spectrum(matrix)
    assert [(p.value, p.multiplicity) for p in dec.pairs] == pairs
    assert dec.residual == residual.coeffs
    check(dec.residual)


@pytest.mark.parametrize(("key", "seed"), CORPUS_CASES, ids=CORPUS_IDS)
def test_corpus_spectrum_matches_reference(corpus_alg, key, seed):
    check_spectrum_against_reference(corpus_case(corpus_alg, key, seed).rough_laplacian)


@pytest.mark.parametrize("key", list(test_properties.GENERATED))
def test_property_spectrum_matches_reference(key):
    check_spectrum_against_reference(test_properties.GENERATED[key].rough_laplacian)


def unimodular(rng, n):
    """A product of 2n random integer shears: dense, with determinant 1."""
    P = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        P[i] = [x + k * y for x, y in zip(P[i], P[j])]
    return P


@st.composite
def conjugated_triangular(draw):
    """P T P^-1: T upper triangular with a diagonal drawn from at most n
    values, so that eigenvalues repeat; P a seeded unimodular matrix."""
    n = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(small_ratfuncs, min_size=1, max_size=n))
    diagonal = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    above = st.sampled_from([ZERO, ZERO, ONE, -ONE, EPS, 2 * ONE])
    T = [[diagonal[i] if i == j else draw(above) if j > i else ZERO for j in range(n)]
         for i in range(n)]
    P = unimodular(random.Random(draw(st.integers(0, 2**16))), n)
    return mat_mul(mat_mul(P, T), mat_inv(P)), diagonal


@settings(max_examples=60, deadline=None)
@given(conjugated_triangular())
def test_conjugated_triangular_spectrum_matches_reference(case):
    matrix, diagonal = case
    check_spectrum_against_reference(matrix)
    dec = eigen_analyze(*_clear(matrix))
    assert sorted(str(p.value) for p in dec.pairs for _ in range(p.multiplicity)) == sorted(
        str(x) for x in diagonal)
