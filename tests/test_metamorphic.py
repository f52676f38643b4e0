"""Metamorphic relations: the engine against itself, on an input changed in
a way whose effect on the answers is known (ROADMAP item 21).

  * R2 scales the metric by a constant c (c = 3 and c = -1).  The
    Levi-Civita connection does not change, so neither do Ricci, the
    Killing, geodesic and Walker conditions, Ledger and the harmonic
    families; Einstein's lam and the eigenvalues of the rough Laplacian
    scale by 1/c, and no exceptional eps moves.
  * R3 re-expresses the algebra in a signed permutation of its basis
    (`transform_basis`), drawn from a generator seeded by the algebra's
    name (`zlib.crc32`): every verdict, every eps set and every refusal
    stays.

`invariants` reads the parts of each answer that both relations keep:
`singular_eps`; Einstein's generic verdict and exceptional eps; the
Killing dimension and the exceptional (eps, dimension) pairs; the number
of geodesic components and their exceptional eps; the Walker verdict and
its exceptional (eps, admits) pairs; a refusal of either case analysis;
both Ledger booleans; and each harmonic family's multiplicity, flags and
harmonic eps, the degree of the unresolved factor and the number of
parallel fields.  The algebras are the benchmark corpus and
`test_properties.GENERATED`.  R1 (reparametrizing eps) and R4 (a direct
sum with a flat line) are left for later.
"""

import random
import zlib

import pytest

from liegeom import loads
from liegeom.algebra import MetricLieAlgebra
from liegeom.geometry import (
    CaseAnalysisIncomplete,
    einstein_check,
    geodesic_classify,
    harmonicity_classify,
    killing_solve,
    ledger_check,
    walker_check,
)
from liegeom.scalars import ratfunc

import test_properties

ALGEBRAS = {key: loads(text) for key, text in test_properties.corpus.TEXTS.items()}
ALGEBRAS.update(test_properties.GENERATED)


def refused_or(analysis, alg, read):
    """`read` of the verdict of `analysis`, or "refused" when its case
    analysis cannot finish."""
    try:
        return read(analysis(alg))
    except CaseAnalysisIncomplete:
        return "refused"


def invariants(alg: MetricLieAlgebra) -> dict:
    einstein = einstein_check(alg)
    killing = killing_solve(alg)
    ledger = ledger_check(alg)
    harmonic = harmonicity_classify(alg)
    return {
        "singular_eps": alg.singular_parameters(),
        "einstein": (einstein.generic, [eps for eps, _ in einstein.exceptional]),
        "killing": (len(killing.basis),
                    [(b.eps, len(b.result.kernel)) for b in killing.exceptional]),
        "geodesic": refused_or(geodesic_classify, alg, lambda v: (
            len(v.components), [b.eps for b in v.exceptional])),
        "walker": refused_or(walker_check, alg, lambda v: (
            v.is_walker, [(eps, admits) for eps, admits, _ in v.exceptional])),
        "ledger": (ledger.l3_holds, ledger.l5_holds),
        "harmonic": (
            sorted((f.multiplicity, f.trace_vanishes, f.section_harmonic, f.map_harmonic,
                    f.harmonic_eps) for f in harmonic.families),
            len(alg.laplacian_spectrum.residual) - 1,
            len(harmonic.parallel_basis),
        ),
    }


def scale_metric(alg: MetricLieAlgebra, c) -> MetricLieAlgebra:
    """R2: the same brackets with the metric c g."""
    c = ratfunc(c)
    return MetricLieAlgebra(f"{alg.name}*{c}", alg.dim, alg.brackets,
                            tuple(tuple(c * x for x in row) for row in alg.metric))


def permute_basis(alg: MetricLieAlgebra) -> MetricLieAlgebra:
    """R3: the algebra in the basis Yi = s_i X_{p(i)}, the permutation p and
    the signs s drawn from a generator seeded by the crc32 of the name."""
    rng = random.Random(zlib.crc32(alg.name.encode()))
    order = rng.sample(range(alg.dim), alg.dim)
    P = [[0] * alg.dim for _ in range(alg.dim)]
    for i, r in enumerate(order):
        P[r][i] = rng.choice((1, -1))
    return alg.transform_basis(P, name=f"{alg.name}/signed-permutation")


RELATIONS = {
    "R2-c=3": lambda alg: scale_metric(alg, 3),
    "R2-c=-1": lambda alg: scale_metric(alg, -1),
    "R3": permute_basis,
}


def mismatches(alg: MetricLieAlgebra, relations) -> list[tuple[str, str]]:
    """(relation, section) for every section whose invariants differ
    between `alg` and its image under a relation."""
    base = invariants(alg)
    out = []
    for name, change in relations.items():
        image = invariants(change(alg))
        out.extend((name, section) for section in base if image[section] != base[section])
    return out


@pytest.mark.parametrize("key", list(ALGEBRAS))
def test_relations_keep_the_invariants(key):
    assert mismatches(ALGEBRAS[key], RELATIONS) == []


def test_a_wrong_relation_is_reported():
    # scaling one diagonal entry is no scaling of the metric: the round
    # Berger sphere (eps = 1) moves to eps = 1/3, and the exceptional eps of
    # Einstein, Killing and geodesic move with it
    def scale_first_entry(alg):
        G = [list(row) for row in alg.metric]
        G[0][0] = 3 * G[0][0]
        return MetricLieAlgebra(alg.name, alg.dim, alg.brackets, tuple(map(tuple, G)))

    assert mismatches(ALGEBRAS["berger"], {"wrong": scale_first_entry}) == [
        ("wrong", "einstein"), ("wrong", "killing"), ("wrong", "geodesic")]
