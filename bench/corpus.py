"""The fixed corpus of metric Lie algebras and the three workloads built on it.

Each algebra is kept as text in the `liegeom` algebra file format, exactly
what a user hands to `liegeom report --algebra FILE`, with one line saying
why it is in the corpus.  The workloads are:

* ``report-3d``: the full report on the paper's own 3-dimensional family.
  Only dimension 3 runs the Walker null-cone scan
  (`numeric.null_parallel_scan`), so a change to that scan shows here and
  nowhere else.
* ``report-4d``: the full report in dimension 4, where the tensor layer
  (`ledger_check` -> `cov_curvature`) does most of the work and the Walker
  scan is bypassed.  ``r4`` makes the geodesic case analysis refuse
  (`CaseAnalysisIncomplete`); it stays in the corpus and its refusal counts
  as a failed operation until the engine can answer it.
* ``basis-mixed``: every algebra above after a seeded unimodular integer
  change of basis, running only the basis-invariant sections.  The metrics
  become dense and the coefficients larger: the same sections make 1.3x the
  `RatFunc` constructions of the diagonal corpora (1.7-1.8x in dimension 3),
  on larger operands, so the scalar field's cost shows most here.  Geodesic
  and Walker are left out because they are basis-dependent and refuse in a
  mixed basis.
"""

from __future__ import annotations

import random

# (key, why it is in the corpus, algebra text)
ALGEBRAS = [
    (
        "berger",
        "the paper's one-parameter deformation of su(2); carries the catalog notes",
        """\
name: berger-sphere
dim: 3
bracket: 1 2 -> 3 : 2
bracket: 1 3 -> 2 : -2
bracket: 2 3 -> 1 : 2
metric:
eps 0 0
0 1 0
0 0 1
""",
    ),
    (
        "abelian",
        "flat Lorentzian control: every curvature term vanishes and a null parallel line exists",
        """\
name: abelian-lorentz
dim: 3
metric:
-1 0 0
0 1 0
0 0 1
""",
    ),
    (
        "sl2r",
        "simple non-compact sl(2,R) with diag(1,1,eps): Einstein only at eps=-1",
        """\
name: sl2r
dim: 3
bracket: 1 2 -> 3 : -1
bracket: 1 3 -> 2 : -1
bracket: 2 3 -> 1 : 1
metric:
1 0 0
0 1 0
0 0 eps
""",
    ),
    (
        "e2",
        "solvable Euclidean-motion algebra e(2) with diag(eps,1,1): non-abelian yet flat for every eps",
        """\
name: e2
dim: 3
bracket: 1 2 -> 3 : 1
bracket: 1 3 -> 2 : -1
metric:
eps 0 0
0 1 0
0 0 1
""",
    ),
    (
        "heisenberg",
        "nilpotent Heisenberg algebra with diag(1,eps,1): scalar curvature -1/(2*eps), a pole at 0",
        """\
name: heisenberg
dim: 3
bracket: 1 2 -> 3 : 1
metric:
1 0 0
0 eps 0
0 0 1
""",
    ),
    (
        "u2",
        "u(2) = su(2)+R with diag(eps,1,1,1): the berger family times a flat line, non-flat 4D",
        """\
name: u2
dim: 4
bracket: 1 2 -> 3 : 2
bracket: 1 3 -> 2 : -2
bracket: 2 3 -> 1 : 2
metric:
eps 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
""",
    ),
    (
        "oscillator",
        "oscillator algebra, Lorentzian metric pairing X3 and X4 (g34=1, g44=eps): a null parallel line",
        """\
name: oscillator
dim: 4
bracket: 1 2 -> 3 : 1
bracket: 1 4 -> 2 : -1
bracket: 2 4 -> 1 : 1
metric:
1 0 0 0
0 1 0 0
0 0 0 1
0 0 1 eps
""",
    ),
    (
        "heisenberg-x-r",
        "Heisenberg x R with diag(1,1,eps,-1): 4D nilpotent with an indefinite metric",
        """\
name: heisenberg-x-r
dim: 4
bracket: 1 2 -> 3 : 1
metric:
1 0 0 0
0 1 0 0
0 0 eps 0
0 0 0 -1
""",
    ),
    (
        "r4",
        "solvable r4 with an eps-dependent bracket; the geodesic analysis refuses on it",
        """\
name: r4
dim: 4
bracket: 1 4 -> 1 : 1
bracket: 2 4 -> 2 : eps/5
bracket: 3 4 -> 3 : 2
metric:
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
""",
    ),
]

TEXTS = {key: text for key, _, text in ALGEBRAS}
WHY = {key: why for key, why, _ in ALGEBRAS}

# The basis-invariant sections of the full report, in report order.
INVARIANT_SECTIONS = (
    "algebra", "connection", "curvature", "ricci", "soliton", "killing",
    "ledger", "harmonic", "energy",
)

WORKLOADS = {
    "report-3d": {
        "kind": "full",
        "algebras": ("berger", "abelian", "sl2r", "e2", "heisenberg"),
    },
    "report-4d": {
        "kind": "full",
        "algebras": ("u2", "oscillator", "heisenberg-x-r", "r4"),
    },
    "basis-mixed": {
        "kind": "mixed",
        "algebras": tuple(TEXTS),
    },
}


def mixing_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """A unimodular integer matrix P0*S: P0 adds X1 to X2 and to X3, and S
    is a seeded signed permutation of the new basis vectors.

    The seed changes the basis, and with it every printed coefficient and
    the pivots the solvers meet, but not the size of the coefficients: the
    scalar work of one report is the same for every seed, so that the
    seed does not move the timings.  Random products of shears vary that
    work by 10-20% per algebra, and denser matrices make single 4D reports
    take tens of seconds.
    """
    P0 = [[int(i == j or (i == 0 and j in (1, 2))) for j in range(n)] for i in range(n)]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[P0[i][perm[j]] * signs[j] for j in range(n)] for i in range(n)]
