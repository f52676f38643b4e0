"""Full reports of the almost-abelian family and of its mixed-basis copy.

Run from the root of a source checkout:

    PYTHONPATH=src:tests python tests/almost_abelian_sweep.py [PER_DIM]

It builds `test_properties.almost_abelian_family(PER_DIM)` (default 150
algebras per dimension) and `test_properties.mixed_copies` of it, and prints
one line per algebra: the family ("unmixed" or "mixed"), the dimension, the
name, "ok" or "refused" for the geodesic and the Walker section, and the
sha256 of the JSON full report, or "-" when a section refused.  A section
refuses by raising `CaseAnalysisIncomplete`; any other exception ends the
run with a traceback and a nonzero exit.  `test_properties` runs it under
two values of ``PYTHONHASHSEED`` and compares the lines.

The file name does not match pytest's ``test_*.py`` pattern, so the suite
does not collect it.
"""

from __future__ import annotations

import hashlib
import sys

from liegeom.geometry import CaseAnalysisIncomplete
from liegeom.report import full_report, geodesic_section, render_json, walker_section

import test_properties


def main(per_dim: int = 150) -> int:
    unmixed = test_properties.almost_abelian_family(per_dim)
    families = (("unmixed", unmixed), ("mixed", test_properties.mixed_copies(unmixed)))
    for family, algebras in families:
        for alg in algebras:
            status = []
            for section in (geodesic_section, walker_section):
                try:
                    section(alg)
                    status.append("ok")
                except CaseAnalysisIncomplete:
                    status.append("refused")
            digest = "-"
            if status == ["ok", "ok"]:
                digest = hashlib.sha256(render_json(full_report(alg)).encode()).hexdigest()
            print(family, alg.dim, alg.name, *status, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*(int(x) for x in sys.argv[1:])))
