"""The bytes of every benchmark operation's report, pinned by one digest.

The goldens cover the unmixed reports only; the basis-mixed workload's
dense metrics reach polynomial forms (the Ledger contraction, the energy
density) that no golden prints.  `output_digest.py` hashes the report of
every operation of the three benchmark workloads, mixed inputs included,
and this test pins its combined digest.  It runs the script in a fresh
interpreter because loading ``bench/run.py`` sets BLAS environment
variables at import.  A change meant to alter a report must update the
digest below, with the reason.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMBINED = "8d1fea24c4c6cd100f27d4c19a3a3af8e402ba70f97595eff14b12bd7c99d5d4"


def test_benchmark_outputs_keep_their_digest():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "output_digest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 73
    assert lines[-1] == f"combined {COMBINED}"
