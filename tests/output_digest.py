"""Digest of every benchmark operation's output, for same-bytes-out checks.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/output_digest.py

It loads ``bench/run.py`` by path and runs each operation of the three
benchmark workloads under seeds 1, 2, 3 and 23, through the benchmark's own
`build_ops` and `make_runner`, so the inputs (basis mixing included) are
exactly the benchmark's.  It prints one line per operation (workload, seed,
algebra, sha256 of the JSON report) and then one combined digest over all
lines.  An operation that raises is hashed as its exception text, as the
benchmark hashes a refusal.  Run it at two commits and compare the output:
a change that keeps the reports keeps every line.  The output does not
depend on ``PYTHONHASHSEED``: the digest is the same under seeds 0, 1, 2,
3, 77 and a random one.  `test_output_digest.py` pins the combined digest.

The file name does not match pytest's ``test_*.py`` pattern, so the suite
does not collect it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 2, 3, 23)


def load_bench_run():
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def main() -> int:
    bench = load_bench_run()
    combined = hashlib.sha256()
    for workload, spec in bench.corpus.WORKLOADS.items():
        run = bench.make_runner(spec["kind"])
        for seed in SEEDS:
            for op in bench.build_ops(workload, seed):
                try:
                    out = run(op)
                except Exception as exc:
                    out = f"{type(exc).__name__}: {exc}"
                line = f"{workload} {seed} {op.key} {hashlib.sha256(out.encode()).hexdigest()}"
                print(line, flush=True)
                combined.update((line + "\n").encode())
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
