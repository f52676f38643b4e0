"""Time the benchmark's operations for this checkout against another `src`,
both in one interpreter, operation by operation.

Run from the root of a source checkout:

    python tests/paired_ops.py OTHER_SRC [--workload basis-mixed] [--passes 14] [--seed 1]

where OTHER_SRC is the `src` directory of a second checkout (for example
of the parent commit).  Both `liegeom` trees are copied into a temporary
directory under the package names ``liegeom_this`` and ``liegeom_other``
and imported side by side, so nothing is written into either checkout.
The operations are the benchmark's: the corpus texts are read from
``bench/corpus.py``, loaded by path as ``conftest.py`` does; a ``full``
workload renders the JSON full report of each text (with the catalog
notes of a catalog entry), and ``basis-mixed`` changes the basis of each
algebra by ``corpus.mixing_matrix`` under the benchmark's seeded
generator and renders the basis-invariant sections.  Each tree builds its
own inputs, and the two must agree.

One untimed pass per tree comes first.  Each timed pass runs the
operations in a seeded order, and each operation twice in a row, once
per tree, which of them goes first alternating from one operation to the
next.  The two outputs of an operation must be the same text (or the same
refusal, which is left out of the timings, as the benchmark leaves it out
of ``op_p50_ms``); the script exits with status 1 when they are not.

It prints, per tree, the median and the quartiles of the completed
operations in ms, and then the median and quartiles of the paired ratio
this/other and how many pairs this checkout won.  Two benchmark runs on a
shared machine drift apart by several per cent; the paired ratio takes
the drift out, because both trees run within milliseconds of each other.
The file name does not match pytest's ``test_*.py`` pattern, so the suite
does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, as in the benchmark; numpy must see these before it is
# first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def build_ops(pkg: str, corpus, workload: str, seed: int) -> list[tuple[str, str, tuple]]:
    """The (key, text, notes) of each operation of the workload, as the
    benchmark's `build_ops` makes them, through the package `pkg`."""
    catalog = importlib.import_module(f"{pkg}.catalog")
    spec = corpus.WORKLOADS[workload]
    entries = catalog.catalog()
    rng = random.Random(f"{seed}-mixing")
    ops = []
    for key in spec["algebras"]:
        text, notes = corpus.TEXTS[key], ()
        if spec["kind"] == "full":
            notes = entries[key].notes if key in entries else ()
        else:
            alg = catalog.loads(text)
            P = corpus.mixing_matrix(rng, alg.dim)
            text = catalog.dumps(alg.transform_basis(P, name=f"{alg.name}/mixed"))
        ops.append((key, text, notes))
    return ops


def make_runner(pkg: str, corpus, kind: str):
    """The benchmark's operation through the package `pkg`: parse, analyse,
    render the JSON."""
    catalog = importlib.import_module(f"{pkg}.catalog")
    report = importlib.import_module(f"{pkg}.report")

    def run(op: tuple[str, str, tuple]) -> str:
        _, text, notes = op
        alg = catalog.loads(text)
        if kind == "full":
            return report.render_json(report.full_report(alg, notes))
        doc = {"schema": report.SCHEMA, "report": "basis-invariant"}
        for section in corpus.INVARIANT_SECTIONS:
            doc[section] = getattr(report, f"{section}_section")(alg)
        return report.render_json(doc)
    return run


def timed(run, op) -> tuple[float, str, bool]:
    """Seconds, output (or refusal text) and whether the operation completed."""
    t0 = time.perf_counter()
    try:
        out, ok = run(op), True
    except Exception as exc:
        out, ok = f"{type(exc).__name__}: {exc}", False
    return time.perf_counter() - t0, out, ok


def summary(values: list[float], fmt: str) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:{fmt}}  quartiles {q1:{fmt}} - {q3:{fmt}}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the `src` directory to compare against")
    parser.add_argument("--workload", default="basis-mixed",
                        choices=("report-3d", "report-4d", "basis-mixed"))
    parser.add_argument("--passes", type=int, default=14)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    trees = {"this": SRC, "other": args.other_src.resolve()}
    for src in trees.values():
        if not (src / "liegeom" / "__init__.py").is_file():
            parser.error(f"{src} holds no liegeom package")
    corpus = load_corpus()
    kind = corpus.WORKLOADS[args.workload]["kind"]
    with tempfile.TemporaryDirectory(prefix="paired-ops-") as scratch:
        for side, src in trees.items():
            shutil.copytree(src / "liegeom", Path(scratch) / f"liegeom_{side}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, scratch)
        ops = {side: build_ops(f"liegeom_{side}", corpus, args.workload, args.seed)
               for side in trees}
        runs = {side: make_runner(f"liegeom_{side}", corpus, kind) for side in trees}
        if [op[:2] for op in ops["this"]] != [op[:2] for op in ops["other"]]:
            print("the two trees build different inputs for the workload")
            return 1
        rng = random.Random(f"{args.seed}-order")
        times: dict[str, list[float]] = {side: [] for side in trees}
        ratios, mismatches, turn = [], [], 0
        for n_pass in range(args.passes + 1):  # pass 0 is untimed
            order = list(range(len(ops["this"])))
            rng.shuffle(order)
            for i in order:
                sides = list(trees) if turn % 2 == 0 else list(trees)[::-1]
                turn += 1
                got = {side: timed(runs[side], ops[side][i]) for side in sides}
                (t_this, out_this, ok), (t_other, out_other, _) = got["this"], got["other"]
                if out_this != out_other:
                    mismatches.append(ops["this"][i][0])
                elif ok and n_pass:
                    times["this"].append(t_this * 1e3)
                    times["other"].append(t_other * 1e3)
                    ratios.append(t_this / t_other)
    print(f"{args.workload}, seed {args.seed}, {args.passes} passes of {len(order)} operations, "
          f"{sys.executable} {sys.version.split()[0]}")
    if mismatches:
        print(f"different outputs on: {', '.join(sorted(set(mismatches)))}")
        return 1
    if len(ratios) < 2:
        print("fewer than two completed operations to compare")
        return 1
    for side, src in trees.items():
        print(f"  {side:5}  {summary(times[side], '6.2f')} ms  {src}")
    wins = sum(r < 1 for r in ratios)
    print(f"  ratio this/other  {summary(ratios, '.3f')}; "
          f"this checkout faster in {wins} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
