"""Time the benchmark's cold start for this checkout against another `src`.

Run from the root of a source checkout:

    python tests/cold_start.py OTHER_SRC [--workload report-3d] [--pairs 21]
    python tests/cold_start.py OTHER_SRC --command "-m liegeom soliton --berger"

where OTHER_SRC is the `src` directory of a second checkout (for example
of the parent commit).  The timed statement is ``COLD_START`` of
``bench/run.py``, read from that file with `ast`: a fresh interpreter puts
a `src` first on `sys.path`, imports `liegeom.catalog` and parses the
texts of the workload's algebras, and prints the seconds that took.  The
texts come from ``bench/corpus.py``, loaded by path as ``conftest.py``
does; every workload gets the unmixed texts, also basis-mixed, whose
benchmark run parses them after a basis change.

With ``--command ARGS`` it times a whole call of the interpreter instead:
``python ARGS`` with the tree's `src` first on ``PYTHONPATH``, run in an
empty directory, timed from before the process starts to after it exits.
The call must exit with status 0.

The two trees take turns, which of them goes first alternating between
pairs, one interpreter at a time.  This is done twice:

- bytecode off: ``PYTHONDONTWRITEBYTECODE=1``, so every interpreter compiles
  the package again (a ``__pycache__`` already in a tree would still be
  read; the script says so when it finds one);
- bytecode on: ``PYTHONPYCACHEPREFIX`` is a temporary directory, so that
  no file is written into either checkout.

Each setting starts with one untimed interpreter per tree, which fills the
cache when bytecode is on.

For each setting and tree it prints the median and the quartiles in ms,
and how many pairs this checkout won.  The file name does not match
pytest's ``test_*.py`` pattern, so the suite does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def bench_cold_start() -> str:
    """The source of the statement that `bench/run.py` times as `setup_s`."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["COLD_START"]):
            return ast.literal_eval(node.value)
    raise SystemExit("cold_start: bench/run.py defines no COLD_START")


def corpus_texts(workload: str) -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [corpus.TEXTS[key] for key in corpus.WORKLOADS[workload]["algebras"]]


def cold_start_ms(statement: str, src: Path, texts: str, env: dict[str, str]) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", statement, str(src)], input=texts,
        capture_output=True, text=True, timeout=120, check=True, env=env,
    )
    return float(proc.stdout.strip().splitlines()[-1]) * 1e3


def command_ms(argv: list[str], src: Path, cwd: str, env: dict[str, str]) -> float:
    path = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    t0 = time.perf_counter()
    # output to pipes: `run` then waits on them and not by polling the
    # child with a growing sleep, which would round the time up to 50 ms
    subprocess.run([sys.executable, *argv], capture_output=True, timeout=120,
                   check=True, cwd=cwd, env={**env, "PYTHONPATH": path})
    return (time.perf_counter() - t0) * 1e3


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {median:6.1f} ms  quartiles {q1:6.1f} - {q3:6.1f}"


def compare(measure, trees: dict[str, Path], env: dict[str, str],
            pairs: int) -> dict[str, list[float]]:
    """`pairs` alternating pairs of fresh interpreters, one tree each;
    `measure(src, env)` runs one and returns its time in ms."""
    times: dict[str, list[float]] = {side: [] for side in trees}
    sides = list(trees)
    for pair in range(pairs):
        for side in (sides if pair % 2 == 0 else sides[::-1]):
            times[side].append(measure(trees[side], env))
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the `src` directory to compare against")
    parser.add_argument("--workload", default="report-3d",
                        choices=("report-3d", "report-4d", "basis-mixed"))
    parser.add_argument("--pairs", type=int, default=21)
    parser.add_argument("--command", metavar="ARGS",
                        help='time `python ARGS` instead, e.g. "-m liegeom soliton --berger"')
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = {"this": SRC, "other": args.other_src.resolve()}
    for src in trees.values():
        if not (src / "liegeom" / "__init__.py").is_file():
            parser.error(f"{src} holds no liegeom package")
        if (src / "liegeom" / "__pycache__").exists():
            print(f"note: {src / 'liegeom' / '__pycache__'} exists and is read with bytecode off")
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    print(f"{args.command or args.workload}, {args.pairs} pairs, "
          f"{sys.executable} {sys.version.split()[0]}")
    with tempfile.TemporaryDirectory(prefix="cold-start-") as scratch:
        prefix, cwd = os.path.join(scratch, "pyc"), os.path.join(scratch, "cwd")
        os.mkdir(cwd)  # `-m` puts the working directory first on sys.path
        if args.command:
            command = shlex.split(args.command)

            def measure(src, env):
                return command_ms(command, src, cwd, env)
        else:
            statement = bench_cold_start()
            texts = json.dumps(corpus_texts(args.workload))

            def measure(src, env):
                return cold_start_ms(statement, src, texts, env)
        settings = {
            "bytecode off": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
            "bytecode on": {**base, "PYTHONPYCACHEPREFIX": prefix},
        }
        for setting, env in settings.items():
            for src in trees.values():  # untimed: fills the bytecode cache when on
                measure(src, env)
            times = compare(measure, trees, env, args.pairs)
            wins = sum(a < b for a, b in zip(times["this"], times["other"]))
            print(f"{setting}:")
            for side, src in trees.items():
                print(f"  {side:5}  {summary(times[side])}  {src}")
            print(f"  this checkout faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
