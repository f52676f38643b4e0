"""liegeom benchmark: full-report latency on a fixed corpus of algebras.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload report-3d --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: an operation starts only when the
previous one has finished.  An operation is what
`liegeom report --algebra FILE --format json` does after import: parse the
algebra text into a fresh `MetricLieAlgebra` (so no cached property carries
over), run the analyses, render the JSON.  The benchmark runs whole passes
over the workload's algebras, each pass in a seeded order, until the next
pass would overrun `--seconds`; it keeps going past that while fewer than
ten completed operations lie beyond the tail percentile, but never past
1.5 times `--seconds`.  After each pass a fresh interpreter times import and
parsing (`setup_s`).

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced and a traced pass and reports per-layer metrics, each a
per-operation average; see `tracer.py`.  Every output is checked after the
timed region (see `check_full` and `check_mixed`).  The last line of
standard output is one JSON object; a fuller record, with the sha256 of every
report, goes to `bench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# One BLAS thread: the benchmark is a single client.  numpy must see these
# before it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import corpus  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

COLD_STARTS = 7
TAIL_MIN_BEYOND = 10
# Tail percentile per workload: the highest one with at least ten completed
# operations beyond it when a 25-second run completes 40, 27 and 27
# operations, as on a 2-core x86 VM.  A run goes on until it has those ten,
# up to MAX_STRETCH times its length; standard output says how many it got.
TAIL_PERCENTILE = {"report-3d": 75, "report-4d": 65, "basis-mixed": 60}
MAX_STRETCH = 1.5

# A fresh interpreter imports liegeom and parses the workload's algebras,
# read as a JSON list on stdin; it prints the seconds that took.
COLD_START = """\
import json, sys, time
texts = json.load(sys.stdin)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from liegeom.catalog import loads
for text in texts:
    loads(text)
print(time.perf_counter() - t0)
"""


def import_liegeom():
    """Import the package from this checkout's `src/`, or exit with status 1."""
    sys.path.insert(0, str(SRC))
    try:
        import liegeom
    except ImportError as exc:
        sys.exit(f"bench: cannot import liegeom from {SRC}: {exc}")
    if SRC.resolve() not in Path(liegeom.__file__).resolve().parents:
        sys.exit(f"bench: liegeom was imported from {liegeom.__file__}, not {SRC}")
    return liegeom


# ---------------------------------------------------------------------------
# workload inputs


@dataclass(frozen=True)
class Op:
    """One corpus algebra as the benchmark feeds it to liegeom."""

    key: str
    text: str
    base_text: str  # the unmixed algebra, for the basis-mixed reference
    notes: tuple = ()


def build_ops(workload: str, seed: int) -> list[Op]:
    spec = corpus.WORKLOADS[workload]
    catalog = importlib.import_module("liegeom.catalog")
    entries = catalog.catalog()
    rng = random.Random(f"{seed}-mixing")
    ops = []
    for key in spec["algebras"]:
        base = corpus.TEXTS[key]
        if spec["kind"] == "full":
            # a corpus algebra that is also a catalog entry carries its notes,
            # as `liegeom report --berger` does
            notes = entries[key].notes if key in entries else ()
            ops.append(Op(key, base, base, notes))
        else:
            alg = catalog.loads(base)
            P = corpus.mixing_matrix(rng, alg.dim)
            mixed = alg.transform_basis(P, name=f"{alg.name}/mixed")
            ops.append(Op(key, catalog.dumps(mixed), base))
    return ops


def make_runner(kind: str):
    """The operation: parse, analyse, render.  Module attributes are looked
    up on every call so that the tracer's patches are seen."""
    catalog = importlib.import_module("liegeom.catalog")
    report = importlib.import_module("liegeom.report")

    if kind == "full":
        def run(op: Op) -> str:
            alg = catalog.loads(op.text)
            return report.render_json(report.full_report(alg, op.notes))
    else:
        def run(op: Op) -> str:
            alg = catalog.loads(op.text)
            doc = {"schema": report.SCHEMA, "report": "basis-invariant"}
            for section in corpus.INVARIANT_SECTIONS:
                doc[section] = getattr(report, f"{section}_section")(alg)
            return report.render_json(doc)
    return run


def is_refusal(exc: BaseException) -> bool:
    """liegeom's own exceptions are refusals (the CLI exits 1 on them);
    anything else raised inside the library is a crash."""
    return type(exc).__module__.startswith("liegeom")


# ---------------------------------------------------------------------------
# timed loop


@dataclass(slots=True)
class Record:
    key: str
    seconds: float
    status: str  # "ok", "refused: <exception>" or "crashed: <exception>"
    sha256: str
    traced: bool


class Loop:
    def __init__(self, ops: list[Op], run, seed: int):
        self.ops = ops
        self.run = run
        self.rng = random.Random(f"{seed}-order")
        self.records: list[Record] = []
        self.outputs: dict[tuple[str, str], str] = {}  # (key, sha256) -> report

    def order(self) -> list[Op]:
        order = list(self.ops)
        self.rng.shuffle(order)
        return order

    def one_pass(self, order: list[Op], tracer: Tracer | None = None) -> float:
        total = 0.0
        for op in order:
            if tracer is not None:
                tracer.op = len(self.records)
            t0 = time.perf_counter()
            try:
                out = self.run(op)
            except Exception as exc:  # classified and checked below
                dt = time.perf_counter() - t0
                kind = "refused" if is_refusal(exc) else "crashed"
                status = f"{kind}: {type(exc).__name__}: {exc}"
                sha = hashlib.sha256(status.encode()).hexdigest()
            else:
                dt = time.perf_counter() - t0
                status = "ok"
                sha = hashlib.sha256(out.encode()).hexdigest()
                self.outputs.setdefault((op.key, sha), out)
            total += dt
            self.records.append(Record(op.key, dt, status, sha, tracer is not None))
        return total

    def completed_times(self) -> list[float]:
        return [r.seconds for r in self.records if r.status == "ok"]


def tail(times: list[float], percentile: int) -> tuple[float, int]:
    """The percentile of `times` and how many samples lie beyond it."""
    if len(times) < 2:
        return (times[0] if times else 0.0), 0
    value = statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for t in times if t > value)


def run_timed(loop: Loop, seconds: float, percentile: int, between) -> list[float]:
    """Whole passes until the next one would overrun `seconds` and the tail
    has enough samples beyond it, but never one that would overrun
    MAX_STRETCH times `seconds`, which bounds a run on a slow machine.
    `between()` runs after each pass, outside the pass.  Returns the
    completed operations per second of each pass."""
    start = time.perf_counter()
    rates = []
    while True:
        t_pass = time.perf_counter()
        n_done = len(loop.completed_times())
        loop.one_pass(loop.order())
        now = time.perf_counter()
        rates.append((len(loop.completed_times()) - n_done) / (now - t_pass))
        between()
        enough = tail(loop.completed_times(), percentile)[1] >= TAIL_MIN_BEYOND
        next_end = time.perf_counter() - start + (now - t_pass)
        if next_end > MAX_STRETCH * seconds or (enough and next_end > seconds):
            return rates


def run_traced(loop: Loop, seconds: float, tracer: Tracer) -> tuple[float, float, int]:
    """Pairs of an untraced and a traced pass over the same order, which of
    the two goes first alternating between pairs so that drift in the
    machine's speed does not read as tracing overhead.
    Returns untraced seconds, traced seconds, traced operations."""
    start = time.perf_counter()
    plain = traced = 0.0
    n_traced = 0
    for pair in itertools.count():
        t_pair = time.perf_counter()
        order = loop.order()
        for traced_pass in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced_pass:
                plain += loop.one_pass(order)
                continue
            tracer.install()
            try:
                traced += loop.one_pass(order, tracer)
            finally:
                tracer.uninstall()
        n_traced += len(order)
        now = time.perf_counter()
        if now - start + (now - t_pair) > seconds:
            return plain, traced, n_traced


def cold_start_seconds(ops: list[Op]) -> float:
    """Seconds a fresh interpreter takes to import liegeom and parse the
    workload's algebras."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(SRC)],
        input=json.dumps([op.text for op in ops]),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def check_full(key: str, out: str, text: str, seed: int, lg) -> list[str]:
    """Symbolic Ricci matrix and scalar curvature against the independent
    floating-point route, at a seeded rational eps where neither the
    metric nor any printed entry is singular."""
    catalog = importlib.import_module("liegeom.catalog")
    doc = json.loads(out)
    ric = doc["ricci"]
    sym = [[lg.parse_scalar(s) for s in row] for row in ric["matrix"]]
    scal = lg.parse_scalar(ric["scalar_curvature"])
    alg = catalog.loads(text)
    singular = set(alg.singular_parameters())
    rng = random.Random(f"{seed}-check-{key}")
    for _ in range(50):
        eps0 = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        if eps0 in singular:
            continue
        try:
            want = [[f.eval(eps0) for f in row] for row in sym]
            want_scal = scal.eval(eps0)
            model = lg.evaluate_numeric(alg, eps0)
        except (lg.PoleAtEvaluationPoint, lg.SingularMetricAtPoint):
            continue
        bad = [
            f"ricci[{i}][{j}] {float(want[i][j])!r} vs {model.ricci[i][j]!r}"
            for i in range(alg.dim) for j in range(alg.dim)
            if not _close(float(want[i][j]), float(model.ricci[i][j]))
        ]
        if not _close(float(want_scal), model.scalar_curvature):
            bad.append(f"scalar {float(want_scal)!r} vs {model.scalar_curvature!r}")
        return [f"{key} at eps={eps0}: {b}" for b in bad]
    return [f"{key}: no regular rational eps found to check at"]


def invariants(doc: dict) -> dict:
    """Basis-independent facts of a report."""
    ric, kil, har = doc["ricci"], doc["killing"], doc["harmonic"]
    return {
        "scalar_curvature": ric["scalar_curvature"],
        "einstein": [ric["einstein"]["generic"],
                     sorted(e["eps"] for e in ric["einstein"]["exceptional"])],
        "killing": [kil["generic_dimension"], sorted(e["eps"] for e in kil["exceptional"])],
        "soliton_exceptional": sorted(e["eps"] for e in doc["soliton"]["exceptional"]),
        "ledger": [doc["ledger"]["degree3_holds"], doc["ledger"]["degree5_holds"]],
        "laplacian": sorted([f["eigenvalue"], f["multiplicity"]] for f in har["critical_families"]),
        "unresolved_factor_degree": har["unresolved_factor_degree"],
    }


def reference_invariants(base_text: str) -> dict:
    """The same facts for the unmixed algebra, computed live."""
    catalog = importlib.import_module("liegeom.catalog")
    report = importlib.import_module("liegeom.report")
    alg = catalog.loads(base_text)
    return invariants({s: getattr(report, f"{s}_section")(alg)
                       for s in ("ricci", "soliton", "killing", "ledger", "harmonic")})


def check_mixed(key: str, out: str, reference: dict) -> list[str]:
    got = invariants(json.loads(out))
    return [f"{key}: {name} {got[name]!r} != unmixed {reference[name]!r}"
            for name in reference if got[name] != reference[name]]


def check_outputs(loop: Loop, kind: str, seed: int, lg) -> list[str]:
    errors = []
    by_key: dict[str, set[str]] = {}
    for r in loop.records:
        by_key.setdefault(r.key, set()).add(r.sha256)
        if r.status.startswith("crashed"):
            errors.append(f"{r.key}: {r.status}")
    for key, shas in by_key.items():
        if len(shas) != 1:
            errors.append(f"{key}: {len(shas)} different outputs for one input")
    ops = {op.key: op for op in loop.ops}
    for (key, _), out in loop.outputs.items():
        op = ops[key]
        if kind == "full":
            errors += check_full(key, out, op.text, seed, lg)
        else:
            errors += check_mixed(key, out, reference_invariants(op.base_text))
    return errors


# ---------------------------------------------------------------------------
# reporting


def per_algebra(loop: Loop) -> list[dict]:
    rows = []
    for op in loop.ops:
        recs = [r for r in loop.records if r.key == op.key]
        done = [r.seconds for r in recs if r.status == "ok"]
        rows.append({
            "algebra": op.key,
            "why": corpus.WHY[op.key],
            "attempted": len(recs),
            "completed": len(done),
            "p50_ms": statistics.median(done) * 1e3 if done else None,
            "status": recs[0].status if recs else None,
            "sha256": sorted({r.sha256 for r in recs}),
        })
    return rows


def layer_metrics(tracer: Tracer, n_ops: int, plain: float, traced: float) -> dict:
    ms = lambda name: tracer.self_ns.get(name, 0) / 1e6 / n_ops
    calls = lambda name: tracer.calls.get(name, 0) / n_ops
    m = {}
    sections = ("algebra", "connection", "curvature", "ricci", "soliton", "killing",
                "geodesic", "walker", "ledger", "harmonicity", "energy", "render_json")
    for s in sections:
        m[f"report.{s}_ms"] = (ms(f"report.{s}"), "ms")
    for f in ("ricci_soliton_solve", "killing_solve", "geodesic_classify", "solve_zero_set",
              "walker_check", "ledger_check", "harmonicity_classify", "energy_report"):
        m[f"geometry.{f}_ms"] = (ms(f"geometry.{f}"), "ms")
    m["geometry.harmonicity_classify.calls"] = (calls("geometry.harmonicity_classify"), "count")
    for f in ("nabla_basis", "curvature_tensor", "ricci", "cov_ricci", "cov_curvature",
              "validate", "singular_parameters"):
        m[f"algebra.{f}_ms"] = (ms(f"algebra.{f}"), "ms")
    m["algebra.singular_parameters.calls"] = (calls("algebra.singular_parameters"), "count")
    m["solvers.solve_parametric_ms"] = (ms("solvers.solve_parametric"), "ms")
    m["solvers.solve_parametric.calls"] = (calls("solvers.solve_parametric"), "count")
    m["solvers.rref_solve.calls"] = (calls("solvers.rref_solve"), "count")
    m["solvers.eigen_analyze_ms"] = (ms("solvers.eigen_analyze"), "ms")
    m["solvers.charpoly_ms"] = (ms("solvers.charpoly"), "ms")
    m["numeric.evaluate_numeric_ms"] = (ms("numeric.evaluate_numeric"), "ms")
    m["numeric.evaluate_numeric.calls"] = (calls("numeric.evaluate_numeric"), "count")
    m["numeric.null_parallel_scan_ms"] = (ms("numeric.null_parallel_scan"), "ms")
    for f in ("new", "mul", "add"):
        m[f"scalars.ratfunc_{f}.calls"] = (calls(f"scalars.ratfunc_{f}"), "count")
    m["scalars.ratfunc_mul_us"] = (tracer.replay_us("mul"), "us")
    m["scalars.ratfunc_add_us"] = (tracer.replay_us("add"), "us")
    m["catalog.loads_ms"] = (ms("catalog.loads"), "ms")
    m["trace.overhead_share"] = (traced / plain - 1, "ratio")
    return m


def environment(lg, args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "liegeom": lg.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lg = import_liegeom()
    kind = corpus.WORKLOADS[args.workload]["kind"]
    ops = build_ops(args.workload, args.seed)
    loop = Loop(ops, make_runner(kind), args.seed)
    env = environment(lg, args)
    percentile = TAIL_PERCENTILE[args.workload]

    if args.trace:
        tracer = Tracer(args.seed)
        plain, traced, n_traced = run_traced(loop, args.seconds, tracer)
        metrics = layer_metrics(tracer, n_traced, plain, traced)
        extra = {
            "traced_operations": n_traced,
            "span_total_ms_per_op": {k: v / 1e6 / n_traced for k, v in sorted(tracer.total_ns.items())},
            "calls_per_op": {k: v / n_traced for k, v in sorted(tracer.calls.items())},
        }
    else:
        # One cold start after each pass, so that they sample the whole run
        # rather than one stretch of the machine's load; at least COLD_STARTS.
        setups = []
        rates = run_timed(loop, args.seconds, percentile,
                          lambda: setups.append(cold_start_seconds(ops)))
        while len(setups) < COLD_STARTS:
            setups.append(cold_start_seconds(ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done = loop.completed_times()
        tail_value, beyond = tail(done, percentile)
        attempted = len(loop.records)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ms": (statistics.median(done) * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "ops_per_s": (statistics.median(rates), "1/s"),
            "completed_share": (len(done) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra = {
            "setup_runs_s": setups,
            "tail": {"percentile": percentile, "completed": len(done), "beyond": beyond},
            "failed_share": 1 - len(done) / attempted,
            "pass_rates_per_s": rates,
        }

    errors = check_outputs(loop, kind, args.seed, lg)
    attempted = len(loop.records)
    failed = sum(1 for r in loop.records if r.status != "ok")
    rows = per_algebra(loop)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "per_algebra": rows,
        "operations": [[r.key, r.seconds, r.status, r.sha256, r.traced] for r in loop.records],
        **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"operations: attempted={attempted} completed={attempted - failed} failed={failed}")
    if not args.trace:
        t = extra["tail"]
        print(f"tail: p{t['percentile']} over {t['completed']} completed operations, "
              f"{t['beyond']} beyond it; failed_share={extra['failed_share']:.4f}")
    for row in rows:
        p50 = f"{row['p50_ms']:.1f} ms" if row["p50_ms"] is not None else "-"
        print(f"  {row['algebra']:<15} attempted={row['attempted']:<3} p50={p50:<11} "
              f"sha256={','.join(s[:12] for s in row['sha256'])}  {row['status'][:60]}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:.6g} {u}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders the sets that liegeom iterates over, and with
        # them a few scalar operations; fix it so that work counts repeat.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
