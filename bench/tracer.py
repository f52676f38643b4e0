"""Per-layer tracing of liegeom from outside the package.

`Tracer.install()` wraps public functions of each layer in place and
`Tracer.uninstall()` puts the originals back.  A wrapped function records a
span (name, parent span, operation id, start and end) in memory; self time
is a span's time minus the time of its child spans.  Nothing under `src/`
knows about the tracer, so a function reached through another module's
namespace must be patched there too: `patch_everywhere` replaces every
reference to the original inside the `liegeom` package (``report.py``
imports the geometry functions by name, ``energy_report`` reaches
``harmonicity_classify`` through the globals of ``geometry``).  The tensor
entry points are `cached_property` on `MetricLieAlgebra`; their wrapper runs
only on the first access per instance, which is exactly the computation.

The scalar field is too fine-grained for spans: `RatFunc` construction,
multiplication and addition are only counted, and a seeded reservoir of
their operand pairs is kept so that `replay_us` can time them with tracing
off.
"""

from __future__ import annotations

import functools
import operator
import random
import sys
import time
from functools import cached_property

# (span name, module, attribute); module functions, patched wherever imported
FUNCTIONS = [
    ("report.algebra", "liegeom.report", "algebra_section"),
    ("report.connection", "liegeom.report", "connection_section"),
    ("report.curvature", "liegeom.report", "curvature_section"),
    ("report.ricci", "liegeom.report", "ricci_section"),
    ("report.soliton", "liegeom.report", "soliton_section"),
    ("report.killing", "liegeom.report", "killing_section"),
    ("report.geodesic", "liegeom.report", "geodesic_section"),
    ("report.walker", "liegeom.report", "walker_section"),
    ("report.ledger", "liegeom.report", "ledger_section"),
    ("report.harmonicity", "liegeom.report", "harmonic_section"),
    ("report.energy", "liegeom.report", "energy_section"),
    ("report.render_json", "liegeom.report", "render_json"),
    ("geometry.ricci_soliton_solve", "liegeom.geometry", "ricci_soliton_solve"),
    ("geometry.killing_solve", "liegeom.geometry", "killing_solve"),
    ("geometry.geodesic_classify", "liegeom.geometry", "geodesic_classify"),
    ("geometry.solve_zero_set", "liegeom.geometry", "solve_zero_set"),
    ("geometry.walker_check", "liegeom.geometry", "walker_check"),
    ("geometry.ledger_check", "liegeom.geometry", "ledger_check"),
    ("geometry.harmonicity_classify", "liegeom.geometry", "harmonicity_classify"),
    ("geometry.energy_report", "liegeom.geometry", "energy_report"),
    ("solvers.solve_parametric", "liegeom.solvers", "solve_parametric"),
    ("solvers.rref_solve", "liegeom.solvers", "rref_solve"),
    ("solvers.eigen_analyze", "liegeom.solvers", "eigen_analyze"),
    ("solvers.charpoly", "liegeom.solvers", "charpoly"),
    ("numeric.evaluate_numeric", "liegeom.numeric", "evaluate_numeric"),
    ("numeric.null_parallel_scan", "liegeom.numeric", "null_parallel_scan"),
    ("catalog.loads", "liegeom.catalog", "loads"),
]

# MetricLieAlgebra members: cached properties and plain methods
ALGEBRA_MEMBERS = [
    "nabla_basis", "curvature_tensor", "ricci", "cov_ricci", "cov_curvature",
    "validate", "singular_parameters",
]

# RatFunc special methods -> counter name.  Subtraction goes through
# `__add__`, so "add" counts additions and subtractions alike.
SCALAR_METHODS = {
    "__init__": "scalars.ratfunc_new",
    "__mul__": "scalars.ratfunc_mul",
    "__rmul__": "scalars.ratfunc_mul",
    "__add__": "scalars.ratfunc_add",
    "__radd__": "scalars.ratfunc_add",
}

REPLAY_SAMPLE = 2000


def _liegeom_namespaces():
    pkg = sys.modules["liegeom"]
    yield vars(pkg)
    for name, mod in list(sys.modules.items()):
        if name.startswith("liegeom.") and mod is not None:
            yield vars(mod)


class Tracer:
    def __init__(self, seed: int):
        self.spans: list[tuple] = []  # (id, parent, name, op, start_ns, end_ns)
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.op = None
        self._stack: list[list] = []  # [span id, child ns]
        self._restore: list[tuple] = []
        self._rng = random.Random(seed)
        self.reservoir: dict[str, list] = {"mul": [], "add": []}
        self._seen = {"mul": 0, "add": 0}

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        sid = len(self.spans)
        parent = stack[-1][0] if stack else None
        self.spans.append(None)
        frame = [sid, 0]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.spans[sid] = (sid, parent, name, self.op, t0, t1)
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[1]
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- scalar counters --------------------------------------------------

    def _count(self, name: str, kind: str | None, fn):
        calls = self.calls
        calls.setdefault(name, 0)
        if kind is None:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        reservoir, seen, rng = self.reservoir[kind], self._seen, self._rng

        def sampled(a, b):
            calls[name] += 1
            i = seen[kind]
            seen[kind] = i + 1
            if i < REPLAY_SAMPLE:
                reservoir.append((a, b))
            else:
                j = rng.randrange(i + 1)
                if j < REPLAY_SAMPLE:
                    reservoir[j] = (a, b)
            return fn(a, b)
        return sampled

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def patch_everywhere(self, module: str, attr: str, new) -> None:
        orig = getattr(sys.modules[module], attr)
        for ns in _liegeom_namespaces():
            if ns.get(attr) is orig:
                self._set(ns, attr, new)

    def install(self) -> None:
        from liegeom.algebra import MetricLieAlgebra
        from liegeom.scalars import RatFunc

        for name, module, attr in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            self.patch_everywhere(module, attr, self._wrap(name, orig))
        for attr in ALGEBRA_MEMBERS:
            member = MetricLieAlgebra.__dict__[attr]
            name = f"algebra.{attr}"
            if isinstance(member, cached_property):
                new = cached_property(self._wrap(name, member.func))
                new.__set_name__(MetricLieAlgebra, attr)
            else:
                new = self._wrap(name, member)
            self._set(MetricLieAlgebra, attr, new)
        for attr, name in SCALAR_METHODS.items():
            kind = None if attr == "__init__" else name.rsplit("_", 1)[1]
            self._set(RatFunc, attr, self._count(name, kind, RatFunc.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def replay_us(self, kind: str, repeats: int = 5) -> float:
        """Mean microseconds per call over the sampled operand pairs, timed
        untraced; the median of `repeats` passes over the sample."""
        op = operator.mul if kind == "mul" else operator.add
        pairs = self.reservoir[kind]
        if not pairs:
            return 0.0
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                op(a, b)
            times.append(time.perf_counter_ns() - t0)
        times.sort()
        return times[len(times) // 2] / len(pairs) / 1e3

    def span_records(self):
        for sid, parent, name, op, t0, t1 in self.spans:
            yield {"id": sid, "parent": parent, "name": name, "op": op,
                   "start_ns": t0, "end_ns": t1}
