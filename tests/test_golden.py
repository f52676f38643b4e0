"""Byte-for-byte golden reports for the benchmark corpus.

Every algebra in ``bench/corpus.py`` has its full JSON report stored in
``tests/golden/<key>.full.json``; a report that refuses is stored as
``{"refused": "<exception class>"}``.  ``r4`` refuses the full report, so
its harmonic and energy reports are stored as well.  The corpus is loaded
from ``bench/corpus.py`` by path so that the algebra texts live in one
place.
"""

import importlib.util
from pathlib import Path

import pytest

from liegeom.catalog import catalog, loads
from liegeom.geometry import CaseAnalysisIncomplete
from liegeom.report import full_report, render_json, single_report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

CASES = [(key, "full") for key in corpus.TEXTS] + [("r4", "harmonic"), ("r4", "energy")]


def render_case(key: str, kind: str) -> str:
    """The report as `liegeom report`/`liegeom <kind>` prints it in JSON; a
    corpus algebra that is a catalog entry carries its notes, as with
    `liegeom report --berger`."""
    alg = loads(corpus.TEXTS[key])
    entries = catalog()
    try:
        if kind == "full":
            notes = entries[key].notes if key in entries else ()
            doc = full_report(alg, notes)
        else:
            doc = single_report(kind, alg)
    except CaseAnalysisIncomplete as exc:
        doc = {"refused": type(exc).__name__}
    return render_json(doc)


@pytest.mark.parametrize("key,kind", CASES, ids=[f"{k}-{kind}" for k, kind in CASES])
def test_golden_report(key, kind):
    want = (GOLDEN / f"{key}.{kind}.json").read_text()
    assert render_case(key, kind) == want
