"""Byte-for-byte golden reports for the benchmark corpus.

Every algebra in ``bench/corpus.py`` has its full JSON report stored in
``tests/golden/<key>.full.json``; a report that refuses is stored as
``{"refused": "<exception class>"}``.  ``r4`` refuses the full report, so
its harmonic and energy reports are stored as well.  The corpus is loaded
from ``bench/corpus.py`` by path so that the algebra texts live in one
place.

An intended change of report bytes is recorded by regenerating the
affected files, naming each case by its test id:

    PYTHONPATH=src python tests/test_golden.py berger-full r4-harmonic

Only the named cases are rewritten; there is no default.  The script
prints each file it checked and whether it changed.
"""

import argparse
import importlib.util
import sys
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
CASE_IDS = {f"{key}-{kind}": (key, kind) for key, kind in CASES}


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


@pytest.mark.parametrize("key,kind", CASES, ids=list(CASE_IDS))
def test_golden_report(key, kind):
    want = (GOLDEN / f"{key}.{kind}.json").read_text()
    assert render_case(key, kind) == want


def regenerate(argv=None) -> int:
    """Rewrite the golden files of the cases named in `argv`."""
    parser = argparse.ArgumentParser(
        description="Regenerate the named golden reports from the engine in src/.")
    parser.add_argument("cases", nargs="+", choices=list(CASE_IDS), metavar="CASE",
                        help=f"case id, one of: {', '.join(CASE_IDS)}")
    args = parser.parse_args(argv)
    for case in dict.fromkeys(args.cases):
        key, kind = CASE_IDS[case]
        path = GOLDEN / f"{key}.{kind}.json"
        new = render_case(key, kind)
        old = path.read_text() if path.exists() else None
        if new == old:
            print(f"unchanged {path.relative_to(ROOT)}")
        else:
            path.write_text(new)
            print(f"changed   {path.relative_to(ROOT)}")
    return 0


def test_regenerate_needs_named_cases(capsys):
    for argv in ([], ["all"]):
        with pytest.raises(SystemExit) as exc:
            regenerate(argv)
        assert exc.value.code == 2
    assert "CASE" in capsys.readouterr().err


if __name__ == "__main__":
    sys.exit(regenerate())
