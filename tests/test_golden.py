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
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from liegeom.catalog import catalog, loads
from liegeom.geometry import CaseAnalysisIncomplete
from liegeom.report import full_report, render_json, render_text, single_report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

CASES = [(key, "full") for key in corpus.TEXTS] + [("r4", "harmonic"), ("r4", "energy")]
CASE_IDS = {f"{key}-{kind}": (key, kind) for key, kind in CASES}


def report_doc(key: str, kind: str) -> dict:
    """The report document of one case; a corpus algebra that is a catalog
    entry carries its notes, as with `liegeom report --berger`."""
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
    return doc


def render_case(key: str, kind: str) -> str:
    """The report as `liegeom report`/`liegeom <kind>` prints it in JSON."""
    return render_json(report_doc(key, kind))


@pytest.mark.parametrize("key,kind", CASES, ids=list(CASE_IDS))
def test_golden_report(key, kind):
    want = (GOLDEN / f"{key}.{kind}.json").read_text()
    assert render_case(key, kind) == want


# sha256 of `render_text` of each case's document, the format `liegeom
# report` prints without `--format json`.  The goldens above hold the JSON
# only; a change meant to alter the text must update these, with the reason.
TEXT_SHA256 = {
    "berger-full": "0cf56cc8fd09d425feafe6ef4ae85090bb085da0e389ef73c972fd8861070b96",
    "abelian-full": "c29f94341cd3309eebb34a876f045c20b6d27d9dd7574f66841838fbff9a4089",
    "sl2r-full": "441e68de3716d7df980d5863f0d3d8fcd506a0f19cb81253990febfe2186c984",
    "e2-full": "70cf717e20069f3e040ae60223f052e456f4a4f7ba68310bfd1d77ed7180ff70",
    "heisenberg-full": "28ee70fb2c04fc4337459de4172b8fb268eac4d58f9aacbf4e51647af4f9860c",
    "u2-full": "7abf68fd93bc08bd5e476ccf8d3d5bcddeecb638adaab4ff94b2b1d4da964eae",
    "oscillator-full": "ca16f872c00b889a14fa2157ccdf6f2959b2cb9e462ae531783a1a224e578edc",
    "heisenberg-x-r-full": "ce20ae250f00c3db9d7e0e2b673b3b56773977e8c90255012206cc175ef3ee66",
    "r4-full": "cd3768a47b5d4a8230be183a80f27d5ab9111333ea0bf46205b921c28460a7c4",
    "r4-harmonic": "52783ecf068b313f9edb980da5a2a7e4012ecfbfe67268c808682f1d272ea417",
    "r4-energy": "878be9c3563819bfed6cfa7d76e974b514884d822af87a9a1ffe778df074402a",
}


@pytest.mark.parametrize("key,kind", CASES, ids=list(CASE_IDS))
def test_text_report_is_pinned(key, kind):
    text = render_text(report_doc(key, kind))
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_SHA256[f"{key}-{kind}"]


# documents that reach every branch of `render_json`'s writer: empty and
# nested containers, tuples, strings that need escapes, the constants, ints
# of every size, and values and keys that it hands to `json.dumps`
HAND_MADE_DOCS = [
    {}, [], (), {"a": {}, "b": [], "c": [{}, [[]], {"d": {"e": []}}]},
    {"quote\"": "back\\slash", "ctrl\n\t\x00\x1f": "\u00e9t\u00e9 \u2603 \U0001d49e", "": ""},
    [None, True, False, 0, -1, -(10**40), 10**400, ("tuple", (1, ()))],
    {"float": [1.5, -0.0, 1e300, float("inf"), float("nan")]},
    {1: "int key", 2.5: "float key", None: "null key", False: "bool key"},
]


def test_render_json_is_json_dumps():
    # the writer is byte for byte json.dumps(doc, indent=2) and a newline
    docs = [json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))]
    assert len(docs) == len(CASES)
    for doc in docs + HAND_MADE_DOCS:
        assert render_json(doc) == json.dumps(doc, indent=2) + "\n"


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
