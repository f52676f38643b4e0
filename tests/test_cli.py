import json
import os
import subprocess
import sys
from pathlib import Path

from liegeom.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def python(*args):
    """Run a Python subprocess that imports liegeom from this checkout's
    `src`, installed or not."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command(capsys):
    rc, _, err = run(capsys, "ricci", "--berger")
    assert rc == 2
    assert "invalid choice" in err


def test_negative_verdicts_still_exit_zero(capsys):
    rc, out, _ = run(capsys, "walker", "--berger")
    assert rc == 0
    assert "admits_null_parallel_line_field: no" in out


def test_missing_file_exits_one(capsys):
    rc, _, err = run(capsys, "report", "--algebra", "/nonexistent/alg.txt")
    assert rc == 1
    assert err.startswith("error:")


def test_singular_eval_exits_one(capsys):
    rc, _, err = run(capsys, "eval", "--berger", "--eps", "0")
    assert rc == 1
    assert "error:" in err


def test_bad_eps_literal_is_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "--berger", "--eps", "two")
    assert rc == 2


def test_source_flags_are_exclusive(capsys, tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("dim: 1\nmetric: 1\n", encoding="utf-8")
    rc, _, err = run(capsys, "report", "--berger", "--algebra", str(p))
    assert rc == 2


def test_validation_failure_exits_one(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text(
        "dim: 3\nbracket: 1 2 -> 3 : 2\nbracket: 2 3 -> 1 : 2\n"
        "bracket: 1 3 -> 2 : -2\nbracket: 1 3 -> 3 : -1\n"
        "metric:\n1 0 0\n0 1 0\n0 0 1\n",
        encoding="utf-8",
    )
    rc, out, _ = run(capsys, "validate", "--algebra", str(p))
    assert rc == 1
    assert "ok: no" in out
    assert "jacobi" in out


# ---------------------------------------------------------------------------
# json output


def test_report_json_golden_fragments(capsys):
    rc, out, _ = run(capsys, "report", "--berger", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["ricci"]["matrix"] == [
        ["2*eps^2", "0", "0"],
        ["0", "4-2*eps", "0"],
        ["0", "0", "4-2*eps"],
    ]
    assert doc["ricci"]["scalar_curvature"] == "8-2*eps"
    assert doc["soliton"]["generic"] == {
        "exists": False, "statement": "no invariant Ricci soliton"}
    assert doc["killing"]["basis"] == ["X1"]
    assert doc["walker"]["admits_null_parallel_line_field"] is False
    assert doc["ledger"] == {"degree3_holds": True, "degree5_holds": True}
    assert len(doc["annotations"]) == 5
    assert {n["id"] for n in doc["annotations"]} >= {
        "connection-entry-33", "lie-derivative-sign", "energy-density-constant"}


def test_report_json_deterministic(capsys):
    rc1, out1, _ = run(capsys, "report", "--berger", "--format", "json")
    rc2, out2, _ = run(capsys, "report", "--berger", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_soliton_convention_flag(capsys):
    _, paper, _ = run(capsys, "soliton", "--berger", "--format", "json")
    _, doubled, _ = run(capsys, "soliton", "--berger", "--format", "json",
                        "--soliton-convention", "doubled")
    assert json.loads(paper)["soliton"]["convention"] == "paper"
    assert json.loads(doubled)["soliton"]["convention"] == "doubled"
    assert "-2*lam+(8-4*eps)" in json.loads(doubled)["soliton"]["equations"]


def test_soliton_convention_help_is_shared(capsys):
    # one declaration of the option, so both commands print the same help
    helps = []
    for cmd in ("report", "soliton"):
        assert main([cmd, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        helps.append(out[out.index("--soliton-convention {"):])
    assert helps[0] == helps[1]
    assert "'paper' solves Lie_X g = lam*g - ric, 'doubled' doubles" in helps[0]


def test_abelian_file_reports_walker(capsys, tmp_path):
    p = tmp_path / "flat.txt"
    p.write_text(
        "name: flat\ndim: 3\nmetric:\n-1 0 0\n0 1 0\n0 0 1\n", encoding="utf-8")
    rc, out, _ = run(capsys, "walker", "--algebra", str(p), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["walker"]["admits_null_parallel_line_field"] is True
    assert doc["walker"]["witness"] == "X1+X3"


# ---------------------------------------------------------------------------
# text output


def test_eval_text_golden(capsys):
    rc, out, _ = run(capsys, "eval", "--berger", "--eps", "-1")
    assert rc == 0
    assert "signature: Lorentzian" in out
    assert "laplacian_eigenvalues: 2, 10, 10" in out
    assert "scalar_curvature: 10" in out


def test_full_text_report_sections(capsys):
    rc, out, _ = run(capsys, "report", "--berger")
    assert rc == 0
    for section in ("algebra", "annotations", "connection", "curvature",
                    "ricci", "soliton", "killing", "geodesic", "walker",
                    "ledger", "harmonicity", "energy"):
        assert f"== {section} ==" in out


def test_single_commands_all_run(capsys):
    for cmd in ("soliton", "killing", "geodesic", "walker", "ledger",
                "harmonic", "energy"):
        rc, out, _ = run(capsys, cmd, "--berger")
        assert rc == 0, cmd
        assert out.strip(), cmd


# ---------------------------------------------------------------------------
# parser object and module invocation


def test_build_parser_prog_name():
    parser = build_parser()
    assert parser.prog == "liegeom"


def test_module_invocation():
    proc = python("-m", "liegeom", "report", "--berger", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "1"


def test_exact_commands_do_not_import_numpy():
    # numpy is loaded by the float layer only: not by the package import,
    # nor by an analysis that is exact throughout
    code = (
        "import sys, liegeom\n"
        "assert 'numpy' not in sys.modules\n"
        "from liegeom.cli import main\n"
        "assert main(['validate', '--berger']) == 0\n"
        "assert main(['soliton', '--berger']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "main(['eval', '--berger', '--eps', '2'])\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_overlong_number_in_a_file_is_an_error_line(tmp_path):
    # longer than int() converts by default: an error line, no traceback
    p = tmp_path / "long.txt"
    p.write_text("dim: 1\nmetric:\n" + "1" * 5000 + "\n", encoding="utf-8")
    proc = python("-X", "int_max_str_digits=4300", "-m", "liegeom", "validate",
                  "--algebra", str(p))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 3: bad scalar '111")
    assert proc.stderr.endswith(": number of 5000 digits is too long (at offset 0)\n")


def test_oversized_power_in_a_file_is_an_error_line(tmp_path):
    # degree 1600 from 15 characters: refused before it is formed
    p = tmp_path / "power.txt"
    p.write_text("dim: 1\nmetric:\n((eps+1)^40)^40\n", encoding="utf-8")
    proc = python("-m", "liegeom", "validate", "--algebra", str(p))
    assert proc.returncode == 1
    assert proc.stderr == ("error: line 3: bad scalar '((eps+1)^40)^40': "
                           "power ^40 is too large (at offset 13)\n")


def test_non_decimal_digit_in_a_file_is_an_error_line(tmp_path):
    # '²' passes str.isdigit() but not int(): an error line, no traceback
    p = tmp_path / "sup.txt"
    p.write_text("name: sup\ndim: 2\nmetric:\n1 ²\n² 1\n", encoding="utf-8")
    proc = python("-m", "liegeom", "report", "--algebra", str(p))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line")
    assert "Traceback" not in proc.stderr
