import json
import runpy
import sys
import warnings

import pytest

from liegeom.cli import build_parser, main

import test_properties
from test_api import python


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


JACOBI_VIOLATING = (
    "dim: 3\nbracket: 1 2 -> 3 : 2\nbracket: 2 3 -> 1 : 2\n"
    "bracket: 1 3 -> 2 : -2\nbracket: 1 3 -> 3 : -1\n"
    "metric:\n1 0 0\n0 1 0\n0 0 1\n"
)
# the determinant eps^2 - eps * eps is identically zero
DEGENERATE_METRIC = "name: flat\ndim: 2\nmetric:\n1 eps\neps eps^2\n"


def validate_text(name, dim, violations):
    listed = "".join(f"  {v}\n" for v in violations) or "  (none)\n"
    return (f"report: validate\n== algebra ==\n  name: {name}\n  dim: {dim}\n\n"
            f"ok: {'no' if violations else 'yes'}\n== violations ==\n{listed}")


def validate_json(name, dim, violations):
    listed = ("[\n" + ",\n".join(f'    "{v}"' for v in violations) + "\n  ]"
              if violations else "[]")
    return ('{\n  "schema": "1",\n  "report": "validate",\n  "algebra": {\n'
            f'    "name": "{name}",\n    "dim": {dim}\n  }},\n'
            f'  "ok": {"false" if violations else "true"},\n'
            f'  "violations": {listed}\n}}\n')


@pytest.mark.parametrize(("text", "name", "dim", "violations"), [
    (JACOBI_VIOLATING, "unnamed", 3,
     ["jacobi: cyclic bracket sum on (X1,X2,X3) has nonzero X1 component 2"]),
    (DEGENERATE_METRIC, "flat", 2,
     ["metric-nondegenerate: determinant of the metric is identically zero"]),
    (None, "berger-sphere", 3, []),
], ids=["jacobi", "degenerate", "berger"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_output_bytes(capsys, tmp_path, text, name, dim, violations, fmt):
    # the exact document `validate` prints, and its exit code, on bad and good input
    if text is None:
        source = ["--berger"]
    else:
        p = tmp_path / "alg.txt"
        p.write_text(text, encoding="utf-8")
        source = ["--algebra", str(p)]
    rc, out, err = run(capsys, "validate", *source, "--format", fmt)
    want = (validate_text if fmt == "text" else validate_json)(name, dim, violations)
    assert (rc, out, err) == (1 if violations else 0, want, "")


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


def modules_after(statements, *options):
    """The names in `sys.modules` of a fresh interpreter, started with
    `options`, after `statements`."""
    proc = python(*options, "-c",
                  f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def package_modules(modules):
    return {m for m in modules if m.startswith("liegeom.")}


EXACT_MODULES = {"liegeom.zring", "liegeom.scalars", "liegeom.solvers", "liegeom.algebra",
                 "liegeom.catalog"}
# `scalars.record` builds the result classes without them: `dataclasses`
# compiles each method with `exec` and imports `inspect`
UNUSED_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize("entry", ["import liegeom", "from liegeom.catalog import loads"])
def test_parsing_loads_only_the_exact_modules(entry):
    # `geometry` and `numeric` wait for the first use of one of their names
    modules = modules_after(entry)
    assert package_modules(modules) == EXACT_MODULES
    assert "numpy" not in modules
    assert not modules & UNUSED_STDLIB


def test_parsing_loads_no_typing():
    # the annotations name `collections.abc`; `-S` keeps `site` from
    # loading `typing` through a `.pth` file first
    modules = modules_after("from liegeom.catalog import loads", "-S")
    assert package_modules(modules) == EXACT_MODULES
    assert "typing" not in modules


def test_a_geometry_name_loads_geometry_and_numeric():
    modules = modules_after("import liegeom\nliegeom.walker_check")
    assert package_modules(modules) == EXACT_MODULES | {"liegeom.geometry", "liegeom.numeric"}
    assert "numpy" not in modules


def test_the_cli_loads_the_report():
    modules = modules_after("import liegeom.cli")
    assert "liegeom.report" in modules
    assert not modules & UNUSED_STDLIB


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


# ---------------------------------------------------------------------------
# refusals: exit 1 with one error line, never a traceback


def refusal(capsys, *argv) -> str:
    """The stderr of a command that refuses: exit 1 and one `error:` line."""
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def big_berger(tmp_path, x: str) -> str:
    """The berger brackets over the metric diag(-1, 1, x), as a file."""
    p = tmp_path / "big.txt"
    p.write_text("name: big\ndim: 3\nbracket: 1 2 -> 3 : 2\nbracket: 2 3 -> 1 : 2\n"
                 f"bracket: 1 3 -> 2 : -2\nmetric:\n-1 0 0\n0 1 0\n0 0 {x}\n",
                 encoding="utf-8")
    return str(p)


@pytest.mark.parametrize(("x", "cause"), [
    ("10^400", "integer division result too large for a float"),  # no finite float
    ("1/10^400", "a nonzero exact entry underflows to 0"),         # no nonzero float
    ("10^200", "overflow encountered in "),                        # squares overflow
], ids=["10^400", "1/10^400", "10^200"])
@pytest.mark.parametrize("command", [["walker"], ["report"], ["eval", "--eps", "1"]],
                         ids=["walker", "report", "eval"])
def test_values_outside_the_float_range_refuse(capsys, tmp_path, x, cause, command):
    err = refusal(capsys, *command, "--algebra", big_berger(tmp_path, x))
    assert err.startswith(f"error: big leaves the float range: {cause}")


def test_float_range_refusal_prints_no_numpy_warning(tmp_path):
    # the overflow raises: no RuntimeWarning reaches stderr before the line
    proc = python("-m", "liegeom", "walker", "--algebra", big_berger(tmp_path, "10^200"))
    assert proc.returncode == 1
    assert proc.stderr == "error: big leaves the float range: overflow encountered in square\n"


def test_report_on_r4_refuses(capsys, tmp_path):
    p = tmp_path / "r4.txt"
    p.write_text(test_properties.corpus.TEXTS["r4"], encoding="utf-8")
    err = refusal(capsys, "report", "--algebra", str(p))
    assert err == "error: no safe rule applies to: (-1/5*eps)*b^2-2*c^2\n"


def test_eval_at_a_pole_refuses(capsys, tmp_path):
    p = tmp_path / "pole.txt"
    p.write_text("name: pole\ndim: 3\nbracket: 1 2 -> 3 : 1/eps\n"
                 "metric:\n1 0 0\n0 1 0\n0 0 1\n", encoding="utf-8")
    err = refusal(capsys, "eval", "--eps", "0", "--algebra", str(p))
    assert err == "error: 1/eps has a pole at eps=0\n"


# ---------------------------------------------------------------------------
# the entry points, run in this process


@pytest.mark.parametrize("module", ["liegeom", "liegeom.cli"])
def test_entry_points_run_as_main(capsys, monkeypatch, module):
    # `python -m liegeom` and `python -m liegeom.cli`; the CLI module is
    # imported already, which runpy warns about
    monkeypatch.setattr(sys, "argv", [module, "validate", "--berger"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module(module, run_name="__main__")
    assert exc.value.code == 0
    assert "ok: yes" in capsys.readouterr().out
