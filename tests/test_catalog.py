import textwrap
from dataclasses import replace

import pytest

from liegeom.catalog import (
    ParseError,
    ValidationFailed,
    abelian_control,
    berger,
    catalog,
    dumps,
    load,
    loads,
)


BERGER_TEXT = """\
name: berger-sphere
dim: 3
bracket: 1 2 -> 3 : 2
bracket: 1 3 -> 2 : -2
bracket: 2 3 -> 1 : 2
metric:
eps 0 0
0 1 0
0 0 1
"""


def test_catalog_entries():
    entries = catalog()
    assert set(entries) == {"berger", "abelian"}
    assert entries["berger"].algebra.name == "berger-sphere"
    assert entries["berger"].notes          # the documented discrepancies
    assert entries["abelian"].algebra.name == "abelian-lorentz"


def test_dumps_golden():
    assert dumps(berger()) == BERGER_TEXT


def test_round_trip_both_entries():
    for alg in (berger(), abelian_control()):
        again = loads(dumps(alg))
        assert again.name == alg.name
        assert again.brackets == alg.brackets
        assert again.metric == alg.metric


@pytest.mark.parametrize("name", ["a#b", " pad ", "", "a\nb"])
def test_dumps_refuses_a_name_the_format_cannot_carry(name):
    alg = replace(berger(), name=name)
    with pytest.raises(ValueError, match="does not survive the text format"):
        dumps(alg)


def test_dumps_round_trips_a_name_with_inner_spaces_and_colons():
    alg = replace(berger(), name="berger: a b")
    assert loads(dumps(alg)).name == "berger: a b"


def test_load_from_file(tmp_path):
    p = tmp_path / "alg.txt"
    p.write_text(BERGER_TEXT, encoding="utf-8")
    alg = load(p)
    assert alg.name == "berger-sphere"
    assert alg.dim == 3


def test_loads_tolerates_comments_and_order():
    text = textwrap.dedent("""\
        # a reshuffled description of the same algebra
        dim: 3
        metric:
        # scaled direction first
        eps 0 0
        0 1 0
        0 0 1
        bracket: 2 3 -> 1 : 2
        bracket: 1 2 -> 3 : 2
        bracket: 1 3 -> 2 : -2
        name: berger-sphere
        """)
    alg = loads(text)
    assert alg.brackets == berger().brackets
    assert alg.metric == berger().metric


def test_loads_inline_metric_row():
    text = "dim: 2\nmetric: -1 0\n0 1\n"
    alg = loads(text)
    assert alg.dim == 2
    assert str(alg.metric[0][0]) == "-1"


def expect_parse_error(text, fragment):
    with pytest.raises(ParseError) as exc:
        loads(text)
    assert fragment in str(exc.value)
    assert isinstance(exc.value.line, int)


def test_parse_errors():
    expect_parse_error("dim: 3\nwhat: ever\n", "what")
    expect_parse_error("bracket: 1 2 -> 3 : 2\n", "dim")
    expect_parse_error("dim: 3\nbracket: 2 1 -> 3 : 2\n", "bracket")
    expect_parse_error("dim: 2\nbracket: 1 2 -> 5 : 1\n", "bracket")
    expect_parse_error("dim: 2\nmetric:\n1 0\n", "metric")
    expect_parse_error("dim: 2\nmetric:\n1 0 0\n0 1\n", "metric")
    expect_parse_error("dim: 2\nmetric:\n1 0\n0 bogus\n", "scalar")


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        loads("dim: 3\n# fine\nbad line here\n")
    assert exc.value.line == 3


def test_bad_dimension_reports_the_dim_line():
    with pytest.raises(ParseError) as exc:
        loads("# c\n\nname: x\ndim: 0\n")
    assert exc.value.line == 4
    assert "dimension 0 not in 1..4" in str(exc.value)


def test_zero_denominator_coefficient_is_a_parse_error():
    with pytest.raises(ParseError):
        loads("dim: 2\nbracket: 1 2 -> 1 : 1/(eps-eps)\nmetric:\n1 0\n0 1\n")


def test_validation_failure_on_load():
    text = textwrap.dedent("""\
        dim: 3
        bracket: 1 2 -> 3 : 2
        bracket: 2 3 -> 1 : 2
        bracket: 1 3 -> 2 : -2
        bracket: 1 3 -> 3 : -1
        metric:
        1 0 0
        0 1 0
        0 0 1
        """)
    with pytest.raises(ValidationFailed) as exc:
        loads(text)
    assert any(v.law == "jacobi" for v in exc.value.violations)
    # the same text can still be inspected unvalidated
    alg = loads(text, validate=False)
    assert alg.validate()


def test_default_metric_requires_block():
    expect_parse_error("dim: 2\n", "metric")


def test_duplicate_bracket_rejected():
    expect_parse_error(
        "dim: 3\nbracket: 1 2 -> 3 : 2\nbracket: 1 2 -> 3 : 1\n"
        "metric:\n1 0 0\n0 1 0\n0 0 1\n",
        "bracket",
    )


@pytest.mark.parametrize("key, text, line", [
    ("name", "name: one\nname: two\ndim: 1\nmetric: 1\n", 2),
    ("basis", "dim: 2\nbasis: A B\n# c\nbasis: C D\nmetric:\n1 0\n0 1\n", 4),
])
def test_duplicate_header_rejected_with_its_line(key, text, line):
    # a second name or basis line would silently replace the first
    with pytest.raises(ParseError) as exc:
        loads(text)
    assert exc.value.line == line
    assert f"duplicate {key}" in str(exc.value)


METRIC_2 = "metric:\n1 0\n0 1\n"
BRACKET_SYNTAX = "bracket syntax is 'bracket: i j -> k : coeff'"
OUT_OF_RANGE = "bracket indices out of range for dim 2 (need 1 <= i < j <= dim)"


@pytest.mark.parametrize("text, line, message", [
    # a key without its colon
    ("dim 3\n", 1, "missing 'dim:' line"),
    ("dim: 2\ndim 3\n" + METRIC_2, 2, "unrecognized line 'dim 3'"),
    ("dim: 2\nmetric\n", 2, "unrecognized line 'metric'"),
    ("dim: 2\n" + METRIC_2 + "metric\n", 5, "unrecognized line 'metric'"),
    ("dim: 1\nname\nmetric: 1\n", 2, "unrecognized line 'name'"),
    ("dim: 1\nname: a\nname\nmetric: 1\n", 3, "duplicate name"),
    ("dim: 2\nbasis: A B\nbasis\n" + METRIC_2, 3, "duplicate basis"),
    ("dim: 2\nname :a\n" + METRIC_2, 2, "unrecognized line 'name :a'"),
    # a key twice
    ("dim: 2\ndim: 2\n" + METRIC_2, 2, "duplicate dim"),
    ("dim: 2\ndim: x\n" + METRIC_2, 2, "duplicate dim"),
    ("dim: x\ndim: 2\n" + METRIC_2, 1, "bad dimension 'x'"),
    # the dimension and the bracket indices are runs of decimal digits
    ("dim: 0_2\n" + METRIC_2, 1, "bad dimension '0_2'"),
    ("dim: +2\n" + METRIC_2, 1, "bad dimension '+2'"),
    ("dim: 2\nbracket: +1 2 -> 1 : 1\n" + METRIC_2, 2, "bracket indices must be integers"),
    ("dim: 2\nbracket: 1 2 -> 1_0 : 1\n" + METRIC_2, 2, "bracket indices must be integers"),
    ("dim: 9\ndim: 2\n" + METRIC_2, 2, "duplicate dim"),
    ("dim: 2\nname: a\nname: b\n" + METRIC_2, 3, "duplicate name"),
    ("dim: 2\nbasis: A B\nbasis: A B\n" + METRIC_2, 3, "duplicate basis"),
    ("dim: 2\n" + METRIC_2 + METRIC_2, 5, "duplicate metric block"),
    # bracket lines
    ("dim: 2\nbracket: 1 2 : 1\n" + METRIC_2, 2, BRACKET_SYNTAX),
    ("dim: 2\nbracket: 1 2 -> 1\n" + METRIC_2, 2, BRACKET_SYNTAX),
    ("dim: 2\nbracket: 1 : 2 -> 1\n" + METRIC_2, 2, BRACKET_SYNTAX),
    ("dim: 2\nbracket: 1 x -> 1 : 1\n" + METRIC_2, 2, "bracket indices must be integers"),
    ("dim: 2\nbracket: 1 2 3 -> 1 : 1\n" + METRIC_2, 2, "bracket indices must be integers"),
    ("dim: 2\nbracket: 1 -> 1 : 1\n" + METRIC_2, 2, "bracket indices must be integers"),
    ("dim: 2\nbracket: 1 2 -> y : 1\n" + METRIC_2, 2, "bracket indices must be integers"),
    ("dim: 2\nbracket: 1 2 -> 3 : 1\n" + METRIC_2, 2, OUT_OF_RANGE),
    ("dim: 2\nbracket: 2 1 -> 1 : 1\n" + METRIC_2, 2, OUT_OF_RANGE),
    ("dim: 2\nbracket: 0 2 -> 1 : 1\n" + METRIC_2, 2, OUT_OF_RANGE),
    ("dim: 2\nbracket: 1 2 -> 1 : 1\nbracket: 1 2 -> 1 : x\n" + METRIC_2, 3,
     "bad scalar 'x': expected a number, 'eps', or '(' (at offset 0)"),
    ("dim: 2\nbracket: 1 2 -> 1 : 1\nbracket: 1 2 -> 1 : 2\n" + METRIC_2, 3,
     "duplicate bracket component 1 2 -> 1"),
    # the metric block
    ("dim: 2\nmetric:\n1 0\n", 2, "metric block needs 2 rows"),
    ("dim: 2\nmetric: 1 0\n", 2, "metric block needs 2 rows"),
    ("dim: 2\nmetric:\n1 0 0\n0 1\n", 3, "metric row has 3 entries, expected 2"),
    ("dim: 2\nmetric: 1\n0 1\n", 2, "metric row has 1 entries, expected 2"),
    ("dim: 2\nmetric:\n1 0\n# c\n0 1 2\n", 5, "metric row has 3 entries, expected 2"),
    ("dim: 2\nmetric:\n1 x\n0 1 2\n", 3,
     "bad scalar 'x': expected a number, 'eps', or '(' (at offset 0)"),
    # missing keys
    ("name: a\n", 1, "missing 'dim:' line"),
    ("", 1, "missing 'dim:' line"),
    ("dim: 2\n", 1, "missing 'metric:' block"),
    ("dim: 2\nname: a\n\n", 3, "missing 'metric:' block"),
    ("# c\ndim: 0\n", 2, "dimension 0 not in 1..4"),
    ("dim: 2\nbasis: A\n" + METRIC_2, 2, "expected 2 basis labels"),
    ("dim: 2\nwhat: ever\n", 2, "unrecognized line 'what: ever'"),
])
def test_loads_rejections_are_pinned(text, line, message):
    with pytest.raises(ParseError) as exc:
        loads(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_non_decimal_digit_in_a_metric_entry_is_a_parse_error():
    # '²' passes str.isdigit() but not int()
    with pytest.raises(ParseError) as exc:
        loads("dim: 2\nmetric:\n1 0\n0 ²\n")
    assert exc.value.line == 4
    assert "bad scalar '²'" in str(exc.value)
