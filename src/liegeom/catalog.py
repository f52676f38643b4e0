"""Built-in metric Lie algebras and the text format for user-defined ones.

The flagship entry is the one-parameter deformation of the round
3-sphere's algebra: su(2) with brackets scaled to [X1,X2] = 2 X3 cyclic,
carrying the diagonal metric diag(eps, 1, 1).  It is Riemannian for
eps > 0, Lorentzian for eps < 0, round exactly at eps = 1, and every
analysis in this package has hand-checked golden values on it.  A flat
abelian companion with signature (-,+,+) serves as the contrast case for
the Walker and Ledger verdicts.

Entries carry annotation notes: places where these computations are known
to disagree with numbers floating around in published tabulations of the
same family (sign slips and misprints).  The notes are attached to the
reports so a reader comparing against such a table is warned; the engine
values themselves always come from the defining identities.

File format for user algebras, line based, '#' comments allowed:

    name: my-algebra
    dim: 3
    basis: X1 X2 X3            # optional; only the label count is checked
    bracket: 1 2 -> 3 : 2      # [X1, X2] has X3-coefficient 2; 1-based, i < j
    bracket: 2 3 -> 1 : 2
    metric:                    # followed by dim rows of scalar entries
    eps 0 0
    0 1 0
    0 0 1

Keys may appear in any order; `dim` must appear somewhere, and `name`,
`dim`, `basis`, `metric` and each bracket component at most once.  The
dimension and the bracket indices are runs of decimal digits, with no sign
or underscore.  The `basis` labels are not used: `loads` checks that there
are `dim` of them and then discards them, and reports always name the
basis X1..Xn.  Scalar entries use the same syntax the whole package
prints: integers, rationals p/q, 'eps', + - * / ^ and parentheses.
"""

from __future__ import annotations

from itertools import islice

from .algebra import MAX_DIM, MetricLieAlgebra, ValidationFailed  # re-exported
from .scalars import (
    DivisionByZeroFunction,
    ScalarSyntaxError,
    parse_scalar,
    record,
)


@record(frozen=True)
class ReferenceNote:
    """One known discrepancy between these results and circulating tables."""

    note_id: str
    subject: str
    text: str


@record(frozen=True)
class CatalogEntry:
    key: str
    description: str
    algebra: MetricLieAlgebra
    notes: tuple[ReferenceNote, ...] = ()


def berger() -> MetricLieAlgebra:
    """su(2) with [X1,X2]=2X3 cyclic and metric diag(eps, 1, 1)."""
    return MetricLieAlgebra.from_brackets(
        3,
        {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2}},
        [["eps", 0, 0], [0, 1, 0], [0, 0, 1]],
        name="berger-sphere",
    )


def abelian_control() -> MetricLieAlgebra:
    """Flat abelian algebra with Lorentzian metric diag(-1, 1, 1)."""
    return MetricLieAlgebra.from_brackets(
        3,
        {},
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
        name="abelian-lorentz",
    )


_BERGER_NOTES = (
    ReferenceNote(
        "connection-entry-33",
        "connection",
        "Every nabla_{Xi} Xi vanishes; in particular the (3,3) entry of the "
        "first connection operator is 0. Some published tabulations of this "
        "family print a 1 there, which the Koszul formula rules out.",
    ),
    ReferenceNote(
        "lie-derivative-sign",
        "killing",
        "The Lie-derivative components here satisfy the defining identity "
        "(Lie_X g)(Y,Z) = g(nabla_Y X, Z) + g(Y, nabla_Z X). Tables listing "
        "the opposite overall sign describe -Lie_X g; Killing and soliton "
        "verdicts are unaffected.",
    ),
    ReferenceNote(
        "energy-density-constant",
        "energy",
        "The energy density constant is dim/2 = 3/2. A quoted constant of 2 "
        "corresponds to a different normalization; only the gradient term "
        "matters for criticality.",
    ),
    ReferenceNote(
        "energy-coefficient-family-2",
        "energy",
        "The second critical family's energy slope is (eps^2-2*eps+2)/eps. "
        "A circulating misprint renders the numerator as a squared binomial; "
        "the value here is confirmed by the independent numeric route.",
    ),
    ReferenceNote(
        "laplacian-eigenvalues-at-minus-one",
        "laplacian",
        "At eps=-1 the rough Laplacian's eigenvalues are 2 and 10 (double). "
        "A sign slip reporting -10 appears in some summaries.",
    ),
)


def catalog() -> dict[str, CatalogEntry]:
    return {
        "berger": CatalogEntry(
            "berger",
            "one-parameter metric deformation of su(2), diag(eps,1,1)",
            berger(),
            _BERGER_NOTES,
        ),
        "abelian": CatalogEntry(
            "abelian",
            "flat abelian control case with Lorentzian metric diag(-1,1,1)",
            abelian_control(),
        ),
    }


# ---------------------------------------------------------------------------
# text format


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_entry(text: str, lineno: int):
    try:
        return parse_scalar(text)
    except (ScalarSyntaxError, DivisionByZeroFunction) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}", lineno) from exc


def _decimal(text: str) -> int:
    """`int` of a run of decimal digits only; ValueError otherwise."""
    if not text.isdecimal():
        raise ValueError(text)
    return int(text)


def loads(text: str) -> MetricLieAlgebra:
    """Parse the line-based algebra format; see the module docstring.

    Raises ParseError with the offending line number on malformed input;
    the `MetricLieAlgebra` constructor raises ValidationFailed if the parsed
    data breaks antisymmetry, Jacobi, or metric symmetry/nondegeneracy.
    """
    lines = text.splitlines()
    stripped = [(i, body) for i, raw in enumerate(lines, start=1)
                if (body := raw.partition("#")[0].strip())]

    # keys come in any order, and the bracket and metric checks need dim
    dims = [(lineno, body[4:].strip()) for lineno, body in stripped if body.startswith("dim:")]
    if not dims:
        raise ParseError("missing 'dim:' line", len(lines) or 1)
    dim_line, dim_text = dims[0]
    try:
        dim = _decimal(dim_text)
    except ValueError:
        raise ParseError(f"bad dimension {dim_text!r}", dim_line)
    if len(dims) > 1:
        raise ParseError("duplicate dim", dims[1][0])
    if not 1 <= dim <= MAX_DIM:
        raise ParseError(f"dimension {dim} not in 1..{MAX_DIM}", dim_line)

    name = "unnamed"
    seen: set[str] = set()  # the keys read so far that may appear once
    brackets: dict[tuple[int, int], dict[int, object]] = {}
    metric_rows: list[list] | None = None
    rest = iter(stripped)
    for lineno, body in rest:
        key, colon, value = body.partition(":")
        # a bare 'name' or 'basis' after its keyed line is a duplicate; a
        # bare 'metric' is an unrecognized line
        if key in seen and key != "metric":
            raise ParseError(f"duplicate {key}", lineno)
        if not colon or key not in ("dim", "name", "basis", "bracket", "metric"):
            raise ParseError(f"unrecognized line {body!r}", lineno)
        if key in seen:
            raise ParseError("duplicate metric block", lineno)
        if key in ("name", "basis", "metric"):
            seen.add(key)
        if key == "name":
            name = value.strip() or name
        elif key == "basis":
            if len(value.split()) != dim:
                raise ParseError(f"expected {dim} basis labels", lineno)
        elif key == "bracket":
            left, arrow, target = value.partition("->")
            target, colon, coeff_text = target.partition(":")
            if not arrow or not colon:
                raise ParseError("bracket syntax is 'bracket: i j -> k : coeff'", lineno)
            try:
                i, j = map(_decimal, left.split())
                k = _decimal(target.strip())
            except ValueError:
                raise ParseError("bracket indices must be integers", lineno)
            if not (1 <= i < j <= dim) or not 1 <= k <= dim:
                raise ParseError(f"bracket indices out of range for dim {dim} "
                                 "(need 1 <= i < j <= dim)", lineno)
            coeff = _parse_entry(coeff_text.strip(), lineno)
            slot = brackets.setdefault((i - 1, j - 1), {})
            if k - 1 in slot:
                raise ParseError(f"duplicate bracket component {i} {j} -> {k}", lineno)
            slot[k - 1] = coeff
        elif key == "metric":
            rows = [(lineno, value)] if value.strip() else []
            rows += islice(rest, dim - len(rows))
            if len(rows) < dim:
                raise ParseError(f"metric block needs {dim} rows", lineno)
            metric_rows = []
            for rl, row_text in rows:
                entries = row_text.split()
                if len(entries) != dim:
                    raise ParseError(f"metric row has {len(entries)} entries, "
                                     f"expected {dim}", rl)
                metric_rows.append([_parse_entry(e, rl) for e in entries])

    if metric_rows is None:
        raise ParseError("missing 'metric:' block", len(lines) or 1)
    return MetricLieAlgebra.from_brackets(dim, brackets, metric_rows, name=name)


def load(path: str) -> MetricLieAlgebra:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(alg: MetricLieAlgebra) -> str:
    """Serialize; loads(dumps(a)) reproduces the same data exactly.

    Raises ValueError on a name that the format cannot carry: an empty one,
    one with surrounding whitespace, a '#' or a line break.
    """
    name = alg.name
    if name.splitlines() != [name] or name != name.strip() or "#" in name:
        raise ValueError(f"name {name!r} does not survive the text format")
    out = [f"name: {name}", f"dim: {alg.dim}"]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(alg.dim):
                c = alg.brackets[i][j][k]
                if not c.is_zero:
                    out.append(f"bracket: {i+1} {j+1} -> {k+1} : {c}")
    out.append("metric:")
    for row in alg.metric:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"
