"""Command line interface.

One algebra in (built-in or from a file), one analysis out, as delimited
text or deterministic JSON.  Negative mathematical verdicts ("no soliton",
"not Walker") exit 0; exit 1 means the input failed validation or a
computation could not be completed honestly; exit 2 is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .catalog import ParseError, ValidationFailed, catalog, load
from .geometry import SOLITON_CONVENTIONS, CaseAnalysisIncomplete
from .numeric import OutsideFloatRange, SingularMetricAtPoint
from .report import (
    SECTION_COMMANDS,
    eval_report,
    full_report,
    render_json,
    render_text,
    single_report,
    validate_report,
)
from .scalars import DivisionByZeroFunction, PoleAtEvaluationPoint


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--berger", action="store_true",
        help="use the built-in one-parameter deformation of su(2)",
    )
    group.add_argument(
        "--algebra", metavar="FILE",
        help="load a metric Lie algebra from FILE (see the package README)",
    )
    source.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    convention = argparse.ArgumentParser(add_help=False)
    convention.add_argument(
        "--soliton-convention", choices=SOLITON_CONVENTIONS, default="paper",
        help="normalization of the soliton equation: 'paper' solves "
        "Lie_X g = lam*g - ric, 'doubled' doubles the right-hand side",
    )

    parser = argparse.ArgumentParser(
        prog="liegeom",
        description="Exact invariant geometry of low-dimensional metric Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "report", parents=[source, convention],
        help="run every analysis and print the full report",
    )
    for name, (blurb, _) in SECTION_COMMANDS.items():
        parents = [source, convention] if name == "soliton" else [source]
        sub.add_parser(name, parents=parents, help=blurb)

    sub.add_parser(
        "validate", parents=[source],
        help="check antisymmetry, Jacobi, and metric nondegeneracy",
    )

    p_eval = sub.add_parser(
        "eval", parents=[source],
        help="numeric snapshot at a rational parameter value",
    )
    p_eval.add_argument(
        "--eps", type=_rational, required=True, metavar="RATIONAL",
        help="parameter value, e.g. 2 or -3/4",
    )
    return parser


def _load(args) -> tuple:
    if args.berger:
        entry = catalog()["berger"]
        return entry.algebra, entry.notes
    return load(args.algebra), ()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "validate":
            try:
                doc = validate_report(_load(args)[0])
            except ValidationFailed as failure:
                doc = validate_report(failure)
        else:
            alg, notes = _load(args)
            if args.command == "report":
                doc = full_report(alg, notes, args.soliton_convention)
            elif args.command == "eval":
                doc = eval_report(alg, args.eps)
            else:
                # the soliton section alone takes an option, its convention
                options = ({"convention": args.soliton_convention}
                           if "soliton_convention" in args else {})
                doc = single_report(args.command, alg, **options)
    except (
        ParseError,
        ValidationFailed,
        OSError,
        SingularMetricAtPoint,
        OutsideFloatRange,
        PoleAtEvaluationPoint,
        DivisionByZeroFunction,
        CaseAnalysisIncomplete,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = render_json(doc) if args.format == "json" else render_text(doc)
    sys.stdout.write(out)
    if args.command == "validate" and not doc["ok"]:
        return 1
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
