"""Report documents: plain dicts rendered to text or JSON.

Every CLI subcommand builds one document here.  Documents contain only
strings, booleans, integers, lists, and dicts, with all exact scalars
already rendered through the canonical printer, so `render_json` output is
byte-identical across runs and `render_text` is a straight traversal.
Numeric evaluations format floats with %.17g, which round-trips doubles.

The full report concatenates every analysis section for one algebra and
carries the catalog's annotation notes when the algebra came from the
catalog.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import MetricLieAlgebra, vector_str
from .catalog import ReferenceNote
from .geometry import (
    GeodesicClassification,
    HarmonicityReport,
    KillingVerdict,
    SolitonVerdict,
    WalkerVerdict,
    component_str,
    einstein_check,
    energy_report,
    geodesic_classify,
    harmonicity_classify,
    killing_solve,
    ledger_check,
    ricci_soliton_solve,
    walker_check,
)
from .numeric import NumericModel, evaluate_numeric
from .scalars import RatFunc, component_names, mu_poly_str, poly_str

SCHEMA = "1"


def _matrix(rows) -> list[list[str]]:
    # every entry is a `RatFunc`, and `str` is its canonical printer
    return [[str(x) for x in row] for row in rows]


def _float_str(x: float) -> str:
    return f"{x:.17g}"


def _vectors(vectors) -> list[str]:
    return [vector_str(v) for v in vectors]


# ---------------------------------------------------------------------------
# section builders


def algebra_section(alg: MetricLieAlgebra) -> dict:
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            coords = [alg.brackets[i][j][k] for k in range(alg.dim)]
            if any(not c.is_zero for c in coords):
                brackets.append(f"[X{i+1},X{j+1}] = {vector_str(coords)}")
    violations = alg.validate()
    return {
        "name": alg.name,
        "dim": alg.dim,
        "brackets": brackets,
        "metric": _matrix(alg.metric),
        "metric_det": str(alg.metric_det),
        "singular_eps": [str(x) for x in alg.singular_parameters()],
        "validation": "ok" if not violations else [str(v) for v in violations],
    }


def connection_section(alg: MetricLieAlgebra) -> dict:
    K = alg.nabla_basis
    derivs = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            if any(not c.is_zero for c in K[i][j]):
                derivs[f"nabla_X{i+1} X{j+1}"] = vector_str(K[i][j])
    ops = {
        f"Lambda_{i+1}": _matrix(alg.connection_operators[i])
        for i in range(alg.dim)
    }
    return {"covariant_derivatives": derivs, "operators": ops}


def curvature_section(alg: MetricLieAlgebra) -> dict:
    n = alg.dim
    ops = {}
    for i in range(n):
        for j in range(i + 1, n):
            ops[f"R(X{i+1},X{j+1})"] = _matrix(alg.curvature_operator(i, j))
    comps = {}
    R4 = alg.curvature_tensor
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    v = R4[i][j][k][l]
                    if not v.is_zero:
                        comps[f"R(X{i+1},X{j+1},X{k+1},X{l+1})"] = str(v)
    return {"operators": ops, "components": comps}


def ricci_section(alg: MetricLieAlgebra) -> dict:
    ein = einstein_check(alg)
    return {
        "matrix": _matrix(alg.ricci),
        "scalar_curvature": str(alg.scalar_curvature),
        "einstein": {
            "generic": ein.generic,
            "lam": str(ein.lam) if ein.lam is not None else None,
            "exceptional": [
                {"eps": str(e), "lam": str(l)}
                for e, l in ein.exceptional
            ],
        },
    }


def soliton_section(alg: MetricLieAlgebra, convention: str = "paper") -> dict:
    v: SolitonVerdict = ricci_soliton_solve(alg, convention)
    if v.generic_soliton:
        coords, lam = v.witness
        generic = {
            "exists": True,
            "X": vector_str(coords),
            "lam": str(lam),
            "type": v.soliton_type,
            "free_dimension": v.solution.generic.kernel_dim,
        }
    else:
        generic = {"exists": False, "statement": "no invariant Ricci soliton"}
    return {
        "convention": convention,
        "equation": "Lie_X g = lam*g - ric"
        if convention == "paper"
        else "Lie_X g = 2*(lam*g - ric)",
        "equations": [poly_str(v.unknowns, e) for e in v.equations],
        "generic": generic,
        "exceptional": [
            {
                "eps": str(b.eps),
                "kind": b.kind,
                "lam": str(b.lam) if b.lam is not None else None,
                "X": vector_str(b.witness) if b.witness is not None else None,
                "free_dimension": b.kernel_dim,
                "description": b.description,
            }
            for b in v.exceptional
        ],
    }


def killing_section(alg: MetricLieAlgebra) -> dict:
    v: KillingVerdict = killing_solve(alg)
    return {
        "generic_dimension": len(v.basis),
        "basis": _vectors(v.basis) or ["0"],
        "exceptional": [
            {
                "eps": str(b.eps),
                "dimension": b.result.kernel_dim,
                "basis": _vectors(b.result.kernel),
            }
            for b in v.exceptional
        ],
    }


def geodesic_section(alg: MetricLieAlgebra) -> dict:
    g: GeodesicClassification = geodesic_classify(alg)
    return {
        "coefficients": list(g.names),
        "equations": [poly_str(g.names, e) for e in g.equations] or ["0"],
        "solution": [component_str(c, g.names) for c in g.components],
        "exceptional": [
            {
                "eps": str(b.eps),
                "solution": [component_str(c, g.names) for c in b.components],
            }
            for b in g.exceptional
        ],
    }


def walker_section(alg: MetricLieAlgebra) -> dict:
    w: WalkerVerdict = walker_check(alg)
    return {
        "admits_null_parallel_line_field": w.is_walker,
        "witness": vector_str(w.witness) if w.witness is not None else None,
        "exceptional": [
            {
                "eps": str(eps),
                "admits": admits,
                "witness": vector_str(coords) if coords is not None else None,
            }
            for eps, admits, coords in w.exceptional
        ],
        "numeric_cross_checks": [
            {"eps": str(eps), "agrees": ok} for eps, ok in w.numeric_checks
        ],
    }


def ledger_section(alg: MetricLieAlgebra) -> dict:
    rep = ledger_check(alg)
    out = {
        "degree3_holds": rep.l3_holds,
        "degree5_holds": rep.l5_holds,
    }
    if not rep.l3_holds:
        out["degree3_violations"] = [
            f"(X{i},X{j},X{k})" for i, j, k in rep.l3_violations
        ]
    if not rep.l5_holds:
        out["degree5_nonzero_terms"] = len(rep.l5_poly)
        out["degree5_polynomial"] = poly_str(component_names(alg.dim), rep.l5_poly)
    return out


def harmonic_section(alg: MetricLieAlgebra) -> dict:
    h: HarmonicityReport = harmonicity_classify(alg)
    residual = alg.laplacian_spectrum.residual
    sections = next((f.basis for f in h.families if f.section_harmonic), [])
    return {
        "laplacian": _matrix(alg.rough_laplacian),
        "critical_families": [{
            "eigenvalue": str(f.eigenvalue),
            "multiplicity": f.multiplicity,
            "basis": _vectors(f.basis),
            "harmonic_section": f.section_harmonic,
            "curvature_trace_vanishes": f.trace_vanishes,
            "harmonic_map": f.map_harmonic,
            "harmonic_at_eps": [str(x) for x in f.harmonic_eps],
        } for f in h.families],
        "unresolved_factor_degree": len(residual) - 1,
        "unresolved_factor": mu_poly_str(residual) if len(residual) > 1 else None,
        "harmonic_sections": _vectors(sections) or ["none"],
        "parallel_fields": _vectors(h.parallel_basis) or ["none"],
    }


def energy_section(alg: MetricLieAlgebra) -> dict:
    rep = energy_report(alg)
    density = rep.density_generic
    return {
        "density_generic": str(density) if isinstance(density, RatFunc)
        else poly_str(component_names(rep.dim), density),
        "families": [{
            "eigenvalue": str(f.eigenvalue),
            "basis": _vectors(f.basis),
            "constant_term": str(f.constant),
            "rho2_coefficient": None if f.rho2_coeff is None else str(f.rho2_coeff),
            # a null family (rho^2 = 0 on every member) has the constant energy
            "energy": str(f.constant) if f.rho2_coeff is None
            else f"{f.constant} + ({f.rho2_coeff})*rho^2",
        } for f in rep.families],
    }


def eval_section(alg: MetricLieAlgebra, eps0: Fraction) -> dict:
    m: NumericModel = evaluate_numeric(alg, eps0)
    return {
        "eps": str(m.eps),
        "signature": m.signature,
        "frame_signs": list(m.signs),
        "frame": [[_float_str(x) for x in row] for row in m.frame],
        "ricci": [[_float_str(x) for x in row] for row in m.ricci],
        "ricci_frame": [[_float_str(x) for x in row] for row in m.frame_ricci],
        "scalar_curvature": _float_str(m.scalar_curvature),
        "laplacian_eigenvalues": [
            _float_str(x) if isinstance(x, float) else str(x)
            for x in m.laplacian_eigenvalues
        ],
    }


# ---------------------------------------------------------------------------
# whole documents


def _annotations(notes: tuple[ReferenceNote, ...]) -> list[dict]:
    return [
        {"id": n.note_id, "subject": n.subject, "text": n.text} for n in notes
    ]


def full_report(
    alg: MetricLieAlgebra,
    notes: tuple[ReferenceNote, ...] = (),
    soliton_convention: str = "paper",
) -> dict:
    return {
        "schema": SCHEMA,
        "report": "full",
        "algebra": algebra_section(alg),
        "annotations": _annotations(notes),
        "connection": connection_section(alg),
        "curvature": curvature_section(alg),
        "ricci": ricci_section(alg),
        "soliton": soliton_section(alg, soliton_convention),
        "killing": killing_section(alg),
        "geodesic": geodesic_section(alg),
        "walker": walker_section(alg),
        "ledger": ledger_section(alg),
        "harmonicity": harmonic_section(alg),
        "energy": energy_section(alg),
    }


# The sections that one CLI subcommand each prints alone, in the order of the
# CLI help: name -> (help text, section builder).
SECTION_COMMANDS = {
    "soliton": ("invariant Ricci soliton analysis", soliton_section),
    "killing": ("invariant Killing fields", killing_section),
    "geodesic": ("invariant geodesic fields", geodesic_section),
    "walker": ("invariant null parallel line fields", walker_section),
    "ledger": ("odd Ledger conditions of degree 3 and 5", ledger_section),
    "harmonic": ("rough Laplacian spectrum and harmonicity", harmonic_section),
    "energy": ("energy of the critical vector fields", energy_section),
}


def _document(kind: str, alg: MetricLieAlgebra, **body) -> dict:
    """A document on one algebra that names it by name and dimension only."""
    return {
        "schema": SCHEMA,
        "report": kind,
        "algebra": {"name": alg.name, "dim": alg.dim},
        **body,
    }


def single_report(kind: str, alg: MetricLieAlgebra, **kwargs) -> dict:
    """The document of one `SECTION_COMMANDS` section; the keyword arguments
    go to its builder (the soliton section takes `convention`)."""
    _, build = SECTION_COMMANDS[kind]
    return _document(kind, alg, **{kind: build(alg, **kwargs)})


def validate_report(alg: MetricLieAlgebra) -> dict:
    violations = alg.validate()
    return _document("validate", alg, ok=not violations,
                     violations=[str(v) for v in violations])


def eval_report(alg: MetricLieAlgebra, eps0: Fraction) -> dict:
    return _document("eval", alg, eval=eval_section(alg, eps0))


# ---------------------------------------------------------------------------
# renderers


def render_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) and a newline, byte for byte.  With an
    indent, `json` runs its pure-Python encoder; this writer appends the
    pieces to one list and leaves only strings to `json`'s C escaper."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the JSON of `value` with `newline` (a line break and the
    current indent) before each closing bracket; a float, or a value or key
    of any type not written here, goes through `json.dumps`."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for v in value:
            out.append(sep + inner)
            _write_json(v, inner, out)
            sep = ","
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for k, v in value.items():
            # json quotes the JSON of an int, float, bool or None key
            key = _json_str(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]
            out.append(f"{sep}{inner}{key}: ")
            _write_json(v, inner, out)
            sep = ","
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


_json_str = json.encoder.encode_basestring_ascii


def _render_fields(fields: dict, indent: int, lines: list[str]) -> None:
    for k, v in fields.items():
        _render_value(k, v, indent, lines)


def _render_records(records: list[dict], indent: int, lines: list[str]) -> None:
    for item in records:
        lines.append("  " * indent + "-")
        _render_fields(item, indent + 1, lines)


def _render_value(key: str, val, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(val, dict):
        lines.append(f"{pad}{key}:")
        _render_fields(val, indent + 1, lines)
    elif isinstance(val, list):
        if val and all(isinstance(x, list) for x in val):
            lines.append(f"{pad}{key}:")
            for row in val:
                lines.append(f"{pad}  [" + ", ".join(str(x) for x in row) + "]")
        elif val and all(isinstance(x, dict) for x in val):
            lines.append(f"{pad}{key}:")
            _render_records(val, indent + 1, lines)
        elif not val:
            lines.append(f"{pad}{key}: (none)")
        else:
            lines.append(f"{pad}{key}: " + ", ".join(str(x) for x in val))
    elif isinstance(val, bool):
        lines.append(f"{pad}{key}: {'yes' if val else 'no'}")
    elif val is None:
        lines.append(f"{pad}{key}: -")
    else:
        lines.append(f"{pad}{key}: {val}")


def render_text(doc: dict) -> str:
    """Each section under an `== key ==` line; a top-level list prints one
    item per line, everything else as `_render_value` prints it."""
    lines: list[str] = []
    for key, val in doc.items():
        if key == "schema":
            continue
        if not isinstance(val, (dict, list)):
            _render_value(key, val, 0, lines)
            continue
        lines.append(f"== {key} ==")
        if isinstance(val, dict):
            _render_fields(val, 1, lines)
        elif val and all(isinstance(x, dict) for x in val):
            _render_records(val, 1, lines)
        else:
            lines.extend(f"  {x}" for x in val or ["(none)"])
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
