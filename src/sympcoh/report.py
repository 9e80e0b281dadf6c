"""Full report generation for one model: text and schema-stable JSON.

`run_compute` drives the whole pipeline: parse, validate, compute every
cohomology table, run the theorem-backed consistency checks, and pack
the results.  Dimensions serialize as integers and every rational as a
"p/q" string, so exactness survives serialization; JSON output is
byte-stable under serialize -> parse -> serialize.

Models whose algebra is neither nilpotent nor asserted completely
solvable get a mandatory caveat: the computed groups then live on the
Lie-algebra side and only bound the manifold-level groups from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any

from .cohomology import SymplecticCohomology, de_rham_cohomology
from .errors import InputError
from .exterior import render_form, render_row
from .lie import LieAlgebra, build_lie_algebra, check_properties
from .models import FLAG_COMPLETELY_SOLVABLE, FLAG_LATTICE, ModelFile
from .parsing import parse_form, parse_structure_equations, render_structure
from .symplectic import SymplecticStructure, validate_symplectic

__all__ = [
    "Report",
    "run_compute",
    "structure_from_model",
    "CAVEAT_LOWER_BOUND",
    "CAVEAT_LATTICE_UNIMODULAR",
]

SCHEMA = "sympcoh-report/1"

CAVEAT_LOWER_BOUND = "Lie-algebra cohomology; lower bound for manifold groups"
CAVEAT_LATTICE_UNIMODULAR = (
    "lattice asserted but the algebra is not unimodular; no lattice can exist"
)


def _algebra_from_model(model: ModelFile) -> LieAlgebra:
    structure = parse_structure_equations(model.structure, model.dim)
    return build_lie_algebra(structure)


def structure_from_model(model: ModelFile) -> SymplecticStructure:
    """Build the validated symplectic structure a model describes."""
    return _structure_on(_algebra_from_model(model), model)


def _structure_on(g: LieAlgebra, model: ModelFile) -> SymplecticStructure:
    if model.omega is None:
        raise InputError(f"model {model.name!r} has no omega")
    omega = parse_form(model.omega, g.dim, degree=2)
    return validate_symplectic(g, omega)


@dataclass(frozen=True)
class Report:
    """Computed results for one model, ready to serialize."""

    data: dict[str, Any]

    @property
    def name(self) -> str:
        return self.data["model"]["name"]

    def to_json_dict(self, degree: int | None = None) -> dict[str, Any]:
        if degree is None:
            return self.data
        filtered = dict(self.data)
        for section in ("hrs", "decompositions"):
            if filtered.get(section) is not None:
                filtered[section] = [
                    entry for entry in filtered[section] if entry["degree"] == degree
                ]
        if filtered.get("cohomology") is not None:
            tables = {}
            for key, table in filtered["cohomology"].items():
                tables[key] = (
                    [entry for entry in table if entry["degree"] == degree]
                    if table is not None
                    else None
                )
            filtered["cohomology"] = tables
        return filtered

    def to_json(self, degree: int | None = None) -> str:
        """The JSON text of `to_json_dict`, byte for byte ``json.dumps(d, indent=2) + "\\n"``."""
        out: list[str] = []
        _write_json(self.to_json_dict(degree), "\n", out)
        out.append("\n")
        return "".join(out)

    def to_text(self, degree: int | None = None) -> str:
        d = self.to_json_dict(degree)
        model = d["model"]
        lines = [f"model {model['name']} (dim {model['dim']})"]
        lines.append(f"  structure: {model['structure']}")
        if model["omega"] is not None:
            lines.append(f"  omega:     {model['omega']}")
        if model["flags"]:
            lines.append(f"  flags:     {', '.join(model['flags'])}")
        props = d["properties"]
        lines.append(
            "  properties: "
            + ", ".join(key for key in ("nilpotent", "solvable", "unimodular") if props[key])
        )
        lines.append(f"  betti: {d['betti']}")
        lines.append("  de Rham representatives:")
        for entry in d["cohomology"]["de_rham"]:
            reps = ", ".join(entry["representatives"]) or "-"
            lines.append(f"    H^{entry['degree']} (dim {entry['dim']}): {reps}")
        if d["cohomology"]["d_lambda"] is not None:
            for key, title in (
                ("d_lambda", "H_dLambda dims"),
                ("d_plus_d_lambda", "H_(d+dLambda) dims"),
                ("dd_lambda", "H_(d dLambda) dims"),
                ("primitive_d_plus_d_lambda", "PH_(d+dLambda) dims"),
                ("primitive_d", "PH_d dims"),
            ):
                table = d["cohomology"][key]
                if table:
                    dims = [entry["dim"] for entry in table]
                    lines.append(f"  {title}: {dims}")
        if d.get("hrs") is not None:
            lines.append("  H^(r,s) subgroups (nonzero):")
            for entry in d["hrs"]:
                if entry["dim"]:
                    reps = ", ".join(entry["representatives"]) or "-"
                    lines.append(
                        f"    H^({entry['r']},{entry['s']}) in H^{entry['degree']}"
                        f" (dim {entry['dim']}): {reps}"
                    )
        if d.get("decompositions") is not None:
            lines.append("  decompositions by degree:")
            for entry in d["decompositions"]:
                summands = " + ".join(
                    f"H^({it['r']},{it['s']})[{it['dim']}]" for it in entry["summands"]
                )
                lines.append(
                    f"    degree {entry['degree']}: sum dim {entry['sum_dim']}"
                    f" ({summands}) direct={entry['direct']} full={entry['full']}"
                )
        if d.get("hlc") is not None:
            per = ", ".join(
                f"L^{item['k']}:{'yes' if item['isomorphism'] else 'no'}"
                for item in d["hlc"]["per_degree"]
            )
            lines.append(f"  hard Lefschetz: {d['hlc']['overall']} ({per})")
            lines.append(f"  dd^Lambda-lemma: {d['dd_lambda_lemma']}")
        for entry in d.get("extra_form_checks") or []:
            lines.append(
                f"  form {entry['name']} = {entry['rendered']}: degree {entry['degree']},"
                f" d-closed={entry['d_closed']}, primitive={entry['primitive']},"
                f" class in H^(0,{entry['degree']})={entry['class_in_h0s']}"
            )
        for caveat in d["caveats"]:
            lines.append(f"  caveat: {caveat}")
        return "\n".join(lines) + "\n"


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append the ``json.dumps(value, indent=2)`` text of *value* to *out*.

    *newline* is a line break followed by the indentation of *value*'s
    own line.  Only str, int, bool, None, list and str-keyed dict are
    accepted; anything else raises TypeError.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"{type(value).__name__} is not a report JSON type")


def _rendered_representatives(group) -> list[str]:
    """Text of each representative of a `CohomologySpace` or `HrsGroup`."""
    return [
        render_row(group.ambient_dim, group.degree, row)
        for row in group.representative_rows.int_rows
    ]


def _cohomology_table(spaces) -> list[dict[str, Any]]:
    return [
        {
            "degree": space.degree,
            "dim": space.dim,
            "representatives": _rendered_representatives(space),
        }
        for space in spaces
    ]


def _dims_table(dims) -> list[dict[str, Any]]:
    return [{"degree": k, "dim": dim} for k, dim in enumerate(dims)]


def run_compute(model: ModelFile) -> Report:
    """Full pipeline: validate the model and compute every table."""
    g = _algebra_from_model(model)
    properties = check_properties(g)
    flags = sorted(model.flags)

    caveats: list[str] = []
    if not properties.nilpotent and FLAG_COMPLETELY_SOLVABLE not in model.flags:
        caveats.append(CAVEAT_LOWER_BOUND)
    if FLAG_LATTICE in model.flags and not properties.unimodular:
        caveats.append(CAVEAT_LATTICE_UNIMODULAR)

    model_echo: dict[str, Any] = {
        "name": model.name,
        "dim": g.dim,
        "structure_input": model.structure,
        "structure": render_structure(g.structure),
        "omega_input": model.omega,
        "omega": None,
        "flags": flags,
        "extra_forms": {
            name: render_form(parse_form(text, g.dim)) for name, text in model.extra_forms
        },
    }
    data: dict[str, Any] = {
        "schema": SCHEMA,
        "model": model_echo,
        "properties": {
            "nilpotent": properties.nilpotent,
            "solvable": properties.solvable,
            "unimodular": properties.unimodular,
            "completely_solvable_asserted": FLAG_COMPLETELY_SOLVABLE in model.flags,
            "lattice_asserted": FLAG_LATTICE in model.flags,
        },
        "betti": None,
        "cohomology": {
            "de_rham": None,
            "d_lambda": None,
            "d_plus_d_lambda": None,
            "dd_lambda": None,
            "primitive_d_plus_d_lambda": None,
            "primitive_d": None,
        },
        "hrs": None,
        "decompositions": None,
        "hlc": None,
        "dd_lambda_lemma": None,
        "extra_form_checks": [],
        "caveats": caveats,
    }
    tables = data["cohomology"]

    if model.omega is None:
        de_rham = de_rham_cohomology(g)
        data["betti"] = [space.dim for space in de_rham]
        tables["de_rham"] = _cohomology_table(de_rham)
        return Report(data)

    s = _structure_on(g, model)
    coh = SymplecticCohomology(s)
    n = s.n

    # Theorem-backed checks: a failure raises InternalInconsistencyError (exit code 3
    # in the CLI).  The first two need [omega]^n != 0, i.e. a unimodular algebra.
    if properties.unimodular:
        coh.h2_decomposition_check()
        coh.intersection_remark_check()
    coh.lr_equals_hr_check()
    coh.hlc_equals_dd_lemma_check()

    model_echo["omega"] = render_form(s.omega)

    hrs_table = data["hrs"] = []
    for sdeg in range(n + 1):
        for r in range((s.dim - sdeg) // 2 + 1):
            group = coh.hrs_group(r, sdeg)
            hrs_table.append(
                {
                    "r": r,
                    "s": sdeg,
                    "degree": group.degree,
                    "dim": group.dim,
                    "representatives": _rendered_representatives(group),
                }
            )
    hrs_table.sort(key=lambda entry: (entry["degree"], entry["r"]))

    data["decompositions"] = []
    for k in range(s.dim + 1):
        verdict = coh.decomposition(k)
        data["decompositions"].append(
            {
                "degree": k,
                "summands": [
                    {"r": r, "s": sdeg, "dim": dim}
                    for (r, sdeg), dim in sorted(verdict.summand_dims.items())
                ],
                "sum_dim": verdict.sum_dim,
                "direct": verdict.direct,
                "full": verdict.full,
            }
        )

    hlc = coh.hlc()
    data["hlc"] = {
        "per_degree": [
            {"k": k, "isomorphism": iso} for k, iso in enumerate(hlc.per_degree)
        ],
        "overall": hlc.overall,
    }

    for name, text in model.extra_forms:
        form = parse_form(text, g.dim)
        d_closed = g.d(form).is_zero()
        primitive = s.lam(form).is_zero()
        in_group = False
        if d_closed and form.degree <= n:
            cls = coh.de_rham[form.degree].class_of(form)
            in_group = coh.hrs_group(0, form.degree).classes.contains(cls)
        data["extra_form_checks"].append(
            {
                "name": name,
                "rendered": render_form(form),
                "degree": form.degree,
                "d_closed": d_closed,
                "primitive": primitive,
                "class_in_h0s": in_group,
            }
        )

    data["betti"] = list(coh.betti)
    tables["de_rham"] = _cohomology_table(coh.de_rham)
    tables["d_lambda"] = _dims_table(coh.dlambda_dims)
    tables["d_plus_d_lambda"] = _cohomology_table(coh.d_plus_dlambda)
    tables["dd_lambda"] = _dims_table(coh.ddlambda_dims)
    tables["primitive_d_plus_d_lambda"] = _cohomology_table(
        [coh.primitive_ph_plus(sdeg) for sdeg in range(n + 1)]
    )
    tables["primitive_d"] = [
        {"degree": sdeg, "dim": coh.primitive_ph_d(sdeg)} for sdeg in range(n + 1)
    ]
    data["dd_lambda_lemma"] = coh.dd_lemma()
    return Report(data)
