"""Report envelope, schema validation, and internal consistency checks.

Every CLI run emits one JSON report: a fixed envelope (schema tag,
version, command echo, inputs, tolerances, wall time) around a results
object tagged with its kind. Numeric claims are {"value": x, "tol": t}
pairs so a report is checkable without rerunning the solver: validation
re-derives the residual from the embedded form and compares against ten
times the stated tolerance.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np
from jsonschema import Draft202012Validator

from .angles import make_context
from .errors import KappaUndefinedError, WorkbenchError
from .gd import (QUOTIENT_TOL, RELATION_PQ, RELATION_SIDES, SEARCH_TOL,
                 cell_graph, quotient_rho)
from .networks import ConductanceForm, harmonic_extension
from .relations import (build_J_plus_minus, certificate_summary,
                        enumerate_preserved, nested_pairs, per_cell_flows,
                        verdict_rule)
from .renorm import HarmonicStructure, replicate, solve_eigenform
from .structure import MsStructure, build_structure

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "version", "command", "wall_time_s",
                 "inputs", "tolerances", "results"],
    "properties": {
        "schema": {"const": "fr-1"},
        "version": {"type": "string"},
        "command": {"type": "array", "items": {"type": "string"}},
        "wall_time_s": {"type": "number", "minimum": 0},
        "inputs": {"type": "object"},
        "tolerances": {"type": "object", "minProperties": 1},
        "results": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"type": "string"}},
        },
    },
    "additionalProperties": False,
}

_VALIDATOR = Draft202012Validator(REPORT_SCHEMA)

KINDS = ("structure", "harmonic", "relations", "resistance", "flows",
         "gd_structure", "gd_harmonic", "gd_rhos")


def claim(value: float, tol: float) -> dict:
    """A numeric claim: the value together with its tolerance."""
    return {"value": float(value), "tol": float(tol)}


def form_to_json(form: ConductanceForm) -> dict:
    return {
        "vertices": [str(v) for v in form.vertices],
        "edges": [[str(x), str(y), w] for x, y, w in form.pairs()],
    }


def _form_matrix_from_json(data: dict) -> tuple[list[str], np.ndarray]:
    verts = list(data["vertices"])
    index = {v: i for i, v in enumerate(verts)}
    mat = np.zeros((len(verts), len(verts)))
    for x, y, w in data["edges"]:
        mat[index[x], index[y]] += float(w)
        mat[index[y], index[x]] += float(w)
    return verts, mat


def flows_results(structure: MsStructure, hs: HarmonicStructure,
                  values: Sequence[float]) -> dict:
    """Results of a flows report: the level-1 harmonic extension of the
    boundary values (in angle order) and its per-cell flows."""
    if len(values) != len(structure.boundary):
        raise ValueError(f"--values needs {len(structure.boundary)} entries "
                         "(boundary order, sorted by angle)")
    boundary_ids = list(structure.scheme.marked)
    ext = harmonic_extension(replicate(structure, hs.form), boundary_ids,
                             dict(zip(boundary_ids, values)))
    report_flows = per_cell_flows(structure, hs, ext.values)
    return {
        "kind": "flows",
        "boundary_values": dict(zip([str(a) for a in structure.boundary],
                                    values)),
        "boundary_flow": {str(a): v
                          for a, v in report_flows.boundary_flow.items()},
        "cell_flows": [{str(a): v for a, v in cf.items()}
                       for cf in report_flows.cell_flows],
        "active_boundary": [str(a) for a in report_flows.active_boundary],
        "active_critical": [str(a) for a in report_flows.active_critical],
        "conservation_defect": claim(report_flows.conservation_defect, 1e-9),
        "matching_defect": claim(report_flows.matching_defect, 1e-9),
        "scaling_defect": claim(report_flows.scaling_defect, 1e-9),
    }


def render_report(report: Mapping) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(path: str, report: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))


def _check_claim(node, name: str, errors: list[str]) -> Optional[float]:
    if not isinstance(node, dict) or "value" not in node or "tol" not in node:
        errors.append(f"{name}: numeric claim must carry value and tol")
        return None
    if not (isinstance(node["value"], (int, float))
            and isinstance(node["tol"], (int, float))):
        errors.append(f"{name}: value and tol must be numbers")
        return None
    return float(node["value"])


def _recompute_residual(results: dict, errors: list[str]) -> None:
    """Rederive the eigen residual of a harmonic or gd_harmonic report."""
    harmonic = results.get("harmonic")
    if not isinstance(harmonic, dict):
        errors.append(f"{results['kind']} results missing the harmonic block")
        return
    eta = _check_claim(harmonic.get("eta"), "eta", errors)
    resid = harmonic.get("residual")
    stated = _check_claim(resid, "residual", errors)
    if eta is None or stated is None:
        return
    if results["kind"] == "gd_harmonic" \
            and not results.get("converged", True):
        return  # exploratory run; no eigen equation to check
    tol = float(resid["tol"])
    try:
        if results["kind"] == "gd_harmonic":
            structure = cell_graph(int(results["ctx"]["n"]),
                                   int(results["ctx"]["m"]))
        else:
            structure = _structure_from_inputs(dict(
                results["structure"]["ctx"],
                symmetrized=bool(results["structure"]["symmetrized"])))
        verts, mat = _form_matrix_from_json(harmonic["form"])
    except Exception as exc:
        errors.append(f"cannot rebuild structure/form: {exc}")
        return
    expected = [str(a) for a in structure.boundary]
    if sorted(verts) != sorted(expected):
        errors.append("embedded form vertices do not match the boundary")
        return
    order = [verts.index(s) for s in expected]
    recomputed = structure.scheme.residual(mat[np.ix_(order, order)], eta)
    if recomputed > 10.0 * max(tol, 1e-15):
        errors.append(
            f"recomputed residual {recomputed:.3e} exceeds 10x stated "
            f"tolerance {tol:.1e}")


def _check_resistance(results: dict, errors: list[str]) -> None:
    matrix = results.get("matrix")
    verts = results.get("vertices")
    if not isinstance(matrix, list) or not isinstance(verts, list):
        errors.append("resistance results need vertices and matrix")
        return
    nv = len(verts)
    if len(matrix) != nv or any(len(row) != nv for row in matrix):
        errors.append("resistance matrix shape does not match vertices")
        return
    for i in range(nv):
        if abs(matrix[i][i]) > 1e-12:
            errors.append("resistance matrix diagonal must be zero")
            break
        for j in range(nv):
            if matrix[i][j] < -1e-12:
                errors.append("resistance matrix must be nonnegative")
                return
            if abs(matrix[i][j] - matrix[j][i]) > 1e-9:
                errors.append("resistance matrix must be symmetric")
                return


def _check_structure(results: dict, errors: list[str]) -> None:
    s = results.get("structure")
    if not isinstance(s, dict):
        errors.append("structure results missing structure block")
        return
    boundary = s.get("boundary", [])
    cells = s.get("cells", {})
    if set(boundary) != set(cells):
        errors.append("cells mapping does not cover the boundary")
    if not set(s.get("glue_points", [])) <= set(boundary):
        errors.append("glue points must be boundary angles")


def _check_gd_structure(results: dict, errors: list[str]) -> None:
    ctx = results.get("ctx", {})
    try:
        ring = int(ctx["n"]) + int(ctx["m"])
    except Exception:
        errors.append("gd_structure results missing ctx")
        return
    if results.get("num_vertices") != 2 * ring * ring:
        errors.append("gd vertex count does not equal 2(m+n)^2")
    tables = results.get("corner_maps", [])
    if len(tables) != 4 * ring * ring:
        errors.append("corner map table must have 4(m+n)^2 rows")


# what a malformed or edited report can make a recomputation raise
_REBUILD_ERRORS = (ArithmeticError, KeyError, TypeError, ValueError,
                   WorkbenchError)


def _structure_from_inputs(inputs: dict) -> MsStructure:
    ctx = make_context(int(inputs["n"]), int(inputs["m"]),
                       Fraction(inputs["theta"]))
    return build_structure(ctx, symmetrize=inputs.get("symmetrized"))


def _check_relations(report: dict, errors: list[str]) -> None:
    """Re-enumerate, then rederive every verdict step but the rho searches.

    The rho values themselves are search results and are taken as stated;
    the flags, nesting, verdict and certificate outcomes built from them
    are recomputed.
    """
    inputs, results = report["inputs"], report["results"]
    try:
        structure = _structure_from_inputs(inputs)
        preserved = enumerate_preserved(structure, bool(inputs["require_g"]),
                                        cap=int(inputs["cap"]))
    except _REBUILD_ERRORS as exc:
        errors.append(f"cannot re-enumerate the preserved relations: {exc}")
        return
    if results.get("preserved") != [rel.to_json() for rel in preserved]:
        errors.append("preserved relations differ from a fresh enumeration")
        return
    nontrivial = [rel for rel in preserved if not rel.is_trivial]
    want = [rel.to_json() for rel in nontrivial]
    verdict = results.get("verdict")
    if not isinstance(verdict, dict):
        errors.append("relations results missing the verdict block")
        return
    witnesses = verdict.get("witnesses", [])
    if [w.get("relation") for w in witnesses] != want:
        errors.append("witnesses do not list the nontrivial relations")
        return
    rhos = []
    for i, w in enumerate(witnesses):
        values = tuple(_check_claim(w.get(key), f"witness {i} {key}", errors)
                       for key in ("rho_over_relation", "rho_under_relation",
                                   "rho_over_quotient", "rho_under_quotient"))
        if None in values:
            return
        if w.get("criterion_met") != (values[3] - values[0] > 0):
            errors.append(f"witness {i}: criterion_met does not match "
                          "rho_under_quotient - rho_over_relation > 0")
        rhos.append(values)
    ordered = nested_pairs(nontrivial)
    if verdict.get("ordered_pairs") != [[a.to_json(), b.to_json()]
                                        for a, b in ordered]:
        errors.append("ordered_pairs do not match the nesting of the "
                      "relations")
    derived, _ = verdict_rule(rhos, bool(ordered))
    if verdict.get("verdict") != derived:
        errors.append(f"verdict {verdict.get('verdict')!r} does not follow "
                      f"from the witnesses (expected {derived!r})")
    certificates = results.get("certificates", [])
    if "solver_error" not in results and \
            [c.get("relation") for c in certificates] != want:
        errors.append("certificates do not list the nontrivial relations")
    for i, cert in enumerate(certificates):
        trajectory = [_check_claim(t, f"certificate {i} trajectory", errors)
                      for t in cert.get("trajectory", [])]
        margin = cert.get("margin")
        if not trajectory or None in trajectory \
                or not isinstance(margin, (int, float)):
            errors.append(f"certificate {i}: trajectory or margin missing")
            continue
        k, monotone = certificate_summary(trajectory, float(margin))
        if (cert.get("certified"), cert.get("k"), cert.get("monotone")) != \
                (k is not None, k, monotone):
            errors.append(f"certificate {i}: certified, k or monotone do "
                          "not follow from its trajectory")
    try:
        j_plus, j_minus = build_J_plus_minus(structure)
        candidates = {"plus": j_plus.to_json(), "minus": j_minus.to_json()}
    except KappaUndefinedError:
        candidates = None
    if results.get("candidates") != candidates:
        errors.append("candidate relations differ from a fresh build")


def _check_flows(report: dict, errors: list[str]) -> None:
    """Recompute the flows from the inputs and compare within tolerance."""
    inputs, results = report["inputs"], report["results"]
    try:
        structure = _structure_from_inputs(inputs)
        values = [float(tok) for tok in str(inputs["values"]).split(",")]
        hs = solve_eigenform(structure,
                             tol=float(report["tolerances"]["solver_tol"]))
        fresh = flows_results(structure, hs, values)
        flow_tol = float(report["tolerances"]["flow_tol"])
    except _REBUILD_ERRORS as exc:
        errors.append(f"cannot recompute the flows: {exc}")
        return
    for key in ("boundary_values", "active_boundary", "active_critical"):
        if results.get(key) != fresh[key]:
            errors.append(f"{key} differs from the recomputed flows")
    stated = [results.get("boundary_flow")] + list(
        results.get("cell_flows") or [])
    want = [fresh["boundary_flow"]] + fresh["cell_flows"]
    scale = max([1.0] + [abs(v) for flow in want for v in flow.values()])

    def close(got, flow: dict) -> bool:
        return (isinstance(got, dict) and set(got) == set(flow)
                and all(isinstance(got[a], (int, float))
                        and abs(got[a] - v) <= flow_tol * scale
                        for a, v in flow.items()))

    if len(stated) != len(want) or not all(map(close, stated, want)):
        errors.append(f"flows differ from the recomputed flows by more than "
                      f"{flow_tol:.1e} of scale {scale:.3e}")
    for key in ("conservation_defect", "matching_defect", "scaling_defect"):
        value = _check_claim(results.get(key), key, errors)
        if value is not None and \
                abs(value - fresh[key]["value"]) > results[key]["tol"]:
            errors.append(f"{key} {value:.3e} differs from the recomputed "
                          f"{fresh[key]['value']:.3e}")


def _check_gd_rhos(results: dict, errors: list[str]) -> None:
    """Recompute the exact quotient rhos. The searches are not rerun;
    their values need only rho_under <= rho_over within tolerance. The
    tolerances are the writer's fixed ones, not the tols in the report."""
    try:
        cell = cell_graph(int(results["ctx"]["n"]), int(results["ctx"]["m"]))
    except _REBUILD_ERRORS as exc:
        errors.append(f"cannot rebuild the gd cell: {exc}")
        return
    for key, relation in (("pq_pairs", RELATION_PQ),
                          ("side_pairs", RELATION_SIDES)):
        entry = results.get(key)
        if not isinstance(entry, dict) \
                or entry.get("relation") != relation.to_json():
            errors.append(f"{key} must carry the relation "
                          f"{relation.to_json()['blocks']}")
            continue
        pairs = sum(len(b) * (len(b) - 1) // 2 for b in relation.blocks)
        if entry.get("basis_dim") != pairs:
            errors.append(f"{key}: basis_dim must be {pairs}, the number of "
                          "within-block pairs")
        over, under, quotient = (
            _check_claim(entry.get(name), f"{key} {name}", errors)
            for name in ("rho_over_relation", "rho_under_relation",
                         "rho_quotient"))
        if quotient is not None:
            want = quotient_rho(cell, relation)
            if abs(quotient - want) > QUOTIENT_TOL:
                errors.append(f"{key} rho_quotient {quotient!r} differs from "
                              f"the recomputed {want!r}")
        if over is not None and under is not None \
                and under > over + SEARCH_TOL:
            errors.append(f"{key}: rho_under_relation exceeds "
                          "rho_over_relation")


def validate_report_details(path: str) -> list[str]:
    """Schema plus consistency validation; empty list means valid."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    errors = [f"schema: {e.message}" for e in _VALIDATOR.iter_errors(report)]
    if errors:
        return errors
    results = report["results"]
    kind = results.get("kind")
    if kind not in KINDS:
        return [f"unknown result kind {kind!r}"]
    if kind in ("harmonic", "gd_harmonic"):
        _recompute_residual(results, errors)
    elif kind == "gd_rhos":
        _check_gd_rhos(results, errors)
    elif kind == "relations":
        _check_relations(report, errors)
    elif kind == "flows":
        _check_flows(report, errors)
    elif kind == "resistance":
        _check_resistance(results, errors)
    elif kind == "structure":
        _check_structure(results, errors)
    elif kind == "gd_structure":
        _check_gd_structure(results, errors)
    for value in report["tolerances"].values():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("tolerances must be finite numbers")
            break
    return errors


def validate_report(path: str) -> bool:
    return not validate_report_details(path)
