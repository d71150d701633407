"""Report envelope, envelope validation, and internal consistency checks.

Every CLI run emits one JSON report: a fixed envelope (schema tag,
version, command echo, inputs, tolerances, wall time) around a results
object tagged with its kind. Numeric claims are {"value": x, "tol": t}
pairs. Validation first checks the envelope: an object with exactly the
keys of ENVELOPE, each meeting its plain rule, every broken rule giving a
"schema: " line. It then re-derives the residual of a harmonic report
from its embedded form together with its checks, Rayleigh eta and
iteration count, and recomputes structure, relations, flows, resistance
and gd_rhos reports from their inputs, rho brackets and certificate
trajectories included.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .angles import make_context
from .errors import KappaUndefinedError, WorkbenchError
from .gd import DEFAULT_MAX_ITER as GD_MAX_ITER
from .gd import cell_graph, gd_relation_rhos, gd_solve
from .networks import ConductanceForm, harmonic_extension, resistance_matrix
from .relations import (DEFAULT_MARGIN, RATIO_TOL, RHO_KEYS,
                        build_J_plus_minus, certificate_summary,
                        enumerate_preserved, per_cell_flows, sabot_verdict,
                        uniqueness_certificate, verdict_rule)
from .renorm import (ETA_AGREEMENT_TOL, HarmonicStructure, _boundary_matrix,
                     _rayleigh_eta, replicate, solve_eigenform,
                     verify_harmonic_structure)
from .structure import (MsStructure, build_structure, level_size,
                        level_vertices, levels_to_json, structure_from_json)

# the envelope: each key a report must carry, with its rule; no other key
ENVELOPE = {
    "schema": (lambda v: v == "fr-1", 'must be "fr-1"'),
    "version": (lambda v: isinstance(v, str), "must be a string"),
    "command": (lambda v: isinstance(v, list)
                and all(isinstance(a, str) for a in v),
                "must be a list of strings"),
    "wall_time_s": (lambda v: isinstance(v, (int, float))
                    and not isinstance(v, bool) and v >= 0,
                    "must be a number >= 0"),
    "inputs": (lambda v: isinstance(v, dict), "must be an object"),
    "tolerances": (lambda v: isinstance(v, dict) and bool(v),
                   "must be a non-empty object"),
    "results": (lambda v: isinstance(v, dict)
                and isinstance(v.get("kind"), str),
                "must be an object with a string kind"),
}

RESISTANCE_TOL = 1e-9  # relative tolerance of a resistance matrix


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


def resistance_results(structure: MsStructure, hs: HarmonicStructure,
                       level: int, tol: float) -> dict:
    """Results of a resistance report: the boundary resistances at a level.

    eta*T(D) = D gives T^k(D) = eta^-k D: the level-k network traced onto
    the boundary is the eigenform over eta^k, so its resistances are eta^k
    times the eigenform's (Kigami, Analysis on Fractals, 2001, ch. 2-3).
    Nothing of level k is built; the level is checked against the depth cap.
    """
    level_size(structure, level)
    matrix = hs.eta ** level * resistance_matrix(hs.form, structure.boundary)
    return {
        "kind": "resistance",
        "level": level,
        "vertices": [str(a) for a in structure.boundary],
        "matrix": [[float(x) for x in row] for row in matrix],
        "eta": claim(hs.eta, tol * 10),
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


def _recompute_residual(report: dict, errors: list[str]) -> None:
    """Rederive the eigen residual of a harmonic or gd_harmonic report.

    A converged report is re-solved at its stated solver_tol and must stop
    at the same iteration; its eta_rayleigh is recomputed from the embedded
    form, and a harmonic report's checks block is rerun on that form and
    eta. An unconverged gd_harmonic report has no eigen equation. Its
    capped, deterministic run is repeated instead; eta, the form and the
    mass-ratio tail must match. Both comparisons use the writer's
    ETA_AGREEMENT_TOL, not a tol the report states.
    """
    results = report["results"]
    harmonic = results.get("harmonic")
    if not isinstance(harmonic, dict):
        errors.append(f"{results['kind']} results missing the harmonic block")
        return
    eta = _check_claim(harmonic.get("eta"), "eta", errors)
    resid = harmonic.get("residual")
    stated = _check_claim(resid, "residual", errors)
    if eta is None or stated is None:
        return
    tol = float(resid["tol"])
    gd = results["kind"] == "gd_harmonic"
    rerun = gd and not results.get("converged", True)
    try:
        iterations = int(harmonic["iterations"])
        solver_tol = float(report["tolerances"]["solver_tol"])
        if gd:
            n, m = int(results["ctx"]["n"]), int(results["ctx"]["m"])
            structure = cell_graph(n, m)
            hs = gd_solve(n, m, tol=solver_tol,
                          max_iter=iterations if rerun else GD_MAX_ITER)
        else:
            structure = structure_from_json(results["structure"])
            hs = solve_eigenform(structure, tol=solver_tol)
        verts, mat = _form_matrix_from_json(harmonic["form"])
        if rerun:
            tail = np.asarray(results["diagnostics"]["mass_ratio_tail"],
                              dtype=float)
    except Exception as exc:
        errors.append(f"cannot rebuild structure/form: {exc}")
        return
    expected = [str(a) for a in structure.boundary]
    if sorted(verts) != sorted(expected):
        errors.append("embedded form vertices do not match the boundary")
        return
    order = [verts.index(s) for s in expected]
    mat = mat[np.ix_(order, order)]
    if not rerun:
        scheme = structure.scheme
        recomputed = scheme.residual(mat, eta)
        if recomputed > 10.0 * max(tol, 1e-15):
            errors.append(
                f"recomputed residual {recomputed:.3e} exceeds 10x stated "
                f"tolerance {tol:.1e}")
        if hs.iterations != iterations:
            errors.append(f"a re-solve at solver_tol {solver_tol:.1e} stops "
                          f"at iteration {hs.iterations}, not {iterations}")
        rayleigh = _check_claim(harmonic.get("eta_rayleigh"), "eta_rayleigh",
                                errors)
        want = _rayleigh_eta(mat, scheme.T(mat))
        if rayleigh is not None and not abs(rayleigh - want) \
                <= ETA_AGREEMENT_TOL * max(abs(want), 1.0):
            errors.append(f"eta_rayleigh {rayleigh!r} differs from the "
                          f"recomputed {want!r}")
        if not gd:
            form = ConductanceForm.from_matrix(structure.boundary, mat)
            _compare_checks(results.get("checks"),
                            verify_harmonic_structure(structure, form, eta),
                            errors)
        return
    if hs.converged or hs.iterations != iterations:
        errors.append(f"a rerun ends at iteration {hs.iterations} with "
                      f"converged={hs.converged}, not at {iterations}")
        return
    got = np.concatenate([[eta], mat.ravel(), tail])
    want = np.concatenate([[hs.eta],
                           _boundary_matrix(structure, hs.form).ravel(),
                           hs.diagnostics["mass_ratio_tail"]])
    if got.shape != want.shape or not np.abs(got - want).max() \
            <= ETA_AGREEMENT_TOL * max(np.abs(want).max(), 1.0):
        errors.append("eta, form or mass_ratio_tail differ from a rerun of "
                      f"{iterations} iterations")


def _compare_checks(checks, fresh: dict, errors: list[str]) -> None:
    """A harmonic report's checks block against a rerun of the checks."""
    if not isinstance(checks, dict) or set(checks) != set(fresh):
        errors.append(f"checks must list {sorted(fresh)}")
        return
    for key, want in fresh.items():
        if isinstance(want, bool):
            if checks[key] is not want:
                errors.append(f"checks {key} is not {want}, as a rerun gives")
            continue
        got = _check_claim(checks[key], f"checks {key}", errors)
        if got is not None and not abs(got - want) <= ETA_AGREEMENT_TOL:
            errors.append(f"checks {key} {got!r} differs from the rerun "
                          f"{want!r}")


def _check_resistance(report: dict, errors: list[str]) -> None:
    """Recompute eta and eta^k R_0 and check the metric's shape. The matrix
    is held to the writer's RESISTANCE_TOL, not to the tol the report
    states, which an edit could raise."""
    inputs, results = report["inputs"], report["results"]
    eta = _check_claim(results.get("eta"), "eta", errors)
    try:
        structure = _structure_from_inputs(inputs)
        level = int(inputs["level"])
        solver_tol = float(report["tolerances"]["solver_tol"])
        hs = solve_eigenform(structure, tol=solver_tol)
        fresh = resistance_results(structure, hs, level, solver_tol)
        matrix = np.array(results.get("matrix"), dtype=float)
    except _REBUILD_ERRORS as exc:
        errors.append(f"cannot recompute the resistances: {exc}")
        return
    want = np.asarray(fresh["matrix"])
    if (results.get("level"), results.get("vertices"), matrix.shape) != \
            (level, fresh["vertices"], want.shape):
        errors.append("level, vertices or matrix shape differ from inputs")
        return
    if np.abs(np.diag(matrix)).max() > 1e-12:
        errors.append("resistance matrix diagonal must be zero")
    if matrix.min() < -1e-12:
        errors.append("resistance matrix must be nonnegative")
    elif np.abs(matrix - matrix.T).max() > 1e-9:
        errors.append("resistance matrix must be symmetric")
    if eta is not None and not abs(eta - hs.eta) <= 10.0 * solver_tol:
        errors.append(f"eta {eta!r} differs from the recomputed {hs.eta!r}")
    rel = float(np.abs(matrix - want).max() / np.abs(want).max())
    if not rel <= RESISTANCE_TOL:
        errors.append(f"resistance matrix differs from eta^{level} R_0 by "
                      f"{rel:.3e} relative (> {RESISTANCE_TOL:.0e})")


def _check_structure(report: dict, errors: list[str]) -> None:
    """Check the structure block's shape and rebuild the levels block."""
    s = report["results"].get("structure")
    if not isinstance(s, dict):
        errors.append("structure results missing structure block")
        return
    boundary = s.get("boundary", [])
    cells = s.get("cells", {})
    if set(boundary) != set(cells):
        errors.append("cells mapping does not cover the boundary")
    if not set(s.get("glue_points", [])) <= set(boundary):
        errors.append("glue points must be boundary angles")
    try:
        structure = _structure_from_inputs(report["inputs"])
        levels = levels_to_json(level_vertices(structure,
                                               int(report["inputs"]["level"])))
    except _REBUILD_ERRORS as exc:
        errors.append(f"cannot rebuild the levels: {exc}")
        return
    if report["results"].get("levels") != levels:
        errors.append("levels differ from a fresh build")


def _check_gd_structure(report: dict, errors: list[str]) -> None:
    results = report["results"]
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


def structure_inputs(structure: MsStructure, **extra) -> dict:
    """Report inputs that _structure_from_inputs rebuilds the structure from."""
    ctx = structure.ctx
    return {"n": ctx.n, "m": ctx.m, "theta": str(ctx.theta),
            "symmetrized": structure.symmetrized, **extra}


def _structure_from_inputs(inputs: dict) -> MsStructure:
    ctx = make_context(int(inputs["n"]), int(inputs["m"]),
                       Fraction(inputs["theta"]))
    return build_structure(ctx, symmetrize=inputs.get("symmetrized"))


def _check_relations(report: dict, errors: list[str]) -> None:
    """Re-enumerate, rerun the rho brackets and the certificates, and
    rederive every verdict step.

    Each witness's four rho values must match a fresh sabot_verdict, and
    each certificate trajectory a rerun of uniqueness_certificate (from a
    re-solve at the stated solver_tol, as many steps as it lists), within
    the writer's RATIO_TOL, not a tol the report states; a margin must be
    the writer's DEFAULT_MARGIN. The flags, nesting, verdict and
    certificate outcomes built from them are recomputed.
    """
    inputs, results = report["inputs"], report["results"]
    try:
        structure = _structure_from_inputs(inputs)
        preserved = enumerate_preserved(structure, bool(inputs["require_g"]),
                                        cap=int(inputs["cap"]))
        fresh = sabot_verdict(structure, preserved)
    except _REBUILD_ERRORS as exc:
        errors.append("cannot re-enumerate the preserved relations or rerun "
                      f"their brackets: {exc}")
        return
    if results.get("preserved") != [rel.to_json() for rel in preserved]:
        errors.append("preserved relations differ from a fresh enumeration")
        return
    want = [w.relation.to_json() for w in fresh.witnesses]
    verdict = results.get("verdict")
    if not isinstance(verdict, dict):
        errors.append("relations results missing the verdict block")
        return
    witnesses = verdict.get("witnesses", [])
    if [w.get("relation") for w in witnesses] != want:
        errors.append("witnesses do not list the nontrivial relations")
        return
    rhos = []
    for i, (w, recomputed) in enumerate(zip(witnesses, fresh.witnesses)):
        values = tuple(_check_claim(w.get(key), f"witness {i} {key}", errors)
                       for key in RHO_KEYS)
        if None in values:
            return
        for key, got, expected in zip(RHO_KEYS, values, recomputed.rhos):
            if not abs(got - expected) <= RATIO_TOL:
                errors.append(f"witness {i} {key} {got!r} differs from the "
                              f"recomputed {expected!r}")
        if w.get("criterion_met") != (values[3] - values[0] > 0):
            errors.append(f"witness {i}: criterion_met does not match "
                          "rho_under_quotient - rho_over_relation > 0")
        rhos.append(values)
    if verdict.get("ordered_pairs") != [[a.to_json(), b.to_json()]
                                        for a, b in fresh.ordered_pairs]:
        errors.append("ordered_pairs do not match the nesting of the "
                      "relations")
    derived, _ = verdict_rule(rhos, bool(fresh.ordered_pairs))
    if verdict.get("verdict") != derived:
        errors.append(f"verdict {verdict.get('verdict')!r} does not follow "
                      f"from the witnesses (expected {derived!r})")
    try:
        j_plus, j_minus = build_J_plus_minus(structure)
        candidates = {"plus": j_plus.to_json(), "minus": j_minus.to_json()}
    except KappaUndefinedError:
        candidates = None
    if results.get("candidates") != candidates:
        errors.append("candidate relations differ from a fresh build")
    certificates = results.get("certificates", [])
    if [c.get("relation") for c in certificates] != \
            ([] if "solver_error" in results else want):
        errors.append("certificates must list the nontrivial relations, or "
                      "none after a solver_error")
        return
    if not certificates:
        return
    try:
        hs = solve_eigenform(structure,
                             tol=float(report["tolerances"]["solver_tol"]))
        reruns = [uniqueness_certificate(structure, hs, w.relation,
                                         k_max=len(c.get("trajectory", [])))
                  for c, w in zip(certificates, fresh.witnesses)]
    except _REBUILD_ERRORS as exc:
        errors.append(f"cannot rerun the certificates: {exc}")
        return
    for i, (cert, rerun) in enumerate(zip(certificates, reruns)):
        trajectory = [_check_claim(t, f"certificate {i} trajectory", errors)
                      for t in cert.get("trajectory", [])]
        margin = cert.get("margin")
        if not trajectory or None in trajectory \
                or not isinstance(margin, (int, float)):
            errors.append(f"certificate {i}: trajectory or margin missing")
            continue
        if margin != DEFAULT_MARGIN:
            errors.append(f"certificate {i}: margin {margin!r} is not "
                          f"{DEFAULT_MARGIN!r}")
        for step, (got, expected) in enumerate(
                zip(trajectory, rerun.trajectory), start=1):
            if not abs(got - expected) <= RATIO_TOL * abs(expected):
                errors.append(f"certificate {i} trajectory step {step} "
                              f"{got!r} differs from the rerun {expected!r}")
        k, monotone = certificate_summary(trajectory, float(margin))
        if (cert.get("certified"), cert.get("k"), cert.get("monotone")) != \
                (k is not None, k, monotone):
            errors.append(f"certificate {i}: certified, k or monotone do "
                          "not follow from its trajectory")


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


def _check_gd_rhos(report: dict, errors: list[str]) -> None:
    """Recompute the rho table: the exact quotient rhos and the
    relation-side brackets. The tolerance is the writer's RATIO_TOL, not
    the tols in the report."""
    results = report["results"]
    try:
        table = gd_relation_rhos(int(results["ctx"]["n"]),
                                 int(results["ctx"]["m"]))
    except _REBUILD_ERRORS as exc:
        errors.append(f"cannot recompute the gd rho table: {exc}")
        return
    for key in ("pq_pairs", "side_pairs"):
        entry, fresh = results.get(key), getattr(table, key)
        relation = fresh.relation.to_json()
        if not isinstance(entry, dict) or entry.get("relation") != relation:
            errors.append(f"{key} must carry the relation "
                          f"{relation['blocks']}")
            continue
        if entry.get("basis_dim") != fresh.basis_dim:
            errors.append(f"{key}: basis_dim must be {fresh.basis_dim}, the "
                          "number of within-block pairs")
        names = ("rho_over_relation", "rho_under_relation", "rho_quotient")
        over, under, _ = stated = [
            _check_claim(entry.get(name), f"{key} {name}", errors)
            for name in names]
        for name, got in zip(names, stated):
            want = getattr(fresh, name)
            if got is not None and not abs(got - want) <= RATIO_TOL:
                errors.append(f"{key} {name} {got!r} differs from the "
                              f"recomputed {want!r}")
        if over is not None and under is not None \
                and under > over + RATIO_TOL:
            errors.append(f"{key}: rho_under_relation exceeds "
                          "rho_over_relation")


_CHECKS = {"structure": _check_structure, "harmonic": _recompute_residual,
           "relations": _check_relations, "resistance": _check_resistance,
           "flows": _check_flows, "gd_structure": _check_gd_structure,
           "gd_harmonic": _recompute_residual, "gd_rhos": _check_gd_rhos}


def _envelope_errors(report) -> list[str]:
    """Every envelope rule a report breaks, each line prefixed 'schema: '."""
    if not isinstance(report, dict):
        return [f"schema: a report must be a JSON object, not "
                f"{type(report).__name__}"]
    errors = [f"schema: unexpected key {key!r}"
              for key in sorted(set(report) - set(ENVELOPE))]
    for key, (rule, message) in ENVELOPE.items():
        if key not in report:
            errors.append(f"schema: required key {key!r} is missing")
        elif not rule(report[key]):
            errors.append(f"schema: {key} {message}")
    return errors


def validate_report_details(path: str) -> list[str]:
    """Envelope plus consistency validation; empty list means valid."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    errors = _envelope_errors(report)
    if errors:
        return errors
    kind = report["results"].get("kind")
    if kind not in _CHECKS:
        return [f"unknown result kind {kind!r}"]
    _CHECKS[kind](report, errors)
    for value in report["tolerances"].values():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("tolerances must be finite numbers")
            break
    return errors


def validate_report(path: str) -> bool:
    return not validate_report_details(path)
