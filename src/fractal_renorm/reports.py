"""Report layout: one results builder per report kind, and validation.

Every CLI run emits one JSON report: a fixed envelope (schema tag,
version, command echo, inputs, tolerances, wall time) around a results
object tagged with its kind. Numeric claims are {"value": x, "tol": t}
pairs; eta and eta_inverse are claims only where an enclosure backs them.

subject(kind, inputs) builds what a report kind computes on from the
report's inputs (the flags of the run): the MS structure, the four-corner
gd cell or the glued gd structure. It is the one place that builds one.
BUILDERS maps each kind to the one function that lays out its results:
builder(subject, inputs, solver_tol) returns the results and tolerances
blocks, reading nothing but the subject, the inputs and the solver
tolerance. The CLI builds the subject once and writes what the builder
returns. report_errors validates a report against the inputs and solver
tolerance its command gives (the CLI derives them): the stated inputs
and solver_tol must equal them before anything is built. Only then does
it build the subject once, rerun the kind's builder on it, and compare
the stated results and tolerances with the fresh ones (_diff): one line
per differing leaf, named by its path, with the tolerances required to
be equal. Every rule that derives a stated value from others (a verdict
from its rho brackets, a metric's symmetry) is thereby held too, since
the rerun derives it. The one check _diff cannot make is on the
embedded eigenform of a harmonic or gd_harmonic report (_check_eta):
eta, its residual and its enclosure recomputed from the stated form, on
the same subject.
"""
from __future__ import annotations

import json
import math
from typing import Mapping, Optional

import numpy as np

from .angles import AngleContext, make_context
from .errors import KappaUndefinedError, NonConvergenceError, WorkbenchError
from .gd import (RELATION_PQ, RELATION_SIDES, GdCellGraph,
                 build_gd_structure, cell_graph, gd_solve)
from .networks import ConductanceForm, resistance_matrix
from .relations import (DEFAULT_MARGIN, RATIO_TOL, build_J_plus_minus,
                        enumerate_preserved, is_preserved, per_cell_flows,
                        rho_search, sabot_verdict, uniqueness_certificate)
from .renorm import _eta_bounds, solve_eigenform, verify_harmonic_structure
from .structure import (MsStructure, build_structure, level_size,
                        level_vertices, levels_to_json, structure_to_json)

SCHEMA = "fr-2"  # the schema tag; it changes whenever what reports mean does

# the envelope: each key a report must carry, with its rule; no other key
ENVELOPE = {
    "schema": (lambda v: v == SCHEMA, f'must be "{SCHEMA}"'),
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
FLOW_TOL = 1e-9        # tolerance of the flows and their defects
FLOAT_AGREEMENT = 1e-9  # relative agreement of a stated float with a rerun


def claim(value: float, tol: float) -> dict:
    """A numeric claim: the value together with its tolerance."""
    return {"value": float(value), "tol": float(tol)}


def form_to_json(form: ConductanceForm) -> dict:
    names = [str(v) for v in form.vertices]  # once per vertex, not per pair
    label = dict(zip(form.vertices, names))
    return {
        "vertices": names,
        "edges": [[label[x], label[y], w] for x, y, w in form.pairs()],
    }


def structure_inputs(ctx: AngleContext, symmetrized: bool, **extra) -> dict:
    """Report inputs that subject builds the structure of ctx from, its
    boundary closed under rotations when symmetrized."""
    return {"n": ctx.n, "m": ctx.m, "theta": str(ctx.theta),
            "symmetrized": symmetrized, **extra}


def subject(kind: str, inputs: dict):
    """What a report kind computes on, built from the report's inputs: the
    glued structure of all cells for gd_structure, the four-corner cell
    for the other gd kinds, and the MS structure for the rest."""
    n, m = int(inputs["n"]), int(inputs["m"])
    if kind == "gd_structure":
        return build_gd_structure(n, m)
    if kind.startswith("gd_"):
        return cell_graph(n, m)
    return build_structure(make_context(n, m, inputs["theta"]),
                           symmetrize=inputs["symmetrized"])


def _solve(structure, inputs: dict, solver_tol):
    return solve_eigenform(structure, tol=float(solver_tol),
                           max_iter=int(inputs["max_iter"]))


def _round_up(x: float) -> float:
    """x rounded up to two significant figures."""
    digits, exponent = f"{x:.1e}".split("e")
    up = float(f"{x:.1e}")
    return up if up >= x else float(f"{float(digits) + 0.1:.1f}e{exponent}")


def _eta_claims(eta: float, bounds) -> dict:
    """eta and eta_inverse, each a claim whose tol reaches the farther end
    of its enclosure (from bounds, eta's), rounded up so that a rerun that
    differs in the last bits states the same tol; plain numbers where
    bounds is None."""
    if bounds is None:
        return {"eta": float(eta), "eta_inverse": 1.0 / float(eta)}
    lower, upper = bounds
    return {key: claim(v, _round_up(max(v - low, high - v)))
            for key, v, low, high in (("eta", eta, lower, upper),
                                      ("eta_inverse", 1.0 / eta,
                                       1.0 / upper, 1.0 / lower))}


def _harmonic_block(hs, tol: float) -> dict:
    return {
        **_eta_claims(hs.eta, hs.eta_bounds),
        "residual": claim(hs.residual, tol),
        "iterations": hs.iterations,
        "normalization": hs.normalization,
        "form": form_to_json(hs.form),
    }


def structure_results(structure: MsStructure, inputs: dict, solver_tol
                      ) -> tuple[dict, dict]:
    """The structure and its glued vertex set at inputs["level"]."""
    level = int(inputs["level"])
    return {
        "kind": "structure",
        "structure": structure_to_json(structure),
        "levels": levels_to_json(level_vertices(structure, level), level),
    }, {"exact_arithmetic": 0.0}


def harmonic_results(structure: MsStructure, inputs: dict, solver_tol
                     ) -> tuple[dict, dict]:
    """The eigenform, eta and the checks of the solution."""
    hs = _solve(structure, inputs, solver_tol)
    tol = float(solver_tol)
    checks = verify_harmonic_structure(structure, hs.form, hs.eta, tol)
    return {
        "kind": "harmonic",
        "structure": structure_to_json(structure),
        "harmonic": _harmonic_block(hs, tol),
        # copy_consistency is an exact count
        "checks": {k: (v if isinstance(v, bool) else claim(
            v, 0.0 if k == "copy_consistency" else tol))
                   for k, v in checks.items()},
    }, {"solver_tol": tol}


def _certificate_block(cert) -> dict:
    return {
        "relation": cert.relation.to_json(),
        "certified": cert.certified,
        "k": cert.k,
        "margin": cert.margin,
        "trajectory": [claim(t, RATIO_TOL) for t in cert.trajectory],
        "monotone": cert.monotone,
    }


def relations_results(structure: MsStructure, inputs: dict, solver_tol
                      ) -> tuple[dict, dict]:
    """Preserved relations, the verdict with its rho brackets, and one
    uniqueness certificate per nontrivial relation; a solve that runs out
    of inputs["max_iter"] steps gives a solver_error and no certificates."""
    require_g = bool(inputs["require_g"])
    k_max = int(inputs["k_max"])
    if k_max < 1:  # before enumerating: a run may reach no certificate
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    preserved = enumerate_preserved(structure, require_g,
                                    cap=int(inputs["cap"]))
    hs = solver_error = None
    try:
        hs = _solve(structure, inputs, solver_tol)
    except NonConvergenceError as exc:
        solver_error = str(exc)
    verdict = sabot_verdict(structure, preserved)
    certificates = [] if hs is None else [
        _certificate_block(uniqueness_certificate(structure, hs, rel,
                                                  k_max=k_max))
        for rel in preserved if not rel.is_trivial]
    try:
        j_plus, j_minus = build_J_plus_minus(structure)
        candidates = {"plus": j_plus.to_json(), "minus": j_minus.to_json()}
    except KappaUndefinedError:
        candidates = None
    results = {
        "kind": "relations",
        "require_g": require_g,
        "preserved": [rel.to_json() for rel in preserved],
        "verdict": {
            "verdict": verdict.verdict,
            "witnesses": [{
                "relation": w.relation.to_json(),
                "rho_over_relation": claim(rr.rho_over, RATIO_TOL),
                "rho_under_relation": claim(rr.rho_under, RATIO_TOL),
                "rho_over_quotient": claim(qr.rho_over, RATIO_TOL),
                "rho_under_quotient": claim(qr.rho_under, RATIO_TOL),
                "criterion_met": w.criterion_met,
            } for w in verdict.witnesses
                for rr, qr in [(w.relation_rhos, w.quotient_rhos)]],
            "ordered_pairs": [[a.to_json(), b.to_json()]
                              for a, b in verdict.ordered_pairs],
        },
        "certificates": certificates,
        "candidates": candidates,
    }
    if solver_error:
        results["solver_error"] = solver_error
    return results, {"solver_tol": float(solver_tol),
                     "certificate_margin": DEFAULT_MARGIN,
                     "ratio_tol": RATIO_TOL}


def resistance_results(structure: MsStructure, inputs: dict, solver_tol
                       ) -> tuple[dict, dict]:
    """The boundary resistances at inputs["level"].

    eta*T(D) = D gives T^k(D) = eta^-k D: the level-k network traced onto
    the boundary is the eigenform over eta^k, so its resistances are eta^k
    times the eigenform's (Kigami, Analysis on Fractals, 2001, ch. 2-3).
    Nothing of level k is built; the level is checked against the depth cap.
    """
    level = int(inputs["level"])
    level_size(structure, level)
    hs = _solve(structure, inputs, solver_tol)
    matrix = hs.eta ** level * resistance_matrix(hs.form, structure.boundary)
    return {
        "kind": "resistance",
        "level": level,
        "vertices": [str(a) for a in structure.boundary],
        "matrix": [[float(x) for x in row] for row in matrix],
        "eta": _eta_claims(hs.eta, hs.eta_bounds)["eta"],
    }, {"solver_tol": float(solver_tol), "resistance_tol": RESISTANCE_TOL}


def flows_results(structure: MsStructure, inputs: dict, solver_tol
                  ) -> tuple[dict, dict]:
    """The per-cell flows of the level-1 harmonic extension of the boundary
    values in inputs["values"] (comma-separated, in angle order)."""
    values = [float(tok) for tok in str(inputs["values"]).split(",")]
    if len(values) != len(structure.boundary):
        raise ValueError(f"--values needs {len(structure.boundary)} entries "
                         "(boundary order, sorted by angle)")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--values must be finite numbers, got {values}")
    report_flows = per_cell_flows(
        structure, _solve(structure, inputs, solver_tol), values)
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
        "conservation_defect": claim(report_flows.conservation_defect,
                                     FLOW_TOL),
        "matching_defect": claim(report_flows.matching_defect, FLOW_TOL),
        "scaling_defect": claim(report_flows.scaling_defect, FLOW_TOL),
    }, {"solver_tol": float(solver_tol), "flow_tol": FLOW_TOL}


def gd_structure_results(gd: dict, inputs: dict, solver_tol
                         ) -> tuple[dict, dict]:
    """The glued graph-directed structure of all m+n cells."""
    return {"kind": "gd_structure", **gd}, {"exact_arithmetic": 0.0}


def gd_harmonic_results(cell: GdCellGraph, inputs: dict, solver_tol
                        ) -> tuple[dict, dict]:
    """The four-corner eigenform, or the capped exploratory run outside the
    existence regime, with diagnostics of how the weights behaved."""
    hs = gd_solve(cell, tol=float(solver_tol),
                  max_iter=int(inputs["max_iter"]))
    return {
        "kind": "gd_harmonic",
        "ctx": {"n": cell.n, "m": cell.m},
        "existence": hs.existence,
        "converged": hs.converged,
        "harmonic": _harmonic_block(hs, float(solver_tol)),
        "diagnostics": dict(hs.diagnostics),
    }, {"solver_tol": float(solver_tol)}


def gd_rhos_results(cell: GdCellGraph, inputs: dict, solver_tol
                    ) -> tuple[dict, dict]:
    """The rho table of the two corner relations: both sides through
    rho_search. The quotient spaces are rays, so the quotient bracket is
    exact after one step (weight-independent by homogeneity) and its
    rho_over serves as both certificates."""

    def entry(relation):
        if not is_preserved(cell, relation):
            raise AssertionError(f"relation {relation} unexpectedly not "
                                 "preserved")
        rr = rho_search(cell, relation, "relation")
        return {
            "relation": relation.to_json(),
            "rho_over_relation": claim(rr.rho_over, RATIO_TOL),
            "rho_under_relation": claim(rr.rho_under, RATIO_TOL),
            "rho_quotient": claim(
                rho_search(cell, relation, "quotient").rho_over, RATIO_TOL),
            "basis_dim": rr.basis_dim,
            "evaluations": rr.evaluations,
        }

    return {
        "kind": "gd_rhos",
        "ctx": {"n": cell.n, "m": cell.m},
        "pq_pairs": entry(RELATION_PQ),
        "side_pairs": entry(RELATION_SIDES),
    }, {"ratio_tol": RATIO_TOL}


BUILDERS = {"structure": structure_results, "harmonic": harmonic_results,
            "relations": relations_results,
            "resistance": resistance_results, "flows": flows_results,
            "gd_structure": gd_structure_results,
            "gd_harmonic": gd_harmonic_results, "gd_rhos": gd_rhos_results}


def render_report(report: Mapping) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _brief(x) -> str:
    text = repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _diff(path: str, got, want, errors: list[str],
          _agreement: float = FLOAT_AGREEMENT) -> None:
    """One line per leaf where a stated block differs from its rerun.

    Objects must have the same keys and lists the same length. A claim
    must carry the recomputed tol exactly, and its value must lie within
    that tol of the recomputed value; any other float must agree within
    _agreement relative (0 for what a run is given: its inputs and
    tolerances); ints, strings, bools and null must be equal and of the
    same type.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            errors.append(f"{path}: {_brief(got)}, recomputed an object")
            return
        errors.extend(f"{path}.{key}: stated, absent from the rerun"
                      for key in sorted(set(got) - set(want)))
        errors.extend(f"{path}.{key}: missing, recomputed {_brief(want[key])}"
                      for key in sorted(set(want) - set(got)))
        if set(want) == {"value", "tol"}:
            tol, value = want["tol"], want["value"]
            if not (_is_number(got.get("tol")) and got["tol"] == tol):
                errors.append(f"{path}.tol: {_brief(got.get('tol'))}, "
                              f"recomputed {tol!r}")
            if not (_is_number(got.get("value")) and
                    (got["value"] == value or abs(got["value"] - value)
                     <= tol)):
                errors.append(f"{path}.value: {_brief(got.get('value'))}, "
                              f"recomputed {value!r}")
            return
        for key in sorted(set(want) & set(got)):
            _diff(f"{path}.{key}", got[key], want[key], errors, _agreement)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            shown = (f"a list of {len(got)}" if isinstance(got, list)
                     else _brief(got))
            errors.append(f"{path}: {shown}, recomputed a list of "
                          f"{len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, errors, _agreement)
    elif isinstance(want, float):
        if not (_is_number(got) and (got == want or abs(got - want)
                                     <= _agreement * max(1.0, abs(want)))):
            errors.append(f"{path}: {_brief(got)}, recomputed {want!r}")
    elif type(got) is not type(want) or got != want:
        errors.append(f"{path}: {_brief(got)}, recomputed {want!r}")


def _check_eta(report: dict, fresh: dict, structure,
               errors: list[str]) -> None:
    """The stated eta against one trace T(w) of the stated form w, on the
    rerun's structure or cell. It must be 1/mass(T(w)), as the solver's
    is. Where the rerun converged (an exploratory gd run has no eigen
    equation), the eigen residual must be at most the stated residual tol.
    A claimed eta must lie in the form's enclosure, and its tol must reach
    both ends; a form without one encloses nothing."""
    harmonic = report["results"]["harmonic"]
    form = ConductanceForm.from_edges(harmonic["form"]["vertices"],
                                      harmonic["form"]["edges"])
    expected = [str(a) for a in structure.boundary]
    if sorted(form.vertices) != sorted(expected):
        errors.append("embedded form vertices do not match the boundary")
        return
    order = [form.index[s] for s in expected]
    w = form.matrix()[np.ix_(order, order)]
    traced = structure.scheme.T(w)
    stated = harmonic["eta"]
    eta = float(stated["value"] if isinstance(stated, dict) else stated)
    mass_ratio = 2.0 / float(traced.sum())
    if not abs(eta - mass_ratio) <= FLOAT_AGREEMENT * mass_ratio:
        errors.append(f"results.harmonic.eta.value: {eta!r}, the stated "
                      f"form gives {mass_ratio!r}")
    tol = float(harmonic["residual"]["tol"])
    recomputed = structure.scheme.residual(w, eta, traced)
    if fresh.get("converged", True) and recomputed > tol:
        errors.append(f"recomputed residual {recomputed:.3e} exceeds the "
                      f"stated tolerance {tol:.1e}")
    if isinstance(stated, dict):
        low, high = _eta_bounds(structure.scheme, w, traced) or (0.0, np.inf)
        tol = float(stated["tol"])
        if not (low <= eta <= high and tol >= max(eta - low, high - eta)):
            errors.append(f"eta {eta!r} with tol {tol!r} is not backed by "
                          f"the enclosure [{low!r}, {high!r}] of the "
                          "stated form")


# what a malformed or edited report can make a recomputation raise
_REBUILD_ERRORS = (ArithmeticError, KeyError, TypeError, ValueError,
                   WorkbenchError)
# and what _check_eta of malformed stated values can raise
_MALFORMED = _REBUILD_ERRORS + (AttributeError, IndexError)


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


def report_errors(report: dict, inputs: dict, solver_tol: Optional[float]
                  ) -> list[str]:
    """Validation of a report inside the envelope against the inputs and
    solver_tol its command gives (None for a run that does not solve); an
    empty list means valid. The stated inputs, and the stated solver_tol
    if any, must equal those, or nothing is built. Then the kind's
    builder reruns on them, its tolerances must be stated exactly and its
    results within _diff's rules, and an embedded eigenform is checked
    (_check_eta)."""
    kind = report["results"]["kind"]
    errors: list[str] = []
    _diff("inputs", report["inputs"], inputs, errors, 0.0)
    if "solver_tol" in report["tolerances"]:
        _diff("tolerances.solver_tol", report["tolerances"]["solver_tol"],
              solver_tol, errors, 0.0)
    if errors:
        return errors
    try:
        built = subject(kind, inputs)
        results, tolerances = BUILDERS[kind](built, inputs, solver_tol)
    except _REBUILD_ERRORS as exc:
        return [f"cannot recompute the {kind} results from the report's "
                f"inputs: {exc}"]
    _diff("results", report["results"], results, errors)
    _diff("tolerances", report["tolerances"], tolerances, errors, 0.0)
    if kind in ("harmonic", "gd_harmonic"):
        try:
            _check_eta(report, results, built, errors)
        except _MALFORMED as exc:
            if not errors:  # the diff names what is malformed
                errors.append(f"cannot check the stated {kind} results: "
                              f"{exc}")
    return errors
