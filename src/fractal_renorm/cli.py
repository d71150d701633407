"""Command-line front end: builds structures, solves, reports.

Every subcommand emits one JSON report (see reports.py) either to --out or
to stdout. Exit codes: 0 success, 2 invalid input, 3 non-convergence or a
cap hit (such as a level past the depth cap), 4 internal invariant
violation (including failed report validation). Reports are deterministic
byte-for-byte apart from the wall-time field. `resistance --level k` scales
the eigenform's resistances by eta^k and builds nothing of level k.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .angles import make_context
from .errors import (CapExceededError, CriticalAngleError, DepthCapError,
                     DisconnectedError, InvalidMsError, KappaUndefinedError,
                     KernelMismatchError, NonConvergenceError,
                     NotAPermutationError, NotInvariantError)
from .gd import (build_gd_structure, gd_relation_rhos, gd_solve,
                 gd_structure_to_json)
from .relations import (DEFAULT_MARGIN, RATIO_TOL, RHO_KEYS,
                        build_J_plus_minus, enumerate_preserved,
                        sabot_verdict, uniqueness_certificate)
from .renorm import (ETA_AGREEMENT_TOL, solve_eigenform,
                     verify_harmonic_structure)
from .reports import (RESISTANCE_TOL, claim, flows_results, form_to_json,
                      render_report, resistance_results, structure_inputs,
                      validate_report_details)
from .structure import (build_structure, level_vertices, levels_to_json,
                        structure_from_json, structure_to_json)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVARIANT = 4

_INPUT_ERRORS = (ValueError, KeyError, OSError, json.JSONDecodeError,
                 InvalidMsError, CriticalAngleError, NotInvariantError,
                 KappaUndefinedError, KernelMismatchError,
                 NotAPermutationError, DisconnectedError)
_BUDGET_ERRORS = (NonConvergenceError, CapExceededError, DepthCapError)


def _load_structure(args):
    if getattr(args, "structure", None):
        with open(args.structure, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        # accept a full report envelope or the bare structure payload
        if isinstance(data.get("results"), dict):
            data = data["results"]
        if "ctx" not in data and isinstance(data.get("structure"), dict):
            data = data["structure"]
        return structure_from_json(data)
    if args.n is None or args.m is None or args.theta is None:
        raise ValueError("give either --structure or all of --n/--m/--theta")
    ctx = make_context(args.n, args.m, Fraction(args.theta))
    return build_structure(ctx, symmetrize=args.symmetrize)


def _emit(args, report: dict, csv_rows: Optional[list] = None) -> int:
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise ValueError("csv output is only available for rho tables "
                             "and resistance matrices")
        payload = "".join(",".join(row) + "\n" for row in csv_rows)
    else:
        payload = render_report(report)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _envelope(args, inputs: dict, tolerances: dict, results: dict,
              started: float) -> dict:
    return {
        "schema": "fr-1",
        "version": __version__,
        "command": list(args.command_echo),
        "wall_time_s": time.perf_counter() - started,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
    }


def _cmd_structure(args, started: float) -> int:
    structure = _load_structure(args)
    lv = level_vertices(structure, args.level)
    results = {
        "kind": "structure",
        "structure": structure_to_json(structure),
        "levels": levels_to_json(lv),
    }
    inputs = structure_inputs(structure, level=args.level)
    report = _envelope(args, inputs, {"exact_arithmetic": 0.0}, results,
                       started)
    return _emit(args, report)


def _harmonic_block(hs, tol: float) -> dict:
    return {
        "eta": claim(hs.eta, tol * 10),
        "eta_inverse": claim(1.0 / hs.eta, tol * 10),
        "eta_rayleigh": claim(hs.eta_rayleigh, ETA_AGREEMENT_TOL),
        "residual": claim(hs.residual, tol),
        "iterations": hs.iterations,
        "normalization": hs.normalization,
        "form": form_to_json(hs.form),
    }


def _cmd_solve(args, started: float) -> int:
    structure = _load_structure(args)
    hs = solve_eigenform(structure, tol=args.tol, max_iter=args.max_iter)
    checks = verify_harmonic_structure(structure, hs.form, hs.eta)
    results = {
        "kind": "harmonic",
        "structure": structure_to_json(structure),
        "harmonic": _harmonic_block(hs, args.tol),
        "checks": {k: (v if isinstance(v, bool)
                       else claim(v, ETA_AGREEMENT_TOL))
                   for k, v in checks.items()},
    }
    inputs = structure_inputs(structure)
    tolerances = {"solver_tol": args.tol, "eta_agreement": 1e-9}
    return _emit(args, _envelope(args, inputs, tolerances, results, started))


def _cmd_relations(args, started: float) -> int:
    structure = _load_structure(args)
    require_g = not args.all
    preserved = enumerate_preserved(structure, require_g, cap=args.cap)
    hs = None
    solver_error = None
    try:
        hs = solve_eigenform(structure, tol=args.tol,
                             max_iter=args.max_iter)
    except NonConvergenceError as exc:
        solver_error = str(exc)
    verdict = sabot_verdict(structure, preserved)
    certificates = []
    if hs is not None:
        for rel in preserved:
            if rel.is_trivial:
                continue
            cert = uniqueness_certificate(structure, hs, rel,
                                          k_max=args.k_max)
            certificates.append({
                "relation": rel.to_json(),
                "certified": cert.certified,
                "k": cert.k,
                "margin": cert.margin,
                "trajectory": [claim(t, RATIO_TOL) for t in cert.trajectory],
                "monotone": cert.monotone,
            })
    jpm = None
    try:
        j_plus, j_minus = build_J_plus_minus(structure)
        jpm = {"plus": j_plus.to_json(), "minus": j_minus.to_json()}
    except KappaUndefinedError:
        pass
    results = {
        "kind": "relations",
        "require_g": require_g,
        "preserved": [rel.to_json() for rel in preserved],
        "verdict": {
            "verdict": verdict.verdict,
            "witnesses": [{
                "relation": w.relation.to_json(),
                **{key: claim(value, RATIO_TOL)
                   for key, value in zip(RHO_KEYS, w.rhos)},
                "criterion_met": w.criterion_met,
            } for w in verdict.witnesses],
            "ordered_pairs": [[a.to_json(), b.to_json()]
                              for a, b in verdict.ordered_pairs],
        },
        "certificates": certificates,
        "candidates": jpm,
    }
    if solver_error:
        results["solver_error"] = solver_error
    inputs = structure_inputs(structure, cap=args.cap, require_g=require_g)
    tolerances = {"solver_tol": args.tol,
                  "certificate_margin": DEFAULT_MARGIN, "ratio_tol": RATIO_TOL}
    return _emit(args, _envelope(args, inputs, tolerances, results, started))


def _cmd_resistance(args, started: float) -> int:
    structure = _load_structure(args)
    hs = solve_eigenform(structure, tol=args.tol, max_iter=args.max_iter)
    results = resistance_results(structure, hs, args.level, args.tol)
    inputs = structure_inputs(structure, level=args.level)
    tolerances = {"solver_tol": args.tol, "resistance_tol": RESISTANCE_TOL}
    rows = [["vertex"] + results["vertices"]] + [
        [label] + [f"{x:.12g}" for x in row]
        for label, row in zip(results["vertices"], results["matrix"])]
    return _emit(args, _envelope(args, inputs, tolerances, results, started),
                 rows)


def _cmd_flows(args, started: float) -> int:
    structure = _load_structure(args)
    hs = solve_eigenform(structure, tol=args.tol, max_iter=args.max_iter)
    raw = [float(tok) for tok in args.values.split(",")]
    results = flows_results(structure, hs, raw)
    inputs = structure_inputs(structure, values=args.values)
    tolerances = {"solver_tol": args.tol, "flow_tol": 1e-9}
    return _emit(args, _envelope(args, inputs, tolerances, results, started))


def _cmd_gd_build(args, started: float) -> int:
    gd = build_gd_structure(args.n, args.m)
    results = dict(gd_structure_to_json(gd))
    results["kind"] = "gd_structure"
    inputs = {"n": args.n, "m": args.m}
    return _emit(args, _envelope(args, inputs, {"exact_arithmetic": 0.0},
                                 results, started))


def _cmd_gd_solve(args, started: float) -> int:
    hs = gd_solve(args.n, args.m, tol=args.tol, max_iter=args.max_iter)
    results = {
        "kind": "gd_harmonic",
        "ctx": {"n": args.n, "m": args.m},
        "existence": hs.existence,
        "converged": hs.converged,
        "harmonic": _harmonic_block(hs, args.tol),
        "diagnostics": {
            "last_step": float(hs.diagnostics["last_step"]),
            "collapsed_pairs": [list(p)
                                for p in hs.diagnostics["collapsed_pairs"]],
            "mass_ratio_tail": list(hs.diagnostics["mass_ratio_tail"]),
        },
    }
    inputs = {"n": args.n, "m": args.m}
    tolerances = {"solver_tol": args.tol, "eta_agreement": 1e-9}
    return _emit(args, _envelope(args, inputs, tolerances, results, started))


def _cmd_gd_rhos(args, started: float) -> int:
    table = gd_relation_rhos(args.n, args.m)
    def entry(e):
        return {
            "relation": e.relation.to_json(),
            "rho_over_relation": claim(e.rho_over_relation, RATIO_TOL),
            "rho_under_relation": claim(e.rho_under_relation, RATIO_TOL),
            "rho_quotient": claim(e.rho_quotient, RATIO_TOL),
            "basis_dim": e.basis_dim,
            "evaluations": e.evaluations,
        }
    results = {
        "kind": "gd_rhos",
        "ctx": {"n": args.n, "m": args.m},
        "pq_pairs": entry(table.pq_pairs),
        "side_pairs": entry(table.side_pairs),
    }
    inputs = {"n": args.n, "m": args.m}
    tolerances = {"ratio_tol": RATIO_TOL}
    names = ("rho_over_relation", "rho_under_relation", "rho_quotient")
    rows = [["relation", *names]] + [
        [key] + [f"{getattr(e, name):.12g}" for name in names]
        for key, e in (("pq_pairs", table.pq_pairs),
                       ("side_pairs", table.side_pairs))]
    return _emit(args, _envelope(args, inputs, tolerances, results, started),
                 rows)


def _cmd_validate(args, started: float) -> int:
    details = validate_report_details(args.path)
    if details:
        for line in details:
            print(line, file=sys.stderr)
        return EXIT_INVARIANT
    print("valid")
    return EXIT_OK


def _add_ctx_flags(p: argparse.ArgumentParser, with_structure=True) -> None:
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--theta", type=str, default=None,
                   help="base angle as p/q")
    sym = p.add_mutually_exclusive_group()
    sym.add_argument("--symmetrize", dest="symmetrize", action="store_true",
                     default=None, help="close the boundary under rotations")
    sym.add_argument("--no-symmetrize", dest="symmetrize",
                     action="store_false")
    if with_structure:
        p.add_argument("--structure", type=str, default=None,
                       help="read the structure from a JSON report instead")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal-renorm",
        description="resistance-form renormalization workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("structure", help="build and export a structure")
    _add_ctx_flags(p)
    p.add_argument("--level", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_cmd_structure)

    p = sub.add_parser("solve", help="solve for the eigenform")
    _add_ctx_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("relations",
                       help="enumerate preserved relations and verdict")
    _add_ctx_flags(p)
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--all", action="store_true",
                   help="enumerate all relations, not only rotation-"
                        "invariant ones")
    _add_common(p)
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("resistance",
                       help="pairwise boundary resistances at a level")
    _add_ctx_flags(p)
    p.add_argument("--level", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("flows", help="per-cell flows of a harmonic function")
    _add_ctx_flags(p)
    p.add_argument("--values", type=str, required=True,
                   help="comma-separated boundary values, in angle order")
    _add_common(p)
    p.set_defaults(handler=_cmd_flows)

    gd = sub.add_parser("gd", help="graph-directed model")
    gdsub = gd.add_subparsers(dest="gd_subcommand", required=True)
    p = gdsub.add_parser("build", help="build the gd structure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gd_build)
    p = gdsub.add_parser("solve", help="solve the gd eigenform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gd_solve)
    p = gdsub.add_parser("rhos", help="rho table for the corner relations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gd_rhos)

    p = sub.add_parser("validate", help="validate a report file")
    p.add_argument("path", type=str)
    p.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return EXIT_OK if code == 0 else EXIT_INVALID_INPUT
    args.command_echo = list(argv)
    started = time.perf_counter()
    try:
        return args.handler(args, started)
    except _BUDGET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


run = main


if __name__ == "__main__":
    sys.exit(main())
