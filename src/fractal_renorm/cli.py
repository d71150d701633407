"""Command-line front end: builds structures, solves, reports.

Every subcommand emits one JSON report (see reports.py) either to --out or
to stdout. Exit codes: 0 success, 2 invalid input, 3 non-convergence or a
cap hit, 4 internal invariant violation (including failed report
validation). Reports are deterministic byte-for-byte apart from the
wall-time field.
"""
from __future__ import annotations

import argparse
import json
import os
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
from .networks import ConductanceForm, resistance_matrix
from .relations import (build_J_plus_minus, enumerate_preserved,
                        sabot_verdict, uniqueness_certificate)
from .renorm import (_boundary_matrix, _replicate_matrix, solve_eigenform,
                     verify_harmonic_structure)
from .reports import (claim, flows_results, form_to_json, render_report,
                      validate_report_details)
from .structure import (build_structure, level_size, level_vertices,
                        levels_to_json, structure_from_json,
                        structure_to_json)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVARIANT = 4

_INPUT_ERRORS = (ValueError, KeyError, OSError, json.JSONDecodeError,
                 InvalidMsError, CriticalAngleError, NotInvariantError,
                 KappaUndefinedError, KernelMismatchError,
                 NotAPermutationError, DisconnectedError)
_BUDGET_ERRORS = (NonConvergenceError, CapExceededError, DepthCapError)

# Float64 matrices of side N_k that the dense resistance path holds at its
# peak (weights, Laplacian, eigh input, workspace and eigenvectors); the
# peak RSS at level 5 of (2,1,1/12) came to 7.6 of them.
DENSE_MATRICES_LIVE = 8


def _physical_memory_bytes() -> Optional[int]:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_dense_memory(structure, level: int) -> None:
    """Refuse a level whose dense plan outgrows physical memory, up front."""
    size = level_size(structure, level)
    need = DENSE_MATRICES_LIVE * 8 * size * size
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise DepthCapError(
            f"level {level} has {size} vertices; the dense resistance path "
            f"needs about {need / 2**30:.1f} GiB, more than the "
            f"{have / 2**30:.1f} GiB of physical memory")


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


def _emit(args, report: dict, csv_text: Optional[str] = None) -> int:
    if getattr(args, "format", "json") == "csv":
        if csv_text is None:
            raise ValueError("csv output is only available for rho tables "
                             "and resistance matrices")
        payload = csv_text
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
    inputs = {"n": structure.ctx.n, "m": structure.ctx.m,
              "theta": str(structure.ctx.theta),
              "symmetrized": structure.symmetrized, "level": args.level}
    report = _envelope(args, inputs, {"exact_arithmetic": 0.0}, results,
                       started)
    return _emit(args, report)


def _harmonic_block(hs, tol: float) -> dict:
    return {
        "eta": claim(hs.eta, tol * 10),
        "eta_inverse": claim(1.0 / hs.eta, tol * 10),
        "eta_rayleigh": claim(hs.eta_rayleigh, 1e-9),
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
        "checks": {k: (v if isinstance(v, bool) else claim(v, 1e-9))
                   for k, v in checks.items()},
    }
    inputs = {"n": structure.ctx.n, "m": structure.ctx.m,
              "theta": str(structure.ctx.theta),
              "symmetrized": structure.symmetrized}
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
    verdict = sabot_verdict(structure, hs, preserved)
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
                "trajectory": [claim(t, 1e-9) for t in cert.trajectory],
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
                "rho_over_relation": claim(w.relation_rhos.rho_over, 1e-9),
                "rho_under_relation": claim(w.relation_rhos.rho_under, 1e-9),
                "rho_over_quotient": claim(w.quotient_rhos.rho_over, 1e-9),
                "rho_under_quotient": claim(w.quotient_rhos.rho_under, 1e-9),
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
    inputs = {"n": structure.ctx.n, "m": structure.ctx.m,
              "theta": str(structure.ctx.theta),
              "symmetrized": structure.symmetrized, "cap": args.cap,
              "require_g": require_g}
    tolerances = {"solver_tol": args.tol, "certificate_margin": 1e-6,
                  "ratio_tol": 1e-9}
    return _emit(args, _envelope(args, inputs, tolerances, results, started))


def _cmd_resistance(args, started: float) -> int:
    structure = _load_structure(args)
    _check_dense_memory(structure, args.level)
    hs = solve_eigenform(structure, tol=args.tol, max_iter=args.max_iter)
    lv = level_vertices(structure, args.level)
    w = _boundary_matrix(structure, hs.form)
    for lvl in range(1, args.level + 1):
        w = _replicate_matrix(level_vertices(structure, lvl), w)
    net = ConductanceForm.from_matrix(tuple(range(w.shape[0])), w)
    boundary_ids = list(lv.boundary_ids)
    matrix = resistance_matrix(net, boundary_ids)
    labels = [str(a) for a in structure.boundary]
    results = {
        "kind": "resistance",
        "level": args.level,
        "vertices": labels,
        "matrix": [[float(x) for x in row] for row in matrix],
        "eta": claim(hs.eta, args.tol * 10),
    }
    inputs = {"n": structure.ctx.n, "m": structure.ctx.m,
              "theta": str(structure.ctx.theta), "level": args.level}
    tolerances = {"solver_tol": args.tol, "resistance_tol": 1e-9}
    csv_lines = ["vertex," + ",".join(labels)]
    for label, row in zip(labels, matrix):
        csv_lines.append(label + "," + ",".join(f"{x:.12g}" for x in row))
    return _emit(args, _envelope(args, inputs, tolerances, results, started),
                 csv_text="\n".join(csv_lines) + "\n")


def _cmd_flows(args, started: float) -> int:
    structure = _load_structure(args)
    hs = solve_eigenform(structure, tol=args.tol, max_iter=args.max_iter)
    raw = [float(tok) for tok in args.values.split(",")]
    results = flows_results(structure, hs, raw)
    inputs = {"n": structure.ctx.n, "m": structure.ctx.m,
              "theta": str(structure.ctx.theta),
              "symmetrized": structure.symmetrized, "values": args.values}
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
        "harmonic": {
            "eta": claim(hs.eta, args.tol * 10),
            "eta_inverse": claim(1.0 / hs.eta, args.tol * 10),
            "eta_rayleigh": claim(hs.eta_rayleigh, 1e-9),
            "residual": claim(hs.residual, args.tol),
            "iterations": hs.iterations,
            "normalization": hs.normalization,
            "form": form_to_json(hs.form),
        },
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
            "rho_over_relation": claim(e.rho_over_relation, 1e-2),
            "rho_under_relation": claim(e.rho_under_relation, 1e-2),
            "rho_quotient": claim(e.rho_quotient, 1e-9),
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
    tolerances = {"search_tol": 1e-2, "quotient_tol": 1e-9}
    csv_lines = [
        "relation,rho_over_relation,rho_under_relation,rho_quotient",
        f"pq_pairs,{table.pq_pairs.rho_over_relation:.12g},"
        f"{table.pq_pairs.rho_under_relation:.12g},"
        f"{table.pq_pairs.rho_quotient:.12g}",
        f"side_pairs,{table.side_pairs.rho_over_relation:.12g},"
        f"{table.side_pairs.rho_under_relation:.12g},"
        f"{table.side_pairs.rho_quotient:.12g}",
    ]
    return _emit(args, _envelope(args, inputs, tolerances, results, started),
                 csv_text="\n".join(csv_lines) + "\n")


def _cmd_validate(args, started: float) -> int:
    if not os.path.exists(args.path):
        raise OSError(f"no such report: {args.path}")
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
