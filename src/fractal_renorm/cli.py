"""Command-line front end: parses flags, writes reports, maps exit codes.

Every subcommand but validate records its flags as the report's inputs,
hands them with --tol to the kind's builder in reports.BUILDERS, and emits
the envelope around the results and tolerances the builder returns: one
JSON report (see reports.py), or CSV rows for the tabular kinds, to --out
or stdout. validate reruns the same builder and compares every field.
Exit codes: 0 success, 2 invalid input, 3 non-convergence or a cap hit
(such as a level past the depth cap), 4 internal invariant violation
(including failed report validation). Reports are deterministic
byte-for-byte apart from the wall-time field.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from .angles import make_context
from .errors import (CapExceededError, CriticalAngleError, DepthCapError,
                     DisconnectedError, InvalidMsError, KappaUndefinedError,
                     KernelMismatchError, NonConvergenceError,
                     NotAPermutationError, NotInvariantError)
from .relations import DEFAULT_K_MAX
from .renorm import DEFAULT_MAX_ITER
from .reports import (BUILDERS, render_report, structure_inputs,
                      validate_report_details)
from .structure import build_structure, structure_from_json

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


def _report(args, started: float, kind: str, inputs: dict,
            csv_rows: Optional[Callable[[dict], list]] = None) -> int:
    """Run the kind's builder on the inputs and emit its report."""
    results, tolerances = BUILDERS[kind](inputs, args.tol)
    report = {
        "schema": "fr-1",
        "version": __version__,
        "command": list(args.command_echo),
        "wall_time_s": time.perf_counter() - started,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
    }
    return _emit(args, report, csv_rows(results) if csv_rows else None)


def _cmd_structure(args, started: float) -> int:
    inputs = structure_inputs(_load_structure(args), level=args.level)
    return _report(args, started, "structure", inputs)


def _cmd_solve(args, started: float) -> int:
    inputs = structure_inputs(_load_structure(args), max_iter=args.max_iter)
    return _report(args, started, "harmonic", inputs)


def _cmd_relations(args, started: float) -> int:
    inputs = structure_inputs(_load_structure(args), cap=args.cap,
                              require_g=not args.all, k_max=args.k_max,
                              max_iter=args.max_iter)
    return _report(args, started, "relations", inputs)


def _resistance_rows(results: dict) -> list:
    return [["vertex"] + results["vertices"]] + [
        [label] + [f"{x:.12g}" for x in row]
        for label, row in zip(results["vertices"], results["matrix"])]


def _cmd_resistance(args, started: float) -> int:
    inputs = structure_inputs(_load_structure(args), level=args.level,
                              max_iter=args.max_iter)
    return _report(args, started, "resistance", inputs, _resistance_rows)


def _cmd_flows(args, started: float) -> int:
    inputs = structure_inputs(_load_structure(args), values=args.values,
                              max_iter=args.max_iter)
    return _report(args, started, "flows", inputs)


def _cmd_gd_build(args, started: float) -> int:
    return _report(args, started, "gd_structure", {"n": args.n, "m": args.m})


def _cmd_gd_solve(args, started: float) -> int:
    inputs = {"n": args.n, "m": args.m, "max_iter": args.max_iter}
    return _report(args, started, "gd_harmonic", inputs)


def _rho_rows(results: dict) -> list:
    names = ("rho_over_relation", "rho_under_relation", "rho_quotient")
    return [["relation", *names]] + [
        [key] + [f"{results[key][name]['value']:.12g}" for name in names]
        for key in ("pq_pairs", "side_pairs")]


def _cmd_gd_rhos(args, started: float) -> int:
    return _report(args, started, "gd_rhos", {"n": args.n, "m": args.m},
                   _rho_rows)


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
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
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
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
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
