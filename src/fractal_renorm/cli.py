"""Command-line front end: parses flags, writes reports, maps exit codes.

Every subcommand but validate records its flags as the report's inputs,
hands them with --tol to the kind's builder in reports.BUILDERS, and emits
the envelope around the results and tolerances the builder returns: one
JSON report (see reports.py), or CSV rows for the tabular kinds, to --out
or stdout. validate reruns the same builder and compares every field,
then rebuilds the inputs and the solver tolerance from the report's
command the way the run does and requires each to match.
Exit codes: 0 success, 2 invalid input, 3 non-convergence or a cap hit
(such as a level past the depth cap), 4 internal invariant violation
(including failed report validation). Reports are deterministic
byte-for-byte apart from the wall-time field.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
import warnings
from typing import Callable, Optional, Sequence

from . import __version__
from .angles import make_context
from .errors import (CapExceededError, CriticalAngleError, DepthCapError,
                     DisconnectedError, InvalidMsError, KappaUndefinedError,
                     KernelMismatchError, NonConvergenceError,
                     NotAPermutationError, NotInvariantError)
from .relations import DEFAULT_ENUM_CAP, DEFAULT_K_MAX
from .renorm import DEFAULT_MAX_ITER, DEFAULT_TOL
from .reports import (BUILDERS, SCHEMA, render_report, structure_inputs,
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
        if not isinstance(data, dict):
            raise ValueError(f"{args.structure}: a structure file must hold "
                             "a JSON object")
        # accept a full report envelope or the bare structure payload
        if isinstance(data.get("results"), dict):
            data = data["results"]
        if "ctx" not in data and isinstance(data.get("structure"), dict):
            data = data["structure"]
        try:
            return structure_from_json(data)
        except KeyError as exc:
            raise ValueError(f"{args.structure}: not an MS structure, "
                             f"missing key {exc}") from exc
    if args.n is None or args.m is None or args.theta is None:
        raise ValueError("give either --structure or all of --n/--m/--theta")
    ctx = make_context(args.n, args.m, args.theta)
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


def _run_inputs(args) -> dict:
    """A run's report inputs: the structure's fields, when the kind reads a
    structure, followed by the fields the subcommand's own flags set."""
    inputs = args.flag_inputs(args)
    if args.reads_structure:
        inputs = structure_inputs(_load_structure(args), **inputs)
    return inputs


def _cmd_run(args, started: float) -> int:
    """Run the builder of the subcommand's kind on the inputs its flags
    give and emit its report."""
    inputs = _run_inputs(args)
    results, tolerances = BUILDERS[args.kind](inputs, args.tol)
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": list(args.command_echo),
        "wall_time_s": time.perf_counter() - started,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
    }
    return _emit(args, report,
                 args.csv_rows(results) if args.csv_rows else None)


def _resistance_rows(results: dict) -> list:
    return [["vertex"] + results["vertices"]] + [
        [label] + [f"{x:.12g}" for x in row]
        for label, row in zip(results["vertices"], results["matrix"])]


def _rho_rows(results: dict) -> list:
    names = ("rho_over_relation", "rho_under_relation", "rho_quotient")
    return [["relation", *names]] + [
        [key] + [f"{results[key][name]['value']:.12g}" for name in names]
        for key in ("pq_pairs", "side_pairs")]


def _command_errors(report: dict) -> list:
    """One line per report field that differs from what the report's own
    command sets it to, found by rebuilding the command's inputs as a run
    does, and one per inputs key that the command does not give or that
    the report lacks. A command that reads a --structure file gives its
    own flags' fields only; the structure's fields may accompany them and
    are not compared."""
    shown = " ".join(report["command"])
    messages = io.StringIO()
    try:
        with contextlib.redirect_stdout(messages), \
                contextlib.redirect_stderr(messages):
            flags = build_parser().parse_args(report["command"])
    except SystemExit:
        last = (messages.getvalue().strip().splitlines() or [""])[-1]
        return [f"command: {shown!r} does not parse as a run: {last}"]
    kind = report["results"]["kind"]
    if getattr(flags, "kind", None) != kind:
        return [f"command: {shown!r} does not write a {kind!r} report"]
    try:
        # the run warned already when it reduced theta into its window
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inputs = (flags.flag_inputs(flags)
                      if getattr(flags, "structure", None)
                      else _run_inputs(flags))
    except (*_INPUT_ERRORS, ArithmeticError) as exc:
        return [f"command: {shown!r} is not a run: {exc}"]
    recorded = report["inputs"]
    extra = set(recorded) - set(inputs)
    if getattr(flags, "structure", None):
        extra -= {"n", "m", "theta", "symmetrized"}
    errors = [f"inputs.{key}: missing, the command gives {value!r}"
              for key, value in inputs.items() if key not in recorded]
    errors += [f"inputs.{key}: stated, the command does not give it"
               for key in sorted(extra)]
    want = {"inputs": inputs, "tolerances": {"solver_tol": flags.tol}}
    for block, fields in want.items():
        for key, value in fields.items():
            if key not in report[block]:
                continue
            stated = report[block][key]
            if type(stated) is not type(value) or stated != value:
                errors.append(f"{block}.{key}: {stated!r}, the command "
                              f"gives {value!r}")
    return errors


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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _set_run(p: argparse.ArgumentParser, kind: str,
             flag_inputs: Callable[[argparse.Namespace], dict],
             reads_structure: bool = True,
             csv_rows: Optional[Callable[[dict], list]] = None) -> None:
    """Make p a run that writes a kind report. flag_inputs gives the
    inputs its own flags set; validate rebuilds them the same way."""
    p.set_defaults(handler=_cmd_run, kind=kind, flag_inputs=flag_inputs,
                   reads_structure=reads_structure, csv_rows=csv_rows)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="fractal-renorm",
        description="resistance-form renormalization workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("structure", help="build and export a structure")
    _add_ctx_flags(p)
    p.add_argument("--level", type=int, default=1)
    _add_common(p)
    _set_run(p, "structure", lambda a: {"level": a.level})

    p = sub.add_parser("solve", help="solve for the eigenform")
    _add_ctx_flags(p)
    _add_common(p)
    _set_run(p, "harmonic", lambda a: {"max_iter": a.max_iter})

    p = sub.add_parser("relations",
                       help="enumerate preserved relations and verdict")
    _add_ctx_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p.add_argument("--all", action="store_true",
                   help="enumerate all relations, not only rotation-"
                        "invariant ones")
    _add_common(p)
    _set_run(p, "relations", lambda a: {
        "cap": a.cap, "require_g": not a.all, "k_max": a.k_max,
        "max_iter": a.max_iter})

    p = sub.add_parser("resistance",
                       help="pairwise boundary resistances at a level")
    _add_ctx_flags(p)
    p.add_argument("--level", type=int, default=1)
    _add_common(p)
    _set_run(p, "resistance",
             lambda a: {"level": a.level, "max_iter": a.max_iter},
             csv_rows=_resistance_rows)

    p = sub.add_parser("flows", help="per-cell flows of a harmonic function")
    _add_ctx_flags(p)
    p.add_argument("--values", type=str, required=True,
                   help="comma-separated boundary values, in angle order "
                        "(write --values=-1,0,0 when the first is negative)")
    _add_common(p)
    _set_run(p, "flows",
             lambda a: {"values": a.values, "max_iter": a.max_iter})

    gd = sub.add_parser("gd", help="graph-directed model")
    gdsub = gd.add_subparsers(dest="gd_subcommand", required=True)
    p = gdsub.add_parser("build", help="build the gd structure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    _set_run(p, "gd_structure", lambda a: {"n": a.n, "m": a.m},
             reads_structure=False)
    p = gdsub.add_parser("solve", help="solve the gd eigenform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    _set_run(p, "gd_harmonic",
             lambda a: {"n": a.n, "m": a.m, "max_iter": a.max_iter},
             reads_structure=False)
    p = gdsub.add_parser("rhos", help="rho table for the corner relations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    _set_run(p, "gd_rhos", lambda a: {"n": a.n, "m": a.m},
             reads_structure=False, csv_rows=_rho_rows)

    p = sub.add_parser("validate", help="validate a report file")
    p.add_argument("path", type=str)
    p.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(list(argv))
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
