"""Command-line front end: parses flags, writes reports, maps exit codes.

Every subcommand but validate records its flags as the report's inputs,
hands them with --tol to the kind's builder in reports.BUILDERS, and emits
the envelope around the results and tolerances the builder returns: one
JSON report (see reports.py), or CSV rows for the tabular kinds, to --out
or stdout. validate reparses the report's own command with the same
parser and rebuilds the inputs and solver tolerance it gives the way the
run does (_command_run); reports.report_errors then requires the stated
ones to equal them before it reruns the builder on them and compares
every field. validate_report_details is that one validation, for
fractal-renorm validate and the library alike. main replaces --structure
FILE by the context flags it stands for, so no report's command reads a file.
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
from .errors import (CapExceededError, DepthCapError, NonConvergenceError,
                     WorkbenchError)
from .relations import DEFAULT_ENUM_CAP, DEFAULT_K_MAX
from .renorm import DEFAULT_MAX_ITER, DEFAULT_TOL
from .reports import (BUILDERS, SCHEMA, _envelope_errors, render_report,
                      report_errors, structure_inputs, subject)
from .structure import structure_from_json, symmetrize_rule

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVARIANT = 4

_BUDGET_ERRORS = (NonConvergenceError, CapExceededError, DepthCapError)
# caught after _BUDGET_ERRORS, so WorkbenchError here is every other one
_INPUT_ERRORS = (ValueError, KeyError, OSError, WorkbenchError)


def _load_structure(path: str):
    """The MS structure of a report, its results or the bare payload."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: not an MS structure, {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a structure file must hold a JSON object")
    if isinstance(data.get("results"), dict):
        data = data["results"]
    if "ctx" not in data and isinstance(data.get("structure"), dict):
        data = data["structure"]
    try:
        return structure_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: not an MS structure, {what}") from exc


def _run_inputs(args) -> dict:
    """A run's report inputs: the structure's fields, when the subcommand
    has the context flags, followed by the fields its own flags set."""
    inputs = args.flag_inputs(args)
    if "theta" not in args:
        return inputs
    if args.n is None or args.m is None or args.theta is None:
        raise ValueError("give either --structure or all of --n/--m/--theta")
    ctx = make_context(args.n, args.m, args.theta)
    return structure_inputs(ctx, symmetrize_rule(ctx, args.symmetrize),
                            **inputs)


def _cmd_run(args, started: float) -> int:
    """Build the subject of the subcommand's kind from the inputs its
    flags give, run the kind's builder on it and emit its report."""
    if args.format == "csv" and args.csv_rows is None:
        raise ValueError("csv output is only available for rho tables "
                         "and resistance matrices")
    inputs = _run_inputs(args)
    results, tolerances = BUILDERS[args.kind](subject(args.kind, inputs),
                                              inputs, args.tol)
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": list(args.command_echo),
        "wall_time_s": time.perf_counter() - started,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
    }
    payload = ("".join(",".join(row) + "\n" for row in args.csv_rows(results))
               if args.format == "csv" else render_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _resistance_rows(results: dict) -> list:
    return [["vertex"] + results["vertices"]] + [
        [label] + [f"{x:.12g}" for x in row]
        for label, row in zip(results["vertices"], results["matrix"])]


def _rho_rows(results: dict) -> list:
    names = ("rho_over_relation", "rho_under_relation", "rho_quotient")
    return [["relation", *names]] + [
        [key] + [f"{results[key][name]['value']:.12g}" for name in names]
        for key in ("pq_pairs", "side_pairs")]


def _command_run(report: dict) -> tuple[dict, float]:
    """The inputs and solver_tol that the report's own command gives,
    rebuilt as a run does; ValueError, with one 'command: ' line, for a
    command that does not parse, writes another kind or is not a run."""
    shown = " ".join(report["command"])
    messages = io.StringIO()
    try:
        with contextlib.redirect_stdout(messages), \
                contextlib.redirect_stderr(messages):
            flags = build_parser().parse_args(report["command"])
    except SystemExit:
        last = (messages.getvalue().strip().splitlines() or [""])[-1]
        raise ValueError(f"command: {shown!r} does not parse as a run: "
                         f"{last}") from None
    kind = report["results"]["kind"]
    if getattr(flags, "kind", None) != kind:
        raise ValueError(f"command: {shown!r} does not write a {kind!r} "
                         "report")
    try:
        # the run warned already when it reduced theta into its window
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _run_inputs(flags), flags.tol
    except (*_INPUT_ERRORS, ArithmeticError) as exc:
        raise ValueError(f"command: {shown!r} is not a run: {exc}") from None


def validate_report_details(path: str) -> list[str]:
    """The validation of a report file, as fractal-renorm validate runs it:
    the envelope check, the derivation of the inputs and solver_tol from
    the report's own command, and reports.report_errors on them. An empty
    list means valid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"not valid JSON: {exc}"]
    errors = _envelope_errors(report)
    if errors:
        return errors
    kind = report["results"]["kind"]
    if kind not in BUILDERS:
        return [f"unknown result kind {kind!r}"]
    try:
        inputs, solver_tol = _command_run(report)
    except ValueError as exc:
        return [str(exc)]
    return report_errors(report, inputs, solver_tol)


def _cmd_validate(args, started: float) -> int:
    details = validate_report_details(args.path)
    if details:
        for line in details:
            print(line, file=sys.stderr)
        return EXIT_INVARIANT
    print("valid")
    return EXIT_OK


def _add_ctx_flags(p: argparse.ArgumentParser) -> None:
    ctx = p.add_argument_group("context", "--structure FILE stands for "
                               "these flags, read from a report in FILE")
    ctx.add_argument("--n", type=int, default=None)
    ctx.add_argument("--m", type=int, default=None)
    ctx.add_argument("--theta", type=str, default=None,
                     help="base angle as p/q")
    sym = ctx.add_mutually_exclusive_group()
    sym.add_argument("--symmetrize", dest="symmetrize", action="store_true",
                     default=None, help="close the boundary under rotations")
    sym.add_argument("--no-symmetrize", dest="symmetrize",
                     action="store_false")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _set_run(p: argparse.ArgumentParser, kind: str,
             flag_inputs: Callable[[argparse.Namespace], dict],
             csv_rows: Optional[Callable[[dict], list]] = None) -> None:
    """Make p a run that writes a kind report. flag_inputs gives the
    inputs its own flags set; validate rebuilds them the same way."""
    p.set_defaults(handler=_cmd_run, kind=kind, flag_inputs=flag_inputs,
                   csv_rows=csv_rows)


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
    _set_run(p, "gd_structure", lambda a: {"n": a.n, "m": a.m})
    p = gdsub.add_parser("solve", help="solve the gd eigenform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    _set_run(p, "gd_harmonic",
             lambda a: {"n": a.n, "m": a.m, "max_iter": a.max_iter})
    p = gdsub.add_parser("rhos", help="rho table for the corner relations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    _set_run(p, "gd_rhos", lambda a: {"n": a.n, "m": a.m},
             csv_rows=_rho_rows)

    p = sub.add_parser("validate", help="validate a report file")
    p.add_argument("path", type=str)
    p.set_defaults(handler=_cmd_validate)
    return parser


def _expand_structure(argv: list) -> list:
    """argv with --structure FILE, or --structure=FILE, replaced by the
    context flags of the MS structure in FILE; ValueError for no FILE, or
    for a token beside it that argparse may read as a context flag."""
    at = next((i for i, token in enumerate(argv) if token == "--structure"
               or token.startswith("--structure=")), None)
    if at is None:
        return argv
    _, given, path = argv[at].partition("=")
    if not given and at + 1 == len(argv):
        raise ValueError("argument --structure: expected one argument")
    head, tail = argv[:at], argv[at + (1 if given else 2):]
    names = [token.partition("=")[0] for token in head + tail]
    if any(len(name) > 2 and flag.startswith(name) for name in names
           for flag in ("--n", "--m", "--theta", "--symmetrize",
                        "--no-symmetrize", "--structure")):
        raise ValueError("give either --structure or all of --n/--m/--theta")
    s = _load_structure(path if given else argv[at + 1])
    return head + ["--n", str(s.ctx.n), "--m", str(s.ctx.m),
                   "--theta", str(s.ctx.theta),
                   "--symmetrize" if s.symmetrized else "--no-symmetrize",
                   *tail]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; each warning it raises is one 'warning: ' line."""
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            argv = _expand_structure(argv)
            args = build_parser().parse_args(argv)
            args.command_echo = argv
            return args.handler(args, started)
        except SystemExit as exc:  # argparse: --help, --version or a bad flag
            code = exc.code if isinstance(exc.code, int) else 2
            return EXIT_OK if code == 0 else EXIT_INVALID_INPUT
        except _BUDGET_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except _INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        except AssertionError as exc:
            print(f"internal invariant violation: {exc}", file=sys.stderr)
            return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
