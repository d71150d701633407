"""The three workloads: their operations, inputs, and output checks.

An operation is one timed call into the program plus the checks run on
its output after the timer stops. Every pass runs each operation once, so
every pass attempts the same operations and fails the same ones.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles
from oracles import Level1

NAMES = ("verdict", "enumerate", "resistance")

# Inputs of equal size and equal work that the seed chooses between, for
# the operations that use them. The family pairs share eta and the solver's
# iteration count. The nb pairs share the boundary size, the level-1 size,
# and the preserved and the rotation-invariant partitions, so enumeration
# does the same counted work on either member. The nb6 and nb8 members also
# share eta and the iteration count; the nb9 members do not, so that pair is
# used for enumeration only.
EQUIVALENT = {
    "family_3_1": ((3, 1, "1/12"), (3, 1, "1/6")),
    "family_3_2": ((3, 2, "1/15"), (3, 2, "2/15")),
    "nb6": ((2, 1, "1/12"), (2, 1, "1/4")),
    "nb8": ((3, 1, "1/9"), (3, 1, "5/36")),
    "nb9": ((2, 1, "1/24"), (2, 1, "1/42")),
}


@dataclass
class Operation:
    """One call into the program and what to check about its result."""

    label: str
    call: Callable[[], object]
    # check(result) -> (failure, errors): failure is the program's own
    # report of a failed operation (None when it succeeded); errors are
    # outputs that disagree with the benchmark's checks
    check: Callable[[object], tuple[Optional[str], list[str]]]
    # checks too slow to repeat, run once after the timed passes
    finish: Callable[[], list[str]] = lambda: []
    # known_failure(failure) is True for a failure the program is known to
    # give on this operation; any other failure is an error
    known_failure: Callable[[str], bool] = lambda failure: False
    report: Optional[Path] = None  # the report file the operation writes


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    # reference runs per measurement of the machine's speed; more where
    # operations are long, so that the reference's own jitter stays below
    # what a seconds-long operation averages out
    reference_runs: int

    def finish(self) -> list[str]:
        return [e for op in self.operations for e in op.finish()]


def _quiet(fn, *args):
    """Call fn with the program's stdout/stderr captured; return both."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        value = fn(*args)
    return value, err.getvalue()


def _ctx_argv(n, m, theta):
    return ["--n", str(n), "--m", str(m), "--theta", theta]


# Level-1 oracles, built on first use so that they stay out of setup_s.
_level1 = functools.lru_cache(maxsize=None)(Level1)


# --------------------------------------------------------------------------
# verdict: the paper's pipeline through the CLI, each report validated


def _residual_rejection(label):
    """The known fault of `solve` at nb >= 15: solve exits 0, and validate
    exits 4 (EXIT_INVARIANT) with no complaint but the residual."""
    prefix = f"{label}: validate exit 4: "

    def known(failure: str) -> bool:
        return failure.startswith(prefix) and all(
            line.startswith("recomputed residual ")
            for line in failure[len(prefix):].splitlines())

    return known


def _cli_report_op(program, label, argv, path: Path, check_report,
                   finish=lambda: [], expect_fail=False) -> Operation:
    def call():
        code, err = _quiet(program.cli.main, argv + ["--out", str(path)])
        if code != 0:
            return code, err, None, ""
        vcode, verr = _quiet(program.cli.main, ["validate", str(path)])
        return code, err, vcode, verr

    def check(result):
        code, err, vcode, verr = result
        if code != 0:
            return f"{label}: exit {code}: {err.strip()}", []
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        errors = [f"{label}: {e}" for e in check_report(report["results"])]
        if vcode != 0:
            return f"{label}: validate exit {vcode}: {verr.strip()}", errors
        return None, errors

    op = Operation(label, call, check, finish, report=path)
    if expect_fail:
        op.known_failure = _residual_rejection(label)
    return op


def _harmonic_checker(n, m, theta, family_l=None):
    def check(results):
        level1 = _level1(n, m, theta)
        eta = results["harmonic"]["eta"]["value"]
        errors = []
        if family_l is not None:
            want = oracles.family_eta(n, m, family_l)
            if abs(eta - want) > 1e-9:
                errors.append(f"eta {eta!r} differs from the closed form "
                              f"{want!r}")
        w0 = level1.form_matrix(results["harmonic"]["form"])
        resid = level1.eigen_residual(w0, eta)
        if not resid <= 1e-9:
            errors.append(f"eigen equation defect {resid:.3e} > 1e-9")
        return errors

    return check


def _relations_checker(n, m, theta, seen: dict):
    def check(results):
        level1 = _level1(n, m, theta)
        errors = []
        if results["verdict"]["verdict"] not in oracles.EXISTS_UNIQUE:
            errors.append(f"verdict {results['verdict']['verdict']!r} is "
                          "not an exists-unique verdict")
        found = [level1.labels(rel["blocks"]) for rel in results["preserved"]]
        nb = len(level1.boundary)
        for trivial in ((0,) * nb, tuple(range(nb))):
            if trivial not in found:
                errors.append(f"trivial relation {trivial} not listed")
        for labels in found:
            if not level1.is_preserved(labels):
                errors.append(f"listed relation {labels} is not preserved")
            if not level1.rotation_invariant(labels):
                errors.append(f"listed relation {labels} is not "
                              "rotation-invariant")
        seen.setdefault("found", set(found))
        if len(set(found)) != len(found) or set(found) != seen["found"]:
            errors.append("preserved list repeats or differs between passes")
        return errors

    return check


def _relations_finish(n, m, theta, seen: dict):
    def finish():
        level1 = _level1(n, m, theta)
        want = {p for p in level1.brute_force_preserved()
                if level1.rotation_invariant(p)}
        if seen.get("found") != want:
            return [f"relations {n},{m},{theta}: preserved G-relations "
                    f"{sorted(seen.get('found', ()))} differ from brute "
                    f"force {sorted(want)}"]
        return []

    return finish


def _gd_solve_checker(n):
    def check(results):
        eta = results["harmonic"]["eta"]["value"]
        want = oracles.gd_eta_m1(n)
        if abs(eta - want) > 1e-9:
            return [f"gd eta {eta!r} differs from (2n+1)/(n+1) = {want!r}"]
        return []

    return check


def _gd_rhos_checker(n, m):
    def check(results):
        errors = []
        for key, want in oracles.gd_rho_table(n, m).items():
            entry, fld = key.split(".")
            claimed = results[entry][fld]
            if abs(claimed["value"] - want) > claimed["tol"]:
                errors.append(f"{key} = {claimed['value']!r}, want {want!r} "
                              f"within {claimed['tol']}")
        return errors

    return check


def _verdict(program, rng: random.Random, out: Path) -> Workload:
    ops: list[Operation] = []

    def add(label, argv, check, finish=lambda: [], expect_fail=False):
        path = out / f"{len(ops):02d}.json"
        ops.append(_cli_report_op(program, label, argv, path, check, finish,
                                  expect_fail))

    for n, m, theta in ((2, 1, "1/12"), (2, 1, "1/4")):
        seen: dict = {}
        add(f"relations {n},{m},{theta}",
            ["relations"] + _ctx_argv(n, m, theta),
            _relations_checker(n, m, theta, seen),
            _relations_finish(n, m, theta, seen))
    family = [(2, 1, "1/6"), rng.choice(EQUIVALENT["family_3_1"]),
              rng.choice(EQUIVALENT["family_3_2"]), (2, 3, "1/10")]
    for n, m, theta in family:
        l = int(Fraction(theta) * n * (n + m))
        add(f"solve {n},{m},{theta}", ["solve"] + _ctx_argv(n, m, theta),
            _harmonic_checker(n, m, theta, family_l=l))
    # nb = 9, 8, 12, 15, 18; the last two write reports that validate
    # rejects (the solver stops on step size, not on residual)
    others = [(2, 1, "1/24", False), (2, 2, "3/16", False),
              (2, 1, "1/48", False),
              (2, 1, "1/96", True), (2, 1, "1/192", True)]
    for n, m, theta, expect_fail in others:
        add(f"solve {n},{m},{theta}", ["solve"] + _ctx_argv(n, m, theta),
            _harmonic_checker(n, m, theta), expect_fail=expect_fail)
    for n in (2, 3, 4):
        add(f"gd solve {n},1", ["gd", "solve", "--n", str(n), "--m", "1"],
            _gd_solve_checker(n))
    for n, m in ((2, 1), (4, 3)):
        add(f"gd rhos {n},{m}",
            ["gd", "rhos", "--n", str(n), "--m", str(m)],
            _gd_rhos_checker(n, m))
    return Workload("verdict", ops, reference_runs=1)


# --------------------------------------------------------------------------
# enumerate: full preserved-relation enumeration, structure built fresh


def _enumerate_op(program, n, m, theta, results: dict):
    label = f"enumerate {n},{m},{theta}"

    def call():
        s = program.build_structure(
            program.make_context(n, m, Fraction(theta)))
        return (program.enumerate_preserved(s),
                program.enumerate_preserved(s, require_g=True))

    def as_labels(partitions):
        return [_level1(n, m, theta).labels(
            [[Fraction(a.residue, a.modulus) for a in block]
             for block in p.blocks]) for p in partitions]

    def check(result):
        level1 = _level1(n, m, theta)
        full, g_only = (as_labels(r) for r in result)
        errors = []
        if len(set(full)) != len(full) or len(set(g_only)) != len(g_only):
            errors.append("enumeration lists a relation twice")
        if set(g_only) != {p for p in full if level1.rotation_invariant(p)}:
            errors.append("G-filtered enumeration differs from the "
                          "rotation-invariant part of the full list")
        results.setdefault(label, set(full))
        if set(full) != results[label]:
            errors.append("enumeration differs between passes")
        return None, [f"{label}: {e}" for e in errors]

    def finish():
        want = set(_level1(n, m, theta).brute_force_preserved())
        if results.get(label) != want:
            return [f"{label}: {len(results.get(label, ()))} relations "
                    f"differ from the {len(want)} found by brute force"]
        return []

    return Operation(label, call, check, finish)


def _enumerate(program, rng: random.Random, out: Path) -> Workload:
    results: dict = {}
    inputs = [rng.choice(EQUIVALENT["nb6"]), rng.choice(EQUIVALENT["nb8"]),
              (2, 2, "3/16"), rng.choice(EQUIVALENT["nb9"])]
    return Workload("enumerate",
                    [_enumerate_op(program, *inp, results) for inp in inputs],
                    reference_runs=7)


# --------------------------------------------------------------------------
# resistance: level-k boundary resistances through the CLI


def _resistance_op(program, n, m, theta, level, path: Path, results: dict):
    label = f"resistance {n},{m},{theta} L{level}"
    argv = (["resistance"] + _ctx_argv(n, m, theta)
            + ["--level", str(level), "--out", str(path)])

    def call():
        return _quiet(program.cli.main, argv)

    def check(result):
        code, err = result
        if code != 0:
            return f"{label}: exit {code}: {err.strip()}", []
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)["results"]
        matrix = np.array(report["matrix"], dtype=float)
        errors = oracles.resistance_defects(matrix)
        first = results.setdefault(label, (matrix, report["eta"]["value"]))
        if not np.array_equal(first[0], matrix):
            errors.append("matrix differs between passes")
        return None, [f"{label}: {e}" for e in errors]

    def finish():
        """R_k = eta^k R_0, with R_0 from the eigenform checked here."""
        if label not in results:
            return [f"{label}: no result to check"]
        matrix, eta = results[label]
        hs = program.solve_eigenform(
            program.build_structure(program.make_context(n, m,
                                                         Fraction(theta))))
        level1 = _level1(n, m, theta)
        w0 = level1.form_matrix(program.form_to_json(hs.form))
        errors = []
        resid = level1.eigen_residual(w0, eta)
        if not resid <= 1e-9:
            errors.append(f"eigenform defect {resid:.3e} > 1e-9")
        want = eta ** level * oracles.resistance_from_form(w0)
        rel = float(np.abs(matrix - want).max() / np.abs(want).max())
        if not rel <= 1e-9:
            errors.append(f"R_k differs from eta^k R_0 by {rel:.3e} "
                          "relative (> 1e-9)")
        return [f"{label}: {e}" for e in errors]

    return Operation(label, call, check, finish, report=path)


def _resistance(program, rng: random.Random, out: Path) -> Workload:
    results: dict = {}
    # Largest is N = 1,708 vertices. The N = 2,732 level 5 of (3,1,1/12)
    # takes 6.5 s, fits three times in a run and tracks no reference, so
    # its runs spread by 16 %.
    inputs = [rng.choice(EQUIVALENT["nb6"]) + (5,), (3, 1, "1/12", 4),
              rng.choice(EQUIVALENT["nb8"]) + (4,)]
    return Workload("resistance",
                    [_resistance_op(program, *inp, out / f"{i:02d}.json",
                                    results)
                     for i, inp in enumerate(inputs)],
                    reference_runs=3)


def build(program, name: str, rng: random.Random, out: Path) -> Workload:
    """The workload's operations, with inputs chosen by the seeded rng."""
    makers = {"verdict": _verdict, "enumerate": _enumerate,
              "resistance": _resistance}
    out.mkdir(parents=True, exist_ok=True)
    return makers[name](program, rng, out)
