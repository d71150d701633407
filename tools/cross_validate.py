#!/usr/bin/env python3
"""Run one list of CLI commands with two source trees and compare them.

    python tools/cross_validate.py BASE HEAD [--work DIR]

BASE and HEAD are checkouts of this repository; each runs as
`python -m fractal_renorm` with its own `src` on PYTHONPATH. Each tree
writes its reports into its own directory under DIR (a fresh temporary
directory by default), at the same relative paths, so the commands that
the reports record are the same. Then it prints, one line each:

- a report whose bytes differ between the trees anywhere but its
  top-level wall_time_s line, or that only one tree wrote;
- a command whose exit code, stdout or stderr differs;
- a report of either tree that fails `validate` under the other tree.

Exit 0 when there is nothing to print, 1 otherwise. Standard library
only. OPENBLAS_NUM_THREADS is 1 unless the caller sets it, so that both
trees sum in the same order.
"""
from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SOLVE_THETAS = ("1/6", "1/12", "1/24", "1/48", "1/74", "1/96", "1/192")


def ms(command: str, n: int, m: int, theta: str, *extra: str) -> list[str]:
    return [command, "--n", str(n), "--m", str(m), "--theta", theta, *extra]


COMMANDS = (
    [ms("solve", 2, 1, theta) for theta in SOLVE_THETAS]
    + [ms("solve", 3, 1, "1/12"), ms("solve", 3, 2, "1/15"),
       ms("solve", 2, 3, "1/10"), ms("solve", 2, 2, "3/16"),
       ms("solve", 2, 2, "3/16", "--no-symmetrize"),
       ms("solve", 2, 1, "1/12", "--tol", "1e-3"),
       ms("relations", 2, 1, "1/12"), ms("relations", 2, 1, "1/4")]
    + [ms("relations", n, m, theta, "--all")
       for n, m, theta in ((3, 1, "1/9"), (2, 1, "1/12"), (2, 1, "1/42"),
                           (2, 2, "3/16"))]
    + [ms("resistance", 2, 1, "1/12", "--level", "5"),
       ms("resistance", 3, 1, "1/12", "--level", "4"),
       ms("resistance", 3, 1, "1/9", "--level", "4"),
       ms("flows", 2, 1, "1/12", "--values", "1,0,0,0,0,0")]
    + [["gd", "solve", "--n", str(n), "--m", str(m)]
       for n, m in ((2, 1), (4, 3), (5, 5), (4, 4))]
    + [["gd", "rhos", "--n", str(n), "--m", str(m)]
       for n, m in ((2, 1), (4, 3))]
)
WALL_TIME = re.compile(rb'^  "wall_time_s": .*$', re.MULTILINE)


def report_name(command: list[str]) -> str:
    """A file name that the command's words spell out."""
    words = (word.lstrip("-").replace("/", "_").replace(",", "_")
             for word in command)
    return "-".join(words) + ".json"


def run(tree: Path, args: list[str], cwd: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the CLI of tree run with args."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    done = subprocess.run([sys.executable, "-m", "fractal_renorm", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def cross_validate(trees: dict[str, Path], work: Path) -> list[str]:
    """The differences between the trees' runs of COMMANDS, one line
    each, with the reports written under work/<tree label>."""
    out = {label: work / label for label in trees}
    for folder in out.values():
        folder.mkdir(parents=True, exist_ok=True)
    problems = []
    for command in COMMANDS:
        name = report_name(command)
        shown = " ".join(command)
        runs = {label: run(tree, [*command, "--out", name], out[label])
                for label, tree in trees.items()}
        (a, ra), (b, rb) = runs.items()
        for what, i in (("exit code", 0), ("stdout", 1), ("stderr", 2)):
            if ra[i] != rb[i]:
                problems.append(f"{shown}: {what} differs: {a} {ra[i]!r}, "
                                f"{b} {rb[i]!r}")
        written = {label: out[label] / name for label in trees
                   if (out[label] / name).exists()}
        if len(written) == 1:
            problems.append(f"{shown}: only {next(iter(written))} wrote "
                            f"{name}")
        elif written:
            texts = [WALL_TIME.sub(b"", path.read_bytes())
                     for path in written.values()]
            if texts[0] != texts[1]:
                problems.append(f"{shown}: {name} differs outside "
                                "wall_time_s")
        for label, path in written.items():
            other = b if label == a else a
            code, _, err = run(trees[other], ["validate", name], path.parent)
            if code != 0:
                why = (err.strip().splitlines() or [""])[0]
                problems.append(f"{shown}: {label}'s {name} fails validate "
                                f"under {other} (exit {code}): {why}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="the tree to compare with")
    parser.add_argument("head", type=Path, help="the tree under test")
    parser.add_argument("--work", type=Path, default=None,
                        help="where the reports go (default: a new "
                             "temporary directory)")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (tree / "src" / "fractal_renorm").is_dir():
            parser.error(f"{tree} has no src/fractal_renorm")
    work = args.work or Path(tempfile.mkdtemp(prefix="cross-validate-"))
    problems = cross_validate({"base": args.base, "head": args.head}, work)
    for line in problems:
        print(line)
    print(f"{len(COMMANDS)} commands, reports in {work}: "
          + (f"{len(problems)} differences" if problems else "no difference"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
