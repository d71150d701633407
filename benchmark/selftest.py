"""Quick self-test of the benchmark.

Usage (from the repository root):

    python3 benchmark/selftest.py

Runs one pass of every workload with all its checks, then shows that the
checks are not vacuous: each deliberately perturbed output (an eta, an
eigenform weight, a ratio, the verdict, a resistance entry, a dropped or
an added relation) must be rejected. Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import random
import sys

import run
import workloads

SEED = 1


def _fresh(program, name):
    return workloads.build(program, name, random.Random(SEED),
                           run.OUT / f"selftest-{name}")


def _op(workload, label):
    """The operation whose label starts with label (seed-chosen inputs)."""
    return next(op for op in workload.operations
                if op.label.startswith(label))


def one_pass(program, name) -> list[str]:
    """Run every operation once and return what the checks rejected."""
    workload = _fresh(program, name)
    problems = []
    for op in workload.operations:
        failure, errors = op.check(op.call())
        problems.extend(errors)
        if failure is None:
            continue
        if not op.known_failure(failure):
            problems.append(f"unexpected failure: {failure}")
        else:
            print(f"  known failure kept: {failure.splitlines()[0]}")
    problems.extend(workload.finish())
    print(f"{name}: {len(workload.operations)} operations, "
          f"{len(problems)} problems")
    return problems


def _edit_report(op, edit) -> None:
    with open(op.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    edit(report["results"])
    with open(op.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _rejects(program, name, label, edit) -> list[str]:
    """Run the labelled operation, edit its output, return the rejections."""
    op = _op(_fresh(program, name), label)
    result = op.call()
    if op.report is not None:
        _edit_report(op, edit)
    else:
        result = edit(result)
    return op.check(result)[1] + op.finish()


def _scale_edge(results, factor):
    edge = results["harmonic"]["form"]["edges"][0]
    edge[2] *= factor


def _drop_nontrivial(results):
    rels = results["preserved"]
    most = max(len(r["blocks"]) for r in rels)
    rels.remove(next(r for r in rels if 1 < len(r["blocks"]) < most))


def _drop_trivial(results):
    results["preserved"] = [r for r in results["preserved"]
                            if len(r["blocks"]) != 1]


def _add_unpreserved(results):
    rels = results["preserved"]
    singletons = max(rels, key=lambda r: len(r["blocks"]))["blocks"]
    rels.append({"blocks": [singletons[0] + singletons[1]] + singletons[2:]})


def _set_entry(i, j, factor, symmetric=True):
    def edit(results):
        results["matrix"][i][j] *= factor
        if symmetric:
            results["matrix"][j][i] *= factor
    return edit


def _eta(factor):
    def edit(results):
        results["harmonic"]["eta"]["value"] *= factor
    return edit


def _drop_last(result):
    full, g_only = result
    return full[:-1], g_only


PERTURBATIONS = [
    ("family eta off by 1e-6", "verdict", "solve 2,1,1/6", _eta(1 + 1e-6)),
    ("eigenform eta off by 1e-7", "verdict", "solve 2,1,1/48",
     _eta(1 + 1e-7)),
    ("eigenform weight off by 1e-6", "verdict", "solve 2,1,1/48",
     lambda r: _scale_edge(r, 1 + 1e-6)),
    ("eta off by 1e-7 on a known-failing operation", "verdict",
     "solve 2,1,1/96", _eta(1 + 1e-7)),
    ("gd eta off by 1e-8", "verdict", "gd solve 2,1", _eta(1 + 1e-8)),
    ("gd quotient ratio off by 2e-9", "verdict", "gd rhos 4,3",
     lambda r: r["side_pairs"]["rho_quotient"].update(
         value=r["side_pairs"]["rho_quotient"]["value"] + 2e-9)),
    ("verdict edited to inconclusive", "verdict", "relations 2,1,1/12",
     lambda r: r["verdict"].update(verdict="inconclusive")),
    ("nontrivial relation dropped", "verdict", "relations 2,1,1/12",
     _drop_nontrivial),
    ("trivial relation dropped", "verdict", "relations 2,1,1/12",
     _drop_trivial),
    ("relation that is not preserved added", "verdict", "relations 2,1,1/12",
     _add_unpreserved),
    ("relation dropped from the full enumeration", "enumerate",
     "enumerate 2,1,", _drop_last),
    ("resistance entry off by 1e-6, both halves", "resistance",
     "resistance 2,1,", _set_entry(0, 1, 1 + 1e-6)),
    ("resistance entry off by 1e-6, one half", "resistance",
     "resistance 2,1,", _set_entry(0, 1, 1 + 1e-6, symmetric=False)),
    ("resistance entry negated", "resistance", "resistance 2,1,",
     _set_entry(0, 1, -1.0)),
]


def _other_failures_rejected(program) -> list[str]:
    """A known-failing operation accepts only its known failure."""
    label = "solve 2,1,1/96"
    op = _op(_fresh(program, "verdict"), label)
    residual = "recomputed residual 1.131e-11 exceeds 10x stated tolerance"
    cases = [(f"{label}: validate exit 4: {residual}", True),
             (f"{label}: validate exit 4: {residual}\neta mismatch", False),
             (f"{label}: validate exit 2: {residual}", False),
             (f"{label}: exit 3: no convergence", False),
             (f"{label}: raised\nTraceback", False)]
    problems = []
    for failure, known in cases:
        if op.known_failure(failure) != known:
            problems.append(f"known_failure({failure!r}) is not {known}")
    print(f"known-failure filter: {len(cases)} cases, "
          f"{len(problems)} problems")
    return problems


def main() -> int:
    program = run.load_program()
    problems = _other_failures_rejected(program)
    for name in workloads.NAMES:
        problems.extend(one_pass(program, name))
    for what, name, label, edit in PERTURBATIONS:
        errors = _rejects(program, name, label, edit)
        status = "rejected" if errors else "NOT REJECTED"
        print(f"{what}: {status}" + (f" ({errors[0]})" if errors else ""))
        if not errors:
            problems.append(f"perturbation not rejected: {what}")
    for line in problems:
        print(f"PROBLEM: {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
