"""Workbench front end: exit codes, determinism, file round-trips."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from _oracles import dense_level_resistance
from fractal_renorm import cli, gd, reports, structure
from fractal_renorm.cli import main
from fractal_renorm.errors import (CapExceededError, DepthCapError,
                                   NonConvergenceError, WorkbenchError)
from fractal_renorm.renorm import _boundary_matrix, solve_eigenform
from fractal_renorm.reports import subject


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def set_flag(report: dict, flag: str, value: str) -> None:
    """Set the value that follows flag in the report's command."""
    command = report["command"]
    command[command.index(flag) + 1] = value


# one run of each kind that solves for an eigenform
SOLVING_RUNS = [
    ["solve", "--n", "2", "--m", "1", "--theta", "1/12"],
    ["relations", "--n", "2", "--m", "1", "--theta", "1/12"],
    ["resistance", "--n", "2", "--m", "1", "--theta", "1/12"],
    ["flows", "--n", "2", "--m", "1", "--theta", "1/6", "--values", "1,0,0"],
    ["gd", "solve", "--n", "2", "--m", "1"],
]


# one run of each report kind
KIND_RUNS = {
    "structure": ["structure", "--n", "2", "--m", "1", "--theta", "1/12",
                  "--level", "2"],
    "harmonic": SOLVING_RUNS[0],
    "relations": SOLVING_RUNS[1],
    "resistance": SOLVING_RUNS[2],
    "flows": SOLVING_RUNS[3],
    "gd_structure": ["gd", "build", "--n", "2", "--m", "1"],
    "gd_harmonic": SOLVING_RUNS[4],
    "gd_rhos": ["gd", "rhos", "--n", "2", "--m", "1"],
}


# the runs of the MS kinds that take --structure, split around the context
STRUCTURE_RUNS = {
    "solve": (["solve"], []),
    "resistance": (["resistance"], ["--level", "2"]),
    "flows": (["flows"], ["--values", "1,0,0"]),
    "relations": (["relations"], []),
}


def structure_file(tmp_path) -> Path:
    """The (2,1,1/6) structure report, written for --structure."""
    path = tmp_path / "s.json"
    assert main(["structure", "--n", "2", "--m", "1", "--theta", "1/6",
                 "--out", str(path)]) == 0
    return path


def count_builds(monkeypatch) -> Counter:
    """Counts of the outermost calls of the three subject builders, on
    every module of the package that binds them, so build_gd_structure's
    own cell_graph calls are not counted."""
    counts, depth = Counter(), [0]
    modules = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "fractal_renorm"]
    for real in (structure.build_structure, gd.cell_graph,
                 gd.build_gd_structure):
        def counted(*args, _real=real, **kwargs):
            if not depth[0]:
                counts[_real.__name__] += 1
            depth[0] += 1
            try:
                return _real(*args, **kwargs)
            finally:
                depth[0] -= 1

        for module in modules:
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, counted)
    return counts


def strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9eE.+-]+', '"wall_time_s": 0', text)


class TestExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "ok.json"
        assert main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--out", str(out)]) == 0

    def test_invalid_context(self, capsys):
        # angle 0 is both critical and post-critical
        code = main(["solve", "--n", "2", "--m", "1", "--theta", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_flags(self):
        assert main(["solve", "--n", "2"]) == 2

    def test_zero_theta_denominator(self, capsys):
        assert main(["solve", "--n", "2", "--m", "1", "--theta", "1/0"]) == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_nonconvergence(self, capsys):
        # the equal-weight start is exact for 1/6, so use 1/12 here
        code = main(["solve", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--max-iter", "2"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_unreachable_tol_stops_on_stall(self, capsys):
        # tol 0 lies below the rounding floor of the residual: the solve
        # stops once 16 steps bring no new lowest residual
        code = main(["solve", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--tol", "0"])
        assert code == 3
        err = capsys.readouterr().err
        steps = int(re.search(r"after (\d+) iterations", err).group(1))
        assert steps <= 100
        assert re.search(r"lowest residual \d\.\d+e-\d+", err)

    def test_collapse_to_a_singular_trace(self, tmp_path, capsys):
        # outside the existence regime, tol 0 drives (6,4)'s weights down
        # until the trace's interior block is singular: a non-convergence
        out = tmp_path / "r.json"
        code = main(["gd", "solve", "--n", "6", "--m", "4", "--tol", "0",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            "error: step 267: the interior block of the trace became "
            "singular as the weights collapsed"]
        assert not out.exists()

    def test_enumeration_cap(self, capsys):
        code = main(["relations", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--cap", "3"])
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_enumeration_cap_below_one(self, capsys):
        code = main(["relations", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--cap", "-1"])
        assert code == 2
        assert "cap must be at least 1" in capsys.readouterr().err

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/report.json"]) == 2

    def test_validate_tampered(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
              "--out", str(out)])
        report = load(out)
        report["results"]["harmonic"]["eta"]["value"] *= 1.02
        out.write_text(json.dumps(report), encoding="utf-8")
        assert main(["validate", str(out)]) == 4

    def test_validate_good(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
              "--out", str(out)])
        assert main(["validate", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_solve_reports_validate_at_large_boundaries(self, tmp_path,
                                                        capsys):
        # nb = 15 and 18: the solver stops on the residual that validate
        # recomputes, not on the step size
        for theta in ("1/96", "1/192"):
            out = tmp_path / "h.json"
            assert main(["solve", "--n", "2", "--m", "1", "--theta", theta,
                         "--out", str(out)]) == 0
            assert main(["validate", str(out)]) == 0

    def test_resistance_levels_come_from_the_eigenform(self, monkeypatch,
                                                        tmp_path, capsys):
        # level 8 of (2,1,1/12) has N = 29,526 vertices; none is built
        def must_not_run(*args, **kwargs):
            raise AssertionError("level vertices built")

        monkeypatch.setattr(reports, "level_vertices", must_not_run)
        ctx = ["resistance", "--n", "2", "--m", "1", "--theta", "1/12"]
        matrices = {}
        for level in (0, 8):
            out = tmp_path / f"r{level}.json"
            assert main(ctx + ["--level", str(level), "--out", str(out)]) == 0
            matrices[level] = load(out)["results"]
        eta = matrices[8]["eta"]["value"]
        assert eta == matrices[0]["eta"]["value"]
        assert np.allclose(matrices[8]["matrix"],
                           eta ** 8 * np.array(matrices[0]["matrix"]),
                           rtol=1e-12, atol=0.0)
        assert main(ctx + ["--level", "13"]) == 3
        assert "depth cap" in capsys.readouterr().err
        assert main(ctx + ["--level", "-1"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_level_over_the_vertex_cap(self, monkeypatch, tmp_path, capsys):
        # level 12 of (3,2,1/15) passes the depth cap with 915,527,345
        # vertices: it is refused before anything is built, as is the
        # rerun of a report edited to it; resistance builds level 1 only
        def must_not_run(*args, **kwargs):
            raise AssertionError("a level was built")

        ctx = ["--n", "3", "--m", "2", "--theta", "1/15"]
        assert main(["resistance", *ctx, "--level", "12"]) == 0
        out = tmp_path / "s.json"
        assert main(["structure", *ctx, "--out", str(out)]) == 0
        monkeypatch.setattr(structure, "_next_level", must_not_run)
        capsys.readouterr()
        assert main(["structure", *ctx, "--level", "12"]) == 3
        assert "915527345 vertices" in capsys.readouterr().err
        report = load(out)
        report["inputs"]["level"] = 12
        report["command"] += ["--level", "12"]
        out.write_text(json.dumps(report), encoding="utf-8")
        assert main(["validate", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "915527345 vertices" in err[0]

    def test_flows_value_count(self, capsys):
        code = main(["flows", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--values", "1,0"])
        assert code == 2

    def test_flows_negative_first_value(self, tmp_path, capsys):
        # a list that starts with a minus sign parses as a flag unless it
        # is attached to --values with "="
        argv = ["flows", "--n", "2", "--m", "1", "--theta", "1/6"]
        assert main(argv + ["--values", "-1,0,0"]) == 2
        out = tmp_path / "f.json"
        assert main(argv + ["--values=-1,0,0", "--out", str(out)]) == 0
        assert load(out)["inputs"]["values"] == "-1,0,0"
        assert main(["validate", str(out)]) == 0

    @pytest.mark.parametrize("argv", SOLVING_RUNS,
                             ids=lambda argv: " ".join(argv[:2]))
    def test_negative_max_iter(self, argv, capsys):
        assert main(argv + ["--max-iter", "-1"]) == 2
        assert "max_iter must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", SOLVING_RUNS,
                             ids=lambda argv: " ".join(argv[:2]))
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol(self, argv, tol, capsys):
        # rejected before the first step, not after --max-iter of them
        assert main(argv + ["--tol", tol, "--max-iter", "50"]) == 2
        assert "tol must be finite and nonnegative" in capsys.readouterr().err

    def test_structure_takes_any_tol(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["structure", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--tol", "-1", "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0

    def test_validate_bad_solver_tol(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
              "--out", str(out)])
        report = load(out)
        report["command"] += ["--tol", "-1"]
        report["tolerances"]["solver_tol"] = -1.0
        out.write_text(json.dumps(report), encoding="utf-8")
        assert main(["validate", str(out)]) == 4
        assert "tol must be finite and nonnegative" in capsys.readouterr().err

    def test_validate_negative_max_iter(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
              "--out", str(out)])
        report = load(out)
        report["inputs"]["max_iter"] = -1
        out.write_text(json.dumps(report), encoding="utf-8")
        assert main(["validate", str(out)]) == 4
        # compared with the command's, never run
        assert capsys.readouterr().err.splitlines() == [
            "inputs.max_iter: -1, recomputed 100000"]

    def test_k_max_zero(self, capsys):
        code = main(["relations", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--k-max", "0"])
        assert code == 2
        assert "k_max must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--theta", "1/6", "--k-max", "-3"],
        ["--theta", "1/12", "--k-max", "0", "--max-iter", "1"],
    ], ids=["no-nontrivial-relation", "solver-error"])
    def test_k_max_below_one_without_a_certificate(self, argv, capsys):
        # neither context runs a certificate: (2,1,1/6) has no nontrivial
        # relation, and one step does not solve (2,1,1/12)
        assert main(["relations", "--n", "2", "--m", "1", *argv]) == 2
        assert "k_max must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_flows_nonfinite_values(self, bad, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main(["flows", "--n", "2", "--m", "1", "--theta", "1/6",
                     f"--values=1,{bad},0", "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_structure_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["solve", "--structure", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_structure_file_not_an_ms_structure(self, tmp_path, capsys):
        # a gd build report has a ctx but no theta; the other has no ctx
        gd = tmp_path / "gd.json"
        assert main(["gd", "build", "--n", "2", "--m", "1",
                     "--out", str(gd)]) == 0
        other = tmp_path / "x.json"
        other.write_text('{"results": {"kind": "x"}}', encoding="utf-8")
        capsys.readouterr()
        for path, key in ((gd, "'theta'"), (other, "'ctx'")):
            assert main(["solve", "--structure", str(path)]) == 2
            err = capsys.readouterr().err
            assert str(path) in err
            assert f"not an MS structure, missing key {key}" in err

    @pytest.mark.parametrize("payload,what", [
        ({"ctx": 5}, "ctx must be an object"),
        ({"ctx": {"n": 2, "m": 1, "theta": "1/12"}, "symmetrized": False,
          "boundary": 7}, "boundary must be a list"),
        ({"ctx": {"n": 2, "m": 1, "theta": "1/0"}, "symmetrized": False,
          "boundary": []}, "theta 1/0: zero denominator"),
        ({"ctx": {"n": 2, "m": 1, "theta": "1/12"}, "symmetrized": False,
          "boundary": ["1/0"]},
         "a boundary angle has a zero denominator"),
        (b'{"ctx" 5}', "Expecting ':' delimiter"),
        (b'{"ctx": "\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
    ], ids=["ctx", "boundary", "theta-1/0", "boundary-1/0", "not-json",
            "not-utf8"])
    def test_structure_file_of_the_wrong_shape(self, payload, what,
                                               tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_bytes(payload if isinstance(payload, bytes)
                         else json.dumps(payload).encode("utf-8"))
        assert main(["solve", "--structure", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not an MS structure, {what}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--n", "3"], ["--theta=1/12"], ["--no-symmetrize"], ["--the", "1/12"],
        ["--structure", "s.json"],
    ], ids=["n", "theta=", "no-symmetrize", "abbreviated", "structure"])
    def test_structure_beside_a_context_flag_is_refused(self, flags,
                                                        tmp_path, capsys):
        # --structure stands for all the context flags, so one more is
        # ambiguous: refused before the file is read
        struct = structure_file(tmp_path)
        out = tmp_path / "h.json"
        assert main(["solve", "--structure", str(struct), *flags,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: give either --structure or all of --n/--m/--theta\n")
        assert not out.exists()

    def test_structure_without_a_file(self, capsys):
        assert main(["solve", "--structure"]) == 2
        err = capsys.readouterr().err
        assert "--structure: expected one argument" in err
        assert "Traceback" not in err

    def test_gd_build_over_the_vertex_cap(self, monkeypatch, capsys):
        # 2(m+n)^2 = 1,002,528 vertices: refused before any cell is built
        def must_not_run(*args, **kwargs):
            raise AssertionError("a cell was built")

        monkeypatch.setattr(gd, "cell_graph", must_not_run)
        assert main(["gd", "build", "--n", "700", "--m", "8"]) == 3
        assert "1002528 vertices" in capsys.readouterr().err

    def test_version_flag(self):
        assert main(["--version"]) == 0

    def test_csv_unavailable_for_solve(self, capsys):
        code = main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--format", "csv"])
        assert code == 2

    @pytest.mark.parametrize("kind", ["structure", "harmonic", "relations",
                                      "flows", "gd_structure",
                                      "gd_harmonic"])
    def test_csv_refused_before_any_work(self, kind, monkeypatch, capsys):
        called = []
        monkeypatch.setattr(cli, "subject", lambda *a: called.append(a))
        for name in reports.BUILDERS:
            monkeypatch.setitem(reports.BUILDERS, name,
                                lambda *a: called.append(a))
        assert main(KIND_RUNS[kind] + ["--format", "csv"]) == 2
        assert "csv output is only available" in capsys.readouterr().err
        assert called == []

    @pytest.mark.parametrize("error", WorkbenchError.__subclasses__(),
                             ids=lambda error: error.__name__)
    def test_every_workbench_error_has_its_exit_code(self, error,
                                                     monkeypatch, capsys):
        def builder(*args):
            raise error("raised in the builder")

        monkeypatch.setitem(reports.BUILDERS, "gd_structure", builder)
        budget = (NonConvergenceError, CapExceededError, DepthCapError)
        assert main(KIND_RUNS["gd_structure"]) == (
            3 if issubclass(error, budget) else 2)
        err = capsys.readouterr().err
        assert "error: raised in the builder" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["build", "solve", "rhos"])
    @pytest.mark.parametrize("n, m", [("2", "0"), ("0", "1")])
    def test_gd_orders_out_of_range(self, sub, n, m, capsys):
        # checked before the existence sign test divides by m and n
        assert main(["gd", sub, "--n", n, "--m", m]) == 2
        err = capsys.readouterr().err
        assert f"need n >= 2 and m >= 1, got n={n}, m={m}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("theta, tol", [("1/192", "1e-6"),
                                            ("1/48", "1e-4"),
                                            ("1/12", "1e-3")])
    def test_loose_tol_solves_validate(self, theta, tol, tmp_path):
        out = tmp_path / "h.json"
        assert main(["solve", "--n", "2", "--m", "1", "--theta", theta,
                     "--tol", tol, "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        # the eigen equation is held to the run's own tol
        checks = load(out)["results"]["checks"]
        assert checks["ok"] is True
        assert checks["eigen_residual"]["tol"] == float(tol)

    @pytest.mark.parametrize("theta", ["1/72", "17/72"])
    def test_all_relations_with_a_collapsing_bracket(self, theta, tmp_path):
        # a quotient iterate collapses towards a face of the cone; its
        # bracket ends at the last step with a positive definite form
        out = tmp_path / "r.json"
        assert main(["relations", "--all", "--n", "3", "--m", "1",
                     "--theta", theta, "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        results = load(out)["results"]
        assert len(results["preserved"]) == 11
        assert results["verdict"]["verdict"] == "inconclusive"

    @pytest.mark.parametrize("flags", [[], ["--all"]], ids=["g", "all"])
    def test_relations_at_the_default_cap(self, flags, tmp_path):
        # nb = 15, the largest boundary the default cap admits
        out = tmp_path / "r.json"
        assert main(["relations", *flags, "--n", "2", "--m", "1",
                     "--theta", "1/96", "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0

    def test_gd_critical_pair_still_succeeds(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["gd", "solve", "--n", "4", "--m", "4",
                     "--out", str(out)]) == 0
        assert load(out)["results"]["existence"] == "critical_undetermined"


class TestOneStructurePerCommand:
    @pytest.mark.parametrize("sub", ["solve", "relations"])
    def test_run_and_validate_each_build_once(self, sub, monkeypatch,
                                              tmp_path):
        # every MsStructure is made by build_structure
        built = []
        real = structure.MsStructure.__init__

        def counted(self, **fields):
            built.append(fields["ctx"])
            real(self, **fields)

        monkeypatch.setattr(structure.MsStructure, "__init__", counted)
        out = tmp_path / "r.json"
        assert main([sub, "--n", "2", "--m", "1", "--theta", "1/12",
                     "--out", str(out)]) == 0
        assert len(built) == 1
        assert main(["validate", str(out)]) == 0
        assert len(built) == 2

    @pytest.mark.parametrize("kind", sorted(KIND_RUNS))
    def test_each_kind_builds_its_subject_once(self, kind, monkeypatch,
                                               tmp_path):
        built = count_builds(monkeypatch)
        builder = {"gd_structure": "build_gd_structure",
                   "gd_harmonic": "cell_graph",
                   "gd_rhos": "cell_graph"}.get(kind, "build_structure")
        out = tmp_path / "r.json"
        assert main(KIND_RUNS[kind] + ["--out", str(out)]) == 0
        assert built == {builder: 1}
        built.clear()
        assert main(["validate", str(out)]) == 0
        assert built == {builder: 1}


class TestEtaClaims:
    """The tol of an eta claim reaches the farther end of the enclosure
    that the stated form gives."""

    def run(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        return load(out)

    def test_loose_tol_claim_covers_the_tight_eta(self, tmp_path):
        # the former claim of 10 * tol = 1e-8 did not cover this enclosure
        argv = ["solve", "--n", "2", "--m", "1", "--theta", "1/48"]
        loose = self.run(tmp_path, argv + ["--tol", "1e-9"])
        eta = loose["results"]["harmonic"]["eta"]
        tight = solve_eigenform(subject("harmonic", loose["inputs"]))
        assert eta["tol"] > 1e-8
        assert abs(eta["value"] - tight.eta) <= eta["tol"]

    def test_tol_is_two_figures_rounded_up(self, tmp_path):
        report = self.run(tmp_path, ["solve", "--n", "2", "--m", "1",
                                     "--theta", "1/48", "--tol", "1e-9"])
        harmonic = report["results"]["harmonic"]
        for key in ("eta", "eta_inverse"):
            tol = harmonic[key]["tol"]
            assert float(f"{tol:.1e}") == tol

    def test_critical_gd_run_states_plain_numbers(self, tmp_path):
        # (4,4) and (3,6) do not converge, and nothing shows a positive
        # eigenform there for the enclosure to rest on: no claim
        for n, m in ((4, 4), (3, 6)):
            report = self.run(tmp_path, ["gd", "solve", "--n", str(n),
                                         "--m", str(m)])
            assert report["results"]["converged"] is False
            harmonic = report["results"]["harmonic"]
            assert isinstance(harmonic["eta"], float)
            assert harmonic["eta_inverse"] == 1.0 / harmonic["eta"]

    def test_collapsed_gd_run_states_plain_numbers(self, tmp_path):
        # (5,5) ends on a zero weight: no enclosure, so no claim, and no
        # NaN or Infinity in the report
        out = tmp_path / "r.json"
        assert main(["gd", "solve", "--n", "5", "--m", "5",
                     "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-finite JSON number {token}")

        report = json.loads(out.read_text(encoding="utf-8"),
                            parse_constant=refuse)
        harmonic = report["results"]["harmonic"]
        assert isinstance(harmonic["eta"], float)
        assert harmonic["eta_inverse"] == 1.0 / harmonic["eta"]
        assert main(["validate", str(out)]) == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "3", "--m", "2", "--theta", "1/15"],
        ["resistance", "--n", "3", "--m", "2", "--theta", "1/15"],
        ["gd", "solve", "--n", "3", "--m", "1"]])
    def test_claim_covers_the_closed_form(self, argv, tmp_path):
        # eta = 2 on (3,2,1/15) and (2n+1)/(n+1) = 7/4 on gd (3,1)
        results = self.run(tmp_path, argv)["results"]
        eta = results["eta"] if "eta" in results else \
            results["harmonic"]["eta"]
        exact = 7 / 4 if argv[0] == "gd" else 2.0
        assert abs(eta["value"] - exact) <= eta["tol"] <= 1e-12


class TestParserReuse:
    """One parser serves every main call of a process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_parsed_state_between_calls(self, tmp_path):
        ctx = ["relations", "--n", "2", "--m", "1", "--theta", "1/12"]
        recorded = []
        for extra in (["--all"], []):
            out = tmp_path / f"r{len(recorded)}.json"
            assert main(ctx + extra + ["--out", str(out)]) == 0
            recorded.append(load(out)["inputs"]["require_g"])
        assert recorded == [False, True]

    def test_help_version_and_bad_flag_exit_codes(self, capsys):
        for _ in range(2):
            assert main(["--help"]) == 0
            assert main(["--version"]) == 0
            assert main(["solve", "--bogus"]) == 2
        assert "--bogus" in capsys.readouterr().err


class TestValidateCommand:
    """validate holds the inputs and tolerances to the report's command."""

    def validate_edited(self, path, capsys, edit):
        report = load(path)
        edit(report)
        path.write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        code = main(["validate", str(path)])
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("argv", [
        ["relations", "--n", "2", "--m", "1", "--theta", "1/6"],
        ["flows", "--n", "2", "--m", "1", "--theta", "1/6",
         "--values", "1,0,0"],
    ], ids=["relations", "flows"])
    def test_edited_solver_tol_fails(self, argv, tmp_path, capsys):
        # the rerun at the edited tol moves no result field
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        code, err = self.validate_edited(
            out, capsys, lambda r: r["tolerances"].update(solver_tol=1e-11))
        assert code == 4
        assert err == ["tolerances.solver_tol: 1e-11, recomputed 1e-12"]

    def test_recorded_flags_validate(self, tmp_path, capsys):
        runs = [
            ["relations", "--all", "--n", "2", "--m", "1", "--theta", "2/12",
             "--tol", "1e-11", "--max-iter", "5000", "--k-max", "3",
             "--cap", "7", "--no-symmetrize"],
            ["structure", "--n", "2", "--m", "1", "--theta", "1/6",
             "--level", "2", "--tol", "1e-3", "--max-iter", "7"],
            ["gd", "build", "--n", "2", "--m", "1", "--max-iter", "5"],
        ]
        for argv in runs:
            out = tmp_path / "r.json"
            assert main(argv + ["--out", str(out), "--format", "json"]) == 0
            assert main(["validate", str(out)]) == 0, argv

    def test_edited_inputs_fail(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["relations", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--out", str(out)]) == 0
        cases = [
            ("inputs.cap", lambda r: r["inputs"].update(cap=11)),
            ("inputs.max_iter",
             lambda r: r["inputs"].update(max_iter=99_999)),
            ("inputs.theta", lambda r: r["inputs"].update(theta="2/24")),
            ("inputs.cap", lambda r: r["command"].extend(["--cap", "11"])),
            ("command", lambda r: r["command"].__setitem__(0, "solve")),
            ("command", lambda r: r["command"].append("--bogus")),
            ("command", lambda r: r.update(command=["validate", "r.json"])),
            ("command", lambda r: set_flag(r, "--theta", "1/0")),
            ("command", lambda r: set_flag(r, "--theta", "abc")),
            ("inputs.theta", lambda r: set_flag(r, "--theta", "1/6")),
        ]
        base = out.read_text(encoding="utf-8")
        for field, edit in cases:
            out.write_text(base, encoding="utf-8")
            code, err = self.validate_edited(out, capsys, edit)
            assert code == 4, field
            assert any(line.startswith(field) for line in err), (field, err)

    def test_stated_inputs_are_compared_not_run(self, monkeypatch,
                                                tmp_path, capsys):
        # an edited level is named without building it
        def must_not_run(*args, **kwargs):
            raise AssertionError("a level was built")

        out = tmp_path / "s.json"
        assert main(["structure", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--level", "1", "--out", str(out)]) == 0
        monkeypatch.setattr(structure, "_next_level", must_not_run)
        code, err = self.validate_edited(
            out, capsys, lambda r: r["inputs"].update(level=12))
        assert code == 4
        assert len(err) == 1 and err[0].startswith("inputs.level: 12"), err

    @pytest.mark.parametrize("argv, edit, line", [
        (["solve", "--n", "2", "--m", "1", "--theta", "1/6"],
         lambda inputs: inputs.pop("max_iter"),
         "inputs.max_iter: missing, recomputed 100000"),
        (["solve", "--n", "2", "--m", "1", "--theta", "1/6"],
         lambda inputs: inputs.pop("symmetrized"),
         "inputs.symmetrized: missing, recomputed False"),
        (["relations", "--n", "2", "--m", "1", "--theta", "1/6"],
         lambda inputs: inputs.pop("k_max"),
         "inputs.k_max: missing, recomputed 8"),
        (["relations", "--n", "2", "--m", "1", "--theta", "1/6"],
         lambda inputs: inputs.update(foo=1),
         "inputs.foo: stated, absent from the rerun"),
    ], ids=["solve-max_iter", "solve-symmetrized", "relations-k_max",
            "relations-foo"])
    def test_inputs_are_exactly_the_command_s(self, argv, edit, line,
                                              tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        code, err = self.validate_edited(out, capsys,
                                         lambda r: edit(r["inputs"]))
        assert code == 4
        assert line in err

    @pytest.mark.parametrize("theta", [["--theta", "1/2"],
                                       ["--theta", "7/6"],
                                       ["--theta=-1/6"]],
                             ids=["1/2", "7/6", "-1/6"])
    @pytest.mark.filterwarnings("ignore:theta .* reduced")
    def test_reduced_theta_validates(self, theta, tmp_path, capsys):
        # the run records theta reduced into [0, 1/(m+n)), and so does
        # the rebuild from its command
        out = tmp_path / "h.json"
        assert main(["solve", "--n", "2", "--m", "1", *theta,
                     "--out", str(out)]) == 0
        assert load(out)["inputs"]["theta"] == "1/6"
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", list(STRUCTURE_RUNS))
    def test_structure_run_records_its_context(self, kind, tmp_path):
        # the command names the context flags the file stands for, so it
        # validates and reruns without the file
        struct = structure_file(tmp_path)
        out = tmp_path / "r.json"
        head, tail = STRUCTURE_RUNS[kind]
        assert main([*head, "--structure", str(struct), *tail,
                     "--out", str(out)]) == 0
        first = out.read_text(encoding="utf-8")
        command = json.loads(first)["command"]
        assert command == [*head, "--n", "2", "--m", "1", "--theta", "1/6",
                           "--no-symmetrize", *tail, "--out", str(out)]
        struct.unlink()
        assert main(["validate", str(out)]) == 0
        assert main(command) == 0
        assert strip_wall_time(out.read_text(encoding="utf-8")) == \
            strip_wall_time(first)

    @pytest.mark.parametrize("kind, edit, line", [
        *[(kind, lambda r: r["inputs"].update(theta="1/1000"),
           "inputs.theta: '1/1000', recomputed '1/6'")
          for kind in STRUCTURE_RUNS],
        ("solve", lambda r: r["results"]["structure"].update(symmetrized=True),
         "results.structure.symmetrized: True, recomputed False"),
    ], ids=["inputs-theta", "inputs-theta-resistance", "inputs-theta-flows",
            "inputs-theta-relations", "results-symmetrized"])
    def test_structure_file_context_is_checked_before_a_rerun(
            self, kind, edit, line, tmp_path, capsys, monkeypatch):
        # a --structure run records its context as flags, so an edited
        # input is named before anything is built, and an edited result
        # by the rerun of the recorded context
        head, tail = STRUCTURE_RUNS[kind]
        out = tmp_path / "r.json"
        assert main([*head, "--structure", str(structure_file(tmp_path)),
                     *tail, "--out", str(out)]) == 0
        counts = count_builds(monkeypatch)
        code, err = self.validate_edited(out, capsys, edit)
        assert code == 4
        assert err == [line]
        assert counts == (Counter() if line.startswith("inputs.")
                          else Counter(build_structure=1))

    def test_command_naming_a_structure_file_fails(self, tmp_path, capsys,
                                                   monkeypatch):
        # a report written when a command could read a file: validate
        # reads none, so the command does not parse as a run
        struct = structure_file(tmp_path)
        out = tmp_path / "h.json"
        assert main(["solve", "--structure", str(struct),
                     "--out", str(out)]) == 0
        counts = count_builds(monkeypatch)
        code, err = self.validate_edited(out, capsys, lambda r: r.update(
            command=["solve", "--structure", str(struct), "--out", str(out)]))
        assert code == 4
        assert len(err) == 1 and err[0].startswith("command: "), err
        assert not counts


@pytest.mark.filterwarnings("default:theta .* reduced")
class TestWarnings:
    def test_one_line_per_warning_on_every_run(self, tmp_path, capsys):
        # neither Python's file:line format nor once per process
        out = tmp_path / "s.json"
        argv = ["structure", "--n", "2", "--m", "1", "--theta", "5/12",
                "--out", str(out)]
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().err == (
                "warning: theta 5/12 reduced to canonical representative "
                "1/12 in [0, 1/3)\n")

    def test_a_warning_beside_an_error(self, capsys):
        # 1/3 reduces to 0, whose orbit meets the critical angles
        assert main(["solve", "--n", "2", "--m", "1", "--theta", "1/3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == ("warning: theta 1/3 reduced to canonical "
                          "representative 0 in [0, 1/3)")
        assert err[1].startswith("error: orbit returns to the critical")
        assert len(err) == 2


class TestOutput:
    def test_stdout_default(self, capsys):
        assert main(["structure", "--n", "2", "--m", "1",
                     "--theta", "1/6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["kind"] == "structure"

    def test_deterministic_apart_from_wall_time(self, tmp_path, monkeypatch):
        # identical argv twice, so the command echo matches byte for byte
        monkeypatch.chdir(tmp_path)
        argv = ["relations", "--n", "2", "--m", "1", "--theta", "1/6",
                "--out", "report.json"]
        assert main(argv) == 0
        first = strip_wall_time(
            (tmp_path / "report.json").read_text(encoding="utf-8"))
        assert main(argv) == 0
        second = strip_wall_time(
            (tmp_path / "report.json").read_text(encoding="utf-8"))
        assert first == second

    def test_structure_solve_round_trip(self, tmp_path):
        s_path = tmp_path / "s.json"
        assert main(["structure", "--n", "2", "--m", "1", "--theta",
                     "1/12", "--out", str(s_path)]) == 0
        direct = tmp_path / "direct.json"
        via = tmp_path / "via.json"
        assert main(["solve", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--out", str(direct)]) == 0
        assert main(["solve", "--structure", str(s_path),
                     "--out", str(via)]) == 0
        assert load(direct)["results"] == load(via)["results"]

    def test_structure_equals_form(self, tmp_path, capsys):
        struct = structure_file(tmp_path)
        capsys.readouterr()
        reports = []
        for flag in (["--structure", str(struct)], [f"--structure={struct}"]):
            assert main(["solve", *flag]) == 0
            reports.append(strip_wall_time(capsys.readouterr().out))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("sub", ["structure", "solve", "relations",
                                     "resistance", "flows"])
    def test_help_names_the_structure_file(self, sub, capsys):
        assert main([sub, "--help"]) == 0
        assert "--structure FILE" in capsys.readouterr().out

    def test_solve_eta_inverse_value(self, tmp_path):
        out = tmp_path / "h.json"
        main(["solve", "--n", "2", "--m", "1", "--theta", "1/12",
              "--out", str(out)])
        harmonic = load(out)["results"]["harmonic"]
        assert abs(harmonic["eta_inverse"]["value"] - 0.64735) < 1e-5

    def test_gd_solve_eta(self, tmp_path):
        out = tmp_path / "g.json"
        main(["gd", "solve", "--n", "2", "--m", "1", "--out", str(out)])
        assert abs(load(out)["results"]["harmonic"]["eta"]["value"]
                   - 5.0 / 3.0) < 1e-9

    @pytest.mark.parametrize("argv", [
        ["gd", "solve", "--n", "2", "--m", "1", "--tol", "10"],
        ["gd", "solve", "--n", "4", "--m", "4", "--max-iter", "0"]])
    def test_gd_solve_without_a_step_is_plain_json(self, argv, tmp_path):
        # no step taken: the last step is 0, not a nonstandard Infinity
        out = tmp_path / "g.json"
        assert main(argv + ["--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"nonstandard JSON constant {name}")

        report = json.loads(out.read_text(encoding="utf-8"),
                            parse_constant=reject)
        assert report["results"]["harmonic"]["iterations"] == 0
        assert report["results"]["diagnostics"]["last_step"] == 0.0
        assert main(["validate", str(out)]) == 0

    def test_resistance_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["resistance", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("vertex,")
        assert len(lines) == 4

    @pytest.mark.parametrize("ctx", [
        ["--n", "2", "--m", "1", "--theta", "1/6"],
        ["--n", "2", "--m", "1", "--theta", "1/12"],
        ["--n", "3", "--m", "1", "--theta", "1/9"],
        ["--n", "2", "--m", "2", "--theta", "3/16", "--symmetrize"],
        "structure report",
    ])
    def test_resistance_matches_dense_oracle(self, ctx, tmp_path):
        if ctx == "structure report":
            source = tmp_path / "s.json"
            # the 5-point boundary, which the default would symmetrize
            assert main(["structure", "--n", "2", "--m", "2", "--theta",
                         "3/16", "--no-symmetrize", "--out",
                         str(source)]) == 0
            ctx = ["--structure", str(source)]
        for level in range(4):
            out = tmp_path / f"r{level}.json"
            assert main(["resistance"] + ctx + ["--level", str(level),
                                                "--out", str(out)]) == 0
            report = load(out)
            structure = subject("resistance", report["inputs"])
            weights = _boundary_matrix(structure,
                                       solve_eigenform(structure).form)
            want = dense_level_resistance(structure, weights, level)
            got = np.array(report["results"]["matrix"])
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
            assert main(["validate", str(out)]) == 0

    def test_gd_rhos_csv(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert main(["gd", "rhos", "--n", "2", "--m", "1",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("relation,")
        assert lines[1].startswith("pq_pairs,")
        assert lines[2].startswith("side_pairs,")

    def test_relations_report_content(self, tmp_path):
        out = tmp_path / "rel.json"
        assert main(["relations", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--out", str(out)]) == 0
        results = load(out)["results"]
        assert results["verdict"]["verdict"] == "criteria_hold_exists_unique"
        assert len(results["preserved"]) == 3
        assert len(results["certificates"]) == 1
        assert results["certificates"][0]["certified"]
        assert results["candidates"] is not None

    def test_structure_level_flag(self, tmp_path):
        out = tmp_path / "s2.json"
        assert main(["structure", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--level", "2", "--out", str(out)]) == 0
        assert load(out)["results"]["levels"]["level"] == 2


class TestImportFootprint:
    """The package runs on the standard library and numpy alone."""

    @staticmethod
    def python(*argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import_loads_no_scipy_or_jsonschema(self):
        done = self.python("-c", "import sys, fractal_renorm; "
                                 "print('\\n'.join(sorted(sys.modules)))")
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.split()
        assert "fractal_renorm.cli" in loaded
        assert [m for m in loaded
                if m.split(".")[0] in ("scipy", "jsonschema")] == []

    def test_module_help_exits_zero(self):
        done = self.python("-m", "fractal_renorm", "--help")
        assert done.returncode == 0, done.stderr
        assert "validate" in done.stdout

