"""Workbench front end: exit codes, determinism, file round-trips."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracles import dense_level_resistance
from fractal_renorm import reports
from fractal_renorm.cli import main, run
from fractal_renorm.renorm import _boundary_matrix, solve_eigenform
from fractal_renorm.reports import _structure_from_inputs


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def set_flag(report: dict, flag: str, value: str) -> None:
    """Set the value that follows flag in the report's command."""
    command = report["command"]
    command[command.index(flag) + 1] = value


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

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_nonconvergence(self, capsys):
        # the equal-weight start is exact for 1/6, so use 1/12 here
        code = main(["solve", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--max-iter", "2"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_enumeration_cap(self, capsys):
        code = main(["relations", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--cap", "3"])
        assert code == 3
        assert "cap" in capsys.readouterr().err

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

    def test_flows_value_count(self, capsys):
        code = main(["flows", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--values", "1,0"])
        assert code == 2

    def test_version_flag(self):
        assert main(["--version"]) == 0

    def test_csv_unavailable_for_solve(self, capsys):
        code = main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--format", "csv"])
        assert code == 2

    def test_gd_critical_pair_still_succeeds(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["gd", "solve", "--n", "4", "--m", "4",
                     "--out", str(out)]) == 0
        assert load(out)["results"]["existence"] == "critical_undetermined"


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
        assert err == ["tolerances.solver_tol: 1e-11, the command gives "
                       "1e-12"]

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

    def test_context_from_a_structure_file_is_not_compared(self, tmp_path,
                                                          capsys):
        struct = tmp_path / "s.json"
        out = tmp_path / "h.json"
        assert main(["structure", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--out", str(struct)]) == 0
        assert main(["solve", "--structure", str(struct), "--n", "3",
                     "--out", str(out)]) == 0
        assert load(out)["inputs"]["n"] == 2
        assert main(["validate", str(out)]) == 0


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
            structure = _structure_from_inputs(report["inputs"])
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

    def test_run_alias(self):
        assert run is main


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

