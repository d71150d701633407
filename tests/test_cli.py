"""Workbench front end: exit codes, determinism, file round-trips."""

import json
import re

from fractal_renorm import cli
from fractal_renorm.cli import main, run


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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

    def test_resistance_refuses_level_beyond_memory(self, monkeypatch,
                                                    capsys):
        # level 8 of (2,1,1/12) has N = 29,526; refused before any level or
        # eigenform is built
        def must_not_run(*args, **kwargs):
            raise AssertionError("dense plan started")

        assert cli._physical_memory_bytes() > 0
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 8 << 30)
        monkeypatch.setattr(cli, "level_vertices", must_not_run)
        monkeypatch.setattr(cli, "solve_eigenform", must_not_run)
        code = main(["resistance", "--n", "2", "--m", "1", "--theta", "1/12",
                     "--level", "8"])
        assert code == 3
        err = capsys.readouterr().err
        assert "29526 vertices" in err and "physical memory" in err

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
