"""Report envelope rendering and validation, including tamper detection."""

import json

import pytest

from fractal_renorm import (
    claim, form_to_json, render_report, validate_report,
    validate_report_details, write_report,
)
from fractal_renorm.cli import main
from fractal_renorm.networks import ConductanceForm


def make_report(tmp_path, name, argv):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    assert code == 0
    return path


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


class TestRendering:
    def test_deterministic_and_sorted(self):
        a = render_report({"b": 1, "a": {"y": 2, "x": 3}})
        b = render_report({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_claim_shape(self):
        assert claim(1.5, 1e-9) == {"value": 1.5, "tol": 1e-9}

    def test_form_to_json(self):
        form = ConductanceForm.from_edges("ab", [("a", "b", 2.0)])
        payload = form_to_json(form)
        assert payload["vertices"] == ["a", "b"]
        assert payload["edges"] == [["a", "b", 2.0]]

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        report = {"schema": "fr-1", "values": [1, 2, 3]}
        write_report(str(path), report)
        assert load(path) == report


class TestEnvelope:
    def test_solve_report_envelope(self, tmp_path):
        path = make_report(tmp_path, "solve.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        assert report["schema"] == "fr-1"
        assert report["command"][0] == "solve"
        assert report["wall_time_s"] >= 0
        assert report["results"]["kind"] == "harmonic"
        assert report["inputs"]["n"] == 2
        assert "solver_tol" in report["tolerances"]

    def test_all_kinds_validate(self, tmp_path):
        runs = [
            ("structure", ["structure", "--n", "2", "--m", "1",
                           "--theta", "1/6"]),
            ("harmonic", ["solve", "--n", "2", "--m", "1",
                          "--theta", "1/6"]),
            ("relations", ["relations", "--n", "2", "--m", "1",
                           "--theta", "1/6"]),
            ("resistance", ["resistance", "--n", "2", "--m", "1",
                            "--theta", "1/6"]),
            ("flows", ["flows", "--n", "2", "--m", "1", "--theta", "1/6",
                       "--values", "1,0,0"]),
            ("gd_structure", ["gd", "build", "--n", "2", "--m", "1"]),
            ("gd_harmonic", ["gd", "solve", "--n", "2", "--m", "1"]),
            ("gd_rhos", ["gd", "rhos", "--n", "2", "--m", "1"]),
        ]
        for kind, argv in runs:
            path = make_report(tmp_path, kind + ".json", argv)
            report = load(path)
            assert report["results"]["kind"] == kind
            assert validate_report_details(str(path)) == []
            assert validate_report(str(path))


class TestTamperDetection:
    def test_harmonic_eta_tamper(self, tmp_path):
        path = make_report(tmp_path, "h.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        report["results"]["harmonic"]["eta"]["value"] *= 1.01
        dump(path, report)
        details = validate_report_details(str(path))
        assert any("residual" in line for line in details)
        assert not validate_report(str(path))

    def test_harmonic_form_tamper(self, tmp_path):
        path = make_report(tmp_path, "h2.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        report["results"]["harmonic"]["form"]["edges"][0][2] *= 1.05
        dump(path, report)
        assert not validate_report(str(path))

    def test_missing_tolerances(self, tmp_path):
        path = make_report(tmp_path, "h3.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        del report["tolerances"]
        dump(path, report)
        details = validate_report_details(str(path))
        assert any(line.startswith("schema:") for line in details)

    def test_nonfinite_tolerance(self, tmp_path):
        path = make_report(tmp_path, "h4.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        report["tolerances"]["solver_tol"] = float("inf")
        dump(path, report)
        details = validate_report_details(str(path))
        assert any("finite" in line for line in details)

    def test_unknown_kind(self, tmp_path):
        path = make_report(tmp_path, "h5.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        report["results"]["kind"] = "mystery"
        dump(path, report)
        details = validate_report_details(str(path))
        assert any("unknown result kind" in line for line in details)

    def test_extra_envelope_key_rejected(self, tmp_path):
        path = make_report(tmp_path, "h6.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        report["annotation"] = "hand-edited"
        dump(path, report)
        assert not validate_report(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        details = validate_report_details(str(path))
        assert any("not valid JSON" in line for line in details)

    def test_resistance_tampers(self, tmp_path):
        path = make_report(tmp_path, "r.json",
                           ["resistance", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        assert validate_report(str(path))
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["matrix"][0][1] = -0.5
        report["results"]["matrix"][1][0] = -0.5
        dump(path, report)
        assert any("nonnegative" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["matrix"][0][1] += 1.0
        dump(path, report)
        assert any("symmetric" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["matrix"][0][0] = 0.3
        dump(path, report)
        assert any("diagonal" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["matrix"].pop()
        dump(path, report)
        assert any("shape" in line
                   for line in validate_report_details(str(path)))

    def test_structure_tampers(self, tmp_path):
        path = make_report(tmp_path, "s.json",
                           ["structure", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["structure"]["glue_points"].append("7/8")
        dump(path, report)
        assert any("glue points" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["structure"]["cells"].popitem()
        dump(path, report)
        assert any("cells" in line
                   for line in validate_report_details(str(path)))

    def test_gd_structure_tampers(self, tmp_path):
        path = make_report(tmp_path, "g.json",
                           ["gd", "build", "--n", "2", "--m", "1"])
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["num_vertices"] = 17
        dump(path, report)
        assert any("2(m+n)^2" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["corner_maps"].pop()
        dump(path, report)
        assert any("corner map" in line
                   for line in validate_report_details(str(path)))

    def test_relations_tampers(self, tmp_path):
        path = make_report(tmp_path, "rel.json",
                           ["relations", "--n", "2", "--m", "1",
                            "--theta", "1/12"])
        assert validate_report(str(path))
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["verdict"]["verdict"] = "nonexistence_certified"
        report["results"]["verdict"]["witnesses"][0][
            "rho_over_relation"]["value"] = 99.0
        dump(path, report)
        details = validate_report_details(str(path))
        assert any("criterion_met" in line for line in details)
        assert any("does not follow" in line for line in details)

        report = json.loads(json.dumps(base))
        report["results"]["preserved"].pop(1)
        dump(path, report)
        assert any("fresh enumeration" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["certificates"][0]["certified"] = False
        dump(path, report)
        assert any("certificate 0" in line
                   for line in validate_report_details(str(path)))

    def test_flows_tampers(self, tmp_path):
        path = make_report(tmp_path, "f.json",
                           ["flows", "--n", "2", "--m", "1", "--theta",
                            "1/12", "--values", "1,0,0,0.5,0,0"])
        assert validate_report(str(path))
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["conservation_defect"]["value"] = 0.5
        dump(path, report)
        assert any("conservation_defect" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        first = next(iter(report["results"]["boundary_flow"]))
        report["results"]["boundary_flow"][first] += 1e-3
        dump(path, report)
        assert any("flows differ" in line
                   for line in validate_report_details(str(path)))

    def test_gd_harmonic_tamper_and_exploratory_skip(self, tmp_path):
        path = make_report(tmp_path, "gh.json",
                           ["gd", "solve", "--n", "2", "--m", "1"])
        report = load(path)
        report["results"]["harmonic"]["eta"]["value"] *= 1.01
        dump(path, report)
        assert not validate_report(str(path))

        # unconverged exploratory run carries no eigen equation to recheck
        path2 = make_report(tmp_path, "gh2.json",
                            ["gd", "solve", "--n", "4", "--m", "4"])
        report2 = load(path2)
        assert report2["results"]["converged"] is False
        assert validate_report(str(path2))
