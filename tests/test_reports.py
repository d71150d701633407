"""Report envelope rendering and validation, including tamper detection."""

import hashlib
import json

import pytest

from fractal_renorm import (
    claim, form_to_json, render_report, validate_report_details,
)
from fractal_renorm.cli import main
from fractal_renorm.networks import ConductanceForm
from fractal_renorm.renorm import solve_eigenform
from fractal_renorm.reports import (_diff, gd_structure_results,
                                    structure_results, subject)


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
        path.write_text(render_report(report), encoding="utf-8")
        assert load(path) == report


def digest(results: dict) -> str:
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedResults:
    """Structure payloads pinned by the first 16 hex digits of the sha256
    of their sorted JSON, so a change in how levels and cells are glued
    cannot move a report's bytes unnoticed."""

    @pytest.mark.parametrize("inputs, expected", [
        *(({"n": 2, "m": 1, "theta": "1/12", "symmetrized": False,
            "level": level}, pin)
          for level, pin in enumerate(["dec9b28cd72a564d", "68d5e29e99c2035a",
                                       "adde229a49a565f8", "82eb9f7b65e53e27",
                                       "25409cf302942b61"])),
        ({"n": 2, "m": 2, "theta": "3/16", "symmetrized": True, "level": 3},
         "2c87f038c194bc79"),
        ({"n": 3, "m": 1, "theta": "1/9", "symmetrized": False, "level": 3},
         "1c328f1bc1ad86b9"),
        ({"n": 3, "m": 2, "theta": "1/15", "symmetrized": False, "level": 2},
         "524cd7b43cec78ea"),
    ])
    def test_structure_levels(self, inputs, expected):
        built = subject("structure", inputs)
        assert digest(structure_results(built, inputs, None)[0]) == expected

    @pytest.mark.parametrize("n, m, expected", [
        (2, 1, "2d2d2a303df291d7"), (3, 2, "0a0172c1e467094a"),
        (4, 3, "e1506d4b9e3aface"), (5, 5, "7116df19e795d662"),
        (2, 5, "59f586a6bf3247a9")])
    def test_gd_structure(self, n, m, expected):
        inputs = {"n": n, "m": m}
        built = subject("gd_structure", inputs)
        assert digest(gd_structure_results(built, inputs, None)[0]) \
            == expected


class TestCommandCheck:
    def test_edited_command_fails(self, tmp_path, capsys):
        # validate_report_details is the validation fractal-renorm
        # validate runs, the check of the report's own command included
        path = make_report(tmp_path, "h.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/12"])
        report = load(path)
        command = report["command"]
        command[command.index("--theta") + 1] = "1/4"
        command += ["--tol", "0.5"]
        dump(path, report)
        assert validate_report_details(str(path))
        assert [line.split(":")[0]
                for line in validate_report_details(str(path))] == [
            "inputs.theta", "tolerances.solver_tol"]
        assert main(["validate", str(path)]) == 4


class TestEnvelope:
    def test_solve_report_envelope(self, tmp_path):
        path = make_report(tmp_path, "solve.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        assert report["schema"] == "fr-2"
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
            assert not validate_report_details(str(path))

    def test_envelope_rule_tampers(self, tmp_path, capsys):
        # one edit per envelope rule: each fails with a schema line and
        # exit 4, never an exception
        path = make_report(tmp_path, "env.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        base = load(path)

        def edited(**changes):
            report = json.loads(json.dumps(base))
            for key, value in changes.items():
                if value is KeyError:
                    del report[key]
                else:
                    report[key] = value
            return report

        cases = [[base], "fr-1", None]
        cases += [edited(**{key: KeyError}) for key in base]
        cases += [
            edited(annotation="hand-edited"),
            edited(schema="fr-3"),
            edited(version=1),
            edited(command="solve"),
            edited(command=["solve", 2]),
            edited(wall_time_s=-1.0),
            edited(wall_time_s="0.5"),
            edited(wall_time_s=True),
            edited(inputs=[]),
            edited(tolerances={}),
            edited(tolerances=[1e-12]),
            edited(results=[]),
            edited(results={"harmonic": base["results"]["harmonic"]}),
            edited(results={**base["results"], "kind": 3}),
        ]
        assert len(base) == 7
        capsys.readouterr()
        for report in cases:
            dump(path, report)
            details = validate_report_details(str(path))
            assert details and any(line.startswith("schema: ")
                                   for line in details), report
            assert main(["validate", str(path)]) == 4
            err = capsys.readouterr().err
            assert "schema: " in err and "Traceback" not in err

    def test_schema_1_report_is_refused_by_its_tag(self, tmp_path):
        # a report of the earlier layout: Rayleigh estimate, agreement
        # tolerance and eta claims of tol 10*solver_tol
        path = make_report(tmp_path, "old.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/12"])
        report = load(path)
        harmonic = report["results"]["harmonic"]
        for key in ("eta", "eta_inverse"):
            harmonic[key]["tol"] = 1e-11
        harmonic["eta_rayleigh"] = dict(harmonic["eta"], tol=1e-9)
        report["tolerances"]["eta_agreement"] = 1e-9
        report["schema"] = "fr-1"
        dump(path, report)
        assert validate_report_details(str(path)) == [
            'schema: schema must be "fr-2"']
        assert main(["validate", str(path)]) == 4


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
        assert validate_report_details(str(path))

    def test_harmonic_converged_flag_does_not_skip_recheck(self, tmp_path):
        # only an exploratory gd run may skip the residual recheck
        path = make_report(tmp_path, "h1.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        report["results"]["converged"] = False
        report["results"]["harmonic"]["eta"]["value"] *= 1.01
        dump(path, report)
        assert any("residual" in line
                   for line in validate_report_details(str(path)))

    def test_harmonic_checks_rayleigh_and_iterations_tampers(self, tmp_path):
        path = make_report(tmp_path, "hc.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/12"])
        assert not validate_report_details(str(path))
        base = load(path)
        harmonic = base["results"]["harmonic"]
        iterations = harmonic["iterations"]
        # an eta just above the enclosure of the stated form, which is
        # the solved one
        upper = solve_eigenform(
            subject("harmonic", base["inputs"])).eta_bounds[1]
        edits = [("ok", ("checks", "ok"), False),
                 ("copy_consistency",
                  ("checks", "copy_consistency", "value"), 0.5),
                 ("eta.tol", ("harmonic", "eta", "tol"),
                  harmonic["eta"]["tol"] / 2),
                 ("not backed by the enclosure", ("harmonic", "eta", "value"),
                  upper * (1 + 1e-15)),
                 ("iteration", ("harmonic", "iterations"), iterations + 1)]
        for word, keys, value in edits:
            report = json.loads(json.dumps(base))
            node = report["results"]
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
            dump(path, report)
            details = validate_report_details(str(path))
            assert any(word in line for line in details), details
            assert main(["validate", str(path)]) == 4

    def test_harmonic_form_tamper(self, tmp_path):
        path = make_report(tmp_path, "h2.json",
                           ["solve", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        report = load(path)
        report["results"]["harmonic"]["form"]["edges"][0][2] *= 1.05
        dump(path, report)
        assert validate_report_details(str(path))

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
        assert details == ["tolerances.solver_tol: inf, recomputed 1e-12"]

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
        assert validate_report_details(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        details = validate_report_details(str(path))
        assert any("not valid JSON" in line for line in details)

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema": "fr-2 \u00e9"}'.encode("latin-1"))
        details = validate_report_details(str(path))
        assert len(details) == 1 and "not valid JSON" in details[0]
        assert validate_report_details(str(path))
        assert main(["validate", str(path)]) == 4
        assert "not valid JSON" in capsys.readouterr().err

    def test_resistance_tampers(self, tmp_path):
        path = make_report(tmp_path, "r.json",
                           ["resistance", "--n", "2", "--m", "1",
                            "--theta", "1/12", "--level", "2"])
        assert not validate_report_details(str(path))
        base = load(path)

        # one pair tripled and eta edited, also with the stated tol raised
        for tol in (None, 100.0):
            report = json.loads(json.dumps(base))
            report["results"]["matrix"][0][1] *= 3.0
            report["results"]["matrix"][1][0] *= 3.0
            report["results"]["eta"]["value"] = 9.0
            if tol is not None:
                report["tolerances"]["resistance_tol"] = tol
            dump(path, report)
            details = validate_report_details(str(path))
            assert any("results.eta.value: 9.0" in line for line in details)
            assert any("results.matrix[0][1]" in line for line in details)
            assert main(["validate", str(path)]) == 4

        report = json.loads(json.dumps(base))
        report["results"]["matrix"][0][1] *= 3.0
        report["results"]["matrix"][1][0] *= 3.0
        dump(path, report)
        assert any("results.matrix[0][1]" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["inputs"]["level"] = 3
        dump(path, report)
        assert any("level" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["matrix"][0][1] = -0.5
        report["results"]["matrix"][1][0] = -0.5
        dump(path, report)
        details = validate_report_details(str(path))
        for entry in ("[0][1]", "[1][0]"):
            assert any(line.startswith(f"results.matrix{entry}: -0.5, "
                                       "recomputed ") for line in details)

        # an asymmetric edit is named by the one entry it moved
        report = json.loads(json.dumps(base))
        report["results"]["matrix"][0][1] += 1.0
        dump(path, report)
        assert [line.split(":")[0]
                for line in validate_report_details(str(path))] == \
            ["results.matrix[0][1]"]

        report = json.loads(json.dumps(base))
        report["results"]["matrix"][0][0] = 0.3
        dump(path, report)
        assert any(line.startswith("results.matrix[0][0]: 0.3, recomputed ")
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["matrix"].pop()
        dump(path, report)
        assert any("results.matrix: a list of 5" in line
                   for line in validate_report_details(str(path)))

    def test_unconverged_gd_harmonic_tampers(self, tmp_path):
        # (4,4) is critical: the run stops unconverged at its budget
        path = make_report(tmp_path, "gd.json",
                           ["gd", "solve", "--n", "4", "--m", "4"])
        base = load(path)
        assert base["results"]["converged"] is False
        assert not validate_report_details(str(path))

        report = json.loads(json.dumps(base))
        report["results"]["harmonic"]["eta"] = 7.0
        report["results"]["harmonic"]["form"]["edges"][0][2] = 99.0
        dump(path, report)
        assert any("results.harmonic.eta: 7.0" in line
                   for line in validate_report_details(str(path)))
        assert main(["validate", str(path)]) == 4

        last = len(base["results"]["harmonic"]["form"]["edges"]) - 1
        for edit, word in (("eta", "results.harmonic.eta"),
                           ("form", f"results.harmonic.form.edges[{last}][2]"),
                           ("tail", "results.diagnostics.mass_ratio_tail[0]")):
            report = json.loads(json.dumps(base))
            results = report["results"]
            if edit == "eta":
                results["harmonic"]["eta"] += 1e-6
            elif edit == "form":
                results["harmonic"]["form"]["edges"][-1][2] += 1e-6
            else:
                results["diagnostics"]["mass_ratio_tail"][0] += 1e-6
            dump(path, report)
            assert any(word in line
                       for line in validate_report_details(str(path)))

        # a converged run marked unconverged is rerun, not skipped
        path = make_report(tmp_path, "gd21.json",
                           ["gd", "solve", "--n", "2", "--m", "1"])
        report = load(path)
        report["results"]["converged"] = False
        report["results"]["harmonic"]["eta"]["value"] = 7.0
        dump(path, report)
        assert any("results.converged: False, recomputed True" in line
                   for line in validate_report_details(str(path)))

    def test_structure_tampers(self, tmp_path):
        path = make_report(tmp_path, "s.json",
                           ["structure", "--n", "2", "--m", "1",
                            "--theta", "1/6"])
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["structure"]["glue_points"].append("7/8")
        dump(path, report)
        assert any(line.startswith("results.structure.glue_points: ")
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["structure"]["cells"].popitem()
        dump(path, report)
        assert any(line.startswith("results.structure.cells.")
                   for line in validate_report_details(str(path)))

        path = make_report(tmp_path, "s2.json",
                           ["structure", "--n", "2", "--m", "1",
                            "--theta", "1/12", "--level", "2"])
        assert not validate_report_details(str(path))
        base = load(path)
        for edit in ("num_vertices", "merges"):
            report = json.loads(json.dumps(base))
            if edit == "num_vertices":
                report["results"]["levels"]["num_vertices"] = 999
            else:
                report["results"]["levels"]["merges"] = []
            dump(path, report)
            assert any(f"results.levels.{edit}" in line
                       for line in validate_report_details(str(path)))
            assert main(["validate", str(path)]) == 4

    def test_gd_structure_tampers(self, tmp_path):
        path = make_report(tmp_path, "g.json",
                           ["gd", "build", "--n", "2", "--m", "1"])
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["num_vertices"] = 17
        dump(path, report)
        assert any(line.startswith("results.num_vertices: 17, ")
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["corner_maps"].pop()
        dump(path, report)
        assert any(line.startswith("results.corner_maps: ")
                   for line in validate_report_details(str(path)))

    def test_relations_tampers(self, tmp_path):
        path = make_report(tmp_path, "rel.json",
                           ["relations", "--n", "2", "--m", "1",
                            "--theta", "1/12"])
        assert not validate_report_details(str(path))
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["verdict"]["verdict"] = "nonexistence_certified"
        report["results"]["verdict"]["witnesses"][0][
            "rho_over_relation"]["value"] = 99.0
        dump(path, report)
        details = validate_report_details(str(path))
        assert any(line.startswith("results.verdict.verdict: "
                                   "'nonexistence_certified', recomputed ")
                   for line in details)
        assert any(line.startswith("results.verdict.witnesses[0]"
                                   ".rho_over_relation.value: 99.0")
                   for line in details)

        # an edited rho value is caught by rerunning the bracket, also when
        # the edit keeps criterion_met and the verdict consistent and when
        # the stated tol is raised
        for tol in (None, 100.0):
            report = json.loads(json.dumps(base))
            witness = report["results"]["verdict"]["witnesses"][0]
            assert witness["rho_over_relation"]["value"] == pytest.approx(0.5)
            witness["rho_over_relation"]["value"] = 0.01
            if tol is not None:
                witness["rho_over_relation"]["tol"] = tol
            dump(path, report)
            assert any("results.verdict.witnesses[0].rho_over_relation"
                       ".value: 0.01" in line
                       for line in validate_report_details(str(path)))
            assert main(["validate", str(path)]) == 4

        report = json.loads(json.dumps(base))
        report["results"]["preserved"].pop(1)
        dump(path, report)
        assert any("results.preserved: a list of" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["certificates"][0]["certified"] = False
        dump(path, report)
        assert any(line.startswith("results.certificates[0].certified: "
                                   "False, recomputed True")
                   for line in validate_report_details(str(path)))

        # trajectories are rerun: halving every value keeps certified, k
        # and monotone consistent; one edited entry, a stated tol raised
        # to 100, a changed margin and a dropped certificate fail too
        def halve(cert):
            for t in cert["trajectory"]:
                t["value"] /= 2

        def nudge(cert):
            cert["trajectory"][-1]["value"] *= 1 + 1e-6
            cert["trajectory"][-1]["tol"] = 100.0

        def margin(cert):
            cert["margin"] = 0.4

        for edit, word in ((halve, "trajectory[0].value"),
                           (nudge, "trajectory[7].value"),
                           (margin, "margin: 0.4")):
            report = json.loads(json.dumps(base))
            edit(report["results"]["certificates"][0])
            dump(path, report)
            assert any(f"results.certificates[0].{word}" in line
                       for line in validate_report_details(str(path)))
            assert main(["validate", str(path)]) == 4
        report = json.loads(json.dumps(base))
        report["results"]["certificates"].pop()
        dump(path, report)
        assert main(["validate", str(path)]) == 4
        report = json.loads(json.dumps(base))
        report["results"]["solver_error"] = "did not converge"
        dump(path, report)
        assert any("solver_error" in line
                   for line in validate_report_details(str(path)))

        # a report whose solve stopped early has no certificates to rerun
        path = make_report(tmp_path, "rel_unsolved.json",
                           ["relations", "--n", "2", "--m", "1",
                            "--theta", "1/12", "--max-iter", "2"])
        assert "solver_error" in load(path)["results"]
        assert validate_report_details(str(path)) == []

    def test_flows_tampers(self, tmp_path):
        path = make_report(tmp_path, "f.json",
                           ["flows", "--n", "2", "--m", "1", "--theta",
                            "1/12", "--values", "1,0,0,0.5,0,0"])
        assert not validate_report_details(str(path))
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
        assert any(f"results.boundary_flow.{first}" in line
                   for line in validate_report_details(str(path)))

    def test_gd_harmonic_tamper_and_exploratory_skip(self, tmp_path):
        path = make_report(tmp_path, "gh.json",
                           ["gd", "solve", "--n", "2", "--m", "1"])
        report = load(path)
        report["results"]["harmonic"]["eta"]["value"] *= 1.01
        dump(path, report)
        assert validate_report_details(str(path))

        # an unconverged exploratory run has no eigen equation; its rerun
        # for the stated iterations matches
        path2 = make_report(tmp_path, "gh2.json",
                            ["gd", "solve", "--n", "4", "--m", "4"])
        report2 = load(path2)
        assert report2["results"]["converged"] is False
        assert not validate_report_details(str(path2))

    def test_gd_rhos_tampers(self, tmp_path):
        path = make_report(tmp_path, "gr.json",
                           ["gd", "rhos", "--n", "2", "--m", "1"])
        assert not validate_report_details(str(path))
        base = load(path)

        report = json.loads(json.dumps(base))
        report["results"]["pq_pairs"]["rho_quotient"]["value"] = 42.0
        dump(path, report)
        assert any("results.pq_pairs.rho_quotient.value: 42.0" in line
                   for line in validate_report_details(str(path)))

        # a widened stated tol does not excuse the edited value
        report["results"]["pq_pairs"]["rho_quotient"]["tol"] = 100.0
        dump(path, report)
        assert any("results.pq_pairs.rho_quotient.value: 42.0" in line
                   for line in validate_report_details(str(path)))

        # an edited relation-side rho is caught by rerunning the bracket
        for tol in (None, 100.0):
            report = json.loads(json.dumps(base))
            entry = report["results"]["side_pairs"]
            entry["rho_over_relation"]["value"] = 0.01
            if tol is not None:
                entry["rho_over_relation"]["tol"] = tol
            dump(path, report)
            assert any("results.side_pairs.rho_over_relation.value: 0.01"
                       in line for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["side_pairs"]["relation"] = \
            base["results"]["pq_pairs"]["relation"]
        dump(path, report)
        assert any("results.side_pairs.relation.blocks" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["pq_pairs"]["basis_dim"] = 3
        dump(path, report)
        assert any("basis_dim" in line
                   for line in validate_report_details(str(path)))

        report = json.loads(json.dumps(base))
        report["results"]["side_pairs"]["rho_under_relation"]["value"] = 5.0
        dump(path, report)
        assert any(line.startswith("results.side_pairs.rho_under_relation"
                                   ".value: 5.0, recomputed ")
                   for line in validate_report_details(str(path)))
        # with the tol raised to cover the edit, the tol is named
        report["results"]["side_pairs"]["rho_under_relation"]["tol"] = 100.0
        dump(path, report)
        assert any(line.startswith("results.side_pairs.rho_under_relation"
                                   ".tol: 100.0, recomputed ")
                   for line in validate_report_details(str(path)))


SWEEP_RUNS = [
    ("structure", ["structure", "--n", "2", "--m", "1", "--theta", "1/6"]),
    ("harmonic", ["solve", "--n", "2", "--m", "1", "--theta", "1/6"]),
    ("relations", ["relations", "--n", "2", "--m", "1", "--theta", "1/6"]),
    ("resistance", ["resistance", "--n", "2", "--m", "1",
                    "--theta", "1/6"]),
    ("flows", ["flows", "--n", "2", "--m", "1", "--theta", "1/6",
               "--values", "1,0,0"]),
    ("gd_structure", ["gd", "build", "--n", "2", "--m", "1"]),
    ("gd_harmonic", ["gd", "solve", "--n", "2", "--m", "1"]),
    ("gd_rhos", ["gd", "rhos", "--n", "2", "--m", "1"]),
]


def leaf_paths(node, keys=()):
    """(keys, dotted path) of every leaf below node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, keys + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, keys + (i,))
    else:
        yield keys, "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                            for k in keys)[1:]


def edit_leaf(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + 1e-6) + 1e-6
    if isinstance(value, str):
        return value + "x"
    assert value is None
    return 0


def set_path(report, keys, value):
    node = report
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


class TestLeafEdits:
    @pytest.mark.parametrize("kind,argv", SWEEP_RUNS,
                             ids=[kind for kind, _ in SWEEP_RUNS])
    def test_every_leaf_edit_fails(self, kind, argv, tmp_path, capsys):
        # every leaf of results and tolerances, edited one at a time,
        # makes validate exit 4 with a line naming the edited path
        path = make_report(tmp_path, f"{kind}.json", argv)
        base = load(path)
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        edits = [(keys, dotted) for block in ("results", "tolerances")
                 for keys, dotted in leaf_paths(base[block], (block,))]
        assert len(edits) > 10
        for keys, dotted in edits:
            report = json.loads(json.dumps(base))
            node = report
            for key in keys:
                node = node[key]
            value = edit_leaf(node)
            assert value != node, dotted
            set_path(report, keys, value)
            dump(path, report)
            code = main(["validate", str(path)])
            err = capsys.readouterr().err
            assert "Traceback" not in err, dotted
            assert code == 4, dotted
            if dotted == "results.kind":
                assert "unknown result kind" in err
            else:
                # an edited solver_tol is named against the command's --tol
                assert any(line.startswith(f"{dotted}: ")
                           for line in err.splitlines()), (dotted, err)

    @pytest.mark.parametrize("kind,argv", SWEEP_RUNS,
                             ids=[kind for kind, _ in SWEEP_RUNS])
    def test_small_tolerance_edits_fail(self, kind, argv, tmp_path, capsys):
        # tolerances are what a run is given: an edit inside the float
        # agreement of results fails too
        path = make_report(tmp_path, f"{kind}.json", argv)
        base = load(path)
        for key, value in base["tolerances"].items():
            report = json.loads(json.dumps(base))
            report["tolerances"][key] = value * 2 if value else 1e-10
            dump(path, report)
            capsys.readouterr()
            assert main(["validate", str(path)]) == 4, key
            err = capsys.readouterr().err.splitlines()
            assert any(line.startswith(f"tolerances.{key}: ")
                       for line in err), (key, err)

    def test_edits_of_unchecked_fields_fail(self, tmp_path, capsys):
        # fields that earlier per-kind checks did not compare
        cases = [
            (["solve", "--n", "2", "--m", "1", "--theta", "1/12"], [
                (("harmonic", "eta_inverse", "value"), 42.0,
                 "results.harmonic.eta_inverse.value"),
                (("harmonic", "eta_inverse"), 42,
                 "results.harmonic.eta_inverse"),
                (("harmonic", "normalization"), "bogus",
                 "results.harmonic.normalization"),
                (("harmonic", "residual", "value"), 1e-3,
                 "results.harmonic.residual.value"),
            ]),
            (["gd", "solve", "--n", "2", "--m", "1"], [
                (("existence",), "none", "results.existence"),
                (("diagnostics", "last_step"), 99,
                 "results.diagnostics.last_step"),
                (("diagnostics", "collapsed_pairs"), [["p0", "q0"]],
                 "results.diagnostics.collapsed_pairs"),
                (("diagnostics", "mass_ratio_tail"), [1, 2, 3],
                 "results.diagnostics.mass_ratio_tail"),
            ]),
            (["gd", "rhos", "--n", "2", "--m", "1"], [
                (("pq_pairs", "evaluations"), 999,
                 "results.pq_pairs.evaluations"),
            ]),
            (["relations", "--n", "2", "--m", "1", "--theta", "1/12"], [
                (("certificates",), [], "results.certificates"),
            ]),
        ]
        path = tmp_path / "report.json"
        for argv, edits in cases:
            base = load(make_report(tmp_path, "report.json", argv))
            for keys, value, dotted in edits:
                report = json.loads(json.dumps(base))
                set_path(report["results"], keys, value)
                if argv[0] == "relations":
                    report["results"]["solver_error"] = "did not converge"
                dump(path, report)
                capsys.readouterr()
                assert main(["validate", str(path)]) == 4, dotted
                err = capsys.readouterr().err
                assert "Traceback" not in err
                assert any(line.startswith(f"{dotted}: ")
                           for line in err.splitlines()), (dotted, err)
                if argv[0] == "relations":
                    assert "results.solver_error: " in err

    def test_diff_rules(self):
        def lines(got, want):
            errors = []
            _diff("r", got, want, errors)
            return errors

        fresh = {"c": claim(0.5, 1e-9), "x": 2.0, "n": 3, "b": True,
                 "s": "a", "z": None, "l": [1.0, 2.0]}
        assert lines(json.loads(json.dumps(fresh)), fresh) == []
        ok = {**fresh, "c": claim(0.5 + 5e-10, 1e-9), "x": 2.0 + 1e-9}
        assert lines(ok, fresh) == []
        # a widened stated tol neither passes itself nor excuses the value
        assert lines({**fresh, "c": claim(0.6, 1.0)}, fresh) == [
            "r.c.tol: 1.0, recomputed 1e-09",
            "r.c.value: 0.6, recomputed 0.5"]
        # a claim's value is held to its recomputed tol, not to the float
        # agreement, and its tol must match exactly
        assert lines(claim(1e6 + 1e-4, 1e-9), claim(1e6, 1e-9)) == [
            "r.value: 1000000.0001, recomputed 1000000.0"]
        assert lines(claim(0.5004, 1e-3), claim(0.5, 1e-3)) == []
        wider = 1e-9 * (1 + 1e-12)
        assert lines(claim(0.5, wider), claim(0.5, 1e-9)) == [
            f"r.tol: {wider!r}, recomputed 1e-09"]
        assert lines({**fresh, "x": 2.0 + 1e-8}, fresh) == [
            "r.x: 2.00000001, recomputed 2.0"]
        # same value, other JSON type
        assert lines({**fresh, "b": 1}, fresh) == ["r.b: 1, recomputed True"]
        assert lines({**fresh, "n": 3.0}, fresh) == ["r.n: 3.0, recomputed 3"]
        assert lines({**fresh, "z": 0}, fresh) == ["r.z: 0, recomputed None"]
        assert lines({**fresh, "x": "2.0"}, fresh) == [
            "r.x: '2.0', recomputed 2.0"]
        assert lines({**fresh, "l": [1.0]}, fresh) == [
            "r.l: a list of 1, recomputed a list of 2"]
        extra = {**fresh, "e": 1}
        del extra["s"]
        assert lines(extra, fresh) == ["r.e: stated, absent from the rerun",
                                       "r.s: missing, recomputed 'a'"]

    def test_recorded_flags_are_rerun(self, tmp_path):
        ctx = ["relations", "--n", "2", "--m", "1", "--theta", "1/12"]
        path = make_report(tmp_path, "k3.json", ctx + ["--k-max", "3"])
        report = load(path)
        assert report["inputs"]["k_max"] == 3
        assert [len(c["trajectory"])
                for c in report["results"]["certificates"]] == [3]
        assert validate_report_details(str(path)) == []

        # the defaults are recorded too, and a report without them fails
        path = make_report(tmp_path, "default.json", ctx)
        report = load(path)
        assert (report["inputs"]["max_iter"],
                report["inputs"]["k_max"]) == (100_000, 8)
        del report["inputs"]["max_iter"], report["inputs"]["k_max"]
        dump(path, report)
        errors = validate_report_details(str(path))
        for key, value in (("max_iter", 100_000), ("k_max", 8)):
            assert f"inputs.{key}: missing, recomputed {value}" in errors
