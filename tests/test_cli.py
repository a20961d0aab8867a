import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussito.cli import _DEFAULT_TOLERANCES, _MUTATIONS, CHECK_IDS, ENV_OUT_DIR, SCENARIO_SCHEMA, main
from gaussito.heatkernel import TEST_FUNCTION_IDS
from gaussito.gaussproc import UnsupportedModelError

SMOKE = Path(__file__).resolve().parents[1] / "src" / "gaussito" / "scenarios" / "smoke.json"


def write_scenario(tmp_path, name="scen.json", **overrides):
    scenario = {
        "schema_version": 1,
        "name": "test",
        "model": {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25]], "horizon": 1.0}},
        "test_functions": ["x2"],
        "cm_elements": [[[1.0, 1.0]]],
        "checks": ["ito_stransform"],
    }
    scenario.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return path


def run_cases(tmp_path, tag, **overrides):
    """The exit code and the report's cases by id of ``write_scenario(**overrides)``."""
    code = main(["run", str(write_scenario(tmp_path, f"{tag}.json", **overrides)), "--out", str(tmp_path / tag)])
    return code, {c["case_id"]: c for c in json.loads((tmp_path / tag / "report.json").read_text())["cases"]}


def count_engine_runs(monkeypatch) -> list:
    """A list that gains one entry per ``integrate_ys`` call from now on."""
    import gaussito.stieltjes

    calls = []
    original = gaussito.stieltjes.integrate_ys

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # rebind it wherever a gaussito module holds it
    for name, module in list(sys.modules.items()):
        if name.startswith("gaussito") and getattr(module, "integrate_ys", None) is original:
            monkeypatch.setattr(module, "integrate_ys", counting)
    return calls


class TestCommands:
    def test_no_args_usage(self, capsys):
        assert main([]) == 2

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_list_catalog(self, capsys):
        assert main(["list-catalog"]) == 0
        out = capsys.readouterr().out
        assert "evanescent" in out and "jump_bm" in out
        assert "weak" in out  # the fading model advertises its weak-limit behavior


class TestRun:
    def test_smoke_scenario_passes(self, tmp_path, capsys):
        assert main(["run", str(SMOKE), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"] == {"total": 1, "passed": 1, "failed": 0}
        case = report["cases"][0]
        assert abs(case["residual"]) < 1e-10

    def test_byte_identical_reports(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path,
            checks=["ito_stransform", "s_transform_mc", "hermite_p2"],
            mc={"seed": 7, "n_paths": 2000},
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(scen), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "terms.csv").read_bytes() == (tmp_path / "b" / "terms.csv").read_bytes()
        # every tolerance set to its default decides every case as no tolerances block does
        defaults = write_scenario(
            tmp_path,
            "defaults.json",
            checks=["ito_stransform", "s_transform_mc", "hermite_p2"],
            mc={"seed": 7, "n_paths": 2000},
            tolerances=dict(_DEFAULT_TOLERANCES),
        )
        assert main(["run", str(defaults), "--out", str(tmp_path / "c")]) == 0
        c = json.loads((tmp_path / "c" / "report.json").read_text())
        assert c["cases"] == json.loads(a)["cases"]

    def test_seed_changes_mc_results(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, checks=["s_transform_mc"], mc={"seed": 7, "n_paths": 2000})
        main(["run", str(scen), "--out", str(tmp_path / "a")])
        main(["run", str(scen), "--out", str(tmp_path / "b"), "--seed", "8"])
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["seed"] != b["seed"]
        assert a["cases"][0]["mc"]["estimate"] != b["cases"][0]["mc"]["estimate"]

    def test_report_round_trip(self, tmp_path, capsys):
        scen = write_scenario(tmp_path)
        main(["run", str(scen), "--out", str(tmp_path / "out")])
        path = tmp_path / "out" / "report.json"
        loaded = json.loads(path.read_text())
        rewritten = json.dumps(loaded, sort_keys=True, indent=2) + "\n"
        assert rewritten == path.read_text()

    def test_mutation_harness_fails(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, mutations={"drop_jump_sum": True})
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["failed"] >= 1

    def test_dv_integral_mutation_fails_smoke(self, tmp_path, capsys):
        smoke = json.loads(SMOKE.read_text())
        scen = write_scenario(tmp_path, **{**smoke, "mutations": {"drop_dv_integral": True}})
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (case,) = report["cases"]
        assert case["case_id"].startswith("ito:") and not case["pass"]
        # the dropped term is the whole residual: (1/2) int psi_{F''} dV = 1
        assert case["residual"] == pytest.approx(1.0, abs=1e-10)

    def test_large_horizon_smoothing_is_exact(self, tmp_path, capsys):
        # psi(sin, 300, x) = e^{-150} sin(x): a fixed quadrature rule got it wrong by O(1)
        scen = write_scenario(
            tmp_path,
            model={"id": "brownian", "params": {"horizon": 300.0}},
            test_functions=["sin", "x3"],
            cm_elements=[[[1.0, 300.0]], [[0.5, 150.0], [0.3, 300.0]]],
            checks=["ito_stransform", "ito_rcll"],
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"] == {"total": 8, "passed": 8, "failed": 0}

    JUMP_BM = {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25]], "horizon": 1.0}}

    @pytest.mark.parametrize(
        ("model", "bound", "checks"),
        [
            (JUMP_BM, "0.2", ["ito_stransform"]),
            # a downward jump: sup V = V(s0-) = 0.8, above V(T) = 0.4
            ({"id": "coupled_jump_bm", "params": {"c": -0.5, "s0": 0.8}}, "0.3125", ["ito_stransform"]),
            # a scenario with no deterministic check is refused at plan time too
            (JUMP_BM, "0.2", ["s_transform_mc"]),
            (JUMP_BM, "0.2", ["martingale_ito"]),
        ],
        ids=["jump_bm", "coupled_downward_jump", "jump_bm_s_transform_mc_only", "jump_bm_martingale_ito_only"],
    )
    def test_growth_violation_exit_2(self, tmp_path, capsys, model, bound, checks):
        scen = write_scenario(tmp_path, model=model, test_functions=[{"id": "exp", "a": 0.5}], checks=checks)
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "growth" in err
        assert f"1/(4*lambda)={bound}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("horizon", "tf", "lam"),
        [(2000.0, "exp", "lambda=2000"), (1e210, "x3", "lambda=1e+210")],
        ids=["exp", "x3"],
    )
    def test_growth_certificate_overflow_exit_2(self, tmp_path, capsys, horizon, tf, lam):
        scen = write_scenario(
            tmp_path, model={"id": "brownian", "params": {"horizon": horizon}}, test_functions=[tf], cm_elements="auto"
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"test function {tf!r} overflows at {lam}" in err

    def test_non_finite_values_write_strict_json(self, tmp_path, capsys):
        # the growth check admits x2 at this horizon, but every term overflows
        scen = write_scenario(tmp_path, model={"id": "brownian", "params": {"horizon": 1e210}}, cm_elements="auto")
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=reject)
        assert report["summary"]["passed"] == 0
        assert all(case["residual"] is None and not case["pass"] for case in report["cases"])
        out = capsys.readouterr().out
        assert "[FAIL] ito:brownian:x2:h0 residual=nan" in out

    @pytest.mark.parametrize(
        "token, overrides",
        [
            ("1e999", {"tolerances": {"polynomial": "@"}, "mutations": {"drop_dv_integral": True}}),
            ("Infinity", {"tolerances": {"polynomial": "@"}, "mutations": {"drop_dv_integral": True}}),
            ("Infinity", {"model": {"id": "brownian", "params": {"horizon": "@"}}}),
            ("1" + "0" * 400, {"tolerances": {"polynomial": "@"}, "mutations": {"drop_dv_integral": True}}),
            ("NaN", {"cm_elements": [[["@", 1.0]]]}),
            ("NaN", {"model": {"id": "jump_bm", "params": {"jumps": [[0.5, "@"]]}}}),
            ("-Infinity", {"test_functions": [{"poly": [0.0, "@", 1.0]}]}),
        ],
        ids=["tolerance_1e999", "tolerance_inf", "horizon_inf", "tolerance_big_int", "cm_nan", "jump_variance_nan", "poly_neg_inf"],
    )
    def test_non_finite_scenario_number_exit_2(self, tmp_path, capsys, token, overrides):
        # json and the schema both take these for numbers; each must stop the run before planning
        scen = write_scenario(tmp_path, **overrides)
        scen.write_text(scen.read_text().replace('"@"', token))
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, seed", [("full_jump_bm", "-3000"), ("smoke", "-1")])
    def test_negative_seed_exit_2(self, tmp_path, capsys, scenario, seed):
        # the schema's mc.seed >= 0 rule holds for an overriding --seed too
        assert main(["run", scenario, "--seed", seed, "--out", str(tmp_path / "out")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        assert main(["run", "smoke", "--jobs", jobs, "--out", str(tmp_path / "out")]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_schema_violation_exit_2_with_paths(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "name": "x", "model": {"id": "brownian"}, "oops": 1}))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "$" in err and "oops" in err
        # the tolerance names are the defaults' keys; any other is refused by name
        scen = write_scenario(tmp_path, tolerances={"polynomial": 1e-8, "ys_tolerance": 1e-9})
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "$.tolerances" in err and "ys_tolerance" in err
        # so are the mutation flags the keys of cli._MUTATIONS
        scen = write_scenario(tmp_path, mutations={"drop_left_jump_sum": True})
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "$.mutations" in err and "drop_left_jump_sum" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model",
        [
            {"id": "unknown_model"},
            # schema-valid, with malformed parameters
            {"id": "jump_bm", "params": {"jumps": [[0.5]]}},
            {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25, 0.1]]}},
            {"id": "jump_bm", "params": {"jumps": [[0.5, "x"]]}},
            {"id": "fbm", "params": {"hurst": "abc"}},
            {"id": "evanescent", "params": {"s0": "x"}},
            {"id": "jump_bm", "params": {"jumps": [[0.5, True]]}},
        ],
        ids=["unknown", "jump_pair_short", "jump_triple", "jump_variance_str", "hurst_str", "s0_str", "jump_variance_bool"],
    )
    def test_unknown_model_exit_2(self, tmp_path, capsys, model):
        scen = write_scenario(tmp_path, model=model)
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_bundled_scenario_by_name(self, tmp_path, capsys):
        assert main(["run", "smoke", "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["scenario_name"] == "smoke"

    def test_martingale_check_passes_at_roundoff_floor(self, tmp_path, capsys):
        # F = x telescopes exactly; the decay requirement must not trip on
        # residuals that are pure float noise
        scen = write_scenario(
            tmp_path,
            test_functions=["x"],
            checks=["martingale_ito"],
            mc={"seed": 5, "n_paths": 500, "grid_depth": 6},
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["cases"][0]["mc"]["estimate"] < 1e-12

    def test_bundled_full_scenario_plans(self):
        from gaussito.cli import _load_scenario, _plan_cases, _resolve_scenario

        scenario = _load_scenario(_resolve_scenario("full_jump_bm"))
        ids = [record["case_id"] for records in _plan_cases(scenario, seed=None) for record in records]
        assert len(ids) == len(set(ids)) and len(ids) >= 25
        kinds = {cid.split(":")[0] for cid in ids}
        assert {"ito", "rcll", "mc_ito", "mc_st", "mc_p2", "mc_qv", "mc_sk"} <= kinds

    def test_planning_runs_no_check(self, monkeypatch):
        # every ConfigError is raised before any check runs, so the plan runs nothing until it is iterated
        import gaussito.cli
        from gaussito.cli import _plan_cases

        calls = []

        def recorded(name, original):
            def run(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return run

        for name in ("ito_stransform_residual", "mc_s_transform"):
            monkeypatch.setattr(gaussito.cli, name, recorded(name, getattr(gaussito.cli, name)))
        scenario = {
            "name": "t",
            "model": {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25]]}},
            "cm_elements": [[[1.0, 1.0]]],
            "checks": ["ito_stransform", "s_transform_mc"],
            "mc": {"n_paths": 100},
        }
        plan = _plan_cases(scenario, seed=None)
        assert calls == []
        assert [r["case_id"] for r in next(plan)] == ["ito:jump_bm:x2:h0"]
        assert calls == ["ito_stransform_residual"]
        ids = [r["case_id"] for records in plan for r in records]
        assert ids and all(cid.startswith("mc_st:") for cid in ids)
        assert calls[1:] == ["mc_s_transform"] * len(ids)

    def test_bundled_full_scenario_pairing_plan(self, tmp_path, capsys):
        # each pairing case's id, seed and draw: the draw holds h's times, the
        # discontinuity time 0.5 and the pairing's support; the Hermite draw
        # holds only g's and h's times
        assert main(["run", "full_jump_bm", "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        plan = {
            c["case_id"]: (c["mc"]["seed"], c["diagnostics"]["grid_points"])
            for c in report["cases"]
            if c["case_id"].split(":")[0] in ("mc_st", "mc_p2", "mc_sk")
        }
        assert plan == {
            "mc_st:jump_bm:0:X_t:h0": (20252809, 3),
            "mc_st:jump_bm:1:wick_exp:h0s": (20252810, 2),
            "mc_st:jump_bm:2:X_t:h1": (20252811, 3),
            "mc_st:jump_bm:3:wick_exp:h1": (20252812, 3),
            "mc_st:jump_bm:4:X_t:h2": (20252813, 5),
            "mc_st:jump_bm:5:wick_exp:h2": (20252814, 4),
            "mc_st:jump_bm:6:f:h0": (20252815, 3),
            "mc_st:jump_bm:7:jump_pairing:h0": (20252816, 2),
            "mc_p2:jump_bm:0:h0:h0": (20253809, 1),
            "mc_p2:jump_bm:1:h0:h1": (20253810, 2),
            "mc_sk:jump_bm": (20255809, 3),
        }

    def test_rcll_check_runs_the_engine_once(self, tmp_path, capsys, monkeypatch):
        calls = count_engine_runs(monkeypatch)
        scen = write_scenario(
            tmp_path, cm_elements=[[[1.0, 1.0]], [[0.7, 0.5], [0.4, 0.8]]], checks=["ito_stransform", "ito_rcll"]
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["total"] == 4
        # one engine run per pairing element serves both checks: 2 elements
        assert len(calls) == 2

    def test_rcll_only_check_runs_the_engine_once_per_case(self, tmp_path, capsys, monkeypatch):
        calls = count_engine_runs(monkeypatch)
        elements = [[[1.0, 1.0]], [[0.7, 0.5], [0.4, 0.8]]]
        scen = write_scenario(tmp_path, "rcll.json", cm_elements=elements, checks=["ito_rcll"])
        assert main(["run", str(scen), "--out", str(tmp_path / "rcll")]) == 0
        assert len(calls) == 2
        both = write_scenario(tmp_path, "both.json", cm_elements=elements, checks=["ito_stransform", "ito_rcll"])
        assert main(["run", str(both), "--out", str(tmp_path / "both")]) == 0
        alone = json.loads((tmp_path / "rcll" / "report.json").read_text())["cases"]
        shared = json.loads((tmp_path / "both" / "report.json").read_text())["cases"]
        assert [c["case_id"] for c in alone] == ["rcll:jump_bm:x2:h0", "rcll:jump_bm:x2:h1"]
        assert alone == [c for c in shared if c["case_id"].startswith("rcll:")]

    def test_jump_sum_mutation_leaves_rcll_records_alone(self, tmp_path, capsys):
        checks = ["ito_stransform", "ito_rcll"]
        clean = write_scenario(tmp_path, "clean.json", checks=checks)
        mutated = write_scenario(tmp_path, "mutated.json", checks=checks, mutations={"drop_jump_sum": True})
        assert main(["run", str(clean), "--out", str(tmp_path / "clean")]) == 0
        assert main(["run", str(mutated), "--out", str(tmp_path / "mutated")]) == 1
        cases = {}
        for name in ("clean", "mutated"):
            report = json.loads((tmp_path / name / "report.json").read_text())
            cases[name] = {c["case_id"]: c for c in report["cases"]}
        assert not cases["mutated"]["ito:jump_bm:x2:h0"]["pass"]
        rcll = cases["mutated"]["rcll:jump_bm:x2:h0"]
        assert rcll == cases["clean"]["rcll:jump_bm:x2:h0"]
        assert rcll["pass"] and "agreement_delta" in rcll["terms"]

    def test_xleft_correction_mutation_fails_only_rcll_records(self, tmp_path, capsys):
        checks = ["ito_stransform", "ito_rcll"]
        common = {"checks": checks, "test_functions": ["x2", "sin"], "cm_elements": "auto"}
        models = {
            "coupled": {"id": "coupled_jump_bm", "params": {"c": 1.0, "s0": 0.5}},
            "martingale": {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25]]}},
        }
        runs = {}
        for name, model in models.items():
            for mutations in ({}, {"drop_xleft_correction": True}):
                tag = f"{name}{'_mutated' if mutations else ''}"
                scen = write_scenario(tmp_path, f"{tag}.json", model=model, mutations=mutations, **common)
                code = main(["run", str(scen), "--out", str(tmp_path / tag)])
                report = json.loads((tmp_path / tag / "report.json").read_text())
                runs[tag] = code, report, (tmp_path / tag / "terms.csv").read_bytes()
        # E[X_{s-} xi] = c s0 = 0.5: the right-continuous form fails without its correction,
        # and the general form, which has no such term, is left as it was
        code, report, _ = runs["coupled_mutated"]
        clean = {c["case_id"]: c for c in runs["coupled"][1]["cases"]}
        assert runs["coupled"][0] == 0 and code == 1
        rcll = [c for c in report["cases"] if c["case_id"].startswith("rcll:")]
        ito = [c for c in report["cases"] if c["case_id"].startswith("ito:")]
        assert len(rcll) == len(ito) == len(clean) // 2 > 0
        assert not any(c["pass"] for c in rcll)
        assert all(c == clean[c["case_id"]] for c in ito)
        # on a martingale E[X_{s-} xi] = 0, so the mutation changes no byte but the scenario's hash
        (code, report, csv), (mcode, mreport, mcsv) = runs["martingale"], runs["martingale_mutated"]
        assert code == mcode == 0 and csv == mcsv
        assert report["scenario_hash"] != mreport["scenario_hash"]
        assert {**report, "scenario_hash": None} == {**mreport, "scenario_hash": None}

    def test_transcendental_tolerance_gates_only_the_transcendental_cases(self, tmp_path, capsys):
        # without (1/2) int psi_{F''} dV every case is off by that term; a huge transcendental tolerance forgives sin's, not x2's
        common = {"test_functions": ["x2", "sin"], "cm_elements": "auto", "mutations": {"drop_dv_integral": True}}
        code, strict = run_cases(tmp_path, "strict", **common)
        loose_code, loose = run_cases(tmp_path, "loose", tolerances={"transcendental": 1e3}, **common)
        assert code == loose_code == 1
        assert not any(c["pass"] for c in strict.values())
        assert {cid: c["pass"] for cid, c in loose.items()} == {cid: ":sin:" in cid for cid in strict}
        for cid, c in loose.items():
            assert c == (strict[cid] if ":x2:" in cid else {**strict[cid], "pass": True, "tolerance": 1e3})

    def test_ys_tol_sets_the_refinement_the_diagnostics_report(self, tmp_path, capsys):
        common = {"test_functions": ["x2", "sin"], "cm_elements": "auto", "checks": ["ito_stransform", "ito_rcll"]}
        code, default = run_cases(tmp_path, "default", **common)
        loose_code, loose = run_cases(tmp_path, "loose", tolerances={"ys_tol": 1e-4}, **common)
        assert code == loose_code == 0 and sorted(loose) == sorted(default)
        # a looser integrator tolerance stops refining sooner, on fewer cells, at a larger error estimate
        cells = lambda cases, cid: [d["n_cells"] for d in cases[cid]["diagnostics"].values()]
        assert all(loose_n <= n for cid in default for loose_n, n in zip(cells(loose, cid), cells(default, cid)))
        assert sum(sum(cells(loose, cid)) for cid in loose) < sum(sum(cells(default, cid)) for cid in default)
        rounds = lambda cases: sum(d["rounds"] for c in cases.values() for d in c["diagnostics"].values())
        assert rounds(loose) < rounds(default)
        error = lambda cases: max(d["error_estimate"] for c in cases.values() for d in c["diagnostics"].values())
        assert error(loose) > 1e-11 > error(default)
        assert all(d["converged"] for c in loose.values() for d in c["diagnostics"].values())

    def test_rcll_agreement_gates_the_two_forms_difference(self, tmp_path, capsys):
        # without its xleft correction the right-continuous form is off by E[X_{s-} xi] = 0.5 on coupled_jump_bm; where the
        # residual tolerances forgive that, the rcll cases fail on the two forms' disagreement alone, until rcll_agreement forgives it too
        model = {"id": "coupled_jump_bm", "params": {"c": 1.0, "s0": 0.5}}
        common = {"model": model, "checks": ["ito_rcll"], "test_functions": ["x2", "sin"], "cm_elements": "auto", "mutations": {"drop_xleft_correction": True}}
        forgiving = {"polynomial": 1e3, "transcendental": 1e3}
        code, strict = run_cases(tmp_path, "strict", tolerances=forgiving, **common)
        loose_code, loose = run_cases(tmp_path, "loose", tolerances={**forgiving, "rcll_agreement": 1e3}, **common)
        assert (code, loose_code) == (1, 0)
        assert all(not c["pass"] and c["terms"]["agreement_delta"] > 1e-10 and abs(c["residual"]) < 1e3 for c in strict.values())
        assert {cid: {**c, "pass": True} for cid, c in strict.items()} == loose

    def test_z_max_gates_the_z_scores(self, tmp_path, capsys):
        common = {"checks": ["s_transform_mc"], "mc": {"seed": 7, "n_paths": 2000}}
        code, default = run_cases(tmp_path, "default", **common)
        zs = sorted(abs(c["mc"]["z_score"]) for c in default.values())
        z_max = 0.5 * (zs[0] + zs[-1])
        _, gated = run_cases(tmp_path, "gated", tolerances={"z_max": z_max}, **common)
        assert code == 0 and all(c["tolerance"] == 4.0 for c in default.values())
        # the estimates stand; the verdicts of the records whose |z| exceeds z_max turn
        assert {cid: c["pass"] for cid, c in gated.items()} == {cid: abs(c["mc"]["z_score"]) <= z_max for cid, c in default.items()}
        assert {c["pass"] for c in gated.values()} == {True, False}
        assert gated == {cid: {**c, "pass": gated[cid]["pass"], "tolerance": z_max} for cid, c in default.items()}

    def test_one_engine_run_per_pairing_element(self, tmp_path, capsys, monkeypatch):
        calls = count_engine_runs(monkeypatch)
        elements = [[[1.0, 1.0]], [[0.7, 0.5], [0.4, 0.8]], [[0.5, 0.3], [-0.6, 0.5]]]
        tfs = ["x", "x2", "x3", "sin", "exp"]
        scen = write_scenario(tmp_path, test_functions=tfs, cm_elements=elements, checks=["ito_stransform", "ito_rcll"])
        assert main(["run", str(scen), "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
        # every test function of an element is integrated on the element's one partition
        assert len(calls) == len(elements)
        cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        assert len(cases) == 2 * len(tfs) * len(elements)
        for k in range(len(elements)):
            diags = [c["diagnostics"] for c in cases if c["case_id"].endswith(f":h{k}")]
            for name in ("integral_dhbar", "integral_dv_half"):
                assert len({(d[name]["n_cells"], d[name]["rounds"]) for d in diags}) == 1
                assert all(d[name]["converged"] and d[name]["error_estimate"] < 1e-11 for d in diags)

    def test_diagnostics_carry_each_case_flag(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path,
            model={"id": "fbm", "params": {"hurst": 0.2}},
            test_functions=["x2", "x3"],
            cm_elements="auto",
            checks=["ito_stransform", "s_transform_mc"],
            mc={"n_paths": 200},
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
        cases = {c["case_id"]: c for c in json.loads((tmp_path / "out" / "report.json").read_text())["cases"]}
        x2, x3 = cases["ito:fbm:x2:h0"], cases["ito:fbm:x3:h0"]
        assert x2["pass"] and not x3["pass"]
        assert x2["diagnostics"]["integral_dhbar"]["converged"]
        assert not x3["diagnostics"]["integral_dhbar"]["converged"]
        assert x3["diagnostics"]["integral_dhbar"]["error_estimate"] >= 1e-11
        assert x2["diagnostics"]["integral_dhbar"]["n_cells"] == x3["diagnostics"]["integral_dhbar"]["n_cells"]
        # a Monte Carlo record counts what it drew: 200 paths on its support grid, one batch
        mc = [c for cid, c in cases.items() if cid.startswith("mc_")]
        assert mc
        for c in mc:
            d = c["diagnostics"]
            assert set(d) == {"grid_points", "batches", "path_points"}
            assert d["batches"] == 1 and d["grid_points"] >= 1 and d["path_points"] == 200 * d["grid_points"]

    def test_shared_plan_item_timings(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, checks=["ito_stransform", "ito_rcll"])
        assert main(["run", str(scen), "--out", str(tmp_path / "out"), "--timings"]) == 0
        ito, rcll = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        assert ito["runtime_ms"] == rcll["runtime_ms"] >= 0.0

    def test_martingale_records_share_one_plan_item(self, tmp_path, capsys):
        mc = {"n_paths": 1000, "grid_depth": 9}
        scen = write_scenario(tmp_path, test_functions=["x", "x2", "sin"], checks=["martingale_ito"], mc=mc)
        assert main(["run", str(scen), "--out", str(tmp_path / "out"), "--timings"]) == 0
        cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        assert [c["case_id"] for c in cases] == ["mc_ito:jump_bm:sin", "mc_ito:jump_bm:x", "mc_ito:jump_bm:x2"]
        # one coupled draw for every test function, seeded as the first one's was
        assert {c["runtime_ms"] for c in cases} == {cases[0]["runtime_ms"]}
        assert {c["mc"]["seed"] for c in cases} == {20250809 + 1000}

    @pytest.mark.parametrize(
        "model",
        [
            {"id": "jump_bm", "params": {"jumps": [[0.3, 0.2], [0.7, 0.3]]}},
            {"id": "brownian"},
            {"id": "coupled_jump_bm", "params": {"c": 1.0, "s0": 0.5}},
        ],
        ids=lambda m: m["id"],
    )
    def test_path_qv_beside_the_pathwise_check_draws_at_its_seed(self, model, tmp_path, capsys, monkeypatch):
        import gaussito.gaussproc
        from gaussito.gaussproc import catalog, path_qv_mc

        calls = []
        original = gaussito.gaussproc.simulate_paths

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # the batch loop lives in gaussproc.simulate_batches
        monkeypatch.setattr(gaussito.gaussproc, "simulate_paths", counting)
        seed, n_paths, depth = 7, 2000, 9
        mc = {"seed": seed, "n_paths": n_paths, "grid_depth": depth}
        checks = ["martingale_ito", "path_qv"]
        scen = write_scenario(tmp_path, model=model, test_functions=["x2", "sin"], checks=checks, mc=mc)
        assert main(["run", str(scen), "--out", str(tmp_path / "out"), "--timings"]) == 0
        monkeypatch.undo()
        spec = catalog(model["id"], **model.get("params", {}))
        fine = np.union1d(np.linspace(0.0, 1.0, 2**depth + 1), spec.record_times())
        cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        assert [c["case_id"] for c in cases] == [f"mc_ito:{spec.name}:{tf}" for tf in ("sin", "x2")] + [f"mc_qv:{spec.name}"]
        *ito, qv = cases
        # the quadratic-variation record reads all its paths, two batches of the pathwise check's draw on its fine grid
        # at its seed; the pathwise check reads the first of them and stops at its first resolved look
        assert qv["diagnostics"] == {"grid_points": len(fine), "batches": 2, "path_points": n_paths * len(fine)}
        assert {c["diagnostics"]["batches"] for c in ito} == {1}
        # each batch is drawn once for both readers
        assert len(calls) == qv["diagnostics"]["batches"]
        assert all(c["mc"]["seed"] == seed + 1000 for c in cases)
        # one plan item, one time
        assert {c["runtime_ms"] for c in cases} == {ito[0]["runtime_ms"]}
        # the record is the standalone estimator's on that grid at that seed, bit for bit
        expected = path_qv_mc(spec, fine, n_paths, seed + 1000)
        assert qv["mc"] == {
            "estimate": expected.estimate,
            "standard_error": expected.standard_error,
            "reference": expected.reference,
            "z_score": expected.z_score,
            "n_paths": n_paths,
            "seed": seed + 1000,
        }
        # and planning it beside the pathwise check leaves the pathwise records as they are alone
        alone = write_scenario(tmp_path, "alone.json", model=model, test_functions=["x2", "sin"], checks=["martingale_ito"], mc=mc)
        assert main(["run", str(alone), "--out", str(tmp_path / "alone")]) == 0
        without = json.loads((tmp_path / "alone" / "report.json").read_text())["cases"]
        assert [{**c, "runtime_ms": None} for c in ito] == [{**c, "runtime_ms": None} for c in without]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_full_jump_bm_draws_each_batch_at_the_pathwise_seed_once(self, jobs, tmp_path, capsys, monkeypatch):
        import gaussito.gaussproc

        seeds = []
        original = gaussito.gaussproc.simulate_paths

        def noting(spec, grid, n_paths, seed, buffer=None):
            seeds.append(seed.entropy)
            return original(spec, grid, n_paths, seed, buffer)

        monkeypatch.setattr(gaussito.gaussproc, "simulate_paths", noting)
        assert main(["run", "full_jump_bm", "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 0
        cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        batches = {c["case_id"]: c["diagnostics"]["batches"] for c in cases if c["mc"] and c["mc"]["seed"] == 20250809 + 1000}
        # mc_qv's ten batches on the 513-point grid, the first of which the pathwise check reads too and stops at,
        # whatever the map: no batch is drawn twice, and none past the pathwise check's stopping look is discarded
        assert batches == {"mc_ito:jump_bm:sin": 1, "mc_ito:jump_bm:x": 1, "mc_ito:jump_bm:x2": 1, "mc_qv:jump_bm": 10}
        assert seeds.count(20250809 + 1000) == 10

    @pytest.mark.parametrize("scenario", ["full_jump_bm", "fbm_h05"])
    def test_every_z_gated_record_is_a_pairing_report(self, scenario, tmp_path, capsys, monkeypatch):
        from gaussito.gaussproc import Pairing

        if scenario == "fbm_h05":
            # Monte Carlo on the Gram sampler, path_qv on a draw of its own, beside the two deterministic checks
            checks = ["ito_stransform", "ito_rcll", "path_qv", "s_transform_mc", "hermite_p2", "simple_skorokhod"]
            mc = {"n_paths": 4000, "grid_depth": 10}
            model = {"id": "fbm", "params": {"hurst": 0.5}}
            scenario = str(write_scenario(tmp_path, model=model, test_functions=["x2"], cm_elements="auto", checks=checks, mc=mc))
        reports, report = [], Pairing.report

        def counting(self, batched, seed):
            reports.append(seed)
            return report(self, batched, seed)

        monkeypatch.setattr(Pairing, "report", counting)
        assert main(["run", scenario, "--out", str(tmp_path / "out")]) == 0
        kinds = [c["case_id"].split(":")[0] for c in json.loads((tmp_path / "out" / "report.json").read_text())["cases"]]
        # one Pairing.report per z-gated record, whether path_qv runs beside the pathwise check or alone
        assert {"mc_st", "mc_p2", "mc_sk", "mc_qv"} <= set(kinds)
        assert len(reports) == sum(kind in ("mc_st", "mc_p2", "mc_sk", "mc_qv") for kind in kinds)

    @pytest.mark.parametrize(
        "model",
        [{"id": "fbm", "params": {"hurst": 0.5}}, {"id": "jump_bm", "params": {"jumps": [[0.3, 0.2], [0.7, 0.3]]}}],
        ids=lambda m: m["id"],
    )
    def test_path_qv_alone_draws_the_pathwise_draw(self, model, tmp_path, capsys):
        from gaussito.gaussproc import catalog, path_qv_mc

        seed, n_paths, depth = 7, 1000, 8
        mc = {"seed": seed, "n_paths": n_paths, "grid_depth": depth}
        qv = {}
        for tag, checks in (("alone", ["path_qv"]), ("beside", ["martingale_ito", "path_qv"])):
            code, cases = run_cases(tmp_path, tag, model=model, checks=checks, mc=mc)
            assert code == 0
            qv[tag] = cases[f"mc_qv:{model['id']}"]
        # the pathwise grid, which gains the jump times 0.3 and 0.7 off the dyadic points, at the pathwise seed
        spec = catalog(model["id"], **model["params"])
        fine = np.union1d(np.linspace(0.0, 1.0, 2**depth + 1), spec.record_times())
        assert len(fine) == 2**depth + 1 + len(spec.records)
        expected = path_qv_mc(spec, fine, n_paths, seed + 1000)
        assert qv["alone"]["mc"] == {
            "estimate": expected.estimate,
            "standard_error": expected.standard_error,
            "reference": expected.reference,
            "z_score": expected.z_score,
            "n_paths": n_paths,
            "seed": seed + 1000,
        }
        assert qv["alone"]["diagnostics"] == {"grid_points": len(fine), "batches": expected.batches, "path_points": n_paths * len(fine)}
        # who draws it does not show: the record read beside the pathwise check is the same, bit for bit
        assert qv["alone"] == qv["beside"]

    @pytest.mark.parametrize(
        "model",
        [
            {"id": "brownian"},
            {"id": "fbm", "params": {"hurst": 0.5}},
            # path_qv beside the pathwise check on a model whose cell weights are not all 0
            pytest.param({"id": "fbm", "params": {"hurst": 0.7}}, id="fbm_h07"),
            {"id": "jump_bm", "params": {"jumps": [[0.3, 0.2], [0.7, 0.3]]}},
            {"id": "coupled_jump_bm", "params": {"c": 1.0, "s0": 0.5}},
            {"id": "evanescent", "params": {"s0": 0.5}},
        ],
        ids=lambda m: m["id"],
    )
    def test_a_record_depends_only_on_its_own_check(self, model, tmp_path, capsys):
        # each check run alone writes the records it writes beside every other check, bit for bit
        common = {"model": model, "test_functions": ["x2", "sin"], "cm_elements": "auto", "mc": {"seed": 7, "n_paths": 300, "grid_depth": 5}}
        every = write_scenario(tmp_path, "every.json", checks=list(CHECK_IDS), **common)
        assert main(["run", str(every), "--out", str(tmp_path / "every")]) in (0, 1)
        beside = json.loads((tmp_path / "every" / "report.json").read_text())["cases"]
        alone = []
        for check in CHECK_IDS:
            scen = write_scenario(tmp_path, f"{check}.json", checks=[check], **common)
            # a check the model cannot run leaves a scenario with none, which exits 2 and writes nothing
            if main(["run", str(scen), "--out", str(tmp_path / check)]) != 2:
                alone += json.loads((tmp_path / check / "report.json").read_text())["cases"]
        assert sorted(alone, key=lambda c: c["case_id"]) == beside

    def test_martingale_records_carry_no_z_score(self, tmp_path, capsys):
        # the pathwise verdict is the decay of the relative residual; a
        # z-score against 0 would read as a failure
        scen = write_scenario(
            tmp_path, test_functions=["x2"], checks=["martingale_ito", "path_qv"], mc={"n_paths": 1000, "grid_depth": 9}
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        ito, qv = (c["mc"] for c in report["cases"])
        assert ito["z_score"] is None
        assert isinstance(qv["z_score"], float)
        rows = (tmp_path / "out" / "terms.csv").read_text().splitlines()
        assert not [r for r in rows if r.startswith("mc_ito:") and ",z_score," in r]
        assert [r for r in rows if r.startswith("mc_qv:") and ",z_score," in r]
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines() if "mc_ito:jump_bm:x2" in ln]
        decay = report["cases"][0]["terms"]["log2_decay"]
        assert f"rel={ito['estimate']:.6g} log2_decay={decay:.3g} tol=0.25 " in line and "z=" not in line
        (line,) = [ln for ln in out.splitlines() if "mc_qv:jump_bm" in ln]
        assert f"z={qv['z_score']:.2f}" in line

    PATHWISE_MODELS = [
        {"id": "brownian"},
        {"id": "jump_bm", "params": {"jumps": [[0.3, 0.2], [0.7, 0.3]]}},
        {"id": "coupled_jump_bm", "params": {"c": 1.0, "s0": 0.5}},
        {"id": "fbm", "params": {"hurst": 0.3}},
        {"id": "fbm", "params": {"hurst": 0.5}},
        {"id": "fbm", "params": {"hurst": 0.7}},
    ]

    @pytest.mark.parametrize("model", PATHWISE_MODELS, ids=["brownian", "jump_bm", "coupled_jump_bm", "fbm_h03", "fbm_h05", "fbm_h07"])
    def test_pathwise_check_gates_on_the_decay(self, model, tmp_path, capsys, monkeypatch):
        import gaussito.itoverify
        from gaussito.gaussproc import catalog

        mc = {"n_paths": 4000, "grid_depth": 8}
        scen = write_scenario(tmp_path, model=model, test_functions=["x", "x2", "sin"], checks=["martingale_ito"], mc=mc)
        original = gaussito.itoverify._level_residuals
        cells = set()

        def capture(tf, X, xi, x_jump, x_left, plan, *args):
            cells.add(tuple(len(weights) for _, weights in plan))
            return original(tf, X, xi, x_jump, x_left, plan, *args)

        monkeypatch.setattr(gaussito.itoverify, "_level_residuals", capture)
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        # the gate reads two levels, grid_depth - 2 and grid_depth, each joined with the
        # discontinuity times, and only those are computed
        times = catalog(model["id"], **model.get("params", {})).record_times()
        assert cells == {tuple(len(np.union1d(np.linspace(0, 1, 2**d + 1), times)) - 1 for d in (6, 8))}
        cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        assert [c["case_id"].split(":")[0] for c in cases] == ["mc_ito"] * 3
        for c in cases:
            terms = c["terms"]
            assert sorted(terms) == ["log2_decay", "log2_decay_se", "rel_l2_depth6", "rel_l2_depth8"]
            assert terms["log2_decay"] == np.dot([0.5, -0.5], np.log2([terms["rel_l2_depth6"], terms["rel_l2_depth8"]]))
            assert c["mc"]["estimate"] == terms["rel_l2_depth8"]
            if not c["case_id"].endswith(":x"):
                assert terms["log2_decay"] >= c["tolerance"] > 0.0

        def flat(tf, X, xi, x_jump, x_left, plan, dXs, buffer, out):
            # the coarse level reads the fine level's residual: a slope of 0
            original(tf, X, xi, x_jump, x_left, plan, dXs, buffer, out)
            out[1] = out[2]

        monkeypatch.setattr(gaussito.itoverify, "_level_residuals", flat)
        assert main(["run", str(scen), "--out", str(tmp_path / "flat")]) == 1
        flat_cases = {c["case_id"]: c for c in json.loads((tmp_path / "flat" / "report.json").read_text())["cases"]}
        # F = x is exact to roundoff and passes without decay; every other case fails
        assert [cid for cid, c in flat_cases.items() if c["pass"]] == [f"mc_ito:{model['id']}:x"]
        assert all(c["terms"]["log2_decay"] == 0.0 for c in flat_cases.values())

    @pytest.mark.parametrize("checks, code", [(["martingale_ito", "ito_stransform"], 0), (["martingale_ito"], 2)], ids=["with_ito", "alone"])
    def test_discontinuities_filling_the_coarse_level_skip_the_pathwise_check(self, checks, code, tmp_path, capsys):
        # at grid_depth 2 the jumps at 0.2 and 0.5 fill every other point of the grid, so pathwise_decay
        # has no coarser level to read a decay from, and the planner skips the check
        model = {"id": "jump_bm", "params": {"jumps": [[0.2, 0.1], [0.5, 0.1]]}}
        scen = write_scenario(tmp_path, model=model, checks=checks, mc={"n_paths": 50, "grid_depth": 2})
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == code
        if code == 0:
            cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
            assert [c["case_id"] for c in cases] == ["ito:jump_bm:x2:h0"]
        else:
            assert "runs none of the requested checks (martingale_ito)" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_pathwise_check_at_the_schema_minimum_depth(self, tmp_path, capsys):
        # at grid_depth 2 the coarse level is [0, T] plus the jump time, one jump-spanning cell each side
        model = {"id": "jump_bm", "params": {"jumps": [[0.3, 0.2]]}}
        mc = {"n_paths": 2000, "grid_depth": 2}
        checks = ["martingale_ito", "path_qv"]
        scen = write_scenario(tmp_path, model=model, test_functions=["x", "x2", "sin"], checks=checks, mc=mc)
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        by_id = {c["case_id"]: c for c in cases}
        assert sorted(by_id) == ["mc_ito:jump_bm:sin", "mc_ito:jump_bm:x", "mc_ito:jump_bm:x2", "mc_qv:jump_bm"]
        assert all(c["pass"] for c in cases)
        for tf in ("x", "x2", "sin"):
            assert sorted(by_id[f"mc_ito:jump_bm:{tf}"]["terms"]) == ["log2_decay", "log2_decay_se", "rel_l2_depth0", "rel_l2_depth2"]
        # F = x passes on the roundoff floor; the others decay by at least half of 1/2 per halving
        for tf in ("x2", "sin"):
            assert by_id[f"mc_ito:jump_bm:{tf}"]["terms"]["log2_decay"] >= by_id[f"mc_ito:jump_bm:{tf}"]["tolerance"] == 0.25

    @pytest.mark.parametrize("hurst", [0.4, 0.7])
    def test_wick_weight_knockout_fails_fbm(self, hurst, tmp_path, capsys, monkeypatch):
        import gaussito.itoverify

        # the Ito weights dV^c_i of the martingale case, without the Wick weights c_i
        monkeypatch.setattr(gaussito.itoverify, "_cell_weights", lambda spec, pts: np.diff(spec.variance.base_values(pts)))
        model = {"id": "fbm", "params": {"hurst": hurst}}
        mc = {"n_paths": 4000, "grid_depth": 8}
        scen = write_scenario(tmp_path, model=model, test_functions=["x2", "sin"], checks=["martingale_ito"], mc=mc)
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
        cases = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        assert [c["pass"] for c in cases] == [False, False]
        assert all(c["terms"]["log2_decay"] < 0.0 for c in cases)

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "from-env"))
        scen = write_scenario(tmp_path)
        assert main(["run", str(scen)]) == 0
        assert (tmp_path / "from-env" / "report.json").exists()

    def test_timings_flag(self, tmp_path, capsys):
        scen = write_scenario(tmp_path)
        main(["run", str(scen), "--out", str(tmp_path / "a")])
        main(["run", str(scen), "--out", str(tmp_path / "b"), "--timings"])
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert "runtime_ms" not in a["cases"][0]
        assert b["cases"][0]["runtime_ms"] >= 0.0

    def test_jobs_parallel_same_report(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, test_functions=["x2", "x3", "sin"], cm_elements="auto")
        main(["run", str(scen), "--out", str(tmp_path / "a")])
        main(["run", str(scen), "--out", str(tmp_path / "b"), "--jobs", "4"])
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()

    def test_jobs_parallel_same_report_with_monte_carlo(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path,
            test_functions=["x2", "sin"],
            cm_elements="auto",
            checks=["martingale_ito", "path_qv"],
            # two simulation batches on the finest grid
            mc={"n_paths": 2000, "grid_depth": 9},
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(scen), "--out", str(tmp_path / "b"), "--jobs", "4"]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()

    def test_ordered_map_keeps_batch_order_and_at_most_two_batches_per_worker_in_flight(self):
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        from gaussito.cli import _ordered_map

        jobs, lock = 2, threading.Lock()
        started, handed_back = [], []

        def work(b):
            # each batch notes how many results were handed back before it started
            with lock:
                started.append((b, len(handed_back)))
            time.sleep(0.002 * (b % 3))
            return b * b

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for result in _ordered_map(pool, 2 * jobs)(work, range(30)):
                with lock:
                    handed_back.append(result)
        assert handed_back == [b * b for b in range(30)]
        assert sorted(b for b, _ in started) == list(range(30))
        # batch b starts only once batch b - 2 * jobs has been handed back
        assert all(b - before < 2 * jobs for b, before in started)

    def test_ordered_map_closed_early_cancels_its_queued_calls(self):
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        from gaussito.cli import _ordered_map

        in_flight, lock = 4, threading.Lock()
        submitted, ran = [], []

        class Counting(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        def slow(b):
            with lock:
                ran.append(b)
            time.sleep(0.05)
            return b

        with Counting(max_workers=1) as pool:
            ordered = _ordered_map(pool, in_flight)(slow, range(30))
            assert next(ordered) == 0
            ordered.close()
        # the first item, and at most the one call the single worker had started when the map was closed
        assert len(submitted) == in_flight
        assert ran in ([0], [0, 1])

    @pytest.mark.parametrize("error", [UnsupportedModelError, RuntimeError], ids=["config_error", "crash"])
    def test_a_failing_batch_fails_alike_at_every_jobs_and_leaves_no_worker(self, error, tmp_path, capsys, monkeypatch):
        import threading

        import gaussito.gaussproc

        original = gaussito.gaussproc.simulate_paths

        def failing(spec, grid, n_paths, seed, *args):
            # batch 2 of a draw at the pathwise check's seed, whichever thread draws it: of the pathwise check's, if it
            # does not stop at its first look, else of path_qv's, which draws every batch
            if getattr(seed, "spawn_key", ()) == (2,):
                raise error("batch 2 fails")
            return original(spec, grid, n_paths, seed, *args)

        monkeypatch.setattr(gaussito.gaussproc, "simulate_paths", failing)
        # 2000 paths on the 1026 points of the finest grid are four batches
        scen = write_scenario(tmp_path, test_functions=["x2", "sin"], checks=["martingale_ito", "path_qv"], mc={"n_paths": 2000, "grid_depth": 10})
        before = set(threading.enumerate())
        outcomes = []
        for jobs in ("1", "2", "3"):
            try:
                outcomes.append((main(["run", str(scen), "--out", str(tmp_path / jobs), "--jobs", jobs]), capsys.readouterr().err))
            except RuntimeError as exc:
                outcomes.append(("raised", str(exc)))
            assert set(threading.enumerate()) == before
            assert not (tmp_path / jobs / "report.json").exists()
        expected = (2, "configuration error: batch 2 fails\n") if error is UnsupportedModelError else ("raised", "batch 2 fails")
        assert outcomes == [expected] * 3

    def test_no_worker_thread_outlives_the_run(self, tmp_path, capsys):
        import threading

        scen = write_scenario(
            tmp_path, test_functions=["x2", "sin"], cm_elements="auto", checks=["martingale_ito", "path_qv", "hermite_p2"], mc={"n_paths": 2000, "grid_depth": 9}
        )
        before = set(threading.enumerate())
        assert main(["run", str(scen), "--out", str(tmp_path / "out"), "--jobs", "3"]) == 0
        assert set(threading.enumerate()) == before

    def test_jobs_above_the_cpu_count_start_one_worker_per_cpu(self, tmp_path, capsys, monkeypatch):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        import gaussito.cli
        import gaussito.gaussproc

        asked, drawing = [], set()
        original = gaussito.gaussproc.simulate_paths

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                asked.append(max_workers)
                super().__init__(max_workers)

        def noting(*args):
            drawing.add(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(gaussito.cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(gaussito.cli, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(gaussito.gaussproc, "simulate_paths", noting)
        # 4000 paths on the 513 points of the finest grid are four batches
        scen = write_scenario(tmp_path, test_functions=["x2"], checks=["martingale_ito"], mc={"n_paths": 4000, "grid_depth": 9})
        assert main(["run", str(scen), "--out", str(tmp_path / "out"), "--jobs", "8"]) == 0
        assert asked == [2]
        assert len(drawing) <= 2 and threading.get_ident() not in drawing

    @pytest.mark.parametrize(
        "model, checks",
        [
            # too rough for the pathwise check
            ({"id": "fbm", "params": {"hurst": 0.2}}, ["martingale_ito"]),
            ({"id": "evanescent", "params": {"s0": 0.5}}, ["ito_rcll"]),
            # a weak one-sided limit: no pathwise left limit to sample, nor a quadratic sum of steps
            ({"id": "evanescent", "params": {"s0": 0.5}}, ["martingale_ito"]),
            ({"id": "evanescent", "params": {"s0": 0.5}}, ["martingale_ito", "path_qv"]),
        ],
        ids=lambda v: v["id"] if isinstance(v, dict) else "+".join(v),
    )
    def test_scenario_with_no_runnable_check_exit_2(self, model, checks, tmp_path, capsys):
        scen = write_scenario(tmp_path, model=model, checks=checks)
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert model["id"] in err and all(check in err for check in checks)
        assert not (tmp_path / "out").exists()

    def test_gram_limit_refused_before_any_check_runs(self, tmp_path, capsys, monkeypatch):
        # the pathwise check's fbm draw at depth 14 needs a 2 GiB Gram matrix; the deterministic items planned before it never run
        calls = count_engine_runs(monkeypatch)
        scen = write_scenario(
            tmp_path,
            model={"id": "fbm", "params": {"hurst": 0.3}},
            test_functions=["x", "x2", "x3", "sin", "exp"],
            cm_elements=[[[0.5 + 0.05 * k, 0.08 * (k + 1)]] for k in range(12)],
            checks=["ito_stransform", "ito_rcll", "martingale_ito"],
            mc={"n_paths": 100, "grid_depth": 14},
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "configuration error: fbm: a 16385-point Gram matrix exceeds the Gram limit of 1 GiB\n"
        assert not calls and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model",
        [
            {"id": "brownian"},
            {"id": "fbm", "params": {"hurst": 0.7}},
            {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25]]}},
            {"id": "coupled_jump_bm", "params": {"c": 1.0, "s0": 0.5}},
            {"id": "evanescent", "params": {"s0": 0.5}},
        ],
        ids=lambda m: m["id"],
    )
    def test_all_models_through_every_check(self, model, tmp_path, capsys):
        # every check a catalog model admits must pass on it end to end
        scen = write_scenario(
            tmp_path,
            model=model,
            test_functions=["x2", "sin"],
            cm_elements="auto",
            checks=["ito_stransform", "ito_rcll", "martingale_ito", "s_transform_mc", "hermite_p2", "path_qv", "simple_skorokhod"],
            mc={"seed": 7, "n_paths": 4000, "grid_depth": 8},
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0

    def test_csv_contributions_sum_to_residual(self, tmp_path, capsys):
        import csv as csvmod

        scen = write_scenario(tmp_path)
        main(["run", str(scen), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        residual = report["cases"][0]["residual"]
        with (tmp_path / "out" / "terms.csv").open() as fh:
            rows = [r for r in csvmod.DictReader(fh) if r["residual_contribution"]]
        total = sum(float(r["residual_contribution"]) for r in rows)
        assert total == pytest.approx(residual, abs=1e-12)



# the times of the drawn jumps and of coupled_jump_bm's and evanescent's s0; at grid_depth 2 some sets of
# jumps fill every other point of the pathwise grid, which the planner must refuse, not crash on
LATTICE = [0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.75, 0.8]

# 1 to 4 jumps at distinct lattice times, each time in or out at even odds
JUMPS = st.lists(st.booleans(), min_size=len(LATTICE), max_size=len(LATTICE)).filter(lambda picked: 1 <= sum(picked) <= 4).flatmap(
    lambda picked: st.lists(st.sampled_from([0.04, 0.25]), min_size=sum(picked), max_size=sum(picked)).map(
        lambda vs: [list(j) for j in zip([t for t, p in zip(LATTICE, picked) if p], vs)]
    )
)
# jump_bm in half the draws, the other catalog models in the other half: about one draw in 28 then holds
# such a set with martingale_ito at grid_depth 2
MODELS = st.one_of(
    JUMPS.map(lambda jumps: {"id": "jump_bm", "params": {"jumps": jumps}}),
    st.sampled_from(
        [
            st.builds(lambda c, s0: {"id": "coupled_jump_bm", "params": {"c": c, "s0": s0}}, st.sampled_from([-0.7, 1.0]), st.sampled_from(LATTICE)),
            st.just({"id": "brownian"}),
            st.sampled_from([0.2, 0.3, 0.5, 0.7]).map(lambda hurst: {"id": "fbm", "params": {"hurst": hurst}}),
            st.sampled_from(LATTICE).map(lambda s0: {"id": "evanescent", "params": {"s0": s0}}),
        ]
    ).flatmap(lambda model: model),
)
SCENARIOS = st.fixed_dictionaries(
    {
        "schema_version": st.just(1),
        "name": st.just("property"),
        "model": MODELS,
        "test_functions": st.lists(st.sampled_from(TEST_FUNCTION_IDS), min_size=1, max_size=2),
        "cm_elements": st.sampled_from(["auto", [[[1.0, 0.5]]], [[[0.8, 0.3], [-0.5, 1.0]]]]),
        "checks": st.lists(st.sampled_from(CHECK_IDS), min_size=1, unique=True),
        "mc": st.fixed_dictionaries({"seed": st.integers(0, 1000), "n_paths": st.integers(2, 50), "grid_depth": st.integers(2, 4)}),
    },
    optional={
        # any of the tolerances, from far below to far above its default, and any of the mutation flags
        "tolerances": st.fixed_dictionaries({}, optional={name: st.floats(1e-14, 1e3) for name in _DEFAULT_TOLERANCES}),
        "mutations": st.fixed_dictionaries({}, optional={name: st.booleans() for name in _MUTATIONS}),
    },
)


class TestProperty:
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(scenario=SCENARIOS, jobs=st.integers(1, 2))
    # a model that runs none of its checks, which the draws above reach only now and then
    @example(
        scenario={
            "schema_version": 1,
            "name": "property",
            "model": {"id": "evanescent", "params": {"s0": 0.5}},
            "test_functions": ["x2"],
            "checks": ["martingale_ito", "path_qv"],
            "tolerances": {"z_max": 1e-3},
            "mutations": {"drop_jump_sum": True},
        },
        jobs=2,
    )
    def test_every_bounded_scenario_exits_with_a_documented_code(self, scenario, jobs):
        # 0 or 1 with a strict-JSON report and a terms table, or 2 with a reason; never an uncaught exception
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            # the scenario names its output directory, which neither --out nor the environment overrides
            path, out = Path(tmp) / "scen.json", Path(tmp) / "out"
            scenario = {**scenario, "output": {"dir": str(out)}}
            jsonschema.validate(scenario, SCENARIO_SCHEMA)
            path.write_text(json.dumps(scenario))
            os.environ.pop(ENV_OUT_DIR, None)
            code = main(["run", str(path), "--jobs", str(jobs)])
            assert code in (0, 1, 2)
            if code != 2:
                json.loads((out / "report.json").read_text(), parse_constant=lambda token: pytest.fail(f"non-strict JSON: {token}"))
                assert (out / "terms.csv").exists()
            else:
                assert not out.exists()
