import json
from pathlib import Path

import pytest

from gaussito.cli import ENV_OUT_DIR, main

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

    def test_growth_violation_exit_2(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, test_functions=[{"id": "exp", "a": 0.5}])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert "growth" in capsys.readouterr().err

    def test_schema_violation_exit_2_with_paths(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "name": "x", "model": {"id": "brownian"}, "oops": 1}))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "$" in err and "oops" in err

    def test_unknown_model_exit_2(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, model={"id": "unknown_model"})
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2

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
        plans = _plan_cases(scenario, seed=None)
        ids = [cid for cid, _ in plans]
        assert len(ids) == len(set(ids)) and len(ids) >= 25
        kinds = {cid.split(":")[0] for cid in ids}
        assert {"ito", "rcll", "mc_ito", "mc_st", "mc_p2", "mc_qv", "mc_sk"} <= kinds

    def test_rcll_check_runs_the_engine_once(self, tmp_path, capsys, monkeypatch):
        import sys

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
        scen = write_scenario(
            tmp_path, cm_elements=[[[1.0, 1.0]], [[0.7, 0.5], [0.4, 0.8]]], checks=["ito_stransform", "ito_rcll"]
        )
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["total"] == 4
        # one engine run per (case, check): 2 cases x 2 checks
        assert len(calls) == 4

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
        # martingale_ito is exercised separately at its prescribed depth;
        # everything else must pass on every catalog model end to end
        scen = write_scenario(
            tmp_path,
            model=model,
            test_functions=["x2", "sin"],
            cm_elements="auto",
            checks=["ito_stransform", "ito_rcll", "s_transform_mc", "hermite_p2", "path_qv", "simple_skorokhod"],
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
