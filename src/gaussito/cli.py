"""Scenario-driven batch runner.

Loads a JSON scenario, instantiates the model and test-function battery,
executes the requested deterministic and Monte Carlo checks, and writes a
machine-readable JSON report plus a CSV with one row per right-hand-side term
so a failing case localizes to a term.  Reports are byte-identical for
identical (scenario, seed) pairs; wall-clock timings are only embedded when
explicitly requested.

Exit codes: 0 all cases pass, 1 at least one case failed, 2 configuration
error (schema violation, unknown ids, growth-bound violation, I/O problems).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import jsonschema

from . import __version__
from .gaussproc import (
    CatalogError,
    UnsupportedModelError,
    catalog,
    catalog_entries,
    cm_element,
    path_qv_mc,
)
from .heatkernel import GrowthBound, GrowthBoundError, TEST_FUNCTION_IDS, test_function
from .itoverify import (
    ItoCase,
    McReport,
    Observable,
    SimpleWickIntegrand,
    auto_cm_battery,
    hermite_p2_identity_mc,
    ito_rcll_residual,
    ito_stransform_residual,
    martingale_ito_mc,
    mc_s_transform,
    simple_skorokhod_mc,
)
from .regulated import Partition

ENV_OUT_DIR = "GAUSSITO_OUT"
REPORT_SCHEMA_VERSION = 1

CHECK_IDS = (
    "ito_stransform",
    "ito_rcll",
    "martingale_ito",
    "s_transform_mc",
    "hermite_p2",
    "path_qv",
    "simple_skorokhod",
)

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "name", "model"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "name": {"type": "string", "minLength": 1},
        "model": {
            "type": "object",
            "required": ["id"],
            "additionalProperties": False,
            "properties": {
                "id": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "test_functions": {
            "type": "array",
            "minItems": 1,
            "items": {
                "oneOf": [
                    {"type": "string"},
                    {
                        "type": "object",
                        "required": ["poly"],
                        "additionalProperties": False,
                        "properties": {"poly": {"type": "array", "items": {"type": "number"}, "minItems": 1}},
                    },
                    {
                        "type": "object",
                        "required": ["id", "a"],
                        "additionalProperties": False,
                        "properties": {"id": {"type": "string"}, "a": {"type": "number", "minimum": 0}},
                    },
                ]
            },
        },
        "cm_elements": {
            "oneOf": [
                {"const": "auto"},
                {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "array",
                            "minItems": 2,
                            "maxItems": 2,
                            "items": {"type": "number"},
                        },
                    },
                },
            ]
        },
        "checks": {"type": "array", "items": {"enum": list(CHECK_IDS)}, "minItems": 1},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "polynomial": {"type": "number", "exclusiveMinimum": 0},
                "transcendental": {"type": "number", "exclusiveMinimum": 0},
                "ys_tol": {"type": "number", "exclusiveMinimum": 0},
                "rcll_agreement": {"type": "number", "exclusiveMinimum": 0},
                "z_max": {"type": "number", "exclusiveMinimum": 0},
                "mc_rel_residual": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "n_paths": {"type": "integer", "minimum": 2},
                "grid_depth": {"type": "integer", "minimum": 2, "maximum": 14},
            },
        },
        "mutations": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "drop_jump_sum": {"type": "boolean"},
                "drop_xleft_correction": {"type": "boolean"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}

_DEFAULT_TOLERANCES = {
    "polynomial": 1e-8,
    "transcendental": 1e-6,
    "ys_tol": 1e-11,
    "rcll_agreement": 1e-10,
    "z_max": 4.0,
    "mc_rel_residual": 0.05,
}


class ConfigError(Exception):
    """Anything that should terminate with exit code 2."""


def _resolve_scenario(arg) -> Path:
    """A filesystem path, or the name of a bundled scenario (e.g. "smoke")."""
    path = Path(arg)
    if path.exists():
        return path
    from importlib import resources

    name = arg if str(arg).endswith(".json") else f"{arg}.json"
    candidate = resources.files("gaussito") / "scenarios" / name
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(f"scenario not found: {arg} (no such file or bundled scenario)")


def _load_scenario(path: Path) -> dict:
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    try:
        scenario = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(scenario), key=lambda e: e.json_path)
    if errors:
        lines = [f"  {e.json_path}: {e.message}" for e in errors]
        raise ConfigError("scenario schema violations:\n" + "\n".join(lines))
    return scenario


def _scenario_hash(scenario: dict) -> str:
    canonical = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_test_functions(entries, lam: float):
    out = []
    seen = {}
    for entry in entries:
        if isinstance(entry, str):
            tf = test_function(entry, lam)
        elif "poly" in entry:
            tf = test_function("poly", lam, poly_coeffs=entry["poly"])
        else:
            tf = test_function(entry["id"], lam)
            tf = replace(tf, growth=GrowthBound(scale=tf.growth.scale, rate=float(entry["a"])))
        # keep case ids collision-free when an id appears more than once
        n = seen.get(tf.name, 0)
        seen[tf.name] = n + 1
        if n:
            tf = replace(tf, name=f"{tf.name}#{n + 1}")
        out.append(tf)
    return out


def _build_battery(scenario, spec):
    cfg = scenario.get("cm_elements", "auto")
    if cfg == "auto":
        return auto_cm_battery(spec)
    return [cm_element(spec, [(a, t) for a, t in combo], label=f"h{k}") for k, combo in enumerate(cfg)]


def _det_record(case_id, residual, tolerance, ok, lhs, terms):
    return {
        "case_id": case_id,
        "kind": "deterministic",
        "pass": bool(ok),
        "residual": residual,
        "tolerance": tolerance,
        "lhs": lhs,
        "terms": terms,
        "mc": None,
    }


def _mc_record(case_id, report, ok, tolerance, terms=None):
    return {
        "case_id": case_id,
        "kind": "mc",
        "pass": bool(ok),
        "residual": None,
        "tolerance": tolerance,
        "lhs": None,
        "terms": terms or {},
        "mc": {
            "estimate": report.estimate,
            "standard_error": report.standard_error,
            "reference": report.reference,
            "z_score": report.z_score,
            "n_paths": report.n_paths,
            "seed": report.seed,
        },
    }


DEFAULT_SEED = 20250809


def effective_seed(scenario: dict, seed=None) -> int:
    if seed is not None:
        return int(seed)
    return int(scenario.get("mc", {}).get("seed", DEFAULT_SEED))


def _plan_cases(scenario, seed):
    """Build (case_id, thunk) pairs; thunks return report-case dicts."""
    model = scenario["model"]
    try:
        spec = catalog(model["id"], **model.get("params", {}))
    except CatalogError as exc:
        raise ConfigError(str(exc)) from exc

    tol = dict(_DEFAULT_TOLERANCES)
    tol.update(scenario.get("tolerances", {}))
    mc_cfg = {"n_paths": 20000, "grid_depth": 10}
    mc_cfg.update(scenario.get("mc", {}))
    base_seed = effective_seed(scenario, seed)
    checks = scenario.get("checks", ["ito_stransform"])
    mutations = scenario.get("mutations", {})
    drop = set()
    if mutations.get("drop_jump_sum"):
        drop |= {"drop_left_jump_sum", "drop_right_jump_sum"}
    rcll_drop = {"drop_xleft_correction"} if mutations.get("drop_xleft_correction") else set()

    try:
        tfs = _build_test_functions(scenario.get("test_functions", ["x2"]), spec.lam)
        battery = _build_battery(scenario, spec)
        cases = [
            ItoCase(spec, tf, h, ys_tol=tol["ys_tol"], label=f"{tf.name}:{h.label}")
            for tf in tfs
            for h in battery
        ]
    except (GrowthBoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    plans = []

    def det_tol(tf):
        return tol["polynomial"] if tf.kind == "polynomial" else tol["transcendental"]

    if "ito_stransform" in checks:
        for case in cases:
            cid = f"ito:{spec.name}:{case.label}"

            def thunk(case=case, cid=cid):
                res = ito_stransform_residual(case, drop=frozenset(drop))
                ok = res.converged and abs(res.residual) < det_tol(case.test_function)
                return _det_record(cid, res.residual, det_tol(case.test_function), ok, res.lhs, res.terms())

            plans.append((cid, thunk))

    if "ito_rcll" in checks and spec.kind in ("martingale", "rcll"):
        for case in cases:
            cid = f"rcll:{spec.name}:{case.label}"

            def thunk(case=case, cid=cid):
                res = ito_rcll_residual(case, drop=frozenset(rcll_drop))
                ok = (
                    res.converged
                    and abs(res.residual) < det_tol(case.test_function)
                    and res.agreement_delta < tol["rcll_agreement"]
                )
                terms = res.terms()
                terms["agreement_delta"] = res.agreement_delta
                return _det_record(cid, res.residual, det_tol(case.test_function), ok, res.lhs, terms)

            plans.append((cid, thunk))

    if "martingale_ito" in checks and spec.kind == "martingale":
        for k, case in enumerate((c for c in cases if c.h.label == battery[0].label)):
            cid = f"mc_ito:{spec.name}:{case.test_function.name}"

            def thunk(case=case, cid=cid, k=k):
                depth = int(mc_cfg["grid_depth"])
                depths = (depth - 2, depth - 1, depth)
                grids = [Partition.uniform(0.0, spec.horizon, 2**d) for d in depths]
                reports = martingale_ito_mc(case, grids, int(mc_cfg["n_paths"]), base_seed + 1000 + k)
                rels = {f"rel_l2_depth{d}": rep.estimate for d, rep in zip(depths, reports)}
                vals = list(rels.values())
                # below roundoff scale the identity holds exactly per path and
                # there is no discretization error left to decay
                decay = all(b < a for a, b in zip(vals, vals[1:]) if a > 1e-12)
                ok = vals[-1] < tol["mc_rel_residual"] and decay
                return _mc_record(cid, reports[-1], ok, tol["mc_rel_residual"], terms=rels)

            plans.append((cid, thunk))

    def z_record(cid, report):
        return _mc_record(cid, report, report.within(tol["z_max"]), tol["z_max"])

    def scaled_to(h, target):
        # pairings of two exponentials add their log-variances; keep the
        # combined weight lognormal mild so the sample mean is trustworthy
        if h.norm_sq <= target or h.norm_sq == 0.0:
            return h
        s = math.sqrt(target / h.norm_sq)
        return cm_element(spec, [(s * a, t) for a, t in h.coeffs], label=f"{h.label}s")

    if "s_transform_mc" in checks:
        obs_list = []
        g_mild = scaled_to(battery[0], 0.5)
        for h in battery[:3]:
            obs_list.append((h, Observable(kind="process", t=0.6 * spec.horizon, label="X_t")))
            obs_list.append((scaled_to(h, 1.0), Observable(kind="wick_exp", g=g_mild, label="wick_exp")))
        if tfs:
            obs_list.append((battery[0], Observable(kind="f", t=0.7 * spec.horizon, label="f")))
        if spec.records and float(spec.records[0].e_dminus_sq) > 0:
            obs_list.append((battery[0], Observable(kind="jump_pairing", jump_index=0, coeff=0.8, label="jump_pairing")))
        for k, (h, obs) in enumerate(obs_list):
            cid = f"mc_st:{spec.name}:{k}:{obs.label}:{h.label}"

            def thunk(h=h, obs=obs, cid=cid, k=k):
                case = ItoCase(spec, tfs[0], h, ys_tol=tol["ys_tol"])
                return z_record(cid, mc_s_transform(case, obs, int(mc_cfg["n_paths"]), base_seed + 2000 + k))

            plans.append((cid, thunk))

    if "hermite_p2" in checks:
        pairs = [(battery[0], battery[0])]
        if len(battery) > 1:
            pairs.append((battery[0], battery[1]))
        for k, (g, h) in enumerate(pairs):
            cid = f"mc_p2:{spec.name}:{k}:{g.label}:{h.label}"

            def thunk(g=g, h=h, cid=cid, k=k):
                return z_record(cid, hermite_p2_identity_mc(spec, g, h, int(mc_cfg["n_paths"]), base_seed + 3000 + k))

            plans.append((cid, thunk))

    if "path_qv" in checks and spec.pathwise_qv_cont is not None:
        cid = f"mc_qv:{spec.name}"

        def thunk(cid=cid):
            grid = Partition.uniform(0.0, spec.horizon, 2 ** int(mc_cfg["grid_depth"]))
            rep = path_qv_mc(spec, grid, int(mc_cfg["n_paths"]), base_seed + 4000)
            report = McReport(rep.mean_qv, rep.standard_error, rep.reference, rep.n_paths, base_seed + 4000)
            return z_record(cid, report)

        plans.append((cid, thunk))

    if "simple_skorokhod" in checks:
        cid = f"mc_sk:{spec.name}"

        def thunk(cid=cid):
            zero = cm_element(spec, [], label="one")
            mild = scaled_to(battery[0], 0.5)
            z = SimpleWickIntegrand(
                times=(0.0, 0.5 * spec.horizon, spec.horizon),
                open_coeffs=(mild, zero),
                node_coeffs=(zero, zero, zero),
            )
            return z_record(cid, simple_skorokhod_mc(spec, z, mild, int(mc_cfg["n_paths"]), base_seed + 5000))

        plans.append((cid, thunk))

    return plans


def _write_reports(out_dir: Path, report: dict, timings: dict | None) -> tuple[Path, Path]:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        if timings is not None:
            for case in report["cases"]:
                case["runtime_ms"] = timings.get(case["case_id"])
        report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")

        csv_path = out_dir / "terms.csv"
        with csv_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case_id", "term", "value", "residual_contribution"])
            for case in report["cases"]:
                if case["kind"] == "deterministic":
                    writer.writerow([case["case_id"], "lhs", repr(case["lhs"]), repr(case["lhs"])])
                    for term, value in case["terms"].items():
                        if term == "lhs":
                            continue
                        contrib = "" if term == "agreement_delta" else repr(-value)
                        writer.writerow([case["case_id"], term, repr(value), contrib])
                else:
                    mc = case["mc"]
                    if mc is not None:
                        writer.writerow([case["case_id"], "estimate", repr(mc["estimate"]), ""])
                        writer.writerow([case["case_id"], "reference", repr(mc["reference"]), ""])
                        writer.writerow([case["case_id"], "z_score", repr(mc["z_score"]), ""])
        return report_path, csv_path
    except OSError as exc:
        raise ConfigError(f"cannot write reports: {exc}") from exc


def run_scenario(scenario_path, out_dir=None, seed=None, jobs=1, timings=False, echo=print) -> int:
    """Execute a scenario file or bundled scenario name; returns the exit code."""
    scenario = _load_scenario(_resolve_scenario(scenario_path))
    out = Path(
        out_dir
        or os.environ.get(ENV_OUT_DIR)
        or scenario.get("output", {}).get("dir", "gaussito-out")
    )

    plans = _plan_cases(scenario, seed)
    results: dict[str, dict] = {}
    clocks: dict[str, float] = {}

    def execute(item):
        cid, thunk = item
        t0 = time.perf_counter()
        try:
            record = thunk()
        except UnsupportedModelError as exc:
            raise ConfigError(str(exc)) from exc
        return cid, record, (time.perf_counter() - t0) * 1e3

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for cid, record, ms in pool.map(execute, plans):
                results[cid] = record
                clocks[cid] = ms
    else:
        for item in plans:
            cid, record, ms = execute(item)
            results[cid] = record
            clocks[cid] = ms

    cases = [results[cid] for cid in sorted(results)]
    passed = sum(1 for c in cases if c["pass"])
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario_name": scenario["name"],
        "scenario_hash": _scenario_hash(scenario),
        "seed": effective_seed(scenario, seed),
        "cases": cases,
        "summary": {"total": len(cases), "passed": passed, "failed": len(cases) - passed},
    }
    report_path, csv_path = _write_reports(out, report, clocks if timings else None)

    for case in cases:
        tag = "PASS" if case["pass"] else "FAIL"
        if case["kind"] == "deterministic":
            echo(f"[{tag}] {case['case_id']} residual={case['residual']:.3e} tol={case['tolerance']:.1e} ({clocks[case['case_id']]:.0f} ms)")
        else:
            mc = case["mc"]
            echo(
                f"[{tag}] {case['case_id']} estimate={mc['estimate']:.6g} ref={mc['reference']:.6g} "
                f"z={mc['z_score']:.2f} ({clocks[case['case_id']]:.0f} ms)"
            )
    echo(f"{passed}/{len(cases)} cases passed -> {report_path}, {csv_path}")
    return 0 if passed == len(cases) else 1


def _cmd_list_catalog(echo=print) -> int:
    for entry in catalog_entries():
        echo(f"{entry.model_id} ({entry.params_doc})")
        echo(f"    {entry.description}")
        echo(f"    exercises: {entry.exercises}")
    echo(f"test functions: {', '.join(TEST_FUNCTION_IDS)} (plus custom 'poly' coefficients)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaussito",
        description="Verification batteries for a jump-aware Gaussian stochastic calculus.",
    )
    sub = parser.add_subparsers(dest="command")

    runp = sub.add_parser("run", help="execute a scenario JSON file")
    runp.add_argument("scenario", help="path to a scenario file, or a bundled name (smoke, full_jump_bm)")
    runp.add_argument("--out", help=f"output directory (overrides ${ENV_OUT_DIR} and the scenario)")
    runp.add_argument("--seed", type=int, help="override the scenario seed")
    runp.add_argument("--jobs", type=int, default=1, help="worker threads for case execution")
    runp.add_argument("--timings", action="store_true", help="embed per-case runtimes in the JSON report")

    sub.add_parser("list-catalog", help="print the model catalog")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "list-catalog":
        return _cmd_list_catalog()
    try:
        return run_scenario(args.scenario, out_dir=args.out, seed=args.seed, jobs=args.jobs, timings=args.timings)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
