"""Scenario-driven batch runner.

Loads a JSON scenario, instantiates the model and test-function battery,
executes the requested deterministic and Monte Carlo checks, and writes a
machine-readable JSON report plus a CSV with one row per right-hand-side term
so a failing case localizes to a term.  Reports are byte-identical for
identical (scenario, seed) pairs; wall-clock timings are only embedded when
explicitly requested.

Exit codes: 0 all cases pass, 1 at least one case failed, 2 configuration
error (schema violation, unknown ids, growth-bound violation, I/O problems).
The JSON report is strict JSON: a non-finite number is written as null,
and the case that produced it fails.
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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .gaussproc import (
    CatalogError,
    UnsupportedModelError,
    _check_gram_limit,
    catalog,
    catalog_entries,
    cm_element,
    path_qv_mc,
    path_qv_pairing,
)
from .heatkernel import GrowthBound, GrowthBoundError, TEST_FUNCTION_IDS, test_function
from .itoverify import (
    SimpleWickIntegrand,
    auto_cm_battery,
    f_pairing,
    hermite_p2_identity_mc,
    ito_rcll_residual,
    ito_stransform_residual,
    jump_pairing,
    martingale_ito_mc,
    mc_s_transform,
    pathwise_decay,
    simple_skorokhod_mc,
    wick_pairing,
)

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

_DEFAULT_TOLERANCES = {
    "polynomial": 1e-8,
    "transcendental": 1e-6,
    "ys_tol": 1e-11,
    "rcll_agreement": 1e-10,
    "z_max": 4.0,
}

# schema mutation flag -> what it knocks out: terms of the general residual,
# or the right-continuous form's xleft correction, which sits inside its jump term
_MUTATIONS = {
    "drop_jump_sum": ("left_jump_sum", "right_jump_sum"),
    "drop_dv_integral": ("integral_dv_half",),
    "drop_xleft_correction": ("xleft_correction",),
}

def _closed(properties: dict, *required: str) -> dict:
    """A JSON-schema object of these properties and no other, the ``required`` ones present."""
    return {"type": "object", **({"required": list(required)} if required else {}), "additionalProperties": False, "properties": properties}


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_closed(
        {
            "schema_version": {"const": 1},
            "name": {"type": "string", "minLength": 1},
            "model": _closed({"id": {"type": "string"}, "params": {"type": "object"}}, "id"),
            "test_functions": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "oneOf": [
                        {"type": "string"},
                        _closed({"poly": {"type": "array", "items": {"type": "number"}, "minItems": 1}}, "poly"),
                        _closed({"id": {"type": "string"}, "a": {"type": "number", "minimum": 0}}, "id", "a"),
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
                            "items": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
                        },
                    },
                ]
            },
            "checks": {"type": "array", "items": {"enum": list(CHECK_IDS)}, "minItems": 1},
            "tolerances": _closed({name: {"type": "number", "exclusiveMinimum": 0} for name in _DEFAULT_TOLERANCES}),
            "mc": _closed(
                {
                    "seed": {"type": "integer", "minimum": 0},
                    "n_paths": {"type": "integer", "minimum": 2},
                    "grid_depth": {"type": "integer", "minimum": 2, "maximum": 14},
                }
            ),
            "mutations": _closed({name: {"type": "boolean"} for name in _MUTATIONS}),
            "output": _closed({"dir": {"type": "string"}}),
        },
        "schema_version",
        "name",
        "model",
    ),
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


def _finite(parse):
    # json reads NaN, Infinity and literals beyond the float range (1e999, or
    # an integer of 400 digits), and the schema takes each for a number
    def checked(token: str):
        if not math.isfinite(float(token)):
            raise ConfigError(f"scenario holds a non-finite number: {token}")
        return parse(token)

    return checked


def _load_scenario(path: Path) -> dict:
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    try:
        scenario = json.loads(raw, parse_float=_finite(float), parse_int=_finite(int), parse_constant=_finite(float))
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
    out, seen = [], {}
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
        # every check's test functions, checked once, before any work starts
        tf.check_growth(lam)
        out.append(tf)
    return out


def _build_battery(scenario, spec):
    cfg = scenario.get("cm_elements", "auto")
    if cfg == "auto":
        return auto_cm_battery(spec)
    return [cm_element(spec, [(a, t) for a, t in combo], label=f"h{k}") for k, combo in enumerate(cfg)]


def _case_record(case_id, ok, tolerance, terms, result=None, residual=None, report=None, z_score=None):
    """A deterministic case from its ``result`` and ``residual``, or a Monte Carlo one from its
    ``report``; ``z_score`` only for the z-gated checks, whose verdict reads it."""
    mc = lhs = diagnostics = None
    if result is not None:
        lhs = result.lhs
        # n_cells and rounds count the partition the cases of one pairing element share
        diagnostics = {
            name: {"converged": r.converged, "error_estimate": r.error_estimate, "n_cells": r.n_cells, "rounds": r.rounds}
            for name, r in (("integral_dhbar", result.int_u1), ("integral_dv_half", result.int_u2))
        }
    if report is not None:
        mc = {
            "estimate": report.estimate,
            "standard_error": report.standard_error,
            "reference": report.reference,
            "z_score": z_score,
            "n_paths": report.n_paths,
            "seed": report.seed,
        }
        # records that read one draw show the same seed and counts
        points, batches = report.grid_points, report.batches
        diagnostics = {"grid_points": points, "batches": batches, "path_points": report.n_paths * points}
    return {
        "case_id": case_id,
        "kind": "deterministic" if report is None else "mc",
        "pass": bool(ok),
        "residual": residual,
        "tolerance": tolerance,
        "lhs": lhs,
        "terms": terms,
        "mc": mc,
        "diagnostics": diagnostics,
    }


DEFAULT_SEED = 20250809


def effective_seed(scenario: dict, seed=None) -> int:
    if seed is not None:
        return int(seed)
    return int(scenario.get("mc", {}).get("seed", DEFAULT_SEED))


def _plan_cases(scenario, seed, batch_map=map):
    """Plan every check of the scenario, raising each ``ConfigError`` before any check runs, and return an
    iterator that runs the plan items in turn and yields each item's report-case dicts; batches run through ``batch_map``."""
    model = scenario["model"]
    try:
        spec = catalog(model["id"], **model.get("params", {}))
    except CatalogError as exc:
        raise ConfigError(str(exc)) from exc

    tol = dict(_DEFAULT_TOLERANCES)
    tol.update(scenario.get("tolerances", {}))
    mc_cfg = {"n_paths": 20000, "grid_depth": 10}
    mc_cfg.update(scenario.get("mc", {}))
    n_paths, depth = int(mc_cfg["n_paths"]), int(mc_cfg["grid_depth"])
    base_seed = effective_seed(scenario, seed)
    checks = scenario.get("checks", ["ito_stransform"])
    dropped = {term for name, on in scenario.get("mutations", {}).items() if on for term in _MUTATIONS[name]}

    qv = "path_qv" in checks and spec.rcll
    grid = np.union1d(np.linspace(0.0, spec.horizon, 2**depth + 1), spec.record_times())
    mc_ito = "martingale_ito" in checks
    if mc_ito:
        try:
            pathwise_decay(spec, grid)
        except UnsupportedModelError:
            # a model the check cannot decay on is skipped, as ito_rcll is
            mc_ito = False

    try:
        tfs = _build_test_functions(scenario.get("test_functions", ["x2"]), spec.lam)
        battery = _build_battery(scenario, spec)
        if mc_ito or qv:
            _check_gram_limit(spec, len(grid))
    except (GrowthBoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    kinds = (["ito"] if "ito_stransform" in checks else []) + (["rcll"] if "ito_rcll" in checks and spec.rcll else [])

    def scaled_to(h, target):
        # pairings of two exponentials add their log-variances; keep the
        # combined weight lognormal mild so the sample mean is trustworthy
        if h.norm_sq <= target:
            return h
        s = math.sqrt(target / h.norm_sq)
        return cm_element(spec, [(s * a, t) for a, t in h.coeffs], label=f"{h.label}s")

    # z-gated pairing checks: (case id, McReport estimator with every argument bound)
    pairings = []
    if "s_transform_mc" in checks:
        g_mild, x = scaled_to(battery[0], 0.5), test_function("x", spec.lam)
        labelled = []
        for h in battery[:3]:
            h1 = scaled_to(h, 1.0)
            labelled += [("X_t", h, f_pairing(spec, h, x, 0.6 * spec.horizon)), ("wick_exp", h1, wick_pairing(spec, h1, g_mild))]
        labelled.append(("f", battery[0], f_pairing(spec, battery[0], tfs[0], 0.7 * spec.horizon)))
        if spec.records and float(spec.records[0].e_dminus_sq) > 0:
            labelled.append(("jump_pairing", battery[0], jump_pairing(spec, battery[0], 0, 0.8)))
        for k, (label, h, pairing) in enumerate(labelled):
            cid = f"mc_st:{spec.name}:{k}:{label}:{h.label}"
            pairings.append((cid, partial(mc_s_transform, spec, pairing, n_paths, base_seed + 2000 + k, batch_map)))

    if "hermite_p2" in checks:
        pairs = [(battery[0], battery[0])]
        if len(battery) > 1:
            pairs.append((battery[0], battery[1]))
        for k, (g, h) in enumerate(pairs):
            cid = f"mc_p2:{spec.name}:{k}:{g.label}:{h.label}"
            pairings.append((cid, partial(hermite_p2_identity_mc, spec, g, h, n_paths, base_seed + 3000 + k, batch_map)))

    # path_qv reads the pathwise draw (the dyadic grid joined with the discontinuity times, at its seed), beside the check or alone
    beside = [path_qv_pairing(spec, grid)] if qv and mc_ito else []
    if qv and not mc_ito:
        pairings.append((f"mc_qv:{spec.name}", partial(path_qv_mc, spec, grid, n_paths, base_seed + 1000, batch_map)))

    if "simple_skorokhod" in checks:
        zero = cm_element(spec, [], label="one")
        mild = scaled_to(battery[0], 0.5)
        z = SimpleWickIntegrand(
            times=(0.0, 0.5 * spec.horizon, spec.horizon),
            open_coeffs=(mild, zero),
            node_coeffs=(zero, zero, zero),
        )
        pairings.append((f"mc_sk:{spec.name}", partial(simple_skorokhod_mc, spec, z, mild, n_paths, base_seed + 5000, batch_map)))

    # checks a model cannot run are skipped; a scenario left with none verifies nothing
    if not (kinds or mc_ito or pairings):
        raise ConfigError(f"model {model['id']} runs none of the requested checks ({', '.join(checks)})")

    z_gated = lambda cid, report: _case_record(cid, report.within(tol["z_max"]), tol["z_max"], {}, report=report, z_score=report.z_score)

    def run():
        # one chain-rule run per pairing element serves every test function and both deterministic checks
        for h in battery if kinds else ():
            records = []
            for tf, general in zip(tfs, ito_stransform_residual(spec, h, tfs, ys_tol=tol["ys_tol"])):
                # a test function's kind names its tolerance
                tol_f, cid = tol[tf.kind], f"{spec.name}:{tf.name}:{h.label}"
                if "ito" in kinds:
                    terms = general.terms()
                    residual = terms["lhs"] - math.fsum(v for k, v in terms.items() if k != "lhs" and k not in dropped)
                    ok = general.converged and abs(residual) < tol_f
                    records.append(_case_record(f"ito:{cid}", ok, tol_f, terms, general, residual))
                if "rcll" in kinds:
                    res = ito_rcll_residual(general, drop_xleft_correction="xleft_correction" in dropped)
                    delta = abs(res.residual - general.residual)
                    ok = res.converged and abs(res.residual) < tol_f and delta < tol["rcll_agreement"]
                    terms = {**res.terms(), "agreement_delta": delta}
                    records.append(_case_record(f"rcll:{cid}", ok, tol_f, terms, res, res.residual))
            yield records
        if mc_ito:
            # one coupled draw serves every test function, until every verdict is resolved to pass, and path_qv to the cap
            cases = martingale_ito_mc(spec, tfs, depth, n_paths, base_seed + 1000, tol["z_max"], batch_map, beside)
            yield [
                _case_record(f"mc_ito:{spec.name}:{tf.name}", ok, required, terms, report=report)
                for tf, (ok, required, terms, report) in zip(tfs, cases)
            ] + [z_gated(f"mc_qv:{spec.name}", report) for report in cases[len(tfs) :]]
        for cid, estimate in pairings:
            yield [z_gated(cid, estimate())]

    return run()


def _strict_json(obj):
    """``obj`` with every non-finite float replaced by None, so it serializes as strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict_json(v) for v in obj]
    return obj


def _write_reports(out_dir: Path, report: dict) -> tuple[Path, Path]:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        text = json.dumps(_strict_json(report), sort_keys=True, indent=2, allow_nan=False)
        report_path.write_text(text + "\n", encoding="utf-8")

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
                    writer.writerow([case["case_id"], "estimate", repr(mc["estimate"]), ""])
                    writer.writerow([case["case_id"], "reference", repr(mc["reference"]), ""])
                    if mc["z_score"] is not None:
                        writer.writerow([case["case_id"], "z_score", repr(mc["z_score"]), ""])
        return report_path, csv_path
    except OSError as exc:
        raise ConfigError(f"cannot write reports: {exc}") from exc


def _ordered_map(pool: ThreadPoolExecutor, in_flight: int):
    """A ``map`` over ``pool`` that yields in order, with at most ``in_flight`` calls submitted and not yet yielded;
    closed early, or on a raising call, it cancels those of its calls that have not started."""

    def ordered(fn, items):
        pending = deque()
        try:
            for item in items:
                if len(pending) == in_flight:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()

    return ordered


def run_scenario(scenario_path, out_dir=None, seed=None, jobs=1, timings=False, echo=print) -> int:
    """Execute a scenario file or bundled scenario name; returns the exit code."""
    # the schema's mc.seed >= 0 rule holds for an overriding seed too
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    scenario = _load_scenario(_resolve_scenario(scenario_path))
    out = Path(out_dir or os.environ.get(ENV_OUT_DIR) or scenario.get("output", {}).get("dir", "gaussito-out"))

    results, clocks = {}, {}
    # the plan items run here, one after the other, and the pool's threads, one per CPU at most,
    # only their Monte Carlo batches, so no item waits on a pool it occupies
    workers = min(jobs, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        plan = _plan_cases(scenario, seed, map if workers == 1 else _ordered_map(pool, 2 * workers))
        t0 = time.perf_counter()
        try:
            for records in plan:
                # every record of a plan item gets the item's whole runtime, the time since the last yield
                ms = (time.perf_counter() - t0) * 1e3
                for record in records:
                    results[record["case_id"]] = record
                    clocks[record["case_id"]] = ms
                    if timings:
                        record["runtime_ms"] = ms
                t0 = time.perf_counter()
        except UnsupportedModelError as exc:
            raise ConfigError(str(exc)) from exc

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
    report_path, csv_path = _write_reports(out, report)

    for case in cases:
        tag = "PASS" if case["pass"] else "FAIL"
        if case["kind"] == "deterministic":
            echo(f"[{tag}] {case['case_id']} residual={case['residual']:.3e} tol={case['tolerance']:.1e} ({clocks[case['case_id']]:.0f} ms)")
        else:
            mc = case["mc"]
            if mc["z_score"] is None:
                verdict = f"rel={mc['estimate']:.6g} log2_decay={case['terms']['log2_decay']:.3g} tol={case['tolerance']:.3g}"
            else:
                verdict = f"estimate={mc['estimate']:.6g} ref={mc['reference']:.6g} z={mc['z_score']:.2f}"
            echo(f"[{tag}] {case['case_id']} {verdict} ({clocks[case['case_id']]:.0f} ms)")
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
    runp.add_argument("--jobs", type=int, default=1, help="worker threads for Monte Carlo batches, at most the CPU count")
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
