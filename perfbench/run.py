"""gaussito benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workloads are defined in ``workloads.py`` (see
``BENCHMARK.json`` for why each was chosen).  This starts one client, a
fresh interpreter running ``client.py``, which runs passes over the
workload's scenarios for ``--seconds`` and exits before this does:

* ``--trace 0``: reports ``setup_s`` (fresh set-up children started by the
  client between passes), ``wall_s``, ``wall_s_jobs2`` and ``peak_rss_mb``.
* ``--trace 1``: alternates traced and untraced passes at ``--jobs 1``;
  reports the per-layer metrics (median over traced passes) and
  ``trace.overhead_frac``.  The spans of the last traced pass are written
  to ``perfbench/out/<workload>/spans.npz``.

Each metric is printed with its unit, sample count and quartiles; the last
stdout line is the JSON result.  A failing case, a configuration error or a
``report.json`` that differs between passes counts in ``failed``; then the
result says ``"correct": false`` and the exit code is 1.  Generated
scenarios and reports go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CLIENT_TIMEOUT_S = 150


def write_plan(workload: str, seed: int, reduced: bool = False) -> Path:
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenarios = []
    for name, scenario in workloads.build(workload, seed, reduced):
        if isinstance(scenario, dict):
            path = work / f"{name}.json"
            path.write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
            scenario = str(path)
        scenarios.append({"name": name, "scenario": scenario, "out": str(work / "reports" / name)})
    plan = {"src": str(SRC), "scenarios": scenarios, "spans": str(work / "spans.npz")}
    path = work / "plan.json"
    path.write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return path


def client(*args: str) -> dict:
    """Run ``client.py`` with ``args``; returns its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "client.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=CLIENT_TIMEOUT_S,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"client {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def measure(workload: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    """One run: the samples of each metric and the case counts."""
    plan = str(write_plan(workload, seed, reduced))
    res = client("passes", plan, "--seconds", str(seconds), "--trace", str(int(trace)))
    if trace:
        samples = {name: [layer[name] for layer in res["layers"]] for name in res["layers"][0]}
        samples["trace.overhead_frac"] = [
            statistics.median(res["wall_s_traced"]) / statistics.median(res["wall_s"]) - 1.0
        ]
    else:
        samples = {name: res[name] for name in ("setup_s", "wall_s", "wall_s_jobs2")}
        samples["peak_rss_mb"] = [res["peak_rss_mb"]]
    return {"samples": samples, "attempted": res["attempted"], "failed": res["failed"], "notes": res["notes"]}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussito benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="small inputs, for the benchmark's own checks")
    args = parser.parse_args(argv)
    if not (SRC / "gaussito" / "__init__.py").is_file():
        print(f"gaussito sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    declared = declared_metrics(bool(args.trace))
    if set(declared) != set(run["samples"]):
        print(f"measured metrics {sorted(run['samples'])} differ from BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 2
    for note in run["notes"]:
        print(f"check: {note}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: failed_frac={failed / attempted:.6g} ({failed}/{attempted} cases)")
    metrics = {}
    for name, unit in declared.items():
        d = describe(run["samples"][name])
        print(f"  {name} = {d['median']:.6g} {unit} (n={d['n']}, q1={d['q1']:.6g}, q3={d['q3']:.6g})")
        metrics[name] = {"value": d["median"], "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
