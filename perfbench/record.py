"""Run every workload untraced and traced, print the metrics, write the run record.

    python3 perfbench/record.py [--seed N] [--seconds S] [--out PATH]

Prints ``setup_s``, ``wall_s``, ``wall_s_jobs2``, ``peak_rss_mb`` and
``failed_frac`` with units, sample counts and quartiles for each workload,
then the per-layer metrics of a separate traced run.  Writes a JSON record
(default ``perfbench/out/record.json``) with the machine, the Python and
numpy versions, the git SHA, the seed, each workload's inputs and reason,
the layer -> metric -> workload map, the cases the workloads leave out, and
the results.  ``perfbench/record.json`` is such a record, committed as the
first baseline.  Exits 1 when a case failed or a report differed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from pathlib import Path

import run
import workloads

# layer metric prefix -> (end-to-end metrics it should move, the workloads it moves on)
LAYER_MAP = {
    "heatkernel.psi (.calls, .points, .self_s)": (
        ["wall_s"],
        "det_identity; no move on mc_paths",
    ),
    "stieltjes (integrate_ys/integrate_ls .calls/.self_s, .cells, .not_converged)": (
        ["wall_s", "failed_frac"],
        "det_identity (mostly fbm(0.3)); no move on mc_paths",
    ),
    "regulated.eval (.calls, .points, .self_s)": (["wall_s"], "det_identity"),
    "gaussproc.cov (.calls, .self_s)": (["wall_s"], "det_identity; the Gram part of mc_paths"),
    "gaussproc.simulate_paths (.calls, .self_s, .path_points)": (
        ["wall_s", "wall_s_jobs2", "peak_rss_mb"],
        "mc_paths, full_jump_bm; no move on det_identity",
    ),
    "gaussproc.path_qv_mc/.catalog/.cm_element (.self_s)": (["wall_s", "setup_s"], "mc_paths; all"),
    "itoverify.ito_stransform_residual/.ito_rcll_residual (.calls, .self_s)": (["wall_s"], "det_identity"),
    "itoverify.martingale_ito_mc (.calls, .self_s), itoverify.mc_pairing.self_s": (
        ["wall_s", "peak_rss_mb"],
        "mc_paths, full_jump_bm",
    ),
    "cli.run_scenario.self_s, cli.report_bytes": (["wall_s", "setup_s"], "full_jump_bm"),
    "trace.overhead_frac": ([], "all"),
}

EXCLUDED = [
    {
        "case": "fbm(H=0.2), deterministic battery",
        "why": "the scenario took 335 s; x3:h0 did not converge after 125 s (ito) and 237 s (rcll, which recomputes the ito residual)",
        "until": "the adaptive integrator fails fast on algebraic cusps",
    },
    {
        "case": "martingale_ito at depth 12 with 20k paths",
        "why": "3.8 GB peak RSS per case",
        "until": "Monte Carlo is streamed in batches",
    },
    {
        "case": "Monte Carlo checks at other seeds than the program's default (20250809)",
        "why": (
            "the |z| <= 4 gates fail at random: over 200 seeds, 2 failed for the mc_paths jump_bm scenario "
            "(simple_skorokhod |z| = 4.21, s_transform_mc X_t 4.59) and 3 for its fbm(H=0.5) scenario "
            "(hermite_p2 5.1, simple_skorokhod 4.72); 1 of 330 seeds failed for full_jump_bm (simple_skorokhod). "
            "simple_skorokhod alone over 4000 seeds: P(|z| > 4) = 0.13% (full_jump_bm), 0.08% (mc_paths jump_bm), "
            "0.2% (mc_paths fbm); its z is skewed, below -3 in 0.8-1.4% of seeds and never above 3"
        ),
        "until": "the Monte Carlo verdicts allow for skewed, heavy-tailed estimators",
    },
]


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or "unknown", "mem_total_kb": None}
    cpuinfo, meminfo = Path("/proc/cpuinfo"), Path("/proc/meminfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    if meminfo.is_file():
        for line in meminfo.read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["mem_total_kb"] = int(line.split()[1])
                break
    return info


def versions() -> dict:
    import numpy

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return {"python": platform.python_version(), "numpy": numpy.__version__, "git_sha": sha.stdout.strip() or "unknown"}


def inputs(workload: str, seed: int) -> list[dict]:
    return [{"name": name, "scenario": scenario} for name, scenario in workloads.build(workload, seed)]


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=str(run.OUT / "record.json"))
    args = parser.parse_args(argv)

    record = {
        "machine": machine(),
        "versions": versions(),
        "seed": args.seed,
        "seconds": args.seconds,
        "layer_map": {k: {"moves": moves, "on": on} for k, (moves, on) in LAYER_MAP.items()},
        "excluded": EXCLUDED,
        "workloads": {},
    }
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        entry = {"why": w["why"], "inputs": inputs(name, args.seed)}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run.measure(name, args.seed, args.seconds, trace)
            ok &= res["failed"] == 0
            entry[key] = {m: dict(run.describe(res["samples"][m]), unit=u) for m, u in run.declared_metrics(trace).items()}
            entry[key]["failed_frac"] = {"value": res["failed"] / res["attempted"], "attempted": res["attempted"], "unit": "frac"}
            entry.setdefault("notes", []).extend(res["notes"])
        record["workloads"][name] = entry
        print(f"{name} (seed {args.seed}, {args.seconds:g} s per run)")
        for key in ("end_to_end", "per_layer"):
            print(f"  {key.replace('_', '-')}{' (traced run)' if key == 'per_layer' else ''}:")
            for metric, d in entry[key].items():
                if "median" in d:
                    print(f"    {metric:42s} {d['median']:12.6g} {d['unit']:5s} n={d['n']} q1={d['q1']:.6g} q3={d['q3']:.6g}")
                else:
                    print(f"    {metric:42s} {d['value']:12.6g} {d['unit']:5s} of {d['attempted']} cases")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
