"""Benchmark client: runs in a fresh interpreter started by ``run.py``.

    python3 perfbench/client.py setup PLAN
    python3 perfbench/client.py passes PLAN --seconds S --trace 0|1

``PLAN`` is a JSON file written by ``run.py``: the source directory of the
package, the workload's scenarios (a scenario file or a bundled scenario
name, as ``run_scenario`` takes it, and an output directory) and the path
the spans are written to.

``setup`` imports ``gaussito.cli``, loads and schema-checks every scenario
and builds its model, test functions and pairing elements with the public
API, then prints the ``time.perf_counter()`` reading at that moment (the
system-wide monotonic clock, so the parent can subtract its own reading
taken before starting the child).

``passes`` runs the workload's scenarios back to back through
``gaussito.cli.run_scenario`` (a closed loop with one client) until the
time is up.  The first pass runs at ``--jobs 1`` in the fresh process and
gives the peak RSS.  Untraced, passes then alternate between ``--jobs 1``
and ``--jobs 2``, each preceded by one ``setup`` child; traced, passes
alternate between traced and untraced at ``--jobs 1``.  Every pass is
checked: each case passes, and every ``report.json`` is byte-identical to
the first one written for its scenario.  The last stdout line is a JSON
object with the samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SETUP_TIMEOUT_S = 60


def _import_package(plan: dict):
    sys.path.insert(0, plan["src"])
    import gaussito.cli

    return gaussito.cli


def _scenario_dict(scenario: str) -> dict:
    """The scenario file, or the bundled scenario of that name."""
    from importlib import resources

    path = Path(scenario)
    if not path.is_file():
        path = resources.files("gaussito") / "scenarios" / f"{scenario}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def setup(plan: dict) -> None:
    cli = _import_package(plan)
    import jsonschema

    from gaussito import auto_cm_battery, catalog, cm_element
    from gaussito.heatkernel import test_function

    validator = jsonschema.Draft202012Validator(cli.SCENARIO_SCHEMA)
    for entry in plan["scenarios"]:
        scenario = _scenario_dict(entry["scenario"])
        validator.validate(scenario)
        model = scenario["model"]
        spec = catalog(model["id"], **model.get("params", {}))
        for name in scenario.get("test_functions", ["x2"]):
            test_function(name, spec.lam)
        elements = scenario.get("cm_elements", "auto")
        if elements == "auto":
            auto_cm_battery(spec)
        else:
            for k, combo in enumerate(elements):
                cm_element(spec, [(a, t) for a, t in combo], label=f"h{k}")
    print(json.dumps({"ready": time.perf_counter()}))


class Checker:
    """Counts attempted and failed cases, and report mismatches, over all passes."""

    def __init__(self):
        self.reference: dict[str, bytes] = {}
        self.size: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def config_error(self, name: str, exc: Exception) -> None:
        # a configuration error fails every case of the scenario
        n = self.size.get(name, 1)
        self.attempted += n
        self.failed += n
        self.notes.append(f"{name}: configuration error: {exc}")

    def check(self, name: str, code: int, out_dir: Path) -> int:
        """Check one scenario's outputs; returns the bytes of the reports written."""
        raw = (out_dir / "report.json").read_bytes()
        report = json.loads(raw)
        cases = {c["case_id"]: c for c in report["cases"]}
        bad = {cid for cid, c in cases.items() if not c["pass"]}
        if bad:
            self.notes.append(f"{name}: failed cases {sorted(bad)[:5]}")
        if (code == 0) != (not bad):
            self.notes.append(f"{name}: exit code {code} disagrees with the case verdicts")
            bad.add("<exit code>")
        ref = self.reference.setdefault(name, raw)
        self.size.setdefault(name, len(cases))
        if raw != ref:
            ref_cases = {c["case_id"]: c for c in json.loads(ref)["cases"]}
            differ = {cid for cid in cases.keys() | ref_cases.keys() if cases.get(cid) != ref_cases.get(cid)}
            where = f"{len(differ)} cases" if differ else "fields outside the cases"
            self.notes.append(f"{name}: report.json differs from the first pass in {where}")
            bad |= differ or {"<report>"}
        self.attempted += max(len(cases), 1)
        self.failed += min(len(bad), max(len(cases), 1))
        return len(raw) + (out_dir / "terms.csv").stat().st_size


def setup_sample(plan_path: str) -> float:
    """Seconds from starting a fresh interpreter until it has set up the workload."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, "setup", plan_path], stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def passes(plan: dict, plan_path: str, seconds: float, trace: bool) -> None:
    cli = _import_package(plan)
    checker = Checker()

    def one_pass(jobs: int, tracer=None) -> tuple[float, int]:
        report_bytes = 0
        t0 = time.perf_counter()
        for entry in plan["scenarios"]:
            if tracer is not None:
                tracer.set_scenario(entry["name"])
            out_dir = Path(entry["out"])
            try:
                code = cli.run_scenario(entry["scenario"], out_dir=out_dir, jobs=jobs, echo=_silent)
            except cli.ConfigError as exc:
                checker.config_error(entry["name"], exc)
                continue
            report_bytes += checker.check(entry["name"], code, out_dir)
        return time.perf_counter() - t0, report_bytes

    # the first pass, in the fresh process, gives the peak RSS; it also pays
    # one-time costs of the process (a first Cholesky factorization starts
    # the BLAS threads), so it is not a wall time sample
    start = time.perf_counter()
    first, _ = one_pass(1)
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def more() -> bool:
        return time.perf_counter() - start + first <= seconds

    if not trace:
        # set-up samples are spread over the run, between passes, so they see
        # the same machine conditions as the passes
        setup, samples = [], {1: [], 2: []}
        while not samples[1] or not samples[2] or more():
            jobs = 1 if len(samples[1]) <= len(samples[2]) else 2
            setup.append(setup_sample(plan_path))
            samples[jobs].append(one_pass(jobs)[0])
        result.update(setup_s=setup, wall_s=samples[1], wall_s_jobs2=samples[2])
    else:
        from tracing import Tracer

        untraced, traced, layers = [], [], []
        while not untraced or more():
            tracer = Tracer()
            tracer.install()
            try:
                wall, report_bytes = one_pass(1, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(dict(tracer.summary(), **{"cli.report_bytes": report_bytes}))
            untraced.append(one_pass(1)[0])
        tracer.write(plan["spans"])
        result.update(wall_s=untraced, wall_s_traced=traced, layers=layers)
    result.update(attempted=checker.attempted, failed=checker.failed, notes=checker.notes)
    print(json.dumps(result))


def _silent(*_args, **_kwargs) -> None:
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    if args.mode == "setup":
        setup(plan)
    else:
        passes(plan, args.plan, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
