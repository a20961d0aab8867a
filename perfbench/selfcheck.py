"""Checks of the benchmark itself; exits 0 when all hold.

    python3 perfbench/selfcheck.py

* Every traced function is rebound at every place a gaussito module holds
  it, and uninstalling restores the originals.
* A traced run of the bundled ``smoke`` scenario (one closed-form case)
  counts exactly one ``integrate_ys`` and one ``integrate_ls`` call.
* A reduced-size run of each workload, untraced and traced, emits exactly
  the metrics ``BENCHMARK.json`` names, fails no case, and writes the same
  ``report.json`` in traced, untraced, ``--jobs 1`` and ``--jobs 2`` passes
  (the client counts any difference as a failed case).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def check_bindings() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import gaussito  # noqa: F401  (loads every submodule)
    import gaussito.cli
    from tracing import FUNCTIONS, REGULATED_METHODS, Tracer

    originals = {
        (module, attr): getattr(sys.modules[module], attr) for targets in FUNCTIONS.values() for module, attr in targets
    }
    modules = [m for k, m in sys.modules.items() if k == "gaussito" or k.startswith("gaussito.")]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            holders = [m.__name__ for m in modules for v in vars(m).values() if v is original]
            require(not holders, f"{module}.{attr} still bound unwrapped in {holders}")
        regulated = sys.modules["gaussito.regulated"].RegulatedFunction
        for method in REGULATED_METHODS:
            require(hasattr(getattr(regulated, method), "__wrapped__"), f"RegulatedFunction.{method} not wrapped")
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        require(getattr(sys.modules[module], attr) is original, f"{module}.{attr} not restored")


def check_smoke_counts() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        plan = Path(tmp) / "plan.json"
        entry = {"name": "smoke", "scenario": "smoke", "out": str(Path(tmp) / "smoke")}
        plan.write_text(json.dumps({"src": str(ROOT / "src"), "scenarios": [entry], "spans": str(Path(tmp) / "spans.npz")}))
        res = _last_json([sys.executable, str(HERE / "client.py"), "passes", str(plan), "--trace", "1"])
        require(res["failed"] == 0, f"smoke: {res['notes']}")
        layers = res["layers"][0]
        for name in ("stieltjes.integrate_ys.calls", "stieltjes.integrate_ls.calls"):
            require(layers[name] == 1, f"smoke: {name} = {layers[name]}, expected 1")


def check_reduced_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0"]
            res = _last_json(cmd + ["--trace", str(trace), "--reduced"])
            require(res["correct"] and res["failed"] == 0, f"{workload} trace={trace}: {res}")
            got = set(res["metrics"])
            require(got == expected[trace], f"{workload} trace={trace}: missing {expected[trace] - got}, extra {got - expected[trace]}")


def _last_json(cmd: list[str]) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    require(proc.returncode == 0, f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n{proc.stdout}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    for check in (check_bindings, check_smoke_counts, check_reduced_runs):
        check()
        print(f"ok: {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
