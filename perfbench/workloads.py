"""Workload definitions: the scenario files each workload runs, made from a seed.

Only the standard library is used here, so the orchestrator can write the
scenarios without importing the package under test.  A workload is a list of
``(name, scenario)`` pairs: ``scenario`` is a scenario dict (written to a
JSON file) or the name of a bundled scenario.

The benchmark seed chooses the pairing elements of ``det_identity``.  The
Monte Carlo scenarios run at the program's default seed, whatever the
benchmark seed: their |z| <= 4 gates fail at random for some seeds (the
Wick-exponential and Hermite estimators are skewed and heavy-tailed), in
about 1.5% of seeds for the fbm(H=0.5) scenario of ``mc_paths`` at 4k paths,
so seeded Monte Carlo would make benchmark runs fail at random.
``perfbench/record.json`` lists the measured rates.
"""

from __future__ import annotations

import random

HORIZON = 1.0
JUMPS = [[0.3, 0.2], [0.7, 0.3]]

# (scenario name, model id, params, ito_rcll admitted)
DET_MODELS = (
    ("evanescent", "evanescent", {"s0": 0.5}, False),
    ("fbm_h07", "fbm", {"hurst": 0.7}, True),
    ("fbm_h03", "fbm", {"hurst": 0.3}, True),
    ("coupled", "coupled_jump_bm", {"c": 1.0, "s0": 0.5}, True),
    ("jump_bm", "jump_bm", {"jumps": JUMPS}, True),
)
DET_TEST_FUNCTIONS = ["x", "x2", "x3", "sin", "exp"]

MC_CHECKS = ["martingale_ito", "path_qv", "s_transform_mc", "hermite_p2", "simple_skorokhod"]

# Every workload calls every traced layer at least once, so that no per-layer
# time is a constant zero.  These probes take about 1% of a pass: det_identity
# runs this Monte Carlo scenario (F(x) = x on Brownian motion, where the
# pathwise identity is exact), and mc_paths adds the two deterministic checks
# on its fbm(H=0.5) scenario.
MC_PROBE = {
    "schema_version": 1,
    "name": "det-mc-probe",
    "model": {"id": "brownian"},
    "test_functions": ["x"],
    "cm_elements": [[[1.0, 1.0]]],
    "checks": ["martingale_ito", "path_qv", "hermite_p2"],
    "mc": {"n_paths": 20000, "grid_depth": 4},
}
DET_PROBE_CHECKS = ["ito_stransform", "ito_rcll"]


def pairing_elements(seed: int, tag: str, model_id: str, params: dict) -> list:
    """Pairing elements in the shape ``auto_cm_battery`` uses, jittered by the seed.

    Three generic elements (one point at T, one interior point, three points
    with mixed signs), then for each discontinuity time s one element with a
    point at s and one just after, and one with a point just before and one
    at s.  Coefficients and off-jump times vary with the seed; points at the
    discontinuity times stay put, since those are the cases the jump terms
    need.
    """
    # string seeding is stable across interpreters (no hash randomization)
    rng = random.Random(f"perfbench:{seed}:{tag}")
    u = rng.uniform
    T = HORIZON
    combos = [
        [[u(0.8, 1.2), T]],
        [[u(0.6, 1.0), u(0.3, 0.5) * T]],
        [[u(0.4, 0.8), u(0.15, 0.35) * T], [-u(0.3, 0.7), u(0.7, 0.9) * T], [u(0.2, 0.4), T]],
    ]
    if model_id == "jump_bm":
        times = [s for s, _ in params["jumps"]]
    elif model_id == "coupled_jump_bm":
        times = [params["s0"]]
    else:
        times = []
    for s in times:
        hi = min(T, s + u(0.15, 0.25) * T)
        lo = max(0.05 * T, s - u(0.15, 0.25) * T)
        combos.append([[u(0.5, 0.9), s], [u(0.3, 0.5), hi]])
        combos.append([[u(0.4, 0.6), lo], [-u(0.5, 0.7), s]])
    return combos


def _det_identity(seed: int, reduced: bool):
    models = DET_MODELS[:2] if reduced else DET_MODELS
    tfs = DET_TEST_FUNCTIONS[:2] if reduced else DET_TEST_FUNCTIONS
    out = []
    for name, model_id, params, rcll in models:
        # evanescent's cost jumps with its pairing elements (its windows are
        # dyadic), moving the peak RSS by up to 15% from seed to seed; it
        # keeps the auto battery
        elements = "auto" if model_id == "evanescent" else pairing_elements(seed, name, model_id, params)
        scenario = {
            "schema_version": 1,
            "name": f"det-{name}",
            "model": {"id": model_id, "params": dict(params)},
            "test_functions": list(tfs),
            "cm_elements": elements,
            "checks": ["ito_stransform", "ito_rcll"] if rcll else ["ito_stransform"],
        }
        out.append((name, scenario))
    out.append(("mc_probe", MC_PROBE))
    return out


def _mc_paths(seed: int, reduced: bool):
    # reduced runs keep the path counts, so their Monte Carlo verdicts match
    depth = 8 if reduced else 10
    return [
        (
            "jump_bm",
            {
                "schema_version": 1,
                "name": "mc-jump-bm",
                "model": {"id": "jump_bm", "params": {"jumps": JUMPS}},
                "test_functions": ["x", "x2", "sin"],
                "cm_elements": "auto",
                "checks": list(MC_CHECKS),
                "mc": {"n_paths": 10000, "grid_depth": depth},
            },
        ),
        (
            "fbm_h05",
            {
                "schema_version": 1,
                "name": "mc-fbm-h05",
                "model": {"id": "fbm", "params": {"hurst": 0.5}},
                "cm_elements": "auto",
                "checks": DET_PROBE_CHECKS + [c for c in MC_CHECKS if c != "martingale_ito"],
                "mc": {"n_paths": 4000, "grid_depth": depth},
            },
        ),
    ]


def _full_jump_bm(seed: int, reduced: bool):
    if reduced:
        # the bundled scenario at grid depth 8 instead of 9
        scenario = {
            "schema_version": 1,
            "name": "full-jump-bm-reduced",
            "model": {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25]], "horizon": 1.0}},
            "test_functions": ["x", "x2", "sin"],
            "cm_elements": "auto",
            "checks": ["ito_stransform", "ito_rcll"] + list(MC_CHECKS),
            "mc": {"n_paths": 10000, "grid_depth": 8},
        }
        return [("full_jump_bm", scenario)]
    return [("full_jump_bm", "full_jump_bm")]


WORKLOADS = {
    "det_identity": _det_identity,
    "mc_paths": _mc_paths,
    "full_jump_bm": _full_jump_bm,
}


def build(workload: str, seed: int, reduced: bool = False):
    """The ``(name, scenario)`` pairs of one workload."""
    return WORKLOADS[workload](int(seed), reduced)
