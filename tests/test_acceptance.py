"""Acceptance battery.

One test per criterion; each prints a single [PASS]/[FAIL] line with the
measured quantities (run with ``pytest -s`` to see them inline) and asserts
at its stated tolerance.
"""

import json
import math
import time

import numpy as np
import pytest

from gaussito.cli import run_scenario
from gaussito.gaussproc import catalog, cm_element, path_qv_mc, planar_qv_sum
from gaussito.heatkernel import heat_identity_residual
from gaussito.heatkernel import test_function as make_tf
from gaussito.itoverify import (
    auto_cm_battery,
    f_pairing,
    hermite_p2_identity_mc,
    ito_rcll_residual,
    ito_stransform_residual,
    jump_pairing,
    martingale_ito_mc,
    mc_s_transform,
    wick_pairing,
)
from gaussito.regulated import Jump, RegulatedFunction
from gaussito.stieltjes import ScalarField, chain_rule

F_NAMES = ("x", "x2", "x3", "sin", "exp")
POLY_TOL = 1e-8
TRANSCENDENTAL_TOL = 1e-6


def announce(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def catalog_specs():
    return [
        catalog("brownian"),
        catalog("fbm", hurst=0.7),
        catalog("jump_bm", jumps=[(0.5, 0.25)]),
        catalog("coupled_jump_bm", c=1.0, s0=0.5),
        catalog("evanescent", s0=0.5),
    ]


def build_cases(specs):
    """(label, spec, h, F) per case."""
    cases = []
    for spec in specs:
        battery = auto_cm_battery(spec)
        assert len(battery) >= 3
        for fname in F_NAMES:
            tf = make_tf(fname, spec.lam)
            tf.check_growth(spec.lam)  # the exp-with-a admissibility check
            for h in battery:
                cases.append((f"{spec.name}:{fname}:{h.label}", spec, h, tf))
    return cases


def test_criterion_1_deterministic_battery(catalog_specs):
    start = time.perf_counter()
    cases = build_cases(catalog_specs)
    worst = ("", 0.0)
    failures = []
    for label, spec, h, tf in cases:
        res = ito_stransform_residual(spec, h, [tf])[0]
        tol = POLY_TOL if tf.kind == "polynomial" else TRANSCENDENTAL_TOL
        if abs(res.residual) > abs(worst[1]):
            worst = (label, res.residual)
        if not (res.converged and abs(res.residual) < tol):
            failures.append((label, res.residual, res.converged))
    elapsed = time.perf_counter() - start
    ok = not failures and len(cases) >= 60 and elapsed < 30.0
    assert announce(
        "criterion-1 deterministic battery",
        ok,
        f"{len(cases)} cases, worst residual {worst[1]:.2e} ({worst[0]}), {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert len(cases) >= 60
    assert elapsed < 30.0


def test_criterion_2_rcll_reduction(catalog_specs):
    reducible = [s for s in catalog_specs if s.rcll]
    worst = 0.0
    for spec in reducible:
        battery = auto_cm_battery(spec)
        for fname in F_NAMES:
            tf = make_tf(fname, spec.lam)
            for h in battery:
                general = ito_stransform_residual(spec, h, [tf])[0]
                delta = abs(ito_rcll_residual(general).residual - general.residual)
                worst = max(worst, delta)
    coupled = next(s for s in catalog_specs if s.name == "coupled_jump_bm")
    case = (coupled, cm_element(coupled, [(1.0, 1.0)]), [make_tf("x2", coupled.lam)])
    clean = ito_rcll_residual(ito_stransform_residual(*case)[0]).residual
    mutated = ito_rcll_residual(ito_stransform_residual(*case)[0], drop_xleft_correction=True).residual
    shift = mutated - clean
    ok = worst < 1e-10 and abs(shift - 1.0) < 1e-8
    assert announce(
        "criterion-2 rcll reduction",
        ok,
        f"worst agreement delta {worst:.2e}, correction-term weight {shift:.10f}",
    )
    assert worst < 1e-10
    assert shift == pytest.approx(1.0, abs=1e-8)


def _chain_rule_battery():
    ident = lambda t: np.asarray(t, dtype=float)
    zeros = lambda t: np.zeros_like(np.asarray(t, dtype=float))

    u1_smooth = RegulatedFunction(ident, (), (0.0, 1.0))
    u1_jump = RegulatedFunction(ident, [Jump(0.5, 1.0, 0.0)], (0.0, 1.0))
    u1_two_sided = RegulatedFunction(
        np.polynomial.Polynomial([0.2, 1.0, -0.6]),
        [Jump(0.3, 0.4, -0.2), Jump(0.7, 0.0, 0.3)],
        (0.0, 1.0),
    )
    u1_wavy = RegulatedFunction(lambda t: np.sin(3 * np.asarray(t)), [Jump(0.6, -0.5, 0.0)], (0.0, 1.0))

    u2_linear = RegulatedFunction(ident, (), (0.0, 1.0))
    u2_atom = RegulatedFunction(ident, [Jump(0.3, 0.25, 0.0)], (0.0, 1.0))
    u2_steps = RegulatedFunction(zeros, [Jump(0.2, 0.5, 0.0), Jump(0.6, -0.25, 0.0)], (0.0, 1.0))
    u2_curved = RegulatedFunction(np.polynomial.Polynomial([0.0, 0.0, 1.0]), [Jump(0.7, 0.0, 0.5)], (0.0, 1.0))
    u2_zero = RegulatedFunction(zeros, (), (0.0, 1.0))

    def const_d2(c):
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), c)

    product = ScalarField(lambda x, y: x * y, lambda x, y: y, lambda x, y: x, "x1*x2")
    square = ScalarField(lambda x, y: x**2, lambda x, y: 2 * x, const_d2(0.0), "x1^2")
    sum_sq = ScalarField(lambda x, y: x**2 + y**2, lambda x, y: 2 * x, lambda x, y: 2 * y, "x1^2+x2^2")
    sin_mix = ScalarField(
        lambda x, y: np.sin(x) * (1 + y), lambda x, y: np.cos(x) * (1 + y), lambda x, y: np.sin(x), "sin(x1)(1+x2)"
    )
    exp_mix = ScalarField(
        lambda x, y: np.exp(x / 2) * y, lambda x, y: 0.5 * np.exp(x / 2) * y, lambda x, y: np.exp(x / 2), "exp(x1/2)x2"
    )
    cubic = ScalarField(lambda x, y: x**3 - 2 * y, lambda x, y: 3 * x**2, const_d2(-2.0), "x1^3-2x2")
    quad_mix = ScalarField(lambda x, y: x * y**2, lambda x, y: y**2, lambda x, y: 2 * x * y, "x1*x2^2")
    cos_sum = ScalarField(
        lambda x, y: np.cos(x + y), lambda x, y: -np.sin(x + y), lambda x, y: -np.sin(x + y), "cos(x1+x2)"
    )

    return [
        (product, u1_smooth, u2_linear),
        (square, u1_jump, u2_zero),
        (sum_sq, u1_jump, u2_atom),
        (sin_mix, u1_two_sided, u2_steps),
        (product, u1_smooth, u2_atom),
        (cubic, u1_two_sided, u2_curved),
        (quad_mix, u1_jump, u2_steps),
        (sin_mix, u1_wavy, u2_atom),
        (cos_sum, u1_two_sided, u2_linear),
        (exp_mix, u1_wavy, u2_steps),
        (square, u1_two_sided, u2_curved),
        (cos_sum, u1_jump, u2_curved),
    ]


def test_criterion_3_chain_rule():
    battery = _chain_rule_battery()
    worst = 0.0
    failures = []
    for G, u1, u2 in battery:
        (res,) = chain_rule(G, u1, u2, tol=1e-9)
        worst = max(worst, abs(res.residual))
        if not (res.converged and abs(res.residual) < 1e-6):
            failures.append((G.name, res.residual))
    ok = len(battery) >= 10 and not failures
    assert announce(
        "criterion-3 chain rule",
        ok,
        f"{len(battery)} triples, worst residual {worst:.2e}",
    )
    assert not failures, failures
    assert len(battery) >= 10


def test_criterion_4_heat_identity():
    steps = (8e-4, 4e-4, 2e-4, 1e-4)
    grid = [(t, x) for t in (0.3, 0.6, 1.0) for x in (-1.1, 0.2, 0.8)]
    worst = 0.0
    decay_ok = True
    for fname in ("x2", "x3", "sin"):
        tf = make_tf(fname, lam=1.0)
        maxima = []
        for step in steps:
            residuals = [heat_identity_residual(tf, t, x, step) for t, x in grid]
            maxima.append((max(r[0] for r in residuals), max(r[1] for r in residuals)))
        worst = max(worst, *maxima[-1])
        # below ~eps/step the central difference is roundoff-dominated and
        # cannot decay; the quadratic rate is checked above that floor
        for component in (0, 1):
            for bigger, smaller in zip(maxima, maxima[1:]):
                if bigger[component] > 1e-10:
                    decay_ok &= bigger[component] / max(smaller[component], 1e-300) > 2.5
    ok = worst < 1e-5 and decay_ok
    assert announce(
        "criterion-4 heat identity",
        ok,
        f"max residual at fd=1e-4: {worst:.2e}, quadratic decay observed: {decay_ok}",
    )
    assert worst < 1e-5
    assert decay_ok


def test_criterion_5_martingale_mc():
    start = time.perf_counter()
    spec = catalog("jump_bm", jumps=[(0.5, 0.25)])
    # the levels of depth 8 and 10, and their decay against half the expected 1/2 per halving
    ((passed, required, terms, _),) = martingale_ito_mc(spec, [make_tf("x2", spec.lam)], 10, 20000, seed=31415)
    rels = [terms["rel_l2_depth8"], terms["rel_l2_depth10"]]
    ((_, _, _, linear),) = martingale_ito_mc(spec, [make_tf("x", spec.lam)], 10, 20000, seed=31415)
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(rels, rels[1:]))
    ok = rels[-1] < 0.05 and decreasing and passed and linear.estimate < 1e-10 and elapsed < 60.0
    assert announce(
        "criterion-5 martingale monte carlo",
        ok,
        f"rel L2 residuals {[f'{r:.4f}' for r in rels]}, log2 decay {terms['log2_decay']:.3f} (required {required:.3f}), "
        f"linear {linear.estimate:.1e}, {elapsed:.1f}s",
    )
    assert rels[-1] < 0.05
    assert decreasing
    assert passed
    assert linear.estimate < 1e-10
    assert elapsed < 60.0


def test_criterion_6_s_transform_mc():
    specs = [catalog("brownian"), catalog("jump_bm", jumps=[(0.5, 0.25)]), catalog("coupled_jump_bm", c=1.0, s0=0.5)]
    batteries = [auto_cm_battery(s) for s in specs]
    n_paths = 50000
    zs = []
    for i in range(100):
        spec, battery = specs[i % 3], batteries[i % 3]
        h = battery[i % len(battery)]
        tf, x = make_tf("x2", spec.lam), make_tf("x", spec.lam)
        seed = 600 + i
        mode = i % 5
        if mode == 0:
            rep = mc_s_transform(spec, f_pairing(spec, h, x, 0.6 * spec.horizon), n_paths, seed)
        elif mode == 1:
            rep = mc_s_transform(spec, wick_pairing(spec, h, battery[0]), n_paths, seed)
        elif mode == 2:
            rep = mc_s_transform(spec, f_pairing(spec, h, tf, 0.7 * spec.horizon), n_paths, seed)
        elif mode == 3:
            rep = hermite_p2_identity_mc(spec, battery[0], h, n_paths, seed)
        elif spec.records:
            rep = mc_s_transform(spec, jump_pairing(spec, h, 0, 0.8), n_paths, seed)
        else:
            rep = mc_s_transform(spec, f_pairing(spec, h, x, 0.35), n_paths, seed)
        zs.append(rep.z_score)
    zs = np.asarray(zs)
    max_z = float(np.max(np.abs(zs)))
    frac2 = float(np.mean(np.abs(zs) <= 2.0))
    spread = float(np.std(zs))
    ok = max_z <= 4.0 and frac2 >= 0.9 and 0.5 < spread < 1.6
    assert announce(
        "criterion-6 pairing monte carlo",
        ok,
        f"100 cases, max |z| {max_z:.2f}, {frac2:.0%} within 2, z spread {spread:.2f}",
    )
    assert max_z <= 4.0
    assert frac2 >= 0.9
    assert 0.5 < spread < 1.6


def test_criterion_7_planar_qv():
    brownian = catalog("brownian")
    exact = all(planar_qv_sum(brownian, np.linspace(0.0, 1.0, n + 1)) == 1.0 / n for n in (2, 4, 8, 16))
    spec = catalog("jump_bm", jumps=[(0.5, 0.25)])
    rep = path_qv_mc(spec, np.linspace(0.0, 1.0, 257), 10000, seed=2718)
    within = abs(rep.estimate - rep.reference) <= 4.0 * rep.standard_error
    ok = exact and rep.reference == 1.25 and within
    assert announce(
        "criterion-7 planar and pathwise quadratic variation",
        ok,
        f"uniform sums exact: {exact}, path qv {rep.estimate:.4f} vs 1.25 (se {rep.standard_error:.4f})",
    )
    assert exact
    assert rep.reference == 1.25
    assert within


def test_criterion_8_permutation_invariance():
    spec = catalog("jump_bm", jumps=[(0.2, 0.04), (0.5, 0.25), (0.8, 0.09)])
    case = (spec, cm_element(spec, [(0.8, 0.5), (-0.4, 1.0)]), [make_tf("x3", spec.lam)])
    base = ito_stransform_residual(*case)[0]
    rng = np.random.default_rng(123)
    records = list(spec.records)
    worst = 0.0
    for _ in range(8):
        spec.records = tuple(records[i] for i in rng.permutation(len(records)))
        res = ito_stransform_residual(*case)[0]
        worst = max(
            worst,
            abs(res.left_jump_sum - base.left_jump_sum),
            abs(res.right_jump_sum - base.right_jump_sum),
        )
    spec.records = tuple(records)
    ok = worst < 1e-14
    assert announce(
        "criterion-8 permutation invariance",
        ok,
        f"max jump-sum deviation over shuffles {worst:.1e}",
    )
    assert worst < 1e-14


def test_criterion_9_reproducibility(tmp_path):
    scenario = {
        "schema_version": 1,
        "name": "repro",
        "model": {"id": "jump_bm", "params": {"jumps": [[0.5, 0.25]], "horizon": 1.0}},
        "test_functions": ["x2", "sin"],
        "cm_elements": "auto",
        "checks": ["ito_stransform", "ito_rcll", "s_transform_mc", "hermite_p2", "simple_skorokhod"],
        "mc": {"seed": 4242, "n_paths": 5000},
    }
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(scenario))
    sink = lambda *_: None
    assert run_scenario(path, out_dir=tmp_path / "a", echo=sink) == 0
    assert run_scenario(path, out_dir=tmp_path / "b", echo=sink) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    ok = a == b and len(a) > 0
    assert announce("criterion-9 reproducibility", ok, f"byte-identical reports ({len(a)} bytes)")
    assert ok
