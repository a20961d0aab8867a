import inspect
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gaussito.gaussproc import (
    DiscontinuityRecord,
    ProcessSpec,
    UnsupportedModelError,
    catalog,
    cm_element,
    cm_inner,
    simulate_paths,
)
from gaussito.gaussproc import _merge_moments, _moments
from gaussito.heatkernel import test_function as make_tf
from gaussito.itoverify import (
    Pairing,
    SimpleWickIntegrand,
    _cell_weights,
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
    skorokhod_pairing,
    wick_exponential_paths,
    wick_pairing,
)
from gaussito.regulated import Jump, RegulatedFunction
from gaussito.stieltjes import ChainRuleTerms


def make_case(spec, fname, coeffs):
    """(spec, h, [F]): the arguments of the general residual of one case."""
    return spec, cm_element(spec, coeffs), [make_tf(fname, spec.lam)]


def f_at(spec, h, t, fname="x2", side=0):
    """The pairing of F = ``fname`` at X_t, or at X_{t-} or X_{t+} for side -1 or +1, against h."""
    return f_pairing(spec, h, make_tf(fname, spec.lam), t, side)


class TestSTransform:
    def test_process_value(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        assert f_at(brownian, h, 0.5, "x").reference == pytest.approx(0.5)

    def test_wick_exponential_self_pairing(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        assert wick_pairing(brownian, h, h).reference == pytest.approx(math.e)

    def test_smoothed_square(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        assert f_at(brownian, h, 1.0).reference == pytest.approx(2.0)

    def test_scaling_in_h(self, jump_bm):
        base = cm_element(jump_bm, [(1.0, 1.0)])
        scaled = cm_element(jump_bm, [(2.5, 1.0)])
        for t in (0.3, 0.5, 0.9):
            assert f_at(jump_bm, scaled, t, "x").reference == pytest.approx(2.5 * f_at(jump_bm, base, t, "x").reference, abs=1e-14)

    def test_one_sided_forms(self, jump_bm, evanescent):
        h = cm_element(jump_bm, [(1.0, 1.0)])
        # psi(V(0.5-), hbar(0.5-)) = 0.5^2 + 0.5 and psi(V(0.5), hbar(0.5)) right limit
        assert f_at(jump_bm, h, 0.5, side=-1).reference == pytest.approx(0.75)
        assert f_at(jump_bm, h, 0.5, side=1).reference == pytest.approx(0.75**2 + 0.75)
        # evanescent's weak limits at s0 are 0 (lost_minus = V(s0-) = 1, V(s0+) = 0)
        h = cm_element(evanescent, [(1.0, 0.3)])
        assert f_at(evanescent, h, 0.5, side=-1).reference == 0.0
        assert f_at(evanescent, h, 0.5, side=1).reference == 0.0

    def test_growth_guard_at_case_build(self, brownian):
        from gaussito.heatkernel import GrowthBound, GrowthBoundError

        tf = make_tf("exp", brownian.lam)
        bad = replace(tf, growth=GrowthBound(scale=tf.growth.scale, rate=1.0))
        h = cm_element(brownian, [(1.0, 1.0)])
        # each engine that reads F refuses one beyond the model's growth bound
        with pytest.raises(GrowthBoundError):
            ito_stransform_residual(brownian, h, [make_tf("x2", brownian.lam), bad])
        for side in (0, -1, 1):
            with pytest.raises(GrowthBoundError):
                f_pairing(brownian, h, bad, 0.5, side)


class TestStackedEngine:
    FIVE = ("x", "x2", "x3", "sin", "exp")

    def test_each_component_matches_its_own_run(self, all_specs):
        for spec in all_specs:
            battery = auto_cm_battery(spec)
            for h in (battery[0], battery[-1]):
                tfs = [make_tf(name, spec.lam) for name in self.FIVE]
                stacked = ito_stransform_residual(spec, h, tfs)
                assert [(r.spec, r.h, r.test_function) for r in stacked] == [(spec, h, tf) for tf in tfs]
                assert len({(r.int_u1.n_cells, r.int_u2.n_cells) for r in stacked}) == 1
                for res, tf in zip(stacked, tfs):
                    (alone,) = ito_stransform_residual(spec, h, [tf])
                    assert res.converged == alone.converged
                    for term, value in alone.terms().items():
                        moved = abs(res.terms()[term] - value)
                        assert moved <= 1e-12 * max(1.0, abs(value)), (spec.name, tf.name, h.label, term)
                    assert [s for s, _ in res.left_jump_terms] == [s for s, _ in alone.left_jump_terms]

    def test_flags_stay_per_component(self):
        # fbm's t^{2H} cusp at H = 0.2 leaves x3 unresolved at h0, and x2 not
        spec = catalog("fbm", hurst=0.2)
        h = auto_cm_battery(spec)[0]
        x2, x3 = ito_stransform_residual(spec, h, [make_tf(name, spec.lam) for name in ("x2", "x3")])
        assert x2.converged and not x3.converged
        assert x3.int_u1.error_estimate >= 1e-11 > x2.int_u1.error_estimate
        assert x2.int_u1.n_cells == x3.int_u1.n_cells

    def test_cusped_fbm_refines_in_few_rounds(self, monkeypatch):
        # fbm(0.3)'s cusps put cells far above their error target; cutting those
        # into 4 or 8 pieces per round makes 61 integrand calls over this battery,
        # where one bisection per round made 161
        from gaussito import stieltjes

        calls, core = [], stieltjes._adaptive_continuous

        def counting(u, *args):
            return core(lambda ts: calls.append(1) or u(ts), *args)

        monkeypatch.setattr(stieltjes, "_adaptive_continuous", counting)
        spec = catalog("fbm", hurst=0.3)
        for h in auto_cm_battery(spec):
            assert all(r.converged for r in ito_stransform_residual(spec, h, [make_tf(n, spec.lam) for n in self.FIVE]))
        assert len(calls) <= 110

    def test_cases_must_share_the_pairing_element(self, brownian):
        # one call is one pairing element, so its cases share it by construction
        with pytest.raises(ValueError, match="at least one test function"):
            ito_stransform_residual(brownian, cm_element(brownian, [(1.0, 1.0)]), [])


class TestGeneralResidual:
    def test_brownian_square_terms(self, brownian):
        res = ito_stransform_residual(*make_case(brownian, "x2", [(1.0, 1.0)]))[0]
        assert res.lhs == pytest.approx(2.0)
        assert res.terms()["integral_dhbar"] == pytest.approx(1.0, abs=1e-10)
        assert res.terms()["integral_dv_half"] == pytest.approx(1.0, abs=1e-10)
        assert res.left_jump_sum == 0.0 and res.right_jump_sum == 0.0
        assert abs(res.residual) < 1e-10
        assert res.converged

    def test_jump_bm_hand_breakdown(self, jump_bm):
        # hand-evaluated closed forms: lhs = 1.5625 + 1.25, dhbar integral
        # 1.25 + 0.375, variance integral 1.25, left jump term -0.0625
        res = ito_stransform_residual(*make_case(jump_bm, "x2", [(1.0, 1.0)]))[0]
        assert res.lhs == pytest.approx(2.8125)
        assert res.terms()["integral_dhbar"] == pytest.approx(1.625, abs=1e-10)
        assert res.terms()["integral_dv_half"] == pytest.approx(1.25, abs=1e-11)
        assert res.left_jump_sum == pytest.approx(-0.0625, abs=1e-12)
        assert abs(res.residual) < 1e-10

    def test_evanescent_exp_jump_term(self, evanescent):
        # induced functions vanish at s0, so the left term is
        # e^0 - e^{1/2} - 0 - (1/2) e^0 (0 - 1) = 1.5 - sqrt(e)
        res = ito_stransform_residual(*make_case(evanescent, "exp", [(1.0, 0.3)]))[0]
        s, val = res.left_jump_terms[0]
        assert s == 0.5
        assert val == pytest.approx(1.5 - math.exp(0.5), abs=1e-12)
        assert abs(res.residual) < 1e-9

    def test_mutation_jump_sum_sensitivity(self, jump_bm):
        # knocking the left jump sum out of the residual shifts it by the sum's weight
        res = ito_stransform_residual(*make_case(jump_bm, "x2", [(1.0, 1.0)]))[0]
        terms = res.terms()
        assert terms["left_jump_sum"] == pytest.approx(-0.0625, abs=1e-12)
        kept = [v for k, v in terms.items() if k not in ("lhs", "left_jump_sum")]
        assert terms["lhs"] - math.fsum(kept) - res.residual == pytest.approx(-0.0625, abs=1e-12)

    def test_mutation_dv_sensitivity(self, brownian):
        # the dv integral is the whole residual once knocked out
        res = ito_stransform_residual(*make_case(brownian, "x2", [(1.0, 1.0)]))[0]
        assert res.terms()["integral_dv_half"] == pytest.approx(1.0, abs=1e-9)
        assert res.residual + res.terms()["integral_dv_half"] == pytest.approx(1.0, abs=1e-9)

    def test_unmutated_residual_is_the_engine_residual(self, jump_bm):
        # the general result is the engine's terms plus spec, h and test_function;
        # what a mutation knocks out is cli._MUTATIONS' alone
        from gaussito.itoverify import ItoResidual

        res = ito_stransform_residual(*make_case(jump_bm, "sin", [(0.7, 0.5), (0.4, 0.9)]))[0]
        assert isinstance(res, ChainRuleTerms)
        assert res.residual == ChainRuleTerms.residual.fget(res)
        assert ItoResidual.residual is ChainRuleTerms.residual
        assert not {"drop", "agreement_delta"} & {f.name for f in fields(ItoResidual)}

    def test_rough_pairing_flags_are_honest(self):
        # a 0.2-Hoelder cusp cannot be refined to 1e-11 before the bisection
        # width floor; the engine must say so instead of claiming convergence
        from gaussito.gaussproc import catalog

        spec = catalog("fbm", hurst=0.1)
        h = cm_element(spec, [(0.8, 0.4)])
        tight = ito_stransform_residual(spec, h, [make_tf("x2", spec.lam)])[0]
        assert not tight.converged
        loose = ito_stransform_residual(spec, h, [make_tf("x2", spec.lam)], ys_tol=1e-5)[0]
        assert loose.converged
        assert abs(loose.residual) < 1e-5

    def test_permutation_invariance_of_jump_sums(self):
        from gaussito.gaussproc import catalog

        spec = catalog("jump_bm", jumps=[(0.2, 0.04), (0.5, 0.25), (0.8, 0.09)])
        case = make_case(spec, "x3", [(0.8, 0.5), (-0.4, 1.0)])
        base = ito_stransform_residual(*case)[0]
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = tuple(spec.records[i] for i in rng.permutation(len(spec.records)))
            spec.records = perm
            res = ito_stransform_residual(*case)[0]
            assert abs(res.left_jump_sum - base.left_jump_sum) < 1e-14
            assert abs(res.residual - base.residual) < 1e-14


class TestRcllResidual:
    def test_agrees_with_general(self, jump_bm):
        for fname in ("x2", "sin"):
            case = make_case(jump_bm, fname, [(0.7, 0.5), (0.3, 1.0)])
            general = ito_stransform_residual(*case)[0]
            reduced = ito_rcll_residual(ito_stransform_residual(*case)[0])
            assert abs(general.residual - reduced.residual) < 1e-10
            assert abs(reduced.residual) < 1e-9

    def test_coupled_correction_weight(self, coupled):
        # dropping the left-limit/jump correlation term shifts the residual by
        # psi_{F''} * E[X_{s-} dX] = 2 * 0.5 = 1 for F = x^2, h = X_T
        case = make_case(coupled, "x2", [(1.0, 1.0)])
        clean = ito_rcll_residual(ito_stransform_residual(*case)[0])
        mutated = ito_rcll_residual(ito_stransform_residual(*case)[0], drop_xleft_correction=True)
        assert abs(clean.residual) < 1e-10
        assert mutated.residual - clean.residual == pytest.approx(1.0, abs=1e-8)

    def test_martingale_correction_is_free(self, jump_bm):
        case = make_case(jump_bm, "x2", [(1.0, 1.0)])
        clean = ito_rcll_residual(ito_stransform_residual(*case)[0])
        mutated = ito_rcll_residual(ito_stransform_residual(*case)[0], drop_xleft_correction=True)
        assert mutated.residual == pytest.approx(clean.residual, abs=1e-14)

    def test_rejects_general_kind(self, evanescent):
        with pytest.raises(UnsupportedModelError):
            ito_rcll_residual(ito_stransform_residual(*make_case(evanescent, "x2", [(1.0, 0.3)]))[0])

    def test_brownian_degenerates_to_continuous_form(self, brownian):
        case = make_case(brownian, "sin", [(1.0, 1.0)])
        res = ito_rcll_residual(ito_stransform_residual(*case)[0])
        assert res.left_jump_sum == 0.0
        assert abs(res.residual) < 1e-9


def forward_jump_spec(var=0.16, s0=0.4, horizon=1.0):
    """Test-only model with a forward jump: X_t = B_t + xi 1_{t > s0}."""

    def cov(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        return np.minimum(t, s) + var * ((t > s0) & (s > s0))

    variance = RegulatedFunction.from_exact(
        lambda ts: np.asarray(ts, dtype=float) + var * (np.asarray(ts, dtype=float) > s0),
        [Jump(s0, 0.0, var)],
        (0.0, horizon),
    )
    spec = ProcessSpec(
        name="forward_jump_bm",
        horizon=horizon,
        cov=cov,
        variance=variance,
        records=(DiscontinuityRecord(s0, 0.0, e_dplus_sq=var),),
        jump_cov_right=lambda ts, k: var * (np.asarray(ts, dtype=float) > s0),
    )
    spec.validate()
    return spec


def test_flags_reproduce_model_classification(all_specs):
    by_name = {spec.name: spec for spec in all_specs}
    by_name["forward_jump_bm"] = forward_jump_spec()
    assert {name for name, spec in by_name.items() if spec.rcll} == {"brownian", "fbm", "jump_bm", "coupled_jump_bm"}


class TestForwardJump:
    def test_right_jump_terms_active(self):
        spec = forward_jump_spec()
        case = make_case(spec, "x2", [(1.0, 1.0)])
        res = ito_stransform_residual(*case)[0]
        assert res.right_jump_terms and res.right_jump_terms[0][1] != 0.0
        assert res.left_jump_sum == 0.0
        assert abs(res.residual) < 1e-10

    def test_right_jump_mutation_sensitivity(self):
        # knocking the right jump sum out of the residual shifts it by the sum's weight
        spec = forward_jump_spec()
        res = ito_stransform_residual(*make_case(spec, "x2", [(1.0, 1.0)]))[0]
        terms = res.terms()
        kept = [v for k, v in terms.items() if k not in ("lhs", "right_jump_sum")]
        mutated = terms["lhs"] - math.fsum(kept)
        assert mutated - res.residual == pytest.approx(terms["right_jump_sum"], abs=1e-12)
        assert abs(mutated) > 1e-3

    def test_transcendental_residual(self):
        spec = forward_jump_spec()
        case = make_case(spec, "sin", [(0.6, 0.4), (0.4, 0.9)])
        res = ito_stransform_residual(*case)[0]
        assert abs(res.residual) < 1e-8

    def test_right_limit_pairing_is_not_simulated(self):
        # the closed form of F at X_{s0+} exists, but the sampler draws no forward jump variable
        spec = forward_jump_spec()
        pairing = f_at(spec, cm_element(spec, [(1.0, 1.0)]), 0.4, side=1)
        with pytest.raises(UnsupportedModelError, match="forward jump variables are not simulated"):
            mc_s_transform(spec, pairing, 100, seed=0)


class TestMartingaleItoMc:
    @pytest.mark.parametrize(
        "model, params", [("jump_bm", {"jumps": [[0.3, 0.2], [0.7, 0.3]]}), ("fbm", {"hurst": 0.7})], ids=["jump_bm", "fbm_gram"]
    )
    def test_batches_on_more_threads_than_cores_merge_to_the_serial_bits(self, model, params):
        # each worker thread draws into its own buffer set; a batch that wrote
        # into another's arrays, or a merge out of batch order, moves the bits
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from gaussito.cli import _ordered_map

        spec = catalog(model, **params)
        tfs = [make_tf(name, spec.lam) for name in ("x2", "sin")]
        # levels of depth 7 and 9; 513 or 515 points: 1019 or 1018 rows per batch, five batches at the cap,
        # which an infinite z_max never stops short of; at the default z_max both cases resolve at the first look
        for z_max, batches in ((math.inf, 5), (4.0, 1)):
            serial = martingale_ito_mc(spec, tfs, 9, 5000, seed=13, z_max=z_max)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    threaded = martingale_ito_mc(spec, tfs, 9, 5000, seed=13, z_max=z_max, batch_map=_ordered_map(pool, 8))
            finally:
                sys.setswitchinterval(interval)
            assert threaded == serial
            assert {report.batches for *_, report in serial} == {batches}

    def test_square_discretization_error(self, jump_bm):
        tfs = [make_tf("x2", jump_bm.lam)]
        ((passed, _, terms, rep),) = martingale_ito_mc(jump_bm, tfs, 8, 4000, seed=5)
        assert 0.0 < rep.estimate < 0.1
        assert rep.estimate == terms["rel_l2_depth8"] < terms["rel_l2_depth6"]
        assert passed

    def test_linear_telescopes(self, jump_bm):
        tfs = [make_tf("x", jump_bm.lam)]
        ((passed, _, terms, rep),) = martingale_ito_mc(jump_bm, tfs, 8, 2000, seed=5)
        assert rep.estimate < 1e-12
        # no decay below roundoff, and the case passes on the roundoff floor alone
        assert terms["rel_l2_depth6"] < 1e-12
        assert passed

    def test_stops_at_the_first_look_where_every_case_is_resolved(self):
        from gaussito.gaussproc import _BATCH_ELEMENTS

        spec = catalog("jump_bm", jumps=[[0.3, 0.2], [0.7, 0.3]])
        tfs = [make_tf(name, spec.lam) for name in ("x", "x2", "sin")]
        # ten batches of 2024 paths on the 259 points of the fine joined grid; x sits on the roundoff floor, and
        # x2 and sin clear their gate of 0.25 by over 4.37 standard errors, z_max 4 over five looks, after one
        rows = _BATCH_ELEMENTS // 259
        cases = martingale_ito_mc(spec, tfs, 8, 10 * rows, seed=17)
        assert {(report.n_paths, report.batches) for *_, report in cases} == {(rows, 1)}
        assert all(passed for passed, *_ in cases)
        assert all(terms["log2_decay"] - 0.25 >= 4.37 * terms["log2_decay_se"] for _, _, terms, _ in cases[1:])
        # the paths of the first batch at any cap, bit for bit
        assert cases == martingale_ito_mc(spec, tfs, 8, rows, seed=17)

    def test_a_case_never_resolved_runs_to_the_cap(self):
        # fbm(0.3) sin clears its gate of 0.05 by under 4.16 standard errors, z_max 4 over two looks, at 4000 paths
        spec = catalog("fbm", hurst=0.3)
        tfs = [make_tf(name, spec.lam) for name in ("x2", "sin")]
        cases = martingale_ito_mc(spec, tfs, 8, 4000, seed=2)
        assert {(report.n_paths, report.batches) for *_, report in cases} == {(4000, 2)}
        assert cases[1][2]["log2_decay"] - 0.05 < 4.16 * cases[1][2]["log2_decay_se"]
        # the verdict and every value are those of a run that never stops early
        assert cases == martingale_ito_mc(spec, tfs, 8, 4000, seed=2, z_max=math.inf)

    def test_a_failing_case_runs_to_the_cap(self, monkeypatch):
        import gaussito.itoverify

        # the Ito weights of the martingale case without the Wick weights: on fbm(0.7) the residual stops decaying
        monkeypatch.setattr(gaussito.itoverify, "_cell_weights", lambda spec, pts: np.diff(spec.variance.base_values(pts)))
        spec = catalog("fbm", hurst=0.7)
        tfs = [make_tf("x2", spec.lam)]
        cases = martingale_ito_mc(spec, tfs, 8, 4000, seed=3)
        ((passed, required, terms, report),) = cases
        # far more than 4.16 standard errors short of the gate, yet no look stops to fail it: a failure is the cap's
        assert not passed and required - terms["log2_decay"] > 10 * terms["log2_decay_se"]
        assert (report.n_paths, report.batches) == (4000, 2)
        assert cases == martingale_ito_mc(spec, tfs, 8, 4000, seed=3, z_max=math.inf)

    @pytest.mark.parametrize("model, params, names", [("brownian", {}, ("x2", "sin")), ("fbm", {"hurst": 0.3}, ("sin",))], ids=["brownian", "fbm_h03"])
    def test_decay_standard_error_matches_the_spread_over_seeds(self, model, params, names):
        # 200 seeds of 400 paths at depth 6, one batch each: the delta-method standard error each seed reads
        # from its own paths is within 20% of the spread of the decays over the seeds
        spec = catalog(model, **params)
        tfs = [make_tf(name, spec.lam) for name in names]
        runs = [martingale_ito_mc(spec, tfs, 6, 400, seed) for seed in range(200)]
        for k in range(len(tfs)):
            decays = [run[k][2]["log2_decay"] for run in runs]
            ses = [run[k][2]["log2_decay_se"] for run in runs]
            assert np.median(ses) == pytest.approx(np.std(decays, ddof=1), rel=0.2)

    def test_grid_depth_below_two_raises(self, jump_bm):
        # the coarse level is grid_depth - 2; at 2 it is [0, T] with the discontinuity times
        tfs = [make_tf("x2", jump_bm.lam)]
        for depth in (1, 0, -1):
            with pytest.raises(ValueError, match="at least 2"):
                martingale_ito_mc(jump_bm, tfs, depth, 100, seed=1)

    def test_memory_bounded_by_batch(self, jump_bm):
        one = [make_tf("sin", jump_bm.lam)]
        three = one + [make_tf("x2", jump_bm.lam), make_tf("exp", jump_bm.lam)]
        peaks = {}
        for n_paths in (2000, 8000):
            for tfs in (one, three):
                tracemalloc.start()
                try:
                    martingale_ito_mc(jump_bm, tfs, 11, n_paths, seed=3)
                    peaks[n_paths, len(tfs)] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[8000, 1] <= 1.1 * peaks[2000, 1]
        # the test functions share the batch; each adds only its own evaluations
        for n_paths in (2000, 8000):
            assert peaks[n_paths, 3] <= 1.15 * peaks[n_paths, 1]

    def test_a_path_qv_reader_beside_borrows_the_fine_increments(self, jump_bm):
        from gaussito.gaussproc import path_qv_reader

        tfs = [make_tf("sin", jump_bm.lam)]
        fine = np.union1d(np.linspace(0.0, 1.0, 2**10 + 1), jump_bm.record_times())
        reader, _ = path_qv_reader(jump_bm, fine, 3)
        peaks = {}
        for beside in ((), [reader]):
            # first-use allocations fall outside the traced run
            martingale_ito_mc(jump_bm, tfs, 10, 2000, seed=3, beside=beside)
            tracemalloc.start()
            try:
                martingale_ito_mc(jump_bm, tfs, 10, 2000, seed=3, beside=beside)
                peaks[len(beside)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the readers of a batch run in turn, so the quadratic sums reuse the pathwise check's fine-level increment
        # array; an array of their own would add one batch array, about 22% here
        assert peaks[1] <= 1.05 * peaks[0]

    @given(
        hnp.arrays(
            float,
            st.one_of(st.tuples(st.integers(2, 60)), st.tuples(st.integers(1, 4), st.integers(2, 60))),
            elements=st.floats(-1e3, 1e3),
        ),
        st.lists(st.integers(1, 59), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_moment_merge_matches_whole_sample(self, values, cuts):
        # a 1-D sample, or a (rows, paths) one merged row by row
        n_values = values.shape[-1]
        bounds = sorted({c for c in cuts if c < n_values})
        acc = (0, 0.0, 0.0)
        for chunk in np.split(values, bounds, axis=-1):
            acc = _merge_moments(acc, _moments(chunk))
        n, mean, m2 = acc
        assert n == n_values
        assert np.shape(mean) == np.shape(m2) == values.shape[:-1]
        assert mean == pytest.approx(np.mean(values, axis=-1), rel=1e-12, abs=1e-9)
        assert m2 / (n - 1) == pytest.approx(np.var(values, axis=-1, ddof=1), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize(
        "model, params, reason",
        [("evanescent", {"s0": 0.5}, "weak one-sided limit"), ("fbm", {"hurst": 0.2}, "alpha=0.4 is below 0.6")],
        ids=["evanescent", "fbm_h02"],
    )
    def test_requires_a_measurable_decay(self, model, params, reason):
        # the planner skips the check on these models, and the engine names why
        from gaussito.cli import _plan_cases

        spec = catalog(model, **params)
        with pytest.raises(UnsupportedModelError, match=reason):
            martingale_ito_mc(spec, [make_tf("x2", spec.lam)], 8, 100, seed=1)
        with pytest.raises(UnsupportedModelError, match=reason):
            pathwise_decay(spec, np.linspace(0, 1, 2**8 + 1))
        scenario = {"name": "t", "model": {"id": model, "params": params}, "checks": ["martingale_ito", "ito_stransform"]}
        plan = _plan_cases({**scenario, "cm_elements": [[[1.0, 0.3]]]}, seed=None)
        assert [r["case_id"].split(":")[0] for records in plan for r in records] == ["ito"]

    @pytest.mark.parametrize(
        "model, params, decay",
        [
            ("brownian", {}, 0.5),
            ("jump_bm", {"jumps": [[0.3, 0.2], [0.7, 0.3]]}, 0.5),
            ("coupled_jump_bm", {"c": -0.7, "s0": 0.3}, 0.5),
            ("fbm", {"hurst": 0.3}, 0.1),
            ("fbm", {"hurst": 0.5}, 0.5),
            ("fbm", {"hurst": 0.7}, 0.9),
            ("fbm", {"hurst": 0.9}, 1.0),
        ],
    )
    def test_expected_decay_from_the_increments(self, model, params, decay):
        # alpha - 1/2, capped at 1: 1/2 on Brownian-driven models, 2H - 1/2 on fbm
        spec = catalog(model, **params)
        for depth in (2, 8, 12):
            assert pathwise_decay(spec, np.linspace(0, 1, 2**depth + 1)) == pytest.approx(decay, abs=1e-12)

    def test_decay_refuses_a_grid_not_spanning_the_horizon(self):
        # on [0.6, 1] the jump at 0.3 would land in the last cell: searchsorted(...) - 1 is -1
        jump_bm = catalog("jump_bm", jumps=[[0.3, 0.2]])
        for grid in (np.linspace(0.6, 1, 257), np.linspace(0, 0.5, 257)):
            with pytest.raises(ValueError, match="span"):
                pathwise_decay(jump_bm, grid)
        # a single cell has no coarser level to read the expected decay from
        with pytest.raises(ValueError, match="two cells"):
            pathwise_decay(catalog("brownian"), np.array([0.0, 1.0]))
        # a 2-D or a decreasing grid is refused like everywhere else, not flattened or sorted
        for grid in (np.linspace(0, 1, 17).reshape(1, 17), np.linspace(1, 0, 17)):
            with pytest.raises(ValueError, match="strictly increasing"):
                pathwise_decay(jump_bm, grid)

    def test_decay_refuses_discontinuities_filling_the_coarse_level(self):
        # at depth 2, fine = {0, .2, .25, .5, .75, 1}: its every other point joined with the jumps is fine itself
        spec = catalog("jump_bm", jumps=[[0.2, 0.1], [0.5, 0.1]])
        with pytest.raises(UnsupportedModelError, match="raise grid_depth"):
            pathwise_decay(spec, np.linspace(0, 1, 5))
        with pytest.raises(UnsupportedModelError, match="raise grid_depth"):
            martingale_ito_mc(spec, [make_tf("x2", spec.lam)], 2, 100, seed=1)
        # one level deeper there is a coarser level again
        assert pathwise_decay(spec, np.linspace(0, 1, 9)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "model, params",
        [("brownian", {}), ("jump_bm", {"jumps": [[0.3, 0.2], [0.7, 0.3]]}), ("coupled_jump_bm", {"c": -0.7, "s0": 0.3})],
    )
    def test_wick_weights_vanish_on_brownian_driven_models(self, model, params):
        # E[X_{t_i} (X_{t_{i+1}-} - X_{t_i})] is exactly 0 there, so the cell
        # weights are the variance increments bit for bit
        spec = catalog(model, **params)
        for depth in range(4, 11):
            pts = np.union1d(np.linspace(0, 1, 2**depth + 1), spec.record_times())
            assert np.array_equal(_cell_weights(spec, pts), np.diff(spec.variance.base_values(pts)))

    def test_requires_paths(self, jump_bm):
        with pytest.raises(ValueError):
            martingale_ito_mc(jump_bm, [make_tf("x2", jump_bm.lam)], 4, 0, seed=1)

    def test_requires_admissible_test_functions(self, jump_bm):
        from gaussito.heatkernel import GrowthBound, GrowthBoundError

        with pytest.raises(ValueError, match="test function"):
            martingale_ito_mc(jump_bm, [], 4, 100, seed=1)
        tf = make_tf("exp", jump_bm.lam)
        bad = replace(tf, growth=GrowthBound(scale=tf.growth.scale, rate=1.0))
        with pytest.raises(GrowthBoundError):
            martingale_ito_mc(jump_bm, [make_tf("x", jump_bm.lam), bad], 4, 100, seed=1)

    def test_sharing_couples_only_the_draw(self, monkeypatch):
        import gaussito.gaussproc

        spec = catalog("jump_bm", jumps=[[0.3, 0.2], [0.7, 0.3]])
        tfs = [make_tf(name, spec.lam) for name in ("x", "x2", "sin")]
        calls = []
        original = gaussito.gaussproc.simulate_paths

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # the batch loop lives in gaussproc.simulate_batches
        monkeypatch.setattr(gaussito.gaussproc, "simulate_paths", counting)
        # 3000 paths on the 259 points of the finest joined grid are two batches; the look after a batch
        # couples the test functions too, where each one's resolution decides the stop, so none stops here
        shared = martingale_ito_mc(spec, tfs, 8, 3000, seed=11, z_max=math.inf)
        assert len(calls) == 2
        # the fine grid is joined with the two discontinuity times
        assert [report.grid_points for *_, report in shared] == [2**8 + 3] * len(tfs)
        for k, tf in enumerate(tfs[1:], 1):
            assert shared[k] == martingale_ito_mc(spec, [tf], 8, 3000, seed=11, z_max=math.inf)[0]
        # alone, F = x is resolved on the roundoff floor at the first look whatever z_max, and stops there
        (alone,) = martingale_ito_mc(spec, tfs[:1], 8, 3000, seed=11, z_max=math.inf)
        assert alone[3].batches == 1 and alone[0] and shared[0][0]


class TestMcSTransform:
    def test_process_pairing(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        rep = mc_s_transform(brownian, f_at(brownian, h, 0.5, "x"), 50000, seed=42)
        assert rep.reference == pytest.approx(0.5)
        assert abs(rep.z_score) < 4

    def test_wick_pairing(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        rep = mc_s_transform(brownian, wick_pairing(brownian, h, h), 50000, seed=43)
        assert rep.reference == pytest.approx(math.e)
        assert abs(rep.z_score) < 4

    def test_jump_pairing_reference(self, jump_bm):
        h = cm_element(jump_bm, [(1.0, 1.0)])
        rep = mc_s_transform(jump_bm, jump_pairing(jump_bm, h, 0, 0.8), 50000, seed=44)
        assert rep.reference == pytest.approx(0.8 * 0.25)
        assert abs(rep.z_score) < 4

    def test_left_limit_observable(self, jump_bm):
        h = cm_element(jump_bm, [(1.0, 1.0)])
        rep = mc_s_transform(jump_bm, f_at(jump_bm, h, 0.5, side=-1), 50000, seed=45)
        assert rep.reference == pytest.approx(0.75)
        assert abs(rep.z_score) < 4

    @pytest.mark.parametrize("tf,reference", [("x2", 0.0), ("exp", 1.0)])
    def test_weak_left_limit_observable(self, evanescent, tf, reference):
        # X_{s0-} is the weak limit 0, so the pairing is F(hbar(s0-)) = F(0)
        h = cm_element(evanescent, [(1.0, 0.3)])
        rep = mc_s_transform(evanescent, f_at(evanescent, h, 0.5, tf, side=-1), 20000, seed=46)
        assert rep.reference == pytest.approx(reference, abs=1e-15)
        assert rep.within(4)

    def test_wick_exponential_product_identity(self, jump_bm):
        # exp<>(h) exp<>(g) = e^{E[gh]} exp<>(g + h), exact per path
        g = cm_element(jump_bm, [(0.6, 0.4)])
        h = cm_element(jump_bm, [(1.0, 1.0)])
        gh = cm_element(jump_bm, [(0.6, 0.4), (1.0, 1.0)])
        sim = simulate_paths(jump_bm, np.array([0.4, 0.5, 1.0]), 500, seed=6)
        lhs = wick_exponential_paths(sim, g) * wick_exponential_paths(sim, h)
        rhs = math.exp(cm_inner(jump_bm, g, h)) * wick_exponential_paths(sim, gh)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_wick_exponential_mean_one(self, coupled):
        h = cm_element(coupled, [(0.8, 0.7)])
        sim = simulate_paths(coupled, np.array([0.5, 0.7]), 200000, seed=77)
        w = wick_exponential_paths(sim, h)
        assert abs(float(np.mean(w)) - 1.0) < 4 * float(np.std(w)) / math.sqrt(len(w))


class TestSimpleSkorokhod:
    def test_constant_integrand_telescopes(self, jump_bm):
        one = cm_element(jump_bm, [], label="one")
        z = SimpleWickIntegrand(times=(0.0, 1.0), open_coeffs=(one,), node_coeffs=(one, one))
        h = cm_element(jump_bm, [(1.0, 1.0)])
        # S-transform of X_T - X_0 is hbar(T) - hbar(0) = 1.25
        assert skorokhod_pairing(jump_bm, z, h).reference == pytest.approx(1.25, abs=1e-14)
        sim = simulate_paths(jump_bm, np.array([0.0, 0.5, 1.0]), 300, seed=8)
        # paired against exp<>(0) = 1, the sample is the bare integral
        vals = skorokhod_pairing(jump_bm, z, one).sample(sim)
        assert np.allclose(vals, sim.paths[:, -1] - sim.paths[:, 0], atol=1e-12)

    def test_wick_coefficient_golden(self, brownian):
        # integral of exp<>(X_1) over (0,1) equals exp<>(X_1)(X_1 - 1);
        # paired against exp<>(2 X_1) the closed form gives 2 e^2
        one = cm_element(brownian, [], label="one")
        f = cm_element(brownian, [(1.0, 1.0)])
        z = SimpleWickIntegrand(times=(0.0, 1.0), open_coeffs=(f,), node_coeffs=(one, one))
        h2 = cm_element(brownian, [(2.0, 1.0)])
        assert skorokhod_pairing(brownian, z, h2).reference == pytest.approx(2.0 * math.exp(2.0), rel=1e-14)
        sim = simulate_paths(brownian, np.array([0.0, 1.0]), 400, seed=9)
        vals = skorokhod_pairing(brownian, z, one).sample(sim)
        x1 = sim.paths[:, 1]
        assert np.allclose(vals, np.exp(x1 - 0.5) * (x1 - 1.0), atol=1e-12)

    def test_mc_pairing(self, jump_bm):
        one = cm_element(jump_bm, [], label="one")
        f = cm_element(jump_bm, [(0.5, 0.5)])
        z = SimpleWickIntegrand(times=(0.0, 0.5, 1.0), open_coeffs=(f, one), node_coeffs=(one, one, one))
        h = cm_element(jump_bm, [(0.8, 1.0)])
        rep = simple_skorokhod_mc(jump_bm, z, h, 100000, seed=10)
        assert abs(rep.z_score) < 4

    def test_increments_walk_one_sided_limits_in_time_order(self, brownian):
        one = cm_element(brownian, [], label="one")
        f = cm_element(brownian, [(1.0, 0.5)], label="f")
        z = SimpleWickIntegrand(times=(0.0, 0.5, 1.0), open_coeffs=(f, one), node_coeffs=(one, one, one))
        assert [(c.label, start, end) for c, start, end in z.increments()] == [
            ("one", (0.0, 0), (0.0, 1)),
            ("f", (0.0, 1), (0.5, -1)),
            ("one", (0.5, -1), (0.5, 1)),
            ("one", (0.5, 1), (1.0, -1)),
            ("one", (1.0, -1), (1.0, 1)),
        ]

    def test_span_validation(self, brownian):
        one = cm_element(brownian, [], label="one")
        z = SimpleWickIntegrand(times=(0.0, 0.5), open_coeffs=(one,), node_coeffs=(one, one))
        # refused when the pairing is built, before any draw
        with pytest.raises(ValueError, match="span"):
            skorokhod_pairing(brownian, z, one)


class TestHermiteP2:
    def test_self_pairing(self, brownian):
        g = cm_element(brownian, [(1.0, 1.0)])
        rep = hermite_p2_identity_mc(brownian, g, g, 50000, seed=11)
        assert rep.reference == pytest.approx(2.0)
        assert abs(rep.z_score) < 4

    def test_orthogonal_increments(self, brownian):
        g = cm_element(brownian, [(1.0, 0.5)])
        h = cm_element(brownian, [(1.0, 1.0), (-1.0, 0.5)])  # increment after 0.5
        rep = hermite_p2_identity_mc(brownian, g, h, 50000, seed=12)
        assert rep.reference == 0.0
        assert abs(rep.z_score) < 4

    def test_cross_pairing_reference(self, brownian):
        g = cm_element(brownian, [(1.0, 1.0)])
        h = cm_element(brownian, [(1.0, 0.5)])
        rep = hermite_p2_identity_mc(brownian, g, h, 50000, seed=13)
        assert rep.reference == pytest.approx(0.5)
        assert abs(rep.z_score) < 4

    def test_needs_a_support_time(self, jump_bm):
        # the Hermite draw holds only g's and h's times, not the discontinuity times
        empty = cm_element(jump_bm, [])
        with pytest.raises(ValueError, match="need at least one support time"):
            hermite_p2_identity_mc(jump_bm, empty, empty, 100, seed=0)


class TestDegenerateObservables:
    def test_faded_coordinate_is_exactly_zero(self, evanescent):
        # X_t for t past the fading time is almost surely 0: the factorization
        # jitter must not leak into it and inflate the z-score
        h = cm_element(evanescent, [(1.0, 0.3)])
        rep = mc_s_transform(evanescent, f_at(evanescent, h, 0.7), 2000, seed=3)
        assert rep.reference == 0.0
        assert rep.estimate == 0.0
        assert rep.z_score == 0.0

    def test_simulated_tail_is_zero(self, evanescent):
        sim = simulate_paths(evanescent, np.array([0.2, 0.6, 0.9]), 500, seed=4)
        assert np.all(sim.paths[:, 1:] == 0.0)
        assert np.all(sim.paths[:, 0] != 0.0)


def test_public_names_resolve():
    import importlib

    import gaussito

    layers = ("regulated", "stieltjes", "heatkernel", "gaussproc", "itoverify", "cli")
    for name in ["gaussito"] + [f"gaussito.{m}" for m in layers]:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert hasattr(gaussito, "__all__") and "McReport" in gaussito.__all__
    # removed surface stays removed: no deleted name resolves from the package or its layer
    removed = {
        "regulated": ("p_variation", "W2StarResult", "w2star_criterion", "Partition", "sigma2"),
        "stieltjes": (
            "TaggedCell",
            "tagged_partition",
            "hk_riemann_sum",
            "young_stieltjes_sum",
            "UnsupportedIntegratorError",
        ),
        "gaussproc": ("planar_variation_sum", "mc_estimate"),
        "itoverify": (
            "s_transform",
            "_DROPPED_TERM",
            "_RCLL_MUTATIONS",
            "_check_mutations",
            "Observable",
            "_pairing",
            "skorokhod_s_transform",
            "skorokhod_sample",
        ),
    }
    for layer, names in removed.items():
        module = importlib.import_module(f"gaussito.{layer}")
        resolved = [attr for attr in names if hasattr(gaussito, attr) or hasattr(module, attr)]
        assert not resolved, f"removed names resolve again from gaussito.{layer}: {resolved}"
    assert not hasattr(Jump, "delta")
    u = RegulatedFunction(lambda ts: ts)
    assert not hasattr(u, "bounded_variation") and not callable(u)
    # a model states its jump Gram matrices and parameters once, in its records
    spec = catalog("jump_bm", jumps=[[0.5, 0.25]])
    gone = ("v", "record_index", "e_x_dplus", "params", "jump_gram_left", "jump_gram_right")
    assert not [attr for attr in gone if hasattr(spec, attr)]
    # both Stieltjes integrals refine the integrator's base under one budget
    from gaussito import stieltjes

    assert not hasattr(RegulatedFunction, "without_jumps")
    assert "continuous" not in inspect.signature(stieltjes._integrate).parameters
    refining = (
        ito_stransform_residual,
        stieltjes.chain_rule,
        stieltjes.integrate_ys,
        stieltjes.integrate_ls,
        stieltjes._integrate,
        stieltjes._adaptive_continuous,
    )
    assert not [fn for fn in refining if "max_refine" in inspect.signature(fn).parameters]


class TestMcReportInvariants:
    def test_standard_error_and_z(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        rep = mc_s_transform(brownian, f_at(brownian, h, 0.5, "x"), 1000, seed=99)
        assert rep.standard_error > 0.0
        assert rep.z_score == pytest.approx((rep.estimate - rep.reference) / rep.standard_error)
        assert rep.n_paths == 1000 and rep.seed == 99

    def test_zero_spread_sample_away_from_reference_fails(self, brownian):
        def const(value, reference):
            return Pairing(reference, np.array([1.0]), lambda sim: np.full(sim.paths.shape[0], value))

        off = mc_s_transform(brownian, const(1.0, reference=0.5), n_paths=100, seed=0)
        assert off.standard_error == 0.0 and off.z_score == 0.0
        assert not off.within(4.0)
        on = mc_s_transform(brownian, const(0.0, reference=0.0), n_paths=100, seed=0)
        assert on.within(4.0)
        assert not mc_s_transform(brownian, const(np.nan, 0.0), 100, 0).within(4.0)

    def test_too_few_paths(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        with pytest.raises(ValueError):
            mc_s_transform(brownian, f_at(brownian, h, 0.5, "x"), 1, seed=99)


class TestBattery:
    def test_minimum_size(self, all_specs):
        for spec in all_specs:
            battery = auto_cm_battery(spec)
            assert len(battery) >= 3
            for h in battery:
                assert h.hbar.domain == (0.0, spec.horizon)

    def test_jump_models_cover_jump_times(self, jump_bm):
        battery = auto_cm_battery(jump_bm)
        support = {t for h in battery for _, t in h.coeffs}
        assert 0.5 in support
