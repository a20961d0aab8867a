import math
import tracemalloc
from dataclasses import replace

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
    ItoCase,
    Observable,
    SimpleWickIntegrand,
    auto_cm_battery,
    hermite_p2_identity_mc,
    ito_rcll_residual,
    ito_stransform_residual,
    martingale_ito_mc,
    mc_s_transform,
    s_transform,
    simple_skorokhod_mc,
    skorokhod_s_transform,
    skorokhod_sample,
    wick_exponential_paths,
)
from gaussito.regulated import Jump, Partition, RegulatedFunction
from gaussito.stieltjes import ChainRuleTerms


def make_case(spec, fname, coeffs, **kw):
    return ItoCase(spec, make_tf(fname, spec.lam), cm_element(spec, coeffs), **kw)


class TestSTransform:
    def test_process_value(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        assert s_transform(Observable(kind="process", t=0.5), case) == pytest.approx(0.5)

    def test_wick_exponential_self_pairing(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        obs = Observable(kind="wick_exp", g=case.h)
        assert s_transform(obs, case) == pytest.approx(math.e)

    def test_smoothed_square(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        assert s_transform(Observable(kind="f", t=1.0), case) == pytest.approx(2.0)

    def test_scaling_in_h(self, jump_bm):
        base = make_case(jump_bm, "x2", [(1.0, 1.0)])
        scaled = make_case(jump_bm, "x2", [(2.5, 1.0)])
        for t in (0.3, 0.5, 0.9):
            obs = Observable(kind="process", t=t)
            assert s_transform(obs, scaled) == pytest.approx(2.5 * s_transform(obs, base), abs=1e-14)

    def test_one_sided_forms(self, jump_bm):
        case = make_case(jump_bm, "x2", [(1.0, 1.0)])
        # psi(V(0.5-), hbar(0.5-)) = 0.5^2 + 0.5 and psi(V(0.5), hbar(0.5)) right limit
        assert s_transform(Observable(kind="f_left", t=0.5), case) == pytest.approx(0.75)
        assert s_transform(Observable(kind="f_right", t=0.5), case) == pytest.approx(0.75**2 + 0.75)

    def test_growth_guard_at_case_build(self, brownian):
        from gaussito.heatkernel import GrowthBound, GrowthBoundError

        tf = make_tf("exp", brownian.lam)
        bad = replace(tf, growth=GrowthBound(scale=tf.growth.scale, rate=1.0))
        with pytest.raises(GrowthBoundError):
            ItoCase(brownian, bad, cm_element(brownian, [(1.0, 1.0)]))


class TestGeneralResidual:
    def test_brownian_square_terms(self, brownian):
        res = ito_stransform_residual(make_case(brownian, "x2", [(1.0, 1.0)]))
        assert res.lhs == pytest.approx(2.0)
        assert res.integral_dhbar == pytest.approx(1.0, abs=1e-10)
        assert res.integral_dv_half == pytest.approx(1.0, abs=1e-10)
        assert res.left_jump_sum == 0.0 and res.right_jump_sum == 0.0
        assert abs(res.residual) < 1e-10
        assert res.converged

    def test_jump_bm_hand_breakdown(self, jump_bm):
        # hand-evaluated closed forms: lhs = 1.5625 + 1.25, dhbar integral
        # 1.25 + 0.375, variance integral 1.25, left jump term -0.0625
        res = ito_stransform_residual(make_case(jump_bm, "x2", [(1.0, 1.0)]))
        assert res.lhs == pytest.approx(2.8125)
        assert res.integral_dhbar == pytest.approx(1.625, abs=1e-10)
        assert res.integral_dv_half == pytest.approx(1.25, abs=1e-11)
        assert res.left_jump_sum == pytest.approx(-0.0625, abs=1e-12)
        assert abs(res.residual) < 1e-10

    def test_evanescent_exp_jump_term(self, evanescent):
        # induced functions vanish at s0, so the left term is
        # e^0 - e^{1/2} - 0 - (1/2) e^0 (0 - 1) = 1.5 - sqrt(e)
        res = ito_stransform_residual(make_case(evanescent, "exp", [(1.0, 0.3)]))
        s, val = res.left_jump_terms[0]
        assert s == 0.5
        assert val == pytest.approx(1.5 - math.exp(0.5), abs=1e-12)
        assert abs(res.residual) < 1e-9

    def test_mutation_jump_sum_sensitivity(self, jump_bm):
        case = make_case(jump_bm, "x2", [(1.0, 1.0)])
        clean = ito_stransform_residual(case)
        mutated = ito_stransform_residual(case, drop={"drop_left_jump_sum"})
        assert mutated.residual - clean.residual == pytest.approx(-0.0625, abs=1e-12)

    def test_mutation_dv_sensitivity(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        mutated = ito_stransform_residual(case, drop={"drop_dv_integral"})
        assert mutated.residual == pytest.approx(1.0, abs=1e-9)

    def test_unmutated_residual_is_the_engine_residual(self, jump_bm):
        # the general result is the engine's terms plus case, drop and agreement_delta
        res = ito_stransform_residual(make_case(jump_bm, "sin", [(0.7, 0.5), (0.4, 0.9)]))
        assert isinstance(res, ChainRuleTerms)
        assert res.residual == ChainRuleTerms.residual.fget(res)
        mutated = replace(res, drop=frozenset({"drop_left_jump_sum"}))
        assert mutated.residual != ChainRuleTerms.residual.fget(mutated)

    def test_unknown_mutation_rejected(self, brownian):
        with pytest.raises(ValueError):
            ito_stransform_residual(make_case(brownian, "x2", [(1.0, 1.0)]), drop={"bogus"})

    def test_rough_pairing_flags_are_honest(self):
        # a 0.2-Hoelder cusp cannot be refined to 1e-11 before the bisection
        # width floor; the engine must say so instead of claiming convergence
        from gaussito.gaussproc import catalog

        spec = catalog("fbm", hurst=0.1)
        h = cm_element(spec, [(0.8, 0.4)])
        tight = ito_stransform_residual(ItoCase(spec, make_tf("x2", spec.lam), h, max_refine=2000))
        assert not tight.converged
        loose = ito_stransform_residual(ItoCase(spec, make_tf("x2", spec.lam), h, ys_tol=1e-5))
        assert loose.converged
        assert abs(loose.residual) < 1e-5

    def test_permutation_invariance_of_jump_sums(self):
        from gaussito.gaussproc import catalog

        spec = catalog("jump_bm", jumps=[(0.2, 0.04), (0.5, 0.25), (0.8, 0.09)])
        case = make_case(spec, "x3", [(0.8, 0.5), (-0.4, 1.0)])
        base = ito_stransform_residual(case)
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = tuple(spec.records[i] for i in rng.permutation(len(spec.records)))
            spec.records = perm
            res = ito_stransform_residual(case)
            assert abs(res.left_jump_sum - base.left_jump_sum) < 1e-14
            assert abs(res.residual - base.residual) < 1e-14


class TestRcllResidual:
    def test_agrees_with_general(self, jump_bm):
        for fname in ("x2", "sin"):
            case = make_case(jump_bm, fname, [(0.7, 0.5), (0.3, 1.0)])
            general = ito_stransform_residual(case)
            reduced = ito_rcll_residual(ito_stransform_residual(case))
            assert reduced.agreement_delta == abs(general.residual - reduced.residual)
            assert abs(general.residual - reduced.residual) < 1e-10
            assert abs(reduced.residual) < 1e-9

    def test_coupled_correction_weight(self, coupled):
        # dropping the left-limit/jump correlation term shifts the residual by
        # psi_{F''} * E[X_{s-} dX] = 2 * 0.5 = 1 for F = x^2, h = X_T
        case = make_case(coupled, "x2", [(1.0, 1.0)])
        clean = ito_rcll_residual(ito_stransform_residual(case))
        mutated = ito_rcll_residual(ito_stransform_residual(case), drop={"drop_xleft_correction"})
        assert abs(clean.residual) < 1e-10
        assert mutated.residual - clean.residual == pytest.approx(1.0, abs=1e-8)

    def test_martingale_correction_is_free(self, jump_bm):
        case = make_case(jump_bm, "x2", [(1.0, 1.0)])
        clean = ito_rcll_residual(ito_stransform_residual(case))
        mutated = ito_rcll_residual(ito_stransform_residual(case), drop={"drop_xleft_correction"})
        assert mutated.residual == pytest.approx(clean.residual, abs=1e-14)

    def test_rejects_general_kind(self, evanescent):
        with pytest.raises(UnsupportedModelError):
            ito_rcll_residual(ito_stransform_residual(make_case(evanescent, "x2", [(1.0, 0.3)])))

    def test_brownian_degenerates_to_continuous_form(self, brownian):
        case = make_case(brownian, "sin", [(1.0, 1.0)])
        res = ito_rcll_residual(ito_stransform_residual(case))
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
    record = DiscontinuityRecord(
        time=s0,
        e_dminus_sq=0.0,
        e_dplus_sq=var,
        v_left=s0,
        v_right=s0 + var,
        v_minus=s0,
        v_plus=s0 + var,
        e_xleft_dminus=0.0,
    )
    spec = ProcessSpec(
        name="forward_jump_bm",
        kind="general",
        horizon=horizon,
        lam=horizon + var,
        cov=cov,
        variance=variance,
        records=(record,),
        jump_cov_right=lambda ts, k: var * (np.asarray(ts, dtype=float) > s0),
        jump_gram_right=np.array([[var]]),
    )
    spec.validate()
    return spec


class TestForwardJump:
    def test_right_jump_terms_active(self):
        spec = forward_jump_spec()
        case = make_case(spec, "x2", [(1.0, 1.0)])
        res = ito_stransform_residual(case)
        assert res.right_jump_terms and res.right_jump_terms[0][1] != 0.0
        assert res.left_jump_sum == 0.0
        assert abs(res.residual) < 1e-10

    def test_right_jump_mutation_sensitivity(self):
        spec = forward_jump_spec()
        case = make_case(spec, "x2", [(1.0, 1.0)])
        clean = ito_stransform_residual(case)
        mutated = ito_stransform_residual(case, drop={"drop_right_jump_sum"})
        assert mutated.residual - clean.residual == pytest.approx(
            clean.right_jump_sum, abs=1e-12
        )
        assert abs(mutated.residual) > 1e-3

    def test_transcendental_residual(self):
        spec = forward_jump_spec()
        case = make_case(spec, "sin", [(0.6, 0.4), (0.4, 0.9)])
        res = ito_stransform_residual(case)
        assert abs(res.residual) < 1e-8


class TestMartingaleItoMc:
    def test_square_discretization_error(self, jump_bm):
        tfs = [make_tf("x2", jump_bm.lam)]
        ((rep,),) = martingale_ito_mc(jump_bm, tfs, [Partition.uniform(0, 1, 2**8)], 4000, seed=5)
        assert 0.0 < rep.estimate < 0.1

    def test_linear_telescopes(self, jump_bm):
        tfs = [make_tf("x", jump_bm.lam)]
        ((rep,),) = martingale_ito_mc(jump_bm, tfs, [Partition.uniform(0, 1, 2**8)], 2000, seed=5)
        assert rep.estimate < 1e-12

    def test_non_nested_grids_raise(self, jump_bm):
        tfs = [make_tf("x2", jump_bm.lam)]
        with pytest.raises(ValueError, match="nested"):
            martingale_ito_mc(jump_bm, tfs, [Partition.uniform(0, 1, 16), Partition.uniform(0, 1, 24)], 100, seed=1)
        with pytest.raises(ValueError, match="span"):
            martingale_ito_mc(jump_bm, tfs, [Partition.uniform(0, 1, 16), Partition((0.0, 0.5))], 100, seed=1)

    def test_coarser_grids_leave_finest_level_unchanged(self, jump_bm):
        tfs = [make_tf("sin", jump_bm.lam)]
        grids = [Partition.uniform(0, 1, 2**d) for d in (6, 7, 8)]
        # 3000 paths on 257 points are two batches
        ((alone,),) = martingale_ito_mc(jump_bm, tfs, grids[-1:], 3000, seed=9)
        (reports,) = martingale_ito_mc(jump_bm, tfs, grids, 3000, seed=9)
        assert reports[-1] == alone
        assert [r.label for r in reports] == [f"martingale_ito[jump_bm,sin,n={2**d}]" for d in (6, 7, 8)]
        assert reports[0].estimate > reports[1].estimate > reports[2].estimate
        # reports follow the order the grids are given in
        assert martingale_ito_mc(jump_bm, tfs, grids[::-1], 3000, seed=9)[0] == reports[::-1]

    def test_memory_bounded_by_batch(self, jump_bm):
        one = [make_tf("sin", jump_bm.lam)]
        three = one + [make_tf("x2", jump_bm.lam), make_tf("exp", jump_bm.lam)]
        grids = [Partition.uniform(0, 1, 2**d) for d in (9, 10, 11)]
        peaks = {}
        for n_paths in (2000, 8000):
            for tfs in (one, three):
                tracemalloc.start()
                try:
                    martingale_ito_mc(jump_bm, tfs, grids, n_paths, seed=3)
                    peaks[n_paths, len(tfs)] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[8000, 1] <= 1.1 * peaks[2000, 1]
        # the test functions share the batch; each adds only its own evaluations
        for n_paths in (2000, 8000):
            assert peaks[n_paths, 3] <= 1.15 * peaks[n_paths, 1]

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

    def test_requires_martingale(self, coupled):
        with pytest.raises(UnsupportedModelError):
            martingale_ito_mc(coupled, [make_tf("x2", coupled.lam)], [Partition.uniform(0, 1, 16)], 100, seed=1)

    def test_requires_paths(self, jump_bm):
        with pytest.raises(ValueError):
            martingale_ito_mc(jump_bm, [make_tf("x2", jump_bm.lam)], [Partition.uniform(0, 1, 16)], 0, seed=1)

    def test_requires_admissible_test_functions(self, jump_bm):
        from gaussito.heatkernel import GrowthBound, GrowthBoundError

        grids = [Partition.uniform(0, 1, 16)]
        with pytest.raises(ValueError, match="test function"):
            martingale_ito_mc(jump_bm, [], grids, 100, seed=1)
        tf = make_tf("exp", jump_bm.lam)
        bad = replace(tf, growth=GrowthBound(scale=tf.growth.scale, rate=1.0))
        with pytest.raises(GrowthBoundError):
            martingale_ito_mc(jump_bm, [make_tf("x", jump_bm.lam), bad], grids, 100, seed=1)

    def test_sharing_couples_only_the_draw(self, monkeypatch):
        import gaussito.gaussproc

        spec = catalog("jump_bm", jumps=[[0.3, 0.2], [0.7, 0.3]])
        tfs = [make_tf(name, spec.lam) for name in ("x", "x2", "sin")]
        grids = [Partition.uniform(0, 1, 2**d) for d in (6, 7, 8)]
        calls = []
        original = gaussito.gaussproc.simulate_paths

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # the batch loop lives in gaussproc.simulate_batches
        monkeypatch.setattr(gaussito.gaussproc, "simulate_paths", counting)
        # 3000 paths on the 259 points of the finest joined grid are two batches
        shared = martingale_ito_mc(spec, tfs, grids, 3000, seed=11)
        assert len(calls) == 2
        assert [[r.label for r in reps] for reps in shared] == [
            # each grid is joined with the two discontinuity times
            [f"martingale_ito[jump_bm,{tf.name},n={2**d + 2}]" for d in (6, 7, 8)] for tf in tfs
        ]
        for k, tf in enumerate(tfs):
            assert shared[k] == martingale_ito_mc(spec, [tf], grids, 3000, seed=11)[0]


class TestMcSTransform:
    def test_process_pairing(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        rep = mc_s_transform(case, Observable(kind="process", t=0.5), 50000, seed=42)
        assert rep.reference == pytest.approx(0.5)
        assert abs(rep.z_score) < 4

    def test_wick_pairing(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        rep = mc_s_transform(case, Observable(kind="wick_exp", g=case.h), 50000, seed=43)
        assert rep.reference == pytest.approx(math.e)
        assert abs(rep.z_score) < 4

    def test_jump_pairing_reference(self, jump_bm):
        case = make_case(jump_bm, "x2", [(1.0, 1.0)])
        rep = mc_s_transform(case, Observable(kind="jump_pairing", jump_index=0, coeff=0.8), 50000, seed=44)
        assert rep.reference == pytest.approx(0.8 * 0.25)
        assert abs(rep.z_score) < 4

    def test_left_limit_observable(self, jump_bm):
        case = make_case(jump_bm, "x2", [(1.0, 1.0)])
        rep = mc_s_transform(case, Observable(kind="f_left", t=0.5), 50000, seed=45)
        assert rep.reference == pytest.approx(0.75)
        assert abs(rep.z_score) < 4

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
        assert skorokhod_s_transform(jump_bm, z, h) == pytest.approx(1.25, abs=1e-14)
        sim = simulate_paths(jump_bm, np.array([0.0, 0.5, 1.0]), 300, seed=8)
        vals = skorokhod_sample(jump_bm, z, sim)
        assert np.allclose(vals, sim.paths[:, -1] - sim.paths[:, 0], atol=1e-12)

    def test_wick_coefficient_golden(self, brownian):
        # integral of exp<>(X_1) over (0,1) equals exp<>(X_1)(X_1 - 1);
        # paired against exp<>(2 X_1) the closed form gives 2 e^2
        one = cm_element(brownian, [], label="one")
        f = cm_element(brownian, [(1.0, 1.0)])
        z = SimpleWickIntegrand(times=(0.0, 1.0), open_coeffs=(f,), node_coeffs=(one, one))
        h2 = cm_element(brownian, [(2.0, 1.0)])
        assert skorokhod_s_transform(brownian, z, h2) == pytest.approx(2.0 * math.exp(2.0), rel=1e-14)
        sim = simulate_paths(brownian, np.array([0.0, 1.0]), 400, seed=9)
        vals = skorokhod_sample(brownian, z, sim)
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
        with pytest.raises(ValueError):
            skorokhod_s_transform(brownian, z, one)


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


class TestDegenerateObservables:
    def test_faded_coordinate_is_exactly_zero(self, evanescent):
        # X_t for t past the fading time is almost surely 0: the factorization
        # jitter must not leak into it and inflate the z-score
        h = cm_element(evanescent, [(1.0, 0.3)])
        case = make_case(evanescent, "x2", [(1.0, 0.3)])
        rep = mc_s_transform(case, Observable(kind="f", t=0.7), 2000, seed=3)
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


class TestMcReportInvariants:
    def test_standard_error_and_z(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        rep = mc_s_transform(case, Observable(kind="process", t=0.5), 1000, seed=99)
        assert rep.standard_error > 0.0
        assert rep.z_score == pytest.approx((rep.estimate - rep.reference) / rep.standard_error)
        assert rep.n_paths == 1000 and rep.seed == 99

    def test_zero_spread_sample_away_from_reference_fails(self, brownian):
        from gaussito.gaussproc import mc_estimate

        def const(value):
            return lambda sim: np.full(sim.paths.shape[0], value)

        grid = np.array([1.0])
        off = mc_estimate(brownian, grid, const(1.0), reference=0.5, n_paths=100, seed=0, label="const")
        assert off.standard_error == 0.0 and off.z_score == 0.0
        assert not off.within(4.0)
        on = mc_estimate(brownian, grid, const(0.0), reference=0.0, n_paths=100, seed=0, label="const")
        assert on.within(4.0)
        assert not mc_estimate(brownian, grid, const(np.nan), 0.0, 100, 0, "nan").within(4.0)

    def test_too_few_paths(self, brownian):
        case = make_case(brownian, "x2", [(1.0, 1.0)])
        with pytest.raises(ValueError):
            mc_s_transform(case, Observable(kind="process", t=0.5), 1, seed=99)


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
