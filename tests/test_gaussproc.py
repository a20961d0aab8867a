import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import sample_covariance
from gaussito.gaussproc import (
    CatalogError,
    DiscontinuityRecord,
    ProcessSpec,
    UnsupportedModelError,
    catalog,
    catalog_entries,
    cm_element,
    cm_inner,
    path_qv_mc,
    path_qv_pairing,
    planar_qv_sum,
    prepare_sampler,
    simulate_batches,
    simulate_paths,
)
from gaussito.gaussproc import _BATCH_ELEMENTS, _GRAM_BYTES, _Buffers, _chol_with_jitter, _one_sided_cov_matrix
from gaussito.itoverify import Pairing, mc_s_transform, wick_exponential_paths
from gaussito.regulated import Jump, RegulatedFunction


class TestCatalog:
    def test_fbm_half_matches_min(self):
        spec = catalog("fbm", hurst=0.5, horizon=2.0)
        assert float(spec.cov(1.0, 2.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
    def test_fbm_unit_diagonal(self, hurst):
        spec = catalog("fbm", hurst=hurst, horizon=2.0)
        assert float(spec.cov(1.0, 1.0)) == pytest.approx(1.0)

    def test_coupled_record_values(self, coupled):
        rec = coupled.records[0]
        v_left = float(coupled.variance.left_values(rec.time)) - rec.lost_minus
        assert float(coupled.variance.values(0.5)) == pytest.approx(2.0)
        assert v_left == pytest.approx(0.5)
        assert rec.e_dminus_sq == pytest.approx(0.5)
        assert rec.e_xleft_dminus == pytest.approx(0.5)
        # jump of the variance via the moment identity
        delta_v = 2.0 * (rec.e_xleft_dminus + rec.e_dminus_sq) - rec.e_dminus_sq
        assert delta_v == pytest.approx(1.5)
        assert float(coupled.variance.values(0.5)) - v_left == pytest.approx(1.5)

    def test_unknown_model(self):
        with pytest.raises(CatalogError):
            catalog("geometric_bm")

    @pytest.mark.parametrize(
        "model_id,params",
        [
            ("fbm", {"hurst": 0.0}),
            ("fbm", {"hurst": 1.0}),
            ("jump_bm", {"jumps": []}),
            ("jump_bm", {"jumps": [(0.0, 0.25)]}),
            ("jump_bm", {"jumps": [(0.5, -0.1)]}),
            ("coupled_jump_bm", {"c": 0.0, "s0": 0.5}),
            ("coupled_jump_bm", {"c": 1.0, "s0": 1.5}),
            ("evanescent", {"s0": 2.0}),
            ("brownian", {"horizon": -1.0}),
            ("brownian", {"jumps": [(0.5, 0.1)]}),
            # malformed values: the builder's ValueError becomes a CatalogError
            ("jump_bm", {"jumps": [[0.5]]}),
            # a third entry is refused, never read as a coupling
            ("jump_bm", {"jumps": [[0.5, 0.25, 0.1]]}),
            ("jump_bm", {"jumps": [[0.5, "x"]]}),
            ("fbm", {"hurst": "abc"}),
            ("evanescent", {"s0": "x"}),
            # float() reads a bool or a numeric string; neither is a model parameter
            ("jump_bm", {"jumps": [[0.5, True]]}),
            ("coupled_jump_bm", {"c": "1.5", "s0": 0.5, "horizon": "2"}),
            ("fbm", {"hurst": 0.5, "horizon": True}),
        ],
    )
    def test_invalid_params(self, model_id, params):
        with pytest.raises(CatalogError):
            catalog(model_id, **params)

    def test_bool_and_str_params_are_named(self):
        with pytest.raises(CatalogError, match="'jumps' holds a bool or a string"):
            catalog("jump_bm", jumps=[(0.2, 0.04), [0.5, np.True_]])
        with pytest.raises(CatalogError, match="'horizon' holds a bool or a string"):
            catalog("fbm", hurst=0.5, horizon=True)
        # numbers, numpy reals among them, and lists of them are still read
        spec = catalog("jump_bm", jumps=[[np.float64(0.5), np.float32(0.25)]], horizon=np.int64(2))
        assert spec.horizon == 2.0 and spec.record_times() == (0.5,)

    def test_builder_errors_keep_their_messages(self):
        with pytest.raises(CatalogError, match="^jump variances must be positive$"):
            catalog("jump_bm", jumps=[[0.5, 0.0]])
        with pytest.raises(CatalogError, match="^bad parameters for 'jump_bm': too many values"):
            catalog("jump_bm", jumps=[[0.5, 0.25, 0.1]])

    def test_variance_matches_covariance_diagonal(self, all_specs):
        for spec in all_specs:
            ts = np.linspace(0.0, spec.horizon, 23)
            assert np.max(np.abs(np.asarray(spec.cov(ts, ts)) - spec.variance.values(ts))) < 1e-12

    def test_record_moment_identities(self, all_specs):
        for spec in all_specs:
            for rec in spec.records:
                v_left, v_here, _ = spec.variance.one_sided(rec.time)
                assert rec.lost_minus >= 0.0
                v_minus = v_left - rec.lost_minus
                assert 2.0 * rec.e_xleft_dminus + rec.e_dminus_sq + v_minus == pytest.approx(v_here, abs=1e-12)

    def test_summability_condition_finite(self, all_specs):
        for spec in all_specs:
            total = sum(
                r.e_dplus_sq + r.e_dminus_sq + r.lost_minus
                for r in spec.records
            )
            assert math.isfinite(total)

    def test_catalog_listing(self):
        ids = {e.model_id for e in catalog_entries()}
        assert ids == {"brownian", "fbm", "jump_bm", "coupled_jump_bm", "evanescent"}

    @pytest.mark.parametrize(
        "model_id,params",
        [
            ("brownian", {"horizon": 2.0}),
            ("fbm", {"hurst": 0.3, "horizon": 2.0}),
            ("fbm", {"hurst": 0.7}),
            ("jump_bm", {"jumps": [(0.2, 0.04), (0.5, 0.25), (0.8, 0.09)]}),
            ("coupled_jump_bm", {"c": 1.0, "s0": 0.5}),
            ("coupled_jump_bm", {"c": -0.5, "s0": 0.8}),
            ("coupled_jump_bm", {"c": -1.0, "s0": 0.9}),
            ("coupled_jump_bm", {"c": -2.5, "s0": 0.4}),
            ("evanescent", {"s0": 0.5}),
        ],
    )
    def test_lam_is_sup_of_variance(self, model_id, params):
        spec = catalog(model_id, **params)
        V = spec.variance
        limits = [v for s in V.jump_times for v in V.one_sided(s)]
        assert spec.lam == max([float(np.max(V.values(np.linspace(0.0, spec.horizon, 4097)))), *limits])

    def test_lam_after_a_downward_jump(self):
        # V(s0-) = 0.9 drops to V(s0) = 0.9 - 0.9 = 0 and grows to V(1) = 0.1
        assert catalog("coupled_jump_bm", c=-1.0, s0=0.9).lam == 0.9


def _quarter_jump_cov(t, s):
    m = np.minimum(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    return m + 0.25 * (m >= 0.5)


def _quarter_jump_variance():
    return RegulatedFunction(lambda ts: np.array(ts, dtype=float), [Jump(0.5, 0.25)])


class TestValidate:
    """Each of ``ProcessSpec.validate``'s refusals, on a spec built by hand."""

    def test_accepts_consistent_spec(self):
        ProcessSpec("quarter_jump", 1.0, _quarter_jump_cov, _quarter_jump_variance(), (DiscontinuityRecord(0.5, 0.25),)).validate()

    def test_diagonal_disagrees_with_variance(self):
        cov = lambda t, s: np.minimum(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        spec = ProcessSpec("twice_bm", 1.0, cov, RegulatedFunction(lambda ts: 2.0 * np.asarray(ts, dtype=float)))
        with pytest.raises(CatalogError, match="disagrees with covariance diagonal"):
            spec.validate()

    @pytest.mark.parametrize(
        "record",
        [
            DiscontinuityRecord(0.5, 0.3),  # E[dX^2] + V(s-) = 0.8 != V(s) = 0.75
            DiscontinuityRecord(0.5, 0.15, lost_minus=-0.1),  # moment identity holds, lost < 0
        ],
        ids=["moment_identity", "negative_lost_minus"],
    )
    def test_inconsistent_record(self, record):
        spec = ProcessSpec("quarter_jump", 1.0, _quarter_jump_cov, _quarter_jump_variance(), (record,))
        with pytest.raises(CatalogError, match="inconsistent discontinuity record"):
            spec.validate()

    def test_variance_above_lam(self):
        # X_t = (1 - t) Z: a decreasing V, so V(T) = 0 is not its sup
        spec = ProcessSpec(
            "fading",
            1.0,
            lambda t, s: (1.0 - np.asarray(t, dtype=float)) * (1.0 - np.asarray(s, dtype=float)),
            RegulatedFunction(lambda ts: (1.0 - np.asarray(ts, dtype=float)) ** 2),
        )
        assert spec.lam == 0.0
        with pytest.raises(CatalogError, match="exceeds its derived sup"):
            spec.validate()


class TestEvanescent:
    def test_variance_profile(self, evanescent):
        assert float(evanescent.variance.values(0.3)) == 1.0
        assert float(evanescent.variance.values(0.499)) == 1.0
        assert float(evanescent.variance.values(0.5)) == 0.0
        assert float(evanescent.variance.values(0.9)) == 0.0

    def test_weak_limit_record(self, evanescent):
        rec = evanescent.records[0]
        assert float(evanescent.variance.left_values(rec.time)) == 1.0 and rec.lost_minus == 1.0
        assert rec.e_dminus_sq == 0.0 and rec.e_xleft_dminus == 0.0

    def test_covariance_vanishes_across_two_windows(self, evanescent):
        # t in window 0, s in window 2: no shared coordinate
        assert float(evanescent.cov(0.1, 0.4)) == 0.0

    def test_covariance_continuous_at_window_edges(self, evanescent):
        for edge in (0.25, 0.375, 0.4375):
            lo = float(evanescent.cov(edge - 1e-12, 0.2))
            hi = float(evanescent.cov(edge + 1e-12, 0.2))
            assert lo == pytest.approx(hi, abs=1e-9)

    def test_sections_fade_at_s0(self, evanescent):
        h = cm_element(evanescent, [(1.0, 0.3)])
        assert float(h.hbar.left_values(0.5)) == pytest.approx(0.0, abs=1e-15)
        assert float(h.hbar.values(0.75)) == 0.0
        assert not h.hbar.jumps  # no jump in the induced function


class TestCameronMartin:
    def test_brownian_unit(self, brownian):
        h = cm_element(brownian, [(1.0, 1.0)])
        ts = np.linspace(0, 1, 11)
        assert np.allclose(h.hbar.values(ts), np.minimum(ts, 1.0), atol=1e-14)
        assert h.norm_sq == pytest.approx(1.0)

    def test_jump_bm_section(self, jump_bm):
        h = cm_element(jump_bm, [(1.0, 1.0)])
        ts = np.array([0.2, 0.5, 0.9])
        assert np.allclose(h.hbar.values(ts), ts + 0.25 * (ts >= 0.5), atol=1e-14)
        assert h.hbar.delta_minus_at(0.5) == pytest.approx(0.25)
        assert h.norm_sq == pytest.approx(1.25)

    def test_empty_element(self, all_specs):
        # the empty element takes the general path: zero-width covariance arrays
        for spec in all_specs:
            h = cm_element(spec, [])
            assert h.norm_sq == 0.0
            assert not h.hbar.jumps
            assert np.all(h.hbar.values(np.linspace(0.0, spec.horizon, 33)) == 0.0)
            assert cm_inner(spec, h, cm_element(spec, [(1.0, 0.3)])) == 0.0
            sim = simulate_paths(spec, np.array([0.3, spec.horizon]), 20, seed=3)
            assert np.array_equal(wick_exponential_paths(sim, h), np.ones(20))

    def test_linearity_pointwise(self, coupled):
        a = cm_element(coupled, [(0.7, 0.4)])
        b = cm_element(coupled, [(-0.3, 0.8)])
        both = cm_element(coupled, [(0.7, 0.4), (-0.3, 0.8)])
        ts = np.linspace(0, 1, 17)
        assert np.allclose(both.hbar.values(ts), a.hbar.values(ts) + b.hbar.values(ts), atol=1e-14)

    def test_inner_product(self, brownian):
        g = cm_element(brownian, [(1.0, 1.0)])
        h = cm_element(brownian, [(1.0, 0.5)])
        assert cm_inner(brownian, g, h) == pytest.approx(0.5)

    def test_times_outside_domain(self, brownian):
        with pytest.raises(ValueError):
            cm_element(brownian, [(1.0, 2.0)])


class TestPlanarSums:
    def test_brownian_quadratic_exact(self, brownian):
        for n in (2, 4, 8, 16):
            assert planar_qv_sum(brownian, np.linspace(0, 1, n + 1)) == 1.0 / n

    def test_decreasing_under_refinement(self, brownian):
        vals = [planar_qv_sum(brownian, np.linspace(0, 1, n + 1)) for n in (2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_fbm_half_equals_brownian(self, brownian):
        spec = catalog("fbm", hurst=0.5)
        pi = np.linspace(0, 1, 9)
        assert planar_qv_sum(spec, pi) == pytest.approx(planar_qv_sum(brownian, pi), abs=1e-15)

    def test_one_sided_jump_increments(self, jump_bm):
        # E[X_{0.5-} X_1] = R(0.5, 1) - E[xi X_1] = 0.75 - 0.25
        m = _one_sided_cov_matrix(jump_bm, np.array([0.5]), -1, np.array([1.0]), 0)
        assert m[0, 0] == pytest.approx(0.5)
        # left-limit increments across the jump have no jump mass
        pi = np.array([0.0, 0.5, 1.0])
        assert planar_qv_sum(jump_bm, pi) == pytest.approx(0.5**2 + 0.5**2)

    def test_two_jump_one_sided_gram(self):
        # X = B + xi_1 1{t >= 0.3} + xi_2 1{t >= 0.7}, Var xi = 0.2, 0.3
        spec = catalog("jump_bm", jumps=[[0.3, 0.2], [0.7, 0.3]])
        ts = np.array([0.3, 0.7])
        left = _one_sided_cov_matrix(spec, ts, -1, ts, -1)
        np.testing.assert_allclose(left, [[0.3, 0.3], [0.3, 0.9]], rtol=0, atol=1e-15)
        right = _one_sided_cov_matrix(spec, ts, +1, ts, +1)
        np.testing.assert_allclose(right, [[0.5, 0.5], [0.5, 1.2]], rtol=0, atol=1e-15)


class TestSimulation:
    def test_brownian_sample_covariance(self, brownian):
        sim = simulate_paths(brownian, np.array([0.0, 0.5, 1.0]), 100000, seed=1234)
        cov = sample_covariance(sim.paths)
        target = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 1.0]])
        # 4 * SE with SE ~ sqrt((v_ii v_jj + v_ij^2) / n)
        for i in range(3):
            for j in range(3):
                se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / 100000) + 1e-9
                assert abs(cov[i, j] - target[i, j]) < 4 * se

    def test_zero_paths(self, brownian):
        sim = simulate_paths(brownian, np.array([0.0, 1.0]), 0, seed=1)
        assert sim.paths.shape == (0, 2)

    def test_jump_variance(self, jump_bm):
        sim = simulate_paths(jump_bm, np.array([0.0, 0.5, 1.0]), 100000, seed=7)
        var = float(np.mean(sim.jump_draws[:, 0] ** 2))
        se = math.sqrt(2 * 0.25**2 / 100000)
        assert abs(var - 0.25) < 4 * se

    def test_jump_consistency_with_paths(self, jump_bm):
        # path minus jump indicator reproduces a continuous-martingale increment
        sim = simulate_paths(jump_bm, np.array([0.0, 0.4, 0.5, 1.0]), 50000, seed=3)
        left = sim.paths[:, 2] - sim.jump_draws[:, 0]
        inc = left - sim.paths[:, 1]  # Brownian increment over [0.4, 0.5]
        assert abs(float(np.mean(inc**2)) - 0.1) < 4 * math.sqrt(2 * 0.1**2 / 50000)

    def test_deterministic_given_seed(self, coupled):
        a = simulate_paths(coupled, np.array([0.0, 0.5, 1.0]), 100, seed=11)
        b = simulate_paths(coupled, np.array([0.0, 0.5, 1.0]), 100, seed=11)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.jump_draws, b.jump_draws)

    @pytest.mark.parametrize(
        "grid", [(0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.2, 0.45, 0.8, 1.0)], ids=["jump_on_grid", "jump_off_grid"]
    )
    @pytest.mark.parametrize("model", ["brownian", "jump_bm", "coupled"])
    def test_in_place_samplers_match_out_of_place_draws(self, model, grid, request):
        # the draws the samplers made with out-of-place temporaries, rebuilt
        # from the same seed: same values and same signs of zero
        spec = request.getfixturevalue(model)
        grid = np.asarray(grid)
        rng = np.random.default_rng(13)

        def brownian(pts):
            inc_var = np.diff(np.concatenate([[0.0], pts]))
            return np.cumsum(rng.standard_normal((50, len(pts))) * np.sqrt(inc_var), axis=1)

        if model == "brownian":
            paths, draws = brownian(grid), np.zeros((50, 0))
        elif model == "jump_bm":
            full = np.union1d(grid, [0.5])
            B = brownian(full)
            draws = rng.standard_normal((50, 1)) * np.sqrt(0.25)
            # the columns before the jump are left as drawn, zeros keep their sign
            paths = np.where(full >= 0.5, B + draws, B)[:, np.searchsorted(full, grid)]
        else:
            full = np.union1d(grid, [0.5])
            B = brownian(full)
            draws = 1.0 * B[:, [int(np.searchsorted(full, 0.5))]]
            paths = np.where(full >= 0.5, B + draws, B)[:, np.searchsorted(full, grid)]
        sim = simulate_paths(spec, grid, 50, seed=13)
        for new, old in ((sim.paths, paths), (sim.jump_draws, draws)):
            assert np.array_equal(new, old)
            assert np.array_equal(np.signbit(new), np.signbit(old))

    def test_two_jump_sampler_matches_summed_jumps(self):
        # each jump is added in place on its own: the matrix form sums the
        # jumps first, so the two differ by roundoff only
        spec = catalog("jump_bm", jumps=[[0.3, 0.2], [0.7, 0.3]])
        grid = np.arange(11) / 10.0  # holds both jump times exactly
        rng = np.random.default_rng(17)
        inc_var = np.diff(np.concatenate([[0.0], grid]))
        B = np.cumsum(rng.standard_normal((200, len(grid))) * np.sqrt(inc_var), axis=1)
        draws = rng.standard_normal((200, 2)) * np.sqrt([0.2, 0.3])
        paths = B + draws @ (grid[None, :] >= np.array([[0.3], [0.7]]))
        sim = simulate_paths(spec, grid, 200, seed=17)
        assert np.array_equal(sim.jump_draws, draws)
        scale = np.abs(B) + np.sum(np.abs(draws), axis=1, keepdims=True)
        assert np.all(np.abs(sim.paths - paths) <= 4 * np.finfo(float).eps * scale)

    def test_gram_sampler_matches_covariance(self, evanescent):
        grid = np.array([0.1, 0.3, 0.45, 0.7])
        sim = simulate_paths(evanescent, grid, 80000, seed=5)
        cov = sample_covariance(sim.paths)
        target = np.asarray(evanescent.cov(grid[:, None], grid[None, :]), dtype=float)
        for i in range(4):
            for j in range(4):
                se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / 80000) + 1e-9
                assert abs(cov[i, j] - target[i, j]) < 4 * se
        assert np.allclose(sim.jump_draws, 0.0)

    def test_fbm_gram_sampler(self, fbm07):
        grid = np.linspace(0.0, 1.0, 9)
        sim = simulate_paths(fbm07, grid, 60000, seed=9)
        cov = sample_covariance(sim.paths)
        target = np.asarray(fbm07.cov(grid[:, None], grid[None, :]), dtype=float)
        err = np.abs(cov - target)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / 60000) + 1e-9
        assert np.all(err < 4.5 * se)

    # every catalog sampler: the Brownian-jump one of brownian, jump_bm and
    # coupled_jump_bm, and the Gram one of fbm and evanescent
    @pytest.mark.parametrize("model", ["brownian", "fbm07", "jump_bm", "coupled", "evanescent"])
    def test_prepared_sampler_draws_what_a_fresh_one_draws(self, model, request):
        spec = request.getfixturevalue(model)
        grid = np.array([0.1, 0.3, 0.5, 0.7, 1.0])
        prepared, buffers = prepare_sampler(spec, grid), _Buffers()
        # into reused arrays too: a full batch sizes them, a short last batch uses fewer of their rows
        for n_paths, seed in ((40, 3), (40, 4), (17, 5)):
            fresh = simulate_paths(spec, grid, n_paths, seed)
            for again in (simulate_paths(spec, prepared, n_paths, seed), simulate_paths(spec, prepared, n_paths, seed, buffers)):
                assert np.array_equal(again.times, fresh.times)
                _assert_same_bits(again.paths, fresh.paths)
                _assert_same_bits(again.jump_draws, fresh.jump_draws)
            assert np.shares_memory(again.paths, buffers.arrays["paths"])
        assert buffers.arrays["paths"].size == 40 * len(grid)

    def test_batches_reuse_one_buffer_set_and_draw_the_seeded_streams(self, jump_bm):
        grid = np.linspace(0.0, 1.0, 2**10 + 1)
        n_paths, seed = 1300, 21
        rows = _BATCH_ELEMENTS // len(grid)
        streams = np.random.SeedSequence(seed).spawn(-(-n_paths // rows))
        seen, batches = [], []

        def work(sim, buffer):
            seen.append(sim.paths.__array_interface__["data"][0])
            batches.append((sim.paths.copy(), sim.jump_draws.copy()))
            # a view of the batch's buffer: it is reduced before the next batch draws into it
            return sim.paths[:, -1]

        (((count, mean, m2), n_batches),) = simulate_batches(jump_bm, grid, n_paths, seed, [(work, None)])
        # three batches of 511, 511 and 278 rows, all drawn into the same array
        assert [len(paths) for paths, _ in batches] == [rows, rows, n_paths - 2 * rows]
        assert n_batches == 3 and len(set(seen)) == 1
        # batch b draws the b-th stream SeedSequence(seed).spawn makes
        for b, (paths, draws) in enumerate(batches):
            fresh = simulate_paths(jump_bm, grid, len(paths), streams[b])
            _assert_same_bits(paths, fresh.paths)
            _assert_same_bits(draws, fresh.jump_draws)
        # and the batches' moments come back merged
        ends = np.concatenate([paths[:, -1] for paths, _ in batches])
        assert count == n_paths
        assert mean == pytest.approx(np.mean(ends), rel=1e-12)
        assert m2 == pytest.approx(np.sum((ends - np.mean(ends)) ** 2), rel=1e-12)

    def test_a_stop_rule_is_asked_at_doubling_looks_and_cuts_the_draw_at_a_cap(self, jump_bm):
        from concurrent.futures import ThreadPoolExecutor

        from gaussito.cli import _ordered_map

        grid = np.linspace(0.0, 1.0, 2**10 + 1)
        rows = _BATCH_ELEMENTS // len(grid)
        n_paths, seed = 9 * rows + 7, 3

        def work(sim, buffer):
            return sim.paths[:, -1]

        asked = []

        def never(moments, looks):
            asked.append((moments[0], looks))
            return False

        # ten batches: looks after batches 1, 2, 4, 8 and 10, five in all
        ((whole, batches),) = simulate_batches(jump_bm, grid, n_paths, seed, [(work, never)])
        assert batches == 10 and whole[0] == n_paths
        assert asked == [(b * rows, 5) for b in (1, 2, 4, 8)] + [(n_paths, 5)]
        assert whole == simulate_batches(jump_bm, grid, n_paths, seed, [(work, None)])[0][0]
        # a rule that answers true at the look after batch 4 leaves the first four batches' moments, the same
        # whatever the map, so the result depends only on the model, grid, cap and seed
        at_four = lambda moments, looks: moments[0] == 4 * rows
        (stopped,) = simulate_batches(jump_bm, grid, n_paths, seed, [(work, at_four)])
        assert stopped == (simulate_batches(jump_bm, grid, 4 * rows, seed, [(work, None)])[0][0], 4)
        started = []

        def noting(sim, buffer):
            started.append(len(sim.paths))
            return work(sim, buffer)

        with ThreadPoolExecutor(max_workers=2) as pool:
            (threaded,) = simulate_batches(jump_bm, grid, n_paths, seed, [(noting, at_four)], _ordered_map(pool, 4))
        assert threaded == stopped
        # the map runs one look's window at a time, [1], [2], [3, 4], so no batch past the stopping look starts
        assert len(started) <= 4

    @pytest.mark.parametrize("threads", [0, 2], ids=["map", "ordered_map"])
    def test_readers_of_one_draw_get_their_results_when_drawn_alone(self, jump_bm, threads):
        from concurrent.futures import ThreadPoolExecutor

        from gaussito.cli import _ordered_map

        grid = np.linspace(0.0, 1.0, 2**10 + 1)
        rows = _BATCH_ELEMENTS // len(grid)
        n_paths, seed = 9 * rows + 7, 5
        draws = []

        def first(sim, buffer):
            draws.append(len(sim.paths))
            # a view of an array of the thread's set that the next reader borrows and overwrites
            return np.multiply(sim.paths[:, -1], 2.0, out=buffer("shared", (len(sim.paths),)))

        def last(sim, buffer):
            return np.square(sim.paths[:, 256], out=buffer("shared", (len(sim.paths),)))

        def middle(sim, buffer):
            return np.sum(sim.paths, axis=1)

        # one reader stops at the first look, one has no stop rule, one asks at every look and runs to the cap
        asked = []
        readers = [(first, lambda moments, looks: True), (middle, None), (last, lambda moments, looks: asked.append(moments[0]))]
        alone = [simulate_batches(jump_bm, grid, n_paths, seed, [reader])[0] for reader in readers]
        assert [batches for _, batches in alone] == [1, 10, 10]
        draws.clear()
        asked.clear()
        with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
            shared = simulate_batches(jump_bm, grid, n_paths, seed, readers, _ordered_map(pool, 4) if threads else map)
        # bit for bit: the same counts, means and sums of squares, row by row, and the same batch counts
        for (moments, batches), (ref, ref_batches) in zip(shared, alone):
            assert batches == ref_batches and moments[0] == ref[0]
            for got, want in zip(moments[1:], ref[1:]):
                _assert_same_bits(got, want)
        # the first reader read batch 1 only, and the last was asked at every look
        assert draws == [rows]
        assert asked == [b * rows for b in (1, 2, 4, 8)] + [n_paths]

    def test_prepared_sampler_belongs_to_its_model(self, brownian, jump_bm):
        with pytest.raises(ValueError, match="another model"):
            simulate_paths(jump_bm, prepare_sampler(brownian, np.array([0.5, 1.0])), 10, seed=1)

    @pytest.mark.parametrize(
        "grid",
        [np.array([]), np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 0.6, 0.3]), np.array([[0.0, 0.5], [0.7, 1.0]])],
        ids=["empty", "repeated", "decreasing", "2d"],
    )
    def test_empty_grid_raises(self, brownian, grid):
        with pytest.raises(ValueError, match="at least one time"):
            simulate_paths(brownian, grid, 10, seed=1)
        with pytest.raises(ValueError, match="at least one time"):
            simulate_batches(brownian, grid, 10, 1, lambda sim, buffer: None)
        with pytest.raises(ValueError, match="at least one time"):
            mc_s_transform(brownian, Pairing(0.0, grid, lambda sim: sim.paths.sum(axis=1)), 10, seed=1)
        with pytest.raises(ValueError, match="at least one time"):
            planar_qv_sum(brownian, grid)


# the Brownian-driven models: brownian, jump_bm with two jumps, and
# coupled_jump_bm with an upward, a negative and a downward variance jump
BROWNIAN_JUMP_MODELS = [
    ("brownian", {}),
    ("jump_bm", {"jumps": [[0.3, 0.2], [0.7, 0.3]]}),
    ("coupled_jump_bm", {"c": 1.0, "s0": 0.5}),
    ("coupled_jump_bm", {"c": -0.7, "s0": 0.3}),
    ("coupled_jump_bm", {"c": -0.5, "s0": 0.8}),
]
BROWNIAN_JUMP_IDS = ["brownian", "jump_bm", "coupled", "coupled_neg", "coupled_down"]


def _assert_same_bits(new, ref):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    assert new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()  # equal values and equal signs of zero


class TestBrownianJumps:
    @pytest.mark.parametrize("model_id,params", BROWNIAN_JUMP_MODELS, ids=BROWNIAN_JUMP_IDS)
    def test_sampler_agrees_with_derived_facts(self, model_id, params):
        # second moments of (paths, jump draws) against cov, jump_cov_left and
        # the records' e_dminus_sq, on a grid that holds every jump time
        spec = catalog(model_id, **params)
        grid = np.arange(1, 11) / 10.0
        n = 60000
        sim = simulate_paths(spec, grid, n, seed=23)
        K = len(spec.records)
        target = np.zeros((len(grid) + K, len(grid) + K))
        target[: len(grid), : len(grid)] = spec.cov(grid[:, None], grid[None, :])
        for k, rec in enumerate(spec.records):
            target[: len(grid), len(grid) + k] = target[len(grid) + k, : len(grid)] = spec.jump_cov_left(grid, k)
            target[len(grid) + k, len(grid) + k] = rec.e_dminus_sq
        cov = sample_covariance(np.hstack([sim.paths, sim.jump_draws]))
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n) + 1e-9
        assert np.all(np.abs(cov - target) < 4.5 * se)

    @pytest.mark.parametrize("model_id,params", BROWNIAN_JUMP_MODELS, ids=BROWNIAN_JUMP_IDS)
    def test_derived_facts_match_the_hand_written_formulas(self, model_id, params):
        # reference closed forms written out per model: the values the builder
        # derives from the jump coefficients have the same bits, signs of zero too
        spec = catalog(model_id, **params)
        ts = np.array([0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.55, 0.7, 0.8, 0.95, 1.0])
        t, s = ts[:, None], ts[None, :]
        if model_id == "coupled_jump_bm":
            c, s0 = params["c"], params["s0"]
            it, js = t >= s0, s >= s0
            cov = np.minimum(t, s) + c * np.minimum(s, s0) * it + c * np.minimum(t, s0) * js + (c * c * s0) * (it & js)
            jump_cov_left = [c * np.minimum(ts, s0) + (c * c * s0) * (ts >= s0)]
            jumps = [(s0, c * (2.0 + c) * s0, 0.0)]
            records = [DiscontinuityRecord(s0, c * c * s0, e_xleft_dminus=c * s0)]
            knots = (0.25, s0)
        else:
            pairs = params.get("jumps", [])
            m = np.minimum(t, s)
            cov = np.array(m, copy=True)
            for sk, vk in pairs:
                cov += vk * (m >= sk)
            jump_cov_left = [np.float64(vk) * (ts >= sk) for sk, vk in pairs]
            jumps = [(sk, vk, 0.0) for sk, vk in pairs]
            records = [DiscontinuityRecord(sk, vk) for sk, vk in pairs]
            knots = (0.25,)
        _assert_same_bits(spec.cov(t, s), cov)
        for k, ref in enumerate(jump_cov_left):
            _assert_same_bits(spec.jump_cov_left(ts, k), ref)
        new_jumps = [(j.time, j.delta_minus, j.delta_plus) for j in spec.variance.jumps]
        _assert_same_bits(np.reshape(new_jumps, (-1, 3)), np.reshape(jumps, (-1, 3)))
        assert list(spec.records) == records
        for rec in spec.records:
            assert all(type(getattr(rec, f)) is float for f in ("time", "e_dminus_sq", "e_xleft_dminus"))
        assert spec.section_knots(0.25) == knots


# every catalog model: the Brownian-driven ones above, fbm on either side of H = 1/2, and evanescent
ALL_MODELS = BROWNIAN_JUMP_MODELS + [("fbm", {"hurst": 0.3}), ("fbm", {"hurst": 0.7}), ("evanescent", {"s0": 0.5})]
ALL_IDS = BROWNIAN_JUMP_IDS + ["fbm_h03", "fbm_h07", "evanescent"]


def _summed_fbm_cov(hurst):
    """fbm's covariance as one expression, which makes three n x n temporaries for an n x n evaluation."""
    two_h = 2.0 * hurst
    return lambda t, s: 0.5 * (t**two_h + s**two_h - np.abs(t - s) ** two_h)


def _summed_draw(model_id, params, spec, grid, n_paths, seed):
    """(paths, jump draws) as the samplers made them when a draw was its summed paths: B summed in place and each jump
    tail added to it, then the grid's columns picked, or the normals times the transposed Cholesky factor."""
    rng = np.random.default_rng(seed)
    if spec.sampler is None:
        cov = _summed_fbm_cov(params["hurst"]) if model_id == "fbm" else spec.cov
        G = np.asarray(cov(grid[:, None], grid[None, :]), dtype=float)
        zero, L = np.diag(G) == 0.0, _chol_with_jitter(G, spec.lam)
        Y = rng.standard_normal((n_paths, len(grid))) @ L.T
        Y[:, zero] = 0.0
        return Y, np.zeros((n_paths, len(spec.records)))
    if model_id == "coupled_jump_bm":
        times, couplings, sds = [params["s0"]], np.array([params["c"]]), np.array([0.0])
    else:
        pairs = params.get("jumps", [])
        times, couplings, sds = [t for t, _ in pairs], np.zeros(len(pairs)), np.sqrt([v for _, v in pairs])
    full = np.union1d(grid, times)
    B = rng.standard_normal((n_paths, len(full)))
    B *= np.sqrt(np.diff(full, prepend=0.0))
    np.cumsum(B, axis=1, out=B)
    cols = np.searchsorted(full, times)
    xi = B[:, cols] * couplings + rng.standard_normal((n_paths, len(cols))) * sds
    for k, col in enumerate(cols):
        B[:, col:] += xi[:, k : k + 1]
    return B[:, np.searchsorted(full, grid)], xi


class TestSteps:
    # tenths hold every discontinuity time of ALL_MODELS; the other grid holds none of them
    ON_GRID, OFF_GRID = np.arange(11) / 10.0, np.array([0.0, 0.15, 0.45, 0.65, 0.95, 1.0])

    @pytest.mark.parametrize("grid", [ON_GRID, OFF_GRID], ids=["times_on_grid", "times_off_grid"])
    @pytest.mark.parametrize("model_id,params", ALL_MODELS, ids=ALL_IDS)
    def test_paths_are_the_summed_draw_bit_for_bit(self, model_id, params, grid):
        spec = catalog(model_id, **params)
        paths, draws = _summed_draw(model_id, params, spec, grid, 40, 29)
        sim = simulate_paths(spec, grid, 40, seed=29)
        _assert_same_bits(sim.paths, paths)
        _assert_same_bits(sim.jump_draws, draws)

    @pytest.mark.parametrize("model_id,params", ALL_MODELS, ids=ALL_IDS)
    def test_steps_reassemble_the_paths(self, model_id, params):
        spec, grid = catalog(model_id, **params), self.ON_GRID
        sim = simulate_paths(spec, grid, 200, seed=31)
        # X(t_0-) and the continuous increments, summed, then each jump draw from its time on
        X = np.cumsum(sim.steps, axis=1)
        for k, t in enumerate(spec.record_times()):
            X[:, np.searchsorted(grid, t) :] += sim.jump_draws[:, k : k + 1]
        scale = np.cumsum(np.abs(sim.steps), axis=1) + np.sum(np.abs(sim.jump_draws), axis=1, keepdims=True)
        assert np.all(np.abs(X - sim.paths) <= 8 * np.finfo(float).eps * scale)

    def test_a_quadratic_variation_draw_never_sums_its_paths(self, jump_bm):
        grid = np.linspace(0.0, 1.0, 2**10 + 1)
        batch_bytes = 8 * (_BATCH_ELEMENTS // len(grid)) * len(grid)
        # first-use allocations fall inside the traced run: the draw's steps are one batch array, and summed
        # paths, in a buffer or not, would be a second
        tracemalloc.start()
        try:
            rep = path_qv_mc(jump_bm, grid, 3000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.batches == 6
        assert peak <= 1.25 * batch_bytes

    def test_steps_need_the_discontinuity_times_on_the_grid(self, jump_bm):
        # reading paths there is fine; a step across the jump at 0.5 would hold the jump
        sim = simulate_paths(jump_bm, np.array([0.0, 0.4, 0.6, 1.0]), 10, seed=1)
        assert sim.paths.shape == (10, 4)
        with pytest.raises(ValueError, match="discontinuity times"):
            sim.steps
        with pytest.raises(ValueError, match="discontinuity times"):
            path_qv_mc(jump_bm, np.array([0.0, 0.4, 0.6, 1.0]), 10, seed=1)


class TestGramSampler:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_fbm_covariance_is_evaluated_in_place(self, hurst):
        spec = catalog("fbm", hurst=hurst)
        grid = np.linspace(0.0, 1.0, 513)
        t, s = grid[:, None], grid[None, :]
        tracemalloc.start()
        try:
            G = spec.cov(t, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the values of the one-expression form, with two n x n matrices at the peak where it has three
        _assert_same_bits(G, _summed_fbm_cov(hurst)(t, s))
        assert peak <= 2.2 * grid.size**2 * 8
        for a, b in ((0.3, 0.7), (1.0, 1.0), (0.0, 0.4)):
            _assert_same_bits(spec.cov(a, b), _summed_fbm_cov(hurst)(np.asarray(a), np.asarray(b)))

    def test_left_jumps_need_an_exact_sampler(self, jump_bm):
        # the Gram fallback draws no jump variables: it must not draw zero jumps
        spec = replace(jump_bm, sampler=None)
        with pytest.raises(UnsupportedModelError, match="sampler"):
            simulate_paths(spec, np.array([0.25, 0.5, 1.0]), 10, seed=1)

    def test_prepared_sampler_holds_one_matrix(self):
        spec = catalog("fbm", hurst=0.5)
        grid = np.linspace(0, 1, 2**10 + 1)
        matrix = len(grid) ** 2 * 8
        tracemalloc.start()
        try:
            prepared = prepare_sampler(spec, grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert prepared.spec is spec
        # the Cholesky factor, not the Gram matrix beside it
        assert held <= 1.1 * matrix

    def test_gram_limit_raises_before_allocating(self):
        spec = catalog("fbm", hurst=0.5)
        grid = np.linspace(0, 1, 2**14 + 1)  # schema-valid; one Gram matrix is 2 GiB
        assert len(grid) ** 2 * 8 > _GRAM_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedModelError, match="Gram limit"):
                path_qv_mc(spec, grid, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestJitterLadder:
    def test_factorization_failure_raises(self):
        from gaussito.gaussproc import SimulationError, _chol_with_jitter

        with pytest.raises(SimulationError):
            _chol_with_jitter(np.array([[1.0, 0.0], [0.0, -5.0]]), scale=1.0)

    def test_singular_psd_is_rescued(self):
        from gaussito.gaussproc import _chol_with_jitter

        G = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        L = _chol_with_jitter(G, scale=1.0)
        assert np.allclose(L @ L.T, G, atol=1e-7)
        # the jitter went onto G's diagonal in place and came off again
        assert np.array_equal(G, np.ones((2, 2)))


class TestPathQv:
    def test_jump_bm_reference(self, jump_bm):
        rep = path_qv_mc(jump_bm, np.linspace(0, 1, 257), 10000, seed=21)
        assert rep.reference == pytest.approx(1.25)
        assert abs(rep.estimate - rep.reference) < 4 * rep.standard_error

    def test_single_path_raises(self, brownian):
        # like every other pairing check: one path has no standard error
        with pytest.raises(ValueError):
            path_qv_mc(brownian, np.array([0.0, 1.0]), 1, seed=2)

    def test_unsupported_for_evanescent(self, evanescent):
        with pytest.raises(UnsupportedModelError, match="right-continuous"):
            path_qv_mc(evanescent, np.linspace(0, 1, 17), 100, seed=1)

    @pytest.mark.parametrize(
        "model, params",
        [
            ("brownian", {}),
            ("fbm", {"hurst": 0.2}),
            ("fbm", {"hurst": 0.3}),
            ("fbm", {"hurst": 0.5}),
            ("fbm", {"hurst": 0.7}),
            ("jump_bm", {"jumps": [[0.3, 0.2], [0.7, 0.3]]}),
            ("coupled_jump_bm", {"c": 1.0, "s0": 0.3}),
            ("coupled_jump_bm", {"c": -0.7, "s0": 0.3}),
        ],
        ids=["brownian", "fbm_h02", "fbm_h03", "fbm_h05", "fbm_h07", "jump_bm", "coupled", "coupled_neg"],
    )
    @pytest.mark.parametrize("depth", [4, 9])
    def test_reference_is_the_mean_square_of_the_grid_increments(self, model, params, depth):
        # on a grid that holds the discontinuity times, a right-continuous X's increment X(b) - X(a) is the cell's
        # step plus its jump draw, so the quadratic sum's mean is sum R(b, b) - 2 R(a, b) + R(a, a), read off the covariance alone
        spec = catalog(model, **params)
        grid = np.union1d(np.linspace(0.0, 1.0, 2**depth + 1), spec.record_times())
        a, b = grid[:-1], grid[1:]
        oracle = math.fsum(spec.cov(b, b) - 2.0 * spec.cov(a, b) + spec.cov(a, a))
        assert path_qv_mc(spec, grid, 2, seed=1).reference == pytest.approx(oracle, rel=1e-12)

    # every model and pathwise grid (the dyadic points of a depth joined with the discontinuity times) that a
    # repository or benchmark scenario runs path_qv on, by scenario, with the reference its report holds
    COMMITTED_REFERENCES = {
        "brownian": ("brownian", {}, 8, 1.0),
        "fbm_qv": ("fbm", {"hurst": 0.5}, 10, 1.0),
        "mc_paths_jump_bm": ("jump_bm", {"jumps": [[0.3, 0.2], [0.7, 0.3]]}, 10, 1.5),
        "full_jump_bm": ("jump_bm", {"jumps": [[0.5, 0.25]]}, 9, 1.25),
        "jump_bm3": ("jump_bm", {"jumps": [[0.2, 0.04], [0.5, 0.25], [0.8, 0.09]]}, 9, 1.38),
        "coupled": ("coupled_jump_bm", {"c": 1.0, "s0": 0.5}, 8, 1.5078125),
        "coupled_down": ("coupled_jump_bm", {"c": -0.5, "s0": 0.8}, 8, 1.196875),
        "coupled_neg": ("coupled_jump_bm", {"c": -0.7, "s0": 0.3}, 9, 1.145359375),
        "coupled_qv4": ("coupled_jump_bm", {"c": 1.0, "s0": 0.3}, 4, 1.4),
    }

    @pytest.mark.parametrize("model, params, depth, reference", COMMITTED_REFERENCES.values(), ids=COMMITTED_REFERENCES)
    def test_committed_references_hold_bit_for_bit(self, model, params, depth, reference):
        spec = catalog(model, **params)
        grid = np.union1d(np.linspace(0.0, 1.0, 2**depth + 1), spec.record_times())
        assert path_qv_mc(spec, grid, 2, seed=1).reference == reference

    def test_an_fbm_draw_off_its_hurst_index_fails(self):
        # fbm(0.7)'s pairing on a draw of fbm(0.705): the smoother paths' quadratic sums fall short of the reference
        spec, drawn = catalog("fbm", hurst=0.7), catalog("fbm", hurst=0.705)
        grid = np.linspace(0.0, 1.0, 2**8 + 1)
        pairing = path_qv_pairing(spec, grid)
        assert path_qv_mc(spec, grid, 4000, seed=7).within(4.0)
        assert mc_s_transform(drawn, pairing, 4000, seed=7).z_score < -4.0

    def test_grid_must_span_the_horizon(self, brownian, jump_bm):
        # the reference is the variation over [0, horizon]: on [0.5, 1] a correct model reads half of it
        for spec, grid in ((brownian, np.linspace(0.5, 1, 257)), (jump_bm, np.linspace(0.6, 1, 257)), (brownian, np.linspace(0, 0.5, 17))):
            with pytest.raises(ValueError, match="span"):
                path_qv_mc(spec, grid, 100, seed=1)

    @pytest.mark.parametrize("model", ["jump_bm", "fbm_h05", "pairing"])
    def test_memory_bounded_by_batch(self, model, jump_bm):
        grid = np.linspace(0, 1, 2**10 + 1)
        fbm = catalog("fbm", hurst=0.5)
        # a Wick-weighted pairing sample, as the z-gated checks hand to mc_s_transform
        pairing = lambda sim: np.exp(sim.paths[:, -1] - 0.5 * jump_bm.lam) * sim.paths[:, 512]
        check = {
            "jump_bm": lambda n_paths: path_qv_mc(jump_bm, grid, n_paths, seed=5),
            "fbm_h05": lambda n_paths: path_qv_mc(fbm, grid, n_paths, seed=5),
            "pairing": lambda n_paths: mc_s_transform(jump_bm, Pairing(0.5, grid, pairing), n_paths, seed=5),
        }[model]
        peaks = {}
        for n_paths in (2000, 8000):
            tracemalloc.start()
            try:
                check(n_paths)
                peaks[n_paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8000] <= 1.1 * peaks[2000]

    def test_memory_does_not_grow_with_the_batch_count(self, brownian, monkeypatch):
        import gaussito.gaussproc as gp

        grid = np.array([1.0])
        # two paths per batch: 2000 and 10000 paths are 1000 and 5000 batches
        monkeypatch.setattr(gp, "_BATCH_ELEMENTS", 2)
        # X(1) read off the steps (a one-point grid's first step is X(t_0-), and Brownian motion has no jump): summing the
        # paths runs np.cumsum on every tiny batch, and what numpy allocates there moves a run's traced peak by 1-3 KB
        check = lambda n_paths: mc_s_transform(brownian, Pairing(0.0, grid, lambda sim: sim.steps[:, 0]), n_paths, seed=3)

        def peak(n_paths):
            tracemalloc.start()
            try:
                assert check(n_paths).batches == n_paths // 2
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a traced warm-up at each size: first-use allocations fall outside the measured runs
        for n_paths in (2000, 10000):
            peak(n_paths)
        peaks = {n_paths: peak(n_paths) for n_paths in (2000, 10000)}
        # each batch's moments are merged as it arrives and its stream made as it runs
        assert max(peaks.values()) <= 1.1 * min(peaks.values())

    def test_gram_sampler_factorizes_once_per_call(self, monkeypatch):
        import gaussito.gaussproc as gp

        spec = catalog("fbm", hurst=0.5)
        counts = {"chol": 0, "draws": 0}
        chol, simulate = gp._chol_with_jitter, gp.simulate_paths

        def counting_chol(*args, **kwargs):
            counts["chol"] += 1
            return chol(*args, **kwargs)

        def counting_simulate(*args, **kwargs):
            counts["draws"] += 1
            return simulate(*args, **kwargs)

        monkeypatch.setattr(gp, "_chol_with_jitter", counting_chol)
        monkeypatch.setattr(gp, "simulate_paths", counting_simulate)
        # 4000 paths on 1025 points are 8 batches of at most 511 rows
        rep = path_qv_mc(spec, np.linspace(0, 1, 2**10 + 1), 4000, seed=9)
        assert counts == {"chol": 1, "draws": 8}
        assert abs(rep.z_score) < 4

    def test_batched_moments_match_the_whole_sample(self, jump_bm):
        grid = np.linspace(0, 1, 2**10 + 1)
        n_paths, seed = 3000, 12
        # the batches the estimator must read: rows per batch from the batch
        # size, batch b seeded by the b-th spawned stream
        rows = _BATCH_ELEMENTS // len(grid)
        streams = np.random.SeedSequence(seed).spawn(-(-n_paths // rows))
        # the quadratic sum, and a pairing sample through mc_s_transform
        product = lambda sim: sim.paths[:, -1] * sim.jump_draws[:, 0]
        sums, products = [], []
        for b, stream in enumerate(streams):
            sim = simulate_paths(jump_bm, grid, min(rows, n_paths - b * rows), stream)
            sums.append(np.sum(np.diff(sim.paths, axis=1) ** 2, axis=1))
            products.append(product(sim))
        assert len(streams) == 6
        for rep, values in (
            (path_qv_mc(jump_bm, grid, n_paths, seed), np.concatenate(sums)),
            (mc_s_transform(jump_bm, Pairing(0.25, grid, product), n_paths, seed), np.concatenate(products)),
        ):
            assert len(values) == n_paths
            assert rep.estimate == pytest.approx(np.mean(values), rel=1e-12)
            assert rep.standard_error == pytest.approx(np.std(values, ddof=1) / math.sqrt(n_paths), rel=1e-12)
