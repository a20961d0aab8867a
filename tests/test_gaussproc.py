import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import sample_covariance
from gaussito.gaussproc import (
    CatalogError,
    UnsupportedModelError,
    catalog,
    catalog_entries,
    cm_element,
    cm_inner,
    mc_estimate,
    path_qv_mc,
    planar_qv_sum,
    planar_variation_sum,
    prepare_sampler,
    simulate_batches,
    simulate_paths,
)
from gaussito.gaussproc import _BATCH_ELEMENTS, _GRAM_BYTES, _one_sided_cov_matrix
from gaussito.regulated import Partition


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
        assert coupled.v(0.5) == pytest.approx(2.0)
        assert rec.v_left == pytest.approx(0.5)
        assert rec.e_dminus_sq == pytest.approx(0.5)
        assert rec.e_xleft_dminus == pytest.approx(0.5)
        # jump of the variance via the moment identity
        delta_v = 2.0 * (rec.e_xleft_dminus + rec.e_dminus_sq) - rec.e_dminus_sq
        assert delta_v == pytest.approx(1.5)
        assert coupled.v(0.5) - rec.v_left == pytest.approx(1.5)

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
        ],
    )
    def test_invalid_params(self, model_id, params):
        with pytest.raises(CatalogError):
            catalog(model_id, **params)

    def test_variance_matches_covariance_diagonal(self, all_specs):
        for spec in all_specs:
            ts = np.linspace(0.0, spec.horizon, 23)
            assert np.max(np.abs(np.asarray(spec.cov(ts, ts)) - spec.variance.values(ts))) < 1e-12

    def test_record_moment_identities(self, all_specs):
        for spec in all_specs:
            for rec in spec.records:
                v_here = spec.v(rec.time)
                assert rec.v_minus <= rec.v_left + 1e-12
                assert rec.v_plus <= rec.v_right + 1e-12
                assert 2.0 * rec.e_xleft_dminus + rec.e_dminus_sq + rec.v_minus == pytest.approx(v_here, abs=1e-12)
                # forward-jump mirror, with E[X_s (X_{s+} - X_s)] recovered from the record
                k = spec.record_index(rec.time)
                lhs = 2.0 * spec.e_x_dplus(k) + rec.e_dplus_sq + (rec.v_right - rec.v_plus)
                assert lhs == pytest.approx(rec.v_right - v_here, abs=1e-12)

    def test_summability_condition_finite(self, all_specs):
        for spec in all_specs:
            total = sum(
                r.e_dplus_sq + (r.v_right - r.v_plus) + r.e_dminus_sq + (r.v_left - r.v_minus)
                for r in spec.records
            )
            assert math.isfinite(total)

    def test_catalog_listing(self):
        ids = {e.model_id for e in catalog_entries()}
        assert ids == {"brownian", "fbm", "jump_bm", "coupled_jump_bm", "evanescent"}


class TestEvanescent:
    def test_variance_profile(self, evanescent):
        assert evanescent.v(0.3) == 1.0
        assert evanescent.v(0.499) == 1.0
        assert evanescent.v(0.5) == 0.0
        assert evanescent.v(0.9) == 0.0

    def test_weak_limit_record(self, evanescent):
        rec = evanescent.records[0]
        assert rec.v_left == 1.0 and rec.v_minus == 0.0
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

    def test_empty_element(self, jump_bm):
        h = cm_element(jump_bm, [])
        assert h.norm_sq == 0.0
        assert float(h.hbar.values(0.7)) == 0.0

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
            assert planar_qv_sum(brownian, Partition.uniform(0, 1, n)) == 1.0 / n

    def test_decreasing_under_refinement(self, brownian):
        vals = [planar_qv_sum(brownian, Partition.uniform(0, 1, n)) for n in (2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_fbm_half_equals_brownian(self, brownian):
        spec = catalog("fbm", hurst=0.5)
        pi = Partition.uniform(0, 1, 8)
        assert planar_qv_sum(spec, pi) == pytest.approx(planar_qv_sum(brownian, pi), abs=1e-15)

    def test_brownian_variation_telescopes(self, brownian):
        for n in (1, 4, 16):
            assert planar_variation_sum(brownian, Partition.uniform(0, 1, n)) == pytest.approx(1.0)

    def test_fbm07_variation_golden(self, fbm07):
        # frozen from an independent brute-force double loop over the
        # covariance rectangle increments (all increments nonnegative for
        # hurst > 1/2, so the sum telescopes to the terminal variance)
        got = planar_variation_sum(fbm07, Partition.uniform(0, 1, 8))
        assert got == pytest.approx(0.9999999999999998, abs=1e-12)

    def test_single_cell_is_increment_variance(self, jump_bm):
        pi = Partition((0.0, 1.0))
        # Var(X_1 - X_0) = V(1) = 1.25
        assert planar_variation_sum(jump_bm, pi) == pytest.approx(1.25)

    def test_one_sided_jump_increments(self, jump_bm):
        # E[X_{0.5-} X_1] = R(0.5, 1) - E[xi X_1] = 0.75 - 0.25
        m = _one_sided_cov_matrix(jump_bm, np.array([0.5]), -1, np.array([1.0]), 0)
        assert m[0, 0] == pytest.approx(0.5)
        # left-limit increments across the jump have no jump mass
        pi = Partition((0.0, 0.5, 1.0))
        assert planar_qv_sum(jump_bm, pi) == pytest.approx(0.5**2 + 0.5**2)


class TestSimulation:
    def test_brownian_sample_covariance(self, brownian):
        sim = simulate_paths(brownian, Partition((0.0, 0.5, 1.0)), 100000, seed=1234)
        cov = sample_covariance(sim.paths)
        target = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 1.0]])
        # 4 * SE with SE ~ sqrt((v_ii v_jj + v_ij^2) / n)
        for i in range(3):
            for j in range(3):
                se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / 100000) + 1e-9
                assert abs(cov[i, j] - target[i, j]) < 4 * se

    def test_zero_paths(self, brownian):
        sim = simulate_paths(brownian, Partition((0.0, 1.0)), 0, seed=1)
        assert sim.paths.shape == (0, 2)

    def test_jump_variance(self, jump_bm):
        sim = simulate_paths(jump_bm, Partition((0.0, 0.5, 1.0)), 100000, seed=7)
        var = float(np.mean(sim.jump_draws[:, 0] ** 2))
        se = math.sqrt(2 * 0.25**2 / 100000)
        assert abs(var - 0.25) < 4 * se

    def test_jump_consistency_with_paths(self, jump_bm):
        # path minus jump indicator reproduces a continuous-martingale increment
        sim = simulate_paths(jump_bm, Partition((0.0, 0.4, 0.5, 1.0)), 50000, seed=3)
        left = sim.paths[:, 2] - sim.jump_draws[:, 0]
        inc = left - sim.paths[:, 1]  # Brownian increment over [0.4, 0.5]
        assert abs(float(np.mean(inc**2)) - 0.1) < 4 * math.sqrt(2 * 0.1**2 / 50000)

    def test_deterministic_given_seed(self, coupled):
        a = simulate_paths(coupled, Partition((0.0, 0.5, 1.0)), 100, seed=11)
        b = simulate_paths(coupled, Partition((0.0, 0.5, 1.0)), 100, seed=11)
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
            draws = 1.0 * B[:, int(np.searchsorted(full, 0.5))]
            paths = (B + draws[:, None] * (full[None, :] >= 0.5))[:, np.searchsorted(full, grid)]
            draws = draws[:, None]
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

    @pytest.mark.parametrize("model", ["brownian", "fbm07", "jump_bm", "coupled", "evanescent"])
    def test_prepared_sampler_draws_what_a_fresh_one_draws(self, model, request):
        spec = request.getfixturevalue(model)
        grid = np.array([0.1, 0.3, 0.5, 0.7, 1.0])
        prepared = prepare_sampler(spec, grid)
        for seed in (3, 4):
            again, fresh = simulate_paths(spec, prepared, 40, seed), simulate_paths(spec, grid, 40, seed)
            assert np.array_equal(again.times, fresh.times)
            assert np.array_equal(again.paths, fresh.paths)
            assert np.array_equal(again.jump_draws, fresh.jump_draws)

    def test_prepared_sampler_belongs_to_its_model(self, brownian, jump_bm):
        with pytest.raises(ValueError, match="another model"):
            simulate_paths(jump_bm, prepare_sampler(brownian, np.array([0.5, 1.0])), 10, seed=1)

    def test_empty_grid_raises(self, brownian):
        with pytest.raises(ValueError, match="at least one time"):
            next(simulate_batches(brownian, np.array([]), 10, seed=1))
        with pytest.raises(ValueError, match="at least one time"):
            mc_estimate(brownian, np.array([]), lambda sim: sim.paths.sum(axis=1), 0.0, 10, seed=1)


class TestGramSampler:
    def test_left_jumps_need_an_exact_sampler(self, jump_bm):
        # the Gram fallback draws no jump variables: it must not draw zero jumps
        spec = replace(jump_bm, sampler=None)
        with pytest.raises(UnsupportedModelError, match="sampler"):
            simulate_paths(spec, np.array([0.25, 0.5, 1.0]), 10, seed=1)

    def test_prepared_sampler_holds_one_matrix(self):
        spec = catalog("fbm", hurst=0.5)
        grid = Partition.uniform(0, 1, 2**10)
        matrix = len(grid.points) ** 2 * 8
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
        grid = Partition.uniform(0, 1, 2**14)  # schema-valid; one Gram matrix is 2 GiB
        assert len(grid.points) ** 2 * 8 > _GRAM_BYTES
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
        rep = path_qv_mc(jump_bm, Partition.uniform(0, 1, 256), 10000, seed=21)
        assert rep.reference == pytest.approx(1.25)
        assert abs(rep.estimate - rep.reference) < 4 * rep.standard_error

    def test_single_path_raises(self, brownian):
        # like every other pairing check: one path has no standard error
        with pytest.raises(ValueError):
            path_qv_mc(brownian, Partition((0.0, 1.0)), 1, seed=2)

    def test_unsupported_for_evanescent(self, evanescent):
        with pytest.raises(UnsupportedModelError):
            path_qv_mc(evanescent, Partition.uniform(0, 1, 16), 100, seed=1)

    @pytest.mark.parametrize("model", ["jump_bm", "fbm_h05", "pairing"])
    def test_memory_bounded_by_batch(self, model, jump_bm):
        grid = Partition.uniform(0, 1, 2**10)
        fbm = catalog("fbm", hurst=0.5)
        # a Wick-weighted pairing sample, as the z-gated checks hand to mc_estimate
        pairing = lambda sim: np.exp(sim.paths[:, -1] - 0.5 * jump_bm.lam) * sim.paths[:, 512]
        check = {
            "jump_bm": lambda n_paths: path_qv_mc(jump_bm, grid, n_paths, seed=5),
            "fbm_h05": lambda n_paths: path_qv_mc(fbm, grid, n_paths, seed=5),
            "pairing": lambda n_paths: mc_estimate(jump_bm, grid, pairing, 0.5, n_paths, seed=5),
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
        rep = path_qv_mc(spec, Partition.uniform(0, 1, 2**10), 4000, seed=9)
        assert counts == {"chol": 1, "draws": 8}
        assert abs(rep.z_score) < 4

    def test_batched_moments_match_the_whole_sample(self, jump_bm):
        grid = Partition.uniform(0, 1, 2**10)
        n_paths, seed = 3000, 12
        # the batches the estimator must read: rows per batch from the batch
        # size, batch b seeded by the b-th spawned stream
        rows = _BATCH_ELEMENTS // len(grid.points)
        streams = np.random.SeedSequence(seed).spawn(-(-n_paths // rows))
        # the quadratic sum, and a pairing-style sample through mc_estimate
        product = lambda sim: sim.paths[:, -1] * sim.jump_draws[:, 0]
        sums, products = [], []
        for b, stream in enumerate(streams):
            sim = simulate_paths(jump_bm, grid, min(rows, n_paths - b * rows), stream)
            sums.append(np.sum(np.diff(sim.paths, axis=1) ** 2, axis=1))
            products.append(product(sim))
        assert len(streams) == 6
        for rep, values in (
            (path_qv_mc(jump_bm, grid, n_paths, seed), np.concatenate(sums)),
            (mc_estimate(jump_bm, grid, product, 0.25, n_paths, seed), np.concatenate(products)),
        ):
            assert len(values) == n_paths
            assert rep.estimate == pytest.approx(np.mean(values), rel=1e-12)
            assert rep.standard_error == pytest.approx(np.std(values, ddof=1) / math.sqrt(n_paths), rel=1e-12)
