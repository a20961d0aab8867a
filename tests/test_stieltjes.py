import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_regulated import regulated_functions

from gaussito import stieltjes
from gaussito.regulated import Jump, RegulatedFunction
from gaussito.stieltjes import (
    ScalarField,
    chain_rule,
    integrate_ls,
    integrate_ys,
)


def identity(jumps=()):
    return RegulatedFunction(lambda t: np.asarray(t, dtype=float), jumps, (0.0, 1.0))


def heaviside(s=0.5, size=1.0):
    return RegulatedFunction(lambda t: 0.0, [Jump(s, size, 0.0)], (0.0, 1.0))


def const_one(ts):
    return np.ones_like(np.asarray(ts, dtype=float))


class TestIntegrateYS:
    def test_linear(self):
        res = integrate_ys(lambda t: t, identity(), tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_heaviside_atom(self):
        res = integrate_ys(lambda t: t, heaviside(), tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_mixed_integrator(self):
        # int t dt + t-at-jump: 0.5 + 0.5
        res = integrate_ys(lambda t: t, identity(jumps=[Jump(0.5, 1.0, 0.0)]), tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_smooth_transcendental(self):
        res = integrate_ys(np.cos, identity(), tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(math.sin(1.0), abs=1e-11)

    def test_non_convergence_flag(self, monkeypatch):
        # two bisections cannot resolve cos(40 t) to 1e-14: the budget exit
        monkeypatch.setattr(stieltjes, "_MAX_REFINE", 2)
        res = integrate_ys(lambda t: np.cos(40 * t), identity(), tol=1e-14)
        assert not res.converged
        assert res.n_cells == 16 + 2

    def test_stops_once_floored_cells_exceed_tol(self):
        # a 0.2-Hoelder cusp floors cells whose error alone exceeds tol; the
        # refinement must give up there instead of spending its whole budget
        from gaussito.gaussproc import catalog, cm_element
        from gaussito.heatkernel import psi, test_function

        spec = catalog("fbm", hurst=0.1)
        hbar, V = cm_element(spec, [(0.8, 0.4)]).hbar, spec.variance
        tf = test_function("x2", spec.lam)
        res = integrate_ys(
            lambda ts: psi(tf, V.values(ts), hbar.values(ts), 1), hbar, tol=1e-11, extra_knots=V.pinned_points()
        )
        assert not res.converged
        assert res.error_estimate >= 1e-11
        assert res.n_cells < 40000 // 4

    def test_far_above_target_cuts_into_eight(self, monkeypatch):
        # cos(40 t) at 1e-14 starts with cells far above their target: the first
        # round cuts them into 8 pieces, so the refinement takes fewer rounds,
        # and so fewer integrand calls, than bisection alone (narrowest cell per
        # call read off the integrand's evaluation points)
        widths = []

        def u(ts):
            mid, _, _, eighth = np.reshape(ts, (7, -1))[:4]
            widths.append(np.min(mid - eighth) * 8.0 / 3.0)
            return np.cos(40 * ts)

        cut = integrate_ys(u, identity(), tol=1e-14)
        assert widths[:2] == pytest.approx([1 / 16, 1 / 128], rel=1e-9)
        cut_calls = len(widths)
        monkeypatch.setattr(stieltjes, "_MAX_PIECES", 2)
        widths.clear()
        bisected = integrate_ys(u, identity(), tol=1e-14)
        assert cut.converged and bisected.converged
        assert (cut_calls, len(widths)) == (cut.rounds + 1, bisected.rounds + 1)
        assert cut_calls < len(widths)
        assert cut.value == pytest.approx(math.sin(40.0) / 40.0, abs=1e-13)

    def test_no_piece_below_the_width_floor(self):
        # two knots pin cells 3 floors wide around a jump of 1e6, far above any
        # target: 8 or 4 pieces would be narrower than the floor, so the cell is
        # bisected, then bisected again, and stops at the floor (widths are read
        # off the integrand's evaluation points, in floors)
        floor = stieltjes._WIDTH_FLOOR
        h, widths = 3.0 * floor, []

        def u(ts):
            mid, _, _, eighth = np.reshape(ts, (7, -1))[:4]
            widths.append((mid - eighth) * 8.0 / 3.0 / floor)
            return 1e6 * (np.asarray(ts) > 0.5 + 2.3 * h)

        res = integrate_ys(u, identity(), tol=1e-10, extra_knots=(0.5, 0.5 + 6.0 * h))
        widths = np.concatenate(widths)
        assert not res.converged and res.rounds == 2
        assert list(np.unique(np.round(widths[widths < 100.0], 2))) == [0.75, 1.5, 3.0]

    @given(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_integrand(self, alpha, beta):
        r = identity(jumps=[Jump(0.5, 0.25, 0.0)])
        u = lambda t: np.asarray(t) ** 2
        w = lambda t: np.cos(t)
        lhs = integrate_ys(lambda t: alpha * u(t) + beta * w(t), r, tol=1e-11).value
        rhs = alpha * integrate_ys(u, r, tol=1e-11).value + beta * integrate_ys(w, r, tol=1e-11).value
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(
        st.lists(st.sampled_from([k / 16 for k in range(1, 16)]), min_size=0, max_size=3, unique=True),
        st.lists(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False), min_size=2, max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_telescoping(self, times, deltas):
        jumps = [Jump(t, deltas[0], deltas[1]) for t in sorted(times)]
        r = RegulatedFunction(np.polynomial.Polynomial([0.3, -1.2, 0.8]), jumps, (0.0, 1.0))
        res = integrate_ys(const_one, r, tol=1e-12)
        assert res.value == pytest.approx(float(r.values(1.0) - r.values(0.0)), abs=1e-11)


class TestStackedIntegrand:
    def test_components_share_one_partition(self):
        r = identity(jumps=[Jump(0.5, 0.25, -0.1)])
        parts = (np.cos, lambda t: t**2, lambda t: np.exp(-t))
        res = integrate_ys(lambda t: np.stack([f(t) for f in parts]), r, tol=1e-12)
        assert res.value.shape == (3,) and res.converged
        for i, f in enumerate(parts):
            alone, mine = integrate_ys(f, r, tol=1e-12), res.component(i)
            assert isinstance(mine.value, float) and mine.component_converged
            assert mine.n_cells == res.n_cells
            assert mine.atoms == alone.atoms
            assert mine.value == pytest.approx(alone.value, abs=1e-12)

    def test_open_components_alone_shape_the_partition(self):
        # the constant component is exact from the start, so the stack refines
        # exactly as cos(40 t) alone does, 2-, 4- and 8-way cuts included
        alone = integrate_ys(lambda t: np.cos(40 * t), identity(), tol=1e-14)
        res = integrate_ys(lambda t: np.stack([const_one(t), np.cos(40 * t)]), identity(), tol=1e-14)
        assert (res.n_cells, res.rounds) == (alone.n_cells, alone.rounds)
        assert res.component(1) == alone

    def test_one_budget_and_per_component_flags(self, monkeypatch):
        # the constant component is exact on any partition; cos(40 t) cannot
        # reach 1e-14 in two bisections, which the stack shares
        monkeypatch.setattr(stieltjes, "_MAX_REFINE", 2)
        res = integrate_ys(lambda t: np.stack([const_one(t), np.cos(40 * t)]), identity(), tol=1e-14)
        assert list(res.component_converged) == [True, False]
        assert not res.converged and res.n_cells == 16 + 2


@pytest.mark.parametrize("integrate", [integrate_ys, integrate_ls])
@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_non_positive_tol_raises(integrate, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate(np.cos, identity(), tol=tol)


class TestIntegrateLS:
    def test_total_mass(self):
        assert integrate_ls(const_one, identity()).value == pytest.approx(1.0, abs=1e-12)

    def test_mass_with_atom(self):
        v = identity(jumps=[Jump(0.5, 0.25, 0.0)])
        assert integrate_ls(const_one, v).value == pytest.approx(1.25, abs=1e-12)

    def test_atom_weighting(self):
        # continuous 0.5 plus atom 0.5 * 0.25
        v = identity(jumps=[Jump(0.5, 0.25, 0.0)])
        assert integrate_ls(lambda t: t, v).value == pytest.approx(0.625, abs=1e-11)

    def test_linear_in_integrator(self):
        r1 = identity(jumps=[Jump(0.5, 0.25, 0.0)])
        r2 = RegulatedFunction(np.polynomial.Polynomial([0.0, 0.0, 1.0]), [Jump(0.7, 0.0, -0.2)], (0.0, 1.0))
        r_sum = RegulatedFunction(
            lambda t: np.asarray(t, float) + np.asarray(t, float) ** 2,
            [Jump(0.5, 0.25, 0.0), Jump(0.7, 0.0, -0.2)],
            (0.0, 1.0),
        )
        u = lambda t: np.cos(2 * np.asarray(t))
        total = integrate_ls(u, r_sum, tol=1e-11).value
        parts = integrate_ls(u, r1, tol=1e-11).value + integrate_ls(u, r2, tol=1e-11).value
        assert total == pytest.approx(parts, abs=1e-9)

    @given(regulated_functions())
    @example(
        RegulatedFunction(
            np.polynomial.Polynomial([0.0, 1.0, -0.4]),
            [Jump(0.25, 0.3, 0.0), Jump(0.6, 0.0, -0.2)],
            (0.0, 1.0),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_ys_for_continuous_integrand(self, r):
        # both integrals are the exact atom sum beside one refinement of r's base
        u = lambda t: np.sin(3 * np.asarray(t))
        a = integrate_ys(u, r, tol=1e-11)
        b = integrate_ls(u, r, tol=1e-11)
        assert a.value == pytest.approx(b.value, abs=1e-9)
        assert a == b


def field_product():
    return ScalarField(value=lambda x, y: x * y, d1=lambda x, y: y, d2=lambda x, y: x, name="x1*x2")


def field_square():
    one = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ScalarField(value=lambda x, y: x**2, d1=lambda x, y: 2 * x, d2=one, name="x1^2")


class TestChainRule:
    def test_product_rule_continuous(self):
        u = identity()
        (res,) = chain_rule(field_product(), u, u, tol=1e-10)
        assert res.lhs == pytest.approx(1.0)
        assert res.int_u1.value == pytest.approx(0.5, abs=1e-9)
        assert res.int_u2.value == pytest.approx(0.5, abs=1e-9)
        assert res.left_jump_sum == 0.0 and res.right_jump_sum == 0.0
        assert abs(res.residual) < 1e-9

    def test_square_with_jump(self):
        # hand expansion: lhs = 4, int_u1 = 5, left jump term = 2.25 - 0.25 - 3 = -1
        u1 = identity(jumps=[Jump(0.5, 1.0, 0.0)])
        u2 = RegulatedFunction(lambda t: 0.0, (), (0.0, 1.0))
        (res,) = chain_rule(field_square(), u1, u2, tol=1e-10)
        assert res.lhs == pytest.approx(4.0)
        assert res.int_u1.value == pytest.approx(5.0, abs=1e-9)
        assert res.left_jump_sum == pytest.approx(-1.0, abs=1e-12)
        assert abs(res.residual) < 1e-9

    def test_sine_field(self):
        zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        G = ScalarField(value=lambda x, y: np.sin(x), d1=lambda x, y: np.cos(x), d2=zero, name="sin(x1)")
        u2 = RegulatedFunction(lambda t: 0.0, (), (0.0, 1.0))
        (res,) = chain_rule(G, identity(), u2, tol=1e-10)
        assert abs(res.residual) < 1e-8

    def test_right_jump_terms(self):
        u1 = identity(jumps=[Jump(0.4, 0.0, 0.5)])
        u2 = identity(jumps=[Jump(0.7, 0.0, -0.25)])
        (res,) = chain_rule(field_product(), u1, u2, tol=1e-10)
        assert res.right_jump_sum != 0.0
        assert abs(res.residual) < 1e-8

    def test_terms_beside_sums(self):
        u1 = identity(jumps=[Jump(0.3, 0.4, -0.2), Jump(0.7, 0.0, 0.3)])
        u2 = RegulatedFunction(np.polynomial.Polynomial([0.0, 0.0, 1.0]), [Jump(0.7, 0.0, 0.5)], (0.0, 1.0))
        (res,) = chain_rule(field_product(), u1, u2, tol=1e-10)
        assert [s for s, _ in res.left_jump_terms] == [0.3, 0.7]
        assert [s for s, _ in res.right_jump_terms] == [0.3, 0.7]
        assert res.left_jump_sum == math.fsum(v for _, v in res.left_jump_terms)
        assert res.int_u1.value == res.int_u1.continuous + res.int_u1.atoms
        assert res.int_u2.atoms == pytest.approx(u1.values(0.7) * 0.5, abs=1e-15)  # d2 G = x1 at the atom
        assert res.residual == res.lhs - math.fsum(
            [res.int_u1.value, res.int_u2.value, res.left_jump_sum, res.right_jump_sum]
        )

    def test_domain_mismatch(self):
        u1 = identity()
        u2 = RegulatedFunction(lambda t: 0.0, (), (0.0, 2.0))
        with pytest.raises(ValueError):
            chain_rule(field_product(), u1, u2)
