import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaussito.regulated import (
    DomainError,
    Jump,
    Partition,
    RegulatedFunction,
    p_variation,
    sigma2,
    w2star_criterion,
)


def identity(domain=(0.0, 1.0), jumps=()):
    return RegulatedFunction(lambda t: np.asarray(t, dtype=float), jumps, domain)


def heaviside(s=0.5, size=1.0, domain=(0.0, 1.0)):
    return RegulatedFunction(lambda t: 0.0, [Jump(s, size, 0.0)], domain)


# strategy: polynomial base + up to 3 jumps on a 1/16 grid
_jump_times = st.lists(
    st.sampled_from([k / 16 for k in range(1, 16)]), min_size=0, max_size=3, unique=True
)
# magnitudes bounded away from the subnormal range so squares cannot underflow
_deltas = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=-2.0, max_value=-1e-3),
)
_coeffs = st.lists(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False), min_size=1, max_size=4)


@st.composite
def regulated_functions(draw):
    times = sorted(draw(_jump_times))
    jumps = [Jump(t, draw(_deltas), draw(_deltas)) for t in times]
    poly = np.polynomial.Polynomial(draw(_coeffs))
    return RegulatedFunction(poly, jumps, (0.0, 1.0))


class TestOneSidedLimits:
    def test_value_jump_convention(self):
        u = identity(jumps=[Jump(0.5, 0.5, 0.0)])
        assert u.one_sided(0.5) == (0.5, 1.0, 1.0)

    def test_continuous(self):
        assert identity().one_sided(0.3) == (0.3, 0.3, 0.3)

    def test_before_jump(self):
        assert heaviside().one_sided(0.25) == (0.0, 0.0, 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            identity().one_sided(1.5)
        with pytest.raises(DomainError):
            identity().one_sided(-0.1)

    def test_endpoint_conventions(self):
        u = RegulatedFunction(lambda t: 0.0, [Jump(0.0, 0.0, 1.0), Jump(1.0, 0.5, 0.0)], (0.0, 1.0))
        left0, val0, _ = u.one_sided(0.0)
        assert left0 == val0  # u(0-) = u(0)
        _, valT, rightT = u.one_sided(1.0)
        assert rightT == valT  # u(T+) = u(T)

    def test_invalid_endpoint_jumps_rejected(self):
        with pytest.raises(ValueError):
            RegulatedFunction(lambda t: 0.0, [Jump(0.0, 1.0, 0.0)], (0.0, 1.0))
        with pytest.raises(ValueError):
            RegulatedFunction(lambda t: 0.0, [Jump(1.0, 0.0, 1.0)], (0.0, 1.0))

    @given(regulated_functions())
    def test_delta_consistency(self, u):
        for j in u.jumps:
            left, value, right = u.one_sided(j.time)
            scale = 1.0 + abs(left) + abs(value) + abs(right)
            assert abs(value - left - j.delta_minus) <= 1e-12 * scale
            assert abs(right - value - j.delta_plus) <= 1e-12 * scale


class TestPVariation:
    def test_monotone_telescopes(self):
        assert p_variation(identity(), 1.0, Partition.uniform(0, 1, 7)) == pytest.approx(1.0)

    def test_single_unit_jump(self):
        assert p_variation(heaviside(), 2.0, Partition((0.0, 0.5, 1.0))) == pytest.approx(1.0)

    def test_identity_plus_heaviside(self):
        # hand oracle: u(0.5) = 1.5, u(1) = 2, so |1.5 - 0| + |2 - 1.5| = 2.0
        u = identity(jumps=[Jump(0.5, 1.0, 0.0)])
        assert p_variation(u, 1.0, Partition((0.0, 0.5, 1.0))) == pytest.approx(2.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            p_variation(identity(), 0.5, Partition((0.0, 1.0)))

    @given(regulated_functions(), st.integers(min_value=1, max_value=5))
    def test_refinement_monotone_for_p1(self, u, n):
        coarse = Partition.uniform(0.0, 1.0, n)
        fine = coarse.bisected()
        assert p_variation(u, 1.0, fine) >= p_variation(u, 1.0, coarse) - 1e-12

    def test_converges_to_total_variation(self):
        # increasing base (slope 1) plus jumps of sizes 1 and -0.5:
        # total variation 1 + 1 + 0.5; the cell straddling the negative jump
        # cancels against the base slope, so the deficit decays like the mesh
        u = identity(jumps=[Jump(0.5, 1.0, 0.0), Jump(0.75, 0.0, -0.5)])
        pi = Partition((0.0, 0.5, 0.75, 1.0))
        vals = []
        for _ in range(10):
            vals.append(p_variation(u, 1.0, pi))
            pi = pi.bisected()
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(2.5, abs=4.0 * pi.mesh)
        assert vals[-1] < 2.5 + 1e-12


class TestSigma2:
    def test_single_left_jump(self):
        assert sigma2(heaviside(size=0.5)) == pytest.approx(0.25)

    def test_continuous_is_zero(self):
        assert sigma2(identity()) == 0.0

    def test_mixed_sides(self):
        # 0.3^2 + 0.4^2 = 0.25
        u = RegulatedFunction(lambda t: 0.0, [Jump(0.2, 0.3, 0.0), Jump(0.7, 0.0, 0.4)], (0.0, 1.0))
        assert sigma2(u) == pytest.approx(0.25)

    @given(regulated_functions())
    def test_nonnegative_and_zero_iff_no_jumps(self, u):
        s2 = sigma2(u)
        assert s2 >= 0.0
        if not u.jumps:
            assert s2 == 0.0
        if s2 == 0.0:
            assert all(j.delta_minus == 0.0 and j.delta_plus == 0.0 for j in u.jumps)


class TestW2StarCriterion:
    def test_lipschitz_base_converges(self):
        # uniform refinement closed form: sum (1/n)^2 * n = 1/n
        res = w2star_criterion(identity(), Partition((0.0, 1.0)), tol=1e-3, max_refine=4000)
        assert res.converged
        assert res.estimate <= 1e-3

    def test_pure_jump_exact_once_pinned(self):
        u = heaviside(size=1.0)
        res = w2star_criterion(u, Partition((0.0, 1.0)), tol=1e-6, max_refine=4000)
        assert res.converged
        assert res.estimate == pytest.approx(sigma2(u), abs=1e-6)

    def test_jump_plus_base(self):
        u = identity(jumps=[Jump(0.5, 1.0, 0.0), Jump(0.75, 0.0, -0.5)])
        res = w2star_criterion(u, Partition((0.0, 1.0)), tol=1e-4, max_refine=20000)
        assert res.converged
        assert abs(res.estimate - sigma2(u)) < 1e-4

    def test_non_convergence_flag(self):
        res = w2star_criterion(identity(), Partition((0.0, 1.0)), tol=1e-6, max_refine=10)
        assert not res.converged

    def test_lipschitz_rate(self):
        # Lipschitz base contributes <= L^2 T^2 / n along uniform partitions
        u = identity()
        for n in (64, 256, 1024):
            q = p_variation(u, 2.0, Partition.uniform(0.0, 1.0, n))
            assert q <= 1.0 / n + 1e-12
