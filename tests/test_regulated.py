import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaussito.regulated import DomainError, Jump, RegulatedFunction


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
