import math

import numpy as np
import pytest

from gaussito.heatkernel import TEST_FUNCTION_IDS, GrowthBoundError, heat_identity_residual, psi
from gaussito.heatkernel import test_function as make_tf

# degree 5, so the heat series of F reaches its (t/2)^2 / 2 term
POLY5 = [0.5, -1.0, 0.25, 2.0, -0.3, 0.1]
ALL_IDS = TEST_FUNCTION_IDS + ("poly",)


def registered(name: str):
    return make_tf(name, lam=1.0, poly_coeffs=POLY5 if name == "poly" else None)


def monomial(k: int):
    return make_tf("poly", lam=1.0, poly_coeffs=[0.0] * k + [1.0])


def gauss_hermite_psi(func, t, x, n_nodes: int = 64):
    """Independent oracle: E[func(x + sqrt(t) Z)] by n-node Gauss-Hermite quadrature.

    Exact for polynomials of degree < 2 n_nodes; accurate to roundoff for
    sin and exp at moderate t (it breaks down for exp near t = 100).
    """
    z, w = np.polynomial.hermite.hermgauss(n_nodes)
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    args = x[..., None] + np.sqrt(t)[..., None] * (z * math.sqrt(2.0))
    return np.asarray(func(args), dtype=float) @ (w / math.sqrt(math.pi))


def gaussian_moment_poly(k: int, t: float, x: float) -> float:
    """Brute-force reference for E[(x + sqrt(t) Z)^k] via binomial + moments.

    Uses E[Z^{2m}] = (2m-1)!! and vanishing odd moments.
    """
    total = 0.0
    for m in range(0, k // 2 + 1):
        double_fact = math.factorial(2 * m) // (2**m * math.factorial(m))
        total += math.comb(k, 2 * m) * double_fact * x ** (k - 2 * m) * t**m
    return total


@pytest.mark.parametrize("name", ALL_IDS)
def test_derivatives_write_into_out_with_the_bits_of_a_new_array(name):
    # the pathwise check evaluates F' and F'' into arrays it reuses across batches;
    # a strided view stands for the paths without their last column
    tf = registered(name)
    x = np.random.default_rng(2).standard_normal((7, 12))[:, :-1]
    for fn in (tf.f1, tf.f2):
        out = np.full(x.shape, np.nan)
        assert np.shares_memory(fn(x, out=out), out)
        assert out.tobytes() == np.asarray(fn(x), dtype=float).tobytes()


class TestPsi:
    def test_square_adds_scale(self):
        tf = make_tf("x2", lam=1.0)
        assert psi(tf, 0.5, 1.0) == pytest.approx(1.5, abs=1e-13)

    def test_linear_invariant(self):
        tf = make_tf("x", lam=1.0)
        for t in (0.0, 0.3, 2.0):
            assert psi(tf, t, 0.7) == pytest.approx(0.7, abs=1e-13)

    def test_exponential_mgf(self):
        tf = make_tf("exp", lam=1.0)
        assert psi(tf, 1.0, 0.0) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_zero_scale_short_circuits(self):
        # every closed form reduces to F^(k) itself at t = 0, no special case
        for name in ALL_IDS:
            tf = registered(name)
            for k, fn in enumerate((tf.f, tf.f1, tf.f2)):
                assert psi(tf, 0.0, 0.3, k) == float(fn(0.3))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            psi(make_tf("sin", lam=1.0), -1e-9, 0.0)

    def test_broadcasting(self):
        t = np.array([0.0, 0.5, 1.0])
        x = np.array([1.0, 1.0, 1.0])
        out = psi(make_tf("x2", lam=1.0), t, x)
        assert out.shape == (3,)
        assert np.allclose(out, x**2 + t, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_monomials_match_moment_oracle(self, k):
        for t in (0.0, 0.25, 1.7):
            for x in (-1.3, 0.0, 0.8):
                got = psi(monomial(k), t, x)
                assert got == pytest.approx(gaussian_moment_poly(k, t, x), rel=1e-11, abs=1e-11)

    def test_linearity_in_function(self):
        t, x = 0.7, -0.4
        combo = gauss_hermite_psi(lambda z: 2.0 * z**3 - 0.5 * np.sin(z), t, x)
        parts = 2.0 * psi(monomial(3), t, x) - 0.5 * psi(make_tf("sin", lam=1.0), t, x)
        assert combo == pytest.approx(parts, abs=1e-13)

    def test_monotone_preserved(self):
        xs = np.linspace(-2, 2, 41)
        vals = psi(make_tf("poly", lam=1.0, poly_coeffs=[0.0, 1.0, 0.0, 1.0]), np.full_like(xs, 0.7), xs)
        assert np.all(np.diff(vals) > 0)

    def test_sin_closed_form(self):
        # E[sin(x + sqrt(t) Z)] = exp(-t/2) sin(x)
        for t, x in [(0.3, 0.5), (1.2, -0.9)]:
            assert gauss_hermite_psi(np.sin, t, x) == pytest.approx(math.exp(-t / 2) * math.sin(x), abs=1e-13)
            assert psi(make_tf("sin", lam=1.0), t, x) == pytest.approx(math.exp(-t / 2) * math.sin(x), abs=1e-13)

    @pytest.mark.parametrize("name", ALL_IDS)
    def test_closed_forms_match_gauss_hermite_oracle(self, name):
        tf = registered(name)
        t, x = np.meshgrid([0.0, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0], [-2.0, -0.7, 0.0, 0.4, 1.5])
        for k, fn in enumerate((tf.f, tf.f1, tf.f2)):
            assert psi(tf, t, x, k) == pytest.approx(gauss_hermite_psi(fn, t, x), rel=1e-12, abs=1e-12)

    def test_exp_exact_at_large_scale(self):
        # a 64-node rule returns about 0.023 e^150 here
        tf = make_tf("exp", lam=300.0)
        assert psi(tf, 300.0, 0.0) == pytest.approx(math.exp(150.0), rel=1e-14)
        assert psi(make_tf("sin", lam=300.0), 300.0, 1.0) == pytest.approx(math.exp(-150.0) * math.sin(1.0), rel=1e-14)


class TestHeatIdentity:
    def test_square_scale_derivative_exact(self):
        tf = make_tf("x2", lam=1.0)
        dt_res, dx_res = heat_identity_residual(tf, 0.4, 1.1, 1e-4)
        assert dt_res < 1e-10
        assert dx_res < 1e-10

    def test_sin_residuals_small(self):
        tf = make_tf("sin", lam=1.0)
        dt_res, dx_res = heat_identity_residual(tf, 0.5, 0.3, 1e-4)
        assert dt_res < 1e-5
        assert dx_res < 1e-5

    def test_cubic_space_derivative(self):
        # psi_{x^3}(t, x) = x^3 + 3 x t, central difference error is exactly fd^2
        tf = make_tf("x3", lam=1.0)
        _, dx_res = heat_identity_residual(tf, 0.5, 0.3, 1e-4)
        assert dx_res == pytest.approx(1e-8, rel=1e-3)

    def test_quadratic_decay_in_step(self):
        tf = make_tf("sin", lam=1.0)
        res_big = heat_identity_residual(tf, 0.5, 0.9, 8e-4)
        res_small = heat_identity_residual(tf, 0.5, 0.9, 4e-4)
        for big, small in zip(res_big, res_small):
            if big > 1e-12:
                assert big / small == pytest.approx(4.0, rel=0.25)

    @pytest.mark.parametrize("name", ALL_IDS)
    def test_every_registered_function(self, name):
        for t, x in ((0.5, 0.3), (2.0, -1.1)):
            dt_res, dx_res = heat_identity_residual(registered(name), t, x, 1e-4)
            assert dt_res < 1e-7
            assert dx_res < 1e-7

    def test_requires_interior_scale(self):
        tf = make_tf("x2", lam=1.0)
        with pytest.raises(ValueError):
            heat_identity_residual(tf, 1e-5, 0.0, 1e-4)


class TestGrowthBounds:
    def test_registry_rates_admissible(self):
        for lam in (0.5, 1.0, 2.5):
            for name in ("x", "x2", "x3", "sin", "exp"):
                make_tf(name, lam).check_growth(lam)

    def test_violation_raises(self):
        tf = make_tf("exp", lam=0.1)  # rate 1.25
        with pytest.raises(GrowthBoundError):
            tf.check_growth(1.0)  # limit 0.25

    def test_polynomial_envelope_is_valid(self):
        tf = make_tf("poly", lam=1.0, poly_coeffs=[1.0, -2.0, 0.0, 0.5])
        c, a = tf.growth.scale, tf.growth.rate
        xs = np.linspace(-30, 30, 2001)
        for fn in (tf.f, tf.f1, tf.f2):
            assert np.all(np.abs(fn(xs)) <= c * np.exp(a * xs**2) + 1e-9)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_tf("tanh", lam=1.0)

    def test_poly_requires_coeffs(self):
        with pytest.raises(ValueError):
            make_tf("poly", lam=1.0)
