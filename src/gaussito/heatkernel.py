"""Gaussian smoothing of test functions and growth-certified registries.

psi_F(t, x) = E[F(x + sqrt(t) Z)] for Z standard normal is the heat-semigroup
action on F at scale t.  Every registered F carries it, and those of F' and
F'', in closed form, exact at every t >= 0: the finite heat series
sum_j (t/2)^j / j! p^(2j)(x) for a polynomial p (coefficients computed once),
exp(-t/2) sin(x) for sin and exp(x + t/2) for exp.  The companion identities

    d/dx psi_F = psi_{F'},      d/dt psi_F = (1/2) psi_{F''}

are exposed as finite-difference residual checks.

Test functions carry a growth certificate |F(x)| <= C exp(a x^2) valid for
F, F' and F'' jointly; a must stay below 1/(4 * sup-variance) for the
smoothing (and everything built on it) to be well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

__all__ = [
    "GrowthBound",
    "GrowthBoundError",
    "TestFunction",
    "heat_identity_residual",
    "psi",
    "test_function",
    "TEST_FUNCTION_IDS",
]


class GrowthBoundError(ValueError):
    """Growth certificate incompatible with the process variance bound."""


def psi(tf: TestFunction, t, x, order: int = 0):
    """psi_{F^(order)}(t, x) = E[F^(order)(x + sqrt(t) Z)] for tf's F, scale t >= 0, broadcast over (t, x)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("smoothing scale t must be >= 0")
    out = tf.smooth(t_arr, np.asarray(x, dtype=float), order)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class GrowthBound:
    """Certificate |F(x)| <= scale * exp(rate * x^2)."""

    scale: float
    rate: float


@dataclass(frozen=True)
class TestFunction:
    """F with derivatives (``f1`` and ``f2`` take a ufunc's ``out=``), their heat smoothing and a joint growth certificate for (F, F', F'')."""

    name: str
    f: Callable
    f1: Callable
    f2: Callable
    smooth: Callable  # (t, x, order) -> psi_{F^(order)}(t, x) for order 0, 1, 2
    growth: GrowthBound
    kind: str  # "polynomial" | "transcendental"

    def check_growth(self, lam: float) -> None:
        limit = 0.25 / lam if lam > 0 else math.inf
        if not self.growth.rate < limit:
            raise GrowthBoundError(
                f"growth rate a={self.growth.rate:g} violates a < 1/(4*lambda)={limit:g} "
                f"for test function {self.name!r}"
            )


def heat_identity_residual(tf: TestFunction, t: float, x: float, fd_step: float) -> tuple[float, float]:
    """Central-difference residuals of the smoothing identities at (t, x).

    Returns |d/dt psi - psi_{F''}/2| and |d/dx psi - psi_{F'}|, both O(fd_step^2)
    for four-times differentiable F.  Requires t > fd_step so the t-stencil
    stays in the domain.
    """
    if not t > fd_step:
        raise ValueError("need t > fd_step for the central t-stencil")
    dt_num = (psi(tf, t + fd_step, x) - psi(tf, t - fd_step, x)) / (2.0 * fd_step)
    dt_res = abs(dt_num - 0.5 * psi(tf, t, x, 2))
    dx_num = (psi(tf, t, x + fd_step) - psi(tf, t, x - fd_step)) / (2.0 * fd_step)
    dx_res = abs(dx_num - psi(tf, t, x, 1))
    return dt_res, dx_res


def _monomial_envelope(k: int, a: float) -> float:
    # sup_x |x|^k exp(-a x^2) = (k / (2 e a))^(k/2)
    if k == 0:
        return 1.0
    return (k / (2.0 * math.e * a)) ** (k / 2.0)


def _poly_growth(coeffs: np.ndarray, a: float) -> float:
    return math.fsum(abs(c) * _monomial_envelope(k, a) for k, c in enumerate(coeffs) if c)


def _heat_series(coef: np.ndarray) -> np.ndarray:
    """c with psi_p(t, x) = sum_ij c[i, j] x^i t^j: column j holds p^(2j) / (2^j j!)."""
    c = np.zeros((len(coef), (len(coef) + 1) // 2))
    for j in range(c.shape[1]):
        d = polyder(coef, 2 * j)
        c[: len(d), j] = d / (2.0**j * math.factorial(j))
    return c


def _horner(c: np.ndarray, x, out=None):
    """polyval(x, c) by in-place Horner: polyval's operations in its order, in ``out`` or one new array."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape) if out is None else out
    out.fill(c[-1])
    for ci in c[-2::-1]:
        out *= x
        out += ci
    return out[()]


def _poly_smooth(series: tuple, t, x, order: int):
    # Horner in x for every power of t, then Horner in t
    return polyval(t, polyval(x, series[order]), tensor=False)


def _poly_test_function(name: str, coeffs, lam: float) -> TestFunction:
    coef = np.asarray(coeffs, dtype=float)
    derivatives = (coef, polyder(coef), polyder(coef, 2))
    a = 0.125 / lam if lam > 0 else 1e-6
    scale = max(_poly_growth(d, a) for d in derivatives)
    return TestFunction(
        name,
        *(partial(_horner, d) for d in derivatives),
        smooth=partial(_poly_smooth, tuple(_heat_series(d) for d in derivatives)),
        growth=GrowthBound(scale=scale, rate=a),
        kind="polynomial",
    )


_POLYNOMIALS = {"x": [0.0, 1.0], "x2": [0.0, 0.0, 1.0], "x3": [0.0, 0.0, 0.0, 1.0]}
TEST_FUNCTION_IDS = (*_POLYNOMIALS, "sin", "exp")
_SIN_DERIVATIVES = (np.sin, np.cos, lambda x, out=None: np.negative(np.sin(x, out=out), out=out))


def test_function(name: str, lam: float, poly_coeffs=None) -> TestFunction:
    """Registry of F's used throughout the verification batteries.

    ``lam`` is the sup of the variance function of the active model; growth
    rates are chosen as 1/(8 lam), safely inside the admissible range.
    ``poly_coeffs`` (ascending) builds a custom polynomial under id "poly".
    A growth certificate too large for a float raises ``GrowthBoundError``.
    """
    try:
        return _registered(name, lam, poly_coeffs)
    except OverflowError as exc:
        raise GrowthBoundError(f"growth certificate of test function {name!r} overflows at lambda={lam:g}") from exc


def _registered(name: str, lam: float, poly_coeffs) -> TestFunction:
    if name == "poly":
        if poly_coeffs is None:
            raise ValueError("poly test function needs coefficients")
        return _poly_test_function("poly", poly_coeffs, lam)
    if name in _POLYNOMIALS:
        return _poly_test_function(name, _POLYNOMIALS[name], lam)
    if name == "sin":
        return TestFunction(
            "sin",
            *_SIN_DERIVATIVES,
            smooth=lambda t, x, order: np.exp(-0.5 * t) * _SIN_DERIVATIVES[order](x),
            growth=GrowthBound(scale=1.0, rate=0.0),
            kind="transcendental",
        )
    if name == "exp":
        a = 0.125 / lam if lam > 0 else 1e-6
        # exp(x) <= exp(1/(4a)) exp(a x^2), same bound for both derivatives
        return TestFunction(
            name="exp",
            f=np.exp,
            f1=np.exp,
            f2=np.exp,
            smooth=lambda t, x, order: np.exp(x + 0.5 * t),
            growth=GrowthBound(scale=math.exp(0.25 / a), rate=a),
            kind="transcendental",
        )
    raise ValueError(f"unknown test function id {name!r}")
