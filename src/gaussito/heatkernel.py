"""Gaussian smoothing of test functions and growth-certified registries.

psi(t, x) = E[F(x + sqrt(t) Z)] for Z standard normal is the heat-semigroup
action on F at scale t.  It is evaluated by Gauss-Hermite quadrature, exact
to machine precision for polynomial F up to the node-count degree, with the
short circuit psi(0, x) = F(x).  The companion identities

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
from numpy.polynomial.polynomial import polyval

__all__ = [
    "GrowthBound",
    "GrowthBoundError",
    "TestFunction",
    "heat_identity_residual",
    "psi",
    "test_function",
    "TEST_FUNCTION_IDS",
]

DEFAULT_NODES = 64


class GrowthBoundError(ValueError):
    """Growth certificate incompatible with the process variance bound."""


class _HermiteRule:
    """Cached Gauss-Hermite nodes rescaled for standard-normal expectations."""

    def __init__(self, n: int):
        z, w = np.polynomial.hermite.hermgauss(n)
        self.shift = z * math.sqrt(2.0)
        self.weights = w / math.sqrt(math.pi)


_RULES: dict[int, _HermiteRule] = {}


def _rule(n: int) -> _HermiteRule:
    if n not in _RULES:
        _RULES[n] = _HermiteRule(n)
    return _RULES[n]


def psi(func: Callable, t, x, n_nodes: int = DEFAULT_NODES):
    """Gaussian smoothing E[func(x + sqrt(t) Z)] at scale t >= 0, broadcast over (t, x)."""
    t_arr = np.asarray(t, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("smoothing scale t must be >= 0")
    scalar = t_arr.ndim == 0 and x_arr.ndim == 0
    t_arr, x_arr = np.broadcast_arrays(np.atleast_1d(t_arr), np.atleast_1d(x_arr))
    rule = _rule(n_nodes)
    args = x_arr[..., None] + np.sqrt(t_arr)[..., None] * rule.shift
    out = np.asarray(func(args), dtype=float) @ rule.weights
    zero = t_arr == 0.0
    if np.any(zero):
        exact = np.asarray(func(x_arr), dtype=float)
        out = np.where(zero, np.broadcast_to(exact, out.shape), out)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GrowthBound:
    """Certificate |F(x)| <= scale * exp(rate * x^2)."""

    scale: float
    rate: float


@dataclass(frozen=True)
class TestFunction:
    """F with derivatives and a joint growth certificate for (F, F', F'')."""

    name: str
    f: Callable
    f1: Callable
    f2: Callable
    growth: GrowthBound
    kind: str  # "polynomial" | "transcendental"

    def psi(self, t, x, n_nodes: int = DEFAULT_NODES):
        return psi(self.f, t, x, n_nodes)

    def psi_d1(self, t, x, n_nodes: int = DEFAULT_NODES):
        return psi(self.f1, t, x, n_nodes)

    def psi_d2(self, t, x, n_nodes: int = DEFAULT_NODES):
        return psi(self.f2, t, x, n_nodes)

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
    dt_num = (tf.psi(t + fd_step, x) - tf.psi(t - fd_step, x)) / (2.0 * fd_step)
    dt_res = abs(dt_num - 0.5 * tf.psi_d2(t, x))
    dx_num = (tf.psi(t, x + fd_step) - tf.psi(t, x - fd_step)) / (2.0 * fd_step)
    dx_res = abs(dx_num - tf.psi_d1(t, x))
    return dt_res, dx_res


def _monomial_envelope(k: int, a: float) -> float:
    # sup_x |x|^k exp(-a x^2) = (k / (2 e a))^(k/2)
    if k == 0:
        return 1.0
    return (k / (2.0 * math.e * a)) ** (k / 2.0)


def _poly_growth(coeffs: np.ndarray, a: float) -> float:
    return math.fsum(abs(c) * _monomial_envelope(k, a) for k, c in enumerate(coeffs) if c)


def _poly_test_function(name: str, coeffs, lam: float) -> TestFunction:
    c0 = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    c1 = c0.deriv()
    c2 = c1.deriv()
    a = 0.125 / lam if lam > 0 else 1e-6
    scale = max(_poly_growth(c0.coef, a), _poly_growth(c1.coef, a), _poly_growth(c2.coef, a))
    # raw polyval on the coefficients: Polynomial.__call__ maps every
    # argument array through the (identity) domain map first
    return TestFunction(
        name=name,
        f=partial(polyval, c=c0.coef),
        f1=partial(polyval, c=c1.coef),
        f2=partial(polyval, c=c2.coef),
        growth=GrowthBound(scale=scale, rate=a),
        kind="polynomial",
    )


TEST_FUNCTION_IDS = ("x", "x2", "x3", "sin", "exp")


def test_function(name: str, lam: float, poly_coeffs=None) -> TestFunction:
    """Registry of F's used throughout the verification batteries.

    ``lam`` is the sup of the variance function of the active model; growth
    rates are chosen as 1/(8 lam), safely inside the admissible range.
    ``poly_coeffs`` (ascending) builds a custom polynomial under id "poly".
    """
    if name == "poly":
        if poly_coeffs is None:
            raise ValueError("poly test function needs coefficients")
        return _poly_test_function("poly", poly_coeffs, lam)
    if name == "x":
        return _poly_test_function("x", [0.0, 1.0], lam)
    if name == "x2":
        return _poly_test_function("x2", [0.0, 0.0, 1.0], lam)
    if name == "x3":
        return _poly_test_function("x3", [0.0, 0.0, 0.0, 1.0], lam)
    if name == "sin":
        return TestFunction(
            name="sin",
            f=np.sin,
            f1=np.cos,
            f2=lambda x: -np.sin(x),
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
            growth=GrowthBound(scale=math.exp(0.25 / a), rate=a),
            kind="transcendental",
        )
    raise ValueError(f"unknown test function id {name!r}")
