"""Regulated functions on an interval: continuous base plus a finite jump list.

A regulated function has one-sided limits at every point.  Here it is stored
as a continuous base evaluator together with finitely many jumps
``(s, d_minus, d_plus)`` and evaluated with the conventions

    u(s)  = u(s-) + d_minus(s),        u(s+) = u(s) + d_plus(s),
    u(0-) = u(0),                      u(T+) = u(T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "Jump",
    "RegulatedFunction",
]


class DomainError(ValueError):
    """Evaluation outside the function's interval."""


@dataclass(frozen=True)
class Jump:
    """One discontinuity: u(s) - u(s-) = delta_minus, u(s+) - u(s) = delta_plus."""

    time: float
    delta_minus: float = 0.0
    delta_plus: float = 0.0


def _as_float_array(ts) -> tuple[np.ndarray, bool]:
    arr = np.asarray(ts, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


class RegulatedFunction:
    """Continuous base + finite jump list on a closed interval.

    ``base`` must accept numpy arrays (constants returning scalars are fine).
    ``breakpoints`` marks kink locations of the base so integration engines
    can pin them; it carries no semantics for evaluation.
    """

    def __init__(
        self,
        base: Callable,
        jumps: Sequence[Jump] = (),
        domain: tuple[float, float] = (0.0, 1.0),
        breakpoints: Sequence[float] = (),
    ):
        t0, t1 = float(domain[0]), float(domain[1])
        if not t0 < t1:
            raise ValueError("empty domain")
        jumps = tuple(sorted((j for j in jumps if j.delta_minus or j.delta_plus), key=lambda j: j.time))
        times = [j.time for j in jumps]
        if any(t < t0 or t > t1 for t in times):
            raise ValueError("jump time outside domain")
        if len(set(times)) != len(times):
            raise ValueError("jump times must be distinct")
        for j in jumps:
            if j.time == t0 and j.delta_minus != 0.0:
                raise ValueError("delta_minus at the left endpoint must be 0 (u(0-) = u(0))")
            if j.time == t1 and j.delta_plus != 0.0:
                raise ValueError("delta_plus at the right endpoint must be 0 (u(T+) = u(T))")
        self.base = base
        self.jumps = jumps
        self.domain = (t0, t1)
        self.breakpoints = tuple(sorted({float(b) for b in breakpoints if t0 < b < t1}))
        self._jt = np.array(times, dtype=float)
        self._dm = np.array([j.delta_minus for j in jumps], dtype=float)
        self._dp = np.array([j.delta_plus for j in jumps], dtype=float)
        # cumulative full-jump offset: csum[k] = sum of (dm+dp) over the first k jumps
        self._csum = np.concatenate([[0.0], np.cumsum(self._dm + self._dp)])

    @classmethod
    def from_exact(
        cls,
        exact: Callable,
        jumps: Sequence[Jump] = (),
        domain: tuple[float, float] = (0.0, 1.0),
        breakpoints: Sequence[float] = (),
    ) -> "RegulatedFunction":
        """Build from a pointwise-exact evaluator whose jumps are known.

        The continuous base is reconstructed as exact(t) minus the cumulated
        jump offsets.  ``values`` therefore reproduces ``exact`` bit-for-bit
        before the first jump; after it, to within one rounding of the base
        plus the offsets.
        """
        u = cls(exact, jumps, domain, breakpoints)

        def base(ts):
            arr, _ = _as_float_array(ts)
            return np.asarray(exact(arr), dtype=float) - u._offsets(arr, 0)

        u.base = base
        return u

    # -- evaluation ---------------------------------------------------------

    def _offsets(self, arr: np.ndarray, side: int) -> np.ndarray:
        """Cumulated jumps in u(t-), u(t) or u(t+) for side -1, 0, +1."""
        n = len(self._jt)
        if n == 0:
            return np.zeros(arr.shape)
        idx = np.searchsorted(self._jt, arr, side="right" if side > 0 else "left")
        off = self._csum[idx]
        if side == 0:
            hit = (idx < n) & (self._jt[np.minimum(idx, n - 1)] == arr)
            if np.any(hit):
                off = off + np.where(hit, self._dm[np.minimum(idx, n - 1)], 0.0)
        return off

    def _evaluate(self, ts, side: int | None) -> np.ndarray:
        arr, scalar = _as_float_array(ts)
        out = np.asarray(self.base(arr), dtype=float)
        if out.shape != arr.shape:  # a constant base may return a scalar
            out = np.broadcast_to(out, arr.shape).copy()
        if side is not None:
            out = out + self._offsets(arr, side)
        return out[0] if scalar else out

    def values(self, ts) -> np.ndarray:
        return self._evaluate(ts, 0)

    def left_values(self, ts) -> np.ndarray:
        return self._evaluate(ts, -1)

    def right_values(self, ts) -> np.ndarray:
        return self._evaluate(ts, 1)

    def base_values(self, ts) -> np.ndarray:
        """Continuous part of u (the base), sharing u's evaluator conventions."""
        return self._evaluate(ts, None)

    def one_sided(self, t: float) -> tuple[float, float, float]:
        """(u(t-), u(t), u(t+)) with the endpoint conventions; t must lie in the domain."""
        t = float(t)
        t0, t1 = self.domain
        if t < t0 or t > t1:
            raise DomainError(f"t={t} outside [{t0}, {t1}]")
        return float(self.left_values(t)), float(self.values(t)), float(self.right_values(t))

    # -- jump bookkeeping ---------------------------------------------------

    @property
    def jump_times(self) -> tuple[float, ...]:
        return tuple(self._jt)

    def _delta_at(self, deltas: np.ndarray, t: float) -> float:
        k = np.searchsorted(self._jt, t)
        return float(deltas[k]) if k < len(self._jt) and self._jt[k] == t else 0.0

    def delta_minus_at(self, t: float) -> float:
        return self._delta_at(self._dm, t)

    def delta_plus_at(self, t: float) -> float:
        return self._delta_at(self._dp, t)

    def pinned_points(self) -> tuple[float, ...]:
        """Jump times and base kinks, for partition pinning."""
        return tuple(sorted(set(self.jump_times) | set(self.breakpoints)))

