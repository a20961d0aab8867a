"""Stieltjes-type integration against regulated integrators.

Both integrals split a regulated integrator r into its continuous base and
its jumps: the atoms are summed exactly, and one adaptive core,
``_adaptive_continuous``, integrates u against the base with a per-cell
two-level Richardson estimate, with jump times and declared kinks pinned as
partition points.  Each round cuts a cell whose error is above its target
into 2, 4 or 8 equal pieces, more the further above it is.  One budget,
``_MAX_REFINE`` cells added, bounds every refinement.  An integrand with a
leading component axis has its k components integrated on one shared
partition, each converging on its own.

* ``integrate_ys`` is the Young-Stieltjes integral.  Its atoms are the
  one-sided jump terms u(s) d-r(s) + u(s) d+r(s).  Convergence in this
  refinement mode is the computational stand-in for gauge-based integration.
* ``integrate_ls`` integrates against a bounded-variation integrator as a
  measure, with atom terms u(s) * (r(s+) - r(s-)): the same sum.

The chain rule for G(u1, u2) with u1 regulated (finite quadratic jump part)
and u2 of bounded variation combines both integrals with the left/right jump
correction sums; its residual should vanish to tolerance.  It is the one
engine of the change-of-variables identity: the Gaussian Ito forms in
``itoverify`` are adapters over its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .regulated import RegulatedFunction

__all__ = [
    "ChainRuleTerms",
    "IntegralResult",
    "ScalarField",
    "chain_rule",
    "integrate_ls",
    "integrate_ys",
]

# at least this many cells in the initial partition, spread over the knot gaps
_MIN_CELLS = 16
# cells this narrow, relative to their position, are never split again
_WIDTH_FLOOR = 64.0 * np.finfo(float).eps
# most cells one integral, stacked or not, may add to its initial partition
_MAX_REFINE = 60000
# a cell this many times above its target is cut into 4 pieces, this squared into 8
_CUT_FACTOR = 128.0
# most pieces one cut makes: 2, 4 or 8
_MAX_PIECES = 8


@dataclass(frozen=True)
class IntegralResult:
    """Adaptively refined continuous part beside the exact atom sum.

    A stacked integrand gives arrays over its components, except ``n_cells``
    and ``rounds``, the shared partition's cells and refinement rounds (one
    integrand call each, after the first), and ``converged``, true when every
    component is.
    """

    continuous: float | np.ndarray
    atoms: float | np.ndarray
    error_estimate: float | np.ndarray
    component_converged: bool | np.ndarray
    n_cells: int
    rounds: int

    @property
    def converged(self) -> bool:
        return bool(np.all(self.component_converged))

    @property
    def value(self) -> float | np.ndarray:
        return self.continuous + self.atoms

    def component(self, i) -> IntegralResult:
        """Component ``i`` of a stacked result, as floats."""
        c, a, e, ok = (x[i] for x in (self.continuous, self.atoms, self.error_estimate, self.component_converged))
        return IntegralResult(float(c), float(a), float(e), bool(ok), self.n_cells, self.rounds)


def _on_times(values, n: int) -> np.ndarray:
    """An integrand's values with a trailing time axis of length n, any leading component axis kept."""
    values = np.asarray(values, dtype=float)
    return np.broadcast_to(values, values.shape[:-1] + (n,))


def _atom_sum(u, r: RegulatedFunction):
    """Exact sum of u(s) d-r(s) + u(s) d+r(s) over r's jump times, per component of u."""
    t0, t1 = r.domain
    if not r.jump_times:
        return 0.0
    jt = np.asarray(r.jump_times)
    uj = _on_times(u(jt), len(jt))
    terms = [uj[..., k] * r.delta_minus_at(s) for k, s in enumerate(jt) if s > t0]
    terms += [uj[..., k] * r.delta_plus_at(s) for k, s in enumerate(jt) if s < t1]
    return np.apply_along_axis(math.fsum, -1, np.stack(terms, axis=-1))


def _adaptive_continuous(u, r: RegulatedFunction, tol: float, knots: Sequence[float]):
    """Adaptive midpoint-Stieltjes value of int u d(base of r), per component of u.

    Per cell, midpoint sums at three dyadic levels are extrapolated twice
    (cell-local Romberg); the difference of the two extrapolants drives
    refinement and, clamped at roundoff scale, forms the error estimate.
    ``knots`` are partition points from the start: the integrand jumps or
    kinks there, and a cell that straddles such a point converges slowly.

    The components of u share one partition.  A component converges once its
    error sum is below ``tol``, and is stuck once its error on cells at the
    width floor, which are never split again, reaches ``tol``.  Cells are
    ranked by the largest error of the components neither converged nor stuck.
    Each round cuts the cells ranked above the per-cell target ``tol / (2 n)``
    into 2 equal pieces, into 4 above ``_CUT_FACTOR`` targets and into 8 above
    its square, since each round costs more than its cells; a cell whose 4 or
    8 pieces would be narrower than the width floor is bisected.
    """
    t0, t1 = r.domain
    eps = np.finfo(float).eps
    pts = sorted({t0, t1} | {float(k) for k in knots if t0 < float(k) < t1})

    # seed each initial gap so oscillation between knots cannot hide
    per_gap = max(2, int(np.ceil(_MIN_CELLS / max(1, len(pts) - 1))))
    edges = [np.linspace(pts[i], pts[i + 1], per_gap + 1) for i in range(len(pts) - 1)]
    a, b = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    # one row each: the cells' left ends, right ends, and r's base at both
    cells = np.stack([a, b, r.base_values(a), r.base_values(b)])

    def levels(cells):
        """Midpoint sums over 1, 2 and 4 subcells, then Romberg columns.

        Cells whose level ratio matches the smooth expansion (ratio near 4)
        take the doubly extrapolated value with the extrapolant difference as
        error; cells that do not (cusps of the integrand or integrator) fall
        back to the finest sum with a geometric-tail bound, which stays
        conservative for Hoelder exponents down to about 0.17.
        """
        a, b, ra, rb = cells
        # eighths of each cell: mid, quarter, three-quarter, then the odd ones
        tags = a + (0.125 * (b - a)) * np.array([4.0, 2.0, 6.0, 1.0, 3.0, 5.0, 7.0])[:, None]
        r_mid, r_q1, r_q3 = r.base_values(tags[:3].ravel()).reshape(3, -1)
        ut = _on_times(u(tags.ravel()), tags.size)
        u_mid, u_q1, u_q3, u_1, u_3, u_5, u_7 = np.moveaxis(ut.reshape(ut.shape[:-1] + tags.shape), -2, 0)
        m1 = u_mid * (rb - ra)
        m2 = u_q1 * (r_mid - ra) + u_q3 * (rb - r_mid)
        m4 = u_1 * (r_q1 - ra) + u_3 * (r_mid - r_q1) + u_5 * (r_q3 - r_mid) + u_7 * (rb - r_q3)
        d1, d2 = m2 - m1, m4 - m2
        r2, r4 = m2 + d1 / 3.0, m4 + d2 / 3.0
        noise = 8.0 * eps * (np.abs(m1) + np.abs(m2) + np.abs(m4))
        ratio = np.divide(d1, d2, out=np.full_like(d1, 4.0), where=np.abs(d2) > noise)
        smooth = (np.abs(d2) <= noise) | ((ratio > 2.5) & (ratio < 8.0))
        value = np.where(smooth, r4 + (r4 - r2) / 15.0, m4)
        err = np.where(smooth, np.abs(r4 - r2), 8.0 * np.abs(d2))
        err[err <= noise] = 0.0
        return value, err

    value, err = levels(cells)
    added = rounds = 0
    while True:
        h, floor = cells[1] - cells[0], _WIDTH_FLOOR * np.maximum(1.0, np.abs(cells[1]))
        total_err = np.sum(err, axis=-1)
        stuck = np.sum(err[..., h <= floor], axis=-1) >= tol
        still_open = np.ravel((total_err >= tol) & ~stuck)
        if added >= _MAX_REFINE or not np.any(still_open):
            break
        worst = np.max(err.reshape(-1, len(h))[still_open], axis=0)
        eligible = (h > floor) & (worst > 0.0)
        if not np.any(eligible):
            break  # floored cells keep their error on the books
        target = tol / (2.0 * len(h))
        idx = np.flatnonzero(eligible & (worst > target))
        if not len(idx):
            idx = np.array([np.argmax(np.where(eligible, worst, -1.0))])
        over = worst[idx] / target
        pieces = np.minimum(2 << ((over > _CUT_FACTOR).astype(int) + (over > _CUT_FACTOR**2)), _MAX_PIECES)
        pieces[h[idx] / pieces < floor[idx]] = 2
        if np.sum(pieces - 1) > _MAX_REFINE - added:  # the last round bisects the worst cells it can pay for
            idx = idx[np.argsort(worst[idx])[::-1][: _MAX_REFINE - added]]
            pieces = np.full(len(idx), 2)
        added, rounds = added + int(np.sum(pieces - 1)), rounds + 1

        # piece j starts j widths into its parent and ends where piece j + 1 starts, the last where its parent ends
        par = np.repeat(idx, pieces)
        j = np.arange(len(par)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        new = cells[:, par]
        new[0] += (new[1] - new[0]) / np.repeat(pieces, pieces) * j
        inner = np.flatnonzero(j)
        new[2, inner] = r.base_values(new[0, inner])
        new[1::2, inner - 1] = new[0::2, inner]
        cval, cerr = levels(new)

        keep = np.delete(np.arange(len(h)), idx)
        cells = np.concatenate([cells[:, keep], new], axis=1)
        value = np.concatenate([value[..., keep], cval], axis=-1)
        err = np.concatenate([err[..., keep], cerr], axis=-1)

    return np.apply_along_axis(math.fsum, -1, value), total_err, total_err < tol, len(h), rounds


def _integrate(u, r: RegulatedFunction, tol, extra_knots) -> IntegralResult:
    """Atoms of r plus the adaptive integral of u against r's base, r's knots pinned."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    value, *rest = _adaptive_continuous(u, r, tol, r.pinned_points() + tuple(extra_knots))
    res = IntegralResult(value, np.broadcast_to(_atom_sum(u, r), value.shape), *rest)
    # a plain integrand has no component axis: its result is its one component
    return res if value.ndim else res.component(())


def integrate_ys(u, r: RegulatedFunction, tol: float = 1e-10, extra_knots: Sequence[float] = ()) -> IntegralResult:
    """Young-Stieltjes integral of u against r by adaptive refinement.

    ``u`` is a vectorized callable; a leading component axis in its values
    stacks integrands on one partition.  The atom terms are exact; only the
    integral against r's continuous base is refined.  A component has not
    converged when the ``_MAX_REFINE`` cells refinement may add, or cells
    refined down to the width floor, left its error estimate at or above
    ``tol``; the last estimate is still returned.  ``tol <= 0`` raises
    ``ValueError``.
    """
    return _integrate(u, r, tol, extra_knots)


def integrate_ls(u, r: RegulatedFunction, tol: float = 1e-10, extra_knots: Sequence[float] = ()) -> IntegralResult:
    """Lebesgue-Stieltjes integral of u against a bounded-variation r.

    Atoms carry mass r(s+) - r(s-) with the integrand evaluated at s, which
    is ``integrate_ys``'s atom sum; the continuous part, refinement, flags
    and the ``tol`` check are ``integrate_ys``'s too.
    """
    return _integrate(u, r, tol, extra_knots)


@dataclass(frozen=True)
class ScalarField:
    """C^1 scalar field G(x1, x2) with vectorized partial derivatives.

    ``value``, ``d1`` and ``d2`` may each return a leading component axis,
    of the same length k for all three: k fields evaluated together.
    """

    value: Callable
    d1: Callable
    d2: Callable
    name: str = "G"


@dataclass(frozen=True)
class ChainRuleTerms:
    """Every term of the chain rule; residual = lhs - (both integrals + both jump sums).

    Jump terms are ``(s, value)`` pairs in increasing time order.
    """

    lhs: float
    int_u1: IntegralResult
    int_u2: IntegralResult
    left_jump_terms: tuple[tuple[float, float], ...]
    right_jump_terms: tuple[tuple[float, float], ...]

    @property
    def left_jump_sum(self) -> float:
        return math.fsum(v for _, v in self.left_jump_terms)

    @property
    def right_jump_sum(self) -> float:
        return math.fsum(v for _, v in self.right_jump_terms)

    @property
    def residual(self) -> float:
        rhs = (self.int_u1.value, self.int_u2.value, self.left_jump_sum, self.right_jump_sum)
        return self.lhs - math.fsum(rhs)

    @property
    def converged(self) -> bool:
        return self.int_u1.converged and self.int_u2.converged


def chain_rule(
    G: ScalarField, u1: RegulatedFunction, u2: RegulatedFunction, tol: float = 1e-9
) -> tuple[ChainRuleTerms, ...]:
    """Two-variable change-of-variables check for regulated u1 and BV u2.

    Computes G(u(T)) - G(u(0)) against the Young-Stieltjes integral of
    d1 G(u) in du1, the Lebesgue-Stieltjes integral of d2 G(u) in du2, and
    the left/right jump correction terms at each time of the union of jump
    times.  The caller asserts G's regularity on the range box; the residual
    reports how well the identity closes.

    Returns one ``ChainRuleTerms`` per component of G, whose integrals share
    one partition each; a G without a component axis is the case k = 1.
    """
    if u1.domain != u2.domain:
        raise ValueError("u1 and u2 must share a domain")
    t0, t1 = u1.domain

    def at(f, x1, x2):  # the k components of f at one point
        return np.reshape(np.asarray(f(x1, x2), dtype=float), -1)

    def integrand(f):
        return lambda ts: _on_times(f(u1.values(ts), u2.values(ts)), len(ts)).reshape(-1, len(ts))

    lhs = at(G.value, u1.values(t1), u2.values(t1)) - at(G.value, u1.values(t0), u2.values(t0))
    r1 = integrate_ys(integrand(G.d1), u1, tol=tol, extra_knots=u2.pinned_points())
    r2 = integrate_ls(integrand(G.d2), u2, tol=tol, extra_knots=u1.pinned_points())

    left_terms, right_terms = [], []
    for s in sorted({float(t) for t in u1.jump_times + u2.jump_times}):
        x1, x2 = float(u1.values(s)), float(u2.values(s))
        g_here = at(G.value, x1, x2)
        d1_here = at(G.d1, x1, x2)
        d2_here = at(G.d2, x1, x2)
        if s > t0:
            g_left = at(G.value, u1.left_values(s), u2.left_values(s))
            left_terms.append(
                (s, g_here - g_left - d1_here * u1.delta_minus_at(s) - d2_here * u2.delta_minus_at(s))
            )
        if s < t1:
            g_right = at(G.value, u1.right_values(s), u2.right_values(s))
            right_terms.append(
                (s, g_right - g_here - d1_here * u1.delta_plus_at(s) - d2_here * u2.delta_plus_at(s))
            )

    return tuple(
        ChainRuleTerms(
            lhs=float(lhs[i]),
            int_u1=r1.component(i),
            int_u2=r2.component(i),
            left_jump_terms=tuple((s, float(v[i])) for s, v in left_terms),
            right_jump_terms=tuple((s, float(v[i])) for s, v in right_terms),
        )
        for i in range(len(lhs))
    )
