"""Stieltjes-type integration against regulated integrators.

Three engines share one adaptive core:

* ``hk_riemann_sum`` / ``young_stieltjes_sum`` evaluate single tagged sums.
  Young-Stieltjes sums carry explicit one-sided jump terms,

      S_YS = sum_i u(s_{i-1}) d+r(s_{i-1}) + u(y_i)(r(s_i-) - r(s_{i-1}+))
                                           + u(s_i) d-r(s_i),

  with strictly interior tags y_i.
* ``integrate_ys`` drives Young-Stieltjes sums through adaptive bisection
  (jump times and declared kinks always pinned) with a per-cell two-level
  Richardson estimate.  Convergence in this refinement mode is the
  computational stand-in for gauge-based integration.
* ``integrate_ls`` integrates against a bounded-variation integrator as a
  measure: adaptive quadrature against the continuous base plus atom terms
  u(s) * (r(s+) - r(s-)).

The chain rule for G(u1, u2) with u1 regulated (finite quadratic jump part)
and u2 of bounded variation combines both engines with the left/right jump
correction sums; its residual should vanish to tolerance.  It is the one
engine of the change-of-variables identity: the Gaussian Ito forms in
``itoverify`` are adapters over its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .regulated import _WIDTH_FLOOR, RegulatedFunction

__all__ = [
    "ChainRuleTerms",
    "IntegralResult",
    "ScalarField",
    "TaggedCell",
    "UnsupportedIntegratorError",
    "chain_rule",
    "hk_riemann_sum",
    "integrate_ls",
    "integrate_ys",
    "tagged_partition",
    "young_stieltjes_sum",
]

# at least this many cells in the initial partition, spread over the knot gaps
_MIN_CELLS = 16


class UnsupportedIntegratorError(ValueError):
    """The integrator's base is not declared of bounded variation."""


@dataclass(frozen=True)
class TaggedCell:
    left: float
    right: float
    tag: float

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError("degenerate cell")
        if not (self.left <= self.tag <= self.right):
            raise ValueError("tag outside closed cell")


def tagged_partition(points: Sequence[float], tags: str | Sequence[float] = "midpoint") -> tuple[TaggedCell, ...]:
    """Build a tagged partition over consecutive points; tags "midpoint"/"left"/"right" or explicit."""
    pts = [float(p) for p in points]
    cells = []
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        if isinstance(tags, str):
            y = {"midpoint": 0.5 * (a + b), "left": a, "right": b}[tags]
        else:
            y = float(tags[i])
        cells.append(TaggedCell(a, b, y))
    return tuple(cells)


def _as_vector_fn(u) -> Callable[[np.ndarray], np.ndarray]:
    def call(ts: np.ndarray) -> np.ndarray:
        out = np.asarray(u(ts), dtype=float)
        if out.shape != ts.shape:
            out = np.broadcast_to(out, ts.shape).copy()
        return out

    return call


def hk_riemann_sum(u, r, cells: Sequence[TaggedCell]) -> float:
    """Riemann sum sum_i u(y_i) (r(s_i) - r(s_{i-1})) with closed-interval tags."""
    rv = r.values if isinstance(r, RegulatedFunction) else r
    return math.fsum(float(u(np.asarray(c.tag))) * (float(rv(c.right)) - float(rv(c.left))) for c in cells)


def young_stieltjes_sum(u, r: RegulatedFunction, cells: Sequence[TaggedCell]) -> float:
    """Young-Stieltjes sum with strictly interior tags and one-sided jump terms."""
    t0, t1 = r.domain
    if not cells or cells[0].left != t0 or cells[-1].right != t1:
        raise ValueError("cells must cover the integrator's domain")
    for c, nxt in zip(cells, cells[1:]):
        if c.right != nxt.left:
            raise ValueError("cells must be contiguous")
    for c in cells:
        if not (c.left < c.tag < c.right):
            raise ValueError("Young tags must be strictly interior")
    terms = []
    for c in cells:
        if c.left < t1:
            terms.append(float(u(np.asarray(c.left))) * r.delta_plus_at(c.left))
        terms.append(float(u(np.asarray(c.tag))) * (float(r.left_values(c.right)) - float(r.right_values(c.left))))
        if c.right > t0:
            terms.append(float(u(np.asarray(c.right))) * r.delta_minus_at(c.right))
    return math.fsum(terms)


@dataclass(frozen=True)
class IntegralResult:
    """Adaptively refined continuous part beside the exact atom sum."""

    continuous: float
    atoms: float
    error_estimate: float
    converged: bool
    n_cells: int

    @property
    def value(self) -> float:
        return self.continuous + self.atoms


def _atom_sum(u, r: RegulatedFunction) -> float:
    t0, t1 = r.domain
    if not r.jump_times:
        return 0.0
    jt = np.asarray(r.jump_times)
    uj = _as_vector_fn(u)(jt)
    terms = []
    for k, s in enumerate(jt):
        if s > t0:
            terms.append(uj[k] * r.delta_minus_at(s))
        if s < t1:
            terms.append(uj[k] * r.delta_plus_at(s))
    return math.fsum(terms)


def _adaptive_continuous(
    u,
    r: RegulatedFunction,
    tol: float,
    max_refine: int,
    knots: Sequence[float],
) -> tuple[float, float, bool, int]:
    """Adaptive midpoint-Stieltjes value of the continuous part of int u dr.

    Per cell, midpoint sums at three dyadic levels are extrapolated twice
    (cell-local Romberg); the difference of the two extrapolants drives
    refinement and, clamped at roundoff scale, forms the error estimate.
    Assumes every jump time of r appears in ``knots`` (callers guarantee it),
    so all interior evaluation points are continuity points of r.
    """
    t0, t1 = r.domain
    uf = _as_vector_fn(u)
    eps = np.finfo(float).eps
    pts = sorted({t0, t1} | {float(k) for k in knots if t0 < float(k) < t1})

    # seed each initial gap so oscillation between knots cannot hide
    per_gap = max(2, int(np.ceil(_MIN_CELLS / max(1, len(pts) - 1))))
    a_list, b_list = [], []
    for i in range(len(pts) - 1):
        edges = np.linspace(pts[i], pts[i + 1], per_gap + 1)
        a_list.append(edges[:-1])
        b_list.append(edges[1:])
    a = np.concatenate(a_list)
    b = np.concatenate(b_list)
    ra = r.right_values(a)
    rb = r.left_values(b)

    def levels(a, b, ra, rb):
        """Midpoint sums over 1, 2 and 4 subcells, then Romberg columns.

        Cells whose level ratio matches the smooth expansion (ratio near 4)
        take the doubly extrapolated value with the extrapolant difference as
        error; cells that do not (cusps of the integrand or integrator) fall
        back to the finest sum with a geometric-tail bound, which stays
        conservative for Hoelder exponents down to about 0.17.
        """
        h = b - a
        cuts = np.stack([a + 0.125 * h * k for k in (2, 4, 6)])  # quarter, mid, three-quarter
        r_cuts = r.values(cuts.ravel()).reshape(cuts.shape)
        tags = np.stack([a + 0.125 * h * k for k in (4, 2, 6, 1, 3, 5, 7)])
        ut = uf(tags.ravel()).reshape(tags.shape)
        m1 = ut[0] * (rb - ra)
        m2 = ut[1] * (r_cuts[1] - ra) + ut[2] * (rb - r_cuts[1])
        m4 = (
            ut[3] * (r_cuts[0] - ra)
            + ut[4] * (r_cuts[1] - r_cuts[0])
            + ut[5] * (r_cuts[2] - r_cuts[1])
            + ut[6] * (rb - r_cuts[2])
        )
        d1 = m2 - m1
        d2 = m4 - m2
        r2 = m2 + d1 / 3.0
        r4 = m4 + d2 / 3.0
        noise = 8.0 * eps * (np.abs(m1) + np.abs(m2) + np.abs(m4))
        ratio = np.divide(d1, d2, out=np.full_like(d1, 4.0), where=np.abs(d2) > noise)
        smooth = (np.abs(d2) <= noise) | ((ratio > 2.5) & (ratio < 8.0))
        value = np.where(smooth, r4 + (r4 - r2) / 15.0, m4)
        err = np.where(smooth, np.abs(r4 - r2), 8.0 * np.abs(d2))
        err[err <= noise] = 0.0
        return value, err

    value, err = levels(a, b, ra, rb)
    splits = 0
    while True:
        at_floor = (b - a) <= _WIDTH_FLOOR * np.maximum(1.0, np.abs(b))
        total_err = float(np.sum(err))
        if total_err < tol:
            converged = True
            break
        # floored cells are never split again, so once their error alone
        # reaches tol no refinement can bring the total under it
        if splits >= max_refine or float(np.sum(err[at_floor])) >= tol:
            converged = False
            break
        eligible = ~at_floor & (err > 0.0)
        if not np.any(eligible):
            converged = False  # floored cells keep their error on the books
            break
        sel = eligible & (err > tol / (2.0 * len(a)))
        if not np.any(sel):
            sel = np.zeros(len(a), dtype=bool)
            sel[int(np.argmax(np.where(eligible, err, -1.0)))] = True
        budget = max_refine - splits
        if int(np.sum(sel)) > budget:
            order = np.argsort(err[sel])[::-1]
            idx = np.flatnonzero(sel)[order[:budget]]
            sel = np.zeros(len(a), dtype=bool)
            sel[idx] = True
        splits += int(np.sum(sel))

        ka, kb = a[sel], b[sel]
        kmid = 0.5 * (ka + kb)
        rm = r.values(kmid)
        ca = np.concatenate([ka, kmid])
        cb = np.concatenate([kmid, kb])
        cra = np.concatenate([ra[sel], rm])
        crb = np.concatenate([rm, rb[sel]])
        cval, cerr = levels(ca, cb, cra, crb)

        keep = ~sel
        a = np.concatenate([a[keep], ca])
        b = np.concatenate([b[keep], cb])
        ra = np.concatenate([ra[keep], cra])
        rb = np.concatenate([rb[keep], crb])
        value = np.concatenate([value[keep], cval])
        err = np.concatenate([err[keep], cerr])

    return math.fsum(value), total_err, converged, len(a)


def _collect_knots(u, r: RegulatedFunction, extra_knots: Sequence[float]) -> list[float]:
    knots = list(r.pinned_points()) + [float(k) for k in extra_knots]
    if isinstance(u, RegulatedFunction):
        knots += list(u.pinned_points())
    return knots


def integrate_ys(
    u,
    r: RegulatedFunction,
    tol: float = 1e-10,
    max_refine: int = 40000,
    extra_knots: Sequence[float] = (),
) -> IntegralResult:
    """Young-Stieltjes integral of u against r by adaptive refinement.

    Jump times of r (and of u, when u is a RegulatedFunction) are pinned as
    partition points, so the atom terms are refinement-invariant and only the
    interior midpoint sums are refined.  ``converged`` is False when
    ``max_refine`` bisections, or cells refined down to the width floor, left
    the error estimate at or above ``tol``; the last estimate is still
    returned.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    atoms = _atom_sum(u, r)
    value, err, ok, n = _adaptive_continuous(u, r, tol, max_refine, _collect_knots(u, r, extra_knots))
    return IntegralResult(continuous=value, atoms=atoms, error_estimate=err, converged=ok, n_cells=n)


def integrate_ls(
    u,
    r: RegulatedFunction,
    tol: float = 1e-10,
    max_refine: int = 40000,
    extra_knots: Sequence[float] = (),
) -> IntegralResult:
    """Lebesgue-Stieltjes integral of u against a bounded-variation r.

    Atoms carry mass r(s+) - r(s-) with the integrand evaluated at s; the
    continuous part integrates u against the base of r.
    """
    if not r.bounded_variation:
        raise UnsupportedIntegratorError("integrator base is not of bounded variation")
    atoms = _atom_sum(u, r)
    base = r.without_jumps()
    knots = _collect_knots(u, r, extra_knots) + list(r.jump_times)
    value, err, ok, n = _adaptive_continuous(u, base, tol, max_refine, knots)
    return IntegralResult(continuous=value, atoms=atoms, error_estimate=err, converged=ok, n_cells=n)


@dataclass(frozen=True)
class ScalarField:
    """C^1 scalar field G(x1, x2) with vectorized partial derivatives."""

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
    G: ScalarField,
    u1: RegulatedFunction,
    u2: RegulatedFunction,
    tol: float = 1e-9,
    max_refine: int = 40000,
) -> ChainRuleTerms:
    """Two-variable change-of-variables check for regulated u1 and BV u2.

    Computes G(u(T)) - G(u(0)) against the Young-Stieltjes integral of
    d1 G(u) in du1, the Lebesgue-Stieltjes integral of d2 G(u) in du2, and
    the left/right jump correction terms at each time of the union of jump
    times.  The caller asserts G's regularity on the range box; the residual
    reports how well the identity closes.
    """
    if u1.domain != u2.domain:
        raise ValueError("u1 and u2 must share a domain")
    t0, t1 = u1.domain

    lhs = float(G.value(u1.values(t1), u2.values(t1)) - G.value(u1.values(t0), u2.values(t0)))

    def integrand1(ts):
        return G.d1(u1.values(ts), u2.values(ts))

    def integrand2(ts):
        return G.d2(u1.values(ts), u2.values(ts))

    r1 = integrate_ys(integrand1, u1, tol=tol, max_refine=max_refine, extra_knots=u2.pinned_points())
    r2 = integrate_ls(integrand2, u2, tol=tol, max_refine=max_refine, extra_knots=u1.pinned_points())

    left_terms, right_terms = [], []
    for s in sorted({float(t) for t in u1.jump_times + u2.jump_times}):
        x1, x2 = float(u1.values(s)), float(u2.values(s))
        g_here = float(G.value(x1, x2))
        d1_here = float(G.d1(x1, x2))
        d2_here = float(G.d2(x1, x2))
        if s > t0:
            g_left = float(G.value(u1.left_values(s), u2.left_values(s)))
            left_terms.append(
                (s, g_here - g_left - d1_here * u1.delta_minus_at(s) - d2_here * u2.delta_minus_at(s))
            )
        if s < t1:
            g_right = float(G.value(u1.right_values(s), u2.right_values(s)))
            right_terms.append(
                (s, g_right - g_here - d1_here * u1.delta_plus_at(s) - d2_here * u2.delta_plus_at(s))
            )

    return ChainRuleTerms(
        lhs=lhs,
        int_u1=r1,
        int_u2=r2,
        left_jump_terms=tuple(left_terms),
        right_jump_terms=tuple(right_terms),
    )
