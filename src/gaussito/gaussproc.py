"""Closed-form catalog of centered Gaussian process models with fixed-time
discontinuities.

Every model carries a closed-form covariance R(t, s), a bounded-variation
variance V as a RegulatedFunction, and analytically derived discontinuity
records (no one-sided variance is ever estimated from simulation: the
variance of a weak one-sided limit is invisible to pathwise sampling).  On
top of the catalog this module builds Cameron-Martin elements

    h = sum_i a_i X_{t_i},      hbar(t) = E[X_t h] = sum_i a_i R(t, t_i),

covariance regularity diagnostics (planar quadratic variation and planar
variation of R, with exact one-sided limits), and exact Gaussian path
simulation with jointly drawn jump variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .regulated import Jump, Partition, RegulatedFunction

__all__ = [
    "CameronMartinElement",
    "CatalogError",
    "DiscontinuityRecord",
    "McReport",
    "PreparedSampler",
    "ProcessSpec",
    "SimulationError",
    "SimulationResult",
    "UnsupportedModelError",
    "catalog",
    "catalog_entries",
    "cm_element",
    "cm_inner",
    "mc_estimate",
    "path_qv_mc",
    "planar_qv_sum",
    "planar_variation_sum",
    "prepare_sampler",
    "simulate_batches",
    "simulate_paths",
]

_RECORD_TOL = 1e-10
# rows per simulation batch: about 4 MB per float array on the finest grid
_BATCH_ELEMENTS = 2**19
# largest Gram matrix the fallback sampler builds: one n x n float array
_GRAM_BYTES = 2**30


class CatalogError(ValueError):
    """Unknown model id or invalid model parameters."""


class SimulationError(RuntimeError):
    """Covariance factorization failed beyond the jitter ladder."""


class UnsupportedModelError(ValueError):
    """Operation not defined for this model kind."""


@dataclass(frozen=True)
class DiscontinuityRecord:
    """Analytic data of one fixed-time discontinuity.

    ``v_left``/``v_right`` are the one-sided limits of the variance function,
    ``v_minus``/``v_plus`` the variances of the weak one-sided limits of the
    process; the latter may be strictly smaller.  ``e_xleft_dminus`` is
    E[X_{s-} (X_s - X_{s-})], the left-limit/jump correlation that feeds the
    right-continuous reduction of the jump terms.
    """

    time: float
    e_dminus_sq: float
    e_dplus_sq: float
    v_left: float
    v_right: float
    v_minus: float
    v_plus: float
    e_xleft_dminus: float


@dataclass(eq=False)
class ProcessSpec:
    """A centered Gaussian model: closed-form covariance plus jump data.

    ``jump_cov_left(ts, k)`` returns E[X_t (X_{s_k} - X_{s_k-})] vectorized
    over ts (``jump_cov_right`` the forward analogue); ``jump_gram_left`` is
    the Gram matrix of the left-jump variables (``jump_gram_right`` of the
    forward ones; left and right jump variables are uncorrelated in every
    model).  ``section_knots(t)``
    enumerates the kink locations of R(., t) so integration partitions can
    pin them.  ``sampler(grid)``, for models with an exact construction, does
    the per-grid work once and returns ``draw(n_paths, rng)``, which makes one
    ``(paths, jump_draws)`` batch on the grid; without it the Gram matrix is
    factorized.
    """

    name: str
    kind: str  # "martingale" | "rcll" | "general"
    horizon: float
    lam: float
    cov: Callable
    variance: RegulatedFunction
    records: tuple[DiscontinuityRecord, ...] = ()
    jump_cov_left: Callable = None
    jump_cov_right: Callable = None
    jump_gram_left: np.ndarray = None
    jump_gram_right: np.ndarray = None
    section_knots: Callable = None
    sampler: Callable = None
    pathwise_qv_cont: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.records)
        zeros_fn = lambda ts, _k: np.zeros_like(np.asarray(ts, dtype=float))
        if self.jump_cov_left is None:
            self.jump_cov_left = zeros_fn
        if self.jump_cov_right is None:
            self.jump_cov_right = zeros_fn
        if self.jump_gram_left is None:
            self.jump_gram_left = np.zeros((k, k))
        if self.jump_gram_right is None:
            self.jump_gram_right = np.zeros((k, k))
        if self.section_knots is None:
            self.section_knots = lambda t: (float(t),)

    # -- variance access ------------------------------------------------------

    def v(self, t: float) -> float:
        return float(self.variance.values(t))

    def record_times(self) -> tuple[float, ...]:
        return tuple(r.time for r in self.records)

    def record_index(self, t: float) -> int:
        for k, r in enumerate(self.records):
            if r.time == t:
                return k
        raise KeyError(f"no discontinuity record at t={t}")

    def e_x_dplus(self, k: int) -> float:
        """E[X_s (X_{s+} - X_s)], recovered from the record and V(s)."""
        rec = self.records[k]
        return 0.5 * (rec.v_plus - self.v(rec.time) - rec.e_dplus_sq)

    # -- consistency ----------------------------------------------------------

    def validate(self) -> None:
        T = self.horizon
        probes = list(np.linspace(0.0, T, 17))
        for rec in self.records:
            probes += [rec.time, max(0.0, rec.time - 1e-3 * T), min(T, rec.time + 1e-3 * T)]
        ts = np.array(sorted(set(probes)))
        diag = np.asarray(self.cov(ts, ts), dtype=float)
        vv = self.variance.values(ts)
        scale = max(1.0, self.lam)
        if np.max(np.abs(diag - vv)) > 1e-12 * scale:
            raise CatalogError(f"{self.name}: variance function disagrees with covariance diagonal")
        for rec in self.records:
            v_l, v_here, v_r = self.variance.one_sided(rec.time)
            checks = [
                abs(rec.v_left - v_l),
                abs(rec.v_right - v_r),
                max(0.0, rec.v_minus - rec.v_left),
                max(0.0, rec.v_plus - rec.v_right),
                # Gaussian moment identity tying the left record to V(s)
                abs(2.0 * rec.e_xleft_dminus + rec.e_dminus_sq + rec.v_minus - v_here),
            ]
            if max(checks) > _RECORD_TOL * scale:
                raise CatalogError(f"{self.name}: inconsistent discontinuity record at t={rec.time}")


# -- one-sided covariance machinery ------------------------------------------


def _one_sided_cov_matrix(spec: ProcessSpec, ta: np.ndarray, sa: int, tb: np.ndarray, sb: int) -> np.ndarray:
    """Matrix of E[X_{a oriented by sa} X_{b oriented by sb}], sa/sb in {-1, 0, +1}."""
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    M = np.array(spec.cov(ta[:, None], tb[None, :]), dtype=float, copy=True)
    if not spec.records:
        return M
    for k, rec in enumerate(spec.records):
        if sa:
            rows = np.flatnonzero(ta == rec.time)
            if rows.size:
                term = spec.jump_cov_left(tb, k) if sa < 0 else spec.jump_cov_right(tb, k)
                M[rows, :] += sa * term[None, :]
        if sb:
            cols = np.flatnonzero(tb == rec.time)
            if cols.size:
                term = spec.jump_cov_left(ta, k) if sb < 0 else spec.jump_cov_right(ta, k)
                M[:, cols] += sb * term[:, None]
    if sa and sa == sb:  # left and right jump variables are uncorrelated
        gram = spec.jump_gram_left if sa < 0 else spec.jump_gram_right
        for k, rk in enumerate(spec.records):
            rows = np.flatnonzero(ta == rk.time)
            if not rows.size:
                continue
            for l, rl in enumerate(spec.records):
                cols = np.flatnonzero(tb == rl.time)
                if cols.size:
                    M[np.ix_(rows, cols)] += gram[k, l]
    return M


def planar_qv_sum(spec: ProcessSpec, pi: Partition) -> float:
    """Double sum of squared covariances of one-sided-limit increments.

    The increments are X_{t_i-} - X_{t_{i-1}+}; vanishing of this sum under
    refinement is the covariance-level quadratic-variation regularity test.
    """
    pts = np.asarray(pi.points, dtype=float)
    tm, tp = pts[1:], pts[:-1]
    mm = _one_sided_cov_matrix(spec, tm, -1, tm, -1)
    mp = _one_sided_cov_matrix(spec, tm, -1, tp, +1)
    pp = _one_sided_cov_matrix(spec, tp, +1, tp, +1)
    incr = mm - mp - mp.T + pp
    return float(np.sum(incr**2))


def planar_variation_sum(spec: ProcessSpec, pi: Partition) -> float:
    """Double sum of absolute rectangle increments of the covariance."""
    pts = np.asarray(pi.points, dtype=float)
    M = np.asarray(spec.cov(pts[:, None], pts[None, :]), dtype=float)
    rect = M[1:, 1:] + M[:-1, :-1] - M[1:, :-1] - M[:-1, 1:]
    return float(np.sum(np.abs(rect)))


# -- Cameron-Martin elements ---------------------------------------------------


@dataclass(frozen=True)
class CameronMartinElement:
    """h = sum_i a_i X_{t_i} with its induced function hbar(t) = E[X_t h]."""

    coeffs: tuple[tuple[float, float], ...]  # (weight, time)
    hbar: RegulatedFunction
    norm_sq: float
    label: str = "h"

    @property
    def weights(self) -> np.ndarray:
        return np.array([c[0] for c in self.coeffs], dtype=float)

    @property
    def times(self) -> np.ndarray:
        return np.array([c[1] for c in self.coeffs], dtype=float)


def cm_element(spec: ProcessSpec, coeffs: Sequence[tuple[float, float]], label: str = "h") -> CameronMartinElement:
    """Materialize hbar as a RegulatedFunction and compute E[h^2] from the Gram matrix."""
    T = spec.horizon
    pairs = tuple((float(a), float(t)) for a, t in coeffs)
    for _, t in pairs:
        if t < 0.0 or t > T:
            raise ValueError(f"support time {t} outside [0, {T}]")
    ws = np.array([a for a, _ in pairs], dtype=float)
    ts = np.array([t for _, t in pairs], dtype=float)

    if len(pairs) == 0:
        hbar = RegulatedFunction(lambda arr: np.zeros_like(np.asarray(arr, dtype=float)), (), (0.0, T))
        return CameronMartinElement(coeffs=pairs, hbar=hbar, norm_sq=0.0, label=label)

    def exact(arr):
        return np.asarray(spec.cov(np.asarray(arr, dtype=float)[:, None], ts[None, :]), dtype=float) @ ws

    jumps = []
    for k, rec in enumerate(spec.records):
        dm = float(np.asarray(spec.jump_cov_left(ts, k), dtype=float) @ ws)
        dp = float(np.asarray(spec.jump_cov_right(ts, k), dtype=float) @ ws)
        if dm or dp:
            jumps.append(Jump(rec.time, dm, dp))

    knots: set[float] = set()
    for t in ts:
        knots.update(spec.section_knots(float(t)))

    hbar = RegulatedFunction.from_exact(exact, jumps, (0.0, T), breakpoints=sorted(knots))
    gram = np.asarray(spec.cov(ts[:, None], ts[None, :]), dtype=float)
    norm_sq = max(0.0, float(ws @ gram @ ws))
    return CameronMartinElement(coeffs=pairs, hbar=hbar, norm_sq=norm_sq, label=label)


def cm_inner(spec: ProcessSpec, g: CameronMartinElement, h: CameronMartinElement) -> float:
    """E[g h] from the closed-form covariance."""
    if len(g.coeffs) == 0 or len(h.coeffs) == 0:
        return 0.0
    M = np.asarray(spec.cov(g.times[:, None], h.times[None, :]), dtype=float)
    return float(g.weights @ M @ h.weights)


# -- simulation ----------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    times: np.ndarray
    paths: np.ndarray  # (n_paths, n_times)
    jump_draws: np.ndarray  # (n_paths, n_records): the left-jump variables


@dataclass(frozen=True)
class McReport:
    """One Monte Carlo check: sample mean and its standard error against the exact value."""

    estimate: float
    standard_error: float
    reference: float
    n_paths: int
    seed: int
    label: str = ""

    @property
    def z_score(self) -> float:
        """(estimate - reference) / standard_error; 0 for a zero-spread sample."""
        se = self.standard_error
        return (self.estimate - self.reference) / se if se > 0 else 0.0

    def within(self, z_max: float) -> bool:
        """|estimate - reference| <= z_max * standard_error.

        A zero-spread sample passes only when it hits its reference exactly;
        NaN anywhere fails.
        """
        return abs(self.estimate - self.reference) <= z_max * self.standard_error


def _chol_with_jitter(G: np.ndarray, scale: float) -> np.ndarray:
    # each rung adds its jitter to G's diagonal in place; the diagonal is restored after
    diag = np.diag(G).copy()
    eps = 1e-12 * max(scale, 1.0)
    for _ in range(5):
        np.fill_diagonal(G, diag + eps)
        try:
            return np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            eps *= 10.0
        finally:
            np.fill_diagonal(G, diag)
    raise SimulationError("covariance factorization failed after jitter escalation")


def _gram_sampler(spec: ProcessSpec, grid: np.ndarray):
    """Draws of X from its factorized Gram matrix; the left-jump variables are zero."""
    n, K = len(grid), len(spec.records)
    if np.any(spec.jump_gram_left):
        raise UnsupportedModelError(f"{spec.name}: left-jump variables need the model's own sampler")
    if n * n * 8 > _GRAM_BYTES:
        raise UnsupportedModelError(f"{spec.name}: a {n}-point Gram matrix exceeds the Gram limit of {_GRAM_BYTES >> 30} GiB")
    G = np.asarray(spec.cov(grid[:, None], grid[None, :]), dtype=float)
    # a zero-variance coordinate is almost surely zero; do not let the
    # factorization jitter leak into it
    zero = np.diag(G) == 0.0
    L = _chol_with_jitter(G, spec.lam)

    def draw(n_paths: int, rng: np.random.Generator):
        Y = rng.standard_normal((n_paths, n)) @ L.T
        Y[:, zero] = 0.0
        return Y, np.zeros((n_paths, K))

    return draw


def _increment_sd(grid: np.ndarray) -> np.ndarray:
    """Standard deviations of the Brownian increments ending at each grid time, from 0."""
    return np.sqrt(np.diff(np.concatenate([[0.0], grid])))


def _brownian_increments(sd: np.ndarray, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n_paths, len(sd)))
    z *= sd
    return np.cumsum(z, axis=1, out=z)


@dataclass(frozen=True)
class PreparedSampler:
    """A model's sampler on one grid, its per-grid work done: ``draw(n_paths, rng)`` makes one batch."""

    spec: ProcessSpec
    times: np.ndarray
    draw: Callable


def prepare_sampler(spec: ProcessSpec, grid) -> PreparedSampler:
    """Do the per-grid work of ``simulate_paths`` once: the joined grid and
    columns of an exact construction, or the factorized Gram matrix, with an
    escalating diagonal jitter."""
    pts = np.asarray(grid.points if isinstance(grid, Partition) else grid, dtype=float)
    if not pts.size or np.any(np.diff(pts) <= 0):
        raise ValueError("grid must hold at least one time, strictly increasing")
    prepare = spec.sampler if spec.sampler is not None else partial(_gram_sampler, spec)
    return PreparedSampler(spec, pts, prepare(pts))


def simulate_paths(spec: ProcessSpec, grid, n_paths: int, seed: int | np.random.SeedSequence) -> SimulationResult:
    """Exact Gaussian draws of X on the grid; jump variables drawn jointly.

    Deterministic given the seed (an integer or a ``SeedSequence``).  ``grid``
    is a ``Partition``, an array of times, or a ``prepare_sampler`` result for
    ``spec``, whose per-grid work is then reused.
    """
    if n_paths < 0:
        raise ValueError("n_paths must be >= 0")
    sampler = grid if isinstance(grid, PreparedSampler) else prepare_sampler(spec, grid)
    if sampler.spec is not spec:
        raise ValueError("prepared sampler belongs to another model")
    paths, draws = sampler.draw(int(n_paths), np.random.default_rng(seed))
    return SimulationResult(times=sampler.times, paths=paths, jump_draws=draws)


def simulate_batches(spec: ProcessSpec, grid, n_paths: int, seed: int) -> Iterator[SimulationResult]:
    """``n_paths`` draws on ``grid`` as ``simulate_paths`` batches of about 4 MB per array.

    The sampler is prepared once; batch b is seeded from
    ``SeedSequence(seed).spawn(n_batches)[b]``, so the draws depend only on
    (spec, grid, n_paths, seed) and memory is bounded by the batch whatever
    ``n_paths``.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    sampler = prepare_sampler(spec, grid)
    rows = max(1, _BATCH_ELEMENTS // len(sampler.times))
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(-(-n_paths // rows))):
        yield simulate_paths(spec, sampler, min(rows, n_paths - b * rows), stream)


def _moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, sum of squared deviations from the mean) of each row of a sample."""
    mean = np.mean(values, axis=-1, keepdims=True)
    return values.shape[-1], mean[..., 0], np.sum((values - mean) ** 2, axis=-1)


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """Chan-Golub-LeVeque merge of two (count, mean, M2) triples, row by row."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    if na == 0:
        return b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def mc_estimate(spec: ProcessSpec, grid, sample, reference: float, n_paths: int, seed, label: str = "") -> McReport:
    """Sample mean and standard error of ``sample(sim)`` against its closed form.

    ``sample`` maps one ``simulate_batches`` batch on ``grid`` to one value
    per path; ``reference`` is the exact expectation.  The moments are merged
    batch by batch, so memory is bounded by the batch whatever ``n_paths``.
    """
    acc = (0, 0.0, 0.0)
    for sim in simulate_batches(spec, grid, n_paths, seed):
        acc = _merge_moments(acc, _moments(sample(sim)))
    _, mean, m2 = acc
    return McReport(float(mean), math.sqrt(m2 / (n_paths - 1)) / math.sqrt(n_paths), reference, n_paths, seed, label)


def path_qv_mc(spec: ProcessSpec, grid, n_paths: int, seed: int) -> McReport:
    """Monte Carlo mean of the pathwise quadratic sum against its expected limit.

    The reference is the continuous quadratic variation plus the summed
    mean-square jumps; only models whose paths have a deterministic continuous
    quadratic variation support this check.
    """
    if spec.pathwise_qv_cont is None or spec.kind not in ("martingale", "rcll"):
        raise UnsupportedModelError(f"{spec.name}: pathwise quadratic variation reference unavailable")

    def quadratic_sum(sim):
        d = np.diff(sim.paths, axis=1)
        return np.sum(np.square(d, out=d), axis=1)

    reference = spec.pathwise_qv_cont + math.fsum(r.e_dminus_sq for r in spec.records)
    return mc_estimate(spec, grid, quadratic_sum, reference, n_paths, seed, "path_qv")


# -- catalog -------------------------------------------------------------------


def _brownian_spec(horizon: float = 1.0) -> ProcessSpec:
    T = float(horizon)
    if T <= 0:
        raise CatalogError("horizon must be positive")

    def sampler(grid):
        sd = _increment_sd(grid)
        return lambda n_paths, rng: (_brownian_increments(sd, n_paths, rng), np.zeros((n_paths, 0)))

    return ProcessSpec(
        name="brownian",
        kind="martingale",
        horizon=T,
        lam=T,
        cov=lambda t, s: np.minimum(t, s),
        variance=RegulatedFunction(lambda ts: np.asarray(ts, dtype=float), (), (0.0, T)),
        sampler=sampler,
        pathwise_qv_cont=T,
        params={"horizon": T},
    )


def _fbm_spec(hurst: float, horizon: float = 1.0) -> ProcessSpec:
    T = float(horizon)
    H = float(hurst)
    if not 0.0 < H < 1.0:
        raise CatalogError("hurst must lie in (0, 1)")
    if T <= 0:
        raise CatalogError("horizon must be positive")
    two_h = 2.0 * H

    def cov(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        return 0.5 * (t**two_h + s**two_h - np.abs(t - s) ** two_h)

    return ProcessSpec(
        name="fbm",
        kind="rcll",
        horizon=T,
        lam=T**two_h,
        cov=cov,
        variance=RegulatedFunction(lambda ts: np.asarray(ts, dtype=float) ** two_h, (), (0.0, T)),
        pathwise_qv_cont=T if H == 0.5 else None,
        params={"hurst": H, "horizon": T},
    )


def _jump_bm_spec(jumps: Sequence[tuple[float, float]], horizon: float = 1.0) -> ProcessSpec:
    T = float(horizon)
    if T <= 0:
        raise CatalogError("horizon must be positive")
    pairs = [(float(s), float(v)) for s, v in jumps]
    if not pairs:
        raise CatalogError("jump_bm needs at least one jump")
    times = [s for s, _ in pairs]
    if sorted(set(times)) != times:
        raise CatalogError("jump times must be strictly increasing")
    if any(not 0.0 < s < T for s in times):
        raise CatalogError("jump times must be interior")
    if any(v <= 0.0 for _, v in pairs):
        raise CatalogError("jump variances must be positive")
    s_arr = np.array(times)
    v_arr = np.array([v for _, v in pairs])

    def cov(t, s):
        m = np.minimum(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        out = np.array(m, dtype=float, copy=True)
        for sk, vk in pairs:
            out += vk * (m >= sk)
        return out

    def v_exact(ts):
        ts = np.asarray(ts, dtype=float)
        out = np.array(ts, dtype=float, copy=True)
        for sk, vk in pairs:
            out += vk * (ts >= sk)
        return out

    variance = RegulatedFunction.from_exact(v_exact, [Jump(sk, vk, 0.0) for sk, vk in pairs], (0.0, T))

    before = np.concatenate([[0.0], np.cumsum(v_arr)])[:-1]
    records = tuple(
        DiscontinuityRecord(
            time=sk,
            e_dminus_sq=vk,
            e_dplus_sq=0.0,
            v_left=sk + float(before[k]),
            v_right=sk + float(before[k]) + vk,
            v_minus=sk + float(before[k]),
            v_plus=sk + float(before[k]) + vk,
            e_xleft_dminus=0.0,
        )
        for k, (sk, vk) in enumerate(pairs)
    )

    def jump_cov_left(ts, k):
        return v_arr[k] * (np.asarray(ts, dtype=float) >= s_arr[k])

    def sampler(grid):
        full = np.union1d(grid, s_arr)
        sd, cols = _increment_sd(full), np.searchsorted(full, s_arr)
        pick = None if len(full) == len(grid) else np.searchsorted(full, grid)

        def draw(n_paths, rng):
            B = _brownian_increments(sd, n_paths, rng)
            xi = rng.standard_normal((n_paths, len(pairs))) * np.sqrt(v_arr)
            for k, col in enumerate(cols):
                B[:, col:] += xi[:, k : k + 1]
            return (B if pick is None else B[:, pick]), xi

        return draw

    return ProcessSpec(
        name="jump_bm",
        kind="martingale",
        horizon=T,
        lam=T + float(np.sum(v_arr)),
        cov=cov,
        variance=variance,
        records=records,
        jump_cov_left=jump_cov_left,
        jump_gram_left=np.diag(v_arr),
        sampler=sampler,
        pathwise_qv_cont=T,
        params={"jumps": [[s, v] for s, v in pairs], "horizon": T},
    )


def _coupled_jump_bm_spec(c: float, s0: float, horizon: float = 1.0) -> ProcessSpec:
    T = float(horizon)
    c = float(c)
    s0 = float(s0)
    if T <= 0 or not 0.0 < s0 < T:
        raise CatalogError("need 0 < s0 < horizon")
    if c == 0.0:
        raise CatalogError("coupling c must be nonzero")

    def cov(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        it = t >= s0
        js = s >= s0
        return np.minimum(t, s) + c * np.minimum(s, s0) * it + c * np.minimum(t, s0) * js + (c * c * s0) * (it & js)

    def v_exact(ts):
        ts = np.asarray(ts, dtype=float)
        return ts + (c * (2.0 + c) * s0) * (ts >= s0)

    variance = RegulatedFunction.from_exact(v_exact, [Jump(s0, c * (2.0 + c) * s0, 0.0)], (0.0, T))
    record = DiscontinuityRecord(
        time=s0,
        e_dminus_sq=c * c * s0,
        e_dplus_sq=0.0,
        v_left=s0,
        v_right=s0 + c * (2.0 + c) * s0,
        v_minus=s0,
        v_plus=s0 + c * (2.0 + c) * s0,
        e_xleft_dminus=c * s0,
    )

    def jump_cov_left(ts, k):
        ts = np.asarray(ts, dtype=float)
        return c * np.minimum(ts, s0) + (c * c * s0) * (ts >= s0)

    def sampler(grid):
        full = np.union1d(grid, [s0])
        sd, i0, after = _increment_sd(full), int(np.searchsorted(full, s0)), full[None, :] >= s0
        pick = None if len(full) == len(grid) else np.searchsorted(full, grid)

        def draw(n_paths, rng):
            B = _brownian_increments(sd, n_paths, rng)
            jump = c * B[:, i0]
            B += jump[:, None] * after
            return (B if pick is None else B[:, pick]), jump[:, None]

        return draw

    return ProcessSpec(
        name="coupled_jump_bm",
        kind="rcll",
        horizon=T,
        lam=T + c * (2.0 + c) * s0,
        cov=cov,
        variance=variance,
        records=(record,),
        jump_cov_left=jump_cov_left,
        jump_gram_left=np.array([[c * c * s0]]),
        section_knots=lambda t: (float(t), s0),
        sampler=sampler,
        pathwise_qv_cont=T,
        params={"c": c, "s0": s0, "horizon": T},
    )


def _evanescent_phase(ts: np.ndarray, s0: float) -> tuple[np.ndarray, np.ndarray]:
    # interval index j and local rotation angle theta for ts in [0, s0)
    x = 1.0 - ts / s0
    j = np.maximum(np.floor(-np.log2(x)), 0.0)
    a_j = s0 * (1.0 - 2.0 ** (-j))
    len_j = s0 * 2.0 ** (-(j + 1.0))
    theta = 0.5 * np.pi * (ts - a_j) / len_j
    return j, theta


def _evanescent_spec(s0: float, horizon: float = 1.0) -> ProcessSpec:
    T = float(horizon)
    s0 = float(s0)
    if T <= 0 or not 0.0 < s0 < T:
        raise CatalogError("need 0 < s0 < horizon")

    def cov(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        t, s = np.broadcast_arrays(t, s)
        inside = (t < s0) & (s < s0)
        tt = np.where(t < s0, t, 0.0)
        ss = np.where(s < s0, s, 0.0)
        jt, tht = _evanescent_phase(tt, s0)
        js, ths = _evanescent_phase(ss, s0)
        val = np.select(
            [jt == js, js == jt + 1.0, jt == js + 1.0],
            [np.cos(tht - ths), np.sin(tht) * np.cos(ths), np.cos(tht) * np.sin(ths)],
            default=0.0,
        )
        return np.where(inside, val, 0.0)

    variance = RegulatedFunction.from_exact(
        lambda ts: 1.0 * (np.asarray(ts, dtype=float) < s0), [Jump(s0, -1.0, 0.0)], (0.0, T)
    )
    record = DiscontinuityRecord(
        time=s0,
        e_dminus_sq=0.0,
        e_dplus_sq=0.0,
        v_left=1.0,
        v_right=0.0,
        v_minus=0.0,
        v_plus=0.0,
        e_xleft_dminus=0.0,
    )

    def section_knots(t):
        t = float(t)
        if not t < s0:
            return ()
        j = int(_evanescent_phase(np.asarray(t), s0)[0])
        ab = [s0 * (1.0 - 2.0 ** (-m)) for m in range(max(0, j - 1), j + 3)]
        return tuple(b for b in ab if 0.0 < b < s0) + (s0,)

    return ProcessSpec(
        name="evanescent",
        kind="general",
        horizon=T,
        lam=1.0,
        cov=cov,
        variance=variance,
        records=(record,),
        jump_gram_left=np.array([[0.0]]),
        section_knots=section_knots,
        pathwise_qv_cont=None,
        params={"s0": s0, "horizon": T},
    )


@dataclass(frozen=True)
class CatalogEntry:
    model_id: str
    params_doc: str
    description: str
    exercises: str


_CATALOG: dict[str, tuple[Callable, CatalogEntry]] = {
    "brownian": (
        _brownian_spec,
        CatalogEntry(
            "brownian",
            "horizon=1.0",
            "standard Brownian motion",
            "continuous baseline: jump sums degenerate, pathwise and deterministic checks coincide",
        ),
    ),
    "fbm": (
        _fbm_spec,
        CatalogEntry(
            "fbm",
            "hurst in (0,1), horizon=1.0",
            "fractional Brownian motion",
            "stochastically continuous non-martingale; regularity lives in the covariance sections",
        ),
    ),
    "jump_bm": (
        _jump_bm_spec,
        CatalogEntry(
            "jump_bm",
            "jumps=[[time, variance], ...] interior times, horizon=1.0",
            "Brownian motion plus independent fixed-time Gaussian jumps",
            "discontinuous martingale: Monte Carlo pathwise identity and the right-continuous reduction",
        ),
    ),
    "coupled_jump_bm": (
        _coupled_jump_bm_spec,
        CatalogEntry(
            "coupled_jump_bm",
            "c != 0, 0 < s0 < horizon, horizon=1.0",
            "Brownian motion with a level-coupled jump at s0",
            "non-martingale right-continuous case: the left-limit/jump correlation term is active",
        ),
    ),
    "evanescent": (
        _evanescent_spec,
        CatalogEntry(
            "evanescent",
            "0 < s0 < horizon, horizon=1.0",
            "rotating-coordinate construction that fades weakly to 0 at s0",
            "weak one-sided limit with variance drop (V-(s0)=0 < V(s0-)=1): jump terms beyond the right-continuous form",
        ),
    ),
}


def catalog(model_id: str, **params) -> ProcessSpec:
    """Instantiate a catalog model and validate its analytic record data."""
    if model_id not in _CATALOG:
        raise CatalogError(f"unknown model id {model_id!r}; known: {sorted(_CATALOG)}")
    builder, _ = _CATALOG[model_id]
    try:
        spec = builder(**params)
    except TypeError as exc:
        raise CatalogError(f"bad parameters for {model_id!r}: {exc}") from exc
    spec.validate()
    return spec


def catalog_entries() -> list[CatalogEntry]:
    return [entry for _, entry in _CATALOG.values()]
