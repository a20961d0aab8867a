"""Closed-form catalog of centered Gaussian process models with fixed-time
discontinuities.

Every model carries a closed-form covariance R(t, s), a bounded-variation
variance V as a RegulatedFunction, and analytically derived discontinuity
records (no one-sided variance is ever estimated from simulation: the
variance of a weak one-sided limit is invisible to pathwise sampling).  On
top of the catalog this module builds Cameron-Martin elements

    h = sum_i a_i X_{t_i},      hbar(t) = E[X_t h] = sum_i a_i R(t, t_i),

the planar quadratic variation of R with exact one-sided limits (a covariance
regularity diagnostic), and exact Gaussian path simulation with jointly drawn
jump variables.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .regulated import Jump, RegulatedFunction

__all__ = [
    "CameronMartinElement",
    "CatalogError",
    "DiscontinuityRecord",
    "McReport",
    "Pairing",
    "PreparedSampler",
    "ProcessSpec",
    "SimulationError",
    "SimulationResult",
    "UnsupportedModelError",
    "catalog",
    "catalog_entries",
    "cm_element",
    "cm_inner",
    "mc_s_transform",
    "path_qv_mc",
    "path_qv_pairing",
    "planar_qv_sum",
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
    """Operation not defined for this model: not right-continuous, too rough for the pathwise check, or beyond its sampler."""


@dataclass(frozen=True)
class DiscontinuityRecord:
    """What the variance V cannot tell of one fixed-time discontinuity.

    ``e_dminus_sq``/``e_dplus_sq`` are the mean-square left and right jumps,
    ``e_xleft_dminus`` is E[X_{s-} (X_s - X_{s-})], the left-limit/jump
    correlation that feeds the right-continuous reduction of the jump terms.
    The weak left limit of the process has variance V(s-) - ``lost_minus``:
    a weak limit may lose variance against V's limit, never gain it.
    """

    time: float
    e_dminus_sq: float
    e_dplus_sq: float = 0.0
    e_xleft_dminus: float = 0.0
    lost_minus: float = 0.0


def _no_jump_cov(ts, _k):
    return np.zeros_like(np.asarray(ts, dtype=float))


def _point_knots(t):
    return (float(t),)


@dataclass(eq=False)
class ProcessSpec:
    """A centered Gaussian model: its covariance, its variance V and one ``DiscontinuityRecord`` per discontinuity time.

    ``jump_cov_left(ts, k)`` returns E[X_t (X_{s_k} - X_{s_k-})] vectorized over ts (``jump_cov_right`` the forward
    analogue).  Jump variables at distinct times, and the left and right ones at one time, are uncorrelated, so their
    Gram matrices are the diagonals of the records' ``e_dminus_sq`` and ``e_dplus_sq``.  ``section_knots(t)`` enumerates
    the kink locations of R(., t) so integration partitions can pin them.  ``sampler(grid)``, the exact Brownian-jump
    construction of ``_bm_plus_jumps``, does the per-grid work once and returns ``draw(n_paths, rng, buffer)``, which
    makes one ``SimulationResult`` batch on the grid, in ``buffer``'s arrays; without it the Gram matrix is factorized.
    """

    name: str
    horizon: float
    cov: Callable
    variance: RegulatedFunction
    records: tuple[DiscontinuityRecord, ...] = ()
    jump_cov_left: Callable = _no_jump_cov
    jump_cov_right: Callable = _no_jump_cov
    section_knots: Callable = _point_knots
    sampler: Callable = None

    def record_times(self) -> tuple[float, ...]:
        return tuple(r.time for r in self.records)

    @cached_property
    def lam(self) -> float:
        """sup of V: its value at the horizon and its one-sided values at each
        jump, exact for a non-decreasing base (``validate`` checks the probes)."""
        V = self.variance
        return max([float(V.values(self.horizon)), *(v for s in V.jump_times for v in V.one_sided(s))])

    @property
    def rcll(self) -> bool:
        """True when the jump terms reduce to the right-continuous form: no weak
        limit loses variance and there is no forward jump of X or of V."""
        return not any(r.lost_minus or r.e_dplus_sq or self.variance.delta_plus_at(r.time) for r in self.records)

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
        if np.max(vv) > self.lam + 1e-12 * scale:
            raise CatalogError(f"{self.name}: variance function exceeds its derived sup lam={self.lam:g}")
        for rec in self.records:
            v_l, v_here, _ = self.variance.one_sided(rec.time)
            checks = [
                -rec.lost_minus,
                # Gaussian moment identity tying the left record to V(s)
                abs(2.0 * rec.e_xleft_dminus + rec.e_dminus_sq + (v_l - rec.lost_minus) - v_here),
            ]
            if max(checks) > _RECORD_TOL * scale:
                raise CatalogError(f"{self.name}: inconsistent discontinuity record at t={rec.time}")


# -- one-sided covariance machinery ------------------------------------------


def _one_sided_cov_matrix(spec: ProcessSpec, ta: np.ndarray, sa: int, tb: np.ndarray, sb: int) -> np.ndarray:
    """Matrix of E[X_{a oriented by sa} X_{b oriented by sb}], sa/sb in {-1, 0, +1}."""
    ta, tb = np.asarray(ta, dtype=float), np.asarray(tb, dtype=float)
    M = np.array(spec.cov(ta[:, None], tb[None, :]), dtype=float, copy=True)
    for k, rec in enumerate(spec.records):
        rows = np.flatnonzero(ta == rec.time) if sa else ()
        cols = np.flatnonzero(tb == rec.time) if sb else ()
        if len(rows):
            term = spec.jump_cov_left(tb, k) if sa < 0 else spec.jump_cov_right(tb, k)
            M[rows, :] += sa * term[None, :]
        if len(cols):
            term = spec.jump_cov_left(ta, k) if sb < 0 else spec.jump_cov_right(ta, k)
            M[:, cols] += sb * term[:, None]
        if sa == sb and len(rows) and len(cols):  # the jump variable's own variance
            M[np.ix_(rows, cols)] += rec.e_dminus_sq if sa < 0 else rec.e_dplus_sq
    return M


def _grid_times(grid) -> np.ndarray:
    """A time grid as a float array, checked to be 1-D, non-empty and strictly increasing."""
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or not pts.size or not np.all(np.diff(pts) > 0):
        raise ValueError("grid must be a 1-D array of at least one time, strictly increasing")
    return pts


def _spanning_grid(spec: ProcessSpec, grid) -> np.ndarray:
    """``_grid_times(grid)``, checked to run from 0 to the horizon."""
    pts = _grid_times(grid)
    if pts[0] != 0.0 or pts[-1] != spec.horizon:
        raise ValueError("grid must span [0, horizon]")
    return pts


def planar_qv_sum(spec: ProcessSpec, grid) -> float:
    """Double sum of squared covariances of one-sided-limit increments.

    The increments are X_{t_i-} - X_{t_{i-1}+}; vanishing of this sum under
    refinement is the covariance-level quadratic-variation regularity test.
    """
    pts = _grid_times(grid)
    tm, tp = pts[1:], pts[:-1]
    mm = _one_sided_cov_matrix(spec, tm, -1, tm, -1)
    mp = _one_sided_cov_matrix(spec, tm, -1, tp, +1)
    pp = _one_sided_cov_matrix(spec, tp, +1, tp, +1)
    incr = mm - mp - mp.T + pp
    return float(np.sum(incr**2))


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

    def exact(arr):
        return np.asarray(spec.cov(np.asarray(arr, dtype=float)[:, None], ts[None, :]), dtype=float) @ ws

    jumps = []
    for k, rec in enumerate(spec.records):
        dm = float(np.asarray(spec.jump_cov_left(ts, k), dtype=float) @ ws)
        dp = float(np.asarray(spec.jump_cov_right(ts, k), dtype=float) @ ws)
        if dm or dp:
            jumps.append(Jump(rec.time, dm, dp))

    knots = {k for t in ts for k in spec.section_knots(float(t))}

    hbar = RegulatedFunction.from_exact(exact, jumps, (0.0, T), breakpoints=sorted(knots))
    gram = np.asarray(spec.cov(ts[:, None], ts[None, :]), dtype=float)
    norm_sq = max(0.0, float(ws @ gram @ ws))
    return CameronMartinElement(coeffs=pairs, hbar=hbar, norm_sq=norm_sq, label=label)


def cm_inner(spec: ProcessSpec, g: CameronMartinElement, h: CameronMartinElement) -> float:
    """E[g h] from the closed-form covariance."""
    M = np.asarray(spec.cov(g.times[:, None], h.times[None, :]), dtype=float)
    return float(g.weights @ M @ h.weights)


# -- simulation ----------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    """A batch of X on ``times`` with its left-jump variables ``jump_draws`` (n_paths, n_records), and X in two forms of
    (n_paths, n_times): ``paths``, and ``steps``, X(t_0-) and the continuous increments X(t_{i+1}-) - X(t_i), whose running
    sum plus each jump draw from its column on is ``paths``.  ``forms[name]()`` returns a form when it is first read."""

    times: np.ndarray
    jump_draws: np.ndarray
    forms: dict
    paths = cached_property(lambda self: self.forms["paths"]())
    steps = cached_property(lambda self: self.forms["steps"]())


@dataclass(frozen=True)
class McReport:
    """One Monte Carlo check: sample mean and its standard error against the exact
    value, from ``n_paths`` paths on ``grid_points`` times in ``batches`` batches."""

    estimate: float
    standard_error: float
    reference: float
    n_paths: int
    seed: int
    grid_points: int
    batches: int

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


class _Buffers(threading.local):
    """Arrays each thread keeps across the batches it runs: ``buffers(name, shape)`` is a C-ordered array of
    ``shape`` at the start of the calling thread's storage ``name``, grown to the largest shape asked of it."""

    def __init__(self):
        self.arrays = {}

    def __call__(self, name, shape) -> np.ndarray:
        size = math.prod(shape)
        if name not in self.arrays or self.arrays[name].size < size:
            self.arrays[name] = np.empty(size)
        return self.arrays[name][:size].reshape(shape)


def _check_gram_limit(spec: ProcessSpec, n: int) -> None:
    """``UnsupportedModelError`` when a draw of ``spec`` on ``n`` times needs a Gram matrix above the Gram limit."""
    if spec.sampler is None and n * n * 8 > _GRAM_BYTES:
        raise UnsupportedModelError(f"{spec.name}: a {n}-point Gram matrix exceeds the Gram limit of {_GRAM_BYTES >> 30} GiB")


def _gram_sampler(spec: ProcessSpec, grid: np.ndarray):
    """Draws of X from its factorized Gram matrix, differenced into the normals' array when steps are read; zero jumps."""
    n, K = len(grid), len(spec.records)
    if any(rec.e_dminus_sq for rec in spec.records):
        raise UnsupportedModelError(f"{spec.name}: left-jump variables need the model's own sampler")
    _check_gram_limit(spec, n)
    G = np.asarray(spec.cov(grid[:, None], grid[None, :]), dtype=float)
    # a zero-variance coordinate is almost surely zero; do not let the factorization jitter leak into it
    zero = np.diag(G) == 0.0
    L = _chol_with_jitter(G, spec.lam)

    def draw(n_paths: int, rng: np.random.Generator, buffer):
        Y = np.matmul(rng.standard_normal(out=buffer("normals", (n_paths, n))), L.T, out=buffer("paths", (n_paths, n)))
        Y[:, zero] = 0.0

        def steps():
            dY = buffer("normals", Y.shape)
            dY[:, 0] = Y[:, 0]
            np.subtract(Y[:, 1:], Y[:, :-1], out=dY[:, 1:])
            return dY

        return SimulationResult(grid, np.zeros((n_paths, K)), {"paths": lambda: Y, "steps": steps})

    return draw


@dataclass(frozen=True)
class PreparedSampler:
    """A model's sampler on one grid, its per-grid work done: ``draw(n_paths, rng, buffer)`` makes one batch."""

    spec: ProcessSpec
    times: np.ndarray
    draw: Callable


def prepare_sampler(spec: ProcessSpec, grid) -> PreparedSampler:
    """Do the per-grid work of ``simulate_paths`` once: the joined grid and columns of an exact construction, or the
    factorized Gram matrix, with an escalating diagonal jitter."""
    pts = _grid_times(grid)
    prepare = spec.sampler if spec.sampler is not None else partial(_gram_sampler, spec)
    return PreparedSampler(spec, pts, prepare(pts))


def simulate_paths(spec: ProcessSpec, grid, n_paths: int, seed: int | np.random.SeedSequence, buffer=None) -> SimulationResult:
    """Exact Gaussian draws of X on the grid; jump variables drawn jointly.

    Deterministic given the seed (an integer or a ``SeedSequence``).  ``grid`` is an array of times or a
    ``prepare_sampler`` result for ``spec``, whose per-grid work is then reused.  ``buffer``, a ``_Buffers``, lends
    arrays that the draw fills with the bits a fresh one gets, each form of X in its own when first read."""
    if n_paths < 0:
        raise ValueError("n_paths must be >= 0")
    sampler = grid if isinstance(grid, PreparedSampler) else prepare_sampler(spec, grid)
    if sampler.spec is not spec:
        raise ValueError("prepared sampler belongs to another model")
    return sampler.draw(int(n_paths), np.random.default_rng(seed), buffer or _Buffers())


def _moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, sum of squared deviations from the mean) of each row of a sample."""
    mean = np.mean(values, axis=-1, keepdims=True)
    return values.shape[-1], mean[..., 0], np.sum((values - mean) ** 2, axis=-1)


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """Chan-Golub-LeVeque merge of two (count, mean, M2) triples, row by row."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n, delta = na + nb, mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def simulate_batches(spec: ProcessSpec, grid, n_paths: int, seed: int, readers, batch_map=map) -> list[tuple[tuple, int]]:
    """Per reader ``(work, stop)``, the (count, mean, M2) triples of the per-path rows ``work(sim, buffer)`` returns for
    the ``simulate_paths`` batches of one draw of ``n_paths`` paths on ``grid``, merged in batch order, and its batch count.

    Batch b is drawn once for every reader, seeded as it runs from ``SeedSequence(seed, spawn_key=(b,))``, so the draws
    depend only on (spec, grid, n_paths, seed).  ``batch_map`` (``map``, or an ordered map over threads) runs the
    batches; each thread draws into one ``_Buffers`` set and runs the batch's live readers in turn, each reducing its
    rows before the next runs, so a reader may return a view of the set's arrays and borrow a name an earlier reader is
    done with, but none that holds a form of X ("steps", "paths", a Gram draw's "normals"): memory is one batch per
    thread, about 4 MB per array.  ``stop(moments, looks)``, if any, is asked at the ``looks`` looks, after batch 1, 2,
    4, 8, ... and the last; at its first true answer its reader keeps those moments: ``n_paths`` is a cap.  While a live
    reader can stop, the map runs one look's batches at a time, so none starts past the next look, and each reader's
    result is the one it gets drawn alone.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    sampler = prepare_sampler(spec, grid)
    rows = max(1, _BATCH_ELEMENTS // len(sampler.times))
    n_batches, buffers = -(-n_paths // rows), _Buffers()
    looks = sorted({1 << k for k in range(n_batches.bit_length())} | {n_batches})
    works, stops = zip(*readers)

    def batch(live, b):
        sim = simulate_paths(spec, sampler, min(rows, n_paths - b * rows), np.random.SeedSequence(seed, spawn_key=(b,)), buffers)
        return [_moments(works[r](sim, buffers)) for r in live]

    results, live, done = [None] * len(readers), range(len(readers)), 0
    while live and done < n_batches:
        # one look's window while a live reader can stop, else every batch left
        end = next(k for k in looks if k > done) if any(stops[r] for r in live) else n_batches
        for b, moments in zip(range(done, end), batch_map(partial(batch, live), range(done, end))):
            for r, m in zip(live, moments):
                results[r] = (m if b == 0 else _merge_moments(results[r][0], m), b + 1)
        done = end
        live = [r for r in live if not (stops[r] and stops[r](results[r][0], len(looks)))]
    return results


class Pairing(NamedTuple):
    """A per-path sample on a draw at ``times`` and the closed form ``reference`` of its mean, Wick-weighted or not."""

    reference: float
    times: np.ndarray
    sample: Callable[[SimulationResult], np.ndarray]

    def report(self, batched: tuple, seed) -> McReport:
        """The McReport of the sample from its ``simulate_batches`` moments and batch count, drawn at ``seed``."""
        (n_paths, mean, m2), batches = batched
        return McReport(float(mean), math.sqrt(m2 / (n_paths - 1)) / math.sqrt(n_paths), self.reference, n_paths, seed, len(self.times), batches)


def mc_s_transform(spec: ProcessSpec, pairing: Pairing, n_paths: int, seed: int, batch_map=map) -> McReport:
    """Sample mean and standard error of a pairing's per-path sample against its closed form: each
    ``simulate_batches`` batch on the pairing's times returns the sample, so memory is one batch whatever ``n_paths``."""
    batched = simulate_batches(spec, pairing.times, n_paths, seed, [(lambda sim, _: pairing.sample(sim), None)], batch_map)
    return pairing.report(batched[0], seed)


def _cell_weights(spec: ProcessSpec, pts: np.ndarray) -> np.ndarray:
    """dV^c_i - 2 c_i per cell of a grid holding the discontinuity times, with the Wick weight
    c_i = E[X_{t_i} (X_{t_{i+1}-} - X_{t_i})] (0 on a martingale): the mean square of X_{t_{i+1}-} - X_{t_i}."""
    a = pts[:-1]
    c = spec.cov(a, pts[1:]) - spec.cov(a, a)
    for k, j in enumerate(np.searchsorted(pts, spec.record_times()) - 1):
        c[j] -= spec.jump_cov_left(a[j], k)
    return np.diff(spec.variance.base_values(pts)) - 2.0 * c


def path_qv_pairing(spec: ProcessSpec, grid) -> Pairing:
    """The per-path quadratic sums of steps and jumps on ``grid``, which must span [0, horizon] and hold the
    discontinuity times, against their exact mean: the cells' ``_cell_weights``, the mean-square jumps and twice
    E[(X(s_k-) - X(t)) xi_k] per cell [t, s_k]."""
    if not spec.rcll:
        raise UnsupportedModelError(f"{spec.name}: pathwise quadratic variation needs a right-continuous model, without weak one-sided limits")
    pts = _spanning_grid(spec, grid)
    cols = np.searchsorted(pts, spec.record_times())
    coupling = (r.e_xleft_dminus - float(spec.jump_cov_left(pts[c - 1], k)) for k, (r, c) in enumerate(zip(spec.records, cols)))
    reference = math.fsum(_cell_weights(spec, pts)) + math.fsum(r.e_dminus_sq for r in spec.records) + 2.0 * math.fsum(coupling)

    def sample(sim):
        # a cell that ends at a jump adds xi (2 dX + xi) to its continuous increment's square dX^2
        dX, xi = sim.steps, sim.jump_draws
        return np.einsum("ij,ij->i", dX, dX) + np.einsum("ij,ij->i", xi, 2.0 * dX[:, cols] + xi)

    return Pairing(reference, pts, sample)


def path_qv_mc(spec: ProcessSpec, grid, n_paths: int, seed: int, batch_map=map) -> McReport:
    """``path_qv_pairing`` on a draw of its own: every one of the ``n_paths`` paths, a two-sided z test."""
    return mc_s_transform(spec, path_qv_pairing(spec, grid), n_paths, seed, batch_map)


# -- catalog -------------------------------------------------------------------


def _fbm_spec(hurst: float, horizon: float = 1.0) -> ProcessSpec:
    T, H = float(horizon), float(hurst)
    if not 0.0 < H < 1.0:
        raise CatalogError("hurst must lie in (0, 1)")
    if T <= 0:
        raise CatalogError("horizon must be positive")
    two_h = 2.0 * H

    def cov(t, s):
        # in place, so that an n x n evaluation holds two matrices at its peak, not three
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        out, d = np.asarray(t**two_h + s**two_h), np.asarray(t - s)
        return np.multiply(np.subtract(out, np.power(np.abs(d, out=d), two_h, out=d), out=out), 0.5, out=out)

    return ProcessSpec(
        name="fbm",
        horizon=T,
        cov=cov,
        variance=RegulatedFunction(lambda ts: np.asarray(ts, dtype=float) ** two_h, (), (0.0, T)),
    )


def _jump_bm_spec(jumps: Sequence[tuple[float, float]], horizon: float = 1.0) -> ProcessSpec:
    if not len(jumps):
        raise CatalogError("jump_bm needs at least one jump")
    # unpacking refuses a third entry: a jump_bm jump is never coupled
    return _bm_plus_jumps("jump_bm", [(s, v, 0.0) for s, v in jumps], horizon)


def _coupled_jump_bm_spec(c: float, s0: float, horizon: float = 1.0) -> ProcessSpec:
    T, c, s0 = float(horizon), float(c), float(s0)
    if T <= 0 or not 0.0 < s0 < T:
        raise CatalogError("need 0 < s0 < horizon")
    if c == 0.0:
        raise CatalogError("coupling c must be nonzero")
    return _bm_plus_jumps("coupled_jump_bm", [(s0, 0.0, c)], T)


def _steps_across_jumps():
    raise ValueError("steps need a grid that holds the discontinuity times: an increment across a jump is not continuous")


def _jump_sampler(times: np.ndarray, couplings: np.ndarray, sds: np.ndarray, grid: np.ndarray) -> Callable:
    """Exact sampler of Brownian motion B plus xi_k = couplings_k B(times_k) + sds_k Z_k from times_k on: B's steps on the
    grid joined with ``times``, then Z from the same generator; paths are summed when read, columns before a jump as drawn."""
    full = np.union1d(grid, times)
    # the standard deviation of each Brownian increment, from 0 to the first time on
    sd, cols = np.sqrt(np.diff(full, prepend=0.0)), np.searchsorted(full, times)
    pick = None if len(full) == len(grid) else np.searchsorted(full, grid)

    def draw(n_paths, rng, buffer):
        dB = rng.standard_normal(out=buffer("steps", (n_paths, len(full))))
        dB *= sd
        # B(times_k), where a jump couples to it, as the paths' running sum to its column
        left = np.cumsum(dB[:, : cols[-1] + 1], axis=1)[:, cols] if couplings.any() else np.zeros((n_paths, len(cols)))
        xi = left * couplings + rng.standard_normal((n_paths, len(cols))) * sds

        def paths():
            X = np.cumsum(dB, axis=1, out=buffer("paths", dB.shape))
            for k, col in enumerate(cols):
                X[:, col:] += xi[:, k : k + 1]
            return X if pick is None else X[:, pick]

        return SimulationResult(grid, xi, {"steps": (lambda: dB) if pick is None else _steps_across_jumps, "paths": paths})

    return draw


def _bm_plus_jumps(name: str, jumps: Sequence[tuple[float, float, float]], horizon: float = 1.0) -> ProcessSpec:
    """Brownian motion B plus xi_k = a_k B(s_k) + sqrt(v_k) Z_k from s_k on, Z_k independent standard normals.

    Every fact derives from the triples (s_k, v_k, a_k): E[xi^2] = a^2 s + v, E[X_{s-} xi] = a s, and V jumps
    by a (2 + a) s + v.  Precondition: at most one a_k is non-zero, so the jumps have no cross terms."""
    T = float(horizon)
    if T <= 0:
        raise CatalogError("horizon must be positive")
    jumps = [(float(s), float(v), float(a)) for s, v, a in jumps]
    times = [s for s, _, _ in jumps]
    if sorted(set(times)) != times:
        raise CatalogError("jump times must be strictly increasing")
    if any(not 0.0 < s < T for s in times):
        raise CatalogError("jump times must be interior")
    if any(v < 0.0 or v == a == 0.0 for _, v, a in jumps):
        raise CatalogError("jump variances must be positive")
    e_sq = [a * a * s + v for s, v, a in jumps]

    def cov(t, s):
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        m = np.minimum(t, s)
        out = np.array(m, dtype=float, copy=True)
        for (sk, _, ak), ek in zip(jumps, e_sq):
            if ak:
                out += ak * np.minimum(s, sk) * (t >= sk)
                out += ak * np.minimum(t, sk) * (s >= sk)
            out += ek * (m >= sk)
        return out

    def jump_cov_left(ts, k):
        ts, (sk, _, ak) = np.asarray(ts, dtype=float), jumps[k]
        return (ak * np.minimum(ts, sk) if ak else 0.0) + e_sq[k] * (ts >= sk)

    coupled = tuple(s for s, _, a in jumps if a)
    return ProcessSpec(
        name=name,
        horizon=T,
        cov=cov,
        variance=RegulatedFunction(lambda ts: np.array(ts, dtype=float), [Jump(s, a * (2.0 + a) * s + v) for s, v, a in jumps], (0.0, T)),
        records=tuple(DiscontinuityRecord(s, e, e_xleft_dminus=a * s) for (s, _, a), e in zip(jumps, e_sq)),
        jump_cov_left=jump_cov_left,
        section_knots=lambda t: (float(t), *coupled),
        sampler=partial(_jump_sampler, np.array(times), np.array([a for *_, a in jumps]), np.sqrt([v for _, v, _ in jumps])),
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
    T, s0 = float(horizon), float(s0)
    if T <= 0 or not 0.0 < s0 < T:
        raise CatalogError("need 0 < s0 < horizon")

    def cov(t, s):
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
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

    variance = RegulatedFunction(lambda ts: 1.0, [Jump(s0, -1.0, 0.0)], (0.0, T))

    def section_knots(t):
        t = float(t)
        if not t < s0:
            return ()
        j = int(_evanescent_phase(np.asarray(t), s0)[0])
        ab = [s0 * (1.0 - 2.0 ** (-m)) for m in range(max(0, j - 1), j + 3)]
        return tuple(b for b in ab if 0.0 < b < s0) + (s0,)

    return ProcessSpec(
        name="evanescent",
        horizon=T,
        cov=cov,
        variance=variance,
        # the weak limit at s0 is 0: it loses all of V(s0-) = 1
        records=(DiscontinuityRecord(s0, 0.0, lost_minus=1.0),),
        section_knots=section_knots,
    )


@dataclass(frozen=True)
class CatalogEntry:
    model_id: str
    build: Callable
    params_doc: str
    description: str
    exercises: str


_CATALOG = {
    entry.model_id: entry
    for entry in (
        CatalogEntry(
            "brownian",
            partial(_bm_plus_jumps, "brownian", ()),
            "horizon=1.0",
            "standard Brownian motion",
            "continuous baseline: jump sums degenerate, pathwise and deterministic checks coincide",
        ),
        CatalogEntry(
            "fbm",
            _fbm_spec,
            "hurst in (0,1), horizon=1.0",
            "fractional Brownian motion",
            "stochastically continuous non-martingale: covariance-section regularity; pathwise check for H >= 0.3",
        ),
        CatalogEntry(
            "jump_bm",
            _jump_bm_spec,
            "jumps=[[time, variance], ...] interior times, horizon=1.0",
            "Brownian motion plus independent fixed-time Gaussian jumps",
            "discontinuous martingale: pathwise check with zero Wick weights, right-continuous reduction",
        ),
        CatalogEntry(
            "coupled_jump_bm",
            _coupled_jump_bm_spec,
            "c != 0, 0 < s0 < horizon, horizon=1.0",
            "Brownian motion with a level-coupled jump at s0",
            "right-continuous non-martingale: active left-limit/jump correlation term, pathwise check",
        ),
        CatalogEntry(
            "evanescent",
            _evanescent_spec,
            "0 < s0 < horizon, horizon=1.0",
            "rotating-coordinate construction that fades weakly to 0 at s0",
            "weak one-sided limit with variance drop (V-(s0)=0 < V(s0-)=1): jump terms beyond the right-continuous form; no pathwise check",
        ),
    )
}


def _holds_text_or_bool(value) -> bool:
    """Whether ``value``, or an entry of it at any depth, is a bool or a str, each of which float() reads."""
    if isinstance(value, (bool, np.bool_, str)):
        return True
    return isinstance(value, (list, tuple)) and any(_holds_text_or_bool(v) for v in value)


def catalog(model_id: str, **params) -> ProcessSpec:
    """Instantiate a catalog model and validate its analytic record data."""
    if model_id not in _CATALOG:
        raise CatalogError(f"unknown model id {model_id!r}; known: {sorted(_CATALOG)}")
    for name, value in params.items():
        if _holds_text_or_bool(value):
            raise CatalogError(f"bad parameters for {model_id!r}: {name!r} holds a bool or a string, not a number")
    try:
        spec = _CATALOG[model_id].build(**params)
    except CatalogError:
        raise
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"bad parameters for {model_id!r}: {exc}") from exc
    spec.validate()
    return spec


def catalog_entries() -> list[CatalogEntry]:
    return list(_CATALOG.values())
