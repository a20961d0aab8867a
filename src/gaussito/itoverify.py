"""Verification engines for the jump-aware Gaussian change-of-variables identity.

Deterministic side: pairing a square-integrable functional against Wick
exponentials turns the identity for F(X_T) into an exact statement about
smooth deterministic functions,

    psi_F(V(T), hbar(T)) - psi_F(V(0), hbar(0))
      = int psi_{F'}(V, hbar) dhbar + (1/2) int psi_{F''}(V, hbar) dV
        + left and right jump-correction sums over the discontinuity times,

which is the two-variable chain rule of ``stieltjes.chain_rule`` for
G(x1, x2) = psi_F(x2, x1) along (hbar, V).  That one engine evaluates every
term; the two forms here are adapters over its result.  V and hbar do not
depend on F, so the general form runs the engine once per pairing element,
with G stacked over the test functions.  It reports the engine's terms per
case.  The right-continuous reduction is a function of the general result,
not a second engine run: it keeps the continuous integrals and lhs, takes
the dhbar atoms at left-limit integrands and moves the variance atoms into a
single jump sum.  The engines compute the identity only, and
``cli._MUTATIONS`` says which terms a mutation knocks out; the one knock-out
here sits inside the reduction's jump term, its left-limit/jump correlation.

Monte Carlo side: the identity path by path as Wick-Riemann sums, sample
pairings against Wick exponentials with exact first-chaos norms, simple
Wick-Stieltjes integrals with closed-form Wick products, and the degree-two
Hermite inner product identity E[P2(g) P2(h)] = 2 E[gh]^2.  A pairing is a
``Pairing`` value (closed form, draw times, per-path sample) from one
constructor per functional, and ``mc_s_transform`` estimates every one.  The
pathwise check draws its two levels, the dyadic grids of ``grid_depth - 2``
and ``grid_depth``, itself, and returns per test function its decay and its
verdict against half of ``pathwise_decay``, drawing batches only until
every verdict is resolved to pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .gaussproc import (
    CameronMartinElement,
    McReport,
    ProcessSpec,
    SimulationResult,
    UnsupportedModelError,
    _mc_report,
    _spanning_grid,
    cm_element,
    cm_inner,
    simulate_batches,
)
from .heatkernel import TestFunction, psi
from .regulated import RegulatedFunction
from .stieltjes import ChainRuleTerms, ScalarField, _atom_sum, chain_rule

__all__ = [
    "ItoResidual",
    "McReport",
    "Pairing",
    "SimpleWickIntegrand",
    "auto_cm_battery",
    "f_pairing",
    "hermite_p2_identity_mc",
    "ito_rcll_residual",
    "ito_stransform_residual",
    "jump_pairing",
    "martingale_ito_mc",
    "mc_s_transform",
    "pathwise_decay",
    "simple_skorokhod_mc",
    "skorokhod_pairing",
    "wick_exponential_paths",
    "wick_pairing",
]


# -- S-transform pairings ----------------------------------------------------------


class Pairing(NamedTuple):
    """E[exp-wick(h) * Y]: its closed form, the times of its draw, and the per-path sample whose mean estimates it."""

    reference: float
    times: np.ndarray
    sample: Callable[[SimulationResult], np.ndarray]


def _weighted(spec: ProcessSpec, h: CameronMartinElement, reference: float, support, observable) -> Pairing:
    """The pairing of ``observable`` against exp-wick(h), on a draw at h's times, the discontinuity times and ``support``."""
    times = set(h.times) | set(spec.record_times()) | set(support)
    grid = np.array(sorted(times)) if times else np.array([spec.horizon])
    return Pairing(reference, grid, lambda sim: wick_exponential_paths(sim, h) * observable(sim))


def f_pairing(spec: ProcessSpec, h: CameronMartinElement, tf: TestFunction, t: float, side: int = 0) -> Pairing:
    """F at X_t, or at the weak limit X_{t-} or X_{t+} for side -1 or +1 (F = x gives X_t)."""
    tf.check_growth(spec.lam)
    # at a discontinuity the left limit is the weak one, which may lose variance against V(t-)
    lost = sum(r.lost_minus for r in spec.records if side < 0 and r.time == t)
    reference = psi(tf, _at(spec.variance, t, side) - lost, _at(h.hbar, t, side))
    return _weighted(spec, h, reference, (t,), lambda sim: tf.f(_one_sided_paths(spec, sim, t, side)))


def wick_pairing(spec: ProcessSpec, h: CameronMartinElement, g: CameronMartinElement) -> Pairing:
    """exp-wick(g), whose pairing is e^{E[gh]}."""
    return _weighted(spec, h, math.exp(cm_inner(spec, g, h)), tuple(g.times), lambda sim: wick_exponential_paths(sim, g))


def jump_pairing(spec: ProcessSpec, h: CameronMartinElement, k: int, coeff: float) -> Pairing:
    """(e^{c J - c^2 var/2} - 1) J for the left-jump variable J of record ``k``, paired with its own exponential: neither
    the closed form c E[J^2] nor the sample is weighted by exp-wick(h), but h's times stay in the draw and its random stream."""
    c, var = coeff, spec.records[k].e_dminus_sq

    def sample(sim):
        j = sim.jump_draws[:, k]
        return (np.exp(c * j - 0.5 * c**2 * var) - 1.0) * j

    return _weighted(spec, h, c * var, (), sample)._replace(sample=sample)


# -- deterministic residuals ----------------------------------------------------


def _admitted(spec: ProcessSpec, test_functions) -> tuple[TestFunction, ...]:
    """The test functions, each checked against the model's growth bound; ``ValueError`` if none."""
    tfs = tuple(test_functions)
    if not tfs:
        raise ValueError("need at least one test function")
    for tf in tfs:
        tf.check_growth(spec.lam)
    return tfs


@dataclass(frozen=True)
class ItoResidual(ChainRuleTerms):
    """Term-by-term breakdown of one case, a test function of a model at a pairing
    element h; residual = lhs - (every right-hand term), the engine's.

    The two integrals (``int_u1`` in dhbar, ``int_u2`` the half-weighted dV
    one) are the case's component of the engine's results: its own values,
    convergence flags and error estimates, the cell counts its pairing
    element's cases share.
    """

    spec: ProcessSpec
    h: CameronMartinElement
    test_function: TestFunction

    def terms(self) -> dict[str, float]:
        return {
            "lhs": self.lhs,
            "integral_dhbar": self.int_u1.value,
            "integral_dv_half": self.int_u2.value,
            "left_jump_sum": self.left_jump_sum,
            "right_jump_sum": self.right_jump_sum,
        }


def ito_stransform_residual(spec, h, test_functions, ys_tol=1e-11) -> tuple[ItoResidual, ...]:
    """Residuals of the general deterministic identity at one pairing element h.

    The identity is the chain rule for G(x1, x2) = psi_F(x2, x1) along
    (u1, u2) = (hbar, V): d1 G = psi_{F'} and d2 G = (1/2) psi_{F''} by the
    heat identities, so the chain rule's terms are the identity's terms.
    G stacks the test functions, so one chain-rule run, one partition per
    integral refined to ``ys_tol``, serves them all; one result per test
    function comes back, in order.  Each test function must meet the
    model's growth bound (``GrowthBoundError``), and an empty list raises
    ``ValueError``.
    Jump terms use exact stored jump sizes of V and hbar, and are accumulated
    with compensated summation (so they are invariant under reordering of the
    discontinuity list).
    """
    tfs = _admitted(spec, test_functions)
    G = ScalarField(
        value=lambda x1, x2: np.stack([psi(tf, x2, x1) for tf in tfs]),
        d1=lambda x1, x2: np.stack([psi(tf, x2, x1, 1) for tf in tfs]),
        d2=lambda x1, x2: 0.5 * np.stack([psi(tf, x2, x1, 2) for tf in tfs]),
        name="psi_" + ",".join(tf.name for tf in tfs),
    )
    chains = chain_rule(G, h.hbar, spec.variance, tol=ys_tol)
    return tuple(
        ItoResidual(**vars(chain), spec=spec, h=h, test_function=tf) for chain, tf in zip(chains, tfs)
    )


def ito_rcll_residual(general: ItoResidual, drop_xleft_correction: bool = False) -> ItoResidual:
    """Residual of the right-continuous reduction (left-limit integrands,
    continuous-variance integral, single jump sum) of a general result.

    Regroups the general result's terms without integrating again: integrands
    at interior points see no difference between values and left limits, so
    the continuous parts of both integrals and the lhs carry over.  The dhbar
    atoms take the left-limit integrand, the variance atoms move into the
    jump sum.  There the E[X_{s-} (X_s - X_{s-})] pairing of the jump term
    cancels the Ito integral's trace term; only ``drop_xleft_correction``
    makes it appear, to measure its weight.  Its residual lies within
    roundoff of the general one.  Only meaningful for right-continuous
    models (``spec.rcll``).
    """
    spec, tf = general.spec, general.test_function
    if not spec.rcll:
        raise UnsupportedModelError(f"{spec.name}: right-continuous reduction needs a right-continuous model")
    hbar, V = general.h.hbar, spec.variance
    for rec in spec.records:
        if hbar.delta_plus_at(rec.time):
            raise UnsupportedModelError(f"{spec.name}: forward jump of hbar at t={rec.time}")

    # no forward jumps, so only left atoms carry mass
    atoms = float(_atom_sum(lambda ts: psi(tf, V.left_values(ts), hbar.left_values(ts), 1), hbar))

    jump_terms = []
    for rec in spec.records:
        s = rec.time
        if not s > 0.0:
            continue
        vl, vv, _ = V.one_sided(s)
        hl, hh, _ = hbar.one_sided(s)
        val = psi(tf, vv, hh) - psi(tf, vl, hl) - psi(tf, vl, hl, 1) * hbar.delta_minus_at(s)
        if drop_xleft_correction:
            val -= psi(tf, vl, hl, 2) * rec.e_xleft_dminus
        jump_terms.append((s, val))

    return replace(
        general,
        int_u1=replace(general.int_u1, atoms=atoms),
        int_u2=replace(general.int_u2, atoms=0.0),
        left_jump_terms=tuple(jump_terms),
        right_jump_terms=(),
    )


# -- Monte Carlo engines ----------------------------------------------------------


def _column(times: np.ndarray, t: float) -> int:
    idx = int(np.searchsorted(times, t))
    if idx >= len(times) or times[idx] != t:
        raise KeyError(f"time {t} missing from simulation grid")
    return idx


def _first_chaos(sim: SimulationResult, h: CameronMartinElement) -> np.ndarray:
    """h = sum_i a_i X_{t_i} per path."""
    return sim.paths[:, [_column(sim.times, t) for t in h.times]] @ h.weights


def wick_exponential_paths(sim: SimulationResult, h: CameronMartinElement) -> np.ndarray:
    """exp{h - E[h^2]/2} per path, with the exact first-chaos norm."""
    x = _first_chaos(sim, h)
    x -= 0.5 * h.norm_sq
    return np.exp(x, out=x)


def _one_sided_paths(spec: ProcessSpec, sim: SimulationResult, t: float, side: int) -> np.ndarray:
    """X_{t-}, X_t or X_{t+} per path for side -1, 0, +1."""
    if side > 0 and any(rec.e_dplus_sq > 0 for rec in spec.records):
        raise UnsupportedModelError("forward jump variables are not simulated")
    # the left limit takes off the jump drawn at t
    jumps = sum(sim.jump_draws[:, k] for k, rec in enumerate(spec.records) if side < 0 and rec.time == t)
    return sim.paths[:, _column(sim.times, t)] - jumps


def _at(r: RegulatedFunction, t: float, side: int) -> float:
    """r(t-), r(t) or r(t+) for side -1, 0, +1."""
    return float((r.left_values, r.values, r.right_values)[side + 1](t))


def _level_residuals(tf: TestFunction, X, xi, x_jump, x_left, plan, dXs, buffer, out):
    """Squared increment, squared residual per level and their product, of one test function on one batch, as ``out``'s rows."""
    shape = (len(X), X.shape[1] - 1)
    f1, f2 = tf.f1(X[:, :-1], out=buffer("f1", shape)), tf.f2(X[:, :-1], out=buffer("f2", shape))
    f1_left = tf.f1(x_left)
    jump_ito = np.sum(f1_left * xi, axis=1)
    jump = np.sum(tf.f(x_jump) - tf.f(x_left) - f1_left * xi, axis=1)
    increment = tf.f(X[:, -1]) - tf.f(X[:, 0])
    np.square(increment, out=out[0])
    for (cols, weights), dX, row in zip(plan, dXs, out[1:]):
        # a coarse level gathers F' and then F'' into one C-ordered array ("clip" writes into it, "raise" into a temporary
        # first), several times faster to make and to reduce than the Fortran-ordered f[:, cols]
        at_level = (lambda f: f) if cols is None else (lambda f: np.take(f, cols[:-1], axis=1, out=buffer("gather", dX.shape), mode="clip"))
        ito = np.einsum("ij,ij->i", at_level(f1), dX) + jump_ito
        quad = 0.5 * np.einsum("ij,j->i", at_level(f2), weights)
        np.square(increment - ito - quad - jump, out=row)
    np.multiply(out[1], out[2], out=out[3])


def _cell_weights(spec: ProcessSpec, pts: np.ndarray) -> np.ndarray:
    """dV^c_i - 2 c_i per cell of a grid holding the discontinuity times, with the Wick weight
    c_i = E[X_{t_i} (X_{t_{i+1}-} - X_{t_i})] (0 on a martingale): the mean square of X_{t_{i+1}-} - X_{t_i}."""
    a = pts[:-1]
    c = spec.cov(a, pts[1:]) - spec.cov(a, a)
    for k, j in enumerate(np.searchsorted(pts, spec.record_times()) - 1):
        c[j] -= spec.jump_cov_left(a[j], k)
    return np.diff(spec.variance.base_values(pts)) - 2.0 * c


def pathwise_decay(spec: ProcessSpec, grid) -> float:
    """min(alpha - 1/2, 1), the expected log2 decay of the pathwise residual per halving of the step, for
    E[dX^2] ~ step^alpha read from the cell weights on the grid joined with the discontinuity times and on
    every other point of it; ``ValueError`` unless the grid spans [0, horizon], ``UnsupportedModelError``
    on a weak one-sided limit, below alpha = 0.6, and when the discontinuity times fill every other point."""
    if not spec.rcll:
        raise UnsupportedModelError(f"{spec.name}: pathwise check needs a right-continuous model, without weak one-sided limits")
    fine = np.union1d(_spanning_grid(spec, grid), spec.record_times())
    if len(fine) < 3:
        raise ValueError("the pathwise check needs a grid of at least two cells")
    coarse = np.union1d(fine[::2], [*spec.record_times(), fine[-1]])
    if len(coarse) == len(fine):
        raise UnsupportedModelError(f"{spec.name}: the discontinuity times fill every other grid point, so no coarser level shows a decay; raise grid_depth")
    w1, w2 = _cell_weights(spec, coarse), _cell_weights(spec, fine)
    alpha = round(math.log(w1.mean() / w2.mean()) / math.log(len(w2) / len(w1)), 3)
    if not alpha >= 0.6:
        raise UnsupportedModelError(f"{spec.name}: alpha={alpha:g} is below 0.6: the pathwise residual decays by under 0.1 per level")
    return min(alpha - 0.5, 1.0)


def martingale_ito_mc(spec: ProcessSpec, test_functions, grid_depth: int, n_paths: int, seed: int, z_max: float = 4.0, batch_map=map, beside=()):
    """Pathwise check of the Gaussian identity by Wick-Riemann sums on two nested grids, with its verdict.

    The levels are the dyadic grids of ``grid_depth - 2`` and ``grid_depth`` (at least 2) over [0, horizon], each
    joined with the discontinuity times.  Paths are drawn on the fine grid only, by ``gaussproc.simulate_batches``
    (``batch_map`` runs the batches, each thread in arrays it reuses); the coarse grid sums its steps from the same
    draw and every test function the same batch, so levels and test functions are coupled, as in multilevel Monte
    Carlo.  A batch returns per test function four rows, reduced to moments as it arrives: a squared increment, a
    squared residual per level and their product.

    Per path and grid: forward Riemann sums of F'(X) against the continuous increments, exact jump handling with the
    jointly drawn jump variables, and (1/2) sum F''(X_{t_i}) (dV^c_i - 2 c_i): F'(X_t) wick dX = F'(X_t) dX -
    F''(X_t) E[X_t dX] for Gaussian X, so the Wick weights c_i turn Ito sums into Skorokhod sums, on any model
    ``pathwise_decay`` admits.

    Returns per test function in order ``(passed, required, terms, report)``: ``terms`` are each level's relative L2
    residual ``rel_l2_depth<d>``, ``log2_decay``, half the log2 ratio of the two, and ``log2_decay_se``, its
    delta-method standard error; ``report`` is the fine level's; ``required`` is half of ``pathwise_decay``.  A case
    passes when ``required <= log2_decay < inf``, or when both levels are below 1e-12, where the identity holds to
    roundoff.  ``n_paths`` is a cap: the draw stops at the first look of ``simulate_batches`` where every case is
    resolved to pass, below 1e-12 or ``log2_decay`` at least ``z_L`` (``z_max`` over the looks by Bonferroni)
    standard errors above ``required``; a failing case runs to the cap.  The reports count the paths used.  The
    ``simulate_batches`` readers ``beside`` read the same draw after this check's reader, and their results follow the cases.
    """
    tfs = _admitted(spec, test_functions)
    if grid_depth < 2:
        raise ValueError("grid_depth must be at least 2")
    records, dyadic = np.asarray(spec.record_times(), dtype=float), np.linspace(0.0, spec.horizon, 2**grid_depth + 1)
    coarse, fine = np.union1d(dyadic[::4], records), np.union1d(dyadic, records)
    required = 0.5 * pathwise_decay(spec, fine)
    jcols = np.searchsorted(fine, records)
    # per level: fine columns (None for the fine level), the cell weights
    plan = [(cols, _cell_weights(spec, pts)) for cols, pts in ((np.searchsorted(fine, coarse), coarse), (None, fine))]

    def batch(sim, buffer):
        X, xi, dX, n = sim.paths, sim.jump_draws, sim.steps[:, 1:], len(sim.jump_draws)
        # shared by every test function: each level's increments net of the jump draws, the fine level's the draw's steps
        # and a coarse cell's their sum over it (no jump falls inside one), and the values and left limits at the jumps
        dXs = [dX if cols is None else np.add.reduceat(dX, cols[:-1], axis=1, out=buffer("coarse dX", (n, len(cols) - 1))) for cols, _ in plan]
        x_jump = X[:, jcols]
        x_left = x_jump - xi
        rows = buffer("rows", (4 * len(tfs), n))
        for tf, out in zip(tfs, rows.reshape(len(tfs), 4, n)):
            _level_residuals(tf, X, xi, x_jump, x_left, plan, dXs, buffer, out)
        return rows

    def summaries(moments):
        """Per test function: relative residuals, both below roundoff or not, the decay and its SE, the fine level's SE."""
        n, means, m2s = moments
        for mean, m2 in zip(means.reshape(len(tfs), 4), m2s.reshape(len(tfs), 4)):
            scale, ms, rms = math.sqrt(mean[0]), mean[1:3], math.sqrt(mean[2])
            rels = [math.sqrt(r2) / scale if scale > 0 else math.sqrt(r2) for r2 in ms]
            se_rel = math.sqrt(m2[2] / (n - 1)) / math.sqrt(n) / (2.0 * rms) / max(scale, 1e-300) if rms > 0 else 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                # half the log2 ratio of the levels' residuals; not finite, so failing, if a level is NaN, 0 or inf
                decay = float(np.dot([0.5, -0.5], np.log2(rels)))
                # the delta method on (ln m_a - ln m_b) / (4 ln 2), from the levels' mean squares and co-moments
                cross = (mean[3] - ms[0] * ms[1]) * n / (n - 1)
                var = m2[1] / (n - 1) / ms[0] ** 2 + m2[2] / (n - 1) / ms[1] ** 2 - 2.0 * cross / (ms[0] * ms[1])
                se = float(np.sqrt(max(var, 0.0) / n) / (4.0 * math.log(2.0)))
            # below roundoff scale the identity holds per path, and there is no discretization error left to decay
            yield rels, all(r < 1e-12 for r in rels), decay, se, se_rel

    def resolved(moments, looks):
        # z_max's one-sided tail shared among the looks (Bonferroni), or never resolved where that tail underflows
        tail = NormalDist().cdf(-z_max) / looks
        z = -NormalDist().inv_cdf(tail) if tail > 0 else math.inf
        return all(floor or decay - required >= z * se for _, floor, decay, se, _ in summaries(moments))

    (moments, batches), *others = simulate_batches(spec, fine, n_paths, seed, [(batch, resolved), *beside], batch_map)
    cases = []
    for rels, floor, decay, se, se_rel in summaries(moments):
        terms = {f"rel_l2_depth{grid_depth - 2}": rels[0], f"rel_l2_depth{grid_depth}": rels[1], "log2_decay": decay, "log2_decay_se": se}
        report = McReport(rels[1], se_rel, 0.0, moments[0], seed, len(fine), batches)
        cases.append((floor or required <= decay < math.inf, required, terms, report))
    return (*cases, *others)


def mc_s_transform(spec: ProcessSpec, pairing: Pairing, n_paths: int, seed: int, batch_map=map) -> McReport:
    """Sample mean and standard error of a pairing's per-path sample against its closed form: each
    ``simulate_batches`` batch on the pairing's times returns the sample, so memory is one batch whatever ``n_paths``."""
    batched = simulate_batches(spec, pairing.times, n_paths, seed, [(lambda sim, _: pairing.sample(sim), None)], batch_map)
    return _mc_report(batched[0], pairing.reference, seed, pairing.times)


# -- simple Wick-Stieltjes integrands ----------------------------------------------


@dataclass(frozen=True)
class SimpleWickIntegrand:
    """Step integrand with Wick-exponential coefficients.

    On the open cell (t_{i-1}, t_i) the integrand is exp-wick(open_coeffs[i-1]);
    at the node t_i it is exp-wick(node_coeffs[i]).  Empty-coefficient elements
    encode the constant 1.  The integral against X is the Wick-Stieltjes sum of
    the one-sided-limit increments, each Wick product evaluated in closed form:
    exp-wick(f) * (g - E[g f]).
    """

    times: tuple[float, ...]
    open_coeffs: tuple[CameronMartinElement, ...]
    node_coeffs: tuple[CameronMartinElement, ...]

    def __post_init__(self):
        if len(self.times) < 2 or any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing with at least two entries")
        if len(self.open_coeffs) != len(self.times) - 1 or len(self.node_coeffs) != len(self.times):
            raise ValueError("coefficient counts must match the time grid")

    def increments(self) -> list[tuple[CameronMartinElement, tuple[float, int], tuple[float, int]]]:
        """(coefficient, start, end) of each one-sided-limit increment, in time order.

        ``start``/``end`` are (t, side) with side -1, 0, +1 for X_{t-}, X_t,
        X_{t+}: the node jump X_{t_0+} - X_{t_0}, then per cell the open
        increment X_{t_i-} - X_{t_{i-1}+} and the node jump X_{t_i+} - X_{t_i-}.
        """
        t = self.times
        out = [(self.node_coeffs[0], (t[0], 0), (t[0], 1))]
        for i in range(1, len(t)):
            out.append((self.open_coeffs[i - 1], (t[i - 1], 1), (t[i], -1)))
            out.append((self.node_coeffs[i], (t[i], -1), (t[i], 1)))
        return out


def skorokhod_pairing(spec: ProcessSpec, z: SimpleWickIntegrand, h: CameronMartinElement) -> Pairing:
    """The simple Wick-Stieltjes integral of ``z``, whose times must span [0, horizon]: per increment g with
    coefficient f, e^{E[fh]} times g's transform in the exact sum, the Wick product exp-wick(f) * (g - E[g f]) per path."""
    _spanning_grid(spec, z.times)
    steps = [(f, start, end, _at(f.hbar, *end) - _at(f.hbar, *start)) for f, start, end in z.increments()]
    reference = math.fsum(math.exp(cm_inner(spec, f, h)) * (_at(h.hbar, *end) - _at(h.hbar, *start)) for f, start, end, _ in steps)

    def integral(sim):
        total = np.zeros(sim.paths.shape[0])
        for f, start, end, mean in steps:
            g = _one_sided_paths(spec, sim, *end) - _one_sided_paths(spec, sim, *start)
            total += wick_exponential_paths(sim, f) * (g - mean)
        return total

    return _weighted(spec, h, reference, {*z.times, *(t for f, *_ in steps for t in f.times)}, integral)


def simple_skorokhod_mc(spec: ProcessSpec, z: SimpleWickIntegrand, h: CameronMartinElement, n_paths: int, seed: int, batch_map=map) -> McReport:
    """Monte Carlo pairing of the sampled integral against its exact transform."""
    return mc_s_transform(spec, skorokhod_pairing(spec, z, h), n_paths, seed, batch_map)


def hermite_p2_identity_mc(spec: ProcessSpec, g: CameronMartinElement, h: CameronMartinElement, n_paths: int, seed: int, batch_map=map) -> McReport:
    """Degree-two Hermite pairing E[(g^2 - E g^2)(h^2 - E h^2)] vs 2 E[gh]^2, on a draw at g's and h's times only."""
    times = sorted(set(g.times) | set(h.times))
    if not times:
        raise ValueError("need at least one support time")

    def sample(sim):
        return (_first_chaos(sim, g) ** 2 - g.norm_sq) * (_first_chaos(sim, h) ** 2 - h.norm_sq)

    return mc_s_transform(spec, Pairing(2.0 * cm_inner(spec, g, h) ** 2, np.array(times), sample), n_paths, seed, batch_map)


# -- standard pairing battery -------------------------------------------------------


def auto_cm_battery(spec: ProcessSpec) -> list[CameronMartinElement]:
    """Deterministic battery of pairing elements adapted to the model.

    Times come from a coarse grid plus the discontinuity times and near-jump
    companions; for the fading model all informative times sit inside the
    active window.  Every element has bounded-variation induced function for
    the catalog models, so the battery is admissible for the refinement-mode
    integrals throughout.
    """
    T = spec.horizon
    if spec.name == "evanescent":
        s0 = spec.records[0].time
        combos = [
            [(1.0, 0.6 * s0)],
            [(0.8, 0.875 * s0)],
            [(0.6, 0.3 * s0), (-0.5, 0.9375 * s0), (0.3, s0 + 0.3 * (T - s0))],
        ]
    else:
        combos = [
            [(1.0, T)],
            [(0.8, 0.4 * T)],
            [(0.6, 0.25 * T), (-0.5, 0.8 * T), (0.3, T)],
        ]
        for s in spec.record_times():
            lo = max(0.05 * T, s - 0.2 * T)
            hi = min(T, s + 0.2 * T)
            combos.append([(0.7, s), (0.4, hi)])
            combos.append([(0.5, lo), (-0.6, s)])
    return [cm_element(spec, c, label=f"h{k}") for k, c in enumerate(combos)]
