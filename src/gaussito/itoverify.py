"""Verification engines for the jump-aware Gaussian change-of-variables identity.

Deterministic side: pairing a square-integrable functional against Wick
exponentials turns the identity for F(X_T) into an exact statement about
smooth deterministic functions,

    psi_F(V(T), hbar(T)) - psi_F(V(0), hbar(0))
      = int psi_{F'}(V, hbar) dhbar + (1/2) int psi_{F''}(V, hbar) dV
        + left and right jump-correction sums over the discontinuity times,

which is the two-variable chain rule of ``stieltjes.chain_rule`` for
G(x1, x2) = psi_F(x2, x1) along (hbar, V).  That one engine evaluates every
term; the two forms here are adapters over its result.  The general form
reports the engine's terms, with chosen terms knocked out on purpose
(mutation sensitivity).  The right-continuous reduction is a function of
the general result, not a second engine run: it keeps the continuous
integrals and lhs, takes the dhbar atoms at left-limit integrands,
moves the variance atoms into a single jump sum, and reports how far its
residual lies from the general one; its left-limit/jump correlation term can
be knocked out on purpose too.

Monte Carlo side: pathwise checks in the martingale case, sample pairings
against Wick exponentials with exact first-chaos norms, simple Wick-Stieltjes
integrals with closed-form Wick products, and the degree-two Hermite inner
product identity E[P2(g) P2(h)] = 2 E[gh]^2.  Each pairing check hands a
support grid, a per-path sample and its closed form to
``gaussproc.mc_estimate``; only the martingale check keeps its own coupled
estimator over ``gaussproc.simulate_batches``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussproc import (
    CameronMartinElement,
    McReport,
    ProcessSpec,
    SimulationResult,
    UnsupportedModelError,
    _merge_moments,
    _moments,
    cm_element,
    cm_inner,
    mc_estimate,
    simulate_batches,
)
from .heatkernel import TestFunction, psi
from .regulated import Partition, RegulatedFunction
from .stieltjes import ChainRuleTerms, ScalarField, chain_rule

__all__ = [
    "ItoCase",
    "ItoResidual",
    "McReport",
    "Observable",
    "SimpleWickIntegrand",
    "auto_cm_battery",
    "hermite_p2_identity_mc",
    "ito_rcll_residual",
    "ito_stransform_residual",
    "martingale_ito_mc",
    "mc_s_transform",
    "s_transform",
    "simple_skorokhod_mc",
    "skorokhod_s_transform",
    "skorokhod_sample",
    "wick_exponential_paths",
]

MUTATIONS = ("drop_left_jump_sum", "drop_right_jump_sum", "drop_dv_integral", "drop_xleft_correction")


@dataclass(frozen=True)
class ItoCase:
    """One deterministic verification case: model, test function, pairing element."""

    spec: ProcessSpec
    test_function: TestFunction
    h: CameronMartinElement
    ys_tol: float = 1e-11
    max_refine: int = 60000
    label: str = ""

    def __post_init__(self):
        self.test_function.check_growth(self.spec.lam)


# -- S-transform closed forms ---------------------------------------------------


@dataclass(frozen=True)
class Observable:
    """Closed-form-pairable functionals of the process.

    kinds: "process" (X_t), "f"/"f1"/"f2" (F and derivatives at X_t),
    "f_left"/"f_right" (F at the weak one-sided limits), "wick_exp"
    (exp-wick of g), "jump_pairing" ((e^{c J - c^2 var/2} - 1) J for the
    left-jump variable J at a record, paired with its own exponential).
    """

    kind: str
    t: float = 0.0
    g: CameronMartinElement | None = None
    jump_index: int = 0
    coeff: float = 1.0
    label: str = ""


def _pairing(obs: Observable, case: ItoCase):
    """(closed form, support times, per-path sample) of E[exp-wick(case.h) * observable].

    The sample maps a simulation whose grid holds the support times and
    case.h's times to one value per path; its mean estimates the closed form.
    """
    spec, tf, h, t = case.spec, case.test_function, case.h, obs.t

    def weighted(observable):
        return lambda sim: wick_exponential_paths(sim, h) * observable(sim)

    if obs.kind == "process":
        return _at(h.hbar, t, 0), (t,), weighted(lambda sim: _one_sided_paths(spec, sim, t, 0))
    if obs.kind in ("f", "f1", "f2", "f_left", "f_right"):
        side = {"f_left": -1, "f_right": 1}.get(obs.kind, 0)
        order = {"f1": 1, "f2": 2}.get(obs.kind, 0)
        fn = (tf.f, tf.f1, tf.f2)[order]
        closed = psi(tf, _at(spec.variance, t, side), _at(h.hbar, t, side), order)
        return closed, (t,), weighted(lambda sim: fn(_one_sided_paths(spec, sim, t, side)))
    if obs.kind == "wick_exp":
        closed = math.exp(cm_inner(spec, obs.g, h))
        return closed, tuple(obs.g.times), weighted(lambda sim: wick_exponential_paths(sim, obs.g))
    if obs.kind == "jump_pairing":
        c, var = obs.coeff, spec.records[obs.jump_index].e_dminus_sq

        def sample(sim):
            j = sim.jump_draws[:, obs.jump_index]
            return (np.exp(c * j - 0.5 * c**2 * var) - 1.0) * j

        return c * var, (), sample
    raise ValueError(f"unknown observable kind {obs.kind!r}")


def s_transform(obs: Observable, case: ItoCase) -> float:
    """Deterministic pairing value of the observable against exp-wick of case.h."""
    return _pairing(obs, case)[0]


# -- deterministic residuals ----------------------------------------------------

# mutation flag -> the right-hand term it knocks out of the residual
_DROPPED_TERM = {
    "drop_dv_integral": "integral_dv_half",
    "drop_left_jump_sum": "left_jump_sum",
    "drop_right_jump_sum": "right_jump_sum",
}


@dataclass(frozen=True)
class ItoResidual(ChainRuleTerms):
    """Term-by-term breakdown of one case; residual = lhs - (right-hand terms not dropped).

    The two integrals (``int_u1`` in dhbar, ``int_u2`` the half-weighted dV
    one) are the engine's results, with their convergence flags and error
    estimates.  ``agreement_delta`` is, for the right-continuous form, the
    distance of its residual from the unmutated general residual of the same
    case.
    """

    case: ItoCase
    drop: frozenset = frozenset()
    agreement_delta: float = 0.0

    @property
    def integral_dhbar(self) -> float:
        return self.int_u1.value

    @property
    def integral_dv_half(self) -> float:
        return self.int_u2.value

    @property
    def residual(self) -> float:
        dropped = {_DROPPED_TERM.get(flag) for flag in self.drop}
        rhs = [v for k, v in self.terms().items() if k != "lhs" and k not in dropped]
        return self.lhs - math.fsum(rhs)

    def terms(self) -> dict[str, float]:
        return {
            "lhs": self.lhs,
            "integral_dhbar": self.integral_dhbar,
            "integral_dv_half": self.integral_dv_half,
            "left_jump_sum": self.left_jump_sum,
            "right_jump_sum": self.right_jump_sum,
        }


def _check_mutations(drop) -> frozenset:
    drop = frozenset(drop)
    unknown = drop - set(MUTATIONS)
    if unknown:
        raise ValueError(f"unknown mutation flags {sorted(unknown)}")
    return drop


def ito_stransform_residual(case: ItoCase, drop=frozenset()) -> ItoResidual:
    """Residual of the general deterministic identity for one case.

    The identity is the chain rule for G(x1, x2) = psi_F(x2, x1) along
    (u1, u2) = (hbar, V): d1 G = psi_{F'} and d2 G = (1/2) psi_{F''} by the
    heat identities, so the chain rule's terms are the identity's terms.
    Jump terms use exact stored jump sizes of V and hbar, are accumulated with
    compensated summation (so they are invariant under reordering of the
    discontinuity list), and can be knocked out selectively via ``drop`` for
    sensitivity checks.
    """
    drop = _check_mutations(drop)
    tf = case.test_function
    G = ScalarField(
        value=lambda x1, x2: psi(tf, x2, x1),
        d1=lambda x1, x2: psi(tf, x2, x1, 1),
        d2=lambda x1, x2: 0.5 * psi(tf, x2, x1, 2),
        name=f"psi_{tf.name}",
    )
    chain = chain_rule(G, case.h.hbar, case.spec.variance, tol=case.ys_tol, max_refine=case.max_refine)
    return ItoResidual(**vars(chain), case=case, drop=drop)


def ito_rcll_residual(general: ItoResidual, drop=frozenset()) -> ItoResidual:
    """Residual of the right-continuous reduction (left-limit integrands,
    continuous-variance integral, single jump sum) of a general result.

    Regroups the general result's terms without integrating again: integrands
    at interior points see no difference between values and left limits, so
    the continuous parts of both integrals and the lhs carry over.  The dhbar
    atoms take the left-limit integrand, the variance atoms move into the
    jump sum.  There the E[X_{s-} (X_s - X_{s-})] pairing of the jump term
    cancels the Ito integral's trace term; only
    ``drop={"drop_xleft_correction"}`` makes it appear, to measure its weight.
    The general result's own ``drop`` is ignored.  Only meaningful for
    martingale/rcll models.
    """
    drop = _check_mutations(drop)
    spec, tf = general.case.spec, general.case.test_function
    if spec.kind not in ("martingale", "rcll"):
        raise UnsupportedModelError(f"{spec.name}: right-continuous reduction needs kind martingale/rcll")
    hbar, V = general.case.h.hbar, spec.variance
    for rec in spec.records:
        if rec.e_dplus_sq or rec.v_plus != rec.v_right or hbar.delta_plus_at(rec.time) or V.delta_plus_at(rec.time):
            raise UnsupportedModelError(f"{spec.name}: forward jump data present at t={rec.time}")

    # no forward jumps and none at time 0, so only left atoms carry mass
    atoms = 0.0
    if hbar.jump_times:
        jt = np.asarray(hbar.jump_times)
        p1_left = psi(tf, V.left_values(jt), hbar.left_values(jt), 1)
        atoms = math.fsum(p * hbar.delta_minus_at(s) for p, s in zip(p1_left, jt))

    jump_terms = []
    for rec in spec.records:
        s = rec.time
        if not s > 0.0:
            continue
        vl, vv, _ = V.one_sided(s)
        hl, hh, _ = hbar.one_sided(s)
        val = psi(tf, vv, hh) - psi(tf, vl, hl) - psi(tf, vl, hl, 1) * hbar.delta_minus_at(s)
        if "drop_xleft_correction" in drop:
            val -= psi(tf, vl, hl, 2) * rec.e_xleft_dminus
        jump_terms.append((s, val))

    res = replace(
        general,
        int_u1=replace(general.int_u1, atoms=atoms),
        int_u2=replace(general.int_u2, atoms=0.0),
        left_jump_terms=tuple(jump_terms),
        right_jump_terms=(),
        drop=drop,
    )
    return replace(res, agreement_delta=abs(res.residual - replace(general, drop=frozenset()).residual))


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
    if len(h.coeffs) == 0:
        return np.ones(sim.paths.shape[0])
    return np.exp(_first_chaos(sim, h) - 0.5 * h.norm_sq)


def _one_sided_paths(spec: ProcessSpec, sim: SimulationResult, t: float, side: int) -> np.ndarray:
    """X_{t-}, X_t or X_{t+} per path for side -1, 0, +1."""
    if side > 0 and any(rec.e_dplus_sq > 0 for rec in spec.records):
        raise UnsupportedModelError("forward jump variables are not simulated")
    vals = sim.paths[:, _column(sim.times, t)]
    if side < 0:
        for k, rec in enumerate(spec.records):
            if rec.time == t:
                return vals - sim.jump_draws[:, k]
    return vals


def _at(r: RegulatedFunction, t: float, side: int) -> float:
    """r(t-), r(t) or r(t+) for side -1, 0, +1."""
    return float((r.left_values, r.values, r.right_values)[side + 1](t))


def _level_residuals(tf: TestFunction, X, xi, x_jump, x_left, plan, dBs):
    """Squared increment, then squared residual per level, of one test function on one batch."""
    f1, f2 = tf.f1(X[:, :-1]), tf.f2(X[:, :-1])
    f1_left = tf.f1(x_left)
    jump_ito = np.sum(f1_left * xi, axis=1)
    jump = np.sum(tf.f(x_jump) - tf.f(x_left) - f1_left * xi, axis=1)
    increment = tf.f(X[:, -1]) - tf.f(X[:, 0])
    resid2 = []
    for (cols, _, dvc), dB in zip(plan, dBs):
        # np.take makes a C-ordered copy, several times faster to make and to
        # reduce than the Fortran-ordered one of f1[:, idx]
        f1l, f2l = (f1, f2) if cols is None else (np.take(f1, cols[:-1], axis=1), np.take(f2, cols[:-1], axis=1))
        ito = np.einsum("ij,ij->i", f1l, dB) + jump_ito
        quad = 0.5 * np.einsum("ij,j->i", f2l, dvc)
        resid2.append((increment - ito - quad - jump) ** 2)
    return [increment**2, *resid2]


def martingale_ito_mc(
    spec: ProcessSpec, test_functions, grids, n_paths: int, seed: int
) -> tuple[tuple[McReport, ...], ...]:
    """Pathwise check of the discontinuous-martingale identity on nested grids.

    Each grid is joined with the discontinuity times, and every joined grid
    must be a subset of the finest one (``ValueError`` otherwise).  Paths are
    drawn only on the finest grid, by ``gaussproc.simulate_batches``; every
    coarser grid reads its columns from the same draw, and every test
    function reads the same batch.  The levels and the test functions are
    therefore coupled, as in multilevel Monte Carlo, and memory is bounded by
    the batch whatever ``n_paths``.  Only the evaluations of F, F' and F'' are made per test
    function; the rest of a batch is made once.

    Per path and grid: forward Riemann sums of F'(X) against the Brownian
    increments, exact jump handling with the jointly drawn jump variables
    (the same on every grid, since every grid pins the discontinuity times),
    and the continuous-variance quadrature term.  Returns, per test function
    in the order given, one report per grid in the order given; its estimate
    is the relative L2 residual (discretization error; halves roughly like
    the square root of the step).
    """
    if spec.kind != "martingale":
        raise UnsupportedModelError(f"{spec.name}: pathwise identity needs a martingale model")
    tfs = tuple(test_functions)
    if not tfs:
        raise ValueError("need at least one test function")
    for tf in tfs:
        tf.check_growth(spec.lam)
    records = np.asarray(spec.record_times(), dtype=float)
    levels = [
        np.union1d(np.asarray(g.points if isinstance(g, Partition) else g, dtype=float), records) for g in grids
    ]
    if not levels:
        raise ValueError("need at least one grid")
    fine = max(levels, key=len)
    for pts in levels:
        if pts[0] != 0.0 or pts[-1] != spec.horizon:
            raise ValueError("grid must span [0, horizon]")
        if not np.all(np.isin(pts, fine)):
            raise ValueError("grids must be nested: each must be a subset of the finest")
    jcols = np.searchsorted(fine, records)
    # per level: fine columns (None for the finest), the interval ending at
    # each discontinuity, and the continuous-variance increments
    plan = [
        (
            None if len(pts) == len(fine) else np.searchsorted(fine, pts),
            np.searchsorted(pts, records) - 1,
            np.diff(spec.variance.base_values(pts)),
        )
        for pts in levels
    ]

    acc = (0, 0.0, 0.0)  # moments of every test function's rows, row by row
    for sim in simulate_batches(spec, fine, n_paths, seed):
        X, xi = sim.paths, sim.jump_draws
        # what every test function shares: increments net of the jump draws,
        # and the values and left limits at the discontinuities
        dBs = []
        for cols, jpos, _ in plan:
            dB = np.diff(X if cols is None else np.take(X, cols, axis=1), axis=1)
            dB[:, jpos] -= xi
            dBs.append(dB)
        x_jump = X[:, jcols]
        x_left = x_jump - xi
        rows = [row for tf in tfs for row in _level_residuals(tf, X, xi, x_jump, x_left, plan, dBs)]
        acc = _merge_moments(acc, _moments(np.stack(rows)))

    _, means, m2s = acc
    reports = []
    for tf, mean, m2 in zip(tfs, means.reshape(len(tfs), -1), m2s.reshape(len(tfs), -1)):
        scale = math.sqrt(mean[0])
        per_grid = []
        for pts, mean_r2, m2_r2 in zip(levels, mean[1:], m2[1:]):
            rms = math.sqrt(mean_r2)
            se_r2 = math.sqrt(m2_r2 / (n_paths - 1)) / math.sqrt(n_paths)
            se_rel = se_r2 / (2.0 * rms) / max(scale, 1e-300) if rms > 0 else 0.0
            label = f"martingale_ito[{spec.name},{tf.name},n={len(pts) - 1}]"
            per_grid.append(McReport(rms / scale if scale > 0 else rms, se_rel, 0.0, n_paths, seed, label))
        reports.append(tuple(per_grid))
    return tuple(reports)


def mc_s_transform(case: ItoCase, obs: Observable, n_paths: int, seed: int) -> McReport:
    """Monte Carlo pairing E[exp-wick(h) * observable] against the closed form."""
    spec = case.spec
    reference, support, sample = _pairing(obs, case)
    times = set(case.h.times) | set(spec.record_times()) | set(support)
    grid = np.array(sorted(times)) if times else np.array([spec.horizon])
    return mc_estimate(spec, grid, sample, reference, n_paths, seed, obs.label or obs.kind)


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


def _check_integrand_span(spec: ProcessSpec, z: SimpleWickIntegrand) -> None:
    if z.times[0] != 0.0 or z.times[-1] != spec.horizon:
        raise ValueError("step integrand must span [0, horizon]")


def skorokhod_s_transform(spec: ProcessSpec, z: SimpleWickIntegrand, h: CameronMartinElement) -> float:
    """Deterministic pairing of the simple Wick-Stieltjes integral (exact sum)."""
    _check_integrand_span(spec, z)
    return math.fsum(
        math.exp(cm_inner(spec, f, h)) * (_at(h.hbar, *end) - _at(h.hbar, *start)) for f, start, end in z.increments()
    )


def skorokhod_sample(spec: ProcessSpec, z: SimpleWickIntegrand, sim: SimulationResult) -> np.ndarray:
    """Per-path values of the simple Wick-Stieltjes integral via closed-form Wick products."""
    _check_integrand_span(spec, z)
    total = np.zeros(sim.paths.shape[0])
    for f, start, end in z.increments():
        g = _one_sided_paths(spec, sim, *end) - _one_sided_paths(spec, sim, *start)
        total += wick_exponential_paths(sim, f) * (g - (_at(f.hbar, *end) - _at(f.hbar, *start)))
    return total


def simple_skorokhod_mc(
    spec: ProcessSpec,
    z: SimpleWickIntegrand,
    h: CameronMartinElement,
    n_paths: int,
    seed: int,
) -> McReport:
    """Monte Carlo pairing of the sampled integral against its exact transform."""
    times = set(z.times) | set(h.times) | set(spec.record_times())
    for c in z.open_coeffs + z.node_coeffs:
        times.update(c.times)

    def sample(sim):
        return wick_exponential_paths(sim, h) * skorokhod_sample(spec, z, sim)

    reference = skorokhod_s_transform(spec, z, h)
    return mc_estimate(spec, np.array(sorted(times)), sample, reference, n_paths, seed, "simple_skorokhod")


def hermite_p2_identity_mc(
    spec: ProcessSpec,
    g: CameronMartinElement,
    h: CameronMartinElement,
    n_paths: int,
    seed: int,
) -> McReport:
    """Degree-two Hermite pairing E[(g^2 - E g^2)(h^2 - E h^2)] vs 2 E[gh]^2."""
    times = sorted(set(g.times) | set(h.times))
    if not times:
        raise ValueError("need at least one support time")

    def sample(sim):
        return (_first_chaos(sim, g) ** 2 - g.norm_sq) * (_first_chaos(sim, h) ** 2 - h.norm_sq)

    return mc_estimate(spec, np.array(times), sample, 2.0 * cm_inner(spec, g, h) ** 2, n_paths, seed, "hermite_p2")


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
        s0 = spec.params["s0"]
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
