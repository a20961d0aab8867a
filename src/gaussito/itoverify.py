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
product identity E[P2(g) P2(h)] = 2 E[gh]^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussproc import (
    CameronMartinElement,
    ProcessSpec,
    SimulationResult,
    UnsupportedModelError,
    cm_element,
    cm_inner,
    simulate_paths,
)
from .heatkernel import TestFunction, psi
from .regulated import Partition
from .stieltjes import IntegralResult, ScalarField, chain_rule

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


@dataclass(frozen=True)
class McReport:
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


def _mc_report(values: np.ndarray, reference: float, n_paths: int, seed: int, label: str) -> McReport:
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    return McReport(estimate=est, standard_error=se, reference=reference, n_paths=n_paths, seed=seed, label=label)


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


def s_transform(obs: Observable, case: ItoCase) -> float:
    """Deterministic pairing value of the observable against exp-wick of case.h."""
    spec, tf, h = case.spec, case.test_function, case.h
    if obs.kind == "process":
        return float(h.hbar.values(obs.t))
    if obs.kind in ("f", "f1", "f2"):
        fn = {"f": tf.f, "f1": tf.f1, "f2": tf.f2}[obs.kind]
        return float(psi(fn, spec.variance.values(obs.t), h.hbar.values(obs.t)))
    if obs.kind == "f_left":
        return float(psi(tf.f, spec.variance.left_values(obs.t), h.hbar.left_values(obs.t)))
    if obs.kind == "f_right":
        return float(psi(tf.f, spec.variance.right_values(obs.t), h.hbar.right_values(obs.t)))
    if obs.kind == "wick_exp":
        return math.exp(cm_inner(spec, obs.g, h))
    if obs.kind == "jump_pairing":
        return obs.coeff * spec.records[obs.jump_index].e_dminus_sq
    raise ValueError(f"unknown observable kind {obs.kind!r}")


# -- deterministic residuals ----------------------------------------------------

# mutation flag -> the right-hand term it knocks out of the residual
_DROPPED_TERM = {
    "drop_dv_integral": "integral_dv_half",
    "drop_left_jump_sum": "left_jump_sum",
    "drop_right_jump_sum": "right_jump_sum",
}


@dataclass(frozen=True)
class ItoResidual:
    """Term-by-term breakdown of one case; residual = lhs - (right-hand terms not dropped).

    The two integrals are the engine's results, with their convergence flags
    and error estimates.  ``agreement_delta`` is, for the right-continuous
    form, the distance of its residual from the unmutated general residual of
    the same case.
    """

    case: ItoCase
    lhs: float
    int_dhbar: IntegralResult
    int_dv_half: IntegralResult
    left_jump_terms: tuple[tuple[float, float], ...]
    right_jump_terms: tuple[tuple[float, float], ...]
    drop: frozenset = frozenset()
    agreement_delta: float = 0.0

    @property
    def integral_dhbar(self) -> float:
        return self.int_dhbar.value

    @property
    def integral_dv_half(self) -> float:
        return self.int_dv_half.value

    @property
    def converged(self) -> bool:
        return self.int_dhbar.converged and self.int_dv_half.converged

    @property
    def left_jump_sum(self) -> float:
        return math.fsum(v for _, v in self.left_jump_terms)

    @property
    def right_jump_sum(self) -> float:
        return math.fsum(v for _, v in self.right_jump_terms)

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
        value=lambda x1, x2: psi(tf.f, x2, x1),
        d1=lambda x1, x2: psi(tf.f1, x2, x1),
        d2=lambda x1, x2: 0.5 * psi(tf.f2, x2, x1),
        name=f"psi_{tf.name}",
    )
    chain = chain_rule(G, case.h.hbar, case.spec.variance, tol=case.ys_tol, max_refine=case.max_refine)
    return ItoResidual(
        case=case,
        lhs=chain.lhs,
        int_dhbar=chain.int_u1,
        int_dv_half=chain.int_u2,
        left_jump_terms=chain.left_jump_terms,
        right_jump_terms=chain.right_jump_terms,
        drop=drop,
    )


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
        p1_left = psi(tf.f1, V.left_values(jt), hbar.left_values(jt))
        atoms = math.fsum(p * hbar.delta_minus_at(s) for p, s in zip(p1_left, jt))

    jump_terms = []
    for rec in spec.records:
        s = rec.time
        if not s > 0.0:
            continue
        vl, vv, _ = V.one_sided(s)
        hl, hh, _ = hbar.one_sided(s)
        val = float(psi(tf.f, vv, hh)) - float(psi(tf.f, vl, hl)) - float(psi(tf.f1, vl, hl)) * hbar.delta_minus_at(s)
        if "drop_xleft_correction" in drop:
            val -= float(psi(tf.f2, vl, hl)) * rec.e_xleft_dminus
        jump_terms.append((s, val))

    res = replace(
        general,
        int_dhbar=replace(general.int_dhbar, atoms=atoms),
        int_dv_half=replace(general.int_dv_half, atoms=0.0),
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


def wick_exponential_paths(sim: SimulationResult, h: CameronMartinElement) -> np.ndarray:
    """exp{h - E[h^2]/2} per path, with the exact first-chaos norm."""
    if len(h.coeffs) == 0:
        return np.ones(sim.paths.shape[0])
    cols = [_column(sim.times, t) for t in h.times]
    return np.exp(sim.paths[:, cols] @ h.weights - 0.5 * h.norm_sq)


def _left_limit_paths(spec: ProcessSpec, sim: SimulationResult, t: float) -> np.ndarray:
    vals = sim.paths[:, _column(sim.times, t)]
    for k, rec in enumerate(spec.records):
        if rec.time == t:
            return vals - sim.jump_draws[:, k]
    return vals


# rows per simulation batch: about 4 MB per float array on the finest grid
_BATCH_ELEMENTS = 2**19


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean) of a sample."""
    mean = float(np.mean(values))
    return len(values), mean, float(np.sum((values - mean) ** 2))


def _merge_moments(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Chan-Golub-LeVeque merge of two (count, mean, M2) triples."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    if na == 0:
        return b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def martingale_ito_mc(case: ItoCase, grids, n_paths: int, seed: int) -> tuple[McReport, ...]:
    """Pathwise check of the discontinuous-martingale identity on nested grids.

    Each grid is joined with the discontinuity times, and every joined grid
    must be a subset of the finest one (``ValueError`` otherwise).  Paths are
    drawn only on the finest grid, in batches of about 4 MB per array, batch
    b seeded from ``SeedSequence(seed).spawn(n_batches)[b]``; every coarser
    grid reads its columns from the same draw.  The levels are therefore
    coupled, as in multilevel Monte Carlo, and memory is bounded by the batch
    whatever ``n_paths``.

    Per path and grid: forward Riemann sums of F'(X) against the Brownian
    increments, exact jump handling with the jointly drawn jump variables
    (the same on every grid, since every grid pins the discontinuity times),
    and the continuous-variance quadrature term.  Returns one report per
    grid, in the order given; its estimate is the relative L2 residual
    (discretization error; halves roughly like the square root of the step).
    """
    spec, tf = case.spec, case.test_function
    if spec.kind != "martingale":
        raise UnsupportedModelError(f"{spec.name}: pathwise identity needs a martingale model")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
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

    rows = max(1, _BATCH_ELEMENTS // len(fine))
    streams = np.random.SeedSequence(seed).spawn(-(-n_paths // rows))
    sum_inc2 = 0.0
    moments = [(0, 0.0, 0.0)] * len(levels)  # of resid^2, per level
    for b, stream in enumerate(streams):
        sim = simulate_paths(spec, fine, min(rows, n_paths - b * rows), stream)
        X, xi = sim.paths, sim.jump_draws
        f1, f2 = tf.f1(X[:, :-1]), tf.f2(X[:, :-1])

        # the increment and the jump terms do not depend on the grid
        x_left = X[:, jcols] - xi
        f1_left = tf.f1(x_left)
        jump_ito = np.sum(f1_left * xi, axis=1)
        jump = np.sum(tf.f(X[:, jcols]) - tf.f(x_left) - f1_left * xi, axis=1)
        increment = tf.f(X[:, -1]) - tf.f(X[:, 0])
        sum_inc2 += float(np.sum(increment**2))

        for lvl, (cols, jpos, dvc) in enumerate(plan):
            if cols is None:
                Xl, f1l, f2l = X, f1, f2
            else:
                Xl, f1l, f2l = X[:, cols], f1[:, cols[:-1]], f2[:, cols[:-1]]
            dB = np.diff(Xl, axis=1)
            dB[:, jpos] -= xi
            ito = np.einsum("ij,ij->i", f1l, dB) + jump_ito
            quad = 0.5 * np.einsum("ij,j->i", f2l, dvc)
            resid = increment - ito - quad - jump
            moments[lvl] = _merge_moments(moments[lvl], _moments(resid**2))

    scale = math.sqrt(sum_inc2 / n_paths)
    reports = []
    for pts, (_, mean_r2, m2_r2) in zip(levels, moments):
        rms = math.sqrt(mean_r2)
        rel = rms / scale if scale > 0 else rms
        if rms > 0:
            se_rel = math.sqrt(m2_r2 / (n_paths - 1)) / math.sqrt(n_paths) / (2.0 * rms) / max(scale, 1e-300)
        else:
            se_rel = 0.0
        reports.append(
            McReport(
                estimate=rel,
                standard_error=se_rel,
                reference=0.0,
                n_paths=n_paths,
                seed=seed,
                label=f"martingale_ito[{spec.name},{tf.name},n={len(pts) - 1}]",
            )
        )
    return tuple(reports)


def _needs_right_jump(spec: ProcessSpec) -> bool:
    return any(rec.e_dplus_sq > 0 for rec in spec.records)


def mc_s_transform(case: ItoCase, obs: Observable, n_paths: int, seed: int) -> McReport:
    """Monte Carlo pairing E[exp-wick(h) * observable] against the closed form."""
    spec, h = case.spec, case.h
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    reference = s_transform(obs, case)

    times = set(h.times) | set(spec.record_times())
    if obs.kind in ("process", "f", "f1", "f2", "f_left", "f_right"):
        times.add(obs.t)
    if obs.g is not None:
        times.update(obs.g.times)
    grid = np.array(sorted(times)) if times else np.array([spec.horizon])
    sim = simulate_paths(spec, grid, n_paths, seed)

    if obs.kind == "jump_pairing":
        j = sim.jump_draws[:, obs.jump_index]
        var = spec.records[obs.jump_index].e_dminus_sq
        values = (np.exp(obs.coeff * j - 0.5 * obs.coeff**2 * var) - 1.0) * j
        return _mc_report(values, reference, n_paths, seed, obs.label or "jump_pairing")

    weight = wick_exponential_paths(sim, h)
    tf = case.test_function
    if obs.kind == "process":
        xi = sim.paths[:, _column(grid, obs.t)]
    elif obs.kind in ("f", "f1", "f2"):
        fn = {"f": tf.f, "f1": tf.f1, "f2": tf.f2}[obs.kind]
        xi = fn(sim.paths[:, _column(grid, obs.t)])
    elif obs.kind == "f_left":
        xi = tf.f(_left_limit_paths(spec, sim, obs.t))
    elif obs.kind == "f_right":
        if _needs_right_jump(spec):
            raise UnsupportedModelError("forward jump variables are not simulated")
        xi = tf.f(sim.paths[:, _column(grid, obs.t)])
    elif obs.kind == "wick_exp":
        xi = wick_exponential_paths(sim, obs.g)
    else:
        raise ValueError(f"unknown observable kind {obs.kind!r}")
    return _mc_report(weight * xi, reference, n_paths, seed, obs.label or obs.kind)


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


def _check_integrand_span(spec: ProcessSpec, z: SimpleWickIntegrand) -> None:
    if z.times[0] != 0.0 or z.times[-1] != spec.horizon:
        raise ValueError("step integrand must span [0, horizon]")


def skorokhod_s_transform(spec: ProcessSpec, z: SimpleWickIntegrand, h: CameronMartinElement) -> float:
    """Deterministic pairing of the simple Wick-Stieltjes integral (exact sum)."""
    _check_integrand_span(spec, z)
    hbar = h.hbar
    terms = [math.exp(cm_inner(spec, z.node_coeffs[0], h)) * float(hbar.right_values(z.times[0]) - hbar.values(z.times[0]))]
    for i in range(1, len(z.times)):
        a, b = z.times[i - 1], z.times[i]
        terms.append(math.exp(cm_inner(spec, z.open_coeffs[i - 1], h)) * float(hbar.left_values(b) - hbar.right_values(a)))
        terms.append(math.exp(cm_inner(spec, z.node_coeffs[i], h)) * float(hbar.right_values(b) - hbar.left_values(b)))
    return math.fsum(terms)


def _one_sided_paths(spec: ProcessSpec, sim: SimulationResult, t: float, side: int) -> np.ndarray:
    if side < 0:
        return _left_limit_paths(spec, sim, t)
    if _needs_right_jump(spec):
        raise UnsupportedModelError("forward jump variables are not simulated")
    return sim.paths[:, _column(sim.times, t)]


def skorokhod_sample(spec: ProcessSpec, z: SimpleWickIntegrand, sim: SimulationResult) -> np.ndarray:
    """Per-path values of the simple Wick-Stieltjes integral via closed-form Wick products."""
    _check_integrand_span(spec, z)
    total = np.zeros(sim.paths.shape[0])
    f0 = z.node_coeffs[0]
    g0 = _one_sided_paths(spec, sim, z.times[0], +1) - sim.paths[:, _column(sim.times, z.times[0])]
    e0 = float(f0.hbar.right_values(z.times[0]) - f0.hbar.values(z.times[0]))
    total += wick_exponential_paths(sim, f0) * (g0 - e0)
    for i in range(1, len(z.times)):
        a, b = z.times[i - 1], z.times[i]
        fo = z.open_coeffs[i - 1]
        g_open = _one_sided_paths(spec, sim, b, -1) - _one_sided_paths(spec, sim, a, +1)
        e_open = float(fo.hbar.left_values(b) - fo.hbar.right_values(a))
        total += wick_exponential_paths(sim, fo) * (g_open - e_open)
        fn = z.node_coeffs[i]
        g_node = _one_sided_paths(spec, sim, b, +1) - _one_sided_paths(spec, sim, b, -1)
        e_node = float(fn.hbar.right_values(b) - fn.hbar.left_values(b))
        total += wick_exponential_paths(sim, fn) * (g_node - e_node)
    return total


def simple_skorokhod_mc(
    spec: ProcessSpec,
    z: SimpleWickIntegrand,
    h: CameronMartinElement,
    n_paths: int,
    seed: int,
) -> McReport:
    """Monte Carlo pairing of the sampled integral against its exact transform."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    times = set(z.times) | set(h.times) | set(spec.record_times())
    for c in z.open_coeffs + z.node_coeffs:
        times.update(c.times)
    grid = np.array(sorted(times))
    sim = simulate_paths(spec, grid, n_paths, seed)
    values = wick_exponential_paths(sim, h) * skorokhod_sample(spec, z, sim)
    reference = skorokhod_s_transform(spec, z, h)
    return _mc_report(values, reference, n_paths, seed, "simple_skorokhod")


def hermite_p2_identity_mc(
    spec: ProcessSpec,
    g: CameronMartinElement,
    h: CameronMartinElement,
    n_paths: int,
    seed: int,
) -> McReport:
    """Degree-two Hermite pairing E[(g^2 - E g^2)(h^2 - E h^2)] vs 2 E[gh]^2."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    times = sorted(set(g.times) | set(h.times))
    if not times:
        raise ValueError("need at least one support time")
    sim = simulate_paths(spec, np.array(times), n_paths, seed)
    gv = sim.paths[:, [_column(sim.times, t) for t in g.times]] @ g.weights
    hv = sim.paths[:, [_column(sim.times, t) for t in h.times]] @ h.weights
    values = (gv**2 - g.norm_sq) * (hv**2 - h.norm_sq)
    reference = 2.0 * cm_inner(spec, g, h) ** 2
    return _mc_report(values, reference, n_paths, seed, "hermite_p2")


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
