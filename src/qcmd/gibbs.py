"""Canonical-ensemble electron sampling and equilibrium observables.

The electron coefficients gamma live on the unit sphere of C^d with density
proportional to exp(-sum_{j>0} gap_j |gamma_j|^2 / T).  A Gaussian proposal
(ground component at scale one, excited components at the unconstrained
variances) is normalized to the sphere and corrected by an independence
Metropolis step; marginal-mass ratios come from thermodynamic integration of
the sampled drift.
"""

from dataclasses import dataclass, field

import numpy as np

from . import dynamics, espec
from . import model as model_mod
from .errors import BoundViolationError, CrossingError
from ._util import periodic_grid, stream_rng

__all__ = [
    "GibbsSamples",
    "GibbsReport",
    "CorrectedPotential",
    "EquilibriumReport",
    "sample_electron_coefficients",
    "marginal_ratio",
    "gibbs_observable",
    "corrected_potential",
    "equilibrium_compare",
]


@dataclass(frozen=True)
class GibbsSamples:
    """Metropolis-corrected coefficient samples at one conditioning position."""

    gamma: np.ndarray          # (n, d) complex, unit rows
    X: float
    ess: float
    acceptance: float
    proposal_log: tuple = None   # (logw_current, logw_proposal, accepted)


def _check_temperature(T, what):
    # written so that NaN and inf fail it
    if not (np.isfinite(T) and T > 0.0):
        raise ValueError(f"{what} needs a finite T > 0, got {T}")


def _check_samples(n_samples):
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")


def _draw_sphere(gaps, T, n, rng):
    d = gaps.size + 1
    var = np.concatenate([[1.0], T / gaps])          # complex variances E|gamma_j|^2
    scale = np.sqrt(var / 2.0)
    g = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) * scale
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    S = (np.abs(u[:, 1:]) ** 2 @ gaps) / T
    logw = -S + d * np.log(np.abs(u[:, 0]) ** 2 + S)
    return u, logw


def sample_electron_coefficients(gaps, T, n_samples, rng, X=0.0, log_pairs=False):
    """Sphere-constrained coefficient samples at temperature T.

    ``gaps`` are the excited-level gaps at the conditioning position (all
    positive).  Returns unit-norm samples after the Metropolis correction,
    with the proposal effective sample size and acceptance rate reported.
    """
    gaps = np.asarray(gaps, dtype=float)
    _check_temperature(T, "sampling")
    _check_samples(n_samples)
    if gaps.size and gaps.min() <= 0.0:
        raise CrossingError("all excited gaps must be positive")
    u, logw = _draw_sphere(gaps, T, n_samples + 1, rng)
    log_uniform = np.log(rng.uniform(size=n_samples))
    idx = np.empty(n_samples, dtype=int)
    logw_cur = np.empty(n_samples)
    accept = np.empty(n_samples, dtype=bool)
    cur = 0
    for i in range(n_samples):
        logw_cur[i] = logw[cur]
        accept[i] = log_uniform[i] <= logw[i + 1] - logw[cur]
        if accept[i]:
            cur = i + 1
        idx[i] = cur
    w = np.exp(logw - logw.max())
    ess = float(w.sum() ** 2 / np.sum(w ** 2))
    pairs = None
    if log_pairs:
        pairs = (logw_cur, logw[1:].copy(), accept)
    return GibbsSamples(gamma=u[idx], X=float(X), ess=ess,
                        acceptance=float(accept.mean()), proposal_log=pairs)


def _sphere_moments(gaps, T, n_samples, rng):
    """Self-normalized importance estimate of E[|u_j|^2] for the excited levels.

    The proposal of ``_draw_sphere`` from the same normals (a, b), held as
    real squares with one contiguous row per level: |g_j|^2 = (a_j^2 +
    b_j^2) var_j / 2 and |u_j|^2 = |g_j|^2 / sum_k |g_k|^2.
    """
    d = gaps.size + 1
    a = rng.standard_normal((n_samples, d))
    b = rng.standard_normal((n_samples, d))
    a *= a
    a += b * b
    v = a.T.copy()
    v *= np.concatenate([[0.5], 0.5 * T / gaps])[:, None]
    v /= v.sum(axis=0)
    S = (gaps / T) @ v[1:]
    logw = d * np.log(v[0] + S) - S
    w = np.exp(logw - logw.max())
    wsum = w.sum()
    mean = v[1:] @ w / wsum
    # delta-method variance of the ratio estimator
    resid = w * (v[1:] - mean[:, None])
    var = np.einsum("ij,ij->i", resid, resid) / wsum ** 2
    return mean, np.sqrt(var)


def marginal_ratio(model, X, X_c, T, n_samples=20000, rng=None, n_s=9,
                   check=True, seed=0):
    """log r(X) - log r(X_c) by thermodynamic integration, with its MC error.

    The drift d(log r)/dY = -(1/T) sum_j d(gap_j)/dY E_Y[|u_j|^2] is sampled
    on Gauss-Legendre nodes of the segment.  When ``check`` is on, the value
    is asserted against the kappa bound (plus 3 sigma MC slack).
    """
    _check_temperature(T, "marginal_ratio")
    _check_samples(n_samples)
    if rng is None:
        rng = stream_rng(seed)
    X, X_c = float(X), float(X_c)
    if X == X_c:
        return 0.0, 0.0
    nodes, weights = np.polynomial.legendre.leggauss(n_s)
    s_nodes = 0.5 * (nodes + 1.0)
    s_weights = 0.5 * weights
    ys = X_c + s_nodes * (X - X_c)
    gaps_all, dgaps_all = espec.gap_derivatives(model, ys)
    total = 0.0
    var = 0.0
    for y, w, gaps, dgaps in zip(ys, s_weights, gaps_all, dgaps_all):
        if gaps.min() <= 1e-12:
            raise CrossingError(f"crossing on the integration segment at X = {y}")
        mom, sig = _sphere_moments(gaps, T, n_samples, rng)
        drift = -(1.0 / T) * float(dgaps @ mom) * (X - X_c)
        total += w * drift
        var += (w * (X - X_c) / T) ** 2 * float(dgaps ** 2 @ sig ** 2)
    sigma = float(np.sqrt(var))
    if check:
        kap, _ = espec.kappa(model, (min(X, X_c), max(X, X_c)), X_c, T=T)
        if abs(total) > kap + 3.0 * sigma + 1e-12:
            raise BoundViolationError(
                f"|log ratio| = {abs(total):.3e} exceeds kappa + 3 sigma = {kap + 3 * sigma:.3e}")
    return float(total), sigma


@dataclass(frozen=True)
class GibbsReport:
    value: float               # observable with the marginal-mass weight
    value_plain: float         # r-free value
    difference: float
    sigma: float
    grid: np.ndarray = field(repr=False, default=None)
    log_r: np.ndarray = field(repr=False, default=None)


def _drift_sensitivity(resid, h):
    """d value / d drift_k = sum_i resid_i d log_r_i / d drift_k for every node k.

    The cumulative trapezoid gives d log_r_i / d drift_k = h/2 at i = k > 0
    and h at i > k (h/2 at every i > 0 for k = 0), so the sum is a reverse
    cumulative sum of ``resid``.
    """
    after = np.zeros(resid.size)        # sum of resid over i > k
    after[:-1] = np.cumsum(resid[:0:-1])[::-1]
    coeff = h * (after + 0.5 * resid)
    coeff[0] = 0.5 * h * after[0]
    return coeff


def gibbs_observable(model, g, T, n_grid=65, n_samples=20000, rng=None, seed=0):
    """Equilibrium position observable with and without the marginal mass r(X).

    Quadrature of g e^(-lambda_0/T) r(X) over the torus; log r is integrated
    once around from the drift sampled at every grid point (cached), so all
    ratios share one reference point.
    """
    _check_temperature(T, "gibbs_observable")
    _check_samples(n_samples)
    if rng is None:
        rng = stream_rng(seed)
    grid = periodic_grid(model.L, n_grid)
    lam0 = model_mod.levels_and_slopes(model, grid)[0][:, 0]
    drift = np.zeros(n_grid)
    node_sigma = np.zeros(n_grid)
    if model.d > 1:
        gaps_all, dgaps_all = espec.gap_derivatives(model, grid)
        for i, (x, gaps, dgaps) in enumerate(zip(grid, gaps_all, dgaps_all)):
            if gaps.min() <= 1e-12:
                raise CrossingError(f"crossing in the domain at X = {x}")
            mom, sig = _sphere_moments(gaps, T, n_samples, rng)
            drift[i] = -(1.0 / T) * float(dgaps @ mom)
            node_sigma[i] = np.sqrt(float(dgaps ** 2 @ sig ** 2)) / T
    h = model.L / n_grid
    # cumulative trapezoid of the drift from the first grid point
    log_r = np.zeros(n_grid)
    log_r[1:] = np.cumsum(0.5 * h * (drift[1:] + drift[:-1]))
    gx = np.asarray(g(grid), dtype=float)

    def weighted(logr):
        lw = -lam0 / T + logr
        w = np.exp(lw - lw.max())
        return float((gx * w).sum() / w.sum())

    value = weighted(log_r)
    value_plain = weighted(np.zeros(n_grid))
    # propagate independent node errors through the cumulative integral
    w_full = np.exp(-lam0 / T + log_r - (-lam0 / T + log_r).max())
    w_norm = w_full / w_full.sum()
    coeff = _drift_sensitivity(w_norm * (gx - value), h)
    sigma = float(np.sqrt(np.sum(coeff ** 2 * node_sigma ** 2)))
    return GibbsReport(value=value, value_plain=value_plain,
                       difference=value - value_plain, sigma=sigma,
                       grid=grid, log_r=log_r)


@dataclass(frozen=True)
class CorrectedPotential:
    """Ground surface plus the temperature-dependent gap-trace correction.

    ``force`` evaluates it on arrays; ``dynamics`` runs a few-lane chain
    with this force from ``model``, ``T`` and ``trace_coefficient`` over
    Python floats instead, without calling it.
    """

    grid: np.ndarray
    values: np.ndarray
    T: float
    trace_coefficient: float
    diagnostics: dict
    model: object = field(repr=False, default=None)

    def potential(self, X):
        """The corrected potential at one point (a float) or at stacked points."""
        lam = model_mod.levels_and_slopes(self.model, X)[0]
        gaps = lam[..., 1:] - lam[..., :1]
        value = lam[..., 0] + self.trace_coefficient * self.T * np.sum(np.log(gaps), axis=-1)
        return float(value) if np.ndim(value) == 0 else value

    def force(self, X):
        """Forces (B,) at the positions X (B,) of a lane ensemble, lane by lane."""
        lam, slopes = model_mod.levels_and_slopes(self.model,
                                                  np.atleast_1d(np.asarray(X, dtype=float)))
        gaps = lam[:, 1:] - lam[:, :1]
        dgaps = slopes[:, 1:] - slopes[:, :1]
        return -slopes[:, 0] - self.trace_coefficient * self.T * np.sum(dgaps / gaps, axis=1)


def corrected_potential(basis, T, trace_coefficient=0.5):
    """lambda_0(X) + coefficient * T * sum_{n>0} log gap_n(X) on the basis grid.

    The default coefficient 1/2 gives the half-trace form lambda_0 +
    (T/2) sum log gap_n; coefficient 1.0 matches the drift of the sampled
    sphere ensemble.  Returns the grid field, a force callable (analytic
    log-derivative on the closed-form level slopes), and the weak-gap
    diagnostics (max T/gap_1, max sum |dgap|/gap, max sum |dgap| gap^-2
    log(1/gap)).
    """
    model = basis.model
    if model.d < 2:
        raise ValueError("corrected_potential needs excited levels (d >= 2)")
    gaps = basis.gaps[:, 1:]
    if gaps.min() <= 0.0:
        raise CrossingError("crossing on the grid: log correction diverges")
    values = basis.lambdas[:, 0] + trace_coefficient * T * np.sum(np.log(gaps), axis=1)
    dgaps = espec.gap_derivatives(model, basis.grid)[1]
    diag = {
        "t_over_gap": float(np.max(T / gaps[:, 0])),
        "trace_ratio": float(np.max(np.sum(np.abs(dgaps) / gaps, axis=1))),
        "weak_kappa": float(np.max(np.sum(np.abs(dgaps) / gaps ** 2
                                          * np.log(1.0 / gaps), axis=1))),
    }
    return CorrectedPotential(grid=basis.grid.copy(), values=values, T=float(T),
                              trace_coefficient=float(trace_coefficient),
                              diagnostics=diag, model=model)


@dataclass(frozen=True)
class EquilibriumReport:
    gibbs_value: float
    gibbs_plain: float
    gibbs_sigma: float
    kappa: float
    scheme_values: dict
    scheme_errors: dict
    differences: dict
    passes: dict
    seed: int


def equilibrium_compare(model, g, T, schemes=("langevin", "smoluchowski"),
                        budget=200_000, dt=0.05, rng=None, seed=0, K=None,
                        n_grid=65, n_samples=20000, burn_frac=0.1, force=None):
    """Long-run stochastic averages of g against the Gibbs quadrature.

    Passes when |difference| <= kappa + 3 * combined MC error, with kappa
    minimized over anchor points as in the gap-flatness condition.
    """
    if K is None:
        K = model.K
    master = seed
    report = gibbs_observable(model, g, T, n_grid=n_grid, n_samples=n_samples,
                              rng=stream_rng(master, 1))
    if model.d > 1:
        kap = min(espec.kappa(model, (0.0, model.L * (1.0 - 1e-9)), xc, T=T)[0]
                  for xc in np.linspace(0.0, model.L * 0.9, 7))
    else:
        kap = 0.0
    values, errors, diffs, passes = {}, {}, {}, {}
    for j, scheme in enumerate(schemes):
        rng_s = stream_rng(master, 10 + j)
        init = dynamics.PhaseState.make(model.L / 3.0, 0.0)
        traj = dynamics.simulate(model, init, scheme, T_final=budget * dt, dt=dt,
                                 rng=rng_s, T=T, K=K, force=force,
                                 record_every=max(1, budget // 100_000))
        mean, err = dynamics.time_average(traj, g, burn_in=burn_frac * budget * dt)
        values[scheme] = mean
        errors[scheme] = err
        diffs[scheme] = mean - report.value
        passes[scheme] = abs(diffs[scheme]) <= kap + 3.0 * np.hypot(err, report.sigma)
    return EquilibriumReport(gibbs_value=report.value, gibbs_plain=report.value_plain,
                             gibbs_sigma=report.sigma, kappa=float(kap),
                             scheme_values=values, scheme_errors=errors,
                             differences=diffs, passes=passes, seed=seed)
