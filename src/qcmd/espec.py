"""Electron spectral toolkit.

Gauge-continuous eigendecomposition of V(X) along grids and trajectories,
smooth branches through level crossings, gap and crossing diagnostics,
ground-level forces, and the gap-flatness diagnostic kappa used by the
equilibrium bounds.  Every eigenpair comes from the families' closed forms
(``model.levels_and_slopes`` and ``model.eigenvectors``); nothing here
solves an eigenproblem.
"""

from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .errors import CrossingError
from ._util import brentq, periodic_grid

__all__ = [
    "ElectronBasisField",
    "CrossingEvent",
    "BranchField",
    "eigendecompose_field",
    "eigen_at",
    "smooth_branches",
    "loop_branches",
    "detect_gap",
    "detect_crossings",
    "ground_force",
    "ground_curvature",
    "gap_derivatives",
    "kappa",
]

_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class ElectronBasisField:
    """Eigenpairs of V(X) on a grid with a continuous eigenvector gauge.

    ``lambdas[i, n]`` is sorted ascending at each grid point; ``vectors[i, :, n]``
    is the n-th eigenvector; ``gaps[i, n]`` = lambda_n - lambda_0.
    """

    model: object = field(repr=False)
    grid: np.ndarray
    lambdas: np.ndarray
    vectors: np.ndarray
    gaps: np.ndarray


@dataclass(frozen=True)
class CrossingEvent:
    sigma: float          # crossing time along the trajectory
    X_sigma: float
    level: int
    slope: float          # |d/dt (lambda_n - lambda_0)| at sigma
    degenerate: bool = False


def eigen_at(model, X):
    """Eigenvalues (ascending) and eigenvectors (columns) of V(X) from the
    family closed forms, at one point or stacked points."""
    return model_mod.levels_and_slopes(model, X)[0], model_mod.eigenvectors(model, X)


def _torus_grid(model, grid):
    """grid as floats, checked to be 1-D, nonempty, strictly increasing and
    inside [0, L)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be 1-D, nonempty and strictly increasing")
    if grid[0] < 0.0 or grid[-1] >= model.L:
        raise ValueError("grid must lie inside [0, L)")
    return grid


def eigendecompose_field(model, grid):
    """Eigenpairs on a sorted grid with successive-overlap sign fixing."""
    grid = _torus_grid(model, grid)
    lambdas, vectors = eigen_at(model, grid)
    # the first point's columns lead with a positive entry; every later
    # column keeps a nonnegative overlap with its sign-fixed predecessor
    lead = np.abs(vectors[0]).argmax(axis=0)
    overlaps = np.einsum("ijm,ijm->im", vectors[:-1], vectors[1:])
    steps = np.empty(lambdas.shape)
    steps[0] = np.where(vectors[0][lead, np.arange(model.d)] < 0.0, -1.0, 1.0)
    steps[1:] = np.where(overlaps < 0.0, -1.0, 1.0)
    # a column's sign is the product of its steps, restarted at +1 after an
    # overlap that is exactly zero (or NaN), which fixes no sign; products of
    # +-1 are exact, so dividing by the product up to the restart is too
    signs = np.cumprod(steps, axis=0)
    restart = np.zeros(lambdas.shape, dtype=bool)
    restart[1:] = ~((overlaps < 0.0) | (overlaps > 0.0))
    last = np.maximum.accumulate(
        np.where(restart, np.arange(grid.size)[:, None], 0), axis=0)
    signs *= np.where(last > 0, np.take_along_axis(signs, last, axis=0), 1.0)
    vectors *= signs[:, None, :]
    gaps = lambdas - lambdas[:, :1]
    return ElectronBasisField(model=model, grid=grid, lambdas=lambdas,
                              vectors=vectors, gaps=gaps)


def detect_gap(field):
    """Uniform lower bound on the first excited gap over the grid."""
    if field.model.d < 2:
        raise ValueError("detect_gap needs d >= 2")
    return float(field.gaps[:, 1].min())


def detect_crossings(model, trajectory, c_min=1e-8, sigma_tol=1e-10, gap_tol=1e-6):
    """Locate ground-level crossings lambda_n = lambda_0 along a trajectory.

    Candidate brackets come from local minima of the adiabatic gap; each is
    refined by bisection on the sign of the gap's time derivative (the gap is
    |smooth| at a crossing, so the slope changes sign exactly at it).  Events
    with slope below ``c_min``, or two levels crossing within ``sigma_tol``
    of the same time, are flagged degenerate.  A model whose gap floor
    exceeds ``gap_tol`` has no crossing, and no level is evaluated.
    """
    if model.gap_floor > gap_tol:
        return []
    t = np.asarray(trajectory.t, dtype=float)
    X = np.asarray(trajectory.X, dtype=float).reshape(len(t), -1)[:, 0]
    events = []
    lam_path = model_mod.levels_and_slopes(model, X)[0]
    dt = np.median(np.diff(t)) if t.size > 1 else 0.0
    for level in range(1, model.d):
        g = lam_path[:, level] - lam_path[:, 0]
        minima = np.flatnonzero((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:])) + 1
        for i in minima:
            one_sided = max(abs(g[i] - g[i - 1]), abs(g[i + 1] - g[i])) / max(dt, 1e-300)
            if g[i] > max(10.0 * gap_tol, 2.0 * one_sided * dt):
                continue
            lo, hi = t[i - 1], t[i + 1]
            h = max(1e-6 * (hi - lo), 1e-12)
            hs = max(dt, 10.0 * h)
            # the rows around every time read below, [lo - hs - h, hi + hs + h],
            # and one more on each side: np.interp on them gives the bits of
            # the whole record at a small part of its cost
            rows = slice(max(np.searchsorted(t, lo - hs - h) - 1, 0),
                         np.searchsorted(t, hi + hs + h, side="right") + 1)
            t_near, X_near = t[rows], X[rows]

            def gap_at(time):
                lam = model_mod.levels_and_slopes(model, np.interp(time, t_near, X_near))[0]
                return lam[level] - lam[0]

            def slope_sign(time):
                return gap_at(time + h) - gap_at(time - h)

            try:
                if slope_sign(lo) < 0.0 < slope_sign(hi):
                    sigma = brentq(slope_sign, lo, hi, xtol=1e-13)
                else:
                    from scipy.optimize import minimize_scalar  # scipy loads on first use

                    res = minimize_scalar(gap_at, bounds=(lo, hi), method="bounded",
                                          options={"xatol": 1e-13})
                    sigma = float(res.x)
            except ValueError:
                continue
            if gap_at(sigma) > gap_tol:
                continue
            slope = (gap_at(sigma - hs) + gap_at(sigma + hs)) / (2.0 * hs)
            events.append(CrossingEvent(sigma=float(sigma),
                                        X_sigma=float(np.interp(sigma, t_near, X_near)),
                                        level=level, slope=float(slope),
                                        degenerate=bool(slope < c_min)))
    events.sort(key=lambda e: e.sigma)
    # simultaneous crossings of two levels are rejected as degenerate
    flag = [e.degenerate for e in events]
    for i in range(len(events) - 1):
        if (events[i + 1].sigma - events[i].sigma < sigma_tol
                and events[i].level != events[i + 1].level):
            flag[i] = flag[i + 1] = True
    return [CrossingEvent(e.sigma, e.X_sigma, e.level, e.slope, f)
            for e, f in zip(events, flag)]


@dataclass(frozen=True)
class BranchField:
    """Eigenvalue curves continued smoothly around the torus.

    ``mu[i, j]`` is the eigenvalue of smooth branch j at grid point i (branch
    j coincides with sorted index j at the widest-gap starting point);
    ``permutation[j]`` is the branch reached after one full circuit, so its
    cycles are the closed loops of the adiabatic continuation.
    """

    grid: np.ndarray
    mu: np.ndarray
    sorted_index: np.ndarray
    permutation: np.ndarray
    start: int = 0

    @property
    def launch(self):
        """Where loops are launched: the starting point, of widest first gap."""
        return float(self.grid[self.start])

    def ground_loop(self):
        """The loop through branch 0, as every loop caller reads it: the
        branches it visits (the cycle of ``permutation`` through 0), their
        profiles ``mu[:, cycle].T`` (one row a branch), and the quantization
        index offset, a quarter per label swap along the loop (each crossing
        pass adds pi/2 to the loop phase)."""
        cycle = [0]
        while int(self.permutation[cycle[-1]]) != 0:
            cycle.append(int(self.permutation[cycle[-1]]))
        order = np.r_[np.arange(self.start, self.grid.size), np.arange(0, self.start)]
        passes = sum(int(np.count_nonzero(np.diff(self.sorted_index[order, j])))
                     for j in cycle)
        return cycle, self.mu[:, cycle].T, 0.25 * passes


def smooth_branches(model, grid):
    """Continue the sorted levels smoothly around the torus, on a sorted grid
    inside [0, L); labels may swap at crossings.

    Inside (0, L) every sorted level is a smooth branch, and across X = L = 0
    the levels undergo the family's ``seam`` permutation, so branch j is
    sorted level j from the widest-gap start to L and level seam[j] from 0
    up to the start, where it closes on branch seam[j].
    """
    grid = _torus_grid(model, grid)
    lam = model_mod.levels_and_slopes(model, grid)[0]
    gaps1 = lam[:, 1] - lam[:, 0] if model.d > 1 else np.ones(grid.size)
    # gaps within rounding of the widest count as equal, so that a tie of
    # exact arithmetic goes to the first point
    start = int(np.argmax(gaps1 >= gaps1.max() * (1.0 - 1e-12)))
    seam = np.array(model.seam)
    sorted_index = np.empty(lam.shape, dtype=int)
    sorted_index[start:] = np.arange(model.d)
    sorted_index[:start] = seam
    mu = np.take_along_axis(lam, sorted_index, axis=1)
    return BranchField(grid=grid, mu=mu, sorted_index=sorted_index,
                       permutation=seam, start=start)


def loop_branches(model):
    """Smooth branches on the 512-point torus grid that every loop launches from."""
    return smooth_branches(model, periodic_grid(model.L, 512))


def ground_force(model, X):
    """-d(lambda_0)/dX from the closed-form slope; a degenerate ground level
    makes the force undefined."""
    lam, slopes = model_mod.levels_and_slopes(model, float(X))
    if model.d > 1 and lam[1] - lam[0] < _DEGENERACY_TOL:
        raise CrossingError(f"lambda_0 is degenerate at X = {X}; force undefined")
    return -float(slopes[0])


def _ground_couplings(model, X):
    """Levels, eigenvectors and the couplings <v_n| dV/dX |v_0>, n >= 1, at a
    scalar X or a stack (d >= 2), each as the stacked (v_n dV/dX) v_0, which
    gives the one-point bits (einsum does not); a degenerate ground raises."""
    lam, vec = eigen_at(model, X)
    closed = lam[..., 1] - lam[..., 0] < _DEGENERACY_TOL
    if closed.any():
        at = np.asarray(X, dtype=float)[closed][0]
        raise CrossingError(f"lambda_0 is degenerate at X = {at}; couplings undefined")
    dV = model_mod.potential_derivative(model, X)
    rows, v0 = np.swapaxes(vec, -1, -2), vec[..., :, :1]
    couplings = [((rows[..., n:n + 1, :] @ dV) @ v0)[..., 0, 0] for n in range(1, model.d)]
    return lam, vec, couplings


def ground_curvature(model, X):
    """d2(lambda_0)/dX2 by second-order eigenvalue perturbation theory: a float
    for a scalar X, an array of its shape for a stack of X, with the one-point
    bits at every point; a degenerate ground level raises CrossingError."""
    d2V = model_mod.potential_second_derivative(model, X)
    if model.d == 1:
        out = d2V[..., 0, 0]
    else:
        lam, vec, couplings = _ground_couplings(model, X)
        v0 = vec[..., :, :1]
        out = ((np.swapaxes(v0, -1, -2) @ d2V) @ v0)[..., 0, 0]
        for n, coupling in enumerate(couplings, start=1):
            out = out + 2.0 * coupling * coupling / (lam[..., 0] - lam[..., n])
    return float(out) if np.ndim(X) == 0 else out


def gap_derivatives(model, X):
    """(gaps, d(gaps)/dX) for the excited levels at X, from the level slopes."""
    lam, slopes = model_mod.levels_and_slopes(model, X)
    return lam[..., 1:] - lam[..., :1], slopes[..., 1:] - slopes[..., :1]


def kappa(model, domain, X_c, T=None, n_x=129, n_s=33):
    """Gap-flatness diagnostic over a domain, relative to the anchor X_c.

    kappa = max over X in domain and s in [0,1] of
    |sum_{j>0} d(gap_j)/dX(Y) (X - X_c) / gap_j(Y)|, Y = s X + (1-s) X_c.
    Also returns T / min gap over the sampled points.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (lo <= X_c <= hi):
        raise ValueError("X_c must lie inside the domain")
    if model.d < 2:
        return 0.0, 0.0
    xs = np.linspace(lo, hi, n_x)
    ss = np.linspace(0.0, 1.0, n_s)
    Y = ss * xs[:, None] + (1.0 - ss) * X_c        # (n_x, n_s) segment points
    gaps, dgaps = gap_derivatives(model, Y)
    closed = gaps.min(axis=-1) <= _DEGENERACY_TOL
    if closed.any():
        raise CrossingError(f"level crossing inside kappa domain at X = {Y[closed][0]}")
    ratio = np.sum(dgaps / gaps, axis=-1)
    value = float(np.abs(ratio * (xs - X_c)[:, None]).max())
    if T is None:
        T = model.T
    return value, float(T / gaps.min())
