"""Electron spectral toolkit.

Gauge-continuous eigendecomposition of V(X) along grids and trajectories,
gap and crossing diagnostics, level slopes and ground-level forces from the
families' closed forms, and the gap-flatness diagnostic kappa used by the
equilibrium bounds.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import model as model_mod
from .errors import CrossingError
from ._util import periodic_grid

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
    "level_slopes",
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


def _eigh(V, X):
    """Stacked symmetric eigensolve of V = V(X); a failure becomes a RuntimeError."""
    try:
        return np.linalg.eigh(V)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge at X = {X}") from exc


def eigen_at(model, X):
    """Eigenvalues (ascending) and eigenvectors of V(X), at one point or stacked points."""
    return _eigh(model_mod.evaluate_potential(model, X), X)


def eigenvalues_along(model, X_values):
    """Ascending eigenvalues at many points, from the family closed form."""
    return model_mod.eigenvalues_closed_form(model, X_values)


def eigendecompose_field(model, grid):
    """Eigenpairs on a sorted grid with successive-overlap sign fixing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be 1-D and strictly increasing")
    if grid[0] < 0.0 or grid[-1] >= model.L:
        raise ValueError("grid must lie inside [0, L)")
    lambdas, vectors = eigen_at(model, grid)
    # the first point's columns lead with a positive entry; every later
    # column keeps a nonnegative overlap with its sign-fixed predecessor
    lead = np.abs(vectors[0]).argmax(axis=0)
    overlaps = np.einsum("ijm,ijm->im", vectors[:-1], vectors[1:])
    signs = np.empty(lambdas.shape)
    signs[0] = np.where(vectors[0][lead, np.arange(model.d)] < 0.0, -1.0, 1.0)
    for i in range(1, grid.size):
        signs[i] = np.where(signs[i - 1] * overlaps[i - 1] < 0.0, -1.0, 1.0)
    vectors *= signs[:, None, :]
    gaps = lambdas - lambdas[:, :1]
    return ElectronBasisField(model=model, grid=grid, lambdas=lambdas,
                              vectors=vectors, gaps=gaps)


def detect_gap(field):
    """Uniform lower bound on the first excited gap over the grid."""
    if field.model.d < 2:
        raise ValueError("detect_gap needs d >= 2")
    return float(field.gaps[:, 1].min())


def detect_crossings(field, trajectory, c_min=1e-8, sigma_tol=1e-10, gap_tol=1e-6):
    """Locate ground-level crossings lambda_n = lambda_0 along a trajectory.

    Candidate brackets come from local minima of the adiabatic gap; each is
    refined by bisection on the sign of the gap's time derivative (the gap is
    |smooth| at a crossing, so the slope changes sign exactly at it).  Events
    with slope below ``c_min``, or two levels crossing within ``sigma_tol``
    of the same time, are flagged degenerate.
    """
    model = field.model
    t = np.asarray(trajectory.t, dtype=float)
    X = np.asarray(trajectory.X, dtype=float).reshape(len(t), -1)[:, 0]

    def gap_at(time, level):
        x = np.interp(time, t, X)
        lam = eigenvalues_along(model, [x])[0]
        return lam[level] - lam[0]

    events = []
    lam_path = eigenvalues_along(model, X)
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

            def slope_sign(time):
                return gap_at(time + h, level) - gap_at(time - h, level)

            try:
                if slope_sign(lo) < 0.0 < slope_sign(hi):
                    sigma = brentq(slope_sign, lo, hi, xtol=1e-13)
                else:
                    res = minimize_scalar(lambda s: gap_at(s, level),
                                          bounds=(lo, hi), method="bounded",
                                          options={"xatol": 1e-13})
                    sigma = float(res.x)
            except ValueError:
                continue
            g_min = gap_at(sigma, level)
            if g_min > gap_tol:
                continue
            hs = max(dt, 10.0 * h)
            slope = (gap_at(sigma - hs, level) + gap_at(sigma + hs, level)) / (2.0 * hs)
            events.append(CrossingEvent(sigma=float(sigma),
                                        X_sigma=float(np.interp(sigma, t, X)),
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
    """Eigenvalue curves continued smoothly (by eigenvector overlap) around the torus.

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

    def cycle_of(self, j=0):
        """The branch indices traversed by the loop through branch j."""
        cycle = [j]
        nxt = int(self.permutation[j])
        while nxt != j:
            cycle.append(nxt)
            nxt = int(self.permutation[nxt])
        return cycle

    def crossing_passes(self, cycle):
        """Label swaps along one full loop; each adds pi/2 to the loop phase."""
        n = self.grid.size
        order = np.r_[np.arange(self.start, n), np.arange(0, self.start)]
        changes = 0
        for j in cycle:
            seq = self.sorted_index[order, j]
            changes += int(np.count_nonzero(np.diff(seq)))
        return changes


def _greedy_match(ov):
    """For each branch (column of ov) the sorted level (row) of largest |overlap|;
    branches with the strongest best overlap choose first, each level once."""
    best = np.abs(ov).argmax(axis=0)
    if len(set(best.tolist())) == best.size:
        return best             # no two branches want the same level
    d = ov.shape[1]
    assign = np.full(d, -1, dtype=int)
    taken = set()
    for j in np.argsort(-np.max(np.abs(ov), axis=0)):
        for c in np.argsort(-np.abs(ov[:, j])):
            if int(c) not in taken:
                assign[j] = int(c)
                taken.add(int(c))
                break
    return assign


def _compose_prefixes(maps):
    """Row t is maps[t] o maps[t - 1] o ... o maps[0], by doubling."""
    out = maps.copy()
    step = 1
    while step < len(out):
        out[step:] = np.take_along_axis(out[step:], out[:-step], axis=1)
        step *= 2
    return out


def smooth_branches(model, grid):
    """Continue eigenpairs smoothly around the torus; labels may swap at crossings.

    Matching reads only |overlap|, which no sign fix of a neighbour changes,
    so the overlaps of every pair of neighbouring points come from one
    product, and each point's match of its sorted levels to the previous
    point's is composed onto the branch assignment; ``_greedy_match`` runs
    only where two levels want the same partner.
    """
    grid = np.asarray(grid, dtype=float)
    n, d = grid.size, model.d
    lam_all, vec_all = eigen_at(model, grid)
    gaps1 = lam_all[:, 1] - lam_all[:, 0] if d > 1 else np.ones(n)
    start = int(np.argmax(gaps1))
    order = np.r_[np.arange(start, n), np.arange(0, start)]
    walk = vec_all[np.r_[order, start]]    # around the loop and back to the start
    ov = np.abs(walk[1:].transpose(0, 2, 1) @ walk[:-1])   # (step, here, before)
    best = ov.argmax(axis=1)               # the best level here of each level before
    tie = (np.diff(np.sort(best, axis=1), axis=1) == 0).any(axis=1)
    assign = np.empty((n + 1, d), dtype=int)    # sorted level of each branch, per step
    assign[0] = np.arange(d)
    t = 0
    for tied in np.r_[np.flatnonzero(tie), n]:
        assign[t + 1:tied + 1] = _compose_prefixes(best[t:tied])[:, assign[t]]
        if tied < n:
            assign[tied + 1] = _greedy_match(ov[tied][:, assign[tied]])
        t = tied + 1
    sorted_index = np.empty((n, d), dtype=int)
    sorted_index[order] = assign[:n]
    mu = np.take_along_axis(lam_all, sorted_index, axis=1)
    return BranchField(grid=grid, mu=mu, sorted_index=sorted_index,
                       permutation=assign[n], start=start)


def loop_branches(model):
    """Smooth branches on the 512-point torus grid that every loop launches from."""
    return smooth_branches(model, periodic_grid(model.L, 512))


def ground_force(model, X):
    """-d(lambda_0)/dX from the closed-form slope; a degenerate ground level
    makes the force undefined."""
    lam, slopes = level_slopes(model, float(X))
    if model.d > 1 and lam[1] - lam[0] < _DEGENERACY_TOL:
        raise CrossingError(f"lambda_0 is degenerate at X = {X}; force undefined")
    return -float(slopes[0])


def ground_curvature(model, X):
    """d2(lambda_0)/dX2 by second-order eigenvalue perturbation theory."""
    if model.d == 1:
        return float(model_mod.potential_second_derivative(model, X)[0, 0])
    V, dV = model_mod.potential_and_derivative(model, X)
    lam, vec = _eigh(V, X)
    d2V = model_mod.potential_second_derivative(model, X)
    v0 = vec[:, 0]
    out = float(v0 @ d2V @ v0)
    for n in range(1, model.d):
        coupling = float(vec[:, n] @ dV @ v0)
        out += 2.0 * coupling * coupling / (lam[0] - lam[n])
    return out


def level_slopes(model, X):
    """Ascending eigenvalues of V(X) and their slopes d(lambda_n)/dX from the
    family closed form, at one point or stacked points (no degeneracy check)."""
    return model_mod.levels_and_slopes(model, X)


def gap_derivatives(model, X):
    """(gaps, d(gaps)/dX) for the excited levels at X, from the level slopes."""
    lam, slopes = level_slopes(model, X)
    return lam[..., 1:] - lam[..., :1], slopes[..., 1:] - slopes[..., :1]


def kappa(field, domain, X_c, T=None, n_x=129, n_s=33):
    """Gap-flatness diagnostic over a domain, relative to the anchor X_c.

    kappa = max over X in domain and s in [0,1] of
    |sum_{j>0} d(gap_j)/dX(Y) (X - X_c) / gap_j(Y)|, Y = s X + (1-s) X_c.
    Also returns T / min gap over the sampled points.
    """
    model = field.model
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
