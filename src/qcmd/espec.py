"""Electron spectral toolkit.

Gauge-continuous eigendecomposition of V(X) along grids and trajectories,
gap and crossing diagnostics, Hellmann-Feynman forces, and the gap-flatness
diagnostic kappa used by the equilibrium bounds.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import model as model_mod
from .errors import CrossingError

__all__ = [
    "ElectronBasisField",
    "CrossingEvent",
    "BranchField",
    "eigendecompose_field",
    "eigen_at",
    "smooth_branches",
    "detect_gap",
    "detect_crossings",
    "hellmann_feynman",
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
    """Eigenvalues (ascending) and eigenvectors of V(X) at one point."""
    try:
        lam, vec = np.linalg.eigh(model_mod.evaluate_potential(model, X))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge at X = {X}") from exc
    return lam, vec


def eigenvalues_along(model, X_values):
    """Ascending eigenvalues at many points, using closed forms when available."""
    X_values = np.asarray(X_values, dtype=float)
    closed = model_mod.eigenvalues_closed_form(model, 0.0)
    if closed is not None:
        return np.array([model_mod.eigenvalues_closed_form(model, x) for x in X_values])
    return np.array([eigen_at(model, x)[0] for x in X_values])


def eigendecompose_field(model, grid):
    """Eigenpairs on a sorted grid with successive-overlap sign fixing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be 1-D and strictly increasing")
    if grid[0] < 0.0 or grid[-1] >= model.L:
        raise ValueError("grid must lie inside [0, L)")
    n, d = grid.size, model.d
    lambdas = np.empty((n, d))
    vectors = np.empty((n, d, d))
    for i, x in enumerate(grid):
        lam, vec = eigen_at(model, x)
        if i == 0:
            for m in range(d):
                lead = np.argmax(np.abs(vec[:, m]))
                if vec[lead, m] < 0.0:
                    vec[:, m] = -vec[:, m]
        else:
            overlaps = np.einsum("jm,jm->m", vectors[i - 1], vec)
            vec[:, overlaps < 0.0] *= -1.0
        lambdas[i] = lam
        vectors[i] = vec
    gaps = lambdas - lambdas[:, :1]
    return ElectronBasisField(model=model, grid=grid, lambdas=lambdas,
                              vectors=vectors, gaps=gaps)


def detect_gap(field):
    """Uniform lower bound on the first excited gap over the grid."""
    if field.model.d < 2:
        raise ValueError("detect_gap needs d >= 2")
    return float(field.gaps[:, 1].min())


def _gap_along_path(model, t, X, level):
    lam = eigenvalues_along(model, X)
    return lam[:, level] - lam[:, 0]


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
    for level in range(1, model.d):
        g = _gap_along_path(model, t, X, level)
        dt = np.median(np.diff(t)) if t.size > 1 else 0.0
        for i in range(1, len(t) - 1):
            if not (g[i] <= g[i - 1] and g[i] <= g[i + 1]):
                continue
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


def smooth_branches(model, grid):
    """Continue eigenpairs smoothly around the torus; labels may swap at crossings."""
    grid = np.asarray(grid, dtype=float)
    n, d = grid.size, model.d
    lam_all = np.empty((n, d))
    vec_all = np.empty((n, d, d))
    for i, x in enumerate(grid):
        lam_all[i], vec_all[i] = eigen_at(model, x)
    gaps1 = lam_all[:, 1] - lam_all[:, 0] if d > 1 else np.ones(n)
    start = int(np.argmax(gaps1))
    order = np.r_[np.arange(start, n), np.arange(0, start)]
    sorted_index = np.empty((n, d), dtype=int)
    mu = np.empty((n, d))
    prev = vec_all[start].copy()
    sorted_index[start] = np.arange(d)
    mu[start] = lam_all[start]
    for i in order[1:]:
        ov = vec_all[i].T @ prev            # (sorted, branch)
        assign = np.full(d, -1, dtype=int)
        taken = set()
        for j in np.argsort(-np.max(np.abs(ov), axis=0)):
            choices = np.argsort(-np.abs(ov[:, j]))
            for c in choices:
                if int(c) not in taken:
                    assign[j] = int(c)
                    taken.add(int(c))
                    break
        new_prev = np.empty_like(prev)
        for j in range(d):
            c = assign[j]
            sign = 1.0 if ov[c, j] >= 0.0 else -1.0
            new_prev[:, j] = sign * vec_all[i][:, c]
            sorted_index[i, j] = c
            mu[i, j] = lam_all[i, c]
        prev = new_prev
    ov = vec_all[start].T @ prev
    permutation = np.empty(d, dtype=int)
    taken = set()
    for j in np.argsort(-np.max(np.abs(ov), axis=0)):
        choices = np.argsort(-np.abs(ov[:, j]))
        for c in choices:
            if int(c) not in taken:
                permutation[j] = int(c)
                taken.add(int(c))
                break
    return BranchField(grid=grid, mu=mu, sorted_index=sorted_index,
                       permutation=permutation, start=start)


def hellmann_feynman(field_or_model, X, n):
    """d(lambda_n)/dX = <v_n, dV/dX v_n> for a simple eigenvalue."""
    model = getattr(field_or_model, "model", field_or_model)
    lam, vec = eigen_at(model, X)
    dist = np.abs(lam - lam[n])
    dist[n] = np.inf
    if dist.min() < _DEGENERACY_TOL:
        raise CrossingError(f"lambda_{n} is degenerate at X = {X}; force undefined")
    dV = model_mod.potential_derivative(model, X)
    return float(vec[:, n] @ dV @ vec[:, n])


def ground_force(model, X):
    """-d(lambda_0)/dX; scalar fast path for d = 1."""
    if model.d == 1:
        return -float(model_mod.potential_derivative(model, X)[0, 0])
    return -hellmann_feynman(model, X, 0)


def ground_curvature(model, X):
    """d2(lambda_0)/dX2 by second-order eigenvalue perturbation theory."""
    if model.d == 1:
        return float(model_mod.potential_second_derivative(model, X)[0, 0])
    lam, vec = eigen_at(model, X)
    dV = model_mod.potential_derivative(model, X)
    d2V = model_mod.potential_second_derivative(model, X)
    v0 = vec[:, 0]
    out = float(v0 @ d2V @ v0)
    for n in range(1, model.d):
        coupling = float(vec[:, n] @ dV @ v0)
        out += 2.0 * coupling * coupling / (lam[0] - lam[n])
    return out


def gap_derivatives(model, X):
    """(gaps, d(gaps)/dX) for the excited levels at X, via Hellmann-Feynman."""
    lam, vec = eigen_at(model, X)
    dV = model_mod.potential_derivative(model, X)
    forces = np.einsum("jn,jk,kn->n", vec, dV, vec)
    return lam[1:] - lam[0], forces[1:] - forces[0]


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
        if T is None:
            T = model.T
        return 0.0, 0.0
    xs = np.linspace(lo, hi, n_x)
    ss = np.linspace(0.0, 1.0, n_s)
    cache = {}

    def ratio_at(y):
        key = round(y, 14)
        if key not in cache:
            gaps, dgaps = gap_derivatives(model, y)
            if gaps.min() <= _DEGENERACY_TOL:
                raise CrossingError(f"level crossing inside kappa domain at X = {y}")
            cache[key] = (float(np.sum(dgaps / gaps)), float(gaps.min()))
        return cache[key]

    value = 0.0
    min_gap = np.inf
    for x in xs:
        for s in ss:
            ratio, gap_min = ratio_at(s * x + (1.0 - s) * X_c)
            value = max(value, abs(ratio * (x - X_c)))
            min_gap = min(min_gap, gap_min)
    if T is None:
        T = model.T
    return value, float(T / min_gap)
