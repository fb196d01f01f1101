"""Integrators for the four dynamics and trajectory-level observables.

Deterministic: Ehrenfest (Strang splitting with exact electron rotation) and
Born-Oppenheimer (Stoermer-Verlet on the ground surface).  Stochastic:
Langevin (BAOAB) and Smoluchowski (Euler-Maruyama), both with unit mass in
the slow variables and the ground eigenvalue as potential.

All step functions are pure: they take a PhaseState and return a new one.
"""

from dataclasses import dataclass, field

import numpy as np

from . import espec
from . import model as model_mod
from .errors import HittingTimeError, ResolutionError
from ._util import wrap

__all__ = [
    "PhaseState",
    "Trajectory",
    "HittingRecord",
    "initial_electron_state",
    "step_ehrenfest",
    "step_bo",
    "step_symplectic_euler",
    "step_langevin",
    "step_smoluchowski",
    "simulate",
    "time_average",
    "loop_average",
    "hitting_value_function",
    "hamiltonian",
]

DEFAULT_C_STEP = 0.1


@dataclass(frozen=True)
class PhaseState:
    """Classical state (X, p), electron amplitude phi (Ehrenfest), action z, time t."""

    X: np.ndarray
    p: np.ndarray
    phi: np.ndarray = None
    z: float = 0.0
    t: float = 0.0

    @classmethod
    def make(cls, X, p, phi=None, z=0.0, t=0.0):
        X = np.atleast_1d(np.asarray(X, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if phi is not None:
            phi = np.asarray(phi, dtype=complex)
        return cls(X=X, p=p, phi=phi, z=float(z), t=float(t))


@dataclass(frozen=True)
class HittingRecord:
    tau: float
    X: float
    p: float
    theta: float


@dataclass
class Trajectory:
    """Sampled path with per-step energy, action, hits and crossing events."""

    scheme: str
    dt: float
    t: np.ndarray
    X: np.ndarray
    p: np.ndarray
    H: np.ndarray
    z: np.ndarray
    phi: np.ndarray = None
    hits: list = field(default_factory=list)
    crossings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory timestamps must be strictly increasing")

    def state(self, i):
        phi = None if self.phi is None else self.phi[i]
        return PhaseState(X=self.X[i].copy(), p=self.p[i].copy(), phi=phi,
                          z=float(self.z[i]), t=float(self.t[i]))


def _ehrenfest_force(model, X, phi):
    dV = model_mod.potential_derivative(model, X[0])
    return np.array([-(np.vdot(phi, dV @ phi)).real])


def _bo_force(model, X):
    return np.array([espec.ground_force(model, X[0])])


def _branch_force(model, X, b):
    """Force on the smooth eigenvalue branch continued from the unit vector b."""
    lam, vecs = espec.eigen_at(model, X)
    ov = vecs.T @ b
    j = int(np.abs(ov).argmax())
    v = vecs[:, j] if ov[j] >= 0.0 else -vecs[:, j]
    dV = model_mod.potential_derivative(model, X)
    return -float(v @ dV @ v), v


def hamiltonian(model, state, scheme):
    """Scheme energy: H_E for Ehrenfest, |p|^2/2 + the electron level otherwise.

    A Born-Oppenheimer state carrying a branch vector reports the smooth
    branch level <b, V b>; otherwise the sorted ground level.
    """
    kinetic = 0.5 * float(state.p @ state.p)
    V = model_mod.evaluate_potential(model, state.X[0])
    if scheme == "ehrenfest":
        return kinetic + float((np.vdot(state.phi, V @ state.phi)).real)
    if state.phi is not None and model.d > 1:
        b = state.phi.real
        b = b / np.sqrt(b.dot(b))
        return kinetic + float(b @ V @ b)
    lam0 = espec.eigen_at(model, state.X[0])[0][0]
    return kinetic + float(lam0)


def initial_electron_state(model, X, p, M, perp_correction=False):
    """Ground eigenvector at X, optionally with the first-order transverse dressing.

    The dressed state adds i M^{-1/2} (V - lambda_0)^{-1} (p . d/dX) of the
    ground eigenvector, projected off the ground level, then renormalizes.
    """
    lam, vec = espec.eigen_at(model, float(X))
    phi = vec[:, 0].astype(complex)
    if perp_correction and model.d > 1:
        dV = model_mod.potential_derivative(model, float(X))
        corr = np.zeros(model.d, dtype=complex)
        for n in range(1, model.d):
            gap = lam[n] - lam[0]
            coupling = float(vec[:, n] @ dV @ vec[:, 0])
            # <v_n, d/dX v_0> = coupling / (lam_0 - lam_n)
            corr += (coupling / (lam[0] - lam[n])) / gap * vec[:, n]
        phi = phi + 1j * float(p) / np.sqrt(M) * corr
        phi /= np.linalg.norm(phi)
    return phi


def step_ehrenfest(model, state, dt, M, c_step=DEFAULT_C_STEP):
    """One Strang step: half-kick, drift, exact electron rotation at the midpoint, half-kick."""
    dt_max = c_step / np.sqrt(M)
    if dt > dt_max * (1.0 + 1e-12):
        raise ResolutionError(
            f"dt = {dt} exceeds the Ehrenfest stiffness guard {dt_max}", required=dt_max)
    norm = float(np.vdot(state.phi, state.phi).real)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("electron amplitude must be normalized to 1e-8")
    p0 = state.p
    p_half = p0 + 0.5 * dt * _ehrenfest_force(model, state.X, state.phi)
    X1 = state.X + dt * p_half
    X_mid = state.X + 0.5 * dt * p_half
    lam, U = espec.eigen_at(model, X_mid[0])
    phase = np.exp(-1j * np.sqrt(M) * lam * dt)
    phi1 = U @ (phase * (U.T @ state.phi))
    p1 = p_half + 0.5 * dt * _ehrenfest_force(model, X1, phi1)
    z1 = state.z + dt / 6.0 * float(p0 @ p0 + 4.0 * (p_half @ p_half) + p1 @ p1)
    return PhaseState(X=X1, p=p1, phi=phi1, z=z1, t=state.t + dt)


def _bo_start(model, state):
    """(force, branch vector) at the state; the vector is None on the sorted level."""
    if state.phi is not None and model.d > 1:
        b = state.phi.real
        return _branch_force(model, state.X[0], b / np.sqrt(b.dot(b)))
    return espec.ground_force(model, state.X[0]), None


def _bo_verlet(model, state, dt, start):
    """Verlet step from the ``_bo_start`` pair; returns the new state and the
    pair at its end, which equals ``_bo_start`` of the new state bit for bit
    (the same eigenvector column of V(X1) is selected)."""
    F0, v0 = start
    p0 = state.p
    p_half = p0 + 0.5 * dt * np.array([F0])
    X1 = state.X + dt * p_half
    if v0 is None:
        end = espec.ground_force(model, X1[0]), None
        phi1 = state.phi
    else:
        end = _branch_force(model, X1[0], v0)
        phi1 = end[1].astype(complex)
    p1 = p_half + 0.5 * dt * np.array([end[0]])
    z1 = state.z + dt / 6.0 * float(p0 @ p0 + 4.0 * (p_half @ p_half) + p1 @ p1)
    return PhaseState(X=X1, p=p1, phi=phi1, z=z1, t=state.t + dt), end


def step_bo(model, state, dt):
    """One Stoermer-Verlet step on the adiabatic surface; action by Simpson on |p|^2.

    With a branch vector in ``state.phi`` the force follows the smooth
    (gauge-continuous) eigenvalue branch, so sorted labels may swap across a
    crossing; without one the sorted ground level is used.  An exactly
    degenerate level rejects the step (the Hellmann-Feynman force raises).
    """
    return _bo_verlet(model, state, dt, _bo_start(model, state))[0]


def step_symplectic_euler(model, state, dt):
    """Symplectic Euler (kick then drift); positions match Verlet's on shifted momenta."""
    if state.phi is not None and model.d > 1:
        b = state.phi.real
        b = b / np.sqrt(b.dot(b))
        F0, v0 = _branch_force(model, state.X[0], b)
        p1 = state.p + dt * np.array([F0])
        phi1 = v0.astype(complex)
    else:
        p1 = state.p + dt * _bo_force(model, state.X)
        phi1 = state.phi
    X1 = state.X + dt * p1
    z1 = state.z + dt * float(p1 @ p1)
    return PhaseState(X=X1, p=p1, phi=phi1, z=z1, t=state.t + dt)


def step_langevin(model, state, dt, T, K, rng, force=None):
    """One BAOAB step with unit mass; the O-substep is the exact OU update."""
    if T < 0.0 or K <= 0.0:
        raise ValueError("Langevin needs T >= 0 and K > 0")
    f = force if force is not None else (lambda x: _bo_force(model, x))
    p = state.p + 0.5 * dt * f(state.X)
    X = state.X + 0.5 * dt * p
    c1 = np.exp(-K * dt)
    c2 = np.sqrt(T * (1.0 - c1 * c1))
    p = c1 * p + c2 * rng.standard_normal(p.shape)
    X = X + 0.5 * dt * p
    p = p + 0.5 * dt * f(X)
    z1 = state.z + 0.5 * dt * float(state.p @ state.p + p @ p)
    return PhaseState(X=X, p=p, phi=state.phi, z=z1, t=state.t + dt)


def step_smoluchowski(model, state, dt, T, rng, force=None):
    """One Euler-Maruyama step of the overdamped dynamics."""
    f = force if force is not None else (lambda x: _bo_force(model, x))
    X = state.X + dt * f(state.X) + np.sqrt(2.0 * T * dt) * rng.standard_normal(state.X.shape)
    return PhaseState(X=X, p=state.p, phi=state.phi, z=state.z, t=state.t + dt)


def _detect_hit(model, surface, X0, X1, t0, dt, z0, z1):
    """Positive-direction crossing of {X = surface mod L} within one drift."""
    if X1 <= X0:
        return None
    L = model.L
    k_lo = np.ceil((X0 - surface) / L + 1e-12)
    target = surface + k_lo * L
    if X0 < target <= X1:
        frac = (target - X0) / (X1 - X0)
        return HittingRecord(tau=t0 + frac * dt, X=target,
                             p=(X1 - X0) / dt, theta=z0 + frac * (z1 - z0))
    return None


def simulate(model, init, scheme, T_final, dt, surface=None, rng=None,
             M=None, T=None, K=None, force=None, record_every=1,
             c_step=DEFAULT_C_STEP, max_hits=None):
    """Drive a step operation and record the trajectory.

    Hitting records are appended each time the first coordinate crosses
    {X = surface mod L} in the positive direction; the crossing is located
    inside the drift substep, where the position is linear in time.
    """
    if scheme not in ("ehrenfest", "bo", "langevin", "smoluchowski"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "ehrenfest":
        if M is None:
            M = model.M[0]
        if init.phi is None:
            raise ValueError("Ehrenfest needs an electron amplitude in the initial state")
    if scheme in ("langevin", "smoluchowski"):
        if T is None:
            T = model.T
        if K is None:
            K = model.K
        if rng is None:
            raise ValueError("stochastic schemes need an rng")

    n_steps = int(np.floor(T_final / dt + 1e-9))
    n_rec = n_steps // record_every + 1
    d = model.d
    t_arr = np.empty(n_rec)
    X_arr = np.empty((n_rec, init.X.size))
    p_arr = np.empty((n_rec, init.p.size))
    H_arr = np.empty(n_rec)
    z_arr = np.empty(n_rec)
    phi_arr = np.empty((n_rec, d), dtype=complex) if scheme == "ehrenfest" else None

    def record(j, s):
        t_arr[j] = s.t
        X_arr[j] = s.X
        p_arr[j] = s.p
        z_arr[j] = s.z
        H_arr[j] = hamiltonian(model, s, scheme)
        if phi_arr is not None:
            phi_arr[j] = s.phi

    state = init
    record(0, state)
    hits = []
    j = 1
    bo_end = None    # a BO step's end force is the next step's start force
    for i in range(n_steps):
        if scheme == "ehrenfest":
            new = step_ehrenfest(model, state, dt, M, c_step=c_step)
        elif scheme == "bo":
            start = bo_end if bo_end is not None else _bo_start(model, state)
            new, bo_end = _bo_verlet(model, state, dt, start)
        elif scheme == "langevin":
            new = step_langevin(model, state, dt, T, K, rng, force=force)
        else:
            new = step_smoluchowski(model, state, dt, T, rng, force=force)
        if not (np.isfinite(new.X).all() and np.isfinite(new.p).all()):
            raise RuntimeError(
                f"non-finite state at t = {new.t:.6g} (X = {new.X}, p = {new.p}); aborting")
        if surface is not None:
            hit = _detect_hit(model, surface, state.X[0], new.X[0], state.t, dt,
                              state.z, new.z)
            if hit is not None:
                hits.append(hit)
                if max_hits is not None and len(hits) >= max_hits:
                    state = new
                    if (i + 1) % record_every == 0:
                        record(j, state)
                        j += 1
                    break
        state = new
        if (i + 1) % record_every == 0:
            record(j, state)
            j += 1

    traj = Trajectory(scheme=scheme, dt=dt, t=t_arr[:j], X=X_arr[:j], p=p_arr[:j],
                      H=H_arr[:j], z=z_arr[:j],
                      phi=None if phi_arr is None else phi_arr[:j],
                      hits=hits,
                      meta={"model": model.spec().to_json(), "L": model.L,
                            "M": M, "T": T, "K": K, "surface": surface,
                            "mass_convention": "unit mass in slow variables"})
    return traj


def time_average(trajectory, g, burn_in=0.0, n_blocks=16):
    """Trapezoid time average of g(X_t) with a block-averaged standard error."""
    t = trajectory.t
    if t.size < 2:
        raise ValueError("trajectory too short to average")
    mask = t >= burn_in
    if mask.sum() < 2:
        raise ValueError("burn-in leaves fewer than two samples")
    tt = t[mask]
    gx = np.asarray(g(wrap(trajectory.X[mask, 0], trajectory.meta["L"])), dtype=float)
    mean = np.trapezoid(gx, tt) / (tt[-1] - tt[0])
    blocks = np.array_split(np.arange(tt.size), n_blocks)
    bm = []
    for idx in blocks:
        if idx.size >= 2:
            bm.append(np.trapezoid(gx[idx], tt[idx]) / (tt[idx[-1]] - tt[idx[0]]))
    bm = np.asarray(bm)
    stderr = bm.std(ddof=1) / np.sqrt(len(bm)) if len(bm) > 1 else 0.0
    return float(mean), float(stderr)


def loop_average(trajectory, g, n_loops=None):
    """Average g(X_t) over an integer number of returns to the surface.

    Integrating over whole loops removes the endpoint bias of a periodic
    orbit; the final partial step is cut at the interpolated hit time.
    """
    if not trajectory.hits:
        raise HittingTimeError("trajectory has no hitting records")
    if n_loops is None:
        n_loops = len(trajectory.hits)
    tau = trajectory.hits[min(n_loops, len(trajectory.hits)) - 1].tau
    t = trajectory.t
    gx = np.asarray(g(wrap(trajectory.X[:, 0], trajectory.meta["L"])), dtype=float)
    inside = t <= tau
    tt = t[inside]
    gg = gx[inside]
    if tt[-1] < tau:
        g_tau = np.interp(tau, t, gx)
        tt = np.append(tt, tau)
        gg = np.append(gg, g_tau)
    return float(np.trapezoid(gg, tt) / (tt[-1] - tt[0]))


def per_loop_averages(trajectory, g, n_loops=None):
    """The average of g over each individual return interval.

    The scatter of these values measures how far the orbit is from exactly
    periodic, which sets the statistical error of the loop average.
    """
    if not trajectory.hits:
        raise HittingTimeError("trajectory has no hitting records")
    if n_loops is None:
        n_loops = len(trajectory.hits)
    n_loops = min(n_loops, len(trajectory.hits))
    t = trajectory.t
    gx = np.asarray(g(wrap(trajectory.X[:, 0], trajectory.meta["L"])), dtype=float)
    taus = [trajectory.t[0]] + [h.tau for h in trajectory.hits[:n_loops]]
    out = []
    for lo, hi in zip(taus, taus[1:]):
        inside = (t >= lo) & (t <= hi)
        tt, gg = t[inside], gx[inside]
        if tt[0] > lo:
            tt = np.insert(tt, 0, lo)
            gg = np.insert(gg, 0, np.interp(lo, t, gx))
        if tt[-1] < hi:
            tt = np.append(tt, hi)
            gg = np.append(gg, np.interp(hi, t, gx))
        out.append(float(np.trapezoid(gg, tt) / (hi - lo)))
    return out


def hitting_value_function(model, scheme, init, dt, M=None, t_max=200.0,
                           c_step=DEFAULT_C_STEP):
    """Action gained until the first return to the start surface, and the
    return time.

    The start must sit on the surface I = {X = X_0 mod L} with E - V_0 > 0
    along the path (no turning point).
    """
    traj = simulate(model, init, scheme, T_final=t_max, dt=dt,
                    surface=float(init.X[0]), M=M, c_step=c_step, max_hits=1)
    if not traj.hits:
        raise HittingTimeError(
            f"no return to the surface within t_max = {t_max}")
    hit = traj.hits[0]
    return hit.theta - init.z, hit.tau - init.t
