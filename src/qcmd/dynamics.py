"""Integrators for the four dynamics and trajectory-level observables.

Deterministic: Ehrenfest (Strang splitting with exact electron rotation) and
Born-Oppenheimer (Stoermer-Verlet on the ground surface).  Stochastic:
Langevin (BAOAB) and Smoluchowski (Euler-Maruyama), both with unit mass in
the slow variables and the ground eigenvalue as potential.  No scheme solves
an eigenproblem: Ehrenfest rotates by the family's closed-form propagator
exp(-i sqrt(M) dt V), and the forces read the families' closed-form levels,
slopes and eigenvectors.

Each scheme has one step kernel over B stacked lanes: positions X (B,),
momenta p (B,), electron or branch vectors (B, d), with per-lane step sizes
and masses.  Every operation in a kernel acts lane by lane, so a lane's
numbers do not depend on the other lanes.  ``simulate_ensemble`` drives the
kernels in lockstep, ``simulate`` is its one-lane case, and the public step
functions are pure one-lane wrappers: they take a PhaseState and return a
new one.

Every scheme has a second path.  At a few lanes each numpy call of the
lockstep kernel costs mostly its fixed overhead, so a small ensemble runs
each lane on its own through one loop over Python floats (``_float_chain``,
one arm a scheme), from the families' per-point float closed forms.  One
path rule (``_float_path``) picks the path of an ensemble and gives each
float lane what its arm reads:

- Ehrenfest on one of the two traceless two-level families, from the
  propagator and dV/dX, at most ``_FLOAT_LANES`` lanes;
- Langevin and Smoluchowski on every family, when the force is the ground
  force (``force=None``) or the bound ``force`` of a
  ``gibbs.CorrectedPotential`` on the same model, from the levels and their
  slopes, at most ``_FLOAT_LANES`` lanes;
- Born-Oppenheimer: lanes without a branch vector on every family, with the
  ground force, at most ``_FLOAT_LANES`` lanes; lanes with one on the two
  traceless two-level families, at most ``_FLOAT_BO_LANES`` lanes, with the
  force -s rho' of the smooth branch s rho, the sign s fixed at launch by
  the branch the vector picks (Hellmann-Feynman: for V = rho R(theta) with a
  signed rho, -<v, dV v> = -s rho').

The float lanes run one after another in the caller; this module starts
no process.

The float loop keeps the kernel's guards, hit detection, records and
noise draws, and agrees with it to rounding: bit for bit where ``math`` and
numpy round sin, cos and hypot alike, except Born-Oppenheimer lanes with a
branch vector, whose force the kernel takes from the eigenvector.
``step_ehrenfest`` is a one-step ``simulate`` and so takes the same path;
``step_bo`` drives the kernel.  Wider ensembles, any other force callable,
Ehrenfest on ``multi_level`` and the d = 1 families, and Born-Oppenheimer
lanes with branch vectors on ``multi_level`` stay on the lockstep kernel,
which is the reference the float loop is tested against.
"""

import mmap
from dataclasses import dataclass, field
from functools import partial
from math import cos, inf, isfinite, nan, sin

import numpy as np

from . import espec
from . import model as model_mod
from .errors import CrossingError, HittingTimeError, ResolutionError
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
    "simulate_ensemble",
    "time_average",
    "loop_average",
    "hitting_value_function",
    "hamiltonian",
]

DEFAULT_C_STEP = 0.1
# recorded states whose energies are evaluated in one stacked call
_ENERGY_CHUNK = 4096
# noise values a lane of known step count draws from its stream at once
_NOISE_BLOCK = 4096
# records of at least this many bytes get an anonymous mapping of their own
# (``_record``)
_MAPPED_RECORD_BYTES = 1 << 20
# Ehrenfest, Langevin, Smoluchowski and ground-force Born-Oppenheimer
# ensembles of at most this many lanes run lane after lane over Python
# floats (``_float_chain``), wider ones in lockstep.
# Measured on a 2-core host.  Ehrenfest on both two-level families (M =
# 1024, 4000 steps a lane): a float lane-step costs 3-4 us, a lockstep
# iteration 70-90 us at 12-24 lanes, so the float lanes take 0.6, 0.8, 1.0
# and 1.1-1.3 times the lockstep's time at 12, 16, 20 and 24 lanes.
# Langevin and Smoluchowski on the criterion-11 model (4000 steps a lane),
# float against lockstep per lane-step at 12, 16 and 20 lanes: plain
# Smoluchowski 1.1-1.2 against 1.2, 1.1 and 0.9 us, plain Langevin 1.3-1.5
# against 2.2, 1.9 and 1.5 us, and with the corrected force (whose float
# form builds the d levels) 3.8-4.5 against 3.5-4.4, 3.0-3.8 and 2.3-3.2 us.
# Born-Oppenheimer without branch vectors (4000 steps a lane, best of 5),
# float against lockstep per lane-step at 8, 16, 24 and 32 lanes:
# two_level_gap 1.0 against 3.1, 1.6, 1.1 and 1.0 us, scalar_cos 0.7
# against 1.7, 1.0, 0.7 and 0.6 us, and multi_level (d = 3) 1.3 against
# 1.6, 0.9, 0.7 and 0.9 us.
_FLOAT_LANES = 16
# Born-Oppenheimer ensembles with branch vectors on the two traceless
# two-level families of at most this many lanes run lane after lane over
# Python floats (``_float_chain``), wider ones in lockstep.  Measured on a
# 2-core host (4000 steps a lane, best of 5): a float lane-step costs
# 0.8-1.0 us on both families, a lockstep one 6.5, 3.3, 2.4, 1.8, 1.5, 1.2
# and 1.0 us at 8, 16, 24, 32, 48, 64 and 96 lanes, so the float lanes take
# 0.75 times the lockstep's time at 64 lanes and about as long at 96.
_FLOAT_BO_LANES = 64
# the squared amplitude norm an Ehrenfest step accepts
_NORM_LOW, _NORM_HIGH = 1.0 - 1e-8, 1.0 + 1e-8
# a family gap floor this far above the degeneracy tolerance (and far above
# the rounding of the computed levels) rules out a degenerate ground level
_SAFE_GAP_FLOOR = 1e3 * espec._DEGENERACY_TOL


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
    """Sampled path with per-step energy, action and hits."""

    scheme: str
    dt: float
    t: np.ndarray
    X: np.ndarray
    p: np.ndarray
    H: np.ndarray
    z: np.ndarray
    phi: np.ndarray = None
    hits: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory timestamps must be strictly increasing")

    def state(self, i):
        phi = None if self.phi is None else self.phi[i]
        return PhaseState(X=self.X[i].copy(), p=self.p[i].copy(), phi=phi,
                          z=float(self.z[i]), t=float(self.t[i]))


# ------------------------------------------------------------ lane kernels
#
# A kernel step maps (X, p, vec, z, F) of the active lanes to the same tuple
# one step later; F is the force at the step's start, which the step returns
# for its end so that the next step need not evaluate it again (Ehrenfest
# carries the squared amplitude norm beside it, lane by lane).  ``par``
# holds the per-lane constants built by ``_lane_params``.


# Every product below is a stacked matmul of per-lane vectors and matrices,
# the same BLAS calls, lane by lane, as the 2-D products of a single state.


def _expectation(phi, A):
    """<phi, A phi> per lane, as phi^* (A phi); phi (B, d), A (B, d, d)."""
    return (phi.conj()[:, None, :] @ (A @ phi[:, :, None]))[:, 0, 0]


def _form(v, A):
    """v A v per lane, as (v A) v, for real v (B, d)."""
    return ((v[:, None, :] @ A) @ v[:, :, None])[:, 0, 0]


def _ehrenfest_force(dV, phi):
    """-<phi, dV/dX phi> and |phi|^2 per lane, as the columns of a (B, 2) array.

    For phi = u + i v and a real dV, <phi, dV phi> = u dV u + v dV v.  The
    float view w of phi holds the pairs (u_k, v_k), so dV acts on the (d, 2)
    reshape of w, and the force and the norm are sums of w * (dV w) and w * w.
    """
    w = phi.view(float)
    out = np.empty((phi.shape[0], 2))
    out[:, 0] = -(w * (dV @ w.reshape(phi.shape + (2,))).reshape(w.shape)).sum(axis=1)
    out[:, 1] = (w * w).sum(axis=1)
    return out


def _ehrenfest_start(model, par, X, phi):
    return _ehrenfest_force(model_mod.potential_derivative(model, X), phi)


def _ehrenfest_step(model, par, X, p, phi, z, F):
    """Strang step: half-kick, drift, exact electron rotation at the midpoint, half-kick.

    F carries the squared norm of phi beside the force (``_ehrenfest_force``),
    and the step first checks it; the rotation exp(-i sqrt(M) dt V(X_mid)) is
    the family's closed-form propagator.
    """
    for norm in F[:, 1].tolist():
        if not _NORM_LOW <= norm <= _NORM_HIGH:
            raise ValueError("electron amplitude must be normalized to 1e-8")
    dt, half = par["dt"], par["half"]
    p_half = p + half * F[:, 0]
    X1 = X + dt * p_half
    P = model_mod.electron_propagator(model, X + half * p_half, par["rate"])
    phi1 = (P @ phi[:, :, None])[:, :, 0]
    F1 = _ehrenfest_force(model_mod.potential_derivative(model, X1), phi1)
    p1 = p_half + half * F1[:, 0]
    z1 = z + par["sixth"] * (p * p + 4.0 * (p_half * p_half) + p1 * p1)
    return X1, p1, phi1, z1, F1


def _ground_force(model, X):
    """Minus the closed-form slope of the sorted ground level on every lane.

    An exact degeneracy makes the force undefined; the levels are tested for
    one only when the family's gap floor does not rule it out, and otherwise
    only the ground slope is evaluated.
    """
    if model.gap_floor > _SAFE_GAP_FLOOR:
        return -model_mod.ground_slope(model, X)
    lam, slopes = model_mod.levels_and_slopes(model, X)
    degenerate = lam[:, 1] - lam[:, 0] < espec._DEGENERACY_TOL
    if degenerate.any():
        x = X[np.argmax(degenerate)]
        raise CrossingError(f"lambda_0 is degenerate at X = {x}; force undefined")
    return -slopes[:, 0]


def _bo_force(model, X, b):
    """Force on every lane and the vectors it followed.

    With b None the force is the sorted ground level's (``_ground_force``).
    With unit vectors b (B, d) it follows the smooth branch through the
    closed-form eigenvector of V(X) with the largest overlap, signed to keep
    the overlap nonnegative.
    """
    if b is None:
        return _ground_force(model, X), None
    dV = model_mod.potential_derivative(model, X)
    vecs = model_mod.eigenvectors(model, X)
    ov = (vecs.transpose(0, 2, 1) @ b[:, :, None])[:, :, 0]
    rows = np.arange(X.size)
    j = np.abs(ov).argmax(axis=1)
    v = vecs.transpose(0, 2, 1)[rows, j]
    v = np.where((ov[rows, j] >= 0.0)[:, None], v, -v)
    return -_form(v, dV), v


def _bo_start(model, par, X, b):
    return _bo_force(model, X, b)[0]


def _bo_step(model, par, X, p, b, z, F):
    """Stoermer-Verlet step on the adiabatic surface; action by Simpson on |p|^2."""
    dt, half = par["dt"], par["half"]
    p_half = p + half * F
    X1 = X + dt * p_half
    F1, b1 = _bo_force(model, X1, b)
    p1 = p_half + half * F1
    z1 = z + par["sixth"] * (p * p + 4.0 * (p_half * p_half) + p1 * p1)
    return X1, p1, b1, z1, F1


class _LaneNoise:
    """One standard normal per active lane and step, each from the lane's own
    stream; called once per step.

    A lane draws min(_NOISE_BLOCK, steps left) values at a time, except a
    lane with a hit budget, which may retire at any step and so draws one
    at a time: no lane draws a value it does not use.  A block holds the
    values, and leaves the generator in the state, of the same draws taken
    one at a time.  Indexing with a mask of lanes keeps those lanes.
    """

    def __init__(self, rngs, n_steps, single, step=0, block=None):
        self.rngs = rngs            # (B,) object array of generators
        self.n_steps = n_steps      # (B,) steps each lane runs in all
        self.single = single        # (B,) bool: draws one value a step
        self.singles = np.flatnonzero(single)
        self.step = step            # steps taken so far, the same on every lane
        self.block = block          # (rows, B): this block's values, lane-wise

    def __getitem__(self, keep):
        block = None if self.block is None else self.block[:, keep]
        return _LaneNoise(self.rngs[keep], self.n_steps[keep], self.single[keep],
                          self.step, block)

    def __call__(self):
        j = self.step % _NOISE_BLOCK
        if j == 0:
            # an active lane has more steps left than j, so the widest
            # lane's rows cover every active lane
            left = np.minimum(self.n_steps - self.step, _NOISE_BLOCK)
            self.block = np.empty((int(left.max()), left.size))
            for k in np.flatnonzero(~self.single):
                self.block[:left[k], k] = self.rngs[k].standard_normal(left[k])
        self.step += 1
        if not self.singles.size:
            return self.block[j]
        out = self.block[j].copy()
        for k in self.singles:
            out[k] = self.rngs[k].standard_normal()
        return out


def _langevin_start(model, par, X, vec):
    return par["force"](X)


def _langevin_step(model, par, X, p, vec, z, F):
    """BAOAB step with unit mass; the O-substep is the exact OU update."""
    half = par["half"]
    p1 = p + half * F
    X1 = X + half * p1
    p1 = par["c1"] * p1 + par["c2"] * par["noise"]()
    X1 = X1 + half * p1
    F1 = par["force"](X1)
    p1 = p1 + half * F1
    return X1, p1, vec, z + half * (p * p + p1 * p1), F1


def _smoluchowski_start(model, par, X, vec):
    return None


def _smoluchowski_step(model, par, X, p, vec, z, F):
    """Euler-Maruyama step of the overdamped dynamics."""
    X1 = X + par["dt"] * par["force"](X) + par["kick"] * par["noise"]()
    return X1, p, vec, z, None


# (start, step, whether the step changes the momenta)
_KERNELS = {
    "ehrenfest": (_ehrenfest_start, _ehrenfest_step, True),
    "bo": (_bo_start, _bo_step, True),
    "langevin": (_langevin_start, _langevin_step, True),
    "smoluchowski": (_smoluchowski_start, _smoluchowski_step, False),
}


def _next_surface(surface, L, X):
    """The copy surface + k L that a forward drift from X hits first, and the
    band of positions with the same first copy, narrowed by a margin far
    above rounding: a drift that ends inside the band hits nothing."""
    k = np.ceil((X - surface) / L + 1e-12)
    target = surface + k * L
    margin = L * (1e-9 + 1e-14 * np.abs(k))
    return target, target - L + margin, target - margin


def _per_lane(value, B):
    if np.ndim(value) == 0:
        return np.full(B, value, dtype=float)
    return np.array(np.broadcast_to(np.asarray(value, dtype=float), (B,)))


def _lane_params(model, scheme, B, dt, M=None, T=None, K=None, force=None,
                 rng=None, n_steps=None, budget=np.inf):
    """Per-lane constants of a kernel: step sizes, rotation rates, OU
    coefficients, noise sources and the force of the stochastic schemes.

    ``n_steps`` (the steps each lane runs) and ``budget`` (its hit budget,
    inf for none) set how the noise of each lane is drawn.  Without
    ``n_steps`` the kernel takes one step of one lane, as the step functions
    do, and draws its value straight from ``rng``: the value, and the
    generator's state, of a ``_LaneNoise`` block of one."""
    dt = _per_lane(dt, B)
    par = {"dt": dt, "half": 0.5 * dt, "sixth": dt / 6.0}
    if scheme == "ehrenfest":
        M = _per_lane(model.M[0] if M is None else M, B)
        dt_max = DEFAULT_C_STEP / np.sqrt(M)
        over = dt > dt_max * (1.0 + 1e-12)
        if over.any():
            i = int(np.argmax(over))
            raise ResolutionError(
                f"dt = {dt[i]} exceeds the Ehrenfest stiffness guard {dt_max[i]}",
                required=float(dt_max[i]))
        par["rate"] = np.sqrt(M) * dt
    elif scheme in ("langevin", "smoluchowski"):
        if scheme == "langevin" and (T < 0.0 or K <= 0.0):
            raise ValueError("Langevin needs T >= 0 and K > 0")
        rngs = list(rng) if isinstance(rng, (list, tuple)) else [rng]
        if len(rngs) != B:
            raise ValueError(f"{B} lanes need {B} random generators, got {len(rngs)}")
        if n_steps is None:
            par["noise"] = partial(rngs[0].standard_normal, 1)
        else:
            streams = np.empty(B, dtype=object)
            streams[:] = rngs
            par["noise"] = _LaneNoise(streams, _per_lane(n_steps, B).astype(int),
                                      np.isfinite(_per_lane(budget, B)))
        par["force"] = (force if force is not None
                        else lambda x: _ground_force(model, x))
        if scheme == "langevin":
            c1 = np.exp(-K * dt)
            par["c1"] = c1
            par["c2"] = np.sqrt(T * (1.0 - c1 * c1))
        else:
            par["kick"] = np.sqrt(2.0 * T * dt)
    return par


def _unit(b):
    """Rows of b divided by their lengths."""
    return b / np.sqrt(b[:, None, :] @ b[:, :, None])[:, 0]


def _lane_vectors(model, scheme, states):
    """The vectors the kernel carries and the ones the energy reads.

    Ehrenfest carries the electron amplitudes.  The other schemes carry
    phi.real as a branch vector when the states hold one and d > 1
    (normalized for Born-Oppenheimer, whose force follows it); else None.
    """
    if scheme == "ehrenfest":
        phi = np.array([s.phi for s in states], dtype=complex).reshape(len(states), model.d)
        return phi, phi
    given = [s.phi is not None for s in states]
    if model.d == 1 or not any(given):
        return None, None
    if not all(given):
        raise ValueError("either every lane or no lane may carry a branch vector")
    raw = np.array([s.phi.real for s in states])
    return (_unit(raw) if scheme == "bo" else raw), raw


def _energies(model, scheme, X, p, vec):
    """Scheme energy of stacked states: |p|^2/2 plus <phi, V phi> (Ehrenfest),
    the branch level <b, V b> of the normalized vectors, or the sorted ground level."""
    kinetic = 0.5 * (p * p)
    if vec is None:
        return kinetic + model_mod.levels_and_slopes(model, X)[0][:, 0]
    V = model_mod.evaluate_potential(model, X)
    if scheme == "ehrenfest":
        return kinetic + _expectation(vec, V).real
    return kinetic + _form(_unit(vec), V)


def hamiltonian(model, state, scheme):
    """Scheme energy: H_E for Ehrenfest, |p|^2/2 + the electron level otherwise.

    A Born-Oppenheimer state carrying a branch vector reports the smooth
    branch level <b, V b>; otherwise the sorted ground level.
    """
    vec = _lane_vectors(model, scheme, [state])[1]
    return float(_energies(model, scheme, state.X[:1], state.p[:1], vec)[0])


def initial_electron_state(model, X, p, M, perp_correction=False):
    """Ground eigenvector at X, optionally with the first-order transverse dressing.

    The dressed state adds i M^{-1/2} (V - lambda_0)^{-1} (p . d/dX) of the
    ground eigenvector, projected off the ground level, then renormalizes.
    """
    if not (isfinite(M) and M >= 1.0):
        raise ValueError(f"Ehrenfest needs finite masses M >= 1, got {M}")
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


# ------------------------------------------------------ one-lane wrappers


def step_ehrenfest(model, state, dt, M):
    """One Strang step: half-kick, drift, exact electron rotation at the midpoint,
    half-kick; a one-step :func:`simulate`, so it takes the same path."""
    traj = simulate(model, state, "ehrenfest", T_final=dt, dt=dt, M=M)
    return traj.state(1)


def step_bo(model, state, dt):
    """One Stoermer-Verlet step on the adiabatic surface; action by Simpson on |p|^2.

    With a branch vector in ``state.phi`` the force follows the smooth
    (gauge-continuous) eigenvalue branch, so sorted labels may swap across a
    crossing; without one the sorted ground level is used.  An exactly
    degenerate ground level rejects the step (its force raises CrossingError).
    """
    par = _lane_params(model, "bo", 1, dt)
    b = _lane_vectors(model, "bo", [state])[0]
    X1, p1, b1, z1, _ = _bo_step(model, par, state.X, state.p, b, np.array([state.z]),
                                 _bo_start(model, par, state.X, b))
    phi1 = state.phi if b1 is None else b1[0].astype(complex)
    return PhaseState(X=X1, p=p1, phi=phi1, z=float(z1[0]), t=state.t + dt)


def step_symplectic_euler(model, state, dt):
    """Symplectic Euler (kick then drift); positions match Verlet's on shifted momenta."""
    F, b1 = _bo_force(model, state.X, _lane_vectors(model, "bo", [state])[0])
    p1 = state.p + dt * F
    X1 = state.X + dt * p1
    z1 = state.z + dt * float(p1 @ p1)
    phi1 = state.phi if b1 is None else b1[0].astype(complex)
    return PhaseState(X=X1, p=p1, phi=phi1, z=z1, t=state.t + dt)


def step_langevin(model, state, dt, T, K, rng, force=None):
    """One BAOAB step with unit mass; the O-substep is the exact OU update."""
    par = _lane_params(model, "langevin", 1, dt, T=T, K=K, force=force, rng=rng)
    X1, p1, _, z1, _ = _langevin_step(model, par, state.X, state.p, None,
                                      np.array([state.z]), par["force"](state.X))
    return PhaseState(X=X1, p=p1, phi=state.phi, z=float(z1[0]), t=state.t + dt)


def step_smoluchowski(model, state, dt, T, rng, force=None):
    """One Euler-Maruyama step of the overdamped dynamics."""
    par = _lane_params(model, "smoluchowski", 1, dt, T=T, force=force, rng=rng)
    X1 = _smoluchowski_step(model, par, state.X, state.p, None, state.z, None)[0]
    return PhaseState(X=X1, p=state.p, phi=state.phi, z=state.z, t=state.t + dt)


# ---------------------------------------------------------------- drivers


def _check_steps(scheme, dt, T_final, M):
    """Reject per-lane step sizes, run lengths and Ehrenfest masses that no
    run can use."""
    if not (np.isfinite(dt) & (dt > 0.0)).all():
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (np.isfinite(T_final) & (T_final >= 0.0)).all():
        raise ValueError(f"T_final must be finite and nonnegative, got {T_final}")
    if scheme == "ehrenfest" and not (np.isfinite(M) & (M >= 1.0)).all():
        raise ValueError(f"Ehrenfest needs finite masses M >= 1, got {M}")


def _nonfinite(t, X, p):
    """The error of a lane whose state turned non-finite at time t."""
    return RuntimeError(f"non-finite state at t = {t:.6g} "
                        f"(X = {np.array([X])}, p = {np.array([p])}); aborting")


def _float_force(model, force):
    """The force of a few-lane stochastic run as a function of one float
    position, or None when it has no float form.

    ``force`` None is the ground force -s_0 (``_ground_force``), with its
    degeneracy check where the family's gap floor does not rule one out.
    The bound ``force`` of a ``gibbs.CorrectedPotential`` on ``model`` --
    recognized by the method's owner, so that a wrapper installed on the
    class keeps it -- is -s_0 - coefficient T sum_n (s_n - s_0) /
    (lambda_n - lambda_0), summed left to right as numpy sums fewer than
    eight terms.  Both read the family's ``_float_levels``; any other
    callable has no float form.
    """
    levels = model._float_levels
    if force is None:
        if model.gap_floor > _SAFE_GAP_FLOOR:
            return lambda x: -levels(x)[0][1]

        def ground(x):
            (l0, s0), (l1, _), *_ = levels(x)
            if l1 - l0 < espec._DEGENERACY_TOL:
                raise CrossingError(f"lambda_0 is degenerate at X = {x}; force undefined")
            return -s0

        return ground
    from .gibbs import CorrectedPotential      # gibbs imports this module

    owner = getattr(force, "__self__", None)
    if not (type(owner) is CorrectedPotential and force.__name__ == "force"
            and owner.model is model):
        return None
    scale = owner.trace_coefficient * owner.T

    def corrected(x):
        (l0, s0), *excited = levels(x)
        total = None
        for ln, sn in excited:
            gap, dgap = ln - l0, sn - s0
            # numpy's quotient, inf or nan, at an exactly closed gap
            q = dgap / gap if gap else np.float64(dgap) / gap
            total = q if total is None else total + q
        return -s0 - scale * (0.0 if total is None else total)

    return corrected


def _float_chain(scheme, lane, L, X, p, z, t, dt, n_steps, budget, surface, record_every,
                 rows):
    """One lane over Python floats: the step of the scheme's kernel written
    out for one lane, from what ``_float_path`` gives it in ``lane``.

    Ehrenfest reads the float forms (polar, slope) of V = rho R(theta) and
    dV/dX = [[alpha', beta'], [beta', -alpha']], the rotation rate sqrt(M)
    dt, and the amplitude as the four floats phi = (u0 + i v0, u1 + i v1):
    the propagator at the drift midpoint, cos(a rho) I - i sin(a rho) R,
    acts on them in closed form, and the force -<phi, dV phi> is -(alpha'
    (|phi0|^2 - |phi1|^2) + 2 beta' Re(conj(phi0) phi1)).  The other schemes
    read a float force, the kernel's force on an array of positions, c1,
    the kick and a generator: the kick scales the noise, as c2 of the OU
    update (Langevin, whose c1 damps the momentum) or as the Euler-Maruyama
    kick (Smoluchowski); Born-Oppenheimer has none of the three.  The noise
    is drawn as ``_LaneNoise`` draws it, in blocks of min(_NOISE_BLOCK,
    steps left), or one value a step under a hit budget.

    Guards, hit detection, records and retirement are those of
    ``_lockstep``.  A position that turns non-finite takes its end-of-step
    force from the kernel's, so that the error reports the kernel's
    momentum; on an Ehrenfest lane ``math`` refuses it, and the error
    reports the NaN momentum of the kernel's NaN force.

    ``rows`` holds the lane's record columns X, p and z (and u0, v0, u1 and
    v1 for Ehrenfest), each written in place from row 1 on, through a
    memoryview: it stores a float in less time than numpy's item assignment.
    Returns the steps taken and the hits.
    """
    ehrenfest, langevin = scheme == "ehrenfest", scheme == "langevin"
    smoluchowski = scheme == "smoluchowski"
    half, sixth = 0.5 * dt, dt / 6.0
    rec_X, rec_p, rec_z, *rec_phi = map(memoryview, rows)
    F = draw = None
    if ehrenfest:
        (polar, slope), rate, (u0, v0, u1, v1) = lane
        rec_u0, rec_v0, rec_u1, rec_v1 = rec_phi
        if n_steps > 0:
            a, b = slope(X)
            n0, n1 = u0 * u0 + v0 * v0, u1 * u1 + v1 * v1
            F = -(a * (n0 - n1) + 2.0 * b * (u0 * u1 + v0 * v1))
            norm = n0 + n1
    else:
        force, array_force, c1, kick, rng = lane
        if rng is not None and isfinite(budget):
            draw = rng.standard_normal
        elif rng is not None:
            def blocks():
                for start in range(0, n_steps, _NOISE_BLOCK):
                    yield from rng.standard_normal(min(_NOISE_BLOCK, n_steps - start)).tolist()

            draw = blocks().__next__
        if not smoluchowski and n_steps > 0:
            F = force(X)
    hits = []
    target, lo, hi = -inf, -inf, inf
    if surface is not None:
        target, lo, hi = map(float, _next_surface(surface, L, X))
    i = 0
    try:
        for i in range(1, n_steps + 1):
            if smoluchowski:
                X1 = X + dt * force(X) + kick * draw()
                p1, z1 = p, z
            elif langevin:
                p1 = p + half * F
                X1 = X + half * p1
                p1 = c1 * p1 + kick * draw()
                X1 = X1 + half * p1
                F = force(X1) if isfinite(X1) else float(array_force(np.array([X1]))[0])
                p1 = p1 + half * F
                z1 = z + half * (p * p + p1 * p1)
            else:
                # Born-Oppenheimer's Verlet step, or Ehrenfest's Strang step
                # with the electron rotation between the drift and the force
                p_half = p + half * F
                X1 = X + dt * p_half
                if ehrenfest:
                    if not _NORM_LOW <= norm <= _NORM_HIGH:
                        raise ValueError("electron amplitude must be normalized to 1e-8")
                    rho, cos_theta, sin_theta = polar(X + half * p_half)
                    arg = rate * rho
                    c, s = cos(arg), sin(arg)
                    a, b = s * cos_theta, s * sin_theta
                    u0, v0, u1, v1 = (c * u0 + (a * v0 + b * v1), c * v0 - (a * u0 + b * u1),
                                      c * u1 + (b * v0 - a * v1), c * v1 - (b * u0 - a * u1))
                    a, b = slope(X1)
                    n0, n1 = u0 * u0 + v0 * v0, u1 * u1 + v1 * v1
                    F = -(a * (n0 - n1) + 2.0 * b * (u0 * u1 + v0 * v1))
                    norm = n0 + n1
                else:
                    F = force(X1) if isfinite(X1) else float(array_force(np.array([X1]))[0])
                p1 = p_half + half * F
                z1 = z + sixth * (p * p + 4.0 * (p_half * p_half) + p1 * p1)
            t1 = t + dt
            if not (isfinite(X1) and isfinite(p1)):
                raise _nonfinite(t1, X1, p1)
            spent = False
            if not lo <= X1 <= hi:
                # the drift left its band: look for a crossing, and move the band
                if X < target <= X1:
                    frac = (target - X) / (X1 - X)
                    hits.append(HittingRecord(tau=t + frac * dt, X=target, p=(X1 - X) / dt,
                                              theta=z + frac * (z1 - z)))
                    spent = len(hits) >= budget
                target, lo, hi = map(float, _next_surface(surface, L, X1))
            X, p, z, t = X1, p1, z1, t1
            if i % record_every == 0:
                j = i // record_every
                rec_X[j], rec_p[j], rec_z[j] = X, p, z
                if ehrenfest:
                    rec_u0[j], rec_v0[j], rec_u1[j], rec_v1[j] = u0, v0, u1, v1
            if spent:
                break
    except ValueError:
        if not ehrenfest or not _NORM_LOW <= norm <= _NORM_HIGH:
            raise
        # math.cos and math.sin refuse the infinite drift midpoint or end
        # point of a step whose position overflows, where the kernel's numpy
        # calls give NaN forces and so a NaN momentum
        raise _nonfinite(t + dt, X + dt * (p + half * F), nan) from None
    return i, hits


def _branch_vectors(model, X, sign):
    """The closed-form eigenvector of the smooth branch sign * rho at each X
    (n,), on a traceless two-level family, as the rows of an (n, 2) array.

    ``model._reflection`` puts the eigenvector (cos theta/2, sin theta/2) of
    the eigenvalue rho (signed) on column 1 and (-sin theta/2, cos theta/2)
    on column 0 where rho >= 0, and swaps them where rho < 0; so rho's
    column is 1 where the columns' determinant is -1, and 0 where it is +1.
    """
    Q = model_mod.eigenvectors(model, X)
    upper = Q[:, 0, 0] * Q[:, 1, 1] - Q[:, 0, 1] * Q[:, 1, 0] < 0.0
    return Q[np.arange(X.size), :, (upper == (sign > 0.0)).astype(int)]


def _float_path(model, scheme, force, par, X, vec):
    """The path rule: per lane, what ``_float_chain`` reads and the branch
    sign (None but on Born-Oppenheimer lanes with branch vectors); or None
    when the ensemble runs in lockstep.

    - Ehrenfest, at most ``_FLOAT_LANES`` lanes on a traceless two-level
      family: the float forms, the rotation rate and the amplitude floats.
    - Langevin and Smoluchowski, at most ``_FLOAT_LANES`` lanes whose force
      has a float form (``_float_force``), and Born-Oppenheimer lanes
      without branch vectors, which take the ground force and share the
      cut-off: the float force, the kernel's, and c1, the kick and the
      generator (None where the scheme has none).
    - Born-Oppenheimer, at most ``_FLOAT_BO_LANES`` lanes with branch vectors
      on a traceless two-level family: each follows the branch s rho whose
      eigenvector the kernel's force (``_bo_force``) picks at launch, with
      the float force -s rho'.
    """
    B = X.size
    forms = model._float_forms
    if scheme == "ehrenfest":
        if B > _FLOAT_LANES or forms is None:
            return None
        return [((forms[:2], rate, phi), None)
                for rate, phi in zip(par["rate"].tolist(), vec.view(float).tolist())]
    if scheme == "bo" and vec is not None:
        if B > _FLOAT_BO_LANES or forms is None:
            return None
        rho = forms[2]

        def branch_force(sign):
            minus_sign = -sign
            return lambda x: minus_sign * rho(x)[1]

        overlap = (_branch_vectors(model, X, 1.0) * _bo_force(model, X, vec)[1]).sum(axis=1)
        signs = np.where(np.abs(overlap) > 0.5, 1.0, -1.0).tolist()
        forces = [(branch_force(s), partial(_bo_start, model, None, b=vec[b:b + 1]))
                  for b, s in enumerate(signs)]
    else:
        if B > _FLOAT_LANES:
            return None
        if scheme == "bo":
            force = None            # the Born-Oppenheimer kernel's ground force
        chain = _float_force(model, force)
        if chain is None:
            return None
        forces = [(chain, partial(_ground_force, model) if force is None else force)] * B
        signs = [None] * B
    none = [None] * B
    kicks = par.get("c2", par.get("kick"))
    constants = zip(par["c1"].tolist() if "c1" in par else none,
                    none if kicks is None else kicks.tolist(),
                    par["noise"].rngs.tolist() if "noise" in par else none)
    return [((*pair, *c), s) for pair, c, s in zip(forces, constants, signs)]


def _record(shape, dtype=float):
    """An uninitialized record array of the given shape.

    One of at least ``_MAPPED_RECORD_BYTES`` is backed by an anonymous
    mapping of its own, not by malloc: its pages are touched only as rows
    are written and return to the system when the last view of it goes.
    From the heap, a freed record would instead raise malloc's mmap and trim
    thresholds, so that the next records land on the heap and whether their
    pages are released would depend on the layout of everything else there.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    if nbytes < _MAPPED_RECORD_BYTES:
        return np.empty(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


def _lockstep(model, scheme, par, X, p, vec, z, t, n_steps, budget, surface,
              record_every, rec, hits, steps_done):
    """Drive the lanes' kernel steps in lockstep, retiring each lane when its
    steps or its hit budget run out; fills ``rec``, ``hits`` and ``steps_done``."""
    B = X.size
    n_hit = np.zeros(B)
    lanes = np.arange(B)
    cols = slice(None)          # the record columns of the active lanes
    F = None

    def retire(keep):
        nonlocal lanes, cols, X, p, vec, z, F, t, par, n_steps, budget, n_hit, bounds, band
        steps_done[lanes[~keep]] = i
        lanes, X, p, z, t = lanes[keep], X[keep], p[keep], z[keep], t[keep]
        cols = lanes
        if bounds is not None:
            bounds = tuple(a[keep] for a in bounds)
            band = bounds[1].tolist(), bounds[2].tolist()
        n_steps, budget, n_hit = n_steps[keep], budget[keep], n_hit[keep]
        vec = None if vec is None else vec[keep]
        F = None if F is None else F[keep]
        par = {k: v[keep] if isinstance(v, (np.ndarray, _LaneNoise)) else v
               for k, v in par.items()}

    L = model.L
    bounds = band = None
    if surface is not None:
        bounds = _next_surface(surface, L, X)
        band = bounds[1].tolist(), bounds[2].tolist()
    i = 0
    if not (n_steps > 0).all():
        retire(n_steps > 0)
    start, step, moves_p = _KERNELS[scheme]
    if lanes.size:
        F = start(model, par, X, vec)
    next_end = n_steps.min(initial=np.iinfo(int).max)
    while lanes.size:
        X1, p1, vec1, z1, F1 = step(model, par, X, p, vec, z, F)
        t1 = t + par["dt"]
        # the guards reduce Python lists: at a few lanes a numpy reduction
        # costs more than the loop.  The initial momenta are finite, so a
        # step that keeps them does too.
        xs = X1.tolist()
        if not all(map(isfinite, xs + p1.tolist() if moves_p else xs)):
            k = int(np.argmin(np.isfinite(X1) & np.isfinite(p1)))
            raise _nonfinite(t1[k], X1[k], p1[k])
        i += 1
        spent = False
        if bounds is not None and any(
                x < lo or x > hi for x, lo, hi in zip(xs, *band)):
            # the drift left its band: look for a crossing, and move the band
            target = bounds[0]
            bounds = _next_surface(surface, L, X1)
            band = bounds[1].tolist(), bounds[2].tolist()
            crossed = (X < target) & (target <= X1)
            if crossed.any():
                dt_a = par["dt"]
                for k in np.flatnonzero(crossed):
                    frac = (target[k] - X[k]) / (X1[k] - X[k])
                    hits[lanes[k]].append(HittingRecord(
                        tau=t[k] + frac * dt_a[k], X=target[k],
                        p=(X1[k] - X[k]) / dt_a[k], theta=z[k] + frac * (z1[k] - z[k])))
                n_hit += crossed
                spent = (n_hit >= budget).any()
        X, p, vec, z, F, t = X1, p1, vec1, z1, F1, t1
        if i % record_every == 0:
            j = i // record_every
            rec["X"][j, cols], rec["p"][j, cols], rec["z"][j, cols] = X, p, z
            if vec is not None:
                rec["vec"][j, cols] = vec
        if spent or i == next_end:
            retire((n_steps != i) & (n_hit < budget))
            next_end = n_steps.min(initial=np.iinfo(int).max)


def simulate_ensemble(model, inits, scheme, T_final, dt, surface=None, rng=None,
                      M=None, T=None, K=None, force=None, record_every=1, max_hits=None):
    """Integrate one trajectory per initial state.

    ``T_final``, ``dt``, ``M`` and ``max_hits`` take one value for all lanes
    or one per lane; a stochastic scheme takes one generator per lane in
    ``rng`` (a single generator for a single lane), and ``force`` maps the
    positions of the lanes (B,) to their forces (B,).  Hitting records are
    appended each time a lane crosses {X = surface mod L} in the positive
    direction; the crossing is located inside the drift substep, where the
    position is linear in time.  A lane retires when its steps or its hit
    budget (``max_hits``: None for none, else an integer >= 1) run out.
    Every recorded state's energy is evaluated after the loop.  A
    ``record_every`` or a ``max_hits`` that is not an integer >= 1 (or None,
    for ``max_hits``), a ``max_hits`` list whose length is not the lane
    count, or a ``surface`` that is neither None nor finite, raises
    ValueError before any step.  An empty ensemble returns [].

    The lanes run in lockstep through the scheme's kernel, or, where the path
    rule (``_float_path``) takes a few lanes off it, each on its own over
    Python floats (``_float_chain``); the two paths agree to rounding.  Each
    returned Trajectory equals bit for bit the one its lane gives alone
    whenever the ensemble and the lane alone take the same path.  The lanes
    run in the caller, and the error of the lowest failing lane is raised.
    """
    if scheme not in _KERNELS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (isinstance(record_every, (int, np.integer)) and record_every >= 1):
        raise ValueError(f"record_every must be an integer >= 1, got {record_every!r}")
    if surface is not None and not np.isfinite(surface):
        raise ValueError(f"surface must be None or finite, got {surface}")
    inits = list(inits)
    B = len(inits)
    if scheme == "ehrenfest" and any(s.phi is None for s in inits):
        raise ValueError("Ehrenfest needs an electron amplitude in the initial state")
    if scheme in ("langevin", "smoluchowski"):
        T = model.T if T is None else T
        K = model.K if K is None else K
        if rng is None:
            raise ValueError("stochastic schemes need an rng")
    dt_lane = _per_lane(dt, B)
    T_lane = _per_lane(T_final, B)
    M_lane = (_per_lane(model.M[0] if M is None else M, B)
              if scheme == "ehrenfest" or M is not None else None)
    _check_steps(scheme, dt_lane, T_lane, M_lane)
    n_steps = np.floor(T_lane / dt_lane + 1e-9).astype(int)
    per_lane_hits = max_hits if isinstance(max_hits, (list, tuple)) else [max_hits] * B
    if len(per_lane_hits) != B:
        raise ValueError(f"max_hits needs one budget per lane ({B}), got {len(per_lane_hits)}")
    if not all(h is None or (isinstance(h, (int, np.integer)) and h >= 1)
               for h in per_lane_hits):
        raise ValueError(f"max_hits must be None or an integer >= 1, got {max_hits!r}")
    budget = np.array([np.inf if h is None else h for h in per_lane_hits], dtype=float)
    par = _lane_params(model, scheme, B, dt_lane, M=M, T=T, K=K, force=force, rng=rng,
                       n_steps=n_steps, budget=budget)
    X = np.array([s.X[0] for s in inits], dtype=float)
    p = np.array([s.p[0] for s in inits], dtype=float)
    finite = np.isfinite(X) & np.isfinite(p)
    if not finite.all():
        k = int(np.argmin(finite))
        raise RuntimeError(f"non-finite initial state in lane {k} "
                           f"(X = {X[k:k + 1]}, p = {p[k:k + 1]})")
    z = np.array([s.z for s in inits], dtype=float)
    t0 = np.array([s.t for s in inits], dtype=float)
    vec, vec_rec = _lane_vectors(model, scheme, inits)

    # records row by row, so that the pages in use grow with the rows written
    # (the rows for T_final are allocated, a hit budget may stop far earlier);
    # the times are rebuilt after the loop
    R = int((n_steps // record_every).max(initial=0)) + 1
    rec = {key: _record((R, B)) for key in ("X", "p", "z")}
    rec["X"][0], rec["p"][0], rec["z"][0] = X, p, z
    if vec is not None:
        rec["vec"] = _record((R, B, model.d), vec.dtype)
        rec["vec"][0] = vec_rec
    hits = [[] for _ in range(B)]
    steps_done = np.zeros(B, dtype=int)
    lanes = _float_path(model, scheme, force, par, X, vec)
    if lanes is None:
        _lockstep(model, scheme, par, X, p, vec, z, t0, n_steps, budget, surface,
                  record_every, rec, hits, steps_done)
    else:
        for b, (lane, sign) in enumerate(lanes):
            rows = [rec[key][:, b] for key in ("X", "p", "z")]
            if scheme == "ehrenfest":
                # the amplitude's record as (R, B, 4): u0, v0, u1, v1
                rows += [rec["vec"].view(float)[:, b, k] for k in range(4)]
            steps_done[b], hits[b] = _float_chain(
                scheme, lane, model.L, float(X[b]), float(p[b]), float(z[b]), float(t0[b]),
                float(dt_lane[b]), int(n_steps[b]), float(budget[b]), surface, record_every,
                rows)
            if vec is not None and scheme != "ehrenfest":
                # the kernel carries a stochastic lane's vector unchanged, and
                # a Born-Oppenheimer lane's along its branch
                rows = slice(1, steps_done[b] // record_every + 1)
                rec["vec"][rows, b] = (vec[b] if sign is None else
                                       _branch_vectors(model, rec["X"][rows, b], sign))

    spec = model.spec().to_json()
    out = []
    for b in range(B):
        n = steps_done[b] // record_every + 1
        # t + dt repeated, as the loop accumulated it
        t_b = np.ascontiguousarray(
            np.cumsum(np.r_[t0[b], np.full(steps_done[b], dt_lane[b])])[::record_every])
        Xb, pb = rec["X"][:n, b], rec["p"][:n, b]
        vb = rec["vec"][:n, b] if vec_rec is not None else None
        H = np.empty(n)
        for lo in range(0, n, _ENERGY_CHUNK):
            hi = lo + _ENERGY_CHUNK
            H[lo:hi] = _energies(model, scheme, Xb[lo:hi], pb[lo:hi],
                                 None if vb is None else np.ascontiguousarray(vb[lo:hi]))
        out.append(Trajectory(
            scheme=scheme, dt=float(dt_lane[b]), t=t_b, X=Xb[:, None], p=pb[:, None],
            H=H, z=rec["z"][:n, b], phi=vb if scheme == "ehrenfest" else None,
            hits=hits[b],
            meta={"model": spec, "L": model.L,
                  "M": None if M_lane is None else float(M_lane[b]), "T": T, "K": K,
                  "surface": surface, "mass_convention": "unit mass in slow variables"}))
    return out


def simulate(model, init, scheme, T_final, dt, surface=None, rng=None,
             M=None, T=None, K=None, force=None, record_every=1, max_hits=None):
    """Drive one trajectory: the one-lane case of :func:`simulate_ensemble`."""
    return simulate_ensemble(model, [init], scheme, T_final, dt, surface=surface,
                             rng=rng, M=M, T=T, K=K, force=force,
                             record_every=record_every, max_hits=max_hits)[0]


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


def _loop_averages(trajectory, g, n_loops):
    """g's average over the first ``n_loops`` returns to the surface (all
    when None), its averages over each of them, and the loop ends t_0,
    tau_1, ..., tau_n, from one evaluation of g along the record."""
    if not trajectory.hits:
        raise HittingTimeError("trajectory has no hitting records")
    if n_loops is not None and n_loops < 1:
        raise ValueError(f"n_loops must be None or at least 1, got {n_loops}")
    t = trajectory.t
    gx = np.asarray(g(wrap(trajectory.X[:, 0], trajectory.meta["L"])), dtype=float)
    taus = [t[0]] + [h.tau for h in trajectory.hits[:n_loops]]
    per_loop = [_interval_average(t, gx, lo, hi) for lo, hi in zip(taus, taus[1:])]
    return _interval_average(t, gx, taus[0], taus[-1]), per_loop, taus


def _interval_average(t, gx, lo, hi):
    """Trapezoid average over [lo, hi] of samples gx at the increasing times
    t, cut by ``searchsorted``; an end between two samples is added with its
    interpolated value."""
    cut = slice(np.searchsorted(t, lo), np.searchsorted(t, hi, side="right"))
    tt, gg = t[cut], gx[cut]
    if tt[0] > lo:
        tt = np.insert(tt, 0, lo)
        gg = np.insert(gg, 0, np.interp(lo, t, gx))
    if tt[-1] < hi:
        tt = np.append(tt, hi)
        gg = np.append(gg, np.interp(hi, t, gx))
    return float(np.trapezoid(gg, tt) / (hi - lo))


def loop_average(trajectory, g, n_loops=None):
    """Average g(X_t) over an integer number of returns to the surface.

    Integrating over whole loops removes the endpoint bias of a periodic
    orbit; the final partial step is cut at the interpolated hit time.
    """
    return _loop_averages(trajectory, g, n_loops)[0]


def per_loop_averages(trajectory, g, n_loops=None):
    """The average of g over each individual return interval.

    The scatter of these values measures how far the orbit is from exactly
    periodic, which sets the statistical error of the loop average.
    """
    return _loop_averages(trajectory, g, n_loops)[1]


def hitting_value_function(model, scheme, init, dt, M=None, t_max=200.0):
    """Action gained until the first return to the start surface, and the
    return time.

    The start must sit on the surface I = {X = X_0 mod L} with E - V_0 > 0
    along the path (no turning point).
    """
    traj = simulate(model, init, scheme, T_final=t_max, dt=dt,
                    surface=float(init.X[0]), M=M, max_hits=1)
    if not traj.hits:
        raise HittingTimeError(
            f"no return to the surface within t_max = {t_max}")
    hit = traj.hits[0]
    return hit.theta - init.z, hit.tau - init.t
