"""WKB field assembly on the torus.

One quantization routine on level profiles (a one-row profile is the ground
surface) gives the quantized energy, the nearest index and the level
spacing; one assembler builds the phase, weight and density fields with
their caustic check; and the approximate eigenfunction
rho^(1/2) psi exp(i sqrt(M) theta) is assembled on a reference grid.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, espec
from . import model as model_mod
from .errors import CausticError
from ._util import brentq, periodic_antiderivative, periodic_grid, periodic_integral

__all__ = [
    "WkbField",
    "WeightVariation",
    "profile_action",
    "quantized_energy_from_profiles",
    "quantization_index",
    "level_spacing",
    "quantized_energy",
    "bohr_sommerfeld_index",
    "build_field",
    "field_from_energy",
    "weight_along",
    "detect_caustics",
    "assemble_wkb_eigenfunction",
]

EPS_CAUSTIC = 1e-6
_N_QUAD = 4096


@dataclass(frozen=True)
class WkbField:
    """Grid fields (theta, p, G, rho, psi) at a fixed quantized energy."""

    grid: np.ndarray
    E: float
    theta: np.ndarray
    pfield: np.ndarray
    G: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    M: float
    scheme: str = "bo"
    k: int = None


@dataclass(frozen=True)
class WeightVariation:
    """Weight G and first variation J = dX_t/dX_0 along a trajectory."""

    t: np.ndarray
    G: np.ndarray
    J: np.ndarray


def profile_action(profiles, L, E):
    """Loop action at E: the sum over the profile rows of the integral of sqrt(2 (E - V))."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    gap = 2.0 * (E - profiles)
    if gap.min() <= 0.0:
        raise CausticError(f"E = {E} is not above the loop barrier")
    return float(sum(periodic_integral(np.sqrt(g), L) for g in gap))


def quantized_energy_from_profiles(profiles, L, k, M, index_offset=0.0):
    """Energy whose summed loop action over the given level curves matches index k.

    ``profiles`` holds potential samples of each branch in the loop on a
    uniform torus grid; the action is the sum of the branch actions.
    ``index_offset`` carries connection phases (a quarter per crossing pass).
    Bracketed root finding to relative 1e-12; fails when the requested index
    puts the energy at or below the barrier top.
    """
    if not (np.isfinite(M) and M >= 1.0):
        raise ValueError(f"mass M must be finite and >= 1, got {M}")
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    barrier = float(profiles.max())
    target = 2.0 * np.pi * (k + index_offset) / np.sqrt(M)

    def residual(E):
        return profile_action(profiles, L, E) - target

    E_lo = barrier + max(1e-9, 1e-12 * max(1.0, abs(barrier)))
    if residual(E_lo) >= 0.0:
        raise ValueError(
            f"no quantized energy above the barrier for k = {k} at M = {M}")
    E_hi = barrier + 1.0
    while residual(E_hi) < 0.0:
        E_hi = barrier + 2.0 * (E_hi - barrier)
    return brentq(residual, E_lo, E_hi, xtol=1e-14, rtol=1e-15, maxiter=200)


def quantization_index(profiles, L, E, M, index_offset=0.0):
    """Quantization index (at least 1) whose loop energy is nearest E."""
    return max(1, round(profile_action(profiles, L, E) * np.sqrt(M) / (2.0 * np.pi)
                        - index_offset))


def level_spacing(profiles, L, E, M):
    """Loop-level spacing 2 pi / (sqrt(M) dA/dE) near E, dA/dE = sum int dX/p."""
    dAdE = (profile_action(profiles, L, E + 5e-7)
            - profile_action(profiles, L, E - 5e-7)) / 1e-6
    return 2.0 * np.pi / (np.sqrt(M) * dAdE)


def _ground_profile(model):
    return model_mod.levels_and_slopes(model, periodic_grid(model.L, _N_QUAD))[0][:, 0]


def quantized_energy(model, k, M):
    """Energy whose one-loop action on the ground surface equals 2 pi k / sqrt(M)."""
    if k < 1:
        raise ValueError("quantization index k must be >= 1")
    return quantized_energy_from_profiles(_ground_profile(model), model.L, k, M)


def bohr_sommerfeld_index(model, E_ref, M):
    """Quantization index on the ground surface whose energy is nearest E_ref."""
    return quantization_index(_ground_profile(model), model.L, E_ref, M)


def _assemble_field(model, E, M, n_grid, surface, scheme, k):
    """Fields at energy E on an n_grid torus grid; ``surface(grid)`` gives the
    potential profile and the unit electron vectors psi there."""
    if n_grid < 1:
        raise ValueError(f"n_grid must be >= 1, got {n_grid}")
    grid = periodic_grid(model.L, n_grid)
    profile, psi = surface(grid)
    p_sq = 2.0 * (E - profile)
    if p_sq.min() <= EPS_CAUSTIC ** 2:
        raise CausticError(
            f"momentum field vanishes (min p^2 = {p_sq.min():.3e}); caustic present")
    pfield = np.sqrt(p_sq)
    theta = periodic_antiderivative(pfield, model.L)
    G = np.sqrt(pfield / pfield[0])
    inv_p = 1.0 / pfield
    rho = inv_p / periodic_integral(inv_p, model.L)
    return WkbField(grid=grid, E=float(E), theta=theta, pfield=pfield, G=G,
                    rho=rho, psi=psi, M=float(M), scheme=scheme, k=k)


def field_from_energy(model, E, M, n_grid=1024, k=None):
    """Assemble the grid fields for a given energy on the ground surface."""
    def ground(grid):
        basis = espec.eigendecompose_field(model, grid)
        return basis.lambdas[:, 0], basis.vectors[:, :, 0].astype(complex)

    return _assemble_field(model, E, M, n_grid, ground, "bo", k)


def _ehrenfest_effective_potential(model, E0, M):
    """One Ehrenfest loop from the launch point; returns periodic splines of
    V_hat_0(X) and psi_hat(X)."""
    from scipy.interpolate import CubicSpline  # scipy loads on first use

    X0 = espec.loop_branches(model).launch
    lam0_start = espec.eigen_at(model, X0)[0][0]
    p0 = np.sqrt(2.0 * (E0 - lam0_start))
    phi0 = dynamics.initial_electron_state(model, X0, p0, M)
    init = dynamics.PhaseState.make(X0, p0, phi=phi0)
    dt = min(dynamics.DEFAULT_C_STEP / np.sqrt(M), 2e-3)
    traj = dynamics.simulate(model, init, "ehrenfest", T_final=10.0 * model.L / p0,
                             dt=dt, surface=X0, M=M, max_hits=1)
    if not traj.hits:
        raise CausticError("Ehrenfest loop did not close; cannot build the field")
    tau = traj.hits[0].tau
    inside = traj.t <= tau
    if traj.p[inside, 0].min() <= 0.0:
        raise CausticError("Ehrenfest loop turned back before closing; caustic present")
    t_s = traj.t[inside]
    X_s = traj.X[inside, 0]
    v0_s = traj.H[inside] - 0.5 * traj.p[inside, 0] ** 2
    # dynamical dressing: psi_hat = phi * exp(i sqrt(M) int V_hat_0 dt)
    phase = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t_s) * (v0_s[1:] + v0_s[:-1]))])
    psi_s = traj.phi[inside] * np.exp(1j * np.sqrt(M) * phase)[:, None]
    # force exact periodicity at the seam (mismatch is the loop monodromy error);
    # the periodic splines extrapolate to the grid points below X0
    X_ext = np.append(X_s, X0 + model.L)
    v0_spline = CubicSpline(X_ext, np.append(v0_s, v0_s[0]), bc_type="periodic")
    psi_splines = [
        (CubicSpline(X_ext, np.append(psi_s[:, n].real, psi_s[0, n].real), bc_type="periodic"),
         CubicSpline(X_ext, np.append(psi_s[:, n].imag, psi_s[0, n].imag), bc_type="periodic"))
        for n in range(model.d)
    ]
    return v0_spline, psi_splines


def build_field(model, M, k, scheme="bo", n_grid=1024):
    """Quantize the energy for index k and assemble the field."""
    if scheme not in ("bo", "ehrenfest"):
        raise ValueError(f"unknown scheme {scheme!r}")
    E = quantized_energy(model, k, M)
    if scheme == "bo":
        return field_from_energy(model, E, M, n_grid=n_grid, k=k)
    v0_spline, psi_splines = _ehrenfest_effective_potential(model, E, M)
    E = quantized_energy_from_profiles(v0_spline(periodic_grid(model.L, _N_QUAD)),
                                       model.L, k, M)

    def dressed(grid):
        psi = np.column_stack([re_s(grid) + 1j * im_s(grid) for re_s, im_s in psi_splines])
        return v0_spline(grid), psi / np.linalg.norm(psi, axis=1, keepdims=True)

    return _assemble_field(model, E, M, n_grid, dressed, "ehrenfest", k)


def weight_along(trajectory, model, check_tol=1e-6, eps_caustic=EPS_CAUSTIC):
    """Integrate the weight G and the first variation J along a trajectory.

    The tangent flow of the Verlet step is propagated with the Lagrangian
    initialization dp/dX = -lambda_0'(X_0)/p_0, the log-weight accumulates
    (1/2) dp/dX by Simpson, and the Liouville identity G_t^2/G_0^2 = J(t)
    is asserted to ``check_tol``.
    """
    if trajectory.scheme != "bo":
        raise NotImplementedError(
            "weight_along propagates the ground-surface tangent flow; "
            f"got scheme {trajectory.scheme!r}")
    t = trajectory.t
    n_steps = t.size - 1
    dt = trajectory.dt
    X = float(trajectory.X[0, 0])
    p = float(trajectory.p[0, 0])
    if abs(p) <= eps_caustic:
        raise CausticError("initial momentum vanishes")
    dX, dp = 1.0, espec.ground_force(model, X) / p
    log_g = 0.0
    G = np.empty(t.size)
    J = np.empty(t.size)
    G[0], J[0] = 1.0, 1.0
    for i in range(n_steps):
        u0 = dp / dX
        curv0 = espec.ground_curvature(model, X)
        p_half = p + 0.5 * dt * espec.ground_force(model, X)
        dp_half = dp - 0.5 * dt * curv0 * dX
        X1 = X + dt * p_half
        dX1 = dX + dt * dp_half
        dX_mid = dX + 0.5 * dt * dp_half
        u_mid = dp_half / dX_mid
        curv1 = espec.ground_curvature(model, X1)
        p1 = p_half + 0.5 * dt * espec.ground_force(model, X1)
        dp1 = dp_half - 0.5 * dt * curv1 * dX1
        u1 = dp1 / dX1
        log_g += dt / 12.0 * (u0 + 4.0 * u_mid + u1)
        X, p, dX, dp = X1, p1, dX1, dp1
        if dX <= eps_caustic:
            raise CausticError(f"first variation vanished at t = {t[i + 1]:.6g}")
        G[i + 1] = np.exp(log_g)
        J[i + 1] = dX
    dev = np.max(np.abs(G ** 2 / G[0] ** 2 - J) / np.maximum(1.0, np.abs(J)))
    if dev > check_tol:
        raise RuntimeError(
            f"Liouville identity violated: max |G^2/G_0^2 - det J| = {dev:.3e}")
    return WeightVariation(t=t.copy(), G=G, J=J)


def detect_caustics(obj, model=None, eps=EPS_CAUSTIC):
    """Locations where the momentum field or the flow Jacobian vanishes.

    An empty list certifies the no-caustics hypothesis for the run.
    """
    if isinstance(obj, WkbField):
        mask = obj.pfield ** 2 <= eps
        return [float(x) for x in obj.grid[mask]]
    if model is None:
        raise ValueError("detecting caustics along a trajectory needs the model")
    try:
        wv = weight_along(obj, model, check_tol=np.inf, eps_caustic=-np.inf)
    except CausticError:
        return [float(obj.t[-1])]
    mask = wv.J <= eps
    return [float(tt) for tt in wv.t[mask]]


def assemble_wkb_eigenfunction(model, field, basis, M):
    """Complex d-vector field rho^(1/2) psi exp(i sqrt(M) theta), unit L2 norm.

    Requires the energy to be quantized so the phase factor is single-valued
    over the torus seam.
    """
    loop_action = periodic_integral(field.pfield, model.L)
    closure = np.sqrt(M) * loop_action
    mismatch = abs(closure - 2.0 * np.pi * np.round(closure / (2.0 * np.pi)))
    if mismatch > 1e-8:
        raise ValueError(
            f"energy not quantized: seam phase mismatch {mismatch:.3e} rad")
    if field.scheme == "ehrenfest":
        psi = field.psi
    else:
        if basis is None:
            basis = espec.eigendecompose_field(model, field.grid)
        psi = basis.vectors[:, :, 0].astype(complex)
    phi = np.sqrt(field.rho)[:, None] * psi * np.exp(1j * np.sqrt(M) * field.theta)[:, None]
    h = model.L / field.grid.size
    norm = np.sqrt(h * np.sum(np.abs(phi) ** 2))
    return phi / norm
