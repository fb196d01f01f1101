import numpy as np
import pytest
from scipy.integrate import quad

from qcmd import ModelSpec, build_model, dynamics, espec, qref, wkb
from qcmd.errors import CausticError


def free_model():
    return build_model(ModelSpec(family="free"))


def cos_model(a=0.1):
    return build_model(ModelSpec(family="scalar_cos", params={"a": a}))


# ----------------------------------------------------------- quantization

def test_quantized_energy_free_matches_exact_eigenvalue():
    m = free_model()
    M = 1024.0
    for k in (3, 10, 40):
        E = wkb.quantized_energy(m, k, M)
        exact = (2 * np.pi * k / m.L) ** 2 / (2 * M)
        assert E == pytest.approx(exact, rel=1e-12)


def test_quantization_residual_small():
    m = cos_model(0.1)
    M = 1024.0
    k = wkb.bohr_sommerfeld_index(m, 1.0, M)
    E = wkb.quantized_energy(m, k, M)
    action, _ = quad(lambda x: np.sqrt(2 * (E - 0.1 * np.cos(x))), 0, 2 * np.pi,
                     epsabs=1e-14, limit=400)
    assert abs(action - 2 * np.pi * k / np.sqrt(M)) < 1e-10


def test_quantized_energy_monotone_in_k():
    m = cos_model(0.2)
    energies = [wkb.quantized_energy(m, k, 256.0) for k in range(10, 16)]
    assert np.all(np.diff(energies) > 0)


def test_quantized_energy_below_barrier_raises():
    m = cos_model(0.5)
    with pytest.raises(ValueError, match="barrier"):
        wkb.quantized_energy(m, 1, 1e6)


# ------------------------------------------------------------ weight_along

def _bo_loop(m, E, dt=2e-4, t_final=5.0, X0=0.5):
    lam0 = espec.eigen_at(m, X0)[0][0]
    p0 = np.sqrt(2 * (E - lam0))
    return dynamics.simulate(m, dynamics.PhaseState.make(X0, p0), "bo",
                             T_final=t_final, dt=dt)


def test_weight_free_trivial():
    m = free_model()
    traj = _bo_loop(m, 0.5, dt=1e-3)
    wv = wkb.weight_along(traj, m)
    assert np.abs(wv.G - 1.0).max() < 1e-12
    assert np.abs(wv.J - 1.0).max() < 1e-12


def test_weight_one_dimensional_identity():
    m = cos_model(0.1)
    traj = _bo_loop(m, 1.0)
    wv = wkb.weight_along(traj, m)
    p = traj.p[:, 0]
    dev = np.abs(wv.G ** 2 / wv.G[0] ** 2 - p / p[0]).max()
    assert dev < 1e-8


def test_weight_liouville_identity():
    m = cos_model(0.2)
    traj = _bo_loop(m, 0.9)
    wv = wkb.weight_along(traj, m)           # raises beyond 1e-6 internally
    assert np.abs(wv.G ** 2 / wv.G[0] ** 2 - wv.J).max() < 1e-6


def test_first_variation_matches_bumped_trajectory():
    m = cos_model(0.15)
    E = 1.0
    traj = _bo_loop(m, E, dt=5e-4, t_final=3.0)
    wv = wkb.weight_along(traj, m)
    dX0 = 1e-6
    X0 = 0.5
    p_of = lambda x: np.sqrt(2 * (E - 0.15 * np.cos(x)))
    bumped = dynamics.simulate(m, dynamics.PhaseState.make(X0 + dX0, p_of(X0 + dX0)),
                               "bo", T_final=3.0, dt=5e-4)
    J_num = (bumped.X[:, 0] - traj.X[:, 0]) / dX0
    assert np.abs(J_num - wv.J).max() < 1e-4


def test_weight_requires_bo_scheme():
    m = cos_model(0.1)
    rng = np.random.default_rng(0)
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, 1.0), "smoluchowski",
                             T_final=1.0, dt=0.01,
                             rng=np.random.default_rng(1), T=0.1)
    with pytest.raises(NotImplementedError):
        wkb.weight_along(traj, m)


def _weight_along_reference(trajectory, model):
    """weight_along as a second Verlet integration of X and p from the first
    record row, with the force and the curvature evaluated point by point."""
    t, dt = trajectory.t, trajectory.dt
    X, p = float(trajectory.X[0, 0]), float(trajectory.p[0, 0])
    dX, dp = 1.0, espec.ground_force(model, X) / p
    log_g = 0.0
    G, J = np.ones(t.size), np.ones(t.size)
    for i in range(t.size - 1):
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
        G[i + 1] = np.exp(log_g)
        J[i + 1] = dX
    return G, J


WEIGHT_MODELS = {
    "scalar_cos": (lambda: cos_model(0.1), 1.0),
    "two_level_gap": (lambda: build_model(ModelSpec(family="two_level_gap",
                                                    params={"delta": 0.25}, d=2)), 0.6),
    "multi_level": (lambda: build_model(ModelSpec(
        family="multi_level", d=3,
        params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3})), 0.6),
}


@pytest.mark.parametrize("family", sorted(WEIGHT_MODELS))
def test_weight_along_matches_the_reintegrating_reference(family):
    make, E = WEIGHT_MODELS[family]
    m = make()
    traj = _bo_loop(m, E, dt=1e-3, t_final=1.5)
    wv = wkb.weight_along(traj, m)
    G, J = _weight_along_reference(traj, m)
    assert np.array_equal(wv.J, J)
    assert np.abs(wv.G / G - 1.0).max() <= 1e-13


def test_weight_along_needs_every_step_recorded():
    m = cos_model(0.1)
    lam0 = espec.eigen_at(m, 0.5)[0][0]
    init = dynamics.PhaseState.make(0.5, np.sqrt(2 * (1.0 - lam0)))
    every = dynamics.simulate(m, init, "bo", T_final=2.0, dt=2e-4)
    assert wkb.weight_along(every, m).J.size == every.t.size
    sparse = dynamics.simulate(m, init, "bo", T_final=2.0, dt=2e-4, record_every=10)
    with pytest.raises(ValueError, match="every step"):
        wkb.weight_along(sparse, m)
    with pytest.raises(ValueError, match="every step"):
        wkb.detect_caustics(sparse, model=m)


# ---------------------------------------------------------------- density

def test_density_free_uniform():
    m = free_model()
    field = wkb.field_from_energy(m, 0.5, M=64.0, n_grid=128)
    assert np.abs(field.rho - 1.0 / m.L).max() < 1e-14


def test_density_normalized_and_momentum_product_constant():
    m = cos_model(0.1)
    field = wkb.field_from_energy(m, 1.0, M=256.0, n_grid=512)
    h = m.L / field.grid.size
    assert abs(field.rho.sum() * h - 1.0) < 1e-8
    prod = field.rho * field.pfield
    assert np.abs(prod - prod[0]).max() < 1e-8
    assert np.all(field.rho > 0)


def test_theta_matches_momentum_quadrature():
    m = cos_model(0.1)
    E = 1.0
    field = wkb.field_from_energy(m, E, M=256.0, n_grid=1024)
    for i in (100, 500, 900):
        target, _ = quad(lambda x: np.sqrt(2 * (E - 0.1 * np.cos(x))), 0,
                         field.grid[i], epsabs=1e-12, limit=200)
        assert abs(field.theta[i] - target) < 1e-8


def test_theta_matches_trajectory_action():
    m = cos_model(0.1)
    E = 1.0
    field = wkb.field_from_energy(m, E, M=256.0, n_grid=1024)
    traj = _bo_loop(m, E, dt=1e-4, t_final=4.0, X0=0.0)
    # z(t) accumulates the action along the path; theta is its position field
    for i in (1000, 20000):
        X_t = traj.X[i, 0]
        if X_t < m.L:
            theta_interp = np.interp(X_t, field.grid, field.theta)
            assert abs(traj.z[i] - theta_interp) < 1e-6


# ------------------------------------------------------------- caustics

def test_caustics_empty_above_barrier():
    m = cos_model(0.1)
    field = wkb.field_from_energy(m, 0.1 + 0.15, M=64.0, n_grid=256)
    assert wkb.detect_caustics(field) == []
    assert wkb.detect_caustics(wkb.field_from_energy(free_model(), 0.3, M=64.0)) == []


def test_caustic_raised_below_barrier():
    m = cos_model(0.2)
    with pytest.raises(CausticError):
        wkb.field_from_energy(m, 0.1, M=64.0)   # E < max lambda_0 = 0.2


def test_trajectory_caustics_at_turning_point():
    m = cos_model(0.3)
    E = 0.15                                     # below the 0.3 barrier
    X0 = np.pi
    p0 = np.sqrt(2 * (E - 0.3 * np.cos(X0)))
    traj = dynamics.simulate(m, dynamics.PhaseState.make(X0, p0), "bo",
                             T_final=12.0, dt=1e-3)
    locations = wkb.detect_caustics(traj, model=m)
    assert locations                              # J vanishes at the turning point


# ----------------------------------------------------------- assembly

def test_assemble_free_plane_wave():
    m = free_model()
    M, k = 1024.0, 7
    E = wkb.quantized_energy(m, k, M)
    field = wkb.field_from_energy(m, E, M, n_grid=256, k=k)
    basis = espec.eigendecompose_field(m, field.grid)
    Phi = wkb.assemble_wkb_eigenfunction(m, field, basis, M)
    expect = np.exp(1j * 2 * np.pi * k * field.grid / m.L) / np.sqrt(m.L)
    assert np.abs(Phi[:, 0] - expect).max() < 1e-10


def test_assemble_norm_and_quantization_guard():
    m = cos_model(0.1)
    M = 256.0
    k = wkb.bohr_sommerfeld_index(m, 1.0, M)
    field = wkb.build_field(m, M, k, n_grid=512)
    basis = espec.eigendecompose_field(m, field.grid)
    Phi = wkb.assemble_wkb_eigenfunction(m, field, basis, M)
    h = m.L / field.grid.size
    assert abs(h * np.sum(np.abs(Phi) ** 2) - 1.0) < 1e-10
    bad = wkb.field_from_energy(m, field.E * 1.01, M, n_grid=512)
    with pytest.raises(ValueError, match="quantized"):
        wkb.assemble_wkb_eigenfunction(m, bad, basis, M)


def test_ehrenfest_field_builder_scalar_reduces_to_bo():
    m = cos_model(0.1)
    M = 256.0
    k = wkb.bohr_sommerfeld_index(m, 1.0, M)
    f_bo = wkb.build_field(m, M, k, scheme="bo", n_grid=256)
    f_e = wkb.build_field(m, M, k, scheme="ehrenfest", n_grid=256)
    assert abs(f_e.E - f_bo.E) < 1e-5
    assert np.abs(f_e.pfield - f_bo.pfield).max() < 1e-4
    assert np.abs(np.abs(f_e.psi[:, 0]) - 1.0).max() < 1e-10


def test_ehrenfest_field_two_level_gap_launches_at_branch_start():
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    M = 256.0
    k = wkb.bohr_sommerfeld_index(m, 1.0, M)
    field = wkb.build_field(m, M, k, scheme="ehrenfest", n_grid=256)
    assert field.scheme == "ehrenfest" and field.psi.shape == (256, 2)
    assert np.abs(np.linalg.norm(field.psi, axis=1) - 1.0).max() < 1e-12
    assert wkb.detect_caustics(field) == [] and field.pfield.min() > 0.0
    # the loop starts on the first grid point: psi there is the launch state
    X0 = espec.loop_branches(m).launch
    assert X0 == field.grid[0]
    p0 = np.sqrt(2.0 * (wkb.quantized_energy(m, k, M) - espec.eigen_at(m, X0)[0][0]))
    phi0 = dynamics.initial_electron_state(m, X0, p0, M)
    assert np.abs(field.psi[0] - phi0).max() < 1e-12


def test_ehrenfest_field_turning_back_is_a_caustic():
    # the Ehrenfest loop turns back (p < 0) before it returns to its launch point
    m = build_model(ModelSpec(family="two_level_cross", d=2))
    with pytest.raises(CausticError, match="turned back"):
        wkb.build_field(m, 256.0, 34, scheme="ehrenfest", n_grid=256)


@pytest.mark.parametrize("M", [0.0, 0.5, -4.0, np.nan, np.inf])
def test_quantization_rejects_bad_mass(M):
    with pytest.raises(ValueError, match="M must be finite and >= 1"):
        wkb.quantized_energy(cos_model(), 3, M)


def test_wkb_residual_decays_with_mass():
    # coarse two-point version of the residual sweep (full sweep in acceptance)
    m = cos_model(0.1)
    res = []
    for M in (64.0, 1024.0):
        k = wkb.bohr_sommerfeld_index(m, 1.0, M)
        E = wkb.quantized_energy(m, k, M)
        n = 512
        H = qref.assemble_hamiltonian(m, M, n)
        field = wkb.field_from_energy(m, E, M, n_grid=n, k=k)
        basis = espec.eigendecompose_field(m, field.grid)
        Phi = wkb.assemble_wkb_eigenfunction(m, field, basis, M)
        res.append(qref.residual_norm(H, Phi, E))
    assert res[1] < res[0] / 4.0
