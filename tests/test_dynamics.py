import numpy as np
import pytest
from scipy.integrate import quad

from qcmd import ModelSpec, build_model, dynamics, espec, wkb
from qcmd.errors import HittingTimeError, ResolutionError
from qcmd._util import stream_rng


def free_model():
    return build_model(ModelSpec(family="free"))


def cos_model(a=0.1):
    return build_model(ModelSpec(family="scalar_cos", params={"a": a}))


def gap_model(delta=0.25):
    return build_model(ModelSpec(family="two_level_gap", params={"delta": delta}, d=2))


# ---------------------------------------------------------------- step_bo

def test_bo_free_drift():
    m = free_model()
    st = dynamics.PhaseState.make(0.3, 1.1)
    new = dynamics.step_bo(m, st, 0.05)
    assert new.X[0] == pytest.approx(0.3 + 1.1 * 0.05, abs=1e-15)
    assert new.p[0] == 1.1


def test_bo_one_step_position_formula():
    m = cos_model(0.2)
    X0, p0, dt = 0.7, 1.3, 1e-2
    new = dynamics.step_bo(m, dynamics.PhaseState.make(X0, p0), dt)
    force = espec.ground_force(m, X0)
    assert new.X[0] == pytest.approx(X0 + p0 * dt + 0.5 * dt * dt * force, abs=1e-15)


def test_simulate_bo_matches_repeated_steps_bitwise():
    # simulate carries each step's end force into the next step, step_bo
    # recomputes it; on the sorted level and on a branch through a crossing
    cross = build_model(ModelSpec(family="two_level_cross", d=2))
    branch = espec.eigen_at(cross, 1.0)[1][:, 0].astype(complex)
    for m, phi in ((gap_model(), None), (cross, branch)):
        init = dynamics.PhaseState.make(1.0, 2.5, phi=phi)
        traj = dynamics.simulate(m, init, "bo", T_final=3.0, dt=1e-3)
        assert traj.X[-1, 0] > 2.0 * np.pi
        st = init
        for i in range(1, traj.t.size):
            st = dynamics.step_bo(m, st, 1e-3)
            assert (st.X[0], st.p[0], st.z) == (traj.X[i, 0], traj.p[i, 0], traj.z[i])
        assert np.array_equal(traj.H[-1:], [dynamics.hamiltonian(m, st, "bo")])


def test_bo_energy_error_scales_dt_squared():
    m = cos_model(0.3)
    E0 = 1.0
    p0 = np.sqrt(2 * (E0 - 0.3))
    drifts = []
    dts = [1e-2, 5e-3, 2.5e-3]
    for dt in dts:
        traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, p0), "bo",
                                 T_final=8.0, dt=dt)
        drifts.append(np.abs(traj.H - traj.H[0]).max())
    slopes = np.diff(np.log(drifts)) / np.diff(np.log(dts))
    assert abs(np.mean(slopes) - 2.0) < 0.1


def test_verlet_time_reversal():
    m = cos_model(0.25)
    st = dynamics.PhaseState.make(0.4, 1.2)
    n = 500
    fwd = st
    for _ in range(n):
        fwd = dynamics.step_bo(m, fwd, 1e-3)
    back = dynamics.PhaseState.make(fwd.X[0], -fwd.p[0])
    for _ in range(n):
        back = dynamics.step_bo(m, back, 1e-3)
    assert abs(back.X[0] - st.X[0]) < 1e-10
    assert abs(-back.p[0] - st.p[0]) < 1e-10


# ----------------------------------------------------------- step_ehrenfest

def test_ehrenfest_constant_potential_free_drift():
    # a gap family frozen at X has constant V only for free; use free with a
    # fake 1-level phi: force vanishes identically
    m = free_model()
    st = dynamics.PhaseState.make(0.0, 0.8, phi=np.array([1.0 + 0j]))
    new = st
    for _ in range(100):
        new = dynamics.step_ehrenfest(m, new, 1e-3, M=100.0)
    assert new.X[0] == pytest.approx(0.8 * 100 * 1e-3, rel=1e-12)


def test_ehrenfest_scalar_matches_bo():
    m = cos_model(0.2)
    M = 256.0
    dt = 0.1 / np.sqrt(M)
    st_e = dynamics.PhaseState.make(0.3, 1.4, phi=np.array([1.0 + 0j]))
    st_b = dynamics.PhaseState.make(0.3, 1.4)
    for _ in range(200):
        st_e = dynamics.step_ehrenfest(m, st_e, dt, M=M)
        st_b = dynamics.step_bo(m, st_b, dt)
        assert abs(st_e.X[0] - st_b.X[0]) < 1e-12
        assert abs(st_e.p[0] - st_b.p[0]) < 1e-12


def test_ehrenfest_norm_conservation_long_run():
    m = gap_model()
    M = 1024.0
    p0 = np.sqrt(2 * (0.5 - espec.eigen_at(m, 0.0)[0][0]))
    phi0 = dynamics.initial_electron_state(m, 0.0, p0, M)
    dt = 0.1 / np.sqrt(M)
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, p0, phi=phi0),
                             "ehrenfest", T_final=100_000 * dt, dt=dt, M=M,
                             record_every=1000)
    norms = np.abs(np.einsum("ij,ij->i", np.conj(traj.phi), traj.phi))
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_ehrenfest_stiffness_guard():
    m = gap_model()
    st = dynamics.PhaseState.make(0.0, 1.0, phi=np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ResolutionError):
        dynamics.step_ehrenfest(m, st, dt=1.0, M=1e4)


def test_ehrenfest_requires_normalized_phi():
    m = gap_model()
    st = dynamics.PhaseState.make(0.0, 1.0, phi=np.array([2.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        dynamics.step_ehrenfest(m, st, dt=1e-3, M=100.0)


# ------------------------------------------------------------ stochastic

def test_langevin_zero_noise_matches_bo_position():
    m = cos_model(0.2)
    rng = stream_rng(0)
    dt = 1e-2
    st_l = dynamics.step_langevin(m, dynamics.PhaseState.make(0.5, 1.0), dt,
                                  T=0.0, K=1e-10, rng=rng)
    st_b = dynamics.step_bo(m, dynamics.PhaseState.make(0.5, 1.0), dt)
    assert abs(st_l.X[0] - st_b.X[0]) < 5.0 * dt ** 3


def test_langevin_ou_stationary_variance():
    # free model: p is an exact OU process with stationary variance T
    m = free_model()
    rng = stream_rng(42)
    T, K, dt = 1.0, 1.0, 0.05
    st = dynamics.PhaseState.make(0.0, 0.0)
    n = 200_000
    ps = np.empty(n)
    for i in range(n):
        st = dynamics.step_langevin(m, st, dt, T=T, K=K, rng=rng)
        ps[i] = st.p[0]
    burn = n // 10
    var = np.var(ps[burn:])
    # effective sample count from the OU autocorrelation time 1/(K dt)
    n_eff = (n - burn) * K * dt / 2.0
    sigma = T * np.sqrt(2.0 / n_eff)
    assert abs(var - T) < 3.0 * sigma


def test_stochastic_reproducibility():
    m = cos_model(0.1)
    out = []
    for _ in range(2):
        rng = stream_rng(7, 3)
        traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, 0.0), "langevin",
                                 T_final=5.0, dt=0.01, rng=rng, T=0.5, K=1.0)
        out.append((traj.X.copy(), traj.p.copy()))
    assert np.array_equal(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])


def test_smoluchowski_zero_temperature_gradient_step():
    m = cos_model(0.3)
    rng = stream_rng(0)
    st = dynamics.step_smoluchowski(m, dynamics.PhaseState.make(1.0, 0.0), 0.01,
                                    T=0.0, rng=rng)
    assert st.X[0] == pytest.approx(1.0 + 0.01 * espec.ground_force(m, 1.0), abs=1e-15)


def test_smoluchowski_brownian_variance():
    m = free_model()
    rng = stream_rng(11)
    T, dt, n = 0.5, 0.01, 100_000
    st = dynamics.PhaseState.make(0.0, 0.0)
    xs = np.empty(n + 1)
    xs[0] = 0.0
    for i in range(n):
        st = dynamics.step_smoluchowski(m, st, dt, T=T, rng=rng)
        xs[i + 1] = st.X[0]
    inc = np.diff(xs)
    var = inc.var()
    target = 2.0 * T * dt
    sigma = target * np.sqrt(2.0 / n)
    assert abs(var - target) < 3.0 * sigma


def test_smoluchowski_gibbs_marginal():
    # stationary density ~ exp(-lambda_0/T): compare <cos> with quadrature
    m = cos_model(0.15)
    T = 0.25
    rng = stream_rng(5)
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, 0.0), "smoluchowski",
                             T_final=4000.0, dt=0.02, rng=rng, T=T)
    g = lambda x: np.cos(2 * np.pi * x / m.L)
    mean, stderr = dynamics.time_average(traj, g, burn_in=100.0)
    num, _ = quad(lambda x: np.cos(x) * np.exp(-0.15 * np.cos(x) / T), 0, 2 * np.pi)
    den, _ = quad(lambda x: np.exp(-0.15 * np.cos(x) / T), 0, 2 * np.pi)
    assert abs(mean - num / den) < 4.0 * max(stderr, 1e-3)


# ---------------------------------------------------------------- simulate

def test_simulate_sample_count_and_hits():
    m = free_model()
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, 1.0), "bo",
                             T_final=20.0, dt=0.01, surface=0.0)
    assert traj.t.size == int(np.floor(20.0 / 0.01 + 1e-9)) + 1
    assert np.all(np.diff(traj.t) > 0)
    # constant speed: returns every L / p
    taus = [h.tau for h in traj.hits]
    expect = np.arange(1, len(taus) + 1) * m.L / 1.0
    assert np.allclose(taus, expect, atol=1e-9)


def test_simulate_rejects_nonfinite():
    m = cos_model(0.1)

    bad = dynamics.PhaseState.make(np.nan, 1.0)
    with pytest.raises(RuntimeError, match="non-finite"):
        dynamics.simulate(m, bad, "bo", T_final=0.1, dt=0.01)


# ------------------------------------------------------------ time_average

def test_time_average_constant_is_exact():
    m = free_model()
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, 1.0), "bo",
                             T_final=5.0, dt=0.01)
    mean, stderr = dynamics.time_average(traj, lambda x: np.ones_like(x))
    assert mean == 1.0
    assert stderr == 0.0


def test_time_average_equidistribution():
    m = free_model()
    p0 = np.sqrt(2.0)          # incommensurate speed on the 2 pi torus
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, p0), "bo",
                             T_final=2000.0, dt=0.02)
    mean, stderr = dynamics.time_average(traj, lambda x: np.cos(2 * np.pi * x / m.L))
    assert abs(mean) < max(3.0 * stderr, 5e-3)


def test_time_average_matches_wkb_density_quadrature():
    m = cos_model(0.1)
    E = 1.0
    field = wkb.field_from_energy(m, E, M=1024.0, n_grid=1024)
    g = lambda x: np.cos(2 * np.pi * x / m.L)
    target = float(np.sum(g(field.grid) * field.rho) * (m.L / field.grid.size))
    p0 = np.sqrt(2 * (E - 0.1))
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.0, p0), "bo",
                             T_final=50.0, dt=5e-4, surface=0.0)
    assert traj.hits
    mean = dynamics.loop_average(traj, g)
    assert abs(mean - target) < 1e-5


# ------------------------------------------------- hitting_value_function

def test_hitting_free_exact():
    m = free_model()
    gain, tau = dynamics.hitting_value_function(
        m, "bo", dynamics.PhaseState.make(0.0, 1.25), dt=1e-3)
    assert abs(tau - m.L / 1.25) < 1e-9
    assert abs(gain - 1.25 * m.L) < 1e-9


def test_hitting_matches_action_quadrature():
    m = cos_model(0.1)
    E = 1.0
    oracle, _ = quad(lambda x: np.sqrt(2 * (E - 0.1 * np.cos(x))), 0, 2 * np.pi,
                     epsabs=1e-13, limit=200)
    p0 = np.sqrt(2 * (E - 0.1))
    gain, tau = dynamics.hitting_value_function(
        m, "bo", dynamics.PhaseState.make(0.0, p0), dt=2e-4)
    assert abs(gain - oracle) < 1e-6


def test_hitting_gain_monotone_in_energy():
    m = cos_model(0.1)
    gains = []
    for E in (1.0, 0.7, 0.4):
        oracle, _ = quad(lambda x: np.sqrt(2 * (E - 0.1 * np.cos(x))), 0, 2 * np.pi)
        p0 = np.sqrt(2 * (E - 0.1))
        gain, _ = dynamics.hitting_value_function(
            m, "bo", dynamics.PhaseState.make(0.0, p0), dt=5e-4)
        assert abs(gain - oracle) < 1e-5
        gains.append(gain)
    assert gains[0] > gains[1] > gains[2]


def test_hitting_unbounded_raises():
    # hits are positive-direction only: a leftward runaway never returns
    m = free_model()
    with pytest.raises(HittingTimeError):
        dynamics.hitting_value_function(m, "bo", dynamics.PhaseState.make(0.0, -1.3),
                                        dt=1e-2, t_max=50.0)


# ------------------------------------------------------- HJ stability check

def test_hj_stability_one_start():
    m = gap_model()
    M = 1024.0
    E = 0.5
    X0 = 1.0
    lam0 = espec.eigen_at(m, X0)[0][0]
    p0 = np.sqrt(2 * (E - lam0))
    dt = 0.1 / np.sqrt(M)
    phi0 = dynamics.initial_electron_state(m, X0, p0, M)
    st_e = dynamics.PhaseState.make(X0, p0, phi=phi0)
    gain_e, tau_e = dynamics.hitting_value_function(m, "ehrenfest", st_e, dt=dt, M=M)
    st_b = dynamics.PhaseState.make(X0, p0,
                                    phi=espec.eigen_at(m, X0)[1][:, 0].astype(complex))
    gain_b, tau_b = dynamics.hitting_value_function(m, "bo", st_b, dt=dt)
    # H_E - H_BO along the Ehrenfest path, sampled: <phi,(V - lambda_0)phi>
    traj = dynamics.simulate(m, st_e, "ehrenfest", T_final=1.1 * tau_e, dt=dt, M=M)
    lam = espec.eigenvalues_along(m, traj.X[:, 0])[:, 0]
    sup = np.abs(traj.H - 0.5 * traj.p[:, 0] ** 2 - lam).max()
    assert abs(gain_e - gain_b) <= 1.5 * max(tau_e, tau_b) * sup
