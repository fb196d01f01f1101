import numpy as np
import pytest
from scipy.integrate import quad

from qcmd import ModelSpec, build_model, dynamics, espec, gibbs, model, wkb
from qcmd.errors import CrossingError, HittingTimeError, ResolutionError
from qcmd._util import periodic_grid, stream_rng


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
    # Smoluchowski never changes p, so a non-finite p is caught at entry
    for X0, p0 in ((0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)):
        with pytest.raises(RuntimeError, match="non-finite"):
            dynamics.simulate(m, dynamics.PhaseState.make(X0, p0), "smoluchowski",
                              T_final=0.1, dt=0.01, rng=stream_rng(0), T=0.1)
    # a state that turns non-finite during the run: X in Smoluchowski, and p
    # alone (the end kick of a finite X) in Langevin
    start = dynamics.PhaseState.make(0.0, 0.0)
    with pytest.raises(RuntimeError, match="non-finite"):
        dynamics.simulate(m, start, "smoluchowski", T_final=10.0, dt=0.01, rng=stream_rng(0),
                          T=0.0, force=lambda x: np.where(x > 0.5, np.nan, 1.0))
    with pytest.raises(RuntimeError, match=r"non-finite state .*p = \[inf\]"):
        dynamics.simulate(m, start, "langevin", T_final=10.0, dt=0.01, rng=stream_rng(0),
                          T=0.0, K=1.0, force=lambda x: np.where(x > 0.5, np.inf, 1.0))


# ------------------------------------------------------- lane ensembles

def _same_trajectory(a, b):
    for key in ("t", "X", "p", "H", "z"):
        assert np.array_equal(getattr(a, key), getattr(b, key)), key
    assert (a.phi is None) == (b.phi is None)
    if a.phi is not None:
        assert np.array_equal(a.phi, b.phi)
    assert [(h.tau, h.X, h.p, h.theta) for h in a.hits] == \
        [(h.tau, h.X, h.p, h.theta) for h in b.hits]
    assert a.dt == b.dt and a.meta == b.meta


def _lanes_alone_and_together(m, inits, scheme, **per_lane):
    # one value per lane for every keyword, the rest shared
    names = list(per_lane)
    together = dynamics.simulate_ensemble(m, inits, scheme, surface=1.0,
                                          record_every=2, **per_lane)
    for b, init in enumerate(inits):
        alone = dynamics.simulate(m, init, scheme, surface=1.0, record_every=2,
                                  **{k: per_lane[k][b] for k in names})
        _same_trajectory(alone, together[b])
    return together


def test_ehrenfest_lanes_bitwise_alone_and_in_ensemble():
    m = gap_model()
    inits, masses = [], [1024.0, 4096.0, 256.0]
    for X0, E, M in zip((1.0, 2.0, 0.5), (0.8, 0.6, 1.0), masses):
        p0 = np.sqrt(2 * (E - espec.eigen_at(m, X0)[0][0]))
        inits.append(dynamics.PhaseState.make(X0, p0, phi=dynamics.initial_electron_state(
            m, X0, p0, M, perp_correction=M == 256.0)))
    out = _lanes_alone_and_together(m, inits, "ehrenfest", M=masses,
                                    dt=[1e-3, 1.5e-3, 2e-3], T_final=[3.0, 8.0, 6.0],
                                    max_hits=[None, 1, 2])
    # the budgets and step counts retire the lanes at different iterations
    assert [len(t.hits) for t in out] == [0, 1, 2]
    assert len({t.t.size for t in out}) == 3


def test_bo_lanes_bitwise_alone_and_in_ensemble():
    m = gap_model()
    inits = [dynamics.PhaseState.make(X0, p0) for X0, p0 in ((0.2, 1.5), (3.0, 2.0), (5.0, -1.0))]
    out = _lanes_alone_and_together(m, inits, "bo", dt=[1e-3, 2e-3, 1e-3],
                                    T_final=[4.0, 9.0, 2.0], max_hits=[3, 1, 1],
                                    M=[64.0, 256.0, 1024.0])
    assert [len(t.hits) for t in out] == [1, 1, 0]


def test_bo_branch_lanes_through_crossing_bitwise():
    m = build_model(ModelSpec(family="two_level_cross", d=2))
    inits = []
    for X0, p0 in ((1.0, 2.5), (4.0, 3.0), (2.5, 3.2)):
        v = espec.eigen_at(m, X0)[1][:, 0].astype(complex)
        inits.append(dynamics.PhaseState.make(X0, p0, phi=v))
    out = _lanes_alone_and_together(m, inits, "bo", dt=[1e-3, 5e-4, 2e-3],
                                    T_final=[4.0, 3.0, 5.0], max_hits=[2, 5, 1],
                                    M=[64.0, 64.0, 64.0])
    # every lane passes X = 2 pi, where the sorted levels cross
    for traj in out:
        assert traj.X[-1, 0] > 2.0 * np.pi


def test_sorted_ground_force_raises_at_the_crossing():
    m = build_model(ModelSpec(family="two_level_cross", d=2))
    with pytest.raises(CrossingError, match="degenerate"):
        dynamics._bo_force(m, np.array([1.0, 0.0, 2.0]), None)
    with pytest.raises(CrossingError):
        dynamics.step_bo(m, dynamics.PhaseState.make(0.0, 1.0), 1e-3)
    with pytest.raises(CrossingError):
        dynamics.step_smoluchowski(m, dynamics.PhaseState.make(0.0, 0.0), 1e-3, 0.1,
                                   stream_rng(0))
    # the family's gap floor is 0, so every step still tests the levels
    with pytest.raises(CrossingError):
        dynamics.simulate(m, dynamics.PhaseState.make(0.0, 0.0), "smoluchowski",
                          T_final=0.1, dt=1e-3, rng=stream_rng(0), T=0.1)
    with pytest.raises(CrossingError):
        dynamics.simulate(m, dynamics.PhaseState.make(0.0, 1.0), "bo", T_final=0.1, dt=1e-3)
    F, b = dynamics._bo_force(m, np.array([1.0, -1.0]), None)
    assert b is None and np.array_equal(F, [np.cos(0.5), -np.cos(0.5)])
    # a multi_level first gap that closes to below the tolerance at X = L/2
    tight = build_model(ModelSpec(family="multi_level", d=2, T=0.1,
                                  params={"gaps": [[0.5, 0.5 - 5e-11]]}))
    assert 0.0 < tight.gap_floor < espec._DEGENERACY_TOL
    with pytest.raises(CrossingError, match="degenerate"):
        dynamics.simulate(tight, dynamics.PhaseState.make(tight.L / 2.0, 0.0),
                          "smoluchowski", T_final=0.1, dt=1e-3, rng=stream_rng(0), T=0.0)


def test_stochastic_lanes_keep_their_own_streams():
    m = build_model(ModelSpec(family="multi_level", d=3, T=0.1,
                              params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]],
                                      "rot": 0.3}))
    inits = [dynamics.PhaseState.make(x, 0.0) for x in (0.5, 2.0, 4.0)]
    for scheme in ("langevin", "smoluchowski"):
        together = dynamics.simulate_ensemble(
            m, inits, scheme, T_final=[20.0, 30.0, 10.0], dt=0.05, record_every=3,
            rng=[stream_rng(4, k) for k in range(3)])
        for k, init in enumerate(inits):
            alone = dynamics.simulate(m, init, scheme, T_final=[20.0, 30.0, 10.0][k],
                                      dt=0.05, record_every=3, rng=stream_rng(4, k))
            _same_trajectory(alone, together[k])
    with pytest.raises(ValueError, match="random generators"):
        dynamics.simulate_ensemble(m, inits, "langevin", T_final=1.0, dt=0.05,
                                   rng=stream_rng(0))


def _same_stream_state(a, b):
    assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


# A copy of the per-step noise draw that the block draws replaced, kept as the
# slow reference path: one value per lane and step.

def _reference_noise(rngs):
    if len(rngs) == 1:
        return rngs[0].standard_normal(1)
    return np.array([r.standard_normal() for r in rngs])


class _StepNoise(dynamics._LaneNoise):
    def __getitem__(self, keep):
        return _StepNoise(self.rngs[keep], self.n_steps[keep], self.single[keep])

    def __call__(self):
        return _reference_noise(self.rngs)


def _criterion_11_model():
    return build_model(ModelSpec(family="multi_level", d=3, T=0.08, K=1.0,
                                 params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]],
                                         "rot": 0.3}))


def test_block_noise_matches_step_by_step_draws(monkeypatch):
    eq = _criterion_11_model()
    corr = gibbs.corrected_potential(espec.eigendecompose_field(eq, periodic_grid(eq.L, 129)),
                                     0.08, trace_coefficient=1.0)

    def runs():
        out = []
        # one lane, ending before, at and across block boundaries
        for scheme, force in (("smoluchowski", None), ("smoluchowski", corr.force),
                              ("langevin", None)):
            for n in (1, 4096, 9000):
                rng = stream_rng(3, n)
                out.append(([dynamics.simulate(
                    eq, dynamics.PhaseState.make(eq.L / 3.0, 0.0), scheme, T_final=n * 0.1,
                    dt=0.1, rng=rng, T=0.08, K=1.0, force=force, record_every=4)], [rng]))
        # three lanes on a surface, with mixed lengths and hit budgets
        for scheme in ("smoluchowski", "langevin"):
            rngs = [stream_rng(9, k) for k in range(3)]
            inits = [dynamics.PhaseState.make(x, 0.1) for x in (0.5, 2.0, 4.0)]
            out.append((dynamics.simulate_ensemble(
                eq, inits, scheme, T_final=[900.0, 500.0, 1200.0], dt=0.1, rng=rngs,
                T=0.5, K=1.0, surface=1.0, max_hits=[None, 1, 2], record_every=3), rngs))
        return out

    blocks = runs()
    monkeypatch.setattr(dynamics, "_LaneNoise", _StepNoise)
    steps = runs()
    for (trajs, rngs), (ref_trajs, ref_rngs) in zip(blocks, steps):
        for traj, ref, rng, ref_rng in zip(trajs, ref_trajs, rngs, ref_rngs):
            _same_trajectory(traj, ref)
            _same_stream_state(rng, ref_rng)
    # the budgets retire two lanes early, the first lane runs to its end
    assert [len(t.hits) for t in blocks[-1][0]][1:] == [1, 2]
    assert blocks[-1][0][0].t.size == 3001


def test_repeated_stochastic_steps_match_simulate():
    eq = _criterion_11_model()
    init, n, dt = dynamics.PhaseState.make(1.0, 0.2), 300, 0.1
    for scheme in ("smoluchowski", "langevin"):
        run_rng, step_rng = stream_rng(2), stream_rng(2)
        traj = dynamics.simulate(eq, init, scheme, T_final=n * dt, dt=dt, rng=run_rng,
                                 T=0.08, K=1.0)
        st = init
        for i in range(1, n + 1):
            if scheme == "smoluchowski":
                st = dynamics.step_smoluchowski(eq, st, dt, 0.08, step_rng)
            else:
                st = dynamics.step_langevin(eq, st, dt, 0.08, 1.0, step_rng)
            assert (st.X[0], st.p[0], st.z) == (traj.X[i, 0], traj.p[i, 0], traj.z[i])
        _same_stream_state(run_rng, step_rng)


# A copy of the per-point scalar integrators the lane kernels replaced, kept
# as the slow reference path.

def _reference_step_ehrenfest(m, X, p, phi, z, dt, M):
    def force(x, ph):
        return -(np.vdot(ph, model.potential_derivative(m, x) @ ph)).real

    p_half = p + 0.5 * dt * force(X, phi)
    X1 = X + dt * p_half
    lam, U = np.linalg.eigh(model.evaluate_potential(m, X + 0.5 * dt * p_half))
    phi1 = U @ (np.exp(-1j * np.sqrt(M) * lam * dt) * (U.T @ phi))
    p1 = p_half + 0.5 * dt * force(X1, phi1)
    return X1, p1, phi1, z + dt / 6.0 * (p * p + 4.0 * p_half * p_half + p1 * p1)


def _reference_step_bo(m, X, p, b, z, dt):
    def force(x, b):
        lam, vecs = np.linalg.eigh(model.evaluate_potential(m, x))
        if b is None:
            v = vecs[:, 0]
        else:
            ov = vecs.T @ b
            j = int(np.abs(ov).argmax())
            v = vecs[:, j] if ov[j] >= 0.0 else -vecs[:, j]
        return -float(v @ model.potential_derivative(m, x) @ v), v

    p_half = p + 0.5 * dt * force(X, b)[0]
    X1 = X + dt * p_half
    F1, v1 = force(X1, b)
    p1 = p_half + 0.5 * dt * F1
    return (X1, p1, None if b is None else v1,
            z + dt / 6.0 * (p * p + 4.0 * p_half * p_half + p1 * p1))


def _reference_force(m, x, T=0.0, coefficient=0.0):
    """-d(lambda_0)/dX minus the gap-trace correction, from eigh and Hellmann-Feynman."""
    lam, vecs = np.linalg.eigh(model.evaluate_potential(m, x))
    dV = model.potential_derivative(m, x)
    slopes = np.array([vecs[:, n] @ dV @ vecs[:, n] for n in range(m.d)])
    gaps = lam[1:] - lam[0]
    return -slopes[0] - coefficient * T * np.sum((slopes[1:] - slopes[0]) / gaps)


def _reference_step_smoluchowski(X, dt, T, xi, force):
    return X + dt * force(X) + np.sqrt(2.0 * T * dt) * xi


def _reference_step_langevin(X, p, z, dt, T, K, xi, force):
    c1 = np.exp(-K * dt)
    p1 = p + 0.5 * dt * force(X)
    X1 = X + 0.5 * dt * p1
    p1 = c1 * p1 + np.sqrt(T * (1.0 - c1 * c1)) * xi
    X1 = X1 + 0.5 * dt * p1
    p1 = p1 + 0.5 * dt * force(X1)
    return X1, p1, z + 0.5 * dt * (p * p + p1 * p1)


def test_kernels_match_the_scalar_reference_steps():
    gap, cross = gap_model(), build_model(ModelSpec(family="two_level_cross", d=2))
    n, dt, M = 1500, 1e-3, 1024.0
    # Ehrenfest on the gapped model
    X, p, z = 1.0, 1.6, 0.0
    phi = dynamics.initial_electron_state(gap, X, p, M)
    traj = dynamics.simulate(gap, dynamics.PhaseState.make(X, p, phi=phi), "ehrenfest",
                             T_final=n * dt, dt=dt, M=M)
    assert traj.t.size == n + 1
    for i in range(1, n + 1):
        X, p, phi, z = _reference_step_ehrenfest(gap, X, p, phi, z, dt, M)
        assert abs(X - traj.X[i, 0]) < 1e-12 and abs(p - traj.p[i, 0]) < 1e-12
        assert abs(z - traj.z[i]) < 1e-12 and np.abs(phi - traj.phi[i]).max() < 1e-12
    # Born-Oppenheimer on the sorted level, and on a branch through X = 2 pi
    for m, X0, p0, branch in ((gap, 1.0, 1.6, False), (cross, 5.5, 2.5, True)):
        X, p, z = X0, p0, 0.0
        b = espec.eigen_at(m, X)[1][:, 0] if branch else None
        init = dynamics.PhaseState.make(X, p, phi=None if b is None else b.astype(complex))
        traj = dynamics.simulate(m, init, "bo", T_final=n * dt, dt=dt)
        st = init
        for i in range(1, n + 1):
            X, p, b, z = _reference_step_bo(m, X, p, b, z, dt)
            st = dynamics.step_bo(m, st, dt)
            for new in ((traj.X[i, 0], traj.p[i, 0], traj.z[i]), (st.X[0], st.p[0], st.z)):
                assert max(abs(X - new[0]), abs(p - new[1]), abs(z - new[2])) < 1e-12
        assert traj.X[-1, 0] > 2.0 * np.pi or not branch
    # Langevin and Smoluchowski on the criterion-11 model, plain and with the
    # corrected force, against the eigh force on the same noise stream
    eq = build_model(ModelSpec(family="multi_level", d=3, T=0.08, K=1.0,
                               params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]],
                                       "rot": 0.3}))
    T, K, dt = 0.08, 1.0, 0.1
    corr = gibbs.corrected_potential(espec.eigendecompose_field(eq, periodic_grid(eq.L, 129)),
                                     T, trace_coefficient=1.0)
    for force, coefficient in ((None, 0.0), (corr.force, 1.0)):
        def ref_force(x):
            return _reference_force(eq, x, T, coefficient)

        for scheme in ("smoluchowski", "langevin"):
            traj = dynamics.simulate(eq, dynamics.PhaseState.make(eq.L / 3.0, 0.0), scheme,
                                     T_final=n * dt, dt=dt, rng=stream_rng(7), T=T, K=K,
                                     force=force)
            assert traj.t.size == n + 1
            noise = stream_rng(7)
            X, p, z = eq.L / 3.0, 0.0, 0.0
            for i in range(1, n + 1):
                xi = noise.standard_normal()
                if scheme == "smoluchowski":
                    X = _reference_step_smoluchowski(X, dt, T, xi, ref_force)
                else:
                    X, p, z = _reference_step_langevin(X, p, z, dt, T, K, xi, ref_force)
                assert abs(X - traj.X[i, 0]) < 1e-12
                assert abs(p - traj.p[i, 0]) < 1e-12 and abs(z - traj.z[i]) < 1e-12


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
