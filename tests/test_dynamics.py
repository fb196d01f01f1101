import dataclasses
import functools
import mmap

import numpy as np
import pytest
from scipy.integrate import quad

from qcmd import ModelSpec, build_model, dynamics, espec, gibbs, model, wkb
from qcmd.errors import CrossingError, HittingTimeError, ResolutionError
from qcmd._util import periodic_grid, stream_rng, wrap


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


def _bo_on_the_kernel(monkeypatch):
    """Run every Born-Oppenheimer lane on the lockstep kernel."""
    monkeypatch.setattr(dynamics, "_FLOAT_BO_LANES", 0)
    monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)


def test_simulate_bo_matches_repeated_steps_bitwise(monkeypatch, sines_agree):
    # simulate carries each step's end force into the next step, step_bo
    # recomputes it; on the sorted level and on a branch through a crossing.
    # step_bo drives the lockstep kernel, which a one-lane simulate matches
    # bit for bit; its float lane matches to rounding, and bit for bit where
    # the sines agree and the float force has the kernel's operations
    # (scalar_cos: not two_level_gap's hypot, nor the branch force -s rho')
    cross = build_model(ModelSpec(family="two_level_cross", d=2))
    branch = espec.eigen_at(cross, 1.0)[1][:, 0].astype(complex)
    for on_floats in (True, False):
        if not on_floats:
            _bo_on_the_kernel(monkeypatch)
        for m, phi, same_ops in ((gap_model(), None, False), (cross, branch, False),
                                 (cos_model(0.2), None, True)):
            exact = not on_floats or (same_ops and sines_agree)
            init = dynamics.PhaseState.make(1.0, 2.5, phi=phi)
            traj = dynamics.simulate(m, init, "bo", T_final=3.0, dt=1e-3)
            assert traj.X[-1, 0] > 2.0 * np.pi
            st = init
            for i in range(1, traj.t.size):
                st = dynamics.step_bo(m, st, 1e-3)
                got, want = (st.X[0], st.p[0], st.z), (traj.X[i, 0], traj.p[i, 0], traj.z[i])
                if exact:
                    assert got == want
                else:
                    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
            H = dynamics.hamiltonian(m, st, "bo")
            if exact:
                assert np.array_equal(traj.H[-1:], [H])
            else:
                assert abs(traj.H[-1] - H) < 1e-12


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


def _mapped(a):
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


def test_large_records_get_their_own_mapping():
    big = dynamics._record((dynamics._MAPPED_RECORD_BYTES // 16, 2))
    assert _mapped(big) and big.flags.writeable and big.dtype == float
    big[-1] = 1.5
    assert big[-1].tolist() == [1.5, 1.5]
    small = dynamics._record((4, 3, 2), complex)
    assert not _mapped(small) and small.shape == (4, 3, 2) and small.dtype == complex


@pytest.mark.parametrize("scheme", ["ehrenfest", "langevin"])
def test_trajectories_do_not_depend_on_where_records_live(monkeypatch, scheme):
    m = gap_model()
    if scheme == "ehrenfest":
        inits = [dynamics.PhaseState.make(X0, 1.2, phi=dynamics.initial_electron_state(
            m, X0, 1.2, 1024.0)) for X0 in (0.5, 2.0, 4.0)]
        kw = {"M": 1024.0, "dt": 1e-3, "T_final": [2.0, 3.0, 1.0], "max_hits": [None, 1, 1]}
    else:
        # 17 lanes: the lockstep kernel
        inits = [dynamics.PhaseState.make(0.3 * b, 0.5) for b in range(17)]
        kw = {"T": 0.5, "K": 1.0, "dt": 0.01, "T_final": 20.0, "max_hits": 2}
    runs = []
    for limit in (0, np.inf):
        monkeypatch.setattr(dynamics, "_MAPPED_RECORD_BYTES", limit)
        rngs = [stream_rng(7, b) for b in range(len(inits))]
        out = dynamics.simulate_ensemble(m, inits, scheme, surface=1.0, rng=rngs, **kw)
        assert all(_mapped(t.X) == (limit == 0) for t in out)
        runs.append(out)
    for a, b in zip(*runs):
        _same_trajectory(a, b)


def test_a_diverging_lane_raises_the_kernels_error_on_both_paths(monkeypatch):
    # X grows by 1e305 a step and overflows after about 1800 steps: the
    # float lane's math.cos refuses the infinite midpoint, numpy's gives NaN
    m = gap_model()
    init = dynamics.PhaseState.make(0.5, 1e308,
                                    phi=dynamics.initial_electron_state(m, 0.5, 1.2, 1024.0))
    errors = []
    for float_lanes in (dynamics._FLOAT_LANES, 0):
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", float_lanes)
        with pytest.raises(RuntimeError) as caught, np.errstate(all="ignore"):
            dynamics.simulate(m, init, "ehrenfest", T_final=10.0, dt=1e-3, M=1024.0)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == "non-finite state at t = 1.798 (X = [inf], p = [nan]); aborting"


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
    # the lockstep kernel's noise; the float chains are held to it below
    monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)
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


def test_repeated_stochastic_steps_match_simulate(sines_agree):
    # the step functions drive the lockstep kernel and this one-lane simulate
    # the float loop, so the two paths are held to each other here
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
            got, want = (st.X[0], st.p[0], st.z), (traj.X[i, 0], traj.p[i, 0], traj.z[i])
            if sines_agree:
                assert got == want
            else:
                assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
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


@pytest.mark.parametrize("spec, X0, p0", [
    # through the crossing at X = 0
    (ModelSpec(family="two_level_cross", d=2), -1.5, 2.0),
    (ModelSpec(family="multi_level", d=3,
               params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3}), 1.0, 1.6),
    (ModelSpec(family="scalar_cos", params={"a": 0.2}), 0.3, 1.4),
])
def test_ehrenfest_matches_the_eigh_reference_steps(spec, X0, p0):
    m = build_model(spec)
    n, dt, M = 1500, 1e-3, 1024.0
    X, p, z = X0, p0, 0.0
    phi = dynamics.initial_electron_state(m, X, p, M)
    traj = dynamics.simulate(m, dynamics.PhaseState.make(X, p, phi=phi), "ehrenfest",
                             T_final=n * dt, dt=dt, M=M)
    assert traj.t.size == n + 1
    for i in range(1, n + 1):
        X, p, phi, z = _reference_step_ehrenfest(m, X, p, phi, z, dt, M)
        assert abs(X - traj.X[i, 0]) < 1e-12 and abs(p - traj.p[i, 0]) < 1e-12
        assert abs(z - traj.z[i]) < 1e-12 and np.abs(phi - traj.phi[i]).max() < 1e-12
    if spec.family == "two_level_cross":
        assert traj.X[0, 0] < 0.0 < traj.X[-1, 0]


@pytest.mark.parametrize("spec", [
    ModelSpec(family="free"), ModelSpec(family="scalar_cos", params={"a": 0.2}),
    ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2),
    ModelSpec(family="two_level_cross", d=2),
    ModelSpec(family="multi_level", d=3,
              params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3}),
])
def test_ehrenfest_makes_no_eigensolve(eigensolver_calls, spec):
    m = build_model(spec)
    M = 1024.0
    inits = [dynamics.PhaseState.make(X0, p0, phi=dynamics.initial_electron_state(m, X0, p0, M))
             for X0, p0 in ((-0.5, 1.5), (2.0, 1.2), (4.0, 0.9))]
    traj = dynamics.simulate(m, inits[0], "ehrenfest", T_final=1.0, dt=1e-3, M=M,
                             surface=0.0)
    assert traj.t.size == 1001 and np.isfinite(traj.H).all()
    dynamics.simulate_ensemble(m, inits, "ehrenfest", T_final=[1.0, 0.5, 0.8], dt=1e-3,
                               M=M, surface=1.0, max_hits=[None, 1, None])
    dynamics.step_ehrenfest(m, inits[1], 1e-3, M)
    assert eigensolver_calls == []


def test_ehrenfest_ensemble_guards(monkeypatch):
    m = gap_model()
    M = 1024.0
    phi = dynamics.initial_electron_state(m, 1.0, 1.2, M)
    # NaN forces beyond X = 1.1, on the lockstep kernel and on the float lanes
    slope = m._float_forms[1]
    poisoned = dataclasses.replace(
        m, _derivative=lambda X: np.where((X > 1.1)[:, None, None], np.nan, m._derivative(X)),
        _float_forms=(m._float_forms[0], lambda x: (np.nan, np.nan) if x > 1.1 else slope(x)))

    def run(states, model=m):
        return dynamics.simulate_ensemble(model, states, "ehrenfest", T_final=0.1, dt=1e-3,
                                          M=M)

    good = [dynamics.PhaseState.make(X0, 1.2, phi=phi) for X0 in (0.5, 1.0, 0.2)]
    messages = []
    for float_lanes in (dynamics._FLOAT_LANES, 0):
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", float_lanes)
        assert len(run(good)) == 3
        for field, value in (("X", np.nan), ("X", np.inf), ("p", np.nan), ("p", -np.inf)):
            states = list(good)
            states[1] = dynamics.PhaseState.make(**{"X": 1.0, "p": 1.2, field: value}, phi=phi)
            with pytest.raises(RuntimeError, match="non-finite initial state in lane 1"):
                run(states)
        # an amplitude off the unit norm, or a NaN one, in one lane; also
        # through the one-lane step
        for bad in (1.001 * phi, np.array([np.nan, 0.0], dtype=complex)):
            states = list(good)
            states[2] = dynamics.PhaseState.make(1.5, 1.2, phi=bad)
            with pytest.raises(ValueError, match="normalized to 1e-8"):
                run(states)
            with pytest.raises(ValueError, match="normalized to 1e-8"):
                dynamics.step_ehrenfest(m, states[2], 1e-3, M)
        # lane 1 drifts past X = 1.1 and its momentum turns NaN
        with pytest.raises(RuntimeError, match=r"non-finite state .*p = \[nan\]") as err:
            run(good, poisoned)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# ------------------------------------------------- Ehrenfest float lanes

TWO_LEVEL = [ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2),
             ModelSpec(family="two_level_cross", d=2)]


def _dressed_lanes(m, starts, masses):
    return [dynamics.PhaseState.make(X0, p0, phi=dynamics.initial_electron_state(
        m, X0, p0, M, perp_correction=True)) for (X0, p0), M in zip(starts, masses)]


def _count_propagator_calls(monkeypatch):
    """Count the lockstep kernel's propagator calls; the float lanes make none."""
    calls = []
    propagator = model.electron_propagator
    monkeypatch.setattr(model, "electron_propagator",
                        lambda *args: calls.append(1) or propagator(*args))
    return calls


def _close_trajectories(a, b, tol=1e-12):
    assert np.array_equal(a.t, b.t) and a.meta == b.meta
    for key in ("X", "p", "z", "phi", "H"):
        assert np.abs(getattr(a, key) - getattr(b, key)).max() < tol, key
    assert len(a.hits) == len(b.hits)
    for h, g in zip(a.hits, b.hits):
        assert h.X == g.X
        assert max(abs(h.tau - g.tau), abs(h.p - g.p), abs(h.theta - g.theta)) < tol


@pytest.mark.parametrize("spec", TWO_LEVEL)
def test_float_lanes_match_the_lockstep_kernel(monkeypatch, spec):
    m = build_model(spec)
    masses = [1024.0, 4096.0, 256.0, 1024.0, 2048.0]
    # lane 0 passes X = 0, the crossing of two_level_cross, and the surface;
    # lanes 3 and 4 take no step and one step
    inits = _dressed_lanes(m, [(-1.5, 2.0), (1.0, 1.6), (2.5, 3.0), (0.7, 1.2), (-0.4, 1.9)],
                           masses)
    kw = dict(dt=[1e-3, 1.5e-3, 2e-3, 1e-3, 1.2e-3], M=masses,
              T_final=[1.5, 4.5, 8.0, 0.0, 1.2e-3], max_hits=[None, 1, 2, None, 1],
              surface=0.0, record_every=3)
    # and the two short lanes again with every step recorded
    short = {key: value[3:] if isinstance(value, list) else value for key, value in kw.items()}
    short["record_every"] = 1
    calls = _count_propagator_calls(monkeypatch)
    runs = []
    for lanes in (dynamics._FLOAT_LANES, 0):
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", lanes)
        runs.append(dynamics.simulate_ensemble(m, inits, "ehrenfest", **kw)
                    + dynamics.simulate_ensemble(m, inits[3:], "ehrenfest", **short))
        assert bool(calls) == (lanes == 0)
    floats, lockstep = runs
    for a, b in zip(floats, lockstep):
        _close_trajectories(a, b)
    # 1500 steps on lane 0; the hit budgets retire lanes 1 and 2 early
    assert [len(t.hits) for t in floats] == [1, 1, 2, 0, 0, 0, 0]
    sizes = [t.t.size for t in floats]
    assert sizes[0] == 501 and sizes[3:] == [1, 1, 1, 2]
    assert floats[0].X[0, 0] < 0.0 < floats[0].X[-1, 0]
    assert floats[1].t[-1] < 4.4 and floats[2].t[-1] < 7.9


def test_lanes_on_each_side_of_the_float_cut_off(monkeypatch):
    m = build_model(ModelSpec(family="two_level_cross", d=2))
    B, M = dynamics._FLOAT_LANES + 1, 1024.0
    inits = _dressed_lanes(m, [(-1.0 + 0.4 * k, 1.5 + 0.05 * k) for k in range(B)], [M] * B)
    kw = dict(dt=1e-3, M=M, T_final=0.3, surface=0.0, max_hits=1)
    calls = _count_propagator_calls(monkeypatch)
    below = dynamics.simulate_ensemble(m, inits[:-1], "ehrenfest", **kw)
    assert not calls
    above = dynamics.simulate_ensemble(m, inits, "ehrenfest", **kw)
    assert calls
    assert any(t.hits for t in above)
    # a lane alone runs on floats: bitwise below the cut-off, to rounding above
    for b, init in enumerate(inits):
        alone = dynamics.simulate(m, init, "ehrenfest", **kw)
        if b < B - 1:
            _same_trajectory(alone, below[b])
        _close_trajectories(alone, above[b])
    # and the lockstep kernel gives each lane alone the bits it gives together
    monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)
    for b, init in enumerate(inits):
        _same_trajectory(dynamics.simulate(m, init, "ehrenfest", **kw), above[b])


@pytest.mark.parametrize("spec", TWO_LEVEL + [
    ModelSpec(family="multi_level", d=3,
              params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3})])
def test_repeated_ehrenfest_steps_match_simulate(spec):
    m = build_model(spec)
    n, dt, M = 200, 1e-3, 1024.0
    init = _dressed_lanes(m, [(-0.1, 1.3)], [M])[0]
    traj = dynamics.simulate(m, init, "ehrenfest", T_final=n * dt, dt=dt, M=M)
    st = init
    for i in range(1, n + 1):
        st = dynamics.step_ehrenfest(m, st, dt, M)
        assert st.X[0] == traj.X[i, 0] and st.p[0] == traj.p[i, 0]
        assert st.z == traj.z[i] and st.t == traj.t[i]
        assert np.array_equal(st.phi, traj.phi[i])


# --------------------------------- Langevin and Smoluchowski float chains

STOCHASTIC = [ModelSpec(family="free", T=0.3),
              ModelSpec(family="scalar_cos", params={"a": 0.3}, T=0.3),
              ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2, T=0.3),
              ModelSpec(family="two_level_cross", d=2, T=0.1),
              ModelSpec(family="multi_level", d=3, T=0.08,
                        params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3})]


def _corrected(m, coefficient):
    """The corrected potential of m; built directly where the grid of
    ``corrected_potential`` has no gap (d = 1) or meets the crossing at X = 0."""
    if m.family in ("two_level_gap", "multi_level"):
        basis = espec.eigendecompose_field(m, periodic_grid(m.L, 129))
        return gibbs.corrected_potential(basis, m.T, trace_coefficient=coefficient)
    return gibbs.CorrectedPotential(grid=None, values=None, T=m.T,
                                    trace_coefficient=coefficient, diagnostics={}, model=m)


def _chain_lanes(m, B, branch=False):
    # around X = pi, the bottom of the ground level of two_level_cross, far
    # from its crossing at X = 0; with ``branch`` (d > 1) each lane carries
    # its ground vector, which the energies read
    lanes = []
    for k in range(B):
        X0 = np.pi + 0.9 * np.sin(1.3 * k)
        phi = espec.eigen_at(m, X0)[1][:, 0].astype(complex) if branch else None
        lanes.append(dynamics.PhaseState.make(X0, 0.4 * np.cos(k), phi=phi))
    return lanes


def _chains_agree(a, b, exact, tol=1e-12):
    """Bitwise, or within tol where math and numpy may round differently."""
    if exact:
        _same_trajectory(a, b)
        return
    assert np.array_equal(a.t, b.t) and a.meta == b.meta
    for key in ("X", "p", "z", "H"):
        assert np.abs(getattr(a, key) - getattr(b, key)).max(initial=0.0) < tol, key
    assert [h.X for h in a.hits] == [h.X for h in b.hits]
    for h, g in zip(a.hits, b.hits):
        assert max(abs(h.tau - g.tau), abs(h.p - g.p), abs(h.theta - g.theta)) < tol


@pytest.mark.parametrize("scheme", ["smoluchowski", "langevin"])
@pytest.mark.parametrize("spec", STOCHASTIC, ids=lambda spec: spec.family)
def test_float_chains_match_the_lockstep_kernel(monkeypatch, sines_agree, spec, scheme):
    m = build_model(spec)
    B, dt = dynamics._FLOAT_LANES, 0.02
    # no step, one step, and across a noise block; the rest shorter
    n_steps = [0, 1, 4097] + [60 + 41 * k for k in range(B - 3)]
    # two_level_gap's float levels round hypot as math does, the others'
    # differ from numpy's only where the sines do; on two_level_gap the
    # chains differ by at most 2.2e-16 (measured), far inside _chains_agree's 1e-12
    exact = sines_agree and spec.family != "two_level_gap"
    forces = [None] + [_corrected(m, c).force for c in (0.5, 1.0)]
    hit_runs = {"surface": np.pi, "max_hits": [None, 1, 3, 2] + [None, 1] * ((B - 4) // 2)}
    for force in forces:
        for surface in ({}, hit_runs):
            inits = _chain_lanes(m, B, branch=bool(surface) and m.d > 1)
            kw = dict(T_final=[n * dt for n in n_steps], dt=dt, T=spec.T, K=1.0, force=force,
                      record_every=3, **surface)
            runs = []
            for lanes in (dynamics._FLOAT_LANES, 0):
                monkeypatch.setattr(dynamics, "_FLOAT_LANES", lanes)
                rngs = [stream_rng(5, k) for k in range(B)]
                runs.append((dynamics.simulate_ensemble(m, inits, scheme, rng=rngs, **kw), rngs))
            monkeypatch.undo()
            (floats, float_rngs), (lockstep, lockstep_rngs) = runs
            for a, b, ra, rb in zip(floats, lockstep, float_rngs, lockstep_rngs):
                _chains_agree(a, b, exact)
                _same_stream_state(ra, rb)
            if not surface:
                assert [t.t.size for t in floats][:3] == [1, 1, 1366]
            else:
                # some lane spends its hit budget before its steps
                assert any(h and len(t.hits) == h and t.t.size < n // 3 + 1 for t, h, n
                           in zip(floats, hit_runs["max_hits"], n_steps))


def test_float_chains_alone_and_on_each_side_of_the_cut_off(monkeypatch, sines_agree):
    m = build_model(STOCHASTIC[-1])
    corr = _corrected(m, 1.0)
    B = dynamics._FLOAT_LANES + 1
    inits = _chain_lanes(m, B)
    kw = dict(T_final=[20.0 + 3.0 * k for k in range(B)], dt=0.05, T=m.T, K=1.0,
              force=corr.force, surface=np.pi, max_hits=[None, 2] * (B // 2) + [None])
    calls = []
    lockstep = dynamics._lockstep
    monkeypatch.setattr(dynamics, "_lockstep", lambda *args: calls.append(1) or lockstep(*args))
    for scheme in ("smoluchowski", "langevin"):
        def run(lanes):
            return dynamics.simulate_ensemble(
                m, inits[lanes], scheme, rng=[stream_rng(8, k) for k in range(B)][lanes],
                **{k: v[lanes] if isinstance(v, list) else v for k, v in kw.items()})

        below = run(slice(0, B - 1))
        assert not calls
        above = run(slice(0, B))
        assert len(calls) == 1
        for b in range(B):
            alone = run(slice(b, b + 1))[0]
            # a lane alone runs on floats: bitwise below the cut-off, and
            # where the sines agree also above it
            if b < B - 1:
                _same_trajectory(alone, below[b])
            _chains_agree(alone, above[b], sines_agree)
        assert len(calls) == 1
        calls.clear()


def test_float_chains_take_only_the_forces_they_know(monkeypatch):
    m = build_model(STOCHASTIC[-1])
    calls = []
    force = gibbs.CorrectedPotential.force

    @functools.wraps(force)
    def traced(self, X):
        calls.append(1)
        return force(self, X)

    # wrapped on the class, as a tracer installs it
    monkeypatch.setattr(gibbs.CorrectedPotential, "force", traced)
    corr = _corrected(m, 1.0)
    other = _corrected(build_model(STOCHASTIC[-1]), 1.0)
    lockstep_calls = []
    lockstep = dynamics._lockstep
    monkeypatch.setattr(dynamics, "_lockstep",
                        lambda *args: lockstep_calls.append(1) or lockstep(*args))

    def run(force):
        return dynamics.simulate(m, dynamics.PhaseState.make(2.0, 0.0), "langevin",
                                 T_final=5.0, dt=0.05, rng=stream_rng(3), T=m.T, K=1.0,
                                 force=force)

    on_floats = run(corr.force)
    assert not calls and not lockstep_calls
    # a plain callable, or a corrected potential of another model, stays on
    # the lockstep kernel
    for kernel_force in (lambda x: corr.force(x), other.force):
        _same_trajectory(run(kernel_force), on_floats)
        assert calls and lockstep_calls
        calls.clear()
        lockstep_calls.clear()


@pytest.mark.parametrize("spec", STOCHASTIC[2:] + [ModelSpec(
    family="multi_level", d=5, T=0.2,
    params={"a0": -0.3, "gaps": [[0.5, 0.2], [1.1, -0.3], [1.9, 0.4], [2.6, 0.1]], "rot": 0.8})],
    ids=lambda spec: f"{spec.family}-{spec.d}")
def test_float_forces_match_the_array_forces(sines_agree, spec):
    m = build_model(spec)
    xs = np.random.default_rng(4).uniform(-2.0 * m.L, 3.0 * m.L, 2001)
    xs = xs[np.abs(np.sin(0.5 * xs)) > 1e-3] if spec.family == "two_level_cross" else xs
    exact = sines_agree and spec.family != "two_level_gap"
    for force, array_force in [(None, lambda x: dynamics._ground_force(m, x))] + [
            (c.force, c.force) for c in (_corrected(m, 0.5), _corrected(m, 1.0))]:
        floats = np.array([dynamics._float_force(m, force)(x) for x in xs.tolist()])
        # the gap trace of d = 5 sums four terms, left to right as numpy does
        if exact:
            assert np.array_equal(floats, array_force(xs))
        else:
            assert np.abs(floats - array_force(xs)).max() < 1e-12


def test_float_chains_keep_the_guards(monkeypatch):
    cross = build_model(STOCHASTIC[3])
    gap = build_model(STOCHASTIC[2])

    def poisoned(X):
        lam, slopes = gap._levels(X)
        return lam, np.where((X < 0.9)[:, None], np.nan, slopes)

    def poisoned_floats(x):
        pairs = gap._float_levels(x)
        return tuple((level, np.nan if x < 0.9 else slope) for level, slope in pairs)

    # the ground force of two_level_gap reads column 0 of the levels
    nan_gap = dataclasses.replace(gap, _levels=poisoned, _float_levels=poisoned_floats)
    multi = build_model(STOCHASTIC[4])
    messages = []
    for lanes in (dynamics._FLOAT_LANES, 0):
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", lanes)
        found = []
        for scheme in ("smoluchowski", "langevin"):
            # the crossing at X = 0, in one lane of three
            inits = [dynamics.PhaseState.make(x, 0.0) for x in (1.0, 0.0, 2.0)]
            with pytest.raises(CrossingError, match="degenerate") as err:
                dynamics.simulate_ensemble(cross, inits, scheme, T_final=1.0, dt=0.01,
                                           rng=[stream_rng(0, k) for k in range(3)], T=0.1)
            found.append(str(err.value))
            # a NaN force left of X = 0.9, which the lane drifts into
            with pytest.raises(RuntimeError, match="non-finite state") as err:
                dynamics.simulate(nan_gap, dynamics.PhaseState.make(1.0, 0.0), scheme,
                                  T_final=1.0, dt=0.01, rng=stream_rng(0), T=0.0, K=1.0)
            found.append(str(err.value))
        # a Langevin position that overflows to inf, where the end kick
        # reads the kernel's force (math.cos(inf) would raise)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError) as err:
            dynamics.simulate(multi, dynamics.PhaseState.make(1.0, 1.0), "langevin",
                              T_final=1e160, dt=1e160, rng=stream_rng(0), T=0.0, K=1.0)
        found.append(str(err.value))
        messages.append(found)
    assert messages[0] == messages[1]
    # Smoluchowski steps X by the NaN force, Langevin ends its step with it
    assert "X = [nan], p = [0.]" in messages[0][1]
    assert "p = [nan]" in messages[0][3]
    assert "X = [inf], p = [nan]" in messages[0][4]


# ----------------------------------------- Born-Oppenheimer float lanes

BO_FLOAT = [(ModelSpec(family="free"), False),
            (ModelSpec(family="scalar_cos", params={"a": 0.3}), False),
            (ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2), False),
            (ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2), True),
            (ModelSpec(family="two_level_cross", d=2), False),
            (ModelSpec(family="two_level_cross", d=2), True)]


def _bo_lanes(m, starts, branch):
    """Lanes at (X0, p0), each with its sorted ground vector as branch
    vector when ``branch`` holds."""
    return [dynamics.PhaseState.make(X0, p0, phi=espec.eigen_at(m, X0)[1][:, 0].astype(complex)
                                     if branch else None) for X0, p0 in starts]


def _count_lockstep_calls(monkeypatch):
    calls = []
    lockstep = dynamics._lockstep
    monkeypatch.setattr(dynamics, "_lockstep", lambda *args: calls.append(1) or lockstep(*args))
    return calls


@pytest.mark.parametrize("spec, branch", BO_FLOAT,
                         ids=[f"{spec.family}-{'branch' if branch else 'ground'}"
                              for spec, branch in BO_FLOAT])
def test_float_bo_lanes_match_the_lockstep_kernel(monkeypatch, sines_agree, spec, branch):
    m = build_model(spec)
    # lane 0 passes X = 0, the crossing of two_level_cross, twice on the
    # branch (it turns back at about X = 0.65) and once on the sorted level;
    # lane 3 runs backwards
    starts = [(-1.5, 2.0), (1.0, 1.6), (2.5, 3.0), (4.0, -2.2), (0.7, 2.4)]
    kw = dict(dt=[1e-3, 1.5e-3, 2e-3, 1e-3, 5e-4], T_final=[4.0, 4.5, 8.0, 2.0, 3.5],
              max_hits=[None, 1, 2, None, 3], surface=0.0, record_every=3)
    inits = _bo_lanes(m, starts, branch)
    calls = _count_lockstep_calls(monkeypatch)
    floats = dynamics.simulate_ensemble(m, inits, "bo", **kw)
    assert not calls
    _bo_on_the_kernel(monkeypatch)
    lockstep = dynamics.simulate_ensemble(m, inits, "bo", **kw)
    assert calls
    # the float force has the kernel's operations but on two_level_gap
    # (math.hypot) and on a branch (-s rho', where the kernel forms
    # -<v, dV v>)
    exact = sines_agree and not branch and spec.family != "two_level_gap"
    for a, b in zip(floats, lockstep):
        _chains_agree(a, b, exact)
    # a hit budget retires a lane before its steps run out
    assert any(h and len(t.hits) == h and t.t[-1] < T - 0.01 for t, h, T
               in zip(floats, kw["max_hits"], kw["T_final"]))
    assert floats[0].t.size == 1334 and floats[0].X[0, 0] < 0.0 < floats[0].X.max()
    if branch and spec.family == "two_level_cross":
        assert floats[0].X[-1, 0] < 0.0


def test_float_bo_lanes_alone_and_on_each_side_of_the_cut_off(monkeypatch):
    m = build_model(ModelSpec(family="two_level_cross", d=2))
    B = dynamics._FLOAT_BO_LANES + 1
    inits = _bo_lanes(m, [(-1.0 + 0.1 * k, 2.5 + 0.01 * k) for k in range(B)], True)
    kw = dict(dt=1e-3, T_final=0.3, surface=0.0, max_hits=1)
    calls = _count_lockstep_calls(monkeypatch)
    below = dynamics.simulate_ensemble(m, inits[:-1], "bo", **kw)
    assert not calls
    above = dynamics.simulate_ensemble(m, inits, "bo", **kw)
    assert len(calls) == 1
    assert any(t.hits for t in above)
    # a lane alone runs on floats: bitwise below the cut-off, to rounding above
    for b, init in enumerate(inits):
        alone = dynamics.simulate(m, init, "bo", **kw)
        if b < B - 1:
            _same_trajectory(alone, below[b])
        _chains_agree(alone, above[b], False)
    assert len(calls) == 1
    # a branch vector on multi_level keeps even one lane on the kernel
    multi = build_model(STOCHASTIC[-1])
    dynamics.simulate(multi, _bo_lanes(multi, [(1.0, 1.0)], True)[0], "bo", **kw)
    assert len(calls) == 2
    dynamics.simulate(multi, _bo_lanes(multi, [(1.0, 1.0)], False)[0], "bo", **kw)
    assert len(calls) == 2
    # lanes without a branch vector share the stochastic chains' cut-off
    ground = _bo_lanes(m, [(0.5 + 0.1 * k, 2.5) for k in range(dynamics._FLOAT_LANES + 1)],
                       False)
    dynamics.simulate_ensemble(m, ground[:-1], "bo", **kw)
    assert len(calls) == 2
    dynamics.simulate_ensemble(m, ground, "bo", **kw)
    assert len(calls) == 3


def test_float_bo_lanes_keep_the_guards(monkeypatch):
    cross = build_model(ModelSpec(family="two_level_cross", d=2))
    messages = []
    for on_floats in (True, False):
        if not on_floats:
            _bo_on_the_kernel(monkeypatch)
        found = []
        # the sorted ground force at the crossing X = 0, in one lane of three
        inits = [dynamics.PhaseState.make(x, 1.0) for x in (1.0, 0.0, 2.0)]
        with pytest.raises(CrossingError, match="degenerate") as err:
            dynamics.simulate_ensemble(cross, inits, "bo", T_final=1.0, dt=0.01)
        found.append(str(err.value))
        # X grows by about 1e305 a step and overflows after about 1800 steps:
        # the float force's math.sin and math.cos refuse the infinite
        # position, where the kernel's numpy calls give a NaN force and so a
        # NaN momentum; on the sorted level and on a branch
        for m, branch in ((cos_model(0.2), False), (gap_model(), True)):
            with pytest.raises(RuntimeError) as err, np.errstate(all="ignore"):
                dynamics.simulate(m, _bo_lanes(m, [(0.5, 1e308)], branch)[0], "bo",
                                  T_final=10.0, dt=1e-3)
            found.append(str(err.value))
        messages.append(found)
    assert messages[0] == messages[1]
    assert messages[0][0] == "lambda_0 is degenerate at X = 0.0; force undefined"
    assert messages[0][1:] == ["non-finite state at t = 1.798 (X = [inf], p = [nan]); "
                               "aborting"] * 2


def test_simulate_rejects_bad_step_inputs():
    m = gap_model()
    M = 1024.0
    init = dynamics.PhaseState.make(0.0, 1.0, phi=dynamics.initial_electron_state(m, 0.0, 1.0, M))
    bad = [{"dt": 0.0}, {"dt": -1e-3}, {"dt": np.nan}, {"dt": np.inf},
           {"T_final": -1.0}, {"T_final": np.inf}, {"T_final": np.nan}]
    good = {"T_final": 0.1, "dt": 1e-3, "M": M}
    for kw in bad + [{"M": 0.0}, {"M": 0.5}, {"M": np.nan}, {"M": np.inf}]:
        args = {**good, **kw}
        with pytest.raises(ValueError, match="dt|T_final|M"):
            dynamics.simulate(m, init, "ehrenfest", **args)
        # one bad lane rejects the ensemble
        with pytest.raises(ValueError, match="dt|T_final|M"):
            dynamics.simulate_ensemble(m, [init, init], "ehrenfest",
                                       **{key: [good[key], args[key]] for key in good})
    for kw in bad:
        with pytest.raises(ValueError, match="dt|T_final"):
            dynamics.simulate(m, dynamics.PhaseState.make(0.0, 1.0), "smoluchowski",
                              rng=stream_rng(0), T=0.1, **{**good, "M": None, **kw})
    # a model mass below 1 fails too; outside Ehrenfest M only labels the run
    with pytest.raises(ValueError, match="M"):
        dynamics.simulate(dataclasses.replace(m, M=(0.5,)), init, "ehrenfest", T_final=0.1,
                          dt=1e-3)
    assert dynamics.simulate(m, init, "bo", T_final=0.1, dt=1e-3, M=0.5).meta["M"] == 0.5
    assert dynamics.simulate(m, init, "ehrenfest", T_final=0.0, dt=1e-3, M=M).t.size == 1


def test_simulate_rejects_hit_budgets_below_one():
    m = gap_model()
    init = dynamics.PhaseState.make(0.0, 1.0)
    for scheme in ("bo", "smoluchowski", "langevin"):
        kw = {} if scheme == "bo" else {"T": 0.1}
        # and budgets that are not integers
        for max_hits in (0, -1, 0.5, np.nan, [1, 0], 2.5, 2.0, np.float64(3.0), [1, 1.5]):
            rngs = None if scheme == "bo" else [stream_rng(0), stream_rng(1)]
            with pytest.raises(ValueError, match="max_hits"):
                dynamics.simulate_ensemble(m, [init, init], scheme, T_final=1.0, dt=0.1,
                                           surface=1.0, max_hits=max_hits, rng=rngs, **kw)
    assert len(dynamics.simulate(m, init, "bo", T_final=3.0, dt=0.1, surface=1.0,
                                 max_hits=1).hits) == 1
    # integers of any kind run, to that many hits
    out = dynamics.simulate_ensemble(m, [init, init], "bo", T_final=30.0, dt=0.1, surface=1.0,
                                     max_hits=[np.int64(2), None])
    assert len(out[0].hits) == 2 and len(out[1].hits) > 2


@pytest.mark.parametrize("path", ["float", "lockstep"])
@pytest.mark.parametrize("option, name", [
    ({"record_every": 0}, "record_every"), ({"record_every": -2}, "record_every"),
    ({"record_every": 2.5}, "record_every"), ({"record_every": 2.0}, "record_every"),
    ({"surface": np.nan}, "surface"), ({"surface": np.inf}, "surface"),
    ({"surface": -np.inf}, "surface"),
    # a hit budget list of another length than the two lanes
    ({"max_hits": [1]}, "max_hits"), ({"max_hits": [1, 1, 1]}, "max_hits")])
def test_simulate_rejects_bad_record_steps_and_surfaces(monkeypatch, path, option, name):
    m = gap_model()
    M = 1024.0
    phi = dynamics.initial_electron_state(m, 0.0, 1.0, M)
    runs = [("ehrenfest", dynamics.PhaseState.make(0.0, 1.0, phi=phi), {"M": M}),
            ("smoluchowski", dynamics.PhaseState.make(0.0, 0.0), {"T": 0.1})]
    if path == "lockstep":
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)
    good = [dynamics.simulate(m, init, scheme, T_final=0.1, dt=1e-3, surface=np.float64(0.05),
                              record_every=np.int64(2), rng=stream_rng(0), **kw)
            for scheme, init, kw in runs]
    assert [t.t.size for t in good] == [51, 51]

    def no_step(*args, **kwargs):
        raise AssertionError("a lane was stepped")

    for driver in ("_float_chain", "_lockstep"):
        monkeypatch.setattr(dynamics, driver, no_step)
    for scheme, init, kw in runs:
        with pytest.raises(ValueError, match=name):
            dynamics.simulate_ensemble(m, [init, init], scheme, T_final=0.1, dt=1e-3,
                                       rng=[stream_rng(0), stream_rng(1)], **kw, **option)


@pytest.mark.parametrize("path", ["float", "lockstep"])
def test_empty_ensembles_return_no_trajectories(monkeypatch, path):
    m = gap_model()
    lockstep_calls = []
    if path == "lockstep":
        # no cut-off admits even an empty ensemble
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", -1)
        monkeypatch.setattr(dynamics, "_FLOAT_BO_LANES", -1)
        lockstep = dynamics._lockstep
        monkeypatch.setattr(dynamics, "_lockstep",
                            lambda *args: lockstep_calls.append(1) or lockstep(*args))
    runs = [("ehrenfest", {"M": 1024.0}), ("bo", {}), ("langevin", {"T": 0.1, "K": 1.0}),
            ("smoluchowski", {"T": 0.1})]
    for scheme, kw in runs:
        rng = None if scheme in ("ehrenfest", "bo") else []
        assert dynamics.simulate_ensemble(m, [], scheme, T_final=1.0, dt=1e-3, surface=0.0,
                                          record_every=2, max_hits=[], rng=rng, **kw) == []
    assert len(lockstep_calls) == (4 if path == "lockstep" else 0)


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


def masked_average(t, gx, lo, hi):
    """The loop integral cut with a full-record mask, as the reference."""
    inside = (t >= lo) & (t <= hi)
    tt, gg = t[inside], gx[inside]
    if tt[0] > lo:
        tt = np.insert(tt, 0, lo)
        gg = np.insert(gg, 0, np.interp(lo, t, gx))
    if tt[-1] < hi:
        tt = np.append(tt, hi)
        gg = np.append(gg, np.interp(hi, t, gx))
    return float(np.trapezoid(gg, tt) / (hi - lo))


@pytest.mark.parametrize("record_every", [1, 3])
def test_loop_averages_cut_by_searchsorted_equal_masked_cuts(record_every):
    m = cos_model(0.1)
    traj = dynamics.simulate(m, dynamics.PhaseState.make(0.5, 1.3), "bo", T_final=30.0,
                             dt=1e-3, surface=0.5, record_every=record_every)
    assert len(traj.hits) > 4
    g = lambda x: np.cos(2 * np.pi * x / m.L)
    gx = g(wrap(traj.X[:, 0], m.L))
    taus = [traj.t[0]] + [h.tau for h in traj.hits]
    for n in (1, 3, None):
        ends = taus if n is None else taus[:n + 1]
        assert dynamics.loop_average(traj, g, n) == masked_average(traj.t, gx, ends[0], ends[-1])
        assert dynamics.per_loop_averages(traj, g, n) == [
            masked_average(traj.t, gx, lo, hi) for lo, hi in zip(ends, ends[1:])]
    with pytest.raises(ValueError, match="n_loops"):
        dynamics.loop_average(traj, g, 0)


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
    lam = model.levels_and_slopes(m, traj.X[:, 0])[0][:, 0]
    sup = np.abs(traj.H - 0.5 * traj.p[:, 0] ** 2 - lam).max()
    assert abs(gain_e - gain_b) <= 1.5 * max(tau_e, tau_b) * sup
