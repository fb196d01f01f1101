import numpy as np
import pytest

from qcmd import ModelSpec, build_model, espec, dynamics
from qcmd.errors import CrossingError
from qcmd._util import periodic_grid


def gap_model(delta=0.25):
    return build_model(ModelSpec(family="two_level_gap", params={"delta": delta}, d=2))


def cross_model():
    return build_model(ModelSpec(family="two_level_cross", d=2))


def multi(gaps, a0=0.0, rot=0.0, d=None):
    d = d if d is not None else len(gaps) + 1
    return build_model(ModelSpec(family="multi_level", d=d,
                                 params={"a0": a0, "gaps": gaps, "rot": rot}))


def test_free_field():
    m = build_model(ModelSpec(family="free"))
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 32))
    assert np.all(f.lambdas == 0.0)
    assert np.all(f.vectors == 1.0)


def test_field_invariants():
    m = gap_model()
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 128))
    from qcmd import model as mm
    for i, x in enumerate(f.grid):
        V = mm.evaluate_potential(m, x)
        for n in range(m.d):
            res = np.linalg.norm(V @ f.vectors[i, :, n] - f.lambdas[i, n] * f.vectors[i, :, n])
            assert res <= 1e-10 * max(np.linalg.norm(V), 1.0)
        gram = f.vectors[i].T @ f.vectors[i]
        assert np.abs(gram - np.eye(m.d)).max() <= 1e-12
        # trace sum rule
        assert abs(np.trace(V) - f.lambdas[i].sum()) <= 1e-10
    # gauge continuity away from crossings
    overlaps = np.einsum("ijn,ijn->in", f.vectors[:-1], f.vectors[1:])
    assert overlaps.min() >= 0.0
    assert np.all(f.gaps[:, 0] == 0.0)


def _eigh_level_slopes(m, X):
    """The slow path: eigh of V(X) and the Hellmann-Feynman slopes <v_n, dV v_n>."""
    from qcmd import model as mm
    V, dV = mm.potential_and_derivative(m, X)
    lam, vec = np.linalg.eigh(V)
    return lam, np.einsum("...jn,...jk,...kn->...n", vec, dV, vec)


FAMILIES = [build_model(ModelSpec(family="free")),
            build_model(ModelSpec(family="scalar_cos", params={"a": 0.3})),
            gap_model(), cross_model(),
            multi([[0.8, 0.12], [1.6, 0.16]], a0=0.1, rot=0.3),
            multi([[1.0, 0.1], [2.0, 0.2], [3.5, -0.3]], a0=-0.4, rot=1.7)]


def test_closed_forms_match():
    for m in FAMILIES:
        # a shifted grid over three periods, negative X included, away from
        # the exact crossings of two_level_cross at X = 0 mod 2 pi
        X = np.linspace(-m.L, 2.0 * m.L, 301) + 0.0123
        lam, slopes = espec.level_slopes(m, X)
        lam_ref, slopes_ref = _eigh_level_slopes(m, X)
        assert lam.shape == slopes.shape == (X.size, m.d), m.family
        assert np.abs(lam - lam_ref).max() <= 1e-12, m.family
        assert np.abs(slopes - slopes_ref).max() <= 1e-12, m.family
        assert np.array_equal(espec.eigenvalues_along(m, X), lam)
        assert (np.diff(lam, axis=1) >= 0.0).all()
        # scalar X and the force on the ground level
        assert np.array_equal(espec.level_slopes(m, X[7])[1], slopes[7])
        assert espec.ground_force(m, X[7]) == -slopes[7, 0]


def test_reconstruction_from_eigenpairs():
    m = multi([[1.0, 0.1], [2.0, 0.2]], a0=0.3, rot=0.5)
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 16))
    from qcmd import model as mm
    for i, x in enumerate(f.grid):
        V = sum(f.lambdas[i, n] * np.outer(f.vectors[i, :, n], f.vectors[i, :, n])
                for n in range(m.d))
        assert np.abs(V - mm.evaluate_potential(m, x)).max() <= 1e-10


def test_detect_gap():
    f = espec.eigendecompose_field(gap_model(), periodic_grid(2 * np.pi, 64))
    assert abs(espec.detect_gap(f) - 0.5) < 1e-12
    f2 = espec.eigendecompose_field(cross_model(), periodic_grid(2 * np.pi, 64))
    assert espec.detect_gap(f2) == 0.0          # grid contains the crossing X=0
    f3 = espec.eigendecompose_field(multi([[1.0, 0.0], [2.0, 0.0]]), periodic_grid(2 * np.pi, 32))
    assert abs(espec.detect_gap(f3) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        espec.detect_gap(espec.eigendecompose_field(build_model(ModelSpec(family="free")),
                                                    periodic_grid(2 * np.pi, 8)))


def _cross_trajectory(t_final):
    # E = 0.5 puts |p| = 1 at the crossing; the branch path passes X = 2 pi
    # at t ~ 1.78, turns on the upper branch, and recrosses at t ~ 3.81
    m = cross_model()
    X0, E = np.pi, 0.5
    lam0 = espec.eigen_at(m, X0)[0][0]
    p0 = np.sqrt(2 * (E - lam0))
    phi0 = espec.eigen_at(m, X0)[1][:, 0].astype(complex)
    init = dynamics.PhaseState.make(X0, p0, phi=phi0)
    return m, dynamics.simulate(m, init, "bo", T_final=t_final, dt=1e-3)


def test_detect_crossings_gap_family_empty():
    m = gap_model()
    init = dynamics.PhaseState.make(0.0, 1.5,
                                    phi=espec.eigen_at(m, 0.0)[1][:, 0].astype(complex))
    traj = dynamics.simulate(m, init, "bo", T_final=10.0, dt=1e-3)
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 64))
    assert espec.detect_crossings(f, traj) == []


def test_detect_crossings_single_and_double_pass():
    m, traj1 = _cross_trajectory(3.0)
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 64))
    events = espec.detect_crossings(f, traj1)
    assert len(events) == 1
    # |p| = 1 at the crossing -> slope |d gap/dt| = 2
    assert abs(events[0].slope - 2.0) < 0.05
    assert not events[0].degenerate

    m, traj2 = _cross_trajectory(5.0)
    events2 = espec.detect_crossings(f, traj2)
    # oracle: count near-zero touches of the gap on dense samples
    gap = espec.eigenvalues_along(m, traj2.X[:, 0])
    g = gap[:, 1] - gap[:, 0]
    touches = sum(1 for i in range(1, len(g) - 1)
                  if g[i] <= g[i - 1] and g[i] <= g[i + 1] and g[i] < 1e-2)
    assert len(events2) == touches == 2


def test_ground_force_degenerate_raises():
    m = cross_model()
    for X in (0.0, 2.0 * np.pi):
        with pytest.raises(CrossingError):
            espec.ground_force(m, X)
    # and is finite beside the crossing
    assert abs(espec.ground_force(m, 1e-3) - np.cos(5e-4)) < 1e-15


def test_ground_curvature_matches_fd():
    m = gap_model()
    h = 1e-4
    for X in (0.3, 1.1, 2.9):
        num = (espec.eigen_at(m, X + h)[0][0] - 2 * espec.eigen_at(m, X)[0][0]
               + espec.eigen_at(m, X - h)[0][0]) / h ** 2
        assert abs(espec.ground_curvature(m, X) - num) < 1e-5


def test_kappa_constant_gaps_zero():
    m = multi([[1.0, 0.0], [2.0, 0.0]])
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 32))
    kap, t_over = espec.kappa(f, (0.5, 4.0), 1.0, T=0.1)
    assert kap < 1e-12
    assert abs(t_over - 0.1) < 1e-12


def test_kappa_matches_dense_oracle_and_bound():
    eps = 0.1
    m = multi([[1.0, eps]])
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 64))
    dom = (np.pi - np.pi / 2, np.pi + np.pi / 2)   # half-width pi/2 around X_c
    X_c = np.pi
    kap, _ = espec.kappa(f, dom, X_c, T=0.05)
    # direct maximization oracle on a dense grid
    best = 0.0
    for x in np.linspace(dom[0], dom[1], 401):
        for s in np.linspace(0, 1, 101):
            y = s * x + (1 - s) * X_c
            gaps, dgaps = espec.gap_derivatives(m, y)
            best = max(best, abs(np.sum(dgaps / gaps) * (x - X_c)))
    assert abs(kap - best) <= 1e-2 * best + 1e-12
    assert kap <= eps * (np.pi / 2) / (1 - eps) * (2 * np.pi / m.L) + 1e-9


def test_kappa_invariant_under_level_shift():
    f1 = espec.eigendecompose_field(multi([[1.0, 0.05]], a0=0.0), periodic_grid(2 * np.pi, 32))
    f2 = espec.eigendecompose_field(multi([[1.0, 0.05]], a0=0.4), periodic_grid(2 * np.pi, 32))
    k1, _ = espec.kappa(f1, (0.5, 4.0), 1.0, T=0.1)
    k2, _ = espec.kappa(f2, (0.5, 4.0), 1.0, T=0.1)
    assert abs(k1 - k2) < 1e-10


def test_smooth_branches_gap_vs_cross():
    fb = espec.smooth_branches(gap_model(), periodic_grid(2 * np.pi, 256))
    assert list(fb.permutation) == [0, 1]
    assert fb.cycle_of(0) == [0]
    fc = espec.smooth_branches(cross_model(), periodic_grid(2 * np.pi, 256))
    assert list(fc.permutation) == [1, 0]
    cyc = fc.cycle_of(0)
    assert sorted(cyc) == [0, 1]
    assert fc.crossing_passes(cyc) == 2
    # the smooth branch is differentiable through the crossing (no |.| kink);
    # the only discontinuity sits at the continuation seam, which is excluded
    n = fc.grid.size
    order = np.r_[np.arange(fc.start, n), np.arange(0, fc.start)]
    mu0 = fc.mu[order, 0]
    h = fc.grid[1] - fc.grid[0]
    d2 = np.abs(np.diff(mu0, 2)).max() / h ** 2
    assert d2 < 2.0
    # the sorted ground level, by contrast, has the |sin| kink at the crossing
    sorted0 = np.sort(fc.mu, axis=1)[order, 0]
    assert np.abs(np.diff(sorted0, 2)).max() / h ** 2 > 10.0


def test_loop_branches_launch_at_widest_first_gap():
    assert espec.loop_branches(build_model(ModelSpec(family="free"))).launch == 0.0
    assert espec.loop_branches(gap_model()).launch == 0.0
    # the crossing family's first gap 4 |sin(X/2)| is widest at X = pi
    branch = espec.loop_branches(cross_model())
    assert branch.grid.size == 512 and branch.launch == np.pi
