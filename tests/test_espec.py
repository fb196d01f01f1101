import dataclasses

import numpy as np
import pytest

from qcmd import ModelSpec, build_model, dynamics, espec, gibbs, lab, model as mm, wkb
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
        lam, slopes = mm.levels_and_slopes(m, X)
        lam_ref, slopes_ref = _eigh_level_slopes(m, X)
        assert lam.shape == slopes.shape == (X.size, m.d), m.family
        assert np.abs(lam - lam_ref).max() <= 1e-12, m.family
        assert np.abs(slopes - slopes_ref).max() <= 1e-12, m.family
        assert np.array_equal(espec.eigen_at(m, X)[0], lam)
        assert (np.diff(lam, axis=1) >= 0.0).all()
        # scalar X and the force on the ground level
        assert np.array_equal(mm.levels_and_slopes(m, X[7])[1], slopes[7])
        assert espec.ground_force(m, X[7]) == -slopes[7, 0]


def test_reconstruction_from_eigenpairs():
    m = multi([[1.0, 0.1], [2.0, 0.2]], a0=0.3, rot=0.5)
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 16))
    for i, x in enumerate(f.grid):
        V = sum(f.lambdas[i, n] * np.outer(f.vectors[i, :, n], f.vectors[i, :, n])
                for n in range(m.d))
        assert np.abs(V - mm.evaluate_potential(m, x)).max() <= 1e-10


def _loop_signs(model, grid):
    """The sign fixing of eigendecompose_field as a loop over the grid points,
    kept as the reference for the cumulative product."""
    vectors = espec.eigen_at(model, grid)[1]
    lead = np.abs(vectors[0]).argmax(axis=0)
    overlaps = np.einsum("ijm,ijm->im", vectors[:-1], vectors[1:])
    signs = np.empty((grid.size, model.d))
    signs[0] = np.where(vectors[0][lead, np.arange(model.d)] < 0.0, -1.0, 1.0)
    for i in range(1, grid.size):
        signs[i] = np.where(signs[i - 1] * overlaps[i - 1] < 0.0, -1.0, 1.0)
    return vectors * signs[:, None, :]


@pytest.mark.parametrize("spec", [
    ModelSpec(family="free"), ModelSpec(family="scalar_cos", params={"a": 0.3}),
    ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2),
    ModelSpec(family="two_level_cross", d=2),
    ModelSpec(family="multi_level", d=3, params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]],
                                                 "rot": 1.7})])
def test_sign_fixing_matches_the_loop(spec):
    m = build_model(spec)
    for n in (1, 2, 8, 129, 4096):
        grid = periodic_grid(m.L, n)
        assert np.array_equal(espec.eigendecompose_field(m, grid).vectors, _loop_signs(m, grid))
    if spec.family == "multi_level":
        # on 8 points the middle column turns by more than a right angle
        # between neighbours, so the loop flips it
        vectors = espec.eigen_at(m, periodic_grid(m.L, 8))[1]
        assert (np.einsum("ijm,ijm->im", vectors[:-1], vectors[1:]) < 0.0).any()


def test_sign_fixing_restarts_at_a_zero_overlap():
    m = gap_model()
    vectors = m._vectors

    def broken(X):
        V = vectors(X).copy()
        V[2, :, 0] *= -1.0           # the loop flips point 2 back ...
        V[3, :, 0] = 0.0             # ... but a zero overlap fixes no sign
        V[5, :, 1] = np.nan          # nor does a NaN one
        V[6, :, 0] *= -1.0
        return V

    zeroed = dataclasses.replace(m, _vectors=broken)
    grid = periodic_grid(m.L, 12)
    field = espec.eigendecompose_field(zeroed, grid)
    assert np.array_equal(field.vectors, _loop_signs(zeroed, grid), equal_nan=True)
    # so the column restarts at +1 after point 3, where a product of every
    # step would carry point 2's flip on
    assert np.array_equal(field.vectors[2, :, 0], vectors(grid)[2, :, 0])
    assert np.array_equal(field.vectors[4, :, 0], vectors(grid)[4, :, 0])


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


def test_detect_crossings_gap_family_empty(monkeypatch):
    m = gap_model()
    init = dynamics.PhaseState.make(0.0, 1.5,
                                    phi=espec.eigen_at(m, 0.0)[1][:, 0].astype(complex))
    traj = dynamics.simulate(m, init, "bo", T_final=10.0, dt=1e-3)
    f = espec.eigendecompose_field(m, periodic_grid(m.L, 64))
    calls = []
    levels = mm.levels_and_slopes
    monkeypatch.setattr(mm, "levels_and_slopes", lambda *a: calls.append(a) or levels(*a))
    # the gap floor 2 delta rules out every crossing before any level is read
    assert espec.detect_crossings(f, traj) == []
    assert calls == []
    # a gap tolerance above the floor makes the path searched
    espec.detect_crossings(f, traj, gap_tol=1.0)
    assert calls


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
    gap = mm.levels_and_slopes(m, traj2.X[:, 0])[0]
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


def greedy_match(ov):
    """For each branch (column of ov) the sorted level (row) of largest |overlap|;
    branches with the strongest best overlap choose first, each level once."""
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


def per_point_branches(model, n, fine=1024):
    """The branch continuation by eigenvector overlap, one point at a time
    from eigh of V(X), with sign-fixed vectors: the oracle for
    ``smooth_branches`` on ``periodic_grid(model.L, n)``.

    Overlaps follow a branch only while its vector turns by less than pi/4
    between neighbours, which the gap family's vectors break on grids of
    under a dozen points, so the continuation runs on the grid refined to at
    least ``fine`` points and is read out on every r-th point.
    """
    r = -(-fine // n)
    lam_all, vec_all = np.linalg.eigh(mm.evaluate_potential(model, periodic_grid(model.L, n * r)))
    d = model.d
    gaps1 = lam_all[::r, 1] - lam_all[::r, 0] if d > 1 else np.ones(n)
    start = r * int(np.argmax(gaps1 >= gaps1.max() * (1.0 - 1e-12)))
    sorted_index = np.empty((n * r, d), dtype=int)
    sorted_index[start] = np.arange(d)
    prev = vec_all[start].copy()
    for i in np.r_[np.arange(start + 1, n * r), np.arange(0, start)]:
        ov = vec_all[i].T @ prev
        assign = greedy_match(ov)
        prev = vec_all[i][:, assign] * np.where(ov[assign, np.arange(d)] >= 0.0, 1.0, -1.0)
        sorted_index[i] = assign
    mu = np.take_along_axis(lam_all, sorted_index, axis=1)
    return (mu[::r], sorted_index[::r], greedy_match(vec_all[start].T @ prev), start // r)


BRANCH_MODELS = {
    "free": lambda: build_model(ModelSpec(family="free")),
    "scalar_cos": lambda: build_model(ModelSpec(family="scalar_cos", params={"a": 0.1})),
    "two_level_gap": gap_model,
    "two_level_cross": cross_model,
    "multi_level": lambda: multi([[1.0, 0.02], [2.0, 0.03]], a0=0.2, rot=0.3),
}


@pytest.mark.parametrize("family", sorted(BRANCH_MODELS))
def test_smooth_branches_match_per_point_loop(family):
    m = BRANCH_MODELS[family]()
    for n in (4, 5, 7, 16, 33, 256, 512, 1024, 2048, 4096):
        grid = periodic_grid(m.L, n)
        field = espec.smooth_branches(m, grid)
        mu, sorted_index, permutation, start = per_point_branches(m, n)
        assert field.start == start and np.array_equal(field.permutation, permutation)
        assert np.abs(field.mu - mu).max() <= 1e-13
        # the sorted labels may differ only where two levels are equal
        lam = mm.levels_and_slopes(m, grid)[0]
        differ = (field.sorted_index != sorted_index).any(axis=1)
        assert (np.diff(lam[differ], axis=1) == 0.0).any(axis=1).all()
        oracle = espec.BranchField(grid=grid, mu=mu, sorted_index=sorted_index,
                                   permutation=permutation, start=start)
        assert field.cycle_of(0) == oracle.cycle_of(0)
        assert field.crossing_passes(field.cycle_of(0)) == oracle.crossing_passes(
            oracle.cycle_of(0))


@pytest.mark.parametrize("grid", [np.linspace(1.0, 2.0 * np.pi + 1.0, 64, endpoint=False),
                                  np.linspace(-0.5, 6.0, 64), periodic_grid(2 * np.pi, 64)[::-1],
                                  np.zeros(0), np.zeros((4, 4))])
def test_smooth_branches_need_a_sorted_grid_inside_the_torus(grid):
    # branches are evaluated on [0, L) with the seam at its ends, so a grid
    # that wraps through X = L = 0 would hide the crossing of the cross family
    with pytest.raises(ValueError, match="grid must"):
        espec.smooth_branches(cross_model(), grid)


def test_loop_branches_launch_at_widest_first_gap():
    assert espec.loop_branches(build_model(ModelSpec(family="free"))).launch == 0.0
    assert espec.loop_branches(gap_model()).launch == 0.0
    # the crossing family's first gap 4 |sin(X/2)| is widest at X = pi
    branch = espec.loop_branches(cross_model())
    assert branch.grid.size == 512 and branch.launch == np.pi
    for make in BRANCH_MODELS.values():
        m = make()
        loop = espec.loop_branches(m)
        mu, _, permutation, start = per_point_branches(m, 512)
        assert loop.start == start and np.array_equal(loop.permutation, permutation)
        assert np.abs(loop.mu - mu).max() <= 1e-13


def _bo_trajectory(m, X0=0.5, E=0.6):
    p0 = np.sqrt(2.0 * (E - espec.eigen_at(m, X0)[0][0]))
    return dynamics.simulate(m, dynamics.PhaseState.make(X0, p0), "bo", T_final=1.0, dt=1e-3)


AUDITED = {
    "converge_bo_cross": lambda: lab.converge(cross_model(), "bo", [64.0], n_loops=1,
                                              energy_window=0.7),
    "converge_ehrenfest_gap": lambda: lab.converge(gap_model(), "ehrenfest", [64.0],
                                                   n_loops=1),
    "gibbs": lambda: (gibbs.gibbs_observable(gap_model(), np.cos, 0.1, n_samples=200),
                      gibbs.corrected_potential(espec.eigendecompose_field(
                          gap_model(), periodic_grid(2 * np.pi, 65)), 0.1)),
    "weight_along": lambda: wkb.weight_along(_bo_trajectory(gap_model()), gap_model()),
    "perp_correction": lambda: [
        dynamics.initial_electron_state(m, 0.3, 1.2, 1024.0, perp_correction=True)
        for m in (gap_model(), cross_model(), multi([[0.8, 0.12], [1.6, 0.16]], rot=0.3))],
    "branch_step_bo": lambda: dynamics.step_bo(cross_model(), dynamics.PhaseState.make(
        0.1, -1.0, phi=espec.eigen_at(cross_model(), 0.1)[1][:, 0].astype(complex)), 0.2),
}


@pytest.mark.parametrize("case", sorted(AUDITED))
def test_only_qref_calls_an_eigensolver(eigensolver_calls, case):
    AUDITED[case]()
    assert set(eigensolver_calls) <= {"qcmd.qref"}
    if case.startswith("converge"):
        # the audit sees the reference's own solves
        assert "qcmd.qref" in eigensolver_calls
