import os

import numpy as np
import pytest

from qcmd import ModelSpec, build_model, dynamics, espec, lab, qref, wkb


def test_fit_rate_exact_power_laws():
    for alpha_true in (1.0, 0.5):
        pts = [(M, 3.7 * M ** (-alpha_true)) for M in (64, 256, 1024, 4096)]
        alpha, stderr, intercept = lab.fit_rate(pts)
        assert abs(alpha - alpha_true) < 1e-12
        assert stderr < 1e-12
        assert abs(np.exp(intercept) - 3.7) < 1e-10


def test_fit_rate_with_multiplicative_noise():
    rng = np.random.default_rng(0)
    hits = 0
    for trial in range(20):
        pts = [(M, 2.0 * M ** (-1.0) * (1.0 + 0.1 * rng.standard_normal()))
               for M in (64, 256, 1024, 4096, 16384)]
        alpha, _, _ = lab.fit_rate(pts)
        hits += abs(alpha - 1.0) < 0.1
    assert hits >= 18


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        lab.fit_rate([(64, 1.0), (256, 0.5)])
    with pytest.raises(ValueError):
        lab.fit_rate([(64, 1.0), (256, 0.0), (1024, 0.1)])


def test_default_observables_periodic():
    obs = lab.default_observables(2 * np.pi)
    x = np.linspace(0, 2 * np.pi, 64)
    for g in obs.values():
        assert np.allclose(g(x), g(x + 2 * np.pi), atol=1e-12)


def test_converge_free_is_floor_limited():
    m = build_model(ModelSpec(family="free"))
    rec = lab.converge(m, "bo", [64.0, 256.0, 1024.0], n_loops=2)
    assert rec.floor_limited
    for e in rec.per_M:
        assert e["error"] < 1e-7
        assert e["caustics"] == []


def test_converge_gap_smoke_and_record_roundtrip():
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    obs = {"cos2": lambda x: np.cos(2 * x)}
    rec = lab.converge(m, "bo", [64.0, 256.0, 1024.0], observables=obs, n_loops=4)
    assert 0.5 < rec.alpha < 1.6
    text = rec.to_json()
    again = lab.RunRecord.from_json(text)
    assert again.comparable() == rec.comparable()


def test_replay_is_bit_identical():
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    rec = lab.converge(m, "bo", [64.0, 256.0], n_loops=2, seed=5)
    rec2 = lab.replay(rec)
    assert rec.comparable() == rec2.comparable()


def test_replay_keeps_every_converge_option():
    # the criterion-3 options: a microcanonical window through a crossing
    m = build_model(ModelSpec(family="two_level_cross", d=2))
    rec = lab.converge(m, "bo", [64.0, 256.0], n_loops=1, energy_window=0.7,
                       n_grid_cap=512)
    assert rec.energy_window == 0.7 and rec.n_grid_cap == 512
    assert all(e["k_spread"] >= 4 for e in rec.per_M)
    again = lab.RunRecord.from_json(rec.to_json())
    assert lab.replay(again).comparable() == rec.comparable()


def test_replay_refuses_custom_observables():
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    rec = lab.converge(m, "bo", [64.0], observables={"cos2": lambda x: np.cos(2 * x)},
                       n_loops=1)
    with pytest.raises(ValueError, match="cannot be replayed"):
        lab.replay(rec)


@pytest.mark.parametrize("n_loops", [0, -1])
def test_converge_rejects_loop_counts_below_one(n_loops):
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    with pytest.raises(ValueError, match="n_loops must be >= 1"):
        lab.converge(m, "bo", [64.0], n_loops=n_loops)


def test_record_without_options_replays_with_defaults():
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    rec = lab.converge(m, "bo", [64.0], n_loops=1)
    data = rec.comparable()
    for key in ("count", "k_spread", "energy_window", "doublet_average",
                "n_grid_cap", "perp_correction"):
        data.pop(key)
    old = lab.RunRecord(**data)
    assert lab.replay(old).comparable() == rec.comparable()


def test_symplectic_study_verlet_slope_and_euler_positions():
    m = build_model(ModelSpec(family="scalar_cos", params={"a": 0.1}))
    out = lab.symplectic_perturbation_study(m, "bo", [2e-1, 1e-1, 5e-2, 2.5e-2, 1e-3],
                                            M=1024.0, n_loops=2)
    assert out["dt_fit"] is not None
    assert abs(out["dt_fit"]["q"] - 2.0) < 0.2
    # symplectic Euler positions coincide with Verlet's on matched grids
    assert out["euler_verlet_max_position_dev"] < 1e-10
    # dt -> 0: the total error plateaus at the mass floor
    total_small = [e["error"] for e in out["entries"] if e["dt"] <= 2.5e-2]
    assert max(total_small) <= 3.0 * out["floor"] + 1e-12


def test_converge_classical_values_belong_to_first_state():
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    obs = {"cos2": lambda x: np.cos(2 * x)}
    one = lab.converge(m, "bo", [64.0], observables=obs, n_loops=2).per_M[0]
    two = lab.converge(m, "bo", [64.0], observables=obs, n_loops=2, k_spread=2).per_M[0]
    assert two["k_spread"] == 2
    assert two["E_q"] == pytest.approx(one["E_q"], abs=1e-12)
    for key in ("quantum", "classical", "scatter"):
        assert two[key]["cos2"] == pytest.approx(one[key]["cos2"], rel=1e-8, abs=1e-12)


def test_record_with_crossings_json_roundtrip():
    m = build_model(ModelSpec(family="two_level_cross", d=2))
    rec = lab.converge(m, "bo", [64.0], n_loops=1)
    assert rec.per_M[0]["crossings"]
    again = lab.RunRecord.from_json(rec.to_json())
    assert again.comparable() == rec.comparable()


def test_shared_reference_cache_keys_grid_cap_and_observables():
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    cache = {}
    capped = lab.converge(m, "bo", [256.0], n_loops=1, n_grid_cap=256, cache=cache)
    full = lab.converge(m, "bo", [256.0], n_loops=1, cache=cache)
    assert capped.per_M[0]["n_grid"] == 256
    assert full.per_M[0]["n_grid"] == 512
    # the same observable names bound to other functions get their own values
    shifted = {name: (lambda g: lambda x: g(x) + 1.0)(g)
               for name, g in lab.default_observables(m.L).items()}
    moved = lab.converge(m, "bo", [256.0], n_loops=1, observables=shifted, cache=cache)
    for name in shifted:
        assert abs(moved.per_M[0]["quantum"][name] - full.per_M[0]["quantum"][name] - 1.0) < 1e-9


@pytest.mark.parametrize("n_loops", [2.0, 1.5, np.float64(3.0)], ids=repr)
def test_converge_rejects_a_non_integer_loop_count_before_any_solve(monkeypatch, workers,
                                                                     n_loops):
    def no_solve(*args, **kwargs):
        raise AssertionError("a reference was solved")

    monkeypatch.setattr(lab, "_matched_eigenstates", no_solve)
    forks = workers(2)
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    with pytest.raises(ValueError, match="n_loops must be an integer, got"):
        lab.converge(m, "bo", [64.0, 256.0], n_loops=n_loops)
    assert forks == []


@pytest.mark.parametrize("masses, options, message", [
    pytest.param([], {}, "M_list must hold at least one mass",
                 id="masses0-M_list must hold at least one mass"),
    pytest.param([float("nan"), 1024.0], {}, "mass M must be finite and >= 1, got nan",
                 id="masses1-mass M must be finite and >= 1, got nan"),
    pytest.param([64.0, float("inf")], {}, "mass M must be finite and >= 1, got inf",
                 id="masses2-mass M must be finite and >= 1, got inf"),
    pytest.param([64.0, 0.5], {}, "mass M must be finite and >= 1, got 0.5",
                 id="masses3-mass M must be finite and >= 1, got 0.5"),
    pytest.param([64.0], {"k_spread": 0}, "k_spread must be >= 1, got 0", id="k_spread-0"),
    pytest.param([64.0], {"count": 0}, "count must be >= 1, got 0", id="count-0"),
    pytest.param([64.0], {"count": -3}, "count must be >= 1, got -3", id="count-neg"),
    pytest.param([64.0], {"energy_window": float("nan")},
                 "energy_window must be finite and > 0, got nan", id="energy_window-nan"),
    pytest.param([64.0], {"energy_window": float("inf")},
                 "energy_window must be finite and > 0, got inf", id="energy_window-inf"),
    pytest.param([64.0], {"energy_window": 0.0},
                 "energy_window must be finite and > 0, got 0.0", id="energy_window-0"),
    pytest.param([64.0], {"energy_window": -1.0},
                 "energy_window must be finite and > 0, got -1.0", id="energy_window-neg"),
    pytest.param([64.0], {"e_ref": float("nan")}, "e_ref must be finite, got nan",
                 id="e_ref-nan"),
    pytest.param([64.0], {"e_ref": float("-inf")}, "e_ref must be finite, got -inf",
                 id="e_ref-inf"),
    pytest.param([64.0], {"n_grid_cap": 0}, "n_grid_cap must be >= 1, got 0",
                 id="n_grid_cap-0")])
def test_converge_rejects_bad_mass_lists_before_any_solve(monkeypatch, masses, options,
                                                         message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a reference was solved")

    monkeypatch.setattr(lab, "_matched_eigenstates", no_solve)
    with pytest.raises(ValueError, match=message):
        lab.converge(build_model(ModelSpec(family="free")), "bo", masses, **options)


@pytest.mark.parametrize("family, scheme, options, masses", [
    # one worker per mass: 6 and 16 float lanes
    pytest.param("two_level_gap", "ehrenfest", {"k_spread": 2}, (256.0, 1024.0),
                 id="two_level_gap-ehrenfest-options0"),
    pytest.param("two_level_cross", "ehrenfest", {"energy_window": 0.7}, (64.0, 256.0),
                 id="two_level_cross-ehrenfest-options1"),
    # the lockstep phases: Born-Oppenheimer, and 34 Ehrenfest lanes
    pytest.param("two_level_cross", "bo", {"energy_window": 0.7}, (64.0, 256.0),
                 id="two_level_cross-bo-options2"),
    pytest.param("two_level_cross", "ehrenfest", {"energy_window": 0.7}, (256.0, 1024.0),
                 id="two_level_cross-ehrenfest-lockstep")])
def test_forked_sweep_equals_one_worker_bitwise(workers, family, scheme, options, masses):
    params = {"delta": 0.25} if family == "two_level_gap" else {}
    m = build_model(ModelSpec(family=family, params=params, d=2))
    # one observables object: cache keys hold the functions
    options = dict(options, observables=lab.default_observables(m.L))
    light, heavy = masses
    records, caches = [], []
    for cpus in (1, 2):
        forks = workers(cpus)
        cache = {}
        # a duplicated mass is solved once
        rec = lab.converge(m, scheme, [light, heavy, light], n_loops=1, cache=cache,
                           **options)
        assert len(cache) == 2
        # a child a distinct mass, none run in the caller, and workers fork
        # no workers of their own
        assert len(forks) == (len(cache) if cpus == 2 else 0)
        assert not forks.nested
        # stage times summed over the processes, and the sweep's wall time
        assert sorted(rec.wall_times) == ["errors", "references", "sweep", "trajectories"]
        assert min(rec.wall_times.values()) >= 0.0 and "wall_times" not in rec.comparable()
        # a reused cache solves nothing
        again = lab.converge(m, scheme, [heavy, light], n_loops=1, cache=cache, **options)
        assert len(cache) == 2
        assert not forks.nested
        records.append((rec.comparable(), again.comparable()))
        caches.append(cache)
    assert records[0] == records[1]
    assert caches[0] == caches[1]


class _RanInCaller(Exception):
    pass


def _sweep_runs_nothing_in_the_caller(monkeypatch, workers, family, scheme, options):
    """A forked three-mass sweep returns its record, with every reference
    solved and every lane integrated in a child; on one CPU the caller runs
    the sweep itself."""
    params = {"delta": 0.25} if family == "two_level_gap" else {}
    m = build_model(ModelSpec(family=family, params=params, d=2))
    caller = os.getpid()

    def only_in_children(run):
        def wrapped(*args, **kwargs):
            if os.getpid() == caller:
                raise _RanInCaller(run.__name__)
            return run(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(lab, "_matched_eigenstates", only_in_children(lab._matched_eigenstates))
    monkeypatch.setattr(dynamics, "simulate_ensemble",
                        only_in_children(dynamics.simulate_ensemble))
    masses = [64.0, 256.0, 1024.0]
    forks = workers(2)
    rec = lab.converge(m, scheme, masses, n_loops=1, **options)
    assert [e["M"] for e in rec.per_M] == masses and rec.alpha is not None
    assert len(forks) == 3 and not forks.nested
    # one CPU: the caller runs the sweep itself
    forks = workers(1)
    with pytest.raises(_RanInCaller, match="_matched_eigenstates"):
        lab.converge(m, scheme, masses, n_loops=1, **options)
    assert forks == []
    return rec


def test_a_forked_float_ehrenfest_sweep_solves_and_integrates_nothing_in_the_caller(
        monkeypatch, workers):
    _sweep_runs_nothing_in_the_caller(monkeypatch, workers, "two_level_gap", "ehrenfest", {})


@pytest.mark.parametrize("family, scheme, options", [
    pytest.param("two_level_gap", "bo", {}, id="gap-bo"),
    pytest.param("two_level_cross", "bo", {"energy_window": 0.7}, id="cross-bo-window"),
    # more than 16 lanes a mass from M = 1024 on: lockstep Ehrenfest lanes
    pytest.param("two_level_cross", "ehrenfest", {"energy_window": 0.7},
                 id="cross-ehrenfest-window")])
def test_every_forked_sweep_solves_and_integrates_nothing_in_the_caller(
        monkeypatch, workers, family, scheme, options):
    rec = _sweep_runs_nothing_in_the_caller(monkeypatch, workers, family, scheme, options)
    if scheme == "ehrenfest":
        assert rec.per_M[-1]["k_spread"] > dynamics._FLOAT_LANES


@pytest.mark.parametrize("scheme, bad", [
    ("ehrenfest", {1: "norm"}), ("ehrenfest", {1: "norm", 2: "caustic"}),
    ("ehrenfest", {1: "caustic", 2: "norm"}), ("ehrenfest", {0: "norm"}),
    ("bo", {1: "caustic", 2: "caustic"})])
def test_forked_sweep_raises_the_lowest_failing_mass_error(monkeypatch, workers, scheme, bad):
    # the serial run raises the lowest failing mass's error, and so does a
    # forked one, whichever process runs which mass; a failing sweep fills
    # no cache entry
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    masses = [64.0, 256.0, 1024.0]
    kinds = {masses[i]: kind for i, kind in bad.items()}
    solve, launch = lab._matched_eigenstates, lab._launch

    def matched(model, M, e_ref, loop_mu, *args, **kwargs):
        quantum = solve(model, M, e_ref, loop_mu, *args, **kwargs)
        if kinds.get(M) == "caustic":
            # a matched energy at the top of the loop's levels
            quantum["states"][0]["E_q"] = float(np.max(loop_mu))
        return quantum

    def launched(model, scheme, E, M, *args, **kwargs):
        init, dt = launch(model, scheme, E, M, *args, **kwargs)
        if kinds.get(M) == "norm":
            init = type(init).make(init.X, init.p, phi=1.01 * init.phi)
        return init, dt

    monkeypatch.setattr(lab, "_matched_eigenstates", matched)
    monkeypatch.setattr(lab, "_launch", launched)
    errors = []
    for cpus in (1, 2):
        forks = workers(cpus)
        cache = {}
        with pytest.raises((ValueError, lab.CausticError)) as caught:
            lab.converge(m, scheme, masses, n_loops=1, cache=cache)
        assert bool(forks) == (cpus == 2)
        assert cache == {}
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    with pytest.raises((ValueError, lab.CausticError)) as alone:
        lab.converge(m, scheme, [masses[min(bad)]], n_loops=1)
    assert errors[1] == (type(alone.value), str(alone.value))


def _match_over_every_pair(model, M, e_ref, loop_mu, floor_lam, observables, count,
                           k_spread, doublet_average, n_grid_cap, index_offset):
    """The match of ``lab._matched_eigenstates`` over every pair of
    ``qref.eigensolve_near``, and the energies of the candidates."""
    L = model.L
    k0 = wkb.quantization_index(loop_mu, L, e_ref, M, index_offset=index_offset)
    k_list = [k0 + j for j in range(k_spread)]
    E_list = [wkb.quantized_energy_from_profiles(loop_mu, L, k, M, index_offset=index_offset)
              for k in k_list]
    e_kin = max(E_list) - floor_lam
    n_grid = 1 << int(np.ceil(np.log2(qref.required_grid(L, e_kin, M))))
    if n_grid_cap is not None:
        n_grid = min(n_grid, n_grid_cap)
    H = qref.assemble_hamiltonian(model, M, n_grid, e_max=None if n_grid_cap else e_kin)
    pairs = qref.eigensolve_near(H, 0.5 * (min(E_list) + max(E_list)),
                                 count=count + 6 * (k_spread - 1))
    branch = espec.smooth_branches(model, H.grid)
    states, candidates = [], set()
    for k, E_bs in zip(k_list, E_list):
        spacing = wkb.level_spacing(loop_mu, L, E_bs, M)
        with np.errstate(invalid="ignore"):
            rho_cl = np.sum(1.0 / np.sqrt(np.maximum(
                2.0 * (E_bs - branch.mu[:, branch.cycle_of(0)]), 1e-12)), axis=1)
        cand = [p for p in pairs if abs(p.E - E_bs) <= 0.6 * spacing]
        if not cand:
            cand = sorted(pairs, key=lambda p: abs(p.E - E_bs))[:2]
        candidates.update(p.E for p in cand)
        sims = [lab._lowpass_similarity(p.density, rho_cl) for p in cand]
        best = int(np.argmax(sims))
        cluster = [cand[best]] + [
            p for j, p in enumerate(cand)
            if doublet_average and j != best and sims[j] >= 0.995 * sims[best]
            and abs(p.E - cand[best].E) < 0.05 * spacing]
        states.append({"k": int(k), "E_bs": float(E_bs),
                       "E_q": float(np.mean([p.E for p in cluster])),
                       "n_cluster": len(cluster), "similarity": float(sims[best]),
                       "quantum": {name: float(np.mean([qref.observable(p.density, g, H.grid)
                                                        for p in cluster]))
                                   for name, g in observables.items()}})
    return ({"k": int(k0), "E_bs": float(E_list[0]), "n_grid": int(n_grid),
             "states": states}, candidates)


@pytest.mark.parametrize("family, M, options, cluster_tol", [
    ("two_level_gap", 256.0, {"k_spread": 2}, None),
    ("two_level_cross", 256.0, {"energy_window": 0.7}, None),
    # clusters wide enough that a candidate's holds a level that is none
    ("two_level_gap", 256.0, {}, 2e-3)])
def test_matching_on_candidate_vectors_equals_matching_on_every_pair(
        monkeypatch, family, M, options, cluster_tol):
    m = build_model(ModelSpec(family=family, params={"delta": 0.25} if family ==
                              "two_level_gap" else {}, d=2))
    if cluster_tol is not None:
        monkeypatch.setattr(qref, "_CLUSTER_TOL", cluster_tol)
    # the arguments converge passes
    branch = espec.loop_branches(m)
    cycle = branch.cycle_of(0)
    loop_mu = branch.mu[:, cycle].T
    floor_lam = float(branch.mu.min())
    e_ref = float(loop_mu.max()) + 0.5 * max(1.0, float(loop_mu.max()) - floor_lam)
    count, k_spread = 16, options.get("k_spread", 1)
    if "energy_window" in options:
        k_spread = int(np.clip(round(options["energy_window"] / wkb.level_spacing(
            loop_mu, m.L, e_ref, M)), 4, 40))
        k_spread += k_spread % 2
        count = k_spread + 12
    args = (m, M, e_ref, loop_mu, floor_lam, lab.default_observables(m.L), count,
            k_spread, True, None)
    offset = 0.25 * branch.crossing_passes(cycle)
    clusters = []
    solve = qref._cluster_vectors

    def recorded(band, energies, scale):
        clusters.append(set(energies.tolist()))
        return solve(band, energies, scale)

    monkeypatch.setattr(qref, "_cluster_vectors", recorded)
    matched = lab._matched_eigenstates(*args, index_offset=offset)
    solved = clusters[:]
    expected, candidates = _match_over_every_pair(*args, index_offset=offset)
    assert matched == expected
    # vectors only for the clusters that hold a candidate
    assert all(cluster & candidates for cluster in solved)
    assert len(solved) < len(clusters) - len(solved)
    if cluster_tol is not None:
        assert any(cluster - candidates for cluster in solved)
