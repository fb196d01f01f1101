import numpy as np
import pytest

from qcmd import ModelSpec, build_model, lab


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


@pytest.mark.parametrize("masses, message", [
    ([], "M_list must hold at least one mass"),
    ([float("nan"), 1024.0], "mass M must be finite and >= 1, got nan"),
    ([64.0, float("inf")], "mass M must be finite and >= 1, got inf"),
    ([64.0, 0.5], "mass M must be finite and >= 1, got 0.5")])
def test_converge_rejects_bad_mass_lists_before_any_solve(monkeypatch, masses, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a reference was solved")

    monkeypatch.setattr(lab, "_matched_eigenstates", no_solve)
    with pytest.raises(ValueError, match=message):
        lab.converge(build_model(ModelSpec(family="free")), "bo", masses)


@pytest.mark.parametrize("family, scheme, options", [
    ("two_level_gap", "ehrenfest", {"k_spread": 2}),
    ("two_level_cross", "ehrenfest", {"energy_window": 0.7}),
    ("two_level_cross", "bo", {"energy_window": 0.7})])
def test_forked_sweep_equals_one_worker_bitwise(workers, family, scheme, options):
    params = {"delta": 0.25} if family == "two_level_gap" else {}
    m = build_model(ModelSpec(family=family, params=params, d=2))
    # one observables object: cache keys hold the functions
    options = dict(options, observables=lab.default_observables(m.L))
    records, caches = [], []
    for cpus in (1, 2):
        forks = workers(cpus)
        cache = {}
        # a duplicated mass is solved once
        rec = lab.converge(m, scheme, [64.0, 256.0, 64.0], n_loops=1, cache=cache, **options)
        assert len(cache) == 2
        assert bool(forks) == (cpus == 2)
        # a reused cache solves nothing
        again = lab.converge(m, scheme, [256.0, 64.0], n_loops=1, cache=cache, **options)
        assert len(cache) == 2
        records.append((rec.comparable(), again.comparable()))
        caches.append(cache)
    assert records[0] == records[1]
    assert caches[0] == caches[1]
