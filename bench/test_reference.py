"""Tests of the benchmark's reference helpers and of its output checks.

Each helper must reproduce a closed form (or an independent quadrature),
and each check must fail on a deliberately wrong record.

    python3 -m pytest bench
"""

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import iv

import reference as ref
import workloads


# ---------------------------------------------------------------- helpers

@pytest.mark.parametrize("L, M, k", [(2 * np.pi, 1024.0, 7), (3.0, 64.0, 1), (1.0, 4096.0, 40)])
def test_free_particle_levels(L, M, k):
    loop = ref.Loop([lambda x: 0.0 * x], L=L)
    E = loop.bs_energy(k, M)
    assert E == pytest.approx((2 * np.pi * k) ** 2 / (2 * M * L ** 2), rel=1e-12)
    # dE/dk of the free levels: (2 pi)^2 k / (M L^2)
    assert loop.spacing(E, M) == pytest.approx((2 * np.pi) ** 2 * k / (M * L ** 2), rel=1e-12)


def test_crossing_loop_action_matches_quarter_indices():
    loop = ref.crossing_loop()
    M, k = 256.0, 89
    E = loop.bs_energy(k, M)
    assert np.sqrt(M) * loop.action(E) == pytest.approx(2 * np.pi * (k + 0.5), rel=1e-13)
    # the action of the crossing loop, by an independent adaptive quadrature
    direct = sum(quad(lambda x, s=s: np.sqrt(2 * (E - 2 * s * np.sin(x / 2))), 0, 2 * np.pi,
                      epsabs=1e-13, epsrel=1e-13)[0] for s in (1, -1))
    assert loop.action(E) == pytest.approx(direct, rel=1e-12)


def test_period_is_action_derivative():
    loop = ref.gap_loop(0.25)
    E, h = 0.4, 1e-5
    fd = (loop.action(E + h) - loop.action(E - h)) / (2 * h)
    assert loop.period(E) == pytest.approx(fd, rel=1e-8)


def test_microcanonical_average():
    flat = ref.Loop([lambda x: 0.0 * x])
    assert abs(flat.average(np.cos, 1.0)) < 1e-14
    assert flat.average(lambda x: np.cos(x) ** 2, 1.0) == pytest.approx(0.5, rel=1e-13)
    loop, E = ref.crossing_loop(), 4.0

    def density(x):
        return sum(1 / np.sqrt(2 * (E - s * 2 * np.sin(x / 2))) for s in (1, -1))

    num = quad(lambda x: np.cos(x) * density(x), 0, 2 * np.pi, epsabs=1e-13)[0]
    den = quad(density, 0, 2 * np.pi, epsabs=1e-13)[0]
    assert loop.average(np.cos, E) == pytest.approx(num / den, rel=1e-10)


def test_gibbs_average_is_bessel_ratio():
    a, T = 0.1, 0.08
    value = ref.periodic_mean(lambda x: np.exp(-a * np.cos(x) / T), np.cos)
    assert value == pytest.approx(-iv(1, a / T) / iv(0, a / T), rel=1e-13)


def test_sphere_partition_closed_forms():
    a = 3.0
    assert ref.sphere_partition([a]) == pytest.approx((1 - np.exp(-a)) / a, rel=1e-13)
    a1, a2 = 2.0, 5.0
    direct = dblquad(lambda t2, t1: np.exp(-a1 * t1 - a2 * t2), 0, 1, 0, lambda t1: 1 - t1)[0]
    assert ref.sphere_partition([a1, a2]) == pytest.approx(direct, rel=1e-10)


def test_em_stationary_mean():
    a, T = 0.1, 0.08

    def force(x):
        return a * np.sin(x)

    assert abs(ref.em_stationary_mean(lambda x: 0.0 * x, np.cos, T, 0.1)) < 1e-12
    exact = -iv(1, a / T) / iv(0, a / T)
    bias = [ref.em_stationary_mean(force, np.cos, T, dt, n=1024) - exact
            for dt in (0.1, 0.05, 0.025)]
    # first order in dt
    assert bias[0] / bias[1] == pytest.approx(2.0, abs=0.1)
    assert bias[1] / bias[2] == pytest.approx(2.0, abs=0.05)


def test_log_r_trapezoid_converges_to_quadrature():
    eq = ref.MultiLevelEquilibrium(0.1, [[0.8, 0.12], [1.6, 0.16]], 0.08)
    exact = ref.periodic_mean(eq.weight_corrected, np.cos)
    errs = [eq.trapezoid_log_r_mean(np.cos, n) - exact for n in (65, 129, 257)]
    assert abs(errs[2]) < 1e-5
    # second order in the grid step
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    # the low-temperature weight 1/prod gap and the exact sphere weight agree
    # up to e^(-min gap / T)
    sphere = ref.periodic_mean(eq.weight_sphere, np.cos)
    assert abs(sphere - exact) < 10 * np.exp(-(0.8 - 0.12) / 0.08)


def test_block_mean():
    t = np.linspace(0.0, 10.0, 1601)
    assert ref.block_mean(t, np.full(t.size, 0.25)) == pytest.approx((0.25, 0.0), abs=1e-15)
    mean, _ = ref.block_mean(t, t)
    assert mean == pytest.approx(5.0, rel=1e-14)
    # independent N(0, 1) samples: the block error is 1/sqrt(samples)
    rng = np.random.default_rng(7)
    errs = [ref.block_mean(t, rng.standard_normal(t.size))[1] for _ in range(400)]
    assert np.mean(errs) == pytest.approx(1 / np.sqrt(t.size), rel=0.05)


# ---------------------------------------------------------------- checks

def synthetic_sweep(loop, masses, observables, offset_loop=None, obs_error=1.0):
    """A record that passes: E_q on the BS ladder, observables O(1/M) off."""
    cells = []
    for M in masses:
        k = int(round(np.sqrt(M) * loop.action(loop.barrier + 0.3) / (2 * np.pi)))
        E_q = (offset_loop or loop).bs_energy(k, M)
        E_q += 0.01 * loop.spacing(E_q, M)
        obs = {n: loop.average(g, E_q) + obs_error / M for n, g in observables.items()}
        cells.append({"M": M, "k": k, "E_q": E_q, "caustics": [], "error": 1.0 / M,
                      "quantum": dict(obs), "classical": dict(obs)})
    return cells


GAP_OBS = {"cos2": lambda x: np.cos(2 * x), "cos4": lambda x: np.cos(4 * x)}


def gap_check(cells, alpha=1.0):
    return ref.check_sweep(cells, alpha, ref.gap_loop(0.25), (0.7, 1.3),
                           workloads.GAP_EQ_TOLERANCE, GAP_OBS, workloads.GAP_OBS_CONSTANT)


def test_sweep_check_passes_a_consistent_record():
    assert gap_check(synthetic_sweep(ref.gap_loop(0.25), workloads.GAP_MASSES, GAP_OBS)) == []


@pytest.mark.parametrize("corrupt", ["caustic", "energy", "rising", "alpha", "observable",
                                     "swapped"])
def test_sweep_check_fails_a_wrong_record(corrupt):
    loop = ref.gap_loop(0.25)
    cells = synthetic_sweep(loop, workloads.GAP_MASSES, GAP_OBS)
    alpha = 1.0
    last = cells[-1]
    if corrupt == "caustic":
        last["caustics"] = [1.5]
    elif corrupt == "energy":
        last["E_q"] += 0.5 * loop.spacing(last["E_q"], last["M"])
    elif corrupt == "rising":
        last["error"] = 1.0
    elif corrupt == "alpha":
        alpha = 0.5
    elif corrupt == "observable":
        last["quantum"]["cos2"] += 5.0 / last["M"]
    else:
        c = last["classical"]
        c["cos2"], c["cos4"] = c["cos4"], c["cos2"]
    assert gap_check(cells, alpha)


def test_crossing_check_needs_the_connection_phase():
    loop = ref.crossing_loop()
    args = ((0.3, 0.7), workloads.CROSS_EQ_TOLERANCE)
    good = synthetic_sweep(loop, workloads.CROSS_MASSES, {})
    assert ref.check_sweep(good, 0.5, loop, *args) == []
    no_phase = synthetic_sweep(loop, workloads.CROSS_MASSES, {},
                               offset_loop=ref.Loop(loop.branches, offset=0.0))
    assert ref.check_sweep(no_phase, 0.5, loop, *args)


@pytest.fixture(scope="module")
def equilibrium():
    return workloads.Equilibrium(seed=0)


def synthetic_round(wl):
    """One round's record that passes: closed-form Gibbs values and potential,
    and segments whose recorded time averages are their trapezoid means."""
    r = wl.references()
    grid = np.arange(129) * (2 * np.pi / 129)
    t = 400.0 + 0.4 * np.arange(1001)
    x = 0.01 * np.arange(1001)
    average = ref.block_mean(t, np.cos(x))[0]
    return {"gibbs": (r["corrected"], r["plain"], 5e-5),
            "corrected_grid": grid, "corrected_values": r["eq"].corrected(grid),
            "segments": {key: (t, x, average) for key, *_ in wl.RUNS}}


def synthetic_means(wl):
    r = wl.references()
    return ({"smoluchowski": (r["plain"] + 0.02, 0.03),
             "smoluchowski_corrected": (r["corrected"] - 0.02, 0.03),
             "langevin": (r["plain"], 0.03)},
            (r["corrected"] - r["plain"] + 0.01, 0.015))


def test_equilibrium_checks_pass_a_consistent_record(equilibrium):
    assert equilibrium.check(synthetic_round(equilibrium)) == []
    assert equilibrium.check_means(*synthetic_means(equilibrium)) == []


@pytest.mark.parametrize("corrupt", ["plain", "marginal", "half_trace", "time_average"])
def test_equilibrium_round_check_fails_a_wrong_record(equilibrium, corrupt):
    out = synthetic_round(equilibrium)
    r = equilibrium.references()
    value, plain, sigma = out["gibbs"]
    if corrupt == "plain":
        out["gibbs"] = (value, plain + 1e-3, sigma)
    elif corrupt == "marginal":
        out["gibbs"] = (plain, plain, sigma)
    elif corrupt == "half_trace":
        out["corrected_values"] = r["eq"].corrected(out["corrected_grid"], coefficient=0.5)
    else:
        t, x, average = out["segments"]["langevin"]
        out["segments"]["langevin"] = (t, x, average + 1e-6)
    assert equilibrium.check(out)


@pytest.mark.parametrize("corrupt", ["sign", "corrected_run", "ignored_force"])
def test_equilibrium_mean_check_fails_a_wrong_record(equilibrium, corrupt):
    means, paired = synthetic_means(equilibrium)
    r = equilibrium.references()
    if corrupt == "sign":
        means["langevin"] = (-r["plain"], 0.03)
    elif corrupt == "corrected_run":
        means["smoluchowski_corrected"] = (r["corrected"] + 0.3, 0.03)
    else:
        # a run that ignores the corrected force repeats the plain run exactly
        means["smoluchowski_corrected"] = means["smoluchowski"]
        paired = (0.0, 0.0)
    assert equilibrium.check_means(means, paired)


def chained_rounds(wl, targets, n_rounds, scatter=0.01):
    """Round records whose time averages scatter about each target; round 0,
    the burn-in, is far off."""
    rng = np.random.default_rng(3)
    outputs = []
    for i in range(n_rounds):
        outputs.append({"segments": {
            key: (None, None, (targets[key] + scatter * rng.standard_normal()) if i else 5.0)
            for key, *_ in wl.RUNS}})
    return outputs


def test_run_check_averages_the_rounds_after_the_first(equilibrium):
    r = equilibrium.references()
    targets = {"smoluchowski": r["plain"], "smoluchowski_corrected": r["corrected"],
               "langevin": r["plain"]}
    n = workloads.EQ_MIN_ROUNDS
    assert equilibrium.check_run(chained_rounds(equilibrium, targets, n)) == []
    # a corrected chain that ignores the corrected force sits on the plain one
    targets["smoluchowski_corrected"] = targets["smoluchowski"]
    assert equilibrium.check_run(chained_rounds(equilibrium, targets, n))
    # too few rounds to estimate the scatter: the checks are left out
    assert equilibrium.check_run(chained_rounds(equilibrium, targets, n - 1)) == []
