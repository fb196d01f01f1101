"""The benchmark workloads: what one round runs and how its outputs are checked.

A round is the unit the benchmark times; it repeats the same operations in
every round, so the share of failed operations does not depend on the
seed or the run length.  ``check`` checks one round's outputs and
``check_run`` the outputs of all the rounds of a run together.

- ``bo-crossing-sweep``: the criterion-3 pipeline (Born-Oppenheimer through
  a level crossing, microcanonical energy window) at M = 64, 256, 1024.
  Integrator-bound: the window holds more states as M grows and each state
  runs its own branch-following Verlet trajectory.
- ``ehrenfest-gap-sweep``: the criterion-2 pipeline (Ehrenfest on the
  gapped two-level model) at M = 1024, 2048, 4096.  Reference-solver-bound:
  one trajectory per mass, but a dense (2 n_grid)^2 collocation matrix.
- ``stochastic-equilibrium``: the criterion-11 model at T = 0.08; the
  Gibbs observable, the corrected potential, and plain and corrected
  Smoluchowski and plain Langevin chains, 4000 steps each a round.  Never
  touches qref or lab.
"""

import numpy as np

from qcmd import ModelSpec, build_model, dynamics, espec, gibbs, lab
from qcmd._util import periodic_grid, stream_rng

import reference as ref

CROSS_MASSES = (64.0, 256.0, 1024.0)
GAP_MASSES = (1024.0, 2048.0, 4096.0)
GAP_DELTA = 0.25
# |E_q - E_BS| in loop-level spacings: measured 0.08 at most on the crossing
# loop and 0.02 on the gapped one; a missing quarter index moves it by 0.25.
CROSS_EQ_TOLERANCE = 0.25
GAP_EQ_TOLERANCE = 0.1
# |observable - 1/p quadrature| * M on the gapped sweep: measured 1.4 at most.
GAP_OBS_CONSTANT = 3.0

EQ_PARAMS = {"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3}
EQ_T = 0.08
EQ_K = 1.0
EQ_DT = 0.1
# steps each chain advances per round; a run chains its rounds
EQ_STEPS = 4_000
EQ_RECORD_EVERY = 4
# rounds a run needs for the checks of its chains (the first is burn-in)
EQ_MIN_ROUNDS = 8
EQ_GIBBS_GRID = 65
EQ_GIBBS_SAMPLES = 20_000
EQ_BASIS_GRID = 129
# Allowed distance of a chain's time average (or of the shared-noise
# difference of the two Smoluchowski chains) from its reference, in units of
# the standard error from the scatter of its rounds.
EQ_SIGMA_MULTIPLE = 6.0
GIBBS_SIGMA_MULTIPLE = 5.0


class MassSweep:
    """One ``lab.converge`` call per round; each mass cell is one operation.

    The sweep has no random input: the seed only reaches ``converge(seed=)``,
    so every seed times the same work.
    """

    def __init__(self, model, scheme, masses, observables, options, loop,
                 alpha_band, eq_tolerance, obs_constant, seed):
        self.model = model
        self.scheme = scheme
        self.masses = list(masses)
        self.observables = observables
        self.options = options
        self.loop = loop
        self.alpha_band = alpha_band
        self.eq_tolerance = eq_tolerance
        self.obs_constant = obs_constant
        self.seed = seed
        self.ops_per_round = len(masses)

    def run(self, round_index):
        return lab.converge(self.model, self.scheme, self.masses,
                            observables=self.observables, seed=self.seed,
                            **self.options)

    def check(self, record):
        return ref.check_sweep(record.per_M, record.alpha, self.loop, self.alpha_band,
                               self.eq_tolerance,
                               self.observables if self.obs_constant else None,
                               self.obs_constant)

    def check_run(self, records):
        return []

    def summary(self, record):
        return {"alpha": record.alpha, "alpha_stderr": record.alpha_stderr,
                "cells": [{key: e[key] for key in ("M", "k", "k_spread", "n_grid",
                                                   "E_q", "error")}
                          for e in record.per_M]}


def bo_crossing_sweep(seed):
    model = build_model(ModelSpec(family="two_level_cross", d=2))
    # one full period per state: the Born-Oppenheimer loop is periodic, so
    # more loops repeat the same average (8 loops move the errors by 1e-11)
    return MassSweep(model, "bo", CROSS_MASSES,
                     {"cos": np.cos, "cos2": lambda x: np.cos(2.0 * x)},
                     {"energy_window": 0.7, "n_loops": 1}, ref.crossing_loop(),
                     (0.3, 0.7), CROSS_EQ_TOLERANCE, None, seed)


def ehrenfest_gap_sweep(seed):
    model = build_model(ModelSpec(family="two_level_gap", params={"delta": GAP_DELTA}, d=2))
    return MassSweep(model, "ehrenfest", GAP_MASSES,
                     {"cos2": lambda x: np.cos(2.0 * x), "cos4": lambda x: np.cos(4.0 * x)},
                     {"k_spread": 1}, ref.gap_loop(GAP_DELTA),
                     (0.7, 1.3), GAP_EQ_TOLERANCE, GAP_OBS_CONSTANT, seed)


class Equilibrium:
    """Gibbs quadrature, corrected potential and three stochastic chains.

    Five operations a round: ``gibbs_observable``, ``corrected_potential``
    and EQ_STEPS more steps of each of three chains (plain and corrected
    Smoluchowski, plain Langevin).  A chain starts at X = L/3 and each round
    continues it from where the previous round left it, so the rounds of a
    run make one long chain per scheme, which ``check_run`` checks.  Every
    random stream is keyed by the workload seed and the round index, so a
    seed fixes all the inputs of a run.  The plain and corrected Smoluchowski
    chains share one stream, so the noise cancels from their difference and
    the corrected force shows in it.
    """

    ops_per_round = 5
    # (key, scheme, corrected force, stream index)
    RUNS = (("smoluchowski", "smoluchowski", False, 2),
            ("smoluchowski_corrected", "smoluchowski", True, 2),
            ("langevin", "langevin", False, 3))

    def __init__(self, seed):
        self.model = build_model(ModelSpec(family="multi_level", d=3, params=EQ_PARAMS,
                                           T=EQ_T, K=EQ_K))
        self.seed = seed
        self._references = None
        start = dynamics.PhaseState.make(self.model.L / 3.0, 0.0)
        self.states = {key: start for key, *_ in self.RUNS}

    @staticmethod
    def g(x):
        return np.cos(x)

    def run(self, round_index):
        m = self.model
        base = 10 * round_index
        report = gibbs.gibbs_observable(m, self.g, EQ_T, n_grid=EQ_GIBBS_GRID,
                                        n_samples=EQ_GIBBS_SAMPLES,
                                        rng=stream_rng(self.seed, base + 1))
        basis = espec.eigendecompose_field(m, periodic_grid(m.L, EQ_BASIS_GRID))
        corr = gibbs.corrected_potential(basis, EQ_T, trace_coefficient=1.0)
        segments = {}
        for key, scheme, corrected, stream in self.RUNS:
            traj = dynamics.simulate(m, self.states[key], scheme, T_final=EQ_STEPS * EQ_DT,
                                     dt=EQ_DT, rng=stream_rng(self.seed, base + stream),
                                     T=EQ_T, K=EQ_K, force=corr.force if corrected else None,
                                     record_every=EQ_RECORD_EVERY)
            self.states[key] = traj.state(-1)
            segments[key] = (traj.t, traj.X[:, 0].copy(),
                             dynamics.time_average(traj, self.g)[0])
        return {"gibbs": (report.value, report.value_plain, report.sigma),
                "corrected_grid": corr.grid, "corrected_values": corr.values,
                "segments": segments}

    def references(self):
        """Closed-form quadratures and step biases, computed once per process."""
        if self._references is None:
            eq = ref.MultiLevelEquilibrium(EQ_PARAMS["a0"], EQ_PARAMS["gaps"], EQ_T)
            plain = ref.periodic_mean(eq.weight_plain, self.g)
            corrected = ref.periodic_mean(eq.weight_corrected, self.g)
            em_plain = ref.em_stationary_mean(eq.force_plain, self.g, EQ_T, EQ_DT) - plain
            em_corr = ref.em_stationary_mean(eq.force_corrected, self.g, EQ_T, EQ_DT) - corrected
            self._references = {
                "eq": eq, "plain": plain, "corrected": corrected,
                "bias": {"smoluchowski": em_plain, "smoluchowski_corrected": em_corr,
                         # BAOAB is second order in configuration (exact for a
                         # quadratic level): its bias is below the first-order
                         # Euler-Maruyama one at the same step
                         "langevin": em_plain},
                "gibbs_bias": (abs(eq.trapezoid_log_r_mean(self.g, EQ_GIBBS_GRID) - corrected)
                               + abs(ref.periodic_mean(eq.weight_sphere, self.g) - corrected)),
            }
        return self._references

    def check(self, out):
        """Checks of one round: the Gibbs values, the corrected potential and
        each segment's time average against the benchmark's own trapezoid."""
        r = self.references()
        value, value_plain, sigma = out["gibbs"]
        failures = ref.within("gibbs value_plain", value_plain, r["plain"], 0.0, 0.0, 1e-9)
        failures += ref.within("gibbs value", value, r["corrected"], sigma,
                               GIBBS_SIGMA_MULTIPLE, r["gibbs_bias"])
        expected = r["eq"].corrected(out["corrected_grid"])
        dev = float(np.max(np.abs(out["corrected_values"] - expected)))
        if not dev <= 1e-10:
            failures.append(f"corrected potential is {dev:.2e} from the closed form")
        for key, (t, x, average) in out["segments"].items():
            failures += ref.within(f"{key} segment time_average", average,
                                   ref.block_mean(t, self.g(x))[0], 0.0, 0.0, 1e-9)
        return failures

    def check_run(self, outputs):
        """Checks of the chains' time averages over the whole run.

        The first round is burn-in.  Every later round's time average (from
        ``dynamics.time_average``, which ``check`` verifies) is one sample:
        a round spans 400 time units, far longer than the chains' memory, so
        the samples are nearly independent and their scatter gives the
        standard error of their mean.  A run of fewer than EQ_MIN_ROUNDS
        rounds has too few samples for that, and these checks are left out.
        """
        if len(outputs) < EQ_MIN_ROUNDS:
            return []
        averages = {key: np.array([out["segments"][key][2] for out in outputs[1:]])
                    for key, *_ in self.RUNS}

        def mean_and_error(samples):
            return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(samples.size))

        means = {key: mean_and_error(a) for key, a in averages.items()}
        paired = mean_and_error(averages["smoluchowski_corrected"] - averages["smoluchowski"])
        return self.check_means(means, paired)

    def check_means(self, means, paired):
        """Each chain's time average against its quadrature, and the shared-noise
        difference of the two Smoluchowski chains against theirs."""
        r = self.references()
        failures = []
        for key, (mean, stderr) in means.items():
            target = r["corrected"] if key.endswith("corrected") else r["plain"]
            failures += ref.within(f"{key} time average", mean, target, stderr,
                                   EQ_SIGMA_MULTIPLE, r["bias"][key])
        diff, diff_stderr = paired
        failures += ref.within("corrected - plain Smoluchowski (shared noise)", diff,
                               r["corrected"] - r["plain"], diff_stderr, EQ_SIGMA_MULTIPLE,
                               r["bias"]["smoluchowski_corrected"] - r["bias"]["smoluchowski"])
        return failures

    def summary(self, out):
        return {"gibbs_value": out["gibbs"][0], "gibbs_plain": out["gibbs"][1],
                "time_averages": {k: seg[2] for k, seg in out["segments"].items()}}


WORKLOADS = {
    "bo-crossing-sweep": bo_crossing_sweep,
    "ehrenfest-gap-sweep": ehrenfest_gap_sweep,
    "stochastic-equilibrium": Equilibrium,
}
