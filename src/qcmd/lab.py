"""Experiment orchestration: convergence harness, rate fitting, run records.

The convergence harness matches a quantized classical energy to the nearest
exact eigenvalue at each mass, compares quantum and trajectory observables,
and fits the decay exponent of the error on a log-log scale.  It reads the
one loop rule (``espec.BranchField.ground_loop`` on ``espec.loop_branches``
for the quantization, on the reference grid for the classical density) and
launches with the one launch rule, ``wkb.launch_state``, as ``wkb`` does.
Run records hold everything needed for a bit-identical replay.
"""

import json
import time
from dataclasses import MISSING, dataclass, field, asdict

import numpy as np

from . import dynamics, espec, qref, wkb
from . import model as model_mod
from ._util import fork_map
from .errors import CausticError

__all__ = [
    "RunRecord",
    "default_observables",
    "fit_rate",
    "converge",
    "replay",
    "symplectic_perturbation_study",
]


def default_observables(L):
    """The three position observables of the error metric."""
    w = 2.0 * np.pi / L

    def half_indicator(x):
        # smoothed indicator of the half torus, C-infinity periodic
        return 0.5 * (1.0 + np.tanh(3.0 * np.sin(w * x)))

    return {
        "cos": lambda x: np.cos(w * x),
        "sin": lambda x: np.sin(w * x),
        "half": half_indicator,
    }


def fit_rate(points, weights=None):
    """Least squares of log(error) against log(M); alpha is the negated slope.

    Returns (alpha, stderr, intercept).
    """
    points = [(float(m), float(e)) for m, e in points]
    if len(points) < 3:
        raise ValueError("rate fitting needs at least 3 points")
    if any(e <= 0.0 for _, e in points):
        raise ValueError("errors must be positive on a log scale")
    x = np.log([m for m, _ in points])
    y = np.log([e for _, e in points])
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    W = np.diag(w)
    A = np.column_stack([x, np.ones_like(x)])
    cov = np.linalg.inv(A.T @ W @ A)
    slope, intercept = cov @ (A.T @ W @ y)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    s2 = float(resid @ (w * resid)) / dof
    stderr = float(np.sqrt(s2 * cov[0, 0]))
    return float(-slope), stderr, float(intercept)


@dataclass
class RunRecord:
    """Everything needed to reproduce a convergence run bit-for-bit."""

    config: str                  # ModelSpec JSON snapshot
    scheme: str
    master_seed: int
    M_list: list
    e_ref: float
    n_loops: int
    dt_rule: str
    per_M: list                  # one dict per mass
    alpha: float = None
    alpha_stderr: float = None
    intercept: float = None
    floor_limited: bool = False
    pre_asymptotic: bool = False
    observable_names: list = field(default_factory=list)
    wall_times: dict = field(default_factory=dict)
    version: str = "qcmd-0.6.0"
    # the remaining converge options, so that replay runs what the record ran
    count: int = 16
    k_spread: int = 1
    energy_window: float = None
    doublet_average: bool = True
    n_grid_cap: int = None
    perp_correction: bool = False

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a run record is a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown run record key(s) {unknown}")
        missing = sorted(n for n, f in cls.__dataclass_fields__.items()
                         if n not in data and f.default is MISSING
                         and f.default_factory is MISSING)
        if missing:
            raise ValueError(f"run record lacks {missing}")
        return cls(**data)

    def comparable(self):
        """The replay-stable payload (wall times excluded)."""
        data = asdict(self)
        data.pop("wall_times")
        return data


def _loop_observables(traj, observables, n_hits, cycle_len=1):
    """Averages over the first n_hits returns, and their scatter over full periods.

    One full period is ``cycle_len`` returns to the launch surface (a loop
    through a crossing closes only after visiting every branch of its cycle).
    """
    out, scatter = {}, {}
    for name, g in observables.items():
        # loop_average and per_loop_averages, from one evaluation of g
        out[name], per_circuit, taus = dynamics._loop_averages(traj, g, n_hits)
        circuit_dur = np.diff(taus)
        # aggregate circuits into full periods, duration-weighted
        periods = []
        for j in range(len(per_circuit) // cycle_len):
            sl = slice(j * cycle_len, (j + 1) * cycle_len)
            periods.append(np.average(per_circuit[sl], weights=circuit_dur[sl]))
        scatter[name] = float(np.std(periods, ddof=1) / np.sqrt(len(periods))
                              if len(periods) > 1 else 0.0)
    return out, scatter


def _lowpass_similarity(rho_a, rho_b, n_modes=8):
    """Cosine similarity of densities after dropping fast Fourier modes.

    Standing-wave densities oscillate at the fast scale; the slow envelope is
    what identifies the underlying loop.
    """
    fa = np.fft.rfft(rho_a)[:n_modes + 1]
    fb = np.fft.rfft(rho_b)[:n_modes + 1]
    num = float(np.real(np.vdot(fa, fb)))
    return num / (np.linalg.norm(fa) * np.linalg.norm(fb))


def _matched_eigenstates(model, M, e_ref, loop_mu, floor_lam, observables,
                         count, k_spread, doublet_average, n_grid_cap,
                         index_offset=0.0):
    """Solve once near the energy window and match k_spread quantized states.

    Candidates for each quantization index must lie within half a loop-level
    spacing of the semiclassical energy and are ranked by the low-pass
    similarity of their density to the loop density sum over branches of 1/p;
    interleaved states of other character (trapped wells, other loops) are
    thereby excluded.  Near-degenerate partners of the winner are averaged.
    The candidates are picked from the window's eigenvalues
    (``qref.eigenvalues_near``), and only they get vectors
    (``qref.eigenpairs``); a vector does not depend on which other levels
    get one, so the match is that over every pair of the window.
    """
    L = model.L
    k0 = wkb.quantization_index(loop_mu, L, e_ref, M, index_offset=index_offset)
    k_list = [k0 + j for j in range(k_spread)]
    E_list = [wkb.quantized_energy_from_profiles(loop_mu, L, k, M,
                                                 index_offset=index_offset)
              for k in k_list]
    e_kin = max(E_list) - floor_lam
    n_need = qref.required_grid(L, e_kin, M)
    n_grid = 1 << int(np.ceil(np.log2(n_need)))
    if n_grid_cap is not None:
        n_grid = min(n_grid, n_grid_cap)
    H = qref.assemble_hamiltonian(model, M, n_grid,
                                  e_max=None if n_grid_cap else e_kin)
    E_mid = 0.5 * (min(E_list) + max(E_list))
    window = qref.eigenvalues_near(H, E_mid, count=count + 6 * (k_spread - 1))
    levels = window.E.tolist()
    # the candidates of each state from the eigenvalues alone; vectors only
    # for the levels that are one
    candidates, spacings = [], []
    for E_bs in E_list:
        spacing = wkb.level_spacing(loop_mu, L, E_bs, M)
        cand = [i for i, E in enumerate(levels) if abs(E - E_bs) <= 0.6 * spacing]
        if not cand:
            cand = sorted(range(len(levels)), key=lambda i: abs(levels[i] - E_bs))[:2]
        candidates.append(cand)
        spacings.append(spacing)
    wanted = sorted(set().union(*candidates))
    pair_of = dict(zip(wanted, qref.eigenpairs(H, window, wanted)))
    fine_mu = espec.smooth_branches(model, H.grid).ground_loop()[1]
    states = []
    for k, E_bs, spacing, cand in zip(k_list, E_list, spacings, candidates):
        with np.errstate(invalid="ignore"):
            rho_cl = np.sum(1.0 / np.sqrt(np.maximum(2.0 * (E_bs - fine_mu), 1e-12)), axis=0)
        cand = [pair_of[i] for i in cand]
        sims = [_lowpass_similarity(p.density, rho_cl) for p in cand]
        best = int(np.argmax(sims))
        cluster = [cand[best]]
        if doublet_average:
            for j, p in enumerate(cand):
                if (j != best and sims[j] >= 0.995 * sims[best]
                        and abs(p.E - cand[best].E) < 0.05 * spacing):
                    cluster.append(p)
        q_obs = {name: float(np.mean([qref.observable(p.density, g, H.grid)
                                      for p in cluster]))
                 for name, g in observables.items()}
        states.append({"k": int(k), "E_bs": float(E_bs),
                       "E_q": float(np.mean([p.E for p in cluster])),
                       "n_cluster": len(cluster),
                       "similarity": float(sims[best]), "quantum": q_obs})
    return {"k": int(k0), "E_bs": float(E_list[0]), "n_grid": int(n_grid),
            "states": states}


def converge(model, scheme, M_list, observables=None, e_ref=None, n_loops=8,
             seed=0, count=16, k_spread=1, energy_window=None,
             doublet_average=True, cache=None, n_grid_cap=None,
             perp_correction=False):
    """Measure the observable error against the exact reference over a mass sweep.

    Per mass: quantize the energy in a fixed window, solve the eigenproblem
    near it, run the matched trajectory, and difference the observables; the
    caustic certificate must be empty for every mass.  ``k_spread`` adjacent
    quantized states are measured and their absolute errors averaged, which
    smooths the state-to-state oscillation of the error constant.  With
    ``energy_window`` set, all states in a fixed microcanonical window are
    compared instead and the signed errors are averaged, which also cancels
    the oscillating component.  Returns a RunRecord with the fitted exponent.

    The work is shared among forked workers (``_util.fork_map``), one job
    per distinct cache key: a repeated mass reuses its key's reference and
    entry.  A job solves its mass's reference unless it is cached, checks
    its caustic certificates, integrates its states' lanes
    (``dynamics.simulate_ensemble`` on them alone, which picks its float or
    lockstep path by itself) and computes its record entry.  The jobs are
    shared out by count (``_util.fork_shares``): each gets a forked process
    of its own, up to two processes a CPU, and the caller runs none of them;
    on one CPU, or with a single job, the caller runs them itself.  Workers
    change no result bit.  A failing sweep raises the error of its lowest
    failing mass, as one worker would, and leaves ``cache`` unfilled: the
    cache gets its new references only once every mass has its entry.
    ``wall_times`` holds the seconds of the reference, trajectory and error
    stages, each timed in the process that ran it and summed over masses,
    and the ``sweep`` wall time.

    An empty ``M_list``, a mass that is not finite and >= 1, an ``n_loops``
    that is not an integer >= 1, ``k_spread``, ``count`` or ``n_grid_cap``
    below 1, an ``energy_window`` that is not finite and > 0, or a
    non-finite ``e_ref`` raises ValueError before anything is solved or
    forked.  With fewer than three masses no rate is fitted: ``alpha``,
    ``alpha_stderr`` and ``intercept`` stay None.

    The sweep draws no random numbers: ``seed`` only labels the record, as
    its ``master_seed``, and does not change any result.
    """
    clock = time.perf_counter
    t_start = clock()
    if scheme not in ("bo", "ehrenfest"):
        raise ValueError("convergence harness drives deterministic schemes only")
    if not isinstance(n_loops, (int, np.integer)):
        raise ValueError(f"n_loops must be an integer, got {n_loops!r}")
    if n_loops < 1:
        raise ValueError(f"n_loops must be >= 1, got {n_loops}")
    M_list = [float(M) for M in M_list]
    if not M_list:
        raise ValueError("M_list must hold at least one mass")
    for M in M_list:
        if not (np.isfinite(M) and M >= 1.0):
            raise ValueError(f"mass M must be finite and >= 1, got {M}")
    if not k_spread >= 1:
        raise ValueError(f"k_spread must be >= 1, got {k_spread}")
    if not count >= 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if n_grid_cap is not None and not n_grid_cap >= 1:
        raise ValueError(f"n_grid_cap must be >= 1, got {n_grid_cap}")
    if energy_window is not None and not (np.isfinite(energy_window) and energy_window > 0.0):
        raise ValueError(f"energy_window must be finite and > 0, got {energy_window}")
    if e_ref is not None and not np.isfinite(e_ref):
        raise ValueError(f"e_ref must be finite, got {e_ref}")
    if observables is None:
        observables = default_observables(model.L)
    # smooth continuation of the adiabatic levels: the ground branch may close
    # only after visiting several sorted levels (label swaps at crossings)
    branch = espec.loop_branches(model)
    cycle, loop_mu, index_offset = branch.ground_loop()
    X0 = branch.launch
    floor_lam = float(branch.mu.min())
    # the energy window must clear every surface in the loop, else the loop
    # states hybridize with trapped (caustic) states and no single-mode
    # eigenstate exists near E
    barrier = float(loop_mu.max())
    if e_ref is None:
        e_ref = barrier + 0.5 * max(1.0, barrier - floor_lam)
    record = RunRecord(config=model.spec().to_json(), scheme=scheme,
                       master_seed=seed, M_list=M_list,
                       e_ref=float(e_ref), n_loops=n_loops,
                       dt_rule=wkb.DT_RULE,
                       per_M=[], observable_names=sorted(observables),
                       count=count, k_spread=k_spread, energy_window=energy_window,
                       doublet_average=doublet_average, n_grid_cap=n_grid_cap,
                       perp_correction=perp_correction)
    cache = {} if cache is None else cache
    # observables by name and function object: the quantum values depend on both
    observable_key = tuple(sorted(observables.items(), key=lambda item: item[0]))
    n_hits = n_loops * len(cycle)

    def reference_key(M):
        """Mass M's job: the cache key of its reference, M, and the state
        count and spread the reference solves for."""
        k_spread_M = k_spread
        count_M = count
        if energy_window is not None:
            spacing = wkb.level_spacing(loop_mu, model.L, e_ref, M)
            k_spread_M = int(np.clip(round(energy_window / spacing), 4, 40))
            k_spread_M += k_spread_M % 2
            count_M = k_spread_M + 12
        key = (model.spec().to_json(), M, float(e_ref), count_M,
               k_spread_M, doublet_average, n_grid_cap, observable_key)
        return key, M, count_M, k_spread_M

    def reference(job):
        """A job's reference, from the cache or solved, and the seconds it took."""
        key, M, count_M, k_spread_M = job
        if key in cache:
            return cache[key], 0.0
        t0 = clock()
        quantum = _matched_eigenstates(model, M, e_ref, loop_mu, floor_lam, observables,
                                       count_M, k_spread_M, doublet_average, n_grid_cap,
                                       index_offset=index_offset)
        return quantum, clock() - t0

    def certify(M, quantum):
        """The caustic certificate at each matched energy, on every loop surface."""
        for sel in quantum["states"]:
            caustics = [float(x) for mu_j in loop_mu
                        for x in branch.grid[2.0 * (sel["E_q"] - mu_j) <= wkb.EPS_CAUSTIC]]
            if caustics:
                raise CausticError(f"caustics at M = {M}: {caustics}")

    def integrate(M, quantum):
        """The trajectories of mass M's states, one lane each, as one ensemble."""
        launches = [wkb.launch_state(model, scheme, sel["E_q"], M, X0, perp_correction)
                    for sel in quantum["states"]]
        return dynamics.simulate_ensemble(
            model, [init for init, _ in launches], scheme,
            T_final=[4.0 * n_hits * (model.L / init.p[0]) for init, _ in launches],
            dt=[dt for _, dt in launches], surface=X0, M=M, max_hits=n_hits)

    def entry(M, quantum, trajectories):
        """Mass M's record entry, from its reference and its states' trajectories."""
        per_k_errors = []
        crossings = []
        for sel, traj in zip(quantum["states"], trajectories):
            c_obs, c_scatter = _loop_observables(traj, observables, n_hits,
                                                 cycle_len=len(cycle))
            if model.d > 1 and not crossings:
                crossings = [
                    {"sigma": ev.sigma, "X": ev.X_sigma, "level": ev.level,
                     "slope": ev.slope, "degenerate": ev.degenerate}
                    for ev in espec.detect_crossings(model, traj)
                ]
            errs = {name: sel["quantum"][name] - c_obs[name]
                    for name in observables}
            per_k_errors.append((errs, c_scatter))
            if len(per_k_errors) == 1:
                # the entry reports the first state, like E_q and quantum
                c_means, c_sigmas = c_obs, c_scatter
        # average the per-state errors: the error constant oscillates from
        # state to state, the rate is carried by the envelope (mean absolute
        # error) or, over a microcanonical window, by the signed mean resolved
        # at its own noise level
        spread_sigma = {name: float(np.std([e[name] for e, _ in per_k_errors], ddof=1)
                                    / np.sqrt(len(per_k_errors)))
                        if len(per_k_errors) > 1 else 0.0
                        for name in observables}
        if energy_window is not None:
            errors = {name: float(np.hypot(np.mean([e[name] for e, _ in per_k_errors]),
                                           spread_sigma[name]))
                      for name in observables}
        else:
            errors = {name: float(np.mean([np.abs(e[name]) for e, _ in per_k_errors]))
                      for name in observables}
        top = max(errors, key=errors.get)
        if len(per_k_errors) > 1:
            sigma_top = spread_sigma[top]
        else:
            sigma_top = float(np.mean([s[top] for _, s in per_k_errors]))
        return {
            "M": float(M), "k": quantum["k"], "E_bs": quantum["E_bs"],
            "n_grid": quantum["n_grid"],
            "E_q": quantum["states"][0]["E_q"],
            "n_cluster": quantum["states"][0]["n_cluster"],
            "similarity": quantum["states"][0]["similarity"],
            "quantum": quantum["states"][0]["quantum"],
            "classical": c_means, "errors": errors, "error": errors[top],
            "error_sigma": sigma_top, "scatter": c_sigmas,
            "k_spread": len(quantum["states"]),
            "caustics": [], "crossings": crossings,
        }

    per_mass = [reference_key(M) for M in M_list]
    jobs = {}           # every distinct key, with the first mass that has it
    for job in per_mass:
        jobs.setdefault(job[0], job)
    if any(key not in cache for key in jobs):
        # the modules of the reference solves, loaded here although the caller
        # of a forked sweep solves nothing: the workers share the pages loaded
        # before the fork, while each worker would load them again every sweep
        # (its first inverse iteration took 19-23 against 2.8 ms).
        # The solves call scipy's LAPACK extension alone, 3.3 MB and 17 ms in
        # a fresh process, not the scipy.linalg package around it, 25.6 MB
        # and 0.15 s (scipy 1.17, 2-core host); the energies' root solves
        # need no scipy module
        qref._load_solver()

    def cell(job):
        """A job's reference, its mass's record entry, and the seconds of the
        reference, trajectory and error stages."""
        M = job[1]
        quantum, t_solve = reference(job)
        t0 = clock()
        certify(M, quantum)
        t1 = clock()
        trajectories = integrate(M, quantum)
        t2 = clock()
        return (quantum, entry(M, quantum, trajectories),
                (t_solve + t1 - t0, t2 - t1, clock() - t2))

    done = dict(zip(jobs, fork_map(cell, jobs.values())))
    quanta = {key: quantum for key, (quantum, _, _) in done.items()}
    entries = [done[key][1] for key, *_ in per_mass]
    stages = np.sum([seconds for _, _, seconds in done.values()], axis=0)
    for key, quantum in quanta.items():
        cache.setdefault(key, quantum)
    record.per_M = entries
    record.wall_times = dict(zip(("references", "trajectories", "errors"), map(float, stages)))
    floor = 1e-9
    points = [(e["M"], max(e["error"], floor)) for e in record.per_M]
    record.floor_limited = all(e["error"] < 100.0 * floor for e in record.per_M)
    if len(points) >= 3:
        # weight each point by its measured relative uncertainty (2% floor)
        weights = []
        for e in record.per_M:
            rel = e["error_sigma"] / max(e["error"], floor)
            weights.append(1.0 / (rel ** 2 + 0.02 ** 2))
        alpha, stderr, intercept = fit_rate(points, weights=weights)
        record.alpha, record.alpha_stderr, record.intercept = alpha, stderr, intercept
        x = np.log([m for m, _ in points])
        y = np.log([e for _, e in points])
        resid = y - (-alpha * x + intercept)
        record.pre_asymptotic = bool(np.max(np.abs(resid)) > 0.7)
    record.wall_times["sweep"] = clock() - t_start
    return record


def replay(record):
    """Re-run a record from its config snapshot and options; numbers must match
    bit-for-bit.  Only records of the default observables can be replayed,
    since a record keeps the observables' names, not their functions."""
    spec = model_mod.ModelSpec.from_json(record.config)
    model = model_mod.build_model(spec)
    defaults = sorted(default_observables(model.L))
    if sorted(record.observable_names) != defaults:
        raise ValueError(f"record observables {record.observable_names} are not the "
                         f"defaults {defaults}; they cannot be replayed")
    return converge(model, record.scheme, record.M_list,
                    e_ref=record.e_ref, n_loops=record.n_loops,
                    seed=record.master_seed, count=record.count,
                    k_spread=record.k_spread, energy_window=record.energy_window,
                    doublet_average=record.doublet_average,
                    n_grid_cap=record.n_grid_cap,
                    perp_correction=record.perp_correction)


def symplectic_perturbation_study(model, scheme, dt_list, M=4096.0, e_ref=None,
                                  n_loops=4, seed=0, cache=None):
    """Observable error against dt at fixed mass, on top of the mass floor,
    over n_loops full periods of the sweep's loop, launched as the sweep
    launches (``wkb.launch_state``).

    Also integrates symplectic Euler on the matched grid and reports the
    maximum position deviation from Verlet (the two share positions when the
    Euler momenta start half a kick behind).
    """
    if scheme != "bo":
        raise ValueError("the dt study drives the Verlet ground-surface scheme")
    observables = default_observables(model.L)
    rec = converge(model, scheme, [M], observables=observables, e_ref=e_ref,
                   n_loops=n_loops, seed=seed, cache=cache)
    E_q = rec.per_M[0]["E_q"]
    quantum = rec.per_M[0]["quantum"]
    branch = espec.loop_branches(model)
    X0 = branch.launch
    n_hits = n_loops * len(branch.ground_loop()[0])
    init, _ = wkb.launch_state(model, "bo", E_q, M, X0)
    t_loop = model.L / init.p[0]
    dt_list = sorted(float(dt) for dt in dt_list)
    trajectories = dynamics.simulate_ensemble(
        model, [init] * len(dt_list), "bo", T_final=3.0 * n_hits * t_loop,
        dt=dt_list, surface=X0, max_hits=n_hits)
    f0 = espec.ground_force(model, X0)
    values = {}
    euler_max_dev = 0.0
    for dt, traj in zip(dt_list, trajectories):
        values[dt] = {name: dynamics.loop_average(traj, g, n_hits)
                      for name, g in observables.items()}
        # symplectic Euler with momenta shifted half a kick behind Verlet
        st = dynamics.PhaseState.make(X0, init.p - 0.5 * dt * f0, phi=init.phi)
        dev = 0.0
        n_cmp = min(200, traj.t.size - 1)
        for i in range(n_cmp):
            st = dynamics.step_symplectic_euler(model, st, dt)
            dev = max(dev, abs(st.X[0] - traj.X[i + 1, 0]))
        euler_max_dev = max(euler_max_dev, dev)
    # isolate the additive dt term by self-convergence against the finest step
    dt_ref = dt_list[0]
    entries = []
    for dt in dt_list:
        dt_effect = max(abs(values[dt][n] - values[dt_ref][n]) for n in observables)
        total = max(abs(values[dt][n] - quantum[n]) for n in observables)
        entries.append({"dt": dt, "dt_effect": float(dt_effect),
                        "error": float(total)})
    floor = max(abs(values[dt_ref][n] - quantum[n]) for n in observables)
    fit_pts = [(1.0 / e["dt"], e["dt_effect"]) for e in entries
               if e["dt"] > dt_ref and e["dt_effect"] > 1e-12]
    slope = None
    if len(fit_pts) >= 3:
        alpha, stderr, _ = fit_rate(fit_pts)
        slope = {"q": alpha, "stderr": stderr}
    return {
        "M": float(M), "E_q": float(E_q), "entries": entries,
        "floor": float(floor), "dt_fit": slope,
        "euler_verlet_max_position_dev": float(euler_max_dev),
        "mass_record": rec,
    }
