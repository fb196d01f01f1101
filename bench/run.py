"""Run one benchmark workload, or all of them, and print the metrics.

    python3 bench/run.py --workload stochastic-equilibrium --seed 1 --seconds 55 --trace 0
    python3 bench/run.py                  # every listed workload, each in its own process

Run from the root of a checkout; the package is imported from ./src.  A run
repeats whole rounds of the workload for --seconds (at least one round, and
no round that would end past --seconds at the speed of the rounds so far),
checks the outputs of every round and of the run against the references in
reference.py, and prints one JSON object as its last line.  With --trace 0
it reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with
--trace 1 it traces every public qcmd call and reports the per-layer
metrics.  The exit code is 0 when every round ran and passed its checks, 1
when a round raised or a check failed (the result then says correct: false)
and 2 when the package cannot be imported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / "bench_results"
BLAS_THREADS = min(2, os.cpu_count() or 1)
# set-up probes before the rounds and again after them, so that the median
# samples the host at both ends of the run
SETUP_PROBES = 3

# must precede the first numpy import, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_workloads():
    """Import the workloads against ./src, refusing any other qcmd."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcmd

    if Path(qcmd.__file__).resolve().parent != src / "qcmd":
        raise ImportError(f"qcmd imported from {qcmd.__file__}, not from {src}")
    import workloads

    return qcmd, workloads


def setup_probes(workload, seed):
    """Times from process start to ready, one per fresh probe process.

    A probe starts the interpreter, imports qcmd and builds the workload's
    models, which is everything a run does before its first timed call.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload,
                               "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe.wait(timeout=60)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe failed for {workload}")
        times.append(elapsed)
    return times


def peak_rss_mb():
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def run_rounds(wl, seconds):
    """Whole rounds for `seconds`; returns walls, outputs, failed ops.

    A round starts only if, at the median speed of the rounds so far, it ends
    within `seconds`, so a run of long rounds does not overrun by most of one.
    """
    walls, outputs, failed = [], [], 0
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            out = wl.run(len(walls))
        except Exception:
            traceback.print_exc()
            failed += wl.ops_per_round
            out = None
        walls.append(time.perf_counter() - t0)
        outputs.append(out)
        if time.perf_counter() - t_start + statistics.median(walls) > seconds:
            return walls, outputs, failed


def check_rounds(wl, outputs):
    """Failure messages of every round and of the run; a round that raised
    fails the run.

    A sweep meets a caustic as lab.CausticError, so a caustic shows up here
    as a round without output, not as a non-empty caustic list.  The checks
    of the whole run need every round's output.
    """
    failures = [f"round {i}: {msg}" for i, out in enumerate(outputs)
                for msg in (["raised, no output (traceback above)"] if out is None
                            else wl.check(out))]
    if all(out is not None for out in outputs):
        failures += [f"run: {msg}" for msg in wl.check_run(outputs)]
    return failures


def layer_metrics(tracer, rounds, walls):
    """Per-layer figures of a traced run, per round."""
    from spans import SpanTable, span_cost

    t = SpanTable(tracer)
    n_steps = sum(t.calls(f"dynamics.step_{s}")
                  for s in ("bo", "ehrenfest", "langevin", "smoluchowski"))
    # per-step times of the schemes the listed workloads take
    steps = {s: f"dynamics.step_{s}" for s in ("ehrenfest", "langevin", "smoluchowski")}
    wall = sum(walls) / rounds
    values = {
        "qref.assemble_s": (t.total("qref.assemble_hamiltonian") / rounds, "s"),
        "qref.eigensolve_s": (t.total("qref.eigensolve_near") / rounds, "s"),
        "qref.eigensolve_calls": (t.calls("qref.eigensolve_near") / rounds, "count"),
        "qref.window_solves": (t.calls("scipy.linalg.eigh") / rounds, "count"),
        "qref.matrix_mb": (max(tracer.matrix_bytes, default=0) / 2 ** 20, "MB"),
        "dynamics.simulate_s": (t.total("dynamics.simulate") / rounds, "s"),
        "dynamics.steps": (n_steps / rounds, "count"),
        **{f"dynamics.step_us.{s}": (t.mean_us(n), "us") for s, n in steps.items()},
        "dynamics.hamiltonian_calls": (t.calls("dynamics.hamiltonian") / rounds, "count"),
        "espec.eigen_at_calls": (t.calls("espec.eigen_at") / rounds, "count"),
        "espec.eigen_at_us": (t.mean_us("espec.eigen_at"), "us"),
        "model.potential_calls": (t.calls("model.evaluate_potential") / rounds, "count"),
        "model.derivative_calls": (t.calls("model.potential_derivative") / rounds, "count"),
        "espec.smooth_branches_s": (t.total("espec.smooth_branches") / rounds, "s"),
        "espec.detect_crossings_s": (t.total("espec.detect_crossings") / rounds, "s"),
        "espec.eigendecompose_field_s": (t.total("espec.eigendecompose_field") / rounds, "s"),
        "wkb.quantize_s": (t.module_outer("wkb") / rounds, "s"),
        "lab.converge_s": (t.total("lab.converge") / rounds, "s"),
        "lab.self_s": (t.module_self("lab") / rounds, "s"),
        "gibbs.gibbs_observable_s": (t.total("gibbs.gibbs_observable") / rounds, "s"),
        "gibbs.corrected_potential_s": (t.total("gibbs.corrected_potential") / rounds, "s"),
        "gibbs.force_calls": (t.calls("gibbs.CorrectedPotential.force") / rounds, "count"),
        "trace.wall_s": (wall, "s"),
        "trace.unaccounted_s": (wall - t.root_time / rounds, "s"),
        "trace.overhead_s": (t.count * span_cost() / rounds, "s"),
        "trace.spans": (t.count / rounds, "count"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def run_workload(args):
    try:
        qcmd, workloads = import_workloads()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    setup_times = [] if args.trace else setup_probes(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed(qcmd):
            walls, outputs, failed = run_rounds(wl, args.seconds)
    else:
        walls, outputs, failed = run_rounds(wl, args.seconds)
    if not args.trace:
        setup_times += setup_probes(args.workload, args.seed)
    failures = check_rounds(wl, outputs)
    for msg in failures:
        print(f"CHECK FAILED {args.workload}: {msg}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(tracer, len(walls), walls)
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
    result = {"correct": not failures, "attempted": wl.ops_per_round * len(walls),
              "failed": failed, "metrics": metrics}
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  round_walls=walls, setup_probes=setup_times, check_failures=failures,
                  blas_threads=BLAS_THREADS,
                  nproc=os.cpu_count(),
                  rounds=[None if out is None else wl.summary(out) for out in outputs])
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.save(RESULTS_DIR / f"{args.workload}.spans.npz")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args):
    """Each workload in its own process; a table, then one JSON line of all results."""
    results, code = {}, 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            return proc.returncode or 2
        res = json.loads(lines[-1])
        results[name] = res
        code = max(code, proc.returncode)
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
