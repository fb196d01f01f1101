"""Run every workload repeatedly and report the spread of each metric.

    python3 bench/stability.py --runs 10

Each run is a fresh untraced `bench/run.py` process with its own seed (1, 2,
..., runs); the workloads are interleaved seed by seed so that slow drift of
the machine spreads over all of them.  For each end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and whether the spread fits the bound in BENCHMARK.json.
The exit code is 1 when a run failed a check or an operation, or a spread
is wider than its bound.  The results go to bench_results/stability.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {name: [] for name in names}
    ok = True
    for seed in range(1, args.runs + 1):
        for name in names:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                                  stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} seed {seed}: exited {proc.returncode} without a result")
                return 2
            res = json.loads(lines[-1])
            ok &= proc.returncode == 0 and res["correct"] and res["failed"] == 0
            runs[name].append(res)
            print(f"{name} seed {seed}: exit {proc.returncode} correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
                  flush=True)
    report = {}
    for name in names:
        report[name] = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs[name]}),
                        "metrics": {}}
        print(f"\n{name}: failed share {report[name]['failed_share']}")
        for metric in runs[name][0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs[name]])
            report[name]["metrics"][metric] = s
            bound = bounds[metric]
            fits = s["spread"] <= bound
            ok &= fits
            verdict = ("within a third of the bound" if s["spread"] < bound / 3 else
                       "within the bound" if fits else "WIDER THAN THE BOUND")
            print(f"  {metric:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}: {verdict})")
    out = ROOT / "bench_results" / "stability.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "seconds": args.seconds,
                               "report": report}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
