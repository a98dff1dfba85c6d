#!/usr/bin/env python3
"""Repeatability check for the benchmark described by BENCHMARK.json.

Runs every workload N times, each with another seed, and prints for each
end-to-end metric its median, quartiles and spread (the distance between the
quartiles as a share of the median) beside the metric's bound. Run it from
the repository root:

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 5 --workloads serve_cold --first-seed 100

It exits with 1 if a run fails, reports a wrong answer, or if a spread
exceeds its bound, or the share of failed operations differs between runs of
a workload.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    ok = True
    for workload in workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: WRONG ANSWERS")
            results.append(result)
        shares = {r["failed"] / r["attempted"] for r in results}
        attempted = sorted({r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, attempted {attempted}, "
              f"failed share {sorted(shares)}")
        if len(shares) != 1:
            ok = False
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > metric["bound"]:
                flag, ok = "  OVER BOUND", False
            elif spread > metric["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<18}{med:>14.5g}{q1:>14.5g}{q3:>14.5g}"
                  f"{spread:>9.3f}{metric['bound']:>8}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
