#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload liouville --runs 10 --seconds 56

Runs run.py once per seed (seeds first-seed .. first-seed+runs-1), one
run at a time, and prints for each metric the median of the runs and the
distance between the first and third quartile as a share of the median,
the figure BENCHMARK.json's bounds are set against. With --json PATH it
also writes the per-metric medians, quartile spreads and raw values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")


def one_run(workload, seed, seconds, trace):
    """The run's contract line and its full record (every metric, with
    the machine)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    path = os.path.join(OUT_DIR,
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    return json.loads(out.stdout.splitlines()[-1]), record


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)

    values, units, machine, failed = {}, {}, None, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, record = one_run(args.workload, seed, args.seconds,
                                 args.trace)
        machine = record["machine"]
        failed += result["failed"] + (not result["correct"])
        for name, m in {**record["end_to_end"],
                        **record["per_layer"]}.items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)
    summary = {}
    print(f"{args.workload}: {args.runs} runs, {failed} failed or incorrect")
    for name, vals in values.items():
        med, spread = summarize(vals)
        summary[name] = {"median": med, "iqr_share": spread,
                         "unit": units[name], "values": vals}
        print(f"  {name:<46} median {med:>12.6g} {units[name]:<6} "
              f"IQR/median {spread:.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "runs": args.runs,
                       "seconds": args.seconds, "trace": args.trace,
                       "failed": failed, "machine": machine,
                       "metrics": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
