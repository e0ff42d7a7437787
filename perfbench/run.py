#!/usr/bin/env python3
"""lampharm benchmark: one client in a closed loop, one thread.

    python3 perfbench/run.py --workload liouville --seed 1 --seconds 56 --trace 0

Each run sets up the workload, then repeats its experiment until
`--seconds` have passed, each experiment starting after the previous one
ended. Every experiment's outputs are checked after its timer stops.
`--workload all` runs the three workloads one after another in this
process.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced experiments and reports the per-layer metrics, computed from
spans around lampharm's public functions (see instrument.py), plus the
tracing overhead. Spans are written to .perfbench_out/ at the end.

Human-readable lines go first; the last line of standard output is the
JSON result. The program under test is the `src/lampharm` package of the
checkout this file sits in; the run fails without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("oscillation", "liouville", "harmonic-p2")
WALK_CLASSES = {"lamplighter": "lamplighter", "free": "free_group",
                "caterpillar": "caterpillar"}


def pin_threads():
    """One BLAS/OpenMP thread, set before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a
    git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the package sources, naming the code under test even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "lampharm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_info(loadavg):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": [round(x, 2) for x in loadavg],
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(),
    }


def measure_setup(workload, seed):
    """Median wall time of fresh processes that import lampharm and build
    the workload's inputs, from spawn to exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Run:
    """One workload's closed loop and its tallies."""

    def __init__(self, cls, seed, out_dir, trace):
        from instrument import Tracer

        self.workload = cls(seed, out_dir)
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.untraced_s = []
        self.traced_s = []
        self.failed = 0
        self.work = {}
        self.residual = {"p2": 0.0, "pne2": 0.0}
        self.hist_bins = 0
        self.traced_exps = 0

    def experiment(self, i):
        from instrument import Recorder, instrumented
        from residual import p_laplacian_residual

        w = self.workload
        traced = self.trace and i % 2 == 1
        tracer = self.tracer if traced else None
        rec = Recorder()
        out, problems = None, []
        with instrumented(rec, tracer):
            t = time.perf_counter()
            try:
                if tracer is None:
                    out = w.run(i)
                else:
                    with tracer.span("experiment"):
                        out = w.run(i)
            except Exception:
                traceback.print_exc()
                problems.append("exception")
            dt = time.perf_counter() - t
        (self.traced_s if traced else self.untraced_s).append(dt)
        self.traced_exps += traced
        if out is not None:
            problems += w.check(out, rec)
            for k, v in w.work(out, rec).items():
                self.work[k] = self.work.get(k, 0) + v
        for prob, sol in rec.solves:
            key = "p2" if float(prob.p) == 2.0 else "pne2"
            r = p_laplacian_residual(prob.graph.adj, prob.graph.boundary_mask,
                                     sol.values, float(prob.p))
            self.residual[key] = max(self.residual[key], r)
        if traced:
            self.hist_bins += sum(len(a) + len(b) for a, b in rec.hist_pairs)
        if problems:
            self.failed += 1
            for msg in problems:
                print(f"# {w.name} experiment {i} FAILED: {msg}",
                      file=sys.stderr)

    def loop(self, seconds):
        least = 2 if self.trace else 1
        start = time.perf_counter()
        i = 0
        while i < least or time.perf_counter() - start < seconds:
            self.experiment(i)
            i += 1

    @property
    def attempted(self):
        return len(self.untraced_s) + len(self.traced_s)

    def end_to_end(self, setup_s):
        busy = sum(self.untraced_s) + sum(self.traced_s)
        return {
            "experiment_s": (statistics.median(self.untraced_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }, {
            "solves_per_s": (self.work.get("solves", 0) / busy, "1/s"),
            "walker_steps_per_s": (self.work.get("walker_steps", 0) / busy,
                                   "1/s"),
            "max_residual": (max(self.residual.values()), "1"),
            "ops_failed_frac": (self.failed / self.attempted, "frac"),
        }

    def per_layer(self):
        spans = self.tracer.spans
        n = max(1, self.traced_exps)
        exp_total = sum(s.duration for s in spans if s.name == "experiment")
        calls, incl, own = {}, {}, {}
        for s in spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            incl[s.name] = incl.get(s.name, 0.0) + s.duration
            own[s.name] = own.get(s.name, 0.0) + s.self_s
        balls = [s for s in spans if s.name == "graphs.ball"]
        ball_vertices = sum(s.attrs["vertices"] for s in balls)
        ball_nbr_calls = sum(s.counts.get("graphs.neighbors", 0)
                             for s in balls)
        pin = [s for s in balls if s.attrs["oracle"].startswith("lamplighter")
               and s.attrs["R"] == 10][:1]
        steps, walk_s = {}, {}
        for s in spans:
            if s.name == "walks.walk_series":
                cls = WALK_CLASSES[s.attrs["oracle"].split("(")[0]]
                steps[cls] = steps.get(cls, 0) + s.attrs["walker_steps"]
                walk_s[cls] = walk_s.get(cls, 0.0) + s.duration
        leaf = self.tracer.leaf_totals
        p2_interior = sum(s.attrs["interior_vertices"] for s in spans
                          if s.name == "potential.solve.p2")

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "graphs.ball.calls": (calls.get("graphs.ball", 0) / n, "count"),
            "graphs.ball.self_s": (own.get("graphs.ball", 0.0) / n, "s"),
            "graphs.ball.vertices": (ball_vertices / n, "count"),
            "graphs.ball.vertices_per_s": (
                ratio(ball_vertices, incl.get("graphs.ball", 0.0)), "1/s"),
            "graphs.ball.share": (
                ratio(incl.get("graphs.ball", 0.0), exp_total), "frac"),
            "graphs.ball.lamplighter_r10.vertices": (
                pin[0].attrs["vertices"] if pin else 0, "count"),
            "graphs.ball.lamplighter_r10.neighbors_calls": (
                pin[0].counts.get("graphs.neighbors", 0) if pin else 0,
                "count"),
            "graphs.neighbors.calls": (leaf["graphs.neighbors"][0] / n,
                                       "count"),
            "graphs.neighbors.s": (leaf["graphs.neighbors"][1] / n, "s"),
            "graphs.neighbors.calls_per_ball_vertex": (
                ratio(ball_nbr_calls, ball_vertices), "ratio"),
            "graphs.step.calls": (leaf["graphs.step"][0] / n, "count"),
            "graphs.step.s": (leaf["graphs.step"][1] / n, "s"),
            "graphs.graph_distances.self_s": (
                own.get("graphs.graph_distances", 0.0) / n, "s"),
        }
        for kind in ("p2", "pne2"):
            name = f"potential.solve.{kind}"
            m[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
            m[f"{name}.self_s"] = (own.get(name, 0.0) / n, "s")
            m[f"{name}.share"] = (ratio(incl.get(name, 0.0), exp_total),
                                  "frac")
            m[f"potential.residual.{kind}_max"] = (self.residual[kind], "1")
        m["potential.solve.p2.interior_vertices"] = (p2_interior / n, "count")
        m["potential.p_energy.self_s"] = (
            own.get("potential.p_energy", 0.0) / n, "s")
        m["potential.probe.self_s"] = (own.get("potential.probe", 0.0) / n,
                                       "s")
        m["potential.spans"] = (
            sum(c for k, c in calls.items() if k.startswith("potential."))
            / n, "count")
        m["walks.walk_series.self_s"] = (
            own.get("walks.walk_series", 0.0) / n, "s")
        m["walks.walk_series.share"] = (
            ratio(incl.get("walks.walk_series", 0.0), exp_total), "frac")
        for cls in WALK_CLASSES.values():
            m[f"walks.walker_steps_per_s.{cls}"] = (
                ratio(steps.get(cls, 0), walk_s.get(cls, 0.0)), "1/s")
        m["walks.tv_distance.self_s"] = (
            own.get("walks.tv_distance", 0.0) / n, "s")
        m["walks.hist_bins"] = (self.hist_bins / n, "count")
        m["walks.spans"] = (
            sum(c for k, c in calls.items() if k.startswith("walks.")) / n,
            "count")
        m["isoperimetry.growth_exponent.self_s"] = (
            own.get("isoperimetry.growth_exponent", 0.0) / n, "s")
        m["cli.main.self_s"] = (own.get("cli.main", 0.0) / n, "s")
        traced = statistics.median(self.traced_s)
        untraced = statistics.median(self.untraced_s)
        m["trace.experiment_s.traced"] = (traced, "s")
        m["trace.experiment_s.untraced"] = (untraced, "s")
        m["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
        return m


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")


def run_workload(name, seed, seconds, trace, out_dir, machine):
    """One workload's run. Every metric, with the machine, also goes to
    .perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json."""
    from workloads import WORKLOADS

    setup_s = measure_setup(name, seed)
    run = Run(WORKLOADS[name], seed, out_dir, trace)
    run.loop(seconds)
    e2e, extra = run.end_to_end(setup_s)
    print(f"workload {name}: {run.attempted} experiments "
          f"({len(run.untraced_s)} untraced, {len(run.traced_s)} traced), "
          f"{run.failed} failed; experiment_s is the median of "
          f"{len(run.untraced_s)} (min {min(run.untraced_s):.4g} s, "
          f"max {max(run.untraced_s):.4g} s), setup_s of {SETUP_REPEATS} "
          f"process starts")
    print_metrics("end-to-end", {**e2e, **extra})
    layers = {}
    if trace:
        layers = run.per_layer()
        print_metrics("per-layer (per traced experiment)", layers)
        run.tracer.write_jsonl(
            os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl"),
            {"workload": name, "seed": seed, "machine": machine,
             "traced_experiments": run.traced_exps})

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine,
              "attempted": run.attempted, "failed": run.failed,
              "experiment_samples": {"untraced": run.untraced_s,
                                     "traced": run.traced_s},
              "end_to_end": as_json({**e2e, **extra}),
              "per_layer": as_json(layers)}
    path = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return run, as_json(layers if trace else e2e)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    loadavg = os.getloadavg()
    pin_threads()
    if not os.path.isfile(os.path.join(SRC, "lampharm", "__init__.py")):
        print(f"perfbench: no lampharm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import lampharm

    if os.path.dirname(os.path.abspath(lampharm.__file__)) != os.path.join(
            SRC, "lampharm"):
        print(f"perfbench: imported lampharm from {lampharm.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, OUT_DIR)
        return 0

    machine = machine_info(loadavg)
    print("# machine " + json.dumps(machine, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    reports = tempfile.mkdtemp(prefix="reports-", dir=OUT_DIR)
    try:
        results = [(n, *run_workload(n, args.seed, args.seconds,
                                     bool(args.trace), reports, machine))
                   for n in names]
    finally:
        shutil.rmtree(reports, ignore_errors=True)
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{n}.{k}": v for n, _, m in results for k, v in m.items()}
    attempted = sum(r.attempted for _, r, _ in results)
    failed = sum(r.failed for _, r, _ in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
