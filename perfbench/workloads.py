"""The benchmark's three experiments and the checks on their outputs.

An experiment is one fixed unit of scientific work that ends in checked
numbers. `run` is the timed part; it calls lampharm only through module
attributes, so the hooks of `instrument` see every call. `check` runs
after the timer stops and returns a list of failure messages, empty when
the outputs are right.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from lampharm import cli, graphs, potential, walks
from lampharm.keys import IntPoint, LampKey

# slack for the maximum principle: the p=2 solver stops at 1e-10
MAX_PRINCIPLE_SLACK = 1e-9


def _lamplighter():
    return graphs.lamplighter(graphs.path_graph(2), graphs.line_graph(),
                              IntPoint((0,)))


def _suite(name, seed, out_dir):
    """Run a `lampharm reproduce` suite in-process, output swallowed. The
    old report goes first, so a check never reads a stale one."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(_report_path(name, out_dir))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["reproduce", name, "--seed", str(seed),
                         "--out-dir", out_dir])


def _report_path(name, out_dir):
    return os.path.join(out_dir, name.replace("-", "_") + ".json")


def _check_suite(name, code, out_dir, n_verdicts):
    path = _report_path(name, out_dir)
    if not os.path.exists(path):
        return [f"{name}: no report written"]
    with open(path) as fh:
        verdicts = json.load(fh)["verdicts"]
    bad = [f"{name}: verdict {v} failed"
           for v, d in sorted(verdicts.items()) if not d["passed"]]
    if len(verdicts) != n_verdicts:
        bad.append(f"{name}: {len(verdicts)} verdicts, expected {n_verdicts}")
    if code != 0:
        bad.append(f"{name}: exit code {code}")
    return bad


def check_max_principle(solves):
    """Every solution stays within the range of its boundary data."""
    bad = []
    for prob, sol in solves:
        b = np.fromiter(prob.boundary_values.values(), dtype=np.float64)
        lo, hi = b.min(), b.max()
        v = sol.values
        slack = MAX_PRINCIPLE_SLACK
        if v.min() < lo - slack or v.max() > hi + slack:
            bad.append(f"p={prob.p} solution on {prob.graph.n} vertices "
                       f"leaves boundary range [{lo}, {hi}]")
    return bad


def _check_oscillations(label, values):
    return [f"{label}: oscillation {v} outside [0, 1]"
            for v in values if not 0.0 <= v <= 1.0]


class Oscillation:
    """`reproduce lamplighter-oscillation`, then the fixed-window
    (inner_radius=2) lamplighter series at p=3."""

    name = "oscillation"
    suite = cli.OSCILLATION_SUITE
    suite_verdicts = 5
    p3_radii = (4, 6, 8, 10)

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.G = _lamplighter()

    def run(self, i):
        code = _suite(self.suite, self.seed, self.out_dir)
        G = self.G
        p3 = [potential.oscillation_probe(G, G.origin, R, 3.0, inner_radius=2)
              for R in self.p3_radii]
        return code, p3

    def check(self, out, rec):
        code, p3 = out
        return (_check_suite(self.suite, code, self.out_dir,
                             self.suite_verdicts)
                + _check_oscillations("p=3 series", [o for o, _ in p3])
                + check_max_principle(rec.solves))

    def work(self, out, rec):
        return {"solves": len(rec.solves)}


class Liouville:
    """`walk_series` at checkpoints 50/100/200, laziness 0.5, on the
    lamplighter over the line (starts e and delta_0), the rank-2 free
    group and the caterpillar."""

    name = "liouville"
    trials = 2000
    checkpoints = (50, 100, 200)
    laziness = 0.5
    free_plateau = 0.2

    def __init__(self, seed, out_dir):
        self.seed = seed
        G = _lamplighter()
        o = IntPoint((0,))
        delta0 = LampKey.make(o, {o: IntPoint((1,))}, o)
        self.graphs = [
            ("lamplighter", G, dict(start_a=G.origin, start_b=delta0)),
            ("free_group", graphs.free_group_graph(2), {}),
            ("caterpillar", graphs.caterpillar_graph(), {}),
        ]

    def configs(self, i):
        # walk seeds derive from the benchmark seed and experiment index
        seeds = np.random.SeedSequence([self.seed, i]).generate_state(
            len(self.graphs))
        return [walks.WalkConfig(steps=self.checkpoints[-1],
                                 trials=self.trials, laziness=self.laziness,
                                 seed=int(s), **starts)
                for s, (_, _, starts) in zip(seeds, self.graphs)]

    def run(self, i):
        return [walks.walk_series(G, cfg, list(self.checkpoints))
                for (_, G, _), cfg in zip(self.graphs, self.configs(i))]

    def check(self, out, rec):
        bad = []
        for (label, _, _), ser in zip(self.graphs, out):
            bad += [f"{label}: TV {v} outside [0, 1]"
                    for v in ser.tv + ser.baseline if not 0.0 <= v <= 1.0]
        free = out[1]
        if not free.tv[-1] > self.free_plateau:
            bad.append(f"free group TV {free.tv[-1]} at step "
                       f"{self.checkpoints[-1]} not above {self.free_plateau}")
        # per graph and checkpoint: one full pair, one split-half pair
        T = self.trials
        n = len(self.graphs) * len(self.checkpoints)
        expected = {(T, T): n, (T // 2, T - T // 2): n}
        sums = {}
        for a, b in rec.hist_pairs:
            key = (sum(a.values()), sum(b.values()))
            sums[key] = sums.get(key, 0) + 1
        if sums != expected:
            bad.append(f"histogram sums {sums}, expected {expected}")
        return bad

    def work(self, out, rec):
        return {"walker_steps": 2 * self.trials * self.checkpoints[-1]
                * len(self.graphs)}


class HarmonicP2:
    """p=2 fixed-window probes on large balls of several shapes, grid and
    line capacities, then `reproduce product-growth`."""

    name = "harmonic-p2"
    suite = cli.GROWTH_SUITE
    suite_verdicts = 5
    capacity_radii = (32, 64)
    line_radius = 64

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        L = _lamplighter()
        F = graphs.free_group_graph(2)
        G3 = graphs.grid_graph(3)
        self.probes = [(L, 10), (L, 12), (F, 7), (F, 8), (G3, 12)]
        self.grid2 = graphs.grid_graph(2)
        self.line = graphs.line_graph()

    def run(self, i):
        osc = [potential.oscillation_probe(G, G.origin, R, 2.0,
                                           inner_radius=2)[0]
               for G, R in self.probes]
        g2 = self.grid2
        caps = [potential.annulus_capacity(g2, g2.origin, 1, R, 2.0)
                for R in self.capacity_radii]
        line_cap = potential.annulus_capacity(
            self.line, self.line.origin, 1, self.line_radius, 2.0)
        code = _suite(self.suite, self.seed, self.out_dir)
        return osc, caps, line_cap, code

    def check(self, out, rec):
        osc, caps, line_cap, code = out
        bad = _check_oscillations("p=2 probes", osc)
        if not caps[0] > caps[1] > 0.0:
            bad.append(f"grid capacities {caps} not decreasing in R")
        exact = 2.0 / (self.line_radius - 1)
        if not abs(line_cap - exact) <= 1e-8:
            bad.append(f"line capacity {line_cap} != 2/(R-1) = {exact}")
        return (bad + _check_suite(self.suite, code, self.out_dir,
                                   self.suite_verdicts)
                + check_max_principle(rec.solves))

    def work(self, out, rec):
        return {"solves": len(rec.solves)}


WORKLOADS = {w.name: w for w in (Oscillation, Liouville, HarmonicP2)}
