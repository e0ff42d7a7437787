"""Capture hooks and spans around lampharm's public functions.

Nothing inside lampharm changes: `instrumented` swaps module attributes
for wrappers and restores them on exit. Each wrapper replaces the
attribute in every lampharm module that imported the function, so
`cli.ball`, `potential.ball` and `isoperimetry.ball` are all covered.

Untraced, only two thin hooks run: every `solve_dirichlet` result and
every pair of histograms handed to `tv_distance` is kept for the output
checks, which run after the timed experiment. Traced, every wrapped call
opens a span (name, start, end, parent id, attributes), and the oracle
handed to `ball` or `walk_series` is swapped for a copy whose
`neighbors` and `step_fn` count their calls and time. Those two are too
hot for one span per call, so their count and time are added to the
innermost open span and to running totals.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from contextlib import contextmanager

LEAVES = ("graphs.neighbors", "graphs.step")


@dataclasses.dataclass
class Recorder:
    """What one experiment's solves and TV calls returned."""

    solves: list = dataclasses.field(default_factory=list)
    hist_pairs: list = dataclasses.field(default_factory=list)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "attrs",
                 "counts")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.attrs = {}
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration minus the time of direct child spans and leaf calls."""
        return self.duration - self.child_s

    def to_json(self):
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "attrs": self.attrs, "counts": self.counts,
        }


class Tracer:
    """In-memory spans of one process; `write_jsonl` dumps them once."""

    def __init__(self):
        self.spans = []
        self.leaf_totals = {name: [0, 0.0] for name in LEAVES}
        self._stack = []

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def counted(self, name, fn):
        """Wrap a hot leaf callable: count and time it without a span."""
        if fn is None:
            return None
        totals = self.leaf_totals[name]
        stack = self._stack
        clock = time.perf_counter

        def leaf(*args):
            t = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t
                totals[0] += 1
                totals[1] += dt
                if stack:
                    top = stack[-1]
                    top.child_s += dt
                    top.counts[name] = top.counts.get(name, 0) + 1

        return leaf

    def counting_oracle(self, G):
        # GraphOracle is frozen; a replaced copy keeps every other field
        return dataclasses.replace(
            G,
            neighbors=self.counted("graphs.neighbors", G.neighbors),
            step_fn=self.counted("graphs.step", G.step_fn),
        )

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.to_json(), sort_keys=True) + "\n")


def _lampharm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lampharm"
                                  or name.startswith("lampharm."))]


def _wrappers(rec, tracer):
    """{(home module, attribute): wrapper factory taking the original}."""

    def capture_solve(fn):
        def solve_dirichlet(prob):
            if tracer is None:
                sol = fn(prob)
            else:
                p2 = float(prob.p) == 2.0
                with tracer.span("potential.solve.p2" if p2
                                 else "potential.solve.pne2") as s:
                    sol = fn(prob)
                s.attrs["p"] = float(prob.p)
                s.attrs["interior_vertices"] = int(
                    (~prob.graph.boundary_mask).sum())
            rec.solves.append((prob, sol))
            return sol
        return solve_dirichlet

    def capture_tv(fn):
        def tv_distance(hist_a, hist_b):
            if tracer is None:
                tv = fn(hist_a, hist_b)
            else:
                with tracer.span("walks.tv_distance") as s:
                    tv = fn(hist_a, hist_b)
                s.attrs["bins"] = len(hist_a) + len(hist_b)
            rec.hist_pairs.append((hist_a, hist_b))
            return tv
        return tv_distance

    table = {
        ("potential", "solve_dirichlet"): capture_solve,
        ("walks", "tv_distance"): capture_tv,
    }
    if tracer is None:
        return table

    def spanned(name):
        def factory(fn):
            def traced(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return traced
        return factory

    def traced_ball(fn):
        def ball(G, center, R, *args, **kwargs):
            with tracer.span("graphs.ball") as s:
                g = fn(tracer.counting_oracle(G), center, R, *args, **kwargs)
            s.attrs.update(oracle=G.name, R=int(R), vertices=g.n)
            return g
        return ball

    def traced_walk_series(fn):
        def walk_series(G, cfg, *args, **kwargs):
            with tracer.span("walks.walk_series") as s:
                out = fn(tracer.counting_oracle(G), cfg, *args, **kwargs)
            s.attrs.update(oracle=G.name,
                           walker_steps=2 * cfg.trials * cfg.steps)
            return out
        return walk_series

    table.update({
        ("graphs", "ball"): traced_ball,
        ("graphs", "graph_distances"): spanned("graphs.graph_distances"),
        ("potential", "p_energy"): spanned("potential.p_energy"),
        ("potential", "oscillation_probe"): spanned("potential.probe"),
        ("potential", "annulus_capacity"): spanned("potential.probe"),
        ("walks", "walk_series"): traced_walk_series,
        ("isoperimetry", "growth_exponent"):
            spanned("isoperimetry.growth_exponent"),
        ("cli", "main"): spanned("cli.main"),
    })
    return table


@contextmanager
def instrumented(rec, tracer=None):
    """Install the capture hooks, plus spans when a tracer is given."""
    modules = _lampharm_modules()
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo = []
    try:
        for (mod_name, attr), factory in _wrappers(rec, tracer).items():
            original = getattr(home[mod_name], attr)
            wrapper = factory(original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))
        yield
    finally:
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)
