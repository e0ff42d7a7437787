"""Lazy simple random walks on graph oracles and total-variation
contrast between walks from nearby starts.

Walks step on the oracle directly with only current positions held in
memory, so trajectories through enormous implicit graphs stay cheap.
Histograms count walk endpoints under exact labels: the vertex keys
themselves on the object engine, which calls step_fn (or neighbors)
once per walker and step, and on the array engine, which steps whole
batches of walkers as numpy arrays, the bytes of a vertex's row without
their trailing zero bytes (all rows of a frame have one width, so the
label still names the row). Either way Counter.update counts a
checkpoint's labels in C, and tv_distance sums the exact gap in int64.
The split-half baselines are taken right after the first start's walk,
whose half histograms are released before the second walk runs.

walk_series takes the array engine on oracles that carry a
`walk_encoding`: the free groups, the line, the grids, the caterpillar,
the direct product of two lattices, and the lamplighter of path(2) over
any of these lattices. It draws from the generator exactly as the
object engine does (per batch of BATCH_TRIALS walkers and per step, one
rng.random(batch) for laziness unless laziness is 0, then one
rng.random(movers) whose value u picks step_fn neighbor
int(u * degree_bound), or on the irregular caterpillar
neighbors(v)[int(u * deg v)]), so every walker follows the same
trajectory on either engine. Every other oracle, and walks whose array
rows would outgrow ARRAY_ROW_BYTES_CAP (a lamplighter walk past 63
steps on Z^2, or on Z^3 past 11, 12 from one base position), whose
coordinates could leave int64 or whose starts the frame does not encode
exactly, run the object engine (see graphs.array_frame).
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    BudgetExceededError,
    array_frame,
)

DEFAULT_SEED = 42
BATCH_TRIALS = 20_000


@dataclass
class WalkConfig:
    """Parameters of one paired-walk experiment. laziness is the
    probability of staying put each step; steps=0 is allowed and yields
    point masses at the starts."""

    steps: int
    trials: int
    laziness: float = 0.5
    seed: int = DEFAULT_SEED
    start_a: object = None
    start_b: object = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.laziness < 1.0:
            raise ValueError(
                f"laziness must be in [0, 1), got {self.laziness}"
            )


def _resolve_starts(G, cfg):
    a = cfg.start_a if cfg.start_a is not None else G.origin
    if cfg.start_b is not None:
        b = cfg.start_b
    else:
        nbrs = G.neighbors(a)
        if not nbrs:
            raise ValueError(f"start {a!r} has no neighbors")
        b = nbrs[0]
    return a, b


class _KeyFrame:
    """The object engine in the walk-frame form of
    GraphOracle.walk_encoding: walkers are vertex keys, and a move is one
    step_fn call, or on oracles without one, a pick from neighbors."""

    def __init__(self, G):
        self.degree = G.degree_bound
        self.step = G.step_fn
        self.neighbors = G.neighbors

    def spawn(self, start, n):
        return [start] * n

    def move(self, keys, who, u):
        if self.step is not None:
            step, d = self.step, self.degree
            for i, x in zip(who.tolist(), u.tolist()):
                keys[i] = step(keys[i], int(x * d))
            return
        neighbors = self.neighbors
        for i, x in zip(who.tolist(), u.tolist()):
            nb = neighbors(keys[i])
            keys[i] = nb[int(x * len(nb))]

    def labels(self, keys):
        return keys


def _run_walk(frame, start, cfg, marks, rng, split=False):
    """Endpoint histograms of `trials` independent walks at each
    checkpoint in `marks`, keyed by the frame's labels, and with `split`
    the first-half/second-half sub-histograms for the split-half
    baseline (else None). Per batch and step: one rng.random(batch) for
    laziness unless it is 0, then one rng.random(movers) for the moves."""
    hists = {t: Counter() for t in marks}
    halves = {t: (Counter(), Counter()) for t in marks} if split else None
    half_cut = cfg.trials // 2
    done = 0
    while done < cfg.trials:
        bs = min(BATCH_TRIALS, cfg.trials - done)
        state = frame.spawn(start, bs)
        for t in range(0, cfg.steps + 1):
            if t in hists:
                labels = frame.labels(state)
                hists[t].update(labels)
                if split:
                    lo, hi = halves[t]
                    cut = min(max(half_cut - done, 0), bs)
                    lo.update(labels[:cut])
                    hi.update(labels[cut:])
            if t == cfg.steps:
                break
            if cfg.laziness > 0.0:
                who = (rng.random(bs) >= cfg.laziness).nonzero()[0]
            else:
                who = np.arange(bs)
            frame.move(state, who, rng.random(len(who)))
        done += bs
    return hists, halves


def tv_distance(hist_a, hist_b):
    """Total variation between two empirical distributions given as
    integer count mappings over a common key space: half the L1 gap of
    the normalized histograms. Always in [0, 1].

    The gap sum |c_a n_b - c_b n_a| / (2 n_a n_b) is exact, rounded
    once, so the result does not depend on the order of the labels
    (which follows the process's hash seed). It runs over a's keys only:
    a key that only b has adds n_a c_b, which n_a (n_b - sum of b's
    counts on a's keys) collects. The sum is taken in int64, whose range
    it fits while n_a n_b < 2**62 (it is at most 2 n_a n_b); beyond
    that, OverflowError. Float counts raise TypeError."""
    # index() refuses float counts, which int64 would truncate
    na = operator.index(sum(hist_a.values()))
    nb = operator.index(sum(hist_b.values()))
    if na == 0 or nb == 0:
        raise ValueError("empty histogram")
    if na * nb >= 2**62:
        raise OverflowError(
            f"histogram totals {na} x {nb} overflow the int64 TV sum")
    n = len(hist_a)
    ca = np.fromiter(hist_a.values(), dtype=np.int64, count=n)
    cb = np.fromiter(map(hist_b.get, hist_a, repeat(0)), dtype=np.int64,
                     count=n)
    gap = int(np.abs(ca * nb - cb * na).sum()) + na * (nb - int(cb.sum()))
    return gap / (2 * na * nb)


@dataclass
class WalkSeries:
    """TV-vs-steps measurements for one graph: at each checkpoint, the
    TV between the two starts' endpoint histograms and a same-
    distribution split-half baseline exposing estimator bias."""

    graph: str
    checkpoints: list
    tv: list
    baseline: list

    @property
    def margin(self):
        """(tv_0 - tv_last) - (base_0 - base_last): how much more the TV
        falls than the baseline from the first to the last checkpoint."""
        return ((self.tv[0] - self.tv[-1])
                - (self.baseline[0] - self.baseline[-1]))


def walk_series(G, cfg, checkpoints=None, budget=None):
    """TV and split-half baseline at each checkpoint, from one paired
    simulation run to max(checkpoints) steps; on the array engine when
    G has a walk_encoding (see the module docstring)."""
    cap = DEFAULT_VERTEX_BUDGET if budget is None else budget
    if cfg.trials > cap:
        raise BudgetExceededError(cfg.trials, cap)
    if checkpoints is None:
        checkpoints = [cfg.steps]
    marks = sorted(set(int(t) for t in checkpoints))
    if not marks:
        raise ValueError("no checkpoints")
    if marks[0] < 0 or marks[-1] > cfg.steps:
        raise ValueError(f"checkpoints outside [0, {cfg.steps}]")
    a, b = _resolve_starts(G, cfg)
    frame = _KeyFrame(G)
    if G.walk_encoding is not None:
        for s in (a, b):
            G.neighbors(s)  # the frame reads the keys' fields: vet them
        frame = array_frame(G, (a, b), cfg.steps) or frame
    rng = np.random.default_rng(cfg.seed)
    ha, halves = _run_walk(frame, a, cfg, marks, rng, split=True)
    base = [tv_distance(lo, hi) if lo and hi else 0.0
            for lo, hi in map(halves.pop, marks)]
    hb, _ = _run_walk(frame, b, cfg, marks, rng)
    tv = [tv_distance(ha[t], hb[t]) for t in marks]
    return WalkSeries(G.name, marks, tv, base)
