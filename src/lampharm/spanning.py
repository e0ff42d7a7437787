"""Spanning lines in k-fuzz graphs, line augmentation, and the
(4k+1) gradient-norm bound check.

A spanning line visits every vertex exactly once with consecutive
vertices at base-graph distance <= k. Finite graphs carry an explicit
order; infinite families carry an enumeration rule (position <-> key in
both directions). The searcher proves absence only in exact mode; the
heuristic reports timeout, never nonexistence.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import (
    FiniteGraph,
    GraphOracle,
    ball,
    graph_distances,
    k_fuzz,
)
from .keys import IntPoint
from .potential import as_values, p_energy

EXACT_LIMIT = 30
DEFAULT_TIME_BUDGET = 10.0


@dataclass
class SpanningLine:
    """Explicit Hamiltonian order on a finite graph, certified for fuzz k."""

    order: list
    k: int


@dataclass
class LineRule:
    """Two-way enumeration rule for an infinite family: enumerate_fn maps
    every integer position to a vertex key; position_fn inverts it."""

    name: str
    k: int
    enumerate_fn: Callable[[int], object]
    position_fn: Callable[[object], int]

    def line_neighbors(self, key):
        """The two rule-adjacent vertices of `key`."""
        i = self.position_fn(key)
        if self.enumerate_fn(i) != key:
            raise ValueError(f"rule {self.name} does not cover {key!r}")
        return [self.enumerate_fn(i - 1), self.enumerate_fn(i + 1)]


def check_spanning_line(g, line):
    """Independent verification of the two invariants on a finite graph:
    each vertex appears exactly once, consecutive base distance <= k."""
    order = list(line.order)
    if sorted(order) != list(range(g.n)):
        return False
    return all(graph_distances(g, u, cutoff=line.k)[v] >= 0
               for u, v in zip(order, order[1:]))


def check_line_rule(G, rule, lo, hi):
    """Verify a rule window against the oracle: positions lo..hi enumerate
    distinct vertices, position_fn inverts enumerate_fn, and consecutive
    vertices are within oracle distance k."""
    keys = [rule.enumerate_fn(i) for i in range(lo, hi + 1)]
    if [rule.position_fn(v) for v in keys] != list(range(lo, hi + 1)):
        return False
    if len(set(keys)) != len(keys):
        return False
    near = k_fuzz(G, rule.k).neighbors
    return all(v in near(u) for u, v in zip(keys, keys[1:]))


def builtin_spanning_line(family):
    """Closed-form rules for the shipped two-ended families.

    line: identity order, k=1. caterpillar: spine and leaf interleaved,
    spine_0, leaf_0, spine_1, leaf_1, ..., k=3.
    """
    if family == "line":
        return LineRule(
            "line",
            1,
            lambda i: IntPoint((i,)),
            lambda key: key.coords[0],
        )
    if family == "caterpillar":
        return LineRule(
            "caterpillar",
            3,
            lambda i: IntPoint(divmod(i, 2)),
            lambda key: 2 * key.coords[0] + key.coords[1],
        )
    raise ValueError(f"unknown spanning-line family {family!r}")


@dataclass
class SearchResult:
    """Outcome of find_spanning_line: status is 'found', 'proved_absent'
    (exact search exhausted), or 'timeout' (search failure, not a
    nonexistence certificate)."""

    status: str
    line: Optional[SpanningLine] = None


def _exact_search(adj, deadline):
    n = len(adj)
    nbrs = [set(a) for a in adj]
    order = sorted(range(n), key=lambda v: len(adj[v]))
    path = []
    visited = [False] * n

    def extend(v):
        if time.monotonic() > deadline:
            raise TimeoutError
        path.append(v)
        visited[v] = True
        if len(path) == n:
            return True
        # prune: an unvisited vertex with no unvisited neighbor and no
        # edge to the path head is unreachable
        for u in range(n):
            if not visited[u] and u != v:
                if all(visited[w] for w in adj[u]) and v not in nbrs[u]:
                    break
        else:
            for w in adj[v]:
                if not visited[w] and extend(w):
                    return True
        path.pop()
        visited[v] = False
        return False

    for s in order:
        if extend(s):
            return path
    return None


def _posa_search(adj, rng, deadline):
    n = len(adj)
    nbrs = [set(a) for a in adj]
    while time.monotonic() < deadline:
        start = rng.randrange(n)
        path = [start]
        inpath = [False] * n
        inpath[start] = True
        stall = 0
        while len(path) < n and stall < 4 * n and time.monotonic() < deadline:
            end = path[-1]
            fresh = [w for w in adj[end] if not inpath[w]]
            if fresh:
                v = fresh[rng.randrange(len(fresh))]
                path.append(v)
                inpath[v] = True
                stall = 0
                continue
            # rotate: pick a path neighbor of the end, reverse the suffix
            pivots = [w for w in adj[end] if w != path[-2]]
            if not pivots:
                break
            w = pivots[rng.randrange(len(pivots))]
            i = path.index(w)
            path[i + 1 :] = reversed(path[i + 1 :])
            stall += 1
        if len(path) == n:
            return path
    return None


def find_spanning_line(g, k, time_budget=DEFAULT_TIME_BUDGET, seed=0,
                       exact=False):
    """Search for a Hamiltonian path in the k-fuzz of a finite graph.

    Graphs up to EXACT_LIMIT vertices, or any graph when `exact` is set,
    use exhaustive backtracking, so absence is proved; larger graphs use
    rotation-extension with random restarts within the time budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n == 1:
        return SearchResult("found", SpanningLine([0], k))
    adj = [np.flatnonzero(graph_distances(g, s, cutoff=k) > 0).tolist()
           for s in range(g.n)]
    deadline = time.monotonic() + time_budget
    if exact or g.n <= EXACT_LIMIT:
        try:
            path = _exact_search(adj, deadline)
        except TimeoutError:
            return SearchResult("timeout")
        if path is None:
            return SearchResult("proved_absent")
        return SearchResult("found", SpanningLine(path, k))
    path = _posa_search(adj, random.Random(seed), deadline)
    if path is None:
        return SearchResult("timeout")
    return SearchResult("found", SpanningLine(path, k))


def augment_with_line(H, rule):
    """Oracle with H's edges plus the rule's consecutive-pair edges.

    Adds at most 2 edges per vertex; combined lamp-and-space
    augmentations of a lamplighter therefore add at most 4.
    """
    if not isinstance(rule, LineRule):
        raise TypeError("augment_with_line needs a LineRule")

    def neighbors(v):
        return sorted(set(H.neighbors(v)).union(rule.line_neighbors(v)))

    bound = H.degree_bound + 2 if H.degree_bound is not None else None
    return GraphOracle(
        neighbors=neighbors,
        origin=H.origin,
        degree_bound=bound,
        name=f"{H.name}+{rule.name}line",
    )


def augment_ball(H, H_aug, center, R, k, budget=None):
    """Materialize B_R of H and the same vertex set under H_aug, keeping
    only added edges whose endpoints are within distance k inside the
    ball.

    Added edges near the rim may realize their base distance through
    vertices outside B_R; those are dropped because the gradient bound's
    chain argument needs the connecting path inside the materialized
    region."""
    g = ball(H, center, R, budget=budget)
    index = {v: i for i, v in enumerate(g.verts)}
    edges = g.edges().tolist()
    for i, v in enumerate(g.verts):
        row = g.indices[g.indptr[i]:g.indptr[i + 1]]
        near = None
        for j in map(index.get, H_aug.neighbors(v)):
            # each pair once, from its lower end; g's own edges need no BFS
            if j is None or j <= i or j in row:
                continue
            if near is None:
                near = graph_distances(g, i, cutoff=k)
            if near[j] >= 0:
                edges.append((i, j))
    g_aug = FiniteGraph.from_edges(g.n, edges, np.flatnonzero(g.boundary_mask),
                                   g.verts)
    return g, g_aug


@dataclass
class GradientBoundReport:
    """Both sides of the augmented-gradient inequality for one f."""

    lhs: float
    rhs: float
    ok: bool
    structural_ok: bool
    added_edges: int


def verify_gradient_bound(g, g_aug, f, p, k):
    """Check ||grad f||_{p, augmented} <= (4k+1) ||grad f||_{p, base}.

    structural_ok records whether the augmentation satisfies the bound's
    preconditions (edge superset, <= 4 added edges per vertex, added
    endpoints within base distance k); when it is False the inequality
    is not guaranteed. The structural check runs once per (g, g_aug, k).
    """
    if g.verts != g_aug.verts:
        raise ValueError("graphs must share vertex indexing")
    structural_ok, added = _augmentation_structure(g, g_aug, k)
    vals = as_values(f, g)
    lhs = p_energy(vals, g_aug, p) ** (1.0 / p)
    rhs = (4 * k + 1) * p_energy(vals, g, p) ** (1.0 / p)
    ok = lhs <= rhs * (1 + 1e-12) + 1e-300
    return GradientBoundReport(lhs, rhs, ok, structural_ok, added)


def _augmentation_structure(g, g_aug, k):
    """(structural_ok, number of added edges) of verify_gradient_bound,
    computed once per (g, g_aug, k) and kept on g_aug, so that it goes
    with it (FiniteGraphs are not changed once built, and hash by
    identity)."""
    memo = vars(g_aug).setdefault("_augmentation_structure", {})
    if (g, k) not in memo:
        memo[g, k] = _check_structure(g, g_aug, k)
    return memo[g, k]


def _check_structure(g, g_aug, k):
    """The structural check, with one BFS per distinct source of an
    added edge."""
    base = set(map(tuple, g.edges().tolist()))
    aug = set(map(tuple, g_aug.edges().tolist()))
    added = sorted(aug - base)
    ok = base <= aug
    if added:
        ends = np.array(added)
        ok = ok and int(np.bincount(ends.ravel()).max()) <= 4
        for u in np.unique(ends[:, 0]).tolist():
            far = graph_distances(g, u, cutoff=k)[ends[ends[:, 0] == u, 1]]
            ok = ok and bool((far >= 0).all())
    return ok, len(added)
