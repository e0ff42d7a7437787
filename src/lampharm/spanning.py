"""Spanning lines in k-fuzz graphs, line augmentation, and a routing
certificate for the gradient-norm bound of an augmentation.

A spanning line visits every vertex exactly once with consecutive
vertices at base-graph distance <= k. Finite graphs carry an explicit
order; infinite families carry an enumeration rule (position <-> key in
both directions). The searcher proves absence only in exact mode; the
heuristic reports timeout, never nonexistence.
"""

from __future__ import annotations

import math
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

EXACT_LIMIT = 30
DEFAULT_TIME_BUDGET = 10.0


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


def check_spanning_line(g, order, k):
    """Independent verification of the two invariants on a finite graph:
    each vertex appears exactly once, consecutive base distance <= k."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        return False
    return all(graph_distances(g, u, cutoff=k)[v] >= 0
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
    """Outcome of find_spanning_line: status is 'found', with the vertex
    order of the line, 'proved_absent' (exact search exhausted), or
    'timeout' (search failure, not a nonexistence certificate)."""

    status: str
    order: Optional[list] = None


def _exact_search(adj, deadline):
    """Depth-first backtracking with an explicit stack: stack[i] holds
    the candidates left for path position i, so len(stack) is always
    len(path) + 1 and a path as long as the graph needs no recursion.

    A path that strands a vertex (unvisited, with no unvisited neighbor
    and no edge to the head) is not extended, so the next step can
    strand only a neighbor of the old head, or at a start an isolated
    vertex; free[u] counts u's unvisited neighbors."""
    n = len(adj)
    nbrs = [set(a) for a in adj]
    free = [len(a) for a in adj]
    isolated = [u for u in range(n) if not adj[u]]
    path = []
    visited = [False] * n
    for s in sorted(range(n), key=lambda v: len(adj[v])):
        stack = [iter([s])]
        while stack:
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                if path:
                    u = path.pop()
                    visited[u] = False
                    for w in adj[u]:
                        free[w] += 1
                continue
            if visited[v]:
                continue
            if time.monotonic() > deadline:
                raise TimeoutError
            path.append(v)
            visited[v] = True
            for w in adj[v]:
                free[w] -= 1
            if len(path) == n:
                return path
            suspects = adj[path[-2]] if len(path) > 1 else isolated
            stranded = any(not visited[u] and not free[u]
                           and v not in nbrs[u] for u in suspects)
            stack.append(iter(() if stranded else adj[v]))
    return None


def _posa_search(adj, rng, deadline):
    n = len(adj)
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
    if math.isnan(time_budget):
        raise ValueError("time_budget must not be NaN")
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n == 1:
        return SearchResult("found", [0])
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
        return SearchResult("found", path)
    path = _posa_search(adj, random.Random(seed), deadline)
    if path is None:
        return SearchResult("timeout")
    return SearchResult("found", path)


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


def gradient_bound_certificate(g, g_aug):
    """(D, C, A) for the edges g_aug adds to g, which must share g's
    vertex indexing and keep all of g's edges.

    Each added edge (u, w), u < w, is routed along a shortest path of g
    that steps from w to the lowest-index neighbor one step nearer u. D
    is the longest route, C the largest number of routes through one
    edge of g, and A the largest number of added edges at one vertex.
    Hoelder's inequality along the routes gives, for every f and every
    p >= 1,

        ||grad f||_{p, g_aug}^p <= (1 + D^(p-1) C) ||grad f||_{p, g}^p.

    Raises ValueError when the indexing differs, when g_aug lacks an
    edge of g, or when an added edge joins two components of g.
    """
    if g.verts != g_aug.verts:
        raise ValueError("graphs must share vertex indexing")
    base, aug = (e[:, 0] * g.n + e[:, 1] for e in (g.edges(), g_aug.edges()))
    lost = base[~np.isin(base, aug)]
    if len(lost):
        raise ValueError(f"g_aug lacks the edge {divmod(int(lost[0]), g.n)} of g")
    added = np.stack(np.divmod(aug[~np.isin(aug, base)], g.n), axis=1)
    if not len(added):
        return 0, 0, 0
    D, routed = 0, []
    for u in np.unique(added[:, 0]).tolist():
        dist = graph_distances(g, u)
        for w in added[added[:, 0] == u, 1].tolist():
            if dist[w] < 0:
                raise ValueError(f"added edge ({u}, {w}) joins two "
                                 f"components of g")
            D = max(D, int(dist[w]))
            while w != u:
                row = g.indices[g.indptr[w]:g.indptr[w + 1]]
                v = int(row[np.argmax(dist[row] == dist[w] - 1)])
                routed.append(min(v, w) * g.n + max(v, w))
                w = v
    C = int(np.unique(routed, return_counts=True)[1].max())
    return D, C, int(np.bincount(added.ravel()).max())
