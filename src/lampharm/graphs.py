"""Graph oracles, standard families, and finite ball materialization.

Infinite graphs are never materialized globally. A GraphOracle is a neighbor
function plus a distinguished origin; every computation either queries the
oracle directly or extracts a finite ball as a FiniteGraph. Neighbor lists
are always sorted and duplicate-free, so repeated materializations of the
same ball are identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .keys import (
    IntPoint,
    LampKey,
    PairKey,
    VertexKey,
    WordKey,
    _raw_lamp,
    _raw_word,
    format_key,
)

DEFAULT_VERTEX_BUDGET = 200_000


class InvalidVertexError(ValueError):
    """A key handed to an oracle does not denote a vertex of that graph."""


class BudgetExceededError(RuntimeError):
    """Ball materialization outgrew the configured vertex budget."""

    def __init__(self, partial_count, budget):
        self.partial_count = partial_count
        self.budget = budget
        super().__init__(
            f"ball exceeded vertex budget {budget} "
            f"(materialized {partial_count} vertices so far)"
        )


@dataclass(frozen=True)
class GraphOracle:
    """Neighbor-function view of a locally finite graph.

    neighbors(v) returns a sorted, duplicate-free, finite list of keys;
    the relation is symmetric and has no self-loops.

    Regular families may additionally provide a single-neighbor fast
    path: `regular_degree` asserts every vertex has exactly that degree,
    and `step_fn(v, i)` for i in range(regular_degree) enumerates the
    neighbors of v in some fixed family-specific order (not necessarily
    sorted). Long random walks use it to avoid materializing full
    neighbor lists; as a set, step_fn(v, .) must agree with neighbors(v).

    `walk_encoding` is set only by the family constructors that have an
    array form of their step_fn (the lamplighter of path(2) over the
    line, free groups). `walk_encoding(starts, steps)` returns a frame
    that holds walkers from those starts as numpy arrays for `steps`
    steps: `spawn(start, n)` makes the state of n walkers at `start`,
    `move(state, who, u)` moves walker who[j] to its step_fn neighbor
    number int(u[j] * regular_degree), `labels(state)` gives one bytes
    label per walker, equal for two walkers iff they stand on the same
    vertex, and `row_bytes` is the state's size per walker.
    """

    neighbors: Callable[[VertexKey], list]
    origin: VertexKey
    degree_bound: Optional[int] = None
    name: str = "graph"
    regular_degree: Optional[int] = None
    step_fn: Optional[Callable[[VertexKey, int], VertexKey]] = None
    walk_encoding: Optional[Callable[[tuple, int], "WalkFrame"]] = None


# ---------------------------------------------------------------------------
# standard families


def line_graph():
    """The two-way infinite line on IntPoint((n,))."""

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != 1:
            raise InvalidVertexError(f"not a line vertex: {v!r}")
        (x,) = v.coords
        return [IntPoint((x - 1,)), IntPoint((x + 1,))]

    return GraphOracle(
        nbrs, IntPoint((0,)), degree_bound=2, name="line",
        regular_degree=2, step_fn=_line_step,
    )


def _line_step(v, i):
    return IntPoint((v.coords[0] + (1 if i else -1),))


def _flip_step(v, i):
    return IntPoint((1 - v.coords[0],))


def cycle_graph(n):
    """Cycle on n >= 3 vertices 0..n-1."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != 1:
            raise InvalidVertexError(f"not a cycle vertex: {v!r}")
        (x,) = v.coords
        if not 0 <= x < n:
            raise InvalidVertexError(f"cycle({n}) has no vertex {x}")
        return sorted({IntPoint(((x - 1) % n,)), IntPoint(((x + 1) % n,))})

    def step(v, i):
        return IntPoint(((v.coords[0] + (1 if i else -1)) % n,))

    return GraphOracle(
        nbrs, IntPoint((0,)), degree_bound=2, name=f"cycle({n})",
        regular_degree=2, step_fn=step,
    )


def path_graph(n):
    """Path on n >= 1 vertices 0..n-1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != 1:
            raise InvalidVertexError(f"not a path vertex: {v!r}")
        (x,) = v.coords
        if not 0 <= x < n:
            raise InvalidVertexError(f"path({n}) has no vertex {x}")
        out = []
        if x > 0:
            out.append(IntPoint((x - 1,)))
        if x < n - 1:
            out.append(IntPoint((x + 1,)))
        return out

    bound = 2 if n >= 3 else (1 if n == 2 else 0)
    if n == 2:
        # the one regular path: each endpoint's sole neighbor is the other
        return GraphOracle(
            nbrs, IntPoint((0,)), degree_bound=1, name="path(2)",
            regular_degree=1, step_fn=_flip_step,
        )
    return GraphOracle(nbrs, IntPoint((0,)), degree_bound=bound, name=f"path({n})")


def grid_graph(d):
    """The integer lattice of dimension d >= 1."""
    if d < 1:
        raise ValueError(f"grid needs d >= 1, got {d}")

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != d:
            raise InvalidVertexError(f"not a {d}-dim grid vertex: {v!r}")
        out = []
        for i in range(d):
            for s in (-1, 1):
                c = list(v.coords)
                c[i] += s
                out.append(IntPoint(c))
        return sorted(out)

    def step(v, i):
        axis, s = divmod(i, 2)
        c = list(v.coords)
        c[axis] += 1 if s else -1
        return IntPoint(c)

    return GraphOracle(
        nbrs, IntPoint((0,) * d), degree_bound=2 * d, name=f"grid({d})",
        regular_degree=2 * d, step_fn=step,
    )


def caterpillar_graph():
    """Two-way infinite spine with one leaf per spine vertex.

    Spine vertex n is IntPoint((n, 0)), its leaf IntPoint((n, 1)).
    """

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != 2:
            raise InvalidVertexError(f"not a caterpillar vertex: {v!r}")
        n, t = v.coords
        if t == 0:
            return sorted(
                [IntPoint((n - 1, 0)), IntPoint((n + 1, 0)), IntPoint((n, 1))]
            )
        if t == 1:
            return [IntPoint((n, 0))]
        raise InvalidVertexError(f"not a caterpillar vertex: {v!r}")

    return GraphOracle(
        nbrs, IntPoint((0, 0)), degree_bound=3, name="caterpillar"
    )


def free_group_graph(rank):
    """Cayley graph of the free group of the given rank (a 2*rank-regular
    tree) on reduced words."""
    if rank < 1:
        raise ValueError(f"free group needs rank >= 1, got {rank}")
    letters = [j for r in range(1, rank + 1) for j in (r, -r)]

    def nbrs(v):
        if not isinstance(v, WordKey):
            raise InvalidVertexError(f"not a free-group vertex: {v!r}")
        if any(abs(a) > rank for a in v.letters):
            raise InvalidVertexError(f"letter out of range for rank {rank}")
        return sorted(v.append(a) for a in letters)

    def step(v, i):
        a = letters[i]
        w = v.letters
        if w and w[-1] == -a:
            return _raw_word(w[:-1])
        return _raw_word(w + (a,))

    return GraphOracle(
        nbrs, WordKey(()), degree_bound=2 * rank, name=f"free({rank})",
        regular_degree=2 * rank, step_fn=step,
        walk_encoding=lambda starts, steps: _WordFrame(letters, starts, steps),
    )


# ---------------------------------------------------------------------------
# combinators


def lamplighter(L, H, root_o):
    """Lamplighter graph over space graph H with lamp graph L rooted at
    root_o.

    Vertices are LampKeys (position in H, finitely supported lamp
    configuration). Moves either step the position in H with lamps fixed,
    or step the lamp at the current position inside L. The degree of (x, f)
    is deg_H(x) + deg_L(f(x)).
    """
    try:
        root_nbrs = L.neighbors(root_o)
    except Exception as e:
        raise InvalidVertexError(f"root {root_o!r} is not a vertex of L: {e}")
    if not root_nbrs:
        raise InvalidVertexError(
            f"lamp graph has no edge at root {root_o!r}"
        )

    def nbrs(v):
        if not isinstance(v, LampKey):
            raise InvalidVertexError(f"not a lamplighter vertex: {v!r}")
        out = []
        for x2 in H.neighbors(v.base):
            out.append(LampKey(x2, v.lamps))
        cur = v.lamp_at(v.base, root_o)
        for l2 in L.neighbors(cur):
            out.append(v.with_lamp(v.base, l2, root_o))
        return sorted(out)

    bound = None
    if L.degree_bound is not None and H.degree_bound is not None:
        bound = L.degree_bound + H.degree_bound

    rdeg = None
    step = None
    encoding = None
    if L.regular_degree is not None and H.regular_degree is not None:
        hr, lr = H.regular_degree, L.regular_degree
        h_step = H.step_fn or (lambda x, i: H.neighbors(x)[i])
        l_step = L.step_fn or (lambda l, i: L.neighbors(l)[i])
        rdeg = hr + lr

        def step(v, i):
            if i < hr:
                return _raw_lamp(h_step(v.base, i), v.lamps, v.canon[2])
            cur = v.lamp_at(v.base, root_o)
            return v.with_lamp(v.base, l_step(cur, i - hr), root_o)

        if L.step_fn is _flip_step and H.step_fn is _line_step:
            encoding = _LampLineFrame

    return GraphOracle(
        nbrs,
        LampKey(H.origin, ()),
        degree_bound=bound,
        name=f"lamplighter({L.name},{H.name})",
        regular_degree=rdeg,
        step_fn=step,
        walk_encoding=encoding,
    )


def direct_product(H1, H2):
    """Direct product: (x1, x2) ~ (x1', x2') iff exactly one coordinate
    moves along an edge of its factor."""

    def nbrs(v):
        if not isinstance(v, PairKey):
            raise InvalidVertexError(f"not a product vertex: {v!r}")
        out = [PairKey(a, v.right) for a in H1.neighbors(v.left)]
        out += [PairKey(v.left, b) for b in H2.neighbors(v.right)]
        return sorted(out)

    bound = None
    if H1.degree_bound is not None and H2.degree_bound is not None:
        bound = H1.degree_bound + H2.degree_bound

    rdeg = None
    step = None
    if (
        H1.regular_degree is not None
        and H2.regular_degree is not None
        and H1.step_fn is not None
        and H2.step_fn is not None
    ):
        r1 = H1.regular_degree
        s1, s2 = H1.step_fn, H2.step_fn
        rdeg = r1 + H2.regular_degree

        def step(v, i):
            if i < r1:
                return PairKey(s1(v.left, i), v.right)
            return PairKey(v.left, s2(v.right, i - r1))

    return GraphOracle(
        nbrs,
        PairKey(H1.origin, H2.origin),
        degree_bound=bound,
        name=f"product({H1.name},{H2.name})",
        regular_degree=rdeg,
        step_fn=step,
    )


def k_fuzz(G, k):
    """Graph on the same vertices with edges between vertices at distance
    <= k in G; the neighbors of v are the ball of radius k around v."""
    if k < 1:
        raise ValueError(f"fuzz parameter must be >= 1, got {k}")

    def nbrs(v):
        return sorted(ball(G, v, k).verts[1:])

    bound = None
    D = G.degree_bound
    if D is not None:
        if D <= 1:
            bound = D
        elif D == 2:
            bound = 2 * k
        else:
            bound = D * ((D - 1) ** k - 1) // (D - 2)
    return GraphOracle(nbrs, G.origin, degree_bound=bound, name=f"{G.name}^[{k}]")


# ---------------------------------------------------------------------------
# array walk frames


class WalkFrame:
    """Walkers as numpy arrays (see GraphOracle.walk_encoding). Concrete
    frames define `row_bytes`, `spawn` and `move`; `_rows(state)` is a
    2-D array whose row i determines walker i's vertex exactly."""

    def labels(self, state):
        rows = np.ascontiguousarray(self._rows(state))
        void = np.dtype((np.void, rows.shape[1] * rows.itemsize))
        return rows.view(void).ravel().tolist()

    def _rows(self, state):
        return state


class _LampLineFrame(WalkFrame):
    """Walkers on lamplighter(path(2), line, root) as one int64 row each:
    the position, then a bitset of the lamps that differ from the root
    over every site that the starts' lamps or `steps` moves from a start
    can reach. Choices follow step_fn: left, right, toggle the lamp at
    the position."""

    _DELTA = np.array([-1, 1, 0], dtype=np.int64)

    def __init__(self, starts, steps):
        pos = [s.base.coords[0] for s in starts]
        lit = [h.coords[0] for s in starts for h, _ in s.lamps]
        self.lo = min([min(pos) - steps] + lit)
        words = (max([max(pos) + steps] + lit) - self.lo) // 64 + 1
        self.row_bytes = 8 * (1 + words)

    def spawn(self, start, n):
        row = np.zeros(self.row_bytes // 8, dtype=np.int64)
        row[0] = start.base.coords[0]
        for h, _ in start.lamps:
            site = h.coords[0] - self.lo
            row[1 + site // 64] ^= np.left_shift(1, site % 64)
        return np.tile(row, (n, 1))

    def move(self, state, who, u):
        choice = (u * len(self._DELTA)).astype(np.intp)
        here = state[who, 0]
        state[who, 0] = here + self._DELTA[choice]
        toggle = choice == 2
        site = here[toggle] - self.lo
        state[who[toggle], 1 + (site >> 6)] ^= np.left_shift(1, site & 63)


class _WordFrame(WalkFrame):
    """Walkers on a free group as reduced words: one row of letters per
    walker, zero past the word's end, plus a length array. Choices index
    `letters` as step_fn does."""

    def __init__(self, letters, starts, steps):
        dtype = np.int8 if len(letters) < 256 else np.int64
        self.letters = np.array(letters, dtype=dtype)
        self.width = max(len(s.letters) for s in starts) + steps
        self.row_bytes = self.width * self.letters.itemsize + 8

    def spawn(self, start, n):
        words = np.zeros((n, self.width), dtype=self.letters.dtype)
        words[:, :len(start.letters)] = start.letters
        return words, np.full(n, len(start.letters), dtype=np.int64)

    def move(self, state, who, u):
        words, length = state
        a = self.letters[(u * len(self.letters)).astype(np.intp)]
        n = length[who]
        # a zero letter (an empty word) never cancels a generator
        back = words[who, np.maximum(n - 1, 0)] == -a
        gone, keep = who[back], who[~back]
        words[gone, n[back] - 1] = 0
        words[keep, n[~back]] = a[~back]
        length[who] += np.where(back, -1, 1)

    def _rows(self, state):
        return state[0]


# ---------------------------------------------------------------------------
# finite materialization


@dataclass
class FiniteGraph:
    """Materialized induced subgraph with boundary marking.

    Vertices carry a stable index; `adj` holds per-vertex sorted index
    lists, and `indptr`/`indices` are the same rows as int64 CSR arrays,
    built on first use. Boundary vertices are those with an
    oracle-neighbor outside `verts` (and, in a ball, those on the outer
    sphere); interior vertices therefore have their full degree
    represented.
    """

    verts: list
    adj: list
    boundary_mask: np.ndarray

    @property
    def n(self):
        return len(self.verts)

    @cached_property
    def indptr(self):
        out = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(a) for a in self.adj], out=out[1:])
        return out

    @cached_property
    def indices(self):
        flat = chain.from_iterable(self.adj)
        return np.fromiter(flat, dtype=np.int64, count=int(self.indptr[-1]))

    def row_owners(self):
        """The vertex each entry of `indices` belongs to."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @cached_property
    def _edges(self):
        u, v = self.row_owners(), self.indices
        keep = u < v
        return np.stack([u[keep], v[keep]], axis=1)

    def edges(self):
        """(m, 2) int array of unordered edges, u < v, lexicographic.
        This fixed enumeration is the index space of `gradient`."""
        return self._edges

    def n_edges(self):
        return len(self.edges())

    @classmethod
    def from_edges(cls, n, edges, boundary=(), verts=None):
        """Build directly from an undirected edge list (test/CLI input).
        Self-loops are rejected; duplicates collapse."""
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        mask = np.zeros(n, dtype=bool)
        for b in boundary:
            mask[b] = True
        if verts is None:
            verts = [IntPoint((i,)) for i in range(n)]
        return cls(list(verts), [sorted(s) for s in adj], mask)


def _index_row(index, nbrs):
    """Sorted indices of the oracle neighbors `nbrs` that `index` holds."""
    return sorted(j for j in map(index.get, nbrs) if j is not None)


def ball(G, center, R, budget=None):
    """Induced subgraph on {v : d(center, v) <= R}; vertex 0 is the center.

    One BFS pass calls G.neighbors once per vertex: the list both
    discovers new vertices (below radius R) and, once every vertex at
    distance <= R is known, gives the vertex's row. Neighbor lists are
    expanded in sorted order, so the vertex indexing is canonical, and
    B_r for r < R is the prefix of the vertices at distance <= r. The
    boundary is the sphere d == R: closer vertices have every neighbor
    inside. Raises BudgetExceededError once more than `budget` vertices
    are discovered (default DEFAULT_VERTEX_BUDGET).
    """
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    if budget is None:
        budget = DEFAULT_VERTEX_BUDGET
    index = {center: 0}
    verts = [center]
    dist = [0]
    adj = []
    # verts grows while it is walked: it is the BFS queue
    for v, dv in zip(verts, dist):
        nbrs = G.neighbors(v)
        if dv < R:
            for w in nbrs:
                if w not in index:
                    if len(verts) >= budget:
                        raise BudgetExceededError(len(verts), budget)
                    index[w] = len(verts)
                    verts.append(w)
                    dist.append(dv + 1)
        adj.append(_index_row(index, nbrs))
    return FiniteGraph(verts, adj, np.array(dist) == R)


def induced_on(G, verts):
    """Induced FiniteGraph on an explicit vertex list of oracle G.
    Boundary = vertices with an oracle-neighbor outside the list."""
    index = {v: i for i, v in enumerate(verts)}
    adj = []
    mask = np.zeros(len(verts), dtype=bool)
    for i, v in enumerate(verts):
        nbrs = G.neighbors(v)
        adj.append(_index_row(index, nbrs))
        mask[i] = len(adj[i]) < len(nbrs)
    return FiniteGraph(list(verts), adj, mask)


def graph_distances(g, sources=0, cutoff=None, allowed=None):
    """BFS distances in a FiniteGraph from one vertex index or several.

    The search expands no vertex at distance `cutoff` and enters only
    vertices where the boolean mask `allowed` is set (sources always
    count). Vertices it does not reach get -1.
    """
    dist = dict.fromkeys(np.atleast_1d(sources).tolist(), 0)
    q = deque(dist)
    while q:
        u = q.popleft()
        du = dist[u] + 1
        if cutoff is not None and du > cutoff:
            continue
        for w in g.adj[u]:
            if w not in dist and (allowed is None or allowed[w]):
                dist[w] = du
                q.append(w)
    out = np.full(g.n, -1, dtype=np.int64)
    out[np.fromiter(dist, dtype=np.int64, count=len(dist))] = list(
        dist.values())
    return out


def ball_sizes(g, R):
    """|B_r| for r = 0..R, read off g = B_R: the vertices within
    distance r of the center are its first |B_r| indices."""
    dist = graph_distances(g, 0)
    return np.cumsum(np.bincount(dist, minlength=R + 1)).tolist()


def end_estimate(G, r, R, budget=None):
    """Finite-scale proxy for the number of ends: connected components of
    B_R minus B_r that contain a vertex at distance exactly R.

    A heuristic, not the end definition itself: it stabilizes to the end
    count as r and R grow for the shipped families, and exceeding 2 at
    moderate scale flags infinitely many ends. Components that do not reach
    the outer sphere are bounded pockets and are discarded.
    """
    if not 0 <= r < R:
        raise ValueError(f"need 0 <= r < R, got r={r}, R={R}")
    g = ball(G, G.origin, R, budget=budget)
    dist = graph_distances(g, 0)
    shell = dist > r
    unseen = dist == R
    touching = 0
    for s in np.flatnonzero(unseen).tolist():
        if unseen[s]:
            unseen &= graph_distances(g, s, allowed=shell) < 0
            touching += 1
    return touching


# ---------------------------------------------------------------------------
# exports


def edge_list_text(g):
    """Edge-list export, one 'u v' per line (fixed enumeration order)."""
    return "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"


def vertex_table_text(g):
    """Vertex table export: 'index<TAB>printed key' per line."""
    return "\n".join(f"{i}\t{format_key(v)}" for i, v in enumerate(g.verts)) + "\n"
