"""Graph oracles, standard families, and finite ball materialization.

Infinite graphs are never materialized globally. A GraphOracle is a neighbor
function plus a distinguished origin; every computation either queries the
oracle directly or extracts a finite ball as a FiniteGraph. Neighbor lists
are always sorted and duplicate-free, so repeated materializations of the
same ball are identical.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .keys import (
    IntPoint,
    LampKey,
    PairKey,
    VertexKey,
    WordKey,
    _raw_lamp,
    _raw_point,
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

    A family has a single-neighbor fast path `step_fn` exactly when it
    is regular, and its degree is then `degree_bound`: `step_fn(v, i)`
    for i in range(degree_bound) enumerates the neighbors of v in some
    fixed family-specific order (not necessarily sorted). Long random
    walks use it to avoid materializing full neighbor lists; as a set,
    step_fn(v, .) must agree with neighbors(v).

    `walk_encoding` is set only by the family constructors that have an
    array form of their vertices: the free groups, the line, the grids,
    the caterpillar, the direct product of two lattices, and the
    lamplighter of path(2) over any of these lattices (see _LampFrame).
    `walk_encoding(starts, steps)` returns a WalkFrame that encodes every
    vertex within `steps` moves of the starts as one numpy row. Walks
    use `spawn(start, n)` (the state of n walkers at `start`),
    `move(state, who, u)` (walker who[j] at v goes to its step_fn
    neighbor number int(u[j] * degree_bound), or on an irregular
    family to neighbors(v)[int(u[j] * deg v)]) and `labels(state)` (one
    bytes label per walker: its row's bytes without their trailing zero
    bytes, equal iff two walkers stand on the same vertex); `ball` uses
    `ball_rows`, `expand`, `follow` and `decode` (see WalkFrame). All
    frames but the free groups' share one step between `move` and
    `follow`. `row_bytes` is the size of one row.
    """

    neighbors: Callable[[VertexKey], list]
    origin: VertexKey
    degree_bound: Optional[int] = None
    name: str = "graph"
    step_fn: Optional[Callable[[VertexKey, int], VertexKey]] = None
    walk_encoding: Optional[Callable[[tuple, int], "WalkFrame"]] = None


# ---------------------------------------------------------------------------
# standard families


def line_graph():
    """The two-way infinite line on IntPoint((n,)): grid(1), named
    "line"."""
    return dataclasses.replace(grid_graph(1), name="line")


def _flip_step(v, i):
    return _raw_point((1 - v.coords[0],))


def cycle_graph(n):
    """Cycle on n >= 3 vertices 0..n-1."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")

    def step(v, i):
        return _raw_point(((v.coords[0] + (1 if i else -1)) % n,))

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != 1:
            raise InvalidVertexError(f"not a cycle vertex: {v!r}")
        (x,) = v.coords
        if not 0 <= x < n:
            raise InvalidVertexError(f"cycle({n}) has no vertex {x}")
        return sorted([step(v, 0), step(v, 1)])

    return GraphOracle(
        nbrs, IntPoint((0,)), degree_bound=2, name=f"cycle({n})",
        step_fn=step,
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
            out.append(_raw_point((x - 1,)))
        if x < n - 1:
            out.append(_raw_point((x + 1,)))
        return out

    # path(2) is the one regular path: each endpoint's sole neighbor is
    # the other
    return GraphOracle(nbrs, IntPoint((0,)), degree_bound=min(n - 1, 2),
                       name=f"path({n})",
                       step_fn=_flip_step if n == 2 else None)


def grid_graph(d):
    """The integer lattice of dimension d >= 1."""
    if d < 1:
        raise ValueError(f"grid needs d >= 1, got {d}")

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != d:
            raise InvalidVertexError(f"not a {d}-dim grid vertex: {v!r}")
        return sorted([_grid_step(v, i) for i in range(2 * d)])

    return GraphOracle(
        nbrs, IntPoint((0,) * d), degree_bound=2 * d, name=f"grid({d})",
        step_fn=_grid_step,
        walk_encoding=lambda starts, steps: _IntFrame(d, starts, steps),
    )


def _grid_step(v, i):
    axis, s = divmod(i, 2)
    c = list(v.coords)
    c[axis] += 1 if s else -1
    return _raw_point(tuple(c))


def caterpillar_graph():
    """Two-way infinite spine with one leaf per spine vertex.

    Spine vertex n is IntPoint((n, 0)), its leaf IntPoint((n, 1)).
    """

    def nbrs(v):
        if not isinstance(v, IntPoint) or len(v.coords) != 2:
            raise InvalidVertexError(f"not a caterpillar vertex: {v!r}")
        n, t = v.coords
        if t == 0:
            return [_raw_point((n - 1, 0)), _raw_point((n, 1)),
                    _raw_point((n + 1, 0))]
        if t == 1:
            return [_raw_point((n, 0))]
        raise InvalidVertexError(f"not a caterpillar vertex: {v!r}")

    return GraphOracle(
        nbrs, IntPoint((0, 0)), degree_bound=3, name="caterpillar",
        walk_encoding=lambda starts, steps: _CaterpillarFrame(starts, steps),
    )


def free_group_graph(rank):
    """Cayley graph of the free group of the given rank (a 2*rank-regular
    tree) on reduced words."""
    if rank < 1:
        raise ValueError(f"free group needs rank >= 1, got {rank}")
    letters = [j for r in range(1, rank + 1) for j in (r, -r)]

    def step(v, i):
        a = letters[i]
        w = v.letters
        if w and w[-1] == -a:
            return _raw_word(w[:-1])
        return _raw_word(w + (a,))

    def nbrs(v):
        if not isinstance(v, WordKey):
            raise InvalidVertexError(f"not a free-group vertex: {v!r}")
        if any(abs(a) > rank for a in v.letters):
            raise InvalidVertexError(f"letter out of range for rank {rank}")
        return sorted([step(v, i) for i in range(2 * rank)])

    return GraphOracle(
        nbrs, WordKey(()), degree_bound=2 * rank, name=f"free({rank})",
        step_fn=step,
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

    The oracle path does not vet lamps: `neighbors` reads only the lamp
    at the current position, so a key with a lamp at a position foreign
    to H passes it. The array frame's encoding vets every lamp position
    of its starts with H.neighbors, once per frame.
    """
    try:
        root_nbrs = L.neighbors(root_o)
    except Exception as e:
        raise InvalidVertexError(f"root {root_o!r} is not a vertex of L: {e}")
    if not root_nbrs:
        raise InvalidVertexError(f"lamp graph has no edge at root {root_o!r}")

    def nbrs(v):
        if not isinstance(v, LampKey):
            raise InvalidVertexError(f"not a lamplighter vertex: {v!r}")
        out = [_raw_lamp(x2, v.lamps) for x2 in H.neighbors(v.base)]
        cur = v.lamp_at(v.base, root_o)
        out += [v.with_lamp(v.base, l2, root_o) for l2 in L.neighbors(cur)]
        return sorted(out)

    bound = None
    if L.degree_bound is not None and H.degree_bound is not None:
        bound = L.degree_bound + H.degree_bound

    step = encoding = None
    if L.step_fn is not None and H.step_fn is not None:
        hr, h_step, l_step = H.degree_bound, H.step_fn, L.step_fn

        def step(v, i):
            if i < hr:
                return _raw_lamp(h_step(v.base, i), v.lamps)
            cur = v.lamp_at(v.base, root_o)
            return v.with_lamp(v.base, l_step(cur, i - hr), root_o)

        # path(2) lamps over a lattice: a bitset atop the lattice's rows
        if L.step_fn is _flip_step and isinstance(
                array_frame(H, (H.origin,), 0), _IntFrame):
            lit = _flip_step(root_o, 0)

            def encoding(starts, steps):
                # the frame reads every lamp position's fields, which the
                # oracle path never does: vet them
                for s in starts:
                    for h, _ in s.lamps:
                        H.neighbors(h)
                base = H.walk_encoding(tuple(s.base for s in starts), steps)
                return _LampFrame(base, starts, lit)

    return GraphOracle(nbrs, LampKey(H.origin, ()), degree_bound=bound,
                       name=f"lamplighter({L.name},{H.name})", step_fn=step,
                       walk_encoding=encoding)


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

    step = None
    if H1.step_fn is not None and H2.step_fn is not None:
        r1, s1, s2 = H1.degree_bound, H1.step_fn, H2.step_fn

        def step(v, i):
            if i < r1:
                return PairKey(s1(v.left, i), v.right)
            return PairKey(v.left, s2(v.right, i - r1))

    # a factor that steps as grid(d) does is d-dimensional
    d1, d2 = (H.degree_bound // 2 if H.step_fn is _grid_step else 0
              for H in (H1, H2))
    return GraphOracle(
        nbrs,
        PairKey(H1.origin, H2.origin),
        degree_bound=bound,
        name=f"product({H1.name},{H2.name})",
        step_fn=step,
        walk_encoding=(lambda starts, steps: _PairFrame(d1, d2, starts, steps))
        if d1 and d2 else None,
    )


def k_fuzz(G, k):
    """Graph on the same vertices with edges between vertices at distance
    <= k in G; the neighbors of v are the ball of radius k around v."""
    if k < 1:
        raise ValueError(f"fuzz parameter must be >= 1, got {k}")

    def nbrs(v):
        # a BFS that calls G.neighbors only on the vertices closer than k
        seen, layer = {v}, [v]
        for _ in range(k):
            nxt = []
            for u in layer:
                for w in G.neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            layer = nxt
        seen.remove(v)
        return sorted(seen)

    return GraphOracle(nbrs, G.origin, name=f"{G.name}^[{k}]")


# ---------------------------------------------------------------------------
# array frames

# a frame whose rows are wider than this is not built (see array_frame),
# so a walk batch's rows stay under walks.BATCH_TRIALS * 2048 B (41 MB)
ARRAY_ROW_BYTES_CAP = 2048
# frames refuse coordinates this large, so +-1 moves cannot leave int64
_COORD_LIMIT = 2**62


def array_frame(G, starts, steps):
    """G's WalkFrame for vertices within `steps` moves of `starts`, or
    None where G has no walk_encoding, a row would exceed
    ARRAY_ROW_BYTES_CAP, a coordinate could leave int64, or a start's
    row does not decode back to it (a key the frame cannot encode
    exactly, such as a lamp entry at the root state). The starts must
    already be vetted as vertices of G."""
    if G.walk_encoding is None:
        return None
    try:
        frame = G.walk_encoding(tuple(starts), steps)
    except OverflowError:
        return None
    if frame.row_bytes > ARRAY_ROW_BYTES_CAP or any(
            frame.decode(frame.ball_rows(s)) != [s] for s in starts):
        return None
    return frame


class WalkFrame:
    """Vertices as numpy rows (see GraphOracle.walk_encoding).

    Walks: concrete frames define `row_bytes` and `spawn`, and
    `_rows(state)` is a 2-D array whose row i determines walker i's
    vertex exactly. `spawn` makes C-contiguous arrays, which a step
    updates through flat views (column c of walker i is element
    i * width + c).

    Balls: `ball_rows(center)` is the center's row; `code(key)` numbers
    each vertex the frame reaches by a distinct int below `code_bound`;
    `expand(rows, codes)` gives the codes of a fixed number k of choices
    per row (its neighbors in sorted key order, its own code where it
    lacks one); `follow(rows, picks)` the rows of the choices `picks`
    (choice j of row i is i * k + j); and `decode(rows)` the vertex keys.

    A lattice frame states its neighbor step once, as `_step(state,
    who, choice)` (row who[j] goes in place to neighbor choice[j] in
    step_fn order), and ball choice j is walk choice `_ball_choice[j]`.
    `_WordFrame` keeps its own `move` and `follow`: its ball choices (a
    drop, every append, self-padded where it cancels) are no permutation
    of its 2r letters, and its walk state holds lengths that rows lack.

    Column 0 of a vertex's row is its key's potential.sign_projection:
    the first coordinate (the left factor's on a product), the base
    position's, or a word's first letter (0 for the identity), so the sign
    split reads the rows.
    """

    def move(self, state, who, u):
        self._step(state, who, (u * len(self._ball_choice)).astype(np.intp))

    def follow(self, rows, picks):
        row, j = np.divmod(picks, len(self._ball_choice))
        out = rows[row]
        self._step(out, np.arange(len(out)), self._ball_choice[j])
        return out

    def labels(self, state):
        # as numpy bytes, tolist() drops each row's trailing zero bytes;
        # every row has the same width, so a label still names its row
        rows = np.ascontiguousarray(self._rows(state))
        width = rows.shape[1] * rows.itemsize
        if not width:
            return [b""] * len(rows)
        return rows.view(f"S{width}").ravel().tolist()

    def _rows(self, state):
        return state

    def ball_rows(self, center):
        return self._rows(self.spawn(center, 1))


class _IntFrame(WalkFrame):
    """Walkers on the line or grid(d) as rows of d int64 coordinates.
    Walk choice i moves axis i >> 1 down if i is even, else up; ball
    choices are -e_0..-e_{d-1}, then +e_{d-1}..+e_0. A code is mixed
    radix over the box of the starts +- steps, the last axis fastest."""

    def __init__(self, d, starts, steps):
        axes = list(zip(*map(self._coords, starts)))
        lo, hi = self._box([min(a) - steps for a in axes],
                           [max(a) + steps for a in axes])
        if max(-min(lo), max(hi)) >= _COORD_LIMIT:
            raise OverflowError(f"coordinates in {lo}..{hi} overflow int64")
        self.row_bytes = 8 * d
        self._ball_choice = np.r_[0:2 * d:2, 2 * d - 1:0:-2]
        self._sign = np.array([-1, 1] * d)
        sizes = [h - l + 1 for l, h in zip(lo, hi)]
        self._lo, self._sizes, self.code_bound = lo, sizes, math.prod(sizes)
        self._strides = [math.prod(sizes[a + 1:]) for a in range(d)]
        if self.code_bound < 2**63:
            s = np.array(self._strides, dtype=np.int64)
            self._code_steps = np.concatenate([-s, s[::-1]])

    def _box(self, lo, hi):
        return lo, hi

    def _coords(self, key):
        return key.coords

    def spawn(self, start, n):
        return np.tile(np.array(self._coords(start), dtype=np.int64), (n, 1))

    def _step(self, state, who, choice):
        flat = state.reshape(-1)
        flat[who * state.shape[1] + (choice >> 1)] += self._sign[choice]

    def code(self, key):
        return sum((x - l) * s for x, l, s in
                   zip(self._coords(key), self._lo, self._strides))

    def code_rows(self, codes):
        """The rows of the box's sites numbered `codes`, vectorized."""
        return np.stack(np.unravel_index(codes, self._sizes), 1) + self._lo

    def expand(self, rows, codes):
        return (codes[:, None] + self._code_steps).ravel()

    def decode(self, rows):
        return [_raw_point(tuple(r)) for r in rows.tolist()]


class _PairFrame(_IntFrame):
    """Walkers on the product of a d1- and a d2-dimensional lattice as
    grid(d1 + d2) rows: left coordinates, then right. The PairKeys sort,
    and the product's step_fn orders its choices, as the grid's do."""

    def __init__(self, d1, d2, starts, steps):
        self.d1 = d1
        super().__init__(d1 + d2, starts, steps)

    def _coords(self, key):
        return key.left.coords + key.right.coords

    def decode(self, rows):
        d1 = self.d1
        return [PairKey(_raw_point(tuple(r[:d1])), _raw_point(tuple(r[d1:])))
                for r in rows.tolist()]


class _CaterpillarFrame(_IntFrame):
    """Walkers on the caterpillar as rows (n, t), t = 1 on a leaf. A
    spine vertex's choices are its sorted neighbors left, leaf, right,
    for walks and balls alike; a leaf's one choice is its spine vertex.
    A code is 2 * (n - lo) + t, lo the box's least n."""

    def __init__(self, starts, steps):
        super().__init__(2, starts, steps)
        self._ball_choice = np.arange(3)

    def _box(self, lo, hi):
        return [lo[0], 0], [hi[0], 1]

    def _step(self, state, who, choice):
        flat = state.reshape(-1)
        at = 2 * who
        spine = flat[at + 1] == 0
        flat[at] += (choice - 1) * spine
        flat[at + 1] = spine & (choice == 1)

    def expand(self, rows, codes):
        step = np.where(rows[:, 1:] == 0, [-2, 1, 2], [-1, 0, 0])
        return (codes[:, None] + step).ravel()


class _LampFrame(WalkFrame):
    """Walkers on lamplighter(path(2), H, root) over a lattice H: the row
    of H's frame `base` (box: the starts' positions +- steps), then a
    bitset of the lamps off the root (state `lit`): bit b < n lights the
    site of base code b, n the box's sites, and the starts' lamps outside
    the box, which no move reaches, follow. Walk choices follow step_fn:
    the base's, then toggle; ball choices are the base's first d, toggle,
    its last d. A code is the position's base code atop the n in-box
    bits, which fits int64 for balls to R = 27 on Z, 2 on Z^2 and 0 on
    Z^3; a row fits ARRAY_ROW_BYTES_CAP for walks of 63 steps on Z^2 and
    11 on Z^3 (12 from one base position)."""

    def __init__(self, base, starts, lit):
        self.base, self.lit = base, lit
        self.n = n = base.code_bound
        self.d = d = len(base._strides)
        box = list(zip(base._lo, base._sizes))
        self._far = sorted({h for s in starts for h, _ in s.lamps if not all(
            0 <= x - lo < z for x, (lo, z) in zip(base._coords(h), box))})
        self._far_bit = {h: n + j for j, h in enumerate(self._far)}
        # too wide a row or code is refused before anything grows with n
        self.row_bytes = base.row_bytes + 8 * -(-(n + len(self._far)) // 64)
        self.code_bound = n << n if n < 63 else 1 << 63
        # each axis's step in every choice; the toggle, 2d, moves none
        c = np.arange(2 * d + 1)
        self._axes = [(a, (c >> 1 == a) * (2 * (c & 1) - 1), lo, z)
                      for a, (lo, z) in enumerate(box)]
        self._ball_choice = np.insert(base._ball_choice, d, 2 * d)
        if self.code_bound < 2**63:
            self._code_steps = np.insert(base._code_steps, d, 0) << n

    def spawn(self, start, n):
        row = np.zeros(self.row_bytes // 8, dtype=np.int64)
        row[:self.d] = self.base._coords(start.base)
        for h, _ in start.lamps:
            b = self._far_bit[h] if h in self._far_bit else self.base.code(h)
            row[self.d + b // 64] ^= np.left_shift(1, b % 64)
        return np.tile(row, (n, 1))

    def _step(self, state, who, choice):
        # one read per coordinate serves its move and the toggled site's
        # base code (Horner form); a row that does not toggle xors zero
        flat = state.reshape(-1)
        at = who * state.shape[1]
        for a, steps, lo, size in self._axes:
            col = at + a if a else at
            x = flat[col]
            flat[col] = x + steps[choice]
            site = site * size + (x - lo) if a else x - lo
        mask = np.left_shift(1, site & 63)
        mask *= choice == 2 * self.d
        flat[at + self.d + (site >> 6)] ^= mask

    def code(self, key):
        lamps = sum(1 << self.base.code(h) for h, _ in key.lamps
                    if h not in self._far_bit)
        return self.base.code(key.base) << self.n | lamps

    def expand(self, rows, codes):
        code = codes[:, None] + self._code_steps
        code[:, self.d] ^= np.left_shift(1, codes >> self.n)
        return code.ravel()

    def decode(self, rows):
        n, d = self.n, self.d
        word = np.ascontiguousarray(rows[:, d:], dtype="<i8").view(np.uint8)
        owner, bit = np.nonzero(np.unpackbits(word, axis=1, bitorder="little"))
        used, slot = np.unique(bit, return_inverse=True)
        far = used >= n
        sites = self.base.decode(self.base.code_rows(used[~far]))
        sites += [self._far[b - n] for b in used[far].tolist()]
        # a vertex's lamps sort by site, the far ones among the others
        rank = np.argsort(sorted(range(len(sites)), key=sites.__getitem__))
        slot = slot[np.lexsort((rank[slot], owner))].tolist()
        entry = [(x, self.lit) for x in sites]
        ends = np.searchsorted(owner, np.arange(1, len(rows) + 1)).tolist()
        return [_raw_lamp(x, tuple([entry[j] for j in slot[a:b]]))
                for x, a, b in zip(self.base.decode(rows[:, :d]),
                                   [0] + ends, ends)]


class _WordFrame(WalkFrame):
    """Walkers on a free group as reduced words: one row of letters per
    walker, zero past the word's end, plus a length array. Walk choices
    index `letters` as step_fn does; ball choices are: drop the last
    letter, then append each letter in ascending order. A lone start's
    first len - steps letters never change; a code numbers the rest level
    by level, as the tree's BFS does (`_levels[l]` of them are shorter
    than l), appending a letter to index i of a level giving index
    i * (2r - 1) plus the letter's rank among those not cancelling."""

    def __init__(self, letters, starts, steps):
        dtype = np.int8 if len(letters) < 256 else np.int64
        self.letters = np.array(letters, dtype=dtype)
        self.width = max(len(s.letters) for s in starts) + steps
        self.row_bytes = self.width * self.letters.itemsize + 8
        # the letter each ball choice writes; 0 drops the last one
        self._choices = np.concatenate([[0], np.sort(letters)]).astype(dtype)
        self._skip = max(0, self.width - 2 * steps) if len(starts) < 2 else 0
        q = len(letters) - 1
        self._levels = list(itertools.accumulate(
            [0, 1] + [(q + 1) * q**k for k in range(self.width - self._skip)]))
        self.code_bound = self._levels[-1]

    def spawn(self, start, n):
        words = np.zeros((n, self.width), dtype=self.letters.dtype)
        words[:, :len(start.letters)] = start.letters
        return words, np.full(n, len(start.letters), dtype=np.int64)

    def move(self, state, who, u):
        words, length = state
        flat = words.reshape(-1)
        a = self.letters[(u * len(self.letters)).astype(np.intp)]
        n = length[who]
        # flat index of the cell past each word's end; it stays inside the
        # walker's row because the width covers the start plus `steps`
        # moves, and that cell is zero
        top = who * self.width + n
        # an empty word reads its own zero cell, and a zero letter never
        # cancels a generator
        back = flat[top - (n > 0)] == -a
        # a cancelling letter clears the last letter, any other is written
        # past the end
        top -= back
        a[back] = 0
        flat[top] = a
        length[who] = n + 1 - 2 * back

    def _rows(self, state):
        return state[0]

    def labels(self, state):
        # a label is its word's letters at any width, so the rows are cut
        # at the longest word: fewer zero bytes for labels to strip
        words, length = state
        return super().labels((words[:, :length.max()], length))

    def code(self, key):
        w, i = (0,) + key.letters, 0
        for t in range(self._skip + 1, len(w)):
            i = i * (len(self.letters) - 1) + sum(
                b < w[t] and b != -w[t - 1] for b in self.letters.tolist())
        return self._levels[len(w) - 1 - self._skip] + i

    def expand(self, rows, codes):
        n, k = len(rows), len(self._choices)
        levels = np.array(self._levels, dtype=np.int64)
        level = np.searchsorted(levels, codes, side="right") - 1
        i = codes - levels[level]
        last = rows[np.arange(n), np.maximum(level + self._skip - 1, 0)]
        # the append that cancels the last letter; none (k - 1) if empty
        cancel = np.searchsorted(self._choices[1:], -last)
        cancel[last == 0] = k - 1
        # choice-major, so each operation runs along the rows
        code = np.empty((k, n), dtype=np.int64)
        # a one-letter suffix drops to the empty one, code 0, the identity's
        code[0] = np.where(level > 1, levels[level - 1] + i // (k - 2), 0)
        j = np.arange(k - 1)[:, None]
        code[1:] = np.where(j == cancel, codes,
                            levels[level + 1] + i * (k - 2) + j - (j > cancel))
        return code.T.ravel()

    def follow(self, rows, picks):
        row, choice = np.divmod(picks, len(self._choices))
        out = rows[row]
        # a drop clears the last letter, an append writes the first zero
        # cell, which every row has past its word's end
        at = (out == 0).argmax(axis=1) - (choice == 0)
        out[np.arange(len(out)), at] = self._choices[choice]
        return out

    def decode(self, rows):
        length = np.count_nonzero(rows, axis=1).tolist()
        return [_raw_word(tuple(r[:m])) for r, m in zip(rows.tolist(), length)]


# ---------------------------------------------------------------------------
# finite materialization


@dataclass(eq=False)
class FiniteGraph:
    """Materialized induced subgraph with boundary marking.

    Vertices carry a stable index; `verts[i]` is vertex i's key. The
    adjacency is stored once, as int64 CSR arrays: the neighbors of
    vertex v are the sorted indices `indices[indptr[v]:indptr[v + 1]]`,
    and `n` is read off `indptr`. `adj` builds the same rows as Python
    lists on each read, for Python-loop code. Boundary vertices
    are those with an oracle-neighbor outside `verts` (and, in a ball,
    those on the outer sphere); interior vertices therefore have their
    full degree represented. A ball also keeps `center_dist`, the
    distance of each vertex from vertex 0, its center; elsewhere it is
    None. A ball built on a WalkFrame keeps its `rows` (row i encodes
    vertex i) and `frame` instead of keys, and decodes `verts` on first
    read; the solvers and probes never read it. A FiniteGraph is not
    changed once built; it compares and hashes by identity.
    """

    _verts: Optional[list]
    indptr: np.ndarray
    indices: np.ndarray
    boundary_mask: np.ndarray
    center_dist: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None
    frame: Optional[WalkFrame] = None

    @property
    def verts(self):
        if self._verts is None:
            self._verts = self.frame.decode(self.rows)
        return self._verts

    @property
    def n(self):
        return len(self.indptr) - 1

    @property
    def adj(self):
        flat, ptr = self.indices.tolist(), self.indptr.tolist()
        return [flat[a:b] for a, b in zip(ptr, ptr[1:])]

    def row_owners(self):
        """The vertex each entry of `indices` belongs to."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def edges(self):
        """(m, 2) int array of unordered edges, u < v, lexicographic.
        This fixed enumeration is the index space of `gradient`."""
        u, v = self.row_owners(), self.indices
        keep = u < v
        return np.stack([u[keep], v[keep]], axis=1)

    @classmethod
    def from_edges(cls, n, edges, boundary=(), verts=None):
        """Build directly from an undirected edge list (test/CLI input).
        Duplicate edges collapse. A self-loop, an edge or boundary index
        outside range(n), or a `verts` list not of length n raises
        ValueError; an endpoint or boundary index that is not an integer,
        TypeError."""
        # index() refuses a float, which the int64 cast would truncate
        e = np.array([tuple(map(operator.index, uv)) for uv in edges],
                     dtype=np.int64).reshape(-1, 2)
        bad = (e[:, 0] == e[:, 1]) | ((e < 0) | (e >= n)).any(axis=1)
        if bad.any():
            u, v = e[np.argmax(bad)].tolist()
            if u == v:
                raise ValueError(f"self-loop at {u}")
            raise ValueError(f"edge ({u},{v}) out of range")
        # each edge in both directions, sorted by (u, v), duplicates gone
        both = np.concatenate([e, e[:, ::-1]])
        u, v = np.divmod(np.unique(both[:, 0] * n + both[:, 1]), max(n, 1))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
        b = np.array([operator.index(x) for x in boundary], dtype=np.int64)
        bad = (b < 0) | (b >= n)
        if bad.any():
            raise ValueError(f"boundary vertex {b[bad][0]} out of range")
        mask = np.zeros(n, dtype=bool)
        mask[b] = True
        if verts is None:
            verts = [IntPoint((i,)) for i in range(n)]
        verts = list(verts)
        if len(verts) != n:
            raise ValueError(f"{len(verts)} vertex keys for {n} vertices")
        return cls(verts, indptr, v, mask)


def ball(G, center, R, budget=None):
    """Induced subgraph on {v : d(center, v) <= R}; vertex 0 is the center.

    A BFS whose vertex indexing is canonical: each layer lists the new
    neighbors of the previous layer's vertices in vertex order, each
    vertex's neighbors in sorted key order, so B_r for r < R is the
    prefix of the vertices at distance <= r. The boundary is the sphere
    d == R: closer vertices have every neighbor inside. Raises
    BudgetExceededError once more than `budget` vertices are discovered
    (default DEFAULT_VERTEX_BUDGET).

    On oracles with an array frame (see array_frame) the BFS runs on the
    frame's rows and calls G.neighbors once, on the center, to vet it;
    the graph keeps the rows and decodes keys only when `verts` is read.
    Elsewhere it calls G.neighbors once per vertex: the list both
    discovers new vertices (below radius R) and gives the vertex's row.
    Both give the same FiniteGraph.
    """
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    if budget is None:
        budget = DEFAULT_VERTEX_BUDGET
    nbrs = G.neighbors(center)
    # R + 1 moves: the final lookup steps off the sphere
    frame = array_frame(G, (center,), R + 1)
    if frame is not None:
        g = _array_ball(frame, center, R, budget)
        if g is not None:
            return g
    return _oracle_ball(G, center, nbrs, R, budget)


def _oracle_ball(G, center, nbrs, R, budget):
    """ball's one-pass BFS on G.neighbors; `nbrs` are the center's."""
    index = {center: 0}
    verts = [center]
    dist = [0]
    indptr = [0]
    indices = []
    # verts grows while it is walked: it is the BFS queue
    for v, dv in zip(verts, dist):
        if nbrs is None:
            nbrs = G.neighbors(v)
        if dv < R:
            for w in nbrs:
                if w not in index:
                    if len(verts) >= budget:
                        raise BudgetExceededError(len(verts), budget)
                    index[w] = len(verts)
                    verts.append(w)
                    dist.append(dv + 1)
        indices += sorted(j for j in map(index.get, nbrs) if j is not None)
        indptr.append(len(indices))
        nbrs = None
    dist = np.array(dist, dtype=np.int64)
    return FiniteGraph(verts, np.array(indptr, dtype=np.int64),
                       np.array(indices, dtype=np.int64), dist == R, dist)


# two int64 tables over every code (16 B a code) number a ball's codes,
# faster than sorting, where there are this many or fewer per budget vertex
_DENSE_CODES_PER_VERTEX = 4


def _array_ball(frame, center, R, budget):
    """ball on a frame's rows, or None where its codes pass int64. Each
    layer expands its rows' codes by every choice: a numbered code is
    that neighbor, and below radius R the first occurrence of each other
    code is a vertex of the next layer, numbered in order. So the
    layers' choices give every vertex's CSR row.
    """
    if frame.code_bound >= 2**63:
        return None
    rows = frame.ball_rows(center)
    codes = np.array([frame.code(center)], dtype=np.int64)
    dense = frame.code_bound <= _DENSE_CODES_PER_VERTEX * budget
    if dense:
        # number[c]: code c's vertex (-1: none yet); first[c]: its first choice
        number = np.full(frame.code_bound, -1, dtype=np.int64)
        first = np.full(frame.code_bound, np.iinfo(np.int64).max)
        number[codes] = 0
    layers, layer_codes, nbrs, n = [rows], [codes], [], 1
    for r in range(R + 1):
        ids = code = frame.expand(layers[-1], layer_codes[-1])
        if not dense:
            # the same tables over groups of equal codes among the
            # choices and the two last layers, which hold every neighbor
            both = np.concatenate(layer_codes[-2:] + [code])
            uniq, ids = np.unique(both, return_inverse=True)
            number = np.full(len(uniq), -1, dtype=np.int64)
            first = np.full(len(uniq), len(code))
            m = len(both) - len(code)
            number[ids[:m]] = np.arange(n - m, n)
            ids = ids[m:]
        num = number[ids]
        if r < R:
            new = np.flatnonzero(num < 0)
            unseen = ids[new]
            # np.minimum.at applies repeated indices in order, which a
            # fancy assignment does not promise
            np.minimum.at(first, unseen, new)
            fresh = new[first[unseen] == new]
            if n + len(fresh) > budget:
                raise BudgetExceededError(max(budget, 1), budget)
            number[ids[fresh]] = np.arange(n, n + len(fresh))
            num[new] = number[unseen]
            layers.append(frame.follow(layers[-1], fresh))
            layer_codes.append(code[fresh])
            n += len(fresh)
        nbrs.append(num)
    nbr = np.concatenate(nbrs).reshape(n, -1)
    nbr.sort(axis=1)
    # a choice that a vertex lacks names the vertex itself
    keep = (nbr >= 0) & (nbr != np.arange(n)[:, None])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    dist = np.repeat(np.arange(R + 1), [len(x) for x in layers])
    return FiniteGraph(None, indptr, nbr[keep], dist == R, dist,
                       np.concatenate(layers), frame)


def _row_slots(indptr, rows):
    """Positions in a CSR `indices` array of the rows `rows`, row after
    row."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    offset = np.repeat(start - np.cumsum(count) + count, count)
    return offset + np.arange(len(offset))


def graph_distances(g, sources=0, cutoff=None, allowed=None):
    """BFS distances in a FiniteGraph from one vertex index or several.

    The search expands no vertex at distance `cutoff` and enters only
    vertices where the boolean mask `allowed` is set (sources always
    count). Vertices it does not reach get -1. One numpy pass per layer
    over the CSR rows of the frontier.
    """
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    d = 0
    while len(frontier) and (cutoff is None or d < cutoff):
        d += 1
        reach = g.indices[_row_slots(g.indptr, frontier)]
        reach = reach[dist[reach] < 0]
        if allowed is not None:
            reach = reach[allowed[reach]]
        frontier = np.unique(reach)
        dist[frontier] = d
    return dist


def ball_sizes(g, R):
    """|B_r| for r = 0..R, read off g = B_R: the vertices within
    distance r of the center are its first |B_r| indices."""
    return np.cumsum(np.bincount(g.center_dist, minlength=R + 1)).tolist()


def end_estimate(g, r, R):
    """Finite-scale proxy for the number of ends, read off g = B_R around
    its center: connected components of B_R minus B_r that contain a
    vertex at distance exactly R.

    A heuristic, not the end definition itself: it stabilizes to the end
    count as r and R grow for the shipped families, and exceeding 2 at
    moderate scale flags infinitely many ends. Components that do not reach
    the outer sphere are bounded pockets and are discarded.
    """
    if not 0 <= r < R:
        raise ValueError(f"need 0 <= r < R, got r={r}, R={R}")
    dist = g.center_dist
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
