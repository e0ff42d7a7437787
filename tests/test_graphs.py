import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from lampharm import graphs
from lampharm.descriptors import DescriptorError, parse_descriptor
from lampharm.graphs import (
    BudgetExceededError,
    FiniteGraph,
    InvalidVertexError,
    ball,
    caterpillar_graph,
    cycle_graph,
    direct_product,
    end_estimate,
    free_group_graph,
    graph_distances,
    grid_graph,
    k_fuzz,
    lamplighter,
    line_graph,
    path_graph,
)
from lampharm.keys import IntPoint, LampKey, PairKey, WordKey, format_key
from lampharm.potential import split_values


def test_line_neighbors():
    G = line_graph()
    assert G.neighbors(IntPoint((3,))) == [IntPoint((2,)), IntPoint((4,))]
    assert G.degree_bound == 2


def test_cycle_neighbors_wrap():
    G = cycle_graph(5)
    assert set(G.neighbors(IntPoint((0,)))) == {IntPoint((1,)), IntPoint((4,))}
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_path_endpoints():
    G = path_graph(4)
    assert G.neighbors(IntPoint((0,))) == [IntPoint((1,))]
    assert G.neighbors(IntPoint((3,))) == [IntPoint((2,))]
    with pytest.raises(InvalidVertexError):
        G.neighbors(IntPoint((4,)))


def test_grid_neighbors():
    G = grid_graph(2)
    nbrs = G.neighbors(IntPoint((0, 0)))
    assert len(nbrs) == 4
    assert IntPoint((1, 0)) in nbrs and IntPoint((0, -1)) in nbrs


def test_free_group_neighbors():
    G = free_group_graph(2)
    nbrs = G.neighbors(WordKey((1,)))
    # stepping back to the identity plus three forward moves
    assert WordKey(()) in nbrs
    assert len(nbrs) == 4
    assert len(set(nbrs)) == 4


def test_free_group_neighbors_cancel_or_extend_the_last_letter():
    G = free_group_graph(3)

    def words(*ws):
        return [WordKey(w) for w in ws]

    assert G.neighbors(WordKey(())) == words(
        (-3,), (-2,), (-1,), (1,), (2,), (3,))
    assert G.neighbors(WordKey((1,))) == words(
        (), (1, -3), (1, -2), (1, 1), (1, 2), (1, 3))
    assert G.neighbors(WordKey((1, 2))) == words(
        (1,), (1, 2, -3), (1, 2, -1), (1, 2, 1), (1, 2, 2), (1, 2, 3))
    assert all(type(w) is WordKey for w in G.neighbors(WordKey((1, 2))))


def test_caterpillar_structure():
    G = caterpillar_graph()
    spine = G.neighbors(IntPoint((0, 0)))
    assert set(spine) == {IntPoint((-1, 0)), IntPoint((1, 0)), IntPoint((0, 1))}
    leaf = G.neighbors(IntPoint((0, 1)))
    assert leaf == [IntPoint((0, 0))]


def test_lamplighter_origin_neighbors():
    # two base moves keeping lamps, one lamp toggle at the current position
    L = path_graph(2)
    H = line_graph()
    G = lamplighter(L, H, IntPoint((0,)))
    nbrs = G.neighbors(G.origin)
    printed = sorted(format_key(k) for k in nbrs)
    assert printed == ["[(-1)|]", "[(0)|(0):(1)]", "[(1)|]"]


def test_lamplighter_degree_identity():
    L = path_graph(2)
    H = grid_graph(2)
    G = lamplighter(L, H, IntPoint((0,)))
    rng = random.Random(7)
    g = ball(G, G.origin, 3)
    for i in rng.sample(range(g.n), 20):
        key = g.verts[i]
        base_deg = len(H.neighbors(key.base))
        lamp_deg = len(L.neighbors(key.lamp_at(key.base, IntPoint((0,)))))
        assert len(G.neighbors(key)) == base_deg + lamp_deg


def test_lamplighter_rejects_bad_root():
    L = path_graph(2)
    with pytest.raises(InvalidVertexError):
        lamplighter(L, line_graph(), IntPoint((9,)))


def test_product_moves_one_factor():
    G = direct_product(line_graph(), line_graph())
    nbrs = G.neighbors(PairKey(IntPoint((0,)), IntPoint((0,))))
    assert len(nbrs) == 4
    for k in nbrs:
        moved_left = k.left != IntPoint((0,))
        moved_right = k.right != IntPoint((0,))
        assert moved_left != moved_right


def test_k_fuzz_line_degree():
    G3 = k_fuzz(line_graph(), 3)
    nbrs = G3.neighbors(IntPoint((0,)))
    assert len(nbrs) == 6
    assert IntPoint((3,)) in nbrs and IntPoint((-3,)) in nbrs


def test_k_fuzz_contains_original_edges():
    G = k_fuzz(grid_graph(2), 2)
    nbrs = set(G.neighbors(IntPoint((0, 0))))
    for k in grid_graph(2).neighbors(IntPoint((0, 0))):
        assert k in nbrs


def test_k_fuzz_one_is_identity():
    G = k_fuzz(free_group_graph(2), 1)
    w = WordKey((1, 2))
    assert set(G.neighbors(w)) == set(free_group_graph(2).neighbors(w))


def test_ball_line():
    g = ball(line_graph(), IntPoint((0,)), 3)
    assert g.n == 7
    assert len(g.edges()) == 6
    assert int(g.boundary_mask.sum()) == 2
    assert g.verts[0] == IntPoint((0,))


def test_ball_canonical_order_is_deterministic():
    L = path_graph(2)
    G = lamplighter(L, line_graph(), IntPoint((0,)))
    g1 = ball(G, G.origin, 4)
    g2 = ball(G, G.origin, 4)
    assert g1.verts == g2.verts
    assert g1.adj == g2.adj


def test_ball_nesting():
    G = grid_graph(2)
    small = ball(G, IntPoint((0, 0)), 3)
    big = ball(G, IntPoint((0, 0)), 5)
    inner = set(small.verts)
    assert inner <= set(big.verts)


def test_ball_boundary_is_sphere_or_cut():
    G = grid_graph(2)
    g = ball(G, IntPoint((0, 0)), 4)
    dist = graph_distances(g, 0)
    for i in range(g.n):
        if g.boundary_mask[i]:
            full_deg = len(G.neighbors(g.verts[i]))
            assert dist[i] == 4 or len(g.adj[i]) < full_deg
        else:
            assert dist[i] < 4


def test_lamplighter_ball_sizes_frozen():
    L = path_graph(2)
    G = lamplighter(L, line_graph(), IntPoint((0,)))
    sizes = [ball(G, G.origin, R).n for R in range(1, 9)]
    assert sizes == [4, 10, 22, 44, 84, 155, 278, 490]


def test_ball_budget_enforced():
    with pytest.raises(BudgetExceededError) as e:
        ball(grid_graph(2), IntPoint((0, 0)), 10, budget=30)
    assert e.value.partial_count >= 30


def test_oracle_symmetry_sampled():
    L = path_graph(2)
    for G in (grid_graph(2), free_group_graph(2),
              lamplighter(L, line_graph(), IntPoint((0,)))):
        g = ball(G, G.origin, 4)
        rng = random.Random(11)
        for i in rng.sample(range(g.n), min(25, g.n)):
            for w in G.neighbors(g.verts[i]):
                assert g.verts[i] in G.neighbors(w)


def test_graph_distances_and_pairwise():
    g = ball(line_graph(), IntPoint((0,)), 5)
    dist = graph_distances(g, 0)
    assert dist[0] == 0
    assert sorted(dist.tolist()) == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    i = g.verts.index(IntPoint((-5,)))
    j = g.verts.index(IntPoint((5,)))
    assert graph_distances(g, i)[j] == 10
    assert graph_distances(g, i, cutoff=4)[j] == -1


def _counting(G):
    calls = []

    def counted(v):
        calls.append(v)
        return G.neighbors(v)

    return dataclasses.replace(G, neighbors=counted), calls


def test_ball_calls_neighbors_once_per_vertex():
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    counted, calls = _counting(dataclasses.replace(G, walk_encoding=None))
    g = ball(counted, G.origin, 10)
    assert g.n == 1457
    assert len(calls) == 1457
    assert calls == g.verts


def test_array_ball_calls_neighbors_once_on_the_center():
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    counted, calls = _counting(G)
    g = ball(counted, G.origin, 10)
    assert g.n == 1457
    assert calls == [G.origin]


def test_csr_arrays_agree_with_adj():
    for g in (ball(grid_graph(2), IntPoint((0, 0)), 4),
              FiniteGraph.from_edges(5, [(0, 3), (3, 1)], boundary=[4])):
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert g.indptr.tolist() == np.cumsum(
            [0] + [len(a) for a in g.adj]).tolist()
        for v in range(g.n):
            row = g.indices[g.indptr[v]:g.indptr[v + 1]]
            assert row.tolist() == g.adj[v]


def test_graph_distances_sources_cutoff_allowed():
    # path 0-1-2-3-4, a leaf 5 on vertex 2, an isolated vertex 6
    g = FiniteGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert graph_distances(g).tolist() == [0, 1, 2, 3, 4, 3, -1]
    assert graph_distances(g, [0, 4]).tolist() == [0, 1, 2, 1, 0, 3, -1]
    assert graph_distances(g, np.array([0, 4]), cutoff=1).tolist() == [
        0, 1, -1, 1, 0, -1, -1]
    assert graph_distances(g, 5, cutoff=2).tolist() == [
        -1, 2, 1, 2, -1, 0, -1]
    allowed = np.array([True, True, False, True, True, True, True])
    assert graph_distances(g, 0, allowed=allowed).tolist() == [
        0, 1, -1, -1, -1, -1, -1]
    # a source counts even where `allowed` is unset
    assert graph_distances(g, 2, allowed=allowed).tolist() == [
        2, 1, 0, 1, 2, 1, -1]
    assert graph_distances(g, [2, 6], cutoff=1, allowed=allowed).tolist() == [
        -1, 1, 0, 1, -1, 1, 0]


def test_end_estimate_frozen_examples():
    for G, r, R, ends in ((line_graph(), 2, 6, 2), (grid_graph(2), 2, 8, 1),
                          (free_group_graph(2), 1, 5, 12)):
        assert end_estimate(ball(G, G.origin, R), r, R) == ends


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        FiniteGraph.from_edges(2, [(0, 0)], boundary=[])


@pytest.mark.parametrize("kwargs, error, message", [
    ({"boundary": [-1]}, ValueError, "boundary vertex -1 out of range"),
    ({"boundary": [0, 3]}, ValueError, "boundary vertex 3 out of range"),
    # an index is an integer, never a truncated float
    ({"boundary": [1.5]}, TypeError, "cannot be interpreted as an integer"),
    ({"verts": [IntPoint((0,)), IntPoint((1,))]}, ValueError,
     "2 vertex keys for 3"),
], ids=["negative-boundary", "boundary-past-n", "float-boundary",
        "short-verts"])
def test_from_edges_rejects_bad_boundary_and_vertex_list(kwargs, error,
                                                         message):
    with pytest.raises(error, match=message):
        FiniteGraph.from_edges(3, [(0, 1), (1, 2)], **kwargs)


def test_from_edges_refuses_a_float_endpoint_and_takes_numpy_ints():
    # before each endpoint was vetted, (0, 1.7) was truncated to (0, 1)
    with pytest.raises(TypeError, match="cannot be interpreted"):
        FiniteGraph.from_edges(3, [(0, 1.7)])
    g = FiniteGraph.from_edges(3, np.array([[0, 1], [2, 1]]))
    assert g.adj == [[1], [0, 2], [1]]


def test_edges_sorted_unique():
    g = ball(grid_graph(2), IntPoint((0, 0)), 3)
    e = g.edges()
    assert np.all(e[:, 0] < e[:, 1])
    rows = [tuple(r) for r in e.tolist()]
    assert rows == sorted(rows)
    assert len(rows) == len(set(rows))


def test_descriptor_parsing_nested():
    G = parse_descriptor(
        {
            "family": "lamplighter",
            "lamp": {"family": "path", "n": 2},
            "space": {"family": "line"},
            "root": 0,
        }
    )
    assert len(G.neighbors(G.origin)) == 3
    P = parse_descriptor(
        '{"family": "product", "left": {"family": "line"}, '
        '"right": {"family": "cycle", "n": 4}}'
    )
    assert len(P.neighbors(P.origin)) == 4


def test_descriptor_errors():
    with pytest.raises(DescriptorError):
        parse_descriptor({"family": "moebius"})
    with pytest.raises(DescriptorError):
        parse_descriptor({"family": "cycle"})
    with pytest.raises(DescriptorError):
        parse_descriptor({"family": "cycle", "n": "five"})


_KNOWN = ("known families: line, cycle, path, grid, free_group, "
          "caterpillar, product, lamplighter")
_PATH2 = {"family": "path", "n": 2}


@pytest.mark.parametrize("desc, message", [
    ('{"family":', "descriptor is not valid JSON: Expecting value: "
                   "line 1 column 11 (char 10)"),
    ("[1]", "descriptor must be an object, got <class 'list'>"),
    ({"family": "moebius"}, f"unknown family 'moebius'; {_KNOWN}"),
    ({"family": ["line"]}, f"unknown family ['line']; {_KNOWN}"),
    ({"family": "lamplighter", "lamp": _PATH2, "space": {"family": "line"},
      "root": "x"}, "cannot parse root vertex 'x'"),
    # parts parse left to right, then the root
    ({"family": "lamplighter", "space": {"family": "moebius"}, "root": "x"},
     "is missing 'lamp'"),
    ({"family": "lamplighter", "lamp": _PATH2, "space": {"family": "moebius"},
      "root": "x"}, f"unknown family 'moebius'; {_KNOWN}"),
    ({"family": "product", "right": {"family": "moebius"}},
     "is missing 'left'"),
    # JSON's true is a Python int, but no count or coordinate
    ('{"family": "grid", "d": true}', "'d' must be int, got True"),
    ({"family": "free_group", "rank": True}, "'rank' must be int, got True"),
    ({"family": "lamplighter", "lamp": _PATH2, "space": {"family": "line"},
      "root": True}, "cannot parse root vertex True"),
    ({"family": "lamplighter", "lamp": _PATH2, "space": {"family": "line"},
      "root": [0, False]}, "cannot parse root vertex [0, False]"),
], ids=["invalid-json", "not-an-object", "unknown", "unhashable-family",
        "bad-root", "lamp-first", "space-before-root", "left-first",
        "bool-dimension", "bool-rank", "bool-root", "bool-root-coordinate"])
def test_descriptor_error_messages(desc, message):
    with pytest.raises(DescriptorError) as e:
        parse_descriptor(desc)
    assert str(e.value).endswith(message)


def test_regular_step_function_enumerates_exactly_the_neighbors():
    """Families advertising a constant degree and a single-neighbor step
    function must enumerate, as a set, exactly the sorted neighbor list,
    at vertices sampled by random walking away from the origin."""
    rnd = random.Random(77)
    fams = [
        line_graph(),
        cycle_graph(6),
        grid_graph(2),
        grid_graph(3),
        path_graph(2),
        free_group_graph(2),
        lamplighter(path_graph(2), line_graph(), IntPoint((0,))),
        direct_product(line_graph(), grid_graph(2)),
    ]
    for G in fams:
        assert G.degree_bound is not None
        assert G.step_fn is not None
        v = G.origin
        for _ in range(120):
            nbrs = G.neighbors(v)
            assert len(nbrs) == G.degree_bound
            stepped = sorted(G.step_fn(v, i) for i in range(G.degree_bound))
            assert stepped == nbrs
            v = nbrs[rnd.randrange(len(nbrs))]


def test_integer_families_build_the_keys_the_validating_constructor_does():
    """The integer families build neighbor and step keys without the
    validating IntPoint constructor: every key must still hold a tuple
    of Python ints, with the type, value and hash IntPoint gives it, and
    neighbor lists must stay sorted."""
    rnd = random.Random(5)
    fams = [line_graph(), cycle_graph(6), path_graph(5), path_graph(2),
            grid_graph(2), grid_graph(3), caterpillar_graph()]
    for G in fams:
        v = G.origin
        for _ in range(60):
            nbrs = G.neighbors(v)
            assert nbrs == sorted(nbrs)
            keys = list(nbrs)
            if G.step_fn is not None:
                keys += [G.step_fn(v, i) for i in range(G.degree_bound)]
            for k in keys:
                assert type(k.coords) is tuple
                assert all(type(c) is int for c in k.coords)
                ref = IntPoint(k.coords)
                assert (type(k), k, hash(k)) == (IntPoint, ref, hash(ref))
            v = nbrs[rnd.randrange(len(nbrs))]


def test_irregular_families_do_not_advertise_a_step_function():
    assert path_graph(5).step_fn is None
    assert caterpillar_graph().step_fn is None
    assert lamplighter(
        path_graph(3), line_graph(), IntPoint((0,))
    ).step_fn is None


def _typed_ball(g):
    return ([(type(v), v) for v in g.verts], g.indptr.tolist(),
            g.indices.tolist(), g.boundary_mask.tolist())


def _assert_same_ball(G, center, R):
    """ball on G equals ball on G without its array frame (the oracle
    path), vertex keys, CSR rows and boundary alike."""
    fast = ball(G, center, R)
    slow = ball(dataclasses.replace(G, walk_encoding=None), center, R)
    assert fast.indptr.dtype == fast.indices.dtype == np.int64
    assert _typed_ball(fast) == _typed_ball(slow)
    # both paths keep the center distances their BFS computed
    assert (fast.center_dist.tolist() == slow.center_dist.tolist()
            == graph_distances(fast, 0).tolist())


def _lit(root, pos, sites):
    """A lamplighter(path(2), line, root) key: lamps at `sites` off the
    root state, which is state 0 when the root is 1."""
    o = IntPoint((root,))
    return LampKey.make(IntPoint((pos,)),
                        {IntPoint((s,)): IntPoint((1 - root,)) for s in sites},
                        o)


def _lamp_grid(H):
    return lamplighter(path_graph(2), H, IntPoint((0,)))


_ON = IntPoint((1,))
_ARRAY_FAMILIES = [
    (lamplighter(path_graph(2), line_graph(), IntPoint((0,))), None),
    (lamplighter(path_graph(2), line_graph(), IntPoint((0,))),
     _lit(0, 1, [-2, 0, 3])),
    (lamplighter(path_graph(2), line_graph(), IntPoint((1,))), None),
    (lamplighter(path_graph(2), line_graph(), IntPoint((1,))),
     _lit(1, -1, [-3, 2])),
    # the line is grid(1), so this is the same frame under another name
    (lamplighter(path_graph(2), grid_graph(1), IntPoint((0,))), None),
    (_lamp_grid(grid_graph(2)), None),
    # a lamp in reach of the center and one beyond every radius's box,
    # which sorts among the sites in reach
    (_lamp_grid(grid_graph(2)),
     LampKey.make(IntPoint((0, 1)),
                  {IntPoint((0, 0)): _ON, IntPoint((0, 9)): _ON},
                  IntPoint((0,)))),
    (_lamp_grid(grid_graph(3)), None),
    (_lamp_grid(direct_product(line_graph(), line_graph())), None),
    (free_group_graph(1), None),
    (free_group_graph(1), WordKey((-1, -1))),
    (free_group_graph(2), None),
    (free_group_graph(2), WordKey((1, -2))),
    (free_group_graph(3), None),
    (free_group_graph(3), WordKey((3, -1, 2))),
    # 254 letters are the most int8 rows hold; 256 take int64 rows
    (free_group_graph(127), WordKey((-127, 5))),
    (free_group_graph(128), WordKey((128,))),
    (line_graph(), None),
    (line_graph(), IntPoint((5,))),
    (grid_graph(1), IntPoint((-4,))),
    (grid_graph(2), None),
    (grid_graph(2), IntPoint((-3, 4))),
    (grid_graph(3), None),
    (grid_graph(3), IntPoint((2, -1, 5))),
    (caterpillar_graph(), None),
    (caterpillar_graph(), IntPoint((3, 1))),
    (caterpillar_graph(), IntPoint((-2, 0))),
    (direct_product(line_graph(), line_graph()), None),
    (direct_product(line_graph(), line_graph()),
     PairKey(IntPoint((-2,)), IntPoint((3,)))),
    (direct_product(grid_graph(2), line_graph()), None),
    (direct_product(line_graph(), grid_graph(2)),
     PairKey(IntPoint((4,)), IntPoint((-1, 2)))),
]


# the largest radius whose lamplighter codes fit int64, where it is
# below 6; larger radii take the oracle path
_ARRAY_REACH = {"lamplighter(path(2),grid(2))": 2,
                "lamplighter(path(2),product(line,line))": 2,
                "lamplighter(path(2),grid(3))": 0}
# the largest radius checked, where it is below 6: the oracle ball of
# radius 2 in a 255-regular tree takes about 20 s
_CHECKED_RADIUS = {"free(127)": 1, "free(128)": 1}


@pytest.mark.parametrize(
    "G, center", _ARRAY_FAMILIES,
    ids=[f"{G.name}@{'origin' if c is None else format_key(c)}"
         for G, c in _ARRAY_FAMILIES])
def test_array_ball_matches_oracle_ball(G, center, monkeypatch):
    assert G.walk_encoding is not None
    center = G.origin if center is None else center
    oracle = dataclasses.replace(G, walk_encoding=None)
    # the dense code table, then (a zero limit) sorted codes everywhere
    for dense_limit in (graphs._DENSE_CODES_PER_VERTEX, 0):
        monkeypatch.setattr(graphs, "_DENSE_CODES_PER_VERTEX", dense_limit)
        for R in range(_CHECKED_RADIUS.get(G.name, 6) + 1):
            _assert_same_ball(G, center, R)
            # the sign split read off the rows equals the one of the keys
            fast = ball(G, center, R)
            assert (fast.rows is not None) == (
                R <= _ARRAY_REACH.get(G.name, 6))
            assert (split_values(fast)
                    == split_values(ball(oracle, center, R)))


# every frame whose walks and balls share one step, _step
_SHARED_STEP = [
    line_graph(), grid_graph(2), grid_graph(3),
    direct_product(line_graph(), line_graph()),
    direct_product(line_graph(), grid_graph(2)),
    caterpillar_graph(),
    _lamp_grid(line_graph()), _lamp_grid(grid_graph(2)),
    _lamp_grid(grid_graph(3)),
    _lamp_grid(direct_product(line_graph(), line_graph())),
]


@pytest.mark.parametrize("G", _SHARED_STEP, ids=lambda G: G.name)
def test_ball_choices_are_the_walk_choices_in_key_order(G):
    """Ball choice j is walk choice _ball_choice[j], so the ball choices
    are the walk choices reordered; where every choice is a neighbor
    (all but the caterpillar's leaves), following them in order gives
    the sorted neighbor list. Z2 wr Z^3 balls stop at R = 0 and never
    follow a choice, so only this test sees that frame's order."""
    rnd = random.Random(11)
    v, checked = G.origin, 0
    for _ in range(8):
        frame = graphs.array_frame(G, (v,), 1)
        k = len(frame._ball_choice)
        assert sorted(frame._ball_choice.tolist()) == list(
            range(G.degree_bound))
        nbrs = G.neighbors(v)
        if len(nbrs) == k:
            rows = frame.ball_rows(v)
            assert frame.decode(frame.follow(rows, np.arange(k))) == nbrs
            checked += 1
        v = nbrs[rnd.randrange(len(nbrs))]
    assert checked >= 3


@pytest.mark.parametrize("G", [G for G, c in _ARRAY_FAMILIES if c is None],
                         ids=lambda G: G.name)
def test_array_ball_decodes_keys_only_when_read(G, decoded_rows):
    decoded = decoded_rows(G)
    g = ball(G, G.origin, min(4, _ARRAY_REACH.get(G.name, 4)))
    # the center's one row is decoded to vet it, and nothing else
    assert decoded == [1]
    assert g.n == len(g.indptr) - 1 == len(g.rows)
    g2 = dataclasses.replace(g, boundary_mask=~g.boundary_mask)
    assert g2.rows is g.rows and g2.frame is g.frame
    assert decoded == [1]
    # decoded once on first read, then kept
    assert g2.verts is g2.verts
    assert decoded == [1, g.n]


@pytest.mark.parametrize("G, R", [
    (lamplighter(path_graph(2), line_graph(), IntPoint((0,))), 10),
    (lamplighter(path_graph(2), line_graph(), IntPoint((0,))), 12),
    (free_group_graph(2), 7),
    (free_group_graph(2), 8),
    (grid_graph(3), 12),
    (grid_graph(2), 32),
    (grid_graph(2), 64),
    (line_graph(), 64),
    (direct_product(line_graph(), line_graph()), 15),
], ids=lambda x: getattr(x, "name", str(x)))
def test_array_ball_matches_oracle_ball_at_benchmark_radii(G, R):
    _assert_same_ball(G, G.origin, R)


def test_a_far_start_lamp_is_one_bit_of_the_row():
    # the lamps outside the box of sites in reach take one bit each and
    # sort among the others when decoded
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    for far in (_lit(0, 0, [10**6]), _lit(0, 0, [-10**6, -2, 3, 10**6])):
        counted, calls = _counting(G)
        g = ball(counted, far, 3)
        assert calls == [far] and g.rows.shape == (22, 2)
        _assert_same_ball(G, far, 3)


def _peak_bytes(f):
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ball_falls_back_to_the_oracle_past_the_row_cap():
    # grid(9)'s box at R + 1 = 2 has 5**9 sites, a 244 kB bitset
    G = _lamp_grid(grid_graph(9))
    counted, calls = _counting(G)
    g = ball(counted, G.origin, 1)
    assert len(calls) == g.n == 20 and g.rows is None
    _assert_same_ball(G, G.origin, 1)
    # the frame is refused before anything grows with the sites: a
    # 200-step walk box on Z^3 has 401**3 sites, whose 1 << sites alone
    # would be 8 MB
    H = _lamp_grid(grid_graph(3))
    for frame, steps in ((G, 2), (H, 200)):
        out, peak = _peak_bytes(
            lambda: graphs.array_frame(frame, (frame.origin,), steps))
        assert out is None and peak < 50_000


def test_ball_falls_back_where_coordinates_could_leave_int64():
    G = grid_graph(2)
    far = IntPoint((2**62 - 2, 0))
    counted, calls = _counting(G)
    g = ball(counted, far, 2)
    assert len(calls) == g.n == 13
    _assert_same_ball(G, far, 2)


def test_ball_falls_back_where_the_frame_cannot_encode_the_center():
    # a lamp entry at the root state is not canonical, so the frame's
    # bitset cannot represent it; neighbors accepts it all the same
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    odd = LampKey(IntPoint((0,)), [(IntPoint((2,)), IntPoint((0,)))])
    counted, calls = _counting(G)
    g = ball(counted, odd, 2)
    assert len(calls) == g.n
    assert g.verts[0] is odd
    _assert_same_ball(G, odd, 2)


def test_lamp_ball_codes_only_the_sites_it_can_reach():
    # lamps 61 sites apart fit a two-word row but not a 63-bit code over
    # every site; the lamps a ball cannot reach stay out of its codes
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    wide = _lit(0, 0, [0, 60])
    counted, calls = _counting(G)
    g = ball(counted, wide, 2)
    assert len(calls) == 1 and g.rows is not None and g.n == 10
    _assert_same_ball(G, wide, 2)
    _assert_same_ball(G, _lit(0, 0, [-40, -5, 3, 40]), 6)
    # a radius whose reachable sites no 63-bit code holds builds no
    # array ball
    frame = graphs.array_frame(G, (G.origin,), 29)
    assert frame.code_bound >= 2**63
    assert graphs._array_ball(frame, G.origin, 28, 10) is None


@pytest.mark.parametrize("G, center", [
    (free_group_graph(2), WordKey((3,))),
    (grid_graph(2), IntPoint((0,))),
    (line_graph(), WordKey(())),
    (lamplighter(path_graph(2), line_graph(), IntPoint((0,))), IntPoint((0,))),
])
def test_array_ball_rejects_an_invalid_center(G, center):
    with pytest.raises(InvalidVertexError):
        ball(G, center, 3)


def test_array_ball_budget_matches_the_oracle_path():
    for G in (grid_graph(2), free_group_graph(2)):
        errors = []
        for H in (G, dataclasses.replace(G, walk_encoding=None)):
            with pytest.raises(BudgetExceededError) as e:
                ball(H, H.origin, 10, budget=30)
            errors.append((e.value.partial_count, e.value.budget))
        assert errors == [(30, 30), (30, 30)]
    assert ball(grid_graph(2), IntPoint((0, 0)), 3, budget=25).n == 25


def test_k_fuzz_query_expands_only_the_inner_ball():
    # a k=2 query calls neighbors on the center and its 4 neighbors
    for G in (grid_graph(2), free_group_graph(2)):
        counted, calls = _counting(G)
        nbrs = k_fuzz(counted, 2).neighbors(G.origin)
        assert len(calls) == 5
        assert nbrs == sorted(ball(G, G.origin, 2).verts[1:])


def test_from_edges_builds_sorted_csr_rows():
    g = FiniteGraph.from_edges(4, [(2, 0), (0, 1), (1, 0), (3, 2)],
                               boundary=[3])
    assert g.indptr.tolist() == [0, 2, 3, 5, 6]
    assert g.indices.tolist() == [1, 2, 0, 0, 3, 2]
    assert g.adj == [[1, 2], [0], [0, 3], [2]]
    assert g.boundary_mask.tolist() == [False, False, False, True]
    with pytest.raises(ValueError, match="out of range"):
        FiniteGraph.from_edges(3, [(0, 1), (1, 3)])
    empty = FiniteGraph.from_edges(0, [])
    assert empty.n == 0 and empty.indptr.tolist() == [0]


def test_adj_and_edges_are_computed_on_each_read():
    # the CSR arrays are the one stored adjacency: neither view is kept
    g = ball(grid_graph(2), IntPoint((0, 0)), 3)
    fields = set(vars(g))
    assert g.adj == g.adj and g.adj is not g.adj
    assert g.edges().tolist() == g.edges().tolist()
    assert g.edges() is not g.edges()
    assert set(vars(g)) == fields


def _reference_distances(adj, sources, cutoff, allowed):
    """Plain deque BFS over adjacency lists: the loop graph_distances
    replaced, kept as its reference."""
    from collections import deque

    dist = {s: 0 for s in sources}
    q = deque(dist)
    while q:
        u = q.popleft()
        if cutoff is not None and dist[u] >= cutoff:
            continue
        for w in adj[u]:
            if w not in dist and (allowed is None or allowed[w]):
                dist[w] = dist[u] + 1
                q.append(w)
    return [dist.get(v, -1) for v in range(len(adj))]


def test_graph_distances_matches_a_reference_bfs():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(1, 40)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(n + 5)}
        g = FiniteGraph.from_edges(n, [(u, v) for u, v in edges if u != v])
        sources = rng.sample(range(n), rng.randrange(1, min(n, 3) + 1))
        cutoff = rng.choice([None, 0, 1, 2, 5])
        allowed = None
        if trial % 2:
            allowed = np.array([rng.random() < 0.7 for _ in range(n)])
        want = _reference_distances(g.adj, sources, cutoff, allowed)
        got = graph_distances(g, sources, cutoff=cutoff, allowed=allowed)
        assert got.tolist() == want
