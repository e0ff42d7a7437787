import dataclasses
import random

import numpy as np
import pytest

from lampharm.graphs import (
    FiniteGraph,
    ball,
    caterpillar_graph,
    graph_distances,
    lamplighter,
    line_graph,
    path_graph,
)
from lampharm.isoperimetry import edge_boundary
from lampharm.keys import IntPoint
from lampharm.spanning import (
    SpanningLine,
    augment_ball,
    augment_with_line,
    builtin_spanning_line,
    check_line_rule,
    check_spanning_line,
    find_spanning_line,
    verify_gradient_bound,
)


def test_path_graph_is_its_own_line():
    g = FiniteGraph.from_edges(6, [(i, i + 1) for i in range(5)], boundary=[])
    res = find_spanning_line(g, 1)
    assert res.status == "found"
    assert check_spanning_line(g, res.line)


def test_star_proved_absent_at_k1_found_at_k2():
    star = FiniteGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], boundary=[])
    assert find_spanning_line(star, 1).status == "proved_absent"
    res = find_spanning_line(star, 2)
    assert res.status == "found"
    assert check_spanning_line(star, res.line)


def test_exact_search_on_random_graphs_passes_checker():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randrange(5, 14)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        for _ in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.append((min(a, b), max(a, b)))
        g = FiniteGraph.from_edges(n, sorted(set(edges)), boundary=[])
        res = find_spanning_line(g, 2)
        if res.status == "found":
            assert check_spanning_line(g, res.line)


def test_heuristic_on_larger_cycle():
    n = 60
    g = FiniteGraph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)], boundary=[]
    )
    res = find_spanning_line(g, 1, time_budget=5.0)
    assert res.status == "found"
    assert check_spanning_line(g, res.line)


def test_heuristic_timeout_is_not_a_certificate():
    # two far-apart cliques joined by nothing: no spanning line exists,
    # the heuristic may only report timeout
    edges = [(i, j) for i in range(32) for j in range(i) if i // 16 == j // 16]
    g = FiniteGraph.from_edges(32, edges, boundary=[])
    res = find_spanning_line(g, 1, time_budget=0.3)
    assert res.status == "timeout"
    assert res.line is None


def test_checker_rejects_bad_lines():
    g = FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], boundary=[])
    assert not check_spanning_line(g, SpanningLine([0, 1, 2], 1))
    assert not check_spanning_line(g, SpanningLine([0, 2, 1, 3], 1))
    assert check_spanning_line(g, SpanningLine([0, 2, 1, 3], 2))


def test_builtin_line_rule():
    rule = builtin_spanning_line("line")
    assert rule.k == 1
    assert rule.enumerate_fn(5) == IntPoint((5,))
    assert check_line_rule(line_graph(), rule, -20, 20)


def test_builtin_caterpillar_rule_all_windows():
    rule = builtin_spanning_line("caterpillar")
    assert rule.k == 3
    G = caterpillar_graph()
    for w in (5, 20, 50):
        assert check_line_rule(G, rule, -w, w)


def test_builtin_unknown_family():
    with pytest.raises(ValueError):
        builtin_spanning_line("moebius")


def test_augment_line_with_itself_is_identity():
    rule = builtin_spanning_line("line")
    H = augment_with_line(line_graph(), rule)
    for i in (-3, 0, 8):
        assert H.neighbors(IntPoint((i,))) == line_graph().neighbors(
            IntPoint((i,))
        )


def test_augment_caterpillar_degree_gain():
    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    for v in (IntPoint((0, 0)), IntPoint((2, 1)), IntPoint((-4, 0))):
        assert len(Gp.neighbors(v)) <= len(G.neighbors(v)) + 2


def test_augment_preserves_symmetry_no_loops():
    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g = ball(Gp, Gp.origin, 4)
    for i in range(g.n):
        v = g.verts[i]
        assert v not in Gp.neighbors(v)
        for w in Gp.neighbors(v):
            assert v in Gp.neighbors(w)


def test_augment_ball_only_keeps_in_ball_spans():
    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g, g_aug = augment_ball(G, Gp, G.origin, 5, 3)
    assert g.verts == g_aug.verts
    base = set(map(tuple, g.edges().tolist()))
    for u, v in g_aug.edges().tolist():
        if (u, v) not in base:
            assert 0 <= graph_distances(g, u, cutoff=3)[v] <= 3


def _criterion_5_pairs():
    H = caterpillar_graph()
    Hp = augment_with_line(H, builtin_spanning_line("caterpillar"))
    L = path_graph(2)
    G0 = lamplighter(L, H, IntPoint((0,)))
    G1 = lamplighter(L, Hp, IntPoint((0,)))
    return [(H, Hp, 6), (G0, G1, 4)]


@pytest.mark.parametrize("pair", [0, 1], ids=["caterpillar", "lamplighter"])
def test_augment_ball_adds_exactly_the_near_ball_pairs(pair):
    H, H_aug, R = _criterion_5_pairs()[pair]
    g, g_aug = augment_ball(H, H_aug, H.origin, R, 3)
    index = {v: i for i, v in enumerate(g.verts)}
    base = set(map(tuple, g.edges().tolist()))
    want = set()
    for i, v in enumerate(g.verts):
        dist = graph_distances(g, i)
        for w in H_aug.neighbors(v):
            j = index.get(w)
            if j is not None and i < j and (i, j) not in base \
                    and 0 <= dist[j] <= 3:
                want.add((i, j))
    assert want
    assert set(map(tuple, g_aug.edges().tolist())) == base | want
    assert (g_aug.boundary_mask == g.boundary_mask).all()


def test_gradient_bound_random_f():
    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g, g_aug = augment_ball(G, Gp, G.origin, 6, 3)
    rng = np.random.default_rng(23)
    for _ in range(100):
        f = rng.normal(size=g.n)
        for p in (1.0, 1.5, 2.0, 3.0):
            rep = verify_gradient_bound(g, g_aug, f, p, 3)
            assert rep.structural_ok
            assert rep.ok


def test_gradient_bound_trivial_cases():
    G = caterpillar_graph()
    g = ball(G, G.origin, 4)
    rep = verify_gradient_bound(g, g, np.arange(g.n, dtype=float), 2.0, 1)
    assert rep.ok and rep.structural_ok and rep.added_edges == 0
    rep = verify_gradient_bound(g, g, np.ones(g.n), 2.0, 1)
    assert rep.lhs == 0.0 and rep.ok


def test_gradient_bound_flags_bad_augmentation():
    # an added edge spanning distance 4 breaks the k=1 precondition
    g = FiniteGraph.from_edges(
        5, [(i, i + 1) for i in range(4)], boundary=[]
    )
    g_aug = FiniteGraph.from_edges(
        5, [(i, i + 1) for i in range(4)] + [(0, 4)], boundary=[]
    )
    rep = verify_gradient_bound(g, g_aug, np.arange(5.0), 2.0, 1)
    assert not rep.structural_ok


def test_gradient_bound_index_mismatch():
    g = ball(caterpillar_graph(), IntPoint((0, 0)), 3)
    other = ball(line_graph(), IntPoint((0,)), 3)
    with pytest.raises(ValueError):
        verify_gradient_bound(g, other, np.zeros(g.n), 2.0, 1)


def test_cut_monotone_under_augmentation():
    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g, g_aug = augment_ball(G, Gp, G.origin, 5, 3)
    rng = random.Random(4)
    for _ in range(20):
        F = rng.sample(range(g.n), rng.randrange(1, g.n))
        assert edge_boundary(g_aug, F) >= edge_boundary(g, F)


def test_lamplighter_augmented_pair_bound():
    L = path_graph(2)
    H = caterpillar_graph()
    G0 = lamplighter(L, H, IntPoint((0,)))
    Hp = augment_with_line(H, builtin_spanning_line("caterpillar"))
    G1 = lamplighter(L, Hp, IntPoint((0,)))
    g, g_aug = augment_ball(G0, G1, G0.origin, 4, 3)
    assert len(g_aug.edges()) > len(g.edges())
    rng = np.random.default_rng(8)
    for _ in range(25):
        f = rng.normal(size=g.n)
        rep = verify_gradient_bound(g, g_aug, f, 2.0, 3)
        assert rep.ok and rep.structural_ok


def test_check_line_rule_expands_only_vertices_closer_than_k():
    G = line_graph()
    calls = []

    def counted(v):
        calls.append(v)
        return G.neighbors(v)

    H = dataclasses.replace(G, neighbors=counted, walk_encoding=None)
    assert check_line_rule(H, builtin_spanning_line("line"), 0, 10)
    # k=1: one call per consecutive pair, on its first vertex
    assert calls == [IntPoint((i,)) for i in range(10)]


def test_gradient_bound_structure_is_checked_once_per_pair(monkeypatch):
    from lampharm import spanning

    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g, g_aug = augment_ball(G, Gp, G.origin, 6, 3)
    sources = []

    def counted(h, src, **kw):
        sources.append(src)
        return graph_distances(h, src, **kw)

    monkeypatch.setattr(spanning, "graph_distances", counted)
    rng = np.random.default_rng(4)
    reports = [verify_gradient_bound(g, g_aug, rng.normal(size=g.n), p, 3)
               for p in (1.5, 2.0, 3.0)]
    added = [(u, v) for u, v in g_aug.edges().tolist()
             if (u, v) not in set(map(tuple, g.edges().tolist()))]
    assert sorted(sources) == sorted({u for u, _ in added})
    assert all(r.structural_ok and r.added_edges == len(added)
               for r in reports)
    # another k is another check
    verify_gradient_bound(g, g_aug, np.zeros(g.n), 2.0, 1)
    assert len(sources) == 2 * len({u for u, _ in added})
