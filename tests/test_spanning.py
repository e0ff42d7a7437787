import dataclasses
import math
import random
import time

import numpy as np
import pytest

from _instances import certificate_factor, cut_size, gradient_ratios
from lampharm.graphs import (
    FiniteGraph,
    ball,
    caterpillar_graph,
    graph_distances,
    lamplighter,
    line_graph,
    path_graph,
)
from lampharm import spanning
from lampharm.keys import IntPoint
from lampharm.spanning import (
    augment_ball,
    augment_with_line,
    builtin_spanning_line,
    check_line_rule,
    check_spanning_line,
    find_spanning_line,
    gradient_bound_certificate,
)


def test_path_graph_is_its_own_line():
    g = FiniteGraph.from_edges(6, [(i, i + 1) for i in range(5)], boundary=[])
    res = find_spanning_line(g, 1)
    assert res.status == "found"
    assert check_spanning_line(g, res.order, 1)


def test_star_proved_absent_at_k1_found_at_k2():
    star = FiniteGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], boundary=[])
    assert find_spanning_line(star, 1).status == "proved_absent"
    res = find_spanning_line(star, 2)
    assert res.status == "found"
    assert check_spanning_line(star, res.order, 2)


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
            assert check_spanning_line(g, res.order, 2)


def test_heuristic_on_larger_cycle():
    n = 60
    g = FiniteGraph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)], boundary=[]
    )
    res = find_spanning_line(g, 1, time_budget=5.0)
    assert res.status == "found"
    assert check_spanning_line(g, res.order, 1)


def test_heuristic_timeout_is_not_a_certificate():
    # two far-apart cliques joined by nothing: no spanning line exists,
    # the heuristic may only report timeout
    edges = [(i, j) for i in range(32) for j in range(i) if i // 16 == j // 16]
    g = FiniteGraph.from_edges(32, edges, boundary=[])
    res = find_spanning_line(g, 1, time_budget=0.3)
    assert res.status == "timeout"
    assert res.order is None


def test_time_budget_nan_is_rejected_and_a_negative_one_times_out():
    # NaN compares false with every clock reading, so it never expires
    g = ball(line_graph(), IntPoint((0,)), 4)
    with pytest.raises(ValueError, match="time_budget must not be NaN"):
        find_spanning_line(g, 1, exact=True, time_budget=math.nan)
    assert find_spanning_line(g, 1, exact=True,
                              time_budget=-1).status == "timeout"


def test_search_rejects_k_below_1_and_an_empty_graph():
    g = FiniteGraph.from_edges(2, [(0, 1)], boundary=[])
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        find_spanning_line(g, 0)
    with pytest.raises(ValueError, match="empty graph"):
        find_spanning_line(FiniteGraph.from_edges(0, [], boundary=[]), 1)


def test_one_vertex_is_found_even_with_no_time():
    g = FiniteGraph.from_edges(1, [], boundary=[])
    res = find_spanning_line(g, 1, exact=True, time_budget=-1)
    assert (res.status, res.order) == ("found", [0])


def test_checker_rejects_bad_lines():
    g = FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], boundary=[])
    assert not check_spanning_line(g, [0, 1, 2], 1)
    assert not check_spanning_line(g, [0, 2, 1, 3], 1)
    assert check_spanning_line(g, [0, 2, 1, 3], 2)


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


def _laplacian(h):
    M = np.zeros((h.n, h.n))
    e = h.edges()
    M[e[:, 0], e[:, 1]] = M[e[:, 1], e[:, 0]] = -1.0
    M[np.diag_indices(h.n)] = -M.sum(axis=1)
    return M


def _dense_p2_constant(g, g_aug):
    """max ||grad f||_{2, aug} / ||grad f||_2 over non-constant f: the
    square root of the top generalized eigenvalue of L_aug against L,
    off the constants (g connected)."""
    lam, V = np.linalg.eigh(_laplacian(g))
    W = V[:, 1:] / np.sqrt(lam[1:])
    return float(np.sqrt(np.linalg.eigvalsh(W.T @ _laplacian(g_aug) @ W)[-1]))


def _path_with_chord():
    """The path 0..4 and the same path plus the edge (0, 4)."""
    path = [(i, i + 1) for i in range(4)]
    return (FiniteGraph.from_edges(5, path, boundary=[]),
            FiniteGraph.from_edges(5, path + [(0, 4)], boundary=[]))


def test_gradient_bound_random_f():
    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g, g_aug = augment_ball(G, Gp, G.origin, 6, 3)
    cert = gradient_bound_certificate(g, g_aug)
    assert cert == (2, 1, 1)
    F = np.random.default_rng(23).normal(size=(100, g.n))
    for p in (1.0, 1.5, 2.0, 3.0):
        factor = certificate_factor(cert, p)
        assert factor <= 4 * 3 + 1
        assert gradient_ratios(g, g_aug, F, p).max() <= factor * (1 + 1e-12)


def test_gradient_bound_trivial_cases():
    g = ball(caterpillar_graph(), IntPoint((0, 0)), 4)
    assert gradient_bound_certificate(g, g) == (0, 0, 0)
    assert all(certificate_factor((0, 0, 0), p) == 1.0
               for p in (1.0, 1.5, 2.0, 3.0))


def test_gradient_bound_flags_bad_augmentation():
    # the added edge (0, 4) spans distance D = 4, past k = 1
    assert gradient_bound_certificate(*_path_with_chord()) == (4, 1, 1)


def test_gradient_bound_index_mismatch():
    g = ball(caterpillar_graph(), IntPoint((0, 0)), 3)
    other = ball(line_graph(), IntPoint((0,)), 3)
    with pytest.raises(ValueError, match="indexing"):
        gradient_bound_certificate(g, other)


def test_gradient_bound_rejects_a_lost_edge():
    g, g_aug = _path_with_chord()
    with pytest.raises(ValueError, match="lacks the edge"):
        gradient_bound_certificate(g_aug, g)


def test_gradient_bound_rejects_an_edge_between_components():
    g = FiniteGraph.from_edges(4, [(0, 1), (2, 3)], boundary=[])
    g_aug = FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], boundary=[])
    with pytest.raises(ValueError, match="components"):
        gradient_bound_certificate(g, g_aug)


def _certificate_pairs():
    pairs = [augment_ball(H, H_aug, H.origin, R, 3)
             for H, H_aug, R in _criterion_5_pairs()]
    return pairs + [_path_with_chord()]


@pytest.mark.parametrize("pair", [0, 1, 2],
                         ids=["caterpillar", "lamplighter", "path_chord"])
def test_gradient_bound_certificate_is_sharp_at_p2(pair):
    # on the path with a chord, the linear f attains sqrt(5) = sqrt(1 + 4)
    g, g_aug = _certificate_pairs()[pair]
    exact = _dense_p2_constant(g, g_aug)
    factor = certificate_factor(gradient_bound_certificate(g, g_aug), 2.0)
    assert exact <= factor * (1 + 1e-12)
    assert abs(exact - factor) <= 1e-9


def test_cut_monotone_under_augmentation():
    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g, g_aug = augment_ball(G, Gp, G.origin, 5, 3)
    rng = random.Random(4)
    for _ in range(20):
        F = rng.sample(range(g.n), rng.randrange(1, g.n))
        assert cut_size(g_aug, F) >= cut_size(g, F)


def test_lamplighter_augmented_pair_bound():
    L = path_graph(2)
    H = caterpillar_graph()
    G0 = lamplighter(L, H, IntPoint((0,)))
    Hp = augment_with_line(H, builtin_spanning_line("caterpillar"))
    G1 = lamplighter(L, Hp, IntPoint((0,)))
    g, g_aug = augment_ball(G0, G1, G0.origin, 4, 3)
    assert len(g_aug.edges()) > len(g.edges())
    factor = certificate_factor(gradient_bound_certificate(g, g_aug), 2.0)
    F = np.random.default_rng(8).normal(size=(25, g.n))
    assert gradient_ratios(g, g_aug, F, 2.0).max() <= factor * (1 + 1e-12)


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


def test_gradient_bound_certificate_runs_one_bfs_per_lower_end(monkeypatch):

    G = caterpillar_graph()
    Gp = augment_with_line(G, builtin_spanning_line("caterpillar"))
    g, g_aug = augment_ball(G, Gp, G.origin, 6, 3)
    sources = []

    def counted(h, src, **kw):
        sources.append(src)
        return graph_distances(h, src, **kw)

    monkeypatch.setattr(spanning, "graph_distances", counted)
    gradient_bound_certificate(g, g_aug)
    base = set(map(tuple, g.edges().tolist()))
    lower = {u for u, v in g_aug.edges().tolist() if (u, v) not in base}
    assert sorted(sources) == sorted(lower)


def test_exact_search_spans_a_path_longer_than_the_recursion_limit():
    n = 1501
    g = FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)],
                               boundary=[])
    res = find_spanning_line(g, 1, exact=True)
    assert res.status == "found"
    assert check_spanning_line(g, res.order, 1)


def _exact_search_full_scan(adj, deadline):
    """Reference: the exact search rescanning every vertex for a
    stranded one after each extension, as it first shipped."""
    n = len(adj)
    nbrs = [set(a) for a in adj]
    path = []
    visited = [False] * n
    for s in sorted(range(n), key=lambda v: len(adj[v])):
        stack = [iter([s])]
        while stack:
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                if path:
                    visited[path.pop()] = False
                continue
            if visited[v]:
                continue
            if time.monotonic() > deadline:
                raise TimeoutError
            path.append(v)
            visited[v] = True
            if len(path) == n:
                return path
            stranded = any(
                not visited[u] and v not in nbrs[u]
                and all(visited[w] for w in adj[u])
                for u in range(n))
            stack.append(iter(() if stranded else adj[v]))
    return None


def test_exact_search_matches_the_full_scan_reference():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(400):
        n = rng.randrange(1, 13)
        isolated = set(rng.sample(range(n), rng.choice([0, 0, 0, 1, 2])
                                  if n > 2 else 0))
        density = rng.uniform(0.1, 0.6)
        adj = [[] for _ in range(n)]
        for u in range(n):
            for w in range(u + 1, n):
                if (u not in isolated and w not in isolated
                        and rng.random() < density):
                    adj[u].append(w)
                    adj[w].append(u)
        deadline = time.monotonic() + 60
        got = spanning._exact_search(adj, deadline)
        assert got == _exact_search_full_scan(adj, deadline)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_exact_search_spans_a_6001_vertex_path_within_its_budget():
    n = 6001
    g = FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)],
                               boundary=[])
    res = find_spanning_line(g, 1, exact=True, time_budget=5)
    assert res.status == "found"
    assert res.order == list(range(n))
