import random

import numpy as np
import pytest

from lampharm.graphs import (
    FiniteGraph,
    ball,
    free_group_graph,
    grid_graph,
    lamplighter,
    line_graph,
    path_graph,
)
from lampharm.keys import IntPoint, WordKey
from lampharm.potential import (
    DirichletProblem,
    DisconnectedInteriorError,
    NonConvergenceError,
    VertexFunction,
    annulus_capacity,
    gradient,
    harmonic_residual,
    oscillation_probe,
    p_energy,
    sign_projection,
    solve_dirichlet,
    split_by_sign,
)


def _path(n):
    return FiniteGraph.from_edges(
        n + 1, [(i, i + 1) for i in range(n)], boundary=[0, n]
    )


def _random_connected(rng, n):
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    extra = n // 2
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((min(i, j), max(i, j)))
    edges = sorted(set((min(a, b), max(a, b)) for a, b in edges))
    k = max(2, n // 5)
    boundary = rng.sample(range(n), k)
    return FiniteGraph.from_edges(n, edges, boundary=boundary)


def _dense_reference(g, bvals):
    # independent route: assemble the full mean-value system and solve
    # it directly
    n = g.n
    A = np.zeros((n, n))
    b = np.zeros(n)
    for v in range(n):
        if g.boundary_mask[v]:
            A[v, v] = 1.0
            b[v] = bvals[v]
        else:
            A[v, v] = len(g.adj[v])
            for w in g.adj[v]:
                A[v, w] -= 1.0
    return np.linalg.solve(A, b)


def test_gradient_and_energy_simple():
    g = _path(2)
    f = VertexFunction([0.0, 1.0, 3.0])
    grad = gradient(f, g)
    assert np.allclose(grad, [1.0, 2.0])
    assert p_energy(f, g, 2) == pytest.approx(5.0)
    assert p_energy(f, g, 1) == pytest.approx(3.0)
    assert p_energy(f, g, 1.5) == pytest.approx(1.0 + 2.0**1.5)


def test_energy_rejects_p_below_one():
    g = _path(2)
    with pytest.raises(ValueError):
        p_energy([0.0, 1.0, 2.0], g, 0.5)


def test_energy_zero_iff_constant():
    g = ball(grid_graph(2), IntPoint((0, 0)), 3)
    assert p_energy(np.full(g.n, 2.5), g, 2) == 0.0
    bumped = np.full(g.n, 2.5)
    bumped[3] += 1e-6
    assert p_energy(bumped, g, 2) > 0.0


def test_vertex_function_rejects_nan():
    with pytest.raises(ValueError):
        VertexFunction([0.0, np.nan])


def test_length_mismatch_raises():
    g = _path(2)
    with pytest.raises(ValueError):
        gradient([0.0, 1.0], g)


def test_path_solution_linear_all_p():
    g = _path(10)
    exact = np.arange(11) / 10
    for p in (1.5, 2.0, 3.0):
        sol = solve_dirichlet(
            DirichletProblem(g, {0: 0.0, 10: 1.0}, p=p, tolerance=0.0)
        )
        assert np.max(np.abs(sol.values - exact)) < 1e-8


def test_four_cycle_two_pins():
    g = FiniteGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], boundary=[0, 2]
    )
    for p in (1.5, 2.0, 3.0):
        sol = solve_dirichlet(
            DirichletProblem(g, {0: 0.0, 2: 1.0}, p=p, tolerance=0.0)
        )
        assert abs(sol.values[1] - 0.5) < 1e-8
        assert abs(sol.values[3] - 0.5) < 1e-8


def test_cg_matches_dense_solve():
    rng = random.Random(3)
    for _ in range(10):
        g = _random_connected(rng, rng.randrange(10, 60))
        bvals = {
            int(i): rng.uniform(-1, 1) for i in np.where(g.boundary_mask)[0]
        }
        sol = solve_dirichlet(DirichletProblem(g, bvals, tolerance=1e-13))
        ref = _dense_reference(g, bvals)
        assert np.max(np.abs(sol.values - ref)) < 1e-8


def test_solution_is_harmonic():
    g = ball(grid_graph(2), IntPoint((0, 0)), 5)
    bvals = {
        int(i): float(split_by_sign(g.verts[i]))
        for i in np.where(g.boundary_mask)[0]
    }
    sol = solve_dirichlet(DirichletProblem(g, bvals))
    assert harmonic_residual(sol, g) <= 1e-10


def test_maximum_principle_random_instances():
    rng = random.Random(17)
    for _ in range(15):
        g = _random_connected(rng, rng.randrange(8, 40))
        bvals = {
            int(i): rng.uniform(-5, 5) for i in np.where(g.boundary_mask)[0]
        }
        p = rng.choice([1.5, 2.0, 2.5, 3.0])
        sol = solve_dirichlet(DirichletProblem(g, bvals, p=p))
        lo, hi = min(bvals.values()), max(bvals.values())
        assert sol.values.max() <= hi + 1e-9
        assert sol.values.min() >= lo - 1e-9


def test_p_monotone_energy_comparison():
    # the p-minimizer must not beat the q-minimizer in q-energy
    g = ball(grid_graph(2), IntPoint((0, 0)), 4)
    bvals = {
        int(i): float(split_by_sign(g.verts[i]))
        for i in np.where(g.boundary_mask)[0]
    }
    for p, q in ((1.5, 2.0), (3.0, 2.0)):
        sp = solve_dirichlet(DirichletProblem(g, bvals, p=p, tolerance=0.0))
        sq = solve_dirichlet(DirichletProblem(g, bvals, p=q, tolerance=0.0))
        assert p_energy(sq, g, q) <= p_energy(sp, g, q) + 1e-12


def test_constant_boundary_shortcut():
    g = ball(grid_graph(2), IntPoint((0, 0)), 3)
    bvals = {int(i): 4.25 for i in np.where(g.boundary_mask)[0]}
    sol = solve_dirichlet(DirichletProblem(g, bvals, p=2.5))
    assert np.all(sol.values == 4.25)


def test_boundary_data_must_be_total():
    g = _path(4)
    with pytest.raises(ValueError):
        solve_dirichlet(DirichletProblem(g, {0: 0.0}))
    with pytest.raises(ValueError):
        solve_dirichlet(DirichletProblem(g, {0: 0.0, 4: 1.0, 2: 0.5}))


def test_invalid_p_and_values_rejected():
    g = _path(4)
    with pytest.raises(ValueError):
        solve_dirichlet(DirichletProblem(g, {0: 0.0, 4: 1.0}, p=1.0))
    with pytest.raises(ValueError):
        solve_dirichlet(DirichletProblem(g, {0: 0.0, 4: np.inf}))


def test_disconnected_interior_raises():
    g = FiniteGraph.from_edges(3, [(0, 1)], boundary=[0])
    with pytest.raises(DisconnectedInteriorError):
        solve_dirichlet(DirichletProblem(g, {0: 1.0}))


def test_nonconvergence_carries_residual():
    g = _path(30)
    with pytest.raises(NonConvergenceError) as e:
        solve_dirichlet(
            DirichletProblem(g, {0: 0.0, 30: 1.0}, tolerance=0.0, max_iters=2)
        )
    assert e.value.iters == 2
    assert e.value.last_residual > 0


def test_annulus_capacity_line_closed_form():
    G = line_graph()
    o = IntPoint((0,))
    for r, R in ((1, 10), (2, 8), (1, 4)):
        cap = annulus_capacity(G, o, r, R, p=2.0)
        assert cap == pytest.approx(2.0 / (R - r), abs=1e-10)


def test_annulus_capacity_monotone_in_R():
    G = grid_graph(2)
    o = IntPoint((0, 0))
    caps = [annulus_capacity(G, o, 1, R, p=2.0) for R in (4, 8, 12)]
    assert caps[0] > caps[1] > caps[2]


def test_annulus_capacity_argument_validation():
    with pytest.raises(ValueError):
        annulus_capacity(line_graph(), IntPoint((0,)), 3, 3, p=2.0)


def test_oscillation_probe_line():
    # the harmonic extension of the sign split on the line is linear, so
    # the inner half-ball sees about half the oscillation
    osc, en = oscillation_probe(line_graph(), IntPoint((0,)), 10, 2.0)
    assert osc == pytest.approx(0.5, abs=1e-9)
    assert en == pytest.approx(0.05, abs=1e-9)


def test_oscillation_probe_callable_split():
    g_osc, _ = oscillation_probe(
        line_graph(), IntPoint((0,)), 8, 2.0,
        split=lambda k: 1 if k.coords[0] >= 0 else 0,
    )
    s_osc, _ = oscillation_probe(line_graph(), IntPoint((0,)), 8, 2.0)
    assert g_osc == pytest.approx(s_osc)


def test_sign_projection_variants():
    assert sign_projection(IntPoint((-2, 5))) == -2.0
    assert sign_projection(WordKey((1, -2))) == 1.0
    assert sign_projection(WordKey((-1, 2))) == -1.0
    assert sign_projection(WordKey(())) == 0.0
    assert split_by_sign(WordKey(())) == 1
    L = path_graph(2)
    G = lamplighter(L, line_graph(), IntPoint((0,)))
    for k in G.neighbors(G.origin):
        assert split_by_sign(k) in (0, 1)


def test_free_group_oscillation_does_not_vanish():
    osc3, _ = oscillation_probe(free_group_graph(2), WordKey(()), 3, 2.0)
    osc5, _ = oscillation_probe(free_group_graph(2), WordKey(()), 5, 2.0)
    assert osc3 > 0.2
    assert osc5 > 0.2
