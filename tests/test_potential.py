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
from lampharm import potential
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
    residual_floor,
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
    total = ("boundary data must be total: keys must be exactly the "
             "boundary-flagged vertex indices")
    for bad in ({0: 0.0}, {0: 0.0, 4: 1.0, 2: 0.5}, {4: 1.0, 5: 0.0},
                {0: 0.0, 4.5: 1.0}, {0: 0.0, "x": 1.0}, {0: 0.0, None: 1.0}):
        with pytest.raises(ValueError) as e:
            solve_dirichlet(DirichletProblem(g, bad))
        assert str(e.value) == total


def test_invalid_p_and_values_rejected():
    g = _path(4)
    with pytest.raises(ValueError):
        solve_dirichlet(DirichletProblem(g, {0: 0.0, 4: 1.0}, p=1.0))
    with pytest.raises(ValueError, match="^non-finite boundary value at 4$"):
        solve_dirichlet(DirichletProblem(g, {0: 0.0, 4: np.inf}))
    # the first bad index in vertex order is named, whatever the dict order
    with pytest.raises(ValueError, match="^non-finite boundary value at 0$"):
        solve_dirichlet(DirichletProblem(g, {4: np.inf, 0: np.nan}))


def test_boundary_order_does_not_change_the_solution():
    g, bvals = _lamp_sign_split(6)
    keys = list(bvals)
    random.Random(3).shuffle(keys)
    for p in (1.5, 2.0):
        want = solve_dirichlet(DirichletProblem(g, bvals, p=p)).values
        got = solve_dirichlet(DirichletProblem(
            g, {i: bvals[i] for i in keys}, p=p)).values
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("G", [
    lamplighter(path_graph(2), line_graph(), IntPoint((0,))),
    free_group_graph(2),
    grid_graph(2),
    line_graph(),
], ids=lambda G: G.name)
def test_probes_decode_one_row_per_ball(G, decoded_rows):
    # a probe vets the center by decoding its row, and needs no other key
    decoded = decoded_rows(G)
    oscillation_probe(G, G.origin, 5, 2.0, inner_radius=2)
    assert decoded == [1]
    annulus_capacity(G, G.origin, 1, 5, p=2.0)
    assert decoded == [1, 1]


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


# ---------------------------------------------------------------------------
# p != 2: independent oracles for the Newton solver


@pytest.fixture
def p_residual(load_perfbench):
    """The benchmark's residual checker, which shares no solver code:
    (problem, solution) -> normalized p-Laplacian residual."""
    check = load_perfbench("residual").p_laplacian_residual
    return lambda prob, sol: check(prob.graph.adj, prob.graph.boundary_mask,
                                   sol.values, prob.p)


def _stop(prob):
    b = np.abs(list(prob.boundary_values.values()))
    return max(prob.tolerance, residual_floor(float(b.max()), prob.p))


def _bisect_root(F, lo, hi):
    # F is increasing on [lo, hi] and changes sign there
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if F(mid) < 0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_center_is_the_scalar_root(p, seed):
    # a center joined to k boundary leaves: the p-harmonic center value x
    # is the root of sum_i phi(x - b_i), phi(d) = |d|^(p-2) d
    rng = np.random.default_rng(seed)
    k = 3 + 2 * seed
    b = rng.normal(size=k)
    g = FiniteGraph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)],
                               boundary=range(1, k + 1))
    bvals = {i: float(v) for i, v in enumerate(b, start=1)}
    x = _bisect_root(
        lambda x: float(np.sum(np.sign(x - b) * np.abs(x - b) ** (p - 1))),
        b.min(), b.max())
    sol = solve_dirichlet(DirichletProblem(g, bvals, p=p, tolerance=0.0))
    assert sol.values[0] == pytest.approx(x, abs=1e-9)
    assert sol.stats.method == "newton"


def _lamp_sign_split(R):
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    g = ball(G, G.origin, R)
    return g, {int(i): float(split_by_sign(g.verts[i]))
               for i in np.where(g.boundary_mask)[0]}


def _criterion_3_instances():
    # the random instances of acceptance criterion 3, drawn the same way
    rng = random.Random(33)
    nrng = np.random.default_rng(33)
    for _ in range(15):
        g = _random_connected(rng, rng.randrange(8, 60))
        bidx = np.where(g.boundary_mask)[0]
        yield g, {int(i): float(v)
                  for i, v in zip(bidx, nrng.normal(size=len(bidx)))}
        rng.choice([1.5, 2.0, 3.0])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_newton_reaches_the_stop_rule(p, p_residual):
    cases = [_lamp_sign_split(R) for R in (4, 6, 8)]
    cases += list(_criterion_3_instances())
    for g, bvals in cases:
        prob = DirichletProblem(g, bvals, p=p)
        sol = solve_dirichlet(prob)
        r = p_residual(prob, sol)
        assert r <= _stop(prob)
        assert sol.stats.residual == pytest.approx(r, rel=1e-9, abs=1e-15)
        lo, hi = min(bvals.values()), max(bvals.values())
        assert lo <= sol.values.min() and sol.values.max() <= hi


def test_solve_stats_report_the_checked_residual(p_residual):
    g, bvals = _lamp_sign_split(6)
    for p, method in ((2.0, "cg"), (1.5, "newton"), (3.0, "newton")):
        for tol in (1e-6, 0.0):
            prob = DirichletProblem(g, bvals, p=p, tolerance=tol)
            sol = solve_dirichlet(prob)
            st = sol.stats
            assert (st.method, st.stop) == (
                method, "tolerance" if tol else "floor")
            assert st.iterations > 0
            r = p_residual(prob, sol)
            assert st.residual == pytest.approx(r, rel=1e-6, abs=1e-15)
            assert r <= _stop(prob)
            assert harmonic_residual(sol, g, p) == pytest.approx(
                r, rel=1e-6, abs=1e-15)


def test_constant_and_trivial_solves_report_stats():
    g = ball(grid_graph(2), IntPoint((0, 0)), 3)
    bvals = {int(i): 4.25 for i in np.where(g.boundary_mask)[0]}
    st = solve_dirichlet(DirichletProblem(g, bvals, p=1.5)).stats
    assert (st.method, st.iterations, st.residual) == ("constant", 0, 0.0)
    edge = FiniteGraph.from_edges(2, [(0, 1)], boundary=[0, 1])
    st = solve_dirichlet(DirichletProblem(edge, {0: 0.0, 1: 1.0})).stats
    assert (st.method, st.iterations, st.residual) == ("constant", 0, 0.0)


def test_newton_max_iters_counts_newton_steps():
    g, bvals = _lamp_sign_split(6)
    with pytest.raises(NonConvergenceError) as e:
        solve_dirichlet(DirichletProblem(g, bvals, p=1.5, max_iters=2))
    assert e.value.iters == 2
    assert e.value.last_residual > residual_floor(1.0, 1.5)


def test_residual_floor_formula():
    # at p=2 the floor is the CG's 8 eps M
    eps = np.finfo(np.float64).eps
    assert residual_floor(3.0, 2.0) == 8.0 * eps * 3.0
    assert residual_floor(1.0, 1.5) == pytest.approx(np.sqrt(8.0 * eps))
    assert residual_floor(2.0, 3.0) == pytest.approx(8.0 * eps * 4.0)


@pytest.mark.parametrize("seed", [164, 198])
def test_newton_last_stage_reaches_the_floor(seed, p_residual):
    # small p-1 makes these instances need the last stage, whose eps is
    # at the rounding of the values
    rng = random.Random(seed)
    g = _random_connected(rng, rng.randrange(8, 30))
    bvals = {int(i): rng.uniform(-1, 1) for i in np.where(g.boundary_mask)[0]}
    prob = DirichletProblem(g, bvals, p=1.3, tolerance=0.0)
    sol = solve_dirichlet(prob)
    assert sol.stats.stop == "floor"
    assert p_residual(prob, sol) <= _stop(prob)


# ---------------------------------------------------------------------------
# the CG kernel against eager references


def _bincount_apply(owner, col, n_i, weights, x):
    """A x by np.bincount over the coupled entries: the reference sum
    order for the neighbor table."""
    diag = np.bincount(owner, weights=weights, minlength=n_i).astype(float)
    c = col >= 0
    xc = x[col[c]] if weights is None else weights[c] * x[col[c]]
    return diag * x - np.bincount(owner[c], weights=xc, minlength=n_i)


def _eager_pcg(apply_A, diag, b, x, stop, max_iters):
    """Jacobi-preconditioned CG that reads max |r| / diag on every step."""
    r = b - apply_A(x)
    z = r / diag
    d = z.copy()
    rz = float(r @ z)
    for it in range(max_iters + 1):
        res = float(np.max(np.abs(r) / diag))
        if res <= stop or it == max_iters:
            return it, res
        Ad = apply_A(d)
        dAd = float(d @ Ad)
        if dAd <= 0.0:
            r = b - apply_A(x)
            z = r / diag
            d = z.copy()
            rz = float(r @ z)
            continue
        alpha = rz / dAd
        x += alpha * d
        if (it + 1) % 64 == 0:
            r = b - apply_A(x)
        else:
            r -= alpha * Ad
        z = r / diag
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new


def _kernel_cases():
    """(graph, interior) pairs: irregular from_edges graphs whose interior
    rows couple to the boundary, a ball, a star with one interior
    vertex, and a hub whose padded table would be over four times its
    entries."""
    rng = random.Random(12)
    for n in (9, 31, 80):
        g = _random_connected(rng, n)
        yield g, np.flatnonzero(~g.boundary_mask)
    g = ball(grid_graph(2), IntPoint((0, 0)), 6)
    yield g, np.flatnonzero(~g.boundary_mask)
    star = FiniteGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)],
                                  boundary=[1, 2, 3])
    yield star, np.array([0])
    k = 40
    hub = FiniteGraph.from_edges(
        2 * k + 1, [(0, i) for i in range(1, k + 1)]
        + [(i, k + i) for i in range(1, k + 1)], boundary=range(k + 1, 2 * k + 1))
    yield hub, np.flatnonzero(~hub.boundary_mask)


def test_laplacian_matches_the_bincount_form_bit_for_bit():
    rng = np.random.default_rng(3)
    for g, interior in _kernel_cases():
        owner, _, col = potential._interior_rows(g, interior)
        n_i = len(interior)
        assert np.any(col < 0)
        operator = potential._laplacian(owner, col, n_i)
        for weights in (None, rng.uniform(0.1, 3.0, len(owner))):
            apply_A, diag = operator(weights)
            want_diag = np.bincount(owner, weights=weights, minlength=n_i)
            assert diag.tobytes() == want_diag.astype(float).tobytes()
            for x in (rng.normal(size=n_i), np.full(n_i, -0.0),
                      np.where(rng.random(n_i) < 0.5, -0.0, 1.0)):
                got = apply_A(x)
                want = _bincount_apply(owner, col, n_i, weights, x)
                assert got.tobytes() == want.tobytes()


def test_pcg_stops_where_an_eager_max_norm_check_does():
    rng = np.random.default_rng(8)
    for g, interior in _kernel_cases():
        owner, nbr, col = potential._interior_rows(g, interior)
        n_i = len(interior)
        operator = potential._laplacian(owner, col, n_i)
        # edge weights, the same on both entries of an edge as Newton's
        me = interior[owner]
        edge_w = 0.5 + (me * nbr % 7) + np.cos(me + nbr) ** 2
        for weights in (None, edge_w, 1e10 * edge_w):
            apply_A, diag = operator(weights)
            b = rng.normal(size=n_i)
            # `tight` stops the eager check at step 0; on one interior
            # vertex r z is then exactly stop^2 sum diag
            tight = float(np.max(np.abs(b) / diag))
            cases = [(1.0, 1e-3, 10**6), (1.0, 1e-10, 10**6),
                     (1.0, 1e-14, 500), (1.0, 1e-10, 3), (1.0, tight, 10)]
            if diag.min() > 1e9:
                # stop^2 underflows to 0, while r z stays above 0 until
                # max |r| / diag <= stop
                cases.append((1e-150, 1e-165, 500))
            for scale, stop, max_iters in cases:
                rhs = b * scale
                x, y = np.zeros(n_i), np.zeros(n_i)
                got = potential._pcg(apply_A, diag, rhs, x, stop, max_iters)
                want = _eager_pcg(apply_A, diag, rhs, y, stop, max_iters)
                assert got == want
                assert x.tobytes() == y.tobytes()
