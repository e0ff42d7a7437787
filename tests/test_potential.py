import dataclasses
import random

import numpy as np
import pytest

from _instances import (
    criterion_3_instances,
    dense_reference,
    free_group_oscillation,
    line_oscillation,
    random_connected,
)
from lampharm.graphs import (
    FiniteGraph,
    ball,
    direct_product,
    free_group_graph,
    graph_distances,
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
    split_values,
    window_oscillation,
)


def _sign_split(g):
    # the sign split from the keys, independent of split_values
    return {int(i): float(sign_projection(g.verts[i]) >= 0)
            for i in np.where(g.boundary_mask)[0]}


def _path(n):
    return FiniteGraph.from_edges(
        n + 1, [(i, i + 1) for i in range(n)], boundary=[0, n]
    )


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
        g = random_connected(rng, rng.randrange(10, 60))
        bvals = {
            int(i): rng.uniform(-1, 1) for i in np.where(g.boundary_mask)[0]
        }
        sol = solve_dirichlet(DirichletProblem(g, bvals, tolerance=1e-13))
        ref = dense_reference(g, bvals)
        assert np.max(np.abs(sol.values - ref)) < 1e-8


def test_solution_is_harmonic():
    g = ball(grid_graph(2), IntPoint((0, 0)), 5)
    bvals = _sign_split(g)
    sol = solve_dirichlet(DirichletProblem(g, bvals))
    assert harmonic_residual(sol, g) <= 1e-10


def test_maximum_principle_random_instances():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected(rng, rng.randrange(8, 40))
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
    bvals = _sign_split(g)
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
    # no residual is <= NaN, so the solve would run out of iterations
    with pytest.raises(ValueError, match="tolerance must not be NaN"):
        solve_dirichlet(DirichletProblem(g, {0: 0.0, 4: 1.0},
                                         tolerance=np.nan))
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


def test_nonconvergence_carries_residual(monkeypatch):
    monkeypatch.setattr(potential, "DEFAULT_MAX_ITERS", 2)
    g = _path(30)
    with pytest.raises(NonConvergenceError) as e:
        solve_dirichlet(DirichletProblem(g, {0: 0.0, 30: 1.0}, tolerance=0.0))
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


@pytest.mark.parametrize("inner_radius", [-1, 6])
def test_oscillation_probe_vets_its_window_before_any_solve(monkeypatch,
                                                            inner_radius):
    def unreachable(*args, **kw):
        raise AssertionError("called before the window was vetted")

    monkeypatch.setattr(potential, "ball", unreachable)
    monkeypatch.setattr(potential, "solve_dirichlet", unreachable)
    with pytest.raises(ValueError,
                       match=rf"inner radius {inner_radius} outside \[0, 5\]"):
        oscillation_probe(line_graph(), IntPoint((0,)), 5, 2.0,
                          inner_radius=inner_radius)


def test_oscillation_probe_line():
    # the harmonic extension of the sign split on the line is linear, so
    # the inner half-ball sees about half the oscillation
    osc, en = oscillation_probe(line_graph(), IntPoint((0,)), 10, 2.0)
    assert osc == pytest.approx(0.5, abs=1e-9)
    assert en == pytest.approx(0.05, abs=1e-9)


def test_sign_projection_variants():
    assert sign_projection(IntPoint((-2, 5))) == -2.0
    assert sign_projection(WordKey((1, -2))) == 1.0
    assert sign_projection(WordKey((-1, 2))) == -1.0
    assert sign_projection(WordKey(())) == 0.0
    L = path_graph(2)
    G = lamplighter(L, line_graph(), IntPoint((0,)))
    for k in G.neighbors(G.origin):
        assert sign_projection(k) in (-1.0, 0.0, 1.0)


def test_split_values_is_the_sign_split_of_the_keys():
    G = dataclasses.replace(direct_product(line_graph(), line_graph()),
                            walk_encoding=None)
    g = ball(G, G.origin, 3)
    assert g.rows is None
    split = split_values(g)
    assert split == _sign_split(g)
    assert set(split.values()) == {0.0, 1.0}


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
    return g, _sign_split(g)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_newton_reaches_the_stop_rule(p, p_residual):
    cases = [_lamp_sign_split(R) for R in (4, 6, 8)]
    cases += [(g, bvals) for g, bvals, _ in criterion_3_instances()]
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
        # a tolerance below the floor, negative too, runs to the floor
        for tol in (1e-6, 0.0, -1.0):
            prob = DirichletProblem(g, bvals, p=p, tolerance=tol)
            sol = solve_dirichlet(prob)
            st = sol.stats
            assert (st.method, st.stop) == (
                method, "tolerance" if tol > 0 else "floor")
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


def test_newton_max_iters_counts_newton_steps(monkeypatch):
    monkeypatch.setattr(potential, "DEFAULT_MAX_ITERS", 2)
    g, bvals = _lamp_sign_split(6)
    with pytest.raises(NonConvergenceError) as e:
        solve_dirichlet(DirichletProblem(g, bvals, p=1.5))
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
    g = random_connected(rng, rng.randrange(8, 30))
    bvals = {int(i): rng.uniform(-1, 1) for i in np.where(g.boundary_mask)[0]}
    prob = DirichletProblem(g, bvals, p=1.3, tolerance=0.0)
    sol = solve_dirichlet(prob)
    assert sol.stats.stop == "floor"
    assert p_residual(prob, sol) <= _stop(prob)


# ---------------------------------------------------------------------------
# the CG kernel against eager references


def _bincount_gather(rows, cols, n_rows, weights, x):
    """sum of weights * x[cols] per row by np.bincount: the reference sum
    order for the gather table."""
    xc = x[cols] if weights is None else weights * x[cols]
    return np.bincount(rows, weights=xc, minlength=n_rows)


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
    rows couple to the boundary, a ball, a path on which CG runs past
    its 64-step residual refresh, a star with one interior vertex, and a
    hub whose full-system table would be over four times its
    entries."""
    rng = random.Random(12)
    for n in (9, 31, 80):
        g = random_connected(rng, n)
        yield g, np.flatnonzero(~g.boundary_mask)
    g = ball(grid_graph(2), IntPoint((0, 0)), 6)
    yield g, np.flatnonzero(~g.boundary_mask)
    yield _path(150), np.arange(1, 150)
    yield _star(3), np.array([0])
    hub = _hub(40)
    yield hub, np.flatnonzero(~hub.boundary_mask)


def _star(k):
    return FiniteGraph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)],
                                  boundary=range(1, k + 1))


def _hub(k):
    # a center joined to k leaves, each leaf to its own boundary vertex
    return FiniteGraph.from_edges(
        2 * k + 1, [(0, i) for i in range(1, k + 1)]
        + [(i, k + i) for i in range(1, k + 1)], boundary=range(k + 1, 2 * k + 1))


def _even(g, interior):
    """The interior's distance parity, as solve_dirichlet reads it."""
    dist = g.center_dist
    if dist is None:
        dist = graph_distances(g, np.flatnonzero(g.boundary_mask))
    return dist[interior] % 2 == 0


def _blocks(g, interior):
    """(rows, cols, n_rows, n_cols, entries) of the whole interior
    coupling and of the two gathers of its Schur reduction: the red rows
    on the black columns, and the black rows on every column, with the
    positions numbered black first."""
    owner, _, col = potential._interior_rows(g, interior)
    red = potential._red_set(owner, col, _even(g, interior))
    n, n_b = len(red), np.count_nonzero(~red)
    c = col >= 0
    yield owner[c], col[c], n, n, c
    num = np.empty(n, dtype=np.int64)
    num[np.argsort(red, kind="stable")] = np.arange(n)
    on_r, on_b = c & red[owner], c & ~red[owner]
    yield num[owner[on_r]] - n_b, num[col[on_r]], n - n_b, n_b, on_r
    yield num[owner[on_b]], num[col[on_b]], n_b, n, on_b


def test_gather_matches_the_bincount_form_bit_for_bit():
    rng = np.random.default_rng(3)
    for g, interior in _kernel_cases():
        owner, _, col = potential._interior_rows(g, interior)
        assert np.any(col < 0)
        hub_sized = False
        for rows, cols, n_rows, n_cols, sel in _blocks(g, interior):
            slots = np.bincount(rows, minlength=n_rows).max(initial=0)
            hub_sized |= slots * n_rows > 4 * len(rows)
            operator = potential._gather(rows, cols, n_rows, n_cols)
            for weights in (None, rng.uniform(0.1, 3.0, len(owner))):
                w = None if weights is None else weights[sel]
                gather = operator(w)
                for x in (rng.normal(size=n_cols), np.full(n_cols, -0.0),
                          np.where(rng.random(n_cols) < 0.5, -0.0, 1.0)):
                    got = gather(x)
                    want = _bincount_gather(rows, cols, n_rows, w, x)
                    assert got.tobytes() == want.tobytes()
        if g.n == 81:
            # the hub's whole coupling takes the bincount fallback
            assert hub_sized


def _full_operator(owner, col, n_i, weights):
    """(x -> A x, diag) of the whole interior system, through _gather."""
    diag = np.bincount(owner, weights=weights, minlength=n_i).astype(float)
    c = col >= 0
    gather = potential._gather(owner[c], col[c], n_i, n_i)(
        None if weights is None else weights[c])
    return (lambda x: diag * x - gather(x)), diag


def test_pcg_stops_where_an_eager_max_norm_check_does():
    rng = np.random.default_rng(8)
    # about 1e-160: r z underflows, and _pcg scales r by a power of two
    tiny = 2.0 ** -532
    for g, interior in _kernel_cases():
        owner, nbr, col = potential._interior_rows(g, interior)
        n_i = len(interior)
        # edge weights, the same on both entries of an edge as Newton's
        me = interior[owner]
        edge_w = 0.5 + (me * nbr % 7) + np.cos(me + nbr) ** 2
        for weights in (None, edge_w, 1e10 * edge_w):
            apply_A, diag = _full_operator(owner, col, n_i, weights)
            b = rng.normal(size=n_i)
            # `tight` stops the eager check at step 0; on one interior
            # vertex r z is then exactly stop^2 sum diag
            tight = float(np.max(np.abs(b) / diag))
            for stop, max_iters in ((1e-3, 10**6), (1e-10, 10**6),
                                    (1e-14, 500), (1e-10, 3), (tight, 10)):
                y = np.zeros(n_i)
                want = _eager_pcg(apply_A, diag, b, y, stop, max_iters)
                x = np.zeros(n_i)
                got = potential._pcg(apply_A, diag, b, x, stop, max_iters)
                assert got == want
                assert x.tobytes() == y.tobytes()
                # scaled by a power of two, CG runs the same steps exactly;
                # stop^2 underflows, so every step is checked
                x = np.zeros(n_i)
                got = potential._pcg(apply_A, diag, b * tiny, x, stop * tiny,
                                     max_iters)
                assert got == (want[0], want[1] * tiny)
                assert x.tobytes() == (y * tiny).tobytes()


def test_pcg_converges_where_r_z_underflows():
    # max |r| / diag near 1e-160 with a stop near 1e-170: r z underflows
    # from the first step, which stalled or divided by zero before
    for g, interior in _kernel_cases():
        owner, _, col = potential._interior_rows(g, interior)
        apply_A, diag = _full_operator(owner, col, len(interior), None)
        b = np.random.default_rng(len(interior)).normal(size=len(interior))
        x = np.zeros(len(interior))
        steps, res = potential._pcg(apply_A, diag, b * 1e-160, x, 1e-170,
                                    10**4)
        assert res <= 1e-170 and steps < 10**4
        A = np.diag(diag) - np.array([_bincount_gather(
            owner[col >= 0], col[col >= 0], len(interior), None, e)
            for e in np.eye(len(interior))]).T
        want = np.linalg.solve(A, b)
        assert np.max(np.abs(x * 1e160 - want)) < 1e-8
    rng = random.Random(12)
    for n in (9, 31, 80):
        g = random_connected(rng, n)
        bidx = np.flatnonzero(g.boundary_mask)
        vals = np.random.default_rng(n).normal(size=len(bidx))
        bvals = {int(i): float(v) * 1e-160 for i, v in zip(bidx, vals)}
        sol = solve_dirichlet(DirichletProblem(g, bvals, tolerance=0.0))
        assert sol.stats.residual <= residual_floor(
            max(map(abs, bvals.values())), 2.0)
        ref = dense_reference(g, {i: v * 1e160 for i, v in bvals.items()})
        assert np.max(np.abs(sol.values * 1e160 - ref)) < 1e-8


# ---------------------------------------------------------------------------
# the red-black reduction


def _bipartite_balls():
    """(name, ball, boundary values): the sign split on each ball, and
    1 on B_1 against 0 on the sphere on its annulus."""
    lamp = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    line2 = direct_product(line_graph(), line_graph())
    for G, R in ((grid_graph(2), 8), (grid_graph(3), 4), (lamp, 6),
                 (free_group_graph(2), 6), (line2, 7), (line_graph(), 9)):
        g = ball(G, G.origin, R)
        yield G.name, g, split_values(g)
        inner = g.center_dist <= 1
        g = dataclasses.replace(g, boundary_mask=g.boundary_mask | inner)
        yield G.name + " annulus", g, {
            int(i): float(inner[i]) for i in np.flatnonzero(g.boundary_mask)}


def _odd_graphs():
    """Graphs with odd cycles, so that some even vertex has an even
    neighbor, and the star and hub."""
    rng = random.Random(5)
    for n in (5, 7, 9):
        yield FiniteGraph.from_edges(
            n, [(i, (i + 1) % n) for i in range(n)], boundary=[0, 2])
    yield FiniteGraph.from_edges(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], boundary=[0])
    yield FiniteGraph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)],
        boundary=[4, 0])
    for _ in range(8):
        yield random_connected(rng, rng.randrange(8, 60))
    yield _star(5)
    yield _hub(40)


def test_red_set_is_independent_and_every_even_layer_on_a_bipartite_ball():
    cases = [(name, g, True) for name, g, _ in _bipartite_balls()]
    cases += [("odd", g, False) for g in _odd_graphs()]
    saw_clash = False
    for name, g, bipartite in cases:
        interior = np.flatnonzero(~g.boundary_mask)
        owner, _, col = potential._interior_rows(g, interior)
        even = _even(g, interior)
        red = potential._red_set(owner, col, even)
        c = col >= 0
        assert not np.any(red[owner[c]] & red[col[c]]), name
        assert not np.any(red & ~even), name
        if bipartite:
            assert red.tolist() == even.tolist(), name
        saw_clash |= red.tolist() != even.tolist()
    assert saw_clash


def _eager_full_steps(g, bvals, stop):
    """CG steps of the eager Jacobi-CG reference on the whole interior
    system, from the boundary mean as the solver starts."""
    interior = np.flatnonzero(~g.boundary_mask)
    owner, nbr, col = potential._interior_rows(g, interior)
    f = np.zeros(g.n)
    for i, v in bvals.items():
        f[i] = v
    fixed = col < 0
    b = np.bincount(owner[fixed], weights=f[nbr[fixed]],
                    minlength=len(interior))
    diag = np.bincount(owner, minlength=len(interior)).astype(float)
    c = col >= 0

    def apply_A(x):
        return diag * x - _bincount_gather(owner[c], col[c], len(interior),
                                           None, x)

    x = np.full(len(interior), np.mean(list(bvals.values())))
    steps, res = _eager_pcg(apply_A, diag, b, x, stop, 10**6)
    assert res <= stop
    return steps


def test_reduced_cg_takes_about_half_the_full_system_steps():
    for name, g, bvals in _bipartite_balls():
        prob = DirichletProblem(g, bvals)
        k = _eager_full_steps(g, bvals, _stop(prob))
        steps = solve_dirichlet(prob).stats.iterations
        assert steps <= (k + 1) // 2 + 1, (name, k)


def test_grid_capacity_takes_half_the_cg_steps():
    # the benchmark's largest solve: 174 Jacobi-CG steps on the whole
    # interior system
    g = ball(grid_graph(2), IntPoint((0, 0)), 64)
    inner = g.center_dist <= 1
    mask = inner | g.boundary_mask
    idx = np.flatnonzero(mask)
    prob = DirichletProblem(dataclasses.replace(g, boundary_mask=mask),
                            dict(zip(idx.tolist(), inner[idx].astype(float))))
    assert solve_dirichlet(prob).stats.iterations <= 88


def _dense_p_reference(g, bvals, p):
    """Damped Newton on the exact p-energy with dense Hessians, from the
    dense p=2 solution: an independent route to the p-harmonic values.
    The Hessian's edge weights are clipped to [1e-12, 1e12], where an
    edge difference is 0; the gradient is exact."""
    f = dense_reference(g, bvals)
    if p == 2.0:
        return f
    e = g.edges()
    inner = np.flatnonzero(~g.boundary_mask)
    pos = np.full(g.n, -1)
    pos[inner] = np.arange(len(inner))

    def energy(v):
        return float(np.sum(np.abs(v[e[:, 1]] - v[e[:, 0]]) ** p))

    for _ in range(200):
        d = f[e[:, 1]] - f[e[:, 0]]
        flux = p * np.sign(d) * np.abs(d) ** (p - 1.0)
        grad = np.zeros(g.n)
        np.add.at(grad, e[:, 1], flux)
        np.add.at(grad, e[:, 0], -flux)
        H = np.zeros((g.n, g.n))
        with np.errstate(divide="ignore"):
            w = np.clip(p * (p - 1.0) * np.abs(d) ** (p - 2.0), 1e-12, 1e12)
        for (u, v), wt in zip(e, w):
            H[u, u] += wt
            H[v, v] += wt
            H[u, v] -= wt
            H[v, u] -= wt
        if np.max(np.abs(grad[inner])) < 1e-15:
            break
        step = np.zeros(g.n)
        step[inner] = np.linalg.solve(H[np.ix_(inner, inner)], -grad[inner])
        t, e0 = 1.0, energy(f)
        while t > 1e-12 and energy(f + t * step) > e0:
            t *= 0.5
        f = f + t * step
    return f


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_reduced_solves_match_dense_solves_off_bipartite_graphs(p):
    rng = np.random.default_rng(int(10 * p))
    for g in _odd_graphs():
        bidx = np.flatnonzero(g.boundary_mask)
        if len(bidx) < 2 and p == 2.0:
            continue
        bvals = {int(i): float(v)
                 for i, v in zip(bidx, rng.normal(size=len(bidx)))}
        prob = DirichletProblem(g, bvals, p=p, tolerance=0.0)
        sol = solve_dirichlet(prob)
        assert sol.stats.residual <= _stop(prob)
        if len(bidx) > 1:
            want = _dense_p_reference(g, bvals, p)
            assert np.max(np.abs(sol.values - want)) < 1e-8


@pytest.mark.parametrize("p, bound", [(1.5, 1e-9), (2.0, 1e-14),
                                      (3.0, 1e-12)])
@pytest.mark.parametrize("rank, radii", [(2, (3, 5, 8)), (3, (3, 5))])
def test_free_group_oscillation_matches_the_closed_form(rank, radii, p,
                                                        bound):
    # run to the rounding floor: at p > 2 the default tolerance stops on
    # a residual that leaves value errors up to ~2e-8 on these balls
    G = free_group_graph(rank)
    for R in radii:
        g = ball(G, G.origin, R)
        sol = solve_dirichlet(DirichletProblem(g, split_values(g), p=p,
                                               tolerance=0.0))
        for w in range(R + 1):
            assert abs(window_oscillation(g, sol, w)
                       - free_group_oscillation(rank, p, R, w)) <= bound


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
def test_line_oscillation_matches_the_closed_form(p):
    G = line_graph()
    for R in (3, 8, 20, 64):
        g = ball(G, G.origin, R)
        sol = solve_dirichlet(DirichletProblem(g, split_values(g), p=p,
                                               tolerance=0.0))
        for w in range(R + 1):
            assert abs(window_oscillation(g, sol, w)
                       - line_oscillation(w, R)) <= 1e-13
