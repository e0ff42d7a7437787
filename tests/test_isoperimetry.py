import math

import pytest

from _instances import cut_size
from lampharm.graphs import (
    ball,
    cycle_graph,
    direct_product,
    grid_graph,
    lamplighter,
    line_graph,
    path_graph,
)
from lampharm.isoperimetry import (
    GrowthEstimate,
    default_family,
    edge_boundary,
    growth_exponent,
    is_d_kappa,
    iso_profile,
    iso_ratio,
)
from lampharm.keys import IntPoint


def test_edge_boundary_line_interval():
    G = line_graph()
    assert edge_boundary(G, [IntPoint((i,)) for i in range(5)]) == 2


def test_edge_boundary_grid_single():
    assert edge_boundary(grid_graph(2), [IntPoint((0, 0))]) == 4


def test_edge_boundary_lamplighter_ball_frozen():
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    b2 = ball(G, G.origin, 2)
    assert b2.n == 10
    assert edge_boundary(G, b2.verts) == 12


def test_edge_boundary_finite_graph_matches_oracle():
    # independent route: count the same cut inside a larger materialized
    # ball using vertex indices
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    b2 = ball(G, G.origin, 2)
    b4 = ball(G, G.origin, 4)
    idx = [b4.verts.index(v) for v in b2.verts]
    assert cut_size(b4, idx) == edge_boundary(G, b2.verts)


def test_edge_boundary_takes_only_an_oracle():
    g = ball(grid_graph(2), IntPoint((0, 0)), 2)
    with pytest.raises(TypeError, match="expected GraphOracle"):
        edge_boundary(g, [0])


def test_iso_profile_names_a_witness_that_covers_a_finite_graph():
    G = cycle_graph(5)
    fam = [[IntPoint((0,))], ball(G, G.origin, 2).verts]
    with pytest.raises(ValueError, match="witness set of 5 vertices has an "
                       "empty edge boundary: it covers a finite graph"):
        iso_profile(G, fam)


def test_is_d_kappa_line_intervals():
    G = line_graph()
    fam = [[IntPoint((i,)) for i in range(n)] for n in (3, 7, 20)]
    assert is_d_kappa(iso_profile(G, fam), 1.0) == pytest.approx(0.5)


def test_is_d_kappa_grid_boxes():
    G = grid_graph(2)
    fam = [
        [IntPoint((i, j)) for i in range(k) for j in range(k)]
        for k in (2, 4, 7)
    ]
    assert is_d_kappa(iso_profile(G, fam), 2.0) == pytest.approx(0.25)


def test_is_d_kappa_monotone_in_family_and_d():
    G = grid_graph(2)
    fam = [
        [IntPoint((i, j)) for i in range(k) for j in range(k)]
        for k in (2, 4)
    ]
    bigger = fam + [[IntPoint((i, j)) for i in range(6) for j in range(6)]]
    profile = iso_profile(G, fam)
    assert is_d_kappa(profile, 2.0) <= is_d_kappa(iso_profile(G, bigger), 2.0)
    assert (
        is_d_kappa(profile, 1.0)
        <= is_d_kappa(profile, 2.0)
        <= is_d_kappa(profile, 3.0)
    )


def test_is_d_kappa_rejects_empty():
    with pytest.raises(ValueError):
        iso_profile(line_graph(), [])
    with pytest.raises(ValueError):
        iso_profile(line_graph(), [[]])


def test_iso_profile_points():
    G = grid_graph(2)
    fam = [[IntPoint((i, j)) for i in range(2) for j in range(2)]]
    assert iso_profile(G, fam) == [(4, 8)]
    assert is_d_kappa([(4, 8)], 2.0) == pytest.approx(2.0 / 8.0)


@pytest.mark.parametrize("d", [0.5, math.nan, math.inf])
def test_iso_ratio_rejects_a_d_is_d_cannot_take(d):
    with pytest.raises(ValueError, match="finite and >= 1"):
        iso_ratio(4, 8, d)


def test_default_family_connected_and_seeded():
    G = grid_graph(2)
    fam1 = default_family(G, 5, seed=9)
    fam2 = default_family(G, 5, seed=9)
    assert [sorted(map(str, F)) for F in fam1] == [
        sorted(map(str, F)) for F in fam2
    ]
    assert len(fam1) > 5
    for F in fam1:
        assert len(F) == len(set(F))


def test_growth_exponent_line():
    est = growth_exponent(line_graph(), 20)
    assert isinstance(est, GrowthEstimate)
    assert abs(est.exponent - 1.0) <= 0.1
    assert not est.superpolynomial
    assert est.ci_low <= est.exponent <= est.ci_high


def test_growth_exponent_grid():
    est = growth_exponent(grid_graph(2), 15)
    assert abs(est.exponent - 2.0) <= 0.15
    assert not est.superpolynomial


def test_growth_exponent_lamplighter_superpolynomial():
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    est = growth_exponent(G, 8)
    assert est.superpolynomial


def test_growth_fit_ratio_is_inf_on_a_saturated_ball():
    # every ball past the diameter is the whole cycle: log|B_R| is flat,
    # so both fits are exact and the ratio must not divide by zero
    est = growth_exponent(cycle_graph(5), 6)
    assert est.fit_ratio == math.inf
    assert not est.superpolynomial


def test_growth_exponent_product_additivity():
    prod = growth_exponent(direct_product(line_graph(), line_graph()), 15)
    grid = growth_exponent(grid_graph(2), 15)
    assert abs(prod.exponent - grid.exponent) <= 0.2


def test_growth_sizes_match_per_radius_balls():
    for G, Rmax in (
        (line_graph(), 20),
        (grid_graph(2), 9),
        (direct_product(line_graph(), line_graph()), 8),
        (lamplighter(path_graph(2), line_graph(), IntPoint((0,))), 8),
    ):
        est = growth_exponent(G, Rmax)
        assert est.radii == list(range(max(2, Rmax // 2), Rmax + 1))
        assert est.sizes == [ball(G, G.origin, R).n for R in est.radii]


def test_growth_exponent_rejects_small_rmax():
    with pytest.raises(ValueError):
        growth_exponent(line_graph(), 2)
