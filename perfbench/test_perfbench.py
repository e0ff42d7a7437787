"""Tests of the benchmark's own checkers: python3 -m pytest perfbench"""

import math
import time

import pytest

from instrument import Tracer
from residual import p_laplacian_residual

N = 11  # path 0..10, boundary pinned at both ends


def path_adj(n):
    return [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]


def pinned_mask(n):
    return [i in (0, n - 1) for i in range(n)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_linear_solution_on_pinned_path_has_zero_residual(p):
    values = [float(i) for i in range(N)]
    assert p_laplacian_residual(path_adj(N), pinned_mask(N), values, p) == 0.0


@pytest.mark.parametrize("p, expected", [
    # f(5) raised by 1/2: the gaps at vertex 5 become 3/2 and -1/2
    (1.5, (math.sqrt(1.5) - math.sqrt(0.5)) / 2),
    (2.0, 0.5),   # (3/2 - 1/2) / 2
    (3.0, 1.0),   # (9/4 - 1/4) / 2
])
def test_perturbed_interior_value_reads_hand_computed_residual(p, expected):
    values = [float(i) for i in range(N)]
    values[5] += 0.5
    got = p_laplacian_residual(path_adj(N), pinned_mask(N), values, p)
    assert got == pytest.approx(expected, rel=1e-12)


def test_boundary_values_carry_no_residual():
    values = [float(i) for i in range(N)]
    values[0] = -3.0  # only its interior neighbour 1 sees this
    got = p_laplacian_residual(path_adj(N), pinned_mask(N), values, 2.0)
    assert got == pytest.approx(1.5)  # vertex 1: ((1 + 3) + (1 - 2)) / 2


def test_self_time_subtracts_children_and_leaf_calls():
    tr = Tracer()
    leaf = tr.counted("graphs.neighbors", lambda: time.sleep(0.01))
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            time.sleep(0.01)
        leaf()
        leaf()
    assert inner.parent == outer.id and outer.parent is None
    assert outer.counts == {"graphs.neighbors": 2}
    assert tr.leaf_totals["graphs.neighbors"][0] == 2
    covered = inner.duration + tr.leaf_totals["graphs.neighbors"][1]
    assert outer.self_s == pytest.approx(outer.duration - covered, abs=1e-12)
    assert 0.0 <= outer.self_s < 0.01
