"""Acceptance gate: ten numbered criteria, each printing one pass/fail
line (echoed in the pytest terminal summary) and asserting its verdict.

Runtime-sensitive criteria time themselves against their budgets.

Criteria 1-3 draw their random instances from `_instances`, which the
solver tests share, and check the solver against its dense solve.

Criteria 6-8 run the `lampharm reproduce` suites (`cli.oscillation_suite`
and `cli.growth_suite`) once each and assert the verdicts of their
reports, so each experiment's radii, p values and thresholds are
defined in one place, the suite. Criterion 6's runtime is that of the
whole oscillation suite, capacities included. The oscillation suite
reads the harmonic extension on a fixed inner window (B_2) so the decay
it asserts is the homogenization of the boundary split, not the
geometry of a window that grows with R; the README glossary spells out
the taxonomy.

The walk criterion compares the TV margin between checkpoints against
the split-half baseline's own margin, so the verdict is about TV
sinking toward the estimator's noise floor rather than about raw values
the estimator cannot resolve at desk scale.
"""

import functools
import random
import time

import numpy as np

import _acceptance_log
from _instances import (
    certificate_factor,
    criterion_3_instances,
    dense_reference,
    gradient_ratios,
    normal_boundary_values,
    random_connected,
)
from lampharm.cli import growth_suite, oscillation_suite
from lampharm.graphs import (
    FiniteGraph,
    caterpillar_graph,
    free_group_graph,
    lamplighter,
    line_graph,
    path_graph,
)
from lampharm.keys import IntPoint, LampKey
from lampharm.potential import DirichletProblem, p_energy, solve_dirichlet
from lampharm.spanning import (
    augment_ball,
    augment_with_line,
    builtin_spanning_line,
    check_line_rule,
    find_spanning_line,
    gradient_bound_certificate,
)
from lampharm.walks import WalkConfig, walk_series


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    _acceptance_log.LINES.append(line)
    print(line)
    return ok


def _tracked_solve(g, bvals, p, tolerance, margins):
    """Solve, and append the maximum-principle margin of the run to
    `margins` (criterion 3 counts every solve of criteria 1-3)."""
    sol = solve_dirichlet(DirichletProblem(g, bvals, p=p, tolerance=tolerance))
    interior = ~g.boundary_mask
    if interior.any() and bvals:
        margin = float(
            np.max(sol.values[interior]) - max(bvals.values())
        ) - 10.0 * tolerance
        margins.append(margin)
    return sol


@functools.cache
def _dense_comparison_runs():
    """Criterion 1's solves: (max-abs gap to the dense solves, runtime,
    maximum-principle margins)."""
    rng = random.Random(1001)
    nrng = np.random.default_rng(1001)
    margins = []
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        g = random_connected(rng, rng.randrange(10, 201))
        bvals = normal_boundary_values(g, nrng)
        sol = _tracked_solve(g, bvals, 2.0, 1e-12, margins)
        ref = dense_reference(g, bvals)
        worst = max(worst, float(np.max(np.abs(sol.values - ref))))
    return worst, time.perf_counter() - t0, tuple(margins)


@functools.cache
def _closed_form_runs():
    """Criterion 2's solves: (path gap, 4-cycle gap, maximum-principle
    margins)."""
    margins = []
    path = FiniteGraph.from_edges(
        11, [(i, i + 1) for i in range(10)], boundary=[0, 10]
    )
    linear = np.arange(11) / 10.0
    worst_path = 0.0
    for p in (1.5, 2.0, 3.0):
        sol = _tracked_solve(path, {0: 0.0, 10: 1.0}, p, 0.0, margins)
        worst_path = max(worst_path, float(np.max(np.abs(sol.values - linear))))
    cyc = FiniteGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], boundary=[0, 2]
    )
    worst_cyc = 0.0
    for p in (1.5, 2.0, 3.0):
        sol = _tracked_solve(cyc, {0: 0.0, 2: 1.0}, p, 0.0, margins)
        worst_cyc = max(
            worst_cyc,
            abs(float(sol.values[1]) - 0.5),
            abs(float(sol.values[3]) - 0.5),
        )
    return worst_path, worst_cyc, tuple(margins)


@functools.cache
def _suite_run(suite):
    """(report, runtime) of one `lampharm reproduce` suite, run once for
    all the criteria that read it."""
    t0 = time.perf_counter()
    report = suite()
    return report, time.perf_counter() - t0


def _passed(report, *verdicts):
    return all(report.verdicts[name]["passed"] for name in verdicts)


def _values(report, series):
    """One series of a report, its values joined as a/b/c."""
    return "/".join(f"{v:.3f}" for _, v in report.series[series])


def test_criterion_01_iterative_matches_dense_solve():
    worst, dt, _ = _dense_comparison_runs()
    ok = worst <= 1e-8 and dt < 10.0
    assert _report(
        1, ok,
        f"iterative vs dense on 50 random graphs, max-abs gap "
        f"{worst:.3g} (tol 1e-8), runtime {dt:.2f}s (< 10s)",
    )


def test_criterion_02_closed_form_solutions():
    worst_path, worst_cyc, _ = _closed_form_runs()
    ok = worst_path <= 1e-8 and worst_cyc <= 1e-8
    assert _report(
        2, ok,
        f"path linear within {worst_path:.3g}, 4-cycle free values "
        f"1/2 within {worst_cyc:.3g} (tol 1e-8, p in {{1.5, 2, 3}})",
    )


def test_criterion_03_maximum_principle():
    margins = [*_dense_comparison_runs()[2], *_closed_form_runs()[2]]
    for g, bvals, p in criterion_3_instances():
        _tracked_solve(g, bvals, p, 1e-10, margins)
    violations = sum(1 for m in margins if m > 0)
    ok = violations == 0 and len(margins) >= 65
    assert _report(
        3, ok,
        f"interior max <= boundary max + 10*tolerance on all "
        f"{len(margins)} solver runs in this suite, "
        f"{violations} violations",
    )


def test_criterion_04_edge_deletion_monotonicity():
    rng = random.Random(44)
    nrng = np.random.default_rng(44)
    violations = 0
    for _ in range(1000):
        n = rng.randrange(6, 41)
        g = random_connected(rng, n)
        edges = [tuple(e) for e in g.edges().tolist()]
        keep = [e for e in edges if rng.random() < 0.6]
        sub = FiniteGraph.from_edges(n, keep, boundary=[])
        f = nrng.normal(size=n)
        p = rng.choice([1.0, 1.5, 2.0, 3.0])
        if p_energy(f, sub, p) > p_energy(f, g, p) * (1 + 1e-12):
            violations += 1
    ok = violations == 0
    assert _report(
        4, ok,
        f"gradient p-norm monotone under edge deletion on 1000 random "
        f"(graph, subgraph, f, p) instances, {violations} violations",
    )


def test_criterion_05_augmentation_gradient_bound():
    # the routing certificate bounds the ratio for every f; the sampled f
    # check the certificate against the energies it bounds
    t0 = time.perf_counter()
    k = 3
    ps = (1.0, 1.5, 2.0, 3.0)
    rule = builtin_spanning_line("caterpillar")
    H = caterpillar_graph()
    Hp = augment_with_line(H, rule)
    pairs = [augment_ball(H, Hp, H.origin, 6, k)]
    L = path_graph(2)
    G0 = lamplighter(L, H, IntPoint((0,)))
    G1 = lamplighter(L, Hp, IntPoint((0,)))
    pairs += [augment_ball(G0, G1, G0.origin, R, k) for R in (4, 8)]
    nrng = np.random.default_rng(55)
    certs = []
    checked = 0
    violations = 0
    share = 0.0
    for g, g_aug in pairs:
        certs.append(gradient_bound_certificate(g, g_aug))
        F = nrng.normal(size=(125, g.n))
        for p in ps:
            factor = certificate_factor(certs[-1], p)
            ratios = gradient_ratios(g, g_aug, F, p)
            checked += len(ratios)
            violations += int((ratios > factor * (1 + 1e-12)).sum())
            share = max(share, float(ratios.max()) / factor)
    D, C, A = map(max, zip(*certs))
    factors = [certificate_factor((D, C, A), p) for p in ps]
    dt = time.perf_counter() - t0
    ok = (D <= k and A <= 4 and max(factors) <= 4 * k + 1
          and violations == 0 and checked == 1500 and dt < 30.0)
    assert _report(
        5, ok,
        f"routing certificate over caterpillar R=6 and lamplighter R=4/8 "
        f"balls: D={D} (<= k={k}), C={C}, A={A} (<= 4), factor "
        f"{'/'.join(f'{x:.3f}' for x in factors)} at p=1/1.5/2/3 "
        f"(<= 4k+1 = {4 * k + 1}); {checked} sampled (f, p) ratios, "
        f"{violations} above the factor, largest {share:.1%} of it; "
        f"runtime {dt:.2f}s (< 30s)",
    )


def test_criterion_06_oscillation_decay_and_plateau():
    report, dt = _suite_run(oscillation_suite)
    ok = dt < 300.0 and _passed(
        report, "fixed_window_decay_p1.5", "fixed_window_decay_p2",
        "free_group_plateau")
    assert _report(
        6, ok,
        f"lamplighter fixed-window oscillation decays "
        f"p=1.5: {_values(report, 'lamplighter_fixed_window_p1.5')}, "
        f"p=2: {_values(report, 'lamplighter_fixed_window_p2')} "
        f"(margin 1e-3); free group stays "
        f"{_values(report, 'free_group_half_ball_p2')} > 0.2; "
        f"runtime {dt:.1f}s (< 300s)",
    )


def test_criterion_07_growth_exponents():
    report, _ = _suite_run(growth_suite)
    ok = _passed(report, "grid_growth_dimension",
                 "lamplighter_superpolynomial")
    ci = dict(report.series["grid_growth_ci"])
    assert _report(
        7, ok,
        f"grid growth exponent "
        f"{report.verdicts['grid_growth_dimension']['value']:.3f} in "
        f"2.0 +/- 0.15 (CI [{ci['ci_low']:.3f}, {ci['ci_high']:.3f}]); "
        f"lamplighter superpolynomial at Rmax=8: exponential/polynomial "
        f"fit residual ratio "
        f"{report.verdicts['lamplighter_superpolynomial']['value']:.3f} "
        f"(< 0.5)",
    )


def test_criterion_08_capacity_decay():
    report, _ = _suite_run(oscillation_suite)
    ok = _passed(report, "grid_capacity_decay", "line_capacity_closed_form")
    radii = "/".join(str(R) for R, _ in report.series["grid_capacity"])
    worst = report.verdicts["line_capacity_closed_form"]["value"]
    assert _report(
        8, ok,
        f"grid capacity strictly decreasing "
        f"{_values(report, 'grid_capacity')} over R={radii}; "
        f"line matches 2/(R-1) within {worst:.3g} (tol 1e-8)",
    )


def test_criterion_09_liouville_contrast():
    t0 = time.perf_counter()
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    flipped = LampKey.make(
        IntPoint((0,)), {IntPoint((0,)): IntPoint((1,))}, IntPoint((0,))
    )
    cfg_lamp = WalkConfig(
        steps=200, trials=100_000, laziness=0.5, seed=42,
        start_a=G.origin, start_b=flipped,
    )
    lamp = walk_series(G, cfg_lamp, checkpoints=[50, 100, 200])
    F = free_group_graph(2)
    cfg_free = WalkConfig(steps=200, trials=100_000, laziness=0.5, seed=42)
    free = walk_series(F, cfg_free, checkpoints=[50, 100, 200])
    dt = time.perf_counter() - t0

    decay_ok = lamp.margin > 0
    plateau = free.tv[-1]
    plateau_ok = plateau > 0.2
    ok = decay_ok and plateau_ok and dt < 300.0
    fmt = lambda xs: "/".join(f"{x:.3f}" for x in xs)
    assert _report(
        9, ok,
        f"lamplighter TV {fmt(lamp.tv)} sinks toward baseline "
        f"{fmt(lamp.baseline)} at steps 50/100/200 (margin over the "
        f"baseline's margin {lamp.margin:+.3f} > 0); free "
        f"group stays apart: plateau {plateau:.3f} > 0.2 (excess margin "
        f"{free.margin:+.3f}); "
        f"runtime {dt:.0f}s (< 300s)",
    )


def test_criterion_10_spanning_line_search():
    star = FiniteGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], boundary=[])
    absent = find_spanning_line(star, 1)
    found = find_spanning_line(star, 2)
    rule = builtin_spanning_line("caterpillar")
    G = caterpillar_graph()
    windows_ok = True
    for length in range(2, 51):
        lo = -(length // 2)
        windows_ok = windows_ok and check_line_rule(
            G, rule, lo, lo + length - 1
        )
    ok = (
        absent.status == "proved_absent"
        and found.status == "found"
        and windows_ok
    )
    assert _report(
        10, ok,
        f"K_1,3 {absent.status} at k=1 and {found.status} at k=2; "
        f"caterpillar rule passed the checker on all 49 spine windows "
        f"up to length 50",
    )
