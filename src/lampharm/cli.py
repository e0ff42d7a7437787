"""Command-line front end: graph inspection, Dirichlet experiments,
isoperimetric profiles, spanning-line search, random-walk contrast, and
canned reproduction suites.

Exit codes: 0 success, 1 a verdict failed (or the search proved the
target absent), 2 usage, descriptor or input error, 3 budget or timeout.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys

import numpy as np

from . import __version__
from .descriptors import DescriptorError, descriptor_json, parse_descriptor
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    BudgetExceededError,
    FiniteGraph,
    ball,
    ball_sizes,
    direct_product,
    edge_list_text,
    end_estimate,
    free_group_graph,
    grid_graph,
    lamplighter,
    line_graph,
    path_graph,
    vertex_table_text,
)
from .isoperimetry import (SUPERPOLYNOMIAL_RATIO, default_family,
                           growth_exponent, is_d_kappa, iso_profile,
                           iso_ratio)
from .keys import IntPoint, format_key
from .potential import (
    DEFAULT_TOLERANCE,
    DirichletProblem,
    DisconnectedInteriorError,
    NonConvergenceError,
    oscillation_probe,
    annulus_capacity,
    p_energy,
    solve_dirichlet,
    split_values,
    window_oscillation,
)
from .report import ExperimentReport, csv_text, dirichlet_json, fmt_value
from .spanning import find_spanning_line
from .walks import WalkConfig, walk_series

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

OSCILLATION_SUITE = "lamplighter-oscillation"
GROWTH_SUITE = "product-growth"


def _resolve_budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("LAMPHARM_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DescriptorError(
                f"LAMPHARM_BUDGET must be an integer, got {env!r}"
            )
    return DEFAULT_VERTEX_BUDGET


def _load_descriptor(text):
    """Descriptor argument: inline JSON (starts with '{') or a file path."""
    source = text.strip()
    if not source.startswith("{"):
        with open(text) as fh:
            source = fh.read()
    desc = descriptor_json(source)
    return desc, parse_descriptor(desc)


def _write_out(args, name, text):
    """Write `text` to out_dir/name when --out-dir is given."""
    if args.out_dir is None:
        return
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_build_graph(args):
    desc, G = _load_descriptor(args.descriptor)
    budget = _resolve_budget(args)
    R = args.radius
    g = ball(G, G.origin, R, budget=budget)
    # end_estimate vets R >= 1 before any line is printed
    ends = end_estimate(g, R // 2, R)
    print(f"family: {G.name}")
    print(f"degree bound: {G.degree_bound}")
    print(f"origin: {format_key(G.origin)}")
    # B_r is the first |B_r| vertices of B_R, and an edge u < v lies in
    # it iff v does
    high = g.edges()[:, 1]
    sizes = [(r, n, int(np.count_nonzero(high < n)))
             for r, n in enumerate(ball_sizes(g, R)[1:], start=1)]
    print("R |B_R| edges")
    for r, n, m in sizes:
        print(f"{r} {n} {m}")
    print(f"end estimate (r={R // 2}, R={R}): {ends}")
    _write_out(args, "ball_edges.txt", edge_list_text(g))
    _write_out(args, "ball_vertices.txt", vertex_table_text(g))
    report = ExperimentReport(manifest={"descriptor": desc, "radius": R})
    report.add_series("ball_sizes", [(r, n) for r, n, _ in sizes])
    report.add_series("ball_edges", [(r, m) for r, _, m in sizes])
    report.add_series("end_estimate", [(R, ends)])
    return report


def _boundary_from_file(path):
    with open(path) as fh:
        data = json.load(fh)
    bvals = {}
    for i, v in data.items() if isinstance(data, dict) else data:
        # object keys are strings; a float index is refused, not truncated
        try:
            i = int(i) if isinstance(data, dict) else operator.index(i)
        except TypeError:
            raise ValueError(f"boundary index {i!r} is not an integer")
        if i in bvals:
            raise ValueError(f"boundary index {i} is given twice")
        bvals[i] = float(v)
    return bvals


def cmd_solve(args):
    desc, G = _load_descriptor(args.descriptor)
    budget = _resolve_budget(args)
    g = ball(G, G.origin, args.radius, budget=budget)
    if args.boundary_file is not None:
        bvals = _boundary_from_file(args.boundary_file)
    else:
        bvals = split_values(g)
    sol = solve_dirichlet(
        DirichletProblem(g, bvals, p=args.p, tolerance=args.tolerance))
    residual = sol.stats.residual
    energy = p_energy(sol, g, args.p)
    osc = window_oscillation(g, sol, args.radius // 2)
    print(f"vertices: {g.n}  boundary: {len(bvals)}")
    print(f"p: {args.p}  residual: {fmt_value(residual)}")
    print(f"energy: {fmt_value(energy)}")
    print(f"inner oscillation: {fmt_value(osc)}")
    _write_out(args, "solution.json", dirichlet_json(
        desc, args.radius, args.p, bvals, sol.values, residual, energy) + "\n")
    report = ExperimentReport(
        manifest={
            "descriptor": desc,
            "radius": args.radius,
            "p": args.p,
            "tolerance": args.tolerance,
            "split": "sign" if args.boundary_file is None else "file",
            "interpretation": (
                "probe of conditions (3_p)/(4_p): inner oscillation of the "
                "energy-minimizing extension of a two-valued boundary split"
            ),
        }
    )
    report.add_series(
        "solution_summary",
        [("residual", residual), ("energy", energy), ("oscillation", osc)],
    )
    return report


def cmd_capacity(args):
    desc, G = _load_descriptor(args.descriptor)
    budget = _resolve_budget(args)
    cap = annulus_capacity(
        G, G.origin, args.inner, args.radius, p=args.p,
        tolerance=args.tolerance, budget=budget,
    )
    print(f"capacity(r={args.inner}, R={args.radius}, p={args.p}): "
          f"{fmt_value(cap)}")
    report = ExperimentReport(
        manifest={
            "descriptor": desc,
            "r": args.inner,
            "R": args.radius,
            "p": args.p,
            "tolerance": args.tolerance,
            "interpretation": (
                "probe of condition (2_p): decay of annulus capacity "
                "with the outer radius"
            ),
        }
    )
    report.add_series("capacity", [(args.radius, cap)])
    return report


def cmd_isoprofile(args):
    desc, G = _load_descriptor(args.descriptor)
    budget = _resolve_budget(args)
    d_list = [float(x) for x in args.d_list.split(",")]
    # every d meets iso_ratio's rule and appears once, and the growth
    # fit vets --rmax, before any witness set is built or any line printed
    for i, d in enumerate(d_list):
        iso_ratio(1, 1, d)
        if d in d_list[:i]:
            raise ValueError(f"--d-list repeats d={d:g}")
    est = growth_exponent(G, args.rmax, budget=budget)
    family = default_family(G, args.rmax, seed=args.seed, budget=budget)
    profile = iso_profile(G, family)
    report = ExperimentReport(
        manifest={
            "descriptor": desc,
            "d_list": d_list,
            "rmax": args.rmax,
            "seed": args.seed,
            "interpretation": (
                "witness-based lower bounds for the IS_d inequality "
                "constant; growth exponent feeds the dimension hypothesis"
            ),
        }
    )
    rows = []
    for d in d_list:
        points = [(n, b, d, iso_ratio(n, b, d)) for n, b in profile]
        print(f"d={d}: witness kappa lower bound "
              f"{fmt_value(is_d_kappa(profile, d))} over {len(profile)} sets")
        report.add_series(f"kappa_d_{d:g}", [(n, r) for n, _, _, r in points])
        rows.extend(points)
    print(
        f"growth exponent: {fmt_value(est.exponent)} "
        f"CI [{fmt_value(est.ci_low)}, {fmt_value(est.ci_high)}] "
        f"superpolynomial: {est.superpolynomial}"
    )
    report.add_series("growth", [
        ("exponent", est.exponent), ("ci_low", est.ci_low),
        ("ci_high", est.ci_high), ("superpolynomial", est.superpolynomial)])
    _write_out(args, "isoprofile_sets.csv",
               csv_text(["set_size", "boundary_size", "d", "ratio"], rows))
    return report


def _read_edge_list(path):
    """The graph of a file of 'u v' lines (blank lines skipped); a
    malformed line raises ValueError naming the file and line."""
    edges = []
    n = 0
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            fields = ln.split()
            if not fields:
                continue
            try:
                u, v = map(int, fields)
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: expected two vertex indices "
                    f"'u v', got {ln.strip()!r}"
                ) from None
            edges.append((u, v))
            n = max(n, u + 1, v + 1)
    return FiniteGraph.from_edges(n, edges, boundary=[])


def cmd_spanline(args):
    if args.edge_list is not None:
        # the ball options size a --descriptor ball; an edge list is the
        # whole graph
        for flag, value in (("--radius", args.radius),
                            ("--budget", args.budget)):
            if value is not None:
                raise ValueError(f"{flag} applies only with --descriptor")
        g = _read_edge_list(args.edge_list)
    else:
        _, G = _load_descriptor(args.descriptor)
        R = 3 if args.radius is None else args.radius
        g = ball(G, G.origin, R, budget=_resolve_budget(args))
    res = find_spanning_line(
        g, args.k, time_budget=args.time_budget, seed=args.seed,
        exact=args.exact,
    )
    print(f"status: {res.status}")
    keys = None
    if res.order is not None:
        keys = [format_key(g.verts[i]) for i in res.order]
    blob = {"k": args.k, "order": keys, "status": res.status}
    _write_out(args, "spanline.json",
               json.dumps(blob, indent=2, sort_keys=True) + "\n")
    if res.status == "timeout":
        return EXIT_BUDGET
    if res.status == "proved_absent":
        return EXIT_VERDICT
    return EXIT_OK


def liouville_contrast(report, walks, marks, budget=None):
    """The paired-walk Liouville contrast: walk_series at checkpoints
    `marks` for each (G, cfg) of `walks`, printed and recorded in
    `report` as the graph_a and graph_b series, and the verdict
    tv_decay_beats_baseline that the first walk's TV falls by more than
    its split-half baseline does. Returns the WalkSeries."""
    series = [walk_series(G, cfg, marks, budget=budget) for G, cfg in walks]
    for label, ser in zip(("graph_a", "graph_b"), series):
        print(f"{label} ({ser.graph}):")
        for t, tv, base in zip(ser.checkpoints, ser.tv, ser.baseline):
            print(f"  steps {t}: tv {fmt_value(tv)} baseline {fmt_value(base)}")
        report.add_series(f"{label}_tv", list(zip(ser.checkpoints, ser.tv)))
        report.add_series(f"{label}_baseline",
                          list(zip(ser.checkpoints, ser.baseline)))
    report.add_verdict("tv_decay_beats_baseline", series[0].margin, above=0)
    return series


def cmd_liouville(args):
    # the TV verdict compares the first and last of distinct checkpoints
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    desc_a, GA = _load_descriptor(args.descriptor_a)
    desc_b, GB = _load_descriptor(args.descriptor_b)
    budget = _resolve_budget(args)
    cfg = WalkConfig(steps=args.steps, trials=args.trials,
                     laziness=args.laziness, seed=args.seed)
    report = ExperimentReport(
        manifest={
            "descriptor_a": desc_a,
            "descriptor_b": desc_b,
            "steps": args.steps,
            "trials": args.trials,
            "laziness": args.laziness,
            "seed": args.seed,
            "interpretation": (
                "empirical probe of the bounded-harmonic (Liouville) "
                "dichotomy feeding condition (4_p): total-variation decay "
                "of paired walks versus a persistent plateau"
            ),
        }
    )
    T = args.steps
    marks = sorted({max(1, T // 4), max(1, T // 2), T})
    series = liouville_contrast(report, [(GA, cfg), (GB, cfg)], marks, budget)
    for label, ser in zip("ab", series):
        rows = [(t, tv, base, args.trials) for t, tv, base
                in zip(ser.checkpoints, ser.tv, ser.baseline)]
        _write_out(args, f"liouville_{label}.csv",
                   csv_text(["steps", "tv", "baseline_tv", "trials"], rows))
    return report


def _least_drop(pairs):
    """The smallest fall between successive (parameter, value) pairs."""
    return min(a[1] - b[1] for a, b in zip(pairs, pairs[1:]))


def oscillation_suite(budget=None):
    """The `reproduce lamplighter-oscillation` report: fixed-window
    oscillation decay on the lamplighter, the free-group plateau and
    annulus capacities (acceptance criteria 6 and 8)."""
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    F = free_group_graph(2)
    report = ExperimentReport(
        manifest={
            "interpretation": (
                "probe of conditions (3_p)/(4_p): oscillation of harmonic "
                "extensions of a sign split, on a fixed inner window as "
                "the boundary recedes (decay expected) and on the moving "
                "half-ball (recorded for contrast); plateau expected on "
                "the rank-2 free group"
            ),
        }
    )
    balls = {R: ball(G, G.origin, R, budget=budget) for R in (4, 6, 8)}
    for p in (1.5, 2.0):
        fixed, moving = [], []
        for R, g in balls.items():
            # one solve serves the fixed window B_2 and the half-ball
            sol = solve_dirichlet(DirichletProblem(g, split_values(g), p=p))
            osc_f = window_oscillation(g, sol, 2)
            osc_m = window_oscillation(g, sol, R // 2)
            en = p_energy(sol, g, p)
            fixed.append((R, osc_f))
            moving.append((R, osc_m))
            print(f"lamplighter p={p} R={R}: fixed-window osc "
                  f"{fmt_value(osc_f)}  half-ball osc {fmt_value(osc_m)}  "
                  f"energy {fmt_value(en)}")
        report.add_series(f"lamplighter_fixed_window_p{p:g}", fixed)
        report.add_series(f"lamplighter_half_ball_p{p:g}", moving)
        report.add_verdict(f"fixed_window_decay_p{p:g}", _least_drop(fixed),
                           above=1e-3)
    free_vals = []
    for R in (3, 4, 5):
        osc, _ = oscillation_probe(F, F.origin, R, 2.0, budget=budget)
        free_vals.append((R, osc))
        print(f"free-group p=2 R={R}: osc {fmt_value(osc)}")
    report.add_series("free_group_half_ball_p2", free_vals)
    report.add_verdict("free_group_plateau", min(v for _, v in free_vals),
                       above=0.2)

    def capacities(name, H):
        caps = []
        for R in (4, 8, 16):
            caps.append((R, annulus_capacity(H, H.origin, 1, R, p=2.0,
                                             budget=budget)))
            print(f"{name} capacity r=1 R={R}: {fmt_value(caps[-1][1])}")
        report.add_series(f"{name}_capacity", caps)
        return caps

    line_caps = capacities("line", line_graph())
    report.add_verdict(
        "line_capacity_closed_form",
        max(abs(c - 2.0 / (R - 1)) for R, c in line_caps), below=1e-8)
    report.add_verdict("grid_capacity_decay",
                       _least_drop(capacities("grid", grid_graph(2))), above=0)
    return report


def growth_suite(budget=None):
    """The `reproduce product-growth` report: growth exponents
    (acceptance criterion 7) and the path closed form."""
    report = ExperimentReport(
        manifest={
            "interpretation": (
                "growth-dimension hypothesis behind the product "
                "construction, plus solver closed-form checks"
            ),
        }
    )
    est_grid = growth_exponent(grid_graph(2), 15, budget=budget)
    print(f"grid growth exponent @15: {fmt_value(est_grid.exponent)}")
    report.add_series("grid_growth",
                      list(zip(est_grid.radii, map(float, est_grid.sizes))))
    report.add_series("grid_growth_ci", [("ci_low", est_grid.ci_low),
                                         ("ci_high", est_grid.ci_high)])
    report.add_verdict("grid_growth_dimension", est_grid.exponent,
                       above=1.85, below=2.15)
    est_line = growth_exponent(line_graph(), 20, budget=budget)
    print(f"line growth exponent @20: {fmt_value(est_line.exponent)}")
    report.add_verdict("line_growth_dimension", est_line.exponent,
                       above=0.9, below=1.1)
    est_prod = growth_exponent(direct_product(line_graph(), line_graph()), 15,
                               budget=budget)
    print(f"line x line growth exponent @15: {fmt_value(est_prod.exponent)}")
    report.add_verdict("product_additivity",
                       est_prod.exponent - est_grid.exponent,
                       above=-0.2, below=0.2)
    G = lamplighter(path_graph(2), line_graph(), IntPoint((0,)))
    est_lamp = growth_exponent(G, 8, budget=budget)
    print(f"lamplighter superpolynomial @8: {est_lamp.superpolynomial}")
    report.add_verdict("lamplighter_superpolynomial", est_lamp.fit_ratio,
                       below=SUPERPOLYNOMIAL_RATIO)
    # solver closed forms
    g = FiniteGraph.from_edges(11, [(i, i + 1) for i in range(10)],
                               boundary=[0, 10])
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        sol = solve_dirichlet(
            DirichletProblem(g, {0: 0.0, 10: 1.0}, p=p, tolerance=0.0)
        )
        worst = max(
            worst, float(np.max(np.abs(sol.values - np.arange(11) / 10)))
        )
    print(f"path closed-form worst error: {fmt_value(worst)}")
    report.add_verdict("path_linear_interpolation", worst, below=1e-8)
    return report


SUITES = {OSCILLATION_SUITE: oscillation_suite, GROWTH_SUITE: growth_suite}


def cmd_reproduce(args):
    return SUITES[args.suite](_resolve_budget(args))


def _add_common(sub, *, seed=False, tolerance=False, report=True,
                radius=False, p=False):
    """Every command takes --budget and --out-dir; the other options
    only where the command reads them."""
    if seed:
        sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--budget", type=int, default=None,
                     help="vertex budget (default LAMPHARM_BUDGET or "
                          f"{DEFAULT_VERTEX_BUDGET})")
    if tolerance:
        sub.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    sub.add_argument("--out-dir", default=None)
    if report:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    if radius:
        sub.add_argument("--radius", "-R", type=int, required=True)
    if p:
        sub.add_argument("--p", type=float, default=2.0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lampharm",
        description=(
            "finite-scale probes of harmonic functions with finite "
            "p-energy on lamplighter and product graphs"
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sp = ap.add_subparsers(dest="command", required=True)

    b = sp.add_parser("build-graph", help="materialize balls and summarize")
    b.add_argument("--descriptor", required=True)
    _add_common(b, radius=True)
    b.set_defaults(fn=cmd_build_graph)

    s = sp.add_parser("solve", help="Dirichlet solve on a ball")
    s.add_argument("--descriptor", required=True)
    s.add_argument("--boundary-file", default=None,
                   help="JSON {index: value} or [[index, value], ...]")
    _add_common(s, tolerance=True, radius=True, p=True)
    s.set_defaults(fn=cmd_solve)

    c = sp.add_parser("capacity", help="annulus capacity")
    c.add_argument("--descriptor", required=True)
    c.add_argument("--inner", "-r", type=int, required=True)
    _add_common(c, tolerance=True, radius=True, p=True)
    c.set_defaults(fn=cmd_capacity)

    i = sp.add_parser("isoprofile", help="isoperimetric witnesses + growth")
    i.add_argument("--descriptor", required=True)
    i.add_argument("--d-list", default="1,2,3")
    i.add_argument("--rmax", type=int, default=8)
    _add_common(i, seed=True)
    i.set_defaults(fn=cmd_isoprofile)

    l = sp.add_parser("spanline", help="spanning-line search in the k-fuzz")
    source = l.add_mutually_exclusive_group(required=True)
    source.add_argument("--descriptor")
    source.add_argument("--edge-list",
                        help="file of 'u v' lines (vertex indices)")
    l.add_argument("--radius", "-R", type=int, default=None,
                   help="ball radius with --descriptor (default 3)")
    l.add_argument("-k", type=int, default=1)
    l.add_argument("--exact", action="store_true",
                   help="force exhaustive backtracking at any size")
    l.add_argument("--time-budget", type=float, default=10.0)
    _add_common(l, seed=True, report=False)
    l.set_defaults(fn=cmd_spanline)

    w = sp.add_parser("liouville", help="paired random-walk TV contrast")
    w.add_argument("--descriptor-a", required=True)
    w.add_argument("--descriptor-b", required=True)
    w.add_argument("--steps", type=int, default=200)
    w.add_argument("--trials", type=int, default=100_000)
    w.add_argument("--laziness", type=float, default=0.5)
    _add_common(w, seed=True)
    w.set_defaults(fn=cmd_liouville)

    r = sp.add_parser("reproduce", help="canned experiment suites")
    r.add_argument("suite", choices=SUITES)
    _add_common(r, seed=True)
    r.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv=None):
    # argparse exits with 2 on usage errors itself
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
        # spanline writes its own file and exits by the search's status
        if not isinstance(report, ExperimentReport):
            return report
        report.manifest["command"] = stem = args.command
        if args.command == "reproduce":
            report.manifest.update(suite=args.suite, seed=args.seed)
            stem = args.suite
        for name, v in report.verdicts.items():
            state = "pass" if v["passed"] else "FAIL"
            bounds = "".join(f" {k} {v[k]}" for k in ("above", "below")
                             if k in v)
            print(f"[{state}] {name}: value {fmt_value(v['value'])}{bounds}")
        text = (report.to_json() + "\n" if args.format == "json"
                else report.to_csv())
        _write_out(args, f"{stem.replace('-', '_')}.{args.format}", text)
        return EXIT_OK if report.all_passed else EXIT_VERDICT
    except DescriptorError as e:
        print(json.dumps({"error": "descriptor", "detail": str(e)}),
              file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError, DisconnectedInteriorError) as e:
        print(json.dumps({"error": "input", "detail": str(e)}),
              file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as e:
        print(json.dumps({"error": "budget", "detail": str(e)}),
              file=sys.stderr)
        return EXIT_BUDGET
    except NonConvergenceError as e:
        print(json.dumps({"error": "no_convergence", "detail": str(e)}),
              file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
