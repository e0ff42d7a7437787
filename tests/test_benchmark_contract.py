"""The benchmark in perfbench/ reaches into lampharm by name: its tracing
hooks swap module attributes (graphs.ball, graphs.graph_distances,
potential.p_energy, ...) and its residual checker reads FiniteGraph.adj.
This test loads those two perfbench files as they are and runs them
around one small probe, so renaming a hooked name fails here instead of
breaking `perfbench/run.py --trace 1`."""

import dataclasses

import lampharm.cli  # noqa: F401  (the hooks wrap cli.main too)
from lampharm import graphs, potential
from lampharm.graphs import lamplighter, line_graph, path_graph
from lampharm.keys import IntPoint


def test_trace_hooks_and_residual_checker_fit_the_package(load_perfbench):
    instrument = load_perfbench("instrument")
    residual = load_perfbench("residual")
    original_ball = graphs.ball
    # the oracle path, which calls neighbors once per ball vertex
    G = dataclasses.replace(
        lamplighter(path_graph(2), line_graph(), IntPoint((0,))),
        walk_encoding=None)
    rec, tracer = instrument.Recorder(), instrument.Tracer()
    with instrument.instrumented(rec, tracer):
        osc, _ = potential.oscillation_probe(G, G.origin, 4, 2.0,
                                             inner_radius=2)
        # a probe's solve skips the reachability BFS on a ball, so the
        # graph_distances hook is exercised directly
        graphs.graph_distances(graphs.FiniteGraph.from_edges(2, [(0, 1)]), 0)
    assert graphs.ball is original_ball
    assert 0.0 <= osc <= 1.0

    names = {s.name for s in tracer.spans}
    assert {"potential.probe", "graphs.ball", "graphs.graph_distances",
            "potential.solve.p2", "potential.p_energy"} <= names
    (ball_span,) = [s for s in tracer.spans if s.name == "graphs.ball"]
    assert ball_span.attrs["vertices"] == 44
    assert ball_span.counts["graphs.neighbors"] == 44

    assert len(rec.solves) == 1
    for prob, sol in rec.solves:
        r = residual.p_laplacian_residual(
            prob.graph.adj, prob.graph.boundary_mask, sol.values, prob.p)
        assert r <= prob.tolerance
