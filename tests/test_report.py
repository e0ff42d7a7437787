"""Report serialization tests: deterministic JSON/CSV output, verdict
bookkeeping, and the Dirichlet solution export."""

import json

import numpy as np
import pytest

import lampharm
from lampharm.cli import oscillation_suite
from lampharm.report import (
    ExperimentReport,
    dirichlet_json,
    fmt_value,
)


def _sample_report():
    rep = ExperimentReport(manifest={"command": "demo", "seed": 42})
    rep.add_series("capacity", [(4, 0.5), (8, 0.25)])
    rep.add_verdict("decay", 0.25, above=0)
    rep.add_verdict("closed_form", 3.0e-7, below=1e-8)
    return rep


def test_manifest_records_tool_version():
    rep = _sample_report()
    assert rep.manifest["tool_version"] == lampharm.__version__
    assert rep.manifest["seed"] == 42


def test_all_passed_reflects_verdicts():
    rep = ExperimentReport(manifest={})
    assert rep.all_passed
    rep.add_verdict("a", 1.0, above=0.5)
    assert rep.all_passed
    rep.add_verdict("b", 2.0, below=1.5)
    assert not rep.all_passed


@pytest.mark.parametrize("bounds", [{"above": 1.0}, {"below": 1.0},
                                    {"above": 1.0, "below": 2.0},
                                    {"above": 0.0, "below": 1.0}])
def test_value_on_a_bound_fails(bounds):
    rep = ExperimentReport()
    rep.add_verdict("edge", 1.0, **bounds)
    assert rep.verdicts["edge"]["passed"] is False


def test_two_sided_verdict_passes_only_between_its_bounds():
    rep = ExperimentReport()
    for name, value in (("inside", 2.0), ("low", 1.8), ("high", 2.2)):
        rep.add_verdict(name, value, above=1.85, below=2.15)
    assert [v["passed"] for v in rep.verdicts.values()] == [
        True, False, False]


def test_verdict_without_a_bound_raises():
    rep = ExperimentReport()
    with pytest.raises(ValueError, match="bound"):
        rep.add_verdict("loose", 1.0)
    assert rep.verdicts == {}


def test_json_verdict_keys_are_the_outcome_value_and_given_bounds():
    rep = ExperimentReport()
    rep.add_verdict("one", 0.5, above=0)
    rep.add_verdict("other", 0.5, below=1)
    rep.add_verdict("both", 0.0, above=-0.2, below=0.2)
    verdicts = json.loads(rep.to_json())["verdicts"]
    assert verdicts == {
        "one": {"passed": True, "value": 0.5, "above": 0},
        "other": {"passed": True, "value": 0.5, "below": 1},
        "both": {"passed": True, "value": 0.0, "above": -0.2, "below": 0.2},
    }


def test_json_roundtrip_and_determinism():
    rep = _sample_report()
    text = rep.to_json()
    again = rep.to_json()
    assert text == again
    blob = json.loads(text)
    assert blob["manifest"]["command"] == "demo"
    assert blob["series"]["capacity"] == [[4, 0.5], [8, 0.25]]
    assert blob["verdicts"]["decay"]["passed"] is True
    assert blob["verdicts"]["closed_form"] == {
        "passed": False, "value": 3.0e-7, "below": 1e-8}


def test_csv_lists_series_rows_sorted():
    rep = _sample_report()
    rep.add_series("alpha", [(1, 2.0)])
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "series,parameter,value"
    assert lines[1].startswith("alpha,")
    body = [ln.split(",")[0] for ln in lines[1:]]
    assert body == sorted(body)


def test_fmt_value_variants():
    assert fmt_value(True) == "true"
    assert fmt_value(False) == "false"
    assert fmt_value(0.5) == "0.5"
    assert fmt_value(1) == "1"
    # 17 significant digits round-trip doubles exactly
    x = 1.0 / 3.0
    assert float(fmt_value(x)) == x


def test_dirichlet_json_contains_solution_and_boundary():
    values = np.array([0.0, 0.5, 1.0])
    text = dirichlet_json(
        {"family": "path", "n": 3}, 2, 2.0, {0: 0.0, 2: 1.0},
        values, 1e-12, 0.5,
    )
    blob = json.loads(text)
    assert blob["graph"]["family"] == "path"
    assert blob["p"] == 2.0
    assert blob["solution"] == [0.0, 0.5, 1.0]
    assert blob["boundary"] == [[0, 0.0], [2, 1.0]]
    assert blob["residual"] <= 1e-10
    assert blob["energy"] == 0.5
    # deterministic output
    assert text == dirichlet_json(
        {"family": "path", "n": 3}, 2, 2.0, {0: 0.0, 2: 1.0},
        values, 1e-12, 0.5,
    )


def test_series_backed_verdict_values_follow_from_the_report_series():
    # the oscillation suite's verdicts are summaries of its own series
    rep = oscillation_suite()
    vals = {name: [v for _, v in pairs] for name, pairs in rep.series.items()}

    def least_drop(xs):
        return min(a - b for a, b in zip(xs, xs[1:]))

    expected = {
        "fixed_window_decay_p1.5": least_drop(
            vals["lamplighter_fixed_window_p1.5"]),
        "fixed_window_decay_p2": least_drop(
            vals["lamplighter_fixed_window_p2"]),
        "free_group_plateau": min(vals["free_group_half_ball_p2"]),
        "line_capacity_closed_form": max(
            abs(c - 2.0 / (R - 1)) for R, c in rep.series["line_capacity"]),
        "grid_capacity_decay": least_drop(vals["grid_capacity"]),
    }
    assert {name: v["value"] for name, v in rep.verdicts.items()} == expected
    assert rep.all_passed
