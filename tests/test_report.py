"""Report serialization tests: deterministic JSON/CSV output, verdict
bookkeeping, and the Dirichlet solution export."""

import json

import numpy as np

import lampharm
from lampharm.report import (
    ExperimentReport,
    dirichlet_json,
    fmt_value,
)


def _sample_report():
    rep = ExperimentReport(manifest={"command": "demo", "seed": 42})
    rep.add_series("capacity", [(4, 0.5), (8, 0.25)])
    rep.add_verdict("decay", True, "strictly decreasing", 0.25)
    rep.add_verdict("closed_form", False, "within 1e-8", 3.0e-7)
    return rep


def test_manifest_records_tool_version():
    rep = _sample_report()
    assert rep.manifest["tool_version"] == lampharm.__version__
    assert rep.manifest["seed"] == 42


def test_all_passed_reflects_verdicts():
    rep = ExperimentReport(manifest={})
    assert rep.all_passed
    rep.add_verdict("a", True, "t", 1.0)
    assert rep.all_passed
    rep.add_verdict("b", False, "t", 2.0)
    assert not rep.all_passed


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
        "passed": False, "threshold": "within 1e-8", "value": 3.0e-7}


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
