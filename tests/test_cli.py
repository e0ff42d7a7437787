"""CLI tests: exit codes, subcommand output, artifact files, and
byte-identical reruns under a fixed seed."""

import dataclasses
import json
import os

import pytest

from lampharm.cli import main
from lampharm.potential import residual_floor

LAMP = (
    '{"family": "lamplighter", "lamp": {"family": "path", "n": 2}, '
    '"space": {"family": "line"}, "root": 0}'
)


def test_build_graph_line_ball_sizes(capsys):
    code = main(["build-graph", "--descriptor", '{"family": "line"}',
                 "--radius", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5 11 10" in out
    assert "degree bound: 2" in out


def test_unknown_family_exits_2(capsys):
    code = main(["build-graph", "--descriptor", '{"family": "moebius"}',
                 "--radius", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "descriptor" in err


@pytest.mark.parametrize("in_file", [False, True], ids=["inline", "file"])
def test_malformed_descriptor_json_is_a_descriptor_error(tmp_path, capsys,
                                                         in_file):
    text = '{"family": line}'
    if in_file:
        (tmp_path / "bad.json").write_text(text)
        text = str(tmp_path / "bad.json")
    code = main(["build-graph", "--descriptor", text, "-R", "2"])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "descriptor",
        "detail": "descriptor is not valid JSON: Expecting value: "
                  "line 1 column 12 (char 11)",
    }


def test_missing_descriptor_file_exits_2(tmp_path, capsys):
    code = main(["build-graph", "--descriptor",
                 str(tmp_path / "nope.json"), "--radius", "2"])
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["solve", "--descriptor", '{"family": "line"}'])
    assert e.value.code == 2


def test_solve_constant_boundary_zero_energy(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    # boundary of the radius-3 line ball is vertices at distance 3
    bfile.write_text(json.dumps({"5": 2.5, "6": 2.5}))
    code = main([
        "solve", "--descriptor", '{"family": "line"}', "--radius", "3",
        "--boundary-file", str(bfile), "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy: 0" in out
    blob = json.loads((tmp_path / "solution.json").read_text())
    assert all(v == 2.5 for v in blob["solution"])


def test_solve_writes_report(tmp_path, capsys):
    code = main([
        "solve", "--descriptor", LAMP, "--radius", "4",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["manifest"]["command"] == "solve"
    assert "solution_summary" in rep["series"]


def test_solve_manifest_records_the_split(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps({"5": 0.0, "6": 1.0}))
    for extra, split in (([], "sign"), (["--boundary-file", str(bfile)],
                                         "file")):
        out = tmp_path / split
        code = main(["solve", "--descriptor", '{"family": "line"}',
                     "--radius", "3", "--out-dir", str(out)] + extra)
        assert code == 0
        rep = json.loads((out / "solve.json").read_text())
        assert rep["manifest"]["split"] == split


def test_solve_reports_the_p_laplacian_residual(tmp_path, capsys):
    # at p != 2 the reported residual is the p-Laplacian one that the
    # solver stops on, not the p=2 mean-value residual
    code = main(["solve", "--descriptor", LAMP, "--radius", "4",
                 "--p", "1.5", "--out-dir", str(tmp_path)])
    assert code == 0
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["residual"] <= residual_floor(1.0, 1.5)
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["series"]["solution_summary"][0] == ["residual", sol["residual"]]


def test_capacity_line_closed_form(capsys):
    code = main(["capacity", "--descriptor", '{"family": "line"}',
                 "--inner", "1", "--radius", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.25" in out


def test_isoprofile_writes_csv(tmp_path, capsys):
    code = main([
        "isoprofile", "--descriptor", '{"family": "grid", "d": 2}',
        "--d-list", "2", "--rmax", "5", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "isoprofile_sets.csv").read_text().splitlines()
    assert lines[0] == "set_size,boundary_size,d,ratio"
    assert len(lines) > 4


def test_isoprofile_csv_report_keeps_the_witness_table(tmp_path, capsys):
    code = main([
        "isoprofile", "--descriptor", '{"family": "grid", "d": 2}',
        "--d-list", "2", "--rmax", "5", "--format", "csv",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    table = (tmp_path / "isoprofile_sets.csv").read_text().splitlines()
    assert table[0] == "set_size,boundary_size,d,ratio"
    report = (tmp_path / "isoprofile.csv").read_text().splitlines()
    assert report[0] == "series,parameter,value"
    assert capsys.readouterr().out.count("wrote ") == 2


def test_spanline_star_proved_absent_exits_1(tmp_path, capsys):
    elist = tmp_path / "star.txt"
    elist.write_text("0 1\n0 2\n0 3\n")
    code = main(["spanline", "--edge-list", str(elist), "-k", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "proved_absent" in out


def test_spanline_star_found_in_two_fuzz(tmp_path, capsys):
    elist = tmp_path / "star.txt"
    elist.write_text("0 1\n0 2\n0 3\n")
    code = main(["spanline", "--edge-list", str(elist), "-k", "2",
                 "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "found" in out
    blob = json.loads((tmp_path / "spanline.json").read_text())
    assert blob["status"] == "found"
    assert len(blob["order"]) == 4


def test_liouville_line_beats_free_group(tmp_path, capsys):
    code = main([
        "liouville",
        "--descriptor-a", '{"family": "line"}',
        "--descriptor-b", '{"family": "free_group", "rank": 2}',
        "--steps", "60", "--trials", "4000", "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] tv_decay_beats_baseline" in out
    lines = (tmp_path / "liouville_a.csv").read_text().splitlines()
    assert lines[0] == "steps,tv,baseline_tv,trials"
    assert len(lines) == 4


def test_liouville_csv_rerun_is_byte_identical(tmp_path):
    args = [
        "liouville",
        "--descriptor-a", '{"family": "line"}',
        "--descriptor-b", '{"family": "cycle", "n": 6}',
        "--steps", "30", "--trials", "2000", "--seed", "5",
    ]
    main(args + ["--out-dir", str(tmp_path / "one")])
    main(args + ["--out-dir", str(tmp_path / "two")])
    a = (tmp_path / "one" / "liouville_a.csv").read_bytes()
    b = (tmp_path / "two" / "liouville_a.csv").read_bytes()
    assert a == b


def test_budget_flag_trumps_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAMPHARM_BUDGET", "10")
    code = main(["build-graph", "--descriptor", '{"family": "line"}',
                 "--radius", "4", "--budget", "1000"])
    assert code == 0
    code = main(["build-graph", "--descriptor", '{"family": "line"}',
                 "--radius", "50"])
    assert code == 3
    err = capsys.readouterr().err
    assert "budget" in err


def test_bad_budget_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("LAMPHARM_BUDGET", "lots")
    code = main(["build-graph", "--descriptor", '{"family": "line"}',
                 "--radius", "3"])
    assert code == 2


def test_reproduce_growth_suite_passes(capsys):
    code = main(["reproduce", "product-growth"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] grid_growth_dimension" in out
    assert "[pass] lamplighter_superpolynomial" in out
    assert "[FAIL]" not in out


def test_reproduce_oscillation_suite_passes(tmp_path, capsys):
    code = main(["reproduce", "lamplighter-oscillation",
                 "--out-dir", str(tmp_path), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] fixed_window_decay_p2" in out
    assert "[pass] free_group_plateau" in out
    assert "[FAIL]" not in out
    csv_text = (tmp_path / "lamplighter_oscillation.csv").read_text()
    assert csv_text.startswith("series,parameter,value")
    assert "lamplighter_fixed_window_p2" in csv_text


@pytest.mark.parametrize("suite", ["lamplighter-oscillation",
                                   "product-growth"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reproduce_rerun_is_byte_identical(tmp_path, capsys, suite, fmt):
    name = f"{suite.replace('-', '_')}.{fmt}"
    runs = []
    for out in ("one", "two"):
        assert main(["reproduce", suite, "--format", fmt,
                     "--out-dir", str(tmp_path / out)]) == 0
        runs.append((tmp_path / out / name).read_bytes())
    assert runs[0] == runs[1]


LINE = '{"family": "line"}'
FREE = '{"family": "free_group", "rank": 2}'


@pytest.mark.parametrize("argv, stem, manifest, code", [
    (["build-graph", "--descriptor", LINE, "-R", "3"], "build_graph",
     {"command": "build-graph"}, 0),
    (["solve", "--descriptor", LINE, "-R", "3"], "solve",
     {"command": "solve"}, 0),
    (["capacity", "--descriptor", LINE, "-r", "1", "-R", "4"], "capacity",
     {"command": "capacity"}, 0),
    (["isoprofile", "--descriptor", LINE, "--rmax", "4"], "isoprofile",
     {"command": "isoprofile"}, 0),
    (["liouville", "--descriptor-a", LAMP, "--descriptor-b", FREE,
      "--steps", "8", "--trials", "500"], "liouville",
     {"command": "liouville"}, 0),
    # a TV that falls less than its baseline: the one verdict fails
    (["liouville", "--descriptor-a", FREE, "--descriptor-b", LINE,
      "--steps", "2", "--trials", "50", "--laziness", "0.9", "--seed", "3"],
     "liouville", {"command": "liouville"}, 1),
    (["reproduce", "product-growth", "--seed", "7"], "product_growth",
     {"command": "reproduce", "suite": "product-growth", "seed": 7}, 0),
    (["reproduce", "lamplighter-oscillation"], "lamplighter_oscillation",
     {"command": "reproduce", "suite": "lamplighter-oscillation", "seed": 42},
     0),
], ids=["build-graph", "solve", "capacity", "isoprofile", "liouville",
        "liouville-fails", "product-growth", "lamplighter-oscillation"])
def test_main_publishes_every_report(tmp_path, capsys, argv, stem, manifest,
                                     code):
    """main stamps the manifest, writes {stem}.{format} alone and exits by
    the report's verdicts."""
    for fmt in ("json", "csv"):
        out = tmp_path / fmt
        assert main(argv + ["--format", fmt, "--out-dir", str(out)]) == code
        other = {"json": "csv", "csv": "json"}[fmt]
        assert (out / f"{stem}.{fmt}").exists()
        assert not (out / f"{stem}.{other}").exists()
    rep = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
    assert manifest.items() <= rep["manifest"].items()
    passed = all(v["passed"] for v in rep["verdicts"].values())
    assert passed == (code == 0)


@pytest.mark.parametrize("argv, text", [
    pytest.param(["spanline", "-k", "1"], None, id="spanline-no-graph"),
    pytest.param(["spanline", "--edge-list", "{file}"], "0 1 2\n",
                 id="edge-list-three-fields"),
    pytest.param(["spanline", "--edge-list", "{file}"], "0 x\n",
                 id="edge-list-not-an-int"),
    pytest.param(["solve", "--descriptor", LINE, "-R", "3",
                  "--boundary-file", "{file}"], '{"a": 1}',
                 id="boundary-file-not-an-index"),
    # indices 7 and 8 are the sphere of the line's B_4
    pytest.param(["solve", "--descriptor", LINE, "-R", "4",
                  "--boundary-file", "{file}"], "[[7, 0.0], [8.9, 1.0]]",
                 id="boundary-file-float-index"),
    pytest.param(["solve", "--descriptor", LINE, "-R", "4",
                  "--boundary-file", "{file}"],
                 "[[7, 0.0], [8, 1.0], [7, 1.0]]",
                 id="boundary-file-repeated-index"),
    pytest.param(["isoprofile", "--descriptor", LINE, "--d-list", "a"], None,
                 id="d-list-not-a-number"),
    pytest.param(["capacity", "--descriptor", LINE, "-r", "0", "-R", "3"],
                 None, id="capacity-r-0"),
    pytest.param(["build-graph", "--descriptor", LINE, "-R", "-1"], None,
                 id="negative-radius"),
    pytest.param(["liouville", "--descriptor-a", LINE, "--descriptor-b",
                  LINE, "--trials", "0"], None, id="zero-trials"),
    pytest.param(["solve", "--descriptor", LINE, "-R", "3", "--p", "1"],
                 None, id="solve-p-1"),
    pytest.param(["liouville", "--descriptor-a", LINE, "--descriptor-b",
                  LINE, "--steps", "0"], None, id="liouville-steps-0"),
    pytest.param(["liouville", "--descriptor-a", LINE, "--descriptor-b",
                  LINE, "--steps", "1"], None, id="liouville-steps-1"),
    pytest.param(["spanline", "--edge-list", "{file}", "-R", "5"], "0 1\n",
                 id="edge-list-with-radius"),
    pytest.param(["spanline", "--edge-list", "{file}", "--budget", "10"],
                 "0 1\n", id="edge-list-with-budget"),
    pytest.param(["isoprofile", "--descriptor", LINE, "--d-list", "2,0.5"],
                 None, id="d-list-below-1-after-a-good-d"),
    pytest.param(["isoprofile", "--descriptor", LINE, "--d-list", "nan"],
                 None, id="d-list-nan"),
    pytest.param(["isoprofile", "--descriptor", LINE, "--d-list", "inf"],
                 None, id="d-list-inf"),
    pytest.param(["build-graph", "--descriptor", LINE, "-R", "0"], None,
                 id="build-graph-radius-0"),
    pytest.param(["solve", "--descriptor", LINE, "-R", "4", "--tolerance",
                  "nan"], None, id="solve-tolerance-nan"),
    pytest.param(["capacity", "--descriptor", LINE, "-r", "1", "-R", "4",
                  "--tolerance", "nan"], None, id="capacity-tolerance-nan"),
    pytest.param(["spanline", "--descriptor", LINE, "-R", "4",
                  "--time-budget", "nan"], None, id="time-budget-nan"),
    # B_4 of the 7-cycle is the whole cycle, so it has no boundary
    pytest.param(["solve", "--descriptor", '{"family": "cycle", "n": 7}',
                  "-R", "4"], None, id="solve-saturated-ball"),
    pytest.param(["isoprofile", "--descriptor", LINE, "--d-list", "2,2.0"],
                 None, id="d-list-repeated"),
])
def test_input_errors_exit_2(tmp_path, capsys, argv, text):
    # exit 1 means a verdict failed or absence was proved, so bad input
    # must not end there
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "{file}" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects the usage itself
        assert e.code == 2
        assert "one of the arguments" in capsys.readouterr().err
        return
    assert code == 2
    out, err = capsys.readouterr()
    # nothing is printed before the input is vetted
    assert out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("rmax", ["0", "1", "2"])
def test_isoprofile_small_rmax_exits_2_before_any_output(capsys, rmax):
    # the growth fit needs three radii; no witness line may come first
    code = main(["isoprofile", "--descriptor", LINE, "--rmax", rmax])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "input",
                               "detail": f"Rmax must be >= 3, got {rmax}"}


def test_isoprofile_oracle_calls_do_not_depend_on_the_d_list(monkeypatch,
                                                             capsys):
    # each witness's boundary is counted once, whatever the d-list holds
    from lampharm import cli
    from lampharm.descriptors import parse_descriptor

    calls = []

    def counted(desc):
        G = parse_descriptor(desc)

        def neighbors(v):
            calls.append(v)
            return G.neighbors(v)

        return dataclasses.replace(G, neighbors=neighbors)

    monkeypatch.setattr(cli, "parse_descriptor", counted)
    counts = []
    for d_list in ("2", "1,2,3"):
        calls.clear()
        assert main(["isoprofile", "--descriptor", LAMP, "--rmax", "6",
                     "--d-list", d_list]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_build_graph_at_radius_1(capsys):
    # r = R // 2 = 0: the ends of the line are the two sides of its center
    assert main(["build-graph", "--descriptor", LINE, "--radius", "1"]) == 0
    assert capsys.readouterr().out.endswith(
        "R |B_R| edges\n1 3 2\nend estimate (r=0, R=1): 2\n")


@pytest.mark.parametrize("text, lineno", [
    ("0 1\n\n0 1 2\n", 3),
    ("0 x\n", 1),
])
def test_malformed_edge_list_line_is_located(tmp_path, capsys, text, lineno):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    assert main(["spanline", "--edge-list", str(path)]) == 2
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert f"{path} line {lineno}:" in detail


@pytest.mark.parametrize("argv", [
    ["build-graph", "--descriptor", LINE, "-R", "2", "--seed", "1"],
    ["build-graph", "--descriptor", LINE, "-R", "2", "--tolerance", "1e-9"],
    ["solve", "--descriptor", LINE, "-R", "2", "--seed", "1"],
    ["solve", "--descriptor", LINE, "-R", "2", "--split", "sign"],
    ["capacity", "--descriptor", LINE, "-r", "1", "-R", "3", "--seed", "1"],
    ["isoprofile", "--descriptor", LINE, "--tolerance", "1e-9"],
    ["liouville", "--descriptor-a", LINE, "--descriptor-b", LINE,
     "--tolerance", "1e-9"],
    ["reproduce", "product-growth", "--tolerance", "1e-9"],
    ["spanline", "--descriptor", LINE, "--format", "json"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_options_no_command_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_spanline_exact_proves_absence_past_the_exact_limit(tmp_path, capsys):
    from lampharm import spanning

    elist = tmp_path / "star.txt"  # K_1,31: 32 vertices, over EXACT_LIMIT
    elist.write_text("".join(f"0 {i}\n" for i in range(1, 32)))
    code = main(["spanline", "--edge-list", str(elist), "-k", "1", "--exact"])
    assert code == 1
    assert "proved_absent" in capsys.readouterr().out
    assert spanning.EXACT_LIMIT == 30


def test_liouville_csv_is_identical_across_hash_seeds(tmp_path):
    # histogram labels are hashed, so their iteration order follows the
    # process's hash seed; the TV values must not
    import subprocess
    import sys

    import lampharm

    src = os.path.dirname(os.path.dirname(lampharm.__file__))
    out = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "lampharm.cli", "liouville",
             "--descriptor-a", '{"family": "line"}',
             "--descriptor-b", '{"family": "caterpillar"}',
             "--steps", "60", "--trials", "3000",
             "--out-dir", str(tmp_path / seed)],
            env=env, check=True, capture_output=True,
        )
        out[seed] = [(tmp_path / seed / f"liouville_{s}.csv").read_bytes()
                     for s in "ab"]
    assert out["1"] == out["2"]


def test_build_graph_builds_the_ball_once(monkeypatch, capsys):
    from lampharm import cli, graphs

    radii = []

    def counted(G, center, R, **kw):
        radii.append(R)
        return ball(G, center, R, **kw)

    ball = graphs.ball
    monkeypatch.setattr(cli, "ball", counted)
    monkeypatch.setattr(graphs, "ball", counted)
    code = main(["build-graph", "--descriptor",
                 '{"family": "grid", "d": 2}', "--radius", "6"])
    assert code == 0
    assert radii == [6]
    assert "end estimate (r=3, R=6): 1" in capsys.readouterr().out


def test_oscillation_suite_builds_each_lamplighter_ball_once(monkeypatch):
    from lampharm import cli, graphs

    radii = []

    def counted(G, center, R, **kw):
        radii.append(R)
        return graphs.ball(G, center, R, **kw)

    monkeypatch.setattr(cli, "ball", counted)
    report = cli.oscillation_suite()
    assert report.all_passed
    assert radii == [4, 6, 8]


def test_spanline_finds_the_caterpillar_line(capsys):
    code = main(["spanline", "--descriptor", '{"family": "caterpillar"}',
                 "-R", "2", "-k", "3"])
    assert code == 0
    assert "status: found" in capsys.readouterr().out


def test_build_graph_reads_the_descriptor_from_a_file(tmp_path, capsys):
    path = tmp_path / "caterpillar.json"
    path.write_text('{"family": "caterpillar"}')
    code = main(["build-graph", "--descriptor", str(path), "--radius", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "family: caterpillar" in out and "degree bound: 3" in out
    assert "1 4 3\n2 8 7\n" in out


def test_lamplighter_root_given_as_coordinates(capsys):
    def build(root):
        desc = json.dumps({"family": "lamplighter",
                           "lamp": {"family": "path", "n": 2},
                           "space": {"family": "line"}, "root": root})
        code = main(["build-graph", "--descriptor", desc, "--radius", "3"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert build([1]) == build(1)
    assert build([1])[0] == 0
    code, _, err = build([1, 0])
    assert code == 2
    assert "not a path vertex" in err


def test_solve_out_of_iterations_exits_3(monkeypatch, capsys):
    from lampharm import potential

    monkeypatch.setattr(potential, "DEFAULT_MAX_ITERS", 1)
    code = main(["solve", "--descriptor",
                 '{"family": "free_group", "rank": 2}', "--radius", "4"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "no_convergence"
