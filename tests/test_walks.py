"""Random-walk engine tests: exact small-case laws, a convolution
oracle for the line, chi-square sanity on finite graphs, determinism,
and validation. Critical values are hardcoded (1% level): 6.635 for 1
degree of freedom, 18.475 for 7."""

import dataclasses
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from lampharm.graphs import (
    GraphOracle,
    BudgetExceededError,
    InvalidVertexError,
    array_frame,
    ball,
    caterpillar_graph,
    cycle_graph,
    direct_product,
    free_group_graph,
    grid_graph,
    lamplighter,
    line_graph,
    path_graph,
)
from lampharm import walks
from lampharm.keys import IntPoint, LampKey, PairKey, VertexKey, WordKey
from lampharm.walks import BATCH_TRIALS, WalkConfig, tv_distance, walk_series

CHI2_1DF_1PCT = 6.635
CHI2_7DF_1PCT = 18.475


def _lamp_graph():
    return lamplighter(path_graph(2), line_graph(), IntPoint((0,)))


def _key_walks(G, cfg):
    """Endpoint histograms over vertex keys at cfg.steps, one per start,
    from the key engine."""
    a, b = walks._resolve_starts(G, cfg)
    rng = np.random.default_rng(cfg.seed)
    frame = walks._KeyFrame(G)
    ha, _ = walks._run_walk(frame, a, cfg, [cfg.steps], rng)
    hb, _ = walks._run_walk(frame, b, cfg, [cfg.steps], rng)
    return ha[cfg.steps], hb[cfg.steps]


def _chi_square_uniform(counts):
    """Chi-square statistic of counts against the uniform law on their
    bins."""
    counts = np.asarray(list(counts), dtype=float)
    expect = counts.sum() / len(counts)
    return float(np.sum((counts - expect) ** 2 / expect))


def test_zero_steps_gives_point_masses_at_starts():
    G = line_graph()
    cfg = WalkConfig(steps=0, trials=50, seed=3)
    ha, hb = _key_walks(G, cfg)
    assert ha == {IntPoint((0,)): 50}
    assert hb == {G.neighbors(G.origin)[0]: 50}


def test_zero_steps_from_distinct_starts_gives_tv_one():
    """-1 and -2 have equal hashes in CPython; labels must not merge them."""
    G = line_graph()
    cfg = WalkConfig(steps=0, trials=10, seed=0,
                     start_a=IntPoint((-1,)), start_b=IntPoint((-2,)))
    assert walk_series(G, cfg).tv == [1.0]


def test_one_step_no_laziness_is_uniform_on_both_sides():
    G = line_graph()
    cfg = WalkConfig(steps=1, trials=10_000, laziness=0.0, seed=11)
    ha, _ = _key_walks(G, cfg)
    assert set(ha) == {IntPoint((-1,)), IntPoint((1,))}
    stat = _chi_square_uniform(ha.values())
    assert stat < CHI2_1DF_1PCT


def test_endpoints_stay_within_distance_steps():
    G = _lamp_graph()
    cfg = WalkConfig(steps=5, trials=200, laziness=0.3, seed=5)
    ha, hb = _key_walks(G, cfg)
    reach = set(ball(G, G.origin, 6).verts)
    for k in list(ha) + list(hb):
        assert k in reach


def test_histogram_counts_sum_to_trials_and_keys_are_vertex_keys():
    G = _lamp_graph()
    cfg = WalkConfig(steps=7, trials=321, seed=9)
    ha, hb = _key_walks(G, cfg)
    assert sum(ha.values()) == 321
    assert sum(hb.values()) == 321
    assert all(isinstance(k, VertexKey) for k in ha)


def test_same_seed_reproduces_histograms_exactly():
    G = _lamp_graph()
    cfg = WalkConfig(steps=8, trials=500, seed=7)
    first = _key_walks(G, cfg)
    second = _key_walks(G, cfg)
    assert first == second


def test_different_seeds_differ():
    G = line_graph()
    a = _key_walks(G, WalkConfig(steps=20, trials=400, seed=1))
    b = _key_walks(G, WalkConfig(steps=20, trials=400, seed=2))
    assert a != b


def test_tv_identical_histograms_is_exactly_zero():
    h = {IntPoint((0,)): 3, IntPoint((1,)): 7}
    assert tv_distance(h, h) == 0.0


def test_tv_disjoint_supports_is_one():
    a = {IntPoint((0,)): 5}
    b = {IntPoint((1,)): 9}
    assert tv_distance(a, b) == 1.0


def test_tv_empty_histogram_rejected():
    with pytest.raises(ValueError):
        tv_distance({}, {IntPoint((0,)): 1})


def test_tv_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = {IntPoint((i,)): int(c) + 1 for i, c in
             enumerate(rng.integers(0, 50, size=6))}
        b = {IntPoint((i + 3,)): int(c) + 1 for i, c in
             enumerate(rng.integers(0, 50, size=6))}
        v = tv_distance(a, b)
        assert 0.0 <= v <= 1.0


def _tv_fraction(a, b):
    """Exact TV over the union of the keys, in rationals."""
    na, nb = sum(a.values()), sum(b.values())
    return float(sum(abs(Fraction(a.get(k, 0), na) - Fraction(b.get(k, 0), nb))
                     for k in a.keys() | b.keys()) / 2)


def test_tv_matches_an_exact_rational_reference():
    rng = np.random.default_rng(4)
    cases = [
        ({"x": 3, "y": 1}, {"x": 1, "y": 3}),
        ({"x": 5}, {"x": 2, "y": 7, "z": 1}),      # keys only in b
        ({"x": 5, "y": 2}, {"z": 9}),              # disjoint supports
        ({"x": 2**31 - 1, "y": 1}, {"y": 2**31 - 1}),   # n_a n_b < 2**62
    ]
    for _ in range(30):
        a = {int(k): int(c) for k, c in
             zip(rng.integers(0, 40, 25), rng.integers(1, 1000, 25))}
        b = {int(k): int(c) for k, c in
             zip(rng.integers(20, 60, 25), rng.integers(1, 1000, 25))}
        cases.append((a, b))
    for a, b in cases:
        assert tv_distance(a, b) == _tv_fraction(a, b)
        assert tv_distance(b, a) == _tv_fraction(b, a)


def test_tv_refuses_totals_past_the_int64_sum_and_float_counts():
    with pytest.raises(OverflowError):
        tv_distance({"x": 2**31}, {"y": 2**31})
    with pytest.raises(TypeError):
        tv_distance({"x": 1.5}, {"x": 2})


def _lazy_line_law(steps, shift=0):
    """Exact law of the lazy walk displacement on the line after
    `steps` steps (laziness 1/2), shifted by `shift`, as a dict."""
    law = np.array([1.0])
    kernel = np.array([0.25, 0.5, 0.25])
    for _ in range(steps):
        law = np.convolve(law, kernel)
    lo = -steps + shift
    return {lo + i: p for i, p in enumerate(law)}


def test_line_tv_matches_exact_convolution_oracle():
    """Starts 0 and 2 on the line: the measured TV tracks the exact
    convolution value and decreases in steps, staying well below 0.5."""
    G = line_graph()
    cfg = WalkConfig(
        steps=100, trials=100_000, laziness=0.5, seed=42,
        start_a=IntPoint((0,)), start_b=IntPoint((2,)),
    )
    series = walk_series(G, cfg, checkpoints=[50, 100])
    for t, measured in zip(series.checkpoints, series.tv):
        pa = _lazy_line_law(t)
        pb = _lazy_line_law(t, shift=2)
        exact = 0.5 * sum(
            abs(pa.get(x, 0.0) - pb.get(x, 0.0))
            for x in set(pa) | set(pb)
        )
        assert abs(measured - exact) < 0.02
    assert series.tv[1] < series.tv[0]
    assert series.tv[1] < 0.5


def test_cycle_histogram_becomes_uniform():
    G = cycle_graph(8)
    cfg = WalkConfig(steps=80, trials=20_000, laziness=0.5, seed=13)
    ha, _ = _key_walks(G, cfg)
    assert len(ha) == 8
    stat = _chi_square_uniform(ha.values())
    assert stat < CHI2_7DF_1PCT


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(steps=-1, trials=10)
    with pytest.raises(ValueError):
        WalkConfig(steps=5, trials=0)
    with pytest.raises(ValueError):
        WalkConfig(steps=5, trials=10, laziness=1.0)
    with pytest.raises(ValueError):
        WalkConfig(steps=5, trials=10, laziness=-0.1)


def test_trials_beyond_budget_rejected():
    G = line_graph()
    cfg = WalkConfig(steps=2, trials=1000, seed=0)
    with pytest.raises(BudgetExceededError):
        walk_series(G, cfg, budget=999)


def test_checkpoint_validation():
    G = line_graph()
    cfg = WalkConfig(steps=5, trials=10, seed=0)
    with pytest.raises(ValueError):
        walk_series(G, cfg, checkpoints=[6])
    with pytest.raises(ValueError):
        walk_series(G, cfg, checkpoints=[-1])
    with pytest.raises(ValueError):
        walk_series(G, cfg, checkpoints=[])


def test_walk_series_reports_baseline_per_checkpoint():
    G = line_graph()
    cfg = WalkConfig(steps=30, trials=4000, seed=21)
    series = walk_series(G, cfg, checkpoints=[10, 30])
    assert series.checkpoints == [10, 30]
    assert len(series.tv) == 2
    assert len(series.baseline) == 2
    assert all(0.0 <= v <= 1.0 for v in series.tv)
    assert all(0.0 <= v <= 1.0 for v in series.baseline)


def test_engine_without_fast_step_path_agrees_on_support():
    base = line_graph()
    slow = GraphOracle(base.neighbors, base.origin, degree_bound=2,
                       name="line-slow")
    assert slow.step_fn is None
    cfg = WalkConfig(steps=2, trials=300, laziness=0.0, seed=17,
                     start_a=IntPoint((0,)), start_b=IntPoint((0,)))
    ha, _ = _key_walks(slow, cfg)
    assert set(ha) <= {IntPoint((-2,)), IntPoint((0,)), IntPoint((2,))}
    assert sum(ha.values()) == 300


def test_one_lamp_start_is_adjacent_to_origin():
    G = _lamp_graph()
    flipped = LampKey.make(
        IntPoint((0,)), {IntPoint((0,)): IntPoint((1,))}, IntPoint((0,))
    )
    assert flipped in G.neighbors(G.origin)


def test_free_group_walk_escapes():
    """Positive-speed walk: endpoints concentrate far from the origin."""
    F = free_group_graph(2)
    cfg = WalkConfig(steps=40, trials=400, laziness=0.5, seed=23)
    ha, _ = _key_walks(F, cfg)
    lengths = [len(k.letters) for k, c in ha.items() for _ in range(c)]
    assert np.mean(lengths) > 5.0


def _lamp(site):
    o = IntPoint((0,))
    return LampKey.make(o, {IntPoint((site,)): IntPoint((1,))}, o)


def _lamp_over(H):
    return lamplighter(path_graph(2), H, IntPoint((0,)))


def _lamp_at(site):
    """The lamplighter vertex at `site` with its one lamp there lit."""
    return LampKey(site, [(site, IntPoint((1,)))])


@pytest.mark.parametrize("G, starts, laziness, trials, steps", [
    (_lamp_graph(), (None, _lamp(0)), 0.5, BATCH_TRIALS + 1, 3),
    (_lamp_graph(), (_lamp(40), None), 0.5, 3000, 12),
    (_lamp_graph(), (_lamp(10**6), None), 0.5, 300, 4),
    (_lamp_graph(), (None, _lamp(0)), 0.0, 3000, 12),
    (_lamp_graph(), (None, _lamp(0)), 0.5, 2000, 70),
    (_lamp_graph(), (_lamp(-5), None), 0.0, 2000, 70),
    (lamplighter(path_graph(2), line_graph(), IntPoint((1,))), (None, None),
     0.5, 3000, 12),
    (free_group_graph(2), (None, None), 0.5, 3000, 12),
    (free_group_graph(3), (WordKey((1, -2)), None), 0.5, 3000, 12),
    (free_group_graph(2), (None, None), 0.0, BATCH_TRIALS + 1, 3),
    (free_group_graph(1), (None, None), 0.0, 3000, 40),
    (free_group_graph(2), (WordKey((2,)), None), 0.0, 3000, 6),
    # 254 letters are the most int8 rows hold; 256 take int64 rows
    (free_group_graph(127), (WordKey((-127, 5)), None), 0.5, 3000, 6),
    (free_group_graph(128), (None, WordKey((128,))), 0.5, 3000, 6),
    # rows of no letters at all: every label is b""
    (free_group_graph(2), (WordKey(()), WordKey(())), 0.5, 5, 0),
    (line_graph(), (IntPoint((-3,)), None), 0.5, 3000, 12),
    (grid_graph(2), (None, None), 0.5, 3000, 12),
    (grid_graph(3), (IntPoint((1, -2, 0)), None), 0.0, 3000, 12),
    (caterpillar_graph(), (None, None), 0.5, 3000, 12),
    (caterpillar_graph(), (IntPoint((2, 1)), IntPoint((-1, 0))), 0.0,
     BATCH_TRIALS + 1, 5),
    (direct_product(line_graph(), line_graph()), (None, None), 0.5, 3000, 12),
    (direct_product(grid_graph(2), line_graph()),
     (PairKey(IntPoint((1, -2)), IntPoint((3,))), None), 0.0, 3000, 12),
    (_lamp_over(grid_graph(2)), (None, None), 0.5, 3000, 20),
    # a 12-step box on Z^3 fits the row cap from one base position
    (_lamp_over(grid_graph(3)), (None, _lamp_at(IntPoint((0, 0, 0)))), 0.5,
     3000, 12),
    (_lamp_over(direct_product(line_graph(), line_graph())),
     (_lamp_at(PairKey(IntPoint((2,)), IntPoint((-1,)))), None), 0.0,
     3000, 12),
], ids=["lamp-e-delta0-batches", "lamp-out-of-reach", "lamp-far-start-lamp",
        "lamp-eager", "lamp-second-lamp-word", "lamp-second-lamp-word-eager",
        "lamp-root-1", "free2", "free3", "free2-eager-batches",
        "free1-eager-returns", "free2-eager-returns", "free127-int8-rows",
        "free128-int64-rows", "free2-zero-width",
        "line", "grid2", "grid3-eager", "caterpillar",
        "caterpillar-leaf-eager-batches", "product-line-line",
        "product-grid2-line-eager", "lamp-grid2", "lamp-grid3-e-delta0",
        "lamp-product-line-line-eager"])
def test_array_engine_matches_object_engine(G, starts, laziness, trials,
                                            steps):
    """Same RNG draws, same trajectories: the array engine and the object
    engine (the same oracle with its encoding removed) agree at every
    checkpoint."""
    cfg = WalkConfig(steps=steps, trials=trials, laziness=laziness, seed=8,
                     start_a=starts[0], start_b=starts[1])
    assert array_frame(G, walks._resolve_starts(G, cfg), steps) is not None
    marks = sorted({0, steps // 2, steps})
    fast = walk_series(G, cfg, marks)
    slow = walk_series(dataclasses.replace(G, walk_encoding=None), cfg, marks)
    assert fast.checkpoints == slow.checkpoints
    assert (fast.tv, fast.baseline) == (slow.tv, slow.baseline)


def _odd_lamp(state):
    """A lamp at site 2 in `state`, not the lit one: the frame's bitset
    would light it, where the oracle reads the root state 0 as off and
    state 5 as a state of its own."""
    return LampKey(IntPoint((0,)), [(IntPoint((2,)), IntPoint((state,)))])


@pytest.mark.parametrize("starts", [(_odd_lamp(0), None), (None, _odd_lamp(0)),
                                    (None, _odd_lamp(5))],
                         ids=["root-state-a", "root-state-b", "state-5-b"])
def test_engines_agree_from_a_start_the_frame_cannot_encode(starts):
    G = _lamp_graph()
    cfg = WalkConfig(steps=6, trials=2000, seed=3, start_a=starts[0],
                     start_b=starts[1])
    assert array_frame(G, walks._resolve_starts(G, cfg), 6) is None
    fast = walk_series(G, cfg, [3, 6])
    slow = walk_series(dataclasses.replace(G, walk_encoding=None), cfg, [3, 6])
    assert (fast.tv, fast.baseline) == (slow.tv, slow.baseline)


def test_lamp_walk_rows_fit_the_cap_up_to_the_documented_steps():
    # from two neighboring positions the Z^2 box at 63 steps is 127 x 128
    # sites, 254 lamp words and a 2,048 B row; on Z^3 the 25**3 sites of
    # 12 steps fit from one base position, 25 x 25 x 26 from two do not
    for H, b, fits in [(grid_graph(2), None, 63), (grid_graph(3), None, 11),
                       (grid_graph(3), _lamp_at(IntPoint((0, 0, 0))), 12)]:
        G = _lamp_over(H)
        cfg = WalkConfig(steps=fits, trials=1, start_b=b)
        starts = walks._resolve_starts(G, cfg)
        assert array_frame(G, starts, fits) is not None
        assert array_frame(G, starts, fits + 1) is None


def _line_lamp(base, *sites):
    return LampKey(IntPoint((base,)),
                   [(IntPoint((x,)), IntPoint((1,))) for x in sites])


@pytest.mark.parametrize("G, keys, steps", [
    # little-endian int64: 1 is 01 00.., 256 is 00 01 00.., -1 is ff..
    (line_graph(), [IntPoint((x,)) for x in (0, 1, 256, -1, 1)], 2),
    (free_group_graph(2),
     [WordKey(w) for w in [(), (1,), (-1,), (2,), (-2,), ()]], 3),
    # a box of 82 sites, -40..41: lamp word 0 holds sites -40..23 and
    # the last word 24..41; every lamp off against lamps lit only there
    (_lamp_graph(),
     [_line_lamp(0), _line_lamp(0, 24), _line_lamp(0, 40),
      _line_lamp(0, 24, 40), _line_lamp(1), _line_lamp(0, 23),
      _line_lamp(0)], 40),
    (caterpillar_graph(),
     [IntPoint(p) for p in [(0, 0), (0, 1), (1, 0), (1, 1), (256, 0),
                            (256, 1), (0, 0)]], 1),
], ids=["line", "free2-identity", "lamp-last-word", "caterpillar-leaf"])
def test_labels_are_exact_where_trailing_zero_bytes_are_dropped(G, keys,
                                                                steps):
    frame = array_frame(G, keys, steps)
    rows = np.concatenate([frame._rows(frame.spawn(k, 1)) for k in keys])
    labels = [frame.labels(frame.spawn(k, 1))[0] for k in keys]
    decoded = frame.decode(rows)
    assert decoded == keys
    # some rows do end in zero bytes, and their labels are shorter
    width = rows.shape[1] * rows.itemsize
    assert min(map(len, labels)) < width
    for k1, l1 in zip(decoded, labels):
        for k2, l2 in zip(decoded, labels):
            assert (l1 == l2) == (k1 == k2)


def test_a_lamp_position_foreign_to_the_base_is_refused():
    o = IntPoint((0,))
    G = lamplighter(path_graph(2), direct_product(line_graph(), line_graph()),
                    o)
    # the lamp sits at a line point, not at a product vertex
    center = LampKey(PairKey(o, o), [(IntPoint((3,)), IntPoint((1,)))])
    for R in (1, 3):
        with pytest.raises(InvalidVertexError):
            ball(G, center, R)
    with pytest.raises(InvalidVertexError):
        walk_series(G, WalkConfig(steps=4, trials=10, start_a=center))


def test_free_group_walk_histograms_stay_small():
    # tracemalloc peak, Python 3.11: 38.6 MB with 200-byte labels (the
    # zero-padded rows) and a's half histograms held through walk b;
    # 17.5 MB with labels cut at their trailing zero bytes and the halves
    # released before walk b (tested below)
    tracemalloc.start()
    try:
        walk_series(free_group_graph(2),
                    WalkConfig(steps=200, trials=20_000, seed=7),
                    [50, 100, 200])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_first_walk_halves_are_released_before_the_second_walk(
        monkeypatch):
    run, halves, alive = walks._run_walk, [], []

    def spy(frame, start, cfg, marks, rng, split=False):
        alive.append(sum(ref() is not None for ref in halves))
        hists, pairs = run(frame, start, cfg, marks, rng, split)
        if split:
            halves.extend(weakref.ref(h) for pair in pairs.values()
                          for h in pair)
        return hists, pairs

    monkeypatch.setattr(walks, "_run_walk", spy)
    walk_series(line_graph(), WalkConfig(steps=4, trials=100), [2, 4])
    assert len(halves) == 4 and alive == [0, 0]


def test_walk_past_int64_coordinates_runs_on_the_object_engine():
    G = line_graph()
    far = IntPoint((2**63,))
    cfg = WalkConfig(steps=6, trials=500, seed=3, start_a=far)
    fast = walk_series(G, cfg, [3, 6])
    slow = walk_series(dataclasses.replace(G, walk_encoding=None), cfg, [3, 6])
    assert fast.tv == slow.tv and fast.baseline == slow.baseline


def test_only_the_encoded_families_carry_an_array_walk():
    assert line_graph().walk_encoding is not None
    assert grid_graph(2).walk_encoding is not None
    assert cycle_graph(5).walk_encoding is None
    L = path_graph(2)
    assert lamplighter(L, cycle_graph(5), IntPoint((0,))).walk_encoding is None
    assert lamplighter(L, line_graph(), IntPoint((1,))).walk_encoding is not None
    # path(2) lamps over a lattice whose frame is an _IntFrame: the line
    # (grid(1)), any grid and a product of lattices; not over the free
    # groups, whose rows are words
    for H in (grid_graph(1), grid_graph(2), grid_graph(3),
              direct_product(line_graph(), line_graph()),
              direct_product(grid_graph(2), line_graph())):
        assert lamplighter(L, H, IntPoint((0,))).walk_encoding is not None
    assert free_group_graph(2).walk_encoding is not None
    assert lamplighter(L, free_group_graph(2),
                       IntPoint((0,))).walk_encoding is None
    # the caterpillar is irregular: its frame moves as neighbors() picks
    assert caterpillar_graph().walk_encoding is not None
    assert caterpillar_graph().step_fn is None
    assert lamplighter(L, caterpillar_graph(),
                       IntPoint((0,))).walk_encoding is None
    # a product of two lattices, its factors told by their step functions
    assert direct_product(line_graph(), line_graph()).walk_encoding is not None
    assert direct_product(grid_graph(3), grid_graph(1)).walk_encoding is not None
    renamed = dataclasses.replace(line_graph(), name="axis")
    assert direct_product(renamed, grid_graph(2)).walk_encoding is not None
    assert direct_product(line_graph(), cycle_graph(5)).walk_encoding is None
    assert direct_product(path_graph(2), line_graph()).walk_encoding is None
    impostor = dataclasses.replace(cycle_graph(5), name="line")
    assert direct_product(impostor, line_graph()).walk_encoding is None
