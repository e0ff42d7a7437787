import copy
import pickle

import numpy as np
import pytest

from lampharm.graphs import (
    InvalidVertexError,
    grid_graph,
    lamplighter,
    path_graph,
)
from lampharm.keys import (
    IntPoint,
    LampKey,
    PairKey,
    WordKey,
    format_key,
)


def test_intpoint_basic():
    a = IntPoint((0, 1))
    b = IntPoint((0, 1))
    c = IntPoint((1, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a < c
    assert format_key(a) == "(0,1)"


def test_intpoint_ordering_is_lexicographic():
    pts = [IntPoint((1,)), IntPoint((-1,)), IntPoint((0,))]
    assert sorted(pts) == [IntPoint((-1,)), IntPoint((0,)), IntPoint((1,))]


def test_wordkey_reduced_form_enforced():
    WordKey((1, 2, -1))
    with pytest.raises(ValueError):
        WordKey((1, -1))
    with pytest.raises(ValueError):
        WordKey((2, -2, 1))
    with pytest.raises(ValueError):
        WordKey((0,))


@pytest.mark.parametrize("make", [lambda: IntPoint((0.5, 2.9)),
                                  lambda: IntPoint((1, 2.0)),
                                  lambda: WordKey((1.7,))],
                         ids=["intpoint", "intpoint-integral-float",
                              "wordkey"])
def test_validating_constructors_refuse_floats(make):
    # int() would truncate them: (0.5, 2.9) was the point (0, 2)
    with pytest.raises(TypeError, match="cannot be interpreted"):
        make()


def test_validating_constructors_take_numpy_integers_as_ints():
    p = IntPoint((np.int64(3), np.int32(-2)))
    w = WordKey(np.array([1, -2], dtype=np.int8))
    assert (p, w) == (IntPoint((3, -2)), WordKey((1, -2)))
    assert all(type(c) is int for c in p.coords + w.letters)


def test_wordkey_format():
    assert format_key(WordKey(())) == "e"
    assert format_key(WordKey((1, -2, 1))) == "aBa"


def test_lampkey_canonical_form():
    root = IntPoint((0,))
    a = LampKey.make(IntPoint((2,)), {IntPoint((0,)): IntPoint((1,)),
                                      IntPoint((5,)): IntPoint((1,))}, root)
    b = LampKey.make(IntPoint((2,)), {IntPoint((5,)): IntPoint((1,)),
                                      IntPoint((0,)): IntPoint((1,))}, root)
    assert a == b
    assert hash(a) == hash(b)


def test_lampkey_drops_root_lamps():
    root = IntPoint((0,))
    a = LampKey.make(IntPoint((1,)), {IntPoint((3,)): root}, root)
    b = LampKey.make(IntPoint((1,)), {}, root)
    assert a == b


def test_lampkey_lamp_access():
    root = IntPoint((0,))
    k = LampKey.make(IntPoint((0,)), {IntPoint((2,)): IntPoint((1,))}, root)
    assert k.lamp_at(IntPoint((2,)), root) == IntPoint((1,))
    assert k.lamp_at(IntPoint((7,)), root) == root
    flipped = k.with_lamp(IntPoint((2,)), root, root)
    assert flipped == LampKey.make(IntPoint((0,)), {}, root)


def test_pairkey_equality_and_format():
    k = PairKey(IntPoint((0,)), IntPoint((1, 1)))
    assert k == PairKey(IntPoint((0,)), IntPoint((1, 1)))
    assert format_key(k) == "<(0);(1,1)>"


def test_cross_variant_ordering_is_total():
    keys = [
        IntPoint((0,)),
        WordKey((1,)),
        LampKey.make(IntPoint((0,)), {}, IntPoint((0,))),
        PairKey(IntPoint((0,)), IntPoint((0,))),
    ]
    once = sorted(keys)
    assert sorted(reversed(once)) == once


_LAMPS = (
    LampKey.make(IntPoint((1,)), {IntPoint((3,)): IntPoint((1,)),
                                  IntPoint((-2,)): IntPoint((1,))},
                 IntPoint((0,))),
    LampKey.make(IntPoint((-1,)), {IntPoint((0,)): IntPoint((1,))},
                 IntPoint((0,))),
)
# each key beside the nested tuple it is: a variant tag, then its fields
_A = ("l", ("i", (1,)), ((("i", (-2,)), ("i", (1,))),
                         (("i", (3,)), ("i", (1,)))))
_B = ("l", ("i", (-1,)), ((("i", (0,)), ("i", (1,))),))
_NESTED = [
    (IntPoint((2, -1)), ("i", (2, -1))),
    (IntPoint((2,)), ("i", (2,))),
    (WordKey((1, -2)), ("w", (1, -2))),
    (WordKey((-1,)), ("w", (-1,))),
    (_LAMPS[0], _A),
    (_LAMPS[1], _B),
    (PairKey(*_LAMPS), ("p", _A, _B)),
    (PairKey(*_LAMPS[::-1]), ("p", _B, _A)),
]


def test_keys_compare_order_and_hash_as_their_nested_tuples():
    for key, nested in _NESTED:
        assert hash(key) == hash(nested)
        for other, other_nested in _NESTED:
            assert (key < other) == (nested < other_nested)
            assert (key <= other) == (nested <= other_nested)
            assert (key == other) == (nested == other_nested)


def test_key_fields_read_back_what_was_built():
    a, b = _LAMPS
    assert IntPoint([2, -1]).coords == (2, -1)
    assert WordKey([1, -2]).letters == (1, -2)
    assert a.base == IntPoint((1,))
    assert a.lamps == ((IntPoint((-2,)), IntPoint((1,))),
                       (IntPoint((3,)), IntPoint((1,))))
    assert (PairKey(a, b).left, PairKey(a, b).right) == (a, b)


def test_lampkey_from_lists_is_hashable():
    k = LampKey(IntPoint((0,)), [[IntPoint((1,)), IntPoint((1,))]])
    assert hash(k) == hash(LampKey(IntPoint((0,)),
                                   [(IntPoint((1,)), IntPoint((1,)))]))


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy,
                                 lambda k: pickle.loads(pickle.dumps(k))],
                         ids=["copy", "deepcopy", "pickle"])
def test_keys_survive_copy_and_pickle_with_their_type(dup):
    for key, _ in _NESTED:
        twin = dup(key)
        assert type(twin) is type(key) and twin == key
        assert hash(twin) == hash(key) and repr(twin) == repr(key)
    pair = dup(_NESTED[-1][0])
    assert type(pair.left) is LampKey
    assert type(pair.left.base) is IntPoint


def test_plain_tuple_equals_a_key_but_is_no_vertex():
    assert IntPoint((0, 0)) == ("i", (0, 0))
    with pytest.raises(InvalidVertexError):
        grid_graph(2).neighbors(("i", (0, 0)))
    G = lamplighter(path_graph(2), grid_graph(1), IntPoint((0,)))
    with pytest.raises(InvalidVertexError):
        G.neighbors(("l", ("i", (0,)), ()))
