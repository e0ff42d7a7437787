import pytest

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


def test_wordkey_append_cancels():
    w = WordKey((1, 2))
    assert w.append(-2) == WordKey((1,))
    assert w.append(3) == WordKey((1, 2, 3))
    assert WordKey(()).append(1) == WordKey((1,))
    assert WordKey((1,)).append(-1) == WordKey(())


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

