"""Canonical vertex encodings for finite and infinite graph families.

Every vertex of every shipped graph family is one of four key variants:

  IntPoint  -- integer tuples (integer lattices, paths, cycles, caterpillars)
  WordKey   -- reduced words over a signed generator alphabet (free groups)
  LampKey   -- (position, lamp configuration) pairs for lamplighter graphs;
               the configuration stores only lamps that differ from the root
  PairKey   -- ordered pairs for direct products

A key is a tuple whose items are its canonical form: a one-letter variant
tag, then its fields, with nested keys as items.

  IntPoint  ("i", coords)
  WordKey   ("w", letters)
  LampKey   ("l", base, ((position, state), ...))
  PairKey   ("p", left, right)

So keys are immutable, and they compare, order and hash exactly as that
nested tuple: two keys are equal iff they denote the same vertex, and
sorted neighbor lists come out identical on every materialization. A
plain tuple of the same shape equals a key, but only a key is a vertex.
"""

from __future__ import annotations

from operator import index, itemgetter

_new = tuple.__new__


class VertexKey(tuple):
    """Base class; a concrete variant is the tuple of its tag and fields."""

    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__name__}({format_key(self)})"

    # the variants' validating __new__ take fields, not items
    def __reduce__(self):
        return _new, (type(self), tuple(self))


class IntPoint(VertexKey):
    """A point of an integer lattice (or path/cycle/caterpillar vertex)."""

    __slots__ = ()
    coords = property(itemgetter(1))

    def __new__(cls, coords):
        # index() refuses a float, which int() would truncate
        return _new(cls, ("i", tuple(map(index, coords))))


class WordKey(VertexKey):
    """A reduced word in a free group; letter j>0 is generator j, -j its
    inverse. The empty word is the identity."""

    __slots__ = ()
    letters = property(itemgetter(1))

    def __new__(cls, letters=()):
        letters = tuple(map(index, letters))
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not reduced")
        if any(a == 0 for a in letters):
            raise ValueError("letter 0 is not a generator")
        return _new(cls, ("w", letters))


class LampKey(VertexKey):
    """Lamplighter vertex: a base position in the space graph plus the
    finitely many lamps that differ from the root state.

    `lamps` is a tuple of (base_key, lamp_key) pairs sorted by base key with
    no duplicates and no entry whose lamp equals the root; use `make` to
    canonicalize arbitrary input.
    """

    __slots__ = ()
    base = property(itemgetter(1))
    lamps = property(itemgetter(2))

    def __new__(cls, base, lamps=()):
        return _new(cls, ("l", base, tuple((h, l) for h, l in lamps)))

    @classmethod
    def make(cls, base, lamps, root):
        """Canonicalize: drop entries at the root state, sort by base key.
        `lamps` is a mapping or an iterable of (position, state) pairs."""
        items = lamps.items() if isinstance(lamps, dict) else lamps
        entries = sorted((h, l) for h, l in items if l != root)
        for (h1, _), (h2, _) in zip(entries, entries[1:]):
            if h1 == h2:
                raise ValueError(f"duplicate lamp entry at {h1!r}")
        return cls(base, entries)

    def lamp_at(self, pos, root):
        """Lamp state at `pos`, defaulting to the root state."""
        for h, l in self.lamps:
            if h == pos:
                return l
        return root

    def with_lamp(self, pos, new_lamp, root):
        """New key with the lamp at `pos` replaced (dropped if == root)."""
        entries = [(h, l) for h, l in self.lamps if h != pos]
        if new_lamp != root:
            entries.append((pos, new_lamp))
            entries.sort()
        return _raw_lamp(self.base, tuple(entries))


class PairKey(VertexKey):
    """Vertex of a direct product of two graphs."""

    __slots__ = ()
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left, right):
        return _new(cls, ("p", left, right))


def _raw_point(coords):
    """Construct an IntPoint from a tuple KNOWN to hold Python ints,
    skipping conversion. Same caveat as _raw_word."""
    return _new(IntPoint, ("i", coords))


def _raw_word(letters):
    """Construct a WordKey from a tuple KNOWN to be a reduced word,
    skipping validation. Only for graph step functions whose output is
    reduced by construction; property tests compare them against the
    validating path."""
    return _new(WordKey, ("w", letters))


def _raw_lamp(base, lamps):
    """Construct a LampKey from a lamp tuple KNOWN to be canonical (sorted
    (position, state) pairs, no root states). Same caveat as _raw_word."""
    return _new(LampKey, ("l", base, lamps))


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _letter_str(a):
    i = abs(a) - 1
    s = _ALPHABET[i] if i < len(_ALPHABET) else f"g{abs(a)}"
    return s.upper() if a < 0 else s


def format_key(key):
    """Compact printable form, used in vertex tables and JSON exports.
    Uppercase letters in words denote inverse generators; 'e' is the
    identity; lamp entries read position:state."""
    if isinstance(key, IntPoint):
        return "(" + ",".join(str(c) for c in key.coords) + ")"
    if isinstance(key, WordKey):
        return "".join(_letter_str(a) for a in key.letters) or "e"
    if isinstance(key, LampKey):
        inner = ",".join(
            f"{format_key(h)}:{format_key(l)}" for h, l in key.lamps
        )
        return f"[{format_key(key.base)}|{inner}]"
    if isinstance(key, PairKey):
        return f"<{format_key(key.left)};{format_key(key.right)}>"
    raise TypeError(f"not a vertex key: {key!r}")
