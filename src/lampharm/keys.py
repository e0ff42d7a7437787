"""Canonical vertex encodings for finite and infinite graph families.

Every vertex of every shipped graph family is one of four key variants:

  IntPoint  -- integer tuples (integer lattices, paths, cycles, caterpillars)
  WordKey   -- reduced words over a signed generator alphabet (free groups)
  LampKey   -- (position, lamp configuration) pairs for lamplighter graphs;
               the configuration stores only lamps that differ from the root
  PairKey   -- ordered pairs for direct products

Keys are immutable, hashable, and totally ordered through a canonical nested
tuple, so two keys compare equal iff they denote the same vertex and sorted
neighbor lists come out identical on every materialization.
"""

from __future__ import annotations


class VertexKey:
    """Base class; concrete variants define `canon`, a nested tuple that is
    the single source of truth for equality, hashing and ordering."""

    __slots__ = ("canon", "_hash")

    canon: tuple
    _hash: int

    def __eq__(self, other):
        return isinstance(other, VertexKey) and self.canon == other.canon

    def __lt__(self, other):
        return self.canon < other.canon

    # a > b and a >= b reflect to b < a and b <= a
    def __le__(self, other):
        return self.canon <= other.canon

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({format_key(self)})"


class IntPoint(VertexKey):
    """A point of an integer lattice (or path/cycle/caterpillar vertex)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(int(c) for c in coords)
        self.coords = coords
        self.canon = ("i", coords)
        self._hash = hash(self.canon)


class WordKey(VertexKey):
    """A reduced word in a free group; letter j>0 is generator j, -j its
    inverse. The empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(int(a) for a in letters)
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not reduced")
        if any(a == 0 for a in letters):
            raise ValueError("letter 0 is not a generator")
        self.letters = letters
        self.canon = ("w", letters)
        self._hash = hash(self.canon)

    def append(self, letter):
        """Right-multiply by one generator, reducing if it cancels."""
        if self.letters and self.letters[-1] == -letter:
            return WordKey(self.letters[:-1])
        return WordKey(self.letters + (letter,))


class LampKey(VertexKey):
    """Lamplighter vertex: a base position in the space graph plus the
    finitely many lamps that differ from the root state.

    `lamps` is a tuple of (base_key, lamp_key) pairs sorted by base key with
    no duplicates and no entry whose lamp equals the root; use `make` to
    canonicalize arbitrary input.
    """

    __slots__ = ("base", "lamps")

    def __init__(self, base, lamps=()):
        self.base = base
        self.lamps = tuple(lamps)
        self.canon = (
            "l",
            base.canon,
            tuple((h.canon, l.canon) for h, l in self.lamps),
        )
        self._hash = hash(self.canon)

    @classmethod
    def make(cls, base, lamps, root):
        """Canonicalize: drop entries at the root state, sort by base key.
        `lamps` is a mapping or an iterable of (position, state) pairs."""
        items = lamps.items() if isinstance(lamps, dict) else lamps
        entries = [(h, l) for h, l in items if l != root]
        entries.sort(key=lambda e: e[0].canon)
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
            entries.sort(key=lambda e: e[0].canon)
        return LampKey(self.base, entries)


def _raw_point(coords):
    """Construct an IntPoint from a tuple KNOWN to hold Python ints,
    skipping conversion. Same caveat as _raw_word."""
    p = IntPoint.__new__(IntPoint)
    p.coords = coords
    p.canon = ("i", coords)
    p._hash = hash(p.canon)
    return p


def _raw_word(letters):
    """Construct a WordKey from a tuple KNOWN to be a reduced word,
    skipping validation. Only for graph step functions whose output is
    reduced by construction; property tests compare them against the
    validating path."""
    w = WordKey.__new__(WordKey)
    w.letters = letters
    w.canon = ("w", letters)
    w._hash = hash(w.canon)
    return w


def _raw_lamp(base, lamps, lamps_canon):
    """Construct a LampKey from an already-canonical lamp tuple and its
    precomputed canon part (reused from an existing key on moves that do
    not touch the lamps). Same caveat as _raw_word."""
    k = LampKey.__new__(LampKey)
    k.base = base
    k.lamps = lamps
    k.canon = ("l", base.canon, lamps_canon)
    k._hash = hash(k.canon)
    return k


class PairKey(VertexKey):
    """Vertex of a direct product of two graphs."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.canon = ("p", left.canon, right.canon)
        self._hash = hash(self.canon)


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
