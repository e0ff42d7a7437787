"""JSON configuration grammar for graph families.

Descriptors are plain dicts, e.g.

    {"family": "line"}
    {"family": "cycle", "n": 5}
    {"family": "grid", "d": 2}
    {"family": "free_group", "rank": 2}
    {"family": "caterpillar"}
    {"family": "product", "left": {...}, "right": {...}}
    {"family": "lamplighter", "lamp": {"family": "path", "n": 2},
     "space": {"family": "line"}, "root": 0}

The lamplighter root is a vertex of the lamp graph, written as an integer
or a list of integers (IntPoint coordinates).
"""

from __future__ import annotations

import json

from .graphs import (
    GraphOracle,
    caterpillar_graph,
    cycle_graph,
    direct_product,
    free_group_graph,
    grid_graph,
    lamplighter,
    line_graph,
    path_graph,
)
from .keys import IntPoint


class DescriptorError(ValueError):
    """Malformed graph descriptor."""


def _require(desc, key, kind=int):
    if key not in desc:
        raise DescriptorError(f"descriptor {desc!r} is missing '{key}'")
    v = desc[key]
    if not isinstance(v, kind):
        raise DescriptorError(
            f"'{key}' must be {kind.__name__}, got {v!r}"
        )
    return v


def _parse_root(value):
    if isinstance(value, int):
        return IntPoint((value,))
    if isinstance(value, (list, tuple)) and all(isinstance(c, int) for c in value):
        return IntPoint(tuple(value))
    raise DescriptorError(f"cannot parse root vertex {value!r}")


def _part(desc, key):
    return parse_descriptor(_require(desc, key, kind=dict))


# builders in the order the unknown-family message lists them; a
# composite parses its parts left to right, then the lamplighter root
FAMILIES = {
    "line": lambda desc: line_graph(),
    "cycle": lambda desc: cycle_graph(_require(desc, "n")),
    "path": lambda desc: path_graph(_require(desc, "n")),
    "grid": lambda desc: grid_graph(_require(desc, "d")),
    "free_group": lambda desc: free_group_graph(_require(desc, "rank")),
    "caterpillar": lambda desc: caterpillar_graph(),
    "product": lambda desc: direct_product(_part(desc, "left"),
                                           _part(desc, "right")),
    "lamplighter": lambda desc: lamplighter(
        _part(desc, "lamp"), _part(desc, "space"),
        _parse_root(desc.get("root", 0))),
}


def descriptor_json(text):
    """The JSON value of a descriptor's text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DescriptorError(f"descriptor is not valid JSON: {e}")


def parse_descriptor(desc) -> GraphOracle:
    """Build a GraphOracle from a descriptor dict (or JSON string)."""
    if isinstance(desc, str):
        desc = descriptor_json(desc)
    if not isinstance(desc, dict):
        raise DescriptorError(f"descriptor must be an object, got {type(desc)}")
    family = desc.get("family")
    # an unhashable family (a list, say) is just another unknown name
    if not isinstance(family, str) or family not in FAMILIES:
        raise DescriptorError(
            f"unknown family {family!r}; known families: {', '.join(FAMILIES)}"
        )
    return FAMILIES[family](desc)
