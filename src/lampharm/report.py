"""Structured experiment reports: a manifest sufficient for exact
reruns, named numeric series, and verdicts that compare one value
against the bounds it must clear. Serialization is deterministic
(sorted keys, fixed float format, no timestamps) so identical runs
produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__ as TOOL_VERSION

FLOAT_FMT = "%.17g"


def fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return FLOAT_FMT % v
    return str(v)


@dataclass
class ExperimentReport:
    """Manifest + series + verdicts for one command run.

    series maps a name to a list of (parameter, value) pairs; verdicts
    map a name to a dict with passed and value entries plus the bounds
    given, `above` and/or `below`. The report alone decides a verdict:
    it passes iff its value lies strictly above `above` and strictly
    below `below`, so a value equal to a bound fails.
    """

    manifest: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.manifest.setdefault("tool_version", TOOL_VERSION)

    def add_series(self, name, pairs):
        self.series[name] = [(p, v) for p, v in pairs]

    def add_verdict(self, name, value, *, above=None, below=None):
        bounds = {k: b for k, b in (("above", above), ("below", below))
                  if b is not None}
        if not bounds:
            raise ValueError(f"verdict {name!r} needs a bound")
        passed = bool((above is None or value > above)
                      and (below is None or value < below))
        self.verdicts[name] = {"passed": passed, "value": value, **bounds}

    @property
    def all_passed(self):
        return all(v["passed"] for v in self.verdicts.values())

    def to_json(self):
        blob = {
            "manifest": self.manifest,
            "series": {
                name: [[p, v] for p, v in pairs]
                for name, pairs in self.series.items()
            },
            "verdicts": self.verdicts,
        }
        return json.dumps(blob, sort_keys=True, indent=2)

    def to_csv(self):
        return csv_text(["series", "parameter", "value"],
                        [(name, p, v) for name in sorted(self.series)
                         for p, v in self.series[name]])


def csv_text(header, rows):
    """Plain CSV with the fixed float format."""
    lines = [",".join(header)]
    lines += [",".join(fmt_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def dirichlet_json(descriptor, R, p, boundary_values, solution, residual,
                   energy):
    """Serialized Dirichlet problem and result."""
    blob = {
        "graph": descriptor,
        "R": R,
        "p": p,
        "boundary": [[int(i), float(v)] for i, v in sorted(boundary_values.items())],
        "solution": [float(v) for v in solution],
        "residual": float(residual),
        "energy": float(energy),
    }
    return json.dumps(blob, sort_keys=True, indent=2)
