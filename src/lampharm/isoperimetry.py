"""Edge boundaries, isoperimetric ratio measurement, and volume-growth
exponent estimation.

IS_d measurements are witness-based: the reported value is the maximum of
|F|^((d-1)/d) / |boundary F| over a finite family of sets, which lower
bounds every valid isoperimetric constant but certifies nothing globally.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graphs import GraphOracle, ball, ball_sizes


def edge_boundary(G, F):
    """Number of edges of the GraphOracle G with exactly one endpoint in
    the collection F of vertex keys."""
    if not isinstance(G, GraphOracle):
        raise TypeError(f"expected GraphOracle, got {type(G)!r}")
    Fset = set(F)
    return sum(w not in Fset for v in Fset for w in G.neighbors(v))


def iso_ratio(set_size, boundary_size, d):
    if not 1 <= d < math.inf:
        raise ValueError(f"d must be finite and >= 1, got {d}")
    if boundary_size <= 0:
        raise ValueError("boundary_size must be positive")
    return set_size ** ((d - 1.0) / d) / boundary_size


def iso_profile(G, family):
    """(|F|, |boundary F|) per witness set, in family order."""
    family = [list(F) for F in family]
    if not family or not all(family):
        raise ValueError("witness family is empty or has an empty set")
    profile = [(len(F), edge_boundary(G, F)) for F in family]
    for n, b in profile:
        if not b:
            raise ValueError(f"a witness set of {n} vertices has an empty "
                             f"edge boundary: it covers a finite graph")
    return profile


def is_d_kappa(profile, d):
    """Max of |F|^((d-1)/d)/|bd F| over iso_profile(G, family): a lower
    bound on any constant kappa for which IS_d could hold on G."""
    return max(iso_ratio(n, b, d) for n, b in profile)


def _bfs_grown_set(G, seed_key, target_size, rng):
    # connected witness: BFS from the seed with randomized frontier order
    seen = {seed_key}
    frontier = [seed_key]
    while len(seen) < target_size and frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        for w in G.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
                if len(seen) >= target_size:
                    break
    return list(seen)


RANDOM_WITNESSES = 12


def default_family(G, Rmax, seed=0, budget=None):
    """Balls B_1..B_Rmax around the origin plus RANDOM_WITNESSES random
    connected BFS-grown sets seeded inside B_{Rmax/2} with log-spaced
    sizes."""
    rng = random.Random(seed)
    g = ball(G, G.origin, Rmax, budget=budget)
    sizes = ball_sizes(g, Rmax)
    family = [g.verts[:sizes[R]] for R in range(1, Rmax + 1)]
    half = g.verts[:sizes[max(1, Rmax // 2)]]
    max_size = max(4, len(family[-1]) // 2)
    for i in range(RANDOM_WITNESSES):
        t = i / (RANDOM_WITNESSES - 1)
        size = max(2, int(round(4 * (max_size / 4) ** t)))
        seed_key = half[rng.randrange(len(half))]
        family.append(_bfs_grown_set(G, seed_key, size, rng))
    return family


SUPERPOLYNOMIAL_RATIO = 0.5


@dataclass
class GrowthEstimate:
    """Log-log growth fit over the tail window of ball radii."""

    exponent: float
    ci_low: float
    ci_high: float
    fit_ratio: float
    superpolynomial: bool
    radii: list
    sizes: list


def _ols(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    ssr = float(np.sum(resid**2))
    if n > 2 and sxx > 0:
        se = math.sqrt(ssr / (n - 2) / sxx)
    else:
        se = 0.0
    return slope, se, ssr


def growth_exponent(G, Rmax, budget=None):
    """Polynomial growth degree from |B_R|, with a superpolynomial flag.

    Fits log|B_R| against log R by least squares over the tail window
    R in {max(2, Rmax//2), ..., Rmax}, where the slope has shed most of
    the small-R transient. fit_ratio is the residual sum of squares of a
    linear fit of log|B_R| against R (exponential growth) over the
    polynomial fit's, inf when the latter is exact; the flag is set when
    it is below SUPERPOLYNOMIAL_RATIO.
    """
    if Rmax < 3:
        raise ValueError(f"Rmax must be >= 3, got {Rmax}")
    radii = list(range(1, Rmax + 1))
    sizes = ball_sizes(ball(G, G.origin, Rmax, budget=budget), Rmax)[1:]
    lo = max(2, Rmax // 2)
    tail_R = np.array([R for R in radii if R >= lo], float)
    tail_S = np.array([sizes[int(R) - 1] for R in tail_R], float)
    logS = np.log(tail_S)
    slope, se, ssr_poly = _ols(np.log(tail_R), logS)
    _, _, ssr_exp = _ols(tail_R, logS)
    ratio = ssr_exp / ssr_poly if ssr_poly > 0 else math.inf
    return GrowthEstimate(
        exponent=slope,
        ci_low=slope - 2 * se,
        ci_high=slope + 2 * se,
        fit_ratio=ratio,
        superpolynomial=ratio < SUPERPOLYNOMIAL_RATIO,
        radii=[int(r) for r in tail_R],
        sizes=[int(s) for s in tail_S],
    )
