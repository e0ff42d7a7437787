"""Gradients, p-energy, harmonicity residuals, and Dirichlet solvers.

The p=2 solver is a Jacobi-preconditioned conjugate gradient on the
interior mean-value equations; convergence is measured by the maximum
interior mean-value residual. For p != 2 the solver runs exact per-vertex
coordinate minimization (each interior vertex moves to the unique minimizer
of its local p-energy, found by bisection on the strictly convex 1-D
problem); vertices are grouped into independent color classes so a sweep
is a short sequence of vectorized class updates, and sweeps repeat until
the relative energy decrease drops below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graphs import FiniteGraph, ball, graph_distances
from .keys import IntPoint, LampKey, PairKey, WordKey

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERS = 1_000_000


@dataclass
class VertexFunction:
    """Real values indexed like FiniteGraph.verts."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("vertex function must be a flat array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vertex function contains non-finite values")


class SolverError(RuntimeError):
    pass


class NonConvergenceError(SolverError):
    """Solver hit max_iters; carries the last measured residual."""

    def __init__(self, last_residual, iters):
        self.last_residual = last_residual
        self.iters = iters
        super().__init__(
            f"no convergence after {iters} iterations "
            f"(last residual {last_residual:.3e})"
        )


class DisconnectedInteriorError(SolverError):
    """Some interior vertex has no path to the boundary."""


def as_values(f, g=None):
    vals = f.values if isinstance(f, VertexFunction) else np.asarray(f, float)
    if g is not None and len(vals) != g.n:
        raise ValueError(
            f"function has {len(vals)} values but graph has {g.n} vertices"
        )
    return vals


def gradient(f, g):
    """Per-edge difference f(high) - f(low) as an array over the fixed
    enumeration g.edges()."""
    vals = as_values(f, g)
    e = g.edges()
    return vals[e[:, 1]] - vals[e[:, 0]]


def p_energy(f, g, p):
    """Sum over unordered edges of |grad f|^p; zero iff f is constant on
    each connected component. p >= 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vals = as_values(f, g)
    e = g.edges()
    if len(e) == 0:
        return 0.0
    d = np.abs(vals[e[:, 1]] - vals[e[:, 0]])
    return float(np.sum(d**p))


def harmonic_residual(f, g):
    """Max over interior vertices of |f(v) - mean of neighbor values|."""
    vals = as_values(f, g)
    deg = np.diff(g.indptr)
    interior = np.flatnonzero(~g.boundary_mask & (deg > 0))
    if len(interior) == 0:
        return 0.0
    sums = np.bincount(g.row_owners(), weights=vals[g.indices], minlength=g.n)
    return float(np.max(np.abs(vals[interior] - sums[interior] / deg[interior])))


@dataclass
class DirichletProblem:
    """Boundary data on a FiniteGraph plus solver knobs.

    boundary_values must be total: its keys are exactly the boundary-flagged
    vertex indices.
    """

    graph: FiniteGraph
    boundary_values: dict
    p: float = 2.0
    tolerance: float = DEFAULT_TOLERANCE
    max_iters: int = DEFAULT_MAX_ITERS


def solve_dirichlet(prob):
    """Minimize p-energy among functions matching the boundary data.

    For p=2 this solves the interior mean-value equations (max interior
    mean-value residual <= tolerance). For p != 2, sweeps stop once the
    relative energy decrease per sweep is <= tolerance. The output attains
    its extremes on the boundary up to tolerance.
    """
    g = prob.graph
    p = float(prob.p)
    if not (1.0 < p < np.inf):
        raise ValueError(
            f"solve_dirichlet needs p in (1, inf), got {prob.p} "
            "(p=1 has non-unique minimizers; energy evaluation still works)"
        )
    bmask = g.boundary_mask
    bidx = np.where(bmask)[0]
    if set(prob.boundary_values) != set(int(i) for i in bidx):
        raise ValueError(
            "boundary data must be total: keys must be exactly the "
            "boundary-flagged vertex indices"
        )
    f = np.zeros(g.n)
    for i in bidx:
        v = float(prob.boundary_values[int(i)])
        if not np.isfinite(v):
            raise ValueError(f"non-finite boundary value at {i}")
        f[i] = v
    interior = np.where(~bmask)[0]
    if len(interior) == 0:
        return VertexFunction(f)
    if len(bidx) == 0:
        raise DisconnectedInteriorError("graph has no boundary vertices")
    unreached = np.flatnonzero(graph_distances(g, bidx) < 0)
    if len(unreached):
        raise DisconnectedInteriorError(
            f"interior vertex {unreached[0]} has no path to the boundary"
        )
    bvals = f[bidx]
    if bvals.max() == bvals.min():
        # degenerate problem: the constant is the unique minimizer
        f[:] = bvals[0]
        return VertexFunction(f)
    f[interior] = bvals.mean()
    if p == 2.0:
        _solve_p2_cg(g, f, interior, prob.tolerance, prob.max_iters)
    else:
        _solve_coordinate(g, f, interior, p, prob.tolerance, prob.max_iters)
    return VertexFunction(f)


def _solve_p2_cg(g, f, interior, tol, max_iters):
    n_i = len(interior)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[interior] = np.arange(n_i)
    degi = np.diff(g.indptr)[interior].astype(np.float64)
    # CSR entries of interior rows, in row order: interior-interior
    # couplings go to the operator, boundary neighbors to the right side
    owner = pos[g.row_owners()]
    mine = owner >= 0
    owner, nbr = owner[mine], g.indices[mine]
    coupled = pos[nbr] >= 0
    rows, cols = owner[coupled], pos[nbr[coupled]]
    b = np.bincount(owner[~coupled], weights=f[nbr[~coupled]], minlength=n_i)

    def apply_A(x):
        y = degi * x
        if len(rows):
            y -= np.bincount(rows, weights=x[cols], minlength=n_i)
        return y

    x = f[interior].copy()
    r = b - apply_A(x)
    z = r / degi
    d = z.copy()
    rz = float(r @ z)
    # below this the residual is rounding noise; tolerances under it
    # (including 0) mean "run to numerical stagnation"
    floor = 8.0 * np.finfo(np.float64).eps * float(np.max(np.abs(f)))
    stop = max(tol, floor)
    for it in range(max_iters + 1):
        res = float(np.max(np.abs(r) / degi))
        if res <= stop:
            break
        if it == max_iters:
            raise NonConvergenceError(res, it)
        Ad = apply_A(d)
        dAd = float(d @ Ad)
        if dAd <= 0.0:
            # numerical stagnation: refresh the residual and restart
            r = b - apply_A(x)
            z = r / degi
            d = z.copy()
            rz = float(r @ z)
            if float(np.max(np.abs(r) / degi)) <= stop:
                break
            continue
        alpha = rz / dAd
        x += alpha * d
        if (it + 1) % 64 == 0:
            r = b - apply_A(x)
        else:
            r -= alpha * Ad
        z = r / degi
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    f[interior] = x


def _greedy_color(g, interior):
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    color = {}
    for v in interior.tolist():
        used = {color[w] for w in flat[ptr[v]:ptr[v + 1]] if w in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    n_colors = max(color.values()) + 1
    return [
        np.array([v for v in interior if color[v] == c], dtype=np.int64)
        for c in range(n_colors)
    ]


def _solve_coordinate(g, f, interior, p, tol, max_iters):
    classes = []
    for cls in _greedy_color(g, interior):
        start = g.indptr[cls]
        deg = g.indptr[cls + 1] - start
        slot = np.arange(deg.max())
        mask = slot < deg[:, None]
        nbr = np.zeros(mask.shape, dtype=np.int64)
        nbr[mask] = g.indices[(start[:, None] + slot)[mask]]
        classes.append((cls, nbr, mask))

    e = g.edges()
    eu, ev = e[:, 0], e[:, 1]

    def energy():
        return float(np.sum(np.abs(f[ev] - f[eu]) ** p))

    q = p - 1.0
    E = energy()
    for sweep in range(max_iters + 1):
        if E == 0.0:
            return
        if sweep == max_iters:
            raise NonConvergenceError(E, sweep)
        for cls, nbr, mask in classes:
            nv = f[nbr]
            lo = np.where(mask, nv, np.inf).min(axis=1)
            hi = np.where(mask, nv, -np.inf).max(axis=1)
            # bisection on the strictly increasing subgradient sum; 64
            # halvings take the bracket to floating-point stagnation
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                d = mid[:, None] - nv
                s = np.where(mask, np.sign(d) * np.abs(d) ** q, 0.0).sum(axis=1)
                above = s > 0.0
                hi = np.where(above, mid, hi)
                lo = np.where(above, lo, mid)
            f[cls] = 0.5 * (lo + hi)
        E_new = energy()
        if E - E_new <= tol * E:
            return
        E = E_new


# ---------------------------------------------------------------------------
# boundary splits


def sign_projection(key):
    """Scalar projection used by the sign split: first coordinate for
    lattice keys, base position for lamplighter keys, left factor for
    product keys, first letter for words (0 for the identity)."""
    if isinstance(key, IntPoint):
        return float(key.coords[0])
    if isinstance(key, LampKey):
        return sign_projection(key.base)
    if isinstance(key, PairKey):
        return sign_projection(key.left)
    if isinstance(key, WordKey):
        return float(key.letters[0]) if key.letters else 0.0
    raise TypeError(f"no sign projection for {key!r}")


def split_by_sign(key):
    """Two-valued boundary labeling: 1 on nonnegative projection, else 0."""
    return 1 if sign_projection(key) >= 0 else 0


SPLIT_RULES = {"sign": split_by_sign}


# ---------------------------------------------------------------------------
# probes


def annulus_capacity(
    G,
    center,
    r,
    R,
    p,
    tolerance=DEFAULT_TOLERANCE,
    max_iters=DEFAULT_MAX_ITERS,
    budget=None,
):
    """p-energy of the Dirichlet solution on B_R that is 1 on B_r and 0 on
    the boundary of B_R. Non-increasing in R, non-decreasing in r."""
    if not 0 < r < R:
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    g = ball(G, center, R, budget=budget)
    dist = graph_distances(g, 0)
    inner = dist <= r
    outer = g.boundary_mask
    mask = inner | outer
    g2 = replace(g, boundary_mask=mask)
    bvals = {int(i): (1.0 if inner[i] else 0.0) for i in np.where(mask)[0]}
    sol = solve_dirichlet(
        DirichletProblem(g2, bvals, p=p, tolerance=tolerance, max_iters=max_iters)
    )
    return p_energy(sol, g2, p)


def oscillation_probe(
    G,
    center,
    R,
    p,
    split="sign",
    tolerance=DEFAULT_TOLERANCE,
    max_iters=DEFAULT_MAX_ITERS,
    budget=None,
    inner_radius: Optional[int] = None,
):
    """Harmonic extension of a two-valued boundary split on B_R.

    Returns (oscillation of the solution over the inner ball, p-energy of
    the solution). The inner ball is B_{R // 2} by default; passing a fixed
    inner_radius across a family of growing R probes how the solution
    homogenizes on a fixed window as the boundary recedes, which is the
    quantity that decays when finite-energy harmonic functions are
    constant. The split is a rule name from SPLIT_RULES or a callable
    key -> {0, 1}.
    """
    g = ball(G, center, R, budget=budget)
    rule = SPLIT_RULES[split] if isinstance(split, str) else split
    bidx = np.where(g.boundary_mask)[0]
    bvals = {int(i): float(rule(g.verts[i])) for i in bidx}
    sol = solve_dirichlet(
        DirichletProblem(g, bvals, p=p, tolerance=tolerance, max_iters=max_iters)
    )
    rin = R // 2 if inner_radius is None else inner_radius
    if not 0 <= rin <= R:
        raise ValueError(f"inner radius {rin} outside [0, {R}]")
    dist = graph_distances(g, 0)
    inner = sol.values[dist <= rin]
    return float(inner.max() - inner.min()), p_energy(sol, g, p)
