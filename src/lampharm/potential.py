"""Gradients, p-energy, p-Laplacian residuals, and Dirichlet solvers.

A solve minimizes sum |f(u) - f(v)|^p over edges given the boundary
values, and every p stops on one quantity: the normalized p-Laplacian
residual max_v |sum_w phi(f(v) - f(w))| / deg v over interior v, with
phi(d) = |d|^(p-2) d, once it is <= max(tolerance, floor). The floor
max((8 eps M)^(p-1), 8 eps M^(p-1)), M the largest absolute boundary
value, is what rounding hides; a smaller tolerance means "run to it".

p=2 runs Jacobi-preconditioned conjugate gradients (CG) on the interior
system A x = b reduced to the black rows, those outside a red set:
S x_b = b_b + W_br D_r^-1 b_r, S = A_bb - W_br D_r^-1 W_rb, then
x_r = D_r^-1 (b_r + W_rb x_b), W the weights between interior vertices.
Red is the interior at even BFS distance (from a ball's center, else
from the boundary) minus any vertex with an even interior neighbor:
independent, so A's red block is its diagonal D_r, and on a bipartite
ball every even layer, where CG takes half the steps (Reid, SIAM J.
Numer. Anal. 9, 1972). S's residual is A's on the black rows, and on
the red rows A's is rounding.

p != 2 runs damped Newton from the p=2 solution on sum (d^2 + eps^2)^(p/2),
eps shrinking tenfold per stage from a tenth of the boundary span to the
rounding of the values: the Hessian, a weighted graph Laplacian, goes to
the same CG, an Armijo search damps each step, and each iterate is
clamped to the boundary range, so the maximum principle is exact.
A solve takes at most DEFAULT_MAX_ITERS Newton steps, or at p=2 CG
steps on S; running out of them, or a last stage that stops making
progress, raises NonConvergenceError with the residual reached. Each
result carries a SolveStats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .graphs import FiniteGraph, ball, graph_distances
from .keys import IntPoint, LampKey, PairKey, WordKey

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERS = 1_000_000


@dataclass
class VertexFunction:
    """Real values indexed like FiniteGraph.verts; a solve's result
    carries its SolveStats in `stats`."""

    values: np.ndarray
    stats: Optional["SolveStats"] = field(default=None, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("vertex function must be a flat array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vertex function contains non-finite values")


class SolverError(RuntimeError):
    pass


class NonConvergenceError(SolverError):
    """A solve ran out of steps, or stalled above the floor; carries
    the residual reached."""

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
    return float(np.sum(np.abs(gradient(f, g)) ** p))


def harmonic_residual(f, g, p=2.0):
    """The normalized p-Laplacian residual: max over interior v of
    |sum_w phi(f(v) - f(w))| / deg v; at p=2, |f(v) - neighbor mean|."""
    vals = as_values(f, g)
    deg = np.diff(g.indptr)
    interior = np.flatnonzero(~g.boundary_mask & (deg > 0))
    if len(interior) == 0:
        return 0.0
    owners = g.row_owners()
    if p == 2.0:
        sums = np.bincount(owners, weights=vals[g.indices], minlength=g.n)
        res = vals[interior] - sums[interior] / deg[interior]
    else:
        d = vals[owners] - vals[g.indices]
        flux = np.sign(d) * np.abs(d) ** (p - 1.0)
        res = np.bincount(owners, weights=flux)[interior] / deg[interior]
    return float(np.max(np.abs(res)))


def residual_floor(m, p):
    """max((8 eps m)^(p-1), 8 eps m^(p-1)): the residual that rounding
    hides for values of size m."""
    u = 8.0 * np.finfo(np.float64).eps
    return max((u * m) ** (p - 1.0), u * m ** (p - 1.0))


@dataclass(frozen=True)
class SolveStats:
    """How a solve ended. method: "cg", "newton" or "constant" (constant
    boundary data or no interior); iterations: CG or Newton steps; stop:
    "tolerance", or "floor" when the tolerance was below the floor;
    residual: the normalized p-Laplacian residual reached."""

    method: str
    iterations: int
    stop: str
    residual: float


@dataclass
class DirichletProblem:
    """Boundary data on a FiniteGraph, the exponent p and the stop
    tolerance.

    boundary_values must be total: its keys are exactly the boundary-flagged
    vertex indices.
    """

    graph: FiniteGraph
    boundary_values: dict
    p: float = 2.0
    tolerance: float = DEFAULT_TOLERANCE


def solve_dirichlet(prob):
    """Minimize p-energy among functions matching the boundary data, to
    the stop rule of the module docstring. The result stays within the
    boundary range (up to rounding at p=2) and carries a SolveStats."""
    g = prob.graph
    p = float(prob.p)
    if not (1.0 < p < np.inf):
        raise ValueError(
            f"solve_dirichlet needs p in (1, inf), got {prob.p} "
            "(p=1 has non-unique minimizers; energy evaluation still works)"
        )
    if math.isnan(prob.tolerance):
        raise ValueError("tolerance must not be NaN")
    bmask = g.boundary_mask
    bidx = np.flatnonzero(bmask)
    data = prob.boundary_values
    try:
        keys = np.fromiter(data, dtype=np.float64, count=len(data))
        order = np.argsort(keys)
        total = np.array_equal(keys[order], bidx)
    except (TypeError, ValueError):
        total = False
    if not total:
        raise ValueError(
            "boundary data must be total: keys must be exactly the "
            "boundary-flagged vertex indices"
        )
    f = np.zeros(g.n)
    f[bidx] = np.fromiter(data.values(), dtype=np.float64,
                          count=len(data))[order]
    bad = np.flatnonzero(~np.isfinite(f[bidx]))
    if len(bad):
        raise ValueError(f"non-finite boundary value at {bidx[bad[0]]}")
    interior = np.flatnonzero(~bmask)
    trivial = SolveStats("constant", 0, "tolerance", 0.0)
    if len(interior) == 0:
        return VertexFunction(f, trivial)
    if len(bidx) == 0:
        raise DisconnectedInteriorError("graph has no boundary vertices")
    # a ball (center_dist set) is connected: every vertex reaches bidx;
    # elsewhere the reachability search gives the distances
    dist = g.center_dist
    if dist is None:
        dist = graph_distances(g, bidx)
        unreached = np.flatnonzero(dist < 0)
        if len(unreached):
            raise DisconnectedInteriorError(
                f"interior vertex {unreached[0]} has no path to the boundary"
            )
    bvals = f[bidx]
    if bvals.max() == bvals.min():
        # degenerate problem: the constant is the unique minimizer
        f[:] = bvals[0]
        return VertexFunction(f, trivial)
    f[interior] = bvals.mean()
    floor = residual_floor(float(np.max(np.abs(bvals))), p)
    stop = max(prob.tolerance, floor)
    owner, _, col = rows = _interior_rows(g, interior)
    system = _schur(owner, col, _red_set(owner, col, dist[interior] % 2 == 0))
    if p == 2.0:
        method = "cg"
        iters = _solve_p2_cg(f, interior, rows, system, stop,
                             DEFAULT_MAX_ITERS)
    else:
        method = "newton"
        iters = _solve_newton(g, f, interior, rows, system, p, stop)
    reason = "tolerance" if prob.tolerance >= floor else "floor"
    return VertexFunction(f, SolveStats(method, iters, reason,
                                        harmonic_residual(f, g, p)))


def _interior_rows(g, interior):
    """The CSR entries of the interior rows, in row order: the row's
    interior position, the neighbor, and the neighbor's interior
    position (-1 on the boundary)."""
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[interior] = np.arange(len(interior))
    owner = pos[g.row_owners()]
    mine = owner >= 0
    nbr = g.indices[mine]
    return owner[mine], nbr, pos[nbr]


def _red_set(owner, col, even):
    """The `even` interior positions without an even interior neighbor:
    independent, and on a bipartite graph every even position."""
    c = col >= 0
    red = even.copy()
    red[owner[c][even[owner[c]] & even[col[c]]]] = False
    return red


def _gather(rows, cols, n_rows, n_cols):
    """weights -> (x -> y): y[i] sums weights[e] * x[cols[e]] (weights 1
    when None) over the entries e of row i; rows is sorted.

    x -> y gathers through a (slots, n_rows) table, slots the longest
    row: table[k, i] is the column of row i's k-th entry, or n_cols, a
    zero pad, past the row's end. Summing the slots in order, from +0.0
    as np.bincount does, adds each row's terms in bincount's order, so y
    is bit-identical to the bincount form. Where a hub would pad the
    table to over four times the entries, y is that bincount form."""
    # rows is sorted: an entry's slot is its offset from its row's start
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
    slots = int(slot.max()) + 1 if len(rows) else 0
    at = slot * n_rows + rows
    table = None
    if slots * n_rows <= 4 * len(rows):
        table = np.full(slots * n_rows, n_cols, dtype=np.intp)
        table[at] = cols
        table = table.reshape(slots, n_rows)

    def with_weights(weights=None):
        wt = None
        if table is not None and weights is not None:
            wt = np.zeros(slots * n_rows)
            wt[at] = weights
            wt = wt.reshape(slots, n_rows)
        xp = np.zeros(n_cols + 1)

        def gather(x):
            if table is None:
                xc = x[cols] if weights is None else weights * x[cols]
                return np.bincount(rows, weights=xc, minlength=n_rows)
            xp[:n_cols] = x
            y = np.zeros(n_rows)
            for k in range(slots):
                term = xp[table[k]]
                if wt is not None:
                    term *= wt[k]
                y += term
            return y

        return gather

    return with_weights


def _schur(owner, col, red):
    """weights -> (solve, diag) for A, the graph Laplacian with per-entry
    edge weights (1 when None) on the entries of _interior_rows, and its
    diagonal. solve(b, x, stop, max_iters) runs _pcg on the Schur
    complement of A's red block (see the module docstring), in place on
    x, and returns _pcg's (steps, residual)."""
    n, n_b = len(red), len(red) - np.count_nonzero(red)
    # positions in black-then-red order, so that x reads [x_b, x_r]
    order = np.argsort(red, kind="stable")
    num = np.empty_like(order)
    num[order] = np.arange(n)
    on_r, on_b = (col >= 0) & red[owner], (col >= 0) & ~red[owner]
    to_r = _gather(num[owner[on_r]] - n_b, num[col[on_r]], n - n_b, n_b)
    to_b = _gather(num[owner[on_b]], num[col[on_b]], n_b, n)

    def with_weights(weights=None):
        diag = np.bincount(owner, weights=weights, minlength=n).astype(float)
        d_b, d_r = diag[order[:n_b]], diag[order[n_b:]]
        w_rb = to_r(None if weights is None else weights[on_r])
        w_b = to_b(None if weights is None else weights[on_b])

        def apply_S(v):
            return d_b * v - w_b(np.concatenate((v, w_rb(v) / d_r)))

        def solve(b, x, stop, max_iters):
            b = b[order]
            x_b = x[order[:n_b]]
            rhs = b[:n_b] + w_b(np.concatenate((np.zeros(n_b), b[n_b:] / d_r)))
            out = _pcg(apply_S, d_b, rhs, x_b, stop, max_iters)
            x[order] = np.concatenate((x_b, (b[n_b:] + w_rb(x_b)) / d_r))
            return out

        return solve, diag

    return with_weights


def _pcg(apply_A, diag, b, x, stop, max_iters):
    """Jacobi-preconditioned CG on A x = b, updating x in place until
    max |b - A x| / diag <= stop or max_iters steps are spent. Returns
    (steps, last max |r| / diag).

    r z = sum r_i^2 / diag_i <= (max |r| / diag)^2 sum diag, so while
    r z > 2 stop^2 sum diag (a factor 2 over rounding) the max norm is
    above stop, and it is read only past that point: the stop falls on
    the same step as a check on every step.

    Where r z leaves the normal range (values near 1e-160), r, z and d
    are scaled up by a power of two s, exactly, so it cannot underflow."""
    tiny, s = np.finfo(np.float64).tiny, 1.0
    r = b - apply_A(x)
    z = r / diag
    d = z.copy()
    rz = float(r @ z)
    lazy = 2.0 * stop * stop * float(diag.sum())
    if lazy < tiny:
        lazy = np.inf  # stop^2 underflows: check every step
    for it in range(max_iters + 1):
        if rz <= lazy or it == max_iters:
            res = float(np.max(np.abs(r) / diag, initial=0.0)) / s
            if res <= stop or it == max_iters:
                return it, res
        if rz < tiny:
            # r != 0 above the stop; 2^1023 is the largest finite power
            t = 2.0 ** min(1023, -int(np.frexp(np.max(np.abs(r)))[1]))
            r *= t
            d *= t
            np.divide(r, diag, out=z)
            rz = float(r @ z)
            lazy *= t * t
            s *= t
        Ad = apply_A(d)
        dAd = float(d @ Ad)
        if dAd <= 0.0:
            # numerical stagnation: refresh the residual and restart
            r = (b - apply_A(x)) * s
            z = r / diag
            d = z.copy()
            rz = float(r @ z)
            continue
        alpha = rz / dAd
        x += (alpha / s) * d
        if (it + 1) % 64 == 0:
            r = (b - apply_A(x)) * s
        else:
            r -= alpha * Ad
        np.divide(r, diag, out=z)
        rz_new = float(r @ z)
        d *= rz_new / rz
        d += z
        rz = rz_new


def _solve_p2_cg(f, interior, rows, system, stop, max_iters):
    """CG on the interior mean-value equations, in place on f, with the
    interior's _interior_rows and _schur. Returns the CG steps taken."""
    owner, nbr, col = rows
    fixed = col < 0
    b = np.bincount(owner[fixed], weights=f[nbr[fixed]],
                    minlength=len(interior))
    solve, _ = system()
    x = f[interior].copy()
    it, res = solve(b, x, stop, max_iters)
    if not res <= stop:
        raise NonConvergenceError(res, it)
    f[interior] = x
    return it


def _solve_newton(g, f, interior, rows, system, p, stop):
    """Damped Newton on the smoothed p-energy, in place on f, with rows
    and system as _solve_p2_cg has them, from the p=2 solution (at most
    4 CG steps per unknown, as each Hessian solve). Returns the Newton
    steps taken."""
    bvals = f[g.boundary_mask]
    lo, hi = float(bvals.min()), float(bvals.max())
    m = max(-lo, hi)
    n_i = len(interior)
    _solve_p2_cg(f, interior, rows, system,
                 max(stop, residual_floor(m, 2.0)), 4 * n_i)
    f[interior] = np.clip(f[interior], lo, hi)
    owner, nbr, _ = rows
    deg = np.bincount(owner).astype(float)
    me = interior[owner]
    eu, ev = g.edges().T
    half = p / 2.0
    rounding = np.finfo(np.float64).eps * m
    dx = np.zeros(g.n)

    def energy_change(new, eps2):
        # E_eps(f with interior `new`) - E_eps(f), edge by edge from the
        # change in d, so that small moves stay exact
        dx[interior] = new - f[interior]
        a, s = f[ev] - f[eu], dx[ev] - dx[eu]
        base = a * a + eps2
        return float(np.sum(
            base ** half * np.expm1(half * np.log1p(s * (2.0 * a + s) / base))))

    steps = 0
    eps = 0.1 * (hi - lo)
    while True:
        # a stage runs Newton on E_eps until its gradient is small; a
        # failed line search, or 8 steps without halving the gradient,
        # ends the stage, and in the last stage the solve
        eps2 = eps * eps
        last = eps < 10.0 * rounding
        target = max(stop, 0.1 * eps ** (p - 1.0))
        best, since = np.inf, 0
        while True:
            res = harmonic_residual(f, g, p)
            if res <= stop:
                return steps
            d = f[me] - f[nbr]
            s2 = d * d + eps2
            grad = np.bincount(owner, weights=s2 ** (half - 1.0) * d)
            gres = float(np.max(np.abs(grad) / deg))
            if gres <= target and not last:
                break
            best, since = (gres, 0) if gres < 0.5 * best else (best, since + 1)
            if steps == DEFAULT_MAX_ITERS:
                raise NonConvergenceError(res, steps)
            t = 0.0
            if since < 8:
                steps += 1
                solve, diag = system(
                    s2 ** (half - 2.0) * ((p - 1.0) * d * d + eps2))
                step = np.zeros(n_i)
                solve(-grad, step, 1e-9 * float(np.max(np.abs(grad) / diag)),
                      4 * n_i)
                slope = 1e-4 * p * float(grad @ step)
                t = 1.0
                while t >= 1e-12:
                    new = np.clip(f[interior] + t * step, lo, hi)
                    if energy_change(new, eps2) <= t * slope:
                        break
                    t *= 0.5
            if t < 1e-12:
                if last:
                    raise NonConvergenceError(res, steps)
                break
            f[interior] = new
        eps *= 0.1


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


def split_values(g):
    """The sign split as boundary data on g: 1 where sign_projection is
    nonnegative, else 0. A ball that keeps its frame rows gives the
    projection in their column 0 (see graphs.WalkFrame), so no key is
    decoded."""
    bidx = np.flatnonzero(g.boundary_mask)
    if g.rows is not None:
        side = g.rows[bidx, 0] >= 0
    else:
        side = [sign_projection(g.verts[i]) >= 0 for i in bidx]
    return dict(zip(bidx.tolist(), np.asarray(side, dtype=float).tolist()))


# ---------------------------------------------------------------------------
# probes


def annulus_capacity(G, center, r, R, p, tolerance=DEFAULT_TOLERANCE,
                     budget=None):
    """p-energy of the Dirichlet solution on B_R that is 1 on B_r and 0 on
    the boundary of B_R. Non-increasing in R, non-decreasing in r."""
    if not 0 < r < R:
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    g = ball(G, center, R, budget=budget)
    inner = g.center_dist <= r
    mask = inner | g.boundary_mask
    g2 = replace(g, boundary_mask=mask)
    idx = np.flatnonzero(mask)
    bvals = dict(zip(idx.tolist(), inner[idx].astype(float).tolist()))
    sol = solve_dirichlet(DirichletProblem(g2, bvals, p=p, tolerance=tolerance))
    return p_energy(sol, g2, p)


def window_oscillation(g, f, r):
    """max - min of f over B_r, the vertices of the ball g within
    distance r of its center."""
    inner = as_values(f, g)[g.center_dist <= r]
    return float(inner.max() - inner.min())


def oscillation_probe(G, center, R, p, budget=None,
                      inner_radius: Optional[int] = None):
    """Harmonic extension of the sign split (split_values) on B_R.

    Returns (oscillation of the solution over the inner ball, p-energy of
    the solution). The inner ball is B_{R // 2} by default; passing a fixed
    inner_radius across a family of growing R probes how the solution
    homogenizes on a fixed window as the boundary recedes, which is the
    quantity that decays when finite-energy harmonic functions are
    constant.
    """
    rin = R // 2 if inner_radius is None else inner_radius
    if not 0 <= rin <= R:
        raise ValueError(f"inner radius {rin} outside [0, {R}]")
    g = ball(G, center, R, budget=budget)
    sol = solve_dirichlet(DirichletProblem(g, split_values(g), p=p))
    return window_oscillation(g, sol, rin), p_energy(sol, g, p)
