"""Independent p-Laplacian residual of a Dirichlet solution.

Reads only the adjacency lists, the boundary mask and the solution
values, so it checks a solver without sharing any of its code.
"""

from __future__ import annotations

import numpy as np


def p_laplacian_residual(adj, boundary_mask, values, p):
    """Max over interior v of |sum_w phi(f(v) - f(w))| / deg(v), with
    phi(d) = sign(d) |d|^(p-1) = |d|^(p-2) d.

    At p=2 this is the max interior mean-value residual. Interior vertices
    without neighbours are skipped; with no interior vertices it is 0.
    """
    f = np.asarray(values, dtype=np.float64)
    mask = np.asarray(boundary_mask, dtype=bool)
    deg = np.fromiter((len(a) for a in adj), dtype=np.int64, count=len(adj))
    interior = ~mask & (deg > 0)
    if not interior.any():
        return 0.0
    rows = np.repeat(np.arange(len(adj)), deg)
    cols = np.fromiter(
        (w for a in adj for w in a), dtype=np.int64, count=int(deg.sum())
    )
    d = f[rows] - f[cols]
    flux = np.sign(d) * np.abs(d) ** (p - 1.0)
    total = np.bincount(rows, weights=flux, minlength=len(adj))
    return float(np.max(np.abs(total[interior]) / deg[interior]))
