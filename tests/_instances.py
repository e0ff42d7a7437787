"""Random Dirichlet instances shared by the acceptance criteria and the
solver tests, the dense solve that checks the iterative solvers, the
gradient-norm ratios that check the augmentation certificate, and the
cut count of a materialized ball."""

import random

import numpy as np

from lampharm.graphs import FiniteGraph


def random_connected(rng, n):
    """A random recursive tree on n vertices plus up to n // 2 random
    chords, with max(2, n // 5) random boundary vertices."""
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(n // 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((min(i, j), max(i, j)))
    edges = sorted(set((min(a, b), max(a, b)) for a, b in edges))
    boundary = rng.sample(range(n), max(2, n // 5))
    return FiniteGraph.from_edges(n, edges, boundary=boundary)


def normal_boundary_values(g, nrng):
    """Standard normal values on g's boundary vertices, drawn in vertex
    order."""
    bidx = np.flatnonzero(g.boundary_mask)
    return {int(i): float(v)
            for i, v in zip(bidx, nrng.normal(size=len(bidx)))}


def criterion_3_instances():
    """The 15 random (graph, boundary values, p) instances of acceptance
    criterion 3."""
    rng = random.Random(33)
    nrng = np.random.default_rng(33)
    for _ in range(15):
        g = random_connected(rng, rng.randrange(8, 60))
        yield g, normal_boundary_values(g, nrng), rng.choice([1.5, 2.0, 3.0])


def dense_reference(g, bvals):
    """The p=2 Dirichlet solution by an independent route: assemble the
    mean-value system densely and solve it directly."""
    n, adj = g.n, g.adj
    A = np.zeros((n, n))
    b = np.zeros(n)
    for v in range(n):
        if g.boundary_mask[v]:
            A[v, v] = 1.0
            b[v] = bvals[v]
        else:
            A[v, v] = len(adj[v])
            for w in adj[v]:
                A[v, w] -= 1.0
    return np.linalg.solve(A, b)


def free_group_oscillation(rank, p, R, w):
    """The window-w oscillation of the harmonic extension of the sign
    split on the radius-R ball of the free group of the given rank,
    exactly: (1 - c^w) / (1 - c^R), c = (2 rank - 1)^(-1 / (p - 1)).

    By symmetry the solution depends only on a word's side (the sign of
    its first letter) and length, and is 1/2 at the identity. Balancing
    the p-Laplacian at a word of length 1..R-1 against its 2 rank - 1
    children scales each length step's increment by c, and the sphere
    holds the values 0 and 1, so the window spans
    2 * (f_w - 1/2) = (1 - c^w) / (1 - c^R)."""
    c = (2 * rank - 1) ** (-1 / (p - 1))
    return (1 - c**w) / (1 - c**R)


def line_oscillation(w, R):
    """The window-w oscillation of the harmonic extension of the sign
    split on the radius-R ball of the line, exactly: w / R. The split
    puts 0 and 1 on the two ends, and on a path every p-harmonic
    function is linear, so the window's ends differ by w / R."""
    return w / R


def certificate_factor(cert, p):
    """The bound (1 + D^(p-1) C)^(1/p) that a certificate (D, C, A) of
    `gradient_bound_certificate` puts on ||grad f||_{p, aug} / ||grad f||_p."""
    D, C, _ = cert
    return (1 + D ** (p - 1) * C) ** (1 / p)


def gradient_ratios(g, g_aug, F, p):
    """||grad f||_{p, aug} / ||grad f||_p for each row f of F, from each
    graph's edge array taken once."""
    def energy(h):
        e = h.edges()
        return (np.abs(F[:, e[:, 1]] - F[:, e[:, 0]]) ** p).sum(axis=1)
    return (energy(g_aug) / energy(g)) ** (1 / p)


def cut_size(g, F):
    """The number of edges of the finite graph g with exactly one end in
    the vertex index set F, from g's edge array."""
    inside = np.zeros(g.n, dtype=bool)
    inside[list(F)] = True
    e = g.edges()
    return int(np.count_nonzero(inside[e[:, 0]] != inside[e[:, 1]]))
