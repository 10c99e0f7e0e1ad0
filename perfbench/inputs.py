"""Seeded inputs and closed-form references for the benchmark.

Everything here is computed without graphminimax, so the program under test
receives only generated inputs and is checked against independent formulas.
"""
from __future__ import annotations

import numpy as np

SEED_NAMES = ("simulate", "edge_list", "observations", "certificate_0", "certificate_1")


def workload_seeds(seed: int) -> dict[str, int]:
    """Independent per-input seeds derived from the run's ``--seed``."""
    state = np.random.SeedSequence(seed).generate_state(len(SEED_NAMES))
    return {name: int(value) for name, value in zip(SEED_NAMES, state)}


def small_world_edge_list(n: int, k: int, p: float, seed: int) -> str:
    """Watts-Strogatz edge list text: ring lattice with k neighbours, p rewiring.

    The nearest-neighbour ring is never rewired, so the graph is connected
    and every vertex id 0..n-1 appears.  Longer lattice edges move to a
    uniform endpoint with probability p, avoiding loops and duplicates.
    """
    rng = np.random.default_rng(seed)
    edges = {(min(u, (u + 1) % n), max(u, (u + 1) % n)) for u in range(n)}
    for j in range(2, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            if rng.random() < p:
                while True:
                    v = int(rng.integers(0, n))
                    if v != u and (min(u, v), max(u, v)) not in edges:
                        break
            edges.add((min(u, v), max(u, v)))
    lines = [f"{u} {v}" for u, v in sorted(edges)]
    rng.shuffle(lines)
    return f"# small-world n={n} k={k} p={p} seed={seed}\n" + "\n".join(lines) + "\n"


def _path_lambdas(d: int) -> np.ndarray:
    return 4.0 * np.sin(np.pi * np.arange(d) / (2 * d)) ** 2


def _path_basis(d: int, k: int) -> np.ndarray:
    """First k path eigenvectors, scaled so mean(phi_j^2) == 1."""
    odd = 2.0 * np.arange(1, d + 1) - 1.0
    phi = np.cos(np.pi * np.outer(odd, np.arange(k)) / (2 * d))
    phi[:, 1:] *= np.sqrt(2.0)
    return phi


def torus_eigenvalues(a: int, b: int) -> np.ndarray:
    """Sorted Laplacian spectrum of the a x b torus."""
    ja = 4.0 * np.sin(np.pi * np.arange(a) / a) ** 2
    jb = 4.0 * np.sin(np.pi * np.arange(b) / b) ** 2
    return np.sort((ja[:, None] + jb[None, :]).ravel())


def grid_observations(dims, beta, Q, fill, sigma, count, seed, modes=8):
    """Smooth targets on a 2-D grid and their noisy and binary observations.

    Each target has random coefficients on the lowest ``modes`` x ``modes``
    product eigenvectors of the grid, scaled so that its Sobolev form
    (geometry r = 2) equals ``fill * Q**2``.  Returns arrays of shape
    (count, n): targets f, Gaussian observations f + sigma * noise, and
    labels drawn as Bernoulli(sigmoid(f)).  Vertices are row-major, as in
    ``build_grid``.
    """
    a, b = dims
    n = a * b
    lam = _path_lambdas(a)[:modes, None] + _path_lambdas(b)[None, :modes]
    weights = np.sqrt(1.0 + n ** (2.0 * beta / 2.0) * lam**beta)
    phi_a, phi_b = _path_basis(a, modes), _path_basis(b, modes)
    rng = np.random.default_rng(seed)
    targets = np.empty((count, n))
    for i in range(count):
        g = rng.standard_normal((modes, modes))
        coeffs = np.sqrt(fill) * Q * g / (weights * np.linalg.norm(g))
        targets[i] = (phi_a @ coeffs @ phi_b.T).ravel()
    noisy = targets + sigma * rng.standard_normal((count, n))
    labels = (rng.random((count, n)) < 1.0 / (1.0 + np.exp(-targets))).astype(float)
    return targets, noisy, labels
