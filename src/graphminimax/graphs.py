"""Simple undirected connected graphs and their combinatorial Laplacians.

Vertex ids are 0-based everywhere.  Every constructor validates simplicity
(no self-loops, no duplicate edges) and connectivity, so downstream spectral
code can rely on the second-smallest Laplacian eigenvalue being positive.
Graphs are immutable after construction and safe to share across threads.

Graphs are named by a one-line spec language, read by ``parse_graph_spec``:

    path:N  grid:AxB[xC...]  torus:AxB[...]  ws:N,K,P,SEED  file:PATH
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericError, ValidationError

#: Largest vertex count for which a dense n x n array may be materialized:
#: the Laplacian of ``laplacian`` or the eigenbasis of ``eigendecompose``
#: (closed-form bases of paths, grids and tori included).
DEFAULT_DENSE_CAP = 8192

_WS_RETRY_BUDGET = 64


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected connected graph.

    ``edges`` holds each undirected edge once as a ``(u, v)`` pair with
    ``u < v``, sorted lexicographically.  ``degrees[i]`` counts the edges
    incident to vertex ``i``.  ``build_seed`` records the RNG seed that
    actually produced a randomized graph (None for deterministic families).
    ``shape`` is ``("grid", dims)`` for a grid (a path is the 1-axis grid),
    ``("torus", dims)`` for a torus and None for every other graph; spectral
    code reads it to use the closed-form spectrum and the known r = len(dims).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray
    build_seed: int | None = None
    shape: tuple[str, tuple[int, ...]] | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _adjacency_lists(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connectivity_witness(n: int, edges: Iterable[tuple[int, int]]):
    """Return None if connected, else a pair (reached, unreachable)."""
    adj = _adjacency_lists(n, edges)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    if seen.all():
        return None
    return 0, int(np.flatnonzero(~seen)[0])


def _finish_graph(n: int, edge_set: set[tuple[int, int]], build_seed=None, shape=None) -> Graph:
    """Validate a candidate edge set and freeze it into a Graph."""
    for u, v in edge_set:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edge_set))
    if len(edges) != len(edge_set):
        raise ValidationError("duplicate edges after normalization")
    witness = _connectivity_witness(n, edges)
    if witness is not None:
        a, b = witness
        raise ValidationError(
            f"graph is disconnected: vertices {a} and {b} are not connected"
        )
    degrees = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    degrees.setflags(write=False)
    return Graph(n=n, edges=edges, degrees=degrees, build_seed=build_seed, shape=shape)


def build_path(n: int) -> Graph:
    """Path graph on n vertices: edges {i, i+1} for i = 0..n-2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"path graph needs n >= 2, got {n!r}")
    return _finish_graph(int(n), {(i, i + 1) for i in range(n - 1)}, shape=("grid", (int(n),)))


def _flatten(coords: tuple[int, ...], dims: list[int]) -> int:
    # row-major: last coordinate varies fastest
    idx = 0
    for c, d in zip(coords, dims):
        idx = idx * d + c
    return idx


def _check_dims(dims, min_dim: int, what: str) -> list[int]:
    dims = list(dims)
    if not dims:
        raise ValidationError(f"{what} needs at least one dimension")
    for d in dims:
        if not isinstance(d, (int, np.integer)) or d < min_dim:
            raise ValidationError(f"{what} dimensions must be >= {min_dim}, got {d!r}")
    return [int(d) for d in dims]


def build_grid(dims: list[int]) -> Graph:
    """Cartesian product of path graphs, vertices flattened row-major."""
    dims = _check_dims(dims, 2, "grid")
    n = int(np.prod(dims))
    edges: set[tuple[int, int]] = set()
    for flat in range(n):
        coords = list(np.unravel_index(flat, dims))
        for axis, d in enumerate(dims):
            if coords[axis] + 1 < d:
                nb = coords.copy()
                nb[axis] += 1
                edges.add((flat, _flatten(tuple(nb), dims)))
    return _finish_graph(n, edges, shape=("grid", tuple(dims)))


def build_torus(dims: list[int]) -> Graph:
    """Cartesian product of cycles: grid coordinates wrap modulo each dim."""
    dims = _check_dims(dims, 3, "torus")
    n = int(np.prod(dims))
    edges: set[tuple[int, int]] = set()
    for flat in range(n):
        coords = list(np.unravel_index(flat, dims))
        for axis, d in enumerate(dims):
            nb = coords.copy()
            nb[axis] = (coords[axis] + 1) % d
            other = _flatten(tuple(nb), dims)
            edges.add((min(flat, other), max(flat, other)))
    return _finish_graph(n, edges, shape=("torus", tuple(dims)))


def _ws_edge_set(n: int, k: int, p: float, seed: int) -> set[tuple[int, int]]:
    """One Watts-Strogatz draw: ring lattice plus seeded rewiring."""
    rng = np.random.default_rng(seed)
    edges = {(u, (u + j) % n) for j in range(1, k // 2 + 1) for u in range(n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    # rewire in a fixed order so the construction is reproducible
    for j in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            e = (min(u, v), max(u, v))
            if e not in edges or rng.random() >= p:
                continue
            for _ in range(8 * n):
                w = int(rng.integers(0, n))
                cand = (min(u, w), max(u, w))
                if w != u and cand not in edges:
                    edges.discard(e)
                    edges.add(cand)
                    break
    return edges


def build_small_world(n: int, k: int, p: float, seed: int) -> Graph:
    """Watts-Strogatz small-world graph, retried on disconnection.

    Starts from a ring lattice where each vertex joins its k nearest
    neighbours, then rewires every lattice edge with probability p to a
    uniformly random endpoint that creates neither a loop nor a duplicate.
    If a draw is disconnected the seed is incremented and the construction
    retried (budget 64); the seed that finally succeeded is recorded on the
    returned graph.
    """
    if not isinstance(k, (int, np.integer)) or k <= 0 or k % 2 != 0:
        raise ValidationError(f"small-world k must be a positive even integer, got {k!r}")
    if k >= n:
        raise ValidationError(f"small-world needs k < n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"rewiring probability must be in [0, 1], got {p!r}")
    for attempt in range(_WS_RETRY_BUDGET):
        used = int(seed) + attempt
        edges = _ws_edge_set(int(n), int(k), float(p), used)
        if _connectivity_witness(n, edges) is None:
            return _finish_graph(int(n), edges, build_seed=used)
    raise NumericError(
        f"small-world construction failed: no connected draw in {_WS_RETRY_BUDGET} seeds"
    )


def load_edge_list(lines: Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list into a validated Graph.

    Each non-blank line is "u v" with non-negative integer vertex ids;
    lines starting with '#' are ignored.  Duplicate edges are dropped.
    Every id from 0 to the largest one must appear in some edge.
    """
    edges: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValidationError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise ValidationError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
        edges.add((min(u, v), max(u, v)))
        max_id = max(max_id, u, v)
    if not edges:
        raise ValidationError("edge list contains no edges")
    # The graph is sized by the largest id, so check that the ids are dense
    # before anything of that size is allocated.  The first missing id is at
    # most the number of distinct ids, which keeps the scan O(m).
    ids = {u for edge in edges for u in edge}
    if len(ids) != max_id + 1:
        missing = next(i for i in range(max_id + 1) if i not in ids)
        raise ValidationError(
            f"vertex ids must be exactly 0..{max_id} (the largest id): id {missing} "
            "appears in no edge"
        )
    return _finish_graph(max_id + 1, edges)


def parse_graph_spec(text: str) -> Graph:
    """Build the graph named by a spec string such as ``grid:8x8``."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValidationError(f"bad graph spec {text!r}: expected '<family>:<params>'")
    if kind == "path":
        try:
            return build_path(int(rest))
        except ValueError:
            raise ValidationError(f"bad path size in {text!r}") from None
    if kind in ("grid", "torus"):
        try:
            dims = [int(tok) for tok in rest.split("x")]
        except ValueError:
            raise ValidationError(f"bad dimensions in {text!r}") from None
        return build_grid(dims) if kind == "grid" else build_torus(dims)
    if kind == "ws":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValidationError(f"bad small-world spec {text!r}: need ws:N,K,P,SEED")
        try:
            n, k, p, seed = int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise ValidationError(f"could not parse small-world parameters in {text!r}") from None
        return build_small_world(n, k, p, seed)
    if kind == "file":
        with open(rest, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    raise ValidationError(f"unknown graph family in {text!r}")


def check_dense_cap(n: int, max_n: int = DEFAULT_DENSE_CAP) -> None:
    """ValidationError naming the cap if an n x n dense array exceeds it."""
    if n > max_n:
        raise ValidationError(
            f"n={n} exceeds the dense Laplacian cap {max_n}; raise max_n explicitly"
        )


def laplacian(g: Graph, max_n: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense combinatorial Laplacian L = D - A of the graph.

    Refuses to materialize matrices beyond ``max_n`` so the O(n^2) memory
    and O(n^3) eigendecomposition cost stay an explicit, desk-scale choice.
    """
    check_dense_cap(g.n, max_n)
    L = np.zeros((g.n, g.n))
    for u, v in g.edges:
        L[u, v] = -1.0
        L[v, u] = -1.0
    L[np.diag_indices(g.n)] = g.degrees.astype(float)
    return L
