"""Simple undirected connected graphs and their combinatorial Laplacians.

Vertex ids are 0-based everywhere.  Every constructor validates simplicity
(no self-loops, no duplicate edges) and connectivity (lattices by construction,
other graphs by one BFS), so spectral code can rely on the second-smallest
Laplacian eigenvalue being positive.  Only ``build_path``, ``build_grid`` and
``build_torus`` give a graph a ``shape``, and their edges are the lattice's by
construction, so spectral code reads a closed-form spectrum off it unchecked.
Graphs are immutable after construction and safe to share across threads;
``apply_laplacian`` applies L from the edges.

Graphs are named by a one-line spec language, read by ``parse_graph_spec``:

    path:N  grid:AxB[xC...]  torus:AxB[...]  ws:N,K,P,SEED  file:PATH
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NumericError, ValidationError, _check_integer, _check_real, _check_seed

#: Largest vertex count for which a dense n x n array may be materialized:
#: the Laplacian of ``laplacian`` and the eigenbasis ``eigendecompose`` solves
#: for a graph without shape.  A head of k eigenvectors of a path, grid or
#: torus (``head_basis``, a path's single factor, a full ``Spectrum.basis``)
#: may hold n k values up to the square of this cap.  A small-world graph
#: may have at most this many vertices, a path, grid or torus its square.
#: ``laplacian`` never touches the pages of its zeros, so a dense solve
#: holds LAPACK's n x n copy (and eigh's n x n basis) plus only the pages
#: of L that hold an edge or a degree.
DEFAULT_DENSE_CAP = 8192

_WS_RETRY_BUDGET = 64


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected connected graph.

    ``edges`` is a read-only ``(m, 2)`` int64 array holding each undirected
    edge once as a row ``(u, v)`` with ``u < v``, rows sorted
    lexicographically.  ``degrees[i]`` counts the edges incident to vertex
    ``i``.  ``build_seed`` records the RNG seed that actually produced a
    randomized graph (None for deterministic families).  ``shape`` is
    ``("grid", dims)`` for a grid (a path is the 1-axis grid),
    ``("torus", dims)`` for a torus and None for every other graph; spectral
    code reads the closed-form spectrum and the known r = len(dims) off it.
    Only the lattice builders set it, so it cannot be passed: ``Graph(...,
    shape=...)`` raises TypeError and ``dataclasses.replace(g, shape=...)``
    ValueError, and ``dataclasses.replace(g, ...)`` returns a copy without
    shape, solved densely.  Graphs compare and hash by identity.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray
    build_seed: int | None = None
    shape: tuple[str, tuple[int, ...]] | None = field(default=None, init=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _connectivity_witness(n: int, edges: np.ndarray):
    """None if connected, else (0, the first vertex a BFS from 0 misses).

    The BFS reads each vertex's neighbours from both directions of every
    edge, sorted stably by source vertex.
    """
    src, dst = np.concatenate([edges, edges[:, ::-1]]).T
    order = np.argsort(src, kind="stable")
    start = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    nbrs = dst[order].tolist()
    seen = bytearray(n)
    seen[0] = 1
    queue = [0]
    for u in queue:
        for w in nbrs[start[u] : start[u + 1]]:
            if not seen[w]:
                seen[w] = 1
                queue.append(w)
    return None if len(queue) == n else (0, seen.index(0))


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order.

    A sort, not ``np.unique``: numpy 2.4 runs that 30-40x slower on large
    int64 arrays, and its first call imports ``numpy.ma``.
    """
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _finish_graph(n: int, edges: np.ndarray, build_seed=None, shape=None) -> Graph:
    """Check an (m, 2) edge array for simplicity (connectivity is the caller's) and freeze it."""
    u, v = edges[:, 0], edges[:, 1]
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise ValidationError(f"self-loop at vertex {u[loops[0]]}")
    outside = np.flatnonzero((edges < 0).any(axis=1) | (edges >= n).any(axis=1))
    if outside.size:
        a, b = edges[outside[0]]
        raise ValidationError(f"edge ({a},{b}) out of range for n={n}")
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    if np.any(keys[1:] == keys[:-1]):
        raise ValidationError("duplicate edges after normalization")
    edges = np.stack(divmod(keys, n), axis=1)
    degrees = np.bincount(edges.ravel(), minlength=n)
    edges.setflags(write=False)
    degrees.setflags(write=False)
    g = Graph(n=n, edges=edges, degrees=degrees, build_seed=build_seed)
    object.__setattr__(g, "shape", shape)
    return g


def _check_dims(dims, min_dim: int, what: str) -> list[int]:
    """dims as ints, each >= min_dim, with at most DEFAULT_DENSE_CAP**2 vertices in all."""
    dims = [_check_integer(d, f"{what} dimension", lo=min_dim) for d in dims]
    if not dims:
        raise ValidationError(f"{what} needs at least one dimension")
    cap = DEFAULT_DENSE_CAP**2
    _check_integer(math.prod(dims), f"a {what}'s vertex count", 1, cap, "DEFAULT_DENSE_CAP**2")
    return dims


def _lattice_edges(dims: list[int], wrap: bool) -> np.ndarray:
    """Each row-major vertex id joined to its successor along every axis."""
    coords = np.indices(dims).reshape(len(dims), -1)
    pairs = []
    for axis, d in enumerate(dims):
        tail = coords[:, slice(None) if wrap else coords[axis] < d - 1]
        head = tail.copy()
        head[axis] += 1
        pairs.append([np.ravel_multi_index(c, dims, mode="wrap") for c in (tail, head)])
    return np.concatenate(pairs, axis=1).T


def build_path(n: int) -> Graph:
    """Path graph on n vertices: edges {i, i+1} for i = 0..n-2 (the 1-axis grid)."""
    return build_grid([_check_integer(n, "path graph n", lo=2)])


def build_grid(dims: list[int]) -> Graph:
    """Cartesian product of path graphs, vertices flattened row-major."""
    dims = _check_dims(dims, 2, "grid")
    edges = _lattice_edges(dims, wrap=False)
    return _finish_graph(int(np.prod(dims)), edges, shape=("grid", tuple(dims)))


def build_torus(dims: list[int]) -> Graph:
    """Cartesian product of cycles: grid coordinates wrap modulo each dim."""
    dims = _check_dims(dims, 3, "torus")
    edges = _lattice_edges(dims, wrap=True)
    return _finish_graph(int(np.prod(dims)), edges, shape=("torus", tuple(dims)))


def _ws_edges(n: int, k: int, p: float, seed: int) -> np.ndarray:
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
    return np.array(list(edges), dtype=np.int64)


def build_small_world(n: int, k: int, p: float, seed: int) -> Graph:
    """Watts-Strogatz small-world graph, retried on disconnection.

    Starts from a ring lattice where each vertex joins its k nearest
    neighbours, then rewires every lattice edge with probability p to a
    uniformly random endpoint that creates neither a loop nor a duplicate.
    If a draw is disconnected the seed is incremented and the construction
    retried (budget 64); the seed that finally succeeded is recorded on the
    returned graph.  No spectrum of a graph without shape can be computed
    above ``DEFAULT_DENSE_CAP`` vertices, so a larger n raises
    ValidationError before any edge is drawn.
    """
    n = _check_integer(n, "small-world n", 3, DEFAULT_DENSE_CAP, "DEFAULT_DENSE_CAP")
    k = _check_integer(k, "small-world k", 2, n - 1)
    if k % 2 != 0:
        raise ValidationError(f"small-world k must be even, got {k}")
    p = _check_real(p, "rewiring probability p", hi=1, ends="[]")
    seed = _check_seed(seed)
    for attempt in range(_WS_RETRY_BUDGET):
        used = seed + attempt
        edges = _ws_edges(n, k, p, used)
        if _connectivity_witness(n, edges) is None:
            return _finish_graph(n, edges, build_seed=used)
    raise NumericError(
        f"small-world construction failed: no connected draw in {_WS_RETRY_BUDGET} seeds"
    )


def load_edge_list(lines: Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list into a validated Graph.

    Each non-blank line is "u v" with non-negative integer vertex ids;
    lines starting with '#' are ignored.  Duplicate edges are dropped.
    Every id from 0 to the largest one must appear in some edge.
    """
    ids: list[int] = []
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
        ids += (u, v)
    if not ids:
        raise ValidationError("edge list contains no edges")
    # The graph is sized by the largest id, so check that the ids are dense
    # before anything of that size is allocated.  The first distinct id that
    # differs from its position is missing; an id beyond int64 stays a Python int.
    n = max(ids) + 1
    flat = np.array(ids, dtype=np.int64 if n <= 2**63 else object)
    distinct = _sorted_distinct(flat)
    if distinct.size != n:
        missing = int(np.flatnonzero(distinct != np.arange(distinct.size))[0])
        raise ValidationError(
            f"vertex ids must be exactly 0..{n - 1} (the largest id): id {missing} "
            "appears in no edge"
        )
    u, v = flat.reshape(-1, 2).T
    edges = np.stack(divmod(_sorted_distinct(np.minimum(u, v) * n + np.maximum(u, v)), n), axis=1)
    witness = _connectivity_witness(n, edges)
    if witness is not None:
        a, b = witness
        raise ValidationError(f"graph is disconnected: vertices {a} and {b} are not connected")
    return _finish_graph(n, edges)


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


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian L = D - A of the graph.

    Refuses to materialize matrices beyond ``DEFAULT_DENSE_CAP`` so the
    O(n^2) memory and O(n^3) eigendecomposition cost stay an explicit,
    desk-scale choice; ``apply_laplacian`` applies L without it.

    L lives in a private anonymous mapping whose pages the kernel allocates
    on first write, and huge pages are declined where the platform allows.
    Only the pages holding an edge or a degree become resident: about 2660
    of 8192 on a 2048-vertex small-world graph with six neighbours.  Reading
    the zeros (as ``eigvalsh`` and ``eigh`` do when they copy L) maps no
    memory, so a dense solve's resident peak is LAPACK's copy plus L's
    written pages.  The pages are returned when the array is freed.
    """
    _check_integer(g.n, "a dense Laplacian's n", 1, DEFAULT_DENSE_CAP, "DEFAULT_DENSE_CAP")
    L = _lazy_zeros(g.n)
    u, v = g.edges.T
    L[u, v] = -1.0
    L[v, u] = -1.0
    L[np.diag_indices(g.n)] = g.degrees
    return L


def _lazy_zeros(n: int) -> np.ndarray:
    """A writable n x n float64 array of zeros whose pages exist only once written."""
    if not hasattr(mmap, "MAP_PRIVATE"):  # no POSIX mmap: an ordinary zero array
        return np.zeros((n, n))
    # MAP_PRIVATE: a read of MAP_SHARED anonymous memory allocates real pages
    buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf).reshape(n, n)


def apply_laplacian(g: Graph, X: np.ndarray) -> np.ndarray:
    """L @ X from the edge array, without the n x n Laplacian.

    ``X`` has shape (n,) or (n, k); any other shape raises ValidationError
    naming it.  Each column is (L x)(i) = d_i x(i) -
    sum_{j ~ i} x(j), the neighbour sum one ``np.bincount`` over both
    directions of every edge, in edge order: O(m k) time and O(n + m)
    memory per column, whatever the degrees.  The result is column-major.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[0] != g.n:
        raise ValidationError(f"X has shape {X.shape}, expected n={g.n} rows as (n,) or (n, k)")
    src, dst = np.concatenate([g.edges, g.edges[:, ::-1]]).T
    cols = X.reshape(g.n, -1)
    out = np.empty(cols.shape, order="F")
    for j, x in enumerate(cols.T):
        out[:, j] = g.degrees * x - np.bincount(src, weights=x[dst], minlength=g.n)
    return out.reshape(X.shape)
