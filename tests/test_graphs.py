import dataclasses
import io
import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import graphminimax as gm
from graphminimax.errors import NumericError, ValidationError


def path_eigenvalues(n):
    # closed form for the path Laplacian, used as an independent oracle
    return 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2


def cycle_eigenvalues(n):
    return 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)


def product_spectrum(lams_a, lams_b):
    return np.sort(np.add.outer(lams_a, lams_b).ravel())


def reference_lattice(dims, wrap):
    """Edges and degrees of a grid (or, with wrap, a torus), one vertex at a time."""

    def flatten(coords):
        idx = 0
        for c, d in zip(coords, dims):
            idx = idx * d + c
        return idx

    edges = set()
    for coords in itertools.product(*(range(d) for d in dims)):
        for axis, d in enumerate(dims):
            if wrap or coords[axis] + 1 < d:
                nb = list(coords)
                nb[axis] = (nb[axis] + 1) % d
                u, v = flatten(coords), flatten(nb)
                edges.add((min(u, v), max(u, v)))
    degrees = [0] * int(np.prod(dims))
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return [list(e) for e in sorted(edges)], degrees


def star_edge_list(n):
    return io.StringIO("".join(f"0 {i}\n" for i in range(1, n)))


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def resident_mib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise AssertionError("no VmRSS line")


class TestBuildPath:
    def test_smallest(self):
        g = gm.build_path(2)
        assert g.n == 2
        assert g.edges.tolist() == [[0, 1]]
        assert list(g.degrees) == [1, 1]

    def test_four_vertices(self):
        g = gm.build_path(4)
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert list(g.degrees) == [1, 2, 2, 1]

    def test_too_small(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValidationError):
                gm.build_path(bad)

    def test_path64_spectrum_matches_closed_form(self):
        g = gm.build_path(64)
        L = gm.laplacian(g)
        numeric = np.linalg.eigvalsh(L)
        assert np.max(np.abs(numeric - path_eigenvalues(64))) < 1e-8

    def test_closed_form_eigenvectors_satisfy_eigen_equation(self):
        # validates the closed form itself: L psi_j = lambda_j psi_j
        n = 64
        g = gm.build_path(n)
        L = gm.laplacian(g)
        i = np.arange(1, n + 1)
        for j in (0, 1, 7, 40, 63):
            psi = np.cos(np.pi * j * (2 * i - 1) / (2 * n))
            lam = 4.0 * np.sin(np.pi * j / (2 * n)) ** 2
            assert np.max(np.abs(L @ psi - lam * psi)) < 1e-10


class TestBuildGrid:
    def test_2x2_is_a_4cycle(self):
        g = gm.build_grid([2, 2])
        assert g.n == 4
        assert g.num_edges == 4
        assert set(g.degrees) == {2}

    def test_3x3_counts(self):
        g = gm.build_grid([3, 3])
        assert g.n == 9
        assert g.num_edges == 12
        assert sorted(g.degrees) == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_8x8_product_spectrum(self):
        g = gm.build_grid([8, 8])
        numeric = np.linalg.eigvalsh(gm.laplacian(g))
        expected = product_spectrum(path_eigenvalues(8), path_eigenvalues(8))
        assert np.max(np.abs(numeric - expected)) < 1e-8

    def test_row_major_flattening(self):
        g = gm.build_grid([2, 3])
        # vertex (i, j) -> 3i + j; (0,2)-(1,2) must be an edge
        assert [2, 5] in g.edges.tolist()
        assert [0, 3] in g.edges.tolist()
        assert [0, 5] not in g.edges.tolist()

    def test_invalid_dims(self):
        with pytest.raises(ValidationError):
            gm.build_grid([])
        with pytest.raises(ValidationError):
            gm.build_grid([1, 4])


class TestBuildTorus:
    def test_dims3_is_triangle(self):
        g = gm.build_torus([3])
        assert g.n == 3
        assert g.num_edges == 3
        assert set(g.degrees) == {2}

    def test_dims4_cycle_spectrum(self):
        g = gm.build_torus([4])
        numeric = np.linalg.eigvalsh(gm.laplacian(g))
        assert np.allclose(numeric, [0.0, 2.0, 2.0, 4.0], atol=1e-9)

    def test_4x4_product_spectrum(self):
        g = gm.build_torus([4, 4])
        assert set(g.degrees) == {4}
        numeric = np.linalg.eigvalsh(gm.laplacian(g))
        expected = product_spectrum(cycle_eigenvalues(4), cycle_eigenvalues(4))
        assert np.max(np.abs(numeric - expected)) < 1e-8

    def test_wrap_needs_dim_3(self):
        with pytest.raises(ValidationError):
            gm.build_torus([2, 4])


class TestSmallWorld:
    def test_no_rewiring_is_ring_lattice(self):
        g = gm.build_small_world(12, 4, 0.0, seed=5)
        assert set(g.degrees) == {4}
        assert g.num_edges == 24
        assert g.build_seed == 5

    def test_full_rewiring_preserves_edge_count(self):
        g = gm.build_small_world(20, 4, 1.0, seed=7)
        assert g.num_edges == 40
        assert int(g.degrees.sum()) == 80
        assert len({tuple(e) for e in g.edges.tolist()}) == 40  # simple

    def test_same_seed_same_edges(self):
        g1 = gm.build_small_world(50, 4, 0.3, seed=9)
        g2 = gm.build_small_world(50, 4, 0.3, seed=9)
        assert np.array_equal(g1.edges, g2.edges)

    def test_disconnected_draw_retries_with_next_seed(self):
        # (n=30, k=2, p=1, seed=1) disconnects on the first draw
        g = gm.build_small_world(30, 2, 1.0, seed=1)
        assert g.build_seed == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            gm.build_small_world(10, 3, 0.1, seed=0)  # odd k
        with pytest.raises(ValidationError):
            gm.build_small_world(10, 10, 0.1, seed=0)  # k >= n
        with pytest.raises(ValidationError):
            gm.build_small_world(10, 4, 1.5, seed=0)
        for bad in (-1, True):
            with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
                gm.build_small_world(10, 4, 0.1, seed=bad)

    def test_non_integer_n_or_k_is_named(self):
        with pytest.raises(ValidationError, match="small-world n must be an integer, got 10.7"):
            gm.build_small_world(10.7, 4, 0.1, 1)
        for k in (4.0, True):
            with pytest.raises(ValidationError, match=f"small-world k must be .*, got {k!r}"):
                gm.build_small_world(10, k, 0.1, 1)
        assert gm.build_small_world(np.int64(10), np.int64(4), 0.1, 1).n == 10

    def test_geometry_parameter_near_reported_value(self):
        # a lightly rewired ring reproduces the reported small-world r of
        # about 1.4; the exact generator parameters behind that value are
        # not pinned down, so the band is qualitative
        s = gm.eigendecompose(gm.build_small_world(1000, 4, 0.03, seed=1))
        assert 1.2 <= gm.fit_geometry(s).r_hat <= 1.6

    def test_geometry_parameter_between_path_and_grid(self):
        s = gm.eigendecompose(gm.build_small_world(1000, 4, 0.1, seed=1))
        assert 1.0 < gm.fit_geometry(s).r_hat < 2.2


def test_sizes_above_the_limits_are_refused_before_any_edge(monkeypatch):
    # a path, grid or torus may have DEFAULT_DENSE_CAP**2 vertices and a
    # small-world graph DEFAULT_DENSE_CAP; at a limit the edges are drawn
    # (refused here), just above it nothing is
    def refuse(*args, **kwargs):
        raise AssertionError("edges were drawn")

    monkeypatch.setattr(gm.graphs, "_lattice_edges", refuse)
    monkeypatch.setattr(gm.graphs, "_ws_edges", refuse)
    cap = gm.DEFAULT_DENSE_CAP
    for spec in (f"path:{cap**2}", f"grid:{cap}x{cap}", f"torus:{cap}x{cap}", f"ws:{cap},4,0.1,1"):
        with pytest.raises(AssertionError, match="edges were drawn"):
            gm.parse_graph_spec(spec)
    limit = r"vertex count must be in \[1, DEFAULT_DENSE_CAP\*\*2 = 67108864\]"
    for spec in (f"path:{cap**2 + 1}", f"grid:{cap}x{cap + 1}", "torus:100000x100000x100000"):
        with pytest.raises(ValidationError, match=limit):
            gm.parse_graph_spec(spec)
    message = r"small-world n must be in \[3, DEFAULT_DENSE_CAP = 8192\], got 8193"
    with pytest.raises(ValidationError, match=message):
        gm.parse_graph_spec(f"ws:{cap + 1},4,0.1,1")


class TestLoadEdgeList:
    def test_path_on_three_vertices(self):
        g = gm.load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_comments_blanks_and_duplicates(self):
        g = gm.load_edge_list(io.StringIO("0 1\n\n1 2\n# comment\n2 0\n0 2\n"))
        assert g.n == 3
        assert g.num_edges == 3

    def test_disconnected_names_two_vertices(self):
        with pytest.raises(ValidationError, match=r"vertices 0 and 2"):
            gm.load_edge_list(io.StringIO("0 1\n2 3\n"))

    def test_sparse_ids_rejected_before_allocation(self):
        import time
        import tracemalloc

        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ValidationError, match=r"0\.\.100000000.*id 1 appears"):
                gm.load_edge_list(io.StringIO("0 100000000\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 1 << 20

    def test_id_beyond_int64_is_a_missing_id(self):
        with pytest.raises(ValidationError, match=r"id 1 appears in no edge"):
            gm.load_edge_list(io.StringIO(f"0 {2**70}\n"))

    def test_missing_low_id_is_named(self):
        with pytest.raises(ValidationError, match=r"id 0 appears in no edge"):
            gm.load_edge_list(io.StringIO("1 2\n"))

    def test_self_loop_reports_line_number(self):
        with pytest.raises(ValidationError, match=r"line 2"):
            gm.load_edge_list(io.StringIO("0 1\n1 1\n"))

    def test_non_integer_token(self):
        with pytest.raises(ValidationError, match=r"line 1"):
            gm.load_edge_list(io.StringIO("0 x\n"))

    def test_negative_id(self):
        with pytest.raises(ValidationError):
            gm.load_edge_list(io.StringIO("-1 2\n"))

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            gm.load_edge_list(io.StringIO("# nothing\n"))


class TestLaplacian:
    def test_path2_matrix(self):
        L = gm.laplacian(gm.build_path(2))
        assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_spectrum(self):
        L = gm.laplacian(gm.build_torus([3]))
        assert np.allclose(np.linalg.eigvalsh(L), [0.0, 3.0, 3.0], atol=1e-9)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(0)
        for g in (gm.build_path(17), gm.build_grid([4, 5]), gm.build_small_world(24, 4, 0.3, 2)):
            L = gm.laplacian(g)
            for _ in range(100):
                f = rng.standard_normal(g.n)
                direct = sum((f[u] - f[v]) ** 2 for u, v in g.edges)
                assert abs(f @ L @ f - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_row_sums_and_null_space(self):
        for g in (gm.build_path(16), gm.build_grid([4, 4]), gm.build_torus([5]),
                  gm.build_small_world(24, 4, 0.3, 2)):
            L = gm.laplacian(g)
            assert np.array_equal(L, L.T)
            assert np.max(np.abs(L.sum(axis=1))) == 0.0
            assert np.max(np.abs(L @ np.ones(g.n))) == 0.0
            lams = np.linalg.eigvalsh(L)
            assert abs(lams[0]) < 1e-9
            assert lams[1] > 1e-9  # connected: zero is simple

    def test_dense_cap(self):
        g = gm.build_path(gm.DEFAULT_DENSE_CAP + 1)
        message = r"dense Laplacian's n must be in \[1, DEFAULT_DENSE_CAP = 8192\], got 8193"
        with pytest.raises(ValidationError, match=message):
            gm.laplacian(g)

    def test_equals_the_zero_array_construction(self):
        star = gm.load_edge_list(star_edge_list(300))
        for g in (gm.build_path(2), star, gm.build_small_world(2048, 6, 0.1, 1)):
            want = np.zeros((g.n, g.n))
            u, v = g.edges.T
            want[u, v] = want[v, u] = -1.0
            want[np.diag_indices(g.n)] = g.degrees
            L = gm.laplacian(g)
            assert L.dtype == np.float64 and L.shape == (g.n, g.n)
            assert L.flags.c_contiguous and L.flags.writeable
            assert np.array_equal(L, want)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS there")
    def test_only_written_pages_are_resident_and_freed(self):
        # n^2 * 8 bytes = 32 MiB; the pages holding an edge or a degree are about 10.4 MiB
        g = gm.build_small_world(2048, 6, 0.1, 1)
        before = resident_mib()
        L = gm.laplacian(g)
        assert L.max() == g.degrees.max()  # reads every page, as eigvalsh's copy does
        assert resident_mib() - before < 16.0
        del L
        assert resident_mib() - before < 2.0

    def test_cold_edge_list_fit_and_simulate_skip_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma (numpy 2.4), about 1 MiB and 12-16 ms per cold run
        edges = tmp_path / "ws.txt"
        g = gm.build_small_world(256, 6, 0.1, 1)
        edges.write_text("".join(f"{u} {v}\n" for u, v in g.edges.tolist()))
        code = (
            "import contextlib, io, sys\n"
            "from graphminimax import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        for argv in (
            ["fit-r", "--graph", f"file:{edges}"],
            ["simulate", "--family", "path", "--n-list", "64,128", "--beta", "1", "--sigma", "1",
             "--estimator", "pinsker", "--reps", "2", "--seed", "1",
             "--out-prefix", str(tmp_path / "mc")],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, (argv[0], proc.stderr)


class TestEdgeArrays:
    BUILT = [
        (lambda: gm.build_path(7), [7], False),
        (lambda: gm.build_grid([5, 7]), [5, 7], False),
        (lambda: gm.build_grid([3, 4, 5]), [3, 4, 5], False),
        (lambda: gm.build_torus([3, 3]), [3, 3], True),
        (lambda: gm.build_torus([5]), [5], True),
        (lambda: gm.build_torus([4, 70]), [4, 70], True),
    ]

    def test_builders_match_a_loop_reference(self):
        for build, dims, wrap in self.BUILT:
            g = build()
            edges, degrees = reference_lattice(dims, wrap)
            assert g.edges.tolist() == edges, dims
            assert g.degrees.tolist() == degrees, dims

    def test_edges_are_a_read_only_int64_array(self):
        graphs = [build() for build, _, _ in self.BUILT] + [
            gm.build_small_world(24, 4, 0.3, 2),
            gm.load_edge_list(io.StringIO("0 1\n2 1\n0 2\n")),
        ]
        for g in graphs:
            assert g.edges.dtype == np.int64
            assert g.edges.shape == (g.num_edges, 2)
            with pytest.raises(ValueError):
                g.edges[0, 0] = 1

    def test_shaped_builders_run_no_bfs(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError("a lattice is connected by construction")

        monkeypatch.setattr(gm.graphs, "_connectivity_witness", refuse)
        for build, _, _ in self.BUILT:
            build()
        gm.parse_graph_spec("torus:3x4")

    def test_a_shape_cannot_be_passed(self):
        # only the lattice builders set a shape: a disconnected C4 + K2 cannot
        # claim the 6-path's, nor a 3x8 torus the 4x6 torus's
        edges = np.array([[0, 1], [0, 3], [1, 2], [2, 3], [4, 5]])
        with pytest.raises(TypeError, match="shape"):
            gm.Graph(n=6, edges=edges, degrees=np.bincount(edges.ravel()), shape=("grid", (6,)))
        torus = gm.build_torus([3, 8])
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(torus, shape=("torus", (4, 6)))

    def test_one_bfs_per_draw(self, monkeypatch):
        calls = []
        witness = gm.graphs._connectivity_witness

        def counted(n, edges):
            calls.append(n)
            return witness(n, edges)

        monkeypatch.setattr(gm.graphs, "_connectivity_witness", counted)
        # (n=30, k=2, p=1, seed=1) disconnects on the first draw
        assert gm.build_small_world(30, 2, 1.0, seed=1).build_seed == 2
        assert calls == [30, 30]
        gm.load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert calls == [30, 30, 3]

    def test_star_edge_list_loads_in_bounded_memory(self):
        import tracemalloc

        lines = star_edge_list(200_000)
        tracemalloc.start()
        try:
            g = gm.load_edge_list(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.degrees[0] == 199_999
        # a neighbour table padded to the largest degree would need n^2 entries
        assert peak < 132 << 20


class TestApplyLaplacian:
    def test_matches_the_dense_laplacian(self):
        rng = np.random.default_rng(4)
        graphs = (
            gm.build_path(17),
            gm.build_grid([4, 5]),
            gm.build_torus([3, 4]),
            gm.build_small_world(24, 4, 0.3, 2),
            gm.load_edge_list(star_edge_list(9)),
        )
        for g in graphs:
            L = gm.laplacian(g)
            for X in (rng.standard_normal(g.n), rng.standard_normal((g.n, 3))):
                assert np.max(np.abs(gm.apply_laplacian(g, X) - L @ X)) <= 1e-12

    def test_star_costs_its_edges_not_its_degree(self):
        # the cost follows the m = n - 1 edges, not n times the hub's degree
        # (an n x D int64 table is 128 MiB here), and a leaf's row is one
        # exact subtraction
        g = gm.load_edge_list(star_edge_list(4096))
        X = np.random.default_rng(5).standard_normal((g.n, 4))
        tracemalloc.start()
        try:
            got = gm.apply_laplacian(g, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert np.array_equal(got[1:], X[1:] - X[0])
        hub = (g.n - 1) * X[0] - X[1:].sum(axis=0)
        assert np.max(np.abs(got[0] - hub)) <= 1e-12 * np.abs(X).sum()

    @pytest.mark.parametrize("spec", ["ws:2048,6,0.1,1", "star", "grid:48x48"])
    def test_is_the_sorted_half_edge_form_bit_for_bit(self, spec):
        # the neighbour sum over the edges in input order against the one
        # over both directions sorted stably by source, as apply_laplacian
        # once wrote it: np.bincount adds each vertex's terms in input order
        # either way
        g = gm.load_edge_list(star_edge_list(2000)) if spec == "star" else gm.parse_graph_spec(spec)
        X = np.random.default_rng(8).standard_normal((g.n, 3))
        src, dst = np.concatenate([g.edges, g.edges[:, ::-1]]).T
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        want = np.empty(X.shape, order="F")
        for j, x in enumerate(X.T):
            want[:, j] = g.degrees * x - np.bincount(src, weights=x[dst], minlength=g.n)
        got = gm.apply_laplacian(g, X)
        assert got.tobytes(order="A") == want.tobytes(order="A") and got.flags.f_contiguous
        assert gm.apply_laplacian(g, X[:, 1]).tobytes() == want[:, 1].tobytes()

    def test_rejects_a_wrong_row_count(self):
        # a scalar has no rows, and a third axis is neither (n,) nor (n, k)
        for X in (np.ones((6, 2)), 1.0, np.ones((5, 2, 1))):
            with pytest.raises(ValidationError, match=r"X has shape \(.*\), expected n=5"):
                gm.apply_laplacian(gm.build_path(5), X)


class TestParseGraphSpec:
    def test_each_family_records_its_shape(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        cases = {
            "path:5": (5, ("grid", (5,))),
            "grid:3x4": (12, ("grid", (3, 4))),
            "torus:3x4x5": (60, ("torus", (3, 4, 5))),
            "ws:20,4,0.1,3": (20, None),
            f"file:{edges}": (3, None),
        }
        for text, (n, shape) in cases.items():
            g = gm.parse_graph_spec(text)
            assert (g.n, g.shape) == (n, shape), text

    def test_same_graph_as_the_builders(self):
        assert np.array_equal(gm.parse_graph_spec("grid:3x4").edges, gm.build_grid([3, 4]).edges)
        g = gm.parse_graph_spec("ws:20,4,0.1,3")
        assert np.array_equal(g.edges, gm.build_small_world(20, 4, 0.1, 3).edges)

    def test_bad_specs(self):
        for text in ("path", "path:", "path:one", "grid:3xa", "ws:20,4,0.1", "ws:20,4,p,3",
                     "file:", "blob:4"):
            with pytest.raises(ValidationError):
                gm.parse_graph_spec(text)
