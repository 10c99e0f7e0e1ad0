import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphminimax as gm
from graphminimax.errors import NumericError, ValidationError
from graphminimax.spectral import Spectrum, _cycle_vectors, _path_vectors


def synthetic_spectrum(lams):
    """Spectrum with the identity-like basis sqrt(n) * I (orthonormal in <.,.>_n)."""
    lams = np.asarray(lams, dtype=float)
    n = len(lams)
    return Spectrum(n=n, lambdas=lams, basis=np.sqrt(n) * np.eye(n))


class TestEigendecompose:
    def test_path2_by_hand(self):
        s = gm.eigendecompose(gm.build_path(2))
        assert np.allclose(s.lambdas, [0.0, 2.0], atol=1e-12)
        assert np.allclose(s.basis[:, 0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(s.basis[:, 1], [1.0, -1.0], atol=1e-12)

    def test_path64_matches_closed_form(self):
        # the shape-free copy gets the dense eigh, not the closed form
        dense = gm.eigendecompose(dataclasses.replace(gm.build_path(64)))
        cf = gm.path_spectrum_closed_form(64)
        assert np.max(np.abs(dense.lambdas - cf.lambdas)) < 1e-8
        assert np.max(np.abs(dense.basis - cf.basis)) < 1e-8

    def test_closed_form_agreement_across_sizes(self):
        for n in (16, 64, 256):
            s = gm.eigendecompose(dataclasses.replace(gm.build_path(n)))
            cf = gm.path_spectrum_closed_form(n)
            assert np.max(np.abs(s.lambdas - cf.lambdas)) < 1e-8

    def test_grid88_eigenvalues_are_pairwise_sums(self, grid8_eig):
        cf = gm.path_spectrum_closed_form(8)
        expected = np.sort(np.add.outer(cf.lambdas, cf.lambdas).ravel())
        assert np.max(np.abs(grid8_eig.lambdas - expected)) < 1e-8

    def test_orthonormality(self, path64_eig, grid8_eig):
        for s in (path64_eig, grid8_eig):
            gram = s.basis.T @ s.basis / s.n
            assert np.max(np.abs(gram - np.eye(s.n))) < 1e-9

    def test_eigen_residuals(self, path64_eig, grid8_eig):
        for s, g in ((path64_eig, gm.build_path(64)), (grid8_eig, gm.build_grid([8, 8]))):
            L = gm.laplacian(g)
            resid = np.linalg.norm(L @ s.basis - s.basis * s.lambdas, axis=0)
            assert np.max(resid / np.maximum(1.0, s.lambdas)) < 1e-8

    def test_sign_convention(self, path64_eig):
        for j in range(64):
            col = path64_eig.basis[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_deterministic(self):
        g = gm.build_grid([5, 5])
        s1, s2 = gm.eigendecompose(g), gm.eigendecompose(g)
        assert np.array_equal(s1.lambdas, s2.lambdas)
        assert np.array_equal(s1.basis, s2.basis)

    def test_degenerate_eigenspaces_match_as_projectors(self):
        # the 4x4 torus has repeated eigenvalues, so individual vectors are
        # basis-dependent; eigenspace projectors are not
        g = gm.build_torus([4, 4])
        assert_matches_eigh_oracle(gm.eigendecompose(g), g)

    @pytest.mark.parametrize(
        "graph",
        [gm.build_small_world(128, 4, 0.1, seed=1), dataclasses.replace(gm.build_path(96))],
        ids=["ws128", "path96-shapeless"],
    )
    def test_eigh_basis_passes_one_gram_check(self, graph, monkeypatch):
        # Parseval's premise is checked once, on the whole n x n eigh basis
        from graphminimax import spectral

        seen = []
        check = spectral._check_orthonormal
        monkeypatch.setattr(
            spectral, "_check_orthonormal", lambda v, what: seen.append((v, what)) or check(v, what)
        )
        s = gm.eigendecompose(graph)
        assert len(seen) == 1 and np.array_equal(seen[0][0], s.basis)
        assert seen[0][1] == f"the eigenbasis of {graph.n} vertices"
        gram = s.basis.T @ s.basis / s.n
        assert np.abs(gram - np.eye(s.n)).max() <= 1e-10

    def test_lattice_checks_its_axis_factors_only(self, monkeypatch):
        # a grid makes no n x n basis: its per-axis factors pass the check when
        # a head is grown from them
        from graphminimax import spectral

        seen = []
        check = spectral._check_orthonormal
        monkeypatch.setattr(
            spectral, "_check_orthonormal", lambda v, what: seen.append((v.shape, what)) or check(v, what)
        )
        s = gm.eigendecompose(gm.build_grid([16, 16]))
        assert seen == []
        gm.head_basis(s, 20)
        assert seen and all(shape[0] == 16 and "axis basis" in what for shape, what in seen)

def assert_matches_eigh_oracle(s, g):
    lams, vecs = np.linalg.eigh(gm.laplacian(g))
    vecs = vecs * np.sqrt(g.n)
    assert np.max(np.abs(s.lambdas - lams)) < 1e-10
    # eigenvalues within 1e-6 of each other form one eigenspace; compare the
    # projectors onto each, which do not depend on the basis chosen inside it
    for sel in np.split(np.arange(g.n), np.flatnonzero(np.diff(lams) > 1e-6) + 1):
        p_s = s.basis[:, sel] @ s.basis[:, sel].T / g.n
        p_o = vecs[:, sel] @ vecs[:, sel].T / g.n
        assert np.max(np.abs(p_s - p_o)) < 1e-8


def regression_estimate(g):
    """A Pinsker estimate on a fresh spectrum of g, with N >= 3 columns (sigma = 0.1)."""
    s = gm.eigendecompose(g)
    ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=float(len(g.shape[1])))
    plan = gm.pinsker_plan(gm.ellipsoid_weights(s, ball), 0.1, s.n)
    assert plan.N >= 3
    return gm.estimate_regression(s, plan, np.ones(s.n))


SHAPED_SPECS = [
    "path:40", "grid:5x7", "grid:3x4x5", "grid:16x16",
    "torus:3x3", "torus:4", "torus:5x6", "torus:3x4x5", "torus:16x16",
]


class TestClosedFormEigendecompose:
    @pytest.mark.parametrize("spec", SHAPED_SPECS)
    def test_matches_dense_oracle(self, spec):
        g = gm.parse_graph_spec(spec)
        s = gm.eigendecompose(g)
        assert_matches_eigh_oracle(s, g)
        assert np.array_equal(s.lambdas, gm.eigenvalues(g).lambdas)
        firsts = np.argmax(np.abs(s.basis) > 1e-12, axis=0)
        assert np.all(s.basis[firsts, np.arange(g.n)] > 0.0)
        assert not s.lambdas.flags.writeable and not s.basis.flags.writeable
        # column-major, so every head basis[:, :k] is one contiguous block
        assert s.basis.flags.f_contiguous

    def test_fixed_product_basis_inside_repeated_eigenvalues(self):
        # column k is the Kronecker product of the per-axis vectors at the
        # k-th entry of a stable sort of the Kronecker-sum eigenvalues
        p4 = gm.path_spectrum_closed_form(4)
        sums = np.add.outer(p4.lambdas, p4.lambdas).ravel()
        expected = np.column_stack([
            np.kron(p4.basis[:, k // 4], p4.basis[:, k % 4])
            for k in np.argsort(sums, kind="stable")
        ])
        assert np.array_equal(gm.eigendecompose(gm.build_grid([4, 4])).basis, expected)

    def test_shaped_graphs_solve_no_eigenproblem(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Laplacian or eigh was used")

        monkeypatch.setattr(gm.spectral, "laplacian", refuse)
        monkeypatch.setattr(gm.graphs, "laplacian", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for spec in SHAPED_SPECS:
            g = gm.parse_graph_spec(spec)
            assert gm.eigendecompose(g).basis.shape == (g.n, g.n)

    def test_cap_is_checked_before_allocation(self):
        # a full basis above DEFAULT_DENSE_CAP, and a head above its square
        # in values, fail at once, before any n x k array exists; the full
        # basis is the head of k = n columns and meets the same limit
        s = gm.eigendecompose(gm.build_path(10000))
        assert s.n > gm.DEFAULT_DENSE_CAP
        too_many = gm.DEFAULT_DENSE_CAP**2 // s.n + 1
        tracemalloc.start()
        try:
            limit = r"must be in \[1, DEFAULT_DENSE_CAP\*\*2 = 67108864\], got "
            with pytest.raises(ValidationError, match=r"n\*k of a head of k=10000 .* " + limit):
                s.basis
            with pytest.raises(ValidationError, match=r"n\*k of a head .* " + limit):
                gm.head_basis(s, too_many)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert s._factors is None

    def test_wrong_shape_fails_the_residual_check(self, monkeypatch):
        # a 4-regular graph on 24 vertices has the moments of any other: a
        # 3x8 torus cannot be labelled 4x6, and one forged past the dataclass
        # passes the moments but not the residuals of its expanded head
        g = gm.build_torus([3, 8])
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(g, shape=("torus", (4, 6)))
        wrong = dataclasses.replace(g)
        object.__setattr__(wrong, "shape", ("torus", (4, 6)))
        with pytest.raises(NumericError, match="residual"):
            gm.head_basis(gm.eigendecompose(wrong), g.n)
        regression_estimate(g)
        # a corrupted order pairs columns with the wrong eigenvalues but keeps
        # the eigenvalue multiset and every axis vector: only the residuals
        # of the expanded head show it
        kronecker_sum = gm.spectral._kronecker_sum

        def swapped(g):
            raw = kronecker_sum(g)
            raw[[1, 2]] = raw[[2, 1]]
            return raw

        monkeypatch.setattr(gm.spectral, "_kronecker_sum", swapped)
        s = gm.eigendecompose(gm.build_torus([4, 6]))
        with pytest.raises(NumericError, match="residual"):
            gm.head_basis(s, 4)
        with pytest.raises(NumericError, match="residual"):
            s.basis

    def test_wrong_eigenvalues_fail_the_moment_check(self, monkeypatch):
        kronecker_sum = gm.spectral._kronecker_sum
        monkeypatch.setattr(
            gm.spectral, "_kronecker_sum", lambda g: kronecker_sum(g) * (1.0 + 1e-8)
        )
        with pytest.raises(NumericError, match="moment 1"):
            gm.eigendecompose(gm.build_grid([5, 7]))
        monkeypatch.undo()
        g = gm.build_small_world(64, 4, 0.2, seed=1)
        lams, vecs = np.linalg.eigh(gm.laplacian(g))
        monkeypatch.setattr(np.linalg, "eigh", lambda L: (lams * (1.0 + 1e-8), vecs))
        with pytest.raises(NumericError, match="moment 1"):
            gm.eigendecompose(g)

    def test_wrong_axis_vectors_are_caught(self, monkeypatch):
        cycle = gm.spectral._cycle_vectors

        def wrong_frequency(d, js):
            rows = cycle(d, np.arange(d))
            rows[[1, 2]] = rows[[2, 1]]  # eigenvectors paired with the wrong eigenvalues
            return rows[js]

        def repeated_vector(d, js):
            rows = cycle(d, np.arange(d))
            rows[d - 1] = rows[1]  # an eigenvector, but a copy of another one
            return rows[js]

        g = gm.build_torus([5, 6])
        monkeypatch.setattr(gm.spectral, "_cycle_vectors", wrong_frequency)
        with pytest.raises(NumericError, match="residual"):
            gm.head_basis(gm.eigendecompose(g), 8)
        with pytest.raises(NumericError, match="residual"):
            gm.eigendecompose(g).basis
        with pytest.raises(NumericError, match=r"torus axis of side \d: eigenvector residual"):
            regression_estimate(g)
        monkeypatch.setattr(gm.spectral, "_cycle_vectors", repeated_vector)
        with pytest.raises(NumericError, match="not orthonormal"):
            gm.head_basis(gm.eigendecompose(g), g.n)
        with pytest.raises(NumericError, match="not orthonormal"):
            gm.eigendecompose(g).basis
        with pytest.raises(NumericError, match=r"torus axis basis of side \d is not orthonormal"):
            regression_estimate(g)

    def test_solver_output_is_residual_checked(self, monkeypatch):
        g = gm.build_small_world(64, 4, 0.2, seed=1)
        lams, vecs = np.linalg.eigh(gm.laplacian(g))
        swapped = vecs[:, [0, 2, 1] + list(range(3, g.n))]
        monkeypatch.setattr(np.linalg, "eigh", lambda L: (lams, swapped))
        with pytest.raises(NumericError, match="residual"):
            gm.eigendecompose(g)

    def test_edge_residual_matches_dense_product(self):
        # uneven degrees (a hub and a tail), and n = 280 more than one
        # column chunk
        lines = [f"0 {v}" for v in range(1, 9)] + [f"{v} {v + 1}" for v in range(8, 20)]
        rng = np.random.default_rng(3)
        for g in (gm.load_edge_list(lines), gm.build_grid([3, 5]), gm.build_torus([4, 70])):
            basis = np.asfortranarray(rng.standard_normal((g.n, g.n)))
            lams = np.sort(rng.uniform(0.0, 5.0, g.n))
            dense = gm.laplacian(g) @ basis - basis * lams
            want = np.max(np.linalg.norm(dense, axis=0) / np.maximum(1.0, lams))
            got = gm.spectral._worst_residual(g, lams, basis)
            assert got == pytest.approx(want, rel=1e-12)


def reference_basis(g):
    """All n product columns of a shaped graph at once, from the full per-axis factors."""
    kind, dims = g.shape
    axis = gm.spectral._path_vectors if kind == "grid" else gm.spectral._cycle_vectors
    factors = [axis(side, np.arange(side)) for side in dims]
    columns = []
    for k in np.argsort(gm.spectral._kronecker_sum(g), kind="stable"):
        col = np.ones(1)
        for f, i in zip(factors, np.unravel_index(k, dims)):
            col = np.kron(col, f[i])
        columns.append(col)
    return np.column_stack(columns)


class TestHeadBasis:
    @pytest.mark.parametrize("spec", SHAPED_SPECS)
    def test_head_is_the_basis_prefix(self, spec):
        g = gm.parse_graph_spec(spec)
        full = reference_basis(g)
        s = gm.eigendecompose(g)
        ties = np.flatnonzero(np.diff(s.lambdas) < 1e-9)
        split = int(ties[0]) + 1 if ties.size else 2  # cuts an eigenvalue cluster
        N = gm.fano.packing_dimension(g.n, gm.SobolevSpec(beta=1.0, Q=1.0, r=len(g.shape[1])))
        for k in (1, split, N, g.n):
            head = gm.head_basis(gm.eigendecompose(g), k)
            assert np.array_equal(head, full[:, :k])
            assert head.flags.f_contiguous and not head.flags.writeable
        # every expansion on one spectrum, at growing and shrinking k
        small = gm.head_basis(s, split)
        assert np.array_equal(gm.head_basis(s, N), full[:, :N])
        assert np.array_equal(small, full[:, :split])
        assert np.array_equal(s.basis, full)
        assert s.basis.flags.f_contiguous and not s.basis.flags.writeable

    def test_every_expansion_checks_its_columns(self, monkeypatch):
        # no head is kept, so every call expands and checks all k columns
        s = gm.eigendecompose(gm.build_grid([16, 16]))
        checked = []
        residual = gm.spectral._worst_residual

        def counting(g, lams, basis):
            checked.append(basis.shape[1])
            return residual(g, lams, basis)

        monkeypatch.setattr(gm.spectral, "_worst_residual", counting)
        gm.head_basis(s, 10)
        gm.head_basis(s, 7)
        gm.head_basis(s, 30)
        s.basis
        assert checked == [10, 7, 30, 256]

    def test_dense_spectra_are_sliced(self):
        g = gm.build_small_world(64, 4, 0.2, seed=1)
        s = gm.eigendecompose(g)
        assert np.array_equal(gm.head_basis(s, 5), s.basis[:, :5])
        # eigh's basis is the spectrum's single factor; its prefixes keep no index copy
        assert np.shares_memory(gm.spectral._axis_factors(s, 5).flat, s._factors.at[0])
        synth = synthetic_spectrum(np.arange(6.0))
        assert np.array_equal(gm.head_basis(synth, 3), synth.basis[:, :3])
        for k in (0, 7):
            with pytest.raises(ValidationError, match=rf"count k must be in \[1, 6\], got {k}"):
                gm.head_basis(synth, k)

    def test_column_count_must_be_an_integer(self):
        s = gm.eigendecompose(gm.build_path(8))
        assert np.array_equal(gm.head_basis(s, np.int64(3)), gm.head_basis(s, 3))
        for k in (3.0, True, np.bool_(True), "3", None):
            with pytest.raises(ValidationError, match=re.escape(f"must be an integer, got {k!r}")):
                gm.head_basis(s, k)

    def test_replace_without_basis_keeps_eigenvalues_only(self):
        # replace() reads the fields, not the basis property: on a lazy path
        # above the dense cap it neither builds a column nor raises
        s = gm.eigendecompose(gm.build_path(10000))
        tracemalloc.start()
        try:
            copy = dataclasses.replace(s, lambdas=s.lambdas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert copy.n == s.n and np.array_equal(copy.lambdas, s.lambdas)
        assert copy.basis is None and s._factors is None
        with pytest.raises(ValidationError, match="eigenvalues only"):
            gm.head_basis(copy, 1)

    def test_constructor_rejects_bad_shapes(self):
        lams = np.arange(6.0)
        for kwargs in (
            dict(n=6, lambdas=lams[:5]),
            dict(n=6, lambdas=lams.reshape(2, 3)),
            dict(n=6, lambdas=lams, basis=np.eye(4)),
            dict(n=6, lambdas=lams, basis=np.ones(6)),
            dict(n=6, lambdas=lams, basis=np.ones((6, 0))),
            dict(n=6, lambdas=lams, basis=np.ones((6, 3))),
            dict(n=6, lambdas=lams, basis=np.ones((6, 7))),
        ):
            with pytest.raises(ValidationError, match="n=6"):
                Spectrum(**kwargs)

    @pytest.mark.parametrize(
        "n, lambdas", [(3.0, np.arange(3.0)), (True, np.zeros(1))], ids=["float", "bool"]
    )
    def test_constructor_rejects_a_non_integer_n(self, n, lambdas):
        with pytest.raises(ValidationError, match=f"vertex count n must be an integer, got {n!r}"):
            Spectrum(n=n, lambdas=lambdas)

    def test_large_grid_head_builds_no_dense_array(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Laplacian or eigh was used")

        monkeypatch.setattr(gm.spectral, "laplacian", refuse)
        monkeypatch.setattr(gm.graphs, "laplacian", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        s = gm.eigendecompose(gm.build_grid([128, 128]))  # n = 16384, n^2 doubles = 2 GiB
        k = 64
        tracemalloc.start()
        try:
            head = gm.head_basis(s, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert head.shape == (s.n, k)
        assert peak < 6 * s.n * k * 8
        assert np.array_equal(gm.head_basis(s, k), head)


def cluster_split(s):
    """A column count that cuts an eigenvalue cluster (2 when there is none)."""
    ties = np.flatnonzero(np.diff(s.lambdas) < 1e-9)
    return int(ties[0]) + 1 if ties.size else 2


# Every grid with sides 2-9 and torus with sides 3-9 on one or two axes, and
# the three-axis ones with sides up to 5.
SMALL_LATTICES = [
    (kind, dims)
    for kind, low in (("grid", 2), ("torus", 3))
    for axes, high in ((1, 9), (2, 9), (3, 5))
    for dims in itertools.product(range(low, high + 1), repeat=axes)
]


class TestAxisFactors:
    @pytest.mark.parametrize("spec", SHAPED_SPECS)
    def test_transforms_match_the_explicit_head(self, spec, refuse_product_rows):
        # each k on a spectrum grown to exactly k columns, and as a prefix of
        # one grown to all n; no n x k product head is formed
        g = gm.parse_graph_spec(spec)
        full = reference_basis(g)
        grown = gm.eigendecompose(g)
        gm.spectral._axis_factors(grown, g.n)
        N = gm.fano.packing_dimension(g.n, gm.SobolevSpec(beta=1.0, Q=1.0, r=len(g.shape[1])))
        rng = np.random.default_rng(0)
        for k in (1, cluster_split(grown), N, g.n):
            head = full[:, :k]
            y, c, rows = (rng.standard_normal(shape) for shape in (g.n, k, (3, k)))
            for s in (gm.eigendecompose(g), grown):
                factors = gm.spectral._axis_factors(s, k)
                for got, want in (
                    (factors.analyze(y), head.T @ y),
                    (factors.synthesize(c), head @ c),
                    (factors.synthesize(rows), rows @ head.T),
                ):
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", SHAPED_SPECS)
    def test_gft_and_sup_norm_form_no_head(self, spec, refuse_product_rows):
        g = gm.parse_graph_spec(spec)
        full = reference_basis(g)
        s = gm.eigendecompose(g)
        f = np.random.default_rng(1).standard_normal(g.n)
        want = full.T @ f / g.n
        coeffs = gm.gft_forward(s, f)
        assert np.max(np.abs(coeffs - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(gm.gft_inverse(s, coeffs) - f)) <= 1e-12 * np.max(np.abs(f))
        # the product of the per-axis maxima rounds as the largest product entry
        assert gm.sup_norm_bound(s) == np.abs(full).max()
        assert sum(v.size for v in s._factors.vectors) == sum(d * d for d in g.shape[1])

    def test_path_factor_is_its_head(self):
        s = gm.eigendecompose(gm.build_path(64))
        factors = gm.spectral._axis_factors(s, 10)
        assert factors.vectors[0] is gm.head_basis(s, 10)
        assert np.array_equal(factors.at[0], np.arange(10))
        assert factors.flat is factors.at[0]
        assert [v.shape for v in s._factors.vectors] == [(64, 10)]

    @pytest.mark.parametrize("spec", ["path:2048", "ws:512,6,0.1,1"])
    def test_one_axis_transforms_are_the_head_products_bit_for_bit(self, spec):
        # a path's factor and eigh's basis take the per-axis products too;
        # on one axis they are the head's own products
        s = gm.eigendecompose(gm.parse_graph_spec(spec))
        rng = np.random.default_rng(5)
        y = rng.standard_normal(s.n)
        for k in (1, 14, 100, s.n):
            factors = gm.spectral._axis_factors(s, k)
            head = gm.head_basis(s, k)
            c, rows = rng.standard_normal(k), rng.standard_normal((3, k))
            for got, want in (
                (factors.analyze(y), head.T @ y),
                (factors.synthesize(c), head @ c),
                (factors.synthesize(rows), rows @ head.T),
            ):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_each_growth_checks_whole_factors(self, monkeypatch):
        g = gm.build_grid([16, 16])
        s = gm.eigendecompose(g)
        checked = []
        check = gm.spectral._check_axis_vectors

        def counting(kind, vectors, js, axes, n):
            checked.append(vectors.shape[1])
            return check(kind, vectors, js, axes, n)

        monkeypatch.setattr(gm.spectral, "_check_axis_vectors", counting)
        first = gm.spectral._axis_factors(s, 10)
        assert gm.spectral._axis_factors(s, 7).vectors[0].base is first.vectors[0].base
        grown = gm.spectral._axis_factors(s, 30)
        # the first 10 columns use axis vectors 0..2 on the first axis and
        # 0..3 on the second (column 9 is (0, 3)); the first 30 use 0..5 on both
        assert checked == [3, 4, 6, 6]
        assert [v.shape for v in s._factors.vectors] == [(16, 6), (16, 6)]
        straight = gm.spectral._axis_factors(gm.eigendecompose(g), 30)
        assert checked == [3, 4, 6, 6, 6, 6]
        for a, b in zip(grown.vectors + grown.at, straight.vectors + straight.at):
            assert a.flags.f_contiguous == b.flags.f_contiguous
            assert a.tobytes("A") == b.tobytes("A")


    @pytest.mark.parametrize(
        "shapes",
        [SMALL_LATTICES, [("grid", (48, 48))], [("torus", (16, 64))], [("grid", (1024, 1024))]],
        ids=["small", "grid:48x48", "torus:16x64", "grid:1024x1024"],
    )
    def test_axis_order_is_the_first_use_order_bit_for_bit(self, shapes):
        # Reference: each axis's indices in the order the columns first use
        # them, found by np.unique's first indices, and each column's
        # position there.  The fixed per-axis order (a stable sort of the
        # axis's eigenvalues) must give the same factors and at arrays.
        for kind, dims in shapes:
            g = (gm.build_grid if kind == "grid" else gm.build_torus)(list(dims))
            raw = gm.spectral._kronecker_sum(g)
            order = np.argsort(raw, kind="stable")
            assert gm.eigenvalues(g).lambdas.tobytes() == raw[order].tobytes()
            s = gm.eigendecompose(g)
            axis_vectors = _path_vectors if kind == "grid" else _cycle_vectors
            n = g.n
            ks = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, n // 3, n // 2, n - 1, n)
            for k in sorted({k for k in ks if 1 <= k <= n}):
                factors = gm.spectral._grown_factors(s, k)
                axis_index = np.unravel_index(order[:k], dims)
                for side, used, v, at in zip(dims, axis_index, factors.vectors, factors.at):
                    js, first = np.unique(used, return_index=True)
                    js = js[np.argsort(first)]
                    position = np.empty(side, dtype=np.int64)
                    position[js] = np.arange(len(js))
                    want = axis_vectors(side, js).T
                    assert v.shape == want.shape
                    assert v.tobytes() == want.tobytes()
                    assert np.array_equal(at, position[used])

    def test_prefix_views_stay_bounded(self):
        # a projection at every cutoff of grid 48^2 keeps only the last few
        # prefix views, not one index copy per column count
        s = gm.eigendecompose(gm.build_grid([48, 48]))
        y = np.random.default_rng(0).standard_normal(s.n)
        gm.projection_estimate(s, y, s.n)
        tracemalloc.start()
        try:
            for m in range(1, s.n + 1):
                gm.projection_estimate(s, y, m)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        views = gm.spectral._PREFIX_VIEWS
        assert list(s._factors._prefixes) == list(range(s.n - views, s.n))


def test_array_dataclasses_compare_and_hash_by_identity():
    ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)

    def spectrum():
        return gm.eigenvalues(gm.build_path(8))

    def plan():
        return gm.pinsker_plan(gm.ellipsoid_weights(spectrum(), ball), 1.0, 8)

    for make in (
        lambda: gm.build_path(8),
        spectrum,
        lambda: gm.eigendecompose(gm.build_grid([3, 3])),
        lambda: gm.ellipsoid_weights(spectrum(), ball),
        plan,
        lambda: gm.vg_packing(8, seed=0),
    ):
        a, b = make(), make()
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2


class TestEigenvalues:
    def test_matches_eigendecompose_on_small_world(self):
        g = gm.build_small_world(200, 6, 0.2, seed=4)
        s = gm.eigenvalues(g)
        assert s.basis is None and s.n == g.n
        assert s.lambdas[0] == 0.0
        assert np.max(np.abs(s.lambdas - gm.eigendecompose(g).lambdas)) < 1e-10

    def test_closed_form_families_match_solver(self):
        # closed forms read from the graph's shape against a dense solve of its
        # Laplacian; side 3 is the smallest torus
        for g in (
            gm.build_path(64),
            gm.build_grid([8, 8]),
            gm.build_grid([5, 5]),
            gm.build_grid([4, 4, 4]),
            gm.build_torus([3, 3]),
            gm.build_torus([8, 8]),
        ):
            closed = gm.eigenvalues(g)
            assert closed.basis is None and closed.lambdas[0] == 0.0
            assert not closed.lambdas.flags.writeable
            oracle = np.linalg.eigvalsh(gm.laplacian(g))
            assert np.max(np.abs(closed.lambdas - oracle)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        torus=st.booleans(),
        dims=st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=3),
    )
    def test_closed_form_matches_solver_on_any_dims(self, torus, dims):
        if torus:
            dims = [max(d, 3) for d in dims]
        g = gm.build_torus(dims) if torus else gm.build_grid(dims)
        assert g.shape == ("torus" if torus else "grid", tuple(dims))
        oracle = np.linalg.eigvalsh(gm.laplacian(g))
        assert np.max(np.abs(gm.eigenvalues(g).lambdas - oracle)) < 1e-10

    def test_moment_check_rejects_wrong_eigenvalues(self, monkeypatch):
        g = gm.build_small_world(16, 4, 0.2, seed=1)
        exact = np.linalg.eigvalsh(gm.laplacian(g))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda L: exact * (1.0 + 1e-8))
        with pytest.raises(NumericError, match="moment 1"):
            gm.eigenvalues(g)

    @staticmethod
    def _assert_rejects_wrong_shape(solve):
        # a shape forged past the dataclass: the moments alone refuse each one
        g = gm.build_grid([4, 4])
        for shape in (("torus", (4, 4)), ("grid", (2, 8)), ("grid", (16,)), ("grid", (5, 5))):
            forged = dataclasses.replace(g)
            object.__setattr__(forged, "shape", shape)
            with pytest.raises(NumericError, match="moment"):
                solve(forged)

    def test_moment_check_rejects_wrong_shape(self):
        self._assert_rejects_wrong_shape(gm.eigenvalues)

    def test_eigendecompose_moment_check_rejects_wrong_shape(self):
        self._assert_rejects_wrong_shape(gm.eigendecompose)

    @pytest.mark.parametrize("solve", [gm.eigenvalues, gm.eigendecompose])
    def test_shapes_their_edges_do_not_have_are_refused(self, solve):
        # each has the moments of the shape it claims: a 3x8 torus labelled
        # 4x6, and C4 + K2 (disconnected) labelled as the 6-path; neither can
        # be built, so no solver sees the false shape
        torus = gm.build_torus([3, 8])
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(torus, shape=("torus", (4, 6)))
        edges = np.array([[0, 1], [0, 3], [1, 2], [2, 3], [4, 5]])
        with pytest.raises(TypeError, match="shape"):
            gm.Graph(n=6, edges=edges, degrees=np.bincount(edges.ravel()), shape=("grid", (6,)))
        # a copy keeps the edges but not the shape, and is solved densely to
        # its own spectrum, not the 4x6 torus's
        copy = dataclasses.replace(torus)
        assert copy.shape is None and copy.edges is torus.edges
        lambdas = solve(copy).lambdas
        assert np.max(np.abs(lambdas - np.linalg.eigvalsh(gm.laplacian(torus)))) < 1e-10
        assert np.max(np.abs(lambdas - gm.eigenvalues(gm.build_torus([4, 6])).lambdas)) > 1e-3

    def test_no_spectrum_call_rebuilds_lattice_edges(self, monkeypatch):
        graphs = (gm.build_path(40), gm.build_grid([16, 16]), gm.build_torus([3, 4, 5]))

        def refuse(dims, wrap):
            raise AssertionError("a shaped graph's edges are its lattice's by construction")

        monkeypatch.setattr(gm.graphs, "_lattice_edges", refuse)
        for g in graphs:
            gm.eigenvalues(g)
            s = gm.eigendecompose(g)
            for k in (1, 10, g.n):
                gm.spectral._axis_factors(s, k)
            gm.head_basis(s, 12)
            s.basis

    def test_geometry_r_known_for_shaped_graphs_fitted_otherwise(self):
        for g, r in ((gm.build_path(64), 1.0), (gm.build_grid([4, 4, 4]), 3.0),
                     (gm.build_torus([8, 8]), 2.0)):
            assert gm.geometry_r(g, gm.eigenvalues(g)) == r
        g = gm.build_small_world(256, 4, 0.1, seed=2)
        s = gm.eigenvalues(g)
        assert g.shape is None
        assert gm.geometry_r(g, s) == max(1.0, gm.fit_geometry(s).r_hat)

    def test_path_eigenvalues_split_out_of_closed_form(self):
        assert np.array_equal(gm.path_eigenvalues(32), gm.path_spectrum_closed_form(32).lambdas)
        with pytest.raises(ValidationError):
            gm.path_eigenvalues(1)

    def test_every_basis_consumer_rejects_eigenvalues_only(self):
        s = gm.eigenvalues(gm.build_path(512))  # certificates need N = 512^(1/3) >= 8
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
        w = gm.ellipsoid_weights(s, ball)  # needs eigenvalues only
        plan = gm.pinsker_plan(w, 1.0, s.n)
        y = np.zeros(s.n)
        pack = gm.vg_packing(8, seed=0)
        consumers = [
            lambda: gm.gft_forward(s, y),
            lambda: gm.gft_inverse(s, y),
            lambda: gm.sup_norm_bound(s),
            lambda: gm.head_basis(s, 4),
            lambda: gm.sample_ball(s, ball, 1.0, seed=0),
            lambda: gm.sobolev_form(s, ball, y),
            lambda: gm.estimate_regression(s, plan, y),
            lambda: gm.projection_estimate(s, y, 4),
            lambda: gm.estimate_classification(s, plan, y),
            lambda: gm.hard_alternatives(s, ball, 0.1, pack),
        ]
        for consume in consumers:
            with pytest.raises(ValidationError, match="eigenvalues only"):
                consume()


class TestClosedFormBasis:
    def test_j0_is_constant_with_zero_eigenvalue(self):
        s = gm.path_spectrum_closed_form(32)
        assert s.lambdas[0] == 0.0
        assert np.allclose(s.basis[:, 0], 1.0, atol=1e-15)

    def test_unnormalized_norm_identity(self):
        # (1/n) sum_i cos^2(pi j (2i-1) / (2n)) is exactly 1/2 for j >= 1
        for n in (16, 64, 256):
            i = np.arange(1, n + 1)
            for j in range(n):
                raw = np.cos(np.pi * j * (2 * i - 1) / (2 * n))
                target = 1.0 if j == 0 else 0.5
                assert abs(np.mean(raw**2) - target) < 1e-12

    def test_sup_norm_exact_value(self):
        # the largest entry is sqrt(2) cos(pi / (2n)) when n is a power of
        # two (the cosine grid never hits a lattice point), and exactly
        # sqrt(2) for sizes like 6, 10, 18 where it does
        for n in (16, 64, 256):
            got = gm.sup_norm_bound(gm.path_spectrum_closed_form(n))
            assert abs(got - math.sqrt(2) * math.cos(math.pi / (2 * n))) < 1e-12
            assert got <= math.sqrt(2) + 1e-12
        for n in (6, 10, 18):
            got = gm.sup_norm_bound(gm.path_spectrum_closed_form(n))
            assert abs(got - math.sqrt(2)) < 1e-12


class TestSupNormBound:
    def test_product_basis_value(self):
        # Kronecker product of two path bases: sup is the product of sups
        p8 = gm.path_spectrum_closed_form(8)
        kron = np.kron(p8.basis, p8.basis)
        expected = 2.0 * math.cos(math.pi / 16) ** 2
        assert abs(np.abs(kron).max() - expected) < 1e-12

    def test_lower_bound_one(self, path64_eig, grid8_eig):
        # <psi_j, psi_j>_n = 1 forces max |psi_j| >= 1
        for s in (path64_eig, grid8_eig, gm.path_spectrum_closed_form(10)):
            assert gm.sup_norm_bound(s) >= 1.0


class TestGft:
    def test_eigenvector_maps_to_unit_coefficient(self, path64_eig):
        c = gm.gft_forward(path64_eig, path64_eig.basis[:, 3])
        expected = np.zeros(64)
        expected[3] = 1.0
        assert np.max(np.abs(c - expected)) < 1e-10

    def test_constant_signal(self):
        s = gm.path_spectrum_closed_form(32)
        c = gm.gft_forward(s, np.full(32, 2.5))
        assert abs(c[0] - 2.5) < 1e-12
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_parseval(self, path64_eig):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.standard_normal(64)
            c = gm.gft_forward(path64_eig, f)
            assert abs(np.mean(f**2) - np.sum(c**2)) < 1e-10

    def test_round_trip(self, path64_eig):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = rng.standard_normal(64)
            back = gm.gft_inverse(path64_eig, gm.gft_forward(path64_eig, f))
            assert np.max(np.abs(back - f)) < 1e-9

    def test_zero_coefficients(self, path64_eig):
        assert np.array_equal(gm.gft_inverse(path64_eig, np.zeros(64)), np.zeros(64))

    def test_length_mismatch(self, path64_eig):
        with pytest.raises(ValidationError):
            gm.gft_forward(path64_eig, np.zeros(12))
        with pytest.raises(ValidationError):
            gm.gft_inverse(path64_eig, np.zeros(12))

    @pytest.mark.parametrize("transform", ["gft_forward", "gft_inverse"])
    def test_wrong_length_fails_before_any_factor_is_grown(self, transform):
        # the full 4096 x 4096 path factor is 128 MiB, and its checks more
        s = gm.eigendecompose(gm.build_path(4096))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="length .* does not match n=4096"):
                getattr(gm, transform)(s, np.zeros(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s._factors is None and peak < 1 << 20


class TestFitGeometry:
    def test_path2048(self, path2048_eig):
        fit = gm.fit_geometry(path2048_eig)
        assert 0.95 <= fit.r_hat <= 1.05
        assert abs(fit.r_hat - 2.0 / fit.slope) < 1e-12
        assert fit.c1_hat <= fit.c2_hat

    def test_grid32(self, grid32_eig):
        assert 1.8 <= gm.fit_geometry(grid32_eig).r_hat <= 2.2

    def test_exact_power_law(self):
        n = 400
        i = np.arange(n)
        s = synthetic_spectrum((i / n) ** (2.0 / 3.0))
        fit = gm.fit_geometry(s, i0=5, kappa=0.5)
        assert abs(fit.r_hat - 3.0) < 1e-9
        assert fit.rss < 1e-18
        assert abs(fit.c1_hat - 1.0) < 1e-9 and abs(fit.c2_hat - 1.0) < 1e-9

    def test_invalid_range(self):
        s = synthetic_spectrum(np.arange(64) / 64.0)
        with pytest.raises(ValidationError):
            gm.fit_geometry(s, i0=0)
        with pytest.raises(ValidationError):
            gm.fit_geometry(s, i0=40, kappa=0.5)
        with pytest.raises(ValidationError):
            gm.fit_geometry(s, kappa=1.5)

    def test_flat_spectrum_is_degenerate(self):
        s = synthetic_spectrum(np.concatenate([[0.0], np.ones(63)]))
        with pytest.raises(NumericError):
            gm.fit_geometry(s)

    @pytest.mark.parametrize("spec", ["path:2048", "ws:2048,6,0.1,1"])
    def test_line_fit_is_the_inline_formula_bit_for_bit(self, spec):
        # the shared line fit against the formula fit_geometry wrote out
        # before it had one, in the same order of operations
        s = gm.eigenvalues(gm.parse_graph_spec(spec))
        fit = gm.fit_geometry(s)
        idx = np.arange(5, s.n // 2 + 1)
        lams = s.lambdas[idx]
        x = np.log(idx / s.n)
        y = np.log(lams)
        xc = x - x.mean()
        slope = float(np.dot(xc, y) / np.dot(xc, xc))
        intercept = float(y.mean() - slope * x.mean())
        rss = float(np.sum((y - (slope * x + intercept)) ** 2))
        ratios = lams / (idx / s.n) ** slope
        assert (fit.slope, fit.rss, fit.r_hat) == (slope, rss, 2.0 / slope)
        assert (fit.c1_hat, fit.c2_hat) == (float(ratios.min()), float(ratios.max()))


def test_spectrum_csv_text():
    s = gm.path_spectrum_closed_form(4)
    text = gm.spectrum_csv_text(s)
    lines = text.strip().split("\n")
    assert lines[0] == "j,lambda"
    assert len(lines) == 5
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(values, [0.0, 2.0 - math.sqrt(2), 2.0, 2.0 + math.sqrt(2)], atol=1e-9)
