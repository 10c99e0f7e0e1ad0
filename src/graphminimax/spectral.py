"""Laplacian eigendecomposition under the (1/n)-weighted inner product.

Throughout the package signals live in R^n with norm ||f||_n^2 = mean(f^2)
and inner product <f, g>_n = mean(f * g).  Eigenbases are normalized so
that <psi_j, psi_j>_n = 1, i.e. the standard Euclidean eigenvectors scaled
by sqrt(n).  With this convention the graph Fourier coefficients of a
bounded signal stay O(1) as the graph grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._text import csv_text
from .errors import NumericError, ValidationError, _check_integer, _check_real
from .graphs import DEFAULT_DENSE_CAP, Graph, apply_laplacian, build_path, laplacian

_SIGN_EPS = 1e-12
_RESIDUAL_TOL = 1e-8
_RESIDUAL_CHUNK = 256
_ORTHONORMAL_TOL = 1e-10
_MOMENT_RTOL = 1e-10
# Prefix views an _AxisFactors keeps; the warm estimators use a few column
# counts per spectrum.
_PREFIX_VIEWS = 4


@dataclass(frozen=True, init=False, eq=False)
class Spectrum:
    """Eigenvalues and <.,.>_n-orthonormal eigenvectors of a Laplacian.

    ``lambdas`` is non-decreasing with lambdas[0] == 0.  Eigenvector psi_j
    is column j of the basis; the first component of each psi_j whose
    magnitude exceeds 1e-12 is positive.  Inside a repeated eigenvalue a
    path, grid or torus gets the fixed product basis of eigendecompose
    (per-axis vectors, in the row-major order of their axis indices), the
    same on every platform; any other graph gets whatever orthonormal basis
    of the eigenspace the solver returns.  Results that must not depend on
    that choice should compare eigenvalue multisets or eigenspace projectors.

    A spectrum keeps its eigenvectors in one store, per-axis factors (see
    ``_AxisFactors``).  One from eigendecompose of a path, grid or torus,
    whose edges are its shape's lattice edges by construction, holds its
    eigenvalues and graph and no eigenvector at first.  Its eigenvectors
    are Kronecker products of per-axis path or cycle vectors, and it keeps
    one factor per axis: the checked axis vectors its first k columns use,
    the first u_a in the axis's fixed order (a stable sort of its
    eigenvalues), built whole on each growth.  Every other spectrum holds
    all n eigenvectors or none: eigh's basis, or a basis passed here as an
    (n, n) array, kept as one column-major, read-only factor.  The
    estimators, the bump alternatives, the GFT and ``sup_norm_bound`` apply
    the factors by one product per axis, on one axis as on several, and hold
    no n x k array beside them; on a path or an explicit basis the single
    factor is the head itself.

    ``head_basis(s, k)`` returns the first k columns as an n x k array: a
    view of a single factor, or on a grid or torus a new array expanded
    from the factors on every call (O(n k) memory, not kept).  ``basis``
    is ``head_basis(s, n)``, all n columns, under its cap (on a path, grid
    or torus n^2 within ``DEFAULT_DENSE_CAP**2``).

    ``basis`` is None for an eigenvalues-only spectrum (see ``eigenvalues``).
    Such a spectrum serves everything that reads only n and the eigenvalues
    (ellipsoid weights, shrinkage plans, geometry fits); every consumer of
    the eigenvectors raises ValidationError on it.

    ``dataclasses.replace(s, ...)`` builds ``Spectrum(n, lambdas, basis)``
    from the fields it is given and s's n and lambdas.  Without ``basis=``
    the copy holds eigenvalues only, at once and whatever s holds (no
    eigenvector is read or built); pass ``basis=s.basis`` to keep them.
    Spectra compare and hash by identity.
    """

    n: int
    lambdas: np.ndarray
    # The graph of a lazy spectrum of a path, grid or torus, whose factors
    # grow from it; then the one eigenvector store.
    _graph: Graph | None = field(init=False, default=None, repr=False)
    _factors: _AxisFactors | None = field(init=False, default=None, repr=False)

    def __init__(self, n: int, lambdas: np.ndarray, basis: np.ndarray | None = None):
        n = _check_integer(n, "a spectrum's vertex count n", lo=1)
        # read-only views: the caller's arrays keep their own flags
        lambdas = np.asarray(lambdas).view()
        if lambdas.shape != (n,):
            raise ValidationError(
                f"a spectrum on n={n} vertices needs {n} eigenvalues, got shape {lambdas.shape}"
            )
        lambdas.setflags(write=False)
        if basis is not None:
            basis = np.asfortranarray(basis).view()
            if basis.shape != (n, n):
                raise ValidationError(
                    f"a basis on n={n} vertices has shape (n, n), got {basis.shape}"
                )
            basis.setflags(write=False)
            factors = _AxisFactors((basis,), (np.arange(n),))
            object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def basis(self) -> np.ndarray | None:
        """The n x n eigenbasis, head_basis(s, n); None for an eigenvalues-only spectrum."""
        if self._factors is None and self._graph is None:
            return None
        return head_basis(self, self.n)


@dataclass(frozen=True)
class GeometryFit:
    """Fitted eigenvalue growth law lambda_i ~ (i/n)^(2/r_hat).

    ``slope`` is the log-log OLS slope (equal to 2/r_hat), ``c1_hat`` and
    ``c2_hat`` are the empirical envelope constants min/max of
    lambda_i / (i/n)^slope over the fitted range, and ``rss`` is the
    residual sum of squares of the line fit.  ``fit-r`` prints these five
    fields in this order; they depend on the eigenvalues only.
    """

    r_hat: float
    slope: float
    c1_hat: float
    c2_hat: float
    rss: float


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column positive.

    The result is column-major, like every returned basis.
    """
    firsts = np.argmax(np.abs(basis) > _SIGN_EPS, axis=0)
    signs = np.sign(basis[firsts, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return np.multiply(basis, signs, order="F")


def _checked_lambdas(g: Graph, lams: np.ndarray) -> np.ndarray:
    """Solver eigenvalues of g's Laplacian, checked, with the null one clamped to 0.

    Every eigenvalue a spectrum holds passes here.  Whatever the solver, the
    eigenvalues must reproduce the exact moments sum(lambda) = trace(L) =
    sum_i d_i and sum(lambda^2) = ||L||_F^2 = sum_i d_i^2 + sum_i d_i to
    1e-10 relative, lambda_0 must be 0 within 1e-9 and lambda_1 positive
    (g connected); NumericError otherwise.
    """
    d = g.degrees.astype(float)
    for k, want in ((1, d.sum()), (2, np.sum(d**2) + d.sum())):
        got = float(np.sum(lams**k))
        if abs(got - want) > _MOMENT_RTOL * want:
            raise NumericError(
                f"eigenvalue moment {k} is {got:.15g}, expected {want:.15g} from the degrees"
            )
    if lams[0] < -1e-9:
        raise NumericError(f"negative eigenvalue {lams[0]:.3e} from eigensolver")
    lams = np.maximum(lams, 0.0)
    if lams[0] > 1e-9:
        raise NumericError(f"null eigenvalue missing: lambda_0 = {lams[0]:.3e}")
    lams[0] = 0.0
    if g.n > 1 and lams[1] <= 0.0:
        raise NumericError("second eigenvalue is not positive; graph should be connected")
    return lams


def _head_width(s: Spectrum, k) -> int:
    """k as a column count of s's head: an integer (not a bool) in [1, n]."""
    return _check_integer(k, "a head's column count k", 1, s.n)


def head_basis(s: Spectrum, k: int) -> np.ndarray:
    """The first k eigenvectors of s as an n x k column-major, read-only array.

    This is the reader for callers that need the columns themselves, such
    as ``s.basis`` and explicit comparisons; the estimators, the bump
    alternatives, the GFT and ``sup_norm_bound`` apply ``_axis_factors``
    instead.  On a path or an explicit basis it returns a view of the
    single factor.  On a grid or torus it expands the k columns from the
    per-axis factors on every call, one broadcast product per axis (the
    only place product columns are formed), keeps none of them, and checks
    every column's residual as eigendecompose describes;
    ``head_basis(s, k)`` is ``s.basis[:, :k]`` bit for bit.  A path, grid
    or torus head may hold at most
    ``DEFAULT_DENSE_CAP**2`` values: a larger n k raises ValidationError
    before anything is allocated.  Every other case raises as
    ``_axis_factors`` does.
    """
    k = _head_width(s, k)
    if s._graph is not None:
        what = f"the value count n*k of a head of k={k} columns on n={s.n} vertices"
        _check_integer(s.n * k, what, 1, DEFAULT_DENSE_CAP**2, "DEFAULT_DENSE_CAP**2")
    factors = _axis_factors(s, k)
    if len(factors.vectors) == 1:
        return factors.vectors[0]
    # psi_c is the outer product over the axes of the factor columns at[a][c],
    # flattened row-major like the vertices and formed in axis order
    rows = np.ones((k, 1))
    for v, at in zip(factors.vectors, factors.at):
        rows = (rows[:, :, None] * v.T[at][:, None, :]).reshape(k, -1)
    head = rows.T
    _check_residual(s._graph, s.lambdas[:k], head)
    head.setflags(write=False)
    return head


@dataclass(frozen=True, eq=False)
class _AxisFactors:
    """The first k eigenvectors of a spectrum, one factor per tensor axis.

    Column c of the head is the Kronecker product over the axes a of
    ``vectors[a][:, at[a][c]]``, with vertices flattened row-major.  Each
    factor is a column-major, read-only d_a x u_a array of <.,.>_{d_a}-
    orthonormal axis vectors, the first u_a of the axis's fixed order (a
    stable sort of its eigenvalues), so the first k' <= k columns use the
    first columns of every factor.  A single axis (a path, or any
    spectrum's explicit basis) has its head as its factor,
    at = (arange(k),) and at[0] itself as ``flat``.

    The two transforms, ``analyze`` and ``synthesize``, apply the k
    columns through the u_1 x ... x u_r core, one 2-D matrix product per
    axis on a reshaped view, for any number of axes; the estimators, the
    GFT and the bump alternatives all go through them.
    n and the core size are set once per view, in __post_init__.

    Prefix views of the _PREFIX_VIEWS column counts used last are kept,
    because callers ask for the same few k on every call and a view costs
    as much as a small transform; older ones are dropped.
    """

    vectors: tuple[np.ndarray, ...]
    at: tuple[np.ndarray, ...]
    # The row-major index of each column's axis indices in the u_1 x ... x u_r core.
    flat: np.ndarray = field(init=False, repr=False)
    n: int = field(init=False, repr=False)
    _core_size: int = field(init=False, repr=False)
    # Prefix views by column count, least recently used first.
    _prefixes: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        sizes = tuple(v.shape[1] for v in self.vectors)
        flat = self.at[0] if len(sizes) == 1 else np.ravel_multi_index(self.at, sizes)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "n", math.prod(v.shape[0] for v in self.vectors))
        object.__setattr__(self, "_core_size", math.prod(sizes))

    @property
    def k(self) -> int:
        return len(self.flat)

    def prefix(self, k: int) -> _AxisFactors:
        """The factors of the first k <= self.k columns."""
        if k == self.k:
            return self
        # pop and re-insert moves k to the end; pop(..., None) tolerates a
        # concurrent caller that removed the same key
        view = self._prefixes.pop(k, None)
        if view is None:
            at = tuple(i[:k] for i in self.at)
            vectors = tuple(v[:, : int(i.max()) + 1] for v, i in zip(self.vectors, at))
            view = _AxisFactors(vectors, at)
        self._prefixes[k] = view
        if len(self._prefixes) > _PREFIX_VIEWS:
            for old in list(self._prefixes)[:-_PREFIX_VIEWS]:
                self._prefixes.pop(old, None)
        return view

    def analyze(self, y: np.ndarray) -> np.ndarray:
        """sum_i y(i) psi_c(i) for every column c: (n,) -> (k,)."""
        # each product contracts the leading vertex axis and appends its
        # column axis at the back
        for v in self.vectors:
            y = y.reshape(v.shape[0], -1).T @ v
        return y.ravel()[self.flat]

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """sum_j c[..., j] psi_j: (k,) -> (n,), or a block of rows (B, k) -> (B, n)."""
        # the core has c's leading shape, (U,) or (U, B); each product
        # expands the leading core axis and cycles it to the back, so a
        # block's rows end up in front
        core = np.zeros((self._core_size,) + c.shape[:-1])
        core[self.flat] = c.T
        for v in self.vectors:
            core = core.reshape(v.shape[1], -1).T @ v.T
        return core.reshape(c.shape[:-1] + (self.n,))


def _axis_factors(s: Spectrum, k: int) -> _AxisFactors:
    """The first k eigenvectors of s as per-axis factors (see _AxisFactors).

    This is the one reader of the eigenvectors a spectrum holds.  A lazy
    spectrum of a path, grid or torus grows its factors to k columns on
    first use (see _grown_factors) and keeps them.  Any other spectrum
    holds all n columns, or none: an eigenvalues-only spectrum raises
    ValidationError saying so.  k must be an integer (not a bool) in
    [1, n]; anything else raises ValidationError naming it.
    """
    k = _head_width(s, k)
    factors = s._factors
    if factors is None or factors.k < k:
        if s._graph is None:
            raise ValidationError(
                "this spectrum holds eigenvalues only; eigenvectors need eigendecompose()"
            )
        factors = _grown_factors(s, k)
        # One assignment: a concurrent caller sees the old factors or the new
        # ones, and at worst builds the same deterministic vectors again.
        object.__setattr__(s, "_factors", factors)
    return factors.prefix(k)


def eigendecompose(g: Graph) -> Spectrum:
    """The Laplacian eigenpairs of g, every eigenvalue and eigenvector checked.

    A path, grid or torus (``g.shape`` set, so its edges are the lattice
    edges of g.shape by construction) gets ``eigenvalues(g)`` plus its
    graph, from which readers grow checked per-axis factors on first use
    (``_grown_factors``, under its cap); no eigenvector is computed here.
    Its eigenvectors are products of per-axis path (DCT-II) or cycle
    vectors, in the stable order of the Kronecker-sum eigenvalues, so the
    basis inside a repeated eigenvalue is that fixed product basis.  Any
    other graph gets a dense ``eigh`` of all n columns here, kept as a
    single factor; n above the dense cap raises ValidationError (from
    ``laplacian``) before anything is allocated.  That basis must also pass
    ``_check_orthonormal``: its Gram matrix under <.,.>_n is the identity
    to 1e-10 in every entry (an O(n^3) product, a few percent of the
    ``eigh``), the premise of every Parseval identity the package uses.

    The eigenvalues pass the moment, null-eigenvalue and connectivity
    checks of ``_checked_lambdas``.  Every column that is formed must pass
    the residual check ||L psi - lambda psi|| / max(1, lambda) <= 1e-8 when
    it is built, with L applied by ``apply_laplacian`` (O(m) per column);
    the per-axis factors pass checks that bound that residual for every
    product column (``_grown_factors``).  A failed check raises NumericError.
    """
    if g.shape is not None:
        s = eigenvalues(g)
        object.__setattr__(s, "_graph", g)
        return s
    lams, vecs = np.linalg.eigh(laplacian(g))
    lams = _checked_lambdas(g, lams)
    basis = _fix_signs(vecs * np.sqrt(g.n))
    _check_residual(g, lams, basis)
    _check_orthonormal(basis, f"the eigenbasis of {g.n} vertices")
    return Spectrum(n=g.n, lambdas=lams, basis=basis)


def _check_residual(g: Graph, lams: np.ndarray, basis: np.ndarray) -> None:
    worst = _worst_residual(g, lams, basis)
    if worst > _RESIDUAL_TOL:
        raise NumericError(f"eigendecomposition residual too large: {worst:.3e}")


def _worst_residual(g: Graph, lams: np.ndarray, basis: np.ndarray) -> float:
    """max_j ||L psi_j - lambda_j psi_j|| / max(1, lambda_j), L from apply_laplacian.

    Columns of the basis are checked in chunks, which keeps the residual
    arrays at n x chunk.
    """
    worst = 0.0
    for j0 in range(0, basis.shape[1], _RESIDUAL_CHUNK):
        psi = basis[:, j0 : j0 + _RESIDUAL_CHUNK]
        lam = lams[j0 : j0 + _RESIDUAL_CHUNK]
        resid = apply_laplacian(g, psi)
        resid -= psi * lam
        rel = np.linalg.norm(resid, axis=0) / np.maximum(1.0, lam)
        worst = max(worst, float(rel.max()))
    return worst


def _axis_eigenvalues(kind: str, side: int) -> np.ndarray:
    """Path eigenvalues for a grid axis, 4 sin^2(pi j / side) for a cycle."""
    if kind == "grid":
        return path_eigenvalues(side)
    return 4.0 * np.sin(np.pi * np.arange(side) / side) ** 2


def _path_vectors(n: int, js: np.ndarray) -> np.ndarray:
    """DCT-II path eigenvectors psi_j for j in js, as rows.

    Row r is paired with path_eigenvalues(n)[js[r]].  For vertex i = 1..n
    (stored 0-based), psi_j(i) = c_j cos(pi j (2i - 1) / (2n)) with c_0 = 1
    and c_j = sqrt(2) for j >= 1, which makes <psi_j, psi_j>_n = 1.  Every
    psi_j starts with a positive entry.
    """
    odd = 2.0 * np.arange(1, n + 1) - 1.0
    rows = np.cos(np.pi * np.outer(js, odd) / (2 * n))
    rows *= np.where(js >= 1, np.sqrt(2.0), 1.0)[:, None]
    return rows


def _cycle_vectors(d: int, js: np.ndarray) -> np.ndarray:
    """Cycle eigenvectors psi_j for j in js, as rows, paired with 4 sin^2(pi j / d).

    psi_0 is constant, psi_j(i) = sqrt(2) cos(2 pi j i / d) for j < d/2,
    sqrt(2) sin(2 pi (d - j) i / d) for j > d/2 and, for even d,
    psi_{d/2}(i) = (-1)^i.  The first non-zero entry of every psi_j is
    positive (sin(0) is exactly 0).
    """
    angle = 2.0 * np.pi * np.outer(np.minimum(js, d - js), np.arange(d)) / d
    rows = np.sqrt(2.0) * np.where((js < d / 2)[:, None], np.cos(angle), np.sin(angle))
    rows[js == 0] = 1.0
    if d % 2 == 0:
        rows[js == d // 2] = (-1.0) ** np.arange(d)
    return rows


def _kronecker_sum(g: Graph) -> np.ndarray:
    """Closed-form eigenvalues of a shaped graph, unsorted.

    Entry k is the sum of the per-axis eigenvalues at the row-major axis
    indices np.unravel_index(k, dims), the order of the product basis.
    """
    kind, dims = g.shape
    lams = np.zeros(1)
    for side in dims:
        lams = np.add.outer(lams, _axis_eigenvalues(kind, side)).ravel()
    return lams


def _grown_factors(s: Spectrum, k: int) -> _AxisFactors:
    """The per-axis factors of the first k columns of a lazy shaped spectrum.

    Column c is entry c of a stable sort of the Kronecker-sum eigenvalues,
    re-sorted on each growth.  The first column to use an axis index j is
    j's own axis column (0 on the other axes), so the indices the first k
    columns use are a prefix of the axis's fixed order, a stable sort of
    its eigenvalues.  Each growth builds every used axis's vectors whole
    and checks them (``_check_axis_vectors``).  g's edges are the lattice
    edges of g.shape by construction, so L is the Kronecker sum of the
    axis Laplacians, L psi - lambda psi is the sum over the axes of the
    axis residual times the other axes' vectors, and the checks bound
    every product column's residual by eigendecompose's 1e-8.  The factors
    may hold at most ``DEFAULT_DENSE_CAP**2`` values (on a path the head's
    n k); more raises ValidationError before any vector is built.
    """
    g = s._graph
    kind, dims = g.shape
    order = np.argsort(_kronecker_sum(g), kind="stable")
    used = []
    for side, ks in zip(dims, np.unravel_index(order[:k], dims)):
        axis_order = np.argsort(_axis_eigenvalues(kind, side), kind="stable")
        at = np.argsort(axis_order)[ks]
        used.append((axis_order[: at.max() + 1], at))
    values = sum(side * len(js) for side, (js, _) in zip(dims, used))
    what = f"the value count of the per-axis factors of a head of k={k} columns on n={s.n}"
    _check_integer(values, what, 1, DEFAULT_DENSE_CAP**2, "DEFAULT_DENSE_CAP**2")
    vectors = []
    for side, (js, _) in zip(dims, used):
        factor = (_path_vectors if kind == "grid" else _cycle_vectors)(side, js).T
        _check_axis_vectors(kind, factor, js, len(dims), s.n)
        factor.setflags(write=False)
        vectors.append(factor)
    return _AxisFactors(tuple(vectors), tuple(at for _, at in used))


def _check_axis_vectors(
    kind: str, vectors: np.ndarray, js: np.ndarray, axes: int, n: int
) -> None:
    """NumericError unless an axis factor's columns are orthonormal eigenvectors.

    The columns (axis indices js) pass ``_check_orthonormal``, and their
    residual against the axis's path or cycle Laplacian,
    ||L_a v - lambda_a v|| sqrt(n / side) / max(1, lambda_a) on an axis of
    side vertices, must stay within 1e-8 / axes.
    """
    side = len(vectors)
    _check_orthonormal(vectors, f"{kind} axis basis of side {side}")
    lams = _axis_eigenvalues(kind, side)[js]
    if kind == "grid":
        lap = np.zeros_like(vectors)
        step = np.diff(vectors, axis=0)
        lap[:-1] -= step
        lap[1:] += step
    else:
        lap = 2.0 * vectors - np.roll(vectors, 1, axis=0) - np.roll(vectors, -1, axis=0)
    lap -= vectors * lams
    rel = np.linalg.norm(lap, axis=0) * math.sqrt(n / side) / np.maximum(1.0, lams)
    worst = float(rel.max(initial=0.0))
    if worst > _RESIDUAL_TOL / axes:
        raise NumericError(f"{kind} axis of side {side}: eigenvector residual too large: {worst:.3e}")


def _check_orthonormal(vectors: np.ndarray, what: str) -> None:
    """NumericError naming what unless the columns of vectors are orthonormal.

    Their Gram matrix under <.,.>_d on d rows must be the identity to 1e-10
    in every entry.
    """
    gram = vectors.T @ vectors / len(vectors)
    gram[np.diag_indices_from(gram)] -= 1.0
    gram_err = float(np.abs(gram).max(initial=0.0))
    if gram_err > _ORTHONORMAL_TOL:
        raise NumericError(f"{what} is not orthonormal: {gram_err:.3e}")


def eigenvalues(g: Graph) -> Spectrum:
    """Laplacian eigenvalues alone, as a Spectrum with ``basis=None``.

    A path, grid or torus gets its Kronecker-sum eigenvalues, sorted, and no
    eigenvector order (eigendecompose adds the graph); any other graph a
    dense ``eigvalsh``.  With no eigenvectors there is no residual to check;
    the eigenvalues pass the moment, null-eigenvalue and connectivity
    checks of ``_checked_lambdas``.
    """
    if g.shape is not None:
        lams = np.sort(_kronecker_sum(g))
    else:
        lams = np.linalg.eigvalsh(laplacian(g))
    return Spectrum(n=g.n, lambdas=_checked_lambdas(g, lams))


def path_eigenvalues(n: int) -> np.ndarray:
    """Exact path Laplacian eigenvalues 4 sin^2(pi j / (2n)), j = 0..n-1."""
    n = _check_integer(n, "path graph n", 2, DEFAULT_DENSE_CAP**2, "DEFAULT_DENSE_CAP**2")
    return 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2


def path_spectrum_closed_form(n: int) -> Spectrum:
    """Exact spectrum of the path graph on n vertices: ``eigendecompose(build_path(n))``.

    lambda_j = path_eigenvalues(n)[j] and psi_j is the DCT-II vector of
    ``_path_vectors``, built on first use like every shaped head.
    """
    return eigendecompose(build_path(n))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """The OLS line of y on x: slope, residual sum of squares, Sxx = sum((x - mean x)^2)."""
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    rss = float(np.sum((y - (slope * x + intercept)) ** 2))
    return slope, rss, sxx


def fit_geometry(s: Spectrum, i0: int = 5, kappa: float = 0.5) -> GeometryFit:
    """Least-squares fit of log(lambda_i) against log(i/n).

    The fitted range is i in {i0, ..., floor(kappa * n)} (clipped to n-1).
    The defaults skip the non-power-law head and tail; both are overridable
    because the right range is graph-dependent.  The line is ``_line_fit``'s,
    as in harness.fit_rate; a slope <= 0 raises NumericError.
    """
    i0 = _check_integer(i0, "i0", lo=1)
    kappa = _check_real(kappa, "kappa", hi=1, ends="(]")
    hi = min(int(np.floor(kappa * s.n)), s.n - 1)
    if i0 >= kappa * s.n or hi - i0 + 1 < 2:
        raise ValidationError(f"empty fitting range: i0={i0}, kappa={kappa}, n={s.n}")
    idx = np.arange(i0, hi + 1)
    lams = s.lambdas[idx]
    if np.any(lams <= 0.0):
        raise ValidationError("fitted range contains non-positive eigenvalues")
    slope, rss, _ = _line_fit(np.log(idx / s.n), np.log(lams))
    if slope <= 0.0:
        raise NumericError(f"degenerate geometry fit: slope {slope:.3e} <= 0")
    ratios = lams / (idx / s.n) ** slope
    return GeometryFit(
        r_hat=2.0 / slope,
        slope=slope,
        c1_hat=float(ratios.min()),
        c2_hat=float(ratios.max()),
        rss=rss,
    )


def geometry_r(g: Graph, s: Spectrum) -> float:
    """Geometry parameter r of a graph with spectrum s.

    Grids, paths and tori have the known r = number of axes; any other graph
    gets the fitted r_hat of fit_geometry(s), floored at 1.
    """
    if g.shape is not None:
        return float(len(g.shape[1]))
    return max(1.0, fit_geometry(s).r_hat)


def sup_norm_bound(s: Spectrum) -> float:
    """Exact maximum absolute entry over the whole eigenbasis.

    On a product basis it is the product over the axes of each full axis
    factor's largest |entry|, which rounds exactly as the largest product
    entry does; no n x n basis is formed.
    """
    bound = 1.0
    for v in _axis_factors(s, s.n).vectors:
        bound *= float(np.abs(v).max())
    return bound


def gft_forward(s: Spectrum, f: np.ndarray) -> np.ndarray:
    """Coefficients <f, psi_j>_n of a signal in the eigenbasis.

    A path, grid or torus applies its full per-axis factors (d_a x d_a);
    on a path that is the n x n basis.  A signal of another length raises
    ValidationError before any factor is grown; so does gft_inverse.
    """
    f = _vertex_vector(s, f, "signal")
    return _axis_factors(s, s.n).analyze(f) / s.n


def gft_inverse(s: Spectrum, coeffs: np.ndarray) -> np.ndarray:
    """Signal sum_j coeffs_j psi_j; inverts gft_forward, through the same factors."""
    coeffs = _vertex_vector(s, coeffs, "coefficient")
    return _axis_factors(s, s.n).synthesize(coeffs)


def _vertex_vector(s: Spectrum, x, what: str) -> np.ndarray:
    """x as a float array of shape (n,); else ValidationError naming what it holds."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.n,):
        raise ValidationError(f"{what} length {x.shape} does not match n={s.n}")
    return x


def spectrum_csv_text(s: Spectrum) -> str:
    """Eigenvalues as CSV with header ``j,lambda``, in the package's text format."""
    return csv_text("j,lambda", zip(range(s.n), s.lambdas.tolist()))
