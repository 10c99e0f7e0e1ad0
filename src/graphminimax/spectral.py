"""Laplacian eigendecomposition under the (1/n)-weighted inner product.

Throughout the package signals live in R^n with norm ||f||_n^2 = mean(f^2)
and inner product <f, g>_n = mean(f * g).  Eigenbases are normalized so
that <psi_j, psi_j>_n = 1, i.e. the standard Euclidean eigenvectors scaled
by sqrt(n).  With this convention the graph Fourier coefficients of a
bounded signal stay O(1) as the graph grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .graphs import DEFAULT_DENSE_CAP, Graph, laplacian

_SIGN_EPS = 1e-12
_RESIDUAL_TOL = 1e-8
_MOMENT_RTOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and a <.,.>_n-orthonormal eigenbasis of a Laplacian.

    ``lambdas`` is non-decreasing with lambdas[0] == 0.  ``basis[:, j]`` is
    the eigenvector psi_j; the first component of each psi_j whose magnitude
    exceeds 1e-12 is positive.  For repeated eigenvalues any orthonormal
    basis of the eigenspace is acceptable, so comparisons on degenerate
    spectra should use eigenvalue multisets or eigenspace projectors.

    ``basis`` is None for an eigenvalues-only spectrum (see ``eigenvalues``).
    Such a spectrum serves everything that reads only n and the eigenvalues
    (ellipsoid weights, shrinkage plans, geometry fits); every consumer of
    the eigenvectors raises ValidationError on it.
    """

    n: int
    lambdas: np.ndarray
    basis: np.ndarray | None


@dataclass(frozen=True)
class GeometryFit:
    """Fitted eigenvalue growth law lambda_i ~ (i/n)^(2/r_hat).

    ``slope`` is the log-log OLS slope (equal to 2/r_hat), ``c1_hat`` and
    ``c2_hat`` are the empirical envelope constants min/max of
    lambda_i / (i/n)^slope over the fitted range, and ``rss`` is the
    residual sum of squares of the line fit.
    """

    r_hat: float
    slope: float
    i0: int
    kappa: float
    c1_hat: float
    c2_hat: float
    rss: float


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column positive."""
    firsts = np.argmax(np.abs(basis) > _SIGN_EPS, axis=0)
    signs = np.sign(basis[firsts, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


def _freeze(s: Spectrum) -> Spectrum:
    s.lambdas.setflags(write=False)
    if s.basis is not None:
        s.basis.setflags(write=False)
    return s


def _checked_lambdas(lams: np.ndarray, n: int) -> np.ndarray:
    """Clamp solver eigenvalues at 0 after checking the null eigenvalue."""
    if lams[0] < -1e-9:
        raise NumericError(f"negative eigenvalue {lams[0]:.3e} from eigensolver")
    lams = np.maximum(lams, 0.0)
    if lams[0] > 1e-9:
        raise NumericError(f"null eigenvalue missing: lambda_0 = {lams[0]:.3e}")
    lams[0] = 0.0
    if n > 1 and lams[1] <= 0.0:
        raise NumericError("second eigenvalue is not positive; graph should be connected")
    return lams


def require_basis(s: Spectrum) -> np.ndarray:
    """The eigenbasis of s; ValidationError for an eigenvalues-only spectrum."""
    if s.basis is None:
        raise ValidationError(
            "this spectrum holds eigenvalues only; eigenvectors need eigendecompose()"
        )
    return s.basis


def eigendecompose(g: Graph, max_n: int = DEFAULT_DENSE_CAP) -> Spectrum:
    """Full dense symmetric eigendecomposition of the graph Laplacian.

    All n eigenpairs are computed because the shrinkage estimators and the
    smoothness form need the whole spectrum.  Raises NumericError if the
    solver output fails the residual check ||L psi - lambda psi|| /
    max(1, lambda) <= 1e-8 or if the null eigenvalue is out of tolerance.
    """
    L = laplacian(g, max_n=max_n)
    lams, vecs = np.linalg.eigh(L)
    lams = _checked_lambdas(lams, g.n)
    basis = _fix_signs(vecs * np.sqrt(g.n))
    resid = L @ basis - basis * lams
    rel = np.linalg.norm(resid, axis=0) / np.maximum(1.0, lams)
    worst = float(rel.max())
    if worst > _RESIDUAL_TOL:
        raise NumericError(f"eigendecomposition residual too large: {worst:.3e}")
    return _freeze(Spectrum(n=g.n, lambdas=lams, basis=basis))


def _shape_eigenvalues(shape: tuple[str, tuple[int, ...]]) -> np.ndarray:
    """Closed-form spectrum of a grid or torus: the Kronecker sum over its axes.

    Each grid axis is a path with eigenvalues 4 sin^2(pi j / (2 side)); each
    torus axis is a cycle with eigenvalues 4 sin^2(pi j / side).
    """
    kind, dims = shape
    axes = [
        path_eigenvalues(side) if kind == "grid"
        else 4.0 * np.sin(np.pi * np.arange(side) / side) ** 2
        for side in dims
    ]
    lams = axes[0]
    for axis in axes[1:]:
        lams = np.add.outer(lams, axis).ravel()
    return np.sort(lams)


def eigenvalues(g: Graph) -> Spectrum:
    """Laplacian eigenvalues alone, as a Spectrum with ``basis=None``.

    Grids, paths and tori (``g.shape`` set) use their closed form; any other
    graph gets a dense ``eigvalsh``.  Both run the same null-eigenvalue and
    connectivity checks as eigendecompose.  Without eigenvectors there is no
    residual to check, so the eigenvalues must instead reproduce the exact
    moments sum(lambda) = trace(L) = sum_i d_i and
    sum(lambda^2) = ||L||_F^2 = sum_i d_i^2 + sum_i d_i to 1e-10 relative.
    """
    raw = np.linalg.eigvalsh(laplacian(g)) if g.shape is None else _shape_eigenvalues(g.shape)
    if raw.shape != (g.n,):
        raise NumericError(f"{raw.size} eigenvalues for a graph on n={g.n} vertices")
    d = g.degrees.astype(float)
    for k, want in ((1, d.sum()), (2, np.sum(d**2) + d.sum())):
        got = float(np.sum(raw**k))
        if abs(got - want) > _MOMENT_RTOL * want:
            raise NumericError(
                f"eigenvalue moment {k} is {got:.15g}, expected {want:.15g} from the degrees"
            )
    return _freeze(Spectrum(n=g.n, lambdas=_checked_lambdas(raw, g.n), basis=None))


def path_eigenvalues(n: int) -> np.ndarray:
    """Exact path Laplacian eigenvalues 4 sin^2(pi j / (2n)), j = 0..n-1."""
    if n < 2:
        raise ValidationError(f"path graph needs n >= 2, got {n!r}")
    lams = 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
    lams[0] = 0.0
    return lams


def path_spectrum_closed_form(n: int) -> Spectrum:
    """Exact spectrum of the path graph on n vertices.

    lambda_j = path_eigenvalues(n)[j] and, for vertex i = 1..n (stored
    0-based), psi_j(i) = c_j cos(pi j (2i - 1) / (2n)) with c_0 = 1 and
    c_j = sqrt(2) for j >= 1, which makes <psi_j, psi_j>_n = 1.
    """
    lams = path_eigenvalues(n)
    j = np.arange(n)
    odd = 2.0 * np.arange(1, n + 1) - 1.0
    basis = np.cos(np.pi * np.outer(odd, j) / (2 * n))
    basis[:, 1:] *= np.sqrt(2.0)
    return _freeze(Spectrum(n=n, lambdas=lams, basis=_fix_signs(basis)))


def fit_geometry(s: Spectrum, i0: int = 5, kappa: float = 0.5) -> GeometryFit:
    """Least-squares fit of log(lambda_i) against log(i/n).

    The fitted range is i in {i0, ..., floor(kappa * n)} (clipped to n-1).
    The defaults skip the non-power-law head and tail; both are overridable
    because the right range is graph-dependent.
    """
    if i0 < 1:
        raise ValidationError(f"i0 must be >= 1, got {i0}")
    if not 0.0 < kappa <= 1.0:
        raise ValidationError(f"kappa must be in (0, 1], got {kappa}")
    hi = min(int(np.floor(kappa * s.n)), s.n - 1)
    if i0 >= kappa * s.n or hi - i0 + 1 < 2:
        raise ValidationError(f"empty fitting range: i0={i0}, kappa={kappa}, n={s.n}")
    idx = np.arange(i0, hi + 1)
    lams = s.lambdas[idx]
    if np.any(lams <= 0.0):
        raise ValidationError("fitted range contains non-positive eigenvalues")
    x = np.log(idx / s.n)
    y = np.log(lams)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    if slope <= 0.0:
        raise NumericError(f"degenerate geometry fit: slope {slope:.3e} <= 0")
    intercept = float(y.mean() - slope * x.mean())
    rss = float(np.sum((y - (slope * x + intercept)) ** 2))
    ratios = lams / (idx / s.n) ** slope
    return GeometryFit(
        r_hat=2.0 / slope,
        slope=slope,
        i0=int(i0),
        kappa=float(kappa),
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
    """Exact maximum absolute entry over the whole eigenbasis."""
    return float(np.abs(require_basis(s)).max())


def gft_forward(s: Spectrum, f: np.ndarray) -> np.ndarray:
    """Coefficients <f, psi_j>_n of a signal in the eigenbasis."""
    basis = require_basis(s)
    f = np.asarray(f, dtype=float)
    if f.shape != (s.n,):
        raise ValidationError(f"signal length {f.shape} does not match n={s.n}")
    return basis.T @ f / s.n


def gft_inverse(s: Spectrum, coeffs: np.ndarray) -> np.ndarray:
    """Signal sum_j coeffs_j psi_j; inverts gft_forward."""
    basis = require_basis(s)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (s.n,):
        raise ValidationError(f"coefficient length {coeffs.shape} does not match n={s.n}")
    return basis @ coeffs


def spectrum_csv_text(s: Spectrum) -> str:
    """Eigenvalues as CSV with header ``j,lambda``."""
    lines = ["j,lambda"]
    lines.extend(f"{j},{lam:.12g}" for j, lam in enumerate(s.lambdas))
    return "\n".join(lines) + "\n"
