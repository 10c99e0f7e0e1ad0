"""Information-theoretic lower-bound machinery.

The pipeline builds a family of well-separated smooth alternatives and
checks the two conditions a Fano-type argument needs: every alternative
stays inside the smoothness ball, and the averaged Kullback-Leibler
divergence to the base measure stays below alpha * log M with alpha < 1.
A FanoCertificate records the whole configuration so it can be re-verified
from its seed.

The alternatives are spectral bumps f_theta = a sum_{j<N} theta_j psi_j
with amplitude a = delta N^(-(2 beta + r)/(2r)).  Because the psi_j are
<.,.>_n-orthonormal, these certificate quantities hold exactly:

    ||f_theta - f_theta'||_n^2 = 4 a^2 d_h        ||f_theta - 0||_n^2 = a^2 N
    Sobolev form of f_theta = a^2 sum_{j<N} (1 + n^(2 beta / r) lambda_j^beta)
    Gaussian KL(P_theta, P_0) = n a^2 N / (2 sigma^2)

where the Hamming distance d_h counts DISAGREEING coordinates of two +/-1
vectors.  Only the Bernoulli KL is measured on vertex values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .pinsker import LinkFunction, ShrinkagePlan, require_probabilities, sigmoid_link
from .sobolev import EllipsoidWeights, SobolevSpec
from .spectral import Spectrum, gft_inverse, require_basis

_ALPHA_TARGET = 0.5
_PACKING_ATTEMPT_FACTOR = 1000
# The greedy packing costs O(target^2 N) time; 4096 = 2^(96/8) allows N <= 96.
_PACKING_TARGET_CAP = 4096
# Candidates drawn per rng call and compared per pair of matrix products.
_PACKING_BLOCK = 64
# Vertex values held at once by the classification KL.
_KL_BLOCK_VALUES = 32768
_ORTHONORMAL_TOL = 1e-10
_PROBABILITY_MESSAGE = "probabilities must lie strictly inside (0, 1)"


@dataclass(frozen=True)
class PackingSet:
    """Well-separated +/-1 vectors: pairwise disagreement >= ceil(N/8)."""

    N: int
    M: int
    thetas: np.ndarray
    min_hamming: int


@dataclass(frozen=True)
class FanoCertificate:
    """One verified lower-bound configuration.

    valid is True exactly when the worst Sobolev form stays within Q^2,
    the KL budget gives alpha < 1, and the alternatives are separated.
    fano_bound is the implied lower bound (log(M+1) - log 2)/log M - alpha
    on the minimax testing error.
    """

    n: int
    beta: float
    r: float
    Q: float
    N: int
    M: int
    delta: float
    separation_min: float
    sobolev_max: float
    kl_budget: float
    alpha: float
    fano_bound: float
    valid: bool
    seed: int
    mode: str


def _vg_target(N: int) -> int:
    """Classical packing size floor(2^(N/8)), at least 2."""
    target = max(2, int(math.floor(2.0 ** (N / 8.0))))
    if target > _PACKING_TARGET_CAP:
        raise ValidationError(
            f"packing target {target} for N={N} exceeds the greedy packing limit "
            f"{_PACKING_TARGET_CAP} (N <= 96)"
        )
    return target


def vg_packing(N: int, seed: int) -> PackingSet:
    """Randomized greedy packing of the +/-1 hypercube.

    Draws uniform sign vectors and accepts a candidate iff it disagrees
    with every accepted vector in at least ceil(N/8) coordinates, stopping
    at floor(2^(N/8)) accepted vectors or after 1000x that many candidates.
    Deterministic given the seed.

    Candidates come in blocks of 64 from one rng call, which yields the same
    stream as one draw per candidate.  Each block takes one product with the
    accepted rows and one with itself, in float64 through BLAS; the dot
    products of +/-1 vectors are integers of size <= N, so they are exact.
    The accept scan then runs in candidate order over those distances, so
    the result equals the one-candidate-at-a-time greedy loop.
    """
    if N < 8:
        raise ValidationError(f"packing needs N >= 8, got {N}")
    d_min = math.ceil(N / 8)
    target = _vg_target(N)
    rng = np.random.default_rng(seed)
    thetas = np.empty((target, N))
    M, min_h = 0, N
    budget = _PACKING_ATTEMPT_FACTOR * target
    while M < target and budget > 0:
        B = min(_PACKING_BLOCK, budget)
        budget -= B
        cand = rng.integers(0, 2, size=(B, N), dtype=np.int64) * 2.0 - 1.0
        closest = ((N - cand @ thetas[:M].T) / 2.0).min(axis=1, initial=N)
        inner = (N - cand @ cand.T) / 2.0
        taken = []
        for i in range(B):
            if closest[i] < d_min:
                continue
            min_h = min(min_h, int(closest[i]))
            taken.append(i)
            if M + len(taken) == target:
                break
            np.minimum(closest[i + 1 :], inner[i, i + 1 :], out=closest[i + 1 :])
        thetas[M : M + len(taken)] = cand[taken]
        M += len(taken)
    if M < 2:
        raise NumericError(f"packing failed: only {M} vectors for N={N}")
    thetas = thetas[:M].astype(np.int64)
    thetas.setflags(write=False)
    return PackingSet(N=N, M=M, thetas=thetas, min_hamming=min_h)


def _bump_amplitude(delta: float, spec: SobolevSpec, N: int) -> float:
    """Coefficient size a = delta * N^(-(2 beta + r)/(2r)) of every bump."""
    return delta * N ** (-(2.0 * spec.beta + spec.r) / (2.0 * spec.r))


def hard_alternatives(
    s: Spectrum, spec: SobolevSpec, delta: float, pack: PackingSet
) -> np.ndarray:
    """Spectral bump alternatives, one row per hypothesis.

    Row 0 is the zero base point; row j >= 1 is the signal with eigenbasis
    coefficients a * theta^(j) on the first N coordinates (a as in the module
    docstring).  This is the vertex-space reference for fano_certificate.
    """
    if pack.N > s.n:
        raise ValidationError(f"packing dimension {pack.N} exceeds n={s.n}")
    coeffs = np.zeros((pack.M + 1, s.n))
    coeffs[1:, : pack.N] = _bump_amplitude(delta, spec, pack.N) * pack.thetas
    return np.vstack([gft_inverse(s, c) for c in coeffs])


def _bernoulli_kl_rows(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Bernoulli KL summed along the last axis; rho2 broadcasts against rho1.

    The one home of the formula.  Each row is summed by np.sum over a
    contiguous last axis, so a row of a 2-D block gets exactly the sum of
    the same row passed alone.
    """
    terms = rho1 * np.log(rho1 / rho2) + (1.0 - rho1) * np.log((1.0 - rho1) / (1.0 - rho2))
    return np.sum(terms, axis=-1)


def bernoulli_kl(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """KL divergence between products of Bernoulli distributions.

    Computes sum_i [ rho1 log(rho1/rho2) + (1 - rho1) log((1-rho1)/(1-rho2)) ],
    which is non-negative and zero iff the probability vectors coincide.
    """
    rho1 = np.atleast_1d(np.asarray(rho1, dtype=float))
    rho2 = np.atleast_1d(np.asarray(rho2, dtype=float))
    if rho1.shape != rho2.shape:
        raise ValidationError("probability vectors have different lengths")
    for rho in (rho1, rho2):
        require_probabilities(rho, _PROBABILITY_MESSAGE)
    return float(_bernoulli_kl_rows(rho1.ravel(), rho2.ravel()))


def kl_link_bound_check(
    v1: np.ndarray, v2: np.ndarray, link: LinkFunction
) -> tuple[float, float, bool]:
    """Evaluate the divergence bound K <= n c ||v1 - v2||_n^2 for one pair.

    c is the link's sup|Psi'| * sup|Psi'/(Psi(1-Psi))| (1/4 for the
    sigmoid).  Returns (kl, bound, holds).
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    kl = bernoulli_kl(link.psi(v1), link.psi(v2))
    bound = link.kl_constant * float(np.sum((v1 - v2) ** 2))
    return kl, bound, kl <= bound + 1e-12


def _classification_kl(head: np.ndarray, thetas: np.ndarray, a: float, link: LinkFunction) -> float:
    """Sum over the alternatives of KL(Bernoulli(psi(f_theta)), Bernoulli(psi(0))).

    The vertex values a theta @ head.T are formed a block of rows at a time,
    at most _KL_BLOCK_VALUES values per block, and the per-row divergences
    are added in row order.  No M x n array is built.  The rows are split
    into even blocks, so no block has a single row while n <= 10922: numpy
    sends a one-row product to a matrix-vector BLAS call, which can round
    differently from the product of all M rows.
    """
    n = head.shape[0]
    base = link.psi(np.zeros(n))
    require_probabilities(base, _PROBABILITY_MESSAGE)
    blocks = -(-len(thetas) // max(1, _KL_BLOCK_VALUES // n))
    total = 0.0
    for rows in np.array_split(thetas, blocks):
        rho = link.psi(a * rows @ head.T)
        require_probabilities(rho, _PROBABILITY_MESSAGE)
        for kl in _bernoulli_kl_rows(rho, base):
            total += float(kl)
    return total


def _head_form_sum(s: Spectrum, spec: SobolevSpec, N: int) -> float:
    lam = s.lambdas[:N]
    return float(np.sum(1.0 + s.n ** (2.0 * spec.beta / spec.r) * lam ** spec.beta))


def _sobolev_delta_cap(s: Spectrum, spec: SobolevSpec, N: int) -> float:
    """Largest delta keeping every alternative inside the smoothness ball."""
    total = _head_form_sum(s, spec, N)
    return spec.Q * N ** ((2.0 * spec.beta + spec.r) / (2.0 * spec.r)) / math.sqrt(total)


def _classification_alpha_bound(
    profile: np.ndarray,
    base: np.ndarray,
    spec: SobolevSpec,
    N: int,
    delta: float,
    link: LinkFunction,
) -> float:
    """Upper bound on the certificate's alpha, uniform over sign patterns.

    For a link with Psi(-t) = 1 - Psi(t), such as the sigmoid and its
    rescalings sigmoid(c t), the divergence of Bernoulli(Psi(f)) from the
    base measure Bernoulli(Psi(0)) depends on |f| only and grows with it.
    Per vertex |f_theta(i)| is at most the worst-case sign alignment
    a * profile(i), profile(i) = sum_{j<N} |psi_j(i)|, so evaluating the
    Bernoulli divergence exactly at that amplitude bounds every pair.
    base is the base measure's link.psi(0) at every vertex.
    """
    amps = _bump_amplitude(delta, spec, N) * profile
    worst_kl = bernoulli_kl(link.psi(amps), base)
    m = _vg_target(N)
    return (m / (m + 1.0)) * worst_kl / math.log(m)


def calibrate_delta(
    s: Spectrum, spec: SobolevSpec, N: int, link: LinkFunction | None = None
) -> float:
    """Largest bump amplitude passing both certificate conditions.

    Condition (a): the common Sobolev form of the alternatives stays within
    Q^2; its solution delta_a is closed-form.  Condition (b): the
    classification KL budget (the given link, sigmoid if None; worst pair
    bound) gives alpha <= 1/2; enforced by bisection below delta_a when
    needed.  The bisection keeps bound(lo) <= 1/2 < bound(hi), so once the
    midpoint rounds to lo or hi neither end can move again: it stops there,
    after about 55 steps, with the delta that 100 steps would return.
    """
    if N > s.n:
        raise ValidationError(f"packing dimension {N} exceeds n={s.n}")
    link = sigmoid_link() if link is None else link
    profile = np.abs(require_basis(s)[:, :N]).sum(axis=1)
    base = link.psi(np.zeros(s.n))

    def within_target(delta: float) -> bool:
        return _classification_alpha_bound(profile, base, spec, N, delta, link) <= _ALPHA_TARGET

    delta_a = _sobolev_delta_cap(s, spec, N) * (1.0 - 1e-9)
    if within_target(delta_a):
        return delta_a
    lo, hi = 0.0, delta_a
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if within_target(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _gaussian_kl(n: int, spec: SobolevSpec, N: int, delta: float, sigma: float) -> float:
    """Exact KL(P_theta, P_0) = n ||f_theta||_n^2 / (2 sigma^2), the same for every theta."""
    return n * _bump_amplitude(delta, spec, N) ** 2 * N / (2.0 * sigma**2)


def _gaussian_calibrated_delta(
    s: Spectrum, spec: SobolevSpec, N: int, sigma: float
) -> float:
    """Regression analogue of calibrate_delta with exact Gaussian KL.

    The KL is delta^2 times its value at delta = 1, so the alpha <= 1/2
    condition is closed-form in delta.
    """
    m = _vg_target(N)
    kl_cap = _ALPHA_TARGET * math.log(m) * (m + 1.0) / m
    delta_b = math.sqrt(kl_cap / _gaussian_kl(s.n, spec, N, 1.0, sigma))
    return min(_sobolev_delta_cap(s, spec, N), delta_b) * (1.0 - 1e-9)


def packing_dimension(n: int, spec: SobolevSpec) -> int:
    """Hypothesis-space dimension ceil(n^(r/(2 beta + r))).

    A tiny slack guards against the float power landing a hair above an
    exact integer and inflating the ceiling.
    """
    return int(math.ceil(n ** (spec.r / (2.0 * spec.beta + spec.r)) - 1e-9))


def fano_certificate(
    s: Spectrum, spec: SobolevSpec, sigma_or_link, seed: int
) -> FanoCertificate:
    """Build and verify a complete lower-bound configuration.

    Pass a LinkFunction for the classification (Bernoulli) certificate or a
    positive noise level sigma for the regression (Gaussian) analogue.
    separation_min, sobolev_max and the Gaussian KL are the closed forms of
    the module docstring, so a regression certificate reads eigenvalues
    only.  The Bernoulli KL is measured on the vertex values of the
    alternatives, a block of rows at a time (_classification_kl), so a
    classification certificate needs O(block + M N) memory beside the
    n x N head profile, never M x n.  The first N eigenvectors the
    alternatives are built from must be orthonormal to 1e-10 (else
    NumericError), which keeps the closed forms self-checking.  The
    recorded seed reproduces the packing.
    """
    N = packing_dimension(s.n, spec)
    if N < 8:
        raise ValidationError(f"n too small for packing (N = {N} < 8)")
    if isinstance(sigma_or_link, LinkFunction):
        mode = "classification"
        link = sigma_or_link
        delta = calibrate_delta(s, spec, N, link)
    else:
        mode = "regression"
        sigma = float(sigma_or_link)
        if not sigma > 0:
            raise ValidationError(f"sigma must be positive, got {sigma_or_link!r}")
        delta = _gaussian_calibrated_delta(s, spec, N, sigma)
    pack = vg_packing(N, seed)
    a = _bump_amplitude(delta, spec, N)
    separation_min = a * math.sqrt(min(N, 4 * pack.min_hamming))
    sobolev_max = a**2 * _head_form_sum(s, spec, N)

    if mode == "classification":
        head = require_basis(s)[:, :N]
        gram_err = float(np.abs(head.T @ head / s.n - np.eye(N)).max())
        if gram_err > _ORTHONORMAL_TOL:
            raise NumericError(f"first {N} eigenvectors are not orthonormal: {gram_err:.3e}")
        kl_total = _classification_kl(head, pack.thetas, a, link)
    else:
        kl_total = pack.M * _gaussian_kl(s.n, spec, N, delta, sigma)
    kl_budget = kl_total / (pack.M + 1)
    alpha = kl_budget / math.log(pack.M)
    fano_bound = (math.log(pack.M + 1) - math.log(2.0)) / math.log(pack.M) - alpha

    return FanoCertificate(
        n=s.n,
        beta=spec.beta,
        r=spec.r,
        Q=spec.Q,
        N=N,
        M=pack.M,
        delta=float(delta),
        separation_min=separation_min,
        sobolev_max=float(sobolev_max),
        kl_budget=kl_budget,
        alpha=float(alpha),
        fano_bound=float(fano_bound),
        valid=bool(sobolev_max <= spec.Q**2 and alpha < 1.0 and separation_min > 0.0),
        seed=int(seed),
        mode=mode,
    )


def worst_case_prior_sample(
    plan: ShrinkagePlan, w: EllipsoidWeights, delta_prior: float, seed: int
) -> np.ndarray:
    """Draw coefficients from the near-least-favourable Gaussian prior.

    Coordinates j < N get independent centred Gaussians with variance
    (1 - delta_prior) * v_j^2 where v_j^2 = eps^2 (1 - x a_j)_+ / (x a_j);
    the rest are zero.  Since sum_j a_j^2 v_j^2 equals the ellipsoid radius
    exactly, the draws saturate the ellipsoid in expectation up to the
    (1 - delta_prior) factor.
    """
    if not 0.0 < delta_prior < 1.0:
        raise ValidationError(f"delta_prior must be in (0, 1), got {delta_prior!r}")
    v2 = np.zeros_like(w.a)
    active = plan.l > 0.0
    v2[active] = plan.epsilon**2 * plan.l[active] / (plan.x * w.a[active])
    rng = np.random.default_rng(seed)
    return rng.standard_normal(len(v2)) * np.sqrt((1.0 - delta_prior) * v2)


def certificate_csv_text(cert: FanoCertificate) -> str:
    """Certificate as a one-row CSV."""
    header = (
        "n,beta,r,Q,N,M,delta,separation_min,sobolev_max,"
        "kl_budget,alpha,fano_bound,valid,seed"
    )
    row = ",".join(
        [
            str(cert.n),
            f"{cert.beta:.12g}",
            f"{cert.r:.12g}",
            f"{cert.Q:.12g}",
            str(cert.N),
            str(cert.M),
            f"{cert.delta:.12g}",
            f"{cert.separation_min:.12g}",
            f"{cert.sobolev_max:.12g}",
            f"{cert.kl_budget:.12g}",
            f"{cert.alpha:.12g}",
            f"{cert.fano_bound:.12g}",
            "true" if cert.valid else "false",
            str(cert.seed),
        ]
    )
    return header + "\n" + row + "\n"
