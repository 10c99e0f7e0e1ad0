"""Information-theoretic lower-bound machinery.

The pipeline builds a family of well-separated smooth alternatives and
checks the two conditions a Fano-type argument needs: every alternative
stays inside the smoothness ball, and the averaged Kullback-Leibler
divergence to the base measure stays below alpha * log M with alpha < 1.
A FanoCertificate records the whole configuration so it can be re-verified
from its seed.

Hamming distance here always counts DISAGREEING coordinates of two +/-1
vectors; that is the convention under which the separation identity

    ||f_theta - f_theta'||_n^2 = 4 delta^2 N^(-(2 beta + r)/r) d_h

holds exactly for the spectral bump alternatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .pinsker import LinkFunction, ShrinkagePlan, sigmoid_link
from .sobolev import EllipsoidWeights, SobolevSpec, sobolev_form
from .spectral import Spectrum, gft_inverse, require_basis

_ALPHA_TARGET = 0.5
_PACKING_ATTEMPT_FACTOR = 1000
_PACKING_TARGET_CAP = 65536


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
            f"packing target {target} for N={N} is infeasible to construct greedily"
        )
    return target


def vg_packing(N: int, seed: int) -> PackingSet:
    """Randomized greedy packing of the +/-1 hypercube.

    Draws uniform sign vectors and accepts a candidate iff it disagrees
    with every accepted vector in at least ceil(N/8) coordinates, stopping
    at floor(2^(N/8)) accepted vectors or after 1000x that many attempts.
    Deterministic given the seed.
    """
    if N < 8:
        raise ValidationError(f"packing needs N >= 8, got {N}")
    d_min = math.ceil(N / 8)
    target = _vg_target(N)
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    attempts = 0
    max_attempts = _PACKING_ATTEMPT_FACTOR * target
    while len(accepted) < target and attempts < max_attempts:
        attempts += 1
        cand = rng.integers(0, 2, size=N, dtype=np.int64) * 2 - 1
        if accepted:
            dots = np.asarray(accepted) @ cand
            if ((N - dots) // 2).min() < d_min:
                continue
        accepted.append(cand)
    if len(accepted) < 2:
        raise NumericError(f"packing failed: only {len(accepted)} vectors for N={N}")
    thetas = np.asarray(accepted)
    gram = thetas @ thetas.T
    dists = (N - gram) // 2
    min_h = int(dists[~np.eye(len(accepted), dtype=bool)].min())
    thetas.setflags(write=False)
    return PackingSet(N=N, M=len(accepted), thetas=thetas, min_hamming=min_h)


def hard_alternatives(
    s: Spectrum, spec: SobolevSpec, delta: float, pack: PackingSet
) -> np.ndarray:
    """Spectral bump alternatives, one row per hypothesis.

    Row 0 is the zero base point; row j >= 1 is the signal with eigenbasis
    coefficients delta * N^(-(2 beta + r)/(2r)) * theta^(j) on the first N
    coordinates.
    """
    if pack.N > s.n:
        raise ValidationError(f"packing dimension {pack.N} exceeds n={s.n}")
    scale = delta * pack.N ** (-(2.0 * spec.beta + spec.r) / (2.0 * spec.r))
    coeffs = np.zeros((pack.M + 1, s.n))
    coeffs[1:, : pack.N] = scale * pack.thetas
    return np.vstack([gft_inverse(s, c) for c in coeffs])


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
        if np.any(rho <= 0.0) or np.any(rho >= 1.0):
            raise ValidationError("probabilities must lie strictly inside (0, 1)")
    return float(
        np.sum(rho1 * np.log(rho1 / rho2) + (1.0 - rho1) * np.log((1.0 - rho1) / (1.0 - rho2)))
    )


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


def _head_form_sum(s: Spectrum, spec: SobolevSpec, N: int) -> float:
    lam = s.lambdas[:N]
    return float(np.sum(1.0 + s.n ** (2.0 * spec.beta / spec.r) * lam ** spec.beta))


def _sobolev_delta_cap(s: Spectrum, spec: SobolevSpec, N: int) -> float:
    """Largest delta keeping every alternative inside the smoothness ball."""
    total = _head_form_sum(s, spec, N)
    return spec.Q * N ** ((2.0 * spec.beta + spec.r) / (2.0 * spec.r)) / math.sqrt(total)


def _classification_alpha_bound(
    s: Spectrum, spec: SobolevSpec, N: int, delta: float, link: LinkFunction
) -> float:
    """Upper bound on the certificate's alpha, uniform over sign patterns.

    Per vertex the divergence from the base measure Psi(0) = 1/2 grows with
    |f_theta(i)|, which is at most the worst-case sign alignment
    delta * N^(-(2 beta + r)/(2r)) * sum_j |psi_j(i)|.  Evaluating the
    Bernoulli divergence exactly at that amplitude bounds every pair.
    """
    scale = delta * N ** (-(2.0 * spec.beta + spec.r) / (2.0 * spec.r))
    amps = scale * np.abs(require_basis(s)[:, :N]).sum(axis=1)
    worst_kl = bernoulli_kl(link.psi(amps), np.full(s.n, 0.5))
    m = _vg_target(N)
    return (m / (m + 1.0)) * worst_kl / math.log(m)


def calibrate_delta(s: Spectrum, spec: SobolevSpec, N: int) -> float:
    """Largest bump amplitude passing both certificate conditions.

    Condition (a): the common Sobolev form of the alternatives stays within
    Q^2; its solution delta_a is closed-form.  Condition (b): the
    classification KL budget (sigmoid link, worst pair bound) gives
    alpha <= 1/2; enforced by bisection below delta_a when needed.
    """
    if N > s.n:
        raise ValidationError(f"packing dimension {N} exceeds n={s.n}")
    link = sigmoid_link()
    delta_a = _sobolev_delta_cap(s, spec, N) * (1.0 - 1e-9)
    if _classification_alpha_bound(s, spec, N, delta_a, link) <= _ALPHA_TARGET:
        return delta_a
    lo, hi = 0.0, delta_a
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _classification_alpha_bound(s, spec, N, mid, link) <= _ALPHA_TARGET:
            lo = mid
        else:
            hi = mid
    return lo


def _gaussian_calibrated_delta(
    s: Spectrum, spec: SobolevSpec, N: int, sigma: float
) -> float:
    """Regression analogue of calibrate_delta with exact Gaussian KL.

    Shifted Gaussian product measures give K(P_j, P_0) = n ||f_j||_n^2 /
    (2 sigma^2) = n delta^2 N^(-2 beta / r) / (2 sigma^2) for every full
    sign pattern, so the alpha <= 1/2 condition is closed-form in delta.
    """
    m = _vg_target(N)
    kl_cap = _ALPHA_TARGET * math.log(m) * (m + 1.0) / m
    delta_b = math.sqrt(2.0 * sigma**2 * kl_cap / (s.n * N ** (-2.0 * spec.beta / spec.r)))
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
    positive noise level sigma for the regression (Gaussian) analogue.  The
    divergence budget is computed exactly on the constructed alternatives;
    the recorded seed reproduces the packing, so certificates re-validate.
    """
    N = packing_dimension(s.n, spec)
    if N < 8:
        raise ValidationError(f"n too small for packing (N = {N} < 8)")
    if isinstance(sigma_or_link, LinkFunction):
        mode = "classification"
        link = sigma_or_link
        sigma = None
        delta = calibrate_delta(s, spec, N)
    else:
        mode = "regression"
        link = None
        sigma = float(sigma_or_link)
        if not sigma > 0:
            raise ValidationError(f"sigma must be positive, got {sigma_or_link!r}")
        delta = _gaussian_calibrated_delta(s, spec, N, sigma)
    pack = vg_packing(N, seed)
    alts = hard_alternatives(s, spec, delta, pack)

    gram = alts @ alts.T / s.n
    sq = np.diag(gram)
    dist2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    separation_min = float(np.sqrt(dist2[~np.eye(len(alts), dtype=bool)].min()))

    sobolev_max = max(sobolev_form(s, spec, f) for f in alts)

    if mode == "classification":
        base = link.psi(alts[0])
        kls = [bernoulli_kl(link.psi(f), base) for f in alts[1:]]
    else:
        kls = [s.n * float(np.mean(f**2)) / (2.0 * sigma**2) for f in alts[1:]]
    kl_budget = float(sum(kls)) / (pack.M + 1)
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
