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
vectors.  With c = link.kl_constant, phi(t) = KL(Bern(psi(t)) || Bern(psi(0)))
<= c t^2 / 2 at every vertex, so Parseval gives the closed-form bound

    Bernoulli KL(P_theta, P_0) <= (c / 2) n a^2 N.

Only the calibration of delta measures the Bernoulli KL, at the worst-case
vertex amplitudes a sum_{j<N} |psi_j| of the first N eigenvectors' per-axis
factors (``spectral._axis_factors``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._text import csv_text
from .errors import NumericError, ValidationError, _check_integer, _check_seed
from .pinsker import LinkFunction, ShrinkagePlan, require_probabilities, sigmoid_link
from .sobolev import EllipsoidWeights, SobolevSpec, _spectral_weights_sq
from .spectral import Spectrum, _axis_factors, _check_orthonormal

_ALPHA_TARGET = 0.5
_PACKING_ATTEMPT_FACTOR = 1000
# The greedy packing costs O(target^2 N) time; 4096 = 2^(96/8) allows N <= 96.
_PACKING_TARGET_CAP = 4096
# Candidates drawn per rng call and compared per pair of matrix products.
_PACKING_BLOCK = 64
# Vertex values the calibration's profile expands at once.  Its blocks
# (8192 doubles, 64 KiB) stay below glibc's 128 KiB mmap threshold, so they
# come from the heap instead of fresh pages on each call of a new process.
_KL_BLOCK_VALUES = 8192
_PROBABILITY_MESSAGE = "probabilities must lie strictly inside (0, 1)"


@dataclass(frozen=True, eq=False)
class PackingSet:
    """Well-separated +/-1 vectors: pairwise disagreement >= ceil(N/8).

    Packings compare and hash by identity.
    """

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


_CERTIFICATE_COLUMNS = tuple(f.name for f in fields(FanoCertificate) if f.name != "mode")


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
    Deterministic given the seed, a non-negative integer.

    Candidates come in blocks of 64 from one rng call, which yields the same
    stream as one draw per candidate.  Each block takes one product with the
    accepted rows and one with itself, in float64 through BLAS; the dot
    products of +/-1 vectors are integers of size <= N, so they are exact.
    When every distance of the block's first t = min(64, target - M)
    candidates, to the accepted rows and among themselves, is at least
    ceil(N/8), all t are taken at once; otherwise an accept scan runs in
    candidate order over those distances.  Either way the result equals
    the one-candidate-at-a-time greedy loop.
    """
    if _check_integer(N, "packing dimension N") < 8:
        raise ValidationError(f"packing needs N >= 8, got {N}")
    d_min = math.ceil(N / 8)
    target = _vg_target(N)
    rng = np.random.default_rng(_check_seed(seed))
    thetas = np.empty((target, N))
    M, min_h = 0, N
    budget = _PACKING_ATTEMPT_FACTOR * target
    while M < target and budget > 0:
        B = min(_PACKING_BLOCK, budget)
        budget -= B
        cand = rng.integers(0, 2, size=(B, N), dtype=np.int64) * 2.0 - 1.0
        closest = ((N - cand @ thetas[:M].T) / 2.0).min(axis=1, initial=N)
        inner = (N - cand @ cand.T) / 2.0
        t = min(B, target - M)
        np.fill_diagonal(inner, N)  # a candidate's distance to itself bars nothing
        nearest = min(closest[:t].min(), inner[:t, :t].min())
        if nearest >= d_min:
            thetas[M : M + t] = cand[:t]
            M += t
            min_h = min(min_h, int(nearest))
            continue
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
    docstring), synthesized in one block from the first N columns' factors.
    This is the vertex-space reference for fano_certificate.
    """
    if pack.N > s.n:
        raise ValidationError(f"packing dimension {pack.N} exceeds n={s.n}")
    coeffs = np.zeros((pack.M + 1, pack.N))
    coeffs[1:] = _bump_amplitude(delta, spec, pack.N) * pack.thetas
    return _axis_factors(s, pack.N).synthesize(coeffs)


def bernoulli_kl(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """KL divergence between products of Bernoulli distributions.

    Computes sum_i [ rho1 log(rho1/rho2) + (1 - rho1) log((1-rho1)/(1-rho2)) ],
    which is non-negative and zero iff the probability vectors coincide.
    The two terms are formed in place, so at most three arrays of rho1's
    size exist beside the inputs.
    """
    rho1 = np.atleast_1d(np.asarray(rho1, dtype=float))
    rho2 = np.atleast_1d(np.asarray(rho2, dtype=float))
    if rho1.shape != rho2.shape:
        raise ValidationError("probability vectors have different lengths")
    for rho in (rho1, rho2):
        require_probabilities(rho, _PROBABILITY_MESSAGE)
    rho1, rho2 = rho1.ravel(), rho2.ravel()
    terms = rho1 / rho2
    np.log(terms, out=terms)
    terms *= rho1
    rest = 1.0 - rho1
    ratio = rest / (1.0 - rho2)
    np.log(ratio, out=ratio)
    ratio *= rest
    terms += ratio
    return float(np.sum(terms))


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


def _sobolev_delta_cap(s: Spectrum, spec: SobolevSpec, N: int) -> float:
    """Largest delta keeping every alternative inside the smoothness ball."""
    total = float(np.sum(_spectral_weights_sq(s, spec)[:N]))
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
    base is the base measure's link.psi(0) at every vertex.  Link values
    that round to 0 or 1 give inf; NaN still raises in bernoulli_kl.
    """
    rho = link.psi(_bump_amplitude(delta, spec, N) * profile)
    if not np.all((rho > 0.0) & (rho < 1.0)) and np.all((rho >= 0.0) & (rho <= 1.0)):
        return math.inf
    return _alpha(bernoulli_kl(rho, base), _vg_target(N))


def _alpha(kl: float, m: int) -> float:
    """alpha of a per-alternative KL at packing target m."""
    return (m / (m + 1.0)) * kl / math.log(m)


def _head_profile(s: Spectrum, N: int) -> np.ndarray:
    """profile(i) = sum_{j<N} |psi_j(i)|, column by column.

    The columns are expanded from their per-axis factors a block of at most
    max(1, _KL_BLOCK_VALUES // n) at a time, exactly as the head's columns
    are, and added one by one in the order np.abs(head).sum(axis=1) adds
    those of the column-major head.  So the result is the same bit for bit
    at any block size, in O(block) memory beside the factors; the block is
    small enough to be served from the heap (see _KL_BLOCK_VALUES).
    """
    factors = _axis_factors(s, N)
    profile = np.zeros(s.n)
    step = max(1, _KL_BLOCK_VALUES // s.n)
    for j0 in range(0, N, step):
        for term in np.abs(factors.rows(j0, min(N, j0 + step))):
            profile += term
    return profile


def calibrate_delta(
    s: Spectrum, spec: SobolevSpec, N: int, link: LinkFunction | None = None
) -> float:
    """Largest bump amplitude passing both certificate conditions.

    Condition (a): the common Sobolev form of the alternatives stays within
    Q^2; its solution delta_a is closed-form.  Condition (b): the worst-case
    vertex KL (the given link, sigmoid if None) gives alpha <= 1/2; enforced
    below delta_a when needed.  The search keeps bound(lo) <= 1/2 <
    bound(hi) and stops, like a bisection, once the midpoint rounds to lo or
    hi, so it returns a 100-step bisection's delta while the bound grows with
    delta.  It probes at the root delta sqrt(1/2 / bound(delta)) of the
    quadratic model through the last probe (phi(t) ~ c t^2 / 2), else at
    the midpoint: about 10 bound evaluations, not 55.  A probe whose link
    values round to 0 or 1 counts as above the target.  At the returned
    delta the measured KL must stay within (c / 2) a^2 sum profile^2, else
    NumericError (see LinkFunction).
    """
    if N > s.n:
        raise ValidationError(f"packing dimension {N} exceeds n={s.n}")
    link = sigmoid_link() if link is None else link
    profile = _head_profile(s, N)
    base = link.psi(np.zeros(s.n))
    delta = _sobolev_delta_cap(s, spec, N) * (1.0 - 1e-9)
    lo, hi, bound_lo = 0.0, delta, 0.0
    while True:
        bound = _classification_alpha_bound(profile, base, spec, N, delta, link)
        if bound <= _ALPHA_TARGET:
            lo, bound_lo = delta, bound
        else:
            hi = delta
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        root = delta * math.sqrt(_ALPHA_TARGET / bound) if bound > 0.0 else hi
        if lo < root < hi:
            delta = root
        elif (root <= lo) == (delta == lo):
            # the root rounds onto or past the last probe, whose bound is 1/2
            # to rounding: the threshold is next to it
            delta = math.nextafter(delta, hi if delta == lo else lo)
        else:
            delta = mid
    a = _bump_amplitude(lo, spec, N)
    quadratic = _alpha(0.5 * link.kl_constant * a**2 * float(profile @ profile), _vg_target(N))
    if not bound_lo <= quadratic * (1.0 + 1e-12):
        raise NumericError(
            f"link {link.name!r}: worst-case KL (alpha {bound_lo:.6g}) exceeds its quadratic "
            f"bound (alpha {quadratic:.6g}); sup_dpsi * sup_ratio is not a KL constant"
        )
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
    Every field but delta is a closed form of the module docstring, the
    Bernoulli KL through its bound.  So a regression certificate reads
    eigenvalues only, and a classification certificate reads eigenvectors
    only for delta's profile, the one way it depends on the basis inside a
    repeated eigenvalue, and for Parseval's premise: each per-axis factor of
    the first N eigenvectors must pass ``spectral._check_orthonormal``
    (else NumericError).  The recorded seed reproduces the packing.
    """
    seed = _check_seed(seed)
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
        if not 0 < sigma < math.inf:
            raise ValidationError(f"sigma must be positive and finite, got {sigma_or_link!r}")
        delta = _gaussian_calibrated_delta(s, spec, N, sigma)
    pack = vg_packing(N, seed)
    a = _bump_amplitude(delta, spec, N)
    separation_min = a * math.sqrt(min(N, 4 * pack.min_hamming))
    sobolev_max = a**2 * float(np.sum(_spectral_weights_sq(s, spec)[:N]))

    if mode == "classification":
        for v in _axis_factors(s, N).vectors:
            _check_orthonormal(v, 0, f"first {N} eigenvectors")
        kl_total = pack.M * 0.5 * link.kl_constant * s.n * a**2 * N
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
        seed=seed,
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
    rng = np.random.default_rng(_check_seed(seed))
    return rng.standard_normal(len(v2)) * np.sqrt((1.0 - delta_prior) * v2)


def certificate_csv_text(cert: FanoCertificate) -> str:
    """Certificate as a one-row CSV: every field but mode, in field order."""
    row = [getattr(cert, name) for name in _CERTIFICATE_COLUMNS]
    return csv_text(",".join(_CERTIFICATE_COLUMNS), [row])
