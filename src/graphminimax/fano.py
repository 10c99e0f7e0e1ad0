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

Both modes therefore take delta from one rule: the largest value with the
alternatives in the ball and alpha <= 1/2 for this KL, and both read the
eigenvalues alone.  Parseval needs an orthonormal eigenbasis, which
eigendecompose checks where it makes one; the link's bound is a property
of the link alone, tested pointwise by ``_check_kl_constant``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._text import csv_text
from .errors import NumericError, ValidationError, _check_integer, _check_real, _check_seed
from .graphs import DEFAULT_DENSE_CAP
from .pinsker import LinkFunction, ShrinkagePlan, require_probabilities
from .sobolev import EllipsoidWeights, SobolevSpec, _spectral_weights_sq
from .spectral import Spectrum, _axis_factors

_ALPHA_TARGET = 0.5
_PACKING_ATTEMPT_FACTOR = 1000
# The greedy packing costs O(target^2 N) time; N <= 96 keeps its target 2^(N/8) within 4096.
_PACKING_DIMENSION_CAP = 96
# Candidates drawn per rng call and compared per pair of matrix products.
_PACKING_BLOCK = 64
_PROBABILITY_MESSAGE = "probabilities must lie strictly inside (0, 1)"
# Points at which _check_kl_constant tests a link: |t| <= T in steps of T/512, 0 among them.
_KL_GRID_POINTS = 1025


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
    """Classical packing size floor(2^(N/8)) of a packing dimension N in [8, 96].

    N is checked before the power is formed, which overflows a float above N = 8192.
    """
    limit = "the greedy packing limit 8 log2(4096)"
    N = _check_integer(N, "packing dimension N", 8, _PACKING_DIMENSION_CAP, limit)
    return math.floor(2.0 ** (N / 8.0))


def vg_packing(N: int, seed: int) -> PackingSet:
    """Randomized greedy packing of the +/-1 hypercube.

    Draws uniform sign vectors and accepts a candidate iff it disagrees
    with every accepted vector in at least ceil(N/8) coordinates, stopping
    at floor(2^(N/8)) accepted vectors or after 1000x that many candidates.
    N must be an integer in [8, 96].  Deterministic given the seed, a
    non-negative integer.

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
    target = _vg_target(N)
    d_min = math.ceil(N / 8)
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
    This is the vertex-space reference for fano_certificate, which builds
    no vertex values of its alternatives.
    """
    _check_integer(pack.N, "packing dimension N", 1, s.n)
    coeffs = np.zeros((pack.M + 1, pack.N))
    coeffs[1:] = _bump_amplitude(delta, spec, pack.N) * pack.thetas
    return _axis_factors(s, pack.N).synthesize(coeffs)


def _bernoulli_kl_terms(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """The per-coordinate terms of bernoulli_kl, after its checks of rho1 and rho2."""
    rho1 = np.atleast_1d(np.asarray(rho1, dtype=float))
    rho2 = np.atleast_1d(np.asarray(rho2, dtype=float))
    if rho1.shape != rho2.shape:
        raise ValidationError("probability vectors have different lengths")
    for rho in (rho1, rho2):
        require_probabilities(rho, _PROBABILITY_MESSAGE)
    return rho1 * np.log(rho1 / rho2) + (1.0 - rho1) * np.log((1.0 - rho1) / (1.0 - rho2))


def bernoulli_kl(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """KL divergence between products of Bernoulli distributions.

    Computes sum_i [ rho1 log(rho1/rho2) + (1 - rho1) log((1-rho1)/(1-rho2)) ],
    which is non-negative and zero iff the probability vectors coincide.
    """
    return float(np.sum(_bernoulli_kl_terms(rho1, rho2)))


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


def _alpha(kl: float, m: int) -> float:
    """alpha of a per-alternative KL with m alternatives."""
    return (m / (m + 1.0)) * kl / math.log(m)


def _check_kl_constant(link: LinkFunction) -> None:
    """NumericError unless phi(t) = KL(Bern(psi(t)) || Bern(psi(0))) <= (c / 2) t^2.

    c = link.kl_constant > 0.  The bound is tested at _KL_GRID_POINTS evenly
    spaced t in [-T, T], T^2 = 2 max(-log q, -log(1 - q)) / c with q = psi(0);
    past T it holds for every link, as no KL to Bern(q) exceeds
    max(log 1/q, log 1/(1 - q)).  A psi outside (0, 1) raises ValidationError.
    """
    q = link.psi(np.zeros(1))
    require_probabilities(q, _PROBABILITY_MESSAGE)
    reach = -2.0 * math.log(min(q[0], 1.0 - q[0])) / link.kl_constant
    t = math.sqrt(reach) * np.linspace(-1.0, 1.0, _KL_GRID_POINTS)
    excess = _bernoulli_kl_terms(link.psi(t), np.broadcast_to(q, t.shape))
    excess -= 0.5 * link.kl_constant * t * t * (1.0 + 1e-12)
    if not np.all(excess <= 0.0):
        raise NumericError(
            f"link {link.name!r}: its KL exceeds (c / 2) t^2 at t = {t[np.argmax(excess)]:.6g}; "
            "sup_dpsi * sup_ratio is not a KL constant"
        )


def _kl_per_alternative(kappa: float, n: int, spec: SobolevSpec, N: int, delta: float) -> float:
    """kappa n a^2 N: the Gaussian KL(P_theta, P_0) when kappa = 1/(2 sigma^2), exactly, and
    the bound on the Bernoulli KL when kappa = c/2 for the link's constant c."""
    return kappa * n * _bump_amplitude(delta, spec, N) ** 2 * N


def packing_dimension(n: int, spec: SobolevSpec) -> int:
    """Hypothesis-space dimension ceil(n^(r/(2 beta + r))).

    A tiny slack guards against the float power landing a hair above an
    exact integer and inflating the ceiling.
    """
    n = _check_integer(n, "n", 1, DEFAULT_DENSE_CAP**2, "DEFAULT_DENSE_CAP**2")
    return int(math.ceil(n ** (spec.r / (2.0 * spec.beta + spec.r)) - 1e-9))


def fano_certificate(
    s: Spectrum, spec: SobolevSpec, sigma_or_link, seed: int
) -> FanoCertificate:
    """Build and verify a complete lower-bound configuration.

    Pass a LinkFunction for the classification (Bernoulli) certificate or a
    positive noise level sigma for the regression (Gaussian) analogue.
    Both modes take the per-alternative KL kappa n a^2 N from
    ``_kl_per_alternative``: kappa = 1/(2 sigma^2), or c/2 for a link with
    KL constant c, whose Bernoulli KL it bounds.  delta is the largest value
    that keeps the alternatives in the ball and alpha <= 1/2 at the
    packing's actual M, times (1 - 1e-9); every other field is a closed form
    of the module docstring.  So the two modes share one rule, and a link
    certificate equals the regression certificate at sigma = 1/sqrt(c) in
    every field but mode.  Both modes read the eigenvalues alone, so an
    eigenvalues-only spectrum serves them.  A link's constant must bound its
    KL, which ``_check_kl_constant`` tests on the link alone; a NumericError
    otherwise.  The recorded seed reproduces the packing.  The packing
    dimension must lie in [8, 96]; both modes check it before any packing
    is built.
    """
    seed = _check_seed(seed)
    N = packing_dimension(s.n, spec)
    _vg_target(N)  # N in [8, 96], in both modes before any packing
    if isinstance(sigma_or_link, LinkFunction):
        mode, kappa = "classification", 0.5 * sigma_or_link.kl_constant
        what = f"the KL at delta = 1 for link {sigma_or_link.name!r}"
    else:
        mode, sigma = "regression", _check_real(sigma_or_link, "sigma")
        kappa = 0.5 / _check_real(sigma * sigma, f"sigma^2 for sigma={sigma}")
        what = f"the KL at delta = 1 for sigma={sigma}"
    pack = vg_packing(N, seed)
    weights = float(np.sum(_spectral_weights_sq(s, spec)[:N]))  # the Sobolev form at a = 1
    cap = spec.Q * N ** ((2.0 * spec.beta + spec.r) / (2.0 * spec.r)) / math.sqrt(weights)
    # alpha is delta^2 times its value at delta = 1, so alpha <= 1/2 solves for delta
    kl_one = _check_real(_kl_per_alternative(kappa, s.n, spec, N, 1.0), what)
    if mode == "classification":
        _check_kl_constant(sigma_or_link)
    delta = min(cap, math.sqrt(_ALPHA_TARGET / _alpha(kl_one, pack.M))) * (1.0 - 1e-9)
    a = _bump_amplitude(delta, spec, N)
    separation_min = a * math.sqrt(min(N, 4 * pack.min_hamming))
    sobolev_max = a**2 * weights
    kl_budget = pack.M * _kl_per_alternative(kappa, s.n, spec, N, delta) / (pack.M + 1)
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
    (1 - delta_prior) factor.  The plan must have one weight per ellipsoid
    weight; ValidationError otherwise.
    """
    _check_real(delta_prior, "delta_prior", hi=1)
    if len(plan.l) != len(w.a):
        raise ValidationError(f"plan has {len(plan.l)} weights for {len(w.a)} ellipsoid weights")
    v2 = np.zeros_like(w.a)
    active = plan.l > 0.0
    v2[active] = plan.epsilon**2 * plan.l[active] / (plan.x * w.a[active])
    rng = np.random.default_rng(_check_seed(seed))
    return rng.standard_normal(len(v2)) * np.sqrt((1.0 - delta_prior) * v2)


def certificate_csv_text(cert: FanoCertificate) -> str:
    """Certificate as a one-row CSV: every field but mode, in field order."""
    row = [getattr(cert, name) for name in _CERTIFICATE_COLUMNS]
    return csv_text(",".join(_CERTIFICATE_COLUMNS), [row])
