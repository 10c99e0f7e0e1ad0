"""Linear minimax shrinkage over coefficient ellipsoids.

Observing Z_j = c_j + eps * zeta_j with eps = sigma / sqrt(n), the linear
estimator with weights l has exact risk

    R(l, c) = sum_j ( (1 - l_j)^2 c_j^2 + eps^2 l_j^2 ).

Over the ellipsoid sum a_j^2 c_j^2 <= R the minimax linear weights are
l'_j = (1 - x a_j)_+ where x > 0 solves

    (eps^2 / x) sum_j a_j (1 - x a_j)_+ = R,                      (*)

and the attained worst-case risk is S = eps^2 sum_j l'_j.  The solver
below computes the active-set size N by an upward scan, evaluates the
closed-form root on that support, and then double-checks both equation (*)
and an independent bisection before returning, so every emitted plan is
self-consistent to tight tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError, _check_integer
from .sobolev import EllipsoidWeights, SobolevSpec
from .spectral import Spectrum, _axis_factors

_EQ_RTOL = 1e-8
_BISECT_ATOL = 1e-10
_CLIP_ETA = 1e-3
_LOGIT_MESSAGE = "inverse link needs probabilities strictly inside (0, 1)"


@dataclass(frozen=True, eq=False)
class ShrinkagePlan:
    """Frozen shrinkage schedule for one (spectrum, ball, noise) triple.

    N is the cutoff (weights vanish from index N on), x the root of the
    ellipsoid equation, l the weight sequence (1 - x a_j)_+, S the linear
    minimax risk eps^2 * sum(l), and epsilon the noise scale sigma/sqrt(n).
    Plans compare and hash by identity.
    """

    N: int
    x: float
    l: np.ndarray
    S: float
    epsilon: float


def cutoff_N(w: EllipsoidWeights, epsilon: float) -> int:
    """Size of the active set of the minimax weights.

    Returns the largest m such that

        eps^2 * sum_{j<m} a_j (a_{m-1} - a_j)  <  R,

    i.e. the pivot weight is the top weight of the candidate support
    {0..m-1}, which makes the m = 1 term exactly zero and matches the
    closed-form root's active set.  The left side is non-decreasing in m,
    so a single scan (here vectorized via prefix sums) suffices.
    """
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    a = w.a
    s1 = np.cumsum(a)
    s2 = np.cumsum(a**2)
    gap = epsilon**2 * (a * s1 - s2)  # gap[m-1] is the sum for support size m
    return int(np.count_nonzero(gap < w.R))


def _equation_lhs(a: np.ndarray, epsilon: float, x: float) -> float:
    return epsilon**2 / x * float(np.sum(a * np.maximum(1.0 - x * a, 0.0)))


def solve_x(w: EllipsoidWeights, epsilon: float, N: int) -> float:
    """Root of the ellipsoid equation (*) on the active set {0..N-1}.

    Uses the closed form

        x = eps^2 sum_{j<N} a_j / (R + eps^2 sum_{j<N} a_j^2)

    and verifies it two ways: the defining equation must hold to 1e-8
    relative, and an independent bisection of the monotone left side on
    (0, 1/a_0) must agree to 1e-10.  A failure of either check signals an
    inconsistent N and raises NumericError.  Once its bracket [lo, hi] is
    found, the bisection sums (*) only over the weights with a_j lo < 1,
    picked by a mask: every other term is exactly 0 at every x >= lo, in
    whatever order a is given.
    """
    a = w.a
    head = a[:N]
    x = float(epsilon**2 * head.sum() / (w.R + epsilon**2 * np.sum(head**2)))
    if not 0.0 < x < 1.0 / a[0]:
        raise NumericError(f"internal inconsistency: root {x:.6e} outside (0, 1/a_0)")
    if abs(_equation_lhs(a, epsilon, x) - w.R) > _EQ_RTOL * w.R:
        raise NumericError(
            f"internal inconsistency: closed-form root violates the ellipsoid equation "
            f"(N={N}, x={x:.6e})"
        )
    lo, hi = x, 1.0 / a[0]
    while _equation_lhs(a, epsilon, lo) <= w.R:
        lo /= 2.0
        if lo < 1e-300:
            raise NumericError("bisection bracket collapsed")
    active = a[a * lo < 1.0]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _equation_lhs(active, epsilon, mid) > w.R:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    if abs(0.5 * (lo + hi) - x) > _BISECT_ATOL:
        raise NumericError(
            f"internal inconsistency: bisection root {0.5 * (lo + hi):.6e} "
            f"disagrees with closed form {x:.6e}"
        )
    return x


def pinsker_plan(w: EllipsoidWeights, sigma: float, n: int) -> ShrinkagePlan:
    """Minimax linear shrinkage plan for noise level sigma on n vertices.

    n sets the noise scale sigma / sqrt(n) and must be the number of
    weights, one per eigenvalue; ValidationError otherwise.
    """
    if not 0 < sigma < np.inf:
        raise ValidationError(f"sigma must be positive and finite, got {sigma!r}")
    if n != len(w.a):
        raise ValidationError(f"n={n} does not match the {len(w.a)} ellipsoid weights")
    epsilon = sigma / np.sqrt(n)
    N = cutoff_N(w, epsilon)
    x = solve_x(w, epsilon, N)
    l = np.maximum(1.0 - x * w.a, 0.0)
    if np.any(l[N:] > 0.0) or l[N - 1] <= 0.0:
        raise NumericError(f"internal inconsistency: weight support does not match N={N}")
    l.setflags(write=False)
    return ShrinkagePlan(N=N, x=x, l=l, S=float(epsilon**2 * l.sum()), epsilon=float(epsilon))


def _shrink_head(s: Spectrum, y: np.ndarray, l_head: np.ndarray) -> np.ndarray:
    """sum_{j<k} l_j <y, psi_j>_n psi_j with k = len(l_head).

    Only the first k eigenvectors are applied, through their per-axis
    factors (``_AxisFactors.shrink``): O(n k) on a path or an explicit
    head, one matrix product per axis each way on a grid or torus, and no
    n x k array there.  The result is a new array.
    """
    factors = _axis_factors(s, len(l_head))
    y = np.asarray(y, dtype=float)
    if y.shape != (s.n,):
        raise ValidationError(f"signal length {y.shape} does not match n={s.n}")
    return factors.shrink(y, l_head, s.n)


def estimate_regression(s: Spectrum, plan: ShrinkagePlan, y: np.ndarray) -> np.ndarray:
    """Shrink the observed signal coefficient-wise: sum_j l_j Z_j psi_j.

    The weights vanish from plan.N on, so only the first plan.N eigenvectors
    are read; the result equals the inverse GFT of l * Z.
    """
    if len(plan.l) != s.n:
        raise ValidationError(f"plan has {len(plan.l)} weights for a spectrum on n={s.n}")
    return _shrink_head(s, y, plan.l[: plan.N])


def linear_risk(l: np.ndarray, f_coeffs: np.ndarray, epsilon: float) -> float:
    """Exact risk sum((1 - l)^2 f^2 + eps^2 l^2) of a linear estimator."""
    l = np.asarray(l, dtype=float)
    f_coeffs = np.asarray(f_coeffs, dtype=float)
    if l.shape != f_coeffs.shape:
        raise ValidationError("weight and coefficient lengths differ")
    return float(np.sum((1.0 - l) ** 2 * f_coeffs**2 + epsilon**2 * l**2))


def sup_risk_over_ellipsoid(l: np.ndarray, w: EllipsoidWeights, epsilon: float) -> float:
    """Worst-case risk of weights l over the ellipsoid.

    The bias part of R(l, f) is maximized by concentrating all of the
    ellipsoid budget on the coordinate maximizing (1 - l_j)^2 / a_j^2, so

        sup_f R(l, f) = R * max_j (1 - l_j)^2 / a_j^2 + eps^2 sum_j l_j^2.
    """
    l = np.asarray(l, dtype=float)
    return float(w.R * np.max((1.0 - l) ** 2 / w.a**2) + epsilon**2 * np.sum(l**2))


def projection_cutoff(n: int, beta: float, r: float) -> int:
    """Rate-optimal truncation level m = round(n^(r/(2 beta + r))), in [1, n]."""
    SobolevSpec(beta=beta, Q=1.0, r=r)  # ValidationError naming beta or r, by SobolevSpec's rule
    return max(1, min(n, round(n ** (r / (2.0 * beta + r)))))


def projection_estimate(s: Spectrum, y: np.ndarray, m: int) -> np.ndarray:
    """Spectral truncation: keep the first m coefficients, zero the rest.

    Reads only the first m eigenvectors.  m must be an integer (not a bool).
    """
    m = _check_integer(m, "projection cutoff")
    if not 1 <= m <= s.n:
        raise ValidationError(f"projection cutoff must be in [1, {s.n}], got {m}")
    return _shrink_head(s, y, np.ones(m))


@dataclass(frozen=True)
class LinkFunction:
    """Differentiable link R -> (0, 1) with the constants the KL bound needs.

    sup_dpsi bounds |Psi'| and sup_ratio bounds |Psi' / (Psi (1 - Psi))|;
    their product is the constant c in the divergence bound
    K(P_Psi(v1), P_Psi(v2)) <= n c ||v1 - v2||_n^2.  Both must be true
    suprema: certificates take their Bernoulli KL from c alone, and
    calibrate_delta raises NumericError where it sees otherwise.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_inv: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    sup_dpsi: float
    sup_ratio: float

    @property
    def kl_constant(self) -> float:
        return self.sup_dpsi * self.sup_ratio


def _sigmoid(t):
    # exp(-t) overflows to inf for t < -709, which correctly gives 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


def require_probabilities(p: np.ndarray, message: str) -> None:
    """Raise ValidationError(message) unless every entry lies strictly inside (0, 1).

    Written as positive tests on the smallest and the largest entry, which
    are NaN when any entry is, so that NaN entries fail them too; no array
    of p's size is formed.
    """
    if p.size and not (p.min() > 0.0 and p.max() < 1.0):
        raise ValidationError(message)


def _sigmoid_inv(p):
    p = np.asarray(p, dtype=float)
    require_probabilities(p, _LOGIT_MESSAGE)
    return np.log(p / (1.0 - p))


def _sigmoid_deriv(t):
    # exp(-|t|) / (1 + exp(-|t|))^2 is symmetric and never overflows
    e = np.exp(-np.abs(np.asarray(t, dtype=float)))
    return e / (1.0 + e) ** 2


def sigmoid_link() -> LinkFunction:
    """Logistic link Psi(t) = 1 / (1 + exp(-t)).

    Its derivative equals Psi (1 - Psi) identically, so sup_ratio = 1 and
    sup_dpsi = 1/4, giving KL constant 1/4.
    """
    return LinkFunction(
        name="sigmoid",
        psi=_sigmoid,
        psi_inv=_sigmoid_inv,
        dpsi=_sigmoid_deriv,
        sup_dpsi=0.25,
        sup_ratio=1.0,
    )


def estimate_classification(
    s: Spectrum,
    plan: ShrinkagePlan,
    y: np.ndarray,
    mode: str = "direct",
) -> np.ndarray:
    """Estimate the per-vertex success probability from binary labels.

    mode="direct" shrinks the 0/1 labels exactly like regression data
    (their coefficient-wise mean is the coefficient vector of the target
    probability) and clips into [eta, 1 - eta] with eta = 1e-3.
    mode="link" additionally maps the clipped direct estimate through the
    inverse sigmoid, shrinks again on the latent scale, and maps back.

    Every step after a shrink runs in place on the new array the shrink
    returned: the clips, the sigmoid link's psi_inv log(rho / (1 - rho))
    after its check that rho lies inside (0, 1), and its psi
    1 / (1 + exp(-t)).  The result equals the chain through np.clip,
    link.psi_inv and link.psi bit for bit; y and plan are not written.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (s.n,):
        raise ValidationError(f"label length {y.shape} does not match n={s.n}")
    if np.count_nonzero(y == 0.0) + np.count_nonzero(y == 1.0) != y.size:
        raise ValidationError("classification labels must be 0/1")
    if mode not in ("direct", "link"):
        raise ValidationError(f"unknown classification mode {mode!r}")
    eta = _CLIP_ETA
    rho = estimate_regression(s, plan, y)
    np.clip(rho, eta, 1.0 - eta, out=rho)
    if mode == "link":
        require_probabilities(rho, _LOGIT_MESSAGE)
        rho /= 1.0 - rho
        latent = np.log(rho, out=rho)
        rho = estimate_regression(s, plan, latent)
        np.negative(rho, out=rho)
        with np.errstate(over="ignore"):
            np.exp(rho, out=rho)
        rho += 1.0
        np.divide(1.0, rho, out=rho)
        np.clip(rho, eta, 1.0 - eta, out=rho)
    return rho
