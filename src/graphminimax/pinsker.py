"""Linear minimax shrinkage over coefficient ellipsoids.

Observing Z_j = c_j + eps * zeta_j with eps = sigma / sqrt(n), the linear
estimator with weights l has exact risk

    R(l, c) = sum_j ( (1 - l_j)^2 c_j^2 + eps^2 l_j^2 ).

Over the ellipsoid sum a_j^2 c_j^2 <= R the minimax linear weights are
l'_j = (1 - x a_j)_+ where x > 0 solves

    (eps^2 / x) sum_j a_j (1 - x a_j)_+ = R,                      (*)

and the attained worst-case risk is S = eps^2 sum_j l'_j.  The solver
below computes the active-set size N by an upward scan, evaluates the
closed-form root on that support, and then checks both equation (*) and a
two-point bracket of its root before returning, so every emitted plan is
self-consistent to tight tolerance.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError, _check_integer, _check_real
from .graphs import DEFAULT_DENSE_CAP
from .sobolev import EllipsoidWeights, SobolevSpec, ellipsoid_weights
from .spectral import Spectrum, _axis_factors, _vertex_vector

_EQ_RTOL = 1e-8
_ROOT_ATOL = 1e-10
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
    closed-form root's active set.  From m to m + 1 the left side grows by
    eps^2 (a_m - a_{m-1}) sum_{j<m} a_j >= 0, so it is non-decreasing in m
    and is formed here as the running sum of those increments, in which no
    two large terms cancel.
    """
    _check_real(epsilon, "epsilon")
    a = w.a
    with np.errstate(over="ignore"):  # an inf gap is rightly not below R
        # gap[m-1] is the sum for support size m
        gap = epsilon**2 * np.concatenate(([0.0], np.cumsum(np.diff(a) * np.cumsum(a)[:-1])))
    return int(np.count_nonzero(gap < w.R))


def _equation_lhs(a: np.ndarray, epsilon: float, x: float) -> float:
    return epsilon**2 / x * float(np.sum(a * np.maximum(1.0 - x * a, 0.0)))


def _closed_form_root(w: EllipsoidWeights, epsilon: float, N: int) -> tuple[float, float]:
    """Numerator eps^2 sum_{j<N} a_j and root x = numerator / (R + eps^2 sum_{j<N} a_j^2)."""
    head = w.a[:N]
    top = float(epsilon**2 * head.sum())
    return top, float(top / (w.R + epsilon**2 * np.sum(head**2)))


def solve_x(w: EllipsoidWeights, epsilon: float, N: int) -> float:
    """Root of the ellipsoid equation (*) on the active set {0..N-1}.

    Uses the closed form

        x = eps^2 sum_{j<N} a_j / (R + eps^2 sum_{j<N} a_j^2)

    and verifies it two ways: the defining equation must hold to 1e-8
    relative, and a two-point bracket must place the root within
    tol = 1e-10 of x.  The left side of (*) is strictly decreasing in x
    wherever it is positive, so lhs(x - tol) > R >= lhs(x + tol) proves the
    root lies in (x - tol, x + tol]; the lower test is skipped when
    x - tol <= 0, where the left side exceeds every R.  A failure of either
    check signals an inconsistent N and raises NumericError.  N must be an
    integer (not a bool) in [1, len(w.a)] and epsilon positive and finite;
    ValidationError otherwise.
    """
    _check_real(epsilon, "epsilon")
    a = w.a
    x = _closed_form_root(w, epsilon, _check_integer(N, "N", 1, len(a)))[1]
    if not 0.0 < x < 1.0 / a[0]:
        raise NumericError(f"internal inconsistency: root {x:.6e} outside (0, 1/a_0)")
    if abs(_equation_lhs(a, epsilon, x) - w.R) > _EQ_RTOL * w.R:
        raise NumericError(
            f"internal inconsistency: closed-form root violates the ellipsoid equation "
            f"(N={N}, x={x:.6e})"
        )
    lo, hi = x - _ROOT_ATOL, x + _ROOT_ATOL
    if (lo > 0.0 and _equation_lhs(a, epsilon, lo) <= w.R) or _equation_lhs(a, epsilon, hi) > w.R:
        raise NumericError(
            f"internal inconsistency: the root of the ellipsoid equation is not within "
            f"{_ROOT_ATOL:g} of the closed form {x:.6e} (N={N})"
        )
    return x


def _noise_scale(sigma: float, n: int) -> float:
    """eps = sigma / sqrt(n); ValidationError unless sigma and sigma^2/n are positive, finite."""
    noise = _check_real(sigma, "sigma")  # a Python float: noise * noise overflows quietly
    _check_real(noise * noise / n, f"sigma^2/n for sigma={noise}, n={n}")
    return sigma / np.sqrt(n)


def pinsker_plan(w: EllipsoidWeights, sigma: float, n: int) -> ShrinkagePlan:
    """Minimax linear shrinkage plan for noise level sigma on n vertices.

    n sets the noise scale eps = sigma / sqrt(n) (see ``_noise_scale``) and
    must be the number of weights.  Against the radius Q = sqrt(R), a sigma
    so large that the signal share R/(R + eps^2), l_0 on a one-term support,
    is below 1e-8 leaves l_0 fewer digits than (*) is checked to, and one so
    small that the root x or its numerator eps^2 sum_{j<N} a_j is not a
    positive normal float leaves (*) unchecked too.  ValidationError for both.
    """
    if n != len(w.a):
        raise ValidationError(f"n={n} does not match the {len(w.a)} ellipsoid weights")
    epsilon = _noise_scale(sigma, n)
    at = f"for sigma={sigma} and Q={math.sqrt(w.R)}"
    share = 1.0 / (1.0 + float(epsilon) * float(epsilon) / w.R)  # Python floats: inf, no warning
    _check_real(share, f"the signal share R/(R + eps^2) {at}", lo=_EQ_RTOL, hi=1, ends="[]")
    N = cutoff_N(w, epsilon)
    top, root = _closed_form_root(w, epsilon, N)
    for value, name in ((root, "the root x"), (top, "the numerator eps^2 sum_(j<N) a_j of x")):
        _check_real(value, f"{name} {at}", lo=sys.float_info.min, ends="[)")
    x = solve_x(w, epsilon, N)
    l = np.maximum(1.0 - x * w.a, 0.0)
    if np.any(l[N:] > 0.0) or l[N - 1] <= 0.0:
        raise NumericError(f"internal inconsistency: weight support does not match N={N}")
    l.setflags(write=False)
    return ShrinkagePlan(N=N, x=x, l=l, S=float(epsilon**2 * l.sum()), epsilon=float(epsilon))


def _shrink_head(s: Spectrum, y: np.ndarray, l_head: np.ndarray) -> np.ndarray:
    """sum_{j<k} l_j <y, psi_j>_n psi_j with k = len(l_head).

    Only the first k eigenvectors are applied, through the two transforms
    of their per-axis factors (``_AxisFactors.analyze`` and ``synthesize``):
    O(n k) on a path or an explicit head, one matrix product per axis each
    way on a grid or torus, and no n x k array there.  The result is a new
    array.  y's length is checked before any factor is grown.
    """
    y = _vertex_vector(s, y, "signal")
    factors = _axis_factors(s, len(l_head))
    return factors.synthesize(l_head * (factors.analyze(y) / s.n))


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

    l must hold one weight per ellipsoid weight; ValidationError otherwise.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != w.a.shape:
        raise ValidationError(f"{l.size} shrinkage weights for {len(w.a)} ellipsoid weights")
    return float(w.R * np.max((1.0 - l) ** 2 / w.a**2) + epsilon**2 * np.sum(l**2))


def projection_cutoff(n: int, beta: float, r: float) -> int:
    """Rate-optimal truncation level m = round(n^(r/(2 beta + r))), in [1, n].

    n must be an integer in [1, DEFAULT_DENSE_CAP**2], the largest graph the package builds.
    """
    n = _check_integer(n, "n", 1, DEFAULT_DENSE_CAP**2, "DEFAULT_DENSE_CAP**2")
    SobolevSpec(beta=beta, Q=1.0, r=r)  # ValidationError naming beta or r, by SobolevSpec's rule
    return max(1, min(n, round(n ** (r / (2.0 * beta + r)))))


def projection_estimate(s: Spectrum, y: np.ndarray, m: int) -> np.ndarray:
    """Spectral truncation: keep the first m coefficients, zero the rest.

    Reads only the first m eigenvectors.  m must be an integer (not a bool) in [1, n].
    """
    return _shrink_head(s, y, np.ones(_check_integer(m, "projection cutoff", 1, s.n)))


REGRESSION_ESTIMATORS = ("pinsker", "projection")


def regression_weights(estimator: str, s: Spectrum, spec: SobolevSpec, sigma: float):
    """Weight l_j per coefficient of a regression estimator, and the numbers denoise prints.

    "pinsker": pinsker_plan's l with its N, x and S.  "projection": 1_{j<m} for
    m = projection_cutoff(n, beta, r), with m; it reads neither sigma nor the ellipsoid
    weights of spec.
    """
    if estimator == "projection":
        m = projection_cutoff(s.n, spec.beta, spec.r)
        return (np.arange(s.n) < m).astype(float), {"m": m}
    if estimator != "pinsker":
        raise ValidationError(f"unknown regression estimator {estimator!r}")
    plan = pinsker_plan(ellipsoid_weights(s, spec), sigma, s.n)
    return plan.l, {"N": plan.N, "x": plan.x, "S": plan.S}


@dataclass(frozen=True)
class LinkFunction:
    """Differentiable link R -> (0, 1) with the constants the KL bound needs.

    sup_dpsi bounds |Psi'| and sup_ratio bounds |Psi' / (Psi (1 - Psi))|;
    their product is the constant c in the divergence bound
    K(P_Psi(v1), P_Psi(v2)) <= n c ||v1 - v2||_n^2.  Both must be true
    suprema: certificates take their Bernoulli KL and delta from c alone,
    and fano_certificate raises NumericError when the KL of psi(t) to
    psi(0) exceeds c t^2 / 2 at a point it tests.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_inv: Callable[[np.ndarray], np.ndarray]
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


def sigmoid_link() -> LinkFunction:
    """Logistic link Psi(t) = 1 / (1 + exp(-t)).

    Its derivative equals Psi (1 - Psi) identically, so sup_ratio = 1 and
    sup_dpsi = 1/4, giving KL constant 1/4.
    """
    return LinkFunction(
        name="sigmoid",
        psi=_sigmoid,
        psi_inv=_sigmoid_inv,
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
    sigmoid link's psi_inv, shrinks again on the latent scale, maps back
    through its psi and clips again.  y and plan are not written.
    """
    y = _vertex_vector(s, y, "label")
    if np.count_nonzero(y == 0.0) + np.count_nonzero(y == 1.0) != y.size:
        raise ValidationError("classification labels must be 0/1")
    if mode not in ("direct", "link"):
        raise ValidationError(f"unknown classification mode {mode!r}")
    eta = _CLIP_ETA
    rho = np.clip(estimate_regression(s, plan, y), eta, 1.0 - eta)
    if mode == "link":
        link = sigmoid_link()
        latent = estimate_regression(s, plan, link.psi_inv(rho))
        rho = np.clip(link.psi(latent), eta, 1.0 - eta)
    return rho
