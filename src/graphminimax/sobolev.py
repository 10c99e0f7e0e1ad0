"""Laplacian-Sobolev smoothness class and its coefficient-space ellipsoid.

A signal f belongs to the ball of radius Q at smoothness beta when

    <f, (I + (n^(2/r) L)^beta) f>_n  <=  Q^2,

where r is the graph's geometry parameter.  In the eigenbasis this is the
ellipsoid sum_j a_j^2 c_j^2 <= Q^2 with a_j^2 = 1 + n^(2 beta / r)
lambda_j^beta, which is what the shrinkage estimator consumes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_real, _check_seed
from .spectral import Spectrum, gft_forward, gft_inverse


@dataclass(frozen=True)
class SobolevSpec:
    """Smoothness ball parameters: exponent beta, radius Q, geometry r.

    Q^2 must be a normal float, so that a refusal naming Q = sqrt(R) names the Q given.
    """

    beta: float
    Q: float
    r: float

    def __post_init__(self):
        _check_real(self.beta, "beta")
        Q = _check_real(self.Q, "Q")
        _check_real(Q * Q, f"Q^2 for Q={Q}", lo=sys.float_info.min, ends="[)")
        _check_real(self.r, "r", lo=1, ends="[)")


@dataclass(frozen=True, eq=False)
class EllipsoidWeights:
    """Non-decreasing weights a_j with a_0 = 1 and squared radius R.

    Membership in the smoothness ball is equivalent to
    sum_j a_j^2 c_j^2 <= R for the eigenbasis coefficients c of a signal.
    R is the squared radius Q^2.  a must be 1-D, finite and non-decreasing
    with a[0] == 1, and R positive and finite; ValidationError naming the
    field otherwise.  Weights compare and hash by identity.
    """

    a: np.ndarray
    R: float

    def __post_init__(self):
        _check_real(self.R, "R")
        a = np.asarray(self.a)
        if a.ndim != 1 or not a.size or a[0] != 1.0:
            raise ValidationError(f"ellipsoid weights a must be 1-D with a[0] == 1, got {a!r}")
        # positive tests, which NaN fails; the last weight is the largest
        if not (np.all(np.diff(a) >= 0.0) and a[-1] < math.inf):
            raise ValidationError(
                f"ellipsoid weights a must be finite and non-decreasing, got {a!r}"
            )


def _spectral_weights_sq(s: Spectrum, spec: SobolevSpec) -> np.ndarray:
    """a_j^2 = 1 + n^(2 beta / r) lambda_j^beta; ValidationError naming beta, r, n on overflow."""
    try:
        with np.errstate(over="raise"):
            return 1.0 + s.n ** (2.0 * spec.beta / spec.r) * s.lambdas**spec.beta
    except (OverflowError, FloatingPointError):
        raise ValidationError(
            f"beta={spec.beta!r} and r={spec.r!r} on n={s.n} vertices put the Sobolev "
            "weights 1 + n^(2 beta / r) lambda_j^beta beyond the float range"
        ) from None


def sobolev_form(s: Spectrum, spec: SobolevSpec, f: np.ndarray) -> float:
    """Quadratic form <f, (I + (n^(2/r) L)^beta) f>_n, evaluated spectrally."""
    c = gft_forward(s, f)
    return float(np.sum(_spectral_weights_sq(s, spec) * c**2))


def ellipsoid_weights(s: Spectrum, spec: SobolevSpec) -> EllipsoidWeights:
    """Coefficient-space ellipsoid equivalent to the smoothness ball."""
    a = np.sqrt(_spectral_weights_sq(s, spec))
    a.setflags(write=False)
    return EllipsoidWeights(a=a, R=float(spec.Q**2))


def sample_ball_coefficients(w: EllipsoidWeights, fill: float, seed: int) -> np.ndarray:
    """Eigenbasis coefficients c with sum_j a_j^2 c_j^2 exactly fill * R.

    A standard normal vector g is scaled coefficient-wise by
    sqrt(fill) * Q / (a_j ||g||_2) with Q = sqrt(R), which places the draw
    on the boundary of the ball of radius sqrt(fill) * Q.  Deterministic
    given the seed, a non-negative integer.
    """
    _check_real(fill, "fill", hi=1, ends="(]")
    rng = np.random.default_rng(_check_seed(seed))
    g = rng.standard_normal(len(w.a))
    return np.sqrt(fill) * math.sqrt(w.R) * g / (w.a * np.linalg.norm(g))


def sample_ball(s: Spectrum, spec: SobolevSpec, fill: float, seed: int) -> np.ndarray:
    """Draw a test signal whose Sobolev form equals exactly fill * Q^2.

    The signal is the inverse GFT of sample_ball_coefficients.
    """
    return gft_inverse(s, sample_ball_coefficients(ellipsoid_weights(s, spec), fill, seed))
