"""Exception types shared across the package, and its one integer rule (counts, sizes, seeds)
and one positive-number rule (scales, radii, exponents)."""
import math
import operator

import numpy as np


class GraphMinimaxError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GraphMinimaxError):
    """Bad input: sizes, parameters, file contents, or domain violations."""


class NumericError(GraphMinimaxError):
    """A numeric procedure failed or produced an inconsistent result."""


def _check_integer(value, what: str, kind: str = "an integer") -> int:
    """value as an int if operator.index takes it and it is not a bool; else ValidationError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be {kind}, got {value!r}")


def _check_positive(value, what: str) -> float:
    """value as a float if it is a number in (0, inf); else ValidationError naming what."""
    try:
        if 0 < value < math.inf:
            return float(value)
    except (TypeError, ValueError):  # not one number: None, a string, an array
        pass
    raise ValidationError(f"{what} must be positive and finite, got {value!r}")


def _check_seed(seed) -> int:
    """seed as an int for numpy's generators; ValidationError unless a non-negative integer."""
    kind = "a non-negative integer"
    if _check_integer(seed, "seed", kind) < 0:
        raise ValidationError(f"seed must be {kind}, got {seed!r}")
    return operator.index(seed)
