"""Exception types shared across the package, and its one integer rule (counts, sizes, seeds,
each with its range) and one positive-number rule (scales, radii, exponents)."""
import math
import operator

import numpy as np


class GraphMinimaxError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GraphMinimaxError):
    """Bad input: sizes, parameters, file contents, or domain violations."""


class NumericError(GraphMinimaxError):
    """A numeric procedure failed or produced an inconsistent result."""


def _check_integer(value, what: str, lo=-math.inf, hi=math.inf, limit: str = "") -> int:
    """value as an int if operator.index takes it, it is not a bool and lo <= value <= hi.

    Else ValidationError naming what: "must be an integer" for a non-integer, else the range
    and the value, with hi written as ``limit = hi`` when limit names the constant it stands
    for.  This is the one place a count is compared with its bounds.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if lo <= value <= hi:
                return value
            top = f"{limit} = {hi}" if limit else hi
            raise ValidationError(f"{what} must be in [{lo}, {top}], got {value}")
    raise ValidationError(f"{what} must be an integer, got {value!r}")


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
    try:
        return _check_integer(seed, "seed", lo=0)
    except ValidationError:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}") from None
