"""Exception types shared across the package, and its one integer rule (counts, sizes, seeds)
and one real-number rule (scales, radii, exponents, probabilities), each with its range."""
import math
import numbers
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


def _check_real(value, what: str, lo=0, hi=math.inf, ends: str = "()") -> float:
    """float(value) if value is a real number, not a bool, in lo..hi, ends its two brackets.

    ends "(]" is lo < value <= hi.  Else ValidationError naming what: "must be a real number",
    or the interval and the value; NaN and numbers beyond the float range are in no interval.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf if value > 0 else -math.inf
        if (lo < x if ends[0] == "(" else lo <= x) and (x < hi if ends[1] == ")" else x <= hi):
            return x
        raise ValidationError(f"{what} must be in {ends[0]}{lo}, {hi}{ends[1]}, got {value}")
    raise ValidationError(f"{what} must be a real number, got {value!r}")


def _check_seed(seed) -> int:
    """seed as an int for numpy's generators; ValidationError unless a non-negative integer."""
    try:
        return _check_integer(seed, "seed", lo=0)
    except ValidationError:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}") from None
