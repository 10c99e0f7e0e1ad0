"""Exception types shared across the package, and its one seed check."""
import numbers


class GraphMinimaxError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GraphMinimaxError):
    """Bad input: sizes, parameters, file contents, or domain violations."""


class NumericError(GraphMinimaxError):
    """A numeric procedure failed or produced an inconsistent result."""


def _check_seed(seed) -> int:
    """seed as an int for numpy's generators; ValidationError unless a non-negative integer."""
    if isinstance(seed, numbers.Integral) and seed >= 0:
        return int(seed)
    raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
