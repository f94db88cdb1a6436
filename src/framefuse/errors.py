"""Exception types shared across the package."""

import numbers


class FrameFuseError(Exception):
    """Base class for all framefuse errors."""


class ParameterError(FrameFuseError, ValueError):
    """Invalid argument or violated input invariant."""


class FormatError(FrameFuseError, ValueError):
    """Malformed or corrupt on-disk data."""


def _check_seed(seed) -> int:
    """The one rule for every seed that builds a random generator: a
    non-negative integer. numpy integers pass and come back as int; bools
    and floats do not."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def _check_count(name: str, value, minimum: int | None = None) -> int:
    """The one rule for every count: an integer, at or above *minimum* when
    given. numpy integers pass and come back as int; bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)
