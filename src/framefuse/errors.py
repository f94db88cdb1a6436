"""Exception types shared across the package."""

import numbers


class FrameFuseError(Exception):
    """Base class for all framefuse errors."""


class ParameterError(FrameFuseError, ValueError):
    """Invalid argument or violated input invariant."""


class FormatError(FrameFuseError, ValueError):
    """Malformed or corrupt on-disk data."""


def _check_seed(seed) -> None:
    """The one rule for every seed that builds a random generator: a
    non-negative integer. numpy integers pass; bools and floats do not."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
