"""Exception types shared across the package, the rules that every
public entry checks its seeds, counts, real numbers and real arrays by, and
the one reader of JSON input files."""

import json
import math
import numbers
from pathlib import Path

import numpy as np

from . import parallel
from .parallel import _run_units


class FrameFuseError(Exception):
    """Base class for all framefuse errors."""


class ParameterError(FrameFuseError, ValueError):
    """Invalid argument or violated input invariant."""


class FormatError(FrameFuseError, ValueError):
    """Malformed or corrupt on-disk data."""


def _read_json(path: str | Path):
    """The JSON document in the file at *path*, decoded as UTF-8 (RFC 8259)
    whatever the locale. A file that is not UTF-8 or not JSON is a
    FormatError naming *path* as given; a syntax error names its byte
    offset in the file."""
    try:
        # the file's bytes are freed once decoded, before the parse
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[:exc.pos].encode())
        raise FormatError(f"{path}: invalid JSON at byte offset {offset}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal past Python's digit limit
        raise FormatError(f"{path}: {exc}") from exc


def _check_seed(seed) -> int:
    """The one rule for every seed that builds a random generator: a
    non-negative integer. numpy integers pass and come back as int; bools
    and floats do not."""
    if isinstance(seed, bool) or not isinstance(seed, (int, numbers.Integral)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _check_count(name: str, value, minimum: int | None = None) -> int:
    """The one rule for every count: an integer, at or above *minimum* when
    given. numpy integers pass and come back as int; bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_real(name: str, value, minimum: float, strict: bool = False) -> float:
    """The one rule for every real number: finite and at or above *minimum*,
    or above it when *strict*. numpy scalars pass and come back as float;
    bools and strings do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ParameterError(f"{name} is out of range: {value}") from None
    if not (math.isfinite(real) and (real > minimum if strict else real >= minimum)):
        raise ParameterError(
            f"{name} must be finite and {'>' if strict else '>='} {minimum}, got {value}")
    return real


def _all_finite(flat: np.ndarray) -> bool:
    """Whether every value of the nonempty 1-D array *flat* is finite,
    checked by _run_units in units of as many values as parallel.UNIT_BYTES
    holds in float64 (at least one), each with one np.isfinite call. A
    worker's mask, a byte a value, is thus UNIT_BYTES / 8 whatever the
    dtype, and never a mask of the array."""
    step = max(1, parallel.UNIT_BYTES // 8)
    units = [(flat[start:start + step],) for start in range(0, flat.size, step)]
    return all(_run_units(lambda: _unit_finite, units))


def _unit_finite(unit: np.ndarray) -> bool:
    return np.isfinite(unit).all()


def _check_array(name: str, value, dtype, ndim: int) -> np.ndarray:
    """The one rule for every real array: a regular (not ragged) shape,
    integer or float values (not bool, complex, string or object), rank
    *ndim*, every dim at least 1 and every value finite. Returns a
    C-contiguous *dtype* array, *value* itself when it already is one;
    *dtype* None keeps the value's dtype, or float64 if that is wider
    (longdouble). Finiteness is checked by _all_finite, in units, so no
    mask of the whole array is built."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape" for nested sequences
        raise ParameterError(f"{name} must have a regular shape, got a ragged sequence") from None
    if array.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold real numbers, got dtype {array.dtype}")
    if array.ndim != ndim:
        raise ParameterError(f"{name} must be rank {ndim}, got rank {array.ndim}")
    if min(array.shape) < 1:
        raise ParameterError(f"{name} dims must be >= 1, got {array.shape}")
    dtype = np.float64 if dtype is None and array.dtype.itemsize > 8 else dtype
    array = np.ascontiguousarray(array, dtype=dtype)
    if not _all_finite(array.reshape(-1)):  # "frame features contain", "target contains"
        raise ParameterError(f"{name} contain{'' if name[-1] == 's' else 's'} non-finite values")
    return array
