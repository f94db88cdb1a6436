"""Exception types shared across the package, the rules that every
public entry checks its seeds, counts, real numbers and real arrays by, the
one reader of JSON input files, and the one runner that shares units of
work among worker threads."""

import json
import math
import numbers
import os
import threading
from pathlib import Path

import numpy as np

# Values checked for finiteness at a time, so that the check's boolean mask
# is 64 KiB instead of a quarter of the tensor. At 384x144x1024, slices of
# 2**16 values took 39 ms and one mask of the whole tensor 59 ms.
FINITE_CHECK_VALUES = 2**16

# Values of one unit of _all_finite: arrays of two or more units are
# checked on several workers, each taking a unit at a time. At 512x16x1024
# float32, two workers checked units of 2**20 values in 4.3 ms, against
# 5.6 ms for the array on one worker.
FINITE_UNIT_VALUES = 2**20

# The variables numpy's OpenBLAS takes its thread count from, in the order
# it reads them: the first set to a positive count wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _check_count(name: str, value, minimum: int | None = None) -> int:
    """The one rule for every count: an integer, at or above *minimum* when
    given. numpy integers pass and come back as int; bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_real(name: str, value, minimum: float, strict: bool = False) -> float:
    """The one rule for every real number: finite and at or above *minimum*,
    or above it when *strict*. numpy scalars pass and come back as float;
    bools and strings do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ParameterError(f"{name} is out of range: {value}") from None
    if not (math.isfinite(real) and (real > minimum if strict else real >= minimum)):
        raise ParameterError(
            f"{name} must be finite and {'>' if strict else '>='} {minimum}, got {value}")
    return real


def _workers(units: int) -> int:
    """How many workers share *units* units of work. It is 1, and no
    thread starts, unless numpy's BLAS is held to one thread (the first of
    BLAS_THREAD_VARS set to a positive count is 1, as OpenBLAS reads them);
    then it is the number of CPUs this process may run on, at most *units*.
    A multi-threaded BLAS keeps its idle threads spinning on the other
    CPUs, so workers there would only slow it down."""
    if units < 2:
        return 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            if int(value) > 1 or not hasattr(os, "sched_getaffinity"):
                return 1
            return min(units, len(os.sched_getaffinity(0)))
    return 1


def _run_units(workers: list, units: list) -> list:
    """Call a worker on each unit's arguments and return the results in
    unit order. workers[0] runs on the calling thread and each other one
    on a thread of its own; each takes the next unit from one shared
    counter until none is left or one has failed. A failure is raised
    here, after every worker has stopped: the first failure in unit order,
    since every unit before it was handed out and ran to its end."""
    lock = threading.Lock()
    todo = iter(range(len(units)))
    results = [None] * len(units)
    failures = {}

    def work(worker):
        while True:
            with lock:
                j = None if failures else next(todo, None)
            if j is None:
                return
            try:
                results[j] = worker(*units[j])
            except BaseException as exc:  # raised by the caller once all have stopped
                with lock:
                    failures[j] = exc

    threads = []
    try:
        for worker in workers[1:]:
            thread = threading.Thread(target=work, args=(worker,))
            thread.start()
            threads.append(thread)
        work(workers[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _finite(flat: np.ndarray) -> bool:
    """Whether every value of the 1-D array *flat* is finite, checked
    FINITE_CHECK_VALUES values at a time."""
    return all(np.isfinite(flat[start:start + FINITE_CHECK_VALUES]).all()
               for start in range(0, flat.size, FINITE_CHECK_VALUES))


def _all_finite(flat: np.ndarray) -> bool:
    """Whether every value of the nonempty 1-D array *flat* is finite. An
    array of two or more FINITE_UNIT_VALUES units is checked in those units
    on _workers(units) workers, each value once; one worker checks it as
    one unit."""
    workers = _workers(-(-flat.size // FINITE_UNIT_VALUES))
    step = FINITE_UNIT_VALUES if workers > 1 else flat.size
    units = [(flat[start:start + step],) for start in range(0, flat.size, step)]
    return all(_run_units([_finite] * workers, units))


def _check_array(name: str, value, dtype, ndim: int) -> np.ndarray:
    """The one rule for every real array: a regular (not ragged) shape,
    integer or float values (not bool, complex, string or object), rank
    *ndim*, every dim at least 1 and every value finite. Returns a
    C-contiguous *dtype* array, *value* itself when it already is one.
    Finiteness is checked FINITE_CHECK_VALUES values at a time, so no mask
    of the whole array is built."""
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
    array = np.ascontiguousarray(array, dtype=dtype)
    if not _all_finite(array.reshape(-1)):  # "frame features contain", "target contains"
        raise ParameterError(f"{name} contain{'' if name[-1] == 's' else 's'} non-finite values")
    return array
