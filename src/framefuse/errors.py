"""Exception types shared across the package, the rules that every
public entry checks its seeds, counts, real numbers and real arrays by, the
one reader of JSON input files, and the one runner that shares units of
work among worker threads."""

import ctypes
import json
import math
import numbers
import os
import threading
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

# Bytes of one unit of work of every stage that shares units among workers
# (_run_units): a finiteness check, a load, the representative averages and
# the merge engine. Each numpy call and each hand-over of the interpreter
# lock between workers costs, so units are large: two workers checked 118
# MB of float32 in 8-10 ms with one np.isfinite call a unit, against 10-12
# ms with one call per 2**16 values. Stages read it as errors.UNIT_BYTES
# when they run, so that one name sets them all.
UNIT_BYTES = 4 * 2**20

# Bytes of work memory that one thread keeps in the CPU's 2 MiB L2 cache
# from one numpy call to the next: a load unit's skipped frames, from the
# read to the check (features._read_frames), and the float64 difference
# block of the direct-form distances (select.pairwise_sqdist and
# _own_sqdist). A 512-of-1,800 load of 16x1024 frames took 44-45 ms at
# 512 KiB and 47-49 ms at 2 MiB; pairwise_sqdist at 512 x 48 x 1024 took
# 50 ms at 512 KiB against 54 ms at 1 MiB, and once 58 ms at 1 MiB against
# 152 ms for the whole 192 MiB temporary. Read as errors.CACHE_BYTES when
# they run, like UNIT_BYTES.
CACHE_BYTES = 2**19

# The thread-count getter of numpy's bundled OpenBLAS (numpy 2 wheels, then
# numpy 1.x wheels), looked up once among the libraries that numpy's linalg
# extension links; None under another BLAS. A call reads the count as it is
# now: set by a variable before numpy loaded OpenBLAS, or by its setter since.
_linalg = ctypes.CDLL(_umath_linalg.__file__)
_blas_threads = (getattr(_linalg, "scipy_openblas_get_num_threads64_", None)
                 or getattr(_linalg, "openblas_get_num_threads64_", None))


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


def _workers(units: int) -> int:
    """How many workers share *units* units of work. It is 1, and no
    thread starts, unless numpy's OpenBLAS runs one thread (its own count,
    read now, is 1); then it is the number of CPUs this process may run on,
    at most *units*. A multi-threaded BLAS keeps its idle threads spinning
    on the other CPUs, so workers there would only slow it down; another
    BLAS, whose count is not read, runs one worker."""
    if (units < 2 or _blas_threads is None or _blas_threads() != 1
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(units, len(os.sched_getaffinity(0)))


def _run_units(make_worker, units: list, parallel: bool = True) -> list:
    """Call a worker on each unit's arguments and return the results in
    unit order. The one place that works out W: _workers(len(units)), or 1
    unless *parallel*. The W workers are make_worker()'s, made before any
    thread starts; the first runs on the calling thread and each other on a
    thread of its own. Each takes the next unit from one shared counter
    until none is left or one has failed. A failure is raised here, after
    every worker has stopped: the first failure in unit order, since every
    unit before it was handed out and ran to its end."""
    workers = [make_worker() for _ in range(_workers(len(units)) if parallel else 1)]
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


def _all_finite(flat: np.ndarray) -> bool:
    """Whether every value of the nonempty 1-D array *flat* is finite,
    checked by _run_units in units of as many values as UNIT_BYTES holds in
    float64 (at least one), each with one np.isfinite call. A worker's
    mask, a byte a value, is thus UNIT_BYTES / 8 whatever the dtype, and
    never a mask of the array."""
    step = max(1, UNIT_BYTES // 8)
    units = [(flat[start:start + step],) for start in range(0, flat.size, step)]
    return all(_run_units(lambda: _unit_finite, units))


def _unit_finite(unit: np.ndarray) -> bool:
    return np.isfinite(unit).all()


def _check_array(name: str, value, dtype, ndim: int) -> np.ndarray:
    """The one rule for every real array: a regular (not ragged) shape,
    integer or float values (not bool, complex, string or object), rank
    *ndim*, every dim at least 1 and every value finite. Returns a
    C-contiguous *dtype* array, *value* itself when it already is one.
    Finiteness is checked by _all_finite, in units, so no mask of the whole
    array is built."""
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
