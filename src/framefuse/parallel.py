"""The one runner that shares units of work among worker threads, the rule
that works out how many workers there are, the region in which numpy's
BLAS runs one thread, and the two sizes the stages cut their work by: a
unit of work and a block of work memory kept in L2."""

import contextlib
import ctypes
import os
import threading

from numpy.linalg import _umath_linalg

# Bytes of one unit of work of the stages that share units among workers
# (_run_units) but the merge engine, whose unit is a scene: a finiteness
# check, a load and the representative averages. Each numpy call and each
# hand-over of the interpreter lock between workers costs, so units are
# large: two workers checked 118 MB of float32 in 8-10 ms with one
# np.isfinite call a unit, against 10-12 ms with one call per 2**16
# values. Stages read it as parallel.UNIT_BYTES when they run, so that one
# name sets them all.
UNIT_BYTES = 4 * 2**20

# Bytes of work memory that one thread keeps in the CPU's 2 MiB L2 cache
# from one numpy call to the next: a load unit's skipped frames, from the
# read to the check (features._read_frames), and the float64 difference
# block of the direct-form distances (select.pairwise_sqdist and
# _own_sqdist). A 512-of-1,800 load of 16x1024 frames took 44-45 ms at
# 512 KiB and 47-49 ms at 2 MiB; pairwise_sqdist at 512 x 48 x 1024 took
# 50 ms at 512 KiB against 54 ms at 1 MiB, and once 58 ms at 1 MiB against
# 152 ms for the whole 192 MiB temporary. Read as parallel.CACHE_BYTES when
# they run, like UNIT_BYTES.
CACHE_BYTES = 2**19

# The thread-count getter and setter of numpy's bundled OpenBLAS (numpy 2
# wheels, then numpy 1.x wheels), looked up once among the libraries that
# numpy's linalg extension links; None under another BLAS. A call of the
# getter reads the count as it is now: set by a variable before numpy
# loaded OpenBLAS, or by the setter since. The worker rule reads
# _blas_threads, which tests replace to fake a count; the one-thread region
# reads _blas_get, so that it restores the real count.
_linalg = ctypes.CDLL(_umath_linalg.__file__)
_blas_get, _blas_set = ((getattr(_linalg, f"scipy_openblas_{op}_num_threads64_", None)
                         or getattr(_linalg, f"openblas_{op}_num_threads64_", None))
                        for op in ("get", "set"))
if _blas_set is not None:
    _blas_get.restype, _blas_set.argtypes, _blas_set.restype = ctypes.c_int, [ctypes.c_int], None
_blas_threads = _blas_get

# The count is process-wide, so the region's entries and exits, on any of
# a caller's threads, go through one lock.
_region_lock = threading.Lock()
_region_depth = 0  # entries still inside the region
_region_found = None  # the count the first of them found


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


@contextlib.contextmanager
def _one_blas_thread():
    """A region in which numpy's OpenBLAS runs one thread, so that a BLAS
    product's bits do not depend on the count the caller's process runs
    with. The first entry sets the count to 1; the last exit, whether or
    not the body raised, restores the count the first entry found, however
    entries nest or overlap on a caller's threads. Meanwhile a BLAS call on
    any thread of the process runs on one thread. Under another BLAS it
    does nothing."""
    global _region_depth, _region_found
    if _blas_set is None:
        yield
        return
    with _region_lock:
        if _region_depth == 0:
            _region_found = _blas_get()
            _blas_set(1)
        _region_depth += 1
    try:
        yield
    finally:
        with _region_lock:
            _region_depth -= 1
            if _region_depth == 0:
                _blas_set(_region_found)


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
