"""Shared test helpers."""

import os

import numpy as np
import pytest

from framefuse import FrameFeatures, parallel
from framefuse.features import _block_offset

# numpy's OpenBLAS's own thread-count getter, kept before any test fakes it
_REAL_BLAS_THREADS = parallel._blas_threads


@pytest.fixture(autouse=True)
def blas_threads_kept():
    """Fails a test that leaves OpenBLAS's real thread count other than it
    found it: the count is process-wide and sets W for every later test."""
    def count():
        return _REAL_BLAS_THREADS and _REAL_BLAS_THREADS()
    before = count()
    yield
    assert count() == before, "the test changed numpy's BLAS thread count"


@pytest.fixture
def set_workers(monkeypatch):
    """A function that sets W, the worker count of every stage that shares
    units of work among threads, through the worker rule itself: the BLAS's
    thread count reads 1 and os.sched_getaffinity reports *workers* CPUs.
    Each call replaces the last, and the test's end undoes them all."""
    def set_to(workers):
        monkeypatch.setattr(parallel, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                            raising=False)
    return set_to


def uneven_planted(sizes, n_patches, dim, sigma, seed):
    """Planted contiguous blocks like the synthetic generator, but with
    caller-chosen (possibly unequal) block lengths."""
    rng = np.random.default_rng(seed)
    scale = (10.0 * sigma + 1.0) * np.sqrt(dim)
    chunks, labels = [], []
    for b, size in enumerate(sizes):
        texture = rng.standard_normal((n_patches, dim))
        texture -= texture.mean(axis=0, keepdims=True)
        base = texture + _block_offset(b, dim, scale)
        chunks.append(base + sigma * rng.standard_normal((size, n_patches, dim)))
        labels += [b] * size
    return FrameFeatures(np.concatenate(chunks).astype(np.float32)), np.array(labels)
