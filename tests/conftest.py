"""Shared test helpers."""

import os

import numpy as np
import pytest

from framefuse import FrameFeatures
from framefuse.errors import BLAS_THREAD_VARS
from framefuse.features import _block_offset


@pytest.fixture
def set_workers(monkeypatch):
    """A function that sets W, the worker count of every stage that shares
    units of work among threads, through the worker rule itself: for one
    worker no BLAS thread variable is set; for more, OPENBLAS_NUM_THREADS
    is 1 and os.sched_getaffinity reports that many CPUs. Each call
    replaces the last, and the test's end undoes them all."""
    def set_to(workers):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if workers > 1:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
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
