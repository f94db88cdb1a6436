"""Frame-feature tensors, the FVT1 binary format, and synthetic test data.

A frame-feature tensor collects per-frame patch-token embeddings with shape
(n_frames, n_patches, dim) in 32-bit floats. Everything downstream (scene
selection, merging, compression) consumes this one type.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .errors import (FormatError, ParameterError, _check_array, _check_count, _check_real,
                     _check_seed, _read_json)
from .parallel import _run_units

MAGIC = b"FVT1"
FORMAT_VERSION = 1

# magic (4 bytes), version (1 byte), rank (uint32-LE), three dims (uint32-LE).
_HEADER = struct.Struct("<4sBI3I")
HEADER_SIZE = _HEADER.size

# The most buffers that one os.preadv takes, and so the most frames of a unit.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _checked_timestamps(timestamps, n_frames: int) -> tuple[float, ...]:
    """*timestamps* as floats, or a ParameterError: one real number per
    frame, each by the real rule at minimum 0, strictly increasing."""
    ts = tuple(_check_real(f"timestamp {i}", t, 0) for i, t in enumerate(timestamps))
    if len(ts) != n_frames:
        raise ParameterError(f"expected {n_frames} timestamps, got {len(ts)}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ParameterError("timestamps must be strictly increasing")
    return ts


@dataclass(frozen=True, eq=False)
class FrameFeatures:
    """Per-frame patch-token embeddings, shape (n_frames, n_patches, dim).

    The tensor is stored float32 C-contiguous and treated as immutable.
    ``frame_timestamps``, when present, gives one non-negative second value
    per frame in strictly increasing order.
    """

    data: np.ndarray
    frame_timestamps: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "data", _check_array("frame features", self.data, np.float32, 3))
        if self.frame_timestamps is not None:
            object.__setattr__(self, "frame_timestamps",
                               _checked_timestamps(self.frame_timestamps, self.n_frames))

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_patches(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write *chunks* to *path* through a new file of a random name in its
    directory, so that *path* never holds a partial write. The file is
    created with mode 0o666, which the umask narrows, as for any file
    opened for writing."""
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_features(features: FrameFeatures, path: str | Path) -> None:
    """Write *features* to *path* in the FVT1 layout.

    Layout: magic b"FVT1", one version byte, the rank (always 3) as
    uint32-LE, three uint32-LE dims, then the float32-LE payload in
    row-major order. Identical tensors always produce identical bytes.
    Timestamps, when present, go to a ``<path>.meta.json`` sidecar. Any old
    sidecar is removed before the payload is replaced, so a failed save
    leaves frames without timestamps, never with another tensor's.
    """
    path = Path(path)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, 3, *features.data.shape)
    # the array's own memory on a little-endian host, not a copy of it
    payload = np.ascontiguousarray(features.data, dtype="<f4")
    meta = _meta_path(path)
    meta.unlink(missing_ok=True)
    _atomic_write(path, (header, payload.data.cast("B")))
    if features.frame_timestamps is not None:
        doc = {"frame_timestamps": list(features.frame_timestamps)}
        _atomic_write(meta, [(json.dumps(doc, sort_keys=True) + "\n").encode()])


def uniform_sample_indices(total: int, n: int) -> list[int]:
    """Evenly spread n frame indices over [0, total), total >= 1: index j is floor(j*total/n)."""
    if not 1 <= n <= total:
        raise ParameterError(f"sample count {n} outside [1, {total}]")
    return [(j * total) // n for j in range(n)]


def _read_header(fh, path: Path) -> tuple[int, int, int]:
    """Check the header of the open FVT1 file *fh* and that the file holds
    exactly the payload it announces; return the dims."""
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise FormatError(f"{path}: truncated header ({len(head)} of {HEADER_SIZE} bytes)")
    magic, version, rank, *dims = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}, expected {FORMAT_VERSION}")
    if rank != 3:
        raise FormatError(f"{path}: bad rank {rank}, expected 3")
    for name, d in zip(("n_frames", "n_patches", "dim"), dims):
        if d < 1:
            raise FormatError(f"{path}: invalid {name} {d}, must be >= 1")
    expected = dims[0] * dims[1] * dims[2] * 4
    got = os.fstat(fh.fileno()).st_size - HEADER_SIZE
    if got < expected:
        raise FormatError(f"{path}: truncated payload, expected {expected} bytes, got {got}")
    if got > expected:
        raise FormatError(f"{path}: {got - expected} trailing bytes after payload")
    return tuple(dims)


def _preadv_exactly(fd: int, views: list, offset: int, path: Path, expected: int) -> None:
    # fill the byte views in order from the file's bytes at offset
    i = 0
    while i < len(views):
        n = os.preadv(fd, views[i:], offset)
        if not n:
            raise FormatError(f"{path}: truncated payload, expected {expected} bytes")
        offset += n
        while i < len(views) and n >= len(views[i]):
            n -= len(views[i])
            i += 1
        if n:
            views[i] = views[i][n:]


def _read_frames(fh, path: Path, dims: tuple[int, int, int], keep) -> np.ndarray:
    """Read the payload that follows the header, keeping the frames *keep*
    (increasing indices); every other frame is checked for finiteness and
    dropped.

    The payload is cut into units of whole frames, at most
    ``parallel.UNIT_BYTES`` and _IOV_MAX frames. A worker reads a unit with
    one os.preadv, which puts its kept frames straight into their rows of
    the result and its skipped frames, packed, into the worker's own
    buffer, then checks that buffer in one call, with a mask of a quarter
    of its bytes. The units are cut from the file alone: a unit skips at
    most as many frames as fit in ``parallel.CACHE_BYTES`` (at least one),
    so that they are still in L2 when they are checked, and a buffer holds
    that many. ``parallel._run_units`` shares the units among its W workers,
    so the buffers hold at most W times CACHE_BYTES, or W frames if a frame
    is larger. The first failure in unit order is raised."""
    n_frames, n_patches, dim = dims
    frame_bytes = n_patches * dim * 4
    expected = n_frames * frame_bytes
    data = np.empty((len(keep), n_patches, dim), dtype="<f4")
    out = memoryview(data.reshape(-1).view(np.uint8))
    unit_skips = max(1, parallel.CACHE_BYTES // frame_bytes)
    unit_frames = max(1, min(_IOV_MAX, parallel.UNIT_BYTES // frame_bytes))
    # each unit: its payload offset and its pieces, in file order: a byte
    # count of skipped frames, or a view of the rows of a run of kept frames
    units = []
    pos = j = 0  # the next frame to cut, and keep[j] the next kept frame
    while pos < n_frames:
        first, stop, skips, pieces = pos, min(pos + unit_frames, n_frames), unit_skips, []
        while pos < stop and skips:
            nxt = keep[j] if j < len(keep) else n_frames  # the next kept frame
            if nxt > pos:
                count = min(nxt, stop, pos + skips) - pos
                pieces.append(count * frame_bytes)
                skips -= count
            else:  # the kept frames that follow pos without a gap, up to stop
                count = min(stop - pos, len(keep) - j)
                # keep increases, so it has a gap before its count-th frame
                # from j exactly when that frame is not pos + count - 1
                if keep[j + count - 1] != pos + count - 1:
                    count = 1
                    while keep[j + count] == pos + count:
                        count += 1
                pieces.append(out[j * frame_bytes:(j + count) * frame_bytes])
                j += count
            pos += count
        units.append((HEADER_SIZE + first * frame_bytes, pieces))
    fd = fh.fileno()

    def reader():
        scratch = np.empty(min(unit_skips, n_frames - len(keep)) * frame_bytes // 4, dtype="<f4")
        buf = memoryview(scratch.view(np.uint8))

        def read(offset, pieces):
            views, filled = [], 0
            for piece in pieces:
                if isinstance(piece, memoryview):
                    views.append(piece)
                else:
                    views.append(buf[filled:filled + piece])
                    filled += piece
            _preadv_exactly(fd, views, offset, path, expected)
            # one check of the unit's skipped values: each hand-over of the
            # interpreter lock between workers costs, so no finer chunks
            if not np.isfinite(scratch[:filled // 4]).all():
                raise ParameterError("frame features contain non-finite values")
        return read

    _run_units(reader, units)
    if os.pread(fd, 1, HEADER_SIZE + expected):
        raise FormatError(f"{path}: trailing bytes after payload")
    return data


def _read_timestamps(meta: Path) -> list[float] | None:
    """The timestamps of a ``{"frame_timestamps": [numbers]}`` sidecar, or
    None without one. Anything else in it is a FormatError."""
    if not meta.exists():
        return None
    doc = _read_json(meta)
    if not isinstance(doc, dict) or "frame_timestamps" not in doc:
        raise FormatError(f"{meta}: missing frame_timestamps field")
    if len(doc) != 1:
        raise FormatError(f"{meta}: unknown fields {sorted(set(doc) - {'frame_timestamps'})}, "
                          "expected only frame_timestamps")
    entries = doc["frame_timestamps"]
    if not isinstance(entries, list):
        raise FormatError(f"{meta}: frame_timestamps must be an array, got {type(entries).__name__}")
    timestamps = []
    for i, t in enumerate(entries):
        # json.loads builds exact types, so `type(t) in` keeps bools out of the numbers
        if type(t) not in (int, float):
            raise FormatError(f"{meta}: frame_timestamps entry {i} must be a number, got {t!r}")
        try:
            timestamps.append(float(t))
        except OverflowError:
            raise FormatError(f"{meta}: frame_timestamps entry {i} is out of range: {t}") from None
    return timestamps


def load_features(path: str | Path, sample: int | None = None) -> FrameFeatures:
    """Read an FVT1 file written by :func:`save_features`.

    With *sample*, only the frames ``uniform_sample_indices(n_frames,
    sample)`` picks are kept, with their timestamps. The whole file is
    still read and checked: every value must be finite, and the sidecar's
    timestamps are checked over all frames before they are subset. The
    payload is read and checked in units of whole frames, on the W workers
    of ``parallel._run_units`` (README "Workers"). Kept frames go straight
    into the result; skipped frames pass through one buffer per worker,
    each at most ``parallel.CACHE_BYTES`` (the L2 block) or one frame,
    whichever is larger, so a sampled load holds the kept frames plus W
    such buffers. The units, and so the result, do not depend on W, and a
    failure is the first in file order among the units read.

    Raises:
        FormatError: bad magic, version, rank, or dims; truncated or
            oversized payload; a sidecar that is not a JSON object with
            one field, ``frame_timestamps``, an array of numbers.
        ParameterError: non-finite values; invalid timestamps; a sample
            that is not an integer (checked before the file is opened) or
            is outside [1, n_frames].
    """
    if sample is not None:
        sample = _check_count("sample count", sample)
    return _read_checked(
        path, lambda n: range(n) if sample is None else uniform_sample_indices(n, sample))[1]


def _read_checked(path: str | Path, pick) -> tuple[int, FrameFeatures | None]:
    """One read of an FVT1 file and its sidecar: the file's frame count,
    and the frames ``pick(n_frames)`` keeps with their timestamps, or None
    when it keeps none. Every value of a skipped frame is checked here,
    and every kept one by FrameFeatures. The sidecar's timestamps are
    checked over all frames before they are subset."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        dims = _read_header(fh, path)
        keep = pick(dims[0])
        data = _read_frames(fh, path, dims, keep)
    timestamps = _read_timestamps(_meta_path(path))
    if timestamps is not None and len(keep) < dims[0]:
        timestamps = _checked_timestamps(timestamps, dims[0])
        timestamps = [timestamps[i] for i in keep]
    return dims[0], FrameFeatures(data, timestamps) if len(keep) else None


def _block_offset(b: int, dim: int, scale: float) -> np.ndarray:
    # axis-aligned offsets: blocks get orthogonal directions first, then
    # opposite signs, then larger magnitudes, so any two block means sit at
    # least `scale` apart while cross-block cosine stays far from 1
    axis = b % dim
    sign = 1.0 if (b // dim) % 2 == 0 else -1.0
    tier = 1 + b // (2 * dim)
    offset = np.zeros(dim)
    offset[axis] = sign * tier * scale
    return offset


def generate_synthetic(n_frames: int, n_patches: int, dim: int, n_scenes: int,
                       noise_sigma: float = 0.1, seed: int = 0) -> FrameFeatures:
    """Generate frames in contiguous blocks around well-separated base patterns.

    The four sizes pass the count rule at minimum 1, *n_scenes* may not
    exceed *n_frames*, *noise_sigma* passes the real rule at minimum 0 and
    *seed* the seed rule, checked in that order. Each block's base pattern
    has a per-dim mean over patches equal to an axis-aligned offset of
    length at least ``(10*noise_sigma + 1) * sqrt(dim)``, so block means in
    representative space are pairwise separated by at least
    ``10 * noise_sigma * sqrt(dim)`` and point in distinguishable
    directions. Frames are the base pattern plus i.i.d. Gaussian noise of
    std ``noise_sigma``. Pure function of the arguments, including the
    seed. Each float64 block is written straight into the float32 tensor,
    which rounds as ``astype`` does.
    """
    n_frames = _check_count("n_frames", n_frames, 1)
    n_patches = _check_count("n_patches", n_patches, 1)
    dim = _check_count("dim", dim, 1)
    n_scenes = _check_count("n_scenes", n_scenes, 1)
    if n_scenes > n_frames:
        raise ParameterError(f"n_scenes {n_scenes} exceeds n_frames {n_frames}")
    noise_sigma = _check_real("noise_sigma", noise_sigma, 0)
    rng = np.random.default_rng(_check_seed(seed))
    scale = (10.0 * noise_sigma + 1.0) * math.sqrt(dim)
    data = np.empty((n_frames, n_patches, dim), dtype=np.float32)
    for b, block in enumerate(np.array_split(np.arange(n_frames), n_scenes)):
        texture = rng.standard_normal((n_patches, dim))
        texture -= texture.mean(axis=0, keepdims=True)  # keeps block means exact
        base = texture + _block_offset(b, dim, scale)
        noise = rng.standard_normal((len(block), n_patches, dim))
        data[block] = base + noise_sigma * noise
    return FrameFeatures(data)
