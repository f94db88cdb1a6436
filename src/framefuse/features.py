"""Frame-feature tensors, the FVT1 binary format, and synthetic test data.

A frame-feature tensor collects per-frame patch-token embeddings with shape
(n_frames, n_patches, dim) in 32-bit floats. Everything downstream (scene
selection, merging, compression) consumes this one type.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError

MAGIC = b"FVT1"
FORMAT_VERSION = 1

# magic (4 bytes), version (1 byte), rank (uint32-LE); dims follow as uint32-LE.
_HEADER = struct.Struct("<4sBI")
_DIM = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + 3 * _DIM.size

# Values checked for finiteness at a time, so that the check's boolean mask
# is 64 KiB instead of a quarter of the tensor. At 384x144x1024, slices of
# 2**16 values took 39 ms and one mask of the whole tensor 59 ms.
FINITE_CHECK_VALUES = 2**16

# Payload bytes that load_features reads at a time. Frames it keeps are read
# straight into the returned array; frames a sampled load skips are read
# into one reused buffer of this size, checked for finiteness and dropped,
# so a sampled load holds the kept frames plus one chunk.
READ_CHUNK_BYTES = 4 * 2**20


def _all_finite(flat: np.ndarray) -> bool:
    return all(np.isfinite(flat[start:start + FINITE_CHECK_VALUES]).all()
               for start in range(0, flat.size, FINITE_CHECK_VALUES))


def _checked_timestamps(timestamps, n_frames: int) -> tuple[float, ...]:
    """*timestamps* as floats, or a ParameterError: one real number per
    frame (not a bool or a string), finite, non-negative and strictly
    increasing."""
    ts = []
    for i, t in enumerate(timestamps):
        if isinstance(t, bool) or not isinstance(t, numbers.Real):
            raise ParameterError(f"timestamp {i} must be a number, got {t!r}")
        try:
            ts.append(float(t))
        except OverflowError:
            raise ParameterError(f"timestamp {i} is out of range: {t}") from None
    if len(ts) != n_frames:
        raise ParameterError(f"expected {n_frames} timestamps, got {len(ts)}")
    if any(t < 0 or not math.isfinite(t) for t in ts):
        raise ParameterError("timestamps must be finite and non-negative")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ParameterError("timestamps must be strictly increasing")
    return tuple(ts)


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
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ParameterError(f"frame features must be rank 3, got rank {data.ndim}")
        if min(data.shape) < 1:
            raise ParameterError(f"frame feature dims must be >= 1, got {data.shape}")
        data = np.ascontiguousarray(data, dtype=np.float32)
        if not _all_finite(data.reshape(-1)):
            raise ParameterError("frame features contain non-finite values")
        object.__setattr__(self, "data", data)
        if self.frame_timestamps is not None:
            object.__setattr__(self, "frame_timestamps",
                               _checked_timestamps(self.frame_timestamps, data.shape[0]))

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
    """Write *chunks* to *path* through a temporary file in its directory,
    so that *path* never holds a partial write."""
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
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
    Timestamps, when present, go to a ``<path>.meta.json`` sidecar.
    """
    path = Path(path)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, 3)
    dims = b"".join(_DIM.pack(d) for d in features.data.shape)
    # the array's own memory on a little-endian host, not a copy of it
    payload = np.ascontiguousarray(features.data, dtype="<f4")
    _atomic_write(path, (header, dims, payload.data.cast("B")))
    meta = _meta_path(path)
    if features.frame_timestamps is not None:
        doc = {"frame_timestamps": list(features.frame_timestamps)}
        _atomic_write(meta, [(json.dumps(doc, sort_keys=True) + "\n").encode()])
    elif meta.exists():
        # a stale sidecar would attach wrong timestamps on the next load
        meta.unlink()


def uniform_sample_indices(total: int, n: int) -> list[int]:
    """Evenly spread n frame indices over [0, total): index j is floor(j*total/n)."""
    if total < 1:
        raise ParameterError(f"total must be >= 1, got {total}")
    if not 1 <= n <= total:
        raise ParameterError(f"sample count {n} outside [1, {total}]")
    return [(j * total) // n for j in range(n)]


def _read_header(fh, path: Path) -> tuple[int, int, int]:
    """Check the header of the open FVT1 file *fh* and that the file holds
    exactly the payload it announces; return the dims."""
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise FormatError(f"{path}: truncated header ({len(head)} of {HEADER_SIZE} bytes)")
    magic, version, rank = _HEADER.unpack_from(head, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}, expected {FORMAT_VERSION}")
    if rank != 3:
        raise FormatError(f"{path}: bad rank {rank}, expected 3")
    dims = tuple(_DIM.unpack_from(head, _HEADER.size + i * _DIM.size)[0] for i in range(3))
    for name, d in zip(("n_frames", "n_patches", "dim"), dims):
        if d < 1:
            raise FormatError(f"{path}: invalid {name} {d}, must be >= 1")
    expected = dims[0] * dims[1] * dims[2] * 4
    got = os.fstat(fh.fileno()).st_size - HEADER_SIZE
    if got < expected:
        raise FormatError(f"{path}: truncated payload, expected {expected} bytes, got {got}")
    if got > expected:
        raise FormatError(f"{path}: {got - expected} trailing bytes after payload")
    return dims


def _read_shape(path: str | Path) -> tuple[int, int, int]:
    """The (n_frames, n_patches, dim) of an FVT1 file, from its header alone."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        return _read_header(fh, path)


def _read_exactly(fh, view: memoryview, path: Path, expected: int) -> None:
    filled = 0
    while filled < len(view):
        n = fh.readinto(view[filled:filled + READ_CHUNK_BYTES])
        if not n:
            raise FormatError(f"{path}: truncated payload, expected {expected} bytes")
        filled += n


def _read_frames(fh, path: Path, dims: tuple[int, int, int], keep) -> np.ndarray:
    """Read the payload that follows the header, keeping the frames *keep*
    (increasing indices); every other frame is checked for finiteness in
    the reused buffer and dropped."""
    n_frames, n_patches, dim = dims
    frame_bytes = n_patches * dim * 4
    expected = n_frames * frame_bytes
    data = np.empty((len(keep), n_patches, dim), dtype="<f4")
    out = memoryview(data.reshape(-1).view(np.uint8))
    scratch = np.empty(min(READ_CHUNK_BYTES, expected - out.nbytes) // 4, dtype="<f4")
    buf = memoryview(scratch.view(np.uint8))
    runs: list[list[int]] = []  # [first, stop) of each run of consecutive kept frames
    for i in keep:
        if runs and runs[-1][1] == i:
            runs[-1][1] += 1
        else:
            runs.append([i, i + 1])
    pos = filled = 0  # frames read from the file, bytes kept
    for first, stop in runs + [[n_frames, n_frames]]:  # the last run skips the tail
        skip = (first - pos) * frame_bytes
        while skip:
            piece = min(skip, buf.nbytes)
            _read_exactly(fh, buf[:piece], path, expected)
            if not _all_finite(scratch[:piece // 4]):
                raise ParameterError("frame features contain non-finite values")
            skip -= piece
        end = filled + (stop - first) * frame_bytes
        _read_exactly(fh, out[filled:end], path, expected)
        pos, filled = stop, end
    if fh.read(1):
        raise FormatError(f"{path}: trailing bytes after payload")
    return data


def _read_timestamps(meta: Path) -> list[float] | None:
    """The timestamps of a ``{"frame_timestamps": [numbers]}`` sidecar, or
    None without one. Anything else in it is a FormatError."""
    if not meta.exists():
        return None
    try:
        doc = json.loads(meta.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta}: invalid JSON at byte offset {exc.pos}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise FormatError(f"{meta}: {exc}") from exc
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
    payload is read READ_CHUNK_BYTES at a time, and the skipped frames pass
    through one buffer of that size, so a sampled load holds the kept
    frames plus one chunk.

    Raises:
        FormatError: bad magic, version, rank, or dims; truncated or
            oversized payload; a sidecar that is not a JSON object with
            one field, ``frame_timestamps``, an array of numbers.
        ParameterError: non-finite values; invalid timestamps; a sample
            outside [1, n_frames].
    """
    path = Path(path)
    return FrameFeatures(*_read_checked(
        path, lambda n: range(n) if sample is None else uniform_sample_indices(n, sample)))


def _check_file(path: str | Path) -> None:
    """Read and check an FVT1 file and its sidecar as :func:`load_features`
    does, keeping no frame: memory stays at one READ_CHUNK_BYTES buffer."""
    _read_checked(Path(path), lambda n: ())


def _read_checked(path: Path, pick) -> tuple[np.ndarray, list[float] | None]:
    """The frames ``pick(n_frames)`` keeps and their timestamps. Every value
    of a skipped frame is checked here; a file whose frames are all kept is
    left to FrameFeatures to check. The sidecar's timestamps are checked
    over all frames before they are subset."""
    with open(path, "rb", buffering=0) as fh:
        dims = _read_header(fh, path)
        keep = pick(dims[0])
        data = _read_frames(fh, path, dims, keep)
    timestamps = _read_timestamps(_meta_path(path))
    if timestamps is not None and len(keep) < dims[0]:
        timestamps = _checked_timestamps(timestamps, dims[0])
        timestamps = [timestamps[i] for i in keep]
    return data, timestamps


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic tensor with planted scene structure."""

    n_frames: int
    n_patches: int
    dim: int
    n_scenes: int
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_frames", "n_patches", "dim", "n_scenes"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_scenes > self.n_frames:
            raise ParameterError(
                f"n_scenes {self.n_scenes} exceeds n_frames {self.n_frames}"
            )
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed}")


def planted_block_labels(spec: SyntheticSpec) -> np.ndarray:
    """Ground-truth block label per frame for :func:`generate_synthetic`."""
    labels = np.empty(spec.n_frames, dtype=np.int64)
    for b, block in enumerate(np.array_split(np.arange(spec.n_frames), spec.n_scenes)):
        labels[block] = b
    return labels


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


def generate_synthetic(spec: SyntheticSpec) -> FrameFeatures:
    """Generate frames in contiguous blocks around well-separated base patterns.

    Each block's base pattern has a per-dim mean over patches equal to an
    axis-aligned offset of length at least ``(10*noise_sigma + 1) *
    sqrt(dim)``, so block means in representative space are pairwise
    separated by at least ``10 * noise_sigma * sqrt(dim)`` and point in
    distinguishable directions. Frames are the base pattern plus i.i.d.
    Gaussian noise of std ``noise_sigma``. Pure function of the spec,
    including the seed.
    """
    rng = np.random.default_rng(spec.seed)
    scale = (10.0 * spec.noise_sigma + 1.0) * math.sqrt(spec.dim)
    data = np.empty((spec.n_frames, spec.n_patches, spec.dim), dtype=np.float64)
    for b, block in enumerate(np.array_split(np.arange(spec.n_frames), spec.n_scenes)):
        texture = rng.standard_normal((spec.n_patches, spec.dim))
        texture -= texture.mean(axis=0, keepdims=True)  # keeps block means exact
        base = texture + _block_offset(b, spec.dim, scale)
        noise = rng.standard_normal((len(block), spec.n_patches, spec.dim))
        data[block] = base + spec.noise_sigma * noise
    return FrameFeatures(data.astype(np.float32))
