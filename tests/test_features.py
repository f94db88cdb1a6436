"""Tensor type, FVT1 format, and synthetic-data tests."""

import json

import numpy as np
import pytest

from framefuse import (
    FormatError,
    FrameFeatures,
    ParameterError,
    SyntheticSpec,
    generate_synthetic,
    kmeans,
    load_features,
    planted_block_labels,
    representative_features,
    save_features,
)
from framefuse import features
from framefuse.features import HEADER_SIZE


def test_frame_features_validation():
    with pytest.raises(ParameterError):
        FrameFeatures(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        FrameFeatures(np.full((1, 1, 1), np.nan))
    with pytest.raises(ParameterError):
        FrameFeatures(np.full((1, 1, 1), np.inf))
    f = FrameFeatures(np.ones((2, 3, 4), dtype=np.float64))
    assert f.data.dtype == np.float32
    assert (f.n_frames, f.n_patches, f.dim) == (2, 3, 4)


def test_timestamp_validation():
    data = np.zeros((3, 1, 1))
    f = FrameFeatures(data, (0.0, 1.5, 2.0))
    assert f.frame_timestamps == (0.0, 1.5, 2.0)
    with pytest.raises(ParameterError):
        FrameFeatures(data, (0.0, 1.0))  # wrong length
    with pytest.raises(ParameterError):
        FrameFeatures(data, (0.0, 1.0, 1.0))  # not strictly increasing
    with pytest.raises(ParameterError):
        FrameFeatures(data, (-1.0, 0.0, 1.0))  # negative


def test_roundtrip_simple(tmp_path):
    f = FrameFeatures(np.full((2, 3, 4), 1.5, dtype=np.float32))
    path = tmp_path / "t.fvt"
    save_features(f, path)
    g = load_features(path)
    assert np.array_equal(f.data, g.data)
    assert g.frame_timestamps is None


def test_single_element_file_is_25_bytes(tmp_path):
    # header per format: magic 4 + version 1 + rank 4 + three dims 12 = 21,
    # plus one float32 = 25 bytes total
    path = tmp_path / "one.fvt"
    save_features(FrameFeatures(np.zeros((1, 1, 1), dtype=np.float32)), path)
    assert HEADER_SIZE == 21
    assert path.stat().st_size == 25


def test_save_deterministic_bytes(tmp_path):
    f = FrameFeatures(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    p1, p2 = tmp_path / "a.fvt", tmp_path / "b.fvt"
    save_features(f, p1)
    save_features(f, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_large_roundtrip_checksum(tmp_path):
    rng = np.random.default_rng(42)
    f = FrameFeatures(rng.standard_normal((96, 729, 1152)).astype(np.float32))
    path = tmp_path / "big.fvt"
    save_features(f, path)
    raw = path.read_bytes()
    # independent byte-compare oracle: header + raw little-endian payload
    assert raw[:4] == b"FVT1"
    assert raw[21:] == f.data.astype("<f4").tobytes()
    g = load_features(path)
    assert np.array_equal(f.data, g.data)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fvt"
    save_features(FrameFeatures(np.zeros((1, 1, 1))), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_features(path)


def test_bad_version_and_rank(tmp_path):
    path = tmp_path / "bad.fvt"
    save_features(FrameFeatures(np.zeros((1, 1, 1))), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_features(path)

    save_features(FrameFeatures(np.zeros((1, 1, 1))), path)
    raw = bytearray(path.read_bytes())
    raw[5] = 2  # rank 2
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="rank"):
        load_features(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.fvt"
    save_features(FrameFeatures(np.zeros((2, 2, 2))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="truncated payload"):
        load_features(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "extra.fvt"
    save_features(FrameFeatures(np.zeros((1, 1, 1))), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_features(path)


def test_truncated_header_and_zero_dims(tmp_path):
    path = tmp_path / "bad.fvt"
    save_features(FrameFeatures(np.zeros((1, 1, 1))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:HEADER_SIZE - 1])
    with pytest.raises(FormatError, match="truncated header"):
        load_features(path)
    path.write_bytes(raw[:9] + (0).to_bytes(4, "little") + raw[13:])
    with pytest.raises(FormatError, match="invalid n_frames 0"):
        load_features(path)


def test_load_holds_one_copy_of_the_payload(tmp_path):
    import tracemalloc

    path = tmp_path / "big.fvt"
    data = np.random.default_rng(5).standard_normal((64, 32, 256)).astype(np.float32)
    save_features(FrameFeatures(data), path)
    tracemalloc.start()
    try:
        loaded = load_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.data.tobytes() == data.tobytes()
    assert loaded.data.flags.c_contiguous and loaded.data.dtype == np.float32
    # the payload (8 MiB) is read once, straight into the returned array;
    # the finiteness check adds a boolean mask of a quarter payload
    assert peak < 1.5 * data.nbytes, f"peak {peak / data.nbytes:.2f} payloads"


def test_load_peak_under_1_1_payloads(tmp_path):
    import tracemalloc

    path = tmp_path / "big.fvt"
    data = np.random.default_rng(6).standard_normal((64, 64, 512)).astype(np.float32)
    save_features(FrameFeatures(data), path)
    tracemalloc.start()
    try:
        loaded = load_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.data.tobytes() == data.tobytes()
    # the finiteness check works on slices, never on a mask of the tensor
    assert peak < 1.1 * data.nbytes, f"peak {peak / data.nbytes:.2f} payloads"


@pytest.mark.parametrize("where", [0, features.FINITE_CHECK_VALUES - 1,
                                   features.FINITE_CHECK_VALUES, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rejected_in_any_slice(where, bad):
    data = np.zeros(2 * features.FINITE_CHECK_VALUES + 3, dtype=np.float32)
    data[where] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        FrameFeatures(data.reshape(1, 1, -1))


def test_nan_rejected_before_write(tmp_path):
    with pytest.raises(ParameterError):
        save_features(FrameFeatures(np.full((1, 1, 1), np.nan)), tmp_path / "x.fvt")


def test_timestamp_sidecar_roundtrip(tmp_path):
    f = FrameFeatures(np.zeros((3, 1, 1)), (0.0, 2.5, 7.0))
    path = tmp_path / "ts.fvt"
    save_features(f, path)
    sidecar = tmp_path / "ts.fvt.meta.json"
    assert json.loads(sidecar.read_text()) == {"frame_timestamps": [0.0, 2.5, 7.0]}
    g = load_features(path)
    assert g.frame_timestamps == (0.0, 2.5, 7.0)
    # saving a timestamp-free tensor over it must drop the stale sidecar
    save_features(FrameFeatures(np.zeros((3, 1, 1))), path)
    assert not sidecar.exists()


def test_synthetic_spec_validation():
    with pytest.raises(ParameterError):
        SyntheticSpec(n_frames=2, n_patches=1, dim=1, n_scenes=3)
    with pytest.raises(ParameterError):
        SyntheticSpec(n_frames=2, n_patches=1, dim=1, n_scenes=1, noise_sigma=-0.1)
    with pytest.raises(ParameterError):
        SyntheticSpec(n_frames=0, n_patches=1, dim=1, n_scenes=1)


def test_zero_noise_blocks_identical():
    spec = SyntheticSpec(n_frames=4, n_patches=3, dim=5, n_scenes=2, noise_sigma=0.0, seed=9)
    f = generate_synthetic(spec)
    assert np.array_equal(f.data[0], f.data[1])
    assert np.array_equal(f.data[2], f.data[3])
    assert not np.array_equal(f.data[1], f.data[2])


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_frames=12, n_patches=4, dim=6, n_scenes=3, noise_sigma=0.2, seed=31)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.data, b.data)


def test_block_separation_contract():
    # planted block means must sit >= 10*sigma*sqrt(dim) apart in
    # representative space
    spec = SyntheticSpec(n_frames=30, n_patches=8, dim=16, n_scenes=5, noise_sigma=0.3, seed=3)
    f = generate_synthetic(spec)
    reps = representative_features(f)
    labels = planted_block_labels(spec)
    means = np.stack([reps[labels == b].mean(axis=0) for b in range(5)])
    floor = 10 * spec.noise_sigma * np.sqrt(spec.dim)
    for i in range(5):
        for j in range(i + 1,5):
            sep = np.linalg.norm(means[i] - means[j])
            assert sep >= floor, (i, j, sep, floor)


def test_zero_noise_within_block_cosine():
    spec = SyntheticSpec(n_frames=9, n_patches=4, dim=8, n_scenes=3, noise_sigma=0.0, seed=5)
    f = generate_synthetic(spec)
    reps = representative_features(f)
    labels = planted_block_labels(spec)
    for b in range(3):
        rows = reps[labels == b]
        base = rows[0]
        for row in rows[1:]:
            cos = row @ base / (np.linalg.norm(row) * np.linalg.norm(base))
            assert abs(cos - 1.0) <= 1e-6


def test_kmeans_recovers_planted_partition():
    spec = SyntheticSpec(n_frames=24, n_patches=6, dim=12, n_scenes=3, noise_sigma=0.1, seed=11)
    f = generate_synthetic(spec)
    reps = representative_features(f)
    labels = planted_block_labels(spec)
    clustering = kmeans(reps, 3, seed=2)
    # compare partitions up to relabeling
    mapping = {}
    for planted, got in zip(labels, clustering.assignments):
        mapping.setdefault(planted, got)
        assert mapping[planted] == got
    assert len(set(mapping.values())) == 3


# -- sampled loads --------------------------------------------------------------

def _write_raw(path, data, timestamps=None):
    """An FVT1 file with *data* as written, non-finite values included."""
    data = np.ascontiguousarray(data, dtype="<f4")
    path.write_bytes(features._HEADER.pack(features.MAGIC, features.FORMAT_VERSION, 3)
                     + b"".join(features._DIM.pack(d) for d in data.shape) + data.tobytes())
    if timestamps is not None:
        (path.parent / (path.name + ".meta.json")).write_text(
            json.dumps({"frame_timestamps": timestamps}))


@pytest.mark.parametrize("n", [1, 3, 7, 10])
def test_sampled_load_keeps_the_uniform_sample(tmp_path, n):
    from framefuse.features import uniform_sample_indices

    data = np.random.default_rng(3).standard_normal((10, 3, 5)).astype(np.float32)
    ts = tuple(0.5 * i for i in range(10))
    path = tmp_path / "t.fvt"
    save_features(FrameFeatures(data, ts), path)
    got = load_features(path, sample=n)
    idx = uniform_sample_indices(10, n)
    assert got.data.tobytes() == data[idx].tobytes()
    assert got.frame_timestamps == tuple(ts[i] for i in idx)


def test_sampled_load_out_of_range(tmp_path):
    path = tmp_path / "t.fvt"
    save_features(FrameFeatures(np.zeros((4, 1, 1))), path)
    for n in (0, 5):
        with pytest.raises(ParameterError, match=rf"sample count {n} outside \[1, 4\]"):
            load_features(path, sample=n)


# 8 frames of 1.5 MiB sampled down to frames 0 and 4: frames 1-3 and 5-7 are
# read through the 4 MiB buffer, and frames 3 and 7 straddle its refill
_FRAME = (384, 1024)
_CHUNK_VALUES = features.READ_CHUNK_BYTES // 4
_FRAME_VALUES = _FRAME[0] * _FRAME[1]


@pytest.mark.parametrize("where", [
    _FRAME_VALUES,                          # first value of the first unsampled frame
    8 * _FRAME_VALUES - 1,                  # last value of the last frame
    _FRAME_VALUES + _CHUNK_VALUES - 1,      # frame 3, last value before the refill
    _FRAME_VALUES + _CHUNK_VALUES,          # frame 3, first value after it
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampled_load_rejects_non_finite_unsampled_frames(tmp_path, where, bad):
    assert features.READ_CHUNK_BYTES % (4 * _FRAME_VALUES) != 0
    data = np.zeros((8, *_FRAME), dtype=np.float32)
    data.reshape(-1)[where] = bad
    path = tmp_path / "bad.fvt"
    _write_raw(path, data)
    with pytest.raises(ParameterError, match="non-finite"):
        load_features(path, sample=2)
    data.reshape(-1)[where] = 0.0
    _write_raw(path, data)
    assert load_features(path, sample=2).data.shape == (2, *_FRAME)


def test_sampled_load_holds_the_sample_and_one_chunk(tmp_path):
    import tracemalloc

    path = tmp_path / "big.fvt"
    data = np.random.default_rng(7).standard_normal((512, 32, 512), dtype=np.float32)
    save_features(FrameFeatures(data), path)
    tracemalloc.start()
    try:
        loaded = load_features(path, sample=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.data.tobytes() == data[::32].tobytes()
    bound = loaded.data.nbytes + features.READ_CHUNK_BYTES + 2**18
    assert peak < bound, f"peak {peak} bytes, bound {bound}"
    assert data.nbytes > 4 * bound


def test_sampled_load_checks_the_sidecar_over_every_frame(tmp_path):
    data = np.zeros((6, 1, 1), dtype=np.float32)
    path = tmp_path / "t.fvt"
    # frames 1 and 2 are not sampled, but their timestamps still count
    for ts, message in (([0.0, 5.0, 4.0, 6.0, 7.0, 8.0], "strictly increasing"),
                        ([0.0, -1.0, 2.0, 3.0, 4.0, 5.0], "non-negative"),
                        ([0.0, 1.0, 2.0, 3.0], "expected 6 timestamps, got 4")):
        _write_raw(path, data, ts)
        with pytest.raises(ParameterError, match=message):
            load_features(path, sample=2)


@pytest.mark.parametrize("doc, message", [
    ({"frame_timestamps": [False, "1.5", 2], "extra": 1},
     r"unknown fields \['extra'\], expected only frame_timestamps"),
    ({"frame_timestamps": [False, 1.5, 2]}, "entry 0 must be a number, got False"),
    ({"frame_timestamps": [0, "1.5", 2]}, "entry 1 must be a number, got '1.5'"),
    ({"frame_timestamps": [0, 1.5, None]}, "entry 2 must be a number, got None"),
    ({"frame_timestamps": [0, [1.5], 2]}, r"entry 1 must be a number, got \[1.5\]"),
    ({"frame_timestamps": "0 1 2"}, "frame_timestamps must be an array, got str"),
    ({"timestamps": [0, 1, 2]}, "missing frame_timestamps field"),
    ([0, 1, 2], "missing frame_timestamps field"),
])
@pytest.mark.parametrize("sample", [None, 2])
def test_sidecar_is_used_as_written_or_rejected(tmp_path, doc, message, sample):
    path = tmp_path / "t.fvt"
    save_features(FrameFeatures(np.zeros((3, 1, 1))), path)
    (tmp_path / "t.fvt.meta.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        load_features(path, sample=sample)


def test_sidecar_integers_are_floats_and_huge_ones_are_rejected(tmp_path):
    path = tmp_path / "t.fvt"
    save_features(FrameFeatures(np.zeros((3, 1, 1))), path)
    sidecar = tmp_path / "t.fvt.meta.json"
    sidecar.write_text('{"frame_timestamps": [0, 1.5, 2]}')
    assert load_features(path).frame_timestamps == (0.0, 1.5, 2.0)
    sidecar.write_text('{"frame_timestamps": [0, 1, 1' + "0" * 400 + "]}")
    with pytest.raises(FormatError, match="entry 2 is out of range"):
        load_features(path)
    # past Python's 4,300-digit limit for int(), json.loads raises ValueError
    sidecar.write_text('{"frame_timestamps": [0, 1, 1' + "0" * 5000 + "]}")
    with pytest.raises(FormatError, match="meta.json: .*digits"):
        load_features(path)


def test_frame_features_timestamps_must_be_numbers():
    data = np.zeros((3, 1, 1))
    for ts, i in (((False, 1.0, 2.0), 0), ((0.0, "1.5", 2.0), 1), ((0.0, 1.0, None), 2),
                  ((0.0, 1.0, np.bool_(True)), 2)):
        with pytest.raises(ParameterError, match=f"timestamp {i} must be a number"):
            FrameFeatures(data, ts)
    with pytest.raises(ParameterError, match="timestamp 1 is out of range"):
        FrameFeatures(data, (0, 10**400, 10**401))
    f = FrameFeatures(data, (np.float32(0.5), np.float64(1.5), np.int64(2)))
    assert f.frame_timestamps == (0.5, 1.5, 2.0)
    assert all(type(t) is float for t in f.frame_timestamps)


# -- the write side -------------------------------------------------------------

def test_save_writes_the_array_without_copying_it(tmp_path):
    import tracemalloc

    data = np.random.default_rng(8).standard_normal((64, 32, 256)).astype(np.float32)
    f = FrameFeatures(data)
    path = tmp_path / "out.fvt"
    tracemalloc.start()
    try:
        save_features(f, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes()[HEADER_SIZE:] == data.tobytes()
    assert peak < 0.05 * data.nbytes, f"peak {peak / data.nbytes:.2f} payloads"


def test_atomic_write_leaves_nothing_when_a_chunk_fails(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        features._atomic_write(path, chunks())
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
