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
