"""Tensor type, FVT1 format, and synthetic-data tests."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from framefuse import (
    FormatError,
    FrameFeatures,
    ParameterError,
    SyntheticSpec,
    generate_synthetic,
    kmeans,
    load_features,
    representative_features,
    save_features,
)
from framefuse import features
from framefuse.errors import FINITE_CHECK_VALUES
from framefuse.features import HEADER_SIZE
from reference import planted_block_labels


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


@pytest.mark.parametrize("where", [0, FINITE_CHECK_VALUES - 1, FINITE_CHECK_VALUES, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rejected_in_any_slice(where, bad):
    data = np.zeros(2 * FINITE_CHECK_VALUES + 3, dtype=np.float32)
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


def test_generate_synthetic_holds_no_float64_tensor():
    import tracemalloc

    spec = SyntheticSpec(n_frames=64, n_patches=32, dim=256, n_scenes=16, seed=2)
    block_f64 = (64 // 16) * 32 * 256 * 8
    generate_synthetic(SyntheticSpec(2, 1, 1, 1))  # numpy's one-time lazy set-up
    tracemalloc.start()
    try:
        f = generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 payload (2 MiB) plus a block's float64 draws and sums;
    # a float64 tensor and its float32 copy would be 6 MiB
    assert peak < f.data.nbytes + 4 * block_f64 + 2**18, f"peak {peak / 2**20:.2f} MiB"


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
# skipped, each in a unit of its own, and frame 3 holds the payload's 4 MiB
# mark
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
    _assert_sampled_load_holds_the_sample_and_one_chunk(tmp_path)


@pytest.mark.parametrize("workers", [2, 3])
def test_sampled_load_on_several_workers_holds_the_sample_and_one_chunk(tmp_path, set_workers,
                                                                        workers):
    set_workers(workers)
    _assert_sampled_load_holds_the_sample_and_one_chunk(tmp_path)


def _assert_sampled_load_holds_the_sample_and_one_chunk(tmp_path):
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


# -- the unit reader: units of whole frames on W workers ---------------------

def _keep(pattern, n, rng):
    if pattern == "all":
        return range(n)
    if pattern == "none":
        return ()
    if pattern == "one":
        return [int(rng.integers(n))]
    if pattern == "first and last":
        return sorted({0, n - 1})
    if pattern == "runs":  # two runs of kept frames, which may cross unit boundaries
        a, b, c, d = sorted(rng.integers(0, n + 1, 4))
        return [*range(a, b), *range(c, d)] or [a % n]
    if pattern == "uniform":
        return features.uniform_sample_indices(n, int(rng.integers(1, n + 1)))
    return sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())


def _read_as_loaded(path, keep):
    # what load_features keeps, or what _check_file checks when it keeps no frame
    if not keep:
        return features._check_file(path)
    loaded = FrameFeatures(*features._read_checked(path, lambda n: keep))
    ts = loaded.frame_timestamps
    return loaded.data, None if ts is None else list(ts)


# set_workers and monkeypatch set W and the units afresh for every example
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_frames=st.integers(1, 14),
    n_patches=st.integers(1, 3),
    dim=st.integers(1, 4),
    pattern=st.sampled_from(["all", "none", "one", "first and last", "runs", "uniform",
                             "random"]),
    unit_frames=st.integers(1, 4),
    chunk_frames=st.integers(1, 9),
    spare=st.integers(0, 3),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    sidecar=st.booleans(),
)
def test_unit_reader_matches_the_plain_reader(tmp_path, monkeypatch, set_workers, seed,
                                              n_frames, n_patches, dim, pattern, unit_frames,
                                              chunk_frames, spare, bad, sidecar):
    import threading

    import reference

    rng = np.random.default_rng(seed)
    data = rng.uniform(-8.0, 8.0, (n_frames, n_patches, dim)).astype(np.float32)
    if bad is not None:
        data.reshape(-1)[rng.integers(data.size)] = bad
    path = tmp_path / "f.fvt"
    _write_raw(path, data, [0.5 * i for i in range(n_frames)] if sidecar else None)
    if not sidecar:
        (tmp_path / "f.fvt.meta.json").unlink(missing_ok=True)
    keep = _keep(pattern, n_frames, rng)
    # unit and buffer sizes that whole frames do not fill, unless spare is 0
    frame_bytes = n_patches * dim * 4
    monkeypatch.setattr(features, "READ_UNIT_BYTES", unit_frames * frame_bytes + spare)
    monkeypatch.setattr(features, "READ_CHUNK_BYTES", chunk_frames * frame_bytes + spare)
    try:
        want = reference.read_frames(path, keep)
    except ParameterError as exc:
        want = exc
    for workers in (1, 2, 3):
        set_workers(workers)
        before = threading.active_count()
        try:
            got = _read_as_loaded(path, keep)
        except ParameterError as exc:
            got = exc
        assert threading.active_count() == before
        if isinstance(want, ParameterError):
            assert isinstance(got, ParameterError) and "non-finite" in str(got), workers
        elif not keep:
            assert got is None
        else:
            assert got[0].tobytes() == want[0].tobytes(), workers
            assert got[1] == want[1], workers


def test_unit_reader_resumes_short_reads(tmp_path, monkeypatch, set_workers):
    import reference

    data = np.random.default_rng(11).standard_normal((40, 3, 8)).astype(np.float32)
    path = tmp_path / "f.fvt"
    _write_raw(path, data)
    real_preadv = os.preadv

    def short_preadv(fd, views, offset):  # at most half of the first view, at least a byte
        return real_preadv(fd, [views[0][:max(1, len(views[0]) // 2)]], offset)

    monkeypatch.setattr(os, "preadv", short_preadv)
    monkeypatch.setattr(features, "READ_UNIT_BYTES", 3 * 96 + 5)
    keep = features.uniform_sample_indices(40, 13)
    for workers in (1, 2, 3):
        set_workers(workers)
        assert load_features(path, sample=13).data.tobytes() == \
            reference.read_frames(path, keep)[0].tobytes()


def test_load_and_representatives_under_contention(tmp_path, monkeypatch, set_workers):
    # more workers than CPUs, switching threads as often as the interpreter
    # allows, and units of about one frame: a worker that wrote another's
    # rows or buffer would change the bytes
    import sys
    import threading

    import reference
    from framefuse import errors, select

    data = np.random.default_rng(12).standard_normal((90, 3, 8)).astype(np.float32)
    path = tmp_path / "f.fvt"
    _write_raw(path, data, [0.25 * i for i in range(90)])
    keep = features.uniform_sample_indices(90, 37)
    want_data, want_ts = reference.read_frames(path, keep)
    monkeypatch.setattr(features, "READ_UNIT_BYTES", 96)
    monkeypatch.setattr(errors, "FINITE_UNIT_VALUES", 50)
    monkeypatch.setattr(select, "REPRESENTATIVE_UNIT_BYTES", 96)
    set_workers(4)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            loaded = load_features(path, sample=37)
            reps = representative_features(loaded)
            assert loaded.data.tobytes() == want_data.tobytes()
            assert list(loaded.frame_timestamps) == want_ts
            assert reps.tobytes() == want_data.mean(axis=1, dtype=np.float64).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


# 12 frames of 64 bytes, sampled to frames 0 and 6; units of one skipped
# frame start at frames 0, 2, 3, 4, 5, 6, 8, 9, 10 and 11
_UNIT_FRAME = (2, 8)
_UNIT_FRAME_BYTES = 64


def _units_of_one_skipped_frame(monkeypatch):
    monkeypatch.setattr(features, "READ_UNIT_BYTES", _UNIT_FRAME_BYTES)
    monkeypatch.setattr(features, "READ_CHUNK_BYTES", 4 * _UNIT_FRAME_BYTES)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_reader_checks_every_skipped_run_of_a_unit(tmp_path, monkeypatch, set_workers,
                                                        workers, bad):
    # every other frame kept and units of two skipped frames: each unit holds
    # two runs of skipped frames, packed one after the other in the buffer
    monkeypatch.setattr(features, "READ_UNIT_BYTES", 2 * _UNIT_FRAME_BYTES)
    set_workers(workers)
    path = tmp_path / "f.fvt"
    for frame in range(1, 12, 2):
        data = np.zeros((12, *_UNIT_FRAME), dtype=np.float32)
        data[frame, 0, 0] = bad
        _write_raw(path, data)
        with pytest.raises(ParameterError, match="non-finite"):
            load_features(path, sample=6)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("first", ["non-finite", "truncated"])
def test_unit_reader_raises_the_first_failed_unit(tmp_path, monkeypatch, set_workers, workers,
                                                  bad, first):
    # frame 3 fails one way and frame 9 the other, and frame 3's unit only
    # after a pause, so that with two or more workers frame 9's unit fails
    # first; frame 3's failure is the one raised
    import threading
    import time

    data = np.zeros((12, *_UNIT_FRAME), dtype=np.float32)
    nan_frame, short_frame = (3, 9) if first == "non-finite" else (9, 3)
    data[nan_frame, 1, 5] = bad
    path = tmp_path / "f.fvt"
    _write_raw(path, data)
    real_preadv = os.preadv

    def failing_preadv(fd, views, offset):
        frame = (offset - HEADER_SIZE) // _UNIT_FRAME_BYTES
        if frame == 3:
            time.sleep(0.05)
        return 0 if frame == short_frame else real_preadv(fd, views, offset)

    _units_of_one_skipped_frame(monkeypatch)
    monkeypatch.setattr(os, "preadv", failing_preadv)
    set_workers(workers)
    before = threading.active_count()
    if first == "non-finite":
        with pytest.raises(ParameterError, match="non-finite"):
            load_features(path, sample=2)
    else:
        with pytest.raises(FormatError, match="truncated payload"):
            load_features(path, sample=2)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_unit_reader_rejects_bytes_written_past_the_payload_during_the_read(
        tmp_path, monkeypatch, set_workers, workers):
    # the header's size check passes, then the file grows
    import threading

    path = tmp_path / "f.fvt"
    _write_raw(path, np.zeros((12, *_UNIT_FRAME), dtype=np.float32))
    real_preadv = os.preadv

    def growing_preadv(fd, views, offset):
        if offset == HEADER_SIZE:
            with open(path, "ab") as fh:
                fh.write(b"\0")
        return real_preadv(fd, views, offset)

    _units_of_one_skipped_frame(monkeypatch)
    monkeypatch.setattr(os, "preadv", growing_preadv)
    set_workers(workers)
    before = threading.active_count()
    for sample in (None, 2):
        _write_raw(path, np.zeros((12, *_UNIT_FRAME), dtype=np.float32))
        with pytest.raises(FormatError, match="trailing bytes after payload"):
            load_features(path, sample=sample)
    assert threading.active_count() == before


@pytest.mark.parametrize("n_frames", [1, 2, 7, 16, 23])
def test_representatives_do_not_depend_on_workers(monkeypatch, set_workers, n_frames):
    from framefuse import select

    data = np.random.default_rng(n_frames).uniform(-9.0, 9.0, (n_frames, 5, 3))
    data[0, :, 0] = -0.0  # a column of -0.0 averages to +0.0, in every unit
    features_ = FrameFeatures(data.astype(np.float32))
    want = features_.data.mean(axis=1, dtype=np.float64)
    monkeypatch.setattr(select, "REPRESENTATIVE_UNIT_BYTES", 2 * 5 * 3 * 4 + 1)  # 2 frames
    for workers in (1, 2, 3):
        set_workers(workers)
        got = representative_features(features_)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), workers


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("where", ["first", "unit boundary", "last", None])
def test_all_finite_finds_a_bad_value_anywhere(monkeypatch, set_workers, workers, where):
    from framefuse import errors

    monkeypatch.setattr(errors, "FINITE_UNIT_VALUES", 40)
    monkeypatch.setattr(errors, "FINITE_CHECK_VALUES", 16)
    set_workers(workers)
    for bad in (np.nan, np.inf, -np.inf):
        flat = np.ones(203, dtype=np.float32)
        if where is not None:
            # the last value of unit 2, then the first of unit 3
            for i in {"first": [0], "unit boundary": [119, 120], "last": [202]}[where]:
                flat[i] = bad
                assert not errors._all_finite(flat), (where, i)
                flat[i] = 1.0
        assert errors._all_finite(flat)


def test_sampled_load_checks_the_sidecar_over_every_frame(tmp_path):
    data = np.zeros((6, 1, 1), dtype=np.float32)
    path = tmp_path / "t.fvt"
    # frames 1 and 2 are not sampled, but their timestamps still count
    for ts, message in (([0.0, 5.0, 4.0, 6.0, 7.0, 8.0], "strictly increasing"),
                        ([0.0, -1.0, 2.0, 3.0, 4.0, 5.0], "timestamp 1 must be finite and >= 0"),
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


@pytest.mark.parametrize("failing", ["sidecar", "payload"])
def test_failed_save_never_pairs_frames_with_other_timestamps(tmp_path, monkeypatch, failing):
    path = tmp_path / "ts.fvt"
    old = FrameFeatures(np.zeros((3, 1, 1)), (0.0, 1.0, 2.0))
    new = FrameFeatures(np.ones((3, 1, 1)), (10.0, 20.0, 30.0))
    save_features(old, path)
    write = features._atomic_write

    def write_or_fail(target, chunks):
        if target.name.endswith(".meta.json") == (failing == "sidecar"):
            raise OSError(f"{failing} write failed")
        write(target, chunks)

    monkeypatch.setattr(features, "_atomic_write", write_or_fail)
    with pytest.raises(OSError, match=f"{failing} write failed"):
        save_features(new, path)
    loaded = load_features(path)
    kept = new if failing == "sidecar" else old
    assert loaded.data.tobytes() == kept.data.tobytes()
    assert loaded.frame_timestamps is None


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_mode_0666_less_the_umask(tmp_path, umask, mode):
    path = tmp_path / "ts.fvt"
    old = os.umask(umask)
    try:
        save_features(FrameFeatures(np.zeros((2, 1, 1)), (0.0, 1.0)), path)
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ts.fvt", "ts.fvt.meta.json"]
    for written in tmp_path.iterdir():
        assert stat.S_IMODE(written.stat().st_mode) == mode, written.name
