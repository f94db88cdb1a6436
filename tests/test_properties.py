"""Property-based checks of the library's structural invariants."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference
from framefuse import (
    CompressConfig,
    FrameFeatures,
    compress,
    load_features,
    merge_scene,
    save_features,
    select_scenes_bsm,
    select_scenes_kmeans,
)
from reference import render_frame_instruction

finite32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
    ),
)
def test_fvt_roundtrip_bit_exact(tmp_path_factory, data, shape):
    arr = data.draw(hnp.arrays(np.float32, shape, elements=finite32))
    path = tmp_path_factory.mktemp("fvt") / "t.fvt"
    save_features(FrameFeatures(arr), path)
    back = load_features(path)
    assert np.array_equal(arr, back.data)
    assert arr.tobytes() == back.data.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 5))
def test_fusion_at_init_matches_average(seed, s):
    rng = np.random.default_rng(seed)
    scene = rng.standard_normal((s, 3, 4))
    w = np.full((s, 3, 4), 1.0 / s)
    fused = merge_scene(scene, "fusion", weights=w)
    assert np.max(np.abs(fused - merge_scene(scene, "tavg"))) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t0=st.integers(1, 40),
    data=st.data(),
)
def test_bsm_merge_count_and_mass(seed, t0, data):
    target = data.draw(st.integers(1, t0))
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal((t0, 6))
    out, sizes = reference.bsm_merge(tokens, target)
    assert out.shape[0] == target
    assert int(sizes.sum()) == t0
    if t0 % target == 0:  # the target of a scene of t0 / target frames
        scene = tokens.reshape(target, t0 // target, 6).transpose(1, 0, 2)
        assert merge_scene(scene, "bsm").tobytes() == out.tobytes()
    mass_in = tokens.sum(axis=0)
    mass_out = (out * sizes[:, None]).sum(axis=0)
    assert np.max(np.abs(mass_out - mass_in)) <= 1e-6 * max(1.0, np.abs(mass_in).max())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    data=st.data(),
)
def test_scene_sets_structurally_valid(seed, n, data):
    k = data.draw(st.integers(1, n))
    r = data.draw(st.integers(0, n // k - 1))
    rng = np.random.default_rng(seed)
    f = FrameFeatures(rng.standard_normal((n, 2, 5)).astype(np.float32))
    for ss in (
        select_scenes_kmeans(f, k, r, seed=seed),
        select_scenes_bsm(f, k, r),
    ):
        assert ss.k == k
        members = reference.retained_indices(ss)
        assert len(members) == k * (r + 1)
        assert len(set(members)) == len(members)  # disjoint scenes
        for scene in ss.scenes:
            assert list(scene.members) == sorted(scene.members)
            assert len(scene.members) == r + 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    total=st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
)
def test_instruction_roundtrip_no_information_loss(n, total):
    import re

    ts = [j * total / n for j in range(n)]
    text = render_frame_instruction(n, total, ts)
    m = re.fullmatch(
        r"This video samples (\d+) frames of a (\d+)-second video at (.+) seconds\.",
        text,
    )
    assert m
    assert int(m.group(1)) == n
    assert int(m.group(2)) == int(np.floor(total + 0.5))
    parsed = [float(x) for x in m.group(3).split(", ")]
    assert len(parsed) == n
    for got, want in zip(parsed, ts):
        assert got == float(f"{want:.1f}")  # exact at the stated precision


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.name, record.levelname, record.getMessage()))


def _compress_logged(features, cfg):
    handler = _Records()
    logger = logging.getLogger("framefuse.pipeline")
    logger.addHandler(handler)
    try:
        out = compress(features, cfg)
    finally:
        logger.removeHandler(handler)
    return out, handler.messages


@pytest.mark.parametrize("merging", ["tavg", "fusion", "attnpool", "bsm"])
@pytest.mark.parametrize("selection", ["uniform", "kmeans", "bsm"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_sampled_load_compresses_like_the_whole_file(tmp_path_factory, selection, merging, data):
    total = data.draw(st.integers(1, 40), label="n_frames")
    k = data.draw(st.integers(1, total), label="k")
    r = data.draw(st.integers(0, total // k - 1), label="r")
    n = k * (r + 1) if selection == "uniform" else data.draw(
        st.integers(k * (r + 1), total), label="input_frames")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    # few distinct small values, so that ties, duplicate frames and padded
    # scenes (warnings) are common
    values = rng.integers(-2, 3, (total, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))))
    timestamps = None
    if data.draw(st.booleans(), label="timestamps"):
        timestamps = tuple(np.cumsum(rng.uniform(0.1, 2.0, total)).tolist())
    path = tmp_path_factory.mktemp("fvt") / "t.fvt"
    save_features(FrameFeatures(values.astype(np.float32), timestamps), path)
    cfg = CompressConfig(n, k, r, selection, merging, seed)

    whole, whole_log = _compress_logged(load_features(path), cfg)
    sampled, sampled_log = _compress_logged(load_features(path, sample=n), cfg)
    assert sampled.data.tobytes() == whole.data.tobytes()
    assert sampled.frame_timestamps == whole.frame_timestamps
    assert sampled_log == whole_log
