"""The merge engine against the per-scene reference in
``reference.py``: compress, merge_scene and the fusion fitter, on random
and degenerate inputs. tavg, fusion and bsm must match exactly. attnpool
regroups its scores as q.(wq.wk^T).x^T, which rounds differently, so it
must match within ATTNPOOL_TOL."""

import gc
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference
from framefuse import (
    CompressConfig,
    FrameFeatures,
    ParameterError,
    attn_projections,
    compress,
    fit_fusion_weights,
    merge_scene,
)
from framefuse import merge, parallel
from framefuse.merge import STRATEGIES
from framefuse.pipeline import SELECTIONS

# Absolute; outputs are float32 and inputs stay within [-4, 4], where one
# float32 rounding step is at most 4.8e-7.
ATTNPOOL_TOL = 1e-6


def _frames(rng, n, n_patches, dim, kind):
    data = rng.uniform(-4.0, 4.0, (n, n_patches, dim))
    if kind == "duplicates":
        data = data[rng.integers(0, max(1, n // 3), n)]
    elif kind == "zeros":
        data[rng.random(n) < 0.5] = 0.0
    elif kind == "all-zero":
        data[:] = 0.0
    elif kind == "identical":
        data[:] = data[0]
    return data


@st.composite
def compress_cases(draw):
    selection = draw(st.sampled_from(SELECTIONS))
    merging = draw(st.sampled_from(STRATEGIES))
    k = draw(st.integers(1, 4))
    r = draw(st.integers(0, 3))
    s = r + 1
    if selection == "uniform" or draw(st.booleans()):
        input_frames = k * s
    else:
        input_frames = draw(st.integers(k * s, k * s + 6))
    n = input_frames if draw(st.booleans()) else draw(st.integers(input_frames, input_frames + 8))
    return {
        "selection": selection, "merging": merging, "k": k, "r": r,
        "input_frames": input_frames, "n": n,
        "n_patches": draw(st.integers(1, 6)), "dim": draw(st.integers(1, 6)),
        "kind": draw(st.sampled_from(["random", "duplicates", "zeros", "all-zero",
                                      "identical"])),
        "custom_weights": merging == "fusion" and draw(st.booleans()),
        "timestamps": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _case(selection, merging, k, r, n, n_patches, dim, kind, **extra):
    case = {"selection": selection, "merging": merging, "k": k, "r": r,
            "input_frames": n, "n": n, "n_patches": n_patches, "dim": dim, "kind": kind,
            "custom_weights": False, "timestamps": True, "seed": 7}
    case.update(extra)
    return case


@settings(max_examples=150, deadline=None)
@given(case=compress_cases())
# r = 0 (one frame a scene) with k*(r+1) = n, L = 1 and D = 1
@example(case=_case("kmeans", "bsm", 5, 0, 5, 1, 1, "random"))
@example(case=_case("bsm", "attnpool", 3, 0, 3, 1, 1, "duplicates"))
@example(case=_case("uniform", "fusion", 2, 2, 6, 1, 1, "random", custom_weights=True))
@example(case=_case("uniform", "bsm", 4, 3, 16, 2, 3, "all-zero"))
@example(case=_case("uniform", "attnpool", 2, 1, 4, 3, 5, "identical"))
@example(case=_case("kmeans", "tavg", 2, 2, 6, 2, 2, "all-zero"))
def test_compress_matches_per_scene_reference(case):
    rng = np.random.default_rng(case["seed"])
    n, s = case["n"], case["r"] + 1
    shape = (case["n_patches"], case["dim"])
    ts = tuple(0.5 * i for i in range(n)) if case["timestamps"] else None
    features = FrameFeatures(_frames(rng, n, *shape, case["kind"]), ts)
    weights = rng.standard_normal((s,) + shape) if case["custom_weights"] else None
    cfg = CompressConfig(case["input_frames"], case["k"], case["r"],
                         selection=case["selection"], merging=case["merging"],
                         seed=case["seed"] % 1000)

    try:
        want = reference.compress(features, cfg, weights)
    except ParameterError as exc:  # e.g. cosine similarity of zero frames
        with pytest.raises(ParameterError, match=re.escape(str(exc))):
            compress(features, cfg, weights)
        return
    got = compress(features, cfg, weights)

    assert got.frame_timestamps == want.frame_timestamps
    assert got.data.dtype == np.float32 and got.data.shape == want.data.shape
    if case["merging"] == "attnpool":
        err = np.abs(got.data.astype(np.float64) - want.data)
        assert err.max() <= ATTNPOOL_TOL
    else:
        assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n_patches=st.integers(1, 4),
    dim=st.integers(1, 6),
    kind=st.sampled_from(["random", "duplicates", "zeros", "all-zero", "identical"]),
)
def test_per_scene_wrappers_match_reference(seed, s, n_patches, dim, kind):
    rng = np.random.default_rng(seed)
    scene = _frames(rng, s, n_patches, dim, kind)
    weights = rng.standard_normal(scene.shape)

    for strategy in ("tavg", "fusion", "bsm"):
        want = reference.merge_scene(scene, strategy)
        assert merge_scene(scene, strategy).tobytes() == want.tobytes(), strategy
    assert merge_scene(scene, "fusion", weights=weights).tobytes() == \
        reference.fusion(scene, weights).tobytes()

    got = merge_scene(scene, "attnpool", seed=seed % 7)
    want = reference.attention_pool(scene, attn_projections(dim, seed % 7))
    assert np.abs(got - want).max() <= ATTNPOOL_TOL


def _assert_same_fit(scenes, targets, lr, steps):
    w, history = fit_fusion_weights(scenes, targets, lr=lr, steps=steps)
    want_w, want_history = reference.fit_fusion_weights(scenes, targets, lr, steps)
    assert w.tobytes() == want_w.tobytes()
    assert np.array(history).tobytes() == np.array(want_history).tobytes()
    return history


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 4),
    s=st.integers(1, 3),
    n_patches=st.integers(1, 4),
    dim=st.integers(1, 5),
    kind=st.sampled_from(["random", "duplicates", "zeros", "all-zero"]),
    steps=st.sampled_from([0, 1, 5]),
    lr_scale=st.sampled_from([0.5, 1.0, 4.0]),
)
def test_fit_fusion_weights_equals_reference(seed, c, s, n_patches, dim, kind, steps,
                                              lr_scale):
    # lr_scale above 1 is past the stable learning rate
    rng = np.random.default_rng(seed)
    scenes = [_frames(rng, s, n_patches, dim, kind) for _ in range(c)]
    targets = [rng.uniform(-4.0, 4.0, (n_patches, dim)) for _ in range(c)]
    bound = max(float((sc * sc).sum(axis=0).max()) for sc in scenes)
    lr = lr_scale / bound if bound > 0 else lr_scale
    _assert_same_fit(scenes, targets, lr, steps)


def test_fit_fusion_weights_unstable_lr_equals_reference():
    # the loss falls for two steps and then grows, so the best iterate is
    # neither the init nor the last
    rng = np.random.default_rng(11)
    scenes = [rng.standard_normal((3, 2, 4)) for _ in range(5)]
    targets = [sc[0] for sc in scenes]
    bound = max(float((sc * sc).sum(axis=0).max()) for sc in scenes)
    history = _assert_same_fit(scenes, targets, 8.0 / bound, 5)
    assert 0 < int(np.argmin(history)) < len(history) - 1


def _of_dtype(rng, shape, dtype):
    # values in [-4, 4] ([0, 8] unsigned); longdouble ones carry bits past
    # float64's, which the array rule rounds away as the reference does
    dtype = np.dtype(dtype)
    if dtype.kind in "iu":
        low = -4 if dtype.kind == "i" else 0
        return rng.integers(low, low + 9, shape).astype(dtype)
    values = rng.uniform(-4.0, 4.0, shape).astype(dtype)
    if dtype.itemsize > 8:
        values += values * np.longdouble(2.0**-60)
    return values


_DTYPES = ["float16", "float32", "float64", "int32", "int64", "uint8", "longdouble"]
_MIXED = ["float32", "float64", "int64"]


def _scenes_of(rng, case, c, shape):
    # c scenes of shape and their targets as *case* gives them: arrays of
    # one dtype, nested lists, or mixed float32, float64 and int64 scenes
    # with float16 targets
    if case == "nested lists":
        return ([rng.uniform(-4.0, 4.0, shape).tolist() for _ in range(c)],
                [rng.uniform(-4.0, 4.0, shape[1:]).tolist() for _ in range(c)])
    if case == "mixed":
        return ([_of_dtype(rng, shape, _MIXED[i % 3]) for i in range(c)],
                [_of_dtype(rng, shape[1:], np.float16) for _ in range(c)])
    return ([_of_dtype(rng, shape, case) for _ in range(c)],
            [_of_dtype(rng, shape[1:], case) for _ in range(c)])


@pytest.mark.parametrize("case", _DTYPES + ["nested lists", "mixed"])
def test_fit_fusion_weights_of_each_dtype_equals_reference(case):
    # the scenes and targets are stacked in their own dtype and read as
    # float64, which is what the reference's float64 copies hold
    rng = np.random.default_rng(14)
    scenes, targets = _scenes_of(rng, case, 5, (3, 4, 6))
    bound = max(float((np.asarray(sc, dtype=np.float64) ** 2).sum(axis=0).max())
                for sc in scenes)
    for lr_scale, steps in ((1.0, 4), (6.0, 4)):  # a stable and an unstable rate
        _assert_same_fit(scenes, targets, lr_scale / bound, steps)


@pytest.mark.parametrize("case", _DTYPES + ["nested lists", "mixed"])
def test_merge_scene_of_each_dtype_matches_reference(case):
    rng = np.random.default_rng(15)
    if case == "mixed":  # a list of float32, float64 and int64 frames
        scene = [_of_dtype(rng, (4, 6), dtype) for dtype in _MIXED]
    else:
        scene = _scenes_of(rng, case, 1, (3, 4, 6))[0][0]
    if isinstance(scene, np.ndarray) and scene.dtype.itemsize <= 8:
        assert merge._as_scene(scene) is scene  # checked in place, not copied
    for strategy in ("tavg", "fusion", "bsm"):
        want = reference.merge_scene(scene, strategy)
        assert merge_scene(scene, strategy).tobytes() == want.tobytes(), strategy
    weights = rng.standard_normal(np.shape(scene))
    assert merge_scene(scene, "fusion", weights=weights).tobytes() == \
        reference.fusion(scene, weights).tobytes()
    got = merge_scene(scene, "attnpool", seed=2)
    assert np.abs(got - reference.merge_scene(scene, "attnpool", seed=2)).max() <= ATTNPOOL_TOL


def test_fit_fusion_weights_validates_each_scene_once(monkeypatch):
    # the scenes and the targets are each checked once, as one stack
    calls = []
    real = merge._check_array

    def counting(name, value, dtype, ndim):
        calls.append((name, np.shape(value)))
        return real(name, value, dtype, ndim)

    monkeypatch.setattr(merge, "_check_array", counting)
    rng = np.random.default_rng(12)
    scenes = [rng.standard_normal((2, 3, 4)) for _ in range(4)]
    targets = [rng.standard_normal((3, 4)) for _ in range(4)]
    fit_fusion_weights(scenes, targets, lr=0.01, steps=6)
    assert calls == [("scenes", (4, 2, 3, 4)), ("targets", (4, 3, 4))]


def test_fit_fusion_weights_takes_lists_or_one_array():
    # a list of scenes and the same scenes as one (c, s, L, D) array, each
    # with the targets as a list and as one (c, L, D) array, fit alike
    rng = np.random.default_rng(17)
    scenes = [_of_dtype(rng, (3, 4, 6), np.float32) for _ in range(5)]
    targets = [_of_dtype(rng, (4, 6), np.float32) for _ in range(5)]
    want_w, want_history = reference.fit_fusion_weights(scenes, targets, 0.02, 4)
    for sc in (scenes, np.stack(scenes)):
        for t in (targets, np.stack(targets)):
            w, history = fit_fusion_weights(sc, t, lr=0.02, steps=4)
            assert w.tobytes() == want_w.tobytes()
            assert np.array(history).tobytes() == np.array(want_history).tobytes()


def test_fit_fusion_weights_builds_no_batch_sized_temporary():
    import tracemalloc

    c, s, n_patches, dim = 12, 3, 32, 256
    rng = np.random.default_rng(13)
    scenes = [rng.standard_normal((s, n_patches, dim), dtype=np.float32) for _ in range(c)]
    targets = [sc[1] for sc in scenes]
    tracemalloc.start()
    try:
        w, history = fit_fusion_weights(scenes, targets, lr=1e-3, steps=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scene_bytes = s * n_patches * dim * 8
    stack, target_stack = c * scene_bytes // 2, c * n_patches * dim * 4
    resid = 2 * target_stack
    # the float32 stacks of the scenes and the targets, the float64
    # residuals, and a few float64 scene-sized arrays (weights, best
    # weights, gradient, its terms); a float64 copy of the scenes, or one
    # (c, s, L, D) temporary more, would break it
    bound = stack + target_stack + resid + 6 * scene_bytes
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
    assert stack > bound - peak
    want_w, want_history = reference.fit_fusion_weights(scenes, targets, 1e-3, 3)
    assert np.array_equal(w, want_w) and history == want_history


def test_fit_fusion_weights_stacks_strided_scenes_without_copying_them_first():
    # float64 scenes given as strided views: each is checked through one
    # contiguous copy at a time, then read from the view into the stack, so
    # the converted copies of all of them are never held beside the stack
    c, s, n_patches, dim = 12, 3, 32, 256
    rng = np.random.default_rng(16)
    scenes = [rng.standard_normal((s, n_patches, 2 * dim))[:, :, ::2] for _ in range(c)]
    targets = [sc[1] for sc in scenes]
    tracemalloc.start()
    try:
        w, history = fit_fusion_weights(scenes, targets, lr=1e-3, steps=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scene_bytes = s * n_patches * dim * 8
    stack, target_stack = c * scene_bytes, c * n_patches * dim * 8
    # the float64 stacks, the residuals and a few scene-sized arrays, as
    # above; the converted copies of all the scenes besides would break it
    bound = stack + 2 * target_stack + 6 * scene_bytes
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
    assert stack > bound - peak
    want_w, want_history = reference.fit_fusion_weights(scenes, targets, 1e-3, 3)
    assert np.array_equal(w, want_w) and history == want_history


def test_compress_validates_once_and_builds_no_sampled_copy(monkeypatch):
    # the input FrameFeatures is already validated, so no scene is checked
    # again; uniform selection needs no FrameFeatures of the sampled frames,
    # so the only one built is the output
    def no_recheck(scene):
        raise AssertionError("compress re-validated a scene")

    monkeypatch.setattr(merge, "_as_scene", no_recheck)
    built = []
    real_init = FrameFeatures.__post_init__

    def counting_init(self):
        built.append(np.asarray(self.data).shape)
        real_init(self)

    data = np.random.default_rng(3).standard_normal((24, 2, 4))
    features = FrameFeatures(data)
    monkeypatch.setattr(FrameFeatures, "__post_init__", counting_init)
    for strategy in STRATEGIES:
        built.clear()
        compress(features, CompressConfig(12, 4, 2, merging=strategy))
        assert built == [(4, 2, 4)], strategy


def test_compress_rejects_wrong_fusion_weights():
    features = FrameFeatures(np.random.default_rng(4).standard_normal((12, 2, 4)))
    cfg = CompressConfig(12, 4, 2, merging="fusion")
    with pytest.raises(ParameterError, match="weights shape"):
        compress(features, cfg, weights=np.ones((2, 2, 4)))
    # non-finite weights are rejected up front, not by the output's check
    with pytest.raises(ParameterError, match="weights contain non-finite values"):
        compress(features, cfg, weights=np.full((3, 2, 4), np.inf))
    # other strategies would ignore weights, so they reject them
    for strategy in ("tavg", "attnpool", "bsm"):
        with pytest.raises(ParameterError, match="weights apply only to fusion"):
            compress(features, CompressConfig(12, 4, 2, merging=strategy),
                     weights=np.ones((3, 2, 4)))


def test_attn_projections_cached_read_only():
    # the projections are the matrices wq and wk alone; only their product
    # is cached
    a = attn_projections(6, seed=5)
    assert merge.AttnProjections._fields == ("wq", "wk")
    with pytest.raises(AttributeError):
        a.wq = a.wk
    qk = merge._attn_qk(6, 5)
    assert merge._attn_qk(6, 5) is qk
    assert np.array_equal(qk, a.wq @ a.wk.T)
    for matrix in (a.wq, a.wk, qk):
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
    b = attn_projections(6, seed=6)
    assert not np.array_equal(a.wq, b.wq)
    assert np.array_equal(attn_projections(6, seed=5).wq, a.wq)


def test_attnpool_keeps_only_the_product_resident():
    # after an attnpool merge the library holds one read-only (D, D)
    # product, 8*D*D bytes, and neither projection matrix
    dim, seed = 256, 3
    features = FrameFeatures(np.random.default_rng(0).standard_normal((12, 4, dim)))
    merges = {
        "compress": lambda: compress(features, CompressConfig(12, 4, 2, merging="attnpool",
                                                              seed=seed)),
        "merge_scene": lambda: merge_scene(features.data[:3], "attnpool", seed=seed),
    }
    for name, run in merges.items():
        merge._attn_qk.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 8 * dim**2 <= held < 10 * dim**2, name
        gc.collect()
        assert [o for o in gc.get_objects() if isinstance(o, merge.AttnProjections)] == [], name
        assert merge._attn_qk.cache_info().currsize == 1
        qk = merge._attn_qk(dim, seed)
        assert merge._attn_qk.cache_info().hits == 1
        assert qk.shape == (dim, dim) and qk.base is None and not qk.flags.writeable
        wq, wk = attn_projections(dim, seed)
        assert np.array_equal(qk, wq @ wk.T)


def test_cached_product_of_seed_1_does_not_admit_true():
    scene = np.random.default_rng(1).standard_normal((3, 2, 4))
    merge_scene(scene, "attnpool", seed=1)
    with pytest.raises(ParameterError, match="^seed must be a non-negative integer, got True$"):
        merge_scene(scene, "attnpool", seed=True)


def _drifting(rng, s, n_patches, dim):
    # the frames of one shot: a base pattern drifting along a direction, plus noise
    base, drift = rng.standard_normal((2, n_patches, dim))
    return (base + 0.2 * np.arange(s)[:, None, None] * drift
            + 0.5 * rng.standard_normal((s, n_patches, dim)))


def _with_signed_zeros(scene):
    scene = scene.copy()
    scene[:, :, 1] = -0.0  # a column that is -0.0 in every frame
    scene[0, :, 2] = -0.0  # and one that is -0.0 in one frame only
    return scene


def _first_round_passes(scene):
    # with s >= 2 and an even token count, bsm's first round merges every A
    # token, so its scatter passes number the most A tokens one B token gets
    s, n_patches, dim = scene.shape
    tokens = scene.transpose(1, 0, 2).reshape(s * n_patches, dim)
    unit = tokens / np.maximum(np.linalg.norm(tokens, axis=1, keepdims=True), 1e-12)
    return int(np.bincount((unit[0::2] @ unit[1::2].T).argmax(axis=1)).max())


def _scaled_copies(rng, s, n_patches, dim):
    # about 70% of the tokens are one token times powers of two, among
    # distinct ones: their cosines are exactly 1, so their scores tie with
    # different norms, and the distinct tokens' scores lie below
    scene = 2.0 ** rng.integers(-4, 5, (s, n_patches, 1)) * rng.standard_normal(dim)
    own = rng.random((s, n_patches)) > 0.7
    scene[own] = rng.standard_normal((own.sum(), dim))
    return scene


def _tiny_norms(rng, s, n_patches, dim):
    # norms between 1e-11 and 1e-4, below and above no clamp but 1e-12
    tokens = rng.standard_normal((s, n_patches, dim))
    tokens /= np.linalg.norm(tokens, axis=2, keepdims=True)
    return tokens * 10.0 ** rng.uniform(-11, -4, (s, n_patches, 1))


_LARGE_SCENES = {
    # 432 tokens: round 1 merges every A token in several scatter passes,
    # round 2 merges 72 of 108 and keeps 36
    "drifting 3x144x64": lambda rng: _drifting(rng, 3, 144, 64),
    # six frames, five of them one frame: ties in every score
    "mostly duplicates": lambda rng: _drifting(rng, 2, 48, 32)[[0, 0, 1, 0, 0, 0]],
    "s = 1": lambda rng: _drifting(rng, 1, 144, 64),
    "L = 1": lambda rng: _drifting(rng, 9, 1, 64),
    "signed zeros": lambda rng: _with_signed_zeros(_drifting(rng, 3, 24, 16)),
    # attnpool's logits reach the thousands, where exp overflows unshifted
    "large magnitude": lambda rng: 100.0 * _drifting(rng, 5, 6, 16),
    # 4 * 12 tokens: round 1 ranks 24 A tokens, more than a sort takes by
    # insertion, most of them tied
    "scaled copies": lambda rng: _scaled_copies(rng, 4, 12, 8),
    "tiny norms": lambda rng: _tiny_norms(rng, 3, 12, 8),
}


@pytest.mark.parametrize("name", sorted(_LARGE_SCENES))
def test_merge_scene_matches_reference_on_large_and_degenerate_scenes(name):
    rng = np.random.default_rng(31)
    scene = _LARGE_SCENES[name](rng)
    if name.startswith("drifting"):
        assert _first_round_passes(scene) >= 2
    if name == "large magnitude":
        s, _, dim = scene.shape
        proj = attn_projections(dim, 3)
        logits = np.einsum("ld,mld->ml", scene[s // 2] @ proj.wq, scene @ proj.wk)
        assert (logits / np.sqrt(dim)).max() > 709  # exp(710) overflows
    for strategy in ("tavg", "fusion", "bsm"):
        want = reference.merge_scene(scene, strategy)
        assert merge_scene(scene, strategy).tobytes() == want.tobytes(), strategy
    weights = -np.abs(rng.standard_normal(scene.shape))  # +0.0 times these is -0.0
    assert merge_scene(scene, "fusion", weights=weights).tobytes() == \
        reference.fusion(scene, weights).tobytes()
    got = merge_scene(scene, "attnpool", seed=3)
    assert np.abs(got - reference.merge_scene(scene, "attnpool", seed=3)).max() <= ATTNPOOL_TOL


def test_compress_of_signed_zeros_matches_reference():
    # numpy's mean and sum add to a +0.0 start, so a column of -0.0 frames
    # merges to +0.0; starting from a copy of the first frame would keep -0.0
    rng = np.random.default_rng(32)
    data = _with_signed_zeros(rng.uniform(-4.0, 4.0, (12, 3, 5))).astype(np.float32)
    features = FrameFeatures(data)
    for strategy in ("tavg", "fusion"):
        cfg = CompressConfig(12, 4, 2, merging=strategy)
        got = compress(features, cfg).data
        assert got.tobytes() == reference.compress(features, cfg).data.tobytes()
        assert not np.signbit(got[:, :, 1]).any()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compress_bytes_do_not_depend_on_merge_chunk_bytes(monkeypatch, strategy):
    # UNIT_BYTES cuts compress's finiteness checks and representative
    # averages; the merge's unit is a scene whatever it is
    rng = np.random.default_rng(33)
    k, s, n_patches, dim = 7, 3, 36, 64
    features = FrameFeatures(_frames(rng, k * s, n_patches, dim, "random"))
    cfg = CompressConfig(k * s, k, s - 1, merging=strategy, seed=2)
    want = compress(features, cfg).data.tobytes()
    frame_bytes = n_patches * dim * 8
    for chunk in (1, frame_bytes, 3 * frame_bytes + 1, k * frame_bytes, 2**40):
        monkeypatch.setattr(parallel, "UNIT_BYTES", chunk)
        assert compress(features, cfg).data.tobytes() == want, chunk


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compress_merge_memory_does_not_grow_with_k(set_workers, strategy):
    _assert_merge_memory_flat(set_workers, strategy, workers=1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compress_merge_memory_on_two_workers_does_not_grow_with_k(set_workers, strategy):
    _assert_merge_memory_flat(set_workers, strategy, workers=2)


def _assert_merge_memory_flat(set_workers, strategy, workers):
    s, n_patches, dim = 3, 144, 256
    frame_bytes = n_patches * dim * 8
    scene_bytes = s * frame_bytes
    set_workers(workers)
    # one worker's buffers, float64: bsm's unit (one scene) and spare (half
    # one) with its round-1 scores and float32 gathers, or attnpool's scene
    # and one frame; the merge memory test below bounds each of them
    # closely
    allowance = workers * 4 * scene_bytes
    rng = np.random.default_rng(34)
    assert frame_bytes >= merge.THREAD_MIN_FRAME_BYTES
    for k in (8, 32):
        assert parallel._workers(k) == workers
        features = FrameFeatures(rng.standard_normal((k * s, n_patches, dim), dtype=np.float32))
        cfg = CompressConfig(k * s, k, s - 1, merging=strategy)
        tracemalloc.start()
        try:
            out = compress(features, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        used = peak - out.data.nbytes
        assert used <= allowance, f"k={k}: {used / 2**20:.1f} MiB, allowance " \
            f"{allowance / 2**20:.1f} MiB"
    # the float32 scenes of k = 32 gathered at once would not fit
    assert 32 * scene_bytes // 2 > allowance


@pytest.mark.parametrize("strategy", ["bsm", "attnpool"])
def test_merge_work_memory_per_worker(set_workers, strategy):
    # one merge_scenes call on one worker, float32 scenes of 3x144x256; a
    # token array is the s*L*D float64 values of one scene
    s, n_patches, dim, k = 3, 144, 256, 16
    set_workers(1)
    rng = np.random.default_rng(35)
    frames = rng.standard_normal((k * s, n_patches, dim), dtype=np.float32)
    members = np.arange(k * s).reshape(k, s)
    out = np.empty((k, n_patches, dim), dtype=np.float32)
    frame_bytes = n_patches * dim * 8
    assert frame_bytes >= merge.THREAD_MIN_FRAME_BYTES and parallel._workers(2) == 1
    if strategy == "bsm":
        # unit, spare (half a token array) and float32 gathers of at most
        # half a scene need 1.75 token arrays, plus the round-1 scores; a
        # float64 copy of the tokens besides them would not fit
        t0 = s * n_patches
        bound = 2.25 * t0 * dim * 8 + (t0 - t0 // 2) * (t0 // 2) * 8
    else:
        # x and z: s + 1 float64 frames, and no other frame; four
        # (s, n_patches) float64 arrays cover the scores, the temporaries of
        # their softmax and the k scenes' views (17 KiB in all)
        merge._attn_qk(dim, 0)
        bound = (s + 1) * frame_bytes + 4 * s * n_patches * 8
    tracemalloc.start()
    try:
        merge.merge_scenes(frames, members, strategy, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * bound, f"{peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def _bsm_rounds(s, n_patches):
    t, rounds = s * n_patches, 0
    while t > n_patches:
        t -= min(t - n_patches, max(1, t // 2))
        rounds += 1
    return rounds


@pytest.mark.parametrize("kind", ["random", "duplicates", "all-zero"])
@pytest.mark.parametrize("s, n_patches, dim, rounds", [
    (5, 4, 3, 3),
    (6, 3, 4, 3),  # round 3 writes its tokens into spare again
    (3, 5, 2, 2),  # an odd token count: round 1 keeps an A token
    (5, 3, 3, 3),
])
def test_merge_scenes_bsm_of_float32_frames_matches_reference(set_workers, s, n_patches, dim,
                                                              rounds, kind):
    assert _bsm_rounds(s, n_patches) == rounds
    rng = np.random.default_rng(36)
    k = 4
    n = k * s + 2
    frames = _frames(rng, n, n_patches, dim, kind).astype(np.float32)
    members = rng.permutation(n)[:k * s].reshape(k, s)
    want = np.stack([reference.merge_scene(frames[m], "bsm") for m in members])
    for workers in (1, 2):
        got = _merge_on(set_workers, workers, frames, members, "bsm", None, 0)
        assert got.tobytes() == want.tobytes(), workers


def _merge_on(set_workers, workers, frames, members, strategy, weights, seed):
    # merge_scenes on *workers* workers, with no frame too small for threads
    set_workers(workers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge, "THREAD_MIN_FRAME_BYTES", 0)
        assert parallel._workers(len(members)) == min(workers, len(members))
        out = np.full((len(members), *frames.shape[1:]), np.nan)
        return merge.merge_scenes(frames, members, strategy, out, weights, seed)


# set_workers sets W afresh for every run, so one fixture serves every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 7),
    s=st.integers(1, 4),
    spare=st.integers(0, 5),
    n_patches=st.integers(1, 5),
    dim=st.integers(1, 6),
    kind=st.sampled_from(["random", "duplicates", "zeros", "all-zero", "identical"]),
)
@example(seed=0, k=1, s=1, spare=0, n_patches=1, dim=1, kind="random")
@example(seed=1, k=6, s=1, spare=0, n_patches=2, dim=3, kind="duplicates")
@example(seed=2, k=5, s=3, spare=0, n_patches=3, dim=2, kind="all-zero")
@example(seed=3, k=1, s=4, spare=2, n_patches=2, dim=2, kind="identical")
def test_merge_scenes_bytes_do_not_depend_on_workers(set_workers, seed, k, s, spare, n_patches,
                                                      dim, kind):
    # the one-worker run is the oracle; spare = 0 merges every frame once
    rng = np.random.default_rng(seed)
    n = k * s + spare
    frames = _frames(rng, n, n_patches, dim, kind).astype(np.float32)
    members = rng.permutation(n)[:k * s].reshape(k, s)
    runs = [("tavg", None, 0), ("fusion", None, 0),
            ("fusion", rng.uniform(-1.0, 1.0, (s, n_patches, dim)), 0),
            ("attnpool", None, 0), ("attnpool", None, 5), ("bsm", None, 0)]
    for strategy, weights, attn_seed in runs:
        args = (frames, members, strategy, weights, attn_seed)
        want = _merge_on(set_workers, 1, *args)
        assert np.isfinite(want).all()
        for workers in (2, 3):
            got = _merge_on(set_workers, workers, *args)
            assert got.tobytes() == want.tobytes(), (strategy, attn_seed, workers)


@pytest.mark.parametrize("blas_threads, cpus, workers", [
    (1, 2, 2),
    (1, 16, 8),  # capped at the unit count
    (2, 2, 1),
    (None, 2, 1),  # another BLAS: no getter
    (1, 1, 1),
])
def test_merge_workers_follow_the_blas_thread_count(monkeypatch, blas_threads, cpus, workers):
    monkeypatch.setattr(parallel, "_blas_threads", blas_threads and (lambda: blas_threads))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert parallel._workers(8) == workers
    assert parallel._workers(1) == 1  # capped at the unit count
    # a merge of four scenes starts W - 1 threads, and none for a frame too
    # small for threads
    started = []

    def start(thread, real_start=threading.Thread.start):
        started.append(thread)
        real_start(thread)
    monkeypatch.setattr(threading.Thread, "start", start)
    for n_patches, threads in ((32, min(4, workers) - 1), (31, 0)):
        frames = np.ones((4, n_patches, 1024), dtype=np.float32)
        assert (n_patches * 1024 * 8 >= merge.THREAD_MIN_FRAME_BYTES) == (n_patches == 32)
        out = merge.merge_scenes(frames, np.arange(4).reshape(4, 1), "tavg",
                                 np.empty((4, n_patches, 1024)))
        assert (out == 1.0).all() and len(started) == threads
        started.clear()


# the variables OpenBLAS reads its thread count from when numpy loads it
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# numpy's OpenBLAS's own setter of the thread count the worker rule reads
_set_blas_threads = (getattr(parallel._linalg, "scipy_openblas_set_num_threads64_", None)
                     or getattr(parallel._linalg, "openblas_set_num_threads64_", None))


def test_merge_workers_ignore_a_blas_variable_set_after_import(monkeypatch):
    # OpenBLAS read its variables when numpy loaded it, so a variable set
    # now leaves it on two threads, and W at 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threads = parallel._blas_threads()
    try:
        _set_blas_threads(2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert parallel._blas_threads() == 2
        assert parallel._workers(8) == 1
    finally:
        _set_blas_threads(threads)


def test_merge_workers_follow_a_blas_count_set_at_run_time(monkeypatch):
    # a count of 1 set through OpenBLAS's setter, as threadpoolctl sets it,
    # with no variable set, gives W = the CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    threads = parallel._blas_threads()
    try:
        _set_blas_threads(1)
        assert parallel._workers(8) == 2
    finally:
        _set_blas_threads(threads)


@pytest.mark.parametrize("variables, workers", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({"GOTO_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "many"}, 1),
    # OpenBLAS reads them with C atoi: ASCII whitespace, a sign, ASCII
    # digits, and 0 for anything else
    *(({"OPENBLAS_NUM_THREADS": value}, 2) for value in ("1.5", "+1", "1abc", " 1", "01")),
    *(({"OPENBLAS_NUM_THREADS": value}, 1) for value in ("\u00b2", "\u0661", "0", "-1")),
])
def test_merge_workers_follow_the_blas_thread_variables(variables, workers):
    # variables set before the process starts reach W through OpenBLAS's own
    # count: W is the CPUs (*workers* on two) where that count reads 1, and
    # on one CPU it is 1 whatever the variables
    env = {var: value for var, value in os.environ.items() if var not in _BLAS_VARS}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env.update(variables, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c",
                           "from framefuse import parallel; print(parallel._workers(8))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert int(proc.stdout) == (min(8, cpus) if workers == 2 else 1)


class _UnitFailure(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_merge_scenes_raises_the_first_failed_unit_after_all_workers_stop(monkeypatch,
                                                                          set_workers, workers):
    # scenes 3 and 5 fail, and scene 3 only after a pause, so that with two
    # or more workers scene 5 fails first; scene 3 is the one raised
    real_tavg = merge._tavg
    threads_seen = []

    def failing_tavg(frames, s):
        merge_unit = real_tavg(frames, s)

        def merge_or_fail(scene, row):
            threads_seen.append(threading.active_count())
            unit = scene[0] // s
            if unit == 3:
                time.sleep(0.05)
            if unit in (3, 5):
                raise _UnitFailure(f"unit {unit}")
            merge_unit(scene, row)
        return merge_or_fail

    monkeypatch.setattr(merge, "_tavg", failing_tavg)
    k, s = 8, 2
    frames = np.random.default_rng(40).standard_normal((k * s, 2, 3))
    set_workers(workers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge, "THREAD_MIN_FRAME_BYTES", 0)
        before = threading.active_count()
        with pytest.raises(_UnitFailure, match="^unit 3$"):
            merge.merge_scenes(frames, np.arange(k * s).reshape(k, s), "tavg",
                               np.empty((k, 2, 3)))
        assert threading.active_count() == before
    if workers == 1:
        # no thread started, and no unit after the failed one ran
        assert threads_seen == [before] * 4
    else:
        assert max(threads_seen) <= before + workers - 1


def test_merge_workers_take_every_unit_exactly_once_under_contention(monkeypatch, set_workers):
    # more workers than CPUs, switching threads as often as the interpreter
    # allows: a lost update of the shared counter would merge a unit twice
    # or never
    real_bsm = merge._bsm
    taken = []

    def counting_bsm(frames, s):
        merge_unit = real_bsm(frames, s)

        def merge_and_count(scene, row):
            taken.append(int(scene[0]))
            merge_unit(scene, row)
        return merge_and_count

    k, s = 64, 3
    frames = np.random.default_rng(41).standard_normal((k * s, 4, 8))
    members = np.random.default_rng(42).permutation(k * s).reshape(k, s)
    want = merge.merge_scenes(frames, members, "bsm", np.empty((k, 4, 8)))
    monkeypatch.setattr(merge, "_bsm", counting_bsm)
    set_workers(4)
    monkeypatch.setattr(merge, "THREAD_MIN_FRAME_BYTES", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = merge.merge_scenes(frames, members, "bsm", np.empty((k, 4, 8)))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == sorted(members[:, 0].tolist())
    assert got.tobytes() == want.tobytes()
