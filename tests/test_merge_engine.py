"""The merge engine against the per-scene reference in
``reference.py``: compress, merge_scene and the fusion fitter, on random
and degenerate inputs. tavg, fusion and bsm must match exactly. attnpool
regroups its scores as q.(wq.wk^T).x^T, which rounds differently, so it
must match within ATTNPOOL_TOL."""

import gc
import re
import sys
import threading
import time
import tracemalloc

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
from framefuse import merge
from framefuse.errors import BLAS_THREAD_VARS
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
        "chunk_scenes": draw(st.integers(1, k)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _case(selection, merging, k, r, n, n_patches, dim, kind, **extra):
    case = {"selection": selection, "merging": merging, "k": k, "r": r,
            "input_frames": n, "n": n, "n_patches": n_patches, "dim": dim, "kind": kind,
            "custom_weights": False, "timestamps": True, "chunk_scenes": 1, "seed": 7}
    case.update(extra)
    return case


@settings(max_examples=150, deadline=None)
@given(case=compress_cases())
# r = 0 (one frame a scene) with k*(r+1) = n, L = 1 and D = 1
@example(case=_case("kmeans", "bsm", 5, 0, 5, 1, 1, "random"))
@example(case=_case("bsm", "attnpool", 3, 0, 3, 1, 1, "duplicates"))
@example(case=_case("uniform", "fusion", 2, 2, 6, 1, 1, "random", custom_weights=True))
@example(case=_case("uniform", "bsm", 4, 3, 16, 2, 3, "all-zero", chunk_scenes=3))
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

    # attnpool runs its query GEMM for chunk_scenes scenes at a time
    saved = merge.MERGE_CHUNK_BYTES
    merge.MERGE_CHUNK_BYTES = case["chunk_scenes"] * shape[0] * shape[1] * 8
    try:
        try:
            want = reference.compress(features, cfg, weights)
        except ParameterError as exc:  # e.g. cosine similarity of zero frames
            with pytest.raises(ParameterError, match=re.escape(str(exc))):
                compress(features, cfg, weights)
            return
        got = compress(features, cfg, weights)
    finally:
        merge.MERGE_CHUNK_BYTES = saved

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


def test_fit_fusion_weights_validates_each_scene_once(monkeypatch):
    calls = []
    real = merge._as_scene

    def counting(scene):
        calls.append(np.shape(scene))
        return real(scene)

    monkeypatch.setattr(merge, "_as_scene", counting)
    rng = np.random.default_rng(12)
    scenes = [rng.standard_normal((2, 3, 4)) for _ in range(4)]
    targets = [rng.standard_normal((3, 4)) for _ in range(4)]
    fit_fusion_weights(scenes, targets, lr=0.01, steps=6)
    assert calls == [(2, 3, 4)] * 4


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
    batch, target_stack = c * scene_bytes, c * n_patches * dim * 8
    # the float64 batch, the targets and the residuals, plus a few
    # scene-sized arrays (weights, best weights, gradient, its terms); one
    # (c, s, L, D) temporary more would break it
    bound = batch + 2 * target_stack + 6 * scene_bytes
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    assert batch > bound - peak
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


_LARGE_SCENES = {
    # 432 tokens: round 1 merges every A token in several scatter passes,
    # round 2 merges 72 of 108 and keeps 36
    "drifting 3x144x64": lambda rng: _drifting(rng, 3, 144, 64),
    # six frames, five of them one frame: ties in every score
    "mostly duplicates": lambda rng: _drifting(rng, 2, 48, 32)[[0, 0, 1, 0, 0, 0]],
    "s = 1": lambda rng: _drifting(rng, 1, 144, 64),
    "L = 1": lambda rng: _drifting(rng, 9, 1, 64),
    "signed zeros": lambda rng: _with_signed_zeros(_drifting(rng, 3, 24, 16)),
}


@pytest.mark.parametrize("name", sorted(_LARGE_SCENES))
def test_merge_scene_matches_reference_on_large_and_degenerate_scenes(name):
    rng = np.random.default_rng(31)
    scene = _LARGE_SCENES[name](rng)
    if name.startswith("drifting"):
        assert _first_round_passes(scene) >= 2
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
    rng = np.random.default_rng(33)
    k, s, n_patches, dim = 7, 3, 36, 64
    features = FrameFeatures(_frames(rng, k * s, n_patches, dim, "random"))
    cfg = CompressConfig(k * s, k, s - 1, merging=strategy, seed=2)
    want = compress(features, cfg).data.tobytes()
    frame_bytes = n_patches * dim * 8
    for chunk in (1, frame_bytes, 3 * frame_bytes + 1, k * frame_bytes, 2**40):
        monkeypatch.setattr(merge, "MERGE_CHUNK_BYTES", chunk)
        assert compress(features, cfg).data.tobytes() == want, chunk


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compress_merge_memory_does_not_grow_with_k(monkeypatch, set_workers, strategy):
    _assert_merge_memory_flat(monkeypatch, set_workers, strategy, workers=1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compress_merge_memory_on_two_workers_does_not_grow_with_k(monkeypatch, set_workers,
                                                                   strategy):
    _assert_merge_memory_flat(monkeypatch, set_workers, strategy, workers=2)


def _assert_merge_memory_flat(monkeypatch, set_workers, strategy, workers):
    s, n_patches, dim = 3, 144, 256
    frame_bytes = n_patches * dim * 8
    scene_bytes = s * frame_bytes
    set_workers(workers)
    if workers > 1:
        # units of 4 scenes, so that k = 8 has two units as well
        monkeypatch.setattr(merge, "MERGE_CHUNK_BYTES", 4 * frame_bytes)
    # one worker's buffers: a float64 scene, its tokens and bsm's two work
    # buffers of that size, and attnpool's middle frames with their projections
    allowance = workers * (4 * scene_bytes + 2 * merge.MERGE_CHUNK_BYTES)
    rng = np.random.default_rng(34)
    for k in (8, 32):
        assert merge._merge_workers(k // 4, frame_bytes) == workers
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


def _merge_on(set_workers, workers, frames, members, strategy, weights, seed, chunk_scenes):
    # merge_scenes on *workers* workers, with units of chunk_scenes scenes
    # and no frame too small for threads
    frame_bytes = frames.shape[1] * frames.shape[2] * 8
    set_workers(workers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge, "MERGE_CHUNK_BYTES", chunk_scenes * frame_bytes)
        mp.setattr(merge, "THREAD_MIN_FRAME_BYTES", 0)
        units = -(-len(members) // chunk_scenes)
        assert merge._merge_workers(units, frame_bytes) == min(workers, units)
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
    chunk_scenes=st.integers(1, 3),
)
@example(seed=0, k=1, s=1, spare=0, n_patches=1, dim=1, kind="random", chunk_scenes=1)
@example(seed=1, k=6, s=1, spare=0, n_patches=2, dim=3, kind="duplicates", chunk_scenes=1)
@example(seed=2, k=5, s=3, spare=0, n_patches=3, dim=2, kind="all-zero", chunk_scenes=2)
@example(seed=3, k=1, s=4, spare=2, n_patches=2, dim=2, kind="identical", chunk_scenes=1)
def test_merge_scenes_bytes_do_not_depend_on_workers(set_workers, seed, k, s, spare, n_patches,
                                                      dim, kind, chunk_scenes):
    # the one-worker run is the oracle; spare = 0 merges every frame once
    rng = np.random.default_rng(seed)
    n = k * s + spare
    frames = _frames(rng, n, n_patches, dim, kind).astype(np.float32)
    members = rng.permutation(n)[:k * s].reshape(k, s)
    runs = [("tavg", None, 0), ("fusion", None, 0),
            ("fusion", rng.uniform(-1.0, 1.0, (s, n_patches, dim)), 0),
            ("attnpool", None, 0), ("attnpool", None, 5), ("bsm", None, 0)]
    for strategy, weights, attn_seed in runs:
        args = (frames, members, strategy, weights, attn_seed, chunk_scenes)
        want = _merge_on(set_workers, 1, *args)
        assert np.isfinite(want).all()
        for workers in (2, 3):
            got = _merge_on(set_workers, workers, *args)
            assert got.tobytes() == want.tobytes(), (strategy, attn_seed, workers)


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
])
def test_merge_workers_follow_the_blas_thread_variables(monkeypatch, set_workers, variables,
                                                        workers):
    set_workers(2)  # two CPUs to run on; then only this case's variables are set
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in variables.items():
        monkeypatch.setenv(var, value)
    frame_bytes = merge.THREAD_MIN_FRAME_BYTES
    assert merge._merge_workers(8, frame_bytes) == workers
    # capped at the unit count, and 1 for a frame too small for threads
    assert merge._merge_workers(1, frame_bytes) == 1
    assert merge._merge_workers(8, frame_bytes - 1) == 1


class _UnitFailure(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_merge_scenes_raises_the_first_failed_unit_after_all_workers_stop(monkeypatch,
                                                                          set_workers, workers):
    # units 3 and 5 fail, and unit 3 only after a pause, so that with two
    # or more workers unit 5 fails first; unit 3 is the one raised
    real_tavg = merge._tavg
    threads_seen = []

    def failing_tavg(frames, s):
        merge_unit = real_tavg(frames, s)

        def merge_or_fail(scenes, rows):
            threads_seen.append(threading.active_count())
            unit = scenes[0, 0] // s
            if unit == 3:
                time.sleep(0.05)
            if unit in (3, 5):
                raise _UnitFailure(f"unit {unit}")
            merge_unit(scenes, rows)
        return merge_or_fail

    monkeypatch.setattr(merge, "_tavg", failing_tavg)
    k, s = 8, 2
    frames = np.random.default_rng(40).standard_normal((k * s, 2, 3))
    set_workers(workers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge, "MERGE_CHUNK_BYTES", 1)  # a unit per scene
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

        def merge_and_count(scenes, rows):
            taken.append(int(scenes[0, 0]))
            merge_unit(scenes, rows)
        return merge_and_count

    k, s = 64, 3
    frames = np.random.default_rng(41).standard_normal((k * s, 4, 8))
    members = np.random.default_rng(42).permutation(k * s).reshape(k, s)
    want = merge.merge_scenes(frames, members, "bsm", np.empty((k, 4, 8)))
    monkeypatch.setattr(merge, "_bsm", counting_bsm)
    set_workers(4)
    monkeypatch.setattr(merge, "MERGE_CHUNK_BYTES", 1)
    monkeypatch.setattr(merge, "THREAD_MIN_FRAME_BYTES", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = merge.merge_scenes(frames, members, "bsm", np.empty((k, 4, 8)))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == sorted(members[:, 0].tolist())
    assert got.tobytes() == want.tobytes()
