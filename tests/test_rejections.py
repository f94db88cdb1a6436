"""Rejections at the public entries: each parameter is checked once, where
it enters, one seed rule covers every entry that builds a random generator,
one count rule covers every count, one real rule every real number and one
array rule every real array."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from framefuse import (
    CompressConfig,
    FrameFeatures,
    ParameterError,
    Scene,
    SceneSet,
    SyntheticSpec,
    attn_projections,
    compress,
    dataset_stats,
    fit_fusion_weights,
    generate_synthetic,
    kmeans,
    load_features,
    merge_scene,
    pack_clips,
    save_features,
    select_scenes_bsm,
    select_scenes_kmeans,
)
from framefuse import select
from framefuse.cli import main

RNG = np.random.default_rng(0)
REPS = RNG.standard_normal((12, 4))
FEATURES = FrameFeatures(RNG.standard_normal((12, 3, 4)).astype(np.float32))
SCENE = RNG.standard_normal((3, 2, 4))
POOL = ([f"c{i}" for i in range(40)], [60.0] * 40, [f"caption {i}" for i in range(40)])


def _nan_scene():
    scene = SCENE.copy()
    scene[1, 0, 2] = np.nan
    return scene


@pytest.mark.parametrize("call, message", [
    (lambda: FrameFeatures(np.zeros((2, 3, 0), dtype=np.float32)), "dims must be >= 1"),
    (lambda: SyntheticSpec(4, 2, 3, 2, seed=-1), "seed must be a non-negative integer"),
    (lambda: merge_scene(SCENE[0], "tavg"), "must be rank 3, got rank 2"),
    (lambda: merge_scene(_nan_scene(), "tavg"), "non-finite"),
    (lambda: fit_fusion_weights([SCENE], [SCENE[0]], lr=0.1, steps=-1), "steps must be >= 0"),
    (lambda: fit_fusion_weights([SCENE, SCENE[:2]], [SCENE[0], SCENE[0]], lr=0.1, steps=1),
     "scenes must have a regular shape"),
    (lambda: fit_fusion_weights([SCENE], [SCENE[0, :1]], lr=0.1, steps=1),
     "targets shape .* does not match scenes shape"),
    (lambda: fit_fusion_weights([SCENE, SCENE], [SCENE[0]], lr=0.1, steps=1),
     "targets shape .* does not match scenes shape"),
    (lambda: fit_fusion_weights([SCENE], [SCENE[0], SCENE[0]], lr=0.1, steps=1),
     "targets shape .* does not match scenes shape"),
    (lambda: attn_projections(0), "dim must be >= 1"),
    (lambda: CompressConfig(12, 0, 0), "scenes_k must be >= 1"),
    (lambda: CompressConfig(12, 4, -1), "supplements_r must be >= 0"),
    (lambda: CompressConfig(12, 4, 0, seed=-1), "seed must be a non-negative integer"),
    (lambda: CompressConfig.from_dict({"input_frames": 12}), "missing fields"),
    (lambda: SceneSet((Scene(5, (5,)), Scene(2, (2,))), r=0), "ordered by representative"),
    (lambda: SceneSet((Scene(2, (1, 2)),), r=2), "has 2 members, expected 3"),
    (lambda: kmeans(REPS[0], 2), "must be rank 2"),
    (lambda: kmeans(REPS, 2, max_iters=0), "max_iters must be >= 1"),
    (lambda: kmeans(REPS, 2, tol=-1), "tol must be finite and >= 0"),
    (lambda: kmeans(REPS, 2, tol=float("nan")), "tol must be finite and >= 0"),
    (lambda: select_scenes_kmeans(FEATURES, 0, 1), "k must be >= 1"),
    (lambda: select_scenes_kmeans(FEATURES, 2, -1), "r must be >= 0"),
    (lambda: select_scenes_kmeans(FEATURES, 2, 1, tol=float("nan")),
     "tol must be finite and >= 0"),
    (lambda: select_scenes_bsm(FEATURES, 0, 1), "k must be >= 1"),
    (lambda: select_scenes_bsm(FEATURES, 2, -1), "r must be >= 0"),
], ids=[
    "features-zero-dim", "spec-seed", "merge-rank-2", "merge-nan", "fit-steps",
    "fit-scene-shapes", "fit-target-shape", "fit-more-scenes", "fit-more-targets",
    "attn-dim-0", "config-k-0", "config-r-neg", "config-seed", "config-missing",
    "sceneset-order", "sceneset-members", "kmeans-rank-1",
    "kmeans-max-iters", "kmeans-tol-neg", "kmeans-tol-nan", "select-kmeans-k-0",
    "select-kmeans-r-neg", "select-kmeans-tol-nan", "select-bsm-k-0", "select-bsm-r-neg",
])
def test_public_entry_rejects(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


# Each entry that takes a seed, called with a given seed; merge_scene checks
# its seed whatever the strategy. tests/test_surface.py checks that every
# seed of the public surface is here.
SEEDED = {
    "kmeans": lambda seed: kmeans(REPS, 3, seed=seed),
    "select_scenes_kmeans": lambda seed: select_scenes_kmeans(FEATURES, 3, 1, seed=seed),
    "pack_clips": lambda seed: pack_clips(*POOL, seed=seed),
    "dataset_stats": lambda seed: dataset_stats(*POOL, seed=seed),
    "attn_projections": lambda seed: attn_projections(4, seed),
    "merge_scene": lambda seed: merge_scene(SCENE, "attnpool", seed=seed),
    "merge_scene-tavg": lambda seed: merge_scene(SCENE, "tavg", seed=seed),
    "CompressConfig": lambda seed: compress(
        FEATURES, CompressConfig(12, 3, 1, "kmeans", "attnpool", seed=seed)),
    "SyntheticSpec": lambda seed: generate_synthetic(SyntheticSpec(8, 2, 3, 2, seed=seed)),
}


def _comparable(result):
    # every field of the result as bytes or plain values
    if isinstance(result, FrameFeatures):
        return result.data.tobytes(), repr(result.frame_timestamps)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, select.Clustering):
        return (result.centers.tobytes(), result.assignments.tobytes(), result.inertia,
                result.iterations_run, result.converged)
    if hasattr(result, "wq"):
        return result.wq.tobytes(), result.wk.tobytes()
    if isinstance(result, tuple):
        return tuple(_comparable(part) for part in result)
    return repr(result)  # shows a numpy scalar stored as written


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(3.0), [1], np.array(1)],
                         ids=["negative", "float", "bool", "numpy-float", "list", "numpy-array"])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_seed_rule_rejects(entry, seed):
    # the rule, not a cache, rejects: seed 1 is cached first, and True, [1]
    # and np.array(1) must neither hit its entry nor fail to hash
    SEEDED[entry](1)
    with pytest.raises(ParameterError,
                       match=f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
        SEEDED[entry](seed)


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_seed_rule_accepts_numpy_integers(entry):
    assert _comparable(SEEDED[entry](np.int64(3))) == _comparable(SEEDED[entry](3))


def _load_sampled(sample):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fvt"
        save_features(FEATURES, path)
        return load_features(path, sample=sample)


# Each count of a public entry, keyed by (entry, parameter): the name its
# messages use, a valid value, and a call of the entry with a given value.
# tests/test_surface.py checks that every count of the public surface is here.
COUNTS = {
    ("CompressConfig", "input_frames"): ("input_frames", 12, lambda n: CompressConfig(n, 3, 1)),
    ("CompressConfig", "scenes_k"): ("scenes_k", 3, lambda n: CompressConfig(12, n, 1)),
    ("CompressConfig", "supplements_r"): ("supplements_r", 1, lambda n: CompressConfig(12, 3, n)),
    ("SyntheticSpec", "n_frames"): ("n_frames", 8, lambda n: SyntheticSpec(n, 2, 3, 2)),
    ("SyntheticSpec", "n_patches"): ("n_patches", 2, lambda n: SyntheticSpec(8, n, 3, 2)),
    ("SyntheticSpec", "dim"): ("dim", 3, lambda n: SyntheticSpec(8, 2, n, 2)),
    ("SyntheticSpec", "n_scenes"): ("n_scenes", 2, lambda n: SyntheticSpec(8, 2, 3, n)),
    ("Scene", "representative"): ("representative", 2, lambda n: Scene(n, (1, 2))),
    ("Scene", "members"): ("scene member", 1, lambda n: Scene(2, (n, 2))),
    ("SceneSet", "r"): ("r", 1, lambda n: SceneSet((Scene(2, (1, 2)),), n)),
    ("kmeans", "m"): ("cluster count", 3, lambda n: kmeans(REPS, n)),
    ("kmeans", "max_iters"): ("max_iters", 2, lambda n: kmeans(REPS, 3, max_iters=n)),
    ("select_scenes_kmeans", "k"):
        ("scene count k", 3, lambda n: select_scenes_kmeans(FEATURES, n, 1)),
    ("select_scenes_kmeans", "r"):
        ("supplement count r", 1, lambda n: select_scenes_kmeans(FEATURES, 3, n)),
    ("select_scenes_kmeans", "max_iters"):
        ("max_iters", 2, lambda n: select_scenes_kmeans(FEATURES, 3, 1, max_iters=n)),
    ("select_scenes_bsm", "k"): ("scene count k", 3, lambda n: select_scenes_bsm(FEATURES, n, 1)),
    ("select_scenes_bsm", "r"):
        ("supplement count r", 1, lambda n: select_scenes_bsm(FEATURES, 3, n)),
    ("attn_projections", "dim"): ("dim", 4, lambda n: attn_projections(n)),
    ("fit_fusion_weights", "steps"):
        ("steps", 2, lambda n: fit_fusion_weights([SCENE], [SCENE[0]], lr=0.1, steps=n)),
    ("load_features", "sample"): ("sample count", 5, _load_sampled),
    ("pack_clips", "n_frames"): ("sample count", 16, lambda n: pack_clips(*POOL, n_frames=n)),
}


@pytest.mark.parametrize("value", [2.5, np.float64(2.0), True],
                         ids=["float", "numpy-float", "bool"])
@pytest.mark.parametrize("count", sorted(COUNTS), ids=".".join)
def test_count_rule_rejects(count, value):
    name, _, call = COUNTS[count]
    with pytest.raises(ParameterError,
                       match=f"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("count", sorted(COUNTS), ids=".".join)
def test_count_rule_accepts_numpy_integers(count):
    _, valid, call = COUNTS[count]
    assert _comparable(call(np.int64(valid))) == _comparable(call(valid))


# Each real of a public entry, keyed by (entry, parameter): the name its
# messages use, the bound they state, a valid value, and a call of the entry
# with a given value. The packing window's range check is its own, so the
# real rule checks min_s and max_s for type and finiteness only.
# tests/test_surface.py checks that every real of the public surface is here.
REALS = {
    ("FrameFeatures", "frame_timestamps"):
        ("timestamp 1", ">= 0", 0.5, lambda t: FrameFeatures(np.zeros((2, 1, 1)), (0.0, t))),
    ("SyntheticSpec", "noise_sigma"):
        ("noise_sigma", ">= 0", 0.2, lambda s: SyntheticSpec(8, 2, 3, 2, noise_sigma=s)),
    ("kmeans", "tol"): ("tol", ">= 0", 0.5, lambda t: kmeans(REPS, 3, tol=t)),
    ("select_scenes_kmeans", "tol"):
        ("tol", ">= 0", 0.5, lambda t: select_scenes_kmeans(FEATURES, 3, 1, tol=t)),
    ("fit_fusion_weights", "lr"):
        ("learning rate", "> 0", 0.1,
         lambda lr: fit_fusion_weights([SCENE], [SCENE[0]], lr=lr, steps=2)),
    ("pack_clips", "min_s"): ("min_s", ">= -inf", 400.0, lambda s: pack_clips(*POOL, min_s=s)),
    ("pack_clips", "max_s"): ("max_s", ">= -inf", 900.0, lambda s: pack_clips(*POOL, max_s=s)),
    ("dataset_stats", "min_s"):
        ("min_s", ">= -inf", 400.0, lambda s: dataset_stats(*POOL, min_s=s)),
    ("dataset_stats", "max_s"):
        ("max_s", ">= -inf", 900.0, lambda s: dataset_stats(*POOL, max_s=s)),
}


@pytest.mark.parametrize("value, message", [
    (True, "must be a number, got True"),
    ("0.1", "must be a number, got '0.1'"),
    (10**400, f"is out of range: {10**400}"),
    (float("nan"), "must be finite and {bound}, got nan"),
    (float("inf"), "must be finite and {bound}, got inf"),
], ids=["bool", "string", "overflow", "nan", "inf"])
@pytest.mark.parametrize("real", sorted(REALS), ids=".".join)
def test_real_rule_rejects(real, value, message):
    name, bound, _, call = REALS[real]
    with pytest.raises(ParameterError,
                       match=f"^{re.escape(name + ' ' + message.format(bound=bound))}$"):
        call(value)


@pytest.mark.parametrize("real", sorted(REALS), ids=".".join)
def test_real_rule_accepts_numpy_floats(real):
    # compared by repr, so a numpy scalar stored as written fails
    _, _, valid, call = REALS[real]
    assert _comparable(call(np.float64(valid))) == _comparable(call(valid))


# Each real array of a public entry, keyed by (entry, parameter): the name
# its messages use, a valid integer array, and a call of the entry with a
# given array. tests/test_surface.py checks that every array of the public
# surface is here.
INTS = np.arange(48).reshape(12, 4) % 7
ARRAYS = {
    ("FrameFeatures", "data"): ("frame features", INTS.reshape(12, 1, 4), FrameFeatures),
    ("kmeans", "reps"): ("representative features", INTS, lambda a: kmeans(a, 3)),
    ("merge_scene", "scene"):
        ("scene", INTS.reshape(3, 4, 4), lambda a: merge_scene(a, "attnpool")),
    ("merge_scene", "weights"):
        ("weights", INTS[:6].reshape(3, 2, 4), lambda a: merge_scene(SCENE, "fusion", a)),
    ("compress", "weights"):
        ("weights", INTS[:9].reshape(3, 3, 4),
         lambda a: compress(FEATURES, CompressConfig(12, 4, 2, merging="fusion"), a)),
    ("fit_fusion_weights", "scenes"):
        ("scenes", INTS.reshape(2, 3, 2, 4),
         lambda a: fit_fusion_weights(a, [SCENE[0], SCENE[1]], lr=0.01, steps=2)),
    ("fit_fusion_weights", "targets"):
        ("targets", INTS[:4].reshape(2, 2, 4),
         lambda a: fit_fusion_weights([SCENE, SCENE], a, lr=0.01, steps=2)),
}


@pytest.mark.parametrize("dtype", [bool, str, complex, object])
@pytest.mark.parametrize("array", sorted(ARRAYS), ids=".".join)
def test_array_rule_rejects_non_real_dtypes(array, dtype):
    name, valid, call = ARRAYS[array]
    bad = valid.astype(dtype)
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} must hold real numbers, "
                                             f"got dtype {re.escape(str(bad.dtype))}$"):
        call(bad)


@pytest.mark.parametrize("array", sorted(ARRAYS), ids=".".join)
def test_array_rule_rejects_one_nan(array):
    name, valid, call = ARRAYS[array]
    bad = valid.astype(np.float64)
    bad.flat[-1] = np.nan
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} contains? non-finite values$"):
        call(bad)


@pytest.mark.parametrize("array", sorted(ARRAYS), ids=".".join)
def test_array_rule_rejects_a_ragged_list(array):
    # the valid array as nested lists, its last entry one item short
    name, valid, call = ARRAYS[array]
    bad = valid.tolist()
    bad[-1] = bad[-1][:-1]
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} must have a regular shape, "
                                             "got a ragged sequence$"):
        call(bad)


@pytest.mark.parametrize("array", sorted(ARRAYS), ids=".".join)
def test_array_rule_accepts_integer_arrays(array):
    _, valid, call = ARRAYS[array]
    assert _comparable(call(valid)) == _comparable(call(valid.astype(np.float64)))


def test_numpy_integer_counts_are_stored_as_int():
    assert json.dumps(CompressConfig(np.int64(12), 4, 2, seed=np.int64(3)).to_dict()) == \
        json.dumps(CompressConfig(12, 4, 2, seed=3).to_dict())
    assert json.dumps(select_scenes_bsm(FEATURES, np.int64(2), np.int64(1)).to_dict()) == \
        json.dumps(select_scenes_bsm(FEATURES, 2, 1).to_dict())


def test_seed_is_checked_before_packing_logs(caplog):
    # the 2,000 s clip would be skipped with a warning
    ids, durations, captions = POOL
    pool = (ids + ["long"], durations + [2000.0], captions + ["too long"])
    for entry in (pack_clips, dataset_stats):
        with caplog.at_level("WARNING", logger="framefuse.captions"):
            with pytest.raises(ParameterError, match="seed"):
                entry(*pool, seed=-1)
        assert caplog.records == []


def test_count_is_checked_before_packing_logs(caplog):
    ids, durations, captions = POOL
    pool = (ids + ["long"], durations + [2000.0], captions + ["too long"])
    with caplog.at_level("WARNING", logger="framefuse.captions"):
        with pytest.raises(ParameterError, match="sample count must be an integer"):
            pack_clips(*pool, n_frames=2.5)
    assert caplog.records == []


def _not_reached(*args, **kwargs):
    raise AssertionError("work done before the parameters were checked")


def test_unknown_mode_is_rejected_before_clustering(monkeypatch):
    monkeypatch.setattr(select, "representative_features", _not_reached)
    monkeypatch.setattr(select, "kmeans", _not_reached)
    with pytest.raises(ParameterError, match="unknown supplement mode 'nearest'"):
        select_scenes_kmeans(FEATURES, 3, 1, mode="nearest")


@pytest.mark.parametrize("entry, k, r, message", [
    (select_scenes_kmeans, 2.5, 1, "scene count k must be an integer"),
    (select_scenes_kmeans, 3, True, "supplement count r must be an integer"),
    (select_scenes_bsm, np.float64(3.0), 1, "scene count k must be an integer"),
    (select_scenes_bsm, 3, 1.0, "supplement count r must be an integer"),
], ids=["kmeans-k", "kmeans-r", "bsm-k", "bsm-r"])
def test_counts_are_checked_before_selection_work(monkeypatch, entry, k, r, message):
    monkeypatch.setattr(select, "representative_features", _not_reached)
    monkeypatch.setattr(select, "kmeans", _not_reached)
    with pytest.raises(ParameterError, match=message):
        entry(FEATURES, k, r)


def test_sample_is_checked_before_the_file_is_opened(tmp_path):
    with pytest.raises(ParameterError, match="^sample count must be an integer, got 2.5$"):
        load_features(tmp_path / "missing.fvt", sample=2.5)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def inputs(tmp_path, capsys):
    video = tmp_path / "f.fvt"
    assert main(["gen", "--frames", "24", "--patches", "2", "--dim", "4",
                 "--scenes", "3", "-o", str(video)]) == 0
    manifest = tmp_path / "clips.json"
    manifest.write_text(json.dumps([
        {"id": f"c{i}", "duration": 60.0, "caption": f"text {i}"} for i in range(40)]))
    capsys.readouterr()
    return video, manifest


@pytest.mark.parametrize("argv, message", [
    (["select", "{video}", "--k", "3", "--r", "1", "--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
    (["synth", "{manifest}", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["synth", "{manifest}", "--stats", "--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
    (["select", "{video}", "--k", "3", "--r", "1", "--tol", "nan"],
     "tol must be finite and >= 0, got nan"),
    (["select", "{video}", "--k", "3", "--r", "1", "--tol", "inf"],
     "tol must be finite and >= 0, got inf"),
    (["gen", "--frames", "8", "--patches", "2", "--dim", "4", "--scenes", "2",
      "--noise", "inf", "-o", "{video}"], "noise_sigma must be finite and >= 0, got inf"),
    (["synth", "{manifest}", "--min-s", "nan"], "min_s must be finite and >= -inf, got nan"),
], ids=["select-seed", "synth-seed", "synth-stats-seed", "select-tol-nan", "select-tol-inf",
        "gen-noise-inf", "synth-min-s-nan"])
def test_cli_rejects_with_one_line(inputs, capsys, argv, message):
    video, manifest = inputs
    argv = [a.format(video=video, manifest=manifest) for a in argv]
    assert run(argv, capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text, code, message", [
    ("[{", 1, "error: {configs}: invalid JSON at byte offset 2\n"),
    ('{"input_frames": 12}', 2, "usage error: {configs}: expected a JSON array of configs\n"),
], ids=["invalid-json", "not-an-array"])
def test_bench_rejects_configs_file(inputs, tmp_path, capsys, text, code, message):
    configs = tmp_path / "configs.json"
    configs.write_text(text)
    got = run(["bench", str(inputs[0]), "--configs", str(configs)], capsys)
    assert got == (code, "", message.format(configs=configs))
