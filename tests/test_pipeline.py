"""Compression-pipeline tests: sampling, grouping, compress, bench."""

import numpy as np
import pytest

from framefuse import (
    CompressConfig,
    FrameFeatures,
    ParameterError,
    bench,
    compress,
    generate_synthetic,
    representative_features,
    select_scenes_kmeans,
)
from framefuse.features import uniform_sample_indices
from framefuse.pipeline import _proxy
from reference import planted_block_labels, reconstruction_proxy


def test_uniform_sample_identity():
    assert uniform_sample_indices(8, 8) == list(range(8))


def test_uniform_sample_96_to_32():
    got = uniform_sample_indices(96, 32)
    assert got == [(j * 96) // 32 for j in range(32)] == list(range(0, 96, 3))


def test_uniform_sample_10_to_3():
    assert uniform_sample_indices(10, 3) == [0, 3, 6]


def test_uniform_sample_strictly_increasing():
    for total, n in ((17, 5), (100, 7), (9, 9), (50, 1)):
        idx = uniform_sample_indices(total, n)
        assert len(idx) == n
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert all(0 <= i < total for i in idx)


def test_uniform_sample_errors():
    with pytest.raises(ParameterError):
        uniform_sample_indices(5, 6)
    with pytest.raises(ParameterError):
        uniform_sample_indices(5, 0)


def test_compress_config_validation():
    with pytest.raises(ParameterError):
        CompressConfig(input_frames=5, scenes_k=2, supplements_r=2)  # 2*3 > 5
    with pytest.raises(ParameterError):
        CompressConfig(input_frames=6, scenes_k=2, supplements_r=2, selection="best")
    with pytest.raises(ParameterError):
        CompressConfig(input_frames=6, scenes_k=2, supplements_r=2, merging="pool")
    cfg = CompressConfig(input_frames=6, scenes_k=2, supplements_r=2)
    assert CompressConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("doc, key", [
    # a misspelt key must not be dropped, nor a fractional count truncated
    ({"merge": "bsm", "selction": "kmeans", "input_frames": 96.9, "scenes_k": 32,
      "supplements_r": 2}, "merge"),
    ({"input_frames": 96.9, "scenes_k": 32, "supplements_r": 2}, "input_frames"),
    ({"input_frames": 96, "scenes_k": True, "supplements_r": 2}, "scenes_k"),
    ({"input_frames": 96, "scenes_k": 32, "supplements_r": "2"}, "supplements_r"),
    ({"input_frames": 96, "scenes_k": 32, "supplements_r": 2, "seed": None}, "seed"),
    ({"input_frames": 96, "scenes_k": 32, "supplements_r": 2, "merging": 3}, "merging"),
    ({"input_frames": 96, "scenes_k": 32, "supplements_r": 2, "selection": ["kmeans"]},
     "selection"),
])
def test_compress_config_from_dict_rejects_what_it_would_guess(doc, key):
    with pytest.raises(ParameterError, match=key):
        CompressConfig.from_dict(doc)


def test_compress_config_from_dict_accepts_integral_floats():
    doc = {"input_frames": 96.0, "scenes_k": 32, "supplements_r": 2.0, "seed": 3}
    assert CompressConfig.from_dict(doc) == CompressConfig(96, 32, 2, seed=3)
    with pytest.raises(ParameterError, match="JSON object"):
        CompressConfig.from_dict([96, 32, 2])


def test_compress_96_to_32_kmeans_fusion():
    f = generate_synthetic(96, 8, 16, 4, 0.1, seed=1)
    cfg = CompressConfig(96, 32, 2, selection="kmeans", merging="fusion", seed=2)
    out = compress(f, cfg)
    assert (out.n_frames, out.n_patches, out.dim) == (32, 8, 16)


def test_compress_identical_frames_any_config():
    frame = np.random.default_rng(3).standard_normal((6, 8)).astype(np.float32)
    f = FrameFeatures(np.stack([frame] * 24))
    for sel in ("uniform", "kmeans", "bsm"):
        for mg in ("tavg", "fusion", "attnpool", "bsm"):
            cfg = CompressConfig(12, 4, 2, selection=sel, merging=mg, seed=4)
            out = compress(f, cfg)
            for produced in out.data:
                assert np.max(np.abs(produced.astype(np.float64) - frame)) <= 1e-6, (sel, mg)


def test_compress_planted_blocks_near_block_means():
    sigma = 0.1
    f = generate_synthetic(32, 4, 8, 4, noise_sigma=sigma, seed=0)
    labels = planted_block_labels(32, 4)
    block_means = np.stack(
        [f.data[labels == b].astype(np.float64).mean(axis=0) for b in range(4)]
    )
    cfg = CompressConfig(32, 4, 1, selection="kmeans", merging="tavg", seed=6)
    out = compress(f, cfg)
    for produced in out.data.astype(np.float64):
        dev = np.abs(block_means - produced[None]).max(axis=(1, 2))
        assert dev.min() <= 2 * sigma


def test_compress_deterministic_bytes():
    f = generate_synthetic(48, 4, 8, 3, 0.1, seed=7)
    cfg = CompressConfig(48, 6, 3, selection="kmeans", merging="attnpool", seed=8)
    a = compress(f, cfg)
    b = compress(f, cfg)
    assert a.data.tobytes() == b.data.tobytes()


def test_compress_uniform_requires_exact_budget():
    f = generate_synthetic(20, 2, 4, 2, 0.1, seed=9)
    with pytest.raises(ParameterError, match="uniform selection requires"):
        compress(f, CompressConfig(20, 4, 3, selection="uniform"))


def test_compress_too_few_frames():
    f = generate_synthetic(10, 2, 4, 2, 0.1, seed=10)
    with pytest.raises(ParameterError, match="input frames"):
        compress(f, CompressConfig(12, 4, 2))


def test_compress_propagates_representative_timestamps():
    data = np.random.default_rng(11).standard_normal((12, 2, 4))
    f = FrameFeatures(data, tuple(float(i) for i in range(12)))
    cfg = CompressConfig(12, 4, 2, selection="uniform", merging="tavg")
    out = compress(f, cfg)
    assert out.frame_timestamps == (1.0, 4.0, 7.0, 10.0)


def test_compress_temporal_order():
    base = generate_synthetic(40, 3, 6, 4, 0.1, seed=12)
    f = FrameFeatures(base.data, tuple(float(i) for i in range(40)))
    for sel in ("uniform", "kmeans", "bsm"):
        cfg = CompressConfig(40, 5, 7, selection=sel, seed=13)
        out = compress(f, cfg)
        assert out.n_frames == 5
        # representative timestamps expose the merged-frame ordering
        ts = out.frame_timestamps
        assert ts is not None and all(b > a for a, b in zip(ts, ts[1:]))


def test_token_budget_independent_of_input_frames():
    f = generate_synthetic(90, 4, 8, 3, 0.1, seed=14)
    for input_frames in (30, 60, 90):
        cfg = CompressConfig(input_frames, 10, 2, selection="kmeans", seed=15)
        out = compress(f, cfg)
        assert out.n_frames * out.n_patches == 10 * 4


def test_bench_identity_compression_zero_proxy():
    f = generate_synthetic(16, 3, 6, 2, 0.1, seed=16)
    cfg = CompressConfig(16, 16, 0, selection="uniform", merging="tavg")
    report = bench(f, [cfg])
    assert len(report) == 1
    entry = report[0]
    assert entry["out_frames"] == 16
    assert entry["recon_mse"] == 0.0
    assert entry["wall_ms"] >= 0.0
    assert entry["config"] == cfg.to_dict()


def test_bench_tavg_equals_fusion_at_init():
    f = generate_synthetic(24, 3, 6, 3, 0.1, seed=17)
    cfgs = [
        CompressConfig(24, 8, 2, selection="kmeans", merging="tavg", seed=18),
        CompressConfig(24, 8, 2, selection="kmeans", merging="fusion", seed=18),
    ]
    report = bench(f, cfgs)
    assert report[0]["recon_mse"] == pytest.approx(report[1]["recon_mse"], abs=1e-9)


def test_bench_kmeans_beats_uniform_on_planted_uneven_blocks():
    from conftest import uneven_planted

    wins = 0
    trials = 20
    for seed in range(trials):
        f, _ = uneven_planted([4, 22, 7, 15], 4, 8, 0.05, 100 + seed)
        report = bench(f, [
            CompressConfig(48, 8, 1, selection="kmeans", merging="tavg", seed=seed),
            CompressConfig(16, 8, 1, selection="uniform", merging="tavg", seed=seed),
        ])
        if report[0]["recon_mse"] <= report[1]["recon_mse"]:
            wins += 1
    assert wins >= int(0.9 * trials)


def test_fusion_weights_passed_through():
    f = generate_synthetic(12, 3, 4, 2, 0.1, seed=19)
    cfg = CompressConfig(12, 4, 2, selection="uniform", merging="fusion")
    w = np.zeros((3, 3, 4))
    w[0] = 1.0  # one-hot on the first frame of each scene
    out = compress(f, cfg, weights=w)
    first_members = [0, 3, 6, 9]
    for produced, m in zip(out.data.astype(np.float64), first_members):
        assert np.allclose(produced, f.data[m].astype(np.float64), atol=1e-6)


def test_compress_checks_weights_before_selection_runs(monkeypatch):
    from framefuse import pipeline

    def fail(*args, **kwargs):
        pytest.fail("selection ran before the weights were checked")

    monkeypatch.setattr(pipeline, "select_scenes_kmeans", fail)
    f = generate_synthetic(12, 3, 4, 2, 0.1, seed=19)
    cfg = CompressConfig(12, 4, 2, selection="kmeans", merging="fusion")
    with pytest.raises(ParameterError, match="weights shape"):
        compress(f, cfg, weights=np.ones((2, 3, 4)))


def test_reconstruction_proxy_zero_for_self():
    f = generate_synthetic(8, 2, 4, 2, 0.1, seed=20)
    assert _proxy(representative_features(f), f) == 0.0


@pytest.mark.parametrize("kind", ["random", "duplicates", "all-zero", "offset"])
@pytest.mark.parametrize("merging", ["tavg", "bsm"])
def test_reconstruction_proxy_equals_direct_form(kind, merging):
    rng = np.random.default_rng(21)
    data = rng.uniform(-4.0, 4.0, (30, 3, 6))
    if kind == "duplicates":
        data = data[rng.integers(0, 5, 30)]
    elif kind == "all-zero":
        data[:] = 0.0
    elif kind == "offset":
        data = 1e4 + 1e-3 * data
    f = FrameFeatures(data.astype(np.float32))
    out = compress(f, CompressConfig(24, 6, 3, "uniform", merging))
    assert _proxy(representative_features(f), out) == reconstruction_proxy(f, out)


def test_compress_logs_each_selection_warning(caplog):
    # 40 frames into 10 scenes of 4: kmeans leaves history windows short,
    # and select_scenes_kmeans reports each padded scene
    f = generate_synthetic(40, 4, 8, 4, 0.1, seed=0)
    expected = select_scenes_kmeans(f, 10, 3, seed=0).warnings
    assert len(expected) == 7
    with caplog.at_level("WARNING", logger="framefuse.pipeline"):
        compress(f, CompressConfig(40, 10, 3, "kmeans", "tavg"))
    logged = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert logged == [("framefuse.pipeline", "WARNING", w) for w in expected]


@pytest.mark.parametrize("zero_frames", [slice(None), slice(3, 12), slice(0, 1)])
@pytest.mark.parametrize("merging", ["tavg", "bsm"])
def test_kmeans_compress_accepts_zero_frames(zero_frames, merging):
    # zero vectors have no cosine direction; ranking clamps their norm at
    # 1e-12, as bsm selection does, instead of failing
    rng = np.random.default_rng(22)
    data = rng.uniform(-4.0, 4.0, (30, 3, 6)).astype(np.float32)
    data[zero_frames] = 0.0
    f = FrameFeatures(data)
    for selection in ("kmeans", "bsm"):
        out = compress(f, CompressConfig(30, 5, 2, selection, merging))
        assert out.data.shape == (5, 3, 6)
        assert np.all(np.isfinite(out.data))
        if zero_frames == slice(None):
            assert not out.data.any()


def test_bench_computes_the_original_representatives_once(monkeypatch):
    from framefuse import pipeline

    f = generate_synthetic(24, 3, 6, 3, 0.1, seed=23)
    cfgs = [CompressConfig(24, 8, 2, "kmeans", merging, seed=1)
            for merging in ("tavg", "fusion", "attnpool", "bsm")]
    calls = []
    real = pipeline.representative_features
    monkeypatch.setattr(pipeline, "representative_features",
                        lambda features: calls.append(features) or real(features))
    report = bench(f, cfgs)
    # the original once, then each compressed output once
    assert [c is f for c in calls] == [True] + [False] * len(cfgs)
    for entry, cfg in zip(report, cfgs):
        assert entry["recon_mse"] == reconstruction_proxy(f, compress(f, cfg))


@pytest.mark.parametrize("selection", ["kmeans", "bsm"])
def test_select_uses_a_whole_tensor_sample_as_it_is(monkeypatch, selection):
    from framefuse import pipeline

    f = generate_synthetic(30, 3, 6, 3, 0.1, seed=24)
    name = f"select_scenes_{selection}"
    seen = []
    real = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name, lambda features, *a, **kw:
                        seen.append(features) or real(features, *a, **kw))
    compress(f, CompressConfig(30, 5, 2, selection, "tavg"))
    compress(f, CompressConfig(20, 5, 2, selection, "tavg"))
    assert seen[0] is f
    assert seen[1] is not f
    assert seen[1].data.tobytes() == f.data[uniform_sample_indices(30, 20)].tobytes()
