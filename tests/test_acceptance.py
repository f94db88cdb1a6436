"""Acceptance suite: one test per release criterion, each with a pinned
tolerance and a wall-clock budget. Run with ``pytest -s`` to see the
per-criterion PASS lines."""

import json
import re
import time

import numpy as np

import reference
from conftest import uneven_planted
from framefuse import (
    CompressConfig,
    attn_projections,
    bench,
    compress,
    generate_synthetic,
    kmeans,
    merge_scene,
    pack_clips,
    representative_features,
    select_scenes_bsm,
    select_scenes_kmeans,
)
from framefuse.cli import main


def _finish(name, budget_s, start):
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_01_fusion_average_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    for _ in range(100):
        s = int(rng.integers(2, 5))
        scene = rng.standard_normal((s, 16, 32))
        tavg = merge_scene(scene, "tavg")
        for weights in (None, np.full((s, 16, 32), 1.0 / s)):
            assert np.abs(merge_scene(scene, "fusion", weights=weights) - tavg).max() <= 1e-6
    _finish("criterion 1: fusion equals temporal average at init (1e-6)", 1.0, start)


def test_criterion_02_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    h = 1e-3
    for _ in range(20):
        s = int(rng.integers(2, 5))
        scene = rng.standard_normal((s, 4, 6))
        target = rng.standard_normal((4, 6))
        w = rng.standard_normal(scene.shape)

        def loss(weights):
            resid = merge_scene(scene, "fusion", weights=weights) - target
            return 0.5 * float((resid * resid).sum())

        # the gradient formula of the fitter, which test_merge_engine.py
        # holds to this oracle bit for bit
        analytic = reference.fusion_gradient(
            scene, merge_scene(scene, "fusion", weights=w) - target)
        numeric = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            numeric[idx] = (loss(wp) - loss(wm)) / (2 * h)
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel <= 1e-4
    _finish("criterion 2: gradient vs central differences (1e-4 relative)", 5.0, start)


def test_criterion_03_token_budget_exactness():
    start = time.perf_counter()
    f = generate_synthetic(96, 16, 32, 4, 0.1, seed=43)
    combos = 0
    for selection in ("uniform", "kmeans", "bsm"):
        for merging in ("tavg", "fusion", "attnpool", "bsm"):
            cfg = CompressConfig(96, 32, 2, selection=selection, merging=merging, seed=44)
            out = compress(f, cfg)
            assert (out.n_frames, out.n_patches, out.dim) == (32, 16, 32), (selection, merging)
            combos += 1
    assert combos == 12
    _finish("criterion 3: 96->32 token budget across 12 combos", 10.0, start)


def test_criterion_04_kmeans_recovers_planted_partition():
    start = time.perf_counter()
    recovered = 0
    for seed in range(100):
        f = generate_synthetic(40, 6, 16, 4, noise_sigma=0.05, seed=seed)
        labels = reference.planted_block_labels(40, 4)
        c = kmeans(representative_features(f), 4, seed=seed)
        mapping = {}
        exact = True
        for planted, got in zip(labels, c.assignments):
            if mapping.setdefault(int(planted), int(got)) != int(got):
                exact = False
                break
        if exact and len(set(mapping.values())) == 4:
            recovered += 1
    assert recovered >= 95, f"recovered {recovered}/100"
    _finish(f"criterion 4: planted partition recovered {recovered}/100 (>=95)", 10.0, start)


def test_criterion_05_bsm_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(45)
    for _ in range(50):
        tokens = rng.standard_normal((64, 32))
        # the scene of 4 frames of 16 patches whose tokens, patch-major, these are
        out = merge_scene(tokens.reshape(16, 4, 32).transpose(1, 0, 2), "bsm")
        want, sizes = reference.bsm_merge(tokens, 16)
        assert out.shape[0] == 16 and out.tobytes() == want.tobytes()
        assert int(sizes.sum()) == 64
        mass_in = tokens.sum(axis=0)
        mass_out = (out * sizes[:, None]).sum(axis=0)
        rel = np.abs(mass_out - mass_in) / np.maximum(np.abs(mass_in), 1e-12)
        assert rel.max() <= 1e-4
    _finish("criterion 5: token merge count exact, mass within 1e-4", 5.0, start)


def test_criterion_06_attention_pool_convexity():
    start = time.perf_counter()
    rng = np.random.default_rng(46)
    for seed in range(50):
        s = int(rng.integers(2, 6))
        scene = rng.standard_normal((s, 8, 12))
        proj = attn_projections(12, seed=seed)
        w = reference.attention_weights(scene, proj)
        assert np.all(w >= 0)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-6
        out = merge_scene(scene, "attnpool", seed=seed)
        assert np.all(out <= scene.max(axis=0) + 1e-9)
        assert np.all(out >= scene.min(axis=0) - 1e-9)
        frame = rng.standard_normal((8, 12))
        identical = np.stack([frame] * s)
        out = merge_scene(identical, "attnpool", seed=seed)
        # exact at double precision
        assert np.max(np.abs(out - frame)) <= 1e-12
    _finish("criterion 6: attention weights convex, identical frames exact", 2.0, start)


def test_criterion_07_scene_set_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 80))
        k = int(rng.integers(1, n + 1))
        r = int(rng.integers(0, n // k))
        f = generate_synthetic(n, 2, 6, int(rng.integers(1, min(n, 5) + 1)), 0.1,
                               seed=int(rng.integers(0, 2**31)))
        for ss in (
            select_scenes_kmeans(f, k, r, seed=int(rng.integers(0, 2**31))),
            select_scenes_bsm(f, k, r),
        ):
            assert ss.k == k
            retained = reference.retained_indices(ss)
            assert len(retained) == k * (r + 1)
            assert len(set(retained)) == len(retained)
            for scene in ss.scenes:
                assert len(scene.members) == r + 1
                assert list(scene.members) == sorted(scene.members)
    _finish("criterion 7: 200 random configs give k disjoint scenes of r+1", 10.0, start)


def test_criterion_08_caption_synthesis():
    start = time.perf_counter()
    rng = np.random.default_rng(48)
    ids = [f"clip-{i}" for i in range(1000)]
    durations = [float(rng.uniform(20, 180)) for _ in ids]
    captions = [f"synthetic caption {i}" for i in range(1000)]
    records = pack_clips(ids, durations, captions, seed=49)
    assert records
    template = re.compile(
        r"This video samples 32 frames of a \d+-second video at "
        r"\d+\.\d(, \d+\.\d)* seconds\."
    )
    used = []
    for rec in records:
        assert 300.0 <= rec.total_duration_s <= 1800.0
        cursor = 0.0
        for seg_start, seg_end in zip(rec.starts, rec.ends):
            assert abs(seg_start - cursor) <= 1e-6
            cursor = seg_end
        assert abs(cursor - rec.total_duration_s) <= 1e-6
        assert template.fullmatch(rec.instruction), rec.instruction
        used.extend(rec.clip_ids)
    assert len(used) == len(set(used))
    _finish(f"criterion 8: {len(records)} records valid from 1000 clips", 2.0, start)


def test_criterion_09_selection_quality_proxy():
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        f, _ = uneven_planted([4, 22, 7, 15], 4, 8, 0.05, 100 + seed)
        report = bench(f, [
            CompressConfig(48, 8, 1, selection="kmeans", merging="tavg", seed=seed),
            CompressConfig(16, 8, 1, selection="uniform", merging="tavg", seed=seed),
        ])
        if report[0]["recon_mse"] <= report[1]["recon_mse"]:
            wins += 1
    assert wins >= 90, f"kmeans won {wins}/100"
    _finish(f"criterion 9: selection beat uniform grouping {wins}/100 (>=90)", 30.0, start)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    manifest = tmp_path / "clips.json"
    manifest.write_text(json.dumps([
        {"id": f"c{i}", "duration": 60.0, "caption": f"text {i}"} for i in range(24)
    ]))
    src = tmp_path / "src.fvt"
    assert main(["gen", "--frames", "48", "--patches", "4", "--dim", "8",
                 "--scenes", "4", "--seed", "9", "-o", str(src)]) == 0

    byte_identical_cmds = {
        "gen": lambda out: ["gen", "--frames", "48", "--patches", "4", "--dim", "8",
                            "--scenes", "4", "--seed", "9", "-o", out],
        "select": lambda out: ["select", str(src), "--k", "6", "--r", "3",
                               "--seed", "3", "-o", out],
        "compress": lambda out: ["compress", str(src), "--k", "8", "--r", "2",
                                 "--select", "kmeans", "--merge", "fusion",
                                 "--frames", "48", "--seed", "3", "-o", out],
        "synth": lambda out: ["synth", str(manifest), "--seed", "3", "-o", out],
    }
    for name, argv in byte_identical_cmds.items():
        a, b = tmp_path / f"{name}_a.out", tmp_path / f"{name}_b.out"
        assert main(argv(str(a))) == 0
        assert main(argv(str(b))) == 0
        assert a.read_bytes() == b.read_bytes(), name

    # the bench report embeds wall-clock timing by contract, so compare
    # everything except the timing field
    configs = tmp_path / "cfg.json"
    configs.write_text(json.dumps([
        {"input_frames": 12, "scenes_k": 4, "supplements_r": 2, "seed": 3},
    ]))
    reports = []
    for name in ("bench_a.json", "bench_b.json"):
        out = tmp_path / name
        assert main(["bench", str(src), "--configs", str(configs), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        for entry in doc:
            entry.pop("wall_ms")
        reports.append(doc)
    assert reports[0] == reports[1]
    capsys.readouterr()
    _finish("criterion 10: CLI reruns byte-identical (bench modulo timing)", 5.0, start)
