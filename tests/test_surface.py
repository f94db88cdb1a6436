"""The public surface: the names framefuse exports, and the names the
benchmark in ``perfbench/`` looks up in the package and its modules."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import framefuse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = [
    "ClipRecord",
    "Clustering",
    "CompressConfig",
    "FormatError",
    "FrameFeatures",
    "FrameFuseError",
    "LongVideoRecord",
    "ParameterError",
    "Scene",
    "SceneSet",
    "Segment",
    "SyntheticSpec",
    "attention_pool",
    "attention_weights",
    "attn_projections",
    "bench",
    "bsm_merge",
    "compress",
    "dataset_stats",
    "fit_fusion_weights",
    "fusion",
    "fusion_gradient",
    "fusion_init",
    "generate_synthetic",
    "kmeans",
    "load_clip_manifest",
    "load_features",
    "merge_scene",
    "pack_clips",
    "planted_block_labels",
    "reconstruction_proxy",
    "representative_features",
    "save_features",
    "select_scenes_bsm",
    "select_scenes_kmeans",
    "temporal_average",
]


def test_public_names_are_pinned():
    assert sorted(framefuse.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(framefuse, name) is not None, name


def test_tracing_targets_resolve():
    # tracing.py imports only the stdlib, so loading it runs no benchmark code
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_worker_hooks_resolve():
    assert callable(framefuse.pipeline.select_scenes_kmeans)
    assert callable(framefuse.pipeline.select_scenes_bsm)
    assert callable(framefuse.select.kmeans)


def test_benchmark_package_lookups_are_exported():
    used = set()
    for script in ("selftest.py", "worker.py"):
        used |= set(re.findall(r"\bff\.([A-Za-z_]\w*)", (PERFBENCH / script).read_text()))
    assert used
    for name in sorted(used):
        value = getattr(framefuse, name, None)
        assert name in framefuse.__all__ or inspect.ismodule(value), name
