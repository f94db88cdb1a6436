"""Spans around framefuse's public functions, recorded from outside.

``Tracer.install`` replaces each listed function, in every framefuse module
namespace that holds it, by a wrapper that records a ``perf_counter`` span:
its name, start, end, parent span and job id. Spans stay in memory until
``dump``. With ``track_memory`` each span also records its tracemalloc peak
above the level at entry; nested spans keep their parents' peaks correct.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from pathlib import Path

MODULES = ("framefuse", "framefuse.features", "framefuse.select", "framefuse.merge",
           "framefuse.pipeline", "framefuse.captions", "framefuse.cli")


# The callers inside framefuse pass these arguments positionally.
def _merge_label(args, kwargs):
    return f"merge.merge_scene[{args[1]}]"


def _kmeans_attrs(args, kwargs, result):
    (n, d), m = args[0].shape, args[1]
    return {"iterations": int(result.iterations_run), "sqdist_bytes": n * m * d * 8}


def _pack_attrs(args, kwargs, result):
    return {"pool": len(args[0]), "placed": sum(len(r.clip_ids) for r in result)}


# (module, attribute, span name or labeller, result hook)
TARGETS = (
    ("framefuse.cli", "main", "cli.main", None),
    ("framefuse.features", "load_features", "features.load_features", None),
    ("framefuse.features", "save_features", "features.save_features", None),
    ("framefuse.pipeline", "compress", "pipeline.compress", None),
    ("framefuse.merge", "merge_scene", _merge_label, None),
    ("framefuse.select", "representative_features", "select.representative_features", None),
    ("framefuse.select", "kmeans", "select.kmeans", _kmeans_attrs),
    ("framefuse.select", "select_supplements", "select.select_supplements", None),
    ("framefuse.select", "select_scenes_kmeans", "select.select_scenes_kmeans", None),
    ("framefuse.select", "select_scenes_bsm", "select.select_scenes_bsm", None),
    ("framefuse.captions", "load_clip_manifest", "captions.load_clip_manifest", None),
    ("framefuse.captions", "pack_clips", "captions.pack_clips", _pack_attrs),
    ("framefuse.captions", "build_record", "captions.build_record", None),
    ("framefuse.captions", "dataset_stats", "captions.dataset_stats", None),
)


def unit_of(layer_metric: str) -> str:
    if "_mb" in layer_metric:
        return "MB"
    if layer_metric.endswith((".iterations", ".calls")):
        return "count"
    if layer_metric.endswith("_ratio"):
        return "ratio"
    return "ms"


class Tracer:
    def __init__(self, track_memory: bool):
        self.track_memory = track_memory
        self.spans: list[dict] = []
        self.job: int | None = None
        self._stack: list[dict] = []

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "job": self.job,
                "parent": self._stack[-1]["id"] if self._stack else None}
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            for open_span in self._stack:
                open_span["_peak"] = max(open_span["_peak"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_peak"] = current
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self.track_memory:
            peak = max(span.pop("_peak"), tracemalloc.get_traced_memory()[1])
            span["peak_bytes"] = peak - span.pop("_base")
            if self._stack:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
            tracemalloc.reset_peak()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None:
                span.update(hook(args, kwargs, result))
            return result
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        # validation of every FrameFeatures runs in its __post_init__
        from framefuse.features import FrameFeatures
        FrameFeatures.__post_init__ = self._wrap(
            FrameFeatures.__post_init__, "features.FrameFeatures", None)
        if self.track_memory:
            tracemalloc.start()

    # -- reduction -------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures in ms per call (MB, counts and ratios where
        named). A layer that the workload never calls reads 0."""
        by_name: dict[str, list[dict]] = {}
        child_ms: dict[int, float] = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(s)
            if s["parent"] is not None:
                child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + (s["end"] - s["start"]) * 1e3

        def calls(name):
            return by_name.get(name, [])

        def ms(name):
            c = calls(name)
            return sum((s["end"] - s["start"]) * 1e3 for s in c) / len(c) if c else 0.0

        def self_ms(name):
            c = calls(name)
            return (ms(name) - sum(child_ms.get(s["id"], 0.0) for s in c) / len(c)) if c else 0.0

        def peak_mb(name):
            return max((s.get("peak_bytes", 0) for s in calls(name)), default=0) / 2**20

        kmeans = calls("select.kmeans")
        iterations = sum(s["iterations"] for s in kmeans)
        packs = calls("captions.pack_clips")
        out = {f"merge.scene_ms.{st}": ms(f"merge.merge_scene[{st}]")
               for st in ("tavg", "fusion", "attnpool", "bsm")}
        out.update({
            "merge.peak_mb.attnpool": peak_mb("merge.merge_scene[attnpool]"),
            "merge.peak_mb.bsm": peak_mb("merge.merge_scene[bsm]"),
            "pipeline.compress.ms": ms("pipeline.compress"),
            "pipeline.compress.self_ms": self_ms("pipeline.compress"),
            "features.FrameFeatures.ms": ms("features.FrameFeatures"),
            "features.load_features.ms": ms("features.load_features"),
            "features.load_features.peak_mb": peak_mb("features.load_features"),
            "features.save_features.ms": ms("features.save_features"),
            "select.representative_features.ms": ms("select.representative_features"),
            "select.kmeans.ms": ms("select.kmeans"),
            "select.kmeans.ms_per_iter":
                sum((s["end"] - s["start"]) * 1e3 for s in kmeans) / iterations if iterations else 0.0,
            "select.kmeans.iterations": iterations / len(kmeans) if kmeans else 0.0,
            "select.kmeans.peak_mb": peak_mb("select.kmeans"),
            "select.kmeans.sqdist_mb":
                max((s["sqdist_bytes"] for s in kmeans), default=0) / 2**20,
            "select.select_supplements.ms": ms("select.select_supplements"),
            "select.select_scenes_bsm.ms": ms("select.select_scenes_bsm"),
            "cli.main.self_ms": self_ms("cli.main"),
            "captions.load_clip_manifest.ms": ms("captions.load_clip_manifest"),
            "captions.pack_clips.self_ms": self_ms("captions.pack_clips"),
            "captions.build_record.ms": ms("captions.build_record"),
            "captions.build_record.calls":
                len(calls("captions.build_record")) / len(packs) if packs else 0.0,
            "captions.dataset_stats.ms": ms("captions.dataset_stats"),
            "captions.clip_use_ratio":
                sum(s["placed"] for s in packs) / sum(s["pool"] for s in packs) if packs else 0.0,
        })
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, spans=self.spans)
        path.write_text(json.dumps(doc))
