"""End-to-end compression: sample frames, group into scenes, merge each
scene, and emit the compressed feature sequence (for example 96 input
frames reduced to 32 merged frames)."""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ParameterError, _check_count, _check_seed
from .features import FrameFeatures, uniform_sample_indices
from .merge import STRATEGIES, fusion_weights_for, merge_scenes
from .select import (
    nearest_centers,
    representative_features,
    select_scenes_bsm,
    select_scenes_kmeans,
)

logger = logging.getLogger(__name__)

SELECTIONS = ("uniform", "kmeans", "bsm")


@dataclass(frozen=True)
class CompressConfig:
    """One compression run: how many frames to take, how to group and merge."""

    input_frames: int
    scenes_k: int
    supplements_r: int
    selection: str = "uniform"
    merging: str = "tavg"
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("input_frames", 1), ("scenes_k", 1), ("supplements_r", 0)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), minimum))
        if self.scenes_k * (self.supplements_r + 1) > self.input_frames:
            raise ParameterError(
                f"scenes_k*(supplements_r+1) = {self.scenes_k * (self.supplements_r + 1)} "
                f"exceeds input_frames {self.input_frames}"
            )
        if self.selection not in SELECTIONS:
            raise ParameterError(
                f"unknown selection {self.selection!r}, expected one of {SELECTIONS}"
            )
        if self.merging not in STRATEGIES:
            raise ParameterError(
                f"unknown merging {self.merging!r}, expected one of {STRATEGIES}"
            )
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "CompressConfig":
        """Build a config from its :meth:`to_dict` form, rejecting what it
        would otherwise have to guess: unknown or missing keys, and every
        value the constructor rejects. Integral JSON floats (12.0) are
        read as integers."""
        if not isinstance(doc, dict):
            raise ParameterError(f"config must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ParameterError(f"config has unknown fields {unknown}, expected {sorted(known)}")
        missing = {"input_frames", "scenes_k", "supplements_r"} - set(doc)
        if missing:
            raise ParameterError(f"config missing fields: {sorted(missing)}")
        return cls(**{key: int(value) if isinstance(value, float) and value.is_integer()
                      else value for key, value in doc.items()})


def _select(features: FrameFeatures, idx: np.ndarray,
            cfg: CompressConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (k, s) member table and the k representatives, as positions in
    the sample *idx*; each warning of the selection is logged."""
    s = cfg.supplements_r + 1
    if cfg.selection == "uniform":  # consecutive chunks, the middle member represents
        members = np.arange(cfg.input_frames).reshape(-1, s)
        return members, members[:, s // 2]
    # a sample of every frame is the identity: select on the validated input
    sub = features if len(idx) == features.n_frames else FrameFeatures(features.data[idx])
    if cfg.selection == "kmeans":
        scene_set = select_scenes_kmeans(sub, cfg.scenes_k, cfg.supplements_r, seed=cfg.seed)
    else:
        scene_set = select_scenes_bsm(sub, cfg.scenes_k, cfg.supplements_r)
    for warning in scene_set.warnings:
        logger.warning("%s", warning)
    return (np.array([scene.members for scene in scene_set.scenes]),
            np.array([scene.representative for scene in scene_set.scenes]))


def _check_input_frames(cfg: CompressConfig, n_frames: int) -> None:
    if cfg.input_frames > n_frames:
        raise ParameterError(
            f"config wants {cfg.input_frames} input frames but tensor has {n_frames}"
        )


def compress(
    features: FrameFeatures,
    cfg: CompressConfig,
    weights: np.ndarray | None = None,
) -> FrameFeatures:
    """Compress a feature tensor to exactly cfg.scenes_k merged frames.

    Uniformly samples cfg.input_frames frames, groups them into a (k, s)
    table of scene members by the configured selection, merges each scene
    with the configured strategy, and stacks the maps in representative order.
    Deterministic for identical (input, config, seed). A tensor of exactly
    cfg.input_frames frames, such as ``load_features(path,
    sample=cfg.input_frames)`` returns, samples the identity, so it
    compresses to the same bytes as the whole tensor.

    Each scene's frames are read by index straight from *features*, which
    is already validated, into float64 work buffers that the merge
    allocates once per call and worker, and each merged map is written
    into the float32 output; no batch of scenes is gathered, so memory
    does not grow with cfg.scenes_k. The scenes merge on the W workers of
    ``parallel._run_units`` (README "Workers"), on one for small frames (see
    :func:`merge.merge_scenes`), and the output does not depend on W.

    *weights* are the fusion weights, of shape (supplements_r + 1,
    n_patches, dim); they are rejected with any other cfg.merging. The
    frame count, uniform selection's exact budget, then *weights* are
    checked before selection runs.

    Each warning of the selection (a scene padded from outside its history
    window; frame numbers count the sampled frames) is logged at WARNING.
    """
    _check_input_frames(cfg, features.n_frames)
    s = cfg.supplements_r + 1
    if cfg.selection == "uniform" and cfg.input_frames != cfg.scenes_k * s:
        raise ParameterError(
            "uniform selection requires input_frames == scenes_k*(supplements_r+1); "
            f"got {cfg.input_frames} != {cfg.scenes_k}*{s}"
        )
    _, n_patches, dim = features.data.shape
    weights = fusion_weights_for(cfg.merging, weights, (s, n_patches, dim))
    idx = np.asarray(uniform_sample_indices(features.n_frames, cfg.input_frames))
    members, reps = _select(features, idx, cfg)
    out = merge_scenes(features.data, idx[members], cfg.merging,
                       np.empty((len(members), n_patches, dim), dtype=np.float32),
                       weights, cfg.seed)
    out_ts = None
    if features.frame_timestamps is not None:
        out_ts = tuple(features.frame_timestamps[i] for i in idx[reps])
    return FrameFeatures(out, out_ts)


def _proxy(original_reps: np.ndarray, compressed: FrameFeatures) -> float:
    """Mean squared distance from each original frame's representative
    feature to the nearest merged frame's representative feature."""
    return float(nearest_centers(original_reps, representative_features(compressed))[1].mean())


def bench(features: FrameFeatures, configs: list[CompressConfig]) -> list[dict]:
    """Run each config and report token count, wall time, and the
    reconstruction proxy. Configs run sequentially for stable timing."""
    results = []
    reps = representative_features(features)
    for cfg in configs:
        start = time.perf_counter()
        out = compress(features, cfg)
        wall_ms = (time.perf_counter() - start) * 1000.0
        results.append(
            {
                "config": cfg.to_dict(),
                "out_frames": out.n_frames,
                "wall_ms": wall_ms,
                "recon_mse": _proxy(reps, out),
            }
        )
    return results
