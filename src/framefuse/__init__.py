"""framefuse: scene-based token compression for video frame features.

Select important scenes from a frame-feature tensor, merge each scene's
frames into one feature map, and synthesize long-video caption records
from short-clip annotations.
"""

from .errors import FormatError, FrameFuseError, ParameterError
from .features import (
    FrameFeatures,
    generate_synthetic,
    load_features,
    save_features,
)
from .select import (
    Clustering,
    Scene,
    SceneSet,
    kmeans,
    representative_features,
    select_scenes_bsm,
    select_scenes_kmeans,
)
from .merge import attn_projections, fit_fusion_weights, merge_scene
from .pipeline import CompressConfig, bench, compress
from .captions import dataset_stats, load_clip_manifest, pack_clips

__version__ = "0.1.0"

__all__ = [
    "Clustering",
    "CompressConfig",
    "FormatError",
    "FrameFeatures",
    "FrameFuseError",
    "ParameterError",
    "Scene",
    "SceneSet",
    "attn_projections",
    "bench",
    "compress",
    "dataset_stats",
    "fit_fusion_weights",
    "generate_synthetic",
    "kmeans",
    "load_clip_manifest",
    "load_features",
    "merge_scene",
    "pack_clips",
    "representative_features",
    "save_features",
    "select_scenes_bsm",
    "select_scenes_kmeans",
]
