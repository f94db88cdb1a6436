"""framefuse: scene-based token compression for video frame features.

Select important scenes from a frame-feature tensor, merge each scene's
frames into one feature map, and synthesize long-video caption records
from short-clip annotations.
"""

from .errors import FormatError, FrameFuseError, ParameterError
from .features import (
    FrameFeatures,
    SyntheticSpec,
    generate_synthetic,
    load_features,
    planted_block_labels,
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
from .merge import (
    attention_pool,
    attention_weights,
    attn_projections,
    bsm_merge,
    fit_fusion_weights,
    fusion,
    fusion_gradient,
    fusion_init,
    merge_scene,
    temporal_average,
)
from .pipeline import (
    CompressConfig,
    bench,
    compress,
    reconstruction_proxy,
)
from .captions import (
    ClipRecord,
    LongVideoRecord,
    Segment,
    dataset_stats,
    load_clip_manifest,
    pack_clips,
)

__version__ = "0.1.0"

__all__ = [
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
