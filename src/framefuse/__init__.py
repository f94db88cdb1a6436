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
    uniform_sample_indices,
)
from .select import (
    Clustering,
    Scene,
    SceneSet,
    cosine_similarity,
    kmeans,
    representative_features,
    representative_indices,
    select_scenes_bsm,
    select_scenes_kmeans,
    select_supplements,
)
from .merge import (
    AttnProjections,
    SizedTokens,
    attention_pool,
    attention_weights,
    attn_projections,
    bsm_merge,
    fit_fusion_weights,
    fusion,
    fusion_gradient,
    fusion_init,
    fusion_loss,
    merge_scene,
    temporal_average,
)
from .pipeline import (
    CompressConfig,
    bench,
    compress,
    group_uniform_scenes,
    reconstruction_proxy,
)
from .captions import (
    ClipRecord,
    LongVideoRecord,
    Segment,
    build_record,
    dataset_stats,
    load_clip_manifest,
    pack_clips,
    render_frame_instruction,
    sample_timestamps,
)

__version__ = "0.1.0"

__all__ = [
    "AttnProjections",
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
    "SizedTokens",
    "SyntheticSpec",
    "attention_pool",
    "attention_weights",
    "attn_projections",
    "bench",
    "bsm_merge",
    "build_record",
    "compress",
    "cosine_similarity",
    "dataset_stats",
    "fit_fusion_weights",
    "fusion",
    "fusion_gradient",
    "fusion_init",
    "fusion_loss",
    "generate_synthetic",
    "group_uniform_scenes",
    "kmeans",
    "load_clip_manifest",
    "load_features",
    "merge_scene",
    "pack_clips",
    "planted_block_labels",
    "reconstruction_proxy",
    "render_frame_instruction",
    "representative_features",
    "representative_indices",
    "sample_timestamps",
    "save_features",
    "select_scenes_bsm",
    "select_scenes_kmeans",
    "select_supplements",
    "temporal_average",
    "uniform_sample_indices",
]
