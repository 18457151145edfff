"""Temporally coherent track selection and evaluation for grounded video objects."""

from .geometry import (
    AffineTransform,
    Box,
    Mask,
    box_from_mask,
    box_iou,
    boundary_pixels,
    mask_bbox,
    mask_iou,
    pbm_dumps,
    pbm_loads,
    rasterize_box,
    rle_dumps,
    rle_loads,
    warp_mask,
)
from .metrics import (
    EvalReport,
    QueryAttributes,
    attribute_breakdown,
    auc_success,
    boundary_f,
    evaluate_masks,
    series_stats,
    temporal_stability_proxy,
    track_miou,
)
from .rerank import (
    Proposal,
    ScoredProposal,
    ScoredVideo,
    VideoProposals,
    oracle_assign,
    raw_select,
    rerank_scores,
    select_track,
)
from .rng import SplitRng
from .simulate import (
    CorruptionSpec,
    SceneSpec,
    flow_magnitude_image,
    generate_proposals,
    generate_scene,
    guidance_channels,
    jitter_box,
    synth_flow,
)

__version__ = "0.1.0"
