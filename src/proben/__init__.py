"""Very-late fusion of multimodal object detections, with evaluation tooling."""

from .box_fusion import fuse_boxes
from .detections import (
    ClassPrior,
    ClassScores,
    Detection,
    GroundTruth,
    estimate_class_prior,
)
from .engine import DetectionBatch, FusionConfig, fuse, fuse_all, pool
from .errors import (
    ConfigurationError,
    DegenerateWeightsError,
    EmptyClusterError,
    FusionError,
    InvalidScoreError,
    MissingVarianceError,
    ParseError,
)
from .geometry import BBox, convex_combination, iou
from .metrics import (
    EvalReport,
    MatchResult,
    average_precision,
    breakdown,
    lamr,
    match,
    match_all,
)
from .score_fusion import (
    CalibrationParams,
    calibrate_scores,
    fuse_avg_logits,
    fuse_avg_posteriors,
    fuse_max,
    fuse_proben,
)
from .synth import ModalityProfile, ScenarioSpec, SyntheticDataset, generate, kaist_like_spec

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CalibrationParams",
    "ClassPrior",
    "ClassScores",
    "ConfigurationError",
    "DegenerateWeightsError",
    "Detection",
    "DetectionBatch",
    "EmptyClusterError",
    "EvalReport",
    "FusionConfig",
    "FusionError",
    "GroundTruth",
    "InvalidScoreError",
    "MatchResult",
    "MissingVarianceError",
    "ModalityProfile",
    "ParseError",
    "ScenarioSpec",
    "SyntheticDataset",
    "average_precision",
    "breakdown",
    "calibrate_scores",
    "convex_combination",
    "estimate_class_prior",
    "fuse",
    "fuse_all",
    "fuse_avg_logits",
    "fuse_avg_posteriors",
    "fuse_boxes",
    "fuse_max",
    "fuse_proben",
    "generate",
    "iou",
    "kaist_like_spec",
    "lamr",
    "match",
    "match_all",
    "pool",
]
