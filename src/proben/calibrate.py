"""Exhaustive temperature/shift grid search against a detection metric."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .detections import GroundTruthColumns
from .engine import DetectionBatch, FusedColumns, FusionConfig, fuse_columns
from .errors import ConfigurationError
from .metrics import TruthColumns, average_precision, lamr, match_columns
from .score_fusion import CalibrationParams

# fuse_all and match_all are not called here; perfbench/tracing.py wraps
# them under these names.
from .engine import fuse_all  # noqa: F401
from .metrics import match_all  # noqa: F401


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"grid needs at least one step, got {self.steps}")
        if self.steps > 1 and self.stop < self.start:
            raise ConfigurationError("grid stop must be >= start")

    def values(self) -> List[float]:
        if self.steps == 1:
            return [self.start]
        return list(np.linspace(self.start, self.stop, self.steps))


def _objective_value(
    fused: FusedColumns,
    image: np.ndarray,
    truth: TruthColumns,
    num_classes: int,
    objective: str,
    iou_threshold: float,
) -> float:
    """The objective of fused columns; image maps the batch's image index
    to the index in truth.image_ids."""
    scores = fused.scores
    result = match_columns(
        truth,
        image[fused.image],
        fused.boxes,
        scores.score,
        scores.argmax_foreground(),
        fused.det_id,
        iou_threshold,
    )
    if objective == "lamr":
        return lamr(result, len(truth.image_ids))
    if objective == "ap":
        values = [average_precision(result, c) for c in range(1, num_classes + 1)]
        defined = [v for v in values if v is not None]
        if not defined:
            raise ConfigurationError("AP objective undefined: no ground truth of any class")
        return float(np.mean(defined))
    raise ConfigurationError(f"unknown objective {objective!r}")


def grid_search(
    detection_sets: Sequence,
    gts,
    modality: str,
    t_grid: GridSpec,
    b_grid: GridSpec,
    objective: str = "lamr",
    config: FusionConfig = FusionConfig(),
    num_classes: int = 1,
    image_ids: Sequence[str] = (),
) -> Tuple[CalibrationParams, List[Tuple[float, float, float]]]:
    """Evaluate fuse+eval at every (T, b) grid point; return the optimum.

    Each detection set and gts are columns or object sequences. The
    detections are batched and the ground truths grouped by image once;
    every grid point re-fuses that batch and matches the fused columns.
    LAMR is minimized, AP maximized. Ties break toward the point closest to
    (1, 0), then lexicographically by (T, b).
    """
    if any(t <= 0 for t in t_grid.values()):
        raise ConfigurationError("temperature grid must be strictly positive")
    batch = DetectionBatch(detection_sets)
    if modality not in batch.rows:
        held = batch.modality_names
        raise ConfigurationError(f"no input holds modality {modality!r}, only {held}")
    gts = GroundTruthColumns.of(gts)
    if not image_ids:
        image_ids = sorted(set(gts.image_id) | set(batch.image_ids))
    truth = TruthColumns(gts, image_ids)
    image = truth.positions(batch.image_ids)
    surface: List[Tuple[float, float, float]] = []
    for t in t_grid.values():
        for b in b_grid.values():
            calibration: Dict[str, CalibrationParams] = dict(config.calibration)
            calibration[modality] = CalibrationParams(temperature=t, shift=b)
            trial = replace(config, calibration=calibration)
            value = _objective_value(
                fuse_columns(batch, trial),
                image,
                truth,
                num_classes,
                objective,
                config.iou_threshold,
            )
            surface.append((float(t), float(b), value))

    sign = 1.0 if objective == "lamr" else -1.0
    best = min(
        surface,
        key=lambda p: (sign * p[2], (p[0] - 1.0) ** 2 + p[1] ** 2, p[0], p[1]),
    )
    return CalibrationParams(temperature=best[0], shift=best[1]), surface
