"""Bounding-box fusion for overlap clusters.

The fused box is an inverse-variance weighted average of member boxes; the
modes differ only in where the variance comes from:

  argmax  keep the box of the highest-scoring member (classic NMS behavior)
  avg     all variances fixed to 1 (plain coordinate average)
  s-avg   variance approximated by 1/posterior of the fused argmax class
  v-avg   variance reported by the detector alongside each box

The engine fuses many clusters at once: ``member_weights`` gives every
member its weight, and ``weighted_average`` and ``fused_variance`` reduce the
clusters of one size in a few array operations. ``fuse_boxes`` applies them
to a single cluster of detections.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .detections import ClassScores, Detection, DetectionColumns
from .errors import (
    ConfigurationError,
    DegenerateWeightsError,
    EmptyClusterError,
    MissingVarianceError,
)
from .geometry import BBox, first_invalid_box

# convex_combination is not called here; perfbench/tracing.py wraps it
# under this name.
from .geometry import convex_combination  # noqa: F401

BOX_FUSION_MODES = ("argmax", "avg", "s-avg", "v-avg")


def member_weights(mode: str, class_posteriors, variances, det_ids) -> np.ndarray:
    """The weight of each member in its cluster's average, for a weighted mode.

    class_posteriors holds each member's posterior of its cluster's fused
    class and variances its box variance (NaN for none), for members in
    any layout; v-avg names the first member without a variance.
    """
    if mode == "avg":
        return np.ones(np.shape(variances))
    if mode == "s-avg":
        return np.asarray(class_posteriors, dtype=float)
    if mode == "v-avg":
        variances = np.asarray(variances, dtype=float)
        missing = np.isnan(variances)
        if missing.any():
            det_id = np.asarray(det_ids)[missing][0]
            raise MissingVarianceError(
                f"detection {det_id} carries no box_variance (v-avg box fusion)"
            )
        return 1.0 / variances
    raise ConfigurationError(f"unknown box fusion mode {mode!r}")


def _fsum(values: list) -> float:
    """``math.fsum``, or an infinity where a partial sum leaves the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.copysign(math.inf, sum(values))


def weighted_average(boxes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``convex_combination`` of each of n clusters of m members, bit for bit.

    boxes (n, m, 4) and weights (n, m); returns the (n, 4) fused boxes. The
    sums of one or two terms are plain float additions, which round exactly
    as ``math.fsum`` does (the leading 0.0 turns a -0.0 sum into 0.0, as
    fsum does). Numpy has no correctly rounded sum of more terms, so for
    larger clusters ``math.fsum`` adds up each row of weights and of
    weighted coordinates, turned to a list. A sum beyond the float range is
    infinite, so the box's check raises ``BBox``'s error.
    """
    n, m = weights.shape
    if np.any(weights < 0):
        raise DegenerateWeightsError("weights must be nonnegative")
    peak = weights.max(axis=1)
    if np.any(peak <= 0):
        raise DegenerateWeightsError("weights sum to zero")
    weights = weights / peak[:, None]
    terms = boxes * weights[:, :, None]
    if m > 2:
        # five sums a cluster: its weights, then its terms of x, y, w and h
        rows = np.concatenate((weights[:, None, :], terms.transpose(0, 2, 1)), axis=1)
        sums = np.array(list(map(_fsum, rows.reshape(-1, m).tolist()))).reshape(n, 5)
        total, coords = sums[:, 0], sums[:, 1:]
    else:
        with np.errstate(over="ignore"):  # a sum beyond the float range fails below
            total, coords = 0.0 + weights[:, 0], 0.0 + terms[:, 0]
            if m == 2:
                total, coords = total + weights[:, 1], coords + terms[:, 1]
    fused = coords / total[:, None]
    bad = first_invalid_box(fused)
    if bad >= 0:
        BBox(*fused[bad].tolist())  # raises BBox's error for the first bad box
    return fused


def fused_variance(variances: np.ndarray) -> np.ndarray:
    """Posterior variance of each fused box, 1 / sum of inverse variances,
    for (n, m) member variances; NaN where a member reports none.

    The sum runs left to right, as Python's ``sum`` does. A sum that
    overflows gives a variance of 0, which ``check_box_variance`` rejects.
    """
    inverse = 1.0 / variances
    total = inverse[:, 0]
    with np.errstate(over="ignore"):
        for j in range(1, variances.shape[1]):
            total = total + inverse[:, j]
    return 1.0 / total


def fuse_boxes(
    members: Sequence[Detection],
    fused_scores: ClassScores,
    mode: str,
) -> BBox:
    if len(members) == 0:
        raise EmptyClusterError("box fusion requires a nonempty cluster")
    if mode == "argmax":
        return min(members, key=lambda d: d.sort_key).box
    k = fused_scores.argmax_foreground() if mode == "s-avg" else 0
    columns = DetectionColumns.of(members)
    weights = member_weights(
        mode, columns.scores.posteriors[:, k], columns.variances, columns.det_id
    )
    return BBox(*weighted_average(columns.boxes[None], weights[None, :])[0].tolist())

