"""Axis-aligned box arithmetic used by fusion clustering and metric matching."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateWeightsError


@dataclass(frozen=True)
class BBox:
    """Box in pixel coordinates: top-left corner plus width and height.

    Coordinates are real-valued (sub-pixel allowed) and never clipped to
    image bounds. Zero or negative extents, and far edges (x + w, y + h)
    beyond the float range, are rejected at construction.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"BBox.{name} must be a finite number, got {value!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"BBox extents must be positive, got w={self.w}, h={self.h}")
        if not (math.isfinite(self.x + self.w) and math.isfinite(self.y + self.h)):
            raise ValueError(f"BBox far edges must be finite, got x2={self.x2}, y2={self.y2}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_list(self) -> list:
        return [self.x, self.y, self.w, self.h]


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1].

    Boxes touching only along an edge (zero intersection area) score 0.
    """
    if a == b:
        return 1.0
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    # rounding in x2/y2 can push the ratio a hair outside [0, 1]
    return min(max(inter / (a.area + b.area - inter), 0.0), 1.0)


def box_array(boxes: Iterable[BBox]) -> np.ndarray:
    """Boxes as the rows (x, y, w, h) of an (N, 4) array."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def first_invalid_box(boxes: np.ndarray, also=False) -> int:
    """The first row of (N, 4) boxes that ``BBox`` rejects (a coordinate or a
    far edge that is not finite, or a width or height that is not positive)
    or that also marks; -1 if there is none."""
    x, y, w, h = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):
        x2, y2 = x + w, y + h  # not finite where an entry is not, too
    bad = ~(np.isfinite(x2) & np.isfinite(y2) & (w > 0) & (h > 0)) | also
    return int(np.argmax(bad)) if bad.any() else -1


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` over arrays of boxes, equal to it bit for bit.

    a and b hold boxes as rows (x, y, w, h) along their last axis and
    broadcast against each other: (N, 4) with (N, 4) gives N pairwise values,
    (N, 1, 4) with (M, 4) an (N, M) matrix.
    """
    ax, ay, aw, ah = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bx, by, bw, bh = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # as Python floats
        iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = iw * ih
        value = np.clip(inter / (aw * ah + bw * bh - inter), 0.0, 1.0)
    value = np.where((iw <= 0) | (ih <= 0), 0.0, value)
    return np.where((ax == bx) & (ay == by) & (aw == bw) & (ah == bh), 1.0, value)


def convex_combination(boxes: Sequence[BBox], weights: Sequence[float]) -> BBox:
    """Per-coordinate weighted average of boxes, weights normalized to sum 1."""
    if len(boxes) == 0:
        raise DegenerateWeightsError("convex_combination requires at least one box")
    if len(boxes) != len(weights):
        raise DegenerateWeightsError(
            f"got {len(boxes)} boxes but {len(weights)} weights"
        )
    if any(w < 0 for w in weights):
        raise DegenerateWeightsError("weights must be nonnegative")
    peak = max(weights)
    if peak <= 0:
        raise DegenerateWeightsError("weights sum to zero")
    # scale-invariant normalization: equal weights collapse to exactly 1.0
    weights = [w / peak for w in weights]
    total = math.fsum(weights)
    x = math.fsum(b.x * w for b, w in zip(boxes, weights)) / total
    y = math.fsum(b.y * w for b, w in zip(boxes, weights)) / total
    w_ = math.fsum(b.w * w for b, w in zip(boxes, weights)) / total
    h = math.fsum(b.h * w for b, w in zip(boxes, weights)) / total
    return BBox(x, y, w_, h)
