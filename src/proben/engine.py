"""Greedy multimodal fusion: cluster overlapping detections, fuse, repeat.

Per image and per argmax class: take the highest-posterior remaining
detection as the cluster seed, gather everything that overlaps it above the
IoU threshold, pick the best detection per modality, fuse scores and boxes,
remove the whole overlap set, repeat. In ``max`` score-fusion mode the seed
is emitted unchanged, which makes the loop degenerate to classic NMS.

A ``DetectionBatch`` holds what this needs that does not depend on scores:
the grouping by image, the box and score columns and every same-image
pairwise IoU. ``fuse_columns`` fuses a batch into columns (image, seed,
modalities, boxes, variances, scores) without building a per-cluster
object; ``fuse_all`` turns them into ``Detection`` objects. A calibration
grid search builds the batch once and calls ``fuse_columns`` per grid point,
so each point pays only for re-ranking, clustering, fusion and matching.

Also hosts the no-suppression pooling baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

# fuse_boxes and iou are not called here; perfbench/tracing.py wraps them
# under these names.
from .box_fusion import (  # noqa: F401
    BOX_FUSION_MODES,
    box_variances,
    fuse_boxes,
    fused_variance,
    member_weights,
    weighted_average,
)
from .detections import ClassPrior, ClassScores, Detection
from .errors import ConfigurationError
from .geometry import BBox, box_array, box_iou, iou  # noqa: F401
from .score_fusion import (
    CalibrationParams,
    LinearFusionWeights,
    calibrate_scores,
    fuse_avg_logits,
    fuse_avg_posteriors,
    fuse_linear,
    fuse_proben,
)

SCORE_FUSION_MODES = ("max", "avg-posteriors", "avg-logits", "proben", "linear")


@dataclass(frozen=True)
class FusionConfig:
    iou_threshold: float = 0.5
    score_fusion: str = "proben"
    box_fusion: str = "avg"
    prior: Optional[ClassPrior] = None  # None means uniform
    calibration: Mapping[str, CalibrationParams] = field(default_factory=dict)
    weights: Optional[LinearFusionWeights] = None

    def __post_init__(self):
        if not (
            isinstance(self.iou_threshold, (int, float))
            and math.isfinite(self.iou_threshold)
            and 0.0 < self.iou_threshold < 1.0
        ):
            raise ConfigurationError(
                f"iou_threshold must lie in (0, 1), got {self.iou_threshold}"
            )
        if self.score_fusion not in SCORE_FUSION_MODES:
            raise ConfigurationError(f"unknown score fusion mode {self.score_fusion!r}")
        if self.box_fusion not in BOX_FUSION_MODES:
            raise ConfigurationError(f"unknown box fusion mode {self.box_fusion!r}")
        if self.score_fusion == "linear" and self.weights is None:
            raise ConfigurationError("linear score fusion requires fusion weights")


class DetectionBatch:
    """Detection sets prepared for fusion.

    Holds the detections grouped by image id (sorted; input order within an
    image) and, in that order, their columns: image index, det_id, modality,
    boxes (N, 4), box variances (NaN for none) and all score rows stacked;
    also the rows of each modality and every same-image pair of overlapping
    boxes (rows i < j) with its IoU. None of it depends on scores, so one
    batch serves every ``fuse_all`` call over the same detections, whatever
    the calibration.
    """

    def __init__(self, detection_sets: Sequence[Sequence[Detection]]):
        by_image: Dict[str, List[Detection]] = {}
        for d in chain.from_iterable(detection_sets):
            by_image.setdefault(d.image_id, []).append(d)
        self.image_ids = sorted(by_image)
        self.detections = [d for image_id in self.image_ids for d in by_image[image_id]]
        widths = {len(d.scores.posteriors) for d in self.detections}
        if len(widths) > 1:
            raise ConfigurationError(f"inconsistent class counts across inputs: {sorted(widths)}")

        sizes = [len(by_image[image_id]) for image_id in self.image_ids]
        self.image_index = np.repeat(np.arange(len(sizes)), sizes)
        self.det_ids = np.array([d.det_id for d in self.detections], dtype=np.int64)
        self.modalities = [d.modality for d in self.detections]
        self.modality_names = sorted(set(self.modalities))
        code = {modality: k for k, modality in enumerate(self.modality_names)}
        self.modality_codes = np.array([code[m] for m in self.modalities], dtype=np.int64)
        self.rows: Dict[str, np.ndarray] = {
            modality: np.flatnonzero(self.modality_codes == code[modality])
            for modality in dict.fromkeys(self.modalities)
        }
        self.boxes = box_array(d.box for d in self.detections)
        self.variances = box_variances(self.detections)
        if widths:
            self.scores = ClassScores.stack([d.scores for d in self.detections])
        else:  # an empty stack of one-class rows
            self.scores = ClassScores(logits=np.zeros((0, 2)), posteriors=np.zeros((0, 2)))

        # every same-image pair i < j: row i pairs with the `later` rows after
        # it up to the end of its image
        rows = np.arange(len(self.detections))
        later = np.repeat(np.cumsum(sizes, dtype=np.int64), sizes) - rows - 1
        first = np.repeat(rows, later)
        second = np.arange(later.sum()) - np.repeat(np.cumsum(later) - later - rows - 1, later)
        value = box_iou(self.boxes[first], self.boxes[second])
        keep = value > 0.0
        self.pairs = (first[keep], second[keep], value[keep])


@dataclass(frozen=True)
class FusedColumns:
    """Fused detections as columns, one row per cluster: grouped by image in
    batch order, each image's rows sorted as ``Detection.sort_key`` sorts."""

    image: np.ndarray  # index into the batch's image_ids
    seed: np.ndarray  # batch row of the cluster's seed
    det_id: np.ndarray  # the seed's det_id
    modality: np.ndarray  # "+"-joined sorted modalities of the members
    boxes: np.ndarray  # (C, 4)
    variances: np.ndarray  # fused box variance, NaN where a member has none
    scores: ClassScores  # (C, K+1) stack


def pool(detection_sets: Sequence[Sequence[Detection]]) -> List[Detection]:
    """Naive pooling baseline: concatenate and re-sort, no suppression."""
    return sorted(chain.from_iterable(detection_sets), key=lambda d: d.sort_key)


def _calibrated(batch: DetectionBatch, calibration: Mapping[str, CalibrationParams]):
    """All score rows after per-modality calibration, one call per modality."""
    scores = batch.scores
    changed: Dict[str, ClassScores] = {}
    for modality, params in calibration.items():
        rows = batch.rows.get(modality)
        if rows is None:
            continue
        raw = ClassScores(logits=scores.logits[rows], posteriors=scores.posteriors[rows])
        calibrated = calibrate_scores(raw, params)
        if calibrated is not raw:
            changed[modality] = calibrated
    if not changed:
        return scores
    logits, posteriors = scores.logits.copy(), scores.posteriors.copy()
    for modality, calibrated in changed.items():
        logits[batch.rows[modality]] = calibrated.logits
        posteriors[batch.rows[modality]] = calibrated.posteriors
    logits.flags.writeable = posteriors.flags.writeable = False
    return ClassScores(logits=logits, posteriors=posteriors)


def _select_per_modality(members: Sequence[int], modalities: Sequence[str]) -> List[int]:
    """The best member of each modality, best first; members come ranked."""
    best: Dict[str, int] = {}
    for i in members:
        best.setdefault(modalities[i], i)
    return list(best.values())


def _clusters(batch: DetectionBatch, scores: ClassScores, config: FusionConfig) -> List[List[int]]:
    """Greedy clustering: the ranked members of each cluster (in max mode just
    the seed), in emission order: image by image, seeds best first."""
    # Rank by the sort key (-score, class, det_id) within each image; ties
    # keep input order.
    classes = scores.argmax_foreground()
    order = np.lexsort((batch.det_ids, classes, -scores.score, batch.image_index))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    # Each row's same-class partners above the threshold, ranked: row i's
    # are partners[start[i]:start[i + 1]].
    first, second, value = batch.pairs
    hit = (value > config.iou_threshold) & (classes[first] == classes[second])
    rows = np.concatenate((first[hit], second[hit]))
    partners = np.concatenate((second[hit], first[hit]))
    ranked = np.lexsort((rank[partners], rows))
    start = np.searchsorted(rows[ranked], np.arange(len(order) + 1)).tolist()
    partners = partners[ranked].tolist()

    alive = [True] * len(order)
    clusters: List[List[int]] = []
    for seed in order.tolist():
        if not alive[seed]:
            continue
        overlap = [seed] + [j for j in partners[start[seed] : start[seed + 1]] if alive[j]]
        for j in overlap:
            alive[j] = False
        if config.score_fusion == "max":
            clusters.append([seed])
        else:
            clusters.append(_select_per_modality(overlap, batch.modalities))
    return clusters


def _fuse_scores(members: np.ndarray, scores: ClassScores, batch, config, prior) -> ClassScores:
    """Fuse the scores of same-size clusters in one score-rule call: members
    holds one cluster per row, and its column j is the j-th stacked input;
    one row out per cluster."""
    stacked = [
        ClassScores(logits=scores.logits[rows], posteriors=scores.posteriors[rows])
        for rows in members.T
    ]
    if config.score_fusion == "avg-posteriors":
        return fuse_avg_posteriors(stacked)
    if config.score_fusion == "avg-logits":
        return fuse_avg_logits(stacked)
    if config.score_fusion == "proben":
        return fuse_proben(stacked, prior, len(stacked))
    if config.score_fusion == "linear":
        modalities = [batch.modalities[i] for i in members[0]]
        return fuse_linear(dict(zip(modalities, stacked)), config.weights)
    raise ConfigurationError(config.score_fusion)  # pragma: no cover - guarded by FusionConfig


def fuse_columns(batch: DetectionBatch, config: FusionConfig) -> FusedColumns:
    """Fuse every image of a batch; the fused detections come out as columns.

    Calibration is applied per modality before clustering. Clusters of one
    size are fused together: one score-rule call per size (per modality
    order for linear fusion, whose sum runs in that order), and one
    weighted average of boxes and of inverse variances per size.
    """
    scores = _calibrated(batch, config.calibration)
    clusters = _clusters(batch, scores, config)
    sizes = np.array([len(members) for members in clusters], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(clusters), dtype=np.int64, count=int(sizes.sum()))
    offsets = np.cumsum(sizes) - sizes  # cluster c's members are flat[offsets[c]:][:sizes[c]]
    seed = flat[offsets]

    if config.score_fusion == "max":  # the seeds themselves
        fused = ClassScores(logits=scores.logits[seed], posteriors=scores.posteriors[seed])
        modality = np.array(batch.modalities, dtype=object)[seed]
        return _sorted_columns(
            batch, seed, modality, batch.boxes[seed], batch.variances[seed], fused
        )

    # clusters with the same members layout; keys in order of first appearance
    groups: Dict[object, List[int]] = {}
    for c, members in enumerate(clusters):
        if config.score_fusion == "linear":
            key = tuple(batch.modalities[i] for i in members)
        else:
            key = len(members)
        groups.setdefault(key, []).append(c)
    layouts = []
    for numbers in groups.values():
        numbers = np.array(numbers, dtype=np.int64)
        positions = offsets[numbers][:, None] + np.arange(sizes[numbers[0]])
        layouts.append((numbers, positions, flat[positions]))

    prior = config.prior
    if prior is None:
        prior = ClassPrior.uniform(scores.num_foreground)
    logits = np.empty((len(clusters), scores.logits.shape[1]))
    posteriors = np.empty_like(logits)
    for numbers, _, members in layouts:
        group = _fuse_scores(members, scores, batch, config, prior)
        logits[numbers], posteriors[numbers] = group.logits, group.posteriors
    fused = ClassScores(logits=logits, posteriors=posteriors)

    boxes = np.empty((len(clusters), 4))
    variances = np.empty(len(clusters))
    modality = np.empty(len(clusters), dtype=object)
    weights = None
    if config.box_fusion != "argmax":
        # flat member order is emission order, so errors name the first member
        fused_class = np.repeat(fused.argmax_foreground(), sizes)
        weights = member_weights(
            config.box_fusion,
            scores.posteriors[flat, fused_class],
            batch.variances[flat],
            batch.det_ids[flat],
        )
    for numbers, positions, members in layouts:
        if weights is None:
            boxes[numbers] = batch.boxes[members[:, 0]]
        else:
            boxes[numbers] = weighted_average(batch.boxes[members], weights[positions])
        variances[numbers] = fused_variance(batch.variances[members])
        names, which = np.unique(
            np.sort(batch.modality_codes[members], axis=1), axis=0, return_inverse=True
        )
        joined = ["+".join(batch.modality_names[k] for k in row) for row in names.tolist()]
        modality[numbers] = np.array(joined, dtype=object)[which.reshape(-1)]
    return _sorted_columns(batch, seed, modality, boxes, variances, fused)


def _sorted_columns(batch, seed, modality, boxes, variances, scores) -> FusedColumns:
    """The columns of clusters in emission order, each image's rows sorted by
    the sort key; ties keep emission order."""
    image, det_id = batch.image_index[seed], batch.det_ids[seed]
    order = np.lexsort((det_id, scores.argmax_foreground(), -scores.score, image))
    return FusedColumns(
        image=image[order],
        seed=seed[order],
        det_id=det_id[order],
        modality=modality[order],
        boxes=boxes[order],
        variances=variances[order],
        scores=ClassScores(logits=scores.logits[order], posteriors=scores.posteriors[order]),
    )


def fuse_all(
    detections: Union[DetectionBatch, Sequence[Sequence[Detection]]],
    config: FusionConfig,
) -> List[Detection]:
    """Fuse every image of a batch (detection sets are batched first).

    Calibration is applied per modality before clustering. Output is grouped
    by image id in sorted order, each image's detections sorted by fused
    posterior descending. In max mode the output holds the seeds themselves,
    with their calibrated scores.
    """
    batch = detections if isinstance(detections, DetectionBatch) else DetectionBatch(detections)
    fused = fuse_columns(batch, config)
    out: List[Detection] = []
    for c, (image, seed, det_id, modality, box, variance) in enumerate(
        zip(
            fused.image.tolist(),
            fused.seed.tolist(),
            fused.det_id.tolist(),
            fused.modality,
            fused.boxes.tolist(),
            fused.variances.tolist(),
        )
    ):
        if config.score_fusion == "max":
            d = batch.detections[seed]
            if d.modality in config.calibration:
                d = d.with_scores(fused.scores.row(c))
            out.append(d)
            continue
        out.append(
            Detection(
                image_id=batch.image_ids[image],
                modality=modality,
                box=BBox(*box),
                scores=fused.scores.row(c),
                box_variance=None if math.isnan(variance) else variance,
                det_id=det_id,
            )
        )
    return out


def fuse(
    detection_sets: Sequence[Sequence[Detection]],
    config: FusionConfig,
) -> List[Detection]:
    """Fuse the detections of a single image (see ``fuse_all``)."""
    image_ids = {d.image_id for d in chain.from_iterable(detection_sets)}
    if len(image_ids) > 1:
        raise ConfigurationError(
            f"fuse operates on one image at a time, got image ids {sorted(image_ids)}"
        )
    return fuse_all(detection_sets, config)
