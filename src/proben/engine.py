"""Greedy multimodal fusion: cluster overlapping detections, fuse, repeat.

Per image and per argmax class: take the highest-posterior remaining
detection as the cluster seed, gather everything that overlaps it above the
IoU threshold, pick the best detection per modality, fuse scores and boxes,
remove the whole overlap set, repeat. In ``max`` score-fusion mode the seed
is emitted unchanged, which makes the loop degenerate to classic NMS.

A ``DetectionBatch`` holds what this needs that does not depend on scores:
the grouping by image, the stacked score rows and every same-image pairwise
IoU. A calibration grid search builds it once and calls ``fuse_all`` per
grid point, so each point pays only for re-ranking, clustering, fusion and
matching.

Also hosts the no-suppression pooling baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .box_fusion import BOX_FUSION_MODES, fuse_boxes, fused_box_variance
from .detections import ClassPrior, ClassScores, Detection
from .errors import ConfigurationError
from .geometry import iou
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
    image), all score rows stacked in that order, the rows of each modality,
    and for each detection the same-image detections its box overlaps with
    their IoU. None of it depends on scores, so one batch serves every
    ``fuse_all`` call over the same detections, whatever the calibration.
    """

    def __init__(self, detection_sets: Sequence[Sequence[Detection]]):
        by_image: Dict[str, List[Detection]] = {}
        for d in chain.from_iterable(detection_sets):
            by_image.setdefault(d.image_id, []).append(d)
        image_ids = sorted(by_image)
        self.detections = [d for image_id in image_ids for d in by_image[image_id]]
        widths = {len(d.scores.posteriors) for d in self.detections}
        if len(widths) > 1:
            raise ConfigurationError(f"inconsistent class counts across inputs: {sorted(widths)}")

        # detections of image k are self.detections[bounds[k]:bounds[k + 1]]
        self.bounds = [0]
        for image_id in image_ids:
            self.bounds.append(self.bounds[-1] + len(by_image[image_id]))
        self.image_index = np.repeat(np.arange(len(image_ids)), np.diff(self.bounds))
        self.det_ids = np.array([d.det_id for d in self.detections], dtype=np.int64)
        self.modalities = [d.modality for d in self.detections]
        self.rows: Dict[str, np.ndarray] = {}
        for modality in dict.fromkeys(self.modalities):
            self.rows[modality] = np.flatnonzero(np.array(self.modalities) == modality)
        self.scores = ClassScores.stack([d.scores for d in self.detections]) if widths else None

        self.overlaps: List[List[Tuple[int, float]]] = [[] for _ in self.detections]
        for start, end in zip(self.bounds, self.bounds[1:]):
            for i in range(start, end):
                box = self.detections[i].box
                for j in range(i + 1, end):
                    value = iou(box, self.detections[j].box)
                    if value > 0.0:
                        self.overlaps[i].append((j, value))
                        self.overlaps[j].append((i, value))


def pool(detection_sets: Sequence[Sequence[Detection]]) -> List[Detection]:
    """Naive pooling baseline: concatenate and re-sort, no suppression."""
    return sorted(chain.from_iterable(detection_sets), key=lambda d: d.sort_key)


def _calibrated(batch: DetectionBatch, calibration: Mapping[str, CalibrationParams]):
    """All score rows after per-modality calibration, one call per modality;
    also returns the modalities whose rows changed."""
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
        return scores, changed
    logits, posteriors = scores.logits.copy(), scores.posteriors.copy()
    for modality, calibrated in changed.items():
        logits[batch.rows[modality]] = calibrated.logits
        posteriors[batch.rows[modality]] = calibrated.posteriors
    logits.flags.writeable = posteriors.flags.writeable = False
    return ClassScores(logits=logits, posteriors=posteriors), changed


def _select_per_modality(members: Sequence[int], modalities: Sequence[str]) -> List[int]:
    """The best member of each modality, best first; members come ranked."""
    best: Dict[str, int] = {}
    for i in members:
        best.setdefault(modalities[i], i)
    return list(best.values())


def _fuse_group(clusters: List[List[int]], scores: ClassScores, batch, config, prior) -> ClassScores:
    """Fuse the scores of same-size clusters in one score-rule call: member j
    of every cluster is a row of the j-th stacked input; one row out per cluster."""
    members = [
        ClassScores(logits=scores.logits[rows], posteriors=scores.posteriors[rows])
        for rows in np.array(clusters).T
    ]
    if config.score_fusion == "avg-posteriors":
        return fuse_avg_posteriors(members)
    if config.score_fusion == "avg-logits":
        return fuse_avg_logits(members)
    if config.score_fusion == "proben":
        return fuse_proben(members, prior, len(members))
    if config.score_fusion == "linear":
        modalities = [batch.modalities[i] for i in clusters[0]]
        return fuse_linear(dict(zip(modalities, members)), config.weights)
    raise ConfigurationError(config.score_fusion)  # pragma: no cover - guarded by FusionConfig


def fuse_all(
    detections: Union[DetectionBatch, Sequence[Sequence[Detection]]],
    config: FusionConfig,
) -> List[Detection]:
    """Fuse every image of a batch (detection sets are batched first).

    Calibration is applied per modality before clustering. Output is grouped
    by image id in sorted order, each image's detections sorted by fused
    posterior descending.
    """
    batch = detections if isinstance(detections, DetectionBatch) else DetectionBatch(detections)
    if not batch.detections:
        return []
    scores, changed = _calibrated(batch, config.calibration)
    prior = config.prior
    if prior is None:
        prior = ClassPrior.uniform(scores.num_foreground)

    def detection(i):
        d = batch.detections[i]
        if d.modality in changed:
            d = d.with_scores(scores.row(i))
        return d

    # Rank by the sort key (-score, class, det_id) within each image; ties
    # keep input order.
    classes = scores.argmax_foreground()
    order = np.lexsort((batch.det_ids, classes, -scores.score, batch.image_index))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    order, rank, classes = order.tolist(), rank.tolist(), classes.tolist()

    # Greedy clustering: the ranked members of each cluster (in max mode just
    # the seed), image by image; image k's clusters end at image_ends[k].
    threshold = config.iou_threshold
    alive = [True] * len(order)
    clusters: List[List[int]] = []
    image_ends: List[int] = []
    for start, end in zip(batch.bounds, batch.bounds[1:]):
        for seed in order[start:end]:
            if not alive[seed]:
                continue
            cls = classes[seed]
            overlap = [seed] + sorted(
                (
                    j
                    for j, value in batch.overlaps[seed]
                    if value > threshold and alive[j] and classes[j] == cls
                ),
                key=rank.__getitem__,
            )
            for j in overlap:
                alive[j] = False
            if config.score_fusion == "max":
                clusters.append([seed])
            else:
                clusters.append(_select_per_modality(overlap, batch.modalities))
        image_ends.append(len(clusters))

    fused_scores: List[Optional[ClassScores]] = [None] * len(clusters)
    if config.score_fusion != "max":
        # One score-rule call per cluster size (per modality order for linear
        # fusion, whose sum runs in that order).
        groups: Dict[object, List[int]] = {}
        for c, members in enumerate(clusters):
            if config.score_fusion == "linear":
                key = tuple(batch.modalities[i] for i in members)
            else:
                key = len(members)
            groups.setdefault(key, []).append(c)
        for numbers in groups.values():
            fused = _fuse_group([clusters[c] for c in numbers], scores, batch, config, prior)
            for g, c in enumerate(numbers):
                fused_scores[c] = fused.row(g)

    out: List[Detection] = []
    for first, last in zip([0] + image_ends, image_ends):
        emitted = []
        for cluster, fused in zip(clusters[first:last], fused_scores[first:last]):
            members = [detection(i) for i in cluster]
            if fused is None:  # max: the seed itself
                emitted.append(members[0])
                continue
            emitted.append(
                Detection(
                    image_id=members[0].image_id,
                    modality="+".join(sorted({d.modality for d in members})),
                    box=fuse_boxes(members, fused, config.box_fusion),
                    scores=fused,
                    box_variance=fused_box_variance(members),
                    det_id=members[0].det_id,
                )
            )
        out.extend(sorted(emitted, key=lambda d: d.sort_key))
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
