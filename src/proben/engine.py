"""Greedy multimodal fusion: cluster overlapping detections, fuse, repeat.

Per image and per argmax class: take the highest-posterior remaining
detection as the cluster seed, gather everything that overlaps it above the
IoU threshold, pick the best detection per modality, fuse scores and boxes,
remove the whole overlap set, repeat. In ``max`` score-fusion mode the seed
is emitted unchanged, which makes the loop degenerate to classic NMS.

The loop is not run one seed at a time. Rank the rows by the sort key and
orient every same-class pair above the threshold from its higher- to its
lower-ranked row: a row is a seed iff none of its higher-ranked partners is
a seed, and any other row joins its highest-ranked seed partner.
``_clusters`` decides this for every image at once in rounds, as many as
the depth of that oriented overlap graph: 3-5 on kaist-like scenes, but n
for a chain of n boxes that each overlap only the next. Clusters come out
as two columns, cluster number and member row.

A ``DetectionBatch`` holds what this needs that does not depend on scores:
the grouping by image, the box and score columns and every same-image
pairwise IoU. ``fuse_columns``, the fusion core, fuses a batch into columns
(image, seed det_id, boxes, scores, members) without building a
per-cluster object; ``fuse_detections`` adds what only an output needs
(fused variances, modality names, the per-image sort) to make
``DetectionColumns``, and ``fuse_all`` makes ``Detection`` objects. A
calibration grid search builds the batch once and calls ``fuse_columns``
per grid point, so each point pays only for re-ranking, clustering, fusion
and matching.

Also hosts the no-suppression pooling baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .box_fusion import BOX_FUSION_MODES, fused_variance, member_weights, weighted_average
from .detections import ClassPrior, ClassScores, Detection, DetectionColumns
from .errors import ConfigurationError
from .geometry import box_iou
from .score_fusion import (
    CalibrationParams,
    calibrate_scores,
    fuse_avg_logits,
    fuse_avg_posteriors,
    fuse_proben,
)

# fuse_boxes and iou are not called here; perfbench/tracing.py wraps them
# under these names.
from .box_fusion import fuse_boxes  # noqa: F401
from .geometry import iou  # noqa: F401

SCORE_FUSION_MODES = ("max", "avg-posteriors", "avg-logits", "proben")
MAX_MODALITIES = 64  # a cluster's modalities are an int64 bitmask
_PAIR_BLOCK = 1 << 18


def check_iou_threshold(value) -> None:
    """Raise ConfigurationError unless value is a number in (0, 1)."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 < value < 1.0):
        raise ConfigurationError(f"iou_threshold must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class FusionConfig:
    iou_threshold: float = 0.5
    score_fusion: str = "proben"
    box_fusion: str = "avg"
    prior: Optional[ClassPrior] = None  # None means uniform
    calibration: Mapping[str, CalibrationParams] = field(default_factory=dict)

    def __post_init__(self):
        check_iou_threshold(self.iou_threshold)
        if self.score_fusion not in SCORE_FUSION_MODES:
            raise ConfigurationError(f"unknown score fusion mode {self.score_fusion!r}")
        if self.box_fusion not in BOX_FUSION_MODES:
            raise ConfigurationError(f"unknown box fusion mode {self.box_fusion!r}")


def _sweep(start: np.ndarray, extent: np.ndarray, image: np.ndarray):
    """A sweep along one axis: the rows sorted by image, then by start, and
    for each sorted position how many later positions of its image begin
    below its end, or at its start where its end rounds to it (an equal box
    still has IoU 1). Boxes overlap only if their extents along every axis
    meet, so those later positions hold every partner of the row. Starts and
    ends are ranked together, so that one key sorts by image, then start."""
    n = len(start)
    edges, rank = np.unique(np.concatenate((start, start + extent)), return_inverse=True)
    offset = image * (len(edges) + 1)
    key = offset + rank[:n]
    by = np.argsort(key, kind="stable")
    end = np.searchsorted(key[by], (offset + np.maximum(rank[n:], rank[:n] + 1))[by])
    return by, end - np.arange(n) - 1


class DetectionBatch:
    """Detection sets prepared for fusion.

    Holds the detections grouped by image id (sorted; input order within an
    image) and, in that order, their columns: image index, det_id, modality,
    boxes (N, 4), box variances (NaN for none) and all score rows stacked;
    also the rows of each modality and every same-image pair of overlapping
    boxes (rows i < j) with its IoU. None of it depends on scores, so one
    batch serves every ``fuse_columns`` call over the same detections,
    whatever the calibration. Each set is ``DetectionColumns`` or a
    ``Detection`` sequence.
    """

    def __init__(self, detection_sets: Sequence):
        flat = DetectionColumns.concatenate(detection_sets)
        self.image_ids = sorted(set(flat.image_id))
        code = {image_id: k for k, image_id in enumerate(self.image_ids)}
        image = np.fromiter(map(code.__getitem__, flat.image_id), np.int64, len(flat))
        order = np.argsort(image, kind="stable")
        columns = flat.take(order)

        self.image_index = image[order]
        self.det_ids = columns.det_id
        self.modalities = columns.modality
        self.modality_names = sorted(set(self.modalities))
        if len(self.modality_names) > MAX_MODALITIES:
            raise ConfigurationError(
                f"at most {MAX_MODALITIES} modalities fuse together, "
                f"got {len(self.modality_names)}"
            )
        code = {modality: k for k, modality in enumerate(self.modality_names)}
        self.modality_codes = np.array([code[m] for m in self.modalities], dtype=np.int64)
        self.rows: Dict[str, np.ndarray] = {
            modality: np.flatnonzero(self.modality_codes == code[modality])
            for modality in dict.fromkeys(self.modalities)
        }
        self.boxes = columns.boxes
        self.variances = columns.variances
        self.scores = columns.scores

        # every same-image pair of overlapping boxes, found by a sweep along
        # the axis of each image that offers fewer candidate pairs. Blocks
        # of about _PAIR_BLOCK pairs each bound the memory a crowded image
        # takes.
        n = len(order)
        by_x, later_x = _sweep(self.boxes[:, 0], self.boxes[:, 2], self.image_index)
        by_y, later_y = _sweep(self.boxes[:, 1], self.boxes[:, 3], self.image_index)
        image_at = self.image_index[by_x]  # both sweeps group positions by image
        images = len(self.image_ids)
        candidates_x = np.bincount(image_at, weights=later_x, minlength=images)
        candidates_y = np.bincount(image_at, weights=later_y, minlength=images)
        use_y = (candidates_y < candidates_x)[image_at]
        by, later = np.where(use_y, by_y, by_x), np.where(use_y, later_y, later_x)
        position = np.arange(n)
        before = np.cumsum(later) - later  # pairs of the positions ahead of each one
        starts = np.searchsorted(before, np.arange(0, max(later.sum(), 1), _PAIR_BLOCK))
        pairs = []
        for lo, hi in zip(starts, [*starts[1:], n]):
            block, count = position[lo:hi], later[lo:hi]
            a = by[np.repeat(block, count)]
            ahead = np.repeat(np.cumsum(count) - count - block - 1, count)
            b = by[np.arange(count.sum()) - ahead]
            first, second = np.minimum(a, b), np.maximum(a, b)
            value = box_iou(self.boxes[first], self.boxes[second])
            keep = value > 0.0
            pairs.append((first[keep], second[keep], value[keep]))
        first, second, value = (np.concatenate(column) for column in zip(*pairs))
        kept = np.lexsort((second, first))  # rows i < j, by i then j
        self.pairs = (first[kept], second[kept], value[kept])


@dataclass(frozen=True)
class FusedColumns:
    """Fused detections as columns, one row per cluster in emission order
    (image by image in batch order, seeds best first), with the batch rows
    of each cluster's members."""

    image: np.ndarray  # index into the batch's image_ids
    det_id: np.ndarray  # the seed's det_id
    boxes: np.ndarray  # (C, 4)
    scores: ClassScores  # (C, K+1) stack
    members: np.ndarray  # batch rows, cluster by cluster, each best first
    sizes: np.ndarray  # (C,) members per cluster


def pool(detection_sets: Sequence) -> DetectionColumns:
    """Naive pooling baseline: concatenate and re-sort by the sort key, no
    suppression; ties keep input order."""
    flat = DetectionColumns.concatenate(detection_sets)
    scores = flat.scores
    return flat.take(np.lexsort((flat.det_id, scores.argmax_foreground(), -scores.score)))


def _calibrated(batch: DetectionBatch, calibration: Mapping[str, CalibrationParams]):
    """All score rows after per-modality calibration, one call per modality."""
    logits = batch.scores.logits.copy()
    for modality, params in calibration.items():
        rows = batch.rows.get(modality)
        if rows is not None:
            logits[rows] = calibrate_scores(batch.scores.take(rows), params).logits
    return ClassScores(logits=logits)


def _select_per_modality(members: Sequence[int], modalities: Sequence[str]) -> List[int]:
    """The best member of each modality, best first; members come ranked.

    Not called here: ``_clusters`` selects every cluster's members at once.
    perfbench/tracing.py wraps this name."""
    best: Dict[str, int] = {}
    for i in members:
        best.setdefault(modalities[i], i)
    return list(best.values())


def _seeds(parent: np.ndarray, child: np.ndarray, n: int) -> np.ndarray:
    """Whether each of n rows is a seed, given every edge parent -> child from
    a higher- to a lower-ranked row: a row is a seed iff no parent is.

    Rows are decided in rounds: a row is a non-seed as soon as a parent is a
    seed, and a seed once every parent is a decided non-seed. Each round
    visits only the edges out of the rows decided in the round before, so
    the work is one pass over the edges plus a few array calls per round,
    and there are as many rounds as the longest chain of edges.
    """
    out_degree = np.bincount(parent, minlength=n)
    end = np.cumsum(out_degree)
    children = child[np.argsort(parent, kind="stable")]  # row i's end[i] - out_degree[i]:end[i]
    pending = np.bincount(child, minlength=n)  # parents whose edges are not yet visited
    undecided, seed, other = 0, 1, 2
    state = np.where(pending == 0, seed, undecided).astype(np.int8)
    decided = np.flatnonzero(pending == 0)
    while len(decided):
        count = out_degree[decided]
        at = np.repeat(end[decided] - np.cumsum(count), count) + np.arange(count.sum())
        kids = children[at]
        beaten = kids[np.repeat(state[decided] == seed, count) & (state[kids] == undecided)]
        state[beaten] = other
        np.subtract.at(pending, kids, 1)
        freed = kids[(pending[kids] == 0) & (state[kids] == undecided)]
        state[freed] = seed
        decided = np.concatenate((beaten, freed))
        if len(decided) > 1:  # a row with two decided parents is listed twice
            decided = np.unique(decided)
    return state == seed


def _clusters(
    batch: DetectionBatch, scores: ClassScores, config: FusionConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy clustering, as two columns (cluster, row): clusters numbered in
    emission order (image by image, seeds best first), each cluster's members
    best first (in max mode just the seed).

    Rows are ranked by the sort key (-score, class, det_id) within each
    image; ties keep input order. Every same-class pair above the IoU
    threshold is oriented from its higher- to its lower-ranked row. The
    greedy loop (the best alive row seeds a cluster of itself and its alive
    partners, which then leave) makes a row a seed iff none of its
    higher-ranked partners is a seed, and puts any other row in the cluster
    of its highest-ranked seed partner. ``_seeds`` decides that for every
    image at once in as many rounds as the longest rank-ordered chain of
    overlaps. Per-modality selection then keeps the best row of each
    (cluster, modality).
    """
    classes = scores.argmax_foreground()
    order = np.lexsort((batch.det_ids, classes, -scores.score, batch.image_index))
    n = len(order)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)

    first, second, value = batch.pairs
    hit = (value > config.iou_threshold) & (classes[first] == classes[second])
    first, second = first[hit], second[hit]
    swap = rank[first] > rank[second]
    parent, child = np.where(swap, second, first), np.where(swap, first, second)
    is_seed = _seeds(parent, child, n)
    if config.score_fusion == "max":
        seeds = order[is_seed[order]]
        return np.arange(len(seeds)), seeds

    # each row's cluster, as the rank of its seed
    owner = np.where(is_seed, rank, n)
    led = is_seed[parent]
    np.minimum.at(owner, child[led], rank[parent[led]])
    # per-modality selection: the first row of each (cluster, modality) in rank order
    group = owner[order] * len(batch.modality_names) + batch.modality_codes[order]
    keep = np.zeros(n, dtype=bool)
    keep[np.unique(group, return_index=True)[1]] = True
    kept = order[keep]
    members = kept[np.argsort(owner[kept], kind="stable")]
    cluster = np.cumsum(is_seed[order])[owner[members]] - 1
    return cluster, members


def _fuse_scores(members: np.ndarray, scores: ClassScores, config, prior) -> ClassScores:
    """Fuse the scores of same-size clusters in one score-rule call: members
    holds one cluster per row, and its column j is the j-th stacked input;
    one row out per cluster."""
    stacked = [scores.take(rows) for rows in members.T]
    if config.score_fusion == "avg-posteriors":
        return fuse_avg_posteriors(stacked)
    if config.score_fusion == "avg-logits":
        return fuse_avg_logits(stacked)
    if config.score_fusion == "proben":
        return fuse_proben(stacked, prior, len(stacked))
    raise ConfigurationError(config.score_fusion)  # pragma: no cover - guarded by FusionConfig


def _groups(keys: np.ndarray) -> List[np.ndarray]:
    """The indices of each distinct non-negative integer key, ascending."""
    order = np.argsort(keys, kind="stable")
    return [g for g in np.split(order, np.cumsum(np.bincount(keys))[:-1]) if len(g)]


def _layouts(sizes: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Same-size clusters, in order of first appearance: their numbers, and
    their members' positions in the member column, one cluster a row."""
    offsets = np.cumsum(sizes) - sizes
    return [
        (numbers, offsets[numbers][:, None] + np.arange(sizes[numbers[0]]))
        for numbers in sorted(_groups(sizes), key=lambda numbers: numbers[0])
    ]


def fuse_columns(batch: DetectionBatch, config: FusionConfig) -> FusedColumns:
    """The fusion core: fuse every image of a batch into columns, clusters in
    emission order. What only an output needs (fused variances, modality
    names, the per-image sort) is left to ``fuse_detections``.

    Calibration is applied per modality before clustering. Clusters of one
    size are fused together: one score-rule call and one weighted average of
    boxes per size. The sizes run in order of first appearance, so an error
    names the detection that a cluster-by-cluster fusion would name.
    """
    scores = _calibrated(batch, config.calibration)
    cluster, members = _clusters(batch, scores, config)
    sizes = np.bincount(cluster)
    seed = members[np.cumsum(sizes) - sizes]
    image, det_id = batch.image_index[seed], batch.det_ids[seed]
    if config.score_fusion == "max":  # the seeds themselves
        return FusedColumns(image, det_id, batch.boxes[seed], scores.take(seed), seed, sizes)

    layouts = _layouts(sizes)
    prior = config.prior
    if prior is None:
        prior = ClassPrior.uniform(scores.num_foreground)
    logits = np.empty((len(sizes), scores.logits.shape[1]))
    for numbers, positions in layouts:
        logits[numbers] = _fuse_scores(members[positions], scores, config, prior).logits
    fused = ClassScores(logits=logits)

    if config.box_fusion == "argmax":
        boxes = batch.boxes[seed]
    else:
        boxes = np.empty((len(sizes), 4))
        # members are in emission order, so errors name the first member
        weights = member_weights(
            config.box_fusion,
            scores.posteriors[members, np.repeat(fused.argmax_foreground(), sizes)],
            batch.variances[members],
            batch.det_ids[members],
        )
        for numbers, positions in layouts:
            boxes[numbers] = weighted_average(batch.boxes[members[positions]], weights[positions])
    return FusedColumns(image, det_id, boxes, fused, members, sizes)


def fuse_detections(batch: DetectionBatch, config: FusionConfig) -> DetectionColumns:
    """Fuse every image of a batch into detection columns (see ``fuse_all``),
    checked as building a ``Detection`` per row would check them.

    The output step on the core's columns: each cluster's fused box variance
    (a kept seed keeps its own) and the "+"-joined sorted modality names of
    its members, and each image's rows sorted by the sort key, ties keeping
    emission order.
    """
    fused = fuse_columns(batch, config)
    members, sizes = fused.members, fused.sizes
    if config.score_fusion == "max":
        variances = batch.variances[members]
    else:
        variances = np.empty(len(sizes))
        for numbers, positions in _layouts(sizes):
            variances[numbers] = fused_variance(batch.variances[members[positions]])

    # each cluster's modalities as a bitmask over the sorted modality names
    offsets = np.cumsum(sizes) - sizes
    masks = np.bitwise_or.reduceat(np.left_shift(1, batch.modality_codes[members]), offsets)
    distinct, which = np.unique(masks, return_inverse=True)
    names = [
        "+".join(name for k, name in enumerate(batch.modality_names) if mask >> k & 1)
        for mask in distinct.tolist()
    ]

    image, det_id, scores = fused.image, fused.det_id, fused.scores
    order = np.lexsort((det_id, scores.argmax_foreground(), -scores.score, image))
    return DetectionColumns(
        [batch.image_ids[i] for i in image[order].tolist()],
        np.array(names, dtype=object)[which[order]].tolist(),
        fused.boxes[order],
        variances[order],
        scores.take(order),
        det_id[order],
    )


def fuse_all(detections, config: FusionConfig) -> List[Detection]:
    """Fuse every image of a batch (detection sets are batched first).

    Calibration is applied per modality before clustering. Output is grouped
    by image id in sorted order, each image's detections sorted by fused
    posterior descending. In max mode the output holds the seeds, with their
    calibrated scores.
    """
    batch = detections if isinstance(detections, DetectionBatch) else DetectionBatch(detections)
    return fuse_detections(batch, config).to_detections()


def fuse(detection_sets: Sequence, config: FusionConfig) -> List[Detection]:
    """Fuse the detections of a single image (see ``fuse_all``)."""
    sets = [DetectionColumns.of(s) for s in detection_sets]
    image_ids = set(chain.from_iterable(s.image_id for s in sets))
    if len(image_ids) > 1:
        raise ConfigurationError(
            f"fuse operates on one image at a time, got image ids {sorted(image_ids)}"
        )
    return fuse_all(sets, config)
