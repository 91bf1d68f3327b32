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
pairwise IoU. ``fuse_columns`` fuses a batch into columns (image, seed,
modalities, boxes, variances, scores) without building a per-cluster
object; ``fuse_detections`` turns them into ``DetectionColumns`` and
``fuse_all`` into ``Detection`` objects. A calibration grid search builds
the batch once and calls ``fuse_columns`` per grid point, so each point pays
only for re-ranking, clustering, fusion and matching.

Also hosts the no-suppression pooling baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# fuse_boxes and iou are not called here; perfbench/tracing.py wraps them
# under these names.
from .box_fusion import (  # noqa: F401
    BOX_FUSION_MODES,
    fuse_boxes,
    fused_variance,
    member_weights,
    weighted_average,
)
from .detections import ClassPrior, ClassScores, Detection, DetectionColumns
from .errors import ConfigurationError
from .geometry import box_iou, iou  # noqa: F401
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
MAX_MODALITIES = 64  # a cluster's modalities are an int64 bitmask
_PAIR_BLOCK = 1 << 18


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

        # every same-image pair i < j: row i pairs with the `later` rows after
        # it up to the end of its image. Blocks of rows with about
        # _PAIR_BLOCK pairs each bound the memory a crowded image takes.
        sizes = np.bincount(self.image_index, minlength=len(self.image_ids))
        rows = np.arange(len(order))
        later = np.repeat(np.cumsum(sizes, dtype=np.int64), sizes) - rows - 1
        before = np.cumsum(later) - later  # pairs of the rows ahead of each row
        starts = np.searchsorted(before, np.arange(0, max(later.sum(), 1), _PAIR_BLOCK))
        pairs = []
        for lo, hi in zip(starts, [*starts[1:], len(rows)]):
            block, count = rows[lo:hi], later[lo:hi]
            first = np.repeat(block, count)
            second = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - block - 1, count)
            value = box_iou(self.boxes[first], self.boxes[second])
            keep = value > 0.0
            pairs.append((first[keep], second[keep], value[keep]))
        self.pairs = tuple(np.concatenate(column) for column in zip(*pairs))


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


def pool(detection_sets: Sequence) -> DetectionColumns:
    """Naive pooling baseline: concatenate and re-sort by the sort key, no
    suppression; ties keep input order."""
    flat = DetectionColumns.concatenate(detection_sets)
    scores = flat.scores
    return flat.take(np.lexsort((flat.det_id, scores.argmax_foreground(), -scores.score)))


def _calibrated(batch: DetectionBatch, calibration: Mapping[str, CalibrationParams]):
    """All score rows after per-modality calibration, one call per modality."""
    scores = batch.scores
    changed: Dict[str, ClassScores] = {}
    for modality, params in calibration.items():
        rows = batch.rows.get(modality)
        if rows is None:
            continue
        raw = scores.take(rows)
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


def _fuse_scores(members: np.ndarray, scores: ClassScores, batch, config, prior) -> ClassScores:
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
    if config.score_fusion == "linear":
        modalities = [batch.modalities[i] for i in members[0]]
        return fuse_linear(dict(zip(modalities, stacked)), config.weights)
    raise ConfigurationError(config.score_fusion)  # pragma: no cover - guarded by FusionConfig


def _groups(keys: np.ndarray) -> List[np.ndarray]:
    """The indices of each distinct non-negative integer key, ascending."""
    order = np.argsort(keys, kind="stable")
    return [g for g in np.split(order, np.cumsum(np.bincount(keys))[:-1]) if len(g)]


def fuse_columns(batch: DetectionBatch, config: FusionConfig) -> FusedColumns:
    """Fuse every image of a batch; the fused detections come out as columns.

    Calibration is applied per modality before clustering. Clusters of one
    size are fused together: one score-rule call per size (per modality
    order for linear fusion, whose sum runs in that order), and one
    weighted average of boxes and of inverse variances per size. These
    layouts run in order of first appearance, so an error names the
    detection that a cluster-by-cluster fusion would name.
    """
    scores = _calibrated(batch, config.calibration)
    cluster, members = _clusters(batch, scores, config)

    if config.score_fusion == "max":  # the seeds themselves
        fused = scores.take(members)
        modality = np.array(batch.modalities, dtype=object)[members]
        return _sorted_columns(
            batch, members, modality, batch.boxes[members], batch.variances[members], fused
        )

    sizes = np.bincount(cluster)
    offsets = np.cumsum(sizes) - sizes  # cluster c's members are members[offsets[c]:][:sizes[c]]
    seed = members[offsets]
    codes = batch.modality_codes[members]

    def member_positions(numbers):  # of same-size clusters' members, one cluster a row
        return offsets[numbers][:, None] + np.arange(sizes[numbers[0]])

    layouts = []
    for numbers in _groups(sizes):
        if config.score_fusion == "linear":
            _, which = np.unique(codes[member_positions(numbers)], axis=0, return_inverse=True)
            layouts += [numbers[part] for part in _groups(which.reshape(-1))]
        else:
            layouts.append(numbers)
    layouts.sort(key=lambda numbers: numbers[0])  # order of first appearance
    layouts = [(numbers, member_positions(numbers)) for numbers in layouts]

    prior = config.prior
    if prior is None:
        prior = ClassPrior.uniform(scores.num_foreground)
    logits = np.empty((len(sizes), scores.logits.shape[1]))
    posteriors = np.empty_like(logits)
    for numbers, positions in layouts:
        group = _fuse_scores(members[positions], scores, batch, config, prior)
        logits[numbers], posteriors[numbers] = group.logits, group.posteriors
    fused = ClassScores(logits=logits, posteriors=posteriors)

    boxes = np.empty((len(sizes), 4))
    variances = np.empty(len(sizes))
    weights = None
    if config.box_fusion != "argmax":
        # members are in emission order, so errors name the first member
        fused_class = np.repeat(fused.argmax_foreground(), sizes)
        weights = member_weights(
            config.box_fusion,
            scores.posteriors[members, fused_class],
            batch.variances[members],
            batch.det_ids[members],
        )
    for numbers, positions in layouts:
        rows = members[positions]
        if weights is None:
            boxes[numbers] = batch.boxes[rows[:, 0]]
        else:
            boxes[numbers] = weighted_average(batch.boxes[rows], weights[positions])
        variances[numbers] = fused_variance(batch.variances[rows])

    # each cluster's modalities as a bitmask over the sorted modality names
    masks = np.bitwise_or.reduceat(np.left_shift(1, codes), offsets)
    distinct, which = np.unique(masks, return_inverse=True)
    names = [
        "+".join(name for k, name in enumerate(batch.modality_names) if mask >> k & 1)
        for mask in distinct.tolist()
    ]
    modality = np.array(names, dtype=object)[which]
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
        scores=scores.take(order),
    )


def fuse_detections(batch: DetectionBatch, config: FusionConfig) -> DetectionColumns:
    """Fuse every image of a batch into detection columns (see ``fuse_all``),
    checked as building a ``Detection`` per row would check them."""
    fused = fuse_columns(batch, config)
    image_ids = [batch.image_ids[i] for i in fused.image.tolist()]
    return DetectionColumns(
        image_ids, fused.modality.tolist(), fused.boxes, fused.variances, fused.scores, fused.det_id
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
