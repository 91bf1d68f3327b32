"""Evaluation: IoU matching with ignore regions, AP@IoU, log-average miss rate.

A true positive is a detection whose IoU with an unmatched, non-ignored
ground truth of its class exceeds the threshold. Detections whose only
above-threshold overlap is with an ignore-flagged ground truth are excluded
from both precision and FPPI denominators. The miss-rate summary is the
geometric mean of the miss rate sampled at nine false-positives-per-image
values log-spaced in [1e-2, 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .detections import DetectionColumns, GroundTruthColumns
from .geometry import box_iou

# iou is not called here; perfbench/tracing.py wraps it under this name.
from .geometry import iou  # noqa: F401

# the codes of MatchResult.label
TP = 0
FP = 1
IGNORED = 2

REFERENCE_FPPI = tuple(10.0 ** (-2.0 + k / 4.0) for k in range(9))
MISS_RATE_FLOOR = 1e-10


@dataclass
class MatchResult:
    """Pooled match labels as columns, one row per matched detection, sorted
    by score descending (ties: lower class id, lower det_id, earlier image,
    then input order), plus GT counts. image holds each row's index into
    image_ids, the matched image list."""

    score: np.ndarray
    class_id: np.ndarray
    label: np.ndarray  # TP, FP or IGNORED
    det_id: np.ndarray
    image: np.ndarray
    image_ids: np.ndarray
    num_gt: Dict[int, int]
    num_images: int

    def rows(self, keep: np.ndarray, num_gt: Dict[int, int], num_images: int) -> "MatchResult":
        """The rows selected by keep, with the given GT and image counts."""
        return MatchResult(
            self.score[keep],
            self.class_id[keep],
            self.label[keep],
            self.det_id[keep],
            self.image[keep],
            self.image_ids,
            num_gt,
            num_images,
        )

    def merge(self, other: "MatchResult") -> None:
        """Add other's rows and counts in place; the caller re-sorts."""
        for name in ("score", "class_id", "label", "det_id"):
            setattr(self, name, np.concatenate((getattr(self, name), getattr(other, name))))
        self.image = np.concatenate((self.image, other.image + len(self.image_ids)))
        self.image_ids = np.concatenate((self.image_ids, other.image_ids))
        for cls, n in other.num_gt.items():
            self.num_gt[cls] = self.num_gt.get(cls, 0) + n
        self.num_images += other.num_images


class TruthColumns:
    """The ground truths of a list of images as columns, grouped by image.

    Image k of image_ids holds rows start[k]:start[k + 1], in input order;
    ground truths of other images are left out. gts is
    ``GroundTruthColumns`` or a ``GroundTruth`` sequence.
    """

    def __init__(self, gts, image_ids: Sequence[str]):
        gts = GroundTruthColumns.of(gts)
        self.image_ids = np.array(image_ids, dtype=object)
        self.index = {image_id: k for k, image_id in enumerate(image_ids)}
        image = self.positions(gts.image_id)
        kept = np.flatnonzero(image >= 0)
        kept = kept[np.argsort(image[kept], kind="stable")]
        self.boxes = gts.boxes[kept]
        self.class_id = gts.class_id[kept]
        self.ignore = gts.ignore[kept]
        self.start = np.searchsorted(image[kept], np.arange(len(image_ids) + 1))
        classes, counts = np.unique(self.class_id[~self.ignore], return_counts=True)
        self.num_gt = dict(zip(classes.tolist(), counts.tolist()))

    def positions(self, image_ids: Sequence[str]) -> np.ndarray:
        """The index of each given image id in this image list, -1 if absent."""
        return np.array([self.index.get(i, -1) for i in image_ids], dtype=np.int64)


def match_columns(
    truth: TruthColumns,
    image: np.ndarray,
    boxes: np.ndarray,
    score: np.ndarray,
    class_id: np.ndarray,
    det_id: np.ndarray,
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedy matching of detection columns against the ground truths of
    their images, pooled.

    image holds each detection's index in truth.image_ids; detections of
    other images (-1) drop out. Within an image, detections are visited in
    sort-key order; each takes the highest-IoU unmatched non-ignored ground
    truth of its class above the threshold (ties: the earlier one). A
    detection that cannot claim a real ground truth but overlaps an
    ignore-flagged one above threshold is labeled IGNORED, otherwise FP.
    The IoU of every detection with every ground truth of its image is
    computed in one pass; only the above-threshold candidates are visited
    one by one.
    """
    kept = np.flatnonzero(image >= 0)
    # The pooled order; restricted to one image it is that image's visiting
    # order, and matching in one image does not depend on the others.
    order = kept[np.lexsort((image[kept], det_id[kept], class_id[kept], -score[kept]))]
    image = image[order]
    first = truth.start[image]
    count = truth.start[image + 1] - first
    pair_det = np.repeat(np.arange(len(order)), count)
    pair_gt = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    value = box_iou(boxes[order][pair_det], truth.boxes[pair_gt])
    hit = value > iou_threshold
    pair_det, pair_gt, value = pair_det[hit], pair_gt[hit], value[hit]

    label = np.full(len(order), FP)
    label[pair_det[truth.ignore[pair_gt]]] = IGNORED
    claims = ~truth.ignore[pair_gt] & (truth.class_id[pair_gt] == class_id[order][pair_det])
    pair_det, pair_gt, value = pair_det[claims], pair_gt[claims], value[claims]
    ranked = np.lexsort((pair_gt, -value, pair_det))
    matched = set()
    last = -1
    for k, g in zip(pair_det[ranked].tolist(), pair_gt[ranked].tolist()):
        if k != last and g not in matched:
            matched.add(g)
            label[k] = TP
            last = k
    return MatchResult(
        score=score[order],
        class_id=class_id[order],
        label=label,
        det_id=det_id[order],
        image=image,
        image_ids=truth.image_ids,
        num_gt=dict(truth.num_gt),
        num_images=len(truth.image_ids),
    )


def _match_detections(
    dets: DetectionColumns, truth: TruthColumns, image: np.ndarray, iou_threshold: float
) -> MatchResult:
    scores = dets.scores
    return match_columns(
        truth,
        image,
        dets.boxes,
        scores.score,
        scores.argmax_foreground(),
        dets.det_id,
        iou_threshold,
    )


def match(dets, gts, iou_threshold: float = 0.5) -> MatchResult:
    """Greedy matching of one image's detections against its ground truths
    (see ``match_columns``), whatever their image ids. dets and gts are
    columns or object sequences."""
    dets, gts = DetectionColumns.of(dets), GroundTruthColumns.of(gts)
    image_id = dets.image_id[0] if len(dets) else gts.image_id[0] if len(gts) else ""
    truth = TruthColumns(replace(gts, image_id=[image_id] * len(gts)), [image_id])
    return _match_detections(dets, truth, np.zeros(len(dets), dtype=np.int64), iou_threshold)


def match_all(
    dets,
    gts,
    iou_threshold: float = 0.5,
    image_ids: Optional[Sequence[str]] = None,
) -> MatchResult:
    """Match per image and pool; image_ids fixes the image universe. dets
    and gts are columns or object sequences."""
    dets, gts = DetectionColumns.of(dets), GroundTruthColumns.of(gts)
    if image_ids is None:
        image_ids = sorted(set(dets.image_id) | set(gts.image_id))
    truth = TruthColumns(gts, image_ids)
    return _match_detections(dets, truth, truth.positions(dets.image_id), iou_threshold)


def _pr_points(result: MatchResult, class_id: int) -> Tuple[np.ndarray, np.ndarray, int]:
    labels = result.label[(result.class_id == class_id) & (result.label != IGNORED)]
    npos = result.num_gt.get(class_id, 0)
    if len(labels) == 0:
        return np.array([]), np.array([]), npos
    tp = np.cumsum(labels == TP, dtype=float)
    fp = np.cumsum(labels == FP, dtype=float)
    recall = tp / npos if npos > 0 else np.zeros_like(tp)
    precision = tp / np.maximum(tp + fp, 1e-12)
    return recall, precision, npos


def _ap_from_points(recall: np.ndarray, precision: np.ndarray) -> float:
    """All-point interpolated AP from a class's PR points (its GT count > 0)."""
    if len(recall) == 0:
        return 0.0
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]  # precision envelope
    idx = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def average_precision(result: MatchResult, class_id: int) -> Optional[float]:
    """All-point interpolated AP for one class; None when the class has no GT."""
    recall, precision, npos = _pr_points(result, class_id)
    if npos == 0:
        warnings.warn(f"class {class_id} has no ground truth; AP undefined")
        return None
    return _ap_from_points(recall, precision)


def _miss_fppi_curve(result: MatchResult, image_count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Curve points at each distinct score threshold, strictest first."""
    counted = result.label != IGNORED
    total_gt = sum(result.num_gt.values())
    if total_gt == 0:
        raise ValueError("miss-rate curve requires at least one non-ignored ground truth")
    if not counted.any():
        return np.array([]), np.array([])
    scores = result.score[counted]
    labels = result.label[counted]
    tp = np.cumsum(labels == TP, dtype=float)
    fp = np.cumsum(labels == FP, dtype=float)
    # Collapse tied scores onto one threshold (the last index of each block).
    last_of_block = np.where(np.diff(scores) != 0)[0]
    idx = np.concatenate((last_of_block, [len(scores) - 1]))
    fppi = fp[idx] / image_count
    miss = 1.0 - tp[idx] / total_gt
    return fppi, miss


def _lamr_from_curve(fppi: np.ndarray, miss: np.ndarray) -> float:
    """Geometric mean of the miss rate sampled from a miss/FPPI curve."""
    sampled = []
    for ref in REFERENCE_FPPI:
        if len(fppi) == 0:
            sampled.append(1.0)
            continue
        ok = np.where(fppi <= ref)[0]
        value = miss[ok[-1]] if len(ok) else miss[-1]
        sampled.append(max(value, MISS_RATE_FLOOR))
    return float(np.exp(np.mean(np.log(sampled))))


def lamr(result: MatchResult, image_count: int) -> float:
    """Geometric mean of the miss rate at the nine reference FPPI values.

    At each reference the loosest threshold whose FPPI does not exceed it is
    used; if even the strictest threshold overshoots, the loosest threshold
    stands in. The miss rate is floored at 1e-10 before the log.
    """
    if image_count < 1:
        raise ValueError("image_count must be >= 1")
    return _lamr_from_curve(*_miss_fppi_curve(result, image_count))


@dataclass
class SubsetReport:
    num_images: int
    num_gt: Dict[int, int]
    ap: Dict[int, Optional[float]]
    mean_ap: Optional[float]
    lamr: Optional[float]
    tp: int
    fp: int
    pr_curves: Dict[int, Tuple[np.ndarray, np.ndarray]]  # recall, precision
    miss_curve: Tuple[np.ndarray, np.ndarray]  # fppi, miss rate

    def to_dict(self) -> dict:
        return {
            "num_images": self.num_images,
            "num_gt": {str(k): v for k, v in sorted(self.num_gt.items())},
            "ap": {str(k): v for k, v in sorted(self.ap.items())},
            "mean_ap": self.mean_ap,
            "lamr": self.lamr,
            "tp": self.tp,
            "fp": self.fp,
        }


@dataclass
class EvalReport:
    """AP/LAMR per breakdown key ('all' plus any image tags present)."""

    subsets: Dict[str, SubsetReport]
    num_classes: int
    class_names: Optional[List[str]] = None

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "class_names": self.class_names,
            "subsets": {key: report.to_dict() for key, report in self.subsets.items()},
        }

    def to_text(self) -> str:
        lines = []
        header = f"{'subset':<10} {'images':>7} {'gt':>7} {'tp':>7} {'fp':>7} {'mAP':>9} {'LAMR':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for key, report in self.subsets.items():
            mean_ap = "n/a" if report.mean_ap is None else f"{report.mean_ap:9.4f}"
            lamr_s = "n/a" if report.lamr is None else f"{report.lamr:9.4f}"
            lines.append(
                f"{key:<10} {report.num_images:>7} {sum(report.num_gt.values()):>7} "
                f"{report.tp:>7} {report.fp:>7} {mean_ap:>9} {lamr_s:>9}"
            )
            for cls in sorted(report.ap):
                name = (
                    self.class_names[cls - 1]
                    if self.class_names and 0 < cls <= len(self.class_names)
                    else f"class {cls}"
                )
                ap = report.ap[cls]
                ap_s = "n/a" if ap is None else f"{ap:.4f}"
                lines.append(f"  AP[{name}] = {ap_s}")
        return "\n".join(lines) + "\n"


def _subset_report(result: MatchResult, num_classes: int) -> SubsetReport:
    """AP, LAMR and both curves of one subset, each curve built once."""
    ap: Dict[int, Optional[float]] = {}
    pr_curves = {}
    for cls in range(1, num_classes + 1):
        recall, precision, npos = _pr_points(result, cls)
        ap[cls] = _ap_from_points(recall, precision) if npos > 0 else None
        pr_curves[cls] = (recall, precision)
    defined = [v for v in ap.values() if v is not None]
    mean_ap = float(np.mean(defined)) if defined else None

    if sum(result.num_gt.values()) > 0:
        miss_curve = _miss_fppi_curve(result, result.num_images)
        lamr_value = _lamr_from_curve(*miss_curve)
    else:
        lamr_value = None
        miss_curve = (np.array([]), np.array([]))
    return SubsetReport(
        num_images=result.num_images,
        num_gt=result.num_gt,
        ap=ap,
        mean_ap=mean_ap,
        lamr=lamr_value,
        tp=int(np.count_nonzero(result.label == TP)),
        fp=int(np.count_nonzero(result.label == FP)),
        pr_curves=pr_curves,
        miss_curve=miss_curve,
    )


def breakdown(
    dets,
    gts,
    tags: Mapping[str, str],
    iou_threshold: float = 0.5,
    num_classes: Optional[int] = None,
    class_names: Optional[List[str]] = None,
    image_ids: Iterable[str] = (),
) -> EvalReport:
    """Evaluate overall and per image tag (day/night); untagged images count
    only toward 'all'. dets and gts are columns or object sequences.

    'all' covers the images of dets, gts and tags plus any image_ids, which
    lets a caller count images that hold neither a detection nor an object.
    Every image is matched once. Matching is per image and the pooled labels
    are stably sorted, so a tag's labels, filtered from the pooled ones, are
    those a match over the tag's images alone would give, in the same order.
    """
    dets, gts = DetectionColumns.of(dets), GroundTruthColumns.of(gts)
    if num_classes is None:
        candidates = np.concatenate((gts.class_id, dets.scores.argmax_foreground()))
        num_classes = int(candidates.max()) if len(candidates) else 1

    universe = set(dets.image_id)
    universe.update(gts.image_id, tags, image_ids)
    result = match_all(dets, gts, iou_threshold, image_ids=sorted(universe))
    subsets = {"all": _subset_report(result, num_classes)}
    names = sorted(set(tags.values()))
    code = {tag: k for k, tag in enumerate(names)}
    tag_of = {image_id: code[tag] for image_id, tag in tags.items()}
    # -1: untagged
    image_tag = np.array([tag_of.get(i, -1) for i in result.image_ids], dtype=np.int64)
    gt_tag = np.array([tag_of.get(i, -1) for i in gts.image_id], dtype=np.int64)
    row_tag = image_tag[result.image]
    for k, tag in enumerate(names):
        classes, counts = np.unique(gts.class_id[~gts.ignore & (gt_tag == k)], return_counts=True)
        subset = result.rows(
            row_tag == k,
            dict(zip(classes.tolist(), counts.tolist())),
            int(np.count_nonzero(image_tag == k)),
        )
        subsets[tag] = _subset_report(subset, num_classes)
    return EvalReport(subsets=subsets, num_classes=num_classes, class_names=class_names)
