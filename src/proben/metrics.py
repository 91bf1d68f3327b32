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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .detections import Detection, GroundTruth
from .geometry import iou

TP = "TP"
FP = "FP"
IGNORED = "IGNORED"

REFERENCE_FPPI = tuple(10.0 ** (-2.0 + k / 4.0) for k in range(9))
MISS_RATE_FLOOR = 1e-10


@dataclass(frozen=True)
class MatchedDetection:
    score: float
    class_id: int
    label: str
    det_id: int
    image_id: str


@dataclass
class MatchResult:
    """Pooled match labels, sorted by score descending, plus GT counts."""

    detections: List[MatchedDetection] = field(default_factory=list)
    num_gt: Dict[int, int] = field(default_factory=dict)
    num_images: int = 0

    def merge(self, other: "MatchResult") -> None:
        """Add other's labels and counts in place; the caller re-sorts."""
        self.detections.extend(other.detections)
        for cls, n in other.num_gt.items():
            self.num_gt[cls] = self.num_gt.get(cls, 0) + n
        self.num_images += other.num_images


def match(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedy matching of one image's detections against its ground truths.

    Detections are visited in score order; each takes the highest-IoU
    unmatched non-ignored ground truth of its class above the threshold.
    A detection that cannot claim a real ground truth but overlaps an
    ignore-flagged one above threshold is labeled IGNORED, otherwise FP.
    """
    ordered = sorted(dets, key=lambda d: d.sort_key)
    real = [(j, g) for j, g in enumerate(gts) if not g.ignore]
    ignored = [g for g in gts if g.ignore]
    matched = [False] * len(gts)

    labeled = []
    for d in ordered:
        best_iou = iou_threshold
        best_j = -1
        for j, g in real:
            if matched[j] or g.class_id != d.class_id:
                continue
            v = iou(d.box, g.box)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0:
            matched[best_j] = True
            label = TP
        elif any(iou(d.box, g.box) > iou_threshold for g in ignored):
            label = IGNORED
        else:
            label = FP
        labeled.append(
            MatchedDetection(
                score=d.score,
                class_id=d.class_id,
                label=label,
                det_id=d.det_id,
                image_id=d.image_id,
            )
        )

    num_gt: Dict[int, int] = {}
    for _, g in real:
        num_gt[g.class_id] = num_gt.get(g.class_id, 0) + 1
    return MatchResult(detections=labeled, num_gt=num_gt, num_images=1)


def match_all(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_threshold: float = 0.5,
    image_ids: Optional[Sequence[str]] = None,
) -> MatchResult:
    """Match per image and pool; image_ids fixes the image universe."""
    by_image_d: Dict[str, List[Detection]] = {}
    by_image_g: Dict[str, List[GroundTruth]] = {}
    for d in dets:
        by_image_d.setdefault(d.image_id, []).append(d)
    for g in gts:
        by_image_g.setdefault(g.image_id, []).append(g)
    if image_ids is None:
        image_ids = sorted(set(by_image_d) | set(by_image_g))

    result = MatchResult(num_images=0)
    for image_id in image_ids:
        per_image = match(
            by_image_d.get(image_id, []),
            by_image_g.get(image_id, []),
            iou_threshold,
        )
        result.merge(per_image)
    # one stable sort: ties keep image order, as per-image merging did
    result.detections.sort(key=lambda d: (-d.score, d.class_id, d.det_id))
    result.num_images = len(image_ids)
    return result


def _pr_points(result: MatchResult, class_id: int) -> Tuple[np.ndarray, np.ndarray, int]:
    dets = [d for d in result.detections if d.class_id == class_id and d.label != IGNORED]
    npos = result.num_gt.get(class_id, 0)
    tp = np.cumsum([1.0 if d.label == TP else 0.0 for d in dets])
    fp = np.cumsum([1.0 if d.label == FP else 0.0 for d in dets])
    if len(dets) == 0:
        return np.array([]), np.array([]), npos
    recall = tp / npos if npos > 0 else np.zeros_like(tp)
    precision = tp / np.maximum(tp + fp, 1e-12)
    return recall, precision, npos


def _ap_from_points(recall: np.ndarray, precision: np.ndarray) -> float:
    """All-point interpolated AP from a class's PR points (its GT count > 0)."""
    if len(recall) == 0:
        return 0.0
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
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
    dets = [d for d in result.detections if d.label != IGNORED]
    total_gt = sum(result.num_gt.values())
    if total_gt == 0:
        raise ValueError("miss-rate curve requires at least one non-ignored ground truth")
    if not dets:
        return np.array([]), np.array([])
    scores = np.array([d.score for d in dets])
    tp = np.cumsum([1.0 if d.label == TP else 0.0 for d in dets])
    fp = np.cumsum([1.0 if d.label == FP else 0.0 for d in dets])
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
    pr_curves: Dict[int, Tuple[List[float], List[float]]]
    miss_curve: Tuple[List[float], List[float]]

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

    subsets: Dict[str, Optional[SubsetReport]]
    num_classes: int
    class_names: Optional[List[str]] = None

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "class_names": self.class_names,
            "subsets": {
                key: (report.to_dict() if report is not None else None)
                for key, report in self.subsets.items()
            },
        }

    def to_text(self) -> str:
        lines = []
        header = f"{'subset':<10} {'images':>7} {'gt':>7} {'tp':>7} {'fp':>7} {'mAP':>9} {'LAMR':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for key, report in self.subsets.items():
            if report is None:
                lines.append(f"{key:<10} {'absent':>7}")
                continue
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
        pr_curves[cls] = (list(recall), list(precision))
    defined = [v for v in ap.values() if v is not None]
    mean_ap = float(np.mean(defined)) if defined else None

    if sum(result.num_gt.values()) > 0:
        fppi, miss = _miss_fppi_curve(result, result.num_images)
        lamr_value = _lamr_from_curve(fppi, miss)
        miss_curve = (list(fppi), list(miss))
    else:
        lamr_value = None
        miss_curve = ([], [])
    labels = [d.label for d in result.detections]
    return SubsetReport(
        num_images=result.num_images,
        num_gt=result.num_gt,
        ap=ap,
        mean_ap=mean_ap,
        lamr=lamr_value,
        tp=labels.count(TP),
        fp=labels.count(FP),
        pr_curves=pr_curves,
        miss_curve=miss_curve,
    )


def breakdown(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    tags: Mapping[str, str],
    iou_threshold: float = 0.5,
    num_classes: Optional[int] = None,
    class_names: Optional[List[str]] = None,
    image_ids: Iterable[str] = (),
) -> EvalReport:
    """Evaluate overall and per image tag (day/night); untagged images count
    only toward 'all'.

    'all' covers the images of dets, gts and tags plus any image_ids, which
    lets a caller count images that hold neither a detection nor an object.
    Every image is matched once. Matching is per image and the pooled labels
    are stably sorted, so a tag's labels, filtered from the pooled ones, are
    those a match over the tag's images alone would give, in the same order.
    """
    if num_classes is None:
        candidates = [g.class_id for g in gts] + [d.class_id for d in dets]
        num_classes = max(candidates) if candidates else 1

    all_ids = sorted(
        {d.image_id for d in dets} | {g.image_id for g in gts} | set(tags) | set(image_ids)
    )
    result = match_all(dets, gts, iou_threshold, image_ids=all_ids)
    subsets: Dict[str, Optional[SubsetReport]] = {"all": _subset_report(result, num_classes)}
    for tag in sorted(set(tags.values())):
        num_gt: Dict[int, int] = {}
        for g in gts:
            if not g.ignore and tags.get(g.image_id) == tag:
                num_gt[g.class_id] = num_gt.get(g.class_id, 0) + 1
        subset = MatchResult(
            detections=[m for m in result.detections if tags.get(m.image_id) == tag],
            num_gt=num_gt,
            num_images=sum(1 for t in tags.values() if t == tag),
        )
        subsets[tag] = _subset_report(subset, num_classes)
    return EvalReport(subsets=subsets, num_classes=num_classes, class_names=class_names)
