"""Reference computations that check proben's outputs from outside.

Everything here is written from the method's definition, not from proben's
code, and nothing here imports proben:

* score ingest: a ``logits`` record is softmaxed; a ``posteriors`` record
  is normalised and its log, clamped to [1e-7, 1 - 1e-7], is taken as its
  logits; calibration divides the logits by T and adds b to the
  foreground entries;
* ProbEn fusion: greedy clustering in the total order (score descending,
  class id, det_id), the best member per modality, summed log-posteriors
  minus (M_eff - 1) * log prior, and an inverse-variance box average;
* evaluation: greedy matching with ignore regions, AP integrated over the
  recall levels k/npos, and the log-average miss rate (Dollar et al., TPAMI
  2012), both recomputed from scratch at every distinct score threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

POSTERIOR_CLAMP = 1e-7
REFERENCE_FPPI = [10.0 ** (-2.0 + k / 4.0) for k in range(9)]
MISS_RATE_FLOOR = 1e-10
TP, FP, IGNORED = "TP", "FP", "IGNORED"


def read_jsonl(path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def softmax(values: Sequence[float]) -> List[float]:
    top = max(values)
    exps = [math.exp(v - top) for v in values]
    total = math.fsum(exps)
    return [e / total for e in exps]


def log_softmax(values: Sequence[float]) -> List[float]:
    top = max(values)
    log_total = top + math.log(math.fsum(math.exp(v - top) for v in values))
    return [v - log_total for v in values]


def iou(a: Tuple[float, float, float, float], b: Tuple[float, float, float, float]) -> float:
    """Intersection over union of two [x, y, w, h] boxes; 0 when they only touch."""
    iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


class _Ranked:
    """Ranking of a scored detection; needs ``posteriors`` and ``det_id``."""

    @property
    def class_id(self) -> int:
        """Highest-posterior foreground class; ties go to the lower id."""
        fg = self.posteriors[1:]
        return 1 + fg.index(max(fg))

    @property
    def score(self) -> float:
        return max(self.posteriors[1:])

    @property
    def order(self):
        return (-self.score, self.class_id, self.det_id)


@dataclass(frozen=True)
class Det(_Ranked):
    image_id: str
    modality: str
    box: Tuple[float, float, float, float]
    logits: Tuple[float, ...]
    posteriors: Tuple[float, ...]
    variance: Optional[float]
    det_id: int

    def calibrated(self, temperature: float, shift: float) -> "Det":
        z = [v / temperature for v in self.logits]
        z[1:] = [v + shift for v in z[1:]]
        return Det(self.image_id, self.modality, self.box, tuple(z), tuple(softmax(z)),
                   self.variance, self.det_id)


def det_from_record(record: dict, det_id: int) -> Det:
    if "logits" in record:
        logits = [float(v) for v in record["logits"]]
        posteriors = softmax(logits)
    elif "posteriors" in record:
        raw = [float(v) for v in record["posteriors"]]
        total = math.fsum(raw)
        posteriors = [p / total for p in raw]
        logits = [
            math.log(min(max(p, POSTERIOR_CLAMP), 1.0 - POSTERIOR_CLAMP)) for p in posteriors
        ]
    else:
        raise ValueError(f"record {det_id} carries neither logits nor posteriors")
    variance = record.get("box_variance")
    return Det(
        image_id=str(record["image_id"]),
        modality=record["modality"],
        box=tuple(float(v) for v in record["bbox"]),
        logits=tuple(logits),
        posteriors=tuple(posteriors),
        variance=None if variance is None else float(variance),
        det_id=det_id,
    )


def read_detection_files(paths: Sequence[str]) -> List[Det]:
    """All files' records, numbered in ingest order across the files."""
    dets: List[Det] = []
    for path in paths:
        for record in read_jsonl(path):
            dets.append(det_from_record(record, len(dets)))
    return dets


@dataclass(frozen=True)
class Truth:
    image_id: str
    box: Tuple[float, float, float, float]
    class_id: int
    ignore: bool


@dataclass
class GroundTruthFile:
    truths: List[Truth]
    tags: Dict[str, str]
    num_classes: int

    @classmethod
    def read(cls, path) -> "GroundTruthFile":
        records = read_jsonl(path)
        num_classes = int(next(records)["meta"]["num_classes"])
        truths, tags = [], {}
        for r in records:
            if "tag" in r:
                tags[r["image_id"]] = r["tag"]
            if "bbox" in r:
                truths.append(Truth(r["image_id"], tuple(float(v) for v in r["bbox"]),
                                    int(r["class_id"]), bool(r.get("ignore", False))))
        return cls(truths, tags, num_classes)

    @property
    def image_ids(self) -> set:
        return {t.image_id for t in self.truths} | set(self.tags)


# --------------------------------------------------------------- fusion


@dataclass(frozen=True)
class Fused(_Ranked):
    image_id: str
    modality: str
    box: Tuple[float, float, float, float]
    logits: Tuple[float, ...]
    posteriors: Tuple[float, ...]
    variance: Optional[float]
    det_id: int
    members: int


def fuse_cluster(selected: Sequence[Det], log_prior: Sequence[float]) -> Fused:
    """ProbEn on one cluster: sum of log-posteriors minus (M_eff - 1) log prior."""
    m_eff = len({d.modality for d in selected})
    log_posteriors = [log_softmax(d.logits) for d in selected]
    logits = [
        math.fsum(lp[c] for lp in log_posteriors) - (m_eff - 1) * log_prior[c]
        for c in range(len(log_prior))
    ]
    weights = [1.0 / d.variance for d in selected]
    total = math.fsum(weights)
    box = tuple(
        math.fsum(w * d.box[i] for w, d in zip(weights, selected)) / total for i in range(4)
    )
    seed = selected[0]
    return Fused(
        image_id=seed.image_id,
        modality="+".join(sorted({d.modality for d in selected})),
        box=box,
        logits=tuple(logits),
        posteriors=tuple(softmax(logits)),
        variance=1.0 / total,
        det_id=seed.det_id,
        members=len(selected),
    )


def fuse(dets: Sequence[Det], iou_threshold: float = 0.5) -> List[Fused]:
    """Greedy ProbEn fusion under a uniform prior, images in id order."""
    by_image: Dict[str, List[Det]] = {}
    for d in dets:
        by_image.setdefault(d.image_id, []).append(d)
    out: List[Fused] = []
    for image_id in sorted(by_image):
        remaining = sorted(by_image[image_id], key=lambda d: d.order)
        log_prior = [-math.log(len(remaining[0].logits))] * len(remaining[0].logits)
        fused = []
        while remaining:
            seed = remaining[0]
            cluster = [seed] + [
                d for d in remaining[1:]
                if d.class_id == seed.class_id and iou(seed.box, d.box) > iou_threshold
            ]
            best: Dict[str, Det] = {}
            for d in cluster:  # already in order: the first per modality is its best
                best.setdefault(d.modality, d)
            fused.append(fuse_cluster(sorted(best.values(), key=lambda d: d.order), log_prior))
            taken = {d.det_id for d in cluster}
            remaining = [d for d in remaining if d.det_id not in taken]
        out.extend(sorted(fused, key=lambda d: d.order))
    return out


# ----------------------------------------------------------- evaluation


def match_image(
    dets, truths: Sequence[Truth], iou_threshold: float
) -> List[Tuple[float, int, str]]:
    """(score, class_id, label) per detection, visited in the total order."""
    taken = [False] * len(truths)
    labels = []
    for d in sorted(dets, key=lambda d: d.order):
        best_j, best_iou = -1, iou_threshold
        for j, t in enumerate(truths):
            if t.ignore or taken[j] or t.class_id != d.class_id:
                continue
            v = iou(d.box, t.box)
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            taken[best_j] = True
            label = TP
        elif any(t.ignore and iou(d.box, t.box) > iou_threshold for t in truths):
            label = IGNORED
        else:
            label = FP
        labels.append((d.score, d.class_id, label))
    return labels


def _counts_at_thresholds(scores: np.ndarray, is_tp: np.ndarray, thresholds: np.ndarray):
    """TP and FP counts among detections scoring >= each threshold, counted anew."""
    tp, fp = [], []
    for start in range(0, len(thresholds), 256):
        kept = scores[None, :] >= thresholds[start:start + 256, None]
        tp.append((kept & is_tp[None, :]).sum(axis=1))
        fp.append((kept & ~is_tp[None, :]).sum(axis=1))
    return np.concatenate(tp), np.concatenate(fp)


def _threshold_curve(records: Sequence[Tuple[float, bool]]):
    scores = np.array([s for s, _ in records], dtype=float)
    is_tp = np.array([t for _, t in records], dtype=bool)
    thresholds = np.unique(scores)[::-1]
    return _counts_at_thresholds(scores, is_tp, thresholds)


def ap_oracle(records: Sequence[Tuple[float, bool]], npos: int) -> Optional[float]:
    """Mean over recall levels k/npos of the best precision reaching that recall."""
    if npos == 0:
        return None
    if not records:
        return 0.0
    tp, fp = _threshold_curve(records)
    precision = tp / (tp + fp)
    total = 0.0
    for k in range(1, npos + 1):
        reaching = precision[tp >= k]
        total += float(reaching.max()) if len(reaching) else 0.0
    return total / npos


def lamr_oracle(records: Sequence[Tuple[float, bool]], npos: int, image_count: int) -> float:
    """Geometric mean of the miss rate at the nine reference FPPI values.

    At each reference the loosest threshold whose FPPI does not exceed it is
    used; if none qualifies, the loosest threshold overall stands in.
    """
    if not records:
        return 1.0
    tp, fp = _threshold_curve(records)
    fppi = fp / image_count
    miss = 1.0 - tp / npos
    sampled = []
    for ref in REFERENCE_FPPI:
        under = np.nonzero(fppi <= ref)[0]
        value = miss[under[-1]] if len(under) else miss[-1]
        sampled.append(max(float(value), MISS_RATE_FLOOR))
    return math.exp(math.fsum(math.log(v) for v in sampled) / len(sampled))


def label_images(dets, truths: Sequence[Truth], image_ids, iou_threshold: float = 0.5):
    """Match every image once; returns image_id -> [(score, class_id, label)]."""
    dets_by_image: Dict[str, list] = {}
    truths_by_image: Dict[str, List[Truth]] = {}
    for d in dets:
        dets_by_image.setdefault(d.image_id, []).append(d)
    for t in truths:
        truths_by_image.setdefault(t.image_id, []).append(t)
    return {
        i: match_image(dets_by_image.get(i, []), truths_by_image.get(i, []), iou_threshold)
        for i in image_ids
    }


def subset_summary(labels_by_image, truths: Sequence[Truth], image_ids, num_classes: int) -> dict:
    """The figures ``proben eval`` reports for one subset of images."""
    ids = set(image_ids)
    labels = [lab for i in sorted(ids) for lab in labels_by_image[i]]
    counted = [(s, c, lab == TP) for s, c, lab in labels if lab != IGNORED]
    num_gt: Dict[int, int] = {}
    for t in truths:
        if t.image_id in ids and not t.ignore:
            num_gt[t.class_id] = num_gt.get(t.class_id, 0) + 1
    ap = {
        c: ap_oracle([(s, hit) for s, cls, hit in counted if cls == c], num_gt.get(c, 0))
        for c in range(1, num_classes + 1)
    }
    defined = [v for v in ap.values() if v is not None]
    total_gt = sum(num_gt.values())
    return {
        "num_images": len(ids),
        "num_gt": num_gt,
        "ap": ap,
        "mean_ap": math.fsum(defined) / len(defined) if defined else None,
        "lamr": lamr_oracle([(s, hit) for s, _, hit in counted], total_gt, len(ids))
        if total_gt
        else None,
        "tp": sum(1 for _, _, lab in labels if lab == TP),
        "fp": sum(1 for _, _, lab in labels if lab == FP),
    }
