"""Newline-delimited JSON file formats for detections and ground truth.

Detection records carry exactly one of ``logits``, ``posteriors`` or
``score`` (with ``class_id``). Ground-truth files open with a header record
``{"meta": {"num_classes": K, "class_names": [...]}}``; records without a
``bbox`` declare an image (and optionally its day/night tag) with no object.
Floats are serialized via shortest round-trip representation, so a
write/parse cycle reproduces every numeric field exactly.
"""

from __future__ import annotations

import json
import warnings
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .detections import ClassScores, Detection, GroundTruth, check_box_variance
from .errors import InvalidScoreError, ParseError
from .geometry import BBox


def _parse_bbox(raw, path, line_no) -> BBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError(path, line_no, f"bbox must be [x, y, w, h], got {raw!r}")
    try:
        return BBox(*[float(v) for v in raw])
    except (TypeError, ValueError) as exc:
        raise ParseError(path, line_no, f"invalid bbox: {exc}") from exc


_SCORE_KINDS = ("logits", "posteriors", "score")


def _score_row(record, path, line_no, num_classes) -> Tuple[str, List[float]]:
    """The record's score kind and its (K+1)-way row, before the score checks
    of ``ClassScores``; a ``score`` record becomes binary posteriors."""
    present = [k for k in _SCORE_KINDS if k in record]
    if len(present) != 1:
        raise ParseError(
            path, line_no, f"exactly one of logits/posteriors/score required, got {present}"
        )
    kind = present[0]
    try:
        if kind != "score":
            row = [float(v) for v in record[kind]]
            if len(row) < 2:
                raise ValueError("score vector has no foreground classes")
            return kind, row
        score = float(record["score"])
        class_id = int(record.get("class_id", 1))
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {score}")
        k = num_classes if num_classes is not None else max(class_id, 1)
        if not 1 <= class_id <= k:
            raise ValueError(f"class_id {class_id} out of range 1..{k}")
        row = [0.0] * (k + 1)
        row[0] = 1.0 - score
        row[class_id] = score
        return kind, row
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(path, line_no, f"invalid {kind}: {exc}") from exc


def _build_scores(kind: str, rows) -> ClassScores:
    """Scores of one row, or of a stack of rows, of one kind."""
    if kind == "logits":
        return ClassScores.from_logits(rows)
    if kind == "posteriors":
        return ClassScores.from_posteriors(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scalar-score records clamp by design
        return ClassScores.from_posteriors(rows)


def _check_row(path, line_no, kind: str, row) -> None:
    """Raise the ParseError a per-record reader gives a row that fails on its own."""
    try:
        _build_scores(kind, row)
    except InvalidScoreError as exc:
        raise ParseError(path, line_no, f"invalid {kind}: {exc}") from exc


def _raise_first_invalid(path, pending) -> None:
    """Raise the error of the first line whose score row fails on its own;
    return if every row passes."""
    bad = []
    for kind, (values, lines) in pending.items():
        width = len(values) // len(lines) if lines else 0
        for i, line_no in enumerate(lines):
            try:
                _check_row(path, line_no, kind, values[i * width : (i + 1) * width])
            except ParseError as exc:
                bad.append(exc)
                break
    if bad:
        raise min(bad, key=lambda exc: exc.line_number)


def _iter_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ParseError(path, line_no, "each line must hold a JSON object")
            yield line_no, record


def read_detections(
    path,
    modality_override: Optional[str] = None,
    num_classes: Optional[int] = None,
    start_det_id: int = 0,
) -> List[Detection]:
    """Parse a detection file; det_ids are assigned in ingest order.

    The score rows of each kind are checked and converted together, in one
    ``ClassScores`` constructor call per kind. An error is still reported at
    the first bad line: score rows are checked ahead of any later error.
    """
    image_ids: List[str] = []
    modalities: List[str] = []
    boxes: List[BBox] = []
    variances: List[Optional[float]] = []
    kinds: List[str] = []
    # per score kind: the row values back to back, and each row's line
    pending = {kind: (array("d"), array("q")) for kind in _SCORE_KINDS}
    try:
        for line_no, record in _iter_records(path):
            if "meta" in record:
                continue
            if "image_id" not in record:
                raise ParseError(path, line_no, "missing field 'image_id'")
            modality = modality_override or record.get("modality")
            if not modality:
                raise ParseError(path, line_no, "missing modality (and no override given)")
            box = _parse_bbox(record.get("bbox"), path, line_no)
            kind, row = _score_row(record, path, line_no, num_classes)
            k = len(row) - 1
            if num_classes is None:
                num_classes = k
            elif k != num_classes:
                _check_row(path, line_no, kind, row)
                raise ParseError(
                    path, line_no, f"inconsistent class count: {k} vs expected {num_classes}"
                )
            values, lines = pending[kind]
            values.extend(row)
            lines.append(line_no)
            variance = record.get("box_variance")
            try:
                if variance is not None:
                    variance = float(variance)
                check_box_variance(variance)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            image_ids.append(str(record["image_id"]))
            modalities.append(str(modality))
            boxes.append(box)
            variances.append(variance)
            kinds.append(kind)

        scores = {}
        for kind, (values, lines) in pending.items():
            if lines:
                stack = _build_scores(kind, np.frombuffer(values).reshape(len(lines), -1))
                scores[kind] = map(stack.row, range(len(lines)))
    except (ParseError, InvalidScoreError):
        _raise_first_invalid(path, pending)
        raise
    return [
        Detection(image_id, modality, box, next(scores[kind]), variance, det_id)
        for det_id, (image_id, modality, box, variance, kind) in enumerate(
            zip(image_ids, modalities, boxes, variances, kinds), start=start_det_id
        )
    ]


def write_detections(path, detections: Sequence[Detection]):
    with open(path, "w", encoding="utf-8") as fh:
        for d in detections:
            record = {
                "image_id": d.image_id,
                "modality": d.modality,
                "bbox": d.box.as_list(),
                "logits": [float(v) for v in d.scores.logits],
            }
            if d.box_variance is not None:
                record["box_variance"] = d.box_variance
            fh.write(json.dumps(record) + "\n")


def read_ground_truth(
    path,
) -> Tuple[List[GroundTruth], Dict[str, str], int, Optional[List[str]], List[str]]:
    """Parse a ground-truth file.

    Returns (ground truths, image tags, num_classes, class_names, image ids),
    the image ids being every image a record declares, sorted. The first
    record must be the meta header declaring the class count.
    """
    gts: List[GroundTruth] = []
    tags: Dict[str, str] = {}
    image_ids = set()
    num_classes: Optional[int] = None
    class_names: Optional[List[str]] = None
    for line_no, record in _iter_records(path):
        if "meta" in record:
            meta = record["meta"]
            if not isinstance(meta, dict) or "num_classes" not in meta:
                raise ParseError(path, line_no, "meta record must declare num_classes")
            num_classes = int(meta["num_classes"])
            if num_classes < 1:
                raise ParseError(path, line_no, f"num_classes must be >= 1, got {num_classes}")
            names = meta.get("class_names")
            if names is not None:
                class_names = [str(n) for n in names]
            continue
        if num_classes is None:
            raise ParseError(path, line_no, "ground-truth file must start with a meta header")
        if "image_id" not in record:
            raise ParseError(path, line_no, "missing field 'image_id'")
        image_id = str(record["image_id"])
        image_ids.add(image_id)
        tag = record.get("tag")
        if tag is not None:
            if tag not in ("day", "night"):
                raise ParseError(path, line_no, f"tag must be 'day' or 'night', got {tag!r}")
            tags[image_id] = tag
        if "bbox" not in record:
            continue  # image declaration only
        box = _parse_bbox(record["bbox"], path, line_no)
        try:
            class_id = int(record["class_id"])
        except (KeyError, TypeError, ValueError):
            raise ParseError(path, line_no, "missing or invalid class_id") from None
        if not 1 <= class_id <= num_classes:
            raise ParseError(path, line_no, f"class_id {class_id} out of range 1..{num_classes}")
        gts.append(
            GroundTruth(
                image_id=image_id,
                box=box,
                class_id=class_id,
                ignore=bool(record.get("ignore", False)),
            )
        )
    if num_classes is None:
        raise ParseError(path, 1, "ground-truth file must start with a meta header")
    return gts, tags, num_classes, class_names, sorted(image_ids)


def write_ground_truth(
    path,
    gts: Sequence[GroundTruth],
    tags: Dict[str, str],
    num_classes: int,
    class_names: Optional[Sequence[str]] = None,
):
    with open(path, "w", encoding="utf-8") as fh:
        meta = {"num_classes": num_classes}
        if class_names is not None:
            meta["class_names"] = list(class_names)
        fh.write(json.dumps({"meta": meta}) + "\n")
        covered = set()
        for g in gts:
            record = {
                "image_id": g.image_id,
                "bbox": g.box.as_list(),
                "class_id": g.class_id,
            }
            if g.ignore:
                record["ignore"] = True
            if g.image_id in tags and g.image_id not in covered:
                record["tag"] = tags[g.image_id]
                covered.add(g.image_id)
            fh.write(json.dumps(record) + "\n")
        gt_images = {g.image_id for g in gts}
        for image_id in sorted(set(tags) - gt_images):
            fh.write(json.dumps({"image_id": image_id, "tag": tags[image_id]}) + "\n")


def write_curves_csv(path, columns: Tuple[str, str], rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{columns[0]},{columns[1]}\n")
        for a, b in rows:
            fh.write(f"{float(a)!r},{float(b)!r}\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
