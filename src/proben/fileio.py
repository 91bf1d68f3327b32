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
import math
import warnings
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from .detections import (
    ClassScores,
    DetectionColumns,
    GroundTruth,
    GroundTruthColumns,
    check_box_variance,
)
from .errors import InvalidScoreError, ParseError
from .geometry import BBox, first_invalid_box


def _extend_box(box_values: array, raw, path, line_no) -> None:
    """Append a bbox field's four coordinates to box_values, before the
    checks of ``BBox``."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError(path, line_no, f"bbox must be [x, y, w, h], got {raw!r}")
    start = len(box_values)
    try:
        box_values.extend(raw)  # numbers convert as float() converts them
    except (TypeError, OverflowError):
        del box_values[start:]  # extend stops part-way; float() names the fault
        try:
            box_values.extend([float(v) for v in raw])
        except (TypeError, ValueError, OverflowError) as exc:
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


def _boxes(values: array) -> np.ndarray:
    return np.frombuffer(values).reshape(-1, 4)


def _raise_first_invalid(path, box_values: array, box_lines: array, pending=None) -> None:
    """Raise the error of the first line whose box, or whose score row, fails
    on its own; return if every one passes.

    The checks of a line run in the order a per-record reader makes them:
    its box ahead of its score row, and both ahead of any other check of
    that line still to come when the first error was raised.
    """
    bad = []
    boxes = _boxes(box_values)
    row = first_invalid_box(boxes)
    if row >= 0:
        try:
            BBox(*boxes[row].tolist())
        except ValueError as exc:
            bad.append((box_lines[row], 0, ParseError(path, box_lines[row], f"invalid bbox: {exc}")))
    for kind, (values, lines) in (pending or {}).items():
        width = len(values) // len(lines) if lines else 0
        for i, line_no in enumerate(lines):
            try:
                _check_row(path, line_no, kind, values[i * width : (i + 1) * width])
            except ParseError as exc:
                bad.append((line_no, 1, exc))
                break
    if bad:
        raise min(bad, key=lambda fault: fault[:2])[2]


_decode = json.JSONDecoder().raw_decode


def _iter_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):  # json.loads gives the error message
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
) -> DetectionColumns:
    """Parse a detection file into columns; det_ids are assigned in ingest order.

    Boxes are checked together, and the score rows of each kind are checked
    and converted together, in one ``ClassScores`` constructor call per
    kind. An error is still reported at the first bad line, with the message
    a reader checking record by record gives.
    """
    image_ids: List[str] = []
    modalities: List[str] = []
    kinds: List[str] = []
    box_values, lines, variances = array("d"), array("q"), array("d")
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
            _extend_box(box_values, record.get("bbox"), path, line_no)
            lines.append(line_no)
            kind, row = _score_row(record, path, line_no, num_classes)
            k = len(row) - 1
            if num_classes is None:
                num_classes = k
            elif k != num_classes:
                _check_row(path, line_no, kind, row)
                raise ParseError(
                    path, line_no, f"inconsistent class count: {k} vs expected {num_classes}"
                )
            values, kind_lines = pending[kind]
            values.extend(row)
            kind_lines.append(line_no)
            variance = record.get("box_variance")
            try:
                if variance is not None:
                    variance = float(variance)
                    check_box_variance(variance)
                    if not math.isfinite(1.0 / variance):
                        raise ValueError(f"box_variance {variance} has no finite inverse")
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            image_ids.append(str(record["image_id"]))
            modalities.append(str(modality))
            variances.append(math.nan if variance is None else variance)
            kinds.append(kind)

        width = (num_classes or 1) + 1
        logits = np.empty((len(kinds), width))
        posteriors = np.empty_like(logits)
        kind_of = np.array(kinds, dtype=object)
        for kind, (values, kind_lines) in pending.items():
            if kind_lines:
                stack = _build_scores(kind, np.frombuffer(values).reshape(len(kind_lines), -1))
                rows = kind_of == kind
                logits[rows], posteriors[rows] = stack.logits, stack.posteriors
    except Exception:  # a box or score row that failed earlier is reported first
        _raise_first_invalid(path, box_values, lines, pending)
        raise
    _raise_first_invalid(path, box_values, lines)
    return DetectionColumns(
        image_id=image_ids,
        modality=modalities,
        boxes=_boxes(box_values),
        variances=np.frombuffer(variances),
        scores=ClassScores(logits=logits, posteriors=posteriors),
        det_id=np.arange(start_det_id, start_det_id + len(kinds), dtype=np.int64),
    )


def write_detections(path, detections) -> None:
    """Write ``DetectionColumns`` (or a ``Detection`` sequence), one record a line."""
    detections = DetectionColumns.of(detections)
    lines = []
    for image_id, modality, box, logits, variance in zip(
        detections.image_id,
        detections.modality,
        detections.boxes.tolist(),
        detections.scores.logits.tolist(),
        detections.variances.tolist(),
    ):
        record = {"image_id": image_id, "modality": modality, "bbox": box, "logits": logits}
        if not math.isnan(variance):
            record["box_variance"] = variance
        lines.append(json.dumps(record) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_ground_truth(
    path,
) -> Tuple[GroundTruthColumns, Dict[str, str], int, Optional[List[str]], List[str]]:
    """Parse a ground-truth file.

    Returns (ground-truth columns, image tags, num_classes, class_names,
    image ids), the image ids being every image a record declares, sorted.
    The first record must be the meta header declaring the class count.
    """
    gt_images: List[str] = []
    class_ids, ignore = array("q"), []
    box_values, lines = array("d"), array("q")
    tags: Dict[str, str] = {}
    image_ids = set()
    num_classes: Optional[int] = None
    class_names: Optional[List[str]] = None
    try:
        for line_no, record in _iter_records(path):
            if "meta" in record:
                meta = record["meta"]
                if not isinstance(meta, dict) or "num_classes" not in meta:
                    raise ParseError(path, line_no, "meta record must declare num_classes")
                try:
                    num_classes = int(meta["num_classes"])
                except (TypeError, ValueError, OverflowError):
                    message = f"num_classes must be an integer, got {meta['num_classes']!r}"
                    raise ParseError(path, line_no, message) from None
                if num_classes < 1:
                    raise ParseError(path, line_no, f"num_classes must be >= 1, got {num_classes}")
                names = meta.get("class_names")
                if names is not None:
                    if not isinstance(names, list):
                        message = f"class_names must be a list, got {names!r}"
                        raise ParseError(path, line_no, message)
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
            _extend_box(box_values, record["bbox"], path, line_no)
            lines.append(line_no)
            try:
                class_id = int(record["class_id"])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ParseError(path, line_no, "missing or invalid class_id") from None
            if not 1 <= class_id <= num_classes:
                raise ParseError(
                    path, line_no, f"class_id {class_id} out of range 1..{num_classes}"
                )
            gt_images.append(image_id)
            class_ids.append(class_id)
            ignore.append(bool(record.get("ignore", False)))
        if num_classes is None:
            raise ParseError(path, 1, "ground-truth file must start with a meta header")
    except Exception:  # a box that failed earlier is reported first
        _raise_first_invalid(path, box_values, lines)
        raise
    _raise_first_invalid(path, box_values, lines)
    gts = GroundTruthColumns(
        image_id=gt_images,
        boxes=_boxes(box_values),
        class_id=np.frombuffer(class_ids, dtype=np.int64),
        ignore=np.array(ignore, dtype=bool),
    )
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


def write_curves_csv(path, columns: Tuple[str, str], first: List[float], second: List[float]):
    """A two-column CSV of equal-length float lists, written in one call."""
    rows = "".join(map("{!r},{!r}\n".format, first, second))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{columns[0]},{columns[1]}\n{rows}")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
