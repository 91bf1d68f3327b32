"""Newline-delimited JSON file formats for detections and ground truth.

Detection records carry exactly one of ``logits``, ``posteriors`` or
``score`` (with ``class_id``). Ground-truth files open with a header record
``{"meta": {"num_classes": K, "class_names": [...]}}``, their only one;
records without a ``bbox`` declare an image (and optionally its day/night
tag) with no object. Class ids and counts must fit int64.

A file is read once, as UTF-8 text in which a byte that is not UTF-8 stands
as a lone surrogate; the first line holding one is a ParseError naming the
byte (``_check_utf8``). orjson decodes the lines, and ``json`` the few that
orjson reads otherwise, so every record is what ``json.loads`` gives.
Floats are written with their shortest round-trip digits, as ``json.dumps``
(``repr`` in CSV files) spells them, by orjson a block of rows at a time
(``_spelled``, ``write_curves_csv``), so a write/parse cycle reproduces
every numeric field exactly. Scores are held and written as logits (a
``posteriors`` or ``score`` record as the log of its clamped posteriors), so
the cycle also reproduces every ranking score.
"""

from __future__ import annotations

import json
import math
from array import array
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import orjson

from .detections import (
    ClassScores,
    DetectionColumns,
    GroundTruthColumns,
    check_box_variance,
)
from .errors import InvalidScoreError, ParseError
from .geometry import BBox, first_invalid_box


_SCORE_KINDS = ("logits", "posteriors", "score")
_INF, _NAN = math.inf, math.nan
_INT64_MAX = (1 << 63) - 1  # class ids are held as int64


def _build_scores(kind: str, rows) -> ClassScores:
    """Scores of one row, or of a stack of rows, of one kind; a score row is
    held as its binary posteriors."""
    if kind == "logits":
        return ClassScores.from_logits(rows)
    return ClassScores.from_posteriors(rows)


def _check_row(path, line_no, kind: str, row) -> None:
    """Raise the ParseError a per-record reader gives a row that fails on its own."""
    try:
        _build_scores(kind, row)
    except InvalidScoreError as exc:
        raise ParseError(path, line_no, f"invalid {kind}: {exc}") from exc


def _boxes(values: array) -> np.ndarray:
    return np.frombuffer(values).reshape(-1, 4)


def _extend_slowly(values: array, start: int, raw, what: str, path, line_no) -> None:
    """Put raw's entries at values[start:] as ``float()`` converts them, after
    an ``array.extend`` (which takes numbers only) stopped; a ParseError for
    what if one of them does not convert."""
    del values[start:]
    try:
        values.extend([float(v) for v in raw])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(path, line_no, f"invalid {what}: {exc}") from exc


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
    for kind, (values, rows) in (pending or {}).items():
        width = len(values) // len(rows) if rows else 0
        for i, row in enumerate(rows):
            line_no = box_lines[row]
            try:
                _check_row(path, line_no, kind, values[i * width : (i + 1) * width])
            except ParseError as exc:
                bad.append((line_no, 1, exc))
                break
    if bad:
        raise min(bad, key=lambda fault: fault[:2])[2]


def open_input(path):
    """path opened for reading as UTF-8 text, a byte that is not UTF-8 read as
    a lone surrogate; a ParseError naming it if it cannot be opened."""
    try:
        return open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ParseError(path, None, f"cannot read: {exc.strerror or exc}") from exc


def _check_utf8(path, text: str, first: int = 1) -> None:
    """Raise the ParseError of text's first byte that is not UTF-8, text being
    read by ``open_input`` from line first on: the strict decode of its bytes,
    lone surrogates encoded back, names it as a strict read of the file does."""
    data = text.encode("utf-8", "surrogateescape")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = first + data.count(b"\n", 0, exc.start)  # text mode ends each line with \n
        message = f"not UTF-8: byte 0x{data[exc.start]:02x}: {exc.reason}"
        raise ParseError(path, line_no, message) from None


def read_json(path):
    """The one JSON document in path; a ParseError at the line of its first
    fault, be it a byte that is not UTF-8 or bad JSON."""
    with open_input(path) as fh:
        text = fh.read()
    _check_utf8(path, text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(path, None, "invalid JSON: nested too deeply") from None


_CHUNK = 1 << 16  # characters read, guarded and split at a time (then up to a line end)
_DIGITS = bytes.maketrans(b"123456789", b"000000000")
_LONG_RUN = b"0" * 19


def _long_integer_lines(chunk: str, first: int) -> set:
    """The numbers of the lines of chunk (its first being line first) that
    hold a run of 19 or more digits that neither a digit nor a "." precedes.
    Every integer literal beyond [-2**63, 2**64), which orjson reads as a
    float, is such a run; fractions are not."""
    data = chunk.encode("utf-8", "surrogateescape").translate(_DIGITS)
    lines = set()
    at = data.find(_LONG_RUN)
    while at >= 0:
        if at == 0 or data[at - 1] not in b".0":
            lines.add(first + data.count(b"\n", 0, at))
        at = data.find(_LONG_RUN, at + 1)
    return lines


_TOO_DEEP = "record nested too deeply"
# orjson overflows the C stack on a line nested some 300k deep (a crash, not
# an error); no line of at most this many characters nests that deep.
_LONG_LINE = 1 << 16


def _json_record(path, line_no, line: str, chunk: str, first: int):
    """line decoded by ``json``, or the ParseError of its message. line is
    one of chunk's, whose first is line first; as ``json`` reads a lone
    surrogate, a line holding one fails first, as not UTF-8."""
    try:
        line.encode()
    except UnicodeEncodeError:
        _check_utf8(path, chunk, first)
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no, f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(path, line_no, _TOO_DEEP) from None


def _iter_records(path):
    """(line number, record) for each non-blank line of path. orjson decodes
    each line, unless it holds a long integer literal, is longer than
    _LONG_LINE or orjson rejects it: then ``json`` does, which reads NaN,
    Infinity, 1e400 and lone surrogate escapes, gives the message of a bad
    line and reports a line nested too deeply to decode. orjson rejects a
    line that holds a byte that is not UTF-8, so ``_json_record`` reports it."""
    line_no = 0
    with open_input(path) as fh:
        while chunk := fh.read(_CHUNK):
            chunk += fh.readline()
            lines = chunk.split("\n")
            if not lines[-1]:
                lines.pop()
            first = line_no + 1
            slow = _long_integer_lines(chunk, first)
            for line_no, line in enumerate(lines, start=first):
                line = line.strip()
                if not line:
                    continue
                if line_no in slow or len(line) > _LONG_LINE:
                    record = _json_record(path, line_no, line, chunk, first)
                else:
                    try:
                        record = orjson.loads(line)
                    except orjson.JSONDecodeError:
                        record = _json_record(path, line_no, line, chunk, first)
                if type(record) is not dict:
                    raise ParseError(path, line_no, "each line must hold a JSON object")
                yield line_no, record


def read_detections(
    path,
    modality_override: Optional[str] = None,
    num_classes: Optional[int] = None,
    start_det_id: int = 0,
) -> DetectionColumns:
    """Parse a detection file into columns; det_ids are assigned in ingest order.

    Each record's fields go straight into the column arrays. Boxes are
    checked together. The logits rows are checked and converted together in
    one ``ClassScores.from_logits`` call, and the posteriors rows, those of
    score records among them, in one ``from_posteriors`` call. An error is
    still reported at the first bad line, with the message a reader checking
    record by record gives.
    """
    image_ids: List[str] = []
    modalities: List[str] = []
    box_values, lines, variances = array("d"), array("q"), array("d")
    # logits rows and posteriors rows (a score record's among them): the row
    # values back to back, and each row's index
    pending = {kind: (array("d"), array("q")) for kind in ("logits", "posteriors")}
    try:
        for line_no, record in _iter_records(path):
            if "meta" in record:
                continue
            if "image_id" not in record:
                raise ParseError(path, line_no, "missing field 'image_id'")
            modality = modality_override or record.get("modality")
            if not modality:
                raise ParseError(path, line_no, "missing modality (and no override given)")
            # the box, before the checks of BBox
            raw = record.get("bbox")
            if type(raw) is not list or len(raw) != 4:
                raise ParseError(path, line_no, f"bbox must be [x, y, w, h], got {raw!r}")
            row = len(lines)
            try:
                box_values.extend(raw)
            except (TypeError, OverflowError):
                _extend_slowly(box_values, 4 * row, raw, "bbox", path, line_no)
            lines.append(line_no)
            # the (K+1)-way score row, before the checks of ClassScores; a
            # score record becomes binary posteriors
            if "logits" in record and "posteriors" not in record and "score" not in record:
                kind = "logits"
            else:
                present = [k for k in _SCORE_KINDS if k in record]
                if len(present) != 1:
                    message = f"exactly one of logits/posteriors/score required, got {present}"
                    raise ParseError(path, line_no, message)
                kind = present[0]
            values, rows = pending["logits" if kind == "logits" else "posteriors"]
            start = len(values)
            raw = record[kind]
            if kind == "score":
                try:
                    score = float(raw)
                    class_id = int(record.get("class_id", 1))
                    if not 0.0 <= score <= 1.0:
                        raise ValueError(f"score must lie in [0, 1], got {score}")
                    k = num_classes if num_classes is not None else max(class_id, 1)
                    if not 1 <= class_id <= k:
                        raise ValueError(f"class_id {class_id} out of range 1..{k}")
                    if class_id > _INT64_MAX:
                        raise ValueError(f"class_id must fit int64, got {class_id}")
                    raw = [0.0] * (k + 1)
                    raw[0] = 1.0 - score
                    raw[class_id] = score
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(path, line_no, f"invalid score: {exc}") from exc
            try:
                values.extend(raw)
            except (TypeError, OverflowError):
                _extend_slowly(values, start, raw, kind, path, line_no)
            k = len(values) - start - 1
            if k < 1:
                del values[start:]
                message = "score vector has no foreground classes"
                raise ParseError(path, line_no, f"invalid {kind}: {message}")
            if num_classes is None:
                num_classes = k
            elif k != num_classes:
                faulty = values[start:].tolist()
                del values[start:]
                _check_row(path, line_no, kind, faulty)
                raise ParseError(
                    path, line_no, f"inconsistent class count: {k} vs expected {num_classes}"
                )
            rows.append(row)
            variance = record.get("box_variance")
            if variance is None:
                variance = _NAN
            elif not (type(variance) is float and 0.0 < variance < _INF and 1.0 / variance < _INF):
                try:
                    variance = float(variance)
                    check_box_variance(variance)
                    if not math.isfinite(1.0 / variance):
                        raise ValueError(f"box_variance {variance} has no finite inverse")
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(path, line_no, str(exc)) from exc
            variances.append(variance)
            image_ids.append(str(record["image_id"]))
            modalities.append(str(modality))

        logits = np.empty((len(lines), (num_classes or 1) + 1))
        for kind, (values, rows) in pending.items():
            if rows:
                stack = _build_scores(kind, np.frombuffer(values).reshape(len(rows), -1))
                logits[np.frombuffer(rows, dtype=np.int64)] = stack.logits
    except Exception as exc:  # a box or score row that failed earlier is reported first
        _raise_first_invalid(path, box_values, lines, pending)
        if isinstance(exc, RecursionError):  # the str or repr of a deep value
            raise ParseError(path, line_no, _TOO_DEEP) from None
        raise
    _raise_first_invalid(path, box_values, lines)
    return DetectionColumns(
        image_id=image_ids,
        modality=modalities,
        boxes=_boxes(box_values),
        variances=np.frombuffer(variances),
        scores=ClassScores(logits=logits),
        det_id=np.arange(start_det_id, start_det_id + len(lines), dtype=np.int64),
    )


_BLOCK = 1024  # rows spelled and written at a time


def _blocks(count: int):
    """Slices of count rows, _BLOCK at a time, so that the texts of one
    block only are held."""
    return (slice(start, start + _BLOCK) for start in range(0, count, _BLOCK))


def _odd(values: np.ndarray) -> np.ndarray:
    """Where orjson spells a float otherwise than ``repr`` and ``json.dumps``.

    orjson spells a float with its shortest round-trip digits, as they do,
    except where it writes ``null`` (NaN, infinities), ``0.00001`` (for
    ``1e-05``: nonzero below 1e-4 in magnitude) or ``1e16`` (for ``1e+16``:
    1e16 and above).
    """
    size = np.abs(values)
    return ~(size < 1e16) | ((size < 1e-4) & (size > 0.0))


def _spelled(column, respell) -> list:
    """The text of each value of a float column, from one orjson call; the
    values orjson spells otherwise (``_odd``) are spelled by respell."""
    column = np.ascontiguousarray(column, dtype=np.float64)
    if not len(column):
        return []
    texts = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for i in np.flatnonzero(_odd(column)).tolist():
        texts[i] = respell(column[i].item())
    return texts


def _json_strings(values) -> list:
    """``json.dumps`` of each value; a ``str`` goes straight to the encoder
    that ``json.dumps`` calls for one."""
    return [_encode_str(v) if isinstance(v, str) else json.dumps(v) for v in values]


def _variance_suffixes(variances: np.ndarray) -> list:
    """The ``box_variance`` field of each row, empty where it is NaN (none)."""
    return [
        "" if text == "NaN" else ', "box_variance": ' + text
        for text in _spelled(variances, json.dumps)
    ]


def write_detections(path, detections) -> None:
    """Write ``DetectionColumns`` (or a ``Detection`` sequence), one record a line.

    The bytes are those of one ``json.dumps`` call per record. Rows are
    rendered from one ``%``-template, a block of rows and a column at a
    time: every image id and modality is encoded by ``_json_strings``, and
    each float column is spelled by one orjson call (``_spelled``).
    """
    detections = DetectionColumns.of(detections)
    logits = detections.scores.logits
    template = (
        '{"image_id": %s, "modality": %s, "bbox": [%s, %s, %s, %s], "logits": ['
        + ", ".join(["%s"] * logits.shape[1])
        + "]%s}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        for rows in _blocks(len(logits)):
            columns = [
                _json_strings(detections.image_id[rows]),
                _json_strings(detections.modality[rows]),
                *(_spelled(column, json.dumps) for column in detections.boxes[rows].T),
                *(_spelled(column, json.dumps) for column in logits[rows].T),
                _variance_suffixes(detections.variances[rows]),
            ]
            fh.writelines(map(template.__mod__, zip(*columns)))


def read_ground_truth(
    path,
) -> Tuple[GroundTruthColumns, Dict[str, str], int, Optional[List[str]], List[str]]:
    """Parse a ground-truth file.

    Returns (ground-truth columns, image tags, num_classes, class_names,
    image ids), the image ids being every image a record declares, sorted.
    The first record, and no other, must be the meta header declaring the
    class count, which must fit int64.
    """
    gt_images: List[str] = []
    class_ids, ignored = array("q"), []
    box_values, lines = array("d"), array("q")
    tags: Dict[str, str] = {}
    image_ids = set()
    num_classes: Optional[int] = None
    class_names: Optional[List[str]] = None
    try:
        for line_no, record in _iter_records(path):
            if "meta" in record:
                if num_classes is not None:
                    raise ParseError(path, line_no, "only the first record may be a meta header")
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
                if num_classes > _INT64_MAX:
                    raise ParseError(path, line_no, f"num_classes must fit int64, got {num_classes}")
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
            raw = record["bbox"]
            if type(raw) is not list or len(raw) != 4:
                raise ParseError(path, line_no, f"bbox must be [x, y, w, h], got {raw!r}")
            try:
                box_values.extend(raw)
            except (TypeError, OverflowError):
                _extend_slowly(box_values, 4 * len(lines), raw, "bbox", path, line_no)
            lines.append(line_no)
            try:
                class_id = int(record["class_id"])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ParseError(path, line_no, "missing or invalid class_id") from None
            if not 1 <= class_id <= num_classes:
                raise ParseError(
                    path, line_no, f"class_id {class_id} out of range 1..{num_classes}"
                )
            ignore = record.get("ignore")
            if ignore is None:
                ignore = False
            elif type(ignore) is not bool:
                raise ParseError(path, line_no, f"ignore must be true or false, got {ignore!r}")
            gt_images.append(image_id)
            class_ids.append(class_id)
            ignored.append(ignore)
        if num_classes is None:
            raise ParseError(path, 1, "ground-truth file must start with a meta header")
    except Exception as exc:  # a box that failed earlier is reported first
        _raise_first_invalid(path, box_values, lines)
        if isinstance(exc, RecursionError):  # the str or repr of a deep value
            raise ParseError(path, line_no, _TOO_DEEP) from None
        raise
    _raise_first_invalid(path, box_values, lines)
    gts = GroundTruthColumns(
        image_id=gt_images,
        boxes=_boxes(box_values),
        class_id=np.frombuffer(class_ids, dtype=np.int64),
        ignore=np.array(ignored, dtype=bool),
    )
    return gts, tags, num_classes, class_names, sorted(image_ids)


def write_ground_truth(
    path,
    gts,
    tags: Dict[str, str],
    num_classes: int,
    class_names: Optional[Sequence[str]] = None,
) -> None:
    """Write a meta header, one record per box and one per tagged image
    without a box (sorted), with the bytes of one ``json.dumps`` call per
    record. A box record carries ``"ignore": true`` where set, and the
    first box of a tagged image carries its tag.

    gts is ``GroundTruthColumns`` or a ``GroundTruth`` sequence, which is
    converted to columns first, so every coordinate is written as a float
    (an int 10 as ``10.0``, which reads back as the same value)."""
    gts = GroundTruthColumns.of(gts)
    meta = {"num_classes": num_classes}
    if class_names is not None:
        meta["class_names"] = list(class_names)
    suffixes = [', "ignore": true' if flag else "" for flag in gts.ignore.tolist()]
    tag_of = dict(zip(tags, _json_strings(tags.values())))
    first_box = {image_id: i for i, image_id in reversed(list(enumerate(gts.image_id)))}
    for image_id, i in first_box.items():
        if image_id in tag_of:
            suffixes[i] += f', "tag": {tag_of[image_id]}'
    boxless = sorted(set(tags) - set(first_box))
    template = '{"image_id": %s, "bbox": [%s, %s, %s, %s], "class_id": %s%s}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for rows in _blocks(len(gts)):
            columns = [
                _json_strings(gts.image_id[rows]),
                *(_spelled(column, json.dumps) for column in gts.boxes[rows].T),
                gts.class_id[rows].tolist(),
                suffixes[rows],
            ]
            fh.writelines(map(template.__mod__, zip(*columns)))
        fh.writelines(
            '{"image_id": %s, "tag": %s}\n' % (json.dumps(image_id), tag_of[image_id])
            for image_id in boxless
        )


def write_curves_csv(path, header: Sequence[str], *columns) -> None:
    """A CSV of equal-length float columns under header, each value spelled
    as ``repr`` spells it.

    The columns are stacked into one (n, k) block, and each block of rows
    is spelled by one orjson call, ``[[a,b],[c,d],...]``, split into rows
    on ``],[``. A row holding a value that orjson spells otherwise
    (``_odd``) is respelled with ``repr``.
    """
    table = np.column_stack([np.asarray(column, dtype=np.float64) for column in columns])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for rows in _blocks(len(table)):
            block = table[rows]
            lines = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
            for i in np.flatnonzero(_odd(block).any(axis=1)).tolist():
                lines[i] = ",".join(map(repr, block[i].tolist())).encode()
            lines.append(b"")
            fh.write(b"\n".join(lines))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
