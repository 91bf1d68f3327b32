import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from proben import BBox, ClassScores, Detection, GroundTruth, InvalidScoreError, ParseError
from proben.detections import GroundTruthColumns, check_box_variance
from proben.fileio import (
    read_detections,
    read_ground_truth,
    write_detections,
    write_ground_truth,
)


def sample_detections():
    return [
        Detection(
            "img00000",
            "rgb",
            BBox(10.123456789012345, 20.5, 30.25, 40.75),
            ClassScores.from_logits([0.1, 1.7320508075688772, -2.3]),
            box_variance=3.0000000000000004,
            det_id=0,
        ),
        Detection(
            "img00001",
            "thermal",
            BBox(-5.5, 0.25, 7.0, 9.0),
            ClassScores.from_logits([0.0, -0.333333333333333314, 4.0]),
            det_id=1,
        ),
    ]


class TestDetectionRoundTrip:
    def test_exact_numeric_round_trip(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        original = sample_detections()
        write_detections(path, original)
        parsed = read_detections(path).to_detections()
        assert len(parsed) == len(original)
        for a, b in zip(original, parsed):
            assert a.image_id == b.image_id
            assert a.modality == b.modality
            assert a.box == b.box  # exact, not approximate
            assert np.array_equal(a.scores.logits, b.scores.logits)
            assert a.box_variance == b.box_variance
            assert a.det_id == b.det_id

    def test_det_ids_assigned_in_ingest_order(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_detections(path, sample_detections())
        parsed = read_detections(path, start_det_id=100)
        assert parsed.det_id.tolist() == [100, 101]

    def test_modality_override(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_detections(path, sample_detections())
        parsed = read_detections(path, modality_override="fused")
        assert set(parsed.modality) == {"fused"}


class TestDetectionParsing:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_posteriors_record(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ['{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "posteriors": [0.3, 0.7]}'],
        )
        (d,) = read_detections(path).to_detections()
        assert d.scores.posteriors == pytest.approx([0.3, 0.7], abs=1e-9)

    def test_scalar_score_record_becomes_binary_posteriors(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ['{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "score": 0.8, "class_id": 1}'],
        )
        (d,) = read_detections(path).to_detections()
        assert d.scores.posteriors == pytest.approx([0.2, 0.8], abs=1e-6)

    def test_scalar_score_with_declared_classes(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ['{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "score": 0.9, "class_id": 2}'],
        )
        (d,) = read_detections(path, num_classes=3).to_detections()
        assert d.class_id == 2
        assert d.scores.posteriors[2] == pytest.approx(0.9, abs=1e-6)

    def test_multiple_score_kinds_rejected_with_line(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1], "score": 0.5}',
            ],
        )
        with pytest.raises(ParseError, match=":2:"):
            read_detections(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ['{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}', "{oops"],
        )
        with pytest.raises(ParseError, match=":2:"):
            read_detections(path)

    def test_bad_bbox_rejected(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ['{"image_id": "a", "modality": "rgb", "bbox": [0, 0, -5, 5], "logits": [0, 1]}'],
        )
        with pytest.raises(ParseError, match=":1:"):
            read_detections(path)

    def test_inconsistent_class_count_rejected(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1, 2]}',
            ],
        )
        with pytest.raises(ParseError, match=":2:"):
            read_detections(path)

    @pytest.mark.parametrize(
        "variance", ["[1]", '{"v": 1}', "1" + "0" * 400], ids=["list", "object", "huge-int"]
    )
    def test_non_number_box_variance_rejected_with_line(self, tmp_path, variance):
        path = self.write_lines(
            tmp_path,
            [
                '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1], '
                f'"box_variance": {variance}}}',
            ],
        )
        with pytest.raises(ParseError, match=":2:"):
            read_detections(path)

    @pytest.mark.parametrize("kind", ["logits", "posteriors"])
    def test_one_entry_score_row_rejected_with_line(self, tmp_path, kind):
        path = self.write_lines(
            tmp_path,
            [
                f'{{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "{kind}": [1.0]}}',
                f'{{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "{kind}": [1.0]}}',
            ],
        )
        with pytest.raises(ParseError, match=f":1: invalid {kind}: score vector has no foreground"):
            read_detections(path)

    def test_missing_modality_rejected(self, tmp_path):
        path = self.write_lines(
            tmp_path, ['{"image_id": "a", "bbox": [0, 0, 5, 5], "logits": [0, 1]}']
        )
        with pytest.raises(ParseError):
            read_detections(path)
        assert read_detections(path, modality_override="rgb")


def mixed_records(rng, width, count=60):
    """Records of every score kind for K = width - 1 classes, with planted
    ties, extreme logits and posteriors at exactly 0 and 1."""
    k = width - 1
    records = []
    for i in range(count):
        record = {"image_id": f"img{i % 7}", "modality": "rgb", "bbox": [i, 2.0 * i, 5.5, 9.25]}
        kind = ("logits", "posteriors", "score")[int(rng.integers(3))]
        if kind == "logits":
            logits = rng.normal(0.0, 3.0, width) * (40.0 if i % 11 == 0 else 1.0)
            if i % 5 == 0:
                logits[int(rng.integers(width))] = logits.max()  # tied maximum
            record["logits"] = [float(v) for v in logits]
        elif kind == "posteriors":
            exp = np.exp(rng.normal(0.0, 2.0, width))
            p = exp / exp.sum()
            if i % 6 == 0:
                p = np.zeros(width)
                p[int(rng.integers(width))] = 1.0  # clamped before the log
            elif i % 4 == 0:
                p[1:] = p[1]  # tied foreground
                p = p / p.sum()
            record["posteriors"] = [float(v) for v in p]
        else:
            record["score"] = float(rng.choice([0.0, 1.0, rng.uniform()]))
            record["class_id"] = int(rng.integers(1, k + 1))
        records.append(record)
    return records


def per_record_scores(record, num_classes):
    """What a reader that builds one ClassScores per record gives."""
    if "logits" in record:
        return ClassScores.from_logits([float(v) for v in record["logits"]])
    if "posteriors" in record:
        return ClassScores.from_posteriors([float(v) for v in record["posteriors"]])
    row = [0.0] * (num_classes + 1)
    row[0] = 1.0 - record["score"]
    row[record["class_id"]] = record["score"]
    return ClassScores.from_posteriors(row)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestStackedIngest:
    @pytest.mark.parametrize("width", range(2, 13))
    def test_scores_bit_identical_to_per_record(self, tmp_path, width):
        rng = np.random.default_rng(width)
        records = mixed_records(rng, width)
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamped posteriors warn
            parsed = read_detections(path, num_classes=width - 1).to_detections()
            expected = [per_record_scores(r, width - 1) for r in records]
        assert len(parsed) == len(records)
        for d, want in zip(parsed, expected):
            assert bits(d.scores.logits) == bits(want.logits)
            assert bits(d.scores.posteriors) == bits(want.posteriors)
            assert bits(d.scores.score) == bits(want.score)
            assert d.scores.argmax_foreground() == want.argmax_foreground()

    def test_one_constructor_call_per_score_kind(self, tmp_path, monkeypatch):
        records = mixed_records(np.random.default_rng(0), 3)
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        calls = []
        for name in ("from_logits", "from_posteriors"):
            method = getattr(ClassScores, name).__func__

            def counted(cls, rows, method=method, name=name):
                calls.append(name)
                return method(cls, rows)

            monkeypatch.setattr(ClassScores, name, classmethod(counted))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            read_detections(path, num_classes=2)
        # posteriors and score records each make one from_posteriors call
        assert sorted(calls) == ["from_logits", "from_posteriors", "from_posteriors"]

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [NaN, 1.0]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1, 2]}',
                ],
                ":2: invalid logits: softmax requires finite entries",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "posteriors": [0.3, 0.7]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "posteriors": [1.5, -0.5]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, -5, 5], "posteriors": [0.3, 0.7]}',
                ],
                r":2: invalid posteriors: posterior entries must lie in \[0, 1\]",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "posteriors": [0.9, 0.9]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [1.0, NaN]}',
                ],
                ":2: invalid posteriors: posteriors must sum to 1",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [NaN, 1, 2]}',
                ],
                ":2: invalid logits: softmax requires finite entries",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [NaN, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [1.0]}',
                ],
                ":2: invalid logits: softmax requires finite entries",
            ),
        ],
        ids=[
            "nan-before-class-count",
            "range-before-bbox",
            "posteriors-before-logits",
            "nan-and-class-count-on-one-line",
            "nan-before-one-entry-row",
        ],
    )
    def test_first_bad_line_reported(self, tmp_path, lines, message):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message):
            read_detections(path)


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        gts = [
            GroundTruth("a", BBox(0, 0, 10, 55.5), 1),
            GroundTruth("a", BBox(5, 5, 10, 60), 2, ignore=True),
            GroundTruth("b", BBox(1, 1, 8, 70), 1),
        ]
        tags = {"a": "day", "b": "night", "c": "night"}
        write_ground_truth(path, gts, tags, num_classes=2, class_names=["person", "car"])
        parsed, parsed_tags, k, names, image_ids = read_ground_truth(path)
        want = GroundTruthColumns.of(gts)
        assert parsed.image_id == want.image_id
        assert bits(parsed.boxes) == bits(want.boxes)
        assert parsed.class_id.tolist() == want.class_id.tolist()
        assert parsed.ignore.tolist() == want.ignore.tolist()
        assert parsed_tags == tags
        assert k == 2
        assert names == ["person", "car"]
        assert image_ids == ["a", "b", "c"]

    def test_header_required(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 1}\n')
        with pytest.raises(ParseError, match="meta"):
            read_ground_truth(path)

    def test_class_id_range_enforced(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"meta": {"num_classes": 2}}\n'
            '{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 3}\n'
        )
        with pytest.raises(ParseError, match=":2:"):
            read_ground_truth(path)

    def test_tag_only_record_declares_image(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"meta": {"num_classes": 1}}\n{"image_id": "empty", "tag": "day"}\n')
        gts, tags, _, _, image_ids = read_ground_truth(path)
        assert len(gts) == 0
        assert tags == {"empty": "day"}
        assert image_ids == ["empty"]

    def test_invalid_tag_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"meta": {"num_classes": 1}}\n{"image_id": "a", "tag": "dusk"}\n')
        with pytest.raises(ParseError, match="tag"):
            read_ground_truth(path)


# --- the column readers against record-by-record references -----------------


def reference_read_detections(path, modality_override=None, num_classes=None, start_det_id=0):
    """A reader that checks and builds one Detection, BBox and ClassScores per
    record, in file order, so the first bad line is the first one it meets."""
    out = []
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
            if "meta" in record:
                continue
            if "image_id" not in record:
                raise ParseError(path, line_no, "missing field 'image_id'")
            modality = modality_override or record.get("modality")
            if not modality:
                raise ParseError(path, line_no, "missing modality (and no override given)")
            raw = record.get("bbox")
            if not isinstance(raw, (list, tuple)) or len(raw) != 4:
                raise ParseError(path, line_no, f"bbox must be [x, y, w, h], got {raw!r}")
            try:
                box = BBox(*[float(v) for v in raw])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(path, line_no, f"invalid bbox: {exc}") from exc
            present = [k for k in ("logits", "posteriors", "score") if k in record]
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
                else:
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
                build = ClassScores.from_logits if kind == "logits" else ClassScores.from_posteriors
                scores = build(row)
            except (TypeError, ValueError, OverflowError, InvalidScoreError) as exc:
                raise ParseError(path, line_no, f"invalid {kind}: {exc}") from exc
            if num_classes is None:
                num_classes = len(row) - 1
            elif len(row) - 1 != num_classes:
                raise ParseError(
                    path,
                    line_no,
                    f"inconsistent class count: {len(row) - 1} vs expected {num_classes}",
                )
            variance = record.get("box_variance")
            try:
                if variance is not None:
                    variance = float(variance)
                    check_box_variance(variance)
                    if not math.isfinite(1.0 / variance):
                        raise ValueError(f"box_variance {variance} has no finite inverse")
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            out.append(
                Detection(
                    str(record["image_id"]), str(modality), box, scores, variance,
                    start_det_id + len(out),
                )
            )
    return out


def reference_read_ground_truth(path):
    """A reader that builds one GroundTruth and BBox per record, in file order."""
    gts, tags, image_ids = [], {}, set()
    num_classes = class_names = None
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
                if meta.get("class_names") is not None:
                    if not isinstance(meta["class_names"], list):
                        raise ParseError(
                            path, line_no, f"class_names must be a list, got {meta['class_names']!r}"
                        )
                    class_names = [str(n) for n in meta["class_names"]]
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
                continue
            raw = record["bbox"]
            if not isinstance(raw, (list, tuple)) or len(raw) != 4:
                raise ParseError(path, line_no, f"bbox must be [x, y, w, h], got {raw!r}")
            try:
                box = BBox(*[float(v) for v in raw])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(path, line_no, f"invalid bbox: {exc}") from exc
            try:
                class_id = int(record["class_id"])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ParseError(path, line_no, "missing or invalid class_id") from None
            if not 1 <= class_id <= num_classes:
                raise ParseError(path, line_no, f"class_id {class_id} out of range 1..{num_classes}")
            gts.append(GroundTruth(image_id, box, class_id, bool(record.get("ignore", False))))
    if num_classes is None:
        raise ParseError(path, 1, "ground-truth file must start with a meta header")
    return gts, tags, num_classes, class_names, sorted(image_ids)


def outcome(read, *args, **kwargs):
    """(result, None), or (None, (type, message)) when read raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped posteriors warn
        try:
            return read(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - compared by type and message
            return None, (type(exc), str(exc))


COORDS = st.one_of(
    st.floats(-1e4, 1e4),
    st.integers(-1000, 1000),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300]),
)
EXTENTS = st.one_of(
    st.floats(1e-3, 1e4),
    st.integers(1, 1000),
    st.sampled_from([5e-324, 1e-310, 1e300, 1.7976931348623157e308]),
)
BOX_FAULTS = {
    "bbox-short": lambda box: box[:3],
    "bbox-scalar": lambda box: 5,
    "bbox-none-entry": lambda box: [None, *box[1:]],
    "bbox-bad-string": lambda box: [box[0], "abc", *box[2:]],
    "bbox-huge-int": lambda box: [box[0], box[1], 10**400, box[3]],
    "bbox-zero-w": lambda box: [box[0], box[1], 0.0, box[3]],
    "bbox-negative-zero-h": lambda box: [box[0], box[1], box[2], -0.0],
    "bbox-negative-w": lambda box: [box[0], box[1], -box[2], box[3]],
    "bbox-nan-x": lambda box: [math.nan, *box[1:]],
    "bbox-inf-y": lambda box: [box[0], math.inf, *box[2:]],
    "bbox-overflow-h": lambda box: [box[0], box[1], box[2], "1e999"],
}
DETECTION_FAULTS = sorted(BOX_FAULTS) + [
    "no-image-id", "no-modality", "two-kinds", "no-kind", "logits-nan", "one-entry",
    "posteriors-range", "posteriors-sum", "score-range", "class-id-range", "width",
    "variance-zero", "variance-negative", "variance-inf", "variance-string",
    "variance-list", "variance-subnormal", "invalid-json", "not-object",
]


@st.composite
def detection_line(draw, width):
    """One line of a detection file, with up to three faults."""
    faults = set(draw(st.lists(st.sampled_from(DETECTION_FAULTS), max_size=3))) if draw(
        st.integers(0, 4)
    ) == 0 else set()
    if "invalid-json" in faults:
        return '{"image_id": "a", "bbox": [0, 0'
    if "not-object" in faults:
        return "[1, 2]"
    image_id = draw(st.one_of(st.text(min_size=1, max_size=4), st.integers(0, 9)))
    record = {"image_id": image_id, "modality": draw(st.sampled_from(["rgb", "thermal", "é"]))}
    box = [draw(COORDS), draw(COORDS), draw(EXTENTS), draw(EXTENTS)]
    box_faults = sorted(faults & set(BOX_FAULTS))
    if box_faults:  # one box fault a line; the others still combine
        box = BOX_FAULTS[box_faults[0]](box)
    elif draw(st.integers(0, 5)) == 0:
        box = [repr(float(v)) for v in box]  # numbers given as strings
    record["bbox"] = box
    k = width - 1 if "width" not in faults else width
    kind = draw(st.sampled_from(["logits", "posteriors", "score"]))
    if kind == "score":
        record["score"] = draw(st.sampled_from([0.0, 1.0, 0.5, 0.25]) | st.floats(0, 1))
        record["class_id"] = draw(st.integers(1, k))
        if "score-range" in faults:
            record["score"] = 1.5
        if "class-id-range" in faults:
            record["class_id"] = k + 1
    else:
        logits = draw(st.lists(st.floats(-50, 50), min_size=k + 1, max_size=k + 1))
        if kind == "logits":
            row = logits
        else:
            exp = np.exp(np.array(logits) - max(logits))
            row = (exp / exp.sum()).tolist()
            if "posteriors-range" in faults:
                row[0] = -0.5
            if "posteriors-sum" in faults:
                row[0] += 0.25
        if "logits-nan" in faults:
            row[-1] = math.nan
        if "one-entry" in faults:
            row = row[:1]
        record[kind] = row
    if "two-kinds" in faults:
        record["score" if kind != "score" else "logits"] = 0.5
    if "no-kind" in faults:
        record.pop(kind)
    variance = draw(st.one_of(st.none(), st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300])))
    for name, value in [
        ("variance-zero", 0.0),
        ("variance-negative", -1.0),
        ("variance-inf", math.inf),
        ("variance-string", "abc"),
        ("variance-list", [1]),
        ("variance-subnormal", 1e-320),
    ]:
        if name in faults:
            variance = value
    if variance is not None:
        record["box_variance"] = variance
    if "no-image-id" in faults:
        record.pop("image_id")
    if "no-modality" in faults:
        record["modality"] = ""
    return json.dumps(record)


@st.composite
def detection_file(draw):
    width = draw(st.integers(2, 4))
    lines = draw(st.lists(detection_line(width), max_size=12))
    for _ in range(draw(st.integers(0, 2))):  # blank lines and meta records are skipped
        extra = draw(st.sampled_from(["", "   ", '{"meta": {"num_classes": 1}}']))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines, draw(st.sampled_from([None, width - 1]))


def expected_columns(dets):
    """Columns of reference detections, with NaN for no variance."""
    return {
        "image_id": [d.image_id for d in dets],
        "modality": [d.modality for d in dets],
        "boxes": bits([[d.box.x, d.box.y, d.box.w, d.box.h] for d in dets]),
        "variances": bits([math.nan if d.box_variance is None else d.box_variance for d in dets]),
        "logits": bits([d.scores.logits for d in dets]),
        "posteriors": bits([d.scores.posteriors for d in dets]),
        "score": bits([d.scores.score for d in dets]),
        "class_id": [d.class_id for d in dets],
        "det_id": [d.det_id for d in dets],
    }


def actual_columns(columns):
    scores = columns.scores
    return {
        "image_id": columns.image_id,
        "modality": columns.modality,
        "boxes": bits(columns.boxes) if len(columns) else bits([]),
        "variances": bits(columns.variances),
        "logits": bits(scores.logits) if len(columns) else bits([]),
        "posteriors": bits(scores.posteriors) if len(columns) else bits([]),
        "score": bits(scores.score),
        "class_id": scores.argmax_foreground().tolist(),
        "det_id": columns.det_id.tolist(),
    }


class TestColumnReaders:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(detection_file())
    def test_detections_equal_the_record_by_record_reader(self, tmp_path, case):
        lines, num_classes = case
        path = tmp_path / "dets.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want, want_error = outcome(reference_read_detections, path, num_classes=num_classes, start_det_id=7)
        got, got_error = outcome(read_detections, path, num_classes=num_classes, start_det_id=7)
        assert got_error == want_error
        if want is not None:
            assert len(got) == len(want)
            assert actual_columns(got) == expected_columns(want)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_ground_truth_equals_the_record_by_record_reader(self, tmp_path, data):
        lines = []
        if data.draw(st.integers(0, 9)):
            num_classes = st.integers(0, 3) | st.sampled_from([math.inf, "x"])
            meta = {"num_classes": data.draw(num_classes)}
            names = data.draw(st.sampled_from([None, ["a", "b", "c"], 5, "ab"]))
            if names is not None:
                meta["class_names"] = names
            lines.append(json.dumps({"meta": meta}))
        for _ in range(data.draw(st.integers(0, 8))):
            record = {"image_id": data.draw(st.text(min_size=1, max_size=3) | st.integers(0, 5))}
            tag = data.draw(st.sampled_from([None, "day", "night", "dusk"]))
            if tag is not None:
                record["tag"] = tag
            if data.draw(st.integers(0, 4)):
                box = [data.draw(COORDS), data.draw(COORDS), data.draw(EXTENTS), data.draw(EXTENTS)]
                if data.draw(st.integers(0, 3)) == 0:
                    box = BOX_FAULTS[data.draw(st.sampled_from(sorted(BOX_FAULTS)))](box)
                record["bbox"] = box
                record["class_id"] = data.draw(st.sampled_from([1, 2, 3, 0, "x", None, math.inf]))
                if data.draw(st.booleans()):
                    record["ignore"] = data.draw(st.booleans())
            line = json.dumps(record)
            if data.draw(st.integers(0, 15)) == 0:
                line = line[:-3]  # truncated: invalid JSON
            lines.append(line)
        path = tmp_path / "gt.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want, want_error = outcome(reference_read_ground_truth, path)
        got, got_error = outcome(read_ground_truth, path)
        assert got_error == want_error
        if want is not None:
            gts, *rest = want
            columns = GroundTruthColumns.of(gts)
            assert got[1:] == tuple(rest)
            assert len(got[0]) == len(gts)
            assert got[0].image_id == columns.image_id
            assert bits(got[0].boxes) == bits(columns.boxes)
            assert got[0].class_id.tolist() == columns.class_id.tolist()
            assert got[0].ignore.tolist() == columns.ignore.tolist()

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 0, 5], "logits": [NaN, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, -1, 5], "logits": [0, 1]}',
                ],
                ":2: invalid bbox: BBox extents must be positive, got w=0.0, h=5.0",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, NaN, 5, 5], "logits": [0, 1]}',
                    "{oops",
                ],
                ":1: invalid bbox: BBox.y must be a finite number, got nan",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [NaN, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 0], "logits": [0, 1]}',
                ],
                ":1: invalid logits: softmax requires finite entries",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1], '
                    '"box_variance": 0}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, -5], "logits": [0, 1]}',
                ],
                ":1: box_variance must be finite and positive, got 0.0",
            ),
            (
                [
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}',
                    '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, -5], "logits": [0, 1, 2]}',
                ],
                r":2: invalid bbox: BBox extents must be positive, got w=5.0, h=-5.0",
            ),
        ],
        ids=[
            "box-before-score-on-one-line",
            "box-before-later-json-error",
            "score-before-later-box",
            "variance-before-later-box",
            "box-before-class-count",
        ],
    )
    def test_first_bad_line_wins(self, tmp_path, lines, message):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message):
            read_detections(path)

    def test_ground_truth_box_before_later_error(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"meta": {"num_classes": 1}}\n'
            '{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 1}\n'
            '{"image_id": "a", "bbox": [0, 0, 0, 5], "class_id": 7}\n'
            '{"image_id": "b", "tag": "dusk"}\n'
        )
        with pytest.raises(ParseError, match=":3: invalid bbox: BBox extents must be positive"):
            read_ground_truth(path)

    def test_subnormal_variance_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1]}\n'
            '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 1], '
            '"box_variance": 1e-320}\n'
        )
        with pytest.raises(ParseError, match=":2: box_variance 1e-320 has no finite inverse"):
            read_detections(path)

    def test_ground_truth_length_counts_boxes(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"meta": {"num_classes": 1}}\n'
            '{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 1, "tag": "day"}\n'
            '{"image_id": "b", "tag": "night"}\n'
            '{"image_id": "a", "bbox": [1, 0, 5, 5], "class_id": 1, "ignore": true}\n'
        )
        gts = read_ground_truth(path)[0]
        assert len(gts) == 2
        assert gts.ignore.tolist() == [False, True]


def parent_writer_lines(dets):
    """What a writer of one record per Detection object writes."""
    out = []
    for d in dets:
        record = {
            "image_id": d.image_id,
            "modality": d.modality,
            "bbox": d.box.as_list(),
            "logits": [float(v) for v in d.scores.logits],
        }
        if d.box_variance is not None:
            record["box_variance"] = d.box_variance
        out.append(json.dumps(record) + "\n")
    return "".join(out)


class TestColumnWriter:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(detection_file())
    def test_bytes_equal_one_dumps_per_record(self, tmp_path, case):
        lines, num_classes = case
        path = tmp_path / "dets.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        columns, error = outcome(read_detections, path, num_classes=num_classes)
        if error is not None:
            return
        out = tmp_path / "out.jsonl"
        write_detections(out, columns)
        assert out.read_text(encoding="utf-8") == parent_writer_lines(columns.to_detections())
        write_detections(out, columns.to_detections())  # objects go through the converter
        assert out.read_text(encoding="utf-8") == parent_writer_lines(columns.to_detections())
