import json
import warnings

import numpy as np
import pytest

from proben import BBox, ClassScores, Detection, GroundTruth, ParseError
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
        parsed = read_detections(path)
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
        assert [d.det_id for d in parsed] == [100, 101]

    def test_modality_override(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_detections(path, sample_detections())
        parsed = read_detections(path, modality_override="fused")
        assert {d.modality for d in parsed} == {"fused"}


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
        (d,) = read_detections(path)
        assert d.scores.posteriors == pytest.approx([0.3, 0.7], abs=1e-9)

    def test_scalar_score_record_becomes_binary_posteriors(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ['{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "score": 0.8, "class_id": 1}'],
        )
        (d,) = read_detections(path)
        assert d.scores.posteriors == pytest.approx([0.2, 0.8], abs=1e-6)

    def test_scalar_score_with_declared_classes(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ['{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "score": 0.9, "class_id": 2}'],
        )
        (d,) = read_detections(path, num_classes=3)
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
            parsed = read_detections(path, num_classes=width - 1)
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
        ],
        ids=[
            "nan-before-class-count",
            "range-before-bbox",
            "posteriors-before-logits",
            "nan-and-class-count-on-one-line",
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
        assert parsed == gts
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
        assert gts == []
        assert tags == {"empty": "day"}
        assert image_ids == ["empty"]

    def test_invalid_tag_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"meta": {"num_classes": 1}}\n{"image_id": "a", "tag": "dusk"}\n')
        with pytest.raises(ParseError, match="tag"):
            read_ground_truth(path)
