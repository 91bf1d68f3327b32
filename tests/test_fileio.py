import json
import math
import re

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from proben import BBox, ClassScores, Detection, GroundTruth, InvalidScoreError, ParseError
from proben.cli import main
from proben.detections import DetectionColumns, GroundTruthColumns, check_box_variance
from proben import fileio
from proben.fileio import (
    _BLOCK,
    _CHUNK,
    _iter_records,
    _spelled,
    read_detections,
    read_ground_truth,
    read_json,
    write_curves_csv,
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


# posteriors and scores at exactly 0 and 1, and inside and beyond the clamp
# to [1e-7, 1 - 1e-7]
EXTREME_PROBABILITIES = st.sampled_from(
    [0.0, 1e-12, 1e-8, 1e-7, 0.3, 1.0 - 1e-7, 0.99999999, 0.999999999, 1.0]
) | st.floats(0, 1)


@st.composite
def score_kinds_file(draw):
    """Records of every score kind for K = width - 1 classes, and K."""
    width = draw(st.integers(2, 4))
    records = []
    for i in range(draw(st.integers(1, 12))):
        record = {"image_id": f"img{i % 3}", "modality": "rgb", "bbox": [i, 0.0, 5.0, 5.0]}
        kind = draw(st.sampled_from(["logits", "posteriors", "score"]))
        if kind == "logits":
            record["logits"] = draw(st.lists(st.floats(-50, 50), min_size=width, max_size=width))
        elif kind == "posteriors":
            top, rest = draw(st.permutations(range(width)))[:2]
            p = [0.0] * width
            p[top] = draw(EXTREME_PROBABILITIES)
            p[rest] = 1.0 - p[top]
            record["posteriors"] = p
        else:
            record["score"] = draw(EXTREME_PROBABILITIES)
            record["class_id"] = draw(st.integers(1, width - 1))
        records.append(record)
    return records, width - 1


class TestDetectionRoundTrip:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(score_kinds_file())
    def test_write_read_cycle_reproduces_every_ranking_score(self, tmp_path, case):
        records, num_classes = case
        path, again = tmp_path / "dets.jsonl", tmp_path / "again.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        first = read_detections(path, num_classes=num_classes)
        write_detections(again, first)
        second = read_detections(again, num_classes=num_classes)
        for name in ("logits", "posteriors", "score"):
            assert bits(getattr(second.scores, name)) == bits(getattr(first.scores, name)), name
        assert np.array_equal(second.scores.argmax_foreground(), first.scores.argmax_foreground())

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

    @pytest.mark.parametrize(
        "class_id, message",
        [
            (2**63, "class_id must fit int64, got 9223372036854775808"),
            (10**19, "class_id must fit int64, got 10000000000000000000"),
            (2**63 - 1, "cannot fit 'int' into an index-sized integer"),  # k + 1 entries
        ],
    )
    def test_class_id_beyond_int64_rejected_with_line(self, tmp_path, class_id, message):
        path = self.write_lines(
            tmp_path,
            [
                "",
                '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "score": 0.5, '
                f'"class_id": {class_id}}}',
            ],
        )
        with pytest.raises(ParseError, match=f":2: invalid score: {re.escape(message)}"):
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
        read_detections(path, num_classes=2)
        # posteriors and score records share one from_posteriors call
        assert sorted(calls) == ["from_logits", "from_posteriors"]

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


class TestUndecodableInput:
    """A byte that is not UTF-8 is a ParseError at its line, and a fault on an
    earlier line still wins, also one the text read had not reached."""

    def write(self, path, lines):
        path.write_bytes("\n".join(lines).encode("latin-1"))  # "\xff" stays the byte 0xff

    @pytest.mark.parametrize("bad_line", [1, 4, 450])
    def test_lines_ahead_of_it_are_read_once(self, tmp_path, bad_line):
        path = tmp_path / "det.jsonl"
        lines = [json.dumps({"image_id": f"img{i:05d}", "pad": "x" * 60}) for i in range(500)]
        lines[bad_line - 1] = '{"image_id": "\xff"}'
        self.write(path, lines)
        seen = []
        with pytest.raises(ParseError, match=f"det.jsonl:{bad_line}: not UTF-8: byte 0xff"):
            for line_no, _ in _iter_records(path):
                seen.append(line_no)
        assert seen == list(range(1, bad_line))

    def test_an_earlier_fault_in_the_same_read_wins(self, tmp_path):
        path = tmp_path / "det.jsonl"
        good = '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 10, 20], "logits": [0, 1]}'
        self.write(path, [good, "{not json", "", '{"image_id": "\xff"}'])
        with pytest.raises(ParseError, match="det.jsonl:2: invalid JSON"):
            read_detections(path)

    def test_sequence_cut_off_at_the_end_of_the_file(self, tmp_path):
        path = tmp_path / "det.jsonl"
        good = '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 10, 20], "logits": [0, 1]}'
        path.write_bytes(good.encode() + b'\n{"image_id": "\xe2\x82')  # half a euro sign
        seen = []
        with pytest.raises(ParseError, match="det.jsonl:2: not UTF-8: byte 0xe2: unexpected end"):
            for line_no, _ in _iter_records(path):
                seen.append(line_no)
        assert seen == [1]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_sequence_cut_off_by_a_line_end(self, tmp_path, newline):
        """Half a euro sign ahead of a line end is an invalid continuation, as
        a strict read of the whole file has it, not a sequence cut off."""
        path = tmp_path / "det.jsonl"
        good = b'{"image_id": "a"}'
        path.write_bytes(newline.join([good, b'{"image_id": "\xe2\x82', good, b""]))
        message = "det.jsonl:2: not UTF-8: byte 0xe2: invalid continuation byte"
        with pytest.raises(ParseError, match=message) as raised:
            list(_iter_records(path))
        assert str(raised.value) == strict_read_fault(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_byte_opening_a_later_chunk(self, tmp_path, newline):
        """Over more than three chunks, each with a long-integer line and a
        line of Unicode whitespace, a byte that is not UTF-8 opening the
        fourth chunk ends the read at its line. The lines ahead of it read
        as json.loads reads them, and the message is that of a strict read
        of the whole file."""
        lines = [
            json.dumps({"image_id": f"img{i:05d}", "modality": "rgb", "bbox": [0, 0, 5, 5],
                        "logits": [0.0, i / 7]})
            for i in range(3000)
        ]
        for at in range(100, len(lines), 700):
            lines[at] = '{"image_id": "long", "v": 123456789012345678901234567}'
            lines[at + 1] = UNICODE_SPACES
        path = tmp_path / "det.jsonl"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        firsts = chunk_first_lines(path)
        assert len(firsts) > 4
        bad = firsts[3]
        ahead = tmp_path / "ahead.jsonl"
        ahead.write_bytes("".join(line + newline for line in lines[: bad - 1]).encode("utf-8"))
        lines[bad - 1] = "\udcff" + lines[bad - 1][1:]  # the byte 0xff, one character as read
        path.write_bytes((newline.join(lines) + newline).encode("utf-8", "surrogateescape"))
        assert chunk_first_lines(path) == firsts
        seen = []
        with pytest.raises(ParseError, match=f"det.jsonl:{bad}: not UTF-8: byte 0xff") as raised:
            for item in _iter_records(path):
                seen.append(item)
        assert str(raised.value) == strict_read_fault(path)
        assert repr(seen) == repr(json_records(ahead))

    @pytest.mark.parametrize("read", [read_detections, read_ground_truth, read_json])
    def test_the_file_is_opened_once(self, tmp_path, monkeypatch, read):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"meta": {"num_classes": 1}}\n{"image_id": "\xff"}\n')
        opened = []

        def counted(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(fileio, "open", counted, raising=False)
        with pytest.raises(ParseError, match="in.jsonl:2: not UTF-8: byte 0xff: invalid start byte"):
            read(path)
        assert opened == [path]


def strict_read_fault(path) -> str:
    """The message of the first byte of path that a strict UTF-8 read of the
    whole file refuses, at its line; lines end at \\n, \\r or \\r\\n."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return str(ParseError(path, line_no, f"not UTF-8: byte 0x{data[exc.start]:02x}: {exc.reason}"))


def chunk_first_lines(path) -> list:
    """The number of the first line of each chunk that _iter_records reads
    of path: _CHUNK characters, then the rest of the line."""
    firsts, line_no = [], 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while chunk := fh.read(_CHUNK):
            chunk += fh.readline()
            firsts.append(line_no)
            line_no += chunk.count("\n")
    return firsts


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

    def test_a_second_header_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"meta": {"num_classes": 2}}\n'
            '{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 2}\n'
            '{"meta": {"num_classes": 1}}\n'
        )
        with pytest.raises(ParseError, match=":3: only the first record may be a meta header"):
            read_ground_truth(path)

    @pytest.mark.parametrize("num_classes", [2**63, 10**19])
    def test_class_count_beyond_int64_rejected_at_its_line(self, tmp_path, num_classes):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            f'{{"meta": {{"num_classes": {num_classes}}}}}\n'
            '{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 9223372036854775808}\n'
        )
        with pytest.raises(ParseError, match=f":1: num_classes must fit int64, got {num_classes}"):
            read_ground_truth(path)

    def test_largest_int64_class_count_and_id_read(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            f'{{"meta": {{"num_classes": {2**63 - 1}}}}}\n'
            f'{{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": {2**63 - 1}}}\n'
        )
        gts, _, num_classes, _, _ = read_ground_truth(path)
        assert num_classes == 2**63 - 1
        assert gts.class_id.tolist() == [2**63 - 1]

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

    @pytest.mark.parametrize("value, ignored", [("true", True), ("false", False), ("null", False)])
    def test_ignore_is_a_boolean_or_null(self, tmp_path, value, ignored):
        path = tmp_path / "gt.jsonl"
        box = '"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 1'
        path.write_text(f'{{"meta": {{"num_classes": 1}}}}\n{{{box}, "ignore": {value}}}\n{{{box}}}\n')
        assert read_ground_truth(path)[0].ignore.tolist() == [ignored, False]

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "0.0", "[]", "{}"])
    def test_ignore_of_another_type_rejected_at_its_line(self, tmp_path, value):
        path = tmp_path / "gt.jsonl"
        box = '"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 1'
        path.write_text(f'{{"meta": {{"num_classes": 1}}}}\n{{{box}}}\n{{{box}, "ignore": {value}}}\n')
        spelled = repr(json.loads(value))
        with pytest.raises(ParseError, match=f":3: ignore must be true or false, got {re.escape(spelled)}"):
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
                    if class_id >= 2**63:
                        raise ValueError(f"class_id must fit int64, got {class_id}")
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
                if num_classes >= 2**63:
                    raise ParseError(path, line_no, f"num_classes must fit int64, got {num_classes}")
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
            ignore = record.get("ignore")
            if ignore is not None and type(ignore) is not bool:
                raise ParseError(path, line_no, f"ignore must be true or false, got {ignore!r}")
            gts.append(GroundTruth(image_id, box, class_id, bool(ignore)))
    if num_classes is None:
        raise ParseError(path, 1, "ground-truth file must start with a meta header")
    return gts, tags, num_classes, class_names, sorted(image_ids)


def outcome(read, *args, **kwargs):
    """(result, None), or (None, (type, message)) when read raises."""
    try:
        return read(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return None, (type(exc), str(exc))


# integers at and beyond the ends of [-2**63, 2**64), and of 19 to 25 digits
LONG_INTS = st.sampled_from([-(2**63) - 1, -(2**63), 2**63, 2**64 - 1, 2**64]) | st.integers(
    19, 25
).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1) | st.integers(1 - 10**n, -(10 ** (n - 1))))
# literals json reads as floats: dumps() writes "@raw:1e400" as 1e400
RAW = "@raw:"
RAW_LITERALS = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]).map(RAW.__add__)
LONE_SURROGATES = st.sampled_from(["\ud800", "a\udfff", "\udbff\udbff"])
# whitespace str.strip() removes around a record; no line ends among it
UNICODE_SPACES = " \t\x0b\x0c\x1c\x1f\x85\xa0\u2000\u2028\u3000"


def dumps(record) -> str:
    """json.dumps(record), each "@raw:..." string written as the literal it holds."""
    return re.sub(r'"@raw:([^"]*)"', r"\1", json.dumps(record))


@st.composite
def file_text(draw, lines):
    """lines, each with Unicode whitespace around it, ended by \\n, \\r or \\r\\n."""
    pad = st.text(alphabet=UNICODE_SPACES, max_size=2)
    ends = st.sampled_from(["\n", "\r", "\r\n"])
    return "".join(draw(pad) + line + draw(pad) + draw(ends) for line in lines)


COORDS = st.one_of(
    st.floats(-1e4, 1e4),
    st.integers(-1000, 1000),
    LONG_INTS,
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300]),
)
EXTENTS = st.one_of(
    st.floats(1e-3, 1e4),
    st.integers(1, 1000),
    LONG_INTS.map(abs),
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
    "bbox-overflow-literal": lambda box: [box[0], box[1], RAW + "1e400", box[3]],
    "bbox-nan-literal": lambda box: [box[0], RAW + "NaN", *box[2:]],
    "bbox-far-edge-overflow": lambda box: [1.7e308, box[1], 1e308, box[3]],
}
DETECTION_FAULTS = sorted(BOX_FAULTS) + [
    "no-image-id", "no-modality", "two-kinds", "no-kind", "logits-nan", "one-entry",
    "posteriors-range", "posteriors-sum", "score-range", "class-id-range", "width",
    "variance-zero", "variance-negative", "variance-inf", "variance-string",
    "variance-list", "variance-subnormal", "invalid-json", "not-object",
    "class-id-long", "score-literal", "logits-literal", "variance-literal",
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
    image_id = draw(
        st.one_of(st.text(min_size=1, max_size=4), st.integers(0, 9), LONG_INTS, LONE_SURROGATES)
    )
    modality = draw(st.sampled_from(["rgb", "thermal", "é"]) | LONE_SURROGATES)
    record = {"image_id": image_id, "modality": modality}
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
        if "class-id-long" in faults:
            record["class_id"] = draw(LONG_INTS)
        if "score-literal" in faults:
            record["score"] = draw(RAW_LITERALS)
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
        if "logits-literal" in faults:
            row[0] = draw(RAW_LITERALS)
        if "one-entry" in faults:
            row = row[:1]
        record[kind] = row
    if "two-kinds" in faults:
        record["score" if kind != "score" else "logits"] = 0.5
    if "no-kind" in faults:
        record.pop(kind)
    variance = draw(
        st.one_of(st.none(), st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300]), LONG_INTS)
    )
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
    if "variance-literal" in faults:
        variance = draw(RAW_LITERALS)
    if variance is not None:
        record["box_variance"] = variance
    if "no-image-id" in faults:
        record.pop("image_id")
    if "no-modality" in faults:
        record["modality"] = ""
    return dumps(record)


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


# null reads as an absent flag; the others are refused
OTHER_IGNORE_VALUES = st.sampled_from([None, "false", "true", 0, 1, 0.0, [], {}])


@st.composite
def ground_truth_text(draw):
    """A ground-truth file: mostly a header, then records with faults, and
    now and then a second header."""
    lines = []
    if draw(st.integers(0, 9)):
        num_classes = st.integers(0, 3) | st.sampled_from([math.inf, "x"]) | LONG_INTS | RAW_LITERALS
        meta = {"num_classes": draw(num_classes)}
        names = st.sampled_from([None, ["a", "b", "c"], 5, "ab"]) | LONG_INTS
        names |= st.lists(st.text(max_size=2) | LONG_INTS | RAW_LITERALS | LONE_SURROGATES, max_size=3)
        names = draw(names)
        if names is not None:
            meta["class_names"] = names
        lines.append(dumps({"meta": meta}))
    for _ in range(draw(st.integers(0, 8))):
        image_id = st.text(min_size=1, max_size=3) | st.integers(0, 5) | LONG_INTS | LONE_SURROGATES
        record = {"image_id": draw(image_id)}
        tag = draw(st.sampled_from([None, "day", "night", "dusk"]) | LONG_INTS | LONE_SURROGATES)
        if tag is not None:
            record["tag"] = tag
        if draw(st.integers(0, 4)):
            box = [draw(COORDS), draw(COORDS), draw(EXTENTS), draw(EXTENTS)]
            if draw(st.integers(0, 3)) == 0:
                box = BOX_FAULTS[draw(st.sampled_from(sorted(BOX_FAULTS)))](box)
            record["bbox"] = box
            class_ids = st.sampled_from([1, 2, 3, 0, "x", None, math.inf]) | LONG_INTS | RAW_LITERALS
            record["class_id"] = draw(class_ids)
            if draw(st.booleans()):
                record["ignore"] = draw(st.booleans() | OTHER_IGNORE_VALUES | LONG_INTS)
        line = dumps(record)
        if draw(st.integers(0, 15)) == 0:
            line = line[:-3]  # truncated: invalid JSON
        lines.append(line)
    if lines and draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), dumps({"meta": {"num_classes": 1}}))
    return draw(file_text(lines))


class TestColumnReaders:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(detection_file(), st.data())
    def test_detections_equal_the_record_by_record_reader(self, tmp_path, case, data):
        lines, num_classes = case
        path = tmp_path / "dets.jsonl"
        path.write_bytes(data.draw(file_text(lines)).encode("utf-8"))
        want, want_error = outcome(reference_read_detections, path, num_classes=num_classes, start_det_id=7)
        got, got_error = outcome(read_detections, path, num_classes=num_classes, start_det_id=7)
        assert got_error == want_error
        if want is not None:
            assert len(got) == len(want)
            assert actual_columns(got) == expected_columns(want)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ground_truth_text())
    @example(  # a class count and a class id beyond int64
        '{"meta": {"num_classes": 10000000000000000000}}\n'
        '{"image_id": "a", "bbox": [0, 0, 5, 5], "class_id": 9223372036854775808}\n'
    )
    def test_ground_truth_equals_the_record_by_record_reader(self, tmp_path, text):
        path = tmp_path / "gt.jsonl"
        path.write_bytes(text.encode("utf-8"))
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


# --- the line decoder against json.loads ---------------------------------------

VALID_LINES = [
    '{"image_id": "img00001", "modality": "rgb", "bbox": [397.52722773530854, 227.5, 29.3, 117.8], '
    '"logits": [0.0012345678901234567, -3.25e-05, 1e+16]}',
    '{"image_id": "b", "modality": "thermal", "bbox": [1, 2, 3, 4], "box_variance": 16.0, '
    '"posteriors": [0.017269778816493667, 0.9827302211835063]}',
    '{"image_id": 7, "modality": "rgb", "bbox": [0, -0.0, 5e-324, 1.7976931348623157e+308], '
    '"score": 0.5, "class_id": 2}',
    '{"meta": {"num_classes": 3, "class_names": ["person", "car", "\\u00e9"]}}',
    '{"image_id": "img00000", "bbox": [471.25, 68.5, 52.3, 87.0], "class_id": 1, "tag": "day", '
    '"ignore": true}',
    '{"image_id": "x", "tag": null}',
    # past the length from which json decodes every line
    '{"image_id": "long", "modality": "rgb", "bbox": [1, 2, 3, 4], "logits": [0.5, -1e-05], '
    '"note": "' + "x" * (1 << 16) + '"}',
]
TOKENS = st.one_of(
    st.sampled_from(
        [
            "0", "1", "9", ".", "-", "+", "e", "E", '"', "\\", "u", "d800", ",", ":", "{", "}",
            "[", "]", " ", "\t", "\x00", "\x0b", "\x0c", "\x1f", "\x7f", "\xa0", "\u2028", "é",
            "\ufeff", "\\ud800", "\\udfff", "\\ud83d\\ude00", "\\u0000", "\\n", "\\/",
        ]
    ),
    st.sampled_from(
        [
            "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "true", "null", "-0",
            "0.00012345678901234567", "12345678901234567890.5", "1e0000000000000000001",
        ]
    ),
    LONG_INTS.map(str),
)


# a value in an array or after a key
VALUE = re.compile(r'(?<=[\[ ])(-?\d[\d.eE+-]*|true|false|null|"[^"]*")(?=[,\]}])')


@st.composite
def mutated_line(draw):
    """A valid record line with one to three values replaced by tokens, then
    up to two spans of up to three characters."""
    line = draw(st.sampled_from(VALID_LINES))
    for _ in range(draw(st.integers(1, 3))):
        values = [m.span() for m in VALUE.finditer(line)]
        if values:
            at, end = draw(st.sampled_from(values))
            line = line[:at] + draw(TOKENS) + line[end:]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(TOKENS) + line[at + draw(st.integers(0, 3)):]
    return line


def json_records(path):
    """(line number, record) of each non-blank line as json.loads decodes it."""
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
            out.append((line_no, record))
    return out


class TestLineDecoder:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(mutated_line(), min_size=1, max_size=6), st.data())
    def test_records_equal_json_loads(self, tmp_path, lines, data):
        """Each record is what json.loads gives, types and bits included (as
        repr shows them), and a bad line gives json's ParseError."""
        path = tmp_path / "lines.jsonl"
        path.write_bytes(data.draw(file_text(lines)).encode("utf-8"))
        want, want_error = outcome(json_records, path)
        got, got_error = outcome(lambda: list(_iter_records(path)))
        assert got_error == want_error
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("thermal", ["logits", "posteriors"])
    def test_synth_output_decodes_with_orjson_only(self, tmp_path, monkeypatch, thermal):
        """No line of synth or fuse output, nor of the same detections with
        rgb logits scaled by 3 and thermal as posteriors records, falls back
        to json.loads."""
        assert main(["synth", "--out-dir", str(tmp_path), "--images", "50"]) == 0
        if thermal == "posteriors":
            for modality, scale in [("rgb", 3.0), ("thermal", None)]:
                path = tmp_path / f"det_{modality}.jsonl"
                records = [json.loads(line) for line in path.read_text().splitlines()]
                for r in records:
                    if scale is None:
                        r["posteriors"] = ClassScores.from_logits(r.pop("logits")).posteriors.tolist()
                    else:
                        r["logits"] = [v * scale for v in r["logits"]]
                path.write_text("".join(json.dumps(r) + "\n" for r in records))
        dets = [tmp_path / "det_rgb.jsonl", tmp_path / "det_thermal.jsonl"]
        assert main(["fuse", *map(str, dets), "--out", str(tmp_path / "fused.jsonl")]) == 0
        paths = [*dets, tmp_path / "fused.jsonl", tmp_path / "gt.jsonl"]
        calls = {"orjson": 0, "json": 0}

        def counted(name, loads):
            def count(*args, **kwargs):
                calls[name] += 1
                return loads(*args, **kwargs)
            return count

        monkeypatch.setattr(orjson, "loads", counted("orjson", orjson.loads))
        monkeypatch.setattr(json, "loads", counted("json", json.loads))
        for path in paths[:-1]:
            read_detections(path)
        read_ground_truth(paths[-1])
        monkeypatch.undo()
        lines = sum(path.read_text(encoding="utf-8").count("\n") for path in paths)
        assert calls == {"orjson": lines, "json": 0}


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


def test_detection_image_ids_that_are_not_str(tmp_path):
    scores = ClassScores.from_logits([0.0, 1.5])
    dets = [
        Detection(image_id, "rgb", BBox(0.0, 0.5, 10.0, 20.0), scores, det_id=i)
        for i, image_id in enumerate([7, "7", 2.5, None, "\ud800"])
    ]
    out = tmp_path / "out.jsonl"
    write_detections(out, dets)
    assert out.read_text(encoding="utf-8") == parent_writer_lines(dets)


def test_non_finite_logits_spelled_as_json(tmp_path):
    """A stack built directly can hold logits no reader or fusion path makes."""
    logits = np.array([[0.0, -math.inf], [math.nan, 1.5], [math.inf, -0.0]])
    columns = DetectionColumns(
        ["a", "b", "c"],
        ["rgb", "thermal", "rgb"],
        np.array([[0.0, 0.0, 1.0, 1.0], [-0.0, 2.5, 1e16, 1e-7], [3.0, 4.0, 5.0, 6.0]]),
        np.array([math.nan, 2.0, 1e-300]),
        ClassScores(logits=logits),
        np.arange(3),
    )
    out = tmp_path / "out.jsonl"
    write_detections(out, columns)
    text = out.read_text(encoding="utf-8")
    assert text == parent_writer_lines(columns.to_detections())
    assert "[0.0, -Infinity]" in text and "[NaN, 1.5]" in text and "[Infinity, -0.0]" in text


def dumps_ground_truth(gts, tags, num_classes, class_names=None):
    """What a writer of one ``json.dumps`` call per record writes."""
    meta = {"num_classes": num_classes}
    if class_names is not None:
        meta["class_names"] = list(class_names)
    lines = [json.dumps({"meta": meta})]
    covered = set()
    for g in gts:
        record = {"image_id": g.image_id, "bbox": g.box.as_list(), "class_id": g.class_id}
        if g.ignore:
            record["ignore"] = True
        if g.image_id in tags and g.image_id not in covered:
            record["tag"] = tags[g.image_id]
            covered.add(g.image_id)
        lines.append(json.dumps(record))
    boxed = {g.image_id for g in gts}
    lines += [
        json.dumps({"image_id": i, "tag": tags[i]}) for i in sorted(set(tags) - boxed)
    ]
    return "".join(line + "\n" for line in lines)


# with the characters JSON escapes or spells as \u escapes: controls, DEL,
# a line separator, a lone surrogate and a non-BMP character (a surrogate pair)
IMAGE_IDS = st.sampled_from(
    ["a", "b", "é", 'say "hi"', "back\\slash", "日本", "tab\t", "c",
     "\ud800", "\x00", "\x1f", "\x7f", "\u2028", "\U0001d11e"]
)
# where orjson's spelling leaves repr's: 1e-4 and 1e16, each one ulp either
# side; subnormals; integer-valued floats
BOUNDARY_VALUES = [
    v
    for edge in (1e-4, 1e16)
    for v in (np.nextafter(edge, 0.0).item(), edge, np.nextafter(edge, np.inf).item())
] + [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0, 2.0**53, 1e15, 1e22]
NUMBERS = (
    st.integers(-50, 50)
    | st.floats(-1e6, 1e6)
    | st.sampled_from([-0.0, 1e16, 1e-7])
    | st.sampled_from(BOUNDARY_VALUES + [-v for v in BOUNDARY_VALUES])
)
EXTENT_VALUES = st.integers(1, 50) | st.floats(1e-7, 1e16)


@st.composite
def ground_truth_case(draw):
    gts = [
        GroundTruth(
            draw(IMAGE_IDS),
            BBox(draw(NUMBERS), draw(NUMBERS), draw(EXTENT_VALUES), draw(EXTENT_VALUES)),
            draw(st.integers(1, 3)),
            ignore=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]
    tags = draw(st.dictionaries(IMAGE_IDS, st.sampled_from(["day", "night"]), max_size=6))
    class_names = draw(st.none() | st.just(["person", "car", 'say "x"']))
    return gts, tags, class_names


def as_floats(gts):
    """gts as their columns hold them: every coordinate a float."""
    boxes = GroundTruthColumns.of(gts).boxes.tolist()
    return [
        GroundTruth(g.image_id, BBox(*box), g.class_id, ignore=g.ignore)
        for g, box in zip(gts, boxes)
    ]


class TestGroundTruthWriter:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ground_truth_case())
    def test_bytes_equal_one_dumps_per_record(self, tmp_path, case):
        """An object list is written as its columns are, every coordinate a float."""
        gts, tags, class_names = case
        want = dumps_ground_truth(as_floats(gts), tags, 3, class_names)
        path = tmp_path / "gt.jsonl"
        for given_gts in (gts, GroundTruthColumns.of(gts)):
            write_ground_truth(path, given_gts, tags, 3, class_names=class_names)
            assert path.read_text(encoding="utf-8") == want

    def test_image_ids_that_are_not_str(self, tmp_path):
        """An object keeps whatever image id it was given, and a non-str one
        is written as ``json.dumps`` writes it."""
        gts = [
            GroundTruth(7, BBox(0, 0, 10, 20), 1),
            GroundTruth("7", BBox(1, 1, 10, 20), 2),
            GroundTruth(2.5, BBox(2, 2, 10, 20), 1, ignore=True),
            GroundTruth(None, BBox(3, 3, 10, 20), 3),
        ]
        tags = {"7": "night", "z": "day"}
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, gts, tags, 3)
        text = path.read_text(encoding="utf-8")
        assert text == dumps_ground_truth(as_floats(gts), tags, 3)
        assert '{"image_id": 7, "bbox"' in text and '"image_id": null' in text

    def test_every_record_layout(self, tmp_path):
        gts = [
            GroundTruth("a", BBox(0, 0, 10, 55.5), 1),
            GroundTruth('q"é', BBox(5.0, -0.0, 1e16, 1e-7), 2, ignore=True),
            GroundTruth("a", BBox(1, 1, 8, 70), 1, ignore=True),
            GroundTruth("b", BBox(1.5, 2.5, 3.5, 4.5), 3),
        ]
        tags = {"a": "day", 'q"é': "night", "z": "night", "y": "day"}
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, gts, tags, 3)
        text = path.read_text(encoding="utf-8")
        assert text == dumps_ground_truth(as_floats(gts), tags, 3)
        assert text.splitlines()[1:] == [
            '{"image_id": "a", "bbox": [0.0, 0.0, 10.0, 55.5], "class_id": 1, "tag": "day"}',
            '{"image_id": "q\\"\\u00e9", "bbox": [5.0, -0.0, 1e+16, 1e-07], "class_id": 2, '
            '"ignore": true, "tag": "night"}',
            '{"image_id": "a", "bbox": [1.0, 1.0, 8.0, 70.0], "class_id": 1, "ignore": true}',
            '{"image_id": "b", "bbox": [1.5, 2.5, 3.5, 4.5], "class_id": 3}',
            '{"image_id": "y", "tag": "day"}',
            '{"image_id": "z", "tag": "night"}',
        ]


CURVE_VALUES = st.sampled_from(
    [0.0, -0.0, 0.5, 1e16, 1e-7, math.nan, math.inf, -math.inf]
) | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    BOUNDARY_VALUES + [-v for v in BOUNDARY_VALUES]
)


class TestCurvesWriter:
    @staticmethod
    def repr_rows(first, second):
        return "x,y\n" + "".join(map("{!r},{!r}\n".format, first, second))

    @pytest.mark.parametrize(
        "first, second",
        [
            ([], []),
            ([0.5, 0.5, 0.25, 0.5], [1.0, 1.0, 1.0, 0.0]),
            ([-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0]),
            ([1e16, 1e-7, 1e16, 1e-7], [math.nan, math.inf, -math.inf, math.nan]),
        ],
    )
    def test_equals_repr_rows(self, tmp_path, first, second):
        path = tmp_path / "curve.csv"
        write_curves_csv(path, ("x", "y"), first, second)
        assert path.read_text(encoding="utf-8") == self.repr_rows(first, second)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(CURVE_VALUES, CURVE_VALUES), max_size=30))
    def test_random_curves_equal_repr_rows(self, tmp_path, points):
        first, second = [x for x, _ in points], [y for _, y in points]
        path = tmp_path / "curve.csv"
        write_curves_csv(path, ("x", "y"), first, second)
        assert path.read_text(encoding="utf-8") == self.repr_rows(first, second)

    def test_more_columns_than_two(self, tmp_path):
        path = tmp_path / "surface.csv"
        write_curves_csv(path, ("t", "b", "lamr"), [0.5, 1e16], [-0.0, 1e-7], [0.25, math.nan])
        assert path.read_text(encoding="utf-8") == "t,b,lamr\n0.5,-0.0,0.25\n1e+16,1e-07,nan\n"


ODD_VALUES = BOUNDARY_VALUES + [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-7, 0.1, 1 / 3]


class TestSpeller:
    """``_spelled`` against ``json.dumps`` (JSONL files) and ``repr`` (CSV
    files), value by value."""

    @staticmethod
    def assert_spelled_as_oracles(column):
        values = np.asarray(column, dtype=float).tolist()
        assert _spelled(column, json.dumps) == [json.dumps(v) for v in values]
        assert _spelled(column, repr) == [repr(v) for v in values]

    def test_boundaries_and_special_values(self):
        self.assert_spelled_as_oracles(np.array(ODD_VALUES + [-v for v in ODD_VALUES]))

    def test_each_value_alone(self):
        for value in ODD_VALUES:
            self.assert_spelled_as_oracles(np.array([value]))
            self.assert_spelled_as_oracles(np.array([-value]))

    def test_empty_column(self):
        assert _spelled(np.empty(0), json.dumps) == []
        assert _spelled([], repr) == []

    def test_non_contiguous_column(self):
        boxes = np.array(ODD_VALUES[: 4 * (len(ODD_VALUES) // 4)]).reshape(-1, 4)
        for column in boxes.T:
            assert not column.flags.c_contiguous
            self.assert_spelled_as_oracles(column)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        self.assert_spelled_as_oracles(rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(float))
        scales = 10.0 ** rng.integers(-323, 309, 50_000)
        with np.errstate(over="ignore"):  # some products round to infinity
            self.assert_spelled_as_oracles(rng.standard_normal(50_000) * scales)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(CURVE_VALUES, max_size=40))
    def test_random_columns(self, values):
        self.assert_spelled_as_oracles(np.array(values, dtype=float))


class TestBlockEdges:
    """Columns longer than one write block, with odd values on both sides
    of every block edge."""

    @staticmethod
    def column(offset):
        values = np.linspace(0.0, 1.0, 2 * _BLOCK + 3) + offset
        odd = ODD_VALUES[offset % len(ODD_VALUES):] + ODD_VALUES
        for edge in (_BLOCK, 2 * _BLOCK):
            values[edge - 2 : edge + 2] = odd[:4]
            odd = odd[4:]
        return values

    def test_curves(self, tmp_path):
        first, second = self.column(0), self.column(5)
        path = tmp_path / "curve.csv"
        write_curves_csv(path, ("x", "y"), first, second)
        rows = "".join(map("{!r},{!r}\n".format, first.tolist(), second.tolist()))
        assert path.read_text(encoding="utf-8") == "x,y\n" + rows

    @pytest.mark.parametrize("width", [1, 3])
    def test_curves_of_other_widths(self, tmp_path, width):
        columns = [self.column(4 * k + 1) for k in range(width)]
        header = [f"c{k}" for k in range(width)]
        path = tmp_path / "curve.csv"
        write_curves_csv(path, header, *columns)
        assert path.read_text(encoding="utf-8") == repr_csv(header, columns)

    def test_detections(self, tmp_path):
        count = 2 * _BLOCK + 3
        boxes = np.abs(np.stack([self.column(k) for k in range(4)], axis=1))
        boxes[~np.isfinite(boxes)] = 1.0
        boxes[boxes == 0.0] = 2.0
        variances = np.abs(self.column(7))
        variances[~(np.isfinite(variances) & (variances > 0.0))] = np.nan
        logits = np.stack([self.column(9), self.column(11)], axis=1)
        columns = DetectionColumns(
            [f"img{i % 7}" for i in range(count)],
            ["rgb", "thermal"] * (count // 2) + ["rgb"],
            boxes,
            variances,
            ClassScores(logits=logits),
            np.arange(count),
        )
        out = tmp_path / "out.jsonl"
        write_detections(out, columns)
        assert out.read_text(encoding="utf-8") == parent_writer_lines(columns.to_detections())

    def test_ground_truth(self, tmp_path):
        count = 2 * _BLOCK + 3
        boxes = np.stack([self.column(k) for k in range(4)], axis=1)
        boxes[~np.isfinite(boxes)] = 1.0
        boxes[:, 2:] = np.abs(boxes[:, 2:]) + 1.0
        gts = GroundTruthColumns(
            image_id=[f"img{i % 5}" for i in range(count)],
            boxes=boxes,
            class_id=np.ones(count, dtype=np.int64),
            ignore=np.arange(count) % 3 == 0,
        )
        objects = [
            GroundTruth(image_id, BBox(*box), 1, ignore=flag)
            for image_id, box, flag in zip(gts.image_id, boxes.tolist(), gts.ignore.tolist())
        ]
        tags = {"img0": "day", "img3": "night", "none": "day"}
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, gts, tags, 1)
        assert path.read_text(encoding="utf-8") == dumps_ground_truth(objects, tags, 1)



def repr_csv(header, columns):
    """The CSV text of columns with each value spelled by ``repr``."""
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
    return ",".join(header) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


class TestCurvesWriterBlocks:
    """``write_curves_csv`` against a ``repr``-per-value oracle, on files of
    one to three columns whose blocks mix rows that orjson spells as
    ``repr`` does with rows it spells otherwise."""

    ODD = [-0.0, 1e-7, -1e-7, 1e16, -1e16, math.nan, math.inf, -math.inf,
           5e-324, -2.225073858507201e-308, 9.999999999999999e-05, 1e22]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_empty_curve_is_the_header(self, tmp_path, width):
        header = [f"c{k}" for k in range(width)]
        path = tmp_path / "curve.csv"
        write_curves_csv(path, header, *([np.empty(0)] * width))
        assert path.read_bytes() == (",".join(header) + "\n").encode()

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_clean_and_odd_rows_mixed(self, tmp_path, width):
        rng = np.random.default_rng(width)
        count = 3 * _BLOCK + 17
        columns = [rng.uniform(-5.0, 5.0, count) for _ in range(width)]
        for column in columns:
            rows = rng.choice(count, 60, replace=False)  # odd rows in every block
            column[rows] = rng.choice(self.ODD, len(rows))
        header = [f"c{k}" for k in range(width)]
        path = tmp_path / "curve.csv"
        write_curves_csv(path, header, *columns)
        assert path.read_text(encoding="utf-8") == repr_csv(header, columns)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("side", [-1, 0])
    def test_one_odd_row_at_each_block_edge(self, tmp_path, width, side):
        """One odd row, the last of a block (side -1) or the first of the
        next (side 0); every other row is clean."""
        count = 2 * _BLOCK + 1
        header = [f"c{k}" for k in range(width)]
        for odd in self.ODD:
            columns = [np.linspace(0.25, 0.75, count) + k for k in range(width)]
            for edge in (_BLOCK, 2 * _BLOCK):
                columns[-1][edge + side] = odd
            path = tmp_path / "curve.csv"
            write_curves_csv(path, header, *columns)
            assert path.read_text(encoding="utf-8") == repr_csv(header, columns), odd

    def test_curves_shorter_and_longer_than_a_block(self, tmp_path):
        for count in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1):
            columns = [np.full(count, 1e16), np.full(count, 0.5)]
            columns[0][::2] = 0.125
            path = tmp_path / "curve.csv"
            write_curves_csv(path, ("x", "y"), *columns)
            assert path.read_text(encoding="utf-8") == repr_csv(("x", "y"), columns), count
