"""Hand-worked cases for the benchmark's reference computations and span arithmetic.

    python3 -m pytest perfbench/test_reference.py
"""

import math
from collections import Counter

import pytest

import reference
from reference import FP, IGNORED, TP, Truth
from tracing import phase_metrics, span_times
from workloads import grid_values


def det(modality, posteriors, box=(0.0, 0.0, 10.0, 20.0), variance=1.0, det_id=0,
        image_id="img"):
    return reference.det_from_record(
        {"image_id": image_id, "modality": modality, "bbox": list(box),
         "posteriors": list(posteriors), "box_variance": variance},
        det_id,
    )


class TestScores:
    def test_logits_record_is_softmaxed(self):
        d = reference.det_from_record(
            {"image_id": "i", "modality": "rgb", "bbox": [0, 0, 1, 1],
             "logits": [0.0, math.log(3)]},
            0,
        )
        assert d.posteriors == pytest.approx((0.25, 0.75), abs=1e-15)
        assert d.score == pytest.approx(0.75) and d.class_id == 1

    def test_foreground_ties_go_to_the_lower_class(self):
        assert det("rgb", [0.2, 0.4, 0.4]).class_id == 1

    def test_calibration_divides_logits_and_shifts_foreground(self):
        d = reference.det_from_record(
            {"image_id": "i", "modality": "rgb", "bbox": [0, 0, 1, 1], "logits": [0.0, 2.0]}, 0
        )
        assert d.calibrated(2.0, 0.0).score == pytest.approx(math.e / (1 + math.e))
        assert d.calibrated(1.0, -2.0).score == pytest.approx(0.5)


class TestIou:
    def test_identical_boxes(self):
        assert reference.iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_touching_boxes_score_zero(self):
        assert reference.iou((0, 0, 1, 1), (1, 0, 1, 1)) == 0.0

    def test_half_shifted_box(self):
        assert reference.iou((0, 0, 2, 1), (1, 0, 2, 1)) == pytest.approx(1 / 3)


class TestFuse:
    def test_two_modalities_agreeing(self):
        # 0.8 * 0.7 / 0.5 against 0.2 * 0.3 / 0.5: 0.56 / 0.62
        fused = reference.fuse([det("rgb", [0.2, 0.8]), det("thermal", [0.3, 0.7], det_id=1)])
        assert len(fused) == 1
        assert fused[0].score == pytest.approx(0.9032258064516129, abs=1e-12)
        assert fused[0].modality == "rgb+thermal" and fused[0].det_id == 0

    def test_singleton_keeps_its_posterior(self):
        (fused,) = reference.fuse([det("rgb", [0.35, 0.65])])
        assert fused.posteriors == pytest.approx((0.35, 0.65), abs=1e-15)
        assert fused.box == (0.0, 0.0, 10.0, 20.0) and fused.variance == 1.0

    def test_best_member_per_modality_only(self):
        fused = reference.fuse([det("rgb", [0.2, 0.8]), det("rgb", [0.1, 0.9], det_id=1)])
        assert len(fused) == 1 and fused[0].score == pytest.approx(0.9)
        assert fused[0].det_id == 1 and fused[0].members == 1

    def test_prior_term_with_three_modalities(self):
        # uniform prior over 2 classes: p = prod(p_m) / prior^2, renormalised
        fused = reference.fuse([det("a", [0.4, 0.6]), det("b", [0.4, 0.6], det_id=1),
                                det("c", [0.4, 0.6], det_id=2)])
        assert fused[0].score == pytest.approx(0.6 ** 3 / (0.6 ** 3 + 0.4 ** 3))

    def test_inverse_variance_box_average(self):
        fused = reference.fuse([
            det("rgb", [0.2, 0.8], box=(0, 0, 10, 10), variance=1.0),
            det("thermal", [0.3, 0.7], box=(1, 1, 10, 10), variance=3.0, det_id=1),
        ])
        # weights 1 and 1/3: x = (0 * 1 + 1 * 1/3) / (4/3)
        assert fused[0].box == pytest.approx((0.25, 0.25, 10.0, 10.0))
        assert fused[0].variance == pytest.approx(0.75)

    def test_other_class_or_far_box_starts_its_own_cluster(self):
        fused = reference.fuse([
            det("rgb", [0.1, 0.7, 0.2]),
            det("thermal", [0.1, 0.2, 0.7], det_id=1),
            det("thermal", [0.2, 0.8, 0.0001], box=(100, 100, 10, 20), det_id=2),
        ])
        assert [f.class_id for f in fused] == [1, 1, 2]
        assert [f.members for f in fused] == [1, 1, 1]


class TestEvaluation:
    def test_matcher_labels(self):
        truths = [Truth("i", (0, 0, 10, 20), 1, False), Truth("i", (50, 0, 10, 20), 1, True)]
        dets = [det("f", [0.1, 0.9]), det("f", [0.2, 0.8], det_id=1),
                det("f", [0.3, 0.7], box=(50, 0, 10, 20), det_id=2),
                det("f", [0.4, 0.6], box=(200, 0, 10, 20), det_id=3)]
        labels = reference.match_image(dets, truths, 0.5)
        assert [lab for _, _, lab in labels] == [TP, FP, IGNORED, FP]

    def test_ap_at_recall_levels(self):
        # precision 1 reaches recall 1/2, 2/3 reaches recall 1
        ap = reference.ap_oracle([(0.9, True), (0.8, False), (0.7, True)], npos=2)
        assert ap == pytest.approx((1.0 + 2 / 3) / 2)

    def test_ap_without_truth_or_detections(self):
        assert reference.ap_oracle([], npos=0) is None
        assert reference.ap_oracle([], npos=3) == 0.0

    def test_lamr_threshold_sweep(self):
        # fppi 0, 1/3, 1/3, 2/3 and miss 2/3, 2/3, 1/3, 1/3: seven references
        # below 1/3 see miss 2/3, the two above see 1/3
        records = [(0.9, True), (0.8, False), (0.7, True), (0.6, False)]
        expected = math.exp((7 * math.log(2 / 3) + 2 * math.log(1 / 3)) / 9)
        assert reference.lamr_oracle(records, npos=3, image_count=3) == pytest.approx(expected)

    def test_lamr_when_even_the_strictest_threshold_overshoots(self):
        assert reference.lamr_oracle([(0.9, False), (0.5, True)], npos=2, image_count=1) == 0.5
        assert reference.lamr_oracle([], npos=2, image_count=1) == 1.0

    def test_subset_summary(self):
        truths = [Truth("a", (0, 0, 10, 20), 1, False), Truth("b", (0, 0, 10, 20), 1, False)]
        dets = [det("f", [0.1, 0.9], image_id="a"), det("f", [0.2, 0.8], image_id="b", det_id=1),
                det("f", [0.3, 0.7], image_id="b", det_id=2)]
        labels = reference.label_images(dets, truths, ["a", "b", "c"])
        summary = reference.subset_summary(labels, truths, ["a", "b", "c"], num_classes=2)
        assert summary["num_images"] == 3 and summary["num_gt"] == {1: 2}
        assert (summary["tp"], summary["fp"]) == (2, 1)
        assert summary["ap"] == {1: 1.0, 2: None} and summary["mean_ap"] == 1.0


def test_grid_values_match_linspace_endpoints():
    assert grid_values("1:4:4") == [1.0, 2.0, 3.0, 4.0]
    assert grid_values("0:0:1") == [0.0]


def test_self_time_and_outermost_totals():
    spans = [
        ("cmd", 0.0, 10.0, -1),
        ("io", 1.0, 4.0, 0),
        ("metrics.ap_lamr", 5.0, 8.0, 0),
        ("metrics.ap_lamr", 6.0, 7.0, 2),  # nested call of the same layer
    ]
    total, own = span_times(spans)
    assert (total["cmd"], own["cmd"]) == (10.0, 4.0)
    assert (total["metrics.ap_lamr"], own["metrics.ap_lamr"]) == (3.0, 3.0)
    out = phase_metrics(spans, Counter({"engine.images": 3}))
    assert out["metrics.ap_lamr_s"] == 3.0
    assert out["engine.images"] == 3 and out["box_fusion.calls"] == 0
