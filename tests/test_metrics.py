import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proben import (
    BBox,
    ClassScores,
    Detection,
    GroundTruth,
    average_precision,
    breakdown,
    iou,
    lamr,
    match,
    match_all,
)
from proben import metrics
from proben.metrics import FP, IGNORED, TP, REFERENCE_FPPI


def det(image_id, box, p, det_id, posteriors=None):
    scores = (
        ClassScores.from_posteriors(posteriors)
        if posteriors is not None
        else ClassScores.from_posteriors([1.0 - p, p])
    )
    return Detection(image_id, "rgb", box, scores, det_id=det_id)


def gt(image_id, box, class_id=1, ignore=False):
    return GroundTruth(image_id, box, class_id, ignore=ignore)


B = BBox(0, 0, 10, 20)
B_FAR = BBox(100, 100, 10, 20)


def ap_oracle(records, npos):
    """All-point AP via explicit interpolation at every reachable recall level.

    records: (score, is_tp) pairs; integrates max-precision-at-recall>=r over
    the recall grid k/npos. Independent of the envelope/cumsum implementation.
    """
    ordered = sorted(records, key=lambda r: -r[0])
    points = []
    tp = fp = 0
    for _, is_tp in ordered:
        tp, fp = tp + is_tp, fp + (not is_tp)
        points.append((tp / npos, tp / (tp + fp)))
    total = 0.0
    for k in range(1, npos + 1):
        r = k / npos
        candidates = [p for rec, p in points if rec >= r - 1e-12]
        total += max(candidates) if candidates else 0.0
    return total / npos


def lamr_oracle(records, npos, image_count):
    """Recompute FP/miss from scratch at every distinct score threshold."""
    scores = sorted({s for s, _ in records}, reverse=True)
    curve = []
    for threshold in scores:
        kept = [(s, t) for s, t in records if s >= threshold]
        fp = sum(1 for _, t in kept if not t)
        tp = sum(1 for _, t in kept if t)
        curve.append((fp / image_count, 1.0 - tp / npos))
    sampled = []
    for ref in REFERENCE_FPPI:
        under = [m for f, m in curve if f <= ref]
        if not curve:
            value = 1.0
        elif under:
            value = under[-1]
        else:
            value = curve[-1][1]
        sampled.append(max(value, 1e-10))
    return math.exp(sum(math.log(v) for v in sampled) / len(sampled))


class TestMatch:
    def test_single_tp(self):
        result = match([det("i", B, 0.9, 0)], [gt("i", B)])
        assert result.label.tolist() == [TP]
        assert result.num_gt == {1: 1}

    def test_double_detection_second_is_fp(self):
        dets = [det("i", B, 0.9, 0), det("i", BBox(1, 1, 10, 20), 0.8, 1)]
        result = match(dets, [gt("i", B)])
        assert result.label.tolist() == [TP, FP]

    def test_ignored_gt_absorbs_detection(self):
        result = match([det("i", B, 0.9, 0)], [gt("i", B, ignore=True)])
        assert result.label.tolist() == [IGNORED]
        assert result.num_gt == {}

    def test_prefers_real_gt_over_ignored(self):
        gts = [gt("i", B, ignore=True), gt("i", BBox(0.5, 0.5, 10, 20))]
        result = match([det("i", B, 0.9, 0)], gts)
        assert result.label.tolist() == [TP]

    def test_class_mismatch_is_fp(self):
        d = det("i", B, 0.9, 0, posteriors=[0.05, 0.9, 0.05])
        result = match([d], [gt("i", B, class_id=2)])
        assert result.label.tolist() == [FP]

    def test_takes_highest_iou_gt(self):
        near = gt("i", BBox(0.2, 0.2, 10, 20))
        far = gt("i", BBox(4, 4, 10, 20))
        result = match([det("i", B, 0.9, 0), det("i", BBox(4, 4, 10, 20), 0.8, 1)], [far, near])
        assert result.label.tolist() == [TP, TP]

    def test_below_threshold_is_fp(self):
        result = match([det("i", B_FAR, 0.9, 0)], [gt("i", B)])
        assert result.label.tolist() == [FP]

    def test_strictly_greater_than_threshold(self):
        # two unit boxes overlapping exactly half: IoU = 1/3, not > 1/3
        a = BBox(0, 0, 2, 1)
        result = match([det("i", a, 0.9, 0)], [gt("i", BBox(1, 0, 2, 1))], iou_threshold=1 / 3)
        assert result.label.tolist() == [FP]


class TestAveragePrecision:
    def test_single_tp_no_fp(self):
        result = match_all([det("i", B, 0.9, 0)], [gt("i", B)])
        assert average_precision(result, 1) == 1.0

    def test_fp_above_tp_halves_ap(self):
        dets = [det("i", B_FAR, 0.9, 0), det("i", B, 0.8, 1)]
        result = match_all(dets, [gt("i", B)])
        assert average_precision(result, 1) == pytest.approx(0.5)

    def test_no_gt_returns_none_silently(self):
        result = match_all([det("i", B, 0.9, 0)], [gt("i", B)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert average_precision(result, 2) is None

    def test_no_detections_gives_zero(self):
        result = match_all([], [gt("i", B)])
        assert average_precision(result, 1) == 0.0

    def test_matches_enumeration_oracle_on_random_instances(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n_gt = int(rng.integers(1, 11))
            n_det = int(rng.integers(0, 21))
            gts, dets, det_id = [], [], 0
            for j in range(n_gt):
                gts.append(gt(f"im{j % 3}", BBox(20 * j, 0, 10, 20)))
            for _ in range(n_det):
                j = int(rng.integers(0, n_gt))
                hit = rng.random() < 0.6
                box = (
                    BBox(20 * j + rng.uniform(-2, 2), rng.uniform(-2, 2), 10, 20)
                    if hit
                    else BBox(1000 + rng.uniform(0, 500), 500, 10, 20)
                )
                dets.append(det(f"im{j % 3}", box, float(rng.uniform(0.05, 0.95)), det_id))
                det_id += 1
            result = match_all(dets, gts)
            got = average_precision(result, 1)
            records = [
                (score, label == TP)
                for score, label in zip(result.score.tolist(), result.label.tolist())
                if label != IGNORED
            ]
            want = ap_oracle(records, n_gt)
            assert got == pytest.approx(want, abs=1e-9), f"seed {seed}"


def loop_envelope_ap(recall, precision):
    """All-point AP with the precision envelope filled by a backward loop."""
    if len(recall) == 0:
        return 0.0
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    idx = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


# few distinct values, so that ties and zeros are common
PR_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestApEnvelope:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(PR_VALUES, PR_VALUES), max_size=40))
    @example([])
    @example([(0.0, 0.0), (0.0, 0.0)])
    @example([(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 0.5)])
    def test_equals_the_backward_loop(self, points):
        recall = np.sort(np.array([r for r, _ in points], dtype=float))
        precision = np.array([p for _, p in points], dtype=float)
        assert metrics._ap_from_points(recall, precision) == loop_envelope_ap(recall, precision)


class TestLamr:
    def test_perfect_detector_floors_to_zero(self):
        dets = [det(f"im{j}", B, 0.9, j) for j in range(3)]
        gts = [gt(f"im{j}", B) for j in range(3)]
        result = match_all(dets, gts)
        assert round(lamr(result, 3), 4) == 0.0

    def test_constant_miss_rate_is_identity(self):
        # 1 of 2 GTs found, zero FPs: miss rate 0.5 across all nine points
        dets = [det("im0", B, 0.9, 0)]
        gts = [gt("im0", B), gt("im0", B_FAR)]
        result = match_all(dets, gts)
        assert lamr(result, 1) == pytest.approx(0.5, abs=1e-12)

    def test_empty_detections_misses_everything(self):
        result = match_all([], [gt("im0", B)])
        assert lamr(result, 1) == 1.0

    def test_hand_enumerable_three_image_scenario(self):
        gts = [gt("a", B), gt("b", B), gt("c", B)]
        dets = [
            det("a", B, 0.95, 0),  # TP
            det("b", B_FAR, 0.90, 1),  # FP
            det("b", B, 0.85, 2),  # TP
            det("c", B_FAR, 0.40, 3),  # FP
        ]
        result = match_all(dets, gts)
        got = lamr(result, 3)
        records = [
            (score, label == TP)
            for score, label in zip(result.score.tolist(), result.label.tolist())
        ]
        want = lamr_oracle(records, 3, 3)
        assert got == pytest.approx(want, abs=1e-9)
        # threshold sweep by hand: fppi 0, 1/3, 1/3, 2/3; miss 2/3, 2/3, 1/3, 1/3
        # refs < 1/3 take the fppi-0 point (miss 2/3), refs >= 1/3 take miss 1/3,
        # ref 1.0 takes the loosest point (miss 1/3)
        n_below = sum(1 for r in REFERENCE_FPPI if r < 1 / 3)
        expected = math.exp((n_below * math.log(2 / 3) + (9 - n_below) * math.log(1 / 3)) / 9)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_matches_enumeration_oracle_on_random_instances(self):
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            n_gt = int(rng.integers(1, 11))
            n_det = int(rng.integers(0, 21))
            n_img = int(rng.integers(1, 5))
            gts = [gt(f"im{j % n_img}", BBox(25 * j, 0, 10, 20)) for j in range(n_gt)]
            dets = []
            for i in range(n_det):
                j = int(rng.integers(0, n_gt))
                hit = rng.random() < 0.5
                box = (
                    BBox(25 * j + rng.uniform(-2, 2), rng.uniform(-2, 2), 10, 20)
                    if hit
                    else BBox(2000 + rng.uniform(0, 500), 500, 10, 20)
                )
                dets.append(det(f"im{j % n_img}", box, float(rng.uniform(0.05, 0.95)), i))
            result = match_all(dets, gts, image_ids=[f"im{k}" for k in range(n_img)])
            got = lamr(result, n_img)
            records = [
                (score, label == TP)
                for score, label in zip(result.score.tolist(), result.label.tolist())
                if label != IGNORED
            ]
            want = lamr_oracle(records, n_gt, n_img)
            assert got == pytest.approx(want, abs=1e-9), f"seed {seed}"


class TestMetricInvariances:
    def _random_instance(self, seed):
        rng = np.random.default_rng(seed)
        gts = [gt(f"im{j % 2}", BBox(30 * j, 0, 10, 20)) for j in range(4)]
        dets = []
        for i in range(12):
            j = int(rng.integers(0, 4))
            hit = rng.random() < 0.5
            box = (
                BBox(30 * j + rng.uniform(-1, 1), rng.uniform(-1, 1), 10, 20)
                if hit
                else BBox(900 + 40 * i, 300, 10, 20)
            )
            dets.append(det(f"im{j % 2}", box, float(rng.uniform(0.1, 0.9)), i))
        return dets, gts

    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_rescaling_leaves_metrics_unchanged(self, seed):
        dets, gts = self._random_instance(seed)
        result = match_all(dets, gts)

        def squash(p):  # strictly increasing map on (0, 1)
            return p ** 3 / (p ** 3 + (1 - p) ** 3)

        rescaled = [
            det(d.image_id, d.box, squash(d.score), d.det_id) for d in dets
        ]
        result2 = match_all(rescaled, gts)
        assert average_precision(result, 1) == average_precision(result2, 1)
        assert lamr(result, 2) == lamr(result2, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_extra_fp_never_increases_ap(self, seed):
        dets, gts = self._random_instance(seed)
        base = average_precision(match_all(dets, gts), 1)
        extra = dets + [det("im0", BBox(5000, 5000, 10, 20), 0.99, 999)]
        worse = average_precision(match_all(extra, gts), 1)
        assert worse <= base + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_metrics_in_unit_interval(self, seed):
        dets, gts = self._random_instance(seed)
        result = match_all(dets, gts)
        assert 0.0 <= average_precision(result, 1) <= 1.0
        assert 0.0 <= lamr(result, 2) <= 1.0


class TestBreakdown:
    def _dataset(self):
        gts = [gt("d0", B), gt("d1", B), gt("n0", B)]
        dets = [det("d0", B, 0.9, 0), det("n0", B, 0.8, 1), det("n0", B_FAR, 0.7, 2)]
        tags = {"d0": "day", "d1": "day", "n0": "night"}
        return dets, gts, tags

    def test_all_day_equals_all(self):
        dets, gts, _ = self._dataset()
        tags = {"d0": "day", "d1": "day", "n0": "day"}
        report = breakdown(dets, gts, tags)
        assert report.subsets["day"].lamr == report.subsets["all"].lamr
        assert report.subsets["day"].ap == report.subsets["all"].ap

    def test_counts_partition_across_tags(self):
        dets, gts, tags = self._dataset()
        report = breakdown(dets, gts, tags)
        day, night, full = report.subsets["day"], report.subsets["night"], report.subsets["all"]
        assert day.tp + night.tp == full.tp
        assert day.fp + night.fp == full.fp

    def test_untagged_images_count_only_in_all(self):
        dets, gts, tags = self._dataset()
        del tags["d1"]
        report = breakdown(dets, gts, tags)
        assert report.subsets["all"].num_images == 3
        assert report.subsets["day"].num_images == 1

    def test_no_tags_give_only_all_and_unknown_image_tag_forms_subset(self):
        dets, gts, _ = self._dataset()
        report = breakdown(dets, gts, {})
        assert "night" not in report.subsets  # no tags at all: only 'all'
        # a tag pointing at no known image is still a subset with that image
        report2 = breakdown(dets, gts, {"extra": "night"})
        assert report2.subsets["night"].num_images == 1

    def test_report_serializes(self):
        dets, gts, tags = self._dataset()
        report = breakdown(dets, gts, tags, class_names=["person"])
        payload = report.to_dict()
        assert set(payload["subsets"]) == {"all", "day", "night"}
        text = report.to_text()
        assert "AP[person]" in text


def subset_reference(dets, gts, ids, num_classes):
    """A subset evaluated the way breakdown did before matching once: its own
    match_all over its images, then AP, LAMR and both curves from the result."""
    id_set = set(ids)
    result = match_all(
        [d for d in dets if d.image_id in id_set],
        [g for g in gts if g.image_id in id_set],
        0.5,
        image_ids=ids,
    )
    ap = {c: average_precision(result, c) for c in range(1, num_classes + 1)}
    pr_curves = {}
    for c in range(1, num_classes + 1):
        recall, precision, _ = metrics._pr_points(result, c)
        pr_curves[c] = (list(recall), list(precision))
    if sum(result.num_gt.values()) > 0:
        fppi, miss = metrics._miss_fppi_curve(result, len(ids))
        lamr_value, miss_curve = lamr(result, len(ids)), (list(fppi), list(miss))
    else:
        lamr_value, miss_curve = None, ([], [])
    labels = result.label.tolist()
    return {
        "num_images": len(ids),
        "num_gt": result.num_gt,
        "ap": ap,
        "lamr": lamr_value,
        "tp": labels.count(TP),
        "fp": labels.count(FP),
        "pr_curves": pr_curves,
        "miss_curve": miss_curve,
    }


class TestBreakdownMatchesOnce:
    """Each subset of breakdown, built from one pooled match, equals a subset
    matched on its own."""

    def _dataset(self, seed):
        rng = np.random.default_rng(seed)
        images = [f"im{i:02d}" for i in range(14)]
        gts, dets = [], []
        for image in images[:11]:
            for j in range(int(rng.integers(0, 4))):
                box = BBox(40.0 * j, 0, 10, 20)
                gts.append(gt(image, box, int(rng.integers(1, 4)), ignore=rng.random() < 0.2))
        for i in range(70):
            image = images[int(rng.integers(0, 12))]
            j = int(rng.integers(0, 4))
            box = BBox(40.0 * j + rng.uniform(-2, 2), rng.uniform(-2, 2), 10, 20)
            p = np.full(4, 0.05)
            p[int(rng.integers(1, 4))] = 0.85
            p[0] = rng.choice([0.05, 0.25, 0.45])  # few distinct scores: ties
            # det_ids repeat across images, so ties fall back on image order
            dets.append(det(image, box, None, i % 9, posteriors=p / p.sum()))
        tags = {}
        for image in images:
            tag = rng.choice(["day", "night", None])
            if tag is not None:
                tags[image] = str(tag)
        tags["im13"] = "dusk"  # a tag whose one image holds nothing
        return dets, gts, tags

    @pytest.mark.parametrize("seed", range(8))
    def test_every_subset_equals_its_own_match(self, seed):
        dets, gts, tags = self._dataset(seed)
        report = breakdown(dets, gts, tags, num_classes=3, image_ids=["extra"])
        all_ids = sorted({d.image_id for d in dets} | {g.image_id for g in gts} | set(tags) | {"extra"})
        assert any(i not in tags for i in all_ids)  # untagged images
        assert set(report.subsets) == {"all"} | set(tags.values())
        for key, subset in report.subsets.items():
            ids = all_ids if key == "all" else [i for i in all_ids if tags.get(i) == key]
            want = subset_reference(dets, gts, ids, 3)
            got = {name: getattr(subset, name) for name in want}
            got["pr_curves"] = {
                c: (recall.tolist(), precision.tolist())
                for c, (recall, precision) in subset.pr_curves.items()
            }
            got["miss_curve"] = tuple(curve.tolist() for curve in subset.miss_curve)
            assert got == want, key

    def test_match_all_called_once(self, monkeypatch):
        dets, gts, tags = self._dataset(0)
        calls = []
        original = metrics.match_all
        monkeypatch.setattr(
            metrics, "match_all", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        breakdown(dets, gts, tags, num_classes=3)
        assert len(calls) == 1


def pooled_rows(result):
    """(score, class id, label, det id, image id) of each row of result."""
    image_id = result.image_ids[result.image]
    columns = (result.score, result.class_id, result.label, result.det_id, image_id)
    return list(zip(*(column.tolist() for column in columns)))


def brute_force_match(dets, gts, iou_threshold, image_ids):
    """Per image in image_ids order: visit the image's detections in
    sort-key order and let each claim the best unmatched real ground truth of
    its class, one pair at a time; then pool with a stable sort. Returns the
    pooled rows and the GT counts."""
    rows, num_gt = [], {}
    for image_id in image_ids:
        image_gts = [g for g in gts if g.image_id == image_id]
        matched = set()
        for d in sorted((d for d in dets if d.image_id == image_id), key=lambda d: d.sort_key):
            best, best_j = iou_threshold, -1
            for j, g in enumerate(image_gts):
                if g.ignore or j in matched or g.class_id != d.class_id:
                    continue
                value = iou(d.box, g.box)
                if value > best:
                    best, best_j = value, j
            if best_j >= 0:
                matched.add(best_j)
                label = TP
            elif any(g.ignore and iou(d.box, g.box) > iou_threshold for g in image_gts):
                label = IGNORED
            else:
                label = FP
            rows.append((d.score, d.class_id, label, d.det_id, image_id))
        for g in image_gts:
            if not g.ignore:
                num_gt[g.class_id] = num_gt.get(g.class_id, 0) + 1
    rows.sort(key=lambda r: (-r[0], r[1], r[3]))
    return rows, num_gt


IMAGES = ["a", "b", "c"]
# few distinct positions, scores and det_ids, so overlaps and ties are common
grid_box = st.builds(
    lambda col, dx, dy: BBox(40.0 * col + dx, dy, 10, 20),
    st.integers(0, 2),
    st.sampled_from([0.0, 0.5, 1.5, 3.0, 6.0]),
    st.sampled_from([0.0, 2.0, 5.0]),
)


def three_class_det(image_id, box, class_id, p, det_id):
    posteriors = np.full(4, 0.05)
    posteriors[class_id] = p
    posteriors[0] = 1.0 - p - 0.1
    return det(image_id, box, None, det_id, posteriors=posteriors)


class TestColumnMatcher:
    """match_all and match (one vectorised IoU pass, then the greedy claims)
    must equal the per-image, pair-by-pair greedy matcher."""

    @settings(max_examples=300, deadline=None)
    @given(
        dets=st.lists(
            st.builds(
                three_class_det,
                st.sampled_from(IMAGES + ["outside"]),  # "outside" is not evaluated
                grid_box,
                st.integers(1, 3),
                st.sampled_from([0.5, 0.6, 0.7]),
                st.integers(0, 3),
            ),
            max_size=25,
        ),
        gts=st.lists(
            st.builds(gt, st.sampled_from(IMAGES + ["outside"]), grid_box, st.integers(1, 3),
                      st.booleans()),
            max_size=12,
        ),
        image_ids=st.permutations(IMAGES),
        iou_threshold=st.sampled_from([0.3, 0.5, 0.7]),
    )
    # The first detection overlaps both ground truths equally and must claim
    # the earlier one, leaving the later one to the second detection.
    @example(
        dets=[
            three_class_det("a", BBox(3, 0, 10, 20), 1, 0.7, 0),
            three_class_det("a", BBox(6, 0, 10, 20), 1, 0.6, 1),
        ],
        gts=[gt("a", BBox(0, 0, 10, 20)), gt("a", BBox(6, 0, 10, 20))],
        image_ids=IMAGES,
        iou_threshold=0.3,
    )
    def test_equals_brute_force(self, dets, gts, image_ids, iou_threshold):
        result = match_all(dets, gts, iou_threshold, image_ids=image_ids)
        rows, num_gt = brute_force_match(dets, gts, iou_threshold, image_ids)
        got = pooled_rows(result)
        assert got == rows
        assert result.num_gt == num_gt
        assert result.num_images == len(image_ids)

        one = match(
            [d for d in dets if d.image_id == "a"],
            [g for g in gts if g.image_id == "a"],
            iou_threshold,
        )
        rows, num_gt = brute_force_match(dets, gts, iou_threshold, ["a"])
        got = pooled_rows(one)
        assert got == rows
        assert (one.num_gt, one.num_images) == (num_gt, 1)


    def test_labels_are_integer_codes(self):
        dets = [
            three_class_det("a", B, 1, 0.7, 0),
            three_class_det("a", BBox(1, 0, 10, 20), 1, 0.7, 1),  # tied score
            three_class_det("b", B_FAR, 2, 0.6, 2),  # on an ignored ground truth
            three_class_det("b", B, 2, 0.6, 3),  # tied again; no ground truth here
        ]
        gts = [gt("a", B), gt("b", B_FAR, class_id=2, ignore=True)]
        result = match_all(dets, gts, 0.5, image_ids=IMAGES)
        assert result.label.dtype.kind == "i"
        codes = dict(zip(["TP", "FP", "IGNORED"], [TP, FP, IGNORED]))
        assert result.label.tolist() == [codes[s] for s in ["TP", "FP", "IGNORED", "FP"]]

    def test_merge_offsets_image_indices(self):
        dets = [
            three_class_det("a", B, 1, 0.7, 0),
            three_class_det("b", B, 1, 0.6, 1),
            three_class_det("c", B_FAR, 2, 0.5, 2),
        ]
        gts = [gt("a", B), gt("c", B, class_id=2)]
        first = match_all(dets, gts, 0.5, image_ids=["a", "b"])
        second = match_all(dets, gts, 0.5, image_ids=["c"])
        want = pooled_rows(first) + pooled_rows(second)
        first.merge(second)
        assert pooled_rows(first) == want
        assert first.image_ids[first.image].tolist() == ["a", "b", "c"]
        assert (first.num_gt, first.num_images) == ({1: 1, 2: 1}, 3)
