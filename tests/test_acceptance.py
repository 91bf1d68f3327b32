"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line (straight to the terminal, past
pytest's capture) so the eight headline guarantees can be audited at a
glance. Shared heavy fixtures (the 2000-image scenario) are computed once
per session.
"""

import dataclasses
import time

import numpy as np
import pytest

from proben import (
    BBox,
    ClassPrior,
    ClassScores,
    Detection,
    FusionConfig,
    GroundTruth,
    average_precision,
    convex_combination,
    fuse,
    fuse_all,
    fuse_avg_posteriors,
    fuse_max,
    fuse_proben,
    generate,
    iou,
    kaist_like_spec,
    lamr,
    match_all,
    pool,
)
from proben.calibrate import GridSpec, grid_search

from test_engine import greedy_nms_oracle, random_detections
from test_metrics import ap_oracle, lamr_oracle
from proben.metrics import IGNORED, TP

MARGIN = 0.002


def announce(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def binary(p):
    return ClassScores.from_posteriors([1.0 - p, p])


@pytest.fixture(scope="session")
def scenario_results():
    """Fuse + evaluate the seeded two-modality scenario under every mode."""
    t0 = time.time()
    dataset = generate(kaist_like_spec(seed=0, image_count=2000))
    sets = [dataset.detections[m] for m in sorted(dataset.detections)]
    image_ids = sorted(dataset.tags)

    def evaluate(dets):
        result = match_all(dets, dataset.ground_truths, 0.5, image_ids=image_ids)
        return lamr(result, len(image_ids)), average_precision(result, 1)

    results = {"pooling": evaluate(pool(sets))}
    for mode in ("max", "avg-posteriors", "avg-logits", "proben"):
        config = FusionConfig(score_fusion=mode, box_fusion="argmax")
        results[mode] = evaluate(fuse_all(sets, config))
    results["proben+v-avg"] = evaluate(
        fuse_all(sets, FusionConfig(score_fusion="proben", box_fusion="v-avg"))
    )
    results["elapsed"] = time.time() - t0
    return results


class TestCriterion1WorkedBinaryCluster:
    def test_avg_and_product_fusion_values(self, capsys):
        members = [binary(0.80), binary(0.70)]
        avg = fuse_avg_posteriors(members).posteriors[1]
        product = fuse_proben(members, ClassPrior.uniform(1), m_effective=2).posteriors[1]
        ok = abs(avg - 0.75) < 5e-3 and abs(product - 0.9032) < 5e-3
        announce(capsys, 1, ok, f"avg-posteriors={avg:.4f} proben={product:.7f}")


class TestCriterion2ScoreLandscape:
    def test_relative_logit_pairs(self, capsys):
        def pair(s1, s2):
            return [ClassScores.from_logits([0.0, s1]), ClassScores.from_logits([0.0, s2])]

        prior = ClassPrior.uniform(1)
        nms_3 = fuse_max(pair(3.0, -3.0)).posteriors[1]
        proben_3 = fuse_proben(pair(3.0, -3.0), prior, 2).posteriors[1]
        nms_44 = fuse_max(pair(4.0, 4.0)).posteriors[1]
        proben_44 = fuse_proben(pair(4.0, 4.0), prior, 2).posteriors[1]
        ok = (
            abs(nms_3 - 0.9526) < 1e-3
            and proben_3 == 0.5
            and proben_44 > nms_44
        )
        announce(
            capsys, 2, ok,
            f"nms(3,-3)={nms_3:.4f} proben(3,-3)={float(proben_3)!r} "
            f"proben(4,4)={proben_44:.5f} > nms(4,4)={nms_44:.5f}",
        )


class TestCriterion3ProductSoftmaxIdentity:
    def test_thousand_random_clusters(self, capsys):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            members = [
                ClassScores.from_logits(rng.normal(0.0, 3.0, size=k + 1)) for _ in range(m)
            ]
            got = fuse_proben(members, ClassPrior.uniform(k), m_effective=m).posteriors
            summed = np.sum([s.logits for s in members], axis=0)
            want = np.exp(summed - summed.max())
            want /= want.sum()
            worst = max(worst, float(np.max(np.abs(got - want))))
        ok = worst < 1e-9
        announce(capsys, 3, ok, f"max |product-form - softmax-form| = {worst:.2e} over 1000 clusters")


class TestCriterion4OracleEquivalence:
    def test_nms_ap_lamr_oracles(self, capsys):
        t0 = time.time()
        nms_ok = True
        for seed in range(200):
            rng = np.random.default_rng(seed)
            dets = random_detections(rng, int(rng.integers(1, 21)))
            got = fuse([dets], FusionConfig(score_fusion="max", iou_threshold=0.5))
            want = greedy_nms_oracle(dets, 0.5)
            if [d.det_id for d in got] != [d.det_id for d in want]:
                nms_ok = False
                break

        def random_eval_instance(rng):
            n_gt = int(rng.integers(1, 11))
            n_det = int(rng.integers(0, 21))
            n_img = int(rng.integers(1, 5))
            gts = [
                GroundTruth(f"im{j % n_img}", BBox(25 * j, 0, 10, 20), 1) for j in range(n_gt)
            ]
            dets = []
            for i in range(n_det):
                j = int(rng.integers(0, n_gt))
                if rng.random() < 0.5:
                    box = BBox(25 * j + rng.uniform(-2, 2), rng.uniform(-2, 2), 10, 20)
                else:
                    box = BBox(2000 + rng.uniform(0, 500), 500, 10, 20)
                dets.append(
                    Detection(f"im{j % n_img}", "rgb", box, binary(float(rng.uniform(0.05, 0.95))), det_id=i)
                )
            return gts, dets, n_gt, n_img

        ap_worst = lamr_worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng(10_000 + seed)
            gts, dets, n_gt, n_img = random_eval_instance(rng)
            result = match_all(dets, gts, 0.5, image_ids=[f"im{k}" for k in range(n_img)])
            records = [
                (score, label == TP)
                for score, label in zip(result.score.tolist(), result.label.tolist())
                if label != IGNORED
            ]
            ap_worst = max(ap_worst, abs(average_precision(result, 1) - ap_oracle(records, n_gt)))
            lamr_worst = max(
                lamr_worst, abs(lamr(result, n_img) - lamr_oracle(records, n_gt, n_img))
            )
        elapsed = time.time() - t0
        ok = nms_ok and ap_worst < 1e-9 and lamr_worst < 1e-9 and elapsed < 10.0
        announce(
            capsys, 4, ok,
            f"nms exact={nms_ok} |ap err|={ap_worst:.2e} |lamr err|={lamr_worst:.2e} "
            f"in {elapsed:.1f}s over 200+200 seeds",
        )


class TestCriterion5OrderingAtDeskScale:
    def test_method_ordering(self, capsys, scenario_results):
        r = scenario_results
        lamr_of = {k: v[0] for k, v in r.items() if k != "elapsed"}
        ap_of = {k: v[1] for k, v in r.items() if k != "elapsed"}
        fused_modes = ("max", "avg-posteriors", "avg-logits", "proben")
        checks = [
            all(lamr_of["pooling"] > lamr_of[m] + MARGIN for m in fused_modes),
            all(ap_of["pooling"] < ap_of[m] - MARGIN for m in fused_modes),
            lamr_of["avg-posteriors"] > lamr_of["max"] + MARGIN,
            all(lamr_of["proben"] < lamr_of[m] - MARGIN for m in fused_modes if m != "proben"),
            ap_of["proben+v-avg"] >= ap_of["proben"],
            r["elapsed"] < 60.0,
        ]
        summary = " ".join(f"{k}={lamr_of[k]:.4f}" for k in ("pooling", *fused_modes))
        announce(
            capsys, 5, all(checks),
            f"LAMR {summary}; AP v-avg={ap_of['proben+v-avg']:.4f} >= "
            f"argmax={ap_of['proben']:.4f}; {r['elapsed']:.1f}s",
        )


class TestCriterion6MissingModalityRanking:
    def test_proben_not_worse_than_nms(self, capsys, scenario_results):
        proben_lamr = scenario_results["proben"][0]
        nms_lamr = scenario_results["max"][0]
        ok = proben_lamr <= nms_lamr
        announce(capsys, 6, ok, f"proben LAMR {proben_lamr:.4f} <= nms LAMR {nms_lamr:.4f}")


class TestCriterion7CalibrationRecovery:
    def test_grid_recovers_scale_three(self, capsys):
        t0 = time.time()
        dataset = generate(kaist_like_spec(seed=1, image_count=1000))
        rgb = dataset.detections["rgb"]
        miscalibrated = dataclasses.replace(
            rgb, scores=ClassScores.from_logits(rgb.scores.logits * 3.0)
        )
        sets = [miscalibrated, dataset.detections["thermal"]]
        best, surface = grid_search(
            sets,
            dataset.ground_truths,
            modality="rgb",
            t_grid=GridSpec(0.5, 5.0, 19),
            b_grid=GridSpec(0.0, 0.0, 1),
            objective="lamr",
            config=FusionConfig(score_fusion="proben", box_fusion="avg"),
            num_classes=1,
            image_ids=sorted(dataset.tags),
        )
        elapsed = time.time() - t0
        step = (5.0 - 0.5) / 18
        ok = abs(best.temperature - 3.0) <= step + 1e-12 and len(surface) == 19 and elapsed < 60.0
        announce(
            capsys, 7, ok,
            f"recovered T={best.temperature} (true 3.0, step {step}), "
            f"{len(surface)}-point surface, {elapsed:.1f}s",
        )


class TestCriterion8InvariantSpotChecks:
    def test_named_invariants(self, capsys):
        rng = np.random.default_rng(5)
        failures = []

        # box-envelope containment: any weighted average stays inside the hull
        boxes = [
            BBox(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 30), rng.uniform(5, 30))
            for _ in range(4)
        ]
        fusedbox = convex_combination(boxes, list(rng.uniform(0.1, 1.0, size=4)))
        if not (
            min(b.x for b in boxes) <= fusedbox.x <= max(b.x for b in boxes)
            and min(b.y2 for b in boxes) <= fusedbox.y2 <= max(b.y2 for b in boxes)
        ):
            failures.append("box-envelope")

        # permutation invariance + determinism of the fusion engine
        dets = random_detections(rng, 15)
        config = FusionConfig(score_fusion="proben", box_fusion="avg")
        baseline = fuse([dets], config)
        perm = [dets[i] for i in rng.permutation(len(dets))]
        rerun = fuse([perm], config)
        if [d.det_id for d in rerun] != [d.det_id for d in baseline] or any(
            not np.array_equal(a.scores.posteriors, b.scores.posteriors)
            for a, b in zip(rerun, baseline)
        ):
            failures.append("permutation/determinism")

        # monotone rescaling of scores leaves ranking metrics unchanged
        gts = [GroundTruth(f"im{j % 2}", BBox(30 * j, 0, 10, 20), 1) for j in range(4)]
        sample = []
        for i in range(12):
            j = int(rng.integers(0, 4))
            hit = rng.random() < 0.5
            box = (
                BBox(30 * j + rng.uniform(-2, 2), rng.uniform(-2, 2), 10, 20)
                if hit
                else BBox(900 + 40 * i, 300, 10, 20)
            )
            sample.append(
                Detection(f"im{j % 2}", "rgb", box, binary(float(rng.uniform(0.1, 0.9))), det_id=i)
            )
        rescaled = [  # strictly monotone map
            dataclasses.replace(d, scores=binary(float(d.score ** 3))) for d in sample
        ]
        base_result = match_all(sample, gts, 0.5, image_ids=["im0", "im1"])
        new_result = match_all(rescaled, gts, 0.5, image_ids=["im0", "im1"])
        if (
            abs(average_precision(base_result, 1) - average_precision(new_result, 1)) > 1e-12
            or abs(lamr(base_result, 2) - lamr(new_result, 2)) > 1e-12
        ):
            failures.append("monotone-rescaling")

        # v-avg limit: as one member's variance shrinks, the fused box converges to it
        sharp = Detection("i", "rgb", BBox(0, 0, 10, 10), binary(0.8), box_variance=1e-9, det_id=0)
        blurry = Detection(
            "i", "thermal", BBox(4, 4, 10, 10), binary(0.7), box_variance=10.0, det_id=1
        )
        out = fuse([[sharp], [blurry]], FusionConfig(score_fusion="proben", box_fusion="v-avg"))
        if iou(out[0].box, sharp.box) < 0.999:
            failures.append("v-avg-limit")

        announce(capsys, 8, not failures, "all invariant spot checks" if not failures else ", ".join(failures))
