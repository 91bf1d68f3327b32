from functools import lru_cache

import numpy as np
import pytest

from proben import (
    BBox,
    CalibrationParams,
    ClassPrior,
    ClassScores,
    ConfigurationError,
    Detection,
    DetectionBatch,
    FusionConfig,
    LinearFusionWeights,
    MissingVarianceError,
    calibrate_scores,
    convex_combination,
    fuse,
    fuse_all,
    fuse_avg_logits,
    fuse_avg_posteriors,
    fuse_linear,
    fuse_proben,
    iou,
    pool,
)
from proben import engine
from proben.detections import DetectionColumns


def det(image_id, modality, box, p, det_id, variance=None, posteriors=None):
    scores = (
        ClassScores.from_posteriors(posteriors)
        if posteriors is not None
        else ClassScores.from_posteriors([1.0 - p, p])
    )
    return Detection(image_id, modality, box, scores, box_variance=variance, det_id=det_id)


def random_detections(rng, n, image_id="img0", num_classes=2, modalities=("rgb", "thermal")):
    out = []
    for i in range(n):
        box = BBox(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40), rng.uniform(5, 40))
        logits = rng.normal(0, 2, size=num_classes + 1)
        out.append(
            Detection(
                image_id,
                modalities[rng.integers(len(modalities))],
                box,
                ClassScores.from_logits(logits),
                det_id=i,
            )
        )
    return out


def greedy_nms_oracle(detections, threshold):
    """Brute force: explicit overlap matrix, same greedy order, keep seeds."""
    dets = sorted(detections, key=lambda d: d.sort_key)
    overlap = {
        (a.det_id, b.det_id): iou(a.box, b.box) for a in dets for b in dets
    }
    alive = list(dets)
    kept = []
    while alive:
        seed = alive[0]
        kept.append(seed)
        alive = [
            d
            for d in alive[1:]
            if d.class_id != seed.class_id
            or overlap[(seed.det_id, d.det_id)] <= threshold
        ]
    return kept


class TestPool:
    def test_concatenates_without_suppression(self):
        b = BBox(0, 0, 10, 10)
        set1 = [det("i", "rgb", b, 0.9, 0), det("i", "rgb", b, 0.8, 1), det("i", "rgb", b, 0.7, 2)]
        set2 = [det("i", "thermal", b, 0.6, 3 + k) for k in range(4)]
        assert len(pool([set1, set2])) == 7

    def test_empty_modality_is_noop(self):
        b = BBox(0, 0, 10, 10)
        set1 = [det("i", "rgb", b, 0.9, 0)]
        assert pool([set1, []]).to_detections() == set1

    def test_duplicates_retained_and_sorted(self):
        b = BBox(0, 0, 10, 10)
        d1 = det("i", "rgb", b, 0.6, 0)
        d2 = det("i", "thermal", b, 0.9, 1)
        assert pool([[d1], [d2]]).to_detections() == [d2, d1]


class TestFusionConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            FusionConfig(iou_threshold=0.0)
        with pytest.raises(ConfigurationError):
            FusionConfig(iou_threshold=1.0)

    def test_unknown_modes(self):
        with pytest.raises(ConfigurationError):
            FusionConfig(score_fusion="median")
        with pytest.raises(ConfigurationError):
            FusionConfig(box_fusion="median")

    def test_linear_requires_weights(self):
        with pytest.raises(ConfigurationError):
            FusionConfig(score_fusion="linear")


class TestFuse:
    def test_lone_detection_passes_through(self):
        d = det("i", "rgb", BBox(0, 0, 10, 20), 0.85, 0)
        out = fuse([[d]], FusionConfig(score_fusion="proben"))
        assert len(out) == 1
        assert out[0].score == pytest.approx(0.85, abs=1e-12)

    def test_fig3_ranking_against_single_modal(self):
        obj = BBox(0, 0, 10, 20)
        lone = BBox(50, 50, 10, 20)
        dets_rgb = [det("i", "rgb", obj, 0.80, 0), det("i", "rgb", lone, 0.85, 1)]
        dets_thermal = [det("i", "thermal", BBox(1, 1, 10, 20), 0.70, 2)]
        out = fuse([dets_rgb, dets_thermal], FusionConfig(score_fusion="proben"))
        assert len(out) == 2
        assert out[0].score == pytest.approx(0.9032, abs=5e-4)
        assert out[1].score == pytest.approx(0.85, abs=1e-12)
        assert out[0].modality == "rgb+thermal"

    def test_max_mode_is_single_modal_nms(self):
        b1 = BBox(0, 0, 10, 10)
        b2 = BBox(1, 1, 10, 10)
        dets = [det("i", "rgb", b1, 0.9, 0), det("i", "rgb", b2, 0.8, 1)]
        out = fuse([dets], FusionConfig(score_fusion="max"))
        assert out == [dets[0]]

    def test_max_mode_matches_oracle_on_random_instances(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            dets = random_detections(rng, int(rng.integers(1, 21)))
            threshold = 0.5
            got = fuse([dets], FusionConfig(score_fusion="max", iou_threshold=threshold))
            want = greedy_nms_oracle(dets, threshold)
            assert [d.det_id for d in got] == [d.det_id for d in want], f"seed {seed}"

    def test_same_modality_overlaps_fuse_to_identity(self):
        # per-modality selection keeps one member, so scores pass through
        b = BBox(0, 0, 10, 10)
        dets = [det("i", "rgb", b, 0.9, 0), det("i", "rgb", BBox(1, 1, 10, 10), 0.8, 1)]
        out = fuse([dets], FusionConfig(score_fusion="proben", box_fusion="avg"))
        assert len(out) == 1
        assert out[0].score == pytest.approx(0.9, abs=1e-12)
        assert out[0].box == b

    def test_deterministic_under_permutation(self):
        rng = np.random.default_rng(7)
        dets = random_detections(rng, 15)
        config = FusionConfig(score_fusion="proben", box_fusion="avg")
        baseline = fuse([dets], config)
        for perm_seed in range(5):
            perm = np.random.default_rng(perm_seed).permutation(len(dets))
            shuffled = [dets[i] for i in perm]
            out = fuse([shuffled], config)
            assert [d.det_id for d in out] == [d.det_id for d in baseline]
            for a, b in zip(out, baseline):
                assert np.array_equal(a.scores.posteriors, b.scores.posteriors)
                assert a.box == b.box

    def test_outputs_do_not_overlap_above_threshold(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dets = random_detections(rng, 20)
            out = fuse([dets], FusionConfig(score_fusion="max", iou_threshold=0.5))
            for i, a in enumerate(out):
                for b in out[i + 1 :]:
                    if a.class_id == b.class_id:
                        assert iou(a.box, b.box) <= 0.5

    def test_output_never_grows(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            dets = random_detections(rng, 12)
            out = fuse([dets], FusionConfig(score_fusion="proben"))
            assert len(out) <= len(dets)

    def test_cross_class_overlap_not_suppressed(self):
        b = BBox(0, 0, 10, 10)
        d1 = det("i", "rgb", b, 0.9, 0, posteriors=[0.05, 0.9, 0.05])
        d2 = det("i", "rgb", b, 0.8, 1, posteriors=[0.05, 0.15, 0.8])
        out = fuse([[d1], [d2]], FusionConfig(score_fusion="max"))
        assert len(out) == 2

    def test_calibration_applied_before_clustering(self):
        b = BBox(0, 0, 10, 10)
        d1 = det("i", "rgb", b, 0.8, 0)
        d2 = det("i", "thermal", BBox(0.5, 0.5, 10, 10), 0.7, 1)
        config = FusionConfig(
            score_fusion="max",
            calibration={"rgb": CalibrationParams(temperature=10.0)},
        )
        out = fuse([[d1], [d2]], config)
        # rgb logit shrunk toward 0.5, so thermal wins the cluster
        assert out[0].modality == "thermal"
        assert out[0].score == pytest.approx(0.7, abs=1e-12)

    def test_vavg_missing_variance_names_detection(self):
        b = BBox(0, 0, 10, 10)
        d1 = det("i", "rgb", b, 0.8, 0, variance=1.0)
        d2 = det("i", "thermal", BBox(1, 1, 10, 10), 0.7, 41)
        config = FusionConfig(score_fusion="proben", box_fusion="v-avg")
        with pytest.raises(MissingVarianceError, match="41"):
            fuse([[d1], [d2]], config)

    def test_mixed_image_ids_rejected(self):
        d1 = det("a", "rgb", BBox(0, 0, 1, 1), 0.5, 0)
        d2 = det("b", "rgb", BBox(0, 0, 1, 1), 0.5, 1)
        with pytest.raises(ConfigurationError):
            fuse([[d1, d2]], FusionConfig())

    def test_three_modalities_m_effective(self):
        b = BBox(0, 0, 10, 10)
        members = [
            det("i", m, b, 0.8, k)
            for k, m in enumerate(("rgb", "thermal", "mid"))
        ]
        out = fuse([[m] for m in members], FusionConfig(score_fusion="proben"))
        assert len(out) == 1
        # three agreeing 0.8s: 0.8^3 / (0.8^3 + 0.2^3)
        assert out[0].score == pytest.approx(0.512 / (0.512 + 0.008), abs=1e-9)

    def test_fused_variance_combines_inverse_variances(self):
        b = BBox(0, 0, 10, 10)
        d1 = det("i", "rgb", b, 0.8, 0, variance=1.0)
        d2 = det("i", "thermal", BBox(1, 1, 10, 10), 0.7, 1, variance=3.0)
        out = fuse([[d1], [d2]], FusionConfig(score_fusion="proben", box_fusion="v-avg"))
        assert out[0].box_variance == pytest.approx(0.75)


class TestFuseAll:
    def test_groups_by_image(self):
        d1 = det("a", "rgb", BBox(0, 0, 10, 10), 0.9, 0)
        d2 = det("b", "rgb", BBox(0, 0, 10, 10), 0.8, 1)
        d3 = det("a", "thermal", BBox(1, 1, 10, 10), 0.7, 2)
        out = fuse_all([[d1, d2], [d3]], FusionConfig(score_fusion="proben"))
        assert len(out) == 2
        assert {d.image_id for d in out} == {"a", "b"}


def reference_fuse_all(detection_sets, config):
    """Per image and per cluster, one detection at a time: greedy clustering
    by explicit IoU, the score rule on the cluster's own members, the box by
    convex_combination (math.fsum sums) and the variance by Python's sum."""
    dets = [d for ds in detection_sets for d in ds]
    calibrated = []
    for d in dets:
        params = config.calibration.get(d.modality)
        scores = d.scores if params is None else calibrate_scores(d.scores, params)
        calibrated.append(d if scores is d.scores else d.with_scores(scores))
    prior = config.prior or ClassPrior.uniform(dets[0].scores.num_foreground)
    out = []
    for image_id in sorted({d.image_id for d in dets}):
        alive = sorted((d for d in calibrated if d.image_id == image_id), key=lambda d: d.sort_key)
        emitted = []
        while alive:
            seed = alive[0]
            overlap = [seed] + [
                d
                for d in alive[1:]
                if d.class_id == seed.class_id and iou(seed.box, d.box) > config.iou_threshold
            ]
            alive = [d for d in alive if not any(d is o for o in overlap)]
            if config.score_fusion == "max":
                emitted.append(seed)
                continue
            members = [
                d for i, d in enumerate(overlap)
                if all(o.modality != d.modality for o in overlap[:i])
            ]
            member_scores = [d.scores for d in members]
            if config.score_fusion == "proben":
                fused = fuse_proben(member_scores, prior, len(members))
            elif config.score_fusion == "avg-logits":
                fused = fuse_avg_logits(member_scores)
            elif config.score_fusion == "avg-posteriors":
                fused = fuse_avg_posteriors(member_scores)
            else:
                fused = fuse_linear({d.modality: d.scores for d in members}, config.weights)
            if config.box_fusion == "argmax":
                box = members[0].box
            else:
                if config.box_fusion == "avg":
                    weights = [1.0] * len(members)
                elif config.box_fusion == "s-avg":
                    k = fused.argmax_foreground()
                    weights = [float(d.scores.posteriors[k]) for d in members]
                else:
                    missing = [d for d in members if d.box_variance is None]
                    if missing:
                        raise MissingVarianceError(
                            f"detection {missing[0].det_id} carries no box_variance "
                            "(v-avg box fusion)"
                        )
                    weights = [1.0 / d.box_variance for d in members]
                box = convex_combination([d.box for d in members], weights)
            variances = [d.box_variance for d in members]
            variance = None if None in variances else 1.0 / sum(1.0 / v for v in variances)
            modality = "+".join(sorted(d.modality for d in members))
            emitted.append(Detection(image_id, modality, box, fused, variance, seed.det_id))
        out.extend(sorted(emitted, key=lambda d: d.sort_key))
    return out


def crowded_sets(seed, modalities=("a", "b", "c", "d"), num_classes=2, missing_variance=False):
    """Detections of four modalities around a few objects per image, so that
    clusters of one to four members form; some scores tie."""
    rng = np.random.default_rng(seed)
    sets = {m: [] for m in modalities}
    det_id = 0
    for image in range(6):
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.uniform(0, 200, size=2)
            cls = int(rng.integers(1, num_classes + 1))
            for m in modalities:
                if rng.random() < 0.25:
                    continue
                logits = rng.normal(0, 1, num_classes + 1)
                logits[cls] += 2.0
                if rng.random() < 0.2:
                    logits = np.round(logits)  # tied scores across modalities
                box = BBox(x + rng.normal(0, 2), y + rng.normal(0, 2),
                           30 + rng.normal(0, 2), 60 + rng.normal(0, 2))
                variance = None if missing_variance and rng.random() < 0.1 else float(
                    rng.uniform(0.5, 20.0))
                sets[m].append(Detection(f"im{image}", m, box, ClassScores.from_logits(logits),
                                         variance, det_id))
                det_id += 1
    return [sets[m] for m in modalities]


def same_bits(a, b):
    assert (a.image_id, a.modality, a.det_id) == (b.image_id, b.modality, b.det_id)
    assert np.array(a.box.as_list(), float).tobytes() == np.array(b.box.as_list(), float).tobytes()
    assert a.scores.logits.tobytes() == b.scores.logits.tobytes()
    assert a.scores.posteriors.tobytes() == b.scores.posteriors.tobytes()
    assert repr(a.box_variance) == repr(b.box_variance)


class TestColumnFusion:
    """fuse_all (fusion core over columns, segmented box averages) equals a
    per-cluster reference bit for bit, with clusters of one to four members."""

    @pytest.mark.parametrize("box_fusion", ["argmax", "avg", "s-avg", "v-avg"])
    @pytest.mark.parametrize(
        "score_fusion", ["max", "avg-posteriors", "avg-logits", "proben", "linear"]
    )
    def test_equals_per_cluster_reference(self, score_fusion, box_fusion):
        weights = LinearFusionWeights(
            {"a": [0.5, 0.7, 0.9], "b": [0.9, 1.1, 1.2], "c": [1.2, 0.8, 1.0], "d": [1, 1, 1]}
        )
        sizes = set()
        for seed in range(6):
            sets = crowded_sets(seed)
            config = FusionConfig(
                iou_threshold=(0.3, 0.5)[seed % 2],
                score_fusion=score_fusion,
                box_fusion=box_fusion,
                weights=weights,
                calibration={"b": CalibrationParams(temperature=1.7, shift=-0.3)},
            )
            got = fuse_all(sets, config)
            want = reference_fuse_all(sets, config)
            assert len(got) == len(want), seed
            for a, b in zip(got, want):
                same_bits(a, b)
            sizes |= {d.modality.count("+") + 1 for d in want}
        if score_fusion != "max":
            assert sizes == {1, 2, 3, 4}

    def test_tied_fused_scores_sort_by_det_id(self):
        # Both clusters average to posteriors [0.25, 0.75]; the one with the
        # weaker seed has the lower det_id and comes first.
        def member(modality, x, p, det_id):
            return det("i", modality, BBox(x, 0, 10, 10), p, det_id)

        rgb = [member("rgb", 0, 0.875, 5), member("rgb", 50, 0.8125, 1)]
        thermal = [member("thermal", 0, 0.625, 6), member("thermal", 50, 0.6875, 2)]
        config = FusionConfig(score_fusion="avg-posteriors", box_fusion="argmax")
        got = fuse_all([rgb, thermal], config)
        assert got[0].score == got[1].score
        assert [d.det_id for d in got] == [1, 5]
        for a, b in zip(got, reference_fuse_all([rgb, thermal], config)):
            same_bits(a, b)

    def test_missing_variance_named_in_emission_order(self):
        for seed in range(20):
            sets = crowded_sets(seed, missing_variance=True)
            config = FusionConfig(score_fusion="proben", box_fusion="v-avg")
            with pytest.raises(MissingVarianceError) as want:
                reference_fuse_all(sets, config)
            with pytest.raises(MissingVarianceError) as got:
                fuse_all(sets, config)
            assert str(got.value) == str(want.value)


def sequential_clusters(batch, scores, config):
    """The greedy loop one seed at a time, as (cluster, row) columns: the best
    alive row seeds a cluster of itself and its alive same-class partners
    above the threshold, keeping each modality's best; they all leave."""
    classes = scores.argmax_foreground()
    order = np.lexsort((batch.det_ids, classes, -scores.score, batch.image_index))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    first, second, value = batch.pairs
    hit = (value > config.iou_threshold) & (classes[first] == classes[second])
    rows = np.concatenate((first[hit], second[hit]))
    partners = np.concatenate((second[hit], first[hit]))
    ranked = np.lexsort((rank[partners], rows))
    start = np.searchsorted(rows[ranked], np.arange(len(order) + 1)).tolist()
    partners = partners[ranked].tolist()

    alive = [True] * len(order)
    clusters = []
    for seed in order.tolist():
        if not alive[seed]:
            continue
        overlap = [seed] + [j for j in partners[start[seed] : start[seed + 1]] if alive[j]]
        for j in overlap:
            alive[j] = False
        if config.score_fusion == "max":
            clusters.append([seed])
        else:
            best = {}
            for i in overlap:
                best.setdefault(batch.modalities[i], i)
            clusters.append(list(best.values()))
    cluster = [c for c, members in enumerate(clusters) for _ in members]
    return cluster, [i for members in clusters for i in members]


def tied_scene(seed, images=4, modalities=("a", "b", "c"), num_classes=3):
    """A few close objects per image, each seen several times per modality,
    with small integer logits so that many scores tie exactly; det_ids are
    shuffled so that the det_id tie-break differs from input order."""
    rng = np.random.default_rng(seed)
    image_ids, names, boxes, logits = [], [], [], []
    for image in range(images):
        for _ in range(int(rng.integers(1, 6))):
            x, y = rng.uniform(0, 60, size=2)
            cls = int(rng.integers(1, num_classes + 1))
            for _ in range(int(rng.integers(1, 7))):
                image_ids.append(f"im{image}")
                names.append(modalities[int(rng.integers(len(modalities)))])
                boxes.append([x + rng.normal(0, 3), y + rng.normal(0, 3),
                              20 + rng.normal(0, 2), 30 + rng.normal(0, 2)])
                row = rng.integers(-2, 3, num_classes + 1).astype(float)
                row[cls] += 2
                logits.append(row)
    n = len(boxes)
    return DetectionColumns(image_ids, names, np.array(boxes), np.full(n, np.nan),
                            ClassScores.from_logits(np.array(logits)), rng.permutation(n))


def one_image(boxes, posteriors, modalities):
    n = len(boxes)
    return DetectionColumns(["i"] * n, list(modalities), np.asarray(boxes, float),
                            np.full(n, np.nan), ClassScores.from_posteriors(posteriors),
                            np.arange(n))


@lru_cache(maxsize=None)
def staircase():
    """3000 boxes in a row, each overlapping only the next above 0.5 (IoU
    7/13; 1/4 with the one after), scores falling along the row: the greedy
    loop alternates seed and member, so every row waits for the one before."""
    n = 3000
    boxes = np.c_[np.arange(n) * 3.0, np.zeros(n), np.full(n, 10.0), np.full(n, 10.0)]
    p = 0.9 - np.arange(n) * 1e-4
    return DetectionBatch([one_image(boxes, np.c_[1 - p, p], ["rgb", "thermal"] * (n // 2))])


def clique(seed):
    """200 near-identical boxes on one object, of 3 modalities, with tied scores."""
    rng = np.random.default_rng(seed)
    n = 200
    boxes = np.c_[rng.normal(100, 0.3, (n, 2)), rng.normal(40, 0.1, (n, 2))]
    p = rng.integers(1, 10, n) / 10
    return DetectionBatch([one_image(boxes, np.c_[1 - p, p], ["a", "b", "c", "a"] * (n // 4))])


WEIGHTS = LinearFusionWeights({m: [1.0] * 4 for m in ("a", "b", "c", "rgb", "thermal")})


class TestClustersEqualTheSequentialLoop:
    """``engine._clusters`` (seeds decided in rounds over every image at once)
    gives the (cluster, row) columns of the greedy loop, in its order."""

    def check(self, batch, config):
        scores = engine._calibrated(batch, config.calibration)
        cluster, row = engine._clusters(batch, scores, config)
        want_cluster, want_row = sequential_clusters(batch, scores, config)
        assert cluster.tolist() == want_cluster
        assert row.tolist() == want_row
        return len(want_row)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("score_fusion", engine.SCORE_FUSION_MODES)
    def test_random_scenes_with_tied_scores(self, score_fusion, threshold):
        for seed in range(20):
            config = FusionConfig(
                iou_threshold=threshold,
                score_fusion=score_fusion,
                weights=WEIGHTS,
                calibration={"b": CalibrationParams(temperature=2.0, shift=-0.5)},
            )
            self.check(DetectionBatch([tied_scene(seed)]), config)

    @pytest.mark.parametrize("score_fusion", ["max", "proben"])
    def test_clique(self, score_fusion):
        for seed in range(3):
            config = FusionConfig(iou_threshold=0.5, score_fusion=score_fusion)
            members = self.check(clique(seed), config)
            assert members == (1 if score_fusion == "max" else 3)

    @pytest.mark.parametrize("score_fusion", ["max", "avg-logits"])
    def test_staircase(self, score_fusion):
        config = FusionConfig(iou_threshold=0.5, score_fusion=score_fusion)
        members = self.check(staircase(), config)
        assert members == (1500 if score_fusion == "max" else 3000)

    @pytest.mark.parametrize("score_fusion", engine.SCORE_FUSION_MODES)
    def test_empty_batch_and_single_detection(self, score_fusion):
        config = FusionConfig(score_fusion=score_fusion, weights=WEIGHTS)
        assert self.check(DetectionBatch([]), config) == 0
        single = one_image([[0, 0, 5, 5]], [[0.3, 0.7]], ["rgb"])
        assert self.check(DetectionBatch([single]), config) == 1


def sequential_seeds(parent, child, n):
    """Row by row in rank order (row index here): a seed iff no parent is."""
    parents = [[] for _ in range(n)]
    for p, c in zip(parent.tolist(), child.tolist()):
        parents[c].append(p)
    seed = []
    for row in range(n):
        seed.append(not any(seed[p] for p in parents[row]))
    return seed


class TestSeedRounds:
    def test_a_row_decided_twice_in_one_round_counts_once(self):
        # rows 0 and 1 both beat row 3 in one round. Row 5 must then wait for
        # its other parent, row 4, a seed only from the round after (0 -> 2 -> 4)
        parent = np.array([0, 1, 0, 2, 3, 4])
        child = np.array([3, 3, 2, 4, 5, 5])
        assert engine._seeds(parent, child, 6).tolist() == [True, True, False, False, True, False]

    def test_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            a, b = rng.integers(0, n, (2, int(rng.integers(0, 4 * n))))
            edges = np.unique(np.c_[np.minimum(a, b), np.maximum(a, b)][a != b], axis=0)
            parent, child = edges.T if len(edges) else (np.zeros(0, int), np.zeros(0, int))
            assert engine._seeds(parent, child, n).tolist() == sequential_seeds(parent, child, n)


def test_pairs_made_in_blocks_equal_one_block(monkeypatch):
    for seed in range(5):
        scene = tied_scene(seed)
        whole = DetectionBatch([scene]).pairs
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_PAIR_BLOCK", 5)  # rows with more pairs than a block too
            blocked = DetectionBatch([scene]).pairs
        assert len(whole[0]) > 20
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

def test_more_modalities_than_the_bitmask_holds_rejected():
    sets = [one_image([[0, 0, 5, 5]], [[0.3, 0.7]], [f"m{k}"]) for k in range(65)]
    with pytest.raises(ConfigurationError, match="at most 64 modalities"):
        DetectionBatch(sets)
    (fused,) = fuse_all(sets[:64], FusionConfig())  # the 64th name sets the sign bit
    assert fused.modality == "+".join(sorted(f"m{k}" for k in range(64)))
