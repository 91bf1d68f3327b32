import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from proben import (
    BBox,
    ClassPrior,
    ClassScores,
    Detection,
    GroundTruth,
    InvalidScoreError,
    estimate_class_prior,
    logits_from_posteriors,
    softmax,
)
from proben.detections import DetectionColumns
from proben.engine import DetectionBatch, FusionConfig, fuse_detections
from proben.fileio import read_detections
from proben.synth import generate, kaist_like_spec

logit_vectors = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False),
    min_size=2,
    max_size=6,
)


class TestSoftmax:
    def test_symmetry(self):
        assert softmax([0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_analytic(self):
        assert softmax([math.log(2), 0.0]) == pytest.approx([2 / 3, 1 / 3])

    def test_nan_rejected(self):
        with pytest.raises(InvalidScoreError):
            softmax([0.0, math.nan])

    def test_inf_rejected(self):
        with pytest.raises(InvalidScoreError):
            softmax([0.0, math.inf])

    @given(logit_vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_shift_invariance(self, logits, c):
        shifted = softmax(np.asarray(logits) + c)
        assert shifted == pytest.approx(softmax(logits), abs=1e-12)

    @given(logit_vectors)
    def test_sums_to_one(self, logits):
        p = softmax(logits)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_large_logits_stable(self):
        p = softmax([1000.0, 999.0])
        assert np.all(np.isfinite(p))


class TestLogitsFromPosteriors:
    def test_symmetric_case(self):
        logits = logits_from_posteriors([0.5, 0.5])
        assert logits == pytest.approx([math.log(0.5)] * 2)
        assert softmax(logits) == pytest.approx([0.5, 0.5])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
    def test_round_trip_on_simplex(self, raw):
        p = np.asarray(raw) / sum(raw)
        back = softmax(logits_from_posteriors(p))
        assert back == pytest.approx(p, abs=1e-9)

    def test_degenerate_entries_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            logits = logits_from_posteriors([1.0, 0.0])
        back = softmax(logits)
        assert back == pytest.approx([1 - 1e-7, 1e-7], abs=2e-7)


class TestClassScores:
    def test_posteriors_match_softmax_of_logits(self):
        s = ClassScores.from_logits([1.0, -0.5, 2.0])
        assert s.posteriors == pytest.approx(softmax(s.logits), abs=1e-6)

    def test_from_posteriors_round_trip(self):
        s = ClassScores.from_posteriors([0.2, 0.8])
        assert softmax(s.logits) == pytest.approx([0.2, 0.8], abs=1e-9)

    def test_posteriors_must_sum_to_one(self):
        with pytest.raises(InvalidScoreError):
            ClassScores.from_posteriors([0.5, 0.4])

    def test_posteriors_out_of_range_rejected(self):
        with pytest.raises(InvalidScoreError):
            ClassScores.from_posteriors([1.5, -0.5])

    def test_argmax_foreground_ignores_background(self):
        # background dominates but argmax class must be a foreground class
        s = ClassScores.from_posteriors([0.8, 0.15, 0.05])
        assert s.argmax_foreground() == 1
        assert s.score == pytest.approx(0.15)

    def test_argmax_tie_goes_to_lower_class_id(self):
        s = ClassScores.from_posteriors([0.4, 0.3, 0.3])
        assert s.argmax_foreground() == 1

    @given(
        # quarter-steps keep foreground gaps far above float rounding
        st.lists(st.integers(-80, 80).map(lambda v: v / 4.0), min_size=2, max_size=6),
        st.integers(-200, 200).map(lambda v: v / 4.0),
    )
    def test_argmax_invariant_under_logit_shift(self, logits, c):
        a = ClassScores.from_logits(logits)
        b = ClassScores.from_logits(np.asarray(logits) + c)
        assert a.argmax_foreground() == b.argmax_foreground()

    def test_arrays_frozen(self):
        s = ClassScores.from_logits([0.0, 1.0])
        with pytest.raises(ValueError):
            s.posteriors[0] = 0.5

    def test_logits_read_only_wherever_the_stack_comes_from(self, tmp_path):
        """Logits cannot change under the fields derived from them, and the
        constructors leave their caller's array writable."""
        path = tmp_path / "det.jsonl"
        path.write_text(
            '{"image_id": "a", "modality": "rgb", "bbox": [0, 0, 5, 5], "logits": [0, 3]}\n'
            '{"image_id": "a", "modality": "rgb", "bbox": [1, 0, 5, 5], "posteriors": [0.4, 0.6]}\n'
        )
        read = read_detections(path)
        thermal = read_detections(path, modality_override="thermal")
        dets = generate(kaist_like_spec(seed=0, image_count=3)).detections
        given = np.array([[0.25, 0.75]])
        stacks = [
            read.scores,
            read.scores.take([1, 0]),
            DetectionColumns.concatenate([read, thermal]).scores,
            fuse_detections(DetectionBatch([read, thermal]), FusionConfig()).scores,
            *(columns.scores for columns in dets.values()),
            ClassScores.from_logits(given),
            ClassScores.from_posteriors(given),
            ClassScores.stack([read.scores.take(0), read.scores.take(1)]),
        ]
        for stack in stacks:
            with pytest.raises(ValueError, match="read-only"):
                stack.logits[0] = [5.0, -5.0]
        given[0] = [0.5, 0.5]
        assert stacks[-3].logits.tolist() == [[0.25, 0.75]]
        assert stacks[-2].posteriors[0] == pytest.approx([0.25, 0.75])

    @given(st.data())
    def test_rows_derive_what_their_stack_derives(self, data):
        # mixed magnitudes, signed zeros and repeated (tied) rows; widths up
        # to 10 reach numpy's pairwise summation, which starts at 8 entries
        width = data.draw(st.integers(2, 10))
        entry = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 700.0, -700.0]),
            st.floats(-1e-6, 1e-6),
            st.floats(-1e3, 1e3),
        )
        distinct = data.draw(
            st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=4)
        )
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
        stack = ClassScores.from_logits([distinct[k] for k in picks])
        n = len(picks)
        rows = data.draw(
            st.one_of(
                st.lists(st.integers(0, n - 1), max_size=2 * n),
                st.just(list(range(n))[::-1]),
            )
        )
        rows = np.array(rows, dtype=np.intp)

        taken = stack.take(rows)
        for name in ("posteriors", "log_posteriors", "score"):
            assert getattr(taken, name).tobytes() == getattr(stack, name)[rows].tobytes()
        assert taken.argmax_foreground().tobytes() == stack.argmax_foreground()[rows].tobytes()
        for i in range(n):
            row = ClassScores(logits=stack.logits[i])
            assert row.score == float(stack.score[i])
            assert row.argmax_foreground() == int(stack.argmax_foreground()[i])


class TestDetection:
    def test_variance_must_be_positive(self):
        box = BBox(0, 0, 10, 10)
        scores = ClassScores.from_logits([0.0, 1.0])
        with pytest.raises(ValueError):
            Detection("img0", "rgb", box, scores, box_variance=0.0)
        with pytest.raises(ValueError):
            Detection("img0", "rgb", box, scores, box_variance=math.nan)

    def test_sort_key_orders_by_score_then_class_then_id(self):
        box = BBox(0, 0, 10, 10)
        d1 = Detection("i", "rgb", box, ClassScores.from_posteriors([0.2, 0.8]), det_id=5)
        d2 = Detection("i", "rgb", box, ClassScores.from_posteriors([0.3, 0.7]), det_id=1)
        d3 = Detection("i", "rgb", box, ClassScores.from_posteriors([0.3, 0.7]), det_id=0)
        assert sorted([d1, d2, d3], key=lambda d: d.sort_key) == [d1, d3, d2]


class TestClassPrior:
    def test_uniform(self):
        prior = ClassPrior.uniform(3)
        assert prior.priors == pytest.approx([0.25] * 4)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            ClassPrior(priors=np.array([0.0, 1.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ClassPrior(priors=np.array([0.3, 0.3]))


def _gt(class_id, image_id="img0", ignore=False):
    return GroundTruth(image_id, BBox(0, 0, 10, 10), class_id, ignore=ignore)


class TestEstimateClassPrior:
    def test_balanced_counts(self):
        gts = [_gt(1)] * 10 + [_gt(2)] * 10 + [_gt(3)] * 10
        prior = estimate_class_prior(gts, 0.25)
        assert prior.priors == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_flir_like_counts(self):
        counts = {1: 28151, 2: 46692, 3: 4457}
        gts = [_gt(c) for c, n in counts.items() for _ in range(n)]
        prior = estimate_class_prior(gts, 0.5)
        total = sum(counts.values())
        expected = [0.5] + [0.5 * counts[c] / total for c in (1, 2, 3)]
        assert prior.priors == pytest.approx(expected, abs=1e-12)

    def test_single_class(self):
        prior = estimate_class_prior([_gt(1)], 0.3)
        assert prior.priors == pytest.approx([0.3, 0.7])

    def test_zero_count_class_gets_floor(self):
        prior = estimate_class_prior([_gt(1)] * 5, 0.5, num_classes=2)
        assert prior.priors[2] > 0
        assert prior.priors[2] == pytest.approx(0.5 * 1e-6 / (5 + 1e-6))

    def test_ignored_gts_not_counted(self):
        gts = [_gt(1)] * 4 + [_gt(2, ignore=True)] * 10
        prior = estimate_class_prior(gts, 0.5, num_classes=2)
        assert prior.priors[1] > prior.priors[2]

    def test_requires_non_ignored_gt(self):
        with pytest.raises(ValueError):
            estimate_class_prior([_gt(1, ignore=True)], 0.5)

    def test_background_prior_range(self):
        with pytest.raises(ValueError):
            estimate_class_prior([_gt(1)], 1.0)
