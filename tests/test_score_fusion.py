import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proben import (
    CalibrationParams,
    ClassPrior,
    ClassScores,
    ConfigurationError,
    EmptyClusterError,
    LinearFusionWeights,
    calibrate_scores,
    fit_linear_weights,
    fuse_avg_logits,
    fuse_avg_posteriors,
    fuse_linear,
    fuse_max,
    fuse_proben,
    softmax,
)


def binary(p):
    return ClassScores.from_posteriors([1.0 - p, p])


def from_relative_logit(s):
    return ClassScores.from_logits([0.0, s])


UNIFORM2 = ClassPrior.uniform(1)

cluster_strategy = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(
            st.floats(min_value=-15, max_value=15, allow_nan=False),
            min_size=k + 1,
            max_size=k + 1,
        ).map(ClassScores.from_logits),
        min_size=1,
        max_size=4,
    )
)


class TestFuseMax:
    def test_fig3_pair(self):
        out = fuse_max([binary(0.8), binary(0.7)])
        assert out.score == pytest.approx(0.8)

    def test_single_member_identity(self):
        s = binary(0.42)
        assert fuse_max([s]) is s

    def test_permutation_invariant(self):
        members = [binary(0.3), binary(0.9), binary(0.6)]
        assert np.array_equal(
            fuse_max(members).posteriors, fuse_max(members[::-1]).posteriors
        )

    def test_empty_cluster(self):
        with pytest.raises(EmptyClusterError):
            fuse_max([])

    def test_returns_whole_vector_not_entrywise_max(self):
        a = ClassScores.from_posteriors([0.1, 0.6, 0.3])
        b = ClassScores.from_posteriors([0.1, 0.4, 0.5])
        out = fuse_max([a, b])
        assert np.array_equal(out.posteriors, a.posteriors)


class TestFuseAvgPosteriors:
    def test_fig3_pair(self):
        out = fuse_avg_posteriors([binary(0.8), binary(0.7)])
        assert out.score == pytest.approx(0.75)

    def test_idempotent_on_identical_members(self):
        s = binary(0.8)
        out = fuse_avg_posteriors([s, s, s])
        assert out.posteriors == pytest.approx(s.posteriors)

    def test_empty_cluster(self):
        with pytest.raises(EmptyClusterError):
            fuse_avg_posteriors([])

    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=5))
    def test_never_exceeds_max(self, ps):
        members = [binary(p) for p in ps]
        assert fuse_avg_posteriors(members).score <= fuse_max(members).score + 1e-12


class TestFuseAvgLogits:
    def test_idempotent(self):
        s = ClassScores.from_logits([0.5, 2.0, -1.0])
        assert fuse_avg_logits([s, s]).posteriors == pytest.approx(s.posteriors)

    def test_opposite_relative_logits_cancel(self):
        out = fuse_avg_logits([from_relative_logit(3.0), from_relative_logit(-3.0)])
        assert out.score == pytest.approx(0.5)

    def test_equals_proben_on_halved_logits(self):
        a = ClassScores.from_logits([0.3, 1.7])
        b = ClassScores.from_logits([-0.4, 0.9])
        halved = [
            ClassScores.from_logits(a.logits / 2),
            ClassScores.from_logits(b.logits / 2),
        ]
        avg = fuse_avg_logits([a, b])
        prob = fuse_proben(halved, UNIFORM2, 2)
        assert avg.posteriors == pytest.approx(prob.posteriors, abs=1e-12)

    def test_empty_cluster(self):
        with pytest.raises(EmptyClusterError):
            fuse_avg_logits([])


class TestFuseProben:
    def test_fig3_pair(self):
        out = fuse_proben([binary(0.8), binary(0.7)], UNIFORM2, 2)
        assert out.score == pytest.approx(0.56 / 0.62, abs=1e-9)
        assert out.score == pytest.approx(0.9032, abs=5e-4)

    def test_single_member_identity_any_prior(self):
        prior = ClassPrior(priors=np.array([0.9, 0.1]))
        s = binary(0.73)
        out = fuse_proben([s], prior, 1)
        assert out.posteriors == pytest.approx(s.posteriors, abs=1e-12)

    def test_uninformative_member_is_neutral(self):
        out = fuse_proben([binary(0.81), binary(0.5)], UNIFORM2, 2)
        assert out.score == pytest.approx(0.81, abs=1e-12)

    def test_disagreement_lowers_below_nms(self):
        members = [from_relative_logit(3.0), from_relative_logit(-3.0)]
        assert fuse_proben(members, UNIFORM2, 2).score == pytest.approx(0.5, abs=1e-12)
        assert fuse_max(members).score == pytest.approx(0.9526, abs=1e-3)

    def test_empty_cluster(self):
        with pytest.raises(EmptyClusterError):
            fuse_proben([], UNIFORM2, 1)

    @settings(max_examples=200)
    @given(cluster_strategy)
    def test_uniform_prior_equals_summed_logits(self, members):
        k = members[0].num_foreground
        fused = fuse_proben(members, ClassPrior.uniform(k), len(members))
        summed = softmax(np.sum([m.logits for m in members], axis=0))
        assert fused.posteriors == pytest.approx(summed, abs=1e-9)

    @given(cluster_strategy)
    def test_permutation_invariant(self, members):
        k = members[0].num_foreground
        prior = ClassPrior.uniform(k)
        a = fuse_proben(members, prior, len(members))
        b = fuse_proben(members[::-1], prior, len(members))
        assert a.posteriors == pytest.approx(b.posteriors, abs=1e-12)

    @given(
        st.floats(min_value=0.51, max_value=0.99),
        st.floats(min_value=0.51, max_value=0.99),
    )
    def test_agreement_boost_beats_nms(self, p1, p2):
        members = [binary(p1), binary(p2)]
        assert fuse_proben(members, UNIFORM2, 2).score > fuse_max(members).score

    @given(
        st.floats(min_value=0.02, max_value=0.49),
        st.floats(min_value=0.51, max_value=0.99),
    )
    def test_disagreement_lands_below_nms(self, p1, p2):
        members = [binary(p1), binary(p2)]
        assert fuse_proben(members, UNIFORM2, 2).score < fuse_max(members).score

    def test_counted_prior_divides_through(self):
        prior = ClassPrior(priors=np.array([0.5, 0.5]))
        members = [binary(0.8), binary(0.7)]
        # with K=1 a (0.5, 0.5) prior is uniform: same as the Fig-3 value
        out = fuse_proben(members, prior, 2)
        assert out.score == pytest.approx(0.56 / 0.62, abs=1e-9)
        skewed = ClassPrior(priors=np.array([0.25, 0.75]))
        out2 = fuse_proben(members, skewed, 2)
        assert out2.score < out.score  # dividing by a larger prior shrinks the class


class TestFuseLinear:
    def test_all_ones_equals_proben_uniform(self):
        a = ClassScores.from_logits([0.1, 1.4])
        b = ClassScores.from_logits([-0.3, 0.8])
        w = LinearFusionWeights(weights={"rgb": [1.0, 1.0], "thermal": [1.0, 1.0]})
        out = fuse_linear({"rgb": a, "thermal": b}, w)
        expected = fuse_proben([a, b], UNIFORM2, 2)
        assert out.posteriors == pytest.approx(expected.posteriors, abs=1e-12)

    def test_half_weights_equal_avg_logits(self):
        a = ClassScores.from_logits([0.1, 1.4])
        b = ClassScores.from_logits([-0.3, 0.8])
        w = LinearFusionWeights(weights={"rgb": [0.5, 0.5], "thermal": [0.5, 0.5]})
        out = fuse_linear({"rgb": a, "thermal": b}, w)
        expected = fuse_avg_logits([a, b])
        assert out.posteriors == pytest.approx(expected.posteriors, abs=1e-12)

    def test_zero_weight_modality_ignored(self):
        a = ClassScores.from_logits([0.1, 1.4])
        w = LinearFusionWeights(weights={"rgb": [1.0, 1.0], "thermal": [0.0, 0.0]})
        out1 = fuse_linear({"rgb": a, "thermal": ClassScores.from_logits([5.0, -5.0])}, w)
        out2 = fuse_linear({"rgb": a, "thermal": ClassScores.from_logits([-9.0, 2.0])}, w)
        assert out1.posteriors == pytest.approx(out2.posteriors, abs=1e-12)

    def test_unknown_modality_rejected(self):
        w = LinearFusionWeights(weights={"rgb": [1.0, 1.0]})
        with pytest.raises(ConfigurationError):
            fuse_linear({"thermal": ClassScores.from_logits([0.0, 1.0])}, w)

    def test_empty_cluster(self):
        with pytest.raises(EmptyClusterError):
            fuse_linear({}, LinearFusionWeights(weights={}))


def _example(rel1, rel2, label):
    return ({"rgb": [0.0, rel1], "thermal": [0.0, rel2]}, label)


class TestFitLinearWeights:
    def test_separable_toy_set_classified(self):
        examples = [_example(5.0, 5.0, True)] * 4 + [_example(-5.0, -5.0, False)] * 4
        weights = fit_linear_weights(examples)
        for logits, label in examples:
            fused = fuse_linear(
                {m: ClassScores.from_logits(v) for m, v in logits.items()}, weights
            )
            assert (fused.score > 0.5) == label

    def test_duplication_invariance(self):
        examples = [
            _example(4.0, 3.0, True),
            _example(-2.0, -3.5, False),
            _example(1.0, -1.0, False),
        ]
        w1 = fit_linear_weights(examples)
        w2 = fit_linear_weights(examples * 2)
        for m in w1.weights:
            assert w1.weights[m] == pytest.approx(w2.weights[m], abs=1e-9)

    def test_exchangeable_modalities_get_equal_weights(self):
        base = [(3.0, -1.0, True), (-4.0, 2.0, False), (1.5, 0.5, True), (-1.0, -2.0, False)]
        examples = []
        for r1, r2, label in base:
            examples.append(_example(r1, r2, label))
            examples.append(_example(r2, r1, label))  # swap to force exchangeability
        weights = fit_linear_weights(examples)
        assert weights.weights["rgb"] == pytest.approx(weights.weights["thermal"], abs=1e-6)

    def test_single_label_flags_warning(self):
        with pytest.warns(UserWarning, match="non-separable"):
            fit_linear_weights([_example(2.0, 2.0, True), _example(3.0, 1.0, True)])

    def test_loss_non_increasing(self):
        examples = [
            _example(4.0, 2.0, True),
            _example(-3.0, -1.0, False),
            _example(0.5, -0.5, True),
            _example(-0.5, 0.5, False),
        ]
        modalities = ["rgb", "thermal"]
        x = np.array(
            [np.concatenate([logits[m] for m in modalities]) for logits, _ in examples]
        )
        y = np.array([1.0 if label else 0.0 for _, label in examples])

        def mean_loss(w):
            z = x @ w
            return float(np.mean(np.logaddexp(0.0, z) - y * z))

        w = np.zeros(x.shape[1])
        losses = [mean_loss(w)]
        for _ in range(5000):
            p = 1.0 / (1.0 + np.exp(-(x @ w)))
            w -= 0.1 * x.T @ (p - y) / len(y)
            losses.append(mean_loss(w))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

        learned = fit_linear_weights(examples)
        reference = np.concatenate([learned.weights[m] for m in modalities])
        assert reference == pytest.approx(w, abs=1e-12)

    def test_requires_examples(self):
        with pytest.raises(ConfigurationError):
            fit_linear_weights([])


class TestCalibrateScores:
    def test_identity_params(self):
        s = ClassScores.from_logits([0.2, 1.3, -0.7])
        out = calibrate_scores(s, CalibrationParams())
        assert out.posteriors == pytest.approx(s.posteriors, abs=1e-12)

    def test_temperature_halves_relative_logit(self):
        s = from_relative_logit(4.0)
        out = calibrate_scores(s, CalibrationParams(temperature=2.0))
        assert out.score == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)

    def test_shift_applies_to_foreground_only(self):
        s = from_relative_logit(1.0)
        out = calibrate_scores(s, CalibrationParams(shift=2.0))
        assert out.score == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=8),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-5, max_value=5),
    )
    @example(ps=[0.010000000000000002, 0.01], t=1.0, b=0.0)  # a 1-ulp tie
    @example(ps=[0.99, 0.98], t=0.1, b=0.0)  # both calibrate to exactly 1.0
    def test_preserves_ranking_within_modality(self, ps, t, b):
        # Calibration never reverses two scores, but float64 cannot keep
        # every gap: log loses a 1-ulp one, and a sharp T rounds both to 1.0.
        params = CalibrationParams(temperature=t, shift=b)
        raw = [binary(p).score for p in ps]
        calibrated = [calibrate_scores(binary(p), params).score for p in ps]
        for i, j in itertools.permutations(range(len(ps)), 2):
            if raw[i] < raw[j]:
                assert calibrated[i] <= calibrated[j]

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            CalibrationParams(temperature=0.0)
        with pytest.raises(ConfigurationError):
            CalibrationParams(temperature=math.inf)
        with pytest.raises(ConfigurationError):
            CalibrationParams(shift=math.nan)
