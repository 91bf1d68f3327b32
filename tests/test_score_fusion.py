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
    calibrate_scores,
    fuse_avg_logits,
    fuse_avg_posteriors,
    fuse_max,
    fuse_proben,
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

    def test_m_effective_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_proben([binary(0.8)], UNIFORM2, 0)

    @settings(max_examples=200)
    @given(cluster_strategy)
    def test_uniform_prior_equals_summed_logits(self, members):
        k = members[0].num_foreground
        fused = fuse_proben(members, ClassPrior.uniform(k), len(members))
        summed = ClassScores.from_logits(np.sum([m.logits for m in members], axis=0)).posteriors
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


THREE_CLASS_PRIOR = ClassPrior(priors=np.array([0.5, 0.3, 0.2]))


class TestStackedClusters:
    """Given stacked members (row r of member j is member j of cluster r),
    a rule fuses each row as a cluster of its own, bit for bit."""

    RULES = {
        "avg-posteriors": fuse_avg_posteriors,
        "avg-logits": fuse_avg_logits,
        "proben": lambda members: fuse_proben(members, THREE_CLASS_PRIOR, len(members)),
    }

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rows_equal_one_call_per_cluster(self, rule):
        fuse = self.RULES[rule]
        logits = np.random.default_rng(7).normal(0, 4, size=(3, 5, 3))  # members, rows, K+1
        fused = fuse([ClassScores.from_logits(member) for member in logits])
        assert fused.logits.shape == (5, 3)
        for row in range(5):
            alone = fuse([ClassScores.from_logits(member[row]) for member in logits])
            assert np.array_equal(fused.logits[row], alone.logits), row
            assert np.array_equal(fused.posteriors[row], alone.posteriors), row


class TestCalibrateScores:
    def test_identity_params(self):
        s = ClassScores.from_logits([0.2, 1.3, -0.7])
        out = calibrate_scores(s, CalibrationParams())
        assert out.posteriors == pytest.approx(s.posteriors, abs=1e-12)

    def test_identity_params_keep_posteriors_read_from_a_file(self):
        s = ClassScores.from_posteriors([0.3, 0.6, 0.1])
        assert calibrate_scores(s, CalibrationParams()) is s

    def test_stacked_rows_equal_one_call_per_row(self):
        logits = np.random.default_rng(8).normal(0, 4, size=(6, 3))
        params = CalibrationParams(temperature=1.7, shift=-0.4)
        stacked = calibrate_scores(ClassScores.from_logits(logits), params)
        for row, one in enumerate(logits):
            alone = calibrate_scores(ClassScores.from_logits(one), params)
            assert np.array_equal(stacked.logits[row], alone.logits), row
            assert np.array_equal(stacked.posteriors[row], alone.posteriors), row

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
