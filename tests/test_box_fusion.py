import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proben import (
    BBox,
    ClassScores,
    ConfigurationError,
    Detection,
    DegenerateWeightsError,
    EmptyClusterError,
    MissingVarianceError,
    convex_combination,
    fuse_boxes,
)
from proben.box_fusion import (
    BOX_FUSION_MODES,
    fused_box_variance,
    fused_variance,
    member_weights,
    weighted_average,
)


def det(box, p, modality="rgb", variance=None, det_id=0):
    return Detection(
        image_id="img0",
        modality=modality,
        box=box,
        scores=ClassScores.from_posteriors([1.0 - p, p]),
        box_variance=variance,
        det_id=det_id,
    )


BOX_A = BBox(0, 0, 10, 10)
BOX_B = BBox(2, 2, 10, 10)
FUSED = ClassScores.from_posteriors([0.1, 0.9])


class TestFuseBoxes:
    def test_equal_variance_vavg_is_midpoint(self):
        members = [det(BOX_A, 0.8, variance=2.0), det(BOX_B, 0.7, variance=2.0, det_id=1)]
        assert fuse_boxes(members, FUSED, "v-avg") == BBox(1, 1, 10, 10)

    def test_unequal_variance_vavg(self):
        members = [det(BOX_A, 0.8, variance=1.0), det(BOX_B, 0.7, variance=3.0, det_id=1)]
        # weights (1, 1/3) normalize to (3/4, 1/4)
        assert fuse_boxes(members, FUSED, "v-avg") == BBox(0.5, 0.5, 10, 10)

    @pytest.mark.parametrize("mode", ["argmax", "avg", "s-avg", "v-avg"])
    def test_single_member_identity(self, mode):
        member = det(BOX_A, 0.8, variance=1.5)
        assert fuse_boxes([member], FUSED, mode) == BOX_A

    def test_savg_weights_by_fused_class_posterior(self):
        members = [det(BOX_A, 0.8), det(BOX_B, 0.7, det_id=1)]
        out = fuse_boxes(members, FUSED, "s-avg")
        expected_x = (0.8 * 0 + 0.7 * 2) / 1.5
        assert out.x == pytest.approx(expected_x)
        assert out.x == pytest.approx(2 * 7 / 15)

    def test_argmax_keeps_best_member_box(self):
        members = [det(BOX_A, 0.6), det(BOX_B, 0.9, det_id=1)]
        assert fuse_boxes(members, FUSED, "argmax") == BOX_B

    def test_avg_is_plain_midpoint(self):
        members = [det(BOX_A, 0.9), det(BOX_B, 0.1, det_id=1)]
        assert fuse_boxes(members, FUSED, "avg") == BBox(1, 1, 10, 10)

    def test_vavg_missing_variance_raises(self):
        members = [det(BOX_A, 0.8, variance=1.0), det(BOX_B, 0.7, det_id=7)]
        with pytest.raises(MissingVarianceError, match="7"):
            fuse_boxes(members, FUSED, "v-avg")

    def test_empty_cluster(self):
        with pytest.raises(EmptyClusterError):
            fuse_boxes([], FUSED, "avg")

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            fuse_boxes([det(BOX_A, 0.8)], FUSED, "median")

    def test_vavg_variance_limit_converges_to_confident_member(self):
        members = [
            det(BOX_A, 0.8, variance=1.0),
            det(BOX_B, 0.7, variance=1e12, det_id=1),
            det(BBox(5, 5, 12, 8), 0.6, variance=1e12, det_id=2),
        ]
        out = fuse_boxes(members, FUSED, "v-avg")
        for got, want in zip(out.as_list(), BOX_A.as_list()):
            assert got == pytest.approx(want, abs=1e-6)

    def test_avg_equals_vavg_with_equal_variances(self):
        members = [
            det(BOX_A, 0.8, variance=3.7),
            det(BOX_B, 0.7, variance=3.7, det_id=1),
            det(BBox(1, 3, 9, 11), 0.6, variance=3.7, det_id=2),
        ]
        assert fuse_boxes(members, FUSED, "avg") == fuse_boxes(members, FUSED, "v-avg")

    @pytest.mark.parametrize("mode", ["argmax", "avg", "s-avg", "v-avg"])
    def test_envelope_containment(self, mode):
        members = [
            det(BOX_A, 0.8, variance=0.5),
            det(BOX_B, 0.7, variance=2.0, det_id=1),
            det(BBox(-1, 4, 14, 7), 0.55, variance=5.0, det_id=2),
        ]
        out = fuse_boxes(members, FUSED, mode)
        for attr in ("x", "y", "w", "h"):
            values = [getattr(m.box, attr) for m in members]
            assert min(values) - 1e-9 <= getattr(out, attr) <= max(values) + 1e-9


class TestFusedBoxVariance:
    def test_inverse_variance_sum(self):
        members = [det(BOX_A, 0.8, variance=1.0), det(BOX_B, 0.7, variance=3.0, det_id=1)]
        assert fused_box_variance(members) == pytest.approx(0.75)

    def test_none_when_any_missing(self):
        members = [det(BOX_A, 0.8, variance=1.0), det(BOX_B, 0.7, det_id=1)]
        assert fused_box_variance(members) is None


def reference_box(members, fused_scores, mode):
    """One cluster's box as the per-cluster fusion computed it, through
    convex_combination and its math.fsum sums."""
    if mode == "argmax":
        return min(members, key=lambda d: d.sort_key).box
    if mode == "avg":
        weights = [1.0] * len(members)
    elif mode == "s-avg":
        k = fused_scores.argmax_foreground()
        weights = [float(d.scores.posteriors[k]) for d in members]
    else:
        weights = [1.0 / d.box_variance for d in members]
    return convex_combination([d.box for d in members], weights)


def bits(box):
    return np.array(box.as_list(), dtype=float).tobytes()


# coordinates of mixed magnitudes and signed zeros, so that sums round
coordinate = st.one_of(
    st.floats(-500, 500), st.sampled_from([0.0, -0.0, 1e-9, 3e8, -3e8])
)
member = st.tuples(
    coordinate,
    coordinate,
    st.floats(0.01, 300),
    st.floats(0.01, 300),
    st.floats(0.01, 0.99),  # foreground posterior
    st.floats(1e-3, 1e3),  # box variance
)
# n clusters of one size m, as the engine groups them
same_size_clusters = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(member, min_size=m, max_size=m), min_size=1, max_size=5)
)
CANCELLING = [
    (1e16, 0.0, 1.0, 1.0, 0.5, 1.0),
    (1.0, 0.0, 1.0, 1.0, 0.5, 1.0),
    (-1e16, 0.0, 1.0, 1.0, 0.5, 1.0),
]


class TestWeightedAverage:
    """The column box fusion must equal the per-cluster convex_combination
    bit for bit in every mode, for clusters of 1-4 members."""

    @pytest.mark.parametrize("mode", BOX_FUSION_MODES)
    @settings(deadline=None)
    @given(clusters=same_size_clusters)
    @example(clusters=[[(-0.0, 5.0, 2.0, 3.0, 0.5, 1.0)]])  # fsum turns -0.0 into 0.0
    @example(clusters=[[(-0.0, 5.0, 2.0, 3.0, 0.5, 1.0), (-0.0, 5.0, 2.0, 3.0, 0.4, 2.0)]])
    @example(clusters=[CANCELLING])  # a float sum of three terms loses the 1.0
    @example(clusters=[CANCELLING + [(7.0, 0.0, 1.0, 1.0, 0.5, 1.0)]])
    def test_equals_convex_combination(self, mode, clusters):
        fused = ClassScores.from_posteriors([0.3, 0.7])
        members = [
            [det(BBox(*m[:4]), m[4], variance=m[5], det_id=j) for j, m in enumerate(cluster)]
            for cluster in clusters
        ]
        want = [reference_box(ms, fused, mode) for ms in members]
        for ms, box in zip(members, want):
            assert bits(fuse_boxes(ms, fused, mode)) == bits(box)
        if mode == "argmax":
            return
        flat = [d for ms in members for d in ms]
        weights = member_weights(
            mode,
            [d.scores.posteriors[1] for d in flat],
            [d.box_variance for d in flat],
            [d.det_id for d in flat],
        ).reshape(len(members), -1)
        boxes = np.array([[d.box.as_list() for d in ms] for ms in members], dtype=float)
        got = weighted_average(boxes, weights)
        for row, box in zip(got, want):
            assert row.tobytes() == bits(box)

    @settings(deadline=None)
    @given(clusters=same_size_clusters)
    # summed right to left, the inverse variances give 199.28888862050403
    @example(clusters=[[(0.0, 0.0, 1.0, 1.0, 0.5, v) for v in (714.13, 921.099, 394.964)]])
    def test_fused_variance_sums_left_to_right(self, clusters):
        variances = np.array([[m[5] for m in cluster] for cluster in clusters], dtype=float)
        want = np.array([1.0 / sum(1.0 / v for v in row) for row in variances.tolist()])
        assert fused_variance(variances).tobytes() == want.tobytes()

    def test_missing_variance_names_first_member_in_layout_order(self):
        with pytest.raises(MissingVarianceError, match="detection 7 "):
            member_weights("v-avg", [0.5] * 4, [1.0, np.nan, 2.0, np.nan], [3, 7, 5, 2])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            weighted_average(np.zeros((2, 2, 4)) + 1.0, np.array([[1.0, 0.5], [0.0, 0.0]]))
