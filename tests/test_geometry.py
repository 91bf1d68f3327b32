import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proben import BBox, DegenerateWeightsError, convex_combination, iou
from proben.geometry import box_iou


def rasterized_iou(a: BBox, b: BBox, scale: int = 1) -> float:
    """Oracle: count shared integer cells of integer-coordinate boxes."""

    def cells(box):
        return {
            (i, j)
            for i in range(int(box.x * scale), int(box.x2 * scale))
            for j in range(int(box.y * scale), int(box.y2 * scale))
        }

    ca, cb = cells(a), cells(b)
    return len(ca & cb) / len(ca | cb)


finite_coord = st.floats(min_value=-500, max_value=500, allow_nan=False)
extent = st.floats(min_value=0.1, max_value=300, allow_nan=False)
boxes = st.builds(BBox, finite_coord, finite_coord, extent, extent)

int_boxes = st.builds(
    BBox,
    st.integers(-20, 20).map(float),
    st.integers(-20, 20).map(float),
    st.integers(1, 15).map(float),
    st.integers(1, 15).map(float),
)


class TestBBox:
    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 5)
        with pytest.raises(ValueError):
            BBox(0, 0, 5, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            BBox(bad, 0, 1, 1)
        with pytest.raises(ValueError):
            BBox(0, 0, bad, 1)

    @pytest.mark.parametrize("box", [(1.7e308, 0, 1e308, 5), (0, 1e308, 5, 1e308)])
    def test_rejects_far_edge_beyond_float_range(self, box):
        with pytest.raises(ValueError, match="far edges must be finite"):
            BBox(*box)

    def test_subpixel_coordinates_allowed(self):
        b = BBox(0.25, -3.5, 0.5, 7.125)
        assert b.x2 == 0.75


class TestIou:
    def test_identity(self):
        b = BBox(3.5, -2, 10, 4)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_edge_touching_is_zero(self):
        assert iou(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)) == 0.0

    def test_quarter_overlap(self):
        # intersection 1, union 7 on a 4x4 integer canvas
        assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == pytest.approx(1 / 7, abs=1e-12)

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(int_boxes, int_boxes)
    def test_matches_rasterization_oracle(self, a, b):
        assert iou(a, b) == pytest.approx(rasterized_iou(a, b), abs=1e-9)


class TestConvexCombination:
    def test_single_box_identity(self):
        b = BBox(1, 2, 3, 4)
        assert convex_combination([b], [1.0]) == b

    def test_equal_weights_midpoint(self):
        out = convex_combination([BBox(0, 0, 10, 10), BBox(2, 2, 10, 10)], [1, 1])
        assert out == BBox(1, 1, 10, 10)

    def test_weighted_mean(self):
        out = convex_combination([BBox(0, 0, 10, 10), BBox(2, 2, 10, 10)], [3, 1])
        assert out == BBox(0.5, 0.5, 10, 10)

    def test_empty_input_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            convex_combination([], [])

    def test_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            convex_combination([BBox(0, 0, 1, 1)], [0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            convex_combination([BBox(0, 0, 1, 1), BBox(1, 1, 1, 1)], [2.0, -1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            convex_combination([BBox(0, 0, 1, 1)], [1.0, 1.0])

    @given(
        st.lists(boxes, min_size=1, max_size=5),
        st.data(),
    )
    def test_output_in_envelope(self, bs, data):
        ws = data.draw(
            st.lists(
                st.floats(min_value=0, max_value=10),
                min_size=len(bs),
                max_size=len(bs),
            ).filter(lambda w: sum(w) > 0)
        )
        out = convex_combination(bs, ws)
        for attr in ("x", "y", "w", "h"):
            values = [getattr(b, attr) for b in bs]
            assert min(values) - 1e-9 <= getattr(out, attr) <= max(values) + 1e-9


@st.composite
def box_pairs(draw):
    """Two boxes that are identical, touch along an edge, nest, differ by a
    fraction of a pixel, or are drawn independently."""
    a = draw(boxes)
    kind = draw(st.sampled_from(["identical", "touching", "nested", "subpixel", "free"]))
    if kind == "identical":
        return a, BBox(a.x, a.y, a.w, a.h)
    if kind == "touching":
        return a, BBox(a.x2, a.y + draw(st.floats(-a.h, a.h)), draw(extent), draw(extent))
    if kind == "nested":
        fx, fy, fw, fh = (draw(st.floats(0.0, 0.5)) for _ in range(4))
        inner = BBox(a.x + fx * a.w, a.y + fy * a.h, max(fw, 0.01) * a.w, max(fh, 0.01) * a.h)
        return (a, inner) if draw(st.booleans()) else (inner, a)
    if kind == "subpixel":
        nudge = st.floats(-1e-6, 1e-6)
        return a, BBox(a.x + draw(nudge), a.y + draw(nudge), a.w + draw(nudge), a.h + draw(nudge))
    return a, draw(boxes)


def as_rows(bs):
    return np.array([b.as_list() for b in bs], dtype=float).reshape(-1, 4)


class TestBoxIou:
    """box_iou must equal iou bit for bit: matching and clustering compare
    its values against thresholds with the same strict inequalities."""

    @settings(deadline=None)
    @given(st.lists(box_pairs(), min_size=1, max_size=12))
    # identical boxes whose ratio rounds to 0.9999999999999998
    @example([(BBox(2.482, 2.253, 3.261, 3.946), BBox(2.482, 2.253, 3.261, 3.946))])
    @example([(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)), (BBox(0, 0, 10, 10), BBox(0, 10, 5, 5))])
    # boxes one ulp apart whose ratio rounds to 1.0000000000000002 before the clamp
    @example([(BBox(1.3, 1.18, 4.98, 2.36), BBox(1.3000000000000003, 1.18, 4.98, 2.36))])
    # areas whose sum overflows: a denominator of inf, an IoU of 0
    @example([(BBox(0, 0, 1e154, 1e154), BBox(1, 0, 1e154, 1e154))])
    def test_pairwise_equals_iou(self, pairs):
        a, b = zip(*pairs)
        want = np.array([iou(x, y) for x, y in pairs], dtype=float)
        assert box_iou(as_rows(a), as_rows(b)).tobytes() == want.tobytes()

    @settings(deadline=None)
    @given(st.lists(box_pairs(), min_size=1, max_size=6))
    def test_matrix_equals_iou(self, pairs):
        bs = [b for pair in pairs for b in pair]
        want = np.array([[iou(x, y) for y in bs] for x in bs], dtype=float)
        rows = as_rows(bs)
        assert box_iou(rows[:, None, :], rows[None, :, :]).tobytes() == want.tobytes()
