import math

import pytest
from hypothesis import given, strategies as st

from gvqa.temporal import (
    EmptyAfterClamp,
    TemporalSegment,
    VideoExtent,
    clamp_to_video,
    intersect_len,
    iop,
    iou,
)


def seg(a, b):
    return TemporalSegment(a, b)


class TestConstruction:
    def test_basic(self):
        s = seg(1.0, 3.5)
        assert s.start == 1.0
        assert s.end == 3.5
        assert s.length == 2.5

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            seg(2.0, 2.0)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            seg(3.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            seg(-0.5, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            seg(float("nan"), 1.0)

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            seg(0.0, float("inf"))

    def test_frozen(self):
        s = seg(0.0, 1.0)
        with pytest.raises(AttributeError):
            s.start = 5.0

    def test_extent_positive(self):
        with pytest.raises(ValueError):
            VideoExtent(0.0)
        with pytest.raises(ValueError):
            VideoExtent(-3.0)


class TestOverlap:
    # Hand-computed: [2,6] vs [4,10]: inter 2, union 8, pred len 4.
    def test_partial(self):
        assert intersect_len(seg(2, 6), seg(4, 10)) == 2.0
        assert iop(seg(2, 6), seg(4, 10)) == 0.5
        assert iou(seg(2, 6), seg(4, 10)) == 0.25

    def test_disjoint(self):
        assert intersect_len(seg(0, 1), seg(2, 3)) == 0.0
        assert iop(seg(0, 1), seg(2, 3)) == 0.0
        assert iou(seg(0, 1), seg(2, 3)) == 0.0

    def test_touching_endpoints(self):
        # closed intervals sharing one point still have zero-length overlap
        assert intersect_len(seg(0, 2), seg(2, 5)) == 0.0

    def test_identical(self):
        assert iop(seg(1, 4), seg(1, 4)) == 1.0
        assert iou(seg(1, 4), seg(1, 4)) == 1.0

    def test_pred_inside_gt(self):
        # pred [3,5] inside gt [0,10]: IoP 1, IoU 0.2
        assert iop(seg(3, 5), seg(0, 10)) == 1.0
        assert iou(seg(3, 5), seg(0, 10)) == pytest.approx(0.2)

    def test_gt_inside_pred(self):
        # whole-video pred [0,10] vs gt [3,5]: IoP 0.2, IoU 0.2 (equal)
        assert iop(seg(0, 10), seg(3, 5)) == pytest.approx(0.2)
        assert iou(seg(0, 10), seg(3, 5)) == pytest.approx(0.2)


finite = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def segments(draw):
    a = draw(finite)
    b = draw(st.floats(min_value=1e-3, max_value=1e4))
    return TemporalSegment(a, a + b)


@given(segments(), segments())
def test_iou_symmetric(a, b):
    assert iou(a, b) == pytest.approx(iou(b, a))


@given(segments(), segments())
def test_bounds(a, b):
    assert 0.0 <= iop(a, b) <= 1.0 + 1e-12
    assert 0.0 <= iou(a, b) <= 1.0 + 1e-12


@given(segments(), segments())
def test_iou_never_exceeds_iop(a, b):
    # union >= pred length, with equality only when gt is contained in pred
    assert iou(a, b) <= iop(a, b) + 1e-12


@given(segments())
def test_self_overlap_is_one(a):
    assert iou(a, a) == pytest.approx(1.0)
    assert iop(a, a) == pytest.approx(1.0)


class TestClamp:
    def test_noop_inside(self):
        s = clamp_to_video(1.0, 3.0, VideoExtent(10.0))
        assert (s.start, s.end) == (1.0, 3.0)

    def test_clips_both_ends(self):
        s = clamp_to_video(-2.0, 15.0, VideoExtent(10.0))
        assert (s.start, s.end) == (0.0, 10.0)

    def test_entirely_outside_raises(self):
        with pytest.raises(EmptyAfterClamp):
            clamp_to_video(12.0, 14.0, VideoExtent(10.0))

    def test_collapses_to_point_raises(self):
        with pytest.raises(EmptyAfterClamp):
            clamp_to_video(-5.0, 0.0, VideoExtent(10.0))

    def test_result_within_video(self):
        s = clamp_to_video(0.5, 99.0, VideoExtent(40.0))
        assert s.start >= 0.0 and s.end <= 40.0
