import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvqa import posthoc
from gvqa.gaussian import frame_times
from gvqa.posthoc import (
    DIST_CAP_S,
    SMOOTH_W,
    DegenerateTraceWarning,
    extract_window_raw,
    smooth_scores,
)


def normalized(values):
    values = np.asarray(values, dtype=float)
    return values / values.sum()


class TestSmoothing:
    def test_width_one_is_identity(self):
        s = np.array([3.0, 1.0, 4.0])
        assert smooth_scores(s, 1).tolist() == [3.0, 1.0, 4.0]

    def test_width_three_edge_truncated(self):
        s = np.array([1.0, 0.0, 0.0, 0.0])
        out = smooth_scores(s, 3)
        assert out[0] == pytest.approx(0.5)       # mean of first two
        assert out[1] == pytest.approx(1 / 3)
        assert out[2] == pytest.approx(0.0)
        assert out[3] == pytest.approx(0.0)

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            smooth_scores(np.ones(4), 2)

    def test_preserves_constant(self):
        out = smooth_scores(np.full(6, 0.25), 3)
        assert np.allclose(out, 0.25)

    def test_constant_stays_exactly_flat(self):
        # the cumulative sum runs on the scores minus the first one, so any
        # constant comes back exact and extraction sees a flat trace
        for value in (0.25, 7.3, 1e6):
            out = smooth_scores(np.full(40, value), 5)
            assert np.all(out == value)


def loop_smooth(scores, smooth_w):
    """The per-frame loop that smooth_scores replaced, kept as an oracle."""
    h = smooth_w // 2
    n = len(scores)
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - h), min(n, i + h + 1)
        out[i] = float(np.mean(scores[lo:hi]))
    return out


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=130),
    st.sampled_from([1, 3, 5, 7, 9]),
)
@settings(max_examples=200, deadline=None)
def test_smoothing_matches_loop_oracle(values, smooth_w):
    v = np.array(values)
    got = smooth_scores(v, smooth_w)
    expected = loop_smooth(v, smooth_w)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(v)))


@pytest.fixture
def unsmoothed(monkeypatch):
    """The window rule on its own: extraction with the smoothing width at 1."""
    monkeypatch.setattr(posthoc, "SMOOTH_W", 1)


class TestExtractWindow:
    def test_one_hot_yields_single_bin(self, unsmoothed):
        # 8 frames over 40s: bins of 5s; peak at frame 3 -> [15, 20]
        # smoothing would spread the spike to frames 2..4, all >= mean
        seg = extract_window_raw(normalized([0, 0, 0, 1, 0, 0, 0, 0]), 40.0)
        assert (seg.start, seg.end) == (15.0, 20.0)

    def test_uniform_trace_degenerate(self):
        with pytest.warns(DegenerateTraceWarning):
            seg = extract_window_raw(normalized([1, 1, 1, 1]), 20.0)
        assert (seg.start, seg.end) == (0.0, 5.0)

    def test_plateau_spans_plateau_bins(self, unsmoothed):
        # 16 frames over 32s (2s bins). Plateau of 5 high frames at 5..9,
        # everything else near zero. The 10s cap reaches past it.
        v = np.full(16, 0.01)
        v[5:10] = 1.0
        seg = extract_window_raw(v, 32.0)
        assert (seg.start, seg.end) == (5 * 2.0, 10 * 2.0)

    def test_distance_cap_limits_expansion(self):
        # 20 frames over 100s: centers 5s apart. All frames high -> without a
        # cap the window would span everything; 10s cap keeps centers within
        # 10s of the pivot (2 frames each side).
        # tiny tilt so argmax = 0, not flat; smoothing keeps it decreasing
        v = np.linspace(1.0, 0.99, 20)
        seg = extract_window_raw(v, 100.0)
        assert seg.start == 0.0
        assert seg.end == pytest.approx(15.0)  # frames 0,1,2 -> bins [0,15]

    def test_pivot_always_inside(self):
        rng = np.random.default_rng(1)
        times = frame_times(32, 60.0)
        for _ in range(50):
            v = rng.uniform(0, 1, size=32)
            seg = extract_window_raw(v, 60.0)
            sm = smooth_scores(v, SMOOTH_W)
            pivot = int(np.argmax((sm - sm.min()) / (sm.max() - sm.min())))
            assert seg.start <= times[pivot] <= seg.end

    def test_lowest_index_tie_rule(self, unsmoothed):
        # two equal peaks; pivot must be the earlier one
        v = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        seg = extract_window_raw(v, 12.0)
        # mean of normalized = 2/6=0.333; both peaks qualify but only
        # contiguously-reachable frames from pivot 1 are included
        assert seg.start == pytest.approx(2.0)
        assert seg.end == pytest.approx(4.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = rng.uniform(0, 1, size=32)
            a = rng.uniform(0.1, 20.0)
            b = rng.uniform(-1.0, 5.0)
            s1 = extract_window_raw(v, 45.0)
            s2 = extract_window_raw(a * v + b, 45.0)
            assert s1.start == pytest.approx(s2.start, abs=1e-9)
            assert s1.end == pytest.approx(s2.end, abs=1e-9)


def brute_force_window(v, duration):
    """Independent oracle: enumerate every frame, test inclusion by walking."""
    sm = smooth_scores(np.asarray(v, float), SMOOTH_W)
    if sm.max() - sm.min() <= 1e-15:
        return None
    norm = (sm - sm.min()) / (sm.max() - sm.min())
    # near-ties within 1e-9 of the top count as the pivot (lowest index wins),
    # matching the affine-stable tie rule of the implementation
    pivot = min(i for i in range(len(norm)) if norm[i] >= 1.0 - 1e-9)
    times = frame_times(len(norm), duration)
    mean = norm.mean()
    included = {pivot}
    i = pivot - 1
    while i >= 0 and norm[i] >= mean - 1e-9 and abs(times[i] - times[pivot]) <= DIST_CAP_S:
        included.add(i)
        i -= 1
    i = pivot + 1
    while i < len(norm) and norm[i] >= mean - 1e-9 and abs(times[i] - times[pivot]) <= DIST_CAP_S:
        included.add(i)
        i += 1
    bw = duration / len(norm)
    return (min(included) * bw, (max(included) + 1) * bw)


# the cap is fixed in seconds, so the duration range sets how many frame bins
# it spans: from under one bin (48 frames over 1200 s) to the whole video
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=48),
    st.floats(min_value=5.0, max_value=1200.0),
)
@settings(max_examples=120, deadline=None)
def test_matches_brute_force_oracle(values, duration):
    expected = brute_force_window(values, duration)
    if expected is None:
        with pytest.warns(DegenerateTraceWarning):
            seg = extract_window_raw(np.array(values), duration)
        assert (seg.start, seg.end) == (0.0, duration / len(values))
    else:
        seg = extract_window_raw(np.array(values), duration)
        assert seg.start == pytest.approx(expected[0], abs=1e-9)
        assert seg.end == pytest.approx(expected[1], abs=1e-9)


@given(
    st.integers(min_value=4, max_value=64),
    st.floats(min_value=5.0, max_value=300.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_window_respects_distance_cap(n, duration, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0, 1, size=n)
    sm = smooth_scores(v, SMOOTH_W)
    if sm.max() - sm.min() <= 1e-15:
        return
    seg = extract_window_raw(v, duration)
    norm = (sm - sm.min()) / (sm.max() - sm.min())
    pivot = int(np.argmax(norm))
    pivot_t = frame_times(n, duration)[pivot]
    bin_w = duration / n
    assert seg.start >= pivot_t - DIST_CAP_S - bin_w - 1e-9
    assert seg.end <= pivot_t + DIST_CAP_S + bin_w + 1e-9
