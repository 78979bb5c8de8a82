import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvqa.gaussian import (
    SIGMA_MIN,
    GaussianMask,
    ShapeMismatch,
    confidence_interval,
    frame_positions,
    frame_times,
    gaussian_gradients,
    mask_weights,
)
from gvqa.model import Episode, ModelConfig, encode_video, init_params, predict_gaussian
from gvqa.temporal import VideoExtent


MODEL = ModelConfig(d_v=5, d_t=6, width=8)


def model_case(seed, n=6):
    """Untrained model, one random episode, and the model's q, k, v maps."""
    rng = np.random.default_rng(seed)
    params = init_params(MODEL, seed=seed)
    ep = Episode(frames=rng.normal(size=(n, MODEL.d_v)), question=rng.normal(size=MODEL.d_t),
                 answers=rng.normal(size=(3, MODEL.d_t)), correct=0, extent=VideoExtent(30.0))
    P = params.arrays
    X = ep.frames @ P["W_v"] + P["b_v"]
    return params, ep, X @ P["W_q"], X @ P["W_k"], X @ P["W_val"]


class TestFrameTimes:
    def test_four_frames_forty_seconds(self):
        assert frame_times(4, 40.0).tolist() == [5.0, 15.0, 25.0, 35.0]

    def test_two_frames_ten_seconds(self):
        assert frame_times(2, 10.0).tolist() == [2.5, 7.5]

    def test_32_frames_first_center(self):
        t = frame_times(32, 39.5)
        assert len(t) == 32
        assert t[0] == pytest.approx(0.5 / 32 * 39.5)
        assert t[0] == pytest.approx(0.617, abs=1e-3)


class TestMaskParams:
    def test_mu_box(self):
        with pytest.raises(ValueError):
            GaussianMask(-0.1, 0.5)
        with pytest.raises(ValueError):
            GaussianMask(1.1, 0.5)

    def test_sigma_box(self):
        with pytest.raises(ValueError):
            GaussianMask(0.5, 0.001)
        with pytest.raises(ValueError):
            GaussianMask(0.5, 1.5)

    def test_squash_always_in_box(self):
        # the model's grounding head squashes its outputs into the box
        params, ep, *_ = model_case(5)
        for b_mu, b_sg in [(-50, -50), (0, 0), (50, 50), (3.2, -7.1)]:
            params.arrays["b_mu"][...] = b_mu
            params.arrays["b_sg"][...] = b_sg
            m = predict_gaussian(params, ep)
            assert 0.0 <= m.mu <= 1.0
            assert SIGMA_MIN <= m.sigma <= 1.0

    def test_squash_midpoint(self):
        params, ep, *_ = model_case(6)
        for name in ("w_mu", "a_mu", "b_mu", "w_sg", "a_sg", "b_sg"):
            params.arrays[name][...] = 0.0
        m = predict_gaussian(params, ep)
        assert m.mu == pytest.approx(0.5)
        assert m.sigma == pytest.approx(SIGMA_MIN + (1 - SIGMA_MIN) * 0.5)


class TestMaskWeights:
    def test_peak_is_one_on_grid_point(self):
        # x_1 = 0.375 for n=4; put mu exactly there
        g = mask_weights(GaussianMask(0.375, 0.2), 4)
        assert g[1] == pytest.approx(1.0)

    def test_closed_form_value(self):
        # mu=0.5, sigma=0.5, x=1.0 -> exp(-0.5)
        g = mask_weights(GaussianMask(0.5, 0.5), 2)
        x = 0.75  # second frame center for n=2
        assert g[1] == pytest.approx(math.exp(-0.5 * ((x - 0.5) / 0.5) ** 2))
        manual = math.exp(-0.5 * ((1.0 - 0.5) / 0.5) ** 2)
        assert manual == pytest.approx(0.6065, abs=1e-4)

    def test_extreme_decay_positive_no_nan(self):
        g = mask_weights(GaussianMask(0.0, SIGMA_MIN), 32)
        assert np.all(g > 0)
        assert np.all(np.isfinite(g))

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=SIGMA_MIN, max_value=1.0),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_unimodal_peak_nearest_mu(self, mu, sigma, n):
        g = mask_weights(GaussianMask(mu, sigma), n)
        assert np.all(g > 0) and np.all(g <= 1.0)
        x = (np.arange(n) + 0.5) / n
        nearest = int(np.argmin(np.abs(x - mu)))
        assert g[nearest] == pytest.approx(g.max())
        # non-increasing walking away from the peak on both sides
        left = g[: nearest + 1]
        right = g[nearest:]
        assert np.all(np.diff(left) >= -1e-12)
        assert np.all(np.diff(right) <= 1e-12)


def mask_gradients(mask, weights, upstream):
    """gaussian_gradients for one mask on its frame grid."""
    return gaussian_gradients(frame_positions(len(weights)), mask.mu, mask.sigma,
                              weights, np.asarray(upstream, dtype=float))


class TestMaskGradients:
    def test_zero_upstream(self):
        mask = GaussianMask(0.3, 0.2)
        d_mu, d_sigma = mask_gradients(mask, mask_weights(mask, 8), np.zeros(8))
        assert d_mu == 0.0 and d_sigma == 0.0

    def test_symmetric_upstream_zero_mu_grad(self):
        # mu on the grid's axis of symmetry, even upstream -> odd integrand
        up = np.array([1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0])
        mask = GaussianMask(0.5, 0.3)
        d_mu, _ = mask_gradients(mask, mask_weights(mask, 8), up)
        assert d_mu == pytest.approx(0.0, abs=1e-12)

    def test_upstream_length_checked(self):
        mask = GaussianMask(0.5, 0.3)
        with pytest.raises(ShapeMismatch):
            mask_gradients(mask, mask_weights(mask, 8), np.zeros(5))

    def test_matches_finite_differences(self):
        # central differences on L = sum(up * G) over 100 random draws
        rng = np.random.default_rng(42)
        eps = 1e-5
        for _ in range(100):
            mu = rng.uniform(0.05, 0.95)
            sigma = rng.uniform(0.05, 0.9)
            up = rng.normal(size=16)

            def loss(m, s):
                return float(np.sum(up * mask_weights(GaussianMask(m, s), 16)))

            mask = GaussianMask(mu, sigma)
            d_mu, d_sigma = mask_gradients(mask, mask_weights(mask, 16), up)
            fd_mu = (loss(mu + eps, sigma) - loss(mu - eps, sigma)) / (2 * eps)
            fd_sigma = (loss(mu, sigma + eps) - loss(mu, sigma - eps)) / (2 * eps)
            assert d_mu == pytest.approx(fd_mu, rel=1e-4, abs=1e-8)
            assert d_sigma == pytest.approx(fd_sigma, rel=1e-4, abs=1e-8)

    def test_batched_rows_match_one_mask_at_a_time(self):
        # the engine's form: one (mu, sigma) per row against one grid
        rng = np.random.default_rng(43)
        x = frame_positions(12)
        mu, sigma = rng.uniform(0.1, 0.9, size=(5, 1)), rng.uniform(0.05, 0.5, size=(5, 1))
        weights = np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        up = rng.normal(size=(5, 12))
        d_mu, d_sigma = gaussian_gradients(x, mu, sigma, weights, up)
        for i in range(5):
            one = mask_gradients(GaussianMask(mu[i, 0], sigma[i, 0]), weights[i], up[i])
            assert (d_mu[i], d_sigma[i]) == pytest.approx(one, rel=1e-12)


class TestConfidenceInterval:
    def test_basic_arithmetic(self):
        seg = confidence_interval(GaussianMask(0.5, 0.1), VideoExtent(40.0), gamma=1.0)
        assert (seg.start, seg.end) == (16.0, 24.0)

    def test_left_clamp(self):
        seg = confidence_interval(GaussianMask(0.0, 0.2), VideoExtent(10.0), gamma=1.0)
        assert (seg.start, seg.end) == (0.0, 2.0)

    def test_gamma_08(self):
        seg = confidence_interval(GaussianMask(0.5, 0.1), VideoExtent(40.0), gamma=0.8)
        assert seg.start == pytest.approx(16.8)
        assert seg.end == pytest.approx(23.2)

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError):
            confidence_interval(GaussianMask(0.5, 0.1), VideoExtent(40.0), gamma=0.0)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=SIGMA_MIN, max_value=1.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_a_valid_window(self, mu, sigma, gamma, dur):
        seg = confidence_interval(GaussianMask(mu, sigma), VideoExtent(dur), gamma)
        assert 0.0 <= seg.start < seg.end <= dur

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=SIGMA_MIN, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_width_monotone_in_gamma_and_sigma(self, mu, sigma):
        ext = VideoExtent(50.0)
        w1 = confidence_interval(GaussianMask(mu, sigma), ext, 0.8).length
        w2 = confidence_interval(GaussianMask(mu, sigma), ext, 1.0).length
        assert w2 >= w1 - 1e-12
        w3 = confidence_interval(GaussianMask(mu, min(1.0, sigma * 1.5)), ext, 1.0).length
        assert w3 >= w2 - 1e-12

    def test_preclamp_width(self):
        # interior mask: no clamping, width exactly 2*gamma*sigma*d
        seg = confidence_interval(GaussianMask(0.5, 0.05), VideoExtent(60.0), gamma=1.0)
        assert seg.length == pytest.approx(2 * 1.0 * 0.05 * 60.0)


def softmax_rows(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def plain_attention(q, k, v):
    return softmax_rows(q @ k.T / math.sqrt(q.shape[1])) @ v


def pooled(params, h):
    """The model's attention pooling of the token outputs h."""
    return softmax_rows(h @ params.arrays["u"]) @ h


class TestGaussianAttention:
    """The model's attention scales post-softmax weights per key by the mask
    weights; checked through encode_video's pooled output."""

    def test_all_ones_mask_is_plain_attention(self):
        params, ep, q, k, v = model_case(0)
        out, _ = encode_video(params, ep)  # no mask: all weights 1
        assert np.allclose(out, pooled(params, plain_attention(q, k, v)), atol=1e-12)

    def test_one_hot_mask_selects_one_value_row(self):
        # sigma at the floor on frame 2's center: the other weights are
        # below 1e-30, so only value row 2 gets through
        params, ep, q, k, v = model_case(1, n=8)
        out, _ = encode_video(params, ep, GaussianMask(2.5 / 8, SIGMA_MIN))
        attn = softmax_rows(q @ k.T / math.sqrt(q.shape[1]))
        expected = np.outer(attn[:, 2], v[2])
        assert np.allclose(out, pooled(params, expected), atol=1e-12)

    def test_matches_dense_oracle(self):
        # independent reimplementation: explicit loops, no broadcasting
        params, ep, q, k, v = model_case(2, n=4)
        mask = GaussianMask(0.4, 0.3)
        g = mask_weights(mask, ep.n_frames)
        out, _ = encode_video(params, ep, mask)
        n, dk = q.shape
        oracle = np.zeros((n, v.shape[1]))
        for i in range(n):
            raw = [sum(q[i, t] * k[j, t] for t in range(dk)) / math.sqrt(dk) for j in range(n)]
            m = max(raw)
            ex = [math.exp(r - m) for r in raw]
            z = sum(ex)
            for j in range(n):
                w = (ex[j] / z) * g[j]
                for c in range(v.shape[1]):
                    oracle[i, c] += w * v[j, c]
        assert np.allclose(out, pooled(params, oracle), atol=1e-10)

    def test_rows_not_renormalized(self):
        # masked rows keep their reduced mass: re-normalizing them would
        # give a different pooled vector
        params, ep, q, k, v = model_case(3)
        mask = GaussianMask(0.2, 0.1)
        g = mask_weights(mask, ep.n_frames)
        out, _ = encode_video(params, ep, mask)
        scaled = softmax_rows(q @ k.T / math.sqrt(q.shape[1])) * g[None, :]
        assert np.allclose(out, pooled(params, scaled @ v), atol=1e-12)
        renormed = (scaled / scaled.sum(axis=1, keepdims=True)) @ v
        assert not np.allclose(out, pooled(params, renormed), atol=1e-6)

    def test_shape_mismatch(self):
        params, ep, *_ = model_case(4)
        wide = Episode(frames=np.ones((4, MODEL.d_v + 1)), question=ep.question,
                       answers=ep.answers, correct=0, extent=ep.extent)
        with pytest.raises(ShapeMismatch):
            encode_video(params, wide)
        mask = GaussianMask(0.5, 0.3)
        with pytest.raises(ShapeMismatch):
            mask_gradients(mask, mask_weights(mask, ep.n_frames), np.ones(7))
