import copy
import dataclasses
import json
import math
import re
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvqa import gaussian, model
from gvqa.gaussian import (
    SIGMA_MIN,
    GaussianMask,
    confidence_interval,
    frame_positions,
    mask_weights,
)
from gvqa.metrics import Prediction, evaluate
from gvqa.model import (
    PARAM_NAMES,
    Episode,
    ModelConfig,
    ModelParams,
    NegativeCountMismatch,
    ShapeMismatch,
    encode_video,
    fuse_windows,
    grounding_loss,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    ng_loss,
    ngplus_loss,
    predict_episode,
    predict_gaussian,
    save_checkpoint,
)
from gvqa.posthoc import DegenerateTraceWarning, extract_window_raw
from gvqa.synth import episodes_to_labels
from gvqa.temporal import END_SLACK, TemporalSegment, VideoExtent


SMALL = ModelConfig(d_v=5, d_t=6, width=8)


def make_episode(rng, n=4, d_v=5, d_t=6, A=3, duration=20.0, identical_frames=False):
    if identical_frames:
        frames = np.tile(rng.normal(size=d_v), (n, 1))
    else:
        frames = rng.normal(size=(n, d_v))
    return Episode(
        frames=frames,
        question=rng.normal(size=d_t),
        answers=rng.normal(size=(A, d_t)),
        correct=int(rng.integers(A)),
        extent=VideoExtent(duration),
        neg_questions=[rng.normal(size=d_t) for _ in range(A - 1)],
        gt_moment=TemporalSegment(4.0, 9.0),
    )


class TestEpisode:
    def test_validates_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatch):
            Episode(
                frames=rng.normal(size=(4, 5)),
                question=rng.normal(size=6),
                answers=rng.normal(size=(3, 7)),  # text dim mismatch
                correct=0,
                extent=VideoExtent(10.0),
            )
        with pytest.raises(ShapeMismatch, match="n>=2"):
            Episode(frames=rng.normal(size=(1, 5)), question=rng.normal(size=6),
                    answers=rng.normal(size=(3, 6)), correct=0, extent=VideoExtent(10.0))

    def test_correct_in_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Episode(
                frames=rng.normal(size=(4, 5)),
                question=rng.normal(size=6),
                answers=rng.normal(size=(3, 6)),
                correct=3,
                extent=VideoExtent(10.0),
            )

    def test_moment_inside_video(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Episode(
                frames=rng.normal(size=(4, 5)),
                question=rng.normal(size=6),
                answers=rng.normal(size=(3, 6)),
                correct=0,
                extent=VideoExtent(10.0),
                gt_moment=TemporalSegment(5.0, 12.0),
            )

    def test_moment_may_end_within_the_slack(self):
        # the rule GroundingLabel applies to a label's segments
        rng = np.random.default_rng(0)

        def ending_at(end):
            return Episode(
                frames=rng.normal(size=(4, 5)),
                question=rng.normal(size=6),
                answers=rng.normal(size=(3, 6)),
                correct=0,
                extent=VideoExtent(10.0),
                gt_moment=TemporalSegment(5.0, end),
            )

        edge = 10.0 + END_SLACK
        assert ending_at(edge).gt_moment.end == edge
        with pytest.raises(ValueError):
            ending_at(float(np.nextafter(edge, np.inf)))

    @pytest.mark.parametrize("error,fields", [
        (ShapeMismatch, {"frames": np.zeros((1, 5))}),
        (ShapeMismatch, {"frames": np.zeros(5)}),
        (ShapeMismatch, {"question": np.zeros((2, 6))}),
        (ShapeMismatch, {"answers": np.zeros((1, 6))}),
        (ShapeMismatch, {"answers": np.zeros((3, 7))}),
        (ShapeMismatch, {"neg_questions": [np.zeros(7)]}),
        (ShapeMismatch, {"pos_variants": [np.zeros(5)]}),
        (ValueError, {"correct": 3}),
        (ValueError, {"correct": -1}),
        (ValueError, {"gt_moment": TemporalSegment(5.0, 12.0)}),
        (ValueError, {"correct": 1.5}),
        (ValueError, {"correct": np.float64(1.0)}),
    ])
    def test_errors_name_the_episode(self, error, fields):
        rng = np.random.default_rng(0)
        ep = dict(frames=rng.normal(size=(4, 5)), question=rng.normal(size=6),
                  answers=rng.normal(size=(3, 6)), correct=0, extent=VideoExtent(10.0),
                  question_id="q")
        with pytest.raises(error, match="^episode 'q': "):
            Episode(**{**ep, **fields})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["frames", "question", "answers"])
    def test_non_finite_array_names_the_episode_and_field(self, field, value):
        rng = np.random.default_rng(0)
        ep = dict(frames=rng.normal(size=(4, 5)), question=rng.normal(size=6),
                  answers=rng.normal(size=(3, 6)), correct=0, extent=VideoExtent(10.0),
                  question_id="q")
        ep[field].flat[-1] = value
        with pytest.raises(ValueError, match=f"^episode 'q': non-finite value in {field}$"):
            Episode(**ep)

    def test_shape_mismatch_is_the_gaussian_class(self):
        assert ShapeMismatch is gaussian.ShapeMismatch


class TestEncodeVideo:
    def test_identical_frames_uniform_trace(self):
        rng = np.random.default_rng(1)
        params = init_params(SMALL, seed=0)
        ep = make_episode(rng, n=6, identical_frames=True)
        _, trace = encode_video(params, ep)
        assert np.allclose(trace, 1 / 6, atol=1e-12)
        # masked pathway keeps the symmetry too
        _, trace_m = encode_video(params, ep, GaussianMask(0.3, 0.2))
        assert np.allclose(trace_m, 1 / 6, atol=1e-12)

    def test_trace_sums_to_one(self):
        rng = np.random.default_rng(2)
        params = init_params(SMALL, seed=0)
        for _ in range(10):
            ep = make_episode(rng)
            _, trace = encode_video(params, ep, GaussianMask(0.5, 0.3))
            assert trace.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(trace > 0)

    def test_near_delta_mask_selects_value_pathway(self):
        # sigma at the floor concentrates the mask on one frame; the pooled
        # vector must align with that frame's value vector
        rng = np.random.default_rng(3)
        params = init_params(SMALL, seed=1)
        ep = make_episode(rng, n=8)
        j = 5
        mu = (j + 0.5) / 8
        v_t, _ = encode_video(params, ep, GaussianMask(mu, SIGMA_MIN))
        P = params.arrays
        X = ep.frames @ P["W_v"] + P["b_v"]
        Vm = X @ P["W_val"]
        cos = float(v_t @ Vm[j] / (np.linalg.norm(v_t) * np.linalg.norm(Vm[j])))
        assert cos == pytest.approx(1.0, abs=1e-9)


class TestScoreAnswers:
    """Answer scores as predict_episode reports them."""

    def test_exact_copy_wins(self):
        # with W_a = identity (d_t == width) the answer rows pass through, so
        # an answer equal to the fused vector has cosine 1 and must win
        cfg = ModelConfig(d_v=5, d_t=8, width=8)
        params = init_params(cfg, seed=2)
        params.arrays["W_a"] = np.eye(8)
        params.arrays["b_a"] = np.zeros(8)
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(4, 5))
        question = rng.normal(size=8)
        placeholder = rng.normal(size=(3, 8))
        ep = Episode(frames=frames, question=question, answers=placeholder,
                     correct=1, extent=VideoExtent(10.0))
        # the mask does not depend on the answers
        v_t, _ = encode_video(params, ep, predict_gaussian(params, ep))
        f = v_t + question @ params.arrays["W_t"] + params.arrays["b_t"]
        # distractors orthogonal to f
        basis = np.linalg.qr(np.column_stack([f, rng.normal(size=(8, 2))]))[0]
        answers = np.stack([basis[:, 1] * 3.0, f, basis[:, 2] * 0.5])
        ep2 = Episode(frames=frames, question=question, answers=answers,
                      correct=1, extent=VideoExtent(10.0))
        scores = predict_episode(params, ep2).scores
        assert int(np.argmax(scores)) == 1
        assert scores[1] == pytest.approx(1.0 / params.temperature, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        params = init_params(SMALL, seed=3)
        ep = make_episode(rng, A=4)
        perm = np.array([2, 0, 3, 1])
        ep_perm = Episode(
            frames=ep.frames, question=ep.question, answers=ep.answers[perm],
            correct=0, extent=ep.extent,
        )
        s = predict_episode(params, ep).scores
        s_perm = predict_episode(params, ep_perm).scores
        assert np.allclose(s_perm, s[perm], atol=1e-12)

    def test_softmax_of_scores_normalizes(self):
        rng = np.random.default_rng(6)
        params = init_params(SMALL, seed=4)
        ep = make_episode(rng, A=5)
        s = predict_episode(params, ep).scores
        p = np.exp(s - s.max())
        p /= p.sum()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


class TestPredictGaussian:
    def test_box_constraints_random_inputs(self):
        rng = np.random.default_rng(7)
        params = init_params(SMALL, seed=5)
        for _ in range(20):
            m = predict_gaussian(params, make_episode(rng))
            assert 0.0 <= m.mu <= 1.0
            assert SIGMA_MIN <= m.sigma <= 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        params = init_params(SMALL, seed=6)
        ep = make_episode(rng)
        m1 = predict_gaussian(params, ep)
        m2 = predict_gaussian(params, ep)
        assert (m1.mu, m1.sigma) == (m2.mu, m2.sigma)


class TestLosses:
    def test_identical_answers_give_log_A(self):
        rng = np.random.default_rng(10)
        params = init_params(SMALL, seed=8)
        base = make_episode(rng, A=5)
        same = np.tile(rng.normal(size=6), (5, 1))
        ep = Episode(frames=base.frames, question=base.question, answers=same,
                     correct=2, extent=base.extent)
        assert ng_loss(params, ep) == pytest.approx(math.log(5), abs=1e-9)

    def test_saturated_correct_answer_loss_near_zero(self):
        cfg = ModelConfig(d_v=5, d_t=8, width=8)
        params = init_params(cfg, seed=9)
        params.arrays["W_a"] = np.eye(8)
        params.arrays["b_a"] = np.zeros(8)
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(4, 5))
        question = rng.normal(size=8)
        ep0 = Episode(frames=frames, question=question,
                      answers=rng.normal(size=(3, 8)), correct=0,
                      extent=VideoExtent(10.0))
        mask = predict_gaussian(params, ep0)
        v_t, _ = encode_video(params, ep0, mask)
        f = v_t + question @ params.arrays["W_t"] + params.arrays["b_t"]
        answers = np.stack([f, -f, -f])
        ep = Episode(frames=frames, question=question, answers=answers,
                     correct=0, extent=VideoExtent(10.0))
        assert ng_loss(params, ep) < 1e-10

    def test_losses_finite_nonnegative(self):
        rng = np.random.default_rng(12)
        params = init_params(SMALL, seed=10)
        for _ in range(10):
            ep = make_episode(rng)
            for val in (ng_loss(params, ep), grounding_loss(params, ep),
                        ngplus_loss(params, ep, alpha=0.7)):
                assert math.isfinite(val) and val >= 0.0

    def test_alpha_zero_collapses_to_ng(self):
        rng = np.random.default_rng(13)
        params = init_params(SMALL, seed=11)
        ep = make_episode(rng)
        assert ngplus_loss(params, ep, alpha=0.0) == ng_loss(params, ep)

    def test_joint_is_sum(self):
        rng = np.random.default_rng(14)
        params = init_params(SMALL, seed=12)
        ep = make_episode(rng)
        expect = ng_loss(params, ep) + 0.5 * grounding_loss(params, ep)
        assert ngplus_loss(params, ep, alpha=0.5) == pytest.approx(expect, rel=1e-12)

    def test_negative_count_enforced(self):
        rng = np.random.default_rng(15)
        params = init_params(SMALL, seed=13)
        ep = make_episode(rng, A=3)
        with pytest.raises(NegativeCountMismatch):
            loss_and_gradients(params, ep, objective="ground", neg_questions=[[rng.normal(size=6)]])

    def test_scalar_negatives_do_not_broadcast(self):
        # four scalars for A = 5 at d_t = 4 are four negatives of the wrong
        # shape, not rows to broadcast across the candidate matrix
        rng = np.random.default_rng(17)
        params = init_params(ModelConfig(d_v=5, d_t=4, width=8), seed=15)
        ep = dataclasses.replace(make_episode(rng, d_t=4, A=5), question_id="q7")
        with pytest.raises(ShapeMismatch, match=r"episode 'q7' \(position 0 of the batch\)"):
            loss_and_gradients(params, [ep], objective="ground",
                               neg_questions=[[1.0, 2.0, 3.0, 4.0]])

    def test_negatives_of_the_wrong_dimension_name_the_episode(self):
        rng = np.random.default_rng(18)
        params = init_params(ModelConfig(d_v=5, d_t=4, width=8), seed=16)
        eps = [dataclasses.replace(make_episode(rng, d_t=4, A=5), question_id=f"q{i}")
               for i in range(2)]
        wide = [None, [rng.normal(size=5) for _ in range(4)]]
        with pytest.raises(ShapeMismatch, match=r"episode 'q1' \(position 1 of the batch\)"):
            loss_and_gradients(params, eps, objective="ground", neg_questions=wide)
        # the same negatives as one array
        with pytest.raises(ShapeMismatch, match=r"episode 'q0' \(position 0 of the batch\)"):
            loss_and_gradients(params, eps, objective="ng+",
                               pos_question=np.stack([ep.question for ep in eps]),
                               neg_questions=rng.normal(size=(2, 4, 5)))

    def test_negative_array_of_the_wrong_count_names_the_episode(self):
        rng = np.random.default_rng(19)
        params = init_params(SMALL, seed=17)
        eps = [dataclasses.replace(make_episode(rng, A=A), question_id=f"q{i}")
               for i, A in enumerate((3, 4))]
        with pytest.raises(NegativeCountMismatch,
                           match=r"need 3 negative questions, got 2 for episode 'q1' "
                                 r"\(position 1 of the batch\)"):
            loss_and_gradients(params, eps, objective="ground",
                               pos_question=np.stack([ep.question for ep in eps]),
                               neg_questions=rng.normal(size=(2, 2, 6)))

    def test_pos_variant_substitution_changes_loss(self):
        rng = np.random.default_rng(16)
        params = init_params(SMALL, seed=14)
        ep = make_episode(rng)
        variant = ep.question + 0.5 * rng.normal(size=6)
        a = grounding_loss(params, ep)
        b, _ = loss_and_gradients(params, ep, objective="ground", pos_question=[variant])
        assert a != b


def numeric_gradient(loss_fn, params, eps=1e-5):
    """Central finite differences over every entry of every parameter."""
    grads = {}
    for name, arr in params.arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = loss_fn()
            arr[idx] = orig - eps
            lo = loss_fn()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
            it.iternext()
        grads[name] = g
    return grads


def assert_grads_match(analytic, numeric, rel=1e-4, abs_tol=1e-8):
    for name in analytic:
        a, f = analytic[name], numeric[name]
        assert a.shape == f.shape
        ok = np.abs(a - f) <= (abs_tol + rel * np.maximum(np.abs(a), np.abs(f)))
        assert np.all(ok), (
            f"{name}: worst abs err {np.max(np.abs(a - f)):.3e} "
            f"at rel {np.max(np.abs(a - f) / (np.abs(f) + 1e-12)):.3e}"
        )


def objective_loss(params, ep, objective, alpha):
    """The public loss that loss_and_gradients(objective, alpha) differentiates."""
    if objective == "ng":
        return ng_loss(params, ep)
    if objective == "ground":
        return grounding_loss(params, ep)
    return ngplus_loss(params, ep, alpha=alpha)


class TestGradients:
    @pytest.mark.parametrize("objective,alpha", [("ng", 0.0), ("ground", 0.0), ("ng+", 0.7)])
    def test_matches_finite_differences(self, objective, alpha):
        rng = np.random.default_rng(17)
        params = init_params(SMALL, seed=15)
        ep = make_episode(rng)

        def loss_fn():
            return objective_loss(params, ep, objective, alpha)

        loss, analytic = loss_and_gradients(params, ep, objective=objective, alpha=alpha)
        assert loss == pytest.approx(loss_fn(), rel=1e-12)
        numeric = numeric_gradient(loss_fn, params)
        assert_grads_match(analytic, numeric)

    def test_grounding_term_ignores_answer_params(self):
        rng = np.random.default_rng(18)
        params = init_params(SMALL, seed=16)
        ep = make_episode(rng)
        _, grads = loss_and_gradients(params, ep, objective="ground")
        # only the answer-scoring branch touches W_a and b_a
        for name in ("W_a", "b_a"):
            assert np.all(grads[name] == 0.0), name
        # while the rest of the network does receive signal
        assert np.any(grads["W_v"] != 0.0)
        assert np.any(grads["w_mu"] != 0.0) or np.any(grads["a_mu"] != 0.0)

    def test_pos_variant_gradient_path(self):
        rng = np.random.default_rng(19)
        params = init_params(SMALL, seed=17)
        ep = make_episode(rng)
        variant = ep.question + 0.3 * rng.normal(size=6)

        def loss_fn():
            return loss_and_gradients(params, ep, objective="ng+", alpha=1.0,
                                      pos_question=[variant])[0]

        _, analytic = loss_and_gradients(params, ep, objective="ng+", alpha=1.0,
                                         pos_question=[variant])
        numeric = numeric_gradient(loss_fn, params)
        assert_grads_match(analytic, numeric)

    @pytest.mark.parametrize("objective,alpha", [("ng", 0.0), ("ground", 0.0), ("ng+", 0.7)])
    def test_floor_sigma_far_mu_matches_finite_differences(self, objective, alpha):
        # sigma pinned at SIGMA_MIN and mu past the last frame center: every
        # frame weight is below 1e-30 and the far ones sit at mask_weights'
        # floor, yet the loss stays finite and the gradients exact
        rng = np.random.default_rng(27)
        params = init_params(SMALL, seed=25)
        params.arrays["b_mu"][...] = 60.0
        params.arrays["b_sg"][...] = -60.0
        ep = make_episode(rng)
        mask = predict_gaussian(params, ep)
        assert mask.sigma == SIGMA_MIN
        assert np.min(np.abs(frame_positions(ep.n_frames) - mask.mu)) >= 12 * SIGMA_MIN
        assert mask_weights(mask, ep.n_frames).min() == np.finfo(float).tiny

        def loss_fn():
            return objective_loss(params, ep, objective, alpha)

        loss, analytic = loss_and_gradients(params, ep, objective=objective, alpha=alpha)
        assert math.isfinite(loss)
        assert loss == pytest.approx(loss_fn(), rel=1e-12)
        assert_grads_match(analytic, numeric_gradient(loss_fn, params))

    def test_nan_head_gives_nan_loss_and_gradients(self):
        # non-finite parameters reach the caller as NaN, for the trainer's
        # NonFiniteLoss check, not as GaussianMask's ValueError
        rng = np.random.default_rng(28)
        params = init_params(SMALL, seed=26)
        params.arrays["b_mu"][...] = np.nan
        loss, grads = loss_and_gradients(params, make_episode(rng), objective="ng+", alpha=0.7)
        assert math.isnan(loss)
        assert all(np.all(np.isnan(g)) for g in grads.values())

    def test_unknown_objective(self):
        rng = np.random.default_rng(20)
        params = init_params(SMALL, seed=18)
        with pytest.raises(ValueError):
            loss_and_gradients(params, make_episode(rng), objective="mystery")


class TestFuseWindows:
    def test_overlapping(self):
        out = fuse_windows(TemporalSegment(10, 20), TemporalSegment(15, 30))
        assert (out.start, out.end) == (15.0, 20.0)

    def test_disjoint_falls_back_to_attention(self):
        out = fuse_windows(TemporalSegment(0, 5), TemporalSegment(10, 20))
        assert (out.start, out.end) == (10.0, 20.0)

    def test_identical(self):
        out = fuse_windows(TemporalSegment(3, 8), TemporalSegment(3, 8))
        assert (out.start, out.end) == (3.0, 8.0)

    def test_touching_is_disjoint(self):
        out = fuse_windows(TemporalSegment(0, 10), TemporalSegment(10, 20))
        assert (out.start, out.end) == (10.0, 20.0)

    def test_containment_property(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a, b = sorted(rng.uniform(0, 50, size=2))
            c, d = sorted(rng.uniform(0, 50, size=2))
            g = TemporalSegment(a, b + 1e-3)
            t = TemporalSegment(c, d + 1e-3)
            out = fuse_windows(g, t)
            assert out.start >= t.start - 1e-12
            assert out.end <= t.end + 1e-12


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(SMALL, seed=19)
        p = tmp_path / "model.npz"
        save_checkpoint(p, params)
        back = load_checkpoint(p)
        assert back.config == params.config
        for name, arr in params.arrays.items():
            assert np.array_equal(back.arrays[name], arr)

    @staticmethod
    def _tampered(tmp_path, edit):
        p = tmp_path / "model.npz"
        save_checkpoint(p, init_params(SMALL, seed=19))
        with np.load(p) as blob:
            arrays = dict(blob)
        edit(arrays)
        np.savez(p, **arrays)
        return p

    def test_missing_parameter_rejected(self, tmp_path):
        p = self._tampered(tmp_path, lambda a: a.pop("W_g"))
        with pytest.raises(ValueError, match="W_g"):
            load_checkpoint(p)

    def test_extra_parameter_rejected(self, tmp_path):
        p = self._tampered(tmp_path, lambda a: a.update(W_extra=np.zeros(3)))
        with pytest.raises(ValueError, match="W_extra"):
            load_checkpoint(p)

    def test_shape_off_config_rejected(self, tmp_path):
        p = self._tampered(tmp_path, lambda a: a.update(W_k=np.zeros((8, 9))))
        with pytest.raises(ShapeMismatch, match="W_k"):
            load_checkpoint(p)

    @pytest.mark.parametrize("meta", [
        None,
        b"not json",
        [1],
        {"config": {"d_v": 5, "d_t": 6, "width": 8, "temperature": 0.07}},
        {"version": 1},
        {"version": 1, "config": {"d_v": 5, "d_t": 6, "width": 8, "depth": 2}},
        {"version": 1, "config": {"d_v": 5, "d_t": 6, "width": "8"}},
        {"version": 1, "config": {"d_v": 5, "d_t": 6, "width": 8.0}},
        {"version": 1, "config": {"d_v": 5, "d_t": 6, "width": 0}},
        {"version": 1, "config": {"d_v": 5, "d_t": 6, "width": 8, "temperature": math.nan}},
        {"version": 1, "config": {"d_v": 5, "d_t": 6, "width": 8, "temperature": math.inf}},
        {"version": 2, "config": {"d_v": 5, "d_t": 6, "width": 8}},
    ], ids=["missing", "not-json", "list", "no-version", "no-config", "unknown-key",
            "string-width", "float-width", "zero-width", "nan-temperature", "inf-temperature",
            "version-2"])
    def test_bad_meta_names_the_file(self, tmp_path, meta):
        def edit(arrays):
            if meta is None:
                del arrays["__meta__"]
            else:
                raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
                arrays["__meta__"] = np.frombuffer(raw, dtype=np.uint8)

        p = self._tampered(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"checkpoint {re.escape(str(p))}: bad __meta__"):
            load_checkpoint(p)

    @pytest.mark.parametrize("kind", ["npy", "text", "empty", "truncated", "string-array",
                                      "int-array", "nan-param"])
    def test_malformed_file_names_the_file(self, tmp_path, kind):
        p = tmp_path / "model.npz"
        if kind == "npy":
            p = tmp_path / "model.npy"
            np.save(p, np.zeros(3))
        elif kind in ("text", "empty"):
            p.write_text("W_v = 1\n" if kind == "text" else "")
        elif kind == "truncated":
            save_checkpoint(p, init_params(SMALL, seed=19))
            p.write_bytes(p.read_bytes()[:200])
        else:
            bad = {"string-array": np.full((5, 8), "x"), "int-array": np.zeros((5, 8), int),
                   "nan-param": np.full((5, 8), np.nan)}[kind]
            p = self._tampered(tmp_path, lambda a: a.update(W_v=bad))
        with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(p))}: "):
            load_checkpoint(p)

    def test_loaded_params_usable(self, tmp_path):
        rng = np.random.default_rng(22)
        params = init_params(SMALL, seed=20)
        ep = make_episode(rng)
        p = tmp_path / "model.npz"
        save_checkpoint(p, params)
        back = load_checkpoint(p)
        assert ng_loss(back, ep) == pytest.approx(ng_loss(params, ep), rel=1e-15)


class TestPredictEpisode:
    def test_deterministic_and_consistent(self):
        rng = np.random.default_rng(23)
        params = init_params(SMALL, seed=21)
        ep = make_episode(rng, n=16, duration=40.0)
        a = predict_episode(params, ep, gamma=1.0)
        b = predict_episode(params, ep, gamma=1.0)
        assert a.answer_index == b.answer_index
        assert (a.window.start, a.window.end) == (b.window.start, b.window.end)
        assert np.array_equal(a.trace, b.trace)

    def test_window_sources(self):
        rng = np.random.default_rng(24)
        params = init_params(SMALL, seed=22)
        ep = make_episode(rng, n=16, duration=40.0)
        g = predict_episode(params, ep, window_source="gauss")
        t = predict_episode(params, ep, window_source="attn")
        f = predict_episode(params, ep, window_source="fused")
        gauss_win = confidence_interval(g.mask, ep.extent, 1.0)
        attn_win = extract_window_raw(t.trace, ep.extent.duration)
        assert g.window == gauss_win
        assert t.window == attn_win
        assert f.window == fuse_windows(gauss_win, attn_win)
        assert f.window.start >= attn_win.start - 1e-12
        assert f.window.end <= attn_win.end + 1e-12
        with pytest.raises(ValueError):
            predict_episode(params, ep, window_source="nope")

    def test_gamma_monotone_window_width(self):
        rng = np.random.default_rng(25)
        params = init_params(SMALL, seed=23)
        widths = {g: 0.0 for g in (0.8, 1.0)}
        for _ in range(10):
            ep = make_episode(rng, n=16, duration=40.0)
            for g in widths:
                pred = predict_episode(params, ep, gamma=g)
                assert pred.window == confidence_interval(pred.mask, ep.extent, g)
                widths[g] += pred.window.length
        assert widths[0.8] < widths[1.0]

    def test_builds_only_the_named_window(self, monkeypatch):
        rng = np.random.default_rng(27)
        params = init_params(SMALL, seed=25)
        ep = make_episode(rng, n=16, duration=40.0)

        def not_called(*args, **kwargs):
            raise AssertionError("built a window that is not returned")

        with monkeypatch.context() as m:
            m.setattr(model, "extract_window_raw", not_called)
            predict_episode(params, ep, window_source="gauss")
        with monkeypatch.context() as m:
            m.setattr(model, "confidence_interval", not_called)
            # the attention window never reads gamma
            predict_episode(params, ep, gamma=0.0, window_source="attn")
        with pytest.raises(ValueError, match="gamma"):
            predict_episode(params, ep, gamma=0.0, window_source="fused")

    def test_one_forward_matches_the_stages(self):
        # the single forward pass gives bit-for-bit what the public stages
        # give: predict_gaussian's mask, encode_video under it, cosine scoring
        rng = np.random.default_rng(26)
        params = init_params(SMALL, seed=24)
        ep = make_episode(rng, n=16, duration=40.0)
        pred = predict_episode(params, ep)
        mask = predict_gaussian(params, ep)
        v_t, trace = encode_video(params, ep, mask)
        P = params.arrays
        f = v_t + ep.question @ P["W_t"] + P["b_t"]
        B = ep.answers @ P["W_a"] + P["b_a"]
        scores = (B @ f) / (np.linalg.norm(B, axis=1) * np.linalg.norm(f)) / params.temperature
        assert pred.mask == mask
        assert np.array_equal(pred.trace, trace)
        assert np.array_equal(pred.scores, scores)
        assert pred.answer_index == int(np.argmax(scores))


# --- the batched engine -----------------------------------------------------------

def mixed_batch(rng, frames=(4, 6, 4, 4, 6, 4, 4), answers=(3, 3, 4, 3, 3, 4, 3), d_v=5):
    """Episodes of mixed frame and answer counts, with distinct question ids."""
    return [dataclasses.replace(make_episode(rng, n=n, d_v=d_v, A=A), question_id=f"q{i}")
            for i, (n, A) in enumerate(zip(frames, answers))]


def summed_singles(params, episodes, objective, alpha, pos=None, negs=None):
    """Loss and gradients summed over one-episode loss_and_gradients calls."""
    total, grads = 0.0, {k: np.zeros_like(v) for k, v in params.arrays.items()}
    for i, ep in enumerate(episodes):
        loss, g = loss_and_gradients(
            params, ep, objective=objective, alpha=alpha,
            pos_question=None if pos is None else [pos[i]],
            neg_questions=None if negs is None else [negs[i]],
        )
        total += loss
        for k in grads:
            grads[k] += g[k]
    return total, grads


def assert_same_sums(batched, singles):
    (loss_b, grads_b), (loss_s, grads_s) = batched, singles
    assert loss_b == pytest.approx(loss_s, rel=1e-12)
    assert list(grads_b) == list(grads_s)
    for name in grads_s:
        scale = max(np.max(np.abs(grads_s[name])), 1e-300)
        assert np.max(np.abs(grads_b[name] - grads_s[name])) <= 1e-12 * scale, name


OBJECTIVES = [("ng", 0.0), ("ground", 0.0), ("ng+", 0.5)]
WIDE = ModelConfig(d_v=20, d_t=6, width=8)


def _softmax_by_maximum(z):
    """The engine's in-place softmax with the row max taken by np.maximum."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


class TestSoftmax:
    def test_random_rows_equal_the_maximum_reference(self):
        rng = np.random.default_rng(90)
        for shape in [(32, 32, 32), (8, 128, 128), (1700, 5), (1, 32, 32)]:
            z = rng.normal(scale=30.0, size=shape)
            assert np.array_equal(model._softmax(z.copy()), _softmax_by_maximum(z.copy()))

    def test_special_values_equal_the_maximum_reference(self):
        # rows drawn from NaN, +-inf and +-0 next to ordinary values, plus
        # rows of only -inf, only signed zeros and only NaN
        rng = np.random.default_rng(91)
        pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0, 700.0])
        z = rng.choice(pool, size=(400, 6))
        z = np.concatenate((z, [[-np.inf] * 6, [0.0, -0.0] * 3, [-0.0] * 6, [np.nan] * 6]))
        with np.errstate(all="ignore"):
            got, want = model._softmax(z.copy()), _softmax_by_maximum(z.copy())
        assert np.array_equal(got, want, equal_nan=True)
        # a NaN row is all NaN either way, though not always with the same
        # sign bit; every other entry matches bit for bit
        numbers = ~np.isnan(want)
        assert np.array_equal(got[numbers].view(np.uint64), want[numbers].view(np.uint64))


class TestEngine:
    @pytest.mark.parametrize("objective,alpha", OBJECTIVES)
    def test_batched_matches_one_at_a_time(self, monkeypatch, objective, alpha):
        # 7 episodes in three (frames, answers) buckets; 8 frames per chunk
        # puts two 4-frame episodes in a chunk, so buckets span chunks
        rng = np.random.default_rng(40)
        params = init_params(SMALL, seed=40)
        eps = mixed_batch(rng)
        pos = [None, eps[1].question + 0.2 * rng.normal(size=6)] + [None] * 5
        negs = [None] * 6 + [[rng.normal(size=6) for _ in range(2)]]
        singles = summed_singles(params, eps, objective, alpha, pos, negs)
        assert_same_sums(loss_and_gradients(params, eps, objective=objective, alpha=alpha,
                                            pos_question=pos, neg_questions=negs), singles)
        monkeypatch.setattr(model, "CHUNK_FRAMES", 8)
        assert_same_sums(loss_and_gradients(params, eps, objective=objective, alpha=alpha,
                                            pos_question=pos, neg_questions=negs), singles)

    @pytest.mark.parametrize("objective,alpha", OBJECTIVES[1:])
    def test_lists_and_arrays_give_the_same_bits(self, objective, alpha):
        # per-episode lists with None entries (the episode's own questions)
        # and the equivalent (B, d_t) and (B, A - 1, d_t) arrays
        rng = np.random.default_rng(47)
        params = init_params(SMALL, seed=47)
        eps = mixed_batch(rng, frames=(4, 6, 4, 4, 6), answers=(3,) * 5)
        pos = [None, eps[1].question + 0.2 * rng.normal(size=6), None, None,
               eps[4].question + 0.1 * rng.normal(size=6)]
        negs = [None, [rng.normal(size=6) for _ in range(2)], None,
                list(rng.normal(size=(2, 6))), None]
        pos_arr = np.stack([ep.question if p is None else p for ep, p in zip(eps, pos)])
        neg_arr = np.stack([np.stack(ep.neg_questions if n is None else n)
                            for ep, n in zip(eps, negs)])
        own_pos = np.stack([ep.question for ep in eps])
        own_neg = np.stack([np.stack(ep.neg_questions) for ep in eps])
        for lists, arrays in (((pos, negs), (pos_arr, neg_arr)),
                              ((None, None), (own_pos, own_neg)),
                              (([None] * 5, [None] * 5), (own_pos, own_neg))):
            want = loss_and_gradients(params, eps, objective=objective, alpha=alpha,
                                      pos_question=lists[0], neg_questions=lists[1])
            got = loss_and_gradients(params, eps, objective=objective, alpha=alpha,
                                     pos_question=arrays[0], neg_questions=arrays[1])
            assert got[0] == want[0]
            assert list(got[1]) == list(want[1])
            for name in want[1]:
                assert np.array_equal(got[1][name], want[1][name]), name

    def test_chunks_bucket_by_shape_in_first_appearance_order(self, monkeypatch):
        rng = np.random.default_rng(41)
        params = init_params(SMALL, seed=41)
        monkeypatch.setattr(model, "CHUNK_FRAMES", 8)
        chunks = list(model._chunks(params, mixed_batch(rng)))
        assert [c.index for c in chunks] == [[0, 3], [6], [1], [4], [2, 5]]
        # d_v 5 frames and their ones column
        assert [c.F.shape for c in chunks] == [(2, 4, 6), (1, 4, 6), (1, 6, 6), (1, 6, 6),
                                              (2, 4, 6)]
        assert [c.answers.shape[1] for c in chunks] == [3, 3, 3, 3, 4]

    def test_lone_and_batched_chunks_share_a_workspace_and_its_ones_column(self, monkeypatch):
        # 4 frames per chunk: the batched call packs each of its episodes into
        # the lone episode's (1, 4, 3) workspace, between two lone calls
        rng = np.random.default_rng(42)
        params = init_params(SMALL, seed=42)
        monkeypatch.setattr(model, "CHUNK_FRAMES", 4)
        ep = make_episode(rng)
        kept = copy.deepcopy(ep)
        batch = mixed_batch(rng, frames=(4,) * 3, answers=(3,) * 3)
        (lone,) = model._chunks(params, [ep])
        assert all(c.ws is lone.ws for c in model._chunks(params, batch))
        outputs = []
        for eps in ([ep], batch, [ep]):
            outputs.append(engine_outputs(params, eps, "ng+", 0.5))
            assert np.all(lone.ws.F[..., SMALL.d_v] == 1.0)
            for pred in outputs[-1][2]:
                for arr in (pred.trace, pred.scores):
                    assert not any(np.shares_memory(arr, buf) for buf in vars(lone.ws).values())
        assert_identical(outputs[2], outputs[0])
        for name in ("frames", "question", "answers"):
            assert np.array_equal(getattr(ep, name), getattr(kept, name)), name

    @pytest.mark.parametrize("objective,alpha", OBJECTIVES)
    def test_batched_gradients_match_finite_differences(self, objective, alpha, config=SMALL,
                                                        frame_bias=0.0):
        # five-point central differences of the summed public losses, with
        # criterion 4's bound, against one batched call with B = 3 and mixed
        # frame and answer counts
        rng = np.random.default_rng(43)
        params = init_params(config, seed=43)
        for arr in params.arrays.values():
            arr += 0.05 * rng.normal(size=arr.shape)
        params.arrays["b_v"] += frame_bias * rng.normal(size=config.width)
        eps = mixed_batch(rng, frames=(4, 6, 4), answers=(3, 3, 4), d_v=config.d_v)
        _, grads = loss_and_gradients(params, eps, objective=objective, alpha=alpha)
        h = 1e-3
        for name, arr in params.arrays.items():
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]

                def at(step):
                    arr[idx] = orig + step
                    return sum(objective_loss(params, ep, objective, alpha) for ep in eps)

                fd = (8 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12 * h)
                arr[idx] = orig
                a = grads[name][idx]
                assert abs(a - fd) / max(abs(a), abs(fd), 1e-6) < 1e-4, (name, idx)

    @pytest.mark.parametrize("objective,alpha", OBJECTIVES)
    def test_wide_features_match_finite_differences(self, objective, alpha):
        # d_v > width: the bilinear scores cost more than Q K^T, exact all the same
        self.test_batched_gradients_match_finite_differences(objective, alpha, WIDE)

    @pytest.mark.parametrize("config", [SMALL, WIDE], ids=["small", "wide"])
    @pytest.mark.parametrize("objective,alpha", OBJECTIVES)
    def test_frame_bias_of_order_one_matches_finite_differences(self, objective, alpha, config):
        # b_v of order 1: the logits' r term and the row-constant terms that
        # cancel in the softmax (whose b_v W_k path has zero gradient) are large
        self.test_batched_gradients_match_finite_differences(objective, alpha, config,
                                                             frame_bias=1.0)

    @pytest.mark.parametrize("source", ["gauss", "attn", "fused"])
    def test_predict_episodes_equals_predict_episode(self, monkeypatch, source):
        rng = np.random.default_rng(44)
        params = init_params(SMALL, seed=44)
        eps = mixed_batch(rng, frames=(16, 12, 16, 16, 12), answers=(3, 3, 4, 3, 3))
        monkeypatch.setattr(model, "CHUNK_FRAMES", 32)
        batched = model.predict_episodes(params, eps, gamma=0.8, window_source=source)
        assert len(batched) == len(eps)
        for ep, got in zip(eps, batched):
            one = predict_episode(params, ep, gamma=0.8, window_source=source)
            assert got.answer_index == one.answer_index
            assert got.window.start == pytest.approx(one.window.start, abs=1e-9)
            assert got.window.end == pytest.approx(one.window.end, abs=1e-9)
            assert got.mask.mu == pytest.approx(one.mask.mu, abs=1e-12)
            assert got.mask.sigma == pytest.approx(one.mask.sigma, abs=1e-12)
            assert np.allclose(got.trace, one.trace, rtol=0, atol=1e-12)
            assert np.allclose(got.scores, one.scores, rtol=0, atol=1e-12)

    def test_predictions_are_metrics_predictions_in_input_order(self, monkeypatch):
        rng = np.random.default_rng(45)
        params = init_params(SMALL, seed=45)
        eps = mixed_batch(rng)
        # several chunks, processed out of input order
        monkeypatch.setattr(model, "CHUNK_FRAMES", 8)
        preds = model.predict_episodes(params, eps, gamma=0.8)
        assert all(isinstance(p, Prediction) for p in preds)
        assert [p.question_id for p in preds] == [ep.question_id for ep in eps]
        assert predict_episode(params, eps[2]).question_id == "q2"
        hand = [Prediction(ep.question_id, p.answer_index, p.window)
                for ep, p in zip(eps, preds)]
        labels = episodes_to_labels(eps)
        assert evaluate(preds, labels) == evaluate(hand, labels)

    def test_predictions_compare_and_hash_by_prediction_fields(self):
        rng = np.random.default_rng(46)
        params = init_params(SMALL, seed=46)
        ep = mixed_batch(rng)[0]
        a, b = predict_episode(params, ep), predict_episode(params, ep)
        assert a.trace is not b.trace
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        moved = dataclasses.replace(a, window=TemporalSegment(0.0, a.window.end + 1.0))
        assert moved != a
        assert dataclasses.replace(a, trace=a.trace + 1.0, scores=-a.scores) == a

    def test_nan_head_in_one_episode_gives_nan_sums(self):
        # a non-finite frame in one episode of five: the summed loss and every
        # gradient are NaN, for the trainer to report; no GaussianMask error
        rng = np.random.default_rng(45)
        params = init_params(SMALL, seed=45)
        eps = mixed_batch(rng, frames=(4,) * 5, answers=(3,) * 5)
        eps[3].frames[1, 2] = np.nan
        loss, grads = loss_and_gradients(params, eps, objective="ng+", alpha=0.5)
        assert math.isnan(loss)
        assert all(np.all(np.isnan(g)) for g in grads.values())

    def test_per_episode_overrides_must_match_the_batch(self):
        rng = np.random.default_rng(46)
        params = init_params(SMALL, seed=46)
        eps = mixed_batch(rng, frames=(4, 4), answers=(3, 3))
        with pytest.raises(ValueError, match="2 episodes"):
            loss_and_gradients(params, eps, objective="ng+", neg_questions=[None])


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _softmax_back(y, dy):
    return y * (dy - dy @ y)


def _cosine(rows, vec, T):
    """Scores cos(rows_k, vec) / T and the gradient map (dscore -> drows, dvec)."""
    rn, vn = np.linalg.norm(rows, axis=1), np.linalg.norm(vec)
    cos = rows @ vec / (rn * vn)

    def back(ds):
        drows = (ds / T)[:, None] * (vec / (rn[:, None] * vn) - cos[:, None] * rows / rn[:, None]**2)
        dvec = (ds / T) @ (rows / (rn[:, None] * vn)) - (ds / T) @ cos * vec / vn**2
        return drows, dvec

    return cos / T, back


def _ce(scores, target):
    p = _softmax(scores)
    d = p.copy()
    d[target] -= 1.0
    return -math.log(p[target]), d


def dense_reference(params, ep, objective, alpha):
    """One episode's loss, gradients and prediction state from dense
    formulas: the projected frames X, Q, K and V, the (n, width) products
    H0 = S V and H1 = S (G * V), and rank-2 outer products for dH0 and dH1.
    The engine reads S only through vectors and scores the frames through
    the d_v x d_v bilinear form, never forming X, Q or K."""
    P, w, T = params.arrays, params.config.width, params.temperature
    F, n = ep.frames, ep.n_frames
    X = F @ P["W_v"] + P["b_v"]
    Q, K, V = X @ P["W_q"], X @ P["W_k"], X @ P["W_val"]
    S = np.stack([_softmax(z) for z in Q @ K.T / math.sqrt(w)])
    H0 = S @ V
    qv = ep.question @ P["W_t"] + P["b_t"]
    g = P["W_g"] @ qv
    a = _softmax(H0 @ g)
    c = a @ H0
    x = frame_positions(n)
    m1 = a @ x
    dx = x - m1
    m2 = a @ dx**2
    mu = 1.0 / (1.0 + math.exp(-(c @ P["w_mu"] + P["a_mu"] * m1 + P["b_mu"])))
    sgi = 1.0 / (1.0 + math.exp(-(c @ P["w_sg"] + P["a_sg"] * m2 + P["b_sg"])))
    sigma = SIGMA_MIN + (1.0 - SIGMA_MIN) * sgi
    G = gaussian.gaussian_weights(x, mu, sigma)
    GV = G[:, None] * V
    H1 = S @ GV
    trace = _softmax(H1 @ P["u"])
    v_t = trace @ H1
    f = v_t + qv
    B = ep.answers @ P["W_a"] + P["b_a"]
    scores, answer_back = _cosine(B, f, T)

    grads = {name: np.zeros_like(arr) for name, arr in P.items()}
    loss, d_vt, d_qv = 0.0, np.zeros(w), np.zeros(w)
    if objective in ("ng", "ng+"):
        loss, ds = _ce(scores, ep.correct)
        dB, df = answer_back(ds)
        grads["W_a"] += ep.answers.T @ dB
        grads["b_a"] += dB.sum(axis=0)
        d_vt += df
        d_qv += df
    scale = {"ng": 0.0, "ground": 1.0, "ng+": alpha}[objective]
    if scale:
        Qc = np.stack([ep.question, *ep.neg_questions])
        gscores, ground_back = _cosine(Qc @ P["W_t"] + P["b_t"], v_t, T)
        loss_g, dgs = _ce(gscores, 0)
        loss += scale * loss_g
        dR, dv = ground_back(scale * dgs)
        grads["W_t"] += Qc.T @ dR
        grads["b_t"] += dR.sum(axis=0)
        d_vt += dv

    dp = _softmax_back(trace, H1 @ d_vt)
    dH1 = np.outer(trace, d_vt) + np.outer(dp, P["u"])
    grads["u"] += H1.T @ dp
    dS = dH1 @ GV.T
    dGV = S.T @ dH1
    dG = (dGV * V).sum(axis=1)
    dV = G[:, None] * dGV
    d_mu, d_sigma = gaussian.gaussian_gradients(x, mu, sigma, G, dG)
    dz_mu = d_mu * mu * (1.0 - mu)
    dz_sg = d_sigma * (1.0 - SIGMA_MIN) * sgi * (1.0 - sgi)
    for k, dz, m in (("mu", dz_mu, m1), ("sg", dz_sg, m2)):
        grads[f"w_{k}"] += dz * c
        grads[f"a_{k}"] += dz * m
        grads[f"b_{k}"] += dz
    dc = dz_mu * P["w_mu"] + dz_sg * P["w_sg"]
    dm2 = dz_sg * P["a_sg"]
    dm1 = dz_mu * P["a_mu"] - 2.0 * dm2 * (a @ dx)
    de = _softmax_back(a, dm2 * dx**2 + dm1 * x + H0 @ dc)
    dH0 = np.outer(a, dc) + np.outer(de, g)
    dg = H0.T @ de
    grads["W_g"] += np.outer(dg, qv)
    d_qv += P["W_g"].T @ dg
    dS += dH0 @ V.T
    dV += S.T @ dH0
    dZ = S * (dS - (dS * S).sum(axis=1, keepdims=True)) / math.sqrt(w)
    dQ, dK = dZ @ K, dZ.T @ Q
    for name, d in (("W_q", dQ), ("W_k", dK), ("W_val", dV)):
        grads[name] += X.T @ d
    dX = dQ @ P["W_q"].T + dK @ P["W_k"].T + dV @ P["W_val"].T
    grads["W_v"] += F.T @ dX
    grads["b_v"] += dX.sum(axis=0)
    grads["W_t"] += np.outer(ep.question, d_qv)
    grads["b_t"] += d_qv
    return {"loss": loss, "grads": grads, "mu": mu, "sigma": sigma, "trace": trace,
            "scores": scores}


def assert_close_to(got, want, name):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-10 * scale, name


class TestDenseReference:
    """The engine against dense_reference, to rounding: far tighter than the
    finite-difference bound."""

    # mixed_batch's largest bucket has 12 frames: one chunk per bucket from 12 on
    @pytest.mark.parametrize("chunk_frames", [8, 12])
    @pytest.mark.parametrize("objective,alpha", OBJECTIVES)
    def test_loss_gradients_and_predictions(self, monkeypatch, chunk_frames, objective, alpha):
        rng = np.random.default_rng(70)
        params = init_params(SMALL, seed=70)
        for arr in params.arrays.values():
            arr += 0.1 * rng.normal(size=arr.shape)
        eps = mixed_batch(rng)
        monkeypatch.setattr(model, "CHUNK_FRAMES", chunk_frames)
        refs = [dense_reference(params, ep, objective, alpha) for ep in eps]
        loss, grads = loss_and_gradients(params, eps, objective=objective, alpha=alpha)
        assert_close_to(loss, sum(r["loss"] for r in refs), "loss")
        assert list(grads) == list(params.arrays)
        for name in grads:
            assert_close_to(grads[name], sum(r["grads"][name] for r in refs), name)
        for pred, ref in zip(model.predict_episodes(params, eps), refs):
            for key in ("mu", "sigma"):
                assert_close_to(getattr(pred.mask, key), ref[key], key)
            assert_close_to(pred.trace, ref["trace"], "trace")
            assert_close_to(pred.scores, ref["scores"], "scores")


    @pytest.mark.parametrize("supplied", ["ones", "mask", "positive"])
    def test_pooling_under_a_supplied_g(self, supplied):
        # the caller-G forward against H1 = (S * G) V: no mask (ones) and a
        # mask's weights through encode_video, and an arbitrary positive
        # vector through the engine's forward
        rng = np.random.default_rng(72)
        params = init_params(SMALL, seed=72)
        P, w = params.arrays, SMALL.width
        for arr in P.values():
            arr += 0.1 * rng.normal(size=arr.shape)
        ep = make_episode(rng, n=7)
        if supplied == "positive":
            G = rng.uniform(0.05, 2.0, size=ep.n_frames)
            (chunk,) = model._chunks(params, [ep])
            cache = model._forward(params, chunk, model._frame_map(params)[0], G[None])
            v_t, trace = cache["v_t"][0], cache["trace"][0]
        elif supplied == "mask":
            mask = GaussianMask(0.3, 0.2)
            G = mask_weights(mask, ep.n_frames)
            v_t, trace = encode_video(params, ep, mask)
        else:
            G = np.ones(ep.n_frames)
            v_t, trace = encode_video(params, ep)
        X = ep.frames @ P["W_v"] + P["b_v"]
        S = np.stack([_softmax(z) for z in (X @ P["W_q"]) @ (X @ P["W_k"]).T / math.sqrt(w)])
        H1 = (S * G) @ (X @ P["W_val"])
        want_trace = _softmax(H1 @ P["u"])
        assert_close_to(trace, want_trace, "trace")
        assert_close_to(v_t, want_trace @ H1, "v_t")

    def test_attention_equals_the_softmax_of_dense_q_k(self):
        # with b_v of order 1 the terms of Q K^T that the bilinear logits
        # drop are large; being constant along each row, they leave S alone
        rng = np.random.default_rng(71)
        params = init_params(SMALL, seed=71)
        P, w = params.arrays, SMALL.width
        for arr in P.values():
            arr += 0.1 * rng.normal(size=arr.shape)
        P["b_v"] += rng.normal(size=w)
        M = model._frame_map(params)[0]
        for chunk in model._chunks(params, mixed_batch(rng)):
            enc = model._encode_frames(params, chunk.F, M, chunk.ws)
            S = enc["E"] / enc["s"][..., None]
            for j, ep in enumerate(chunk.episodes):
                X = ep.frames @ P["W_v"] + P["b_v"]
                Q, K = X @ P["W_q"], X @ P["W_k"]
                dense = np.stack([_softmax(z) for z in Q @ K.T / math.sqrt(w)])
                assert np.max(np.abs(S[j] - dense)) <= 1e-12, chunk.where(j)
                # the r term (the query bias against the keys) matters here
                no_r = np.stack([_softmax(z) for z in (Q - P["b_v"] @ P["W_q"]) @ K.T
                                 / math.sqrt(w)])
                assert np.max(np.abs(no_r - dense)) > 1e-3

    @staticmethod
    def _guard_batch(case):
        """Params, and three 6-frame episodes whose middle one's attention
        logits P F^T overflow exp (a logit above 710) or underflow it over a
        whole row (every logit of a row below -750), plus a benign stand-in
        for that middle episode. The odd frames lie along the eigenvector of
        [A; r]'s bilinear part with the largest or smallest eigenvalue."""
        rng = np.random.default_rng(73)
        params = init_params(SMALL, seed=73)
        for arr in params.arrays.values():
            arr += 0.1 * rng.normal(size=arr.shape)
        w = SMALL.width
        Ar = model._frame_map(params)[0][:, w:]
        lam, vecs = np.linalg.eigh(Ar[:-1] + Ar[:-1].T)
        k = -1 if case == "overflow" else 0
        scale = math.sqrt(2.0 * 1000.0 / abs(lam[k]))
        eps = [dataclasses.replace(make_episode(rng, n=6), question_id=f"q{i}")
               for i in range(4)]
        frames = scale * vecs[:, k] + 0.3 * rng.normal(size=(6, SMALL.d_v))
        eps[1] = dataclasses.replace(eps[1], frames=frames)
        logits = (frames @ Ar[:-1] + Ar[-1]) @ frames.T
        if case == "overflow":
            assert logits.max() > 710.0
        else:
            assert lam[k] < 0 and logits.max(axis=1).min() < -750.0
        return params, eps[:3], eps[3]

    @pytest.mark.parametrize("case", ["overflow", "underflow"])
    @pytest.mark.parametrize("objective,alpha", OBJECTIVES)
    def test_out_of_range_exp_rows_take_the_row_max_shift(self, case, objective, alpha):
        # the unshifted exp would give the odd episode an inf or zero row
        # sum; its shifted (E, s) still gives S to rounding, with no warning
        params, eps, _ = self._guard_batch(case)
        refs = [dense_reference(params, ep, objective, alpha) for ep in eps]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss, grads = loss_and_gradients(params, eps, objective=objective, alpha=alpha)
            preds = model.predict_episodes(params, eps)
        assert_close_to(loss, sum(r["loss"] for r in refs), "loss")
        for name in grads:
            assert_close_to(grads[name], sum(r["grads"][name] for r in refs), name)
        for pred, ref in zip(preds, refs):
            for key in ("mu", "sigma"):
                assert_close_to(getattr(pred.mask, key), ref[key], key)
            assert_close_to(pred.trace, ref["trace"], "trace")
            assert_close_to(pred.scores, ref["scores"], "scores")

    @pytest.mark.parametrize("case", ["overflow", "underflow"])
    def test_the_shift_never_changes_a_chunk_mates_bits(self, case):
        # the shift is chosen per episode: beside the odd episode or beside a
        # benign one in its place, the chunk-mates' predictions are the same
        params, eps, benign = self._guard_batch(case)
        odd = model.predict_episodes(params, eps)
        plain = model.predict_episodes(params, [eps[0], benign, eps[2]])
        for j in (0, 2):
            for key in ("trace", "scores"):
                assert np.array_equal(getattr(odd[j], key), getattr(plain[j], key))
            assert odd[j].mask == plain[j].mask


def engine_outputs(params, eps, objective, alpha):
    """Loss, gradients and fused-window predictions: one engine call each."""
    loss, grads = loss_and_gradients(params, eps, objective=objective, alpha=alpha)
    return loss, grads, model.predict_episodes(params, eps, gamma=0.8, window_source="fused")


def cold_outputs(params, eps, objective, alpha):
    """engine_outputs with every workspace freshly allocated and the frame
    map rebuilt."""
    model._workspace.cache_clear()
    model._map_memo = None
    return engine_outputs(params, eps, objective, alpha)


def assert_identical(got, want):
    (loss_g, grads_g, preds_g), (loss_w, grads_w, preds_w) = got, want
    assert np.array_equal(loss_g, loss_w)
    assert list(grads_g) == list(grads_w)
    for name in grads_w:
        assert np.array_equal(grads_g[name], grads_w[name]), name
    assert len(preds_g) == len(preds_w)
    for p, q in zip(preds_g, preds_w):
        assert (p.answer_index, p.window, p.mask) == (q.answer_index, q.window, q.mask)
        assert np.array_equal(p.trace, q.trace) and np.array_equal(p.scores, q.scores)


# 2-frame videos smooth to flat traces, whose documented fallback warns
@pytest.mark.filterwarnings("ignore::gvqa.posthoc.DegenerateTraceWarning")
class TestWorkspace:
    @pytest.mark.parametrize("objective,alpha", OBJECTIVES)
    def test_warm_calls_equal_cold_calls(self, monkeypatch, objective, alpha):
        # 8 frames per chunk: mixed_batch has a short tail chunk, and the
        # 2-frame batch a full chunk of 4 and a tail of 1; the first shapes
        # come back with other data after a lone episode
        rng = np.random.default_rng(60)
        params = init_params(SMALL, seed=60)
        monkeypatch.setattr(model, "CHUNK_FRAMES", 8)
        batches = [
            mixed_batch(rng),
            [make_episode(rng, n=6)],
            mixed_batch(rng, frames=(2,) * 5, answers=(3,) * 5),
            mixed_batch(rng),
            [make_episode(rng, n=2)],
        ]
        warm = [engine_outputs(params, eps, objective, alpha) for eps in batches]
        for eps, got in zip(batches, warm):
            assert_identical(got, cold_outputs(params, eps, objective, alpha))

    @settings(max_examples=30, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(2, 40), st.integers(2, 5)),
                           min_size=1, max_size=6),
           objective=st.sampled_from(OBJECTIVES), seed=st.integers(0, 2**16))
    def test_warm_equals_cold_over_shapes(self, shapes, objective, seed):
        # the buffers first hold another batch of the same shapes; 48 frames
        # per chunk splits buckets of long videos into full and tail chunks
        rng = np.random.default_rng(seed)
        params = init_params(SMALL, seed=61)
        frames, answers = zip(*shapes)
        with mock.patch.object(model, "CHUNK_FRAMES", 48):
            engine_outputs(params, mixed_batch(rng, frames, answers), *objective)
            eps = mixed_batch(rng, frames, answers)
            assert_identical(engine_outputs(params, eps, *objective),
                             cold_outputs(params, eps, *objective))

    def test_returned_arrays_survive_later_calls(self):
        rng = np.random.default_rng(62)
        params = init_params(SMALL, seed=62)
        eps = mixed_batch(rng)
        _, grads = loss_and_gradients(params, eps, objective="ng+", alpha=0.5)
        preds = model.predict_episodes(params, eps) + [predict_episode(params, eps[0])]
        kept = copy.deepcopy((grads, preds))
        for batch in (mixed_batch(rng), mixed_batch(rng, frames=(2,) * 3, answers=(3,) * 3),
                      [make_episode(rng)], eps[::-1]):
            loss_and_gradients(params, batch, objective="ng+", alpha=0.5)
            model.predict_episodes(params, batch)
        for name in grads:
            assert np.array_equal(grads[name], kept[0][name]), name
        for p, q in zip(preds, kept[1]):
            assert p.trace.flags.owndata and p.scores.flags.owndata
            assert np.array_equal(p.trace, q.trace) and np.array_equal(p.scores, q.scores)

    def test_nan_head_then_a_call_equal_to_a_cold_one(self):
        # the early return leaves NaNs in the forward buffers
        rng = np.random.default_rng(63)
        params = init_params(SMALL, seed=63)
        eps = mixed_batch(rng, frames=(4,) * 5, answers=(3,) * 5)
        bad = copy.deepcopy(eps)
        bad[3].frames[1, 2] = np.nan
        assert math.isnan(loss_and_gradients(params, bad, objective="ng+", alpha=0.5)[0])
        assert_identical(engine_outputs(params, eps, "ng+", 0.5),
                         cold_outputs(params, eps, "ng+", 0.5))

    def test_cache_stays_at_its_bound(self):
        rng = np.random.default_rng(64)
        params = init_params(SMALL, seed=64)
        bound = model._workspace.cache_info().maxsize
        for n in range(2, 2 + bound + 3):
            loss_and_gradients(params, make_episode(rng, n=n))
        assert model._workspace.cache_info().currsize == bound

    def test_a_training_run_fits_the_cache(self):
        # the synthetic world's schedule at 32 frames: 64-episode minibatches
        # and a 36-episode tail, 300 validation episodes, lone predicts; after
        # one round every shape is cached, so a second round allocates nothing
        rng = np.random.default_rng(66)
        params = init_params(SMALL, seed=66)
        ep = make_episode(rng, n=32)
        rounds = [[ep] * size for size in (64, 64, 36, 300, 1)]
        shapes = {(c.F.shape, c.answers.shape) for eps in rounds for c in model._chunks(params, eps)}
        assert len(shapes) <= model._workspace.cache_info().maxsize
        model._workspace.cache_clear()
        for _ in range(2):
            for eps in rounds:
                for _chunk in model._chunks(params, eps):
                    pass
        assert model._workspace.cache_info().misses == len(shapes)

    def test_threads_do_not_share_a_workspace(self):
        rng = np.random.default_rng(65)
        params = init_params(SMALL, seed=65)
        ep = make_episode(rng)
        (mine,) = model._chunks(params, [ep])
        theirs = []
        worker = threading.Thread(target=lambda: theirs.extend(model._chunks(params, [ep])))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert theirs[0].ws is not mine.ws


class TestZeroNorm:
    def test_is_a_value_error(self):
        assert issubclass(model.ZeroNorm, ValueError)

    def test_zero_answer_row_in_prediction(self):
        # b_a starts at zero, so a zero answer row projects to a zero row
        rng = np.random.default_rng(47)
        params = init_params(SMALL, seed=47)
        ep = dataclasses.replace(make_episode(rng, A=4), question_id="vid3_q1")
        ep.answers[2] = 0.0
        with pytest.raises(model.ZeroNorm, match=r"answer row 2 in episode 'vid3_q1' \(position 0"):
            predict_episode(params, ep)

    def test_zero_answer_row_in_third_episode_of_a_minibatch(self):
        rng = np.random.default_rng(48)
        params = init_params(SMALL, seed=48)
        eps = mixed_batch(rng, frames=(4,) * 5, answers=(3,) * 5)
        eps[2].answers[0] = 0.0
        with pytest.raises(model.ZeroNorm, match=r"answer row 0 in episode 'q2' \(position 2 "):
            loss_and_gradients(params, eps, objective="ng")
        # the episodes around it are fine on their own
        for i in (0, 1, 3, 4):
            loss_and_gradients(params, eps[i], objective="ng")

    def test_zero_candidate_question(self):
        rng = np.random.default_rng(49)
        params = init_params(SMALL, seed=49)
        eps = mixed_batch(rng, frames=(4,) * 3, answers=(3,) * 3)
        negs = [None, [np.zeros(6), rng.normal(size=6)], None]
        with pytest.raises(model.ZeroNorm, match=r"candidate question 1 in episode 'q1' "):
            loss_and_gradients(params, eps, objective="ground", neg_questions=negs)


@pytest.mark.parametrize("temperature", [0.0, -0.07, math.nan, math.inf])
def test_temperature_must_be_positive_and_finite(temperature):
    # an infinite temperature would make every cosine score 0
    with pytest.raises(ValueError, match="temperature must be positive and finite"):
        ModelConfig(5, 6, 8, temperature=temperature)


class TestModelParams:
    def test_holds_the_given_arrays(self):
        given = dict(init_params(SMALL, seed=50).arrays)
        params = ModelParams(dict(given), SMALL)
        assert list(params.arrays) == list(PARAM_NAMES)
        for name in PARAM_NAMES:
            assert params.arrays[name] is given[name], name

    @pytest.mark.parametrize("edit", ["in-place", "replaced", "deepcopy"])
    def test_every_edit_reaches_the_next_call(self, edit):
        # after each edit the params give the prediction, loss and gradients
        # of fresh params built from copies of their arrays, and not the old
        # ones, although the last call kept the frame map of the old arrays
        rng = np.random.default_rng(51)
        ep = make_episode(rng)
        for name in PARAM_NAMES:
            given = dict(init_params(SMALL, seed=51).arrays)
            params = ModelParams(dict(given), SMALL)
            before = loss_and_gradients(params, ep, objective="ng+", alpha=0.5)[0]
            old = predict_episode(params, ep, window_source="fused")
            delta = 0.1 * rng.normal(size=given[name].shape)
            if edit == "in-place":
                given[name] += delta
            elif edit == "replaced":
                params.arrays[name] = given[name] + delta
            else:
                params = copy.deepcopy(params)
                params.arrays[name] += delta
            fresh = ModelParams({k: v.copy() for k, v in params.arrays.items()}, SMALL)
            got = predict_episode(params, ep, window_source="fused")
            ref = predict_episode(fresh, ep, window_source="fused")
            assert (got.answer_index, got.window, got.mask) == (ref.answer_index, ref.window,
                                                                ref.mask), name
            assert np.array_equal(got.trace, ref.trace), name
            assert np.array_equal(got.scores, ref.scores), name
            assert not np.array_equal(got.scores, old.scores), name
            loss, grads = loss_and_gradients(params, ep, objective="ng+", alpha=0.5)
            want_loss, want = loss_and_gradients(fresh, ep, objective="ng+", alpha=0.5)
            assert loss == want_loss != before, name
            for k in want:
                assert np.array_equal(grads[k], want[k]), (name, k)


MAP_SOURCES = ("W_v", "b_v", "W_q", "W_k", "W_val")


def cold_map(params):
    """_frame_map built afresh."""
    model._map_memo = None
    return model._frame_map(params)


class TestFrameMapMemo:
    def test_equal_bytes_share_a_map(self):
        params = init_params(SMALL, seed=52)
        first = model._frame_map(params)
        again = model._frame_map(params.copy())
        assert all(a is b for a, b in zip(first, again))

    @pytest.mark.parametrize("name", MAP_SOURCES)
    def test_a_one_ulp_edit_builds_a_new_map(self, name):
        rng = np.random.default_rng(53)
        params = init_params(SMALL, seed=53)
        for arr in params.arrays.values():
            arr += rng.normal(size=arr.shape)
        old = model._frame_map(params)
        params.arrays[name].flat[3] = np.nextafter(params.arrays[name].flat[3], np.inf)
        new = model._frame_map(params)
        assert all(a is not b for a, b in zip(old, new))
        for a, b in zip(new, cold_map(params)):
            assert np.array_equal(a, b)

    def test_the_sign_of_a_zero_builds_a_new_map(self):
        # b_v starts at +0.0: -0.0 holds other bytes, though it compares equal
        params = init_params(SMALL, seed=54)
        old = model._frame_map(params)
        params.arrays["b_v"][0] = -0.0
        assert model._frame_map(params)[0] is not old[0]

    def test_the_same_bytes_in_another_shape_still_raise(self):
        params = init_params(SMALL, seed=55)
        model._frame_map(params)
        params.arrays["W_q"] = params.arrays["W_q"].reshape(4, 16)
        with pytest.raises(ValueError):
            model._frame_map(params)

    def test_the_map_is_read_only(self):
        for arr in model._frame_map(init_params(SMALL, seed=56)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_the_memo_holds_no_caller_array(self):
        params = init_params(SMALL, seed=57)
        model._frame_map(params)
        for part in model._map_memo[1:]:
            assert not any(np.shares_memory(part, arr) for arr in params.arrays.values())

    def test_threads_with_their_own_params_get_their_own_answers(self):
        # two threads alternate lone predicts under different params, so the
        # memo keeps changing hands; each gets the serial results of its own
        rng = np.random.default_rng(58)
        eps = [make_episode(rng, n=n) for n in (4, 6, 5)]
        params = [init_params(SMALL, seed=s) for s in (58, 59)]
        want = [[predict_episode(p, ep) for ep in eps] for p in params]
        got = [[], []]
        start = threading.Barrier(2)

        def work(k):
            start.wait()
            for _ in range(200):
                got[k].extend(predict_episode(params[k], ep) for ep in eps)

        workers = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
        for k in (0, 1):
            assert len(got[k]) == 200 * len(eps)
            for i, pred in enumerate(got[k]):
                ref = want[k][i % len(eps)]
                assert (pred.answer_index, pred.window, pred.mask) == (
                    ref.answer_index, ref.window, ref.mask)
                assert np.array_equal(pred.trace, ref.trace)
                assert np.array_equal(pred.scores, ref.scores)


# --- degenerate worlds ------------------------------------------------------------

SOURCES = ("gauss", "attn", "fused")


def degenerate_episode(seed=60, n=32, duration=30.0, **fields):
    """An n-frame episode without a moment, with its own negatives, so every
    objective runs on it; fields replaces any of its arrays."""
    rng = np.random.default_rng(seed)
    ep = dataclasses.replace(make_episode(rng, n=n), gt_moment=None, question_id="q",
                             extent=VideoExtent(duration))
    return dataclasses.replace(ep, **fields)


def assert_finite(params, ep, objectives=("ng", "ground", "ng+")):
    """Each window source's prediction, and each objective's loss and
    gradients, are finite (a window's TemporalSegment checks its ends)."""
    for source in SOURCES:
        pred = predict_episode(params, ep, window_source=source)
        assert np.all(np.isfinite(pred.trace)) and np.all(np.isfinite(pred.scores)), source
    for objective in objectives:
        loss, grads = loss_and_gradients(params, ep, objective=objective, alpha=0.5)
        assert math.isfinite(loss), objective
        assert all(np.all(np.isfinite(g)) for g in grads.values()), objective


class TestDegenerateWorlds:
    """Inputs at the edge of what Episode accepts: each path gives finite
    outputs, the documented fallback or a typed error, never a NaN."""

    @pytest.mark.parametrize("fill", ["constant", "zero"])
    def test_flat_frames_fall_back_to_the_first_bin(self, fill):
        params = init_params(SMALL, seed=61)
        frames = np.tile(np.arange(5.0), (32, 1)) if fill == "constant" else np.zeros((32, 5))
        ep = degenerate_episode(frames=frames)
        first_bin = TemporalSegment(0.0, 30.0 / 32)
        gauss = predict_episode(params, ep).window
        with pytest.warns(DegenerateTraceWarning):
            assert predict_episode(params, ep, window_source="attn").window == first_bin
        with pytest.warns(DegenerateTraceWarning):
            fused = predict_episode(params, ep, window_source="fused").window
        assert fused == fuse_windows(gauss, first_bin)
        with pytest.warns(DegenerateTraceWarning):
            if fill == "constant":
                assert_finite(params, ep)
            else:
                # all-zero frames pool to a zero video vector: the grounding
                # term has no cosine against the questions
                assert_finite(params, ep, objectives=("ng",))
                for objective in ("ground", "ng+"):
                    with pytest.raises(model.ZeroNorm, match="pooled vector in episode 'q'"):
                        loss_and_gradients(params, ep, objective=objective)

    def test_zero_question(self):
        params = init_params(SMALL, seed=62)
        ep = degenerate_episode(question=np.zeros(6))
        assert_finite(params, ep, objectives=("ng",))
        for objective in ("ground", "ng+"):
            with pytest.raises(model.ZeroNorm, match="candidate question 0 in episode 'q'"):
                loss_and_gradients(params, ep, objective=objective)

    def test_zero_answer_row(self):
        params = init_params(SMALL, seed=63)
        ep = degenerate_episode()
        ep.answers[0] = 0.0
        for source in SOURCES:
            with pytest.raises(model.ZeroNorm, match="answer row 0 in episode 'q'"):
                predict_episode(params, ep, window_source=source)
        for objective in ("ng", "ground", "ng+"):
            with pytest.raises(model.ZeroNorm, match="answer row 0 in episode 'q'"):
                loss_and_gradients(params, ep, objective=objective)

    @pytest.mark.filterwarnings("ignore::gvqa.posthoc.DegenerateTraceWarning")
    @given(st.sampled_from([2, 32]), st.floats(min_value=1e-322, max_value=1e308),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_extreme_durations_and_two_frames(self, n, duration, seed):
        assert_finite(init_params(SMALL, seed=64), degenerate_episode(seed, n, duration))

    @pytest.mark.parametrize("n", [2, 32])
    def test_duration_too_short_for_its_frames(self, n):
        # 5e-324 s over n frames gives a frame bin of 0 s
        with pytest.raises(ValueError, match=f"episode 'q': duration 5e-324 s is too short "
                                             f"for {n} frames"):
            degenerate_episode(n=n, duration=5e-324)

    @pytest.mark.parametrize("source", SOURCES)
    def test_huge_frames_name_the_episode(self, source):
        # the head overflows to NaN: the loss is NaN, for the trainer's
        # NonFiniteLoss, and prediction names the episode
        params = init_params(SMALL, seed=65)
        eps = [degenerate_episode(seed=i, question_id=f"q{i}") for i in range(3)]
        eps[1].frames *= 1e200
        with np.errstate(all="ignore"):
            assert math.isnan(loss_and_gradients(params, eps[1])[0])
            with pytest.raises(ValueError, match=r"non-finite mask parameters \(nan, nan\) "
                                                 r"for episode 'q1' \(position 1 of the batch\)"):
                model.predict_episodes(params, eps, window_source=source)
