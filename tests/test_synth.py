"""Planted-moment generator: determinism, geometry, probes."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from gvqa import synth
from gvqa.gaussian import ShapeMismatch, frame_times
from gvqa.metrics import LabelTable, evaluate, random_baseline
from gvqa.model import Episode, ModelConfig, init_params
from gvqa.synth import (
    SIBLINGS_PER_VIDEO,
    ConfigError,
    FramesQuestionScorer,
    NotSynthetic,
    QuestionOnlyScorer,
    SynthConfig,
    episodes_to_labels,
    fit_diagnostics,
    generate,
    moment_frame_mask,
    oracle_grounding,
    split_by_video,
    split_diagnostic,
)
from gvqa.temporal import TemporalSegment, VideoExtent
from gvqa.trainer import TrainConfig, train


CFG = SynthConfig(n_episodes=240, seed=11)


@pytest.fixture(scope="module")
def eps():
    return generate(CFG)


def _episodes_equal(a: Episode, b: Episode) -> bool:
    return (
        np.array_equal(a.frames, b.frames)
        and np.array_equal(a.question, b.question)
        and np.array_equal(a.answers, b.answers)
        and a.correct == b.correct
        and a.extent.duration == b.extent.duration
        and all(np.array_equal(x, y) for x, y in zip(a.pos_variants, b.pos_variants))
        and a.gt_moment == b.gt_moment
        and a.question_id == b.question_id
        and a.video_id == b.video_id
    )


def test_generate_deterministic(eps):
    again = generate(CFG)
    assert len(again) == len(eps)
    assert all(_episodes_equal(a, b) for a, b in zip(eps, again))


def test_different_seed_different_bytes(eps):
    other = generate(SynthConfig(n_episodes=240, seed=12))
    assert not np.array_equal(other[0].frames, eps[0].frames)


def test_structure(eps):
    assert len(eps) == CFG.n_episodes
    ids = [ep.question_id for ep in eps]
    assert len(set(ids)) == len(ids)
    for ep in eps:
        assert ep.frames.shape == (CFG.n_frames, CFG.d_v)
        assert ep.answers.shape == (CFG.n_answers, CFG.d_t)
        assert 0 <= ep.correct < CFG.n_answers
        assert CFG.duration_lo <= ep.extent.duration <= CFG.duration_hi
        # negatives are the trainer's to draw
        assert ep.neg_questions == []
        assert len(ep.pos_variants) == CFG.n_pos_variants
        assert np.isclose(np.linalg.norm(ep.question), 1.0)
    # sibling groups of four share a video id and an extent
    for lo in range(0, len(eps), SIBLINGS_PER_VIDEO):
        group = eps[lo:lo + SIBLINGS_PER_VIDEO]
        assert len({ep.video_id for ep in group}) == 1
        assert len({ep.extent.duration for ep in group}) == 1


def test_moment_geometry(eps):
    for ep in eps:
        m = ep.gt_moment
        assert 0.0 <= m.start < m.end <= ep.extent.duration
        assert m.length == pytest.approx(CFG.moment_ratio * ep.extent.duration, rel=1e-9)
        frac = moment_frame_mask(ep).mean()
        # discretization adds at most one frame per side
        assert abs(frac - CFG.moment_ratio) <= 2.0 / CFG.n_frames


def test_tail_group_smaller_than_four():
    eps = generate(SynthConfig(n_episodes=6, n_answers=3, seed=2))
    assert [ep.question_id for ep in eps] == [
        "v00000_q0", "v00000_q1", "v00000_q2", "v00000_q3", "v00001_q0", "v00001_q1",
    ]
    for ep in eps:
        assert ep.neg_questions == []


def test_tiny_moment_snaps_to_a_frame():
    cfg = SynthConfig(n_episodes=16, n_frames=8, moment_ratio=0.01, seed=4)
    for ep in generate(cfg):
        mask = moment_frame_mask(ep)
        assert mask.sum() >= 1
        assert ep.gt_moment.length == pytest.approx(0.01 * ep.extent.duration)


def test_config_validation():
    for kwargs in (
        {"n_episodes": 0},
        {"n_answers": 1},
        {"moment_ratio": 0.0},
        {"moment_ratio": 1.0},
        {"shortcut_rate": 1.5},
        {"signal_gain": 0.0},
        {"out_gain": -0.1},
        {"n_frames": 1},
        {"duration_lo": 0.0},
        {"duration_lo": 50.0, "duration_hi": 25.0},
    ):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)


def test_single_video_cannot_fill_negatives():
    # a one-video world generates and trains the answer-only objective; ng+
    # needs 4 negatives from 3 siblings and nowhere to borrow from
    eps = generate(SynthConfig(n_episodes=4, n_answers=5, seed=0))
    assert len({ep.video_id for ep in eps}) == 1
    params = init_params(ModelConfig(d_v=eps[0].frames.shape[1], d_t=eps[0].question.shape[0],
                                     width=16), seed=0)
    _, hist = train(params, eps, TrainConfig(objective="ng", epochs=1), val_episodes=eps)
    assert len(hist) == 1
    # cross-video draws fall back to the siblings, which run out
    with pytest.raises(ConfigError, match="negative pools exhausted"):
        train(params, eps, TrainConfig(objective="ng+", epochs=1, p_same_video=0.0),
              val_episodes=eps)


def _stream_digest(episodes):
    h = hashlib.sha256()
    for ep in episodes:
        h.update(f"{ep.question_id}:{ep.video_id}:{ep.correct}:{ep.extent.duration!r}:"
                 f"{ep.gt_moment.start!r}:{ep.gt_moment.end!r}".encode())
        for arr in (ep.frames, ep.question, ep.answers, *ep.pos_variants):
            h.update(arr.tobytes())
    return h.hexdigest()[:16]


def test_generator_stream_pinned():
    """Every byte the generator draws, against a digest recorded before the
    generator stopped wiring negatives: the seed layout must not move."""
    assert _stream_digest(generate(SynthConfig(n_episodes=40, seed=3))) == "1d8f9f75103d7c6d"


@pytest.mark.parametrize("n_answers,digest", [
    (2, "23528f56feeed79c"), (3, "f7d995958a9dd982"), (7, "c29cf6a1835e2754"),
])
def test_distractor_draw_stream_pinned(n_answers, digest):
    """The distractor answer is one draw among the n_answers - 1 wrong ones,
    down to a single wrong answer; digests recorded when the draw was
    rng.choice over the list of wrong answers."""
    config = SynthConfig(n_episodes=12, n_answers=n_answers, seed=5)
    assert _stream_digest(generate(config)) == digest


# --- the generator against its per-question reference ---------------------------
#
# generate as one loop over the questions of each video, drawing and computing
# every episode in turn with per-vector numpy calls: the definition the
# whole-world passes of generate must reproduce byte for byte.

def _reference_unit(v):
    return v / math.sqrt(v.dot(v))


def _reference_unit_rows(m):
    return m / np.sqrt(np.add.reduce(m * m, axis=1, keepdims=True))


def _reference_inside(centers, moment):
    inside = (centers >= moment.start) & (centers <= moment.end)
    if not inside.any():
        inside[int(np.argmin(np.abs(centers - (moment.start + moment.end) / 2)))] = True
    return inside


def reference_generate(config):
    n_videos = math.ceil(config.n_episodes / SIBLINGS_PER_VIDEO)
    world_seed, _, *video_seeds = np.random.SeedSequence(config.seed).spawn(2 + n_videos)
    world_rng = np.random.default_rng(world_seed)
    M_q = world_rng.normal(size=(config.d_t, config.d_v))
    M_a = world_rng.normal(size=(config.d_t, config.d_v))
    episodes = []
    for vi in range(n_videos):
        rng = np.random.default_rng(video_seeds[vi])
        vid = f"v{vi:05d}"
        duration = float(rng.uniform(config.duration_lo, config.duration_hi))
        extent = VideoExtent(duration)
        background = config.noise_std * _reference_unit_rows(
            rng.normal(size=(config.n_frames, config.d_v)))
        centers = frame_times(config.n_frames, duration)
        for j in range(min(SIBLINGS_PER_VIDEO, config.n_episodes - len(episodes))):
            question = _reference_unit(rng.normal(size=config.d_t))
            answers = _reference_unit_rows(rng.normal(size=(config.n_answers, config.d_t)))
            correct = int(rng.integers(config.n_answers))
            if rng.random() < config.shortcut_rate:
                question = _reference_unit(question + config.shortcut_gain * answers[correct])
            m_len = config.moment_ratio * duration
            m_start = float(rng.uniform(0.0, duration - m_len))
            moment = TemporalSegment(m_start, m_start + m_len)
            inside = _reference_inside(centers, moment)
            signal = config.signal_gain * _reference_unit(question @ M_q + answers[correct] @ M_a)
            others = [a for a in range(config.n_answers) if a != correct]
            wrong = others[int(rng.integers(len(others)))]
            distractor = config.out_gain * _reference_unit(answers[wrong] @ M_a)
            frames = background.copy()
            frames[inside] += signal
            frames[~inside] += distractor
            variants = [
                _reference_unit(question + config.variant_noise * rng.normal(size=config.d_t))
                for _ in range(config.n_pos_variants)
            ]
            episodes.append(Episode(
                frames=frames, question=question, answers=answers, correct=correct,
                extent=extent, pos_variants=variants, gt_moment=moment,
                question_id=f"{vid}_q{j}", video_id=vid))
    return episodes


@pytest.mark.parametrize("shortcut_rate", [0.0, 1.0])
@pytest.mark.parametrize("n_pos_variants", [0, 3])
@pytest.mark.parametrize("n_answers", [2, 5, 7])
@pytest.mark.parametrize("n_frames", [3, 32, 128])
def test_generate_equals_per_question_reference(monkeypatch, n_frames, n_answers,
                                                n_pos_variants, shortcut_rate):
    """Every byte of every episode field, on 37 episodes (a short last video)
    whose tiny moments snap to a frame; also with array-phase blocks of one
    or two videos, so that blocks end mid-world and on the short video."""
    config = SynthConfig(n_episodes=37, n_frames=n_frames, n_answers=n_answers,
                         n_pos_variants=n_pos_variants, shortcut_rate=shortcut_rate,
                         moment_ratio=0.01, seed=7)
    reference = reference_generate(config)
    assert _stream_digest(generate(config)) == _stream_digest(reference)
    monkeypatch.setattr(synth, "_BLOCK_FLOATS", 200)
    assert _stream_digest(generate(config)) == _stream_digest(reference)


def test_oracle_grounding(eps):
    ep = eps[0]
    assert oracle_grounding(ep) == ep.gt_moment
    bare = Episode(
        frames=ep.frames, question=ep.question, answers=ep.answers,
        correct=ep.correct, extent=ep.extent, question_id="q", video_id="v",
    )
    with pytest.raises(NotSynthetic):
        oracle_grounding(bare)


def test_episodes_to_labels(eps):
    labels = episodes_to_labels(eps)
    assert set(labels) == {ep.question_id for ep in eps}
    for ep in eps:
        lab = labels[ep.question_id]
        assert lab.segments == (ep.gt_moment,)
        assert lab.answer_index == ep.correct
        assert lab.extent.duration == ep.extent.duration
        assert lab.video_id == ep.video_id


def test_episodes_to_labels_rejects_bad_episodes(eps):
    labels = episodes_to_labels(iter(eps[:3]))
    assert isinstance(labels, LabelTable)
    assert list(labels) == [ep.question_id for ep in eps[:3]]
    twin = dataclasses.replace(eps[1], question_id=eps[0].question_id)
    with pytest.raises(ValueError, match="duplicate question ids"):
        episodes_to_labels([eps[0], twin, eps[2]])
    bare = dataclasses.replace(eps[1], gt_moment=None, question_id="bare")
    with pytest.raises(NotSynthetic, match="episode bare has no planted moment"):
        episodes_to_labels([eps[0], bare, twin])


def test_whole_video_baseline_hits_moment_ratio_exactly(eps):
    """Planted moments are a fixed fraction of their video, so the whole-video
    predictor scores that fraction in both overlap metrics, exactly."""
    labels = episodes_to_labels(eps)
    report = evaluate(random_baseline(labels, answer_id=0), labels)
    assert report.m_iop == pytest.approx(100.0 * CFG.moment_ratio, abs=1e-9)
    assert report.m_iou == pytest.approx(100.0 * CFG.moment_ratio, abs=1e-9)


def test_split_by_video(eps):
    train, val = split_by_video(eps, 0.15, seed=0)
    assert len(train) + len(val) == len(eps)
    train_vids = {ep.video_id for ep in train}
    val_vids = {ep.video_id for ep in val}
    assert not train_vids & val_vids
    n_videos = len(train_vids | val_vids)
    assert len(val_vids) == max(1, round(0.15 * n_videos))
    # sibling groups stay whole
    for ep in eps:
        side = val if ep.video_id in val_vids else train
        assert sum(e.video_id == ep.video_id for e in side) == SIBLINGS_PER_VIDEO

    t2, v2 = split_by_video(eps, 0.15, seed=0)
    assert [e.question_id for e in t2] == [e.question_id for e in train]
    t3, _ = split_by_video(eps, 0.15, seed=1)
    assert [e.question_id for e in t3] != [e.question_id for e in train]


def test_split_fraction_bounds(eps):
    with pytest.raises(ConfigError):
        split_by_video(eps, 0.0)
    with pytest.raises(ConfigError):
        split_by_video(eps, 1.0)


# --- diagnostic probes ----------------------------------------------------------

DIAG_CFG = SynthConfig(n_episodes=400, seed=5)


@pytest.fixture(scope="module")
def diag():
    eps = generate(DIAG_CFG)
    train, val = split_by_video(eps, 0.15, seed=0)
    blind, pos, neg = fit_diagnostics(train)
    return train, val, blind, pos, neg


def test_moment_probe_beats_outside_probe(diag):
    _, val, _, pos, neg = diag
    masks = [moment_frame_mask(ep) for ep in val]
    pos_acc = np.mean([pos.predict(ep, m) == ep.correct for ep, m in zip(val, masks)])
    neg_acc = np.mean([neg.predict(ep, m) == ep.correct for ep, m in zip(val, masks)])
    assert pos_acc >= 0.9
    assert neg_acc <= pos_acc - 0.2


def test_frames_probe_takes_a_known_pool_at_construction():
    assert FramesQuestionScorer("outside").frame_subset == "outside"
    with pytest.raises(ValueError, match="unknown frame_subset 'inside'"):
        FramesQuestionScorer("inside")


def test_blind_probe_tracks_shortcut_rate():
    """Question-only accuracy moves from chance to near-perfect as the
    shortcut rate goes from zero to one."""
    accs = {}
    for rate in (0.0, 1.0):
        cfg = SynthConfig(n_episodes=400, shortcut_rate=rate, seed=5)
        train, val = split_by_video(generate(cfg), 0.15, seed=0)
        blind = QuestionOnlyScorer()
        blind.fit(train)
        accs[rate] = np.mean([blind.predict(ep) == ep.correct for ep in val])
    assert accs[0.0] <= 0.35  # chance is 1/5
    assert accs[1.0] >= 0.85


def test_diagnostic_split_subset_property(diag):
    _, val, blind, pos, neg = diag
    split = split_diagnostic(val, blind, pos, neg)
    assert split.gdqa <= split.vqa
    assert len(split.vqa) > 0
    assert len(split.gdqa) > 0
    val_ids = {ep.question_id for ep in val}
    assert split.vqa <= val_ids


def _einsum_fit_blind(episodes, epochs=150, lr=0.5):
    """QuestionOnlyScorer.fit written with three-operand einsums."""
    Q = np.stack([ep.question for ep in episodes])
    A = np.stack([ep.answers for ep in episodes])
    onehot = np.eye(A.shape[1])[[ep.correct for ep in episodes]]
    W = np.zeros((Q.shape[1], Q.shape[1]))
    for _ in range(epochs):
        z = np.einsum("ed,df,eaf->ea", Q, W, A)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        W -= lr * np.einsum("ed,ea,eaf->df", Q, p - onehot, A) / len(episodes)
    return W


def _einsum_fit_frames(episodes, frame_subset, epochs=150, lr=0.5):
    """FramesQuestionScorer.fit written with three-operand einsums."""
    probe = FramesQuestionScorer(frame_subset)
    V = np.stack([probe._pool(ep, moment_frame_mask(ep)) for ep in episodes])
    Q = np.stack([ep.question for ep in episodes])
    A = np.stack([ep.answers for ep in episodes])
    onehot = np.eye(A.shape[1])[[ep.correct for ep in episodes]]
    U = np.zeros((V.shape[1], A.shape[2]))
    W = np.zeros((Q.shape[1], A.shape[2]))
    for _ in range(epochs):
        z = np.einsum("ed,df,eaf->ea", V, U, A) + np.einsum("ed,df,eaf->ea", Q, W, A)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        delta = p - onehot
        U -= lr * np.einsum("ed,ea,eaf->df", V, delta, A) / len(episodes)
        W -= lr * np.einsum("ed,ea,eaf->df", Q, delta, A) / len(episodes)
    return U, W


@pytest.mark.parametrize("n_answers", [2, 5])
def test_probe_fits_match_three_operand_einsums(n_answers):
    config = SynthConfig(n_episodes=160, n_answers=n_answers, seed=21)
    train, val = split_by_video(generate(config), 0.15, seed=0)
    blind, pos, neg = fit_diagnostics(train)

    ref_blind = QuestionOnlyScorer(W=_einsum_fit_blind(train))
    ref_probes = []
    for subset in ("moment", "outside"):
        U, W = _einsum_fit_frames(train, subset)
        ref_probes.append(FramesQuestionScorer(subset, U=U, W=W))
    pairs = [(blind.W, ref_blind.W)]
    for probe, ref in zip((pos, neg), ref_probes):
        pairs += [(probe.U, ref.U), (probe.W, ref.W)]
    for got, want in pairs:
        assert np.abs(want).max() > 0.1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    assert split_diagnostic(val, blind, pos, neg) == split_diagnostic(val, ref_blind, *ref_probes)


def test_frames_probes_fitted_alone_equal_the_shared_mask_fits():
    # fit_diagnostics builds each moment mask once for both frames probes;
    # each probe fitted alone on its own copy of the masks gives the same bits
    train, _ = split_by_video(generate(SynthConfig(n_episodes=80, seed=22)), 0.15, seed=0)
    _, pos, neg = fit_diagnostics(train)
    for probe in (pos, neg):
        alone = FramesQuestionScorer(probe.frame_subset)
        alone.fit(train, [moment_frame_mask(ep) for ep in train])
        assert alone.U.tobytes() == probe.U.tobytes() and alone.W.tobytes() == probe.W.tobytes()
    with pytest.raises(ValueError):
        FramesQuestionScorer("moment").fit(train, [moment_frame_mask(ep) for ep in train[1:]])


def test_a_moment_over_every_frame_leaves_the_outside_probe_no_frames(diag):
    # every frame center lies inside the moment: the outside pool is empty and
    # pools to zeros, so the outside probe scores with its question term alone
    _, val, _, _, neg = diag
    ep = dataclasses.replace(val[0], gt_moment=TemporalSegment(0.0, val[0].extent.duration))
    mask = moment_frame_mask(ep)
    assert mask.all()
    assert np.array_equal(neg._pool(ep, mask), np.zeros(ep.frames.shape[1]))
    assert neg.predict(ep, mask) == int(np.argmax((ep.question @ neg.W) @ ep.answers.T))


def test_an_unfitted_probe_does_not_predict(eps):
    ep = eps[0]
    with pytest.raises(ValueError, match="scorer not fitted"):
        QuestionOnlyScorer().predict(ep)
    for subset in ("moment", "outside"):
        with pytest.raises(ValueError, match="scorer not fitted"):
            FramesQuestionScorer(subset).predict(ep, moment_frame_mask(ep))


def _other_world(**dims):
    return generate(SynthConfig(n_episodes=8, seed=4, **dims))


@pytest.mark.parametrize("bad,error,message", [
    ([], ValueError, "no episodes to fit the probes on"),
    (_other_world(n_answers=3)[:1], ShapeMismatch,
     r"episode 'v00000_q0' \(position 12\) has 3 answers, question dim 16 and frames dim 24; "
     r"episode 0 has 5, 16 and 24"),
    (_other_world(d_t=8)[:1], ShapeMismatch,
     r"episode 'v00000_q0' \(position 12\) has 5 answers, question dim 8 and frames dim 24; "
     r"episode 0 has 5, 16 and 24"),
    (_other_world(d_v=12)[:1], ShapeMismatch,
     r"episode 'v00000_q0' \(position 12\) has 5 answers, question dim 16 and frames dim 12"),
], ids=["empty", "ragged answers", "ragged question dim", "ragged frames dim"])
def test_probe_fit_names_its_bad_input(eps, bad, error, message):
    episodes = [*eps[:12], *bad, *eps[12:20]] if bad else []
    masks = [moment_frame_mask(ep) for ep in episodes]
    for fit in (fit_diagnostics, QuestionOnlyScorer().fit,
                lambda episodes: FramesQuestionScorer("moment").fit(episodes, masks)):
        with pytest.raises(error, match=message):
            fit(episodes)


@pytest.mark.parametrize("dims,blind_message,frames_message", [
    ({"d_t": 8}, "has question dim 8, the probe was fitted on 16",
     "has frames dim 24 and question dim 8, the probe was fitted on 24 and 16"),
    # the blind probe sees no frames
    ({"d_v": 12}, None,
     "has frames dim 12 and question dim 16, the probe was fitted on 24 and 16"),
], ids=["question dim", "frames dim"])
def test_probe_scores_name_an_episode_of_other_dims(diag, dims, blind_message, frames_message):
    _, _, blind, pos, neg = diag
    ep = _other_world(**dims)[0]
    if blind_message is None:
        blind.predict(ep)
    else:
        with pytest.raises(ShapeMismatch, match=f"episode 'v00000_q0' {blind_message}"):
            blind.predict(ep)
    for probe in (pos, neg):
        with pytest.raises(ShapeMismatch, match=f"episode 'v00000_q0' {frames_message}"):
            probe.predict(ep, moment_frame_mask(ep))
