"""Synthetic planted-moment episodes with exact grounding oracles.

Each synthetic video is a shared background of unit-norm noise frames; four
sibling episodes (questions) share that background. An episode plants a
question/answer signal on the frames inside its ground-truth moment and a
wrong-answer distractor signal outside it, so only a learner that looks at
the right frames can answer reliably. A configurable fraction of questions
leak the answer through the question vector itself (language shortcut),
mirroring the confound that blind QA models exploit. Episodes carry no
negative questions; the trainer samples those, siblings included.

Also provides the diagnostic scorers used to carve evaluation subsets:
a question-only bilinear scorer and a frames+question scorer over either
the moment-only or the outside-moment frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gaussian import frame_times
from .metrics import LabelTable
from .model import Episode, _softmax
from .temporal import TemporalSegment, VideoExtent

SIBLINGS_PER_VIDEO = 4


class ConfigError(ValueError):
    """A generator or training configuration violates its preconditions."""


class NotSynthetic(ValueError):
    """Episode carries no planted moment."""


@dataclass(frozen=True)
class SynthConfig:
    n_episodes: int = 2000
    n_frames: int = 32
    d_v: int = 24
    d_t: int = 16
    n_answers: int = 5
    moment_ratio: float = 0.2
    noise_std: float = 0.5
    signal_gain: float = 1.0
    out_gain: float = 0.7
    shortcut_rate: float = 0.3
    shortcut_gain: float = 1.0
    n_pos_variants: int = 3
    variant_noise: float = 0.15
    duration_lo: float = 25.0
    duration_hi: float = 55.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_episodes < 1:
            raise ConfigError("n_episodes must be >= 1")
        if self.n_answers < 2:
            raise ConfigError("n_answers must be >= 2")
        if not 0.0 < self.moment_ratio < 1.0:
            raise ConfigError("moment_ratio must be in (0, 1)")
        if not 0.0 <= self.shortcut_rate <= 1.0:
            raise ConfigError("shortcut_rate must be in [0, 1]")
        if self.noise_std < 0 or self.out_gain < 0 or self.signal_gain <= 0:
            raise ConfigError("gains must be non-negative (signal_gain positive)")
        if self.n_frames < 2:
            raise ConfigError("n_frames must be >= 2")
        if not 0 < self.duration_lo <= self.duration_hi:
            raise ConfigError("need 0 < duration_lo <= duration_hi")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _frames_inside(centers: np.ndarray, moment: TemporalSegment) -> np.ndarray:
    """Boolean per-frame mask of the frame centers (seconds) inside a moment.

    Tiny moments can slip between frame centers; they snap to the nearest one.
    """
    inside = (centers >= moment.start) & (centers <= moment.end)
    if not inside.any():
        inside[int(np.argmin(np.abs(centers - (moment.start + moment.end) / 2)))] = True
    return inside


def generate(config: SynthConfig) -> list[Episode]:
    """Deterministic episode set for a config; same config, same bytes.

    Episodes come in sibling groups of four sharing one background and video
    id. neg_questions stays empty: the trainer's sampler draws the hard
    negatives for every batch.
    """
    n_videos = math.ceil(config.n_episodes / SIBLINGS_PER_VIDEO)
    ss = np.random.SeedSequence(config.seed)
    # the second child is unused; spawning it keeps every video's seed in place
    world_seed, _, *video_seeds = ss.spawn(2 + n_videos)

    world_rng = np.random.default_rng(world_seed)
    # world maps carry text-space vectors into video feature space
    M_q = world_rng.normal(size=(config.d_t, config.d_v))
    M_a = world_rng.normal(size=(config.d_t, config.d_v))

    episodes: list[Episode] = []
    for vi in range(n_videos):
        rng = np.random.default_rng(video_seeds[vi])
        vid = f"v{vi:05d}"
        duration = float(rng.uniform(config.duration_lo, config.duration_hi))
        extent = VideoExtent(duration)
        background = config.noise_std * _unit_rows(
            rng.normal(size=(config.n_frames, config.d_v))
        )
        centers = frame_times(config.n_frames, duration)

        n_here = min(SIBLINGS_PER_VIDEO, config.n_episodes - len(episodes))
        for j in range(n_here):
            question = _unit(rng.normal(size=config.d_t))
            answers = _unit_rows(rng.normal(size=(config.n_answers, config.d_t)))
            correct = int(rng.integers(config.n_answers))
            shortcut = bool(rng.random() < config.shortcut_rate)
            if shortcut:
                question = _unit(question + config.shortcut_gain * answers[correct])

            m_len = config.moment_ratio * duration
            m_start = float(rng.uniform(0.0, duration - m_len))
            moment = TemporalSegment(m_start, m_start + m_len)
            inside = _frames_inside(centers, moment)

            signal = config.signal_gain * _unit(question @ M_q + answers[correct] @ M_a)
            wrong = int(rng.choice([a for a in range(config.n_answers) if a != correct]))
            distractor = config.out_gain * _unit(answers[wrong] @ M_a)

            frames = background.copy()
            frames[inside] += signal
            frames[~inside] += distractor

            variants = [
                _unit(question + config.variant_noise * rng.normal(size=config.d_t))
                for _ in range(config.n_pos_variants)
            ]
            episodes.append(
                Episode(
                    frames=frames,
                    question=question,
                    answers=answers,
                    correct=correct,
                    extent=extent,
                    pos_variants=variants,
                    gt_moment=moment,
                    question_id=f"{vid}_q{j}",
                    video_id=vid,
                )
            )
    return episodes


def oracle_grounding(episode: Episode) -> TemporalSegment:
    """The planted moment, exactly."""
    if episode.gt_moment is None:
        raise NotSynthetic(f"episode {episode.question_id or '<anon>'} has no planted moment")
    return episode.gt_moment


def episodes_to_labels(episodes: Iterable[Episode]) -> LabelTable:
    """Grounding labels keyed by question id, for the metrics protocol.

    Raises NotSynthetic for the first episode without a planted moment, and
    LabelTable's ValueError for a repeated question id.
    """
    episodes = list(episodes)
    moments = [oracle_grounding(ep) for ep in episodes]
    return LabelTable(
        [ep.question_id for ep in episodes],
        [ep.video_id for ep in episodes],
        [ep.extent.duration for ep in episodes],
        [ep.correct for ep in episodes],
        [m.start for m in moments],
        [m.end for m in moments],
        range(len(episodes)),
    )


def split_by_video(
    episodes: Sequence[Episode], val_fraction: float = 0.15, seed: int = 0
) -> tuple[list[Episode], list[Episode]]:
    """Train/val split keeping sibling groups together."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must be in (0, 1)")
    vids = sorted({ep.video_id for ep in episodes})
    rng = np.random.default_rng(seed)
    rng.shuffle(vids)
    n_val = max(1, int(round(val_fraction * len(vids))))
    val_vids = set(vids[:n_val])
    train = [ep for ep in episodes if ep.video_id not in val_vids]
    val = [ep for ep in episodes if ep.video_id in val_vids]
    return train, val


# --- diagnostic scorers ----------------------------------------------------------

def moment_frame_mask(episode: Episode) -> np.ndarray:
    """Boolean per-frame mask of the frames the generator planted the signal on."""
    centers = frame_times(episode.n_frames, episode.extent.duration)
    return _frames_inside(centers, oracle_grounding(episode))


@dataclass
class QuestionOnlyScorer:
    """Bilinear question-to-answer scorer; sees no frames at all."""

    W: np.ndarray | None = None

    def fit(self, episodes: Sequence[Episode], epochs: int = 150, lr: float = 0.5) -> None:
        Q = np.stack([ep.question for ep in episodes])
        A = np.stack([ep.answers for ep in episodes])
        y = np.array([ep.correct for ep in episodes])
        d_t = Q.shape[1]
        self.W = np.zeros((d_t, d_t))
        onehot = np.zeros((len(episodes), A.shape[1]))
        onehot[np.arange(len(episodes)), y] = 1.0
        for _ in range(epochs):
            scores = np.einsum("ef,eaf->ea", Q @ self.W, A)
            p = _softmax(scores)
            grad = Q.T @ np.einsum("ea,eaf->ef", p - onehot, A) / len(episodes)
            self.W -= lr * grad

    def scores(self, episode: Episode) -> np.ndarray:
        if self.W is None:
            raise ValueError("scorer not fitted")
        return (episode.question @ self.W) @ episode.answers.T

    def predict(self, episode: Episode) -> int:
        return int(np.argmax(self.scores(episode)))


@dataclass
class FramesQuestionScorer:
    """Linear scorer over mean-pooled frames plus a bilinear question term.

    Every call names its frame pool, "moment" or "outside": fitting on
    moment-only or outside-only frames is how the per-subset diagnostic
    models are built, and they predict from the same pool.
    """

    U: np.ndarray | None = None
    W: np.ndarray | None = None

    @staticmethod
    def _pool(episode: Episode, frame_subset: str) -> np.ndarray:
        mask = moment_frame_mask(episode)
        if frame_subset == "moment":
            rows = episode.frames[mask]
        elif frame_subset == "outside":
            rows = episode.frames[~mask]
        else:
            raise ValueError(f"unknown frame_subset {frame_subset!r}")
        if rows.shape[0] == 0:
            return np.zeros(episode.frames.shape[1])
        return rows.mean(axis=0)

    def fit(
        self,
        episodes: Sequence[Episode],
        frame_subset: str,
        epochs: int = 150,
        lr: float = 0.5,
    ) -> None:
        V = np.stack([self._pool(ep, frame_subset) for ep in episodes])
        Q = np.stack([ep.question for ep in episodes])
        A = np.stack([ep.answers for ep in episodes])
        y = np.array([ep.correct for ep in episodes])
        self.U = np.zeros((V.shape[1], A.shape[2]))
        self.W = np.zeros((Q.shape[1], A.shape[2]))
        onehot = np.zeros((len(episodes), A.shape[1]))
        onehot[np.arange(len(episodes)), y] = 1.0
        for _ in range(epochs):
            scores = np.einsum("ef,eaf->ea", V @ self.U + Q @ self.W, A)
            delta = _softmax(scores) - onehot
            # the answer-weighted error, shared by both updates
            delta_A = np.einsum("ea,eaf->ef", delta, A)
            self.U -= lr * (V.T @ delta_A) / len(episodes)
            self.W -= lr * (Q.T @ delta_A) / len(episodes)

    def scores(self, episode: Episode, frame_subset: str) -> np.ndarray:
        if self.U is None or self.W is None:
            raise ValueError("scorer not fitted")
        v = self._pool(episode, frame_subset)
        return (v @ self.U + episode.question @ self.W) @ episode.answers.T

    def predict(self, episode: Episode, frame_subset: str) -> int:
        return int(np.argmax(self.scores(episode, frame_subset)))


@dataclass(frozen=True)
class DiagnosticSplit:
    """Question-id subsets for confound-aware evaluation."""

    vqa: frozenset[str]
    gdqa: frozenset[str]


def fit_diagnostics(
    train_episodes: Sequence[Episode],
) -> tuple[QuestionOnlyScorer, FramesQuestionScorer, FramesQuestionScorer]:
    """Train the three subset probes: blind, moment-only, outside-moment."""
    blind = QuestionOnlyScorer()
    blind.fit(train_episodes)
    pos = FramesQuestionScorer()
    pos.fit(train_episodes, frame_subset="moment")
    neg = FramesQuestionScorer()
    neg.fit(train_episodes, frame_subset="outside")
    return blind, pos, neg


def split_diagnostic(
    episodes: Sequence[Episode],
    blind: QuestionOnlyScorer,
    pos: FramesQuestionScorer,
    neg: FramesQuestionScorer,
) -> DiagnosticSplit:
    """VQA: blind scorer fails. GDQA: additionally, the outside-moment probe
    fails while the moment-only probe succeeds."""
    vqa = set()
    gdqa = set()
    for ep in episodes:
        if blind.predict(ep) == ep.correct:
            continue
        vqa.add(ep.question_id)
        neg_right = neg.predict(ep, "outside") == ep.correct
        pos_right = pos.predict(ep, "moment") == ep.correct
        if pos_right and not neg_right:
            gdqa.add(ep.question_id)
    return DiagnosticSplit(vqa=frozenset(vqa), gdqa=frozenset(gdqa))
