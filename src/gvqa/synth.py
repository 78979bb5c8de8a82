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
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .gaussian import ShapeMismatch, frame_times
from .metrics import LabelTable
from .model import Episode
from .temporal import TemporalSegment, VideoExtent

SIBLINGS_PER_VIDEO = 4


class ConfigError(ValueError):
    """A generator or training configuration violates its preconditions."""


class NotSynthetic(ValueError):
    """Episode carries no planted moment."""


def check_integers(config: object) -> None:
    """ConfigError naming the first of the dataclass config's int fields whose
    value is not an integer."""
    for f in fields(config):
        if f.type == "int":
            value = getattr(config, f.name)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}") from None


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
        check_integers(self)
        for name in ("seed", "n_pos_variants"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_episodes < 1:
            raise ConfigError("n_episodes must be >= 1")
        if self.n_answers < 2:
            raise ConfigError("n_answers must be >= 2")
        if not 0.0 < self.moment_ratio < 1.0:
            raise ConfigError("moment_ratio must be in (0, 1)")
        if not 0.0 <= self.shortcut_rate <= 1.0:
            raise ConfigError("shortcut_rate must be in [0, 1]")
        for name in ("noise_std", "signal_gain", "out_gain", "shortcut_gain", "variant_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_std < 0 or self.out_gain < 0 or self.signal_gain <= 0:
            raise ConfigError("gains must be non-negative (signal_gain positive)")
        if self.n_frames < 2:
            raise ConfigError("n_frames must be >= 2")
        if not 0 < self.duration_lo <= self.duration_hi < math.inf:
            raise ConfigError("need 0 < duration_lo <= duration_hi < inf")


# _unit and _unit_rows divide by np.linalg.norm's own arithmetic, so the bits
# are the same, without the per-call cost of its Python wrapper
def _unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(v.dot(v))


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.sqrt(np.add.reduce(m * m, axis=1, keepdims=True))


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
            others = [a for a in range(config.n_answers) if a != correct]
            wrong = others[int(rng.integers(len(others)))]
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

# full-batch gradient descent of every probe fit
PROBE_EPOCHS = 150
PROBE_LR = 0.5


def moment_frame_mask(episode: Episode) -> np.ndarray:
    """Boolean per-frame mask of the frames the generator planted the signal on."""
    centers = frame_times(episode.n_frames, episode.extent.duration)
    return _frames_inside(centers, oracle_grounding(episode))


def _check_fit_input(episodes: Sequence[Episode]) -> None:
    """ValueError for no episodes; ShapeMismatch naming the first episode whose
    answer count, question dim or frames dim differs from episode 0's (a
    probe fit stacks them all)."""
    if not episodes:
        raise ValueError("no episodes to fit the probes on")
    first = episodes[0]
    want = (first.n_answers, first.question.shape[0], first.frames.shape[1])
    for i, ep in enumerate(episodes):
        got = (ep.n_answers, ep.question.shape[0], ep.frames.shape[1])
        if got != want:
            raise ShapeMismatch(
                f"episode {ep.question_id!r} (position {i}) has {got[0]} answers, question "
                f"dim {got[1]} and frames dim {got[2]}; episode 0 has {want[0]}, {want[1]} "
                f"and {want[2]}")


def _fit_probe(blocks: list[np.ndarray], episodes: Sequence[Episode]) -> list[np.ndarray]:
    """Full-batch gradient descent from zero weights of the answer
    cross-entropy of a probe scoring answer a of episode e as
    sum_k (X_k[e] @ W_k) . a; returns one W_k per feature block X_k."""
    # answer-major (A, E, d_t): the softmax reduces over A rows of E scores,
    # about 6x faster than over the A-long last axis of (E, A)
    A = np.stack([ep.answers for ep in episodes], axis=1)
    onehot = np.zeros(A.shape[:2])
    onehot[[ep.correct for ep in episodes], np.arange(len(episodes))] = 1.0
    weights = [np.zeros((X.shape[1], A.shape[2])) for X in blocks]
    for _ in range(PROBE_EPOCHS):
        # one product per block: a single GEMM over the stacked blocks is slower
        proj = blocks[0] @ weights[0]
        for X, W in zip(blocks[1:], weights[1:]):
            proj = proj + X @ W
        # the answer softmax in place, less the one-hot
        delta = np.einsum("ef,aef->ae", proj, A)
        delta -= np.fmax.reduce(delta, axis=0)
        np.exp(delta, out=delta)
        delta /= np.add.reduce(delta, axis=0)
        delta -= onehot
        # the answer-weighted error, shared by every block's update
        delta_A = np.einsum("ae,aef->ef", delta, A)
        for X, W in zip(blocks, weights):
            W -= PROBE_LR * (X.T @ delta_A) / len(episodes)
    return weights


@dataclass
class QuestionOnlyScorer:
    """Bilinear question-to-answer scorer; sees no frames at all."""

    W: np.ndarray | None = None

    def fit(self, episodes: Sequence[Episode]) -> None:
        _check_fit_input(episodes)
        (self.W,) = _fit_probe([np.stack([ep.question for ep in episodes])], episodes)

    def predict(self, episode: Episode) -> int:
        """The index of the best-scoring answer."""
        if self.W is None:
            raise ValueError("scorer not fitted")
        if episode.question.shape[0] != self.W.shape[0]:
            raise ShapeMismatch(f"episode {episode.question_id!r} has question dim "
                                f"{episode.question.shape[0]}, the probe was fitted on "
                                f"{self.W.shape[0]}")
        return int(np.argmax((episode.question @ self.W) @ episode.answers.T))


@dataclass
class FramesQuestionScorer:
    """Linear scorer over mean-pooled frames plus a bilinear question term.

    frame_subset, "moment" or "outside", is the frame pool it fits on and
    predicts from: fitting on moment-only or outside-only frames is how the
    per-subset diagnostic models are built.
    """

    frame_subset: str
    U: np.ndarray | None = None
    W: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.frame_subset not in ("moment", "outside"):
            raise ValueError(f"unknown frame_subset {self.frame_subset!r}")

    def _pool(self, episode: Episode, mask: np.ndarray) -> np.ndarray:
        """The mean of the episode's frames in this probe's pool, given its
        moment_frame_mask (zeros for an empty pool)."""
        rows = episode.frames[mask if self.frame_subset == "moment" else ~mask]
        if rows.shape[0] == 0:
            return np.zeros(episode.frames.shape[1])
        # rows.mean(axis=0) without its Python wrapper: this runs per episode
        return np.add.reduce(rows, axis=0) / rows.shape[0]

    def fit(self, episodes: Sequence[Episode], masks: Sequence[np.ndarray]) -> None:
        """Fit on the episodes, given their moment_frame_masks."""
        _check_fit_input(episodes)
        V = np.stack([self._pool(ep, mask) for ep, mask in zip(episodes, masks, strict=True)])
        Q = np.stack([ep.question for ep in episodes])
        self.U, self.W = _fit_probe([V, Q], episodes)

    def predict(self, episode: Episode, mask: np.ndarray) -> int:
        """The index of the best-scoring answer, given the episode's
        moment_frame_mask."""
        if self.U is None or self.W is None:
            raise ValueError("scorer not fitted")
        dims = (episode.frames.shape[1], episode.question.shape[0])
        if dims != (self.U.shape[0], self.W.shape[0]):
            raise ShapeMismatch(f"episode {episode.question_id!r} has frames dim {dims[0]} and "
                                f"question dim {dims[1]}, the probe was fitted on "
                                f"{self.U.shape[0]} and {self.W.shape[0]}")
        pooled = self._pool(episode, mask)
        return int(np.argmax((pooled @ self.U + episode.question @ self.W) @ episode.answers.T))


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
    # one moment mask per episode serves both frames probes
    masks = [moment_frame_mask(ep) for ep in train_episodes]
    pos = FramesQuestionScorer("moment")
    pos.fit(train_episodes, masks)
    neg = FramesQuestionScorer("outside")
    neg.fit(train_episodes, masks)
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
        # one moment mask serves both frames probes
        mask = moment_frame_mask(ep)
        neg_right = neg.predict(ep, mask) == ep.correct
        if pos.predict(ep, mask) == ep.correct and not neg_right:
            gdqa.add(ep.question_id)
    return DiagnosticSplit(vqa=frozenset(vqa), gdqa=frozenset(gdqa))
