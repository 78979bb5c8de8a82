"""Training loop: Adam updates, negative sampling, two-stage schedule.

Supports the answer-only objective and the joint objective with a question
grounding term. The joint objective can run in two stages: grounding-term
pretraining followed by joint finetuning. Early stopping watches validation
Acc@GQA; the returned parameters are the final stage's best-validation
snapshot.
"""

from __future__ import annotations

import bisect
import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .metrics import LabelTable, evaluate
from .model import Episode, ModelParams, loss_and_gradients, predict_episodes
from .synth import ConfigError, check_integers, episodes_to_labels


class NonFiniteLoss(RuntimeError):
    """A batch's loss or gradients were NaN or infinite; training aborted
    before the update."""


class InsufficientPool(UserWarning):
    """Same-video negatives exhausted; fell back to cross-video draws."""


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "ng"           # "ng" or "ng+"
    stages: int = 1                 # ng+ only: 2 = grounding pretrain, then joint
    epochs: int = 10
    lr: float = 1e-3
    batch: int = 64
    alpha: float = 1.0
    p_same_video: float = 0.3
    p_pos_swap: float = 0.3
    patience: int = 5
    seed: int = 0
    gamma: float = 1.0              # window multiplier for validation metrics

    def __post_init__(self) -> None:
        check_integers(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.objective not in ("ng", "ng+"):
            raise ConfigError(f"objective must be 'ng' or 'ng+', got {self.objective!r}")
        if self.stages not in (1, 2):
            raise ConfigError("stages must be 1 or 2")
        if self.objective == "ng" and self.stages != 1:
            raise ConfigError("the answer-only objective has no grounding pretrain stage")
        if self.epochs < 1 or self.batch < 1 or self.patience < 1:
            raise ConfigError("epochs, batch and patience must be >= 1")
        # NaN fails every comparison below
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be non-negative and finite, got {self.lr}")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be non-negative and finite, got {self.alpha}")
        for name in ("p_same_video", "p_pos_swap"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")


# Adam's moment decay rates and denominator floor: the standard values
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard Adam over a dict of named arrays, updated in place.

    The moments m and v, and two scratch vectors, are flat buffers laid out
    in the order of the arrays, so a step is a fixed handful of whole-buffer
    numpy calls instead of a dozen per array. Each element is computed in the
    order of the per-array update m = b1 m + (1 - b1) g,
    v = b2 v + ((1 - b2) g) g, w -= lr (m / b1t) / (sqrt(v / b2t) + eps),
    so the bits are those of that update."""

    def __init__(self, arrays: Mapping[str, np.ndarray], lr: float) -> None:
        self.arrays = arrays
        self.lr = lr
        self.t = 0
        self.names = list(arrays)
        offsets = np.cumsum([0] + [arrays[k].size for k in self.names]).tolist()
        self.slices = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
        self.m = np.zeros(offsets[-1])
        self.v = np.zeros(offsets[-1])
        # the gathered gradient, later the update's denominator; and the
        # moment increments, later the update itself
        self._g = np.empty(offsets[-1])
        self._s = np.empty(offsets[-1])
        # each array's share of the update, as a view of its shape
        self._steps = [self._s[sl].reshape(arrays[k].shape)
                       for k, sl in zip(self.names, self.slices)]

    def step(self, grads: Mapping[str, np.ndarray], scale: float = 1.0) -> None:
        """One update from the gradients scale * grads. A non-finite gradient
        raises NonFiniteLoss naming the first bad array, in the arrays'
        order, before any moment or array changes."""
        g, s = self._g, self._s
        np.concatenate([grads[k] for k in self.names], axis=None, out=g)
        if not np.isfinite(g).all():
            bad = next(k for k, sl in zip(self.names, self.slices)
                       if not np.isfinite(g[sl]).all())
            raise NonFiniteLoss(f"non-finite gradient {bad}")
        g *= scale
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        self.m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        self.m += s
        self.v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        s *= g
        self.v += s
        # s = lr (m / b1t), g = sqrt(v / b2t) + eps, then s /= g
        np.divide(self.m, b1t, out=s)
        s *= self.lr
        np.divide(self.v, b2t, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        s /= g
        for name, d in zip(self.names, self._steps):
            self.arrays[name] -= d


# --- negative sampling ------------------------------------------------------

class NegativePool:
    """Question vectors grouped by video for hard-negative draws.

    Every given episode's question is an entry, in the given order; a caller
    that wants some questions never drawn as negatives leaves their episodes
    out. Besides the entries themselves the pool keeps, for each video and
    for each question id, the ascending positions of its entries, so a draw
    can find or skip them without scanning the pool.
    """

    def __init__(self, episodes: Sequence[Episode]) -> None:
        self.entries: list[tuple[str, str, np.ndarray]] = []
        self.video_positions: dict[str, list[int]] = {}
        self.id_positions: dict[str, list[int]] = {}
        for ep in episodes:
            self.video_positions.setdefault(ep.video_id, []).append(len(self.entries))
            self.id_positions.setdefault(ep.question_id, []).append(len(self.entries))
            self.entries.append((ep.question_id, ep.video_id, ep.question))
        if not self.entries:
            raise ConfigError("negative pool is empty")


def sample_negatives(
    pool: NegativePool,
    episode: Episode,
    count: int,
    p_same_video: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Draw `count` distinct negative questions for one episode.

    Each slot comes from the episode's own video with probability
    p_same_video, otherwise from other videos. When the chosen sub-pool has
    no unused entries left the draw falls back to the other one (same-video
    exhaustion additionally warns, since it silently changes hardness).

    The draws and the generator stream match the list-scan definition: per
    slot, the candidates are the same-video entries other than the episode's
    question, or the other videos' entries, in pool order and minus every
    entry whose question id is already picked, and the slot takes candidate
    `rng.integers(len(candidates))`. Cross-video candidates are not listed;
    the index is mapped onto the pool by stepping past the ascending
    positions excluded from it. A call costs O(count * (siblings + count)),
    whatever the pool size.
    """
    picked: set[str] = set()
    out: list[np.ndarray] = []
    # ascending positions no cross-video draw may take: the episode's own
    # video, then every entry of a picked question id
    excluded = list(pool.video_positions.get(episode.video_id, ()))
    same_all = [pool.entries[p] for p in excluded]
    warned = False
    for _ in range(count):
        same = [e for e in same_all if e[0] != episode.question_id and e[0] not in picked]
        n_cross = len(pool.entries) - len(excluded)
        want_same = rng.random() < p_same_video
        if want_same and not same and not warned:
            # constant text so the default warning filter prints it once, not
            # once per episode
            warnings.warn(
                "same-video negatives exhausted; drawing cross-video",
                InsufficientPool,
                stacklevel=2,
            )
            warned = True
        if want_same and same:
            qid, _, q = same[int(rng.integers(len(same)))]
        elif n_cross:
            # the k-th position that is not excluded
            pos = int(rng.integers(n_cross))
            for e in excluded:
                if e > pos:
                    break
                pos += 1
            qid, _, q = pool.entries[pos]
        elif same:
            qid, _, q = same[int(rng.integers(len(same)))]
        else:
            raise ConfigError("negative pools exhausted; need more episodes")
        picked.add(qid)
        for p in pool.id_positions[qid]:
            i = bisect.bisect_left(excluded, p)
            if i == len(excluded) or excluded[i] != p:
                excluded.insert(i, p)
        out.append(q)
    return out


# --- training loop -------------------------------------------------------------

def _validate(
    params: ModelParams,
    episodes: Sequence[Episode],
    labels: LabelTable,
    gamma: float,
) -> dict:
    """Grounded-QA metrics of the episodes' predictions, as fractions."""
    report = evaluate(predict_episodes(params, episodes, gamma=gamma), labels)
    # percent -> fraction; n * (100 / n) can round one ulp above 100
    return {k: min(getattr(report, k) / 100.0, 1.0)
            for k in ("acc_qa", "acc_gqa", "m_iop", "m_iou")}


def _stage_plan(config: TrainConfig) -> list[tuple[str, int]]:
    if config.objective == "ng":
        return [("ng", config.epochs)]
    if config.stages == 1:
        return [("ng+", config.epochs)]
    pre = config.epochs // 2
    post = config.epochs - pre
    plan = []
    if pre:
        plan.append(("ground", pre))
    plan.append(("ng+", post))
    return plan


def train(
    params: ModelParams,
    episodes: Sequence[Episode],
    config: TrainConfig,
    val_episodes: Sequence[Episode],
    on_epoch: Callable[[dict], None] | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Optimize params on the episode set; returns (best_params, history).

    val_episodes are scored after every epoch. best_params is the snapshot
    with the highest validation Acc@GQA within the final stage (the earliest
    on ties). Early stopping triggers after `patience` final-stage epochs
    without an improvement on it. History rows carry epoch, stage, train
    loss and validation metrics as fractions.
    """
    if not episodes:
        raise ConfigError("no training episodes")
    if not val_episodes:
        raise ConfigError("no validation episodes")

    if len({ep.question_id for ep in val_episodes}) != len(val_episodes):
        raise ConfigError("validation episodes need distinct question ids")
    # raises NotSynthetic for a validation episode without a moment
    val_labels = episodes_to_labels(val_episodes)
    rng = np.random.default_rng(config.seed)
    adam = Adam(params.arrays, lr=config.lr)
    pool = None
    need = episodes[0].n_answers - 1
    if config.objective == "ng+":
        # each draw asks for `need` negatives; an episode with another answer
        # count would only fail inside its loss, epochs later
        for ep in episodes:
            if ep.n_answers != need + 1:
                raise ConfigError(
                    f"training episode {ep.question_id} has {ep.n_answers} answers, "
                    f"{episodes[0].question_id} has {need + 1}; negative sampling "
                    "needs one answer count"
                )
        pool = NegativePool(episodes)

    history: list[dict] = []
    best_acc, best_params = -1.0, params.copy()
    plan = _stage_plan(config)
    final_stage = len(plan) - 1
    epoch = 0
    for stage_idx, (objective, n_epochs) in enumerate(plan):
        since_best = 0
        for _ in range(n_epochs):
            order = rng.permutation(len(episodes))
            loss_sum = 0.0
            for lo in range(0, len(order), config.batch):
                batch = [episodes[i] for i in order[lo:lo + config.batch]]
                # every draw comes before the engine call, in the per-episode
                # order (negatives, then the positive swap), so the generator
                # stream does not depend on how the engine batches
                negs = pos = None
                if objective in ("ground", "ng+"):
                    negs, pos = [], []
                    for ep in batch:
                        negs.append(sample_negatives(pool, ep, need, config.p_same_video, rng))
                        swap = None
                        if ep.pos_variants and rng.random() < config.p_pos_swap:
                            swap = ep.pos_variants[int(rng.integers(len(ep.pos_variants)))]
                        pos.append(swap)
                batch_loss, grads = loss_and_gradients(
                    params, batch, objective=objective, alpha=config.alpha,
                    pos_question=pos, neg_questions=negs,
                )
                where = f"epoch {epoch}, batch starting {lo}, stage {objective}"
                if not math.isfinite(batch_loss):
                    raise NonFiniteLoss(f"non-finite loss at {where}")
                try:
                    adam.step(grads, scale=1.0 / len(batch))
                except NonFiniteLoss as exc:
                    raise NonFiniteLoss(f"{exc} at {where}") from None
                loss_sum += batch_loss
            val = _validate(params, val_episodes, val_labels, config.gamma)
            row = {"epoch": epoch, "stage": objective,
                   "loss": loss_sum / len(episodes), **val}
            history.append(row)
            if on_epoch is not None:
                on_epoch(row)
            # an earlier stage's answer head is untrained: only the final
            # stage competes for the snapshot
            if stage_idx == final_stage and val["acc_gqa"] > best_acc:
                best_acc, best_params = val["acc_gqa"], params.copy()
                since_best = 0
            else:
                since_best += 1
            epoch += 1
            if stage_idx == final_stage and since_best >= config.patience:
                return best_params, history
    return best_params, history


HISTORY_COLUMNS = ("epoch", "stage", "loss", "acc_qa", "acc_gqa", "m_iop", "m_iou")


def write_history_csv(path: str | Path, history: Sequence[dict]) -> None:
    """Per-epoch curve file (metrics as fractions, loss in nats). acc_gqa is
    the column early stopping selects on; stage names the epoch's objective."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow([row["epoch"], row["stage"]]
                            + [f"{row[k]:.6f}" for k in HISTORY_COLUMNS[2:]])
