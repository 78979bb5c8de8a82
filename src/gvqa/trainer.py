"""Training loop: Adam updates, negative sampling, two-stage schedule.

Supports the answer-only objective and the joint objective with a question
grounding term. The joint objective can run in two stages: grounding-term
pretraining followed by joint finetuning. Early stopping watches validation
Acc@GQA; the returned parameters are the final stage's best-validation
snapshot.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .metrics import LabelTable, csv_text, evaluate, rewrite_text
from .model import Episode, ModelParams, loss_and_gradients, predict_episodes
from .synth import ConfigError, check_integers, episodes_to_labels


class NonFiniteLoss(ArithmeticError):
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
    """Question vectors of the training episodes, for hard-negative draws.

    Entry i is the i-th given episode's question, so a pool built from
    train()'s episodes has episode i at position i. sample_negatives names
    the episodes it draws for by pool position, so every such episode must
    be in the pool, at its own position. The pool is
    held as columns: the (N, d_t) question matrix, each position's question
    id and video id as integer codes, and every video's positions,
    ascending. `fallbacks` counts the same-video slots that fell back to
    other videos, over every draw from the pool.
    """

    def __init__(self, episodes: Sequence[Episode]) -> None:
        if not episodes:
            raise ConfigError("negative pool is empty")
        self.questions = np.stack([ep.question for ep in episodes])
        id_codes: dict[str, int] = {}
        video_codes: dict[str, int] = {}
        self.ids = np.array([id_codes.setdefault(ep.question_id, len(id_codes))
                             for ep in episodes])
        self.videos = np.array([video_codes.setdefault(ep.video_id, len(video_codes))
                                for ep in episodes])
        # video v's positions are siblings[sibling_bounds[v]:sibling_bounds[v + 1]];
        # rank[p] is position p's place among them
        self.siblings = np.argsort(self.videos, kind="stable")
        self.sibling_bounds = np.searchsorted(self.videos[self.siblings],
                                              np.arange(len(video_codes) + 1))
        self.rank = np.empty(len(episodes), dtype=np.intp)
        self.rank[self.siblings] = (np.arange(len(episodes))
                                    - self.sibling_bounds[self.videos[self.siblings]])
        self.fallbacks = 0


def sample_negatives(
    pool: NegativePool,
    positions: np.ndarray,
    count: int,
    p_same_video: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw `count` negatives for each of a minibatch's episodes, given as
    their pool positions; returns the (b, count) pool positions drawn.

    Each slot comes from the episode's own video with probability
    p_same_video, otherwise from other videos. An episode's negatives have
    distinct question ids, none equal to its own. When the episode's video
    has no unused entry left a same-video slot falls back to other videos,
    counts in pool.fallbacks and warns InsufficientPool (at most once per
    call, since it silently changes hardness); a cross-video slot with no
    candidate left falls back to the video; with neither, ConfigError.

    The draw is defined by this scalar procedure. First the whole minibatch's
    `same[e, j] = rng.random() < p_same_video`, then its `u[e, j] =
    rng.random()`, each in row-major order. Then for each episode e in
    order, for each slot j in order, the tentative pick is the
    `int(u * m)`-th of the m other positions of e's video in pool order
    (same-video), or position `int(u * N)` of the N-entry pool
    (cross-video). It is a conflict when its question id is e's own or one
    already picked for e, when a same-video slot's video has no other
    position, or when a cross-video pick lies in e's video. A conflict is
    redrawn: the candidates are the wanted sub-pool's positions (e's video,
    or every other video) whose ids are neither e's nor picked, in pool
    order, and the slot takes candidate `int(rng.random() * len(candidates))`,
    falling back as above. Here the tentative picks and their conflicts are
    found with array calls; only episodes with a conflict run the loop.
    """
    positions = np.asarray(positions, dtype=np.intp)
    b, n = len(positions), len(pool.ids)
    video = pool.videos[positions]
    own = pool.ids[positions]
    lo = pool.sibling_bounds[video]
    others = pool.sibling_bounds[video + 1] - lo - 1
    same = rng.random((b, count)) < p_same_video
    u = rng.random((b, count))
    # skip the episode's own position; a video with no other position
    # reads a neighbour's, which `clash` flags
    k = (u * others[:, None]).astype(np.intp)
    k += k >= pool.rank[positions][:, None]
    sibling = pool.siblings[np.minimum(lo[:, None] + k, n - 1)]
    picks = np.where(same, sibling, (u * n).astype(np.intp))
    ids = pool.ids[picks]
    clash = ((ids == own[:, None]) | (same & (others == 0)[:, None])
             | (~same & (pool.videos[picks] == video[:, None])))
    # an episode runs the loop if a slot conflicts by itself or two repeat an id
    ranked = np.sort(ids, axis=1)
    redo = np.flatnonzero(clash.any(axis=1) | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    warned = False
    rows = zip(redo.tolist(), picks[redo].tolist(), ids[redo].tolist(),
               same[redo].tolist(), clash[redo].tolist())
    for e, row, row_ids, wants, clashes in rows:
        sibs = pool.siblings[lo[e]:lo[e] + others[e] + 1]
        sib_ids = list(zip(sibs.tolist(), pool.ids[sibs].tolist()))
        picked = [int(own[e])]
        for j in range(count):
            if clashes[j] or row_ids[j] in picked:
                same_c = [p for p, q in sib_ids if q not in picked]
                if wants[j] and same_c:
                    cands = same_c
                else:
                    outside = pool.videos != video[e]
                    for q in picked:
                        outside &= pool.ids != q
                    cands = np.flatnonzero(outside)
                    if wants[j]:
                        if not warned:
                            # constant text so the default warning filter
                            # prints it once, not once per minibatch
                            warnings.warn("same-video negatives exhausted; drawing cross-video",
                                          InsufficientPool, stacklevel=2)
                            warned = True
                        pool.fallbacks += bool(len(cands))
                    if not len(cands):
                        cands = same_c
                if not len(cands):
                    raise ConfigError("negative pools exhausted; need more episodes")
                row[j] = int(cands[int(rng.random() * len(cands))])
                row_ids[j] = int(pool.ids[row[j]])
            picked.append(row_ids[j])
        picks[e] = row
    return picks


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
    loss, validation metrics as fractions, and the sampler's fallback count.
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
            fallbacks = 0 if pool is None else pool.fallbacks
            for lo in range(0, len(order), config.batch):
                index = order[lo:lo + config.batch]
                batch = [episodes[i] for i in index]
                # one draw per minibatch, before the engine call: the
                # negatives, then swap[e] = rng.random() < p_pos_swap and
                # w[e] = rng.random() for every episode; row 0 of episode e's
                # candidates, its own question, becomes variant int(w * m)
                # when it has m > 0 variants and swap
                candidates = None
                if objective in ("ground", "ng+"):
                    negs = sample_negatives(pool, index, need, config.p_same_video, rng)
                    candidates = pool.questions[np.column_stack((index, negs))]
                    swap = rng.random(len(index)) < config.p_pos_swap
                    w = rng.random(len(index))
                    for j in np.flatnonzero(swap).tolist():
                        variants = batch[j].pos_variants
                        if variants:
                            candidates[j, 0] = variants[int(w[j] * len(variants))]
                batch_loss, grads = loss_and_gradients(
                    params, batch, objective=objective, alpha=config.alpha,
                    candidates=candidates,
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
                   "loss": loss_sum / len(episodes), **val,
                   "fallbacks": 0 if pool is None else pool.fallbacks - fallbacks}
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


HISTORY_COLUMNS = ("epoch", "stage", "loss", "acc_qa", "acc_gqa", "m_iop", "m_iou",
                   "fallbacks")


def write_history_csv(path: str | Path, history: Sequence[dict]) -> None:
    """Per-epoch curve file (metrics as fractions, loss in nats). acc_gqa is
    the column early stopping selects on; stage names the epoch's objective;
    fallbacks counts the epoch's same-video negative slots that were drawn
    from other videos."""
    rows = [[row["epoch"], row["stage"], *(f"{row[k]:.6f}" for k in HISTORY_COLUMNS[2:-1]),
             row["fallbacks"]] for row in history]
    rewrite_text(path, csv_text([HISTORY_COLUMNS] + rows))
