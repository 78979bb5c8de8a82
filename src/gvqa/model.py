"""Dual-style QA model over precomputed features, with manual backprop.

Architecture: project frame features, run one temporal self-attention layer,
pool with a learned query. A grounding head reads question-conditioned tokens
and emits a Gaussian mask; the mask scales post-softmax attention, and the
masked pooled video vector fuses with the projected question to score answer
candidates by cosine similarity. Everything is numpy; gradients are derived
by hand and checked against finite differences in the tests.

Losses:
  ng_loss        cross-entropy on answer scores computed under the predicted mask
  grounding_loss cross-entropy classifying the true question against negatives
                 using the masked video vector
  ngplus_loss    ng_loss + alpha * grounding_loss
"""

from __future__ import annotations

import functools
import json
import math
import operator
import threading
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .gaussian import (
    SIGMA_MIN,
    GaussianMask,
    ShapeMismatch,
    confidence_interval,
    frame_positions,
    gaussian_gradients,
    gaussian_weights,
    mask_weights,
)
from .metrics import Prediction
from .posthoc import extract_window_raw
from .temporal import END_SLACK, TemporalSegment, VideoExtent

CHECKPOINT_VERSION = 1


class NegativeCountMismatch(ValueError):
    """Grounding term needs exactly A - 1 negative questions."""


@dataclass
class Episode:
    """One multiple-choice question over one video's frame features."""

    frames: np.ndarray            # (n_frames, d_v)
    question: np.ndarray          # (d_t,)
    answers: np.ndarray           # (A, d_t)
    correct: int
    extent: VideoExtent
    neg_questions: list[np.ndarray] = field(default_factory=list)
    pos_variants: list[np.ndarray] = field(default_factory=list)
    gt_moment: TemporalSegment | None = None
    question_id: str = ""
    video_id: str = ""

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=float)
        self.question = np.asarray(self.question, dtype=float)
        self.answers = np.asarray(self.answers, dtype=float)
        where = f"episode {self.question_id!r}: "
        if self.frames.ndim != 2 or self.frames.shape[0] < 2:
            raise ShapeMismatch(f"{where}frames must be (n>=2, d_v), got {self.frames.shape}")
        if self.question.ndim != 1:
            raise ShapeMismatch(f"{where}question must be a vector, got {self.question.shape}")
        if self.answers.ndim != 2 or self.answers.shape[0] < 2:
            raise ShapeMismatch(f"{where}answers must be (A>=2, d_t), got {self.answers.shape}")
        if self.answers.shape[1] != self.question.shape[0]:
            raise ShapeMismatch(f"{where}answers and question disagree on text dim")
        for name in ("frames", "question", "answers"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{where}non-finite value in {name}")
        try:
            operator.index(self.correct)
        except TypeError:
            raise ValueError(f"{where}correct index {self.correct!r} is not an integer") from None
        if not 0 <= self.correct < self.answers.shape[0]:
            raise ValueError(f"{where}correct index {self.correct} outside "
                             f"[0, {self.answers.shape[0]})")
        for v in list(self.neg_questions) + list(self.pos_variants):
            if np.asarray(v).shape != self.question.shape:
                raise ShapeMismatch(f"{where}negative/variant question dim mismatch")
        if not self.extent.duration / self.frames.shape[0] > 0:
            # a zero frame bin leaves post-hoc windows no length
            raise ValueError(f"{where}duration {self.extent.duration} s "
                             f"is too short for {self.frames.shape[0]} frames")
        if self.gt_moment is not None and self.gt_moment.end > self.extent.duration + END_SLACK:
            raise ValueError(f"{where}gt_moment extends past the video")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_answers(self) -> int:
        return self.answers.shape[0]


@dataclass(frozen=True)
class ModelConfig:
    d_v: int
    d_t: int
    width: int = 64
    temperature: float = 0.07

    def __post_init__(self) -> None:
        for dim in (self.d_v, self.d_t, self.width):
            operator.index(dim)  # TypeError unless an integer
        if min(self.d_v, self.d_t, self.width) < 1:
            raise ValueError("dimensions must be positive")
        if not 0 < self.temperature < math.inf:  # NaN too
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


# trainable array names in a fixed order (checkpoint layout, Adam slots)
PARAM_NAMES = (
    "W_v", "b_v",
    "W_q", "W_k", "W_val",
    "W_g", "w_mu", "a_mu", "b_mu", "w_sg", "a_sg", "b_sg",
    "W_t", "b_t",
    "W_a", "b_a",
    "u",
)


@dataclass
class ModelParams:
    """Named parameter arrays plus the fixed softmax temperature."""

    arrays: dict[str, np.ndarray]
    config: ModelConfig

    @property
    def temperature(self) -> float:
        return self.config.temperature

    def copy(self) -> "ModelParams":
        return ModelParams(
            arrays={k: v.copy() for k, v in self.arrays.items()}, config=self.config
        )


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Scaled-normal init; grounding-head projectors start near center/medium.

    w_mu and w_sg start at zero so the initial mask is driven purely by the
    positional moments of the (near-uniform) question attention: mu ~= 0.5
    and a moderate sigma, a stable starting point for mask learning.
    """
    rng = np.random.default_rng(seed)
    w, d_v, d_t = config.width, config.d_v, config.d_t

    def mat(n_in, n_out):
        return rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out))

    arrays = {
        "W_v": mat(d_v, w),
        "b_v": np.zeros(w),
        "W_q": mat(w, w),
        "W_k": mat(w, w),
        "W_val": mat(w, w),
        "W_g": mat(w, w),
        "w_mu": np.zeros(w),
        "a_mu": np.array(4.0),
        "b_mu": np.array(-2.0),
        "w_sg": np.zeros(w),
        "a_sg": np.array(0.0),
        "b_sg": np.array(-1.0),
        "W_t": mat(d_t, w),
        "b_t": np.zeros(w),
        "W_a": mat(d_t, w),
        "b_a": np.zeros(w),
        "u": rng.normal(0.0, 1.0 / math.sqrt(w), size=w),
    }
    return ModelParams(arrays=arrays, config=config)


def save_checkpoint(path: str | Path, params: ModelParams) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": {
            "d_v": params.config.d_v,
            "d_t": params.config.d_t,
            "width": params.config.width,
            "temperature": params.config.temperature,
        },
        "names": list(PARAM_NAMES),
    }
    np.savez_compressed(
        path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **params.arrays,
    )


def load_checkpoint(path: str | Path) -> ModelParams:
    """Parameters saved by save_checkpoint, checked against their config.

    A file that is not an .npz archive, or whose __meta__ is missing or
    malformed, raises ValueError naming the file. The arrays must be exactly
    PARAM_NAMES (ValueError otherwise), each a float array with the shape
    that init_params gives for the stored config (ShapeMismatch for another
    shape, ValueError for another dtype), and finite (ValueError).
    """
    try:
        blob = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"checkpoint {path}: not an .npz archive: "
                         f"{type(exc).__name__}: {exc}") from None
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path}: not an .npz archive but one {blob.dtype} array")
    with blob:
        try:
            meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
            if meta["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['version']!r}")
            config = ModelConfig(**meta["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint {path}: bad __meta__: "
                             f"{type(exc).__name__}: {exc}") from None
        stored = set(blob.files) - {"__meta__"}
        if stored != set(PARAM_NAMES):
            raise ValueError(
                f"checkpoint {path}: missing {sorted(set(PARAM_NAMES) - stored)}, "
                f"unknown {sorted(stored - set(PARAM_NAMES))}"
            )
        arrays = {name: blob[name] for name in PARAM_NAMES}
    for name, ref in init_params(config, 0).arrays.items():
        arr = arrays[name]
        if arr.dtype.kind != "f":
            raise ValueError(f"checkpoint {path}: {name} has dtype {arr.dtype}, not float")
        if arr.shape != ref.shape:
            raise ShapeMismatch(
                f"checkpoint {path}: {name} has shape {arr.shape}, config needs {ref.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"checkpoint {path}: {name} contains non-finite values")
    return ModelParams(arrays=arrays, config=config)


# --- the engine -----------------------------------------------------------------
#
# Every entry point runs one engine over packed episodes: frames (b, n, d_v)
# with a trailing ones column, questions (b, d_t), answers and candidate
# questions (b, A, d_t). _chunks buckets the caller's episodes by
# (n_frames, n_answers), in order of first appearance, and cuts each bucket
# into chunks of at most CHUNK_FRAMES frames (at least one episode). A chunk
# runs the stages _encode_frames (bilinear frame self-attention), _ground
# (grounding head -> mask parameters), _pool (mask-scaled attention and
# attention pooling) and _cosine_scores, all through _forward; _backward
# reverses them. A lone episode is a chunk of one.
#
# The attention logits Q K^T / sqrt(width) are scored in the frames' own
# d_v dimensions: with A = (W_v W_q)(W_v W_k)^T / sqrt(width) and
# r = (b_v W_q)(W_v W_k)^T / sqrt(width) they are (F A + r) F^T plus terms
# constant along each row, which cancel in the row softmax. So frames map to
# P = [F 1] [A; r] and the logits are P F^T; Q and K are never formed.
# _frame_map builds the map and keeps the last one under a key of its source
# arrays' bytes, so calls with unchanged weights (lone predicts) reuse it and
# a call after any edit rebuilds it.
#
# The mask scales post-softmax attention per key frame, and the grounding
# head and the pooling each read the attended values through one query
# vector (W_g qv and u), so past the softmax the (n, n) attention S is only
# ever multiplied by vectors: no (n, width) product S V is formed, forward or
# backward. The values Vm = [F 1] Mv, with Mv = [W_v; b_v] W_val the map's
# first width columns, are read only through vectors too, as [F 1] (Mv x) and
# Mv^T ([F 1]^T v), so no (n, width) array is formed at all: the ones column
# carries Mv's bias row inside each product. Mv's gradient is one product of
# the four (d_v + 1)-vectors [F 1]^T v with the four width-vectors x.
#
# S is never normalized either. The engine holds E = exp(P F^T) and its row
# sums s, so S = E / s, and each of the eight vector reads divides at the
# (b, n) level: S v = (E v) / s and S^T v = E^T (v / s). The backward's
# softmax Jacobian S * (dS - rowsum(dS * S)), with dS the rank-4 product of
# the reads' row and column vectors, is E times one rank-5 product: the rows
# divided by s, and minus the row term rowsum(dS * S), divided by s, as a
# fifth row against a column of ones. That row term needs no (n, n) pass, since rowsum(dS * S)
# sums each row vector times S applied to its column vector, the reads
# S v already made (their E v are kept before the division). So a training
# chunk makes 14 (n, n) passes: P F^T, exp, row sum and four reads forward;
# four reads, the rank-5 product, the product with E and dZ F backward.
# An episode with a row sum outside [EXP_SUM_MIN, EXP_SUM_MAX] (or not finite)
# gets the row-max shifted softmax instead, held as E = S with s = 1; the
# choice is made per episode, so a chunk-mate's arithmetic never depends on
# another episode.
#
# Every chunk-sized array lives in a _Workspace: buffers preallocated per
# chunk shape that the stages write with out= or in place, reused across the
# chunks of a call and kept across calls. Arrays of this size sit at the
# allocator's mmap and trim thresholds, so allocating them per chunk would
# page-fault them in again every time. Only the buffers differ from plain
# expressions, so a warm call gives the bits of a cold one. A chunk's arrays
# are valid until the next chunk of its shape is packed, and nothing an entry
# point returns is a view of them.

# frames per chunk: 32 episodes at 32 frames, 8 at 128. Smaller chunks pay
# more per-call overhead; larger ones hold more memory (the CHUNK_FRAMES
# sweeps in CHANGES.md). Another size also reorders the gradient sums.
CHUNK_FRAMES = 1024

# the range of exp-row sums kept unshifted: a row summing outside it (an
# overflowing or underflowing exp) sends its episode to the row-max shift
EXP_SUM_MIN, EXP_SUM_MAX = 1e-200, 1e200


class ZeroNorm(ValueError):
    """A cosine operand has zero norm, so its score is undefined."""


class _Workspace:
    """The chunk-sized buffers of one chunk shape (b episodes, n frames, A
    answers) of a model with the given dimensions. The attention E and the
    logit gradient dZ are its only (n, n) arrays."""

    def __init__(self, b: int, n: int, A: int, d_v: int, d_t: int, w: int) -> None:
        # packed inputs: the frames with their ones column, [F 1], where
        # packing writes only the view `frames` and so never the ones; the
        # questions and answers; the candidate questions, and the answer
        # and candidate projections
        self.F = np.empty((b, n, d_v + 1))
        self.F[..., d_v] = 1.0
        self.frames = self.F[..., :d_v]
        self.q = np.empty((b, d_t))
        self.answers = np.empty((b, A, d_t))
        self.Qc = np.empty((b, A, d_t))
        self.B = np.empty((b, A, w))
        self.R = np.empty((b, A, w))
        # forward cache: the attention queries P, the unnormalized
        # self-attention E = exp(P F^T) and its row sums s
        self.P = np.empty((b, n, d_v))
        self.E = np.empty((b, n, n))
        self.s = np.empty((b, n))
        # backward: the logit gradient dZ, the two rank-5 operands whose
        # product it scales, with the column operand's last row ones, and
        # the P gradient
        self.dZ = np.empty((b, n, n))
        self.dZ_rows = np.empty((b, n, 5))
        self.dZ_cols = np.empty((b, 5, n))
        self.dZ_cols[:, 4] = 1.0
        self.dP = np.empty((b, n, d_v))


@functools.lru_cache(maxsize=4)
def _workspace(thread: int, b: int, n: int, A: int, d_v: int, d_t: int, w: int) -> _Workspace:
    """The calling thread's workspace for a chunk shape. Keyed by thread too,
    so concurrent calls never share buffers. Four shapes cover a training run:
    full and tail chunks of the minibatches and of validation, and lone
    episodes (at 32 frames: 32-episode chunks, the 4 left of a 36-episode
    minibatch, the 12 left of 300 validation episodes, and 1). A miss
    allocates the chunk's arrays afresh."""
    return _Workspace(b, n, A, d_v, d_t, w)


@dataclass
class _Chunk:
    """Packed episodes of one (n_frames, n_answers) bucket."""

    index: list[int]          # positions in the caller's sequence
    episodes: list[Episode]
    F: np.ndarray             # (b, n, d_v + 1), the last column ones
    q: np.ndarray             # (b, d_t)
    answers: np.ndarray       # (b, A, d_t)
    ws: _Workspace

    def where(self, j: int) -> str:
        return _where(self.episodes[j], self.index[j])


def _where(episode: Episode, i: int) -> str:
    return f"episode {episode.question_id!r} (position {i} of the batch)"


def _chunks(params: ModelParams, episodes: Sequence[Episode]) -> Iterator[_Chunk]:
    """The episodes' chunks, each packed only when it is reached, into its
    shape's workspace."""
    c = params.config
    d_v, d_t = c.d_v, c.d_t
    for ep in episodes:
        if ep.frames.shape[1] != d_v or ep.question.shape[0] != d_t:
            raise ShapeMismatch(
                f"episode {ep.question_id!r} has frames dim {ep.frames.shape[1]} and "
                f"question dim {ep.question.shape[0]}, the model needs {d_v} and {d_t}"
            )
    thread = threading.get_ident()
    if len(episodes) == 1:
        # a lone episode's frames are copied next to the ones column; its
        # question and answers are packed as views
        ep = episodes[0]
        ws = _workspace(thread, 1, ep.n_frames, ep.n_answers, d_v, d_t, c.width)
        ws.frames[0] = ep.frames
        yield _Chunk([0], [ep], ws.F, ep.question[None], ep.answers[None], ws)
        return
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, ep in enumerate(episodes):
        buckets.setdefault((ep.n_frames, ep.n_answers), []).append(i)
    for (n, A), index in buckets.items():
        size = max(1, CHUNK_FRAMES // n)
        for lo in range(0, len(index), size):
            part = index[lo:lo + size]
            eps = [episodes[i] for i in part]
            ws = _workspace(thread, len(part), n, A, d_v, d_t, c.width)
            for j, ep in enumerate(eps):
                ws.frames[j] = ep.frames
                ws.q[j] = ep.question
                ws.answers[j] = ep.answers
            yield _Chunk(part, eps, ws.F, ws.q, ws.answers, ws)


# _frame_map's one memo entry, (key, M, Qm, Km), replaced whole on a miss
_map_memo: tuple | None = None


def _frame_map(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (d_v + 1, width + d_v) frame map M = [Vb W_val | Qm Km^T / sqrt(width)]
    with Vb = [W_v; b_v], Qm = Vb W_q and Km = W_v W_k, that is [Mv | [A; r]]:
    it multiplies the frames with their ones column, [F 1], so its last row is
    the bias. Returns M and the products Qm and Km, all read-only.

    Per frame the forward costs (d_v + 1) d_v + n d_v multiply-adds for P and
    the logits, plus about d_v for each of the four value reads, instead of
    3 d_v width + n width for F [Q|K|V] and Q K^T, fewer while d_v < width:
    24 < 64 in the synthetic world, 5 < 8 in the tests. Wider features stay
    exact, only slower.

    The last map is kept under a key of the width and each source array's
    shape, dtype and bytes, so a call whose arrays hold the same bytes reuses
    it, and an edit in place or a replaced array misses and rebuilds."""
    global _map_memo
    P = params.arrays
    d_v, w = params.config.d_v, params.config.width
    key = [w]
    for name in ("W_v", "b_v", "W_q", "W_k", "W_val"):
        arr = P[name]
        key += (arr.shape, arr.dtype.str, arr.tobytes())
    key = tuple(key)
    memo = _map_memo
    if memo is not None and memo[0] == key:
        return memo[1:]
    Vb = np.concatenate((P["W_v"], P["b_v"][None]))
    M = np.empty((d_v + 1, w + d_v))
    np.matmul(Vb, P["W_val"], out=M[:, :w])
    Qm, Km = Vb @ P["W_q"], P["W_v"] @ P["W_k"]
    # scaling the small key block costs less than scaling the strided [A; r]
    np.matmul(Qm, Km.T * (1.0 / math.sqrt(w)), out=M[:, w:])
    for arr in (M, Qm, Km):
        arr.flags.writeable = False
    _map_memo = (key, M, Qm, Km)
    return M, Qm, Km


def _frame_map_grads(params: ModelParams, Qm: np.ndarray, Km: np.ndarray,
                     d_map: np.ndarray) -> dict[str, np.ndarray]:
    """The gradients of W_v, b_v, W_q, W_k and W_val from d_map, the gradient
    of _frame_map's M = [Vb W_val | Qm Km^T / sqrt(width)], given that call's
    Qm = Vb W_q and Km = W_v W_k. Km has no bias row: the key bias b_v W_k
    only shifts each row of the logits, which the softmax ignores, so it has
    no path."""
    P = params.arrays
    d_v, w = params.config.d_v, params.config.width
    W_v = P["W_v"]
    Vb = np.concatenate((W_v, P["b_v"][None]))
    dV = d_map[:, :w]
    dA = d_map[:, w:] * (1.0 / math.sqrt(w))
    dQm = dA @ Km
    dKm = dA.T @ Qm
    dVb = dV @ P["W_val"].T + dQm @ P["W_q"].T
    return {"W_v": dVb[:d_v] + dKm @ P["W_k"].T, "b_v": dVb[d_v],
            "W_q": Vb.T @ dQm, "W_k": W_v.T @ dKm, "W_val": Vb.T @ dV}


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in z's own buffer (callers pass a
    temporary, or the attention's slot of an episode the range guard sends
    here)."""
    # ufunc reductions skip ndarray.max's and .sum's Python wrappers: two
    # softmaxes run per lone-episode forward. fmax gives maximum's output for
    # every row (a NaN row comes out all NaN either way) and reduces faster
    z -= np.fmax.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


@functools.lru_cache(maxsize=64)
def _positions(n_frames: int) -> np.ndarray:
    """frame_positions(n_frames), computed once per frame count (read-only)."""
    x = frame_positions(n_frames)
    x.flags.writeable = False
    return x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # the tanh form neither overflows nor warns at any z
    return 0.5 * np.tanh(0.5 * z) + 0.5


def _encode_frames(params: ModelParams, F: np.ndarray, M: np.ndarray, ws: _Workspace) -> dict:
    """The frames' attention queries P = [F 1] [A; r] and the self-attention
    weights S = softmax(P F^T), equal to softmax(Q K^T / sqrt(width)), held
    as E = exp(P F^T) and its row sums s, S = E / s, from the packed frames
    F = [F 1] and _frame_map's M. An episode with a row sum outside
    [EXP_SUM_MIN, EXP_SUM_MAX] is held as E = softmax(P F^T), shifted by
    its row maxima before the exp, and s = 1. The values Vm = [F 1] Mv are
    left to the stages, which read them through Mv = M[:, :width]."""
    b, n, d1 = F.shape
    w = params.config.width
    P, E, s = ws.P, ws.E, ws.s
    frames_t = ws.frames.transpose(0, 2, 1)
    np.matmul(F.reshape(b * n, d1), M[:, w:], out=P.reshape(b * n, d1 - 1))
    np.matmul(P, frames_t, out=E)
    with np.errstate(over="ignore"):  # an overflow is caught by its row sum
        np.exp(E, out=E)
    np.add.reduce(E, axis=-1, out=s)
    # min and max propagate NaN, which fails both tests
    if not (EXP_SUM_MIN <= np.minimum.reduce(s, axis=None)
            and np.maximum.reduce(s, axis=None) <= EXP_SUM_MAX):
        in_range = (s >= EXP_SUM_MIN) & (s <= EXP_SUM_MAX)
        for j in np.flatnonzero(~in_range.all(axis=1)):
            # the row-max shifted softmax is S itself: E = S with s = 1
            _softmax(np.matmul(P[j], frames_t[j], out=E[j]))
            s[j] = 1.0
    return {"F": F, "Mv": M[:, :w], "E": E, "s": s}


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v per batch row: (b, n, m) and (b, m) -> (b, n)."""
    return (M @ v[:, :, None])[..., 0]


def _vm(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """M^T v per batch row: (b, n) and (b, n, m) -> (b, m)."""
    return (v[:, None, :] @ M)[:, 0]


def _ground(params: ModelParams, enc: dict, q: np.ndarray) -> dict:
    """Grounding head: question-conditioned attention over the unmasked tokens
    H0 = S Vm, read out through squashed projections into mu in [0, 1] and
    sigma in [SIGMA_MIN, 1].

    H0 and Vm are read only through vectors: the logits H0 (W_g qv) are
    S ([F 1] (Mv g)) and the readout H0^T alpha is Mv^T ([F 1]^T (S^T alpha)),
    with S = E / s."""
    P = params.arrays
    E, s, F, Mv = enc["E"], enc["s"], enc["F"], enc["Mv"]
    n = E.shape[1]
    qv = q @ P["W_t"] + P["b_t"]
    g = qv @ P["W_g"].T
    Vg = _mv(F, g @ Mv.T)
    EVg = _mv(E, Vg)  # the backward's row term reads it too
    alpha = _softmax(EVg / s)
    za = _vm(_vm(alpha / s, E), F)
    c = za @ Mv
    x = _positions(n)
    m1 = alpha @ x
    dx = x - m1[:, None]
    dx2 = dx**2  # the backward pass reads it too
    m2 = (alpha * dx2).sum(axis=1)
    mu = _sigmoid(c @ P["w_mu"] + P["a_mu"] * m1 + P["b_mu"])
    sg_inner = _sigmoid(c @ P["w_sg"] + P["a_sg"] * m2 + P["b_sg"])
    sigma = SIGMA_MIN + (1.0 - SIGMA_MIN) * sg_inner
    return {"qv": qv, "g": g, "Vg": Vg, "EVg": EVg, "alpha": alpha, "za": za, "c": c, "x": x,
            "dx": dx, "dx2": dx2, "m1": m1, "m2": m2, "mu": mu, "sg_inner": sg_inner, "sigma": sigma}


def _pool(params: ModelParams, enc: dict, G: np.ndarray) -> dict:
    """Attention with post-softmax per-key weights G (rows are not
    re-normalized), H1 = (S * G) Vm, pooled by a learned query u. The
    pooling softmax `trace` sums to 1 and serves as the post-hoc
    localization signal.

    H1 and Vm are read only through vectors: the pooling logits H1 u are
    S (G * [F 1] (Mv u)) and the pooled vector H1^T trace is
    Mv^T ([F 1]^T (G * S^T trace)), with S = E / s."""
    E, s, F, Mv = enc["E"], enc["s"], enc["F"], enc["Mv"]
    Vu = F @ (Mv @ params.arrays["u"])
    GVu = G * Vu
    EGVu = _mv(E, GVu)  # the backward's row term reads it too
    trace = _softmax(EGVu / s)
    St = _vm(trace / s, E)
    zt = _vm(G * St, F)
    return {"G": G, "Vu": Vu, "GVu": GVu, "EGVu": EGVu, "trace": trace, "St": St, "zt": zt,
            "v_t": zt @ Mv}


def _cosine_scores(rows: np.ndarray, vec: np.ndarray, temperature: float,
                   chunk: _Chunk, rows_name: str, vec_name: str) -> dict:
    """score_jk = cos(rows_jk, vec_j) / T, with the norms the backward pass
    needs. A zero-norm operand raises ZeroNorm naming it and its episode."""
    row_norms = np.sqrt((rows * rows).sum(axis=-1))
    vec_norm = np.sqrt((vec[:, None, :] @ vec[:, :, None])[:, 0, 0])
    denom = row_norms * vec_norm[:, None]
    if np.count_nonzero(denom) < denom.size:
        j, k = np.argwhere(denom == 0)[0]
        what = f"{vec_name}" if vec_norm[j] == 0 else f"{rows_name} {k}"
        raise ZeroNorm(f"zero-norm {what} in {chunk.where(int(j))}")
    cos = (rows @ vec[:, :, None])[..., 0] / denom
    return {"row_norms": row_norms, "vec_norm": vec_norm, "cos": cos,
            "scores": cos / temperature}


def _forward(params: ModelParams, chunk: _Chunk, M: np.ndarray,
             G: np.ndarray | None = None) -> dict:
    """Full forward pass of a chunk; returns every intermediate of backprop.

    The pooling runs under the frame weights G, (b, n), when the caller gives
    them, and under the head's Gaussian weights otherwise; the head runs
    either way. A NaN head output (non-finite parameters) gives NaN frame
    weights, so the failure reaches the loss, where the trainer reports it,
    instead of raising in GaussianMask.
    """
    P = params.arrays
    cache = _encode_frames(params, chunk.F, M, chunk.ws)
    cache.update(_ground(params, cache, chunk.q))
    if G is None:
        G = gaussian_weights(cache["x"], cache["mu"][:, None], cache["sigma"][:, None])
    cache.update(_pool(params, cache, G))
    f = cache["v_t"] + cache["qv"]
    b, A, d_t = chunk.answers.shape
    B = chunk.ws.B
    np.matmul(chunk.answers.reshape(b * A, d_t), P["W_a"], out=B.reshape(b * A, -1))
    B += P["b_a"]
    cache.update(f=f, B=B, answer=_cosine_scores(B, f, params.temperature, chunk,
                                                 "answer row", "fused vector"))
    return cache


def _ce_from_scores(scores: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy and its gradient wrt the scores."""
    p = _softmax(scores.copy())
    rows = np.arange(len(target))
    # clip only inside the log; the gradient stays exact
    loss = -np.log(np.maximum(p[rows, target], 1e-300))
    p[rows, target] -= 1.0
    return loss, p


def _candidates(
    d_t: int,
    episodes: Sequence[Episode],
    pos_question: Sequence[np.ndarray | None] | None,
    neg_questions: Sequence[Sequence[np.ndarray] | None] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, start): every episode's candidate questions as rows of one
    matrix. Episode i's positive (its own question or the given variant) and
    its A_i - 1 negatives (its own or the given ones) are rows
    start[i]:start[i] + A_i. Raises ShapeMismatch for a wrong dimension and
    NegativeCountMismatch for a wrong count, naming the episode."""
    A = np.array([ep.n_answers for ep in episodes])
    start = np.cumsum(A) - A
    rows = []
    for i, (ep, a) in enumerate(zip(episodes, A.tolist())):
        pos = ep.question if pos_question is None or pos_question[i] is None else pos_question[i]
        pos = np.asarray(pos, dtype=float)
        if pos.shape != (d_t,):
            raise ShapeMismatch(f"positive question of shape {pos.shape} for "
                                f"{_where(ep, i)}, need ({d_t},)")
        negs = ep.neg_questions if neg_questions is None or neg_questions[i] is None \
            else neg_questions[i]
        try:
            negs = np.asarray(negs, dtype=float)
        except (TypeError, ValueError):
            raise ShapeMismatch(f"ragged negative questions for {_where(ep, i)}") from None
        if negs.shape != (a - 1, d_t):
            if negs.ndim and negs.shape[0] != a - 1:
                raise NegativeCountMismatch(f"need {a - 1} negative questions, got "
                                            f"{negs.shape[0]} for {_where(ep, i)}")
            raise ShapeMismatch(f"negative questions of shape {negs.shape} for "
                                f"{_where(ep, i)}, need ({a - 1}, {d_t})")
        rows += [pos[None], negs]
    return np.concatenate(rows), start


def _candidate_questions(chunk: _Chunk, rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """(b, A, d_t): per episode, its positive then its A - 1 negatives,
    taken from _candidates' rows into the chunk's workspace by one take."""
    Qc = chunk.ws.Qc
    b, A, d_t = Qc.shape
    index = (start[chunk.index][:, None] + np.arange(A)).ravel()
    # every index is in range; "clip" lets take write into out unbuffered
    np.take(rows, index, axis=0, out=Qc.reshape(b * A, d_t), mode="clip")
    return Qc


def _softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Jacobian-vector product for y = softmax(z) over the last axis: dz from dy."""
    return y * (dy - (dy * y).sum(axis=-1, keepdims=True))


def _cosine_backward(
    dscore: np.ndarray, rows: np.ndarray, vec: np.ndarray, fwd: dict, temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through fwd = _cosine_scores(rows, vec): returns (dvec, drows)."""
    vec_norm, row_norms, cos = fwd["vec_norm"], fwd["row_norms"], fwd["cos"]
    u_vec = vec / vec_norm[:, None]
    u_rows = rows / row_norms[..., None]
    coef = dscore / temperature
    dvec = ((coef[:, None, :] @ u_rows)[:, 0]
            - (coef * cos).sum(axis=1)[:, None] * u_vec) / vec_norm[:, None]
    # coef (u_vec - cos u_rows) / row_norms, written into u_rows: (b, A, width)
    # temporaries at large chunks would grow and trim the heap on every call
    drows = np.multiply(cos[..., None], u_rows, out=u_rows)
    np.subtract(u_vec[:, None, :], drows, out=drows)
    drows *= coef[..., None]
    drows /= row_norms[..., None]
    return dvec, drows


def _backward(params: ModelParams, chunk: _Chunk, cache: dict, d_vt: np.ndarray,
              d_qv: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Adds the chunk's gradients below the pooled vector v_t and the projected
    question qv into grads; grads["frame_map"] collects those of the frame
    map M (_frame_map).

    The forward reads S = E / s and Vm = [F 1] Mv only through vectors
    (H0 = S Vm, H1 = (S * G) Vm and Vm itself are never formed), so the
    logit gradient is E times one product over a length-5 axis, and Mv's
    gradient one product of the four (d_v + 1)-vectors z = [F 1]^T v that
    the reads Vm^T v formed with the four width-vectors x they met."""
    P = params.arrays
    ws = chunk.ws
    E, s, G, F, Mv = cache["E"], cache["s"], cache["G"], chunk.F, cache["Mv"]
    alpha, trace = cache["alpha"], cache["trace"]
    Vu, St = cache["Vu"], cache["St"]
    b, n, d1 = F.shape

    # pooling: v_t = Vm^T (G * S^T trace), trace = softmax(p), p = S (G * Vm u)
    Vd = _mv(F, d_vt @ Mv.T)
    GVd = G * Vd
    EGVd = _mv(E, GVd)
    dp = _softmax_backward(trace, EGVd / s)
    Sdp = _vm(dp / s, E)
    zp = _vm(G * Sdp, F)
    grads["u"] += zp.sum(axis=0) @ Mv
    dG = St * Vd + Sdp * Vu

    # Gaussian weights -> (mu, sigma) -> (z_mu, z_sg)
    mu, sg_inner = cache["mu"], cache["sg_inner"]
    d_mu, d_sigma = gaussian_gradients(cache["x"], mu[:, None], cache["sigma"][:, None], G, dG)
    dz_mu = d_mu * mu * (1.0 - mu)
    dz_sg = d_sigma * (1.0 - SIGMA_MIN) * sg_inner * (1.0 - sg_inner)

    # z_mu = w_mu.c + a_mu m1 + b_mu ; z_sg = w_sg.c + a_sg m2 + b_sg
    c, m1, m2 = cache["c"], cache["m1"], cache["m2"]
    grads["w_mu"] += dz_mu @ c
    grads["a_mu"] += dz_mu @ m1
    grads["b_mu"] += dz_mu.sum()
    grads["w_sg"] += dz_sg @ c
    grads["a_sg"] += dz_sg @ m2
    grads["b_sg"] += dz_sg.sum()
    dc = dz_mu[:, None] * P["w_mu"] + dz_sg[:, None] * P["w_sg"]
    dm1 = dz_mu * P["a_mu"]
    dm2 = dz_sg * P["a_sg"]

    # m2 = sum alpha (x - m1)^2 ; m1 = alpha . x
    d_alpha = dm2[:, None] * cache["dx2"]
    dm1 = dm1 + dm2 * (-2.0 * (alpha * cache["dx"]).sum(axis=1))  # analytically 0; kept exact
    d_alpha += dm1[:, None] * cache["x"]

    # c = Vm^T (S^T alpha); alpha = softmax(e), e = S (Vm g), g = W_g qv
    Vdc = _mv(F, dc @ Mv.T)
    EVdc = _mv(E, Vdc)
    d_alpha += EVdc / s
    de = _softmax_backward(alpha, d_alpha)
    ze = _vm(_vm(de / s, E), F)
    dg = ze @ Mv
    grads["W_g"] += dg.T @ cache["qv"]
    d_qv += dg @ P["W_g"]

    # dVm = G S^T trace (x) d_vt + G S^T dp (x) u + S^T alpha (x) dc + S^T de (x) g,
    # so dMv = [F 1]^T dVm sums z (x) x over the batch rows of the four pairs
    d_map = grads["frame_map"]
    w = Mv.shape[1]
    d_map[:, :w] += (np.concatenate((cache["zt"], zp, cache["za"], ze)).T
                     @ np.concatenate((d_vt, np.broadcast_to(P["u"], d_vt.shape), dc,
                                       cache["g"])))

    # S = softmax(P F^T, rows), so dZ = S * (dS - rho) with
    # dS = trace (x) G Vm d_vt + dp (x) G Vm u + alpha (x) Vm dc + de (x) Vm g
    # and rho = rowsum(dS * S), which pairs each row vector with the read of
    # S on its column vector: rho = (trace * E GVd + dp * E GVu + alpha * E Vdc
    # + de * E Vg) / s. Then dZ = E * ([rows, -rho] / s @ [cols; 1]).
    rows, cols = ws.dZ_rows, ws.dZ_cols
    rows[..., 0], rows[..., 1], rows[..., 2], rows[..., 3] = trace, dp, alpha, de
    rho = trace * EGVd
    rho += dp * cache["EGVu"]
    rho += alpha * EVdc
    rho += de * cache["EVg"]
    rho /= s
    np.negative(rho, out=rows[..., 4])
    rows /= s[..., None]
    cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3] = GVd, cache["GVu"], Vdc, cache["Vg"]
    dZ = np.matmul(rows, cols, out=ws.dZ)
    dZ *= E
    # F is data, so only dP = dZ F
    dP = np.matmul(dZ, ws.frames, out=ws.dP)

    # P = [F 1] M[:, width:]
    d_map[:, w:] += F.reshape(b * n, d1).T @ dP.reshape(b * n, d1 - 1)

    # qv = question W_t + b_t (d_qv accumulated from fusion + grounding head)
    grads["W_t"] += chunk.q.T @ d_qv
    grads["b_t"] += d_qv.sum(axis=0)


def _chunk_objective(
    params: ModelParams,
    chunk: _Chunk,
    M: np.ndarray,
    answer_term: bool,
    scale: float,
    candidates: tuple[np.ndarray, np.ndarray] | None,
    grads: dict[str, np.ndarray] | None,
) -> float | None:
    """The chunk's summed loss: the answer term if answer_term, plus scale
    times the grounding term over _candidates' rows. Adds the gradients into
    grads unless it is None. Returns None for a non-finite head output."""
    P = params.arrays
    T = params.temperature
    cache = _forward(params, chunk, M)
    if not math.isfinite(cache["mu"].sum() + cache["sigma"].sum()):
        return None
    b, A, d_t = chunk.answers.shape
    w = params.config.width
    loss = 0.0
    if answer_term:
        correct = np.array([ep.correct for ep in chunk.episodes])
        loss_a, dscore = _ce_from_scores(cache["answer"]["scores"], correct)
        loss = loss_a
    if scale != 0.0:
        Qc = _candidate_questions(chunk, *candidates)
        R = chunk.ws.R
        np.matmul(Qc.reshape(b * A, d_t), P["W_t"], out=R.reshape(b * A, w))
        R += P["b_t"]
        g = _cosine_scores(R, cache["v_t"], T, chunk, "candidate question", "pooled vector")
        loss_g, dgscore = _ce_from_scores(g["scores"], np.zeros(b, dtype=int))
        loss = loss + scale * loss_g
    if grads is None:
        return float(np.sum(loss))

    d_vt = np.zeros((b, w))
    d_qv = np.zeros((b, w))
    if answer_term:
        df, dB = _cosine_backward(dscore, cache["B"], cache["f"], cache["answer"], T)
        grads["W_a"] += chunk.answers.reshape(b * A, d_t).T @ dB.reshape(b * A, w)
        grads["b_a"] += dB.sum(axis=(0, 1))
        d_vt += df
        d_qv += df
    if scale != 0.0:
        dv, dR = _cosine_backward(dgscore * scale, R, cache["v_t"], g, T)
        d_vt += dv
        grads["W_t"] += Qc.reshape(b * A, d_t).T @ dR.reshape(b * A, w)
        grads["b_t"] += dR.sum(axis=(0, 1))
    _backward(params, chunk, cache, d_vt, d_qv, grads)
    return float(np.sum(loss))


def _objective(
    params: ModelParams,
    episodes: Sequence[Episode],
    objective: str,
    alpha: float,
    pos_question: Sequence[np.ndarray | None] | None,
    neg_questions: Sequence[Sequence[np.ndarray] | None] | None,
    backward: bool,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Summed loss over the episodes and, when backward, summed gradients."""
    if objective not in ("ng", "ground", "ng+"):
        raise ValueError(f"unknown objective {objective!r}")
    P = params.arrays
    answer_term = objective in ("ng", "ng+")
    scale = {"ng": 0.0, "ground": 1.0, "ng+": alpha}[objective]
    candidates = None
    if scale != 0.0:
        candidates = _candidates(params.config.d_t, episodes, pos_question, neg_questions)
    M, Qm, Km = _frame_map(params)
    grads = None
    if backward:
        grads = {name: np.zeros_like(arr) for name, arr in P.items()}
        grads["frame_map"] = np.zeros_like(M)
    total = 0.0
    for chunk in _chunks(params, episodes):
        loss = _chunk_objective(params, chunk, M, answer_term, scale, candidates, grads)
        if loss is None:
            # NaN head output: the loss and every gradient are NaN
            return math.nan, ({name: np.full_like(arr, np.nan) for name, arr in P.items()}
                              if backward else None)
        total += loss
    if backward:
        grads.update(_frame_map_grads(params, Qm, Km, grads.pop("frame_map")))
    return total, grads


# --- public entry points: each is one engine call -------------------------------

def encode_video(
    params: ModelParams, episode: Episode, mask: GaussianMask | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled video vector and pooling attention trace under an optional mask."""
    (chunk,) = _chunks(params, [episode])
    n = episode.n_frames
    G = np.ones((1, n)) if mask is None else mask_weights(mask, n)[None]
    cache = _forward(params, chunk, _frame_map(params)[0], G)
    return cache["v_t"][0], cache["trace"][0]


def predict_gaussian(params: ModelParams, episode: Episode) -> GaussianMask:
    """The grounding head's mask for this episode (deterministic)."""
    return predict_episode(params, episode).mask


def fuse_windows(gauss_win: TemporalSegment, attn_win: TemporalSegment) -> TemporalSegment:
    """Overlap of the two windows; the attention window when disjoint."""
    lo = max(gauss_win.start, attn_win.start)
    hi = min(gauss_win.end, attn_win.end)
    if lo < hi:
        return TemporalSegment(lo, hi)
    return attn_win


def ng_loss(params: ModelParams, episode: Episode) -> float:
    """Answer cross-entropy under the predicted Gaussian mask."""
    return _objective(params, [episode], "ng", 0.0, None, None, backward=False)[0]


def grounding_loss(params: ModelParams, episode: Episode) -> float:
    """Cross-entropy classifying the episode's question against its own
    negatives, using the masked video vector."""
    return _objective(params, [episode], "ground", 1.0, None, None, backward=False)[0]


def ngplus_loss(params: ModelParams, episode: Episode, alpha: float = 1.0) -> float:
    """ng_loss + alpha * grounding_loss (alpha=0 collapses to ng_loss)."""
    return _objective(params, [episode], "ng+", alpha, None, None, backward=False)[0]


def loss_and_gradients(
    params: ModelParams,
    episodes: Episode | Sequence[Episode],
    objective: str = "ng",
    alpha: float = 1.0,
    pos_question: Sequence[np.ndarray | None] | None = None,
    neg_questions: Sequence[Sequence[np.ndarray] | None] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and full parameter gradients, summed over the episodes; a lone
    Episode is a batch of one.

    objective: "ng" (answer CE), "ground" (grounding CE only, the stage-1
    pretraining term), or "ng+" (answer CE + alpha * grounding CE).

    pos_question and neg_questions are per-episode sequences: each episode's
    positive question variant and its negatives, None for its own. None for
    the whole argument means every episode's own. Arrays are such sequences:
    a (B, d_t) positive array, a (B, A - 1, d_t) negative array.
    """
    episodes = [episodes] if isinstance(episodes, Episode) else list(episodes)
    n_pos = len(episodes) if pos_question is None else len(pos_question)
    n_neg = len(episodes) if neg_questions is None else len(neg_questions)
    if not n_pos == n_neg == len(episodes):
        raise ValueError(
            f"{len(episodes)} episodes, {n_pos} positive questions, {n_neg} negative lists"
        )
    return _objective(params, episodes, objective, alpha, pos_question, neg_questions,
                      backward=True)


# --- inference -------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodePrediction(Prediction):
    """A Prediction plus the model state behind it: the Gaussian mask, the
    pooling trace and the answer scores. It compares and hashes by the
    Prediction fields only."""

    mask: GaussianMask = field(compare=False)
    trace: np.ndarray = field(compare=False)
    scores: np.ndarray = field(compare=False)


def predict_episodes(
    params: ModelParams,
    episodes: Sequence[Episode],
    gamma: float = 1.0,
    window_source: str = "gauss",
) -> list[EpisodePrediction]:
    """Answer choice plus grounded window for each episode, in input order,
    keyed by the episode's question id.

    window_source names the one window that is built and returned:
      "gauss"  the mask's confidence interval (mu +- gamma*sigma) * duration;
      "attn"   post-hoc extraction from the pooling trace (gamma is not read);
      "fused"  the intersection of the two, or the attention window when
               they are disjoint.
    """
    if window_source not in ("gauss", "attn", "fused"):
        raise ValueError(f"unknown window_source {window_source!r}")
    M = _frame_map(params)[0]
    out: list[EpisodePrediction | None] = [None] * len(episodes)
    for chunk in _chunks(params, episodes):
        cache = _forward(params, chunk, M)
        scores_all = cache["answer"]["scores"]
        # one read per chunk: the per-episode tail works on Python scalars
        mus, sigmas = cache["mu"].tolist(), cache["sigma"].tolist()
        answers = scores_all.argmax(axis=1).tolist()
        traces = cache["trace"]
        for j, (i, ep) in enumerate(zip(chunk.index, chunk.episodes)):
            try:
                mask = GaussianMask(mus[j], sigmas[j])
            except ValueError as exc:  # a NaN head output
                raise ValueError(f"{exc} for {chunk.where(j)}") from None
            if window_source == "gauss":
                window = confidence_interval(mask, ep.extent, gamma)
            elif window_source == "attn":
                window = extract_window_raw(traces[j], ep.extent.duration)
            else:
                window = fuse_windows(confidence_interval(mask, ep.extent, gamma),
                                      extract_window_raw(traces[j], ep.extent.duration))
            out[i] = EpisodePrediction(question_id=ep.question_id, answer_index=answers[j],
                                       window=window, mask=mask, trace=traces[j].copy(),
                                       scores=scores_all[j].copy())
    return out


def predict_episode(
    params: ModelParams,
    episode: Episode,
    gamma: float = 1.0,
    window_source: str = "gauss",
) -> EpisodePrediction:
    """predict_episodes for one episode."""
    return predict_episodes(params, [episode], gamma, window_source)[0]
