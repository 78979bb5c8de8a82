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

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .gaussian import (
    SIGMA_MIN,
    FrameGrid,
    GaussianMask,
    ShapeMismatch,
    confidence_interval,
    frame_positions,
    mask_gradients,
    mask_weights,
)
from .posthoc import extract_window_raw
from .temporal import TemporalSegment, VideoExtent

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
        if self.frames.ndim != 2 or self.frames.shape[0] < 2:
            raise ShapeMismatch(f"frames must be (n>=2, d_v), got {self.frames.shape}")
        if self.question.ndim != 1:
            raise ShapeMismatch(f"question must be a vector, got {self.question.shape}")
        if self.answers.ndim != 2 or self.answers.shape[0] < 2:
            raise ShapeMismatch(f"answers must be (A>=2, d_t), got {self.answers.shape}")
        if self.answers.shape[1] != self.question.shape[0]:
            raise ShapeMismatch("answers and question disagree on text dim")
        if not 0 <= self.correct < self.answers.shape[0]:
            raise ValueError(f"correct index {self.correct} outside [0, {self.answers.shape[0]})")
        for v in list(self.neg_questions) + list(self.pos_variants):
            if np.asarray(v).shape != self.question.shape:
                raise ShapeMismatch("negative/variant question dim mismatch")
        if self.gt_moment is not None and self.gt_moment.end > self.extent.duration + 1e-9:
            raise ValueError("gt_moment extends past the video")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_answers(self) -> int:
        return self.answers.shape[0]

    @property
    def grid(self) -> FrameGrid:
        return FrameGrid(n_frames=self.n_frames, extent=self.extent)


@dataclass(frozen=True)
class ModelConfig:
    d_v: int
    d_t: int
    width: int = 64
    temperature: float = 0.07

    def __post_init__(self) -> None:
        if min(self.d_v, self.d_t, self.width) < 1:
            raise ValueError("dimensions must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


# trainable array names in a fixed order (checkpoint layout, Adam slots)
PARAM_NAMES = (
    "W_v", "b_v",
    "W_q", "W_k", "W_val",
    "W_g", "w_mu", "a_mu", "b_mu", "w_sg", "a_sg", "b_sg",
    "W_t", "b_t",
    "W_a", "b_a",
    "u",
)

# parameters that only the answer-scoring branch touches; the grounding
# term's gradient for these must be exactly zero
ANSWER_ONLY_PARAMS = ("W_a", "b_a")


@dataclass
class ModelParams:
    """Named parameter arrays plus the fixed softmax temperature."""

    arrays: dict[str, np.ndarray]
    config: ModelConfig

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @property
    def temperature(self) -> float:
        return self.config.temperature

    def trainable(self) -> dict[str, np.ndarray]:
        return self.arrays

    def copy(self) -> "ModelParams":
        return ModelParams(
            arrays={k: v.copy() for k, v in self.arrays.items()}, config=self.config
        )

    def validate(self) -> None:
        for name, arr in self.arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {name} contains non-finite values")


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

    The arrays must be exactly PARAM_NAMES (ValueError otherwise), each with
    the shape that init_params gives for the stored config (ShapeMismatch
    otherwise), and finite.
    """
    with np.load(path) as blob:
        meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        config = ModelConfig(**meta["config"])
        stored = set(blob.files) - {"__meta__"}
        if stored != set(PARAM_NAMES):
            raise ValueError(
                f"checkpoint {path}: missing {sorted(set(PARAM_NAMES) - stored)}, "
                f"unknown {sorted(stored - set(PARAM_NAMES))}"
            )
        arrays = {name: np.array(blob[name]) for name in PARAM_NAMES}
    for name, ref in init_params(config, 0).arrays.items():
        if arrays[name].shape != ref.shape:
            raise ShapeMismatch(
                f"checkpoint {path}: {name} has shape {arrays[name].shape}, "
                f"config needs {ref.shape}"
            )
    params = ModelParams(arrays=arrays, config=config)
    params.validate()
    return params


# --- forward ------------------------------------------------------------------
#
# One encoder, in stages: _encode_frames (projection and frame self-attention),
# _ground (grounding head -> mask parameters), _pool (mask-scaled attention and
# attention pooling) and _cosine_scores. _forward composes all of them for the
# losses, backprop and prediction; encode_video and predict_gaussian are the
# partial compositions.

def _softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _encode_frames(params: ModelParams, episode: Episode) -> dict:
    """Projected frames X, their query/key/value maps and the row-softmax
    self-attention weights S."""
    P = params.arrays
    F = episode.frames
    if F.shape[1] != params.config.d_v:
        raise ShapeMismatch(f"frames dim {F.shape[1]} != d_v {params.config.d_v}")
    X = F @ P["W_v"] + P["b_v"]
    Qm = X @ P["W_q"]
    Km = X @ P["W_k"]
    Vm = X @ P["W_val"]
    S = _softmax(Qm @ Km.T / math.sqrt(params.config.width), axis=1)
    return {"X": X, "Qm": Qm, "Km": Km, "Vm": Vm, "S": S}


def _ground(params: ModelParams, enc: dict, episode: Episode) -> dict:
    """Grounding head: question-conditioned attention over the unmasked tokens,
    read out through squashed projections into mu in [0, 1] and
    sigma in [SIGMA_MIN, 1]."""
    P = params.arrays
    if episode.question.shape[0] != params.config.d_t:
        raise ShapeMismatch(f"question dim {episode.question.shape[0]} != d_t {params.config.d_t}")
    H0 = enc["S"] @ enc["Vm"]
    qv = episode.question @ P["W_t"] + P["b_t"]
    Kg = H0 @ P["W_g"]
    alpha = _softmax(Kg @ qv)
    c = alpha @ H0
    x = frame_positions(episode.n_frames)
    m1 = float(alpha @ x)
    m2 = float(alpha @ (x - m1) ** 2)
    mu = _sigmoid(float(P["w_mu"] @ c + P["a_mu"] * m1 + P["b_mu"]))
    sg_inner = _sigmoid(float(P["w_sg"] @ c + P["a_sg"] * m2 + P["b_sg"]))
    sigma = SIGMA_MIN + (1.0 - SIGMA_MIN) * sg_inner
    return {"H0": H0, "qv": qv, "Kg": Kg, "alpha": alpha, "c": c, "x": x,
            "m1": m1, "m2": m2, "mu": mu, "sg_inner": sg_inner, "sigma": sigma}


def _pool(params: ModelParams, enc: dict, G: np.ndarray) -> dict:
    """Attention with post-softmax per-key weights G (rows are not
    re-normalized), pooled by a learned query. The pooling softmax `trace`
    sums to 1 and serves as the post-hoc localization signal."""
    M = enc["S"] * G[None, :]
    H1 = M @ enc["Vm"]
    trace = _softmax(H1 @ params.arrays["u"])
    return {"G": G, "M": M, "H1": H1, "trace": trace, "v_t": trace @ H1}


def _cosine_scores(rows: np.ndarray, vec: np.ndarray, temperature: float) -> dict:
    """score_j = cos(rows_j, vec) / T, with the norms the backward pass needs."""
    row_norms = np.linalg.norm(rows, axis=1)
    vec_norm = float(np.linalg.norm(vec))
    cos = (rows @ vec) / (row_norms * vec_norm)
    return {"row_norms": row_norms, "vec_norm": vec_norm, "cos": cos,
            "scores": cos / temperature}


def _forward(params: ModelParams, episode: Episode) -> dict:
    """Full forward pass; returns every intermediate needed for backprop.

    "mask" is None when the head's output is NaN (non-finite parameters):
    the frame weights are then NaN too, so the failure reaches the loss,
    where the trainer reports it, instead of raising in GaussianMask.
    """
    P = params.arrays
    enc = _encode_frames(params, episode)
    head = _ground(params, enc, episode)
    mask = None
    if math.isfinite(head["mu"]) and math.isfinite(head["sigma"]):
        mask = GaussianMask(head["mu"], head["sigma"])
        G = mask_weights(mask, episode.grid)
    else:
        G = np.full(episode.n_frames, np.nan)
    pool = _pool(params, enc, G)
    f = pool["v_t"] + head["qv"]
    B = episode.answers @ P["W_a"] + P["b_a"]
    return {**enc, **head, **pool, "mask": mask, "f": f, "B": B,
            "answer": _cosine_scores(B, f, params.temperature)}


def encode_video(
    params: ModelParams, episode: Episode, mask: GaussianMask | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled video vector and pooling attention trace under an optional mask."""
    G = np.ones(episode.n_frames) if mask is None else mask_weights(mask, episode.grid)
    pool = _pool(params, _encode_frames(params, episode), G)
    return pool["v_t"], pool["trace"]


def predict_gaussian(params: ModelParams, episode: Episode) -> GaussianMask:
    """The grounding head's mask for this episode (deterministic)."""
    head = _ground(params, _encode_frames(params, episode), episode)
    return GaussianMask(head["mu"], head["sigma"])


def fuse_windows(gauss_win: TemporalSegment, attn_win: TemporalSegment) -> TemporalSegment:
    """Overlap of the two windows; the attention window when disjoint."""
    lo = max(gauss_win.start, attn_win.start)
    hi = min(gauss_win.end, attn_win.end)
    if lo < hi:
        return TemporalSegment(lo, hi)
    return attn_win


# --- losses ---------------------------------------------------------------------

def _ce_from_scores(scores: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Cross-entropy and its gradient wrt the scores."""
    p = _softmax(scores)
    # clip only inside the log; the gradient stays exact
    loss = -math.log(max(float(p[target]), 1e-300))
    grad = p.copy()
    grad[target] -= 1.0
    return loss, grad


def _candidate_questions(
    episode: Episode,
    pos_question: np.ndarray | None,
    neg_questions: Sequence[np.ndarray] | None,
) -> np.ndarray:
    negs = list(neg_questions) if neg_questions is not None else list(episode.neg_questions)
    if len(negs) != episode.n_answers - 1:
        raise NegativeCountMismatch(
            f"need {episode.n_answers - 1} negative questions, got {len(negs)}"
        )
    pos = episode.question if pos_question is None else np.asarray(pos_question, dtype=float)
    if pos.shape != episode.question.shape:
        raise ShapeMismatch("positive question dim mismatch")
    return np.stack([pos] + [np.asarray(v, dtype=float) for v in negs])


def _grounding_scores(
    params: ModelParams, v_t: np.ndarray, Q_cand: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Projected candidate questions R and their cosine scores against v_t."""
    R = Q_cand @ params.arrays["W_t"] + params.arrays["b_t"]
    return R, _cosine_scores(R, v_t, params.temperature)


def ng_loss(params: ModelParams, episode: Episode) -> float:
    """Answer cross-entropy under the predicted Gaussian mask."""
    cache = _forward(params, episode)
    loss, _ = _ce_from_scores(cache["answer"]["scores"], episode.correct)
    return loss


def grounding_loss(
    params: ModelParams,
    episode: Episode,
    pos_question: np.ndarray | None = None,
    neg_questions: Sequence[np.ndarray] | None = None,
) -> float:
    """Question-classification cross-entropy against the masked video vector."""
    cache = _forward(params, episode)
    Q_cand = _candidate_questions(episode, pos_question, neg_questions)
    _, g = _grounding_scores(params, cache["v_t"], Q_cand)
    loss, _ = _ce_from_scores(g["scores"], 0)
    return loss


def ngplus_loss(
    params: ModelParams,
    episode: Episode,
    alpha: float = 1.0,
    pos_question: np.ndarray | None = None,
    neg_questions: Sequence[np.ndarray] | None = None,
) -> float:
    """ng_loss + alpha * grounding_loss (alpha=0 collapses to ng_loss)."""
    cache = _forward(params, episode)
    loss, _ = _ce_from_scores(cache["answer"]["scores"], episode.correct)
    if alpha != 0.0:
        Q_cand = _candidate_questions(episode, pos_question, neg_questions)
        _, g = _grounding_scores(params, cache["v_t"], Q_cand)
        g_loss, _ = _ce_from_scores(g["scores"], 0)
        loss += alpha * g_loss
    return loss


# --- backward -------------------------------------------------------------------

def _softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Jacobian-vector product for y = softmax(z): dz from dy."""
    if y.ndim == 1:
        return y * (dy - float(dy @ y))
    dot = (dy * y).sum(axis=1, keepdims=True)
    return y * (dy - dot)


def _cosine_backward(
    dscore: np.ndarray, rows: np.ndarray, vec: np.ndarray, fwd: dict, temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through fwd = _cosine_scores(rows, vec): returns (dvec, drows)."""
    vec_norm, row_norms, cos = fwd["vec_norm"], fwd["row_norms"], fwd["cos"]
    u_vec = vec / vec_norm
    u_rows = rows / row_norms[:, None]
    coef = dscore / temperature
    dvec = (coef[:, None] * (u_rows - cos[:, None] * u_vec[None, :])).sum(axis=0) / vec_norm
    drows = coef[:, None] * (u_vec[None, :] - cos[:, None] * u_rows) / row_norms[:, None]
    return dvec, drows


def loss_and_gradients(
    params: ModelParams,
    episode: Episode,
    objective: str = "ng",
    alpha: float = 1.0,
    pos_question: np.ndarray | None = None,
    neg_questions: Sequence[np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and full parameter gradients for one episode.

    objective: "ng" (answer CE), "ground" (grounding CE only, the stage-1
    pretraining term), or "ng+" (answer CE + alpha * grounding CE).
    """
    if objective not in ("ng", "ground", "ng+"):
        raise ValueError(f"unknown objective {objective!r}")
    P = params.arrays
    cache = _forward(params, episode)
    if cache["mask"] is None:
        # NaN head output: the loss and every gradient are NaN
        return math.nan, {name: np.full_like(arr, np.nan) for name, arr in P.items()}
    w = params.config.width
    x = cache["x"]
    S, G, Vm = cache["S"], cache["G"], cache["Vm"]
    H0, H1, M = cache["H0"], cache["H1"], cache["M"]
    alpha_att = cache["alpha"]
    trace = cache["trace"]

    grads = {name: np.zeros_like(arr) for name, arr in P.items()}
    d_vt = np.zeros(w)
    d_qv = np.zeros(w)
    total = 0.0

    # answer term
    if objective in ("ng", "ng+"):
        loss_a, dscore = _ce_from_scores(cache["answer"]["scores"], episode.correct)
        total += loss_a
        df, dB = _cosine_backward(
            dscore, cache["B"], cache["f"], cache["answer"], params.temperature
        )
        grads["W_a"] += episode.answers.T @ dB
        grads["b_a"] += dB.sum(axis=0)
        d_vt += df
        d_qv += df

    # grounding term
    if objective in ("ground", "ng+"):
        scale = 1.0 if objective == "ground" else alpha
        if scale != 0.0:
            Q_cand = _candidate_questions(episode, pos_question, neg_questions)
            R, g = _grounding_scores(params, cache["v_t"], Q_cand)
            loss_g, dgscore = _ce_from_scores(g["scores"], 0)
            total += scale * loss_g
            dgscore = dgscore * scale
            dv, dR = _cosine_backward(dgscore, R, cache["v_t"], g, params.temperature)
            d_vt += dv
            grads["W_t"] += Q_cand.T @ dR
            grads["b_t"] += dR.sum(axis=0)

    # pooling: v_t = trace @ H1, trace = softmax(H1 @ u)
    d_trace = H1 @ d_vt
    dH1 = np.outer(trace, d_vt)
    dp = _softmax_backward(trace, d_trace)
    dH1 += np.outer(dp, P["u"])
    grads["u"] += H1.T @ dp

    # H1 = (S * G) @ Vm
    dM = dH1 @ Vm.T
    dVm = M.T @ dH1
    dS = dM * G[None, :]
    dG = (dM * S).sum(axis=0)

    # Gaussian weights -> (mu, sigma) -> (z_mu, z_sg)
    d_mu, d_sigma = mask_gradients(cache["mask"], G, dG)
    mu = cache["mu"]
    dz_mu = d_mu * mu * (1.0 - mu)
    dz_sg = d_sigma * (1.0 - SIGMA_MIN) * cache["sg_inner"] * (1.0 - cache["sg_inner"])

    # z_mu = w_mu.c + a_mu m1 + b_mu ; z_sg = w_sg.c + a_sg m2 + b_sg
    c = cache["c"]
    m1, m2 = cache["m1"], cache["m2"]
    grads["w_mu"] += dz_mu * c
    grads["a_mu"] += dz_mu * m1
    grads["b_mu"] += dz_mu
    grads["w_sg"] += dz_sg * c
    grads["a_sg"] += dz_sg * m2
    grads["b_sg"] += dz_sg
    dc = dz_mu * P["w_mu"] + dz_sg * P["w_sg"]
    dm1 = dz_mu * float(P["a_mu"])
    dm2 = dz_sg * float(P["a_sg"])

    # m2 = sum alpha (x - m1)^2 ; m1 = alpha . x
    d_alpha = dm2 * (x - m1) ** 2
    dm1 += dm2 * float(-2.0 * (alpha_att @ (x - m1)))  # analytically 0; kept exact
    d_alpha += dm1 * x

    # c = alpha @ H0
    d_alpha += H0 @ dc
    dH0 = np.outer(alpha_att, dc)

    # alpha = softmax(e), e = (H0 W_g) @ qv
    de = _softmax_backward(alpha_att, d_alpha)
    dKg = np.outer(de, cache["qv"])
    d_qv += cache["Kg"].T @ de
    dH0 += dKg @ P["W_g"].T
    grads["W_g"] += H0.T @ dKg

    # H0 = S @ Vm
    dS += dH0 @ Vm.T
    dVm += S.T @ dH0

    # S = softmax(Qm Km^T / sqrt(w), rows)
    dZ = _softmax_backward(S, dS)
    scale_w = 1.0 / math.sqrt(w)
    dQm = dZ @ cache["Km"] * scale_w
    dKm = dZ.T @ cache["Qm"] * scale_w

    # projections from X
    X = cache["X"]
    dX = dQm @ P["W_q"].T + dKm @ P["W_k"].T + dVm @ P["W_val"].T
    grads["W_q"] += X.T @ dQm
    grads["W_k"] += X.T @ dKm
    grads["W_val"] += X.T @ dVm

    # X = F W_v + b_v
    grads["W_v"] += episode.frames.T @ dX
    grads["b_v"] += dX.sum(axis=0)

    # qv = question W_t + b_t (d_qv accumulated from fusion + grounding head)
    grads["W_t"] += np.outer(episode.question, d_qv)
    grads["b_t"] += d_qv

    return total, grads


# --- inference -------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodePrediction:
    answer_index: int
    window: TemporalSegment
    mask: GaussianMask
    trace: np.ndarray
    scores: np.ndarray


def predict_episode(
    params: ModelParams,
    episode: Episode,
    gamma: float = 1.0,
    window_source: str = "gauss",
) -> EpisodePrediction:
    """Answer choice plus grounded window for one episode, from one forward pass.

    window_source names the one window that is built and returned:
      "gauss"  the mask's confidence interval (mu +- gamma*sigma) * duration;
      "attn"   post-hoc extraction from the pooling trace (gamma is not read);
      "fused"  the intersection of the two, or the attention window when
               they are disjoint.
    """
    if window_source not in ("gauss", "attn", "fused"):
        raise ValueError(f"unknown window_source {window_source!r}")
    cache = _forward(params, episode)
    # built from (mu, sigma) rather than cache["mask"] so that a NaN head
    # output raises GaussianMask's ValueError here
    mask = GaussianMask(cache["mu"], cache["sigma"])
    trace = cache["trace"]
    scores = cache["answer"]["scores"]
    if window_source == "gauss":
        window = confidence_interval(mask, episode.extent, gamma)
    elif window_source == "attn":
        window = extract_window_raw(trace, episode.grid)
    else:
        window = fuse_windows(confidence_interval(mask, episode.extent, gamma),
                              extract_window_raw(trace, episode.grid))
    return EpisodePrediction(
        answer_index=int(np.argmax(scores)),
        window=window,
        mask=mask,
        trace=trace,
        scores=scores,
    )
