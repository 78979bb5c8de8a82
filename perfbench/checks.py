"""Output checks and digests; none of this runs inside a timed region."""

from __future__ import annotations

import hashlib
import math

import numpy as np

# criterion 4 of the acceptance suite: analytic vs finite-difference gradients
FD_REL_TOL = 1e-4
# five-point central stencil: truncation O(h^4) and, at this step, rounding far
# below the tolerance even where a gradient coordinate is near zero
FD_STEP = 1e-3
WINDOW_SLACK = 1e-9


def gradient_check(model, temporal, seed: int) -> dict[str, float]:
    """Worst relative gradient error per objective on one small random episode.

    Every parameter coordinate is checked against a central finite difference
    of the matching public loss (ng_loss, grounding_loss, ngplus_loss).
    """
    rng = np.random.default_rng(seed)
    n, d_v, d_t, n_answers = 4, 5, 6, 3
    episode = model.Episode(
        frames=rng.normal(size=(n, d_v)),
        question=rng.normal(size=d_t),
        answers=rng.normal(size=(n_answers, d_t)),
        correct=int(rng.integers(n_answers)),
        extent=temporal.VideoExtent(40.0),
        neg_questions=[rng.normal(size=d_t) for _ in range(n_answers - 1)],
        question_id="fd", video_id="fd",
    )
    params = model.init_params(model.ModelConfig(d_v=d_v, d_t=d_t, width=8), seed=seed)
    for arr in params.arrays.values():
        arr += 0.05 * rng.normal(size=arr.shape)
    losses = {
        "ng": lambda p: model.ng_loss(p, episode),
        "ground": lambda p: model.grounding_loss(p, episode),
        "ng+": lambda p: model.ngplus_loss(p, episode, alpha=1.0),
    }
    worst = {}
    for objective, loss_fn in losses.items():
        _, grads = model.loss_and_gradients(params, episode, objective=objective, alpha=1.0)
        err = 0.0
        for name, arr in params.arrays.items():
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]

                def at(step: float) -> float:
                    arr[idx] = orig + step
                    return loss_fn(params)

                fd = (8 * (at(FD_STEP) - at(-FD_STEP)) - (at(2 * FD_STEP) - at(-2 * FD_STEP))
                      ) / (12 * FD_STEP)
                arr[idx] = orig
                a = grads[name][idx]
                err = max(err, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        worst[objective] = float(err)
    return worst


def bad_predictions(preds, episodes) -> int:
    """Predictions with non-finite scores, an answer out of range, or a window
    outside its video."""
    bad = 0
    for pred, ep in zip(preds, episodes, strict=True):
        w = pred.window
        ok = (bool(np.all(np.isfinite(pred.scores)))
              and 0 <= pred.answer_index < ep.n_answers
              and -WINDOW_SLACK <= w.start < w.end <= ep.extent.duration + WINDOW_SLACK)
        bad += not ok
    return bad


def report_ok(acc_gqa: float, acc_qa: float, iop_at_05: float) -> bool:
    """Acc@GQA <= min(Acc@QA, IoP@0.5), all finite."""
    values = (acc_gqa, acc_qa, iop_at_05)
    return all(math.isfinite(v) for v in values) and acc_gqa <= min(acc_qa, iop_at_05)


def history_ok(history) -> bool:
    """Every epoch's loss and validation metric is finite."""
    return bool(history) and all(
        math.isfinite(row[k]) for row in history
        for k in ("loss", "acc_qa", "acc_gqa", "m_iop", "m_iou")
    )


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params.arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params.arrays[name]).tobytes())
    return h.hexdigest()[:16]


def predictions_digest(episodes, preds) -> str:
    h = hashlib.sha256()
    for ep, pred in zip(episodes, preds, strict=True):
        h.update(f"{ep.question_id}:{pred.answer_index}:{pred.window.start!r}:"
                 f"{pred.window.end!r}".encode())
        h.update(np.ascontiguousarray(pred.scores).tobytes())
    return h.hexdigest()[:16]


def episodes_digest(episodes) -> str:
    h = hashlib.sha256()
    for ep in episodes:
        h.update(f"{ep.question_id}:{ep.video_id}:{ep.correct}:{ep.extent.duration!r}".encode())
        h.update(ep.frames.tobytes())
        h.update(ep.question.tobytes())
        h.update(ep.answers.tobytes())
    return h.hexdigest()[:16]
