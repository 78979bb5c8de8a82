"""Attention-trace to time-window extraction.

Localizes evidence after the fact from a model's temporal attention: smooth,
min-max normalize, take the strongest frame as pivot, then grow a contiguous
window around it out of frames that stay above the mean score and within a
fixed distance of the pivot. Window endpoints snap outward to frame-bin
edges, so even a lone pivot yields a segment of one bin.
"""

from __future__ import annotations

import warnings

import numpy as np

from .gaussian import frame_times
from .temporal import TemporalSegment

DEFAULT_SMOOTH_W = 3
DEFAULT_DIST_CAP_S = 10.0


class DegenerateTraceWarning(UserWarning):
    """All scores equal after smoothing; extraction falls back to one bin."""


def smooth_scores(scores: np.ndarray, smooth_w: int) -> np.ndarray:
    """Edge-truncated moving average; windows shrink at the boundaries.

    One cumulative sum gives every window's sum. It runs on the scores minus
    their first value, so a constant input stays exactly constant and the
    rounding follows the spread of the scores rather than their size.
    """
    if smooth_w < 1 or smooth_w % 2 == 0:
        raise ValueError(f"smooth_w must be odd and >= 1, got {smooth_w}")
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    if smooth_w == 1 or n == 0:
        return scores.copy()
    h = smooth_w // 2
    ref = scores[0]
    csum = np.concatenate(([0.0], np.cumsum(scores - ref)))
    i = np.arange(n)
    lo, hi = np.maximum(i - h, 0), np.minimum(i + h + 1, n)
    return ref + (csum[hi] - csum[lo]) / (hi - lo)


def _minmax(scores: np.ndarray) -> np.ndarray | None:
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo <= 1e-15:
        return None
    return (scores - lo) / (hi - lo)


def extract_window_raw(
    scores: np.ndarray,
    duration: float,
    smooth_w: int = DEFAULT_SMOOTH_W,
    dist_cap_s: float = DEFAULT_DIST_CAP_S,
) -> TemporalSegment:
    """Window around the attention peak of per-frame scores, one per frame
    bin of a video of `duration` seconds.

    Smooth, min-max normalize, pivot at the argmax (lowest index on ties),
    then include contiguous frames on each side whose normalized score is at
    least the mean normalized score and whose center lies within dist_cap_s
    seconds of the pivot center. The window spans the included frames' bins.
    The scores need not sum to 1: positive affine rescaling cannot change the
    result because the min-max step cancels it.
    """
    scores = np.asarray(scores, dtype=float)
    if dist_cap_s <= 0:
        raise ValueError(f"dist_cap_s must be positive, got {dist_cap_s}")
    smoothed = smooth_scores(scores, smooth_w)
    norm = _minmax(smoothed)
    n = len(scores)
    bin_w = duration / n
    if norm is None:
        warnings.warn(
            "attention trace is flat after smoothing; grounding to the first frame bin",
            DegenerateTraceWarning,
            stacklevel=2,
        )
        return TemporalSegment(0.0, bin_w)
    # tolerance keeps tie-breaking stable: affine-shifted inputs can perturb
    # exactly tied smoothed values by an ulp, which must not move the pivot
    tol = 1e-9
    pivot = int(np.argmax(norm >= 1.0 - tol))
    mean_norm = float(norm.mean())
    times = frame_times(n, duration)

    def ok(i: int) -> bool:
        return norm[i] >= mean_norm - tol and abs(times[i] - times[pivot]) <= dist_cap_s

    left = pivot
    while left - 1 >= 0 and ok(left - 1):
        left -= 1
    right = pivot
    while right + 1 < n and ok(right + 1):
        right += 1
    return TemporalSegment(left * bin_w, (right + 1) * bin_w)
