"""Differentiable Gaussian temporal masks.

A grounding hypothesis is a Gaussian bump over normalized video time: center
mu and spread sigma, both learnable. Frame weights follow the peak-1 form
exp(-((x - mu)/sigma)^2 / 2), so the weight at x == mu is always 1 regardless
of sigma. The mask converts to a concrete window via a confidence interval
(mu +- gamma*sigma) scaled by duration, and plugs into self-attention by
scaling post-softmax weights per key position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .temporal import TemporalSegment, VideoExtent, clamp_to_video

SIGMA_MIN = 0.01


class ShapeMismatch(ValueError):
    """Arrays disagree on shape with each other or with the model parameters."""


@dataclass(frozen=True)
class GaussianMask:
    """Normalized-time Gaussian: mu in [0,1], sigma in [SIGMA_MIN, 1]."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        mu = float(self.mu)
        sigma = float(self.sigma)
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError(f"non-finite mask parameters ({mu}, {sigma})")
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu {mu} outside [0, 1]")
        if not SIGMA_MIN <= sigma <= 1.0:
            raise ValueError(f"sigma {sigma} outside [{SIGMA_MIN}, 1]")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class FrameGrid:
    """Uniformly sampled frame centers over a video."""

    n_frames: int
    extent: VideoExtent

    def __post_init__(self) -> None:
        if self.n_frames < 2:
            raise ValueError(f"need at least 2 frames, got {self.n_frames}")


def frame_positions(n_frames: int) -> np.ndarray:
    """Normalized frame centers x_i = (i + 0.5) / n in (0, 1)."""
    return (np.arange(n_frames) + 0.5) / n_frames


def frame_times(grid: FrameGrid) -> np.ndarray:
    """Frame center times in seconds: (i + 0.5) * d / n."""
    return frame_positions(grid.n_frames) * grid.extent.duration


def mask_weights(mask: GaussianMask, grid: FrameGrid) -> np.ndarray:
    """Per-frame weights G_i = exp(-0.5 ((x_i - mu)/sigma)^2), in (0, 1].

    Floored at the smallest positive normal float so extreme decays stay
    strictly positive instead of underflowing to 0.
    """
    x = frame_positions(grid.n_frames)
    g = np.exp(-0.5 * ((x - mask.mu) / mask.sigma) ** 2)
    return np.maximum(g, np.finfo(float).tiny)


def mask_gradients(
    mask: GaussianMask, weights: np.ndarray, upstream: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Chain dL/dG_i through the mask: returns (dL/dmu, dL/dsigma).

    weights are the forward pass's mask_weights(mask, grid), one per frame.
    dG_i/dmu = G_i (x_i - mu) / sigma^2, dG_i/dsigma = G_i (x_i - mu)^2 / sigma^3.
    """
    up = np.asarray(upstream, dtype=float)
    if up.shape != weights.shape:
        raise ShapeMismatch(f"upstream shape {up.shape} != weights shape {weights.shape}")
    diff = frame_positions(len(weights)) - mask.mu
    d_mu = float(np.sum(up * weights * diff / mask.sigma**2))
    d_sigma = float(np.sum(up * weights * diff**2 / mask.sigma**3))
    return d_mu, d_sigma


def confidence_interval(mask: GaussianMask, extent: VideoExtent, gamma: float) -> TemporalSegment:
    """Window ((mu - gamma*sigma) * d, (mu + gamma*sigma) * d) clamped to the video."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    lo = (mask.mu - gamma * mask.sigma) * extent.duration
    hi = (mask.mu + gamma * mask.sigma) * extent.duration
    # mu in [0,1] and gamma*sigma > 0 put mu*d strictly inside the raw
    # interval, so the clamp always keeps positive length
    return clamp_to_video(lo, hi, extent)
