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

import numpy as np

from .temporal import TemporalSegment, VideoExtent, clamp_to_video

SIGMA_MIN = 0.01
# floor of the frame weights: the smallest positive normal float
_TINY = np.finfo(float).tiny


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


def frame_positions(n_frames: int) -> np.ndarray:
    """Normalized frame centers x_i = (i + 0.5) / n in (0, 1)."""
    return (np.arange(n_frames) + 0.5) / n_frames


def frame_times(n_frames: int, duration: float) -> np.ndarray:
    """Frame center times in seconds: (i + 0.5) * d / n."""
    return frame_positions(n_frames) * duration


def gaussian_weights(x: np.ndarray, mu, sigma) -> np.ndarray:
    """exp(-0.5 ((x - mu)/sigma)^2), floored at the smallest positive normal
    float so extreme decays stay strictly positive instead of underflowing
    to 0. Broadcasts: mu and sigma of shape (b, 1) against x of shape (n,)
    give one row of weights per mask."""
    g = np.exp(-0.5 * ((x - mu) / sigma) ** 2)
    return np.maximum(g, _TINY, out=g)


def gaussian_gradients(
    x: np.ndarray, mu, sigma, weights: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chain dL/dG through the forward's weights = gaussian_weights(x, mu,
    sigma), summed over the last (frame) axis: returns (dL/dmu, dL/dsigma).

    dG_i/dmu = G_i (x_i - mu) / sigma^2, dG_i/dsigma = G_i (x_i - mu)^2 / sigma^3.
    """
    if upstream.shape != weights.shape:
        raise ShapeMismatch(f"upstream shape {upstream.shape} != weights shape {weights.shape}")
    diff = x - mu
    gw = upstream * weights * diff
    return np.sum(gw / sigma**2, axis=-1), np.sum(gw * diff / sigma**3, axis=-1)


def mask_weights(mask: GaussianMask, n_frames: int) -> np.ndarray:
    """Per-frame weights G_i = exp(-0.5 ((x_i - mu)/sigma)^2), in (0, 1]."""
    return gaussian_weights(frame_positions(n_frames), mask.mu, mask.sigma)


def confidence_interval(mask: GaussianMask, extent: VideoExtent, gamma: float) -> TemporalSegment:
    """Window ((mu - gamma*sigma) * d, (mu + gamma*sigma) * d) clamped to the video."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    lo = (mask.mu - gamma * mask.sigma) * extent.duration
    hi = (mask.mu + gamma * mask.sigma) * extent.duration
    # mu in [0,1] and gamma*sigma > 0 put mu*d strictly inside the raw
    # interval, so the clamp always keeps positive length
    return clamp_to_video(lo, hi, extent)
