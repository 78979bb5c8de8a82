"""Interval arithmetic for temporal segments.

Segments are closed real intervals in seconds. All operations are pure and
resolution-independent; frame quantization happens in the modules that own a
frame grid, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# a segment may end this far past its video's duration (float slack)
END_SLACK = 1e-9


class EmptyAfterClamp(ValueError):
    """Raised when clamping an interval to a video leaves nothing."""


@dataclass(frozen=True)
class TemporalSegment:
    """Closed interval [start, end] in seconds, strictly positive length."""

    start: float
    end: float

    def __post_init__(self) -> None:
        start = float(self.start)
        end = float(self.end)
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"segment endpoints must be finite, got [{self.start}, {self.end}]")
        if start < 0:
            raise ValueError(f"segment start must be >= 0, got {start}")
        if not start < end:
            raise ValueError(f"segment needs start < end, got [{start}, {end}]")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class VideoExtent:
    """Duration of a video in seconds."""

    duration: float

    def __post_init__(self) -> None:
        duration = float(self.duration)
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        object.__setattr__(self, "duration", duration)


def intersect_len(a: TemporalSegment, b: TemporalSegment) -> float:
    """Length of the overlap of two segments, 0 when disjoint."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def iop(pred: TemporalSegment, gt: TemporalSegment) -> float:
    """Intersection over prediction: 1 iff pred lies entirely inside gt."""
    return intersect_len(pred, gt) / pred.length


def iou(pred: TemporalSegment, gt: TemporalSegment) -> float:
    """Intersection over union; symmetric, 1 iff the segments coincide."""
    inter = intersect_len(pred, gt)
    return inter / (pred.length + gt.length - inter)


def clamp_to_video(start: float, end: float, extent: VideoExtent) -> TemporalSegment:
    """Clip a raw interval to [0, duration].

    Raises EmptyAfterClamp when the interval lies entirely outside the video
    (or touches it only at a boundary point).
    """
    lo = max(0.0, float(start))
    hi = min(extent.duration, float(end))
    if not lo < hi:
        raise EmptyAfterClamp(
            f"interval [{start}, {end}] is empty after clamping to [0, {extent.duration}]"
        )
    return TemporalSegment(lo, hi)
