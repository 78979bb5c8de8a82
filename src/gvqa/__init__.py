"""Weakly-supervised temporally-grounded video QA at desk scale."""

import importlib

from .metrics import (
    GroundingLabel,
    LabelTable,
    MetricReport,
    Prediction,
    PredictionTable,
    evaluate,
)
from .temporal import TemporalSegment, VideoExtent

# the training stack (model, synth, trainer) loads on first use of one of its
# names, so `gvqa eval` and `gvqa stats` never import it
_TRAINING_NAMES = {
    "Episode": "model",
    "ModelConfig": "model",
    "init_params": "model",
    "load_checkpoint": "model",
    "predict_episode": "model",
    "predict_episodes": "model",
    "save_checkpoint": "model",
    "SynthConfig": "synth",
    "generate": "synth",
    "split_by_video": "synth",
    "TrainConfig": "trainer",
    "train": "trainer",
}


def __getattr__(name: str):
    # read through on every lookup: a patched module attribute is what callers get
    if name in _TRAINING_NAMES:
        return getattr(importlib.import_module(f".{_TRAINING_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(["GroundingLabel", "LabelTable", "MetricReport", "Prediction", "PredictionTable",
                  "TemporalSegment", "VideoExtent", "evaluate", *_TRAINING_NAMES])

__version__ = "0.1.0"
