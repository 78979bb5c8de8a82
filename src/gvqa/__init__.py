"""Weakly-supervised temporally-grounded video QA at desk scale."""

from .metrics import (
    GroundingLabel,
    LabelTable,
    MetricReport,
    Prediction,
    PredictionTable,
    evaluate,
)
from .model import (
    Episode,
    ModelConfig,
    init_params,
    load_checkpoint,
    predict_episode,
    save_checkpoint,
)
from .synth import SynthConfig, generate, split_by_video
from .temporal import TemporalSegment, VideoExtent, intersect_len, iop, iou
from .trainer import TrainConfig, train

__all__ = [
    "Episode",
    "GroundingLabel",
    "LabelTable",
    "MetricReport",
    "ModelConfig",
    "Prediction",
    "PredictionTable",
    "SynthConfig",
    "TemporalSegment",
    "TrainConfig",
    "VideoExtent",
    "evaluate",
    "generate",
    "init_params",
    "intersect_len",
    "iop",
    "iou",
    "load_checkpoint",
    "predict_episode",
    "save_checkpoint",
    "split_by_video",
    "train",
]

__version__ = "0.1.0"
