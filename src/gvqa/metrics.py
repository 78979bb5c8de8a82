"""Grounded-QA evaluation protocol.

Scores answer accuracy together with temporal evidence quality: Acc@QA,
Acc@GQA (correct answer and best IoP >= 0.5), mean IoP/IoU and thresholded
rates at 0.3/0.5. Multi-segment labels are scored against the segment with
maximal overlap.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Mapping

from .temporal import TemporalSegment, VideoExtent, iop, iou

PROTOCOL_THRESHOLDS = (0.3, 0.5)
GQA_IOP_THRESHOLD = 0.5


class UnknownQuestionId(KeyError):
    """A prediction references a question that is not in the label set."""


class DuplicatePrediction(ValueError):
    """Two predictions share a question id."""


@dataclass(frozen=True)
class GroundingLabel:
    """Ground truth for one question: answer index plus evidence segments."""

    question_id: str
    video_id: str
    extent: VideoExtent
    segments: tuple[TemporalSegment, ...]
    answer_index: int

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        if not segments:
            raise ValueError(f"label {self.question_id} has no segments")
        for seg in segments:
            if seg.start < 0 or seg.end > self.extent.duration + 1e-9:
                raise ValueError(
                    f"label {self.question_id}: segment [{seg.start}, {seg.end}] "
                    f"outside video of duration {self.extent.duration}"
                )
        if self.answer_index < 0:
            raise ValueError(f"label {self.question_id}: negative answer_index")
        object.__setattr__(self, "segments", segments)


@dataclass(frozen=True)
class Prediction:
    """Model output for one question: chosen answer and grounding window."""

    question_id: str
    answer_index: int
    window: TemporalSegment


@dataclass
class MetricReport:
    """Aggregate grounded-QA metrics, all percentages in [0, 100]."""

    acc_qa: float
    acc_gqa: float
    m_iop: float
    iop_at: dict[float, float]
    m_iou: float
    iou_at: dict[float, float]
    n_questions: int
    warnings: list[str] = field(default_factory=list)

    def rounded(self) -> "MetricReport":
        """Copy with percentages rounded to one decimal, half up."""
        return MetricReport(
            acc_qa=round_percent(self.acc_qa),
            acc_gqa=round_percent(self.acc_gqa),
            m_iop=round_percent(self.m_iop),
            iop_at={t: round_percent(v) for t, v in self.iop_at.items()},
            m_iou=round_percent(self.m_iou),
            iou_at={t: round_percent(v) for t, v in self.iou_at.items()},
            n_questions=self.n_questions,
            warnings=list(self.warnings),
        )


def round_percent(value: float) -> float:
    """One-decimal rounding with ties going up, as leaderboards format it.

    Goes through the shortest repr so a float that prints as 20.05 rounds to
    20.1 even when its binary value sits a hair below the tie.
    """
    return float(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def best_overlap(pred: TemporalSegment, label: GroundingLabel, kind: str = "iop") -> float:
    """Maximal overlap of pred against any of the label's segments.

    kind is "iop" or "iou".
    """
    if kind == "iop":
        measure = iop
    elif kind == "iou":
        measure = iou
    else:
        raise ValueError(f"kind must be 'iop' or 'iou', got {kind!r}")
    return max(measure(pred, seg) for seg in label.segments)


def evaluate(
    preds: Iterable[Prediction],
    labels: Mapping[str, GroundingLabel],
) -> MetricReport:
    """Score predictions against a keyed label set.

    Labeled questions with no prediction count as wrong with zero overlap and
    are recorded in the report warnings. Unknown or duplicate question ids are
    errors.
    """
    by_qid: dict[str, Prediction] = {}
    for pred in preds:
        if pred.question_id not in labels:
            raise UnknownQuestionId(pred.question_id)
        if pred.question_id in by_qid:
            raise DuplicatePrediction(pred.question_id)
        by_qid[pred.question_id] = pred

    n = len(labels)
    if n == 0:
        raise ValueError("empty label set")

    n_correct = 0
    n_gqa = 0
    iop_sum = 0.0
    iou_sum = 0.0
    iop_hits = {t: 0 for t in PROTOCOL_THRESHOLDS}
    iou_hits = {t: 0 for t in PROTOCOL_THRESHOLDS}
    missing: list[str] = []

    for qid in labels:
        label = labels[qid]
        pred = by_qid.get(qid)
        if pred is None:
            missing.append(qid)
            continue
        correct = pred.answer_index == label.answer_index
        p_iop = best_overlap(pred.window, label, "iop")
        p_iou = best_overlap(pred.window, label, "iou")
        n_correct += correct
        n_gqa += correct and p_iop >= GQA_IOP_THRESHOLD
        iop_sum += p_iop
        iou_sum += p_iou
        for t in PROTOCOL_THRESHOLDS:
            iop_hits[t] += p_iop >= t
            iou_hits[t] += p_iou >= t

    warnings = []
    if missing:
        warnings.append(
            f"{len(missing)} labeled questions had no prediction and were scored zero"
        )

    pct = 100.0 / n
    return MetricReport(
        acc_qa=n_correct * pct,
        acc_gqa=n_gqa * pct,
        m_iop=iop_sum * pct,
        iop_at={t: iop_hits[t] * pct for t in PROTOCOL_THRESHOLDS},
        m_iou=iou_sum * pct,
        iou_at={t: iou_hits[t] * pct for t in PROTOCOL_THRESHOLDS},
        n_questions=n,
        warnings=warnings,
    )


def random_baseline(labels: Mapping[str, GroundingLabel], answer_id: int) -> list[Prediction]:
    """Fixed-answer predictor that grounds every question on the whole video."""
    return [
        Prediction(
            question_id=qid,
            answer_index=answer_id,
            window=TemporalSegment(0.0, label.extent.duration),
        )
        for qid, label in labels.items()
    ]


# --- file formats ---------------------------------------------------------

def load_predictions(path: str | Path) -> list[Prediction]:
    """Read a prediction file: JSON map question_id -> {answer, start, end}."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: prediction file must be a JSON object")
    preds = []
    for qid, entry in raw.items():
        try:
            preds.append(
                Prediction(
                    question_id=str(qid),
                    answer_index=int(entry["answer"]),
                    window=TemporalSegment(float(entry["start"]), float(entry["end"])),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad prediction for question {qid!r}: {exc}") from exc
    return preds


def save_predictions(path: str | Path, preds: Iterable[Prediction]) -> None:
    payload = {
        p.question_id: {"answer": p.answer_index, "start": p.window.start, "end": p.window.end}
        for p in preds
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


REPORT_COLUMNS = (
    "Acc@QA", "Acc@GQA", "mIoP", "IoP@0.3", "IoP@0.5", "mIoU", "IoU@0.3", "IoU@0.5",
)


def report_to_dict(report: MetricReport) -> dict:
    r = report.rounded()
    return {
        "acc_qa": r.acc_qa,
        "acc_gqa": r.acc_gqa,
        "m_iop": r.m_iop,
        "iop_at": {f"{t:g}": v for t, v in sorted(r.iop_at.items())},
        "m_iou": r.m_iou,
        "iou_at": {f"{t:g}": v for t, v in sorted(r.iou_at.items())},
        "n_questions": r.n_questions,
        "warnings": sorted(r.warnings),
    }


def write_report_json(path: str | Path, report: MetricReport) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def report_row(report: MetricReport) -> dict[str, float]:
    """Rounded values keyed by the standard leaderboard column names."""
    r = report.rounded()
    return {
        "Acc@QA": r.acc_qa,
        "Acc@GQA": r.acc_gqa,
        "mIoP": r.m_iop,
        "IoP@0.3": r.iop_at[0.3],
        "IoP@0.5": r.iop_at[0.5],
        "mIoU": r.m_iou,
        "IoU@0.3": r.iou_at[0.3],
        "IoU@0.5": r.iou_at[0.5],
    }


def write_report_csv(path: str | Path, report: MetricReport) -> None:
    """One-row CSV in the standard leaderboard column order."""
    row = report_row(report)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(REPORT_COLUMNS) + ["n"])
        writer.writerow([f"{row[c]:.1f}" for c in REPORT_COLUMNS] + [report.n_questions])
