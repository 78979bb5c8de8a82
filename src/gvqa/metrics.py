"""Grounded-QA evaluation protocol.

Scores answer accuracy together with temporal evidence quality: Acc@QA,
Acc@GQA (correct answer and best IoP >= 0.5), mean IoP/IoU and thresholded
rates at 0.3/0.5. Multi-segment labels are scored against the segment with
maximal overlap. Label sets and prediction sets are held as validated
columnar tables (LabelTable, PredictionTable), so scoring runs as array
operations over all segments at once.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .temporal import END_SLACK, TemporalSegment, VideoExtent, iop, iou

PROTOCOL_THRESHOLDS = (0.3, 0.5)
GQA_IOP_THRESHOLD = 0.5
# answer indices are held in an int64 column
MAX_ANSWER_INDEX = int(np.iinfo(np.int64).max)


class UnknownQuestionId(KeyError):
    """A prediction references a question that is not in the label set."""

    def __str__(self) -> str:
        # KeyError's own str is the repr of the bare id
        return f"prediction for question {self.args[0]!r}, which is not in the labels"


class DuplicatePrediction(ValueError):
    """Two predictions share a question id."""


class ParseError(ValueError):
    """File is structurally unreadable (not UTF-8, bad JSON, bad header, bad number)."""


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
            if seg.start < 0 or seg.end > self.extent.duration + END_SLACK:
                raise ValueError(
                    f"label {self.question_id}: segment [{seg.start}, {seg.end}] "
                    f"outside video of duration {self.extent.duration}"
                )
        if self.answer_index < 0:
            raise ValueError(f"label {self.question_id}: negative answer_index")
        if self.answer_index > MAX_ANSWER_INDEX:
            raise ValueError(
                f"label {self.question_id}: answer_index {self.answer_index} "
                f"exceeds {MAX_ANSWER_INDEX}"
            )
        object.__setattr__(self, "segments", segments)


class LabelTable(Mapping[str, GroundingLabel]):
    """A validated label set held in columns, keyed by question id.

    Row i is one question: ``question_ids[i]``, ``video_ids[i]``,
    ``duration[i]`` and ``answer[i]``. Segment k is
    ``[seg_start[k], seg_end[k]]`` of row ``seg_owner[k]``; each row's
    segments are contiguous and keep their input order. ``index`` maps a
    question id to its row.

    The constructor checks every rule of GroundingLabel, TemporalSegment and
    VideoExtent over whole columns and raises ValueError if any row breaks
    one, so a table holds only rows that GroundingLabel accepts. The table is
    read-only; reading a key builds that row's GroundingLabel.
    """

    def __init__(self, question_ids, video_ids, duration, answer,
                 seg_start, seg_end, seg_owner) -> None:
        self.question_ids = tuple(question_ids)
        self.video_ids = tuple(video_ids)
        self.duration = np.array(duration, dtype=np.float64)
        try:
            self.answer = np.array(answer, dtype=np.int64)
        except OverflowError:
            raise ValueError("label table: answer index outside int64") from None
        self.seg_start = np.array(seg_start, dtype=np.float64)
        self.seg_end = np.array(seg_end, dtype=np.float64)
        self.seg_owner = np.array(seg_owner, dtype=np.intp)
        self.index = dict(zip(self.question_ids, range(len(self.question_ids))))
        problem = self._problem()
        if problem:
            raise ValueError(f"label table: {problem}")
        # row i's segments are seg_bounds[i]:seg_bounds[i + 1]
        self.seg_bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(self.seg_owner, minlength=len(self)))))
        for column in (self.duration, self.answer, self.seg_start, self.seg_end,
                       self.seg_owner, self.seg_bounds):
            column.flags.writeable = False

    def _problem(self) -> str:
        """The first broken rule, or "" when every row is valid."""
        n = len(self.question_ids)
        if not (len(self.video_ids) == self.duration.shape[0] == self.answer.shape[0] == n):
            return "row columns differ in length"
        if not self.seg_start.shape == self.seg_end.shape == self.seg_owner.shape:
            return "segment columns differ in length"
        if len(self.index) != n:
            return "duplicate question ids"
        owner = self.seg_owner
        if owner.size and (owner[0] < 0 or np.any(owner[1:] < owner[:-1])):
            return "segment owners must be sorted row indices"
        counts = np.bincount(owner, minlength=n)
        if counts.shape[0] != n or not np.all(counts):
            return "every row needs at least one segment"
        duration = self.duration
        if not np.all(np.isfinite(duration) & (duration > 0)):
            return "durations must be finite and > 0"
        if np.any(self.answer < 0):
            return "negative answer index"
        start, end = self.seg_start, self.seg_end
        if not np.all(np.isfinite(start) & np.isfinite(end)):
            return "segment endpoints must be finite"
        if not np.all((start >= 0) & (start < end)):
            return "segments need 0 <= start < end"
        if np.any(end > duration[owner] + END_SLACK):
            return "segment outside its video"
        return ""

    @classmethod
    def of(cls, labels: Mapping[str, GroundingLabel]) -> "LabelTable":
        """The table itself, or a table gathered from a mapping of labels.

        Each key must be its label's question id.
        """
        if isinstance(labels, LabelTable):
            return labels
        qids, vids, duration, answer = [], [], [], []
        seg_start, seg_end, seg_owner = [], [], []
        for row, (qid, label) in enumerate(labels.items()):
            if qid != label.question_id:
                raise ValueError(f"key {qid!r} holds the label of {label.question_id!r}")
            qids.append(qid)
            vids.append(label.video_id)
            duration.append(label.extent.duration)
            answer.append(label.answer_index)
            for seg in label.segments:
                seg_start.append(seg.start)
                seg_end.append(seg.end)
                seg_owner.append(row)
        return cls(qids, vids, duration, answer, seg_start, seg_end, seg_owner)

    def __getitem__(self, qid: str) -> GroundingLabel:
        i = self.index[qid]
        lo, hi = self.seg_bounds[i:i + 2].tolist()
        return GroundingLabel(
            question_id=qid,
            video_id=self.video_ids[i],
            extent=VideoExtent(self.duration[i].item()),
            segments=tuple(TemporalSegment(a, b) for a, b in
                           zip(self.seg_start[lo:hi].tolist(), self.seg_end[lo:hi].tolist())),
            answer_index=self.answer[i].item(),
        )

    def __contains__(self, qid: object) -> bool:
        return qid in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.question_ids)

    def __len__(self) -> int:
        return len(self.question_ids)


@dataclass(frozen=True)
class Prediction:
    """Model output for one question: chosen answer and grounding window."""

    question_id: str
    answer_index: int
    window: TemporalSegment


class PredictionTable(Sequence[Prediction]):
    """A validated prediction set held in columns, in input order.

    Row i is one prediction: ``question_ids[i]``, ``answer[i]`` and the
    window ``[start[i], end[i]]``. ``answer`` is int64; if some answer does
    not fit in int64 the column holds Python ints instead (dtype object), so
    that answer is kept exactly and scores wrong. Question ids may repeat;
    evaluate rejects the repeat.

    The constructor checks every rule of TemporalSegment over whole columns
    and raises ValueError if any row breaks one. The table is read-only;
    reading row i builds that row's Prediction.
    """

    def __init__(self, question_ids, answer, start, end) -> None:
        self.question_ids = tuple(question_ids)
        try:
            self.answer = np.array(answer, dtype=np.int64)
        except OverflowError:
            self.answer = np.array(answer, dtype=object)
        self.start = np.array(start, dtype=np.float64)
        self.end = np.array(end, dtype=np.float64)
        problem = self._problem()
        if problem:
            raise ValueError(f"prediction table: {problem}")
        for column in (self.answer, self.start, self.end):
            column.flags.writeable = False

    def _problem(self) -> str:
        """The first broken rule, or "" when every row is valid."""
        if not self.answer.shape == self.start.shape == self.end.shape == (len(self),):
            return "columns differ in length"
        start, end = self.start, self.end
        if not np.all(np.isfinite(start) & np.isfinite(end)):
            return "window endpoints must be finite"
        if not np.all((start >= 0) & (start < end)):
            return "windows need 0 <= start < end"
        return ""

    @classmethod
    def of(cls, preds: Iterable[Prediction]) -> "PredictionTable":
        """The table itself, or a table gathered from predictions in order."""
        if isinstance(preds, PredictionTable):
            return preds
        qids, answer, start, end = [], [], [], []
        for p in preds:
            qids.append(p.question_id)
            answer.append(p.answer_index)
            start.append(p.window.start)
            end.append(p.window.end)
        return cls(qids, answer, start, end)

    def __getitem__(self, i: int) -> Prediction:
        return Prediction(self.question_ids[i], int(self.answer[i]),
                          TemporalSegment(float(self.start[i]), float(self.end[i])))

    def __len__(self) -> int:
        return len(self.question_ids)


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
    text = str(value)
    # one digit after the point already: quantizing would give it back, so a
    # rounded report rounds again for free
    if text.find(".") == len(text) - 2:
        return float(value)
    return float(Decimal(text).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


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
    table = LabelTable.of(labels)
    preds = PredictionTable.of(preds)
    rows = list(map(table.index.get, preds.question_ids))
    if None in rows or len(set(rows)) < len(rows):
        # name the first offending prediction, in input order
        seen: set[int] = set()
        for qid, row in zip(preds.question_ids, rows):
            if row is None:
                raise UnknownQuestionId(qid)
            if row in seen:
                raise DuplicatePrediction(qid)
            seen.add(row)

    n = len(table)
    if n == 0:
        raise ValueError("empty label set")

    # a missing prediction gets the dummy window [0, 1], scored zero below
    index = np.array(rows, dtype=np.intp)
    has = np.zeros(n, dtype=bool)
    has[index] = True
    p_start = np.zeros(n)
    p_start[index] = preds.start
    p_end = np.ones(n)
    p_end[index] = preds.end
    correct = np.zeros(n, dtype=bool)
    correct[index] = preds.answer == table.answer[index]

    # every segment against its question's window, in temporal.iop/iou's order
    owner = table.seg_owner
    ps, pe = p_start[owner], p_end[owner]
    plen = pe - ps
    glen = table.seg_end - table.seg_start
    inter = np.maximum(0.0, np.minimum(pe, table.seg_end) - np.maximum(ps, table.seg_start))
    starts = table.seg_bounds[:-1]
    best_iop = np.where(has, np.maximum.reduceat(inter / plen, starts), 0.0)
    best_iou = np.where(has, np.maximum.reduceat(inter / ((plen + glen) - inter), starts), 0.0)

    warnings = []
    n_missing = n - len(rows)
    if n_missing:
        warnings.append(
            f"{n_missing} labeled questions had no prediction and were scored zero"
        )

    pct = 100.0 / n
    return MetricReport(
        acc_qa=int(np.count_nonzero(correct)) * pct,
        acc_gqa=int(np.count_nonzero(correct & (best_iop >= GQA_IOP_THRESHOLD))) * pct,
        m_iop=ordered_sum(best_iop) * pct,
        iop_at={t: int(np.count_nonzero(best_iop >= t)) * pct for t in PROTOCOL_THRESHOLDS},
        m_iou=ordered_sum(best_iou) * pct,
        iou_at={t: int(np.count_nonzero(best_iou >= t)) * pct for t in PROTOCOL_THRESHOLDS},
        n_questions=n,
        warnings=warnings,
    )


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum of a non-empty array, as a Python `+=` loop adds."""
    return float(np.add.accumulate(values)[-1])


def random_baseline(labels: Mapping[str, GroundingLabel], answer_id: int) -> PredictionTable:
    """Fixed-answer predictor that grounds every question on the whole video."""
    table = LabelTable.of(labels)
    n = len(table)
    return PredictionTable(table.question_ids, [answer_id] * n, np.zeros(n), table.duration)


# --- file formats ---------------------------------------------------------

@contextmanager
def open_text(path: str | Path) -> Iterator[io.TextIOWrapper]:
    """The file at path, open for reading as UTF-8 with its line endings
    kept, so a character offset maps to a byte offset. Every text input of
    the package is opened here. A byte that is not UTF-8 raises ParseError
    naming the file; the codec's position is left out, because for a file
    read in chunks it counts from the start of the chunk."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: byte "
                             f"0x{exc.object[exc.start]:02x}: {exc.reason}") from exc


def read_json(path: str | Path) -> object:
    """The JSON value in a UTF-8 file. A syntax error raises ParseError
    naming the file and the error's UTF-8 byte offset; a value the decoder
    cannot build (an integer past the interpreter's digit limit, arrays
    nested past the recursion limit) raises ParseError naming the file."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[:exc.pos].encode("utf-8"))
        raise ParseError(f"{path}: invalid JSON at byte offset {offset}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: unreadable JSON: {exc}") from exc


def read_answer_index(value: object) -> int:
    """An answer index as a file holds it: an integer, or a string of one.
    A value that int() rejects raises as int() does; a float (2.0 too) or a
    bool, which int() would truncate, raises TypeError."""
    index = int(value)
    if type(value) is not int and not isinstance(value, str):
        raise TypeError(f"answer index {value!r} is not an integer")
    return index


def load_predictions(path: str | Path) -> PredictionTable:
    """Read a prediction file: JSON map question_id -> {answer, start, end}.

    One pass in file order converts each entry with read_answer_index and float;
    the first bad entry raises ValueError naming its question.
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: prediction file must be a JSON object")
    answer, start, end = [], [], []
    try:
        for qid, entry in raw.items():
            a = entry["answer"]
            if type(a) is not int:  # JSON integers skip the call
                a = read_answer_index(a)
            s, e = float(entry["start"]), float(entry["end"])
            # TemporalSegment's rules in one comparison; a window that breaks
            # one goes through TemporalSegment, which raises that rule's message
            if not 0.0 <= s < e < math.inf:
                TemporalSegment(s, e)
            answer.append(a)
            start.append(s)
            end.append(e)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"{path}: bad prediction for question {qid!r}: {exc}") from exc
    return PredictionTable(list(raw), answer, start, end)


def rewrite_bytes(path: str | Path, data: bytes) -> None:
    """Write data to path, over any file there: the old file is overwritten
    in place and then cut to the new length, never truncated to empty first.
    Some filesystems flush a file that is truncated to empty, which made
    rewriting an existing report take tens of milliseconds instead of
    microseconds. Every file writer of the package goes through here."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


def rewrite_text(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8 through rewrite_bytes."""
    rewrite_bytes(path, text.encode("utf-8"))


def csv_text(rows: Iterable[Sequence]) -> str:
    """The rows as csv.writer writes them, "\r\n" after each."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def save_predictions(path: str | Path, preds: Iterable[Prediction]) -> None:
    """Write predictions in the format load_predictions reads; a repeated
    question id raises DuplicatePrediction for its first repeat."""
    payload: dict[str, dict] = {}
    for p in preds:
        if p.question_id in payload:
            raise DuplicatePrediction(p.question_id)
        payload[p.question_id] = {"answer": p.answer_index, "start": p.window.start,
                                  "end": p.window.end}
    rewrite_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    rewrite_text(path, json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")


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
    rewrite_text(path, csv_text([list(REPORT_COLUMNS) + ["n"],
                                 [f"{row[c]:.1f}" for c in REPORT_COLUMNS] + [report.n_questions]]))
