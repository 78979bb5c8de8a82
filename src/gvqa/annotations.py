"""Annotation file ingestion and dataset statistics.

Reads grounding labels from CSV or JSON into a validated LabelTable, and
summarizes the corpus: counts, mean segment/video durations, segment-to-video
ratio, where segments sit in the video, and how segments and questions share
each other.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metrics import (GroundingLabel, LabelTable, ParseError, csv_text, open_text,
                      ordered_sum, read_answer_index, read_json, rewrite_text)
from .svgplot import bar_chart, pie_chart
from .temporal import TemporalSegment, VideoExtent

CSV_COLUMNS = ("question_id", "video_id", "duration_s", "answer_index", "segments")

POSITION_BINS = ("left", "middle", "right")

DEDUP_IOU = 0.5


class ValidationError(ValueError):
    """A row parsed but violates a label constraint; carries the line number."""


class EmptyDataset(ValueError):
    """Stats requested over zero labels."""


@dataclass(frozen=True)
class DatasetStats:
    """Corpus-level summary of a grounding label set."""

    n_videos: int
    n_questions: int
    n_segments: int
    mean_seg_dur: float
    mean_vid_dur: float
    mean_ratio: float
    position_hist: dict[str, float]
    segs_per_qa_hist: dict[int, float]
    qas_per_seg_hist: dict[int, float]

    def __post_init__(self) -> None:
        for name, hist in (
            ("position_hist", self.position_hist),
            ("segs_per_qa_hist", self.segs_per_qa_hist),
            ("qas_per_seg_hist", self.qas_per_seg_hist),
        ):
            total = sum(hist.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{name} sums to {total}, expected 1")
        # a valid segment's length / duration can underflow to 0
        if not 0.0 <= self.mean_ratio <= 1.0:
            raise ValueError(f"mean_ratio {self.mean_ratio} outside [0, 1]")


# --- loading ----------------------------------------------------------------

def _parse_segments(cell: str | list, where: str) -> list[tuple[float, float]]:
    """Accepts 's:e;s:e' strings or [[s, e], ...] lists."""
    pairs: list[tuple[float, float]] = []
    if isinstance(cell, str):
        for chunk in cell.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            bits = chunk.split(":")
            if len(bits) != 2:
                raise ParseError(f"{where}: segment {chunk!r} is not 'start:end'")
            try:
                pairs.append((float(bits[0]), float(bits[1])))
            except ValueError as exc:
                raise ParseError(f"{where}: non-numeric segment {chunk!r}") from exc
    elif isinstance(cell, list):
        for item in cell:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise ParseError(f"{where}: segment entry {item!r} is not a [start, end] pair")
            try:
                pairs.append((float(item[0]), float(item[1])))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{where}: non-numeric segment {item!r}") from exc
    else:
        raise ParseError(f"{where}: segments must be a string or list, got {type(cell).__name__}")
    if not pairs:
        raise ParseError(f"{where}: no segments")
    return pairs


def _build_label(row: Mapping[str, object], where: str) -> GroundingLabel:
    try:
        qid = str(row["question_id"])
        vid = str(row["video_id"])
        duration = float(row["duration_s"])  # type: ignore[arg-type]
        answer = read_answer_index(row["answer_index"])
        cell = row["segments"]
    except KeyError as exc:
        raise ParseError(f"{where}: missing column {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ParseError(f"{where}: {exc}") from exc
    pairs = _parse_segments(cell, where)
    try:
        segments = tuple(TemporalSegment(a, b) for a, b in pairs)
        return GroundingLabel(
            question_id=qid,
            video_id=vid,
            extent=VideoExtent(duration),
            segments=segments,
            answer_index=answer,
        )
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def load_labels(path: str | Path) -> LabelTable:
    """Load labels from a .csv or .json file into a table keyed by question id.

    JSON rows are read one by one through the GroundingLabel checks. A CSV
    file is parsed and checked at once; if any row fails, its rows are read
    again the same one-by-one way. So the first bad row in file order raises:
    ParseError for an unreadable value, ValidationError for a row that parses
    but violates a label constraint (segment outside the video, start >= end,
    negative start, repeated question id). Both name the file and line (CSV)
    or row (JSON). A file that is not UTF-8, or not valid JSON, raises
    ParseError naming the file.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        table = _load_json(path)
    elif path.suffix.lower() == ".csv":
        table = _load_csv(path)
    else:
        raise ParseError(f"{path}: unsupported extension (want .csv or .json)")
    if not table:
        raise ParseError(f"{path}: no rows")
    return table


# any of these from the bulk CSV path sends the file through the row-by-row
# reader, which raises the first bad row's error with its location
_BULK_ERRORS = (ValueError, TypeError, KeyError, OverflowError, csv.Error)


def _csv_segments(cells: Sequence[str]) -> tuple[list, list, np.ndarray]:
    """The segment columns of CSV cells, parsed all at once. Every chunk
    between semicolons must hold exactly one colon; any other cell (an
    empty or blank chunk, a stray colon) raises ValueError, and the
    row-by-row reader reads the file instead."""
    joined = ";".join(cells)
    chunks = joined.split(";")
    if set(map(str.count, chunks, repeat(":"))) != {1}:
        raise ValueError("a segment is not 'start:end'")
    # float() ignores the whitespace that _parse_segments strips
    values = list(map(float, joined.replace(";", ":").split(":")))
    owner = np.arange(len(cells))
    if len(chunks) > len(cells):  # some row holds more than one segment
        owner = np.repeat(owner, np.array(list(map(str.count, cells, repeat(";")))) + 1)
    return values[0::2], values[1::2], owner


def _read_rows(rows: Iterable[tuple[str, object]]) -> LabelTable:
    """Row-by-row reading of (where, row) pairs in file order; raises at the
    first bad row, naming where it is."""
    labels: dict[str, GroundingLabel] = {}
    for where, row in rows:
        if not isinstance(row, dict):
            raise ParseError(f"{where}: not an object")
        label = _build_label(row, where)
        if label.question_id in labels:
            raise ValidationError(f"{where}: duplicate question_id {label.question_id!r}")
        labels[label.question_id] = label
    return LabelTable.of(labels)


def _load_csv(path: Path) -> LabelTable:
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            missing = set(CSV_COLUMNS) - set(header)
            if missing:
                raise ParseError(f"{path}: header missing columns {sorted(missing)}")
            try:
                rows = [row for row in reader if row]
                # short and long rows take csv.DictReader's padding rules, and a
                # file without rows its message: row by row
                if set(map(len, rows)) != {len(header)}:
                    raise ValueError("ragged or no rows")
                # a repeated column name reads its last column, as in csv.DictReader
                column = {name: i for i, name in enumerate(header)}
                columns = list(zip(*rows))
                qids, vids, durations, answers, cells = (columns[column[c]] for c in CSV_COLUMNS)
                # the builtins that _build_label converts with (the ids are str
                # already); a video's questions repeat its duration text
                seconds = {text: float(text) for text in set(durations)}
                return LabelTable(qids, vids, list(map(seconds.__getitem__, durations)),
                                  list(map(int, answers)), *_csv_segments(cells))
            except _BULK_ERRORS:
                pass
            fh.seek(0)
            labels = csv.DictReader(fh)
            reader = labels.reader
            return _read_rows((f"{path.name}:{reader.line_num}", row) for row in labels)
        except csv.Error as exc:
            # a line the csv module cannot split, such as one with a cell
            # longer than csv.field_size_limit(): the header, or the first
            # such row of the row-by-row read
            raise ParseError(f"{path.name}:{reader.line_num}: {exc}") from exc


def _load_json(path: Path) -> LabelTable:
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a JSON array of rows")
    return _read_rows((f"{path.name}:row {i}", row) for i, row in enumerate(raw))


def save_labels(path: str | Path, labels: Mapping[str, GroundingLabel]) -> None:
    """Write labels back out in the schema load_labels reads."""
    path = Path(path)
    table = LabelTable.of(labels)
    bounds = table.seg_bounds.tolist()
    starts, ends = table.seg_start.tolist(), table.seg_end.tolist()
    base = list(zip(table.question_ids, table.video_ids,
                    table.duration.tolist(), table.answer.tolist()))

    if path.suffix.lower() == ".json":
        rows = [
            {"question_id": qid, "video_id": vid, "duration_s": duration,
             "answer_index": answer,
             "segments": [[a, b] for a, b in zip(starts[lo:hi], ends[lo:hi])]}
            for (qid, vid, duration, answer), lo, hi in zip(base, bounds, bounds[1:])
        ]
        rewrite_text(path, json.dumps(rows, indent=2) + "\n")
    elif path.suffix.lower() == ".csv":
        rows = (
            (qid, vid, duration, answer,
             ";".join(f"{a!r}:{b!r}" for a, b in zip(starts[lo:hi], ends[lo:hi])))
            for (qid, vid, duration, answer), lo, hi in zip(base, bounds, bounds[1:])
        )
        rewrite_text(path, csv_text(chain([CSV_COLUMNS], rows)))
    else:
        raise ParseError(f"{path}: unsupported extension (want .csv or .json)")


# --- statistics ---------------------------------------------------------------

def _dedup_segments(starts: list[float], ends: list[float]) -> list[list[int]]:
    """Greedy IoU clustering; two segments with IoU > 0.5 count as the same.

    IoU takes temporal.iou's steps with the later segment as the prediction.
    Returns clusters as index lists; first member is the representative.
    """
    clusters: list[list[int]] = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        for cluster in clusters:
            r_start, r_end = starts[cluster[0]], ends[cluster[0]]
            inter = max(0.0, min(end, r_end) - max(start, r_start))
            if inter / (((end - start) + (r_end - r_start)) - inter) > DEDUP_IOU:
                cluster.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def compute_stats(labels: Mapping[str, GroundingLabel]) -> DatasetStats:
    """Aggregate corpus statistics from a label set.

    Segment position is the third of the video containing the segment
    midpoint. The ratio statistic is per-segment (length / its video's
    duration) averaged over all segments. qas_per_seg deduplicates segments
    within a video via IoU > 0.5 and counts distinct QAs per deduped segment.
    Sums run in label order, as a Python loop over the labels adds them.
    """
    if not labels:
        raise EmptyDataset("no labels")
    table = LabelTable.of(labels)
    n_questions = len(table)
    owner = table.seg_owner
    n_segments = owner.size
    length = table.seg_end - table.seg_start
    duration = table.duration[owner]

    mid = (table.seg_start + table.seg_end) / 2.0
    third = duration / 3.0
    left = mid < third
    middle = ~left & (mid < 2.0 * third)
    n_left, n_middle = int(np.count_nonzero(left)), int(np.count_nonzero(middle))
    pos_counts = {"left": n_left, "middle": n_middle, "right": n_segments - n_left - n_middle}

    k, count = np.unique(np.diff(table.seg_bounds), return_counts=True)
    segs_per_qa = dict(zip(k.tolist(), count.tolist()))

    # a video seen again keeps its first position and takes the last duration
    videos = dict(zip(table.video_ids, table.duration.tolist()))

    owners = owner.tolist()
    starts, ends = table.seg_start.tolist(), table.seg_end.tolist()
    by_video: dict[str, list[int]] = {}
    for seg, row in enumerate(owners):
        by_video.setdefault(table.video_ids[row], []).append(seg)
    qas_per_seg: dict[int, int] = {}
    for segs in by_video.values():
        clusters = _dedup_segments([starts[i] for i in segs], [ends[i] for i in segs])
        for cluster in clusters:
            n_qas = len({owners[segs[i]] for i in cluster})
            qas_per_seg[n_qas] = qas_per_seg.get(n_qas, 0) + 1
    n_dedup = sum(qas_per_seg.values())

    return DatasetStats(
        n_videos=len(videos),
        n_questions=n_questions,
        n_segments=n_segments,
        mean_seg_dur=ordered_sum(length) / n_segments,
        mean_vid_dur=sum(videos.values()) / len(videos),
        mean_ratio=ordered_sum(length / duration) / n_segments,
        position_hist={b: pos_counts[b] / n_segments for b in POSITION_BINS},
        segs_per_qa_hist={k: v / n_questions for k, v in sorted(segs_per_qa.items())},
        qas_per_seg_hist={k: v / n_dedup for k, v in sorted(qas_per_seg.items())},
    )


def stats_to_dict(stats: DatasetStats) -> dict:
    return {
        "n_videos": stats.n_videos,
        "n_questions": stats.n_questions,
        "n_segments": stats.n_segments,
        "mean_seg_dur": stats.mean_seg_dur,
        "mean_vid_dur": stats.mean_vid_dur,
        "mean_ratio": stats.mean_ratio,
        "position_hist": dict(stats.position_hist),
        "segs_per_qa_hist": {str(k): v for k, v in stats.segs_per_qa_hist.items()},
        "qas_per_seg_hist": {str(k): v for k, v in stats.qas_per_seg_hist.items()},
    }


def write_stats_json(path: str | Path, stats: DatasetStats) -> None:
    rewrite_text(path, json.dumps(stats_to_dict(stats), indent=2, sort_keys=True) + "\n")


def write_stats_svgs(out_dir: str | Path, stats: DatasetStats) -> list[Path]:
    """Emit the three distribution panels as standalone SVG files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    panels = (
        ("positions.svg", pie_chart(stats.position_hist, "Segment position in video")),
        (
            "segs_per_qa.svg",
            bar_chart(
                {str(k): v for k, v in stats.segs_per_qa_hist.items()},
                "Segments per question",
                y_label="fraction of QAs",
            ),
        ),
        (
            "qas_per_seg.svg",
            bar_chart(
                {str(k): v for k, v in stats.qas_per_seg_hist.items()},
                "Questions per segment",
                y_label="fraction of segments",
            ),
        ),
    )
    for name, svg in panels:
        p = out / name
        rewrite_text(p, svg)
        files.append(p)
    return files
