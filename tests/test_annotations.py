import csv
import json
import re
import tempfile
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvqa import annotations
from gvqa.annotations import (
    CSV_COLUMNS,
    POSITION_BINS,
    DatasetStats,
    EmptyDataset,
    ParseError,
    ValidationError,
    compute_stats,
    load_labels,
    save_labels,
    stats_to_dict,
    write_stats_json,
    write_stats_svgs,
)
from gvqa.metrics import GroundingLabel, LabelTable, open_text
from gvqa.temporal import TemporalSegment, VideoExtent, iou


CSV_HEADER = "question_id,video_id,duration_s,answer_index,segments\n"


def write_csv(tmp_path, body, name="labels.csv"):
    p = tmp_path / name
    p.write_text(CSV_HEADER + body, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_single_row_single_segment(self, tmp_path):
        p = write_csv(tmp_path, "q1,v1,42.0,2,3.5:10.2\n")
        labels = load_labels(p)
        assert set(labels) == {"q1"}
        lab = labels["q1"]
        assert lab.video_id == "v1"
        assert lab.extent.duration == 42.0
        assert lab.answer_index == 2
        assert len(lab.segments) == 1
        assert (lab.segments[0].start, lab.segments[0].end) == (3.5, 10.2)

    def test_multi_segment_cell(self, tmp_path):
        p = write_csv(tmp_path, "q1,v1,42.0,0,1:4;20:26\n")
        lab = load_labels(p)["q1"]
        assert len(lab.segments) == 2
        assert lab.segments[1].start == 20.0

    def test_segment_past_video_end_rejected(self, tmp_path):
        p = write_csv(tmp_path, "q1,v1,42.0,0,45:50.0\n")
        with pytest.raises(ValidationError, match="labels.csv:2"):
            load_labels(p)

    def test_inverted_segment_rejected_with_line(self, tmp_path):
        p = write_csv(tmp_path, "q1,v1,42.0,0,1:4\nq2,v1,42.0,1,9:6\n")
        with pytest.raises(ValidationError, match="labels.csv:3"):
            load_labels(p)

    def test_bad_number_is_parse_error(self, tmp_path):
        p = write_csv(tmp_path, "q1,v1,forty,0,1:4\n")
        with pytest.raises(ParseError):
            load_labels(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("")
        with pytest.raises(ParseError) as exc:
            load_labels(p)
        assert str(exc.value) == f"{p}: empty file"

    def test_malformed_segment_cell(self, tmp_path):
        p = write_csv(tmp_path, "q1,v1,42.0,0,1-4\n")
        with pytest.raises(ParseError):
            load_labels(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("question_id,video_id,duration_s\nq1,v1,42.0\n")
        with pytest.raises(ParseError, match="missing columns"):
            load_labels(p)

    def test_duplicate_qid(self, tmp_path):
        p = write_csv(tmp_path, "q1,v1,42.0,0,1:4\nq1,v1,42.0,0,2:5\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_labels(p)

    def test_unknown_extension(self, tmp_path):
        p = tmp_path / "labels.yaml"
        p.write_text("x")
        with pytest.raises(ParseError):
            load_labels(p)


class TestLoadJson:
    def test_round_trip_json(self, tmp_path):
        p = tmp_path / "labels.json"
        p.write_text(json.dumps([
            {"question_id": "q1", "video_id": "v1", "duration_s": 30.0,
             "answer_index": 1, "segments": [[2.0, 8.0], [12.0, 14.0]]},
        ]))
        lab = load_labels(p)["q1"]
        assert len(lab.segments) == 2

    def test_json_string_segments_accepted(self, tmp_path):
        p = tmp_path / "labels.json"
        p.write_text(json.dumps([
            {"question_id": "q1", "video_id": "v1", "duration_s": 30.0,
             "answer_index": 1, "segments": "2:8"},
        ]))
        assert load_labels(p)["q1"].segments[0].end == 8.0

    def test_non_numeric_segment_pair_names_its_row(self, tmp_path):
        p = tmp_path / "labels.json"
        p.write_text(json.dumps([
            {"question_id": "q1", "video_id": "v1", "duration_s": 30.0,
             "answer_index": 1, "segments": [[2.0, 8.0]]},
            {"question_id": "q2", "video_id": "v1", "duration_s": 30.0,
             "answer_index": 1, "segments": [["a", 2]]},
        ]))
        with pytest.raises(ParseError,
                           match=r"^labels.json:row 1: non-numeric segment \['a', 2\]$"):
            load_labels(p)

    def test_json_not_array(self, tmp_path):
        p = tmp_path / "labels.json"
        p.write_text('{"q1": {}}')
        with pytest.raises(ParseError):
            load_labels(p)

    def test_json_bad_syntax(self, tmp_path):
        p = tmp_path / "labels.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_labels(p)

    @pytest.mark.parametrize("column", ["question_id", "video_id"])
    @pytest.mark.parametrize("value, text", [
        ("q7", "q7"), (7, "7"), (None, "null"), (True, "true"), (False, "false"),
        (7.0, "7.0"), ([7], "[7]"), ({"id": 7}, '{"id": 7}'),
    ])
    def test_json_id_is_a_string_or_an_integer(self, tmp_path, column, value, text):
        # a JSON integer id reads as its digits; null, a bool, a float or a
        # container is refused at its row and column, not read through str()
        row = {"question_id": "q1", "video_id": "v1", "duration_s": 30.0,
               "answer_index": 0, "segments": [[2.0, 8.0]]}
        p = tmp_path / "labels.json"
        p.write_text(json.dumps([row, {**row, "question_id": "q2", column: value}]))
        if isinstance(value, str) or type(value) is int:
            table = load_labels(p)
            ids = table.question_ids if column == "question_id" else table.video_ids
            assert ids[1] == text
        else:
            with pytest.raises(ParseError, match=rf"^labels.json:row 1: {column} "
                                                 rf"{re.escape(text)} is not a string or "
                                                 rf"an integer$"):
                load_labels(p)

    def test_json_row_validation_names_row(self, tmp_path):
        p = tmp_path / "labels.json"
        p.write_text(json.dumps([
            {"question_id": "q1", "video_id": "v1", "duration_s": 10.0,
             "answer_index": 0, "segments": [[5.0, 15.0]]},
        ]))
        with pytest.raises(ValidationError, match="row 0"):
            load_labels(p)


def make_label(qid, vid, dur, segs, ans=0):
    return GroundingLabel(
        question_id=qid,
        video_id=vid,
        extent=VideoExtent(dur),
        segments=tuple(TemporalSegment(a, b) for a, b in segs),
        answer_index=ans,
    )


# --- stats on a corpus small enough to verify by hand ------------------------
#
# v1 (30s): q1 seg [0,6]   midpoint 3  -> left,   ratio 0.2, len 6
#           q2 seg [1,7]   midpoint 4  -> left,   ratio 0.2, len 6
#                IoU([0,6],[1,7]) = 5/7 > 0.5 -> same deduped segment
#           q3 seg [24,30] midpoint 27 -> right,  ratio 0.2, len 6
# v2 (60s): q4 segs [24,36] (mid 30, middle, 0.2, len 12)
#                 and [0,6] (mid 3, left, 0.1, len 6)
#
# counts: 2 videos, 4 questions, 5 segments
# mean_seg_dur  = (6+6+6+12+6)/5 = 7.2
# mean_vid_dur  = 45.0
# mean_ratio    = (0.2+0.2+0.2+0.2+0.1)/5 = 0.18
# positions     = left 3/5, middle 1/5, right 1/5
# segs_per_qa   = {1: 3/4, 2: 1/4}
# qas_per_seg   : v1 clusters {q1,q2}, {q3}; v2 clusters {q4}, {q4}
#                 -> sizes [2,1,1,1] -> {1: 3/4, 2: 1/4}

@pytest.fixture
def corpus():
    return {
        "q1": make_label("q1", "v1", 30.0, [(0, 6)]),
        "q2": make_label("q2", "v1", 30.0, [(1, 7)]),
        "q3": make_label("q3", "v1", 30.0, [(24, 30)]),
        "q4": make_label("q4", "v2", 60.0, [(24, 36), (0, 6)]),
    }


def test_stats_hand_corpus(corpus):
    s = compute_stats(corpus)
    assert (s.n_videos, s.n_questions, s.n_segments) == (2, 4, 5)
    assert s.mean_seg_dur == pytest.approx(7.2)
    assert s.mean_vid_dur == pytest.approx(45.0)
    assert s.mean_ratio == pytest.approx(0.18)
    assert s.position_hist == pytest.approx({"left": 0.6, "middle": 0.2, "right": 0.2})
    assert s.segs_per_qa_hist == pytest.approx({1: 0.75, 2: 0.25})
    assert s.qas_per_seg_hist == pytest.approx({1: 0.75, 2: 0.25})


def test_stats_single_whole_video_label():
    labels = {"q": make_label("q", "v", 12.0, [(0, 12)])}
    s = compute_stats(labels)
    assert s.mean_ratio == pytest.approx(1.0)
    assert s.position_hist["middle"] == 1.0


def test_stats_segment_ratio_underflowing_to_zero():
    # a valid label whose length / duration rounds to 0
    labels = {"q": make_label("q", "v", 2.0, [(0.0, 5e-324)])}
    s = compute_stats(labels)
    assert s.mean_ratio == 0.0
    assert s.mean_seg_dur == 5e-324


def test_stats_empty():
    with pytest.raises(EmptyDataset):
        compute_stats({})


def test_dedup_requires_strict_iou():
    # IoU([0,4],[2,6]) = 2/6 = 1/3 < 0.5: distinct segments
    labels = {
        "a": make_label("a", "v", 10.0, [(0, 4)]),
        "b": make_label("b", "v", 10.0, [(2, 6)]),
    }
    s = compute_stats(labels)
    assert s.qas_per_seg_hist == {1: 1.0}


def test_dedup_chains_through_representative():
    # [0,10] vs [1,11]: IoU 9/11 > 0.5 joins; [9,19] vs rep [0,10]: IoU 1/19 stays out
    labels = {
        "a": make_label("a", "v", 20.0, [(0, 10)]),
        "b": make_label("b", "v", 20.0, [(1, 11)]),
        "c": make_label("c", "v", 20.0, [(9, 19)]),
    }
    s = compute_stats(labels)
    assert s.qas_per_seg_hist == pytest.approx({1: 0.5, 2: 0.5})


def test_round_trip_stats_identical(tmp_path, corpus):
    for name in ("out.csv", "out.json"):
        save_labels(tmp_path / name, corpus)
        back = load_labels(tmp_path / name)
        assert stats_to_dict(compute_stats(back)) == stats_to_dict(compute_stats(corpus))


def test_save_labels_refuses_an_unknown_suffix(tmp_path, corpus):
    p = tmp_path / "out.yaml"
    with pytest.raises(ParseError) as exc:
        save_labels(p, corpus)
    assert str(exc.value) == f"{p}: unsupported extension (want .csv or .json)"
    assert not p.exists()


@st.composite
def random_corpus(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = {}
    for i in range(n):
        vid = f"v{draw(st.integers(0, 3))}"
        dur = float(draw(st.integers(min_value=10, max_value=100)))
        n_segs = draw(st.integers(1, 3))
        segs = []
        for _ in range(n_segs):
            a = draw(st.floats(min_value=0, max_value=dur - 1))
            b = draw(st.floats(min_value=a + 0.5, max_value=dur))
            segs.append((a, b))
        labels[f"q{i}"] = make_label(f"q{i}", vid, dur, segs)
    return labels


@given(random_corpus())
@settings(max_examples=30, deadline=None)
def test_stats_invariants_random(labels):
    # same-video questions must share one duration for the fixture to be valid
    by_vid = {}
    for lab in labels.values():
        by_vid.setdefault(lab.video_id, lab.extent.duration)
        if by_vid[lab.video_id] != lab.extent.duration:
            return
    s = compute_stats(labels)
    assert abs(sum(s.position_hist.values()) - 1.0) < 1e-9
    assert abs(sum(s.segs_per_qa_hist.values()) - 1.0) < 1e-9
    assert abs(sum(s.qas_per_seg_hist.values()) - 1.0) < 1e-9
    assert 0.0 < s.mean_ratio <= 1.0
    assert s.n_segments >= s.n_questions
    # deduped segment clusters cover every (question, segment) incidence
    assert sum(k * v for k, v in s.qas_per_seg_hist.items()) > 0


def test_stats_json_and_svgs(tmp_path, corpus):
    s = compute_stats(corpus)
    write_stats_json(tmp_path / "stats.json", s)
    blob = json.loads((tmp_path / "stats.json").read_text())
    assert blob["n_videos"] == 2
    assert blob["segs_per_qa_hist"]["2"] == pytest.approx(0.25)
    files = write_stats_svgs(tmp_path / "plots", s)
    assert len(files) == 3
    for f in files:
        text = f.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")


# --- the bulk loader against row-by-row GroundingLabel construction ------------
#
# The reference reads a file the way load_labels did before labels became a
# table: one _build_label per row in file order, then the duplicate check.
# load_labels must accept exactly the files it accepts, with the same labels
# in the same order, and raise the same exception with the same message
# (file:line or row i) for the first bad row. A CSV file it accepts must
# also load in bulk alone: the row pass only names the first bad line.

def reference_load(path):
    labels = {}

    def add(row, where):
        label = annotations._build_label(row, where)
        if label.question_id in labels:
            raise ValidationError(f"{where}: duplicate question_id {label.question_id!r}")
        labels[label.question_id] = label

    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            missing = set(CSV_COLUMNS) - set(header)
            if missing:
                raise ParseError(f"{path}: header missing columns {sorted(missing)}")
            for cells in reader:
                where = f"{path.name}:{reader.line_num}"
                if not cells:
                    continue
                # every row has the header's cell count; a repeated column
                # name reads its last cell
                if len(cells) != len(header):
                    raise ParseError(f"{where}: {len(cells)} cells, "
                                     f"the header has {len(header)}")
                add(dict(zip(header, cells)), where)
    else:
        raw = json.loads(path.read_text(encoding="utf-8"))
        for i, row in enumerate(raw):
            if not isinstance(row, dict):
                raise ParseError(f"{path.name}:row {i}: not an object")
            add(row, f"{path.name}:row {i}")
    if not labels:
        raise ParseError(f"{path}: no rows")
    return labels


def outcome(fn, arg):
    try:
        result = fn(arg)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return "ok", list(result.items()) if isinstance(result, Mapping) else result


def assert_loads_like_reference(path):
    got = outcome(load_labels, path)
    assert got == outcome(reference_load, path)
    if got[0] == "ok":
        assert isinstance(load_labels(path), LabelTable)
        if path.suffix == ".csv":
            # the same table from the bulk pass alone
            with mock.patch.object(annotations, "_build_label", None):
                assert outcome(load_labels, path) == got
    return got


def write_rows(tmp_dir, rows, header=",".join(CSV_COLUMNS)):
    path = Path(tmp_dir) / "labels.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        csv.writer(fh).writerows(rows)
    return path


EDGE = 30.0 + 1e-9
ABOVE_EDGE = float(np.nextafter(EDGE, np.inf))


@pytest.mark.parametrize("rows, want", [
    # accepted: the end may reach duration + 1e-9, and numbers may have
    # whitespace around them
    ([["q1", "v", "30.0", "0", f"0:{EDGE!r}"]], "ok"),
    # "1_0" is Python's literal syntax, not a number of the file format
    ([["q1", "v", "1_0", "1_0", " 1 : 2 ;3:4;"]],
     (ParseError, "labels.csv:2: numbers must be ASCII")),
    ([["q1", "v", " 2", " 2", "0:1"]], "ok"),
    # a row has the header's cell count
    ([["q1", "v", "30", "0", "1:2", "extra"]],
     (ParseError, "labels.csv:2: 6 cells, the header has 5")),
    # rejected at the row that breaks a rule
    ([["q1", "v", "30.0", "0", f"0:{ABOVE_EDGE!r}"]], (ValidationError, "labels.csv:2")),
    ([["q1", "v", "30", "2.0", "1:2"]], (ParseError, "labels.csv:2")),
    ([["q1", "v", "nan", "0", "1:2"]], (ValidationError, "labels.csv:2")),
    ([["q1", "v", "inf", "0", "1:2"]], (ValidationError, "labels.csv:2")),
    ([["q1", "v", "30", "0", "1:nan"]], (ValidationError, "labels.csv:2")),
    ([["q1", "v", "30", "0", "-inf:2"]], (ValidationError, "labels.csv:2")),
    ([["q1", "v", "30", "0", "1:2"], ["q2", "v", "30", "0"]], (ParseError, "labels.csv:3")),
    ([["q1", "v", "30", "0", "1:2"], ["q1", "v", "30", "1", "3:4"]],
     (ValidationError, "labels.csv:3: duplicate")),
    # a validation error on row 2 comes before a parse error on row 5
    ([["q1", "v", "30", "0", "1:2"], ["q2", "v", "30", "0", "5:4"],
      ["q3", "v", "30", "0", "1:2"], ["q4", "v", "30", "0", "1:2"],
      ["q5", "v", "thirty", "0", "1:2"]], (ValidationError, "labels.csv:3")),
    ([["q1", "v", "30", str(2**63), "1:2"]], (ValidationError, "labels.csv:2")),
    # an empty segment chunk, as the bulk pass refuses it
    ([["q1", "v", "30", "0", "1:2;3:4;"]],
     (ParseError, "labels.csv:2: segments '1:2;3:4;': a segment is not 'start:end'")),
    # an Arabic-Indic digit, which float() would read as 1
    ([["q1", "v", "\u0661", "0", "0:1"]], (ParseError, "labels.csv:2: numbers must be ASCII")),
    ([["q1", "v", "2e1", "0", " 0 : 1e1 "]], "ok"),
])
def test_csv_edge_rows_load_like_reference(tmp_path, rows, want):
    got = assert_loads_like_reference(write_rows(tmp_path, rows))
    if want == "ok":
        assert got[0] == "ok"
    else:
        assert got[0] is want[0] and got[1].startswith(want[1])


def test_csv_repeated_column_and_blank_lines_load_like_reference(tmp_path):
    header = "question_id,video_id,duration_s,answer_index,segments,duration_s"
    path = write_rows(tmp_path, [["q1", "v", "bad", "0", "1:2", "30"], [],
                                 ["q2", "v", "bad", "1", "3:4", "30"]], header)
    assert assert_loads_like_reference(path)[0] == "ok"


@pytest.mark.parametrize("header, cells", [
    # a column the reader does not use, left off the row
    ("question_id,video_id,duration_s,answer_index,segments,notes", ["q1", "v", "30", "0", "1:2"]),
    # question_id last and left off: padded with None, it would read as
    # question 'None'
    ("segments,answer_index,duration_s,video_id,question_id", ["1:2", "0", "30", "v"]),
])
def test_csv_short_row_is_refused_at_its_line(tmp_path, header, cells):
    path = write_rows(tmp_path, [cells], header)
    got = assert_loads_like_reference(path)
    assert got == (ParseError, f"labels.csv:2: {len(cells)} cells, the header has {len(cells) + 1}")


def test_valid_file_is_read_in_bulk(tmp_path, monkeypatch, corpus):
    for name in ("labels.csv", "labels.json"):
        save_labels(tmp_path / name, corpus)
    # JSON is read row by row
    assert dict(load_labels(tmp_path / "labels.json")) == corpus
    monkeypatch.setattr(annotations, "_build_label", None)
    assert dict(load_labels(tmp_path / "labels.csv")) == corpus


def _table_columns(table):
    return (table.question_ids, table.video_ids, table.duration.tolist(),
            table.answer.tolist(), table.seg_start.tolist(), table.seg_end.tolist(),
            table.seg_owner.tolist())


@pytest.mark.parametrize("cell, bulk", [
    ("1:2;3:4;10:12.5", True),     # several segments
    (" 1 : 2 ", True),             # whitespace around a bound
    ("1:2;\n3:4", True),           # a quoted cell across two lines
    ("0:2e1", True),               # an exponent
    ("1:2;", False),               # an empty chunk: ParseError at its line
    ("1:2; ;3:4", False),          # a blank chunk: ParseError at its line
    ("1:2:3", False),              # a stray colon: ParseError at its line
    ("a:2", False),                # a non-numeric bound: ParseError at its line
    ("1_0:20", False),             # a digit-group underscore: ParseError at its line
    ("", False),                   # no segment: ParseError at its line
])
def test_segment_cells_read_alike_in_bulk_and_row_by_row(tmp_path, monkeypatch, cell, bulk):
    # the cell sits between two plain rows, so a line number after it counts
    path = write_rows(tmp_path, [["q1", "v", "30", "0", "1:2"], ["q2", "v", "30", "1", cell],
                                 ["q3", "w", "30", "2", "5:6"]])

    def rows(p):
        with open_text(p) as fh:
            reader = csv.reader(fh)
            return _table_columns(annotations._read_rows(
                annotations._csv_rows(reader, next(reader), p.name)))

    want = outcome(rows, path)
    assert outcome(lambda p: _table_columns(load_labels(p)), path) == want
    if bulk:
        monkeypatch.setattr(annotations, "_build_label", None)
        assert _table_columns(load_labels(path)) == want[1]
    else:  # refused by both passes: named at its line
        assert want[0] is ParseError and want[1].startswith("labels.csv:3: ")


CSV_DURATIONS = ["30.0", "30.0", "12.5", "7", "1_0", " 2", "2e1", "\u0661", "2.0", "nan",
                 "inf", "-inf", "0", "-3", "1e309", "forty", ""]
CSV_ANSWERS = ["0", "0", "3", "1_0", " 2", "\u0661", "2.0", "-1", "x", "", str(2**63),
               str(2**63 - 1)]


def _duration_value(text):
    try:
        value = float(text)
    except ValueError:
        return 30.0
    return value if np.isfinite(value) and value > 0 else 30.0


@st.composite
def segment_cells(draw, text_duration):
    d = _duration_value(text_duration)
    a = draw(st.floats(0.0, d, allow_nan=False))
    b = draw(st.floats(a, d, allow_nan=False))
    return draw(st.sampled_from([
        f"{a!r}:{b!r}", f"{a!r}:{b!r}", f"{a!r}:{b!r};{b!r}:{d!r}",
        f"0:{d + 1e-9!r}", f"0:{float(np.nextafter(d + 1e-9, np.inf))!r}",
        f"{b!r}:{a!r}", f"{-a - 1.0!r}:{b!r}", "nan:1", "0:inf", "1:2;", " 1 : 2 ",
        "1-4", "", ";", "a:b", "1:2:3", "0:1_0", "\u0661:2",
    ]))


@st.composite
def csv_bodies(draw):
    rows = []
    for i in range(draw(st.integers(1, 8))):
        qid = f"q{i}"
        if i and draw(st.integers(0, 7)) == 0:
            qid = f"q{draw(st.integers(0, i - 1))}"
        duration = draw(st.sampled_from(CSV_DURATIONS))
        row = [qid, f"v{i % 3}", duration, draw(st.sampled_from(CSV_ANSWERS)),
               draw(segment_cells(duration))]
        shape = draw(st.sampled_from(["full"] * 8 + ["short", "long"]))
        rows.append(row[:-1] if shape == "short" else row + ["x"] if shape == "long" else row)
    return rows


@given(csv_bodies())
@settings(max_examples=200, deadline=None)
def test_csv_loads_like_reference(rows):
    with tempfile.TemporaryDirectory() as tmp:
        assert_loads_like_reference(write_rows(tmp, rows))


JSON_DURATIONS = [30.0, 30.0, 12.5, 7, "30.0", " 2", "1_0", "\u0661", float("nan"),
                  float("inf"), 0, -3, None, True, False, 10**400, "forty", [1]]
JSON_ANSWERS = [0, 0, 3, "2", " 2", "1_0", "\u0661", "2.0", 2.7, -1, None, True, 2**63,
                float("inf"), float("nan")]


@st.composite
def json_rows(draw):
    rows = []
    for i in range(draw(st.integers(1, 8))):
        qid = draw(st.sampled_from([f"q{i}", f"q{i}", f"q{i}", i, "q0", None, True]))
        duration = draw(st.sampled_from(JSON_DURATIONS))
        d = duration if isinstance(duration, (int, float)) else 30.0
        d = _duration_value(str(d))
        a = draw(st.floats(0.0, d, allow_nan=False))
        b = draw(st.floats(a, d, allow_nan=False))
        segments = draw(st.sampled_from([
            [[a, b]], [[a, b]], [[a, b], [0.0, d]], f"{a!r}:{b!r}", [[0.0, d + 1e-9]],
            [[0.0, float(np.nextafter(d + 1e-9, np.inf))]], [[b, a]], [[str(a), str(b)]],
            [[None, b]], [[False, True]], [[0, 10**400]], [["1_0", d]], "1:2;", [[a]],
            [[a, b, d]], ["12"], [], 5,
        ]))
        row = {"question_id": qid, "video_id": "v", "duration_s": duration,
               "answer_index": draw(st.sampled_from(JSON_ANSWERS)), "segments": segments}
        shape = draw(st.sampled_from(["full"] * 10 + ["drop", "list"]))
        if shape == "drop":
            del row[draw(st.sampled_from(CSV_COLUMNS))]
        rows.append(list(row.values()) if shape == "list" else row)
    return rows


@given(json_rows())
@settings(max_examples=200, deadline=None)
def test_json_loads_like_reference(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        assert_loads_like_reference(path)


# --- array stats and writer against today's per-label loops ----------------------

def reference_stats(labels):
    """compute_stats as a loop over labels and segments, with temporal.iou."""
    def position_bin(seg, duration):
        mid = (seg.start + seg.end) / 2.0
        third = duration / 3.0
        return "left" if mid < third else "middle" if mid < 2.0 * third else "right"

    videos, by_video = {}, {}
    n_segments, seg_dur_sum, ratio_sum = 0, 0.0, 0.0
    pos_counts = dict.fromkeys(POSITION_BINS, 0)
    segs_per_qa = {}
    for lab in labels.values():
        videos[lab.video_id] = lab.extent.duration
        k = len(lab.segments)
        segs_per_qa[k] = segs_per_qa.get(k, 0) + 1
        for seg in lab.segments:
            n_segments += 1
            seg_dur_sum += seg.length
            ratio_sum += seg.length / lab.extent.duration
            pos_counts[position_bin(seg, lab.extent.duration)] += 1
            by_video.setdefault(lab.video_id, []).append((lab.question_id, seg))
    qas_per_seg = {}
    for entries in by_video.values():
        clusters = []
        for i, (_, seg) in enumerate(entries):
            for cluster in clusters:
                if iou(seg, entries[cluster[0]][1]) > 0.5:
                    cluster.append(i)
                    break
            else:
                clusters.append([i])
        for cluster in clusters:
            n_qas = len({entries[i][0] for i in cluster})
            qas_per_seg[n_qas] = qas_per_seg.get(n_qas, 0) + 1
    n_dedup = sum(qas_per_seg.values())
    return DatasetStats(
        n_videos=len(videos),
        n_questions=len(labels),
        n_segments=n_segments,
        mean_seg_dur=seg_dur_sum / n_segments,
        mean_vid_dur=sum(videos.values()) / len(videos),
        mean_ratio=ratio_sum / n_segments,
        position_hist={b: pos_counts[b] / n_segments for b in POSITION_BINS},
        segs_per_qa_hist={k: v / len(labels) for k, v in sorted(segs_per_qa.items())},
        qas_per_seg_hist={k: v / n_dedup for k, v in sorted(qas_per_seg.items())},
    )


def reference_save(path, labels):
    """save_labels as a loop over label objects."""
    def base(lab):
        return {"question_id": lab.question_id, "video_id": lab.video_id,
                "duration_s": lab.extent.duration, "answer_index": lab.answer_index}

    if path.suffix == ".json":
        rows = [base(lab) | {"segments": [[s.start, s.end] for s in lab.segments]}
                for lab in labels.values()]
        path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    else:
        rows = [base(lab) | {"segments": ";".join(f"{s.start!r}:{s.end!r}" for s in lab.segments)}
                for lab in labels.values()]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
            writer.writeheader()
            writer.writerows(rows)


@st.composite
def float_corpus(draw):
    """Labels with float durations, shared and repeated videos, overlapping segments."""
    labels = {}
    for i in range(draw(st.integers(1, 24))):
        duration = draw(st.floats(1e-3, 1e4))
        segs = []
        for _ in range(draw(st.integers(1, 4))):
            a = draw(st.floats(0.0, duration, exclude_max=True))
            b = draw(st.floats(a, duration, exclude_min=True))
            segs.append((a, b))
        vid = f"v{draw(st.integers(0, 5))}"
        labels[f"q{i}"] = make_label(f"q{i}", vid, duration, segs, draw(st.integers(0, 4)))
    return labels


@given(float_corpus())
@settings(max_examples=100, deadline=None)
def test_stats_and_writer_bit_identical_to_loops(labels):
    # DatasetStats' own checks may refuse a corpus (a subnormal segment makes
    # mean_ratio 0.0): then both must refuse it alike
    want = outcome(reference_stats, labels)
    assert outcome(compute_stats, labels) == want
    assert outcome(compute_stats, LabelTable.of(labels)) == want
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("labels.csv", "labels.json"):
            ref, got = Path(tmp) / f"ref-{name}", Path(tmp) / name
            reference_save(ref, labels)
            save_labels(got, LabelTable.of(labels))
            assert got.read_bytes() == ref.read_bytes()
            assert list(load_labels(got).items()) == list(labels.items())
