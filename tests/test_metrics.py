import json
import math
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvqa.metrics import (
    GQA_IOP_THRESHOLD,
    MAX_ANSWER_INDEX,
    PROTOCOL_THRESHOLDS,
    DuplicatePrediction,
    GroundingLabel,
    LabelTable,
    MetricReport,
    Prediction,
    PredictionTable,
    UnknownQuestionId,
    best_overlap,
    evaluate,
    load_predictions,
    random_baseline,
    report_to_dict,
    rewrite_text,
    round_percent,
    save_predictions,
    write_report_csv,
    write_report_json,
)
from gvqa.temporal import TemporalSegment, VideoExtent, iop, iou


def label(qid, duration, segs, ans=0, vid="v0"):
    return GroundingLabel(
        question_id=qid,
        video_id=vid,
        extent=VideoExtent(duration),
        segments=tuple(TemporalSegment(a, b) for a, b in segs),
        answer_index=ans,
    )


def pred(qid, ans, a, b):
    return Prediction(question_id=qid, answer_index=ans, window=TemporalSegment(a, b))


# --- four-question fixture with every metric worked out by hand ------------
#
# q1: answer right, window [2,6] vs gt [4,10] on 20s video.
#     IoP = 2/4 = 0.5, IoU = 2/8 = 0.25. GQA hit (IoP >= 0.5).
# q2: answer right, window [0,10] vs gt [8,9].
#     IoP = 1/10 = 0.1, IoU = 0.1. No GQA.
# q3: answer wrong, window [5,7] vs gt [5,7]. IoP = IoU = 1.0. No GQA.
# q4: answer right, two segments [0,2] and [10,14]; window [9,13].
#     Against [0,2]: 0. Against [10,14]: inter 3, IoP 3/4, IoU 3/5.
#     best IoP 0.75 -> GQA hit.
#
# Acc@QA = 3/4 = 75.0. Acc@GQA = 2/4 = 50.0.
# mIoP = (0.5 + 0.1 + 1.0 + 0.75)/4 = 0.5875 -> 58.75
# mIoU = (0.25 + 0.1 + 1.0 + 0.6)/4 = 0.4875 -> 48.75
# IoP@0.3: q1, q3, q4 -> 75.0. IoP@0.5: q1, q3, q4 -> 75.0.
# IoU@0.3: q3, q4 -> 50.0. IoU@0.5: q3, q4 -> 50.0.

@pytest.fixture
def fixture_labels():
    return {
        "q1": label("q1", 20.0, [(4, 10)], ans=2),
        "q2": label("q2", 20.0, [(8, 9)], ans=1),
        "q3": label("q3", 20.0, [(5, 7)], ans=0),
        "q4": label("q4", 20.0, [(0, 2), (10, 14)], ans=3),
    }


@pytest.fixture
def fixture_preds():
    return [
        pred("q1", 2, 2, 6),
        pred("q2", 1, 0, 10),
        pred("q3", 4, 5, 7),
        pred("q4", 3, 9, 13),
    ]


def test_evaluate_hand_fixture(fixture_labels, fixture_preds):
    r = evaluate(fixture_preds, fixture_labels)
    assert r.n_questions == 4
    assert r.acc_qa == pytest.approx(75.0)
    assert r.acc_gqa == pytest.approx(50.0)
    assert r.m_iop == pytest.approx(58.75)
    assert r.m_iou == pytest.approx(48.75)
    assert r.iop_at[0.3] == pytest.approx(75.0)
    assert r.iop_at[0.5] == pytest.approx(75.0)
    assert r.iou_at[0.3] == pytest.approx(50.0)
    assert r.iou_at[0.5] == pytest.approx(50.0)
    assert r.warnings == []


def test_best_overlap_multi_segment(fixture_labels):
    lab = fixture_labels["q4"]
    w = TemporalSegment(9, 13)
    assert best_overlap(w, lab, "iop") == pytest.approx(0.75)
    assert best_overlap(w, lab, "iou") == pytest.approx(0.6)
    with pytest.raises(ValueError):
        best_overlap(w, lab, "dice")


def test_missing_prediction_scored_zero(fixture_labels, fixture_preds):
    r = evaluate(fixture_preds[:3], fixture_labels)
    assert r.n_questions == 4
    # q4 was a GQA hit; dropping it removes one correct answer and one hit
    assert r.acc_qa == pytest.approx(50.0)
    assert r.acc_gqa == pytest.approx(25.0)
    assert r.m_iop == pytest.approx((0.5 + 0.1 + 1.0) / 4 * 100)
    assert len(r.warnings) == 1
    assert "no prediction" in r.warnings[0]


def test_unknown_question_id(fixture_labels):
    with pytest.raises(UnknownQuestionId):
        evaluate([pred("nope", 0, 0, 1)], fixture_labels)


def test_duplicate_prediction(fixture_labels):
    p = pred("q1", 2, 2, 6)
    with pytest.raises(DuplicatePrediction):
        evaluate([p, p], fixture_labels)


def test_empty_labels_rejected():
    with pytest.raises(ValueError):
        evaluate([], {})


def test_label_segment_outside_video():
    with pytest.raises(ValueError):
        label("bad", 10.0, [(8, 12)])


def test_label_needs_segments():
    with pytest.raises(ValueError):
        GroundingLabel("q", "v", VideoExtent(5.0), (), 0)


def test_label_table_is_a_read_only_mapping(fixture_labels):
    table = LabelTable.of(fixture_labels)
    assert LabelTable.of(table) is table
    assert list(table) == list(fixture_labels) and len(table) == 4
    assert dict(table) == fixture_labels
    assert "q4" in table and "nope" not in table
    with pytest.raises(KeyError):
        table["nope"]
    assert table.seg_owner.tolist() == [0, 1, 2, 3, 3]
    with pytest.raises(ValueError):
        table.seg_start[0] = 1.0


TWO_ROWS = {"question_ids": ["a", "b"], "video_ids": ["v", "v"], "duration": [10.0, 10.0],
            "answer": [0, 1], "seg_start": [1.0, 1.0], "seg_end": [2.0, 5.0],
            "seg_owner": [0, 1]}


@pytest.mark.parametrize("change, rule", [
    ({"question_ids": ["a", "a"]}, "duplicate"),
    ({"video_ids": ["v"]}, "length"),
    ({"duration": [10.0, float("nan")]}, "durations"),
    ({"duration": [10.0, 0.0]}, "durations"),
    ({"answer": [0, -1]}, "negative"),
    ({"answer": [0, 2**63]}, "int64"),
    ({"seg_owner": [1, 0]}, "sorted"),
    ({"seg_owner": [0, 0]}, "at least one segment"),
    ({"seg_start": [1.0, 5.0]}, "start < end"),
    ({"seg_start": [-1.0, 1.0]}, "start"),
    ({"seg_end": [2.0, float("inf")]}, "finite"),
    ({"seg_end": [2.0, 10.0 + 2e-9]}, "outside"),
    ({"seg_end": [2.0]}, "segment columns differ in length"),
])
def test_label_table_checks_every_rule(change, rule):
    LabelTable(**TWO_ROWS)
    with pytest.raises(ValueError, match=rule):
        LabelTable(**(TWO_ROWS | change))


def test_label_table_of_needs_keys_equal_to_ids(fixture_labels):
    with pytest.raises(ValueError, match="holds the label"):
        LabelTable.of({"x": fixture_labels["q1"]})


# --- whole-video grounding: IoP and IoU coincide ----------------------------

def test_random_baseline_iop_equals_iou(fixture_labels):
    preds = random_baseline(fixture_labels, answer_id=0)
    r = evaluate(preds, fixture_labels)
    # prediction spans the whole video, so intersection = gt length and
    # union = prediction length for every question
    assert r.m_iop == pytest.approx(r.m_iou)
    assert r.iop_at[0.3] == pytest.approx(r.iou_at[0.3])
    assert r.iop_at[0.5] == pytest.approx(r.iou_at[0.5])
    # only q3 has answer 0
    assert r.acc_qa == pytest.approx(25.0)


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=25, deadline=None)
def test_random_baseline_property(answer_id, data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    labels = {}
    for i in range(n):
        dur = data.draw(st.floats(min_value=1.0, max_value=100.0))
        a = data.draw(st.floats(min_value=0.0, max_value=dur * 0.9))
        b = data.draw(st.floats(min_value=a + 1e-3, max_value=dur))
        labels[f"q{i}"] = label(f"q{i}", dur, [(a, b)], ans=data.draw(st.integers(0, 4)))
    r = evaluate(random_baseline(labels, answer_id), labels)
    assert r.m_iop == pytest.approx(r.m_iou)
    # Acc@GQA cannot exceed either factor of its conjunction
    assert r.acc_gqa <= r.acc_qa + 1e-9
    assert r.acc_gqa <= r.iop_at[0.5] + 1e-9


# --- array scoring against the per-question loop ----------------------------

def reference_evaluate(preds, labels):
    """evaluate as a loop over questions and segments, with temporal.iop/iou."""
    by_qid = {p.question_id: p for p in preds}
    n_correct = n_gqa = 0
    iop_sum = iou_sum = 0.0
    iop_hits = dict.fromkeys(PROTOCOL_THRESHOLDS, 0)
    iou_hits = dict.fromkeys(PROTOCOL_THRESHOLDS, 0)
    missing = 0
    for qid, lab in labels.items():
        p = by_qid.get(qid)
        if p is None:
            missing += 1
            continue
        correct = p.answer_index == lab.answer_index
        p_iop = max(iop(p.window, seg) for seg in lab.segments)
        p_iou = max(iou(p.window, seg) for seg in lab.segments)
        n_correct += correct
        n_gqa += correct and p_iop >= GQA_IOP_THRESHOLD
        iop_sum += p_iop
        iou_sum += p_iou
        for t in PROTOCOL_THRESHOLDS:
            iop_hits[t] += p_iop >= t
            iou_hits[t] += p_iou >= t
    pct = 100.0 / len(labels)
    return MetricReport(
        acc_qa=n_correct * pct,
        acc_gqa=n_gqa * pct,
        m_iop=iop_sum * pct,
        iop_at={t: iop_hits[t] * pct for t in PROTOCOL_THRESHOLDS},
        m_iou=iou_sum * pct,
        iou_at={t: iou_hits[t] * pct for t in PROTOCOL_THRESHOLDS},
        n_questions=len(labels),
        warnings=[f"{missing} labeled questions had no prediction and were scored zero"]
        if missing else [],
    )


@st.composite
def scored_label_sets(draw):
    """Multi-segment labels and predictions for a drawn subset, in drawn order."""
    labels, preds = {}, []
    for i in range(draw(st.integers(1, 24))):
        duration = draw(st.floats(1e-3, 1e4))
        segs = []
        for _ in range(draw(st.integers(1, 4))):
            a = draw(st.floats(0.0, duration, exclude_max=True))
            segs.append((a, draw(st.floats(a, duration, exclude_min=True))))
        labels[f"q{i}"] = label(f"q{i}", duration, segs, ans=draw(st.integers(0, 3)))
        if draw(st.integers(0, 4)):
            a = draw(st.floats(0.0, 2 * duration, exclude_max=True))
            b = draw(st.floats(a, 2 * duration, exclude_min=True))
            preds.append(pred(f"q{i}", draw(st.integers(0, 3)), a, b))
    return labels, draw(st.permutations(preds))


@given(scored_label_sets())
@settings(max_examples=100, deadline=None)
def test_evaluate_bit_identical_to_loop(case):
    labels, preds = case
    want = reference_evaluate(preds, labels)
    assert evaluate(preds, labels) == want
    assert evaluate(preds, LabelTable.of(labels)) == want


# --- 1ms boolean-grid oracle ------------------------------------------------
#
# With segment endpoints aligned to whole milliseconds, a 1ms boolean mask
# discretizes both intervals exactly, so mask-counting IoP/IoU must agree
# with the closed-form values to float precision.

def test_overlap_against_millisecond_grid_oracle():
    rng = np.random.default_rng(7)
    dur_ms = 30_000
    for _ in range(200):
        a0, a1 = sorted(rng.integers(0, dur_ms, size=2).tolist())
        b0, b1 = sorted(rng.integers(0, dur_ms, size=2).tolist())
        a1 = max(a1, a0 + 1)
        b1 = max(b1, b0 + 1)
        pred_seg = TemporalSegment(a0 / 1000.0, a1 / 1000.0)
        gt_seg = TemporalSegment(b0 / 1000.0, b1 / 1000.0)

        grid = np.arange(dur_ms)
        in_pred = (grid >= a0) & (grid < a1)
        in_gt = (grid >= b0) & (grid < b1)
        inter = float(np.sum(in_pred & in_gt))
        union = float(np.sum(in_pred | in_gt))
        oracle_iop = inter / float(np.sum(in_pred))
        oracle_iou = inter / union

        assert iop(pred_seg, gt_seg) == pytest.approx(oracle_iop, abs=1e-6)
        assert iou(pred_seg, gt_seg) == pytest.approx(oracle_iou, abs=1e-6)


# --- rounding and report files ----------------------------------------------

def test_round_percent_half_up():
    assert round_percent(21.15) == 21.2
    assert round_percent(21.14) == 21.1
    assert round_percent(20.05) == 20.1
    assert round_percent(0.0) == 0.0
    assert round_percent(100.0) == 100.0
    # pathological: one question in three
    assert round_percent(100.0 / 3.0) == 33.3
    assert type(round_percent(7)) is float


def test_rounded_report_keeps_invariants(fixture_labels, fixture_preds):
    r = evaluate(fixture_preds, fixture_labels).rounded()
    assert r.acc_gqa <= min(r.acc_qa, r.iop_at[0.5])
    assert r.iop_at[0.5] <= r.iop_at[0.3]
    assert r.iou_at[0.5] <= r.iou_at[0.3]


def test_report_json_round_trip(tmp_path, fixture_labels, fixture_preds):
    r = evaluate(fixture_preds, fixture_labels)
    p = tmp_path / "report.json"
    write_report_json(p, r)
    write_report_json(tmp_path / "again.json", r)
    assert p.read_bytes() == (tmp_path / "again.json").read_bytes()
    blob = json.loads(p.read_text())
    assert blob["acc_qa"] == 75.0
    assert blob["acc_gqa"] == 50.0
    assert blob["m_iop"] == 58.8  # 58.75 rounds up
    assert blob["m_iou"] == 48.8
    assert blob["iop_at"]["0.3"] == 75.0


def test_report_csv_column_order(tmp_path, fixture_labels, fixture_preds):
    r = evaluate(fixture_preds, fixture_labels)
    p = tmp_path / "report.csv"
    write_report_csv(p, r)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "Acc@QA,Acc@GQA,mIoP,IoP@0.3,IoP@0.5,mIoU,IoU@0.3,IoU@0.5,n"
    assert lines[1] == "75.0,50.0,58.8,75.0,75.0,48.8,50.0,50.0,4"


def test_rewrite_text_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    p = tmp_path / "out.txt"
    rewrite_text(p, "a longer first text\n" * 50)
    rewrite_text(p, "short, \u00b5s\r\n")
    assert p.read_bytes() == "short, \u00b5s\r\n".encode("utf-8")
    rewrite_text(p, "")
    assert p.read_bytes() == b""


@pytest.mark.parametrize("writer", ["predictions", "report_json", "report_csv"])
def test_writers_over_a_longer_file_give_a_fresh_file_bytes(tmp_path, fixture_labels,
                                                            fixture_preds, writer):
    report = evaluate(fixture_preds, fixture_labels)
    write = {"predictions": lambda p: save_predictions(p, fixture_preds),
             "report_json": lambda p: write_report_json(p, report),
             "report_csv": lambda p: write_report_csv(p, report)}[writer]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    write(fresh)
    reused.write_bytes(b"x" * (3 * fresh.stat().st_size))
    write(reused)
    assert reused.read_bytes() == fresh.read_bytes()


def test_prediction_file_round_trip(tmp_path, fixture_preds):
    p = tmp_path / "preds.json"
    save_predictions(p, fixture_preds)
    back = load_predictions(p)
    assert {x.question_id for x in back} == {"q1", "q2", "q3", "q4"}
    by_qid = {x.question_id: x for x in back}
    assert by_qid["q4"].window.start == 9.0
    assert by_qid["q4"].answer_index == 3


def test_prediction_file_bad_entry(tmp_path):
    p = tmp_path / "preds.json"
    p.write_text('{"q1": {"answer": 0, "start": 5.0}}')
    with pytest.raises(ValueError, match="q1"):
        load_predictions(p)


def test_prediction_file_not_object(tmp_path):
    p = tmp_path / "preds.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="JSON object"):
        load_predictions(p)


def test_save_predictions_rejects_a_repeated_question(tmp_path, fixture_preds):
    p = tmp_path / "preds.json"
    repeated = [*fixture_preds, pred("q2", 1, 0, 1), pred("q1", 0, 0, 1)]
    with pytest.raises(DuplicatePrediction) as exc:
        save_predictions(p, repeated)
    assert exc.value.args == ("q2",)
    assert not p.exists()


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.0, 1e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("end", EDGE_VALUES)
@pytest.mark.parametrize("start", EDGE_VALUES)
def test_window_check_agrees_with_temporal_segment(tmp_path, start, end):
    p = tmp_path / "preds.json"
    p.write_text(json.dumps({"q": {"answer": 0, "start": start, "end": end}}))
    try:
        want = TemporalSegment(start, end)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_predictions(p)
        assert str(got.value) == f"{p}: bad prediction for question 'q': {exc}"
    else:
        assert list(load_predictions(p)) == [Prediction("q", 0, want)]


# --- columnar prediction table ------------------------------------------------

def test_prediction_table_is_a_read_only_sequence(fixture_preds):
    table = PredictionTable.of(fixture_preds)
    assert PredictionTable.of(table) is table
    assert len(table) == 4
    assert list(table) == fixture_preds
    assert [table[i] for i in range(len(table))] == fixture_preds
    assert table[-1] == fixture_preds[-1]
    assert type(table[0].answer_index) is int
    with pytest.raises(IndexError):
        table[4]
    assert table.answer.dtype == np.int64
    with pytest.raises(ValueError):
        table.start[0] = 1.0
    # a generator is gathered in order, too
    assert list(PredictionTable.of(p for p in fixture_preds)) == fixture_preds


@pytest.mark.parametrize("column, values, rule", [
    ("start", [0.0, math.nan], "finite"),
    ("end", [1.0, math.inf], "finite"),
    ("start", [0.0, -1.0], "0 <= start < end"),
    ("start", [0.0, 2.0], "0 <= start < end"),
    ("end", [1.0], "differ in length"),
])
def test_prediction_table_checks_every_rule(column, values, rule):
    cols = {"question_ids": ["a", "b"], "answer": [0, 1], "start": [0.0, 1.0], "end": [1.0, 2.0]}
    cols[column] = values
    with pytest.raises(ValueError, match=rule):
        PredictionTable(**cols)


def test_answer_beyond_int64_is_kept_and_scored_wrong():
    big = 2**63  # one past the largest label answer; a float64 column would equal it
    labels = {"q0": label("q0", 10.0, [(0, 5)], ans=MAX_ANSWER_INDEX),
              "q1": label("q1", 10.0, [(0, 5)], ans=1)}
    table = PredictionTable(["q0", "q1"], [big, 1], [0.0, 0.0], [5.0, 5.0])
    assert table[0].answer_index == big
    report = evaluate(table, labels)
    assert report == evaluate(list(table), labels) == reference_evaluate(list(table), labels)
    assert report.acc_qa == 50.0


@pytest.mark.parametrize("order, error, qid", [
    (["q1", "q2", "q1", "ghost"], DuplicatePrediction, "q1"),
    (["q1", "ghost", "q2", "q1"], UnknownQuestionId, "ghost"),
])
def test_first_bad_question_id_is_named(fixture_labels, order, error, qid):
    preds = [pred(q, 0, 0, 1) for q in order]
    for given_preds in (preds, PredictionTable.of(preds)):
        with pytest.raises(error) as exc:
            evaluate(given_preds, fixture_labels)
        assert exc.value.args == (qid,)


def test_no_prediction_at_all(fixture_labels):
    report = evaluate([], fixture_labels)
    assert report.acc_qa == report.m_iop == 0.0
    assert report.warnings == ["4 labeled questions had no prediction and were scored zero"]
    with pytest.raises(UnknownQuestionId):
        evaluate([pred("q1", 0, 0, 1)], {})


# --- bulk prediction loader against the entry-by-entry loop -------------------

def reference_text(value):
    """A string as a number of the file formats reads it: ASCII, without
    Python's digit-group underscores."""
    if isinstance(value, str) and not (value.isascii() and "_" not in value):
        raise ValueError(f"numbers must be ASCII without '_', got {value!r}")
    return value


def reference_answer(value):
    """An answer index: a JSON integer or a string that int() reads. A float
    or a bool is refused, after int() has raised for inf and NaN."""
    if isinstance(value, (bool, float)):
        int(value)
        raise TypeError(f"answer index {value!r} is not an integer")
    return int(reference_text(value))


def reference_seconds(value):
    """A window bound: a JSON number or a string that float() reads; a bool
    is refused."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number of seconds")
    return float(reference_text(value))


def reference_load_predictions(path):
    """load_predictions as an entry-by-entry loop."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: prediction file must be a JSON object")
    preds = []
    for qid, entry in raw.items():
        try:
            answer = reference_answer(entry["answer"])
            start, end = entry["start"], entry["end"]
            preds.append(
                Prediction(
                    question_id=str(qid),
                    answer_index=answer,
                    window=TemporalSegment(reference_seconds(start), reference_seconds(end)),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: bad prediction for question {qid!r}: {exc}") from exc
    return preds


def _bad_entry(draw, entry):
    """One entry broken in one of the ways a prediction file can be, or a
    value that only looks wrong (a numeric string, a huge number)."""
    kind = draw(st.sampled_from([
        "missing", "not_dict", "string", "non_finite", "negative_start",
        "start_ge_end", "bool", "huge",
    ]))
    key = draw(st.sampled_from(["answer", "start", "end"]))
    if kind == "missing":
        del entry[key]
    elif kind == "not_dict":
        return draw(st.sampled_from([[1, 2.0, 3.0], "q", 7, None, True]))
    elif kind == "string":
        entry[key] = draw(st.sampled_from([str(entry[key]), "1.5", " 2", "x", "", "1_0",
                                           "\u0661"]))
    elif kind == "non_finite":
        entry[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "negative_start":
        entry["start"] = draw(st.sampled_from([-1e-300, -0.5, -0.0]))
    elif kind == "start_ge_end":
        entry["end"] = entry["start"] - draw(st.sampled_from([0.0, 1.0]))
    elif kind == "bool":
        entry[key] = draw(st.booleans())
    else:
        entry[key] = draw(st.sampled_from([2**63 - 1, 2**63, 2**70, -2**64, 10**400]))
    return entry


@st.composite
def prediction_files(draw):
    """File text and label set: valid entries, with up to two bad ones at
    random places."""
    n = draw(st.integers(1, 8))
    entries, labels = {}, {}
    for i in range(n):
        a = draw(st.floats(0.0, 50.0))
        b = draw(st.floats(a, 100.0, exclude_min=True))
        entries[f"q{i}"] = {"answer": draw(st.integers(0, 3)), "start": a, "end": b}
        labels[f"q{i}"] = label(f"q{i}", 100.0, [(10.0, 60.0)],
                                ans=draw(st.sampled_from([0, 1, 3, MAX_ANSWER_INDEX])))
    # mostly none or one; two bad entries check that the first one is named
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        entries[f"q{i}"] = _bad_entry(draw, entries[f"q{i}"])
    return json.dumps(entries), labels


def _outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


@given(prediction_files())
@settings(max_examples=300, deadline=None)
def test_load_predictions_equals_entry_loop(tmp_path_factory, case):
    text, labels = case
    path = tmp_path_factory.mktemp("preds") / "preds.json"
    path.write_text(text, encoding="utf-8")
    got, want = _outcome(load_predictions, path), _outcome(reference_load_predictions, path)
    if want[0] != "ok":
        assert got == want
        return
    table = got[1]
    assert isinstance(table, PredictionTable)
    assert list(table) == want[1]
    assert [type(p.answer_index) for p in table] == [int] * len(table)
    report = evaluate(table, labels)
    assert report == evaluate(list(table), labels) == reference_evaluate(want[1], labels)


@pytest.mark.parametrize("entries, message", [
    ({"q0": {"answer": 1, "start": 0.0, "end": 1.0},
      "q1": {"answer": 1, "start": 3.0, "end": 3.0},
      "q2": {"answer": 1, "start": 0.0}},
     "bad prediction for question 'q1': segment needs start < end, got [3.0, 3.0]"),
    # the later entry's infinite answer overflows while the answer column is
    # converted, before the earlier entry's missing start is reached
    ({"q0": {"answer": 1, "end": 1.0},
      "q1": {"answer": math.inf, "start": 0.0, "end": 1.0}},
     "bad prediction for question 'q0': 'start'"),
])
def test_load_predictions_names_first_bad_entry(tmp_path, entries, message):
    p = tmp_path / "preds.json"
    p.write_text(json.dumps(entries))
    with pytest.raises(ValueError) as exc:
        load_predictions(p)
    assert str(exc.value) == f"{p}: {message}"


@given(st.floats(0.0, 100.0))
def test_round_percent_is_idempotent_and_matches_decimal(value):
    want = float(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
    assert round_percent(value) == want
    assert round_percent(want) == want
