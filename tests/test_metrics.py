import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvqa.metrics import (
    GQA_IOP_THRESHOLD,
    PROTOCOL_THRESHOLDS,
    DuplicatePrediction,
    GroundingLabel,
    LabelTable,
    MetricReport,
    Prediction,
    UnknownQuestionId,
    best_overlap,
    evaluate,
    load_predictions,
    random_baseline,
    report_to_dict,
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
