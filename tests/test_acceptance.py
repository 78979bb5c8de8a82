"""Acceptance gate: the eight release criteria, one test each.

Each test prints a single CRITERION line with the measured numbers. Criteria
2 and 3 check published-benchmark values only when NEXTGQA_TEST_LABELS points
to a labels file in this package's schema; criterion 2 falls back to its
unconditional substitute property, criterion 3 skips.
"""

import json
import os
import time

import numpy as np
import pytest

from gvqa import annotations, metrics
from gvqa.gaussian import GaussianMask, confidence_interval
from gvqa.metrics import GroundingLabel, Prediction, evaluate, random_baseline
from gvqa.model import (
    Episode,
    ModelConfig,
    fuse_windows,
    init_params,
    loss_and_gradients,
    ng_loss,
    ngplus_loss,
    predict_episode,
)
from gvqa.posthoc import extract_window_raw
from gvqa.synth import episodes_to_labels
from gvqa.temporal import TemporalSegment, VideoExtent, iop, iou

EPS_FD = 1e-5
LABELS_ENV = "NEXTGQA_TEST_LABELS"


def _report(run, objective, episodes):
    preds = []
    for ep in episodes:
        p = predict_episode(run.params[objective], ep, gamma=run.gamma)
        preds.append(Prediction(question_id=ep.question_id,
                                answer_index=p.answer_index, window=p.window))
    return evaluate(preds, episodes_to_labels(episodes))


# --- 1: closed-form metrics equal a 1 ms discretization oracle -----------------

def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    duration_ms = 30_000
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        # millisecond-aligned endpoints make the discretization exact
        a0, a1 = sorted(rng.integers(0, duration_ms, size=2) + np.array([0, 1]))
        b0, b1 = sorted(rng.integers(0, duration_ms, size=2) + np.array([0, 1]))
        pred = TemporalSegment(a0 / 1000.0, a1 / 1000.0)
        gt = TemporalSegment(b0 / 1000.0, b1 / 1000.0)

        cells = np.arange(duration_ms)
        in_pred = (cells >= a0) & (cells < a1)
        in_gt = (cells >= b0) & (cells < b1)
        inter = np.count_nonzero(in_pred & in_gt)
        oracle_iop = inter / np.count_nonzero(in_pred)
        union = np.count_nonzero(in_pred | in_gt)
        oracle_iou = inter / union
        worst = max(worst, abs(iop(pred, gt) - oracle_iop),
                    abs(iou(pred, gt) - oracle_iou))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 1.0
    print(f"\nCRITERION 1: PASS - max |closed-form - 1ms oracle| = {worst:.2e} "
          f"over 1000 pairs in {elapsed:.2f}s")


# --- 2: random baseline against released labels, or the substitute property ------

def test_criterion_2_random_baseline():
    path = os.environ.get(LABELS_ENV)
    if path:
        labels = annotations.load_labels(path)
        report = evaluate(random_baseline(labels, answer_id=0), labels)
        row = metrics.report_row(report)
        expectations = {
            "mIoP": (21.1, 0.2), "mIoU": (21.1, 0.2),
            "IoP@0.3": (20.6, 0.2), "IoU@0.3": (20.6, 0.2),
            "IoP@0.5": (8.7, 0.2), "IoU@0.5": (8.7, 0.2),
            "Acc@GQA": (1.7, 0.3),
        }
        for col, (want, tol) in expectations.items():
            assert abs(row[col] - want) <= tol, f"{col}: {row[col]} vs {want}±{tol}"
        print(f"\nCRITERION 2: PASS - published random-baseline row reproduced "
              f"on {report.n_questions} questions")
        return

    # substitute property: whole-video windows make IoP and IoU identical
    rng = np.random.default_rng(202)
    labels = {}
    for i in range(400):
        duration = float(rng.uniform(5.0, 120.0))
        segs = []
        for _ in range(int(rng.integers(1, 4))):
            s, e = np.sort(rng.uniform(0.0, duration, size=2))
            if e - s < 1e-6:
                e = min(duration, s + 0.5)
            segs.append(TemporalSegment(s, e))
        qid = f"q{i}"
        labels[qid] = GroundingLabel(
            question_id=qid, video_id=f"v{i // 4}",
            extent=VideoExtent(duration), segments=tuple(segs),
            answer_index=int(rng.integers(5)),
        )
    report = evaluate(random_baseline(labels, answer_id=0), labels)
    assert report.m_iop == pytest.approx(report.m_iou, abs=1e-12)
    assert report.iop_at[0.3] == pytest.approx(report.iou_at[0.3], abs=1e-12)
    assert report.iop_at[0.5] == pytest.approx(report.iou_at[0.5], abs=1e-12)
    print(f"\nCRITERION 2: PASS - substitute property (whole-video => mIoP == mIoU "
          f"exactly, {report.m_iop:.2f} == {report.m_iou:.2f} on 400 random labels); "
          f"set {LABELS_ENV} for the published-row check")


# --- 3: dataset statistics of the released test split ----------------------------

def test_criterion_3_dataset_stats():
    path = os.environ.get(LABELS_ENV)
    if not path:
        pytest.skip(f"requires released test labels via {LABELS_ENV}")
    stats = annotations.compute_stats(annotations.load_labels(path))
    assert (stats.n_videos, stats.n_questions, stats.n_segments) == (990, 5553, 6600)
    assert stats.mean_seg_dur == pytest.approx(6.7, abs=0.1)
    assert stats.mean_vid_dur == pytest.approx(39.5, abs=0.1)
    assert stats.mean_ratio == pytest.approx(0.20, abs=0.01)
    print("\nCRITERION 3: PASS - test-split statistics match the published table")


# --- 4: analytic gradients match finite differences ------------------------------

def _fd_instance(seed: int):
    rng = np.random.default_rng(seed)
    n, d_v, d_t, A = 4, 5, 6, 3
    ep = Episode(
        frames=rng.normal(size=(n, d_v)),
        question=rng.normal(size=d_t),
        answers=rng.normal(size=(A, d_t)),
        correct=int(rng.integers(A)),
        extent=VideoExtent(40.0),
        neg_questions=[rng.normal(size=d_t) for _ in range(A - 1)],
        question_id="q", video_id="v",
    )
    params = init_params(ModelConfig(d_v=d_v, d_t=d_t, width=8), seed=seed)
    # move off the zero init so every pathway carries signal
    for k, v in params.arrays.items():
        v += 0.05 * rng.normal(size=v.shape)
    return params, ep


def test_criterion_4_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    n_checked = 0
    for seed in range(5):
        params, ep = _fd_instance(seed)
        for objective, loss_fn in (
            ("ng", lambda p: ng_loss(p, ep)),
            ("ng+", lambda p: ngplus_loss(p, ep, alpha=1.0)),
        ):
            _, grads = loss_and_gradients(params, ep, objective=objective, alpha=1.0)
            for name, arr in params.arrays.items():
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + EPS_FD
                    hi = loss_fn(params)
                    arr[idx] = orig - EPS_FD
                    lo = loss_fn(params)
                    arr[idx] = orig
                    fd = (hi - lo) / (2 * EPS_FD)
                    a = grads[name][idx]
                    rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
                    worst = max(worst, rel)
                    n_checked += 1
                    it.iternext()
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 10.0
    print(f"\nCRITERION 4: PASS - worst relative gradient error {worst:.2e} over "
          f"{n_checked} coordinates (5 instances, both losses) in {elapsed:.1f}s")


# --- 5: Acc@GQA dominance inequality ----------------------------------------------

# published leaderboard rows: (model, Acc@QA, Acc@GQA, IoP@0.5)
LEADERBOARD_ROWS = [
    ("Human", 93.3, 82.1, 86.2),
    ("Random", 20.0, 1.7, 8.7),
    ("IGV", 50.1, 10.2, 18.9),
    ("SeViLA", 68.1, 16.6, 22.9),
    ("VGT", 50.9, 12.7, 24.6),
    ("VIOLETv2", 52.9, 12.8, 23.3),
    ("VGT-RBT", 55.7, 14.4, 25.3),
    ("Temp-Swin", 55.9, 13.5, 23.0),
    ("Temp-CLIP-B", 57.9, 14.7, 24.1),
    ("Temp-BLIP", 58.5, 14.9, 25.3),
    ("Temp-CLIP-L", 59.4, 15.2, 25.5),
    ("FrozenBiLM", 69.1, 15.8, 22.1),
    ("Temp-CLIP-NG", 59.4, 15.5, 25.9),
    ("FrozenBiLM-NG", 70.4, 17.2, 23.5),
    ("Temp-CLIP-NG+", 60.2, 16.0, 25.5),
    ("FrozenBiLM-NG+", 70.8, 17.5, 23.7),
]


def test_criterion_5_report_invariant():
    for name, acc_qa, acc_gqa, iop05 in LEADERBOARD_ROWS:
        assert acc_gqa <= min(acc_qa, iop05) + 1e-9, name

    rng = np.random.default_rng(303)
    for trial in range(200):
        labels = {}
        preds = []
        for i in range(40):
            duration = float(rng.uniform(10.0, 60.0))
            s, e = np.sort(rng.uniform(0.0, duration, size=2))
            gt = TemporalSegment(s, max(e, s + 1e-3))
            qid = f"t{trial}_q{i}"
            labels[qid] = GroundingLabel(
                question_id=qid, video_id=f"v{i}", extent=VideoExtent(duration),
                segments=(gt,), answer_index=int(rng.integers(5)),
            )
            ps, pe = np.sort(rng.uniform(0.0, duration, size=2))
            preds.append(Prediction(
                question_id=qid, answer_index=int(rng.integers(5)),
                window=TemporalSegment(ps, max(pe, ps + 1e-3)),
            ))
        report = evaluate(preds, labels)
        assert report.acc_gqa <= min(report.acc_qa, report.iop_at[0.5]) + 1e-9
    print("\nCRITERION 5: PASS - Acc@GQA <= min(Acc@QA, IoP@0.5) on 16 published "
          "rows and 200 random evaluations")


# --- 6: weak supervision recovers planted moments ---------------------------------

def test_criterion_6_synthetic_grounding_recovery(recovery_run):
    run = recovery_run
    labels = episodes_to_labels(run.val_eps)

    oracle = evaluate(random_baseline(labels, answer_id=0), labels)
    assert abs(oracle.m_iou / 100.0 - 0.20) <= 0.02

    ng = _report(run, "ng", run.val_eps)
    assert ng.m_iou >= 45.0, f"NG mIoU {ng.m_iou:.1f} < 45"
    assert ng.m_iop >= 60.0, f"NG mIoP {ng.m_iop:.1f} < 60"

    gdqa_eps = [ep for ep in run.val_eps if ep.question_id in run.split.gdqa]
    assert gdqa_eps, "diagnostic GDQA subset is empty"
    ng_sub = _report(run, "ng", gdqa_eps)
    ngp_sub = _report(run, "ng+", gdqa_eps)
    assert ngp_sub.acc_gqa >= ng_sub.acc_gqa, (
        f"NG+ {ngp_sub.acc_gqa:.1f} < NG {ng_sub.acc_gqa:.1f} on GDQA subset"
    )

    assert run.elapsed < 300.0, f"recovery runs took {run.elapsed:.0f}s"
    print(f"\nCRITERION 6: PASS - NG mIoP {ng.m_iop:.1f} mIoU {ng.m_iou:.1f} "
          f"(oracle {oracle.m_iou:.1f}); GDQA-subset Acc@GQA NG+ {ngp_sub.acc_gqa:.1f} "
          f">= NG {ng_sub.acc_gqa:.1f} (n={len(gdqa_eps)}); "
          f"both runs + probes in {run.elapsed:.0f}s")


# --- 7: post-hoc window properties ------------------------------------------------

def test_criterion_7_posthoc_properties():
    rng = np.random.default_rng(707)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(4, 65))
        duration = float(rng.uniform(8.0, 120.0))
        kind = rng.integers(3)
        if kind == 0:
            scores = rng.dirichlet(np.full(n, 0.3))
        elif kind == 1:
            scores = rng.uniform(0.0, 1.0, size=n)
        else:
            scores = np.zeros(n)
            scores[rng.integers(n)] = 1.0
        win = extract_window_raw(scores, duration)
        bin_w = duration / n

        import gvqa.posthoc as ph
        smoothed = ph.smooth_scores(scores, ph.DEFAULT_SMOOTH_W)
        pivot = int(np.argmax(smoothed))
        t_pivot = (pivot + 0.5) * bin_w
        if not (win.start - 1e-9 <= t_pivot <= win.end + 1e-9):
            violations += 1
        if (t_pivot - win.start) > 10.0 + bin_w + 1e-9:
            violations += 1
        if (win.end - t_pivot) > 10.0 + bin_w + 1e-9:
            violations += 1

        a = float(rng.uniform(0.5, 20.0))
        b = float(rng.uniform(0.0, 5.0))
        win2 = extract_window_raw(a * scores + b, duration)
        if win2 != win:
            violations += 1
    assert violations == 0
    print("\nCRITERION 7: PASS - pivot containment, distance cap, and affine "
          "invariance over 1000 random traces, zero violations")


# --- 8: fused windows stay inside the attention window ----------------------------

def test_criterion_8_fusion_containment():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        duration = float(rng.uniform(10.0, 100.0))
        g0, g1 = np.sort(rng.uniform(0.0, duration, size=2))
        a0, a1 = np.sort(rng.uniform(0.0, duration, size=2))
        gauss = TemporalSegment(g0, max(g1, g0 + 1e-4))
        attn = TemporalSegment(a0, max(a1, a0 + 1e-4))
        fused = fuse_windows(gauss, attn)
        assert fused.start >= attn.start - 1e-12
        assert fused.end <= attn.end + 1e-12
    print("\nCRITERION 8: PASS - fused window contained in attention window on "
          "1000 random pairs")
