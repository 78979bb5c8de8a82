"""Train the answer-only and joint objectives on the same synthetic world and
compare them on the full validation split and on its diagnostic subsets. Then,
for each trained model, sweep the confidence-interval multiplier and the
window source, reporting mean window width and the grounded-QA metrics.

Usage: python3 scripts/compare_objectives.py [--episodes 2000] [--seed 7]
Takes about two minutes at the default scale on one core.
"""

import argparse
import time

import numpy as np

from gvqa.metrics import REPORT_COLUMNS, evaluate, random_baseline, report_row
from gvqa.model import ModelConfig, init_params, predict_episodes
from gvqa.synth import (
    SynthConfig,
    episodes_to_labels,
    fit_diagnostics,
    generate,
    split_by_video,
    split_diagnostic,
)
from gvqa.trainer import TrainConfig, train


def row_str(name, report):
    row = report_row(report)
    cells = "  ".join(f"{v:5.1f}" for v in row.values())
    return f"{name:<14} {cells}  (n={report.n_questions})"


def empty_row_str(name):
    """Row of a subset without questions: blank cells, nothing to score."""
    cells = "  ".join(" " * 5 for _ in REPORT_COLUMNS)
    return f"{name:<14} {cells}  (n=0)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--gamma", type=float, default=0.8)
    args = ap.parse_args()

    t0 = time.time()
    episodes = generate(SynthConfig(n_episodes=args.episodes, seed=args.seed))
    train_eps, val_eps = split_by_video(episodes, 0.15, seed=0)
    model_cfg = ModelConfig(d_v=episodes[0].frames.shape[1],
                            d_t=episodes[0].question.shape[0], width=64)
    print(f"{len(train_eps)} train / {len(val_eps)} val episodes")

    trained = {}
    for objective, stages in (("ng", 1), ("ng+", 2)):
        cfg = TrainConfig(objective=objective, stages=stages, epochs=args.epochs,
                          patience=10, lr=2e-3, gamma=args.gamma, seed=3)
        t1 = time.time()
        best, hist = train(init_params(model_cfg, seed=1), train_eps, cfg,
                           val_episodes=val_eps)
        trained[objective] = best
        print(f"{objective}: {len(hist)} epochs in {time.time() - t1:.0f}s "
              f"(best val Acc@GQA {max(r['acc_gqa'] for r in hist):.3f})")

    blind, pos, neg = fit_diagnostics(train_eps)
    split = split_diagnostic(val_eps, blind, pos, neg)
    subsets = {
        "all": val_eps,
        "VQA": [ep for ep in val_eps if ep.question_id in split.vqa],
        "GDQA": [ep for ep in val_eps if ep.question_id in split.gdqa],
    }

    header = "  ".join(f"{c:>5}" for c in
                       ("AccQA", "AccG", "mIoP", "P@.3", "P@.5", "mIoU", "U@.3", "U@.5"))
    print(f"\n{'':14} {header}")
    labels_all = episodes_to_labels(val_eps)
    print(row_str("random", evaluate(random_baseline(labels_all, answer_id=0), labels_all)))
    for subset_name, subset in subsets.items():
        labels = episodes_to_labels(subset)
        for objective in ("ng", "ng+"):
            name = f"{objective};{subset_name}"
            if not subset:
                print(empty_row_str(name))
                continue
            preds = predict_episodes(trained[objective], subset, gamma=args.gamma)
            print(row_str(name, evaluate(preds, labels)))

    for objective, params in trained.items():
        print(f"\n{objective} window sweep on {len(val_eps)} val episodes")
        print(f"{'gamma':>5} {'source':>6} {'width_s':>8}  "
              f"{'Acc@GQA':>7} {'mIoP':>5} {'mIoU':>5}")
        for gamma in (1.0, 0.8):
            for source in ("gauss", "attn", "fused"):
                preds = predict_episodes(params, val_eps, gamma=gamma, window_source=source)
                width = np.mean([p.window.length for p in preds])
                row = report_row(evaluate(preds, labels_all))
                print(f"{gamma:5.1f} {source:>6} {width:8.2f}  "
                      f"{row['Acc@GQA']:7.1f} {row['mIoP']:5.1f} {row['mIoU']:5.1f}")
    print(f"\ntotal {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
