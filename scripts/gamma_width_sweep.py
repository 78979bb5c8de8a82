"""Sweep the confidence-interval multiplier and the window source on one
trained model, reporting mean window width and the grounded-QA metrics.

Usage: python3 scripts/gamma_width_sweep.py [--episodes 800] [--seed 7]
"""

import argparse
import time

import numpy as np

from gvqa.metrics import Prediction, evaluate, report_row
from gvqa.model import ModelConfig, init_params, predict_episodes
from gvqa.synth import SynthConfig, episodes_to_labels, generate, split_by_video
from gvqa.trainer import TrainConfig, train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=800)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=60)
    args = ap.parse_args()

    t0 = time.time()
    episodes = generate(SynthConfig(n_episodes=args.episodes, seed=args.seed))
    train_eps, val_eps = split_by_video(episodes, 0.15, seed=0)
    model_cfg = ModelConfig(d_v=episodes[0].frames.shape[1],
                            d_t=episodes[0].question.shape[0], width=64)
    cfg = TrainConfig(objective="ng+", stages=2, epochs=args.epochs,
                      patience=10, lr=2e-3, gamma=0.8, seed=3)
    best, _ = train(init_params(model_cfg, seed=1), train_eps, cfg,
                    val_episodes=val_eps)
    print(f"trained in {time.time() - t0:.0f}s; sweeping on {len(val_eps)} val episodes\n")

    labels = episodes_to_labels(val_eps)
    print(f"{'gamma':>5} {'source':>6} {'width_s':>8}  "
          f"{'Acc@GQA':>7} {'mIoP':>5} {'mIoU':>5}")
    for gamma in (1.0, 0.8):
        for source in ("gauss", "attn", "fused"):
            found = predict_episodes(best, val_eps, gamma=gamma, window_source=source)
            widths = [p.window.length for p in found]
            preds = [Prediction(question_id=ep.question_id, answer_index=p.answer_index,
                                window=p.window)
                     for ep, p in zip(val_eps, found)]
            row = report_row(evaluate(preds, labels))
            print(f"{gamma:5.1f} {source:>6} {np.mean(widths):8.2f}  "
                  f"{row['Acc@GQA']:7.1f} {row['mIoP']:5.1f} {row['mIoU']:5.1f}")
    print(f"\ntotal {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
