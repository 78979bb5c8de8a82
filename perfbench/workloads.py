"""The three benchmark workloads: inputs made from the seed, set-up, one pass.

A pass is one closed loop through the public gvqa API, each phase starting
when the previous one returns. Training workloads train, predict the
validation split with the returned parameters, write predictions and labels
and score them with ``gvqa eval``. The read-path workload fits the
diagnostic probes, predicts every episode with untrained parameters, and runs
``gvqa eval`` and ``gvqa stats``. Every call goes through the gvqa module
attributes, so a tracer installed on them sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from gvqa import annotations, cli, metrics, model, synth, trainer

import checks

GAMMA = 0.8
VAL_FRACTION = 0.15
SPLIT_SEED = 0
WIDTH = 64


@dataclass(frozen=True)
class Workload:
    name: str
    n_episodes: int
    n_frames: int
    train: dict | None      # TrainConfig fields besides seed; None: read path, no training
    # repetitions per pass; the predict loops and eval commands of a pass
    # together span seconds, so the speed probe samples them many times
    predict_reps: int       # predict loops over the scored episodes
    eval_reps: int          # `gvqa eval` commands
    stats_reps: int         # `gvqa stats` commands per pass
    stresses: str
    bypasses: str
    no_change: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ng-default",
        n_episodes=2000, n_frames=32,
        train={"objective": "ng", "lr": 2e-3, "gamma": GAMMA, "epochs": 8, "patience": 8},
        predict_reps=14, eval_reps=250, stats_reps=0,
        stresses="model fwd/bwd (loss_and_gradients is ~80% of train wall), Adam, "
                 "per-epoch validation",
        bypasses="negative sampler (0 calls), grounding-gradient branch, probe fit",
        no_change="a sampler rewrite or a probe-fit speed-up",
    ),
    Workload(
        name="ngplus-pool",
        n_episodes=4000, n_frames=32,
        train={"objective": "ng+", "stages": 2, "lr": 2e-3, "gamma": GAMMA,
               "epochs": 2, "patience": 2},
        predict_reps=7, eval_reps=150, stats_reps=0,
        stresses="negative sampler at a 3400-episode pool (cost per epoch quadratic in "
                 "pool size), grounding-gradient branch, two-stage schedule",
        bypasses="probe fit",
        no_change="a probe-fit speed-up",
    ),
    Workload(
        name="diagnose-eval",
        n_episodes=2000, n_frames=128,
        train=None,
        predict_reps=1, eval_reps=50, stats_reps=10,
        stresses="probe fitting (einsums), forward-only prediction at 128 frames "
                 "(O(n^2) attention, Python-loop smoothing), gvqa eval and gvqa stats",
        bypasses="backprop, Adam, negative sampler",
        no_change="a sampler rewrite; a backward-only speed-up",
    ),
)}


@dataclass
class Inputs:
    episodes: list
    train: list
    val: list
    params: object      # untrained ModelParams; passes copy it before training


class Ops:
    """Operation counts: a phase call, a predict_episode call or a CLI command."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def setup(w: Workload, seed: int) -> Inputs:
    """generate + split_by_video + init_params; everything derives from `seed`."""
    config = synth.SynthConfig(n_episodes=w.n_episodes, n_frames=w.n_frames, seed=seed)
    episodes = synth.generate(config)
    train_eps, val_eps = synth.split_by_video(episodes, VAL_FRACTION, seed=SPLIT_SEED)
    params = model.init_params(model.ModelConfig(config.d_v, config.d_t, WIDTH), seed=seed + 1)
    return Inputs(episodes, train_eps, val_eps, params)


def _cli(argv: list[str]) -> tuple[int, float, float]:
    """Runs one gvqa command in-process; returns (exit code, start, end)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = cli.main(argv)
        return rc, t0, perf_counter()


def run_pass(w: Workload, inputs: Inputs, seed: int, ops: Ops, work: Path) -> dict:
    """One pass; returns (start, end) intervals plus the outputs the checks need."""
    rec: dict = {}
    params = inputs.params.copy()
    t_pass = perf_counter()
    if w.train is not None:
        config = trainer.TrainConfig(**w.train, seed=seed + 2)
        marks: list[tuple[str, float]] = []
        t0 = perf_counter()
        best, history = trainer.train(
            params, inputs.train, config, val_episodes=inputs.val,
            on_epoch=lambda row: marks.append((row["stage"], perf_counter())),
        )
        rec["train"] = (t0, perf_counter())
        ops.attempted += 1
        rec["epochs"] = [(stage, prev, t) for (stage, t), prev
                         in zip(marks, [t0] + [t for _, t in marks])]
        rec["history"] = history
        scored = inputs.val
    else:
        best = params
        t0 = perf_counter()
        scorers = synth.fit_diagnostics(inputs.train)
        split = synth.split_diagnostic(inputs.val, *scorers)
        rec["probe_fit"] = (t0, perf_counter())
        ops.attempted += 2
        rec["scorers"], rec["split"] = scorers, split
        scored = inputs.episodes

    rec["predict"] = []
    rec["predictions"] = []
    for _ in range(w.predict_reps):
        t0 = perf_counter()
        preds = [model.predict_episode(best, ep, gamma=GAMMA) for ep in scored]
        rec["predict"].append((t0, perf_counter()))
        rec["predictions"].append(preds)
        ops.attempted += len(scored)

    pred_path, label_path = work / "predictions.json", work / "labels.csv"
    metrics.save_predictions(pred_path, [
        metrics.Prediction(ep.question_id, p.answer_index, p.window)
        for ep, p in zip(scored, preds)
    ])
    annotations.save_labels(label_path, synth.episodes_to_labels(scored))
    ops.attempted += 2
    rec["eval"] = [_cli(["eval", str(pred_path), str(label_path), "-o", str(work / "eval")])
                   for _ in range(w.eval_reps)]
    rec["stats"] = [_cli(["stats", str(label_path), "-o", str(work / "stats")])
                    for _ in range(w.stats_reps)]
    ops.attempted += w.eval_reps + w.stats_reps
    rec["pass"] = (t_pass, perf_counter())
    rec["params"], rec["scored"], rec["work"] = best, scored, work
    return rec


def check_pass(rec: dict, inputs: Inputs) -> tuple[int, dict]:
    """Output checks of one pass (untimed). Returns (failed operations, summary)."""
    failed = 0
    scored = rec["scored"]
    if "history" in rec:
        failed += not (checks.history_ok(rec["history"])
                       and all(np.all(np.isfinite(a)) for a in rec["params"].arrays.values()))
    else:
        blind, pos, neg = rec["scorers"]
        weights = (blind.W, pos.U, pos.W, neg.U, neg.W)
        failed += not all(np.all(np.isfinite(a)) for a in weights)
        split = rec["split"]
        failed += not (split.gdqa <= split.vqa <= {ep.question_id for ep in inputs.val})

    digests = {checks.predictions_digest(scored, preds) for preds in rec["predictions"]}
    for preds in rec["predictions"]:
        failed += checks.bad_predictions(preds, scored)
    # every repetition predicts the same inputs with the same parameters
    failed += len(digests) != 1

    preds = [metrics.Prediction(ep.question_id, p.answer_index, p.window)
             for ep, p in zip(scored, rec["predictions"][-1])]
    report = metrics.evaluate(preds, synth.episodes_to_labels(scored))
    written = json.loads((rec["work"] / "eval" / "report.json").read_text(encoding="utf-8"))
    report_good = (checks.report_ok(report.acc_gqa, report.acc_qa, report.iop_at[0.5])
                   and checks.report_ok(written["acc_gqa"], written["acc_qa"],
                                        written["iop_at"]["0.5"])
                   and written == metrics.report_to_dict(report))
    failed += sum(rc != 0 or not report_good for rc, _, _ in rec["eval"])
    if rec["stats"]:
        stats = json.loads((rec["work"] / "stats" / "stats.json").read_text(encoding="utf-8"))
        failed += sum(rc != 0 or stats["n_questions"] != len(scored) for rc, _, _ in rec["stats"])

    summary = {
        "params_digest": checks.params_digest(rec["params"]),
        "predictions_digest": min(digests),
        "miop": report.m_iop,
        "acc_gqa": report.acc_gqa,
    }
    return failed, summary
