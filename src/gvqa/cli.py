"""Command line front end: eval, stats, and the synthetic end-to-end run.

Exit codes: 0 success, 2 input or configuration problem, 3 numerical failure.
Relative input paths are also looked up under $GVQA_DATA_DIR when they do not
exist in the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from . import annotations, metrics, svgplot


def _resolve_input(path_str: str) -> Path:
    p = Path(path_str)
    if p.is_absolute() or p.exists():
        return p
    base = os.environ.get("GVQA_DATA_DIR")
    if base and (Path(base) / p).exists():
        return Path(base) / p
    return p


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- eval -------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    preds = metrics.load_predictions(_resolve_input(args.predictions))
    labels = annotations.load_labels(_resolve_input(args.labels))
    # rounded once here: the writers' own rounding of rounded values is free
    report = metrics.evaluate(preds, labels).rounded()
    out = _out_dir(args)
    metrics.write_report_json(out / "report.json", report)
    metrics.write_report_csv(out / "report.csv", report)
    row = metrics.report_row(report)
    for col in metrics.REPORT_COLUMNS:
        print(f"{col}: {row[col]}")
    print(f"n: {report.n_questions}")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


# --- stats ------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    labels = annotations.load_labels(_resolve_input(args.labels))
    stats = annotations.compute_stats(labels)
    out = _out_dir(args)
    annotations.write_stats_json(out / "stats.json", stats)
    annotations.write_stats_svgs(out, stats)
    print(f"videos: {stats.n_videos}")
    print(f"questions: {stats.n_questions}")
    print(f"segments: {stats.n_segments}")
    print(f"mean segment duration: {stats.mean_seg_dur:.1f}s")
    print(f"mean video duration: {stats.mean_vid_dur:.1f}s")
    print(f"mean segment/video ratio: {stats.mean_ratio:.2f}")
    return 0


# --- train-synth ------------------------------------------------------------

# known-good schedule for the default synthetic scale, where it differs from
# TrainConfig's more conservative values
TRAIN_DEFAULTS = {
    "objective": "ng+",
    "stages": 2,
    "epochs": 60,
    "lr": 2e-3,
    "patience": 10,
}
# the keys that configure neither dataclass, with their defaults (each
# parsed as its default's type)
EXTRA_DEFAULTS = {"width": 64, "timelines": 8}
# every train-synth flag sets the config key named by its dest
FLAG_KEYS = ("seed", "objective", "alpha", "gamma", "n_frames", "epochs")


def parse_config_file(path: Path) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    with metrics.open_text(path) as fh:
        lines = fh.read().splitlines()
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise annotations.ParseError(f"{path}:{i}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


# every config field is typed int, float or str
_PARSERS = {"int": int, "float": float, "str": str}


def _coerce(key: str, value: str, typ: str) -> object:
    try:
        return _PARSERS[typ](value)
    except ValueError:
        raise annotations.ValidationError(f"config key {key}: cannot parse {value!r} as {typ}")


def _split_config(file_values: dict[str, str], args: argparse.Namespace,
                  synth_cls: type, train_cls: type) -> tuple[dict, dict, dict]:
    """Merge config file and flags into synth/train/extra keyword dicts for
    the two config dataclasses. Each set flag is read as its config key after
    the file's keys, so a flag wins; str of a float flag is its repr, which
    parses back to the same float."""
    synth_fields = {f.name: f.type for f in dataclasses.fields(synth_cls)}
    train_fields = {f.name: f.type for f in dataclasses.fields(train_cls)}
    synth: dict = {}
    train_kw: dict = {}
    extra = dict(EXTRA_DEFAULTS)
    flags = [(key, str(getattr(args, key))) for key in FLAG_KEYS
             if getattr(args, key) is not None]
    for key, value in [*file_values.items(), *flags]:
        scope, _, name = key.partition(".")
        if key == "seed":
            synth["seed"] = train_kw["seed"] = _coerce(key, value, "int")
        elif scope == "synth" and name in synth_fields:
            synth[name] = _coerce(key, value, synth_fields[name])
        elif scope == "train" and name in train_fields:
            train_kw[name] = _coerce(key, value, train_fields[name])
        elif key in EXTRA_DEFAULTS:
            extra[key] = _coerce(key, value, type(EXTRA_DEFAULTS[key]).__name__)
        elif key in synth_fields and key not in train_fields:
            synth[key] = _coerce(key, value, synth_fields[key])
        elif key in train_fields and key not in synth_fields:
            train_kw[key] = _coerce(key, value, train_fields[key])
        else:
            raise annotations.ValidationError(f"unknown config key {key!r}")
    if extra["timelines"] < 0:
        raise annotations.ValidationError(f"timelines must be >= 0, got {extra['timelines']}")
    defaults = dict(TRAIN_DEFAULTS)
    # ng has no grounding pretrain stage: from the file or the flag, it runs
    # one stage unless stages is set explicitly
    if train_kw.get("objective") == "ng":
        defaults["stages"] = 1
    return synth, {**defaults, **train_kw}, extra


def cmd_train_synth(args: argparse.Namespace) -> int:
    # the training stack loads here, so eval and stats never import it
    from .model import ModelConfig, init_params, predict_episodes, save_checkpoint
    from .synth import SynthConfig, episodes_to_labels, generate, split_by_video
    from .trainer import TrainConfig, train, write_history_csv

    file_values = parse_config_file(_resolve_input(args.config)) if args.config else {}
    synth_kw, train_kw, extra = _split_config(file_values, args, SynthConfig, TrainConfig)
    synth_cfg = SynthConfig(**synth_kw)
    train_cfg = TrainConfig(**train_kw)
    out = _out_dir(args)

    episodes = generate(synth_cfg)
    train_eps, val_eps = split_by_video(episodes, seed=train_cfg.seed)
    model_cfg = ModelConfig(d_v=synth_cfg.d_v, d_t=synth_cfg.d_t, width=extra["width"])
    params = init_params(model_cfg, seed=train_cfg.seed + 1)

    print(f"episodes: {len(train_eps)} train / {len(val_eps)} val; "
          f"objective {train_cfg.objective} ({train_cfg.stages} stage)")

    def on_epoch(row: dict) -> None:
        print(f"epoch {row['epoch']:3d} [{row['stage']:6s}] "
              f"loss {row['loss']:.4f} acc {row['acc_qa']:.3f} "
              f"gqa {row['acc_gqa']:.3f} iop {row['m_iop']:.3f} iou {row['m_iou']:.3f}")

    best, history = train(params, train_eps, train_cfg, val_episodes=val_eps, on_epoch=on_epoch)

    save_checkpoint(out / "checkpoint.npz", best)
    write_history_csv(out / "history.csv", history)

    preds = predict_episodes(best, val_eps, gamma=train_cfg.gamma)
    metrics.save_predictions(out / "predictions.json", preds)
    labels = episodes_to_labels(val_eps)
    annotations.save_labels(out / "labels.csv", labels)

    report = metrics.evaluate(preds, labels)
    metrics.write_report_json(out / "report.json", report)
    metrics.write_report_csv(out / "report.csv", report)

    tl_dir = out / "timelines"
    tl_dir.mkdir(exist_ok=True)
    for ep, p in zip(val_eps[: extra["timelines"]], preds):
        bands = [
            ("moment", ep.gt_moment.start, ep.gt_moment.end),
            ("window", p.window.start, p.window.end),
        ]
        svg = svgplot.timeline(ep.extent.duration, bands,
                               title=ep.question_id, trace=list(p.trace))
        metrics.rewrite_text(tl_dir / f"{ep.question_id}.svg", svg)

    row = metrics.report_row(report)
    summary = "  ".join(f"{c} {row[c]}" for c in metrics.REPORT_COLUMNS)
    print(f"val: {summary}")
    print(f"outputs in {out}")
    return 0


# --- parser ---------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gvqa parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="gvqa",
        description="Grounded video QA: evaluation, label statistics, synthetic training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score a prediction file against labels")
    p_eval.add_argument("predictions", help="JSON predictions file")
    p_eval.add_argument("labels", help="labels file (.csv or .json)")
    p_eval.add_argument("-o", "--out", default="gvqa_out")

    p_stats = sub.add_parser("stats", help="annotation statistics and charts")
    p_stats.add_argument("labels", help="labels file (.csv or .json)")
    p_stats.add_argument("-o", "--out", default="gvqa_out")

    p_train = sub.add_parser("train-synth",
                             help="train and evaluate on planted-moment episodes")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--objective", choices=("ng", "ng+"))
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--frames", dest="n_frames", type=int)
    p_train.add_argument("-o", "--out", default="gvqa_out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so a patched or
    # wrapped module attribute is the command that runs
    command = {"eval": cmd_eval, "stats": cmd_stats, "train-synth": cmd_train_synth}
    try:
        return command[args.command](args)
    except (ValueError, OSError, metrics.UnknownQuestionId) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
