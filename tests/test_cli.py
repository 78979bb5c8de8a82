"""Command line behavior: exit codes, outputs, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gvqa.annotations import save_labels
from gvqa.cli import main, parse_config_file
from gvqa.metrics import Prediction, save_predictions
from gvqa.synth import SynthConfig, episodes_to_labels, generate


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    eps = generate(SynthConfig(n_episodes=40, seed=3))
    labels = episodes_to_labels(eps)
    save_labels(root / "labels.csv", labels)
    preds = [
        Prediction(question_id=q, answer_index=l.answer_index, window=l.segments[0])
        for q, l in labels.items()
    ]
    save_predictions(root / "perfect.json", preds)
    return root


def test_eval_perfect_predictions(data, tmp_path, capsys):
    rc = main(["eval", str(data / "perfect.json"), str(data / "labels.csv"),
               "-o", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Acc@QA: 100.0" in out
    assert "mIoU: 100.0" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["acc_gqa"] == 100.0


def test_eval_byte_stable(data, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["eval", str(data / "perfect.json"), str(data / "labels.csv"), "-o", str(a)]) == 0
    assert main(["eval", str(data / "perfect.json"), str(data / "labels.csv"), "-o", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_eval_malformed_json_exit_2(data, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"q": ')
    rc = main(["eval", str(bad), str(data / "labels.csv"), "-o", str(tmp_path)])
    assert rc == 2
    assert "byte offset" in capsys.readouterr().err


def test_eval_missing_file_exit_2(data, tmp_path, capsys):
    rc = main(["eval", str(tmp_path / "nope.json"), str(data / "labels.csv"),
               "-o", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_eval_unknown_question_exit_2(data, tmp_path, capsys):
    preds = tmp_path / "stray.json"
    preds.write_text(json.dumps({"ghost": {"answer": 0, "start": 0.0, "end": 1.0}}))
    rc = main(["eval", str(preds), str(data / "labels.csv"), "-o", str(tmp_path)])
    assert rc == 2


def test_stats_outputs(data, tmp_path, capsys):
    rc = main(["stats", str(data / "labels.csv"), "-o", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "videos: 10" in out
    assert "questions: 40" in out
    blob = json.loads((tmp_path / "stats.json").read_text())
    assert blob["n_questions"] == 40
    for svg in ("positions.svg", "segs_per_qa.svg", "qas_per_seg.svg"):
        assert (tmp_path / svg).exists()


def test_stats_empty_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("question_id,video_id,duration_s,answer_index,segments\n")
    rc = main(["stats", str(empty), "-o", str(tmp_path)])
    assert rc == 2


def test_data_dir_env_var(data, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GVQA_DATA_DIR", str(data))
    monkeypatch.chdir(tmp_path)
    rc = main(["stats", "labels.csv", "-o", str(tmp_path / "out")])
    assert rc == 0


# --- train-synth ------------------------------------------------------------

TRAIN_ARGS = ["train-synth", "--seed", "5", "--epochs", "2"]


def _write_cfg(path, extra=""):
    path.write_text(
        "n_episodes = 40           # tiny world\n"
        "train.patience = 5\n"
        "timelines = 2\n" + extra
    )


def test_train_synth_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)
    out = tmp_path / "run"
    rc = main(TRAIN_ARGS + ["--config", str(cfg), "-o", str(out)])
    assert rc == 0
    for name in ("checkpoint.npz", "history.csv", "predictions.json",
                 "labels.csv", "report.json", "report.csv"):
        assert (out / name).exists(), name
    svgs = list((out / "timelines").glob("*.svg"))
    assert len(svgs) == 2
    # history has one row per epoch plus header
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,stage,loss,acc_qa,acc_gqa,m_iop,m_iou"
    assert len(lines) == 3

    # the emitted predictions are evaluable by the eval command
    rc = main(["eval", str(out / "predictions.json"), str(out / "labels.csv"),
               "-o", str(tmp_path / "chain")])
    assert rc == 0


def test_train_synth_seed_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(TRAIN_ARGS + ["--config", str(cfg), "-o", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "predictions.json").read_bytes() == (outs[1] / "predictions.json").read_bytes()
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    with np.load(outs[0] / "checkpoint.npz") as a, np.load(outs[1] / "checkpoint.npz") as b:
        for key in a.files:
            assert np.array_equal(a[key], b[key])


def test_train_synth_flag_overrides_config_seed(tmp_path):
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg, "seed = 1\n")
    flag = tmp_path / "flag"
    plain = tmp_path / "plain"
    assert main(["train-synth", "--config", str(cfg), "--seed", "5", "--epochs", "1",
                 "-o", str(flag)]) == 0
    cfg2 = tmp_path / "run2.cfg"
    _write_cfg(cfg2, "seed = 5\n")
    assert main(["train-synth", "--config", str(cfg2), "--epochs", "1",
                 "-o", str(plain)]) == 0
    assert (flag / "labels.csv").read_bytes() == (plain / "labels.csv").read_bytes()


def test_gamma_narrows_windows(tmp_path):
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)

    def mean_width(out):
        blob = json.loads((out / "predictions.json").read_text())
        return float(np.mean([v["end"] - v["start"] for v in blob.values()]))

    wide, narrow = tmp_path / "g10", tmp_path / "g08"
    assert main(TRAIN_ARGS + ["--config", str(cfg), "--gamma", "1.0", "-o", str(wide)]) == 0
    assert main(TRAIN_ARGS + ["--config", str(cfg), "--gamma", "0.8", "-o", str(narrow)]) == 0
    assert mean_width(narrow) < mean_width(wide)


def test_gamma_zero_exit_2(tmp_path, capsys):
    # --gamma takes any float; TrainConfig rejects a non-positive one
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)
    rc = main(TRAIN_ARGS + ["--config", str(cfg), "--gamma", "0", "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "gamma must be positive" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    rc = main(["train-synth", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_without_equals_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    rc = main(["train-synth", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert rc == 2


def test_parse_config_file_shapes(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1\n\n# comment only\nb.c = x  # trailing\n")
    assert parse_config_file(cfg) == {"a": "1", "b.c": "x"}


def test_non_finite_loss_exit_3(tmp_path, monkeypatch, capsys):
    from gvqa import cli
    from gvqa.trainer import NonFiniteLoss

    def boom(*args, **kwargs):
        raise NonFiniteLoss("synthetic blow-up")

    monkeypatch.setattr(cli, "train", boom)
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)
    rc = main(TRAIN_ARGS + ["--config", str(cfg), "-o", str(tmp_path / "o")])
    assert rc == 3
    assert "blow-up" in capsys.readouterr().err


def test_console_script_installed(data, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gvqa.cli", "eval", str(data / "perfect.json"),
         str(data / "labels.csv"), "-o", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Acc@QA: 100.0" in proc.stdout
