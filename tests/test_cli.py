"""Command line behavior: exit codes, outputs, determinism."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gvqa import cli
from gvqa.annotations import ParseError, load_labels, save_labels
from gvqa.cli import main, parse_config_file
from gvqa.metrics import (
    Prediction,
    evaluate,
    load_predictions,
    save_predictions,
    write_report_csv,
    write_report_json,
)
from gvqa.model import load_checkpoint, predict_episodes
from gvqa.synth import SynthConfig, episodes_to_labels, generate, split_by_video
from gvqa.trainer import InsufficientPool, TrainConfig


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
    # not the bare KeyError repr "error: 'ghost'"
    assert capsys.readouterr().err == (
        "error: prediction for question 'ghost', which is not in the labels\n")


def test_eval_warns_on_stderr_of_a_missing_prediction(data, tmp_path, capsys):
    perfect = json.loads((data / "perfect.json").read_text())
    del perfect[sorted(perfect)[0]]
    preds = tmp_path / "short.json"
    preds.write_text(json.dumps(perfect))
    rc = main(["eval", str(preds), str(data / "labels.csv"), "-o", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    warning = "warning: 1 labeled questions had no prediction and were scored zero\n"
    assert captured.err == warning
    assert "warning" not in captured.out


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


def test_stats_segment_ratio_underflowing_to_zero(tmp_path, capsys):
    labels = tmp_path / "tiny.csv"
    labels.write_text("question_id,video_id,duration_s,answer_index,segments\n"
                      "q0,v0,2.0,0,0.0:5e-324\n")
    rc = main(["stats", str(labels), "-o", str(tmp_path)])
    assert rc == 0
    assert "mean segment/video ratio: 0.00" in capsys.readouterr().out
    assert json.loads((tmp_path / "stats.json").read_text())["mean_ratio"] == 0.0


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
    # the 40-episode world runs out of same-video negatives
    with pytest.warns(InsufficientPool):
        rc = main(TRAIN_ARGS + ["--config", str(cfg), "-o", str(out)])
    assert rc == 0
    for name in ("checkpoint.npz", "history.csv", "predictions.json",
                 "labels.csv", "report.json", "report.csv"):
        assert (out / name).exists(), name
    svgs = list((out / "timelines").glob("*.svg"))
    assert len(svgs) == 2
    # history has one row per epoch plus header
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,stage,loss,acc_qa,acc_gqa,m_iop,m_iou,fallbacks"
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
        with pytest.warns(InsufficientPool):
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
    with pytest.warns(InsufficientPool):
        assert main(["train-synth", "--config", str(cfg), "--seed", "5", "--epochs", "1",
                     "-o", str(flag)]) == 0
    cfg2 = tmp_path / "run2.cfg"
    _write_cfg(cfg2, "seed = 5\n")
    with pytest.warns(InsufficientPool):
        assert main(["train-synth", "--config", str(cfg2), "--epochs", "1",
                     "-o", str(plain)]) == 0
    assert (flag / "labels.csv").read_bytes() == (plain / "labels.csv").read_bytes()


@pytest.mark.parametrize("flag,key", [
    (["--seed", "3"], "seed = 3"),
    (["--frames", "16"], "n_frames = 16"),
    (["--epochs", "2"], "epochs = 2"),
    (["--alpha", "0.7"], "alpha = 0.7"),
    (["--gamma", "0.9"], "gamma = 0.9"),
    (["--objective", "ng"], "objective = ng"),
])
def test_each_flag_equals_its_config_key(tmp_path, flag, key):
    outs = []
    for name, extra, flags in (("flag", "", flag), ("key", key + "\n", [])):
        cfg = tmp_path / f"{name}.cfg"
        _write_cfg(cfg, "epochs = 1\n" + extra)
        outs.append(tmp_path / name)
        assert main(["train-synth", "--config", str(cfg), *flags, "-o", str(outs[-1])]) == 0
    assert (outs[0] / "predictions.json").read_bytes() == (outs[1] / "predictions.json").read_bytes()


def test_seed_flag_wins_over_both_file_seeds(tmp_path):
    # the flag is read after the file's keys, so it sets the world seed that
    # a later synth.seed line would otherwise keep
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg, "seed = 5\nsynth.seed = 9\n")
    args = cli.build_parser().parse_args(["train-synth", "--config", str(cfg), "--seed", "3"])
    synth_kw, train_kw, _ = cli._split_config(parse_config_file(cfg), args,
                                              SynthConfig, TrainConfig)
    assert synth_kw["seed"] == train_kw["seed"] == 3
    # and end to end: the same outputs as the seed flag alone
    plain = tmp_path / "plain.cfg"
    _write_cfg(plain)
    for name, path in (("both", cfg), ("plain", plain)):
        assert main(["train-synth", "--config", str(path), "--seed", "3", "--epochs", "1",
                     "-o", str(tmp_path / name)]) == 0
    for f in ("predictions.json", "labels.csv"):
        assert (tmp_path / "both" / f).read_bytes() == (tmp_path / "plain" / f).read_bytes()


@pytest.mark.parametrize("route", ["file", "flag"])
def test_ng_objective_runs_one_stage(tmp_path, capsys, route):
    # the default schedule has a grounding pretrain stage, which ng lacks
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg, "train.objective = ng\n" if route == "file" else "")
    flags = ["--objective", "ng"] if route == "flag" else []
    rc = main(["train-synth", "--config", str(cfg), "--epochs", "1", *flags,
               "-o", str(tmp_path / "o")])
    assert rc == 0
    assert "objective ng (1 stage)" in capsys.readouterr().out


@pytest.mark.parametrize("route", ["file", "flag"])
def test_ng_objective_with_explicit_two_stages_exit_2(tmp_path, capsys, route):
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg, "train.stages = 2\n" + ("train.objective = ng\n" if route == "file" else ""))
    flags = ["--objective", "ng"] if route == "flag" else []
    rc = main(["train-synth", "--config", str(cfg), "--epochs", "1", *flags,
               "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "no grounding pretrain stage" in capsys.readouterr().err


def test_config_value_that_does_not_parse_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg, "epochs = two\n")
    rc = main(["train-synth", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: config key epochs: cannot parse 'two' as int\n"


def test_checkpoint_reproduces_the_run_predictions(tmp_path):
    # the checkpoint train-synth wrote, run on the same world and split at
    # the default gamma, gives the run's predictions.json byte for byte
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_episodes = 40\n")
    out = tmp_path / "run"
    assert main(["train-synth", "--config", str(cfg), "--epochs", "1", "-o", str(out)]) == 0
    params = load_checkpoint(out / "checkpoint.npz")
    _, val = split_by_video(generate(SynthConfig(n_episodes=40)), seed=0)
    save_predictions(tmp_path / "again.json", predict_episodes(params, val, gamma=1.0))
    assert (tmp_path / "again.json").read_bytes() == (out / "predictions.json").read_bytes()


def test_gamma_narrows_windows(tmp_path):
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)

    def mean_width(out):
        blob = json.loads((out / "predictions.json").read_text())
        return float(np.mean([v["end"] - v["start"] for v in blob.values()]))

    wide, narrow = tmp_path / "g10", tmp_path / "g08"
    for gamma, out in (("1.0", wide), ("0.8", narrow)):
        with pytest.warns(InsufficientPool):
            assert main(TRAIN_ARGS + ["--config", str(cfg), "--gamma", gamma, "-o", str(out)]) == 0
    assert mean_width(narrow) < mean_width(wide)


def test_gamma_zero_exit_2(tmp_path, capsys):
    # --gamma takes any float; TrainConfig rejects a non-positive one
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)
    rc = main(TRAIN_ARGS + ["--config", str(cfg), "--gamma", "0", "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "gamma must be positive" in capsys.readouterr().err


def test_gamma_nan_exit_2(tmp_path, capsys):
    # NaN passes a plain "gamma <= 0" test and widened every window to the video
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)
    out = tmp_path / "o"
    rc = main(TRAIN_ARGS + ["--config", str(cfg), "--gamma", "nan", "-o", str(out)])
    assert rc == 2
    assert "gamma must be positive and finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_negative_timelines_exit_2(tmp_path, capsys):
    # a negative count would slice the validation list from the end
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg, "timelines = -1\n")
    out = tmp_path / "o"
    rc = main(TRAIN_ARGS + ["--config", str(cfg), "-o", str(out)])
    assert rc == 2
    assert "timelines must be >= 0, got -1" in capsys.readouterr().err
    assert not (out / "timelines").exists()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    # the validation share is split_by_video's default, not a config field
    for line in ("not_a_key = 3", "train.val_fraction = 0.5"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n_episodes = 8\nepochs = 1\n{line}\n")
        rc = main(["train-synth", "--config", str(cfg), "-o", str(tmp_path / "o")])
        assert rc == 2
        assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err


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
    from gvqa import trainer
    from gvqa.trainer import NonFiniteLoss

    def boom(*args, **kwargs):
        raise NonFiniteLoss("synthetic blow-up")

    # cmd_train_synth imports train when it runs
    monkeypatch.setattr(trainer, "train", boom)
    cfg = tmp_path / "run.cfg"
    _write_cfg(cfg)
    rc = main(TRAIN_ARGS + ["--config", str(cfg), "-o", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == "numerical error: synthetic blow-up\n"


def test_console_script_installed(data, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gvqa.cli", "eval", str(data / "perfect.json"),
         str(data / "labels.csv"), "-o", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Acc@QA: 100.0" in proc.stdout


def test_eval_does_not_import_the_training_stack(data, tmp_path):
    # gvqa eval loads no model, synth or trainer; the package still gives
    # their names on first use
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import gvqa.cli\n"
        "rc = gvqa.cli.main(sys.argv[1:])\n"
        "training = ('gvqa.model', 'gvqa.synth', 'gvqa.trainer', 'gvqa.gaussian', 'gvqa.posthoc')\n"
        "print(rc, sorted(m for m in training if m in sys.modules))\n"
        "from gvqa import generate, train\n"
        "import gvqa.synth, gvqa.trainer\n"
        "print(generate is gvqa.synth.generate, train is gvqa.trainer.train)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "eval", str(data / "perfect.json"),
         str(data / "labels.csv"), "-o", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0 []", "True True"]


def test_unknown_package_attribute_is_an_attribute_error():
    import gvqa
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        gvqa.nope


def test_console_script_entry_point(data, tmp_path, monkeypatch, capsys):
    # the target [project.scripts] installs as `gvqa`, called as its wrapper
    # calls it: no arguments, the command line in sys.argv
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gvqa"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["gvqa", "eval", str(data / "perfect.json"),
                                      str(data / "labels.csv"), "-o", str(tmp_path)])
    assert entry() == 0
    assert "Acc@QA: 100.0" in capsys.readouterr().out


def test_eval_bad_window_names_question_exit_2(data, tmp_path, capsys):
    preds = json.loads((data / "perfect.json").read_text())
    qid = sorted(preds)[len(preds) // 2]
    preds[qid]["end"] = preds[qid]["start"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(preds))
    rc = main(["eval", str(bad), str(data / "labels.csv"), "-o", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad prediction for question {qid!r}: segment needs start < end" in err
    assert not (tmp_path / "report.json").exists()


# a one-question file of each reader, with %s for the answer index
ANSWER_FILES = {
    "eval": ("preds.json", '{"q1": {"answer": %s, "start": 0.0, "end": 1.0}}',
             load_predictions, ValueError, "bad prediction for question 'q1': "),
    "stats": ("labels.json", '[{"question_id": "q1", "video_id": "v", "duration_s": 30.0, '
              '"answer_index": %s, "segments": [[1.0, 2.0]]}]',
              load_labels, ParseError, "labels.json:row 0: "),
}


@pytest.mark.parametrize("command", sorted(ANSWER_FILES))
def test_infinite_json_number_is_a_bad_input_exit_2(data, tmp_path, capsys, command):
    # JSON reads 1e400 as inf, and int(inf) raises OverflowError
    name, text, reader, error, where = ANSWER_FILES[command]
    bad = tmp_path / name
    bad.write_text(text % "1e400")
    message = where + "cannot convert float infinity to integer"
    with pytest.raises(error, match=re.escape(message)):
        reader(bad)
    inputs = [str(bad), str(data / "labels.csv")] if command == "eval" else [str(bad)]
    rc = main([command, *inputs, "-o", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("answer", ["2.7", "2.0", "true", "false"])
@pytest.mark.parametrize("command", sorted(ANSWER_FILES))
def test_non_integer_answer_index_is_a_bad_input_exit_2(data, tmp_path, capsys, command,
                                                        answer):
    # int() would read 2.7 and 2.0 as answer 2, and true and false as 1 and 0
    name, text, reader, error, where = ANSWER_FILES[command]
    bad = tmp_path / name
    bad.write_text(text % answer)
    message = where + f"answer index {json.loads(answer)!r} is not an integer"
    with pytest.raises(error, match=re.escape(message)):
        reader(bad)
    inputs = [str(bad), str(data / "labels.csv")] if command == "eval" else [str(bad)]
    rc = main([command, *inputs, "-o", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    # a string of digits, as a CSV-to-JSON conversion writes it, is an index
    good = tmp_path / f"good_{name}"
    good.write_text(text % '"2"')
    assert reader(good).answer.tolist() == [2]


CSV_HEAD = b"question_id,video_id,duration_s,answer_index,segments\r\n"
# each input file with a Latin-1 byte: its reader, and the command that reads it
LATIN1_INPUTS = {
    "labels.csv": (CSV_HEAD + b"q1,caf\xe9,30,0,1:2\r\n", load_labels, ["stats"]),
    # the bad byte past the first 8 KiB, which the CSV reader decodes in a later chunk
    "long.csv": (CSV_HEAD + b"".join(b"q%d,v,30,0,1:2\r\n" % i for i in range(600))
                 + b"q600,caf\xe9,30,0,1:2\r\n", load_labels, ["stats"]),
    "labels.json": (b'[{"question_id": "q1", "video_id": "caf\xe9", "duration_s": 30, '
                    b'"answer_index": 0, "segments": "1:2"}]', load_labels, ["stats"]),
    "preds.json": (b'{"caf\xe9": {"answer": 0, "start": 0.0, "end": 1.0}}',
                   load_predictions, ["eval"]),
    "tiny.cfg": (b"# caf\xe9\nn_episodes = 40\n", parse_config_file, ["train-synth", "--config"]),
}


@pytest.mark.parametrize("name", sorted(LATIN1_INPUTS))
def test_input_that_is_not_utf8_names_the_file_exit_2(data, tmp_path, capsys, name):
    text, reader, command = LATIN1_INPUTS[name]
    bad = tmp_path / name
    bad.write_bytes(text)
    if name == "long.csv":
        assert text.index(b"\xe9") > 8192
    # no codec position: for a file read in chunks it counts from the chunk
    message = f"{bad}: not UTF-8 text: byte 0xe9: invalid continuation byte"
    with pytest.raises(ParseError) as exc:
        reader(bad)
    assert str(exc.value) == message
    labels = [str(data / "labels.csv")] if command == ["eval"] else []
    assert main([*command, str(bad), *labels, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, text, msg", [
    ("preds.json", '{"q\u00e9": {"answer": 0, "start": 0.0, "end": 1.0}, oops}',
     "Expecting property name enclosed in double quotes"),
    ("labels.json", '[{"question_id": "q\u00e9"},\r\n oops]', "Expecting value"),
])
def test_invalid_json_names_file_and_byte_offset_exit_2(data, tmp_path, capsys,
                                                        name, text, msg):
    bad = tmp_path / name
    bad.write_bytes(text.encode("utf-8"))
    offset = text.encode("utf-8").index(b"oops")
    assert offset == text.index("oops") + 1  # the accented e is two bytes in UTF-8
    message = f"{bad}: invalid JSON at byte offset {offset}: {msg}"
    reader, argv = ((load_predictions, ["eval", str(bad), str(data / "labels.csv")])
                    if name == "preds.json" else (load_labels, ["stats", str(bad)]))
    with pytest.raises(ParseError) as exc:
        reader(bad)
    assert str(exc.value) == message
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# a cell one past the csv module's default field size limit of 131072
LONG_CELL = b"1:2;" * 40000
LONG_CELL_FILES = {
    "header": (CSV_HEAD.rstrip() + b"," + LONG_CELL + b"\r\n", 1),
    "row": (CSV_HEAD + b"q0,v,30,0,1:2\r\nq1,v,30,0," + LONG_CELL + b"\r\n", 3),
}


@pytest.mark.parametrize("where", sorted(LONG_CELL_FILES))
def test_csv_cell_past_the_field_limit_names_file_and_line_exit_2(tmp_path, capsys, where):
    text, line = LONG_CELL_FILES[where]
    bad = tmp_path / "long.csv"
    bad.write_bytes(text)
    message = f"long.csv:{line}: field larger than field limit (131072)"
    with pytest.raises(ParseError) as exc:
        load_labels(bad)
    assert str(exc.value) == message
    assert main(["stats", str(bad), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# JSON the decoder parses but cannot build: per case, the prediction file
# and the label file, and the start of the decoder's message
UNREADABLE_JSON = {
    "long integer": ('{"q1": {"answer": %s, "start": 0.0, "end": 1.0}}' % ("1" * 5000),
                     '[{"question_id": "q1", "video_id": "v", "duration_s": 30, '
                     '"answer_index": %s, "segments": "1:2"}]' % ("1" * 5000),
                     "Exceeds the limit (4300 digits) for integer string conversion"),
    "deep nesting": ('{"q1": %s}' % ("[" * 100000 + "]" * 100000),
                     "[" * 100000 + "]" * 100000,
                     "maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("command", ["eval", "stats"])
@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
def test_unreadable_json_names_the_file_exit_2(data, tmp_path, capsys, case, command):
    preds, labels, msg = UNREADABLE_JSON[case]
    if command == "eval":
        bad, reader, inputs = tmp_path / "preds.json", load_predictions, [str(data / "labels.csv")]
        bad.write_text(preds)
    else:
        bad, reader, inputs = tmp_path / "labels.json", load_labels, []
        bad.write_text(labels)
    message = f"{bad}: unreadable JSON: {msg}"
    with pytest.raises(ParseError) as exc:
        reader(bad)
    assert str(exc.value).startswith(message)
    assert main([command, str(bad), *inputs, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_json_label_row_without_segments_names_the_column_exit_2(tmp_path, capsys):
    bad = tmp_path / "labels.json"
    bad.write_text('[{"question_id": "q1", "video_id": "v", "duration_s": 30, '
                   '"answer_index": 0}]')
    message = "labels.json:row 0: missing column 'segments'"
    with pytest.raises(ParseError) as exc:
        load_labels(bad)
    assert str(exc.value) == message
    assert main(["stats", str(bad), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parser_built_once_and_commands_looked_up_per_call(data, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.predictions) or 7)
    assert main(["eval", "p.json", "l.csv", "-o", str(tmp_path)]) == 7
    assert seen == ["p.json"]


def test_eval_report_files_from_rounded_report(data, tmp_path):
    # cmd_eval writes from its once-rounded report; the files must equal the
    # writers' output for the unrounded report (with some windows too long,
    # so mIoP needs rounding)
    preds = json.loads((data / "perfect.json").read_text())
    for i, v in enumerate(preds.values()):
        if i % 3 == 0:
            v["end"] = v["start"] + (v["end"] - v["start"]) * 1.37
    some = tmp_path / "some.json"
    some.write_text(json.dumps(preds))
    assert main(["eval", str(some), str(data / "labels.csv"), "-o", str(tmp_path / "cli")]) == 0
    report = evaluate(load_predictions(some), load_labels(data / "labels.csv"))
    assert report.m_iop != round(report.m_iop, 1)
    write_report_json(tmp_path / "direct.json", report)
    write_report_csv(tmp_path / "direct.csv", report)
    assert (tmp_path / "cli" / "report.json").read_bytes() == (tmp_path / "direct.json").read_bytes()
    assert (tmp_path / "cli" / "report.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
