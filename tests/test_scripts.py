"""The analysis scripts run end to end on a tiny world and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--episodes", "120", "--epochs", "1"]


def _run(script, args=TINY):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_compare_objectives_prints_every_row():
    lines = _run("compare_objectives.py")
    names = [line.split()[0] for line in lines if "(n=" in line]
    assert names == ["random", "ng;all", "ng+;all", "ng;VQA", "ng+;VQA", "ng;GDQA", "ng+;GDQA"]
    for line in lines:
        if "(n=" in line:
            # eight metric cells, then the question count
            assert len(line.split()) == 10


def test_compare_objectives_prints_empty_subset_rows():
    # 20 episodes leave 4 validation questions and no GDQA question
    lines = _run("compare_objectives.py", ["--episodes", "20", "--epochs", "1"])
    rows = {line.split()[0]: line.split()[1:] for line in lines if "(n=" in line}
    assert list(rows) == ["random", "ng;all", "ng+;all", "ng;VQA", "ng+;VQA",
                          "ng;GDQA", "ng+;GDQA"]
    assert rows["ng;GDQA"] == rows["ng+;GDQA"] == ["(n=0)"]
    for name in ("random", "ng;all", "ng+;all"):
        assert len(rows[name]) == 9 and rows[name][-1] == "(n=4)"


def test_compare_objectives_prints_every_sweep_row():
    sweeps = {}
    for line in _run("compare_objectives.py"):
        if "window sweep" in line:
            rows = sweeps[line.split()[0]] = []
        elif line.split()[:1] in (["1.0"], ["0.8"]):
            rows.append(line.split())
    assert list(sweeps) == ["ng", "ng+"]
    for rows in sweeps.values():
        assert [(r[0], r[1]) for r in rows] == [
            (g, s) for g in ("1.0", "0.8") for s in ("gauss", "attn", "fused")
        ]
        assert all(len(r) == 6 for r in rows)
