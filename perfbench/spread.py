"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ngplus-pool --seeds 1-5
    python3 perfbench/spread.py --workload ng-default --seeds 1,1,2 --trace 1

Runs are sequential, one process each. For every metric it prints the median,
the quartiles (statistics.quantiles(n=4)) and their distance as a share of the
median, next to the bound BENCHMARK.json gives. A seed listed twice must give
identical digests. Each run's raw (not rescaled) set-up and pass walls and its
median speed-probe time are summarised next to the metrics. --save FILE merges the summary into FILE under the
workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = ("inputs_digest", "params_digest", "predictions_digest")


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10 or 3,3,4")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    digests: dict[int, tuple] = {}
    environment = None
    ok = True
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds",
                                 str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        environment = environment or record["environment"]
        seen = tuple(record[k] for k in DIGESTS)
        if digests.setdefault(seed, seen) != seen:
            print(f"seed {seed}: digests differ between runs: {digests[seed]} vs {seen}")
            ok = False
        ok &= result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={len(record['pass_walls'])} "
              f"digests={'/'.join(seen)}")
        # raw walls and probe time: not rescaled, so a shift of the probe itself shows
        seen_values = {**record["raw"], **{n: m["value"] for n, m in result["metrics"].items()}}
        for name, value in seen_values.items():
            values.setdefault(name, []).append(value)

    summary = {"seeds": args.seeds, "seconds": spec["run_seconds"], "environment": environment,
               "metrics": {}}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "values": vals}
        flag = "" if bound is None else f"  bound {bound}" + ("  OVER 1/3" if spread > bound / 3 else "")
        print(f"{name:45s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
              f"spread {spread:7.4f}{flag}")
    if args.save:
        saved = json.loads(args.save.read_text(encoding="utf-8")) if args.save.exists() else {}
        saved.setdefault(args.workload, {})[f"trace{args.trace}"] = summary
        args.save.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
