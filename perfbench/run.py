"""gvqa benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload ng-default --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Set-up (generate + split_by_video + init_params) is repeated SETUP_REPS times;
then passes run, each followed by its output checks, until the next pass would
end after --seconds (at least MIN_PASSES). Times are wall times rescaled to a
fixed machine speed by speed.SpeedProbe. With --trace 0 the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with --trace 1 passes
alternate untraced and traced, and it carries the per-layer metrics. Run
records and spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9
# a traced run needs one untraced and one traced pass
MIN_PASSES = {0: 1, 1: 2}
# the package claims one CPU core; one BLAS thread also keeps runs comparable
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _end_to_end(scaled, setups, passes, summaries) -> dict:
    n_scored = len(passes[0]["scored"])
    return {
        "setup_s": _median(scaled(*iv) for iv in setups),
        "wall_s": _median(scaled(*p["pass"]) for p in passes),
        "predict_eps_per_s": n_scored * sum(len(p["predict"]) for p in passes)
        / sum(scaled(*iv) for p in passes for iv in p["predict"]),
        "eval_qps": _median(n_scored / scaled(t0, t1) for p in passes for _, t0, t1 in p["eval"]),
        "miop": summaries[0]["miop"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _raw(setups, passes, probe) -> dict:
    """Medians of the raw walls (untraced passes) and of the probe time: the
    inputs of the rescaled times, so a change that moves the probe itself shows."""
    return {
        "raw.setup_s": _median(t1 - t0 for t0, t1 in setups),
        "raw.wall_s": _median(p["pass"][1] - p["pass"][0] for p in passes if not p["traced"]),
        "speed.probe_median_ms": 1e3 * _median(d for _, d in probe.samples),
    }


def _per_layer(scaled, tracer, tracing, passes, summaries, n_train, ops) -> dict:
    """Span counts and self times from the traced passes; phase times from the
    untraced ones."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    pass_segments = tracer.aggregate("pass")
    values = tracing.layer_metrics(pass_segments)
    values.update(tracing.layer_metrics(tracer.aggregate("setup")))
    neg_calls = sum(seg.get("trainer.sample_negatives", {}).get("calls", 0)
                    for seg in pass_segments)
    values["trainer.sampler_fallback_ratio"] = tracer.fallbacks / neg_calls if neg_calls else 0.0
    for stage in ("ng", "ground", "ng+"):
        values[f"trainer.epoch_s.{stage.replace('ng+', 'ngplus')}"] = _median(
            scaled(t0, t1) for p in plain for s, t0, t1 in p.get("epochs", []) if s == stage)
    values["trainer.epochs_run"] = len(plain[0].get("history", []))
    values["phase.train_eps_per_s"] = _median(
        n_train * len(p["history"]) / scaled(*p["train"]) for p in plain if "train" in p)
    values["phase.probe_fit_s"] = _median(scaled(*p["probe_fit"]) for p in plain
                                          if "probe_fit" in p)
    values["trace.overhead_s"] = (_median(scaled(*p["pass"]) for p in traced)
                                  - _median(scaled(*p["pass"]) for p in plain))
    values["gate.error_rate"] = ops.failed / ops.attempted
    values["quality.acc_gqa"] = summaries[0]["acc_gqa"]
    return values


def _select(spec_metrics, values, traced_names) -> dict:
    """The metrics BENCHMARK.json lists, in its order; a span never entered reads 0."""
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[0] in traced_names:
            value = 0
        else:
            raise KeyError(f"benchmark computes no metric {name!r}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gvqa" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no gvqa source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import gvqa
    if Path(gvqa.__file__).resolve().parent != (ROOT / "src" / "gvqa").resolve():
        print(f"error: gvqa imported from {gvqa.__file__}, not this checkout", file=sys.stderr)
        return 2
    import checks
    import speed
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    out_dir = HERE / "out"
    work = out_dir / f"work-{w.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    ops = workloads.Ops()
    setups: list[tuple[float, float]] = []
    passes: list[dict] = []
    summaries: list[dict] = []
    with speed.SpeedProbe() as probe:
        try:
            for _ in range(SETUP_REPS):
                # drop the previous copy first, so peak RSS holds one data set
                inputs = None
                gc.collect()
                with tracer.traced("setup") if args.trace else contextlib.nullcontext():
                    t0 = perf_counter()
                    inputs = workloads.setup(w, args.seed)
                    setups.append((t0, perf_counter()))
                ops.attempted += 3
                if len(setups) == 1:
                    inputs_digest = checks.episodes_digest(inputs.episodes)
                elif checks.episodes_digest(inputs.episodes) != inputs_digest:
                    ops.failed += 1

            gradient_errors = checks.gradient_check(gvqa.model, gvqa.temporal, args.seed)
            ops.attempted += len(gradient_errors)
            ops.failed += sum(err > checks.FD_REL_TOL for err in gradient_errors.values())

            t_start = perf_counter()
            while True:
                traced = bool(args.trace) and len(passes) % 2 == 1
                gc.collect()
                with tracer.traced("pass") if traced else contextlib.nullcontext():
                    rec = workloads.run_pass(w, inputs, args.seed, ops, work)
                rec["traced"] = traced
                failed, summary = workloads.check_pass(rec, inputs)
                ops.failed += failed
                # keep timings only, so peak RSS does not grow with the pass count
                for key in ("predictions", "params", "scorers", "split"):
                    rec.pop(key, None)
                passes.append(rec)
                summaries.append(summary)
                elapsed = perf_counter() - t_start
                if (len(passes) >= MIN_PASSES[args.trace]
                        and elapsed * (1 + 1 / len(passes)) > args.seconds):
                    break
        except Exception:
            traceback.print_exc()
            ops.attempted += 1
            ops.failed += 1
        finally:
            shutil.rmtree(work, ignore_errors=True)

    if not passes:
        print(json.dumps({"correct": False, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": {}}))
        return 1

    # same seed, same code: every pass returns identical parameters and predictions
    ops.failed += len({(s["params_digest"], s["predictions_digest"]) for s in summaries}) - 1
    # nested spans: the self times of a segment cannot add up to more than its wall
    ops.failed += sum(sum(e["self_s"] for n, e in seg.items() if n != "_wall") > seg["_wall"]
                      for seg in tracer.aggregate("pass") + tracer.aggregate("setup"))

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(np),
        "rationale": {"stresses": w.stresses, "bypasses": w.bypasses, "no_change": w.no_change},
        "inputs_digest": inputs_digest,
        "params_digest": summaries[0]["params_digest"],
        "predictions_digest": summaries[0]["predictions_digest"],
        "gradient_rel_error": gradient_errors,
        "setup_walls": [t1 - t0 for t0, t1 in setups],
        "pass_walls": [p["pass"][1] - p["pass"][0] for p in passes],
        "passes_traced": [p["traced"] for p in passes],
        "speed_probes_s": [d for _, d in probe.samples],
        "raw": _raw(setups, passes, probe),
        "attempted": ops.attempted, "failed": ops.failed,
    }
    if args.trace:
        values = _per_layer(probe.scaled, tracer, tracing, passes, summaries,
                            len(inputs.train), ops)
        values.update(record["raw"])
        metrics = _select(spec["per_layer"], values, tracing.span_names())
        tracer.write_spans(out_dir / f"spans-{w.name}-s{args.seed}.tsv")
    else:
        values = _end_to_end(probe.scaled, setups, passes, summaries)
        metrics = _select(spec["end_to_end"], values, set())
    record["metrics"] = metrics
    (out_dir / f"{w.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
