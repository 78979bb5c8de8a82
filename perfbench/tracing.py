"""Span tracing of the public gvqa functions, installed from outside the package.

Each traced function is replaced by a wrapper at every module attribute that
holds it, so calls made through ``from .x import f`` in another gvqa module are
traced too. Spans stay in memory; ``write_spans`` dumps them once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import warnings
from contextlib import contextmanager
from time import perf_counter

# (defining module, function, span name); the span name is "<module>.<function>"
# unless given
FUNCTIONS = (
    ("trainer", "train", None),
    ("trainer", "sample_negatives", None),
    ("model", "loss_and_gradients", None),
    ("model", "predict_episode", None),
    ("model", "predict_gaussian", None),
    ("model", "encode_video", None),
    ("gaussian", "mask_weights", None),
    ("gaussian", "confidence_interval", None),
    ("posthoc", "extract_window_raw", None),
    ("posthoc", "smooth_scores", None),
    ("synth", "generate", None),
    ("synth", "fit_diagnostics", None),
    ("synth", "split_diagnostic", None),
    ("synth", "episodes_to_labels", None),
    ("metrics", "evaluate", None),
    ("metrics", "best_overlap", None),
    ("metrics", "load_predictions", None),
    ("metrics", "save_predictions", None),
    ("metrics", "write_report_json", None),
    ("metrics", "write_report_csv", None),
    ("temporal", "iop", None),
    ("temporal", "iou", None),
    ("annotations", "save_labels", None),
    ("annotations", "load_labels", None),
    ("annotations", "compute_stats", None),
    ("annotations", "write_stats_svgs", None),
    ("svgplot", "bar_chart", None),
    ("svgplot", "pie_chart", None),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_stats", "cli.stats"),
)
# (defining module, class, method)
METHODS = (
    ("trainer", "Adam", "step"),
    ("synth", "QuestionOnlyScorer", "fit"),
    ("synth", "FramesQuestionScorer", "fit"),
)


def span_names() -> set[str]:
    """Every span name a traced run can record."""
    names = {span or f"{mod}.{fn}" for mod, fn, span in FUNCTIONS if fn != "loss_and_gradients"}
    names |= {f"{mod}.{cls}.{meth}" for mod, cls, meth in METHODS}
    return names | {f"model.loss_and_gradients.{o}" for o in ("ng", "ground", "ngplus")}


def _loss_span_name(args: tuple, kwargs: dict) -> str:
    objective = kwargs.get("objective", args[2] if len(args) > 2 else "ng")
    return "model.loss_and_gradients." + objective.replace("ng+", "ngplus")


class Tracer:
    """Records one span per call of every traced function while installed.

    A span is (id, parent id, name, start, end, self seconds); self time is
    the span minus the time covered by its child spans. Spans are grouped
    into segments (one set-up repetition or one pass) for aggregation.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.segments: list[tuple[str, int, int, float]] = []
        self.fallbacks = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._warning_log: list = []

    def _wrap(self, name, fn, name_of=None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if name_of is None else name_of(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent = -1
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                spans.append((sid, parent, span_name, start, end, dur - frame[0]))

        return traced

    def _count_fallbacks(self, fn, category):
        """Inner wrapper: counts calls that emitted at least one `category` warning."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            log = self._warning_log
            n0 = len(log)
            out = fn(*args, **kwargs)
            if any(issubclass(w.category, category) for w in log[n0:]):
                self.fallbacks += 1
            return out

        return counted

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Trace every listed function for the duration of the block.

        InsufficientPool is recorded under the "always" filter, so each
        sampler call that falls back is seen, not only the first.
        """
        trainer = importlib.import_module("gvqa.trainer")
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gvqa" or n.startswith("gvqa."))]
        replacements = {}
        for mod_name, attr, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(f"gvqa.{mod_name}"), attr)
            fn = original
            name_of = None
            if attr == "sample_negatives":
                fn = self._count_fallbacks(original, trainer.InsufficientPool)
            if attr == "loss_and_gradients":
                name_of = _loss_span_name
            replacements[id(original)] = self._wrap(span_name or f"{mod_name}.{attr}", fn, name_of)
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always", trainer.InsufficientPool)
            self._warning_log = log
            try:
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if id(value) in replacements and callable(value):
                            self._patch(module, attr, replacements[id(value)])
                for mod_name, cls_name, meth in METHODS:
                    cls = getattr(importlib.import_module(f"gvqa.{mod_name}"), cls_name)
                    self._patch(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}",
                                                      vars(cls)[meth]))
                yield self
            finally:
                for owner, attr, original in reversed(self._patches):
                    setattr(owner, attr, original)
                self._patches.clear()
                self._warning_log = []

    @contextmanager
    def traced(self, kind: str):
        """Trace the block as one segment of `kind` (a set-up repetition or a
        pass); records the segment's wall time."""
        with self.installed():
            i0 = len(self.spans)
            t0 = perf_counter()
            yield
            self.segments.append((kind, i0, len(self.spans), perf_counter() - t0))

    def aggregate(self, kind: str) -> list[dict]:
        """Per segment of `kind`: {name: {"calls", "self_s", "durations"}} plus "_wall"."""
        out = []
        for seg_kind, i0, i1, wall in self.segments:
            if seg_kind != kind:
                continue
            per_name: dict[str, dict] = {}
            for _, _, name, start, end, self_s in self.spans[i0:i1]:
                entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
                entry["calls"] += 1
                entry["self_s"] += self_s
                entry["durations"].append(end - start)
            out.append({"_wall": wall, **per_name})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tself_s\n")
            for sid, parent, name, start, end, self_s in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{self_s!r}\n")


def layer_metrics(segments: list[dict]) -> dict[str, float]:
    """calls/self_s (median over segments) and p50_us/p99_us (pooled) per span name."""
    names = sorted({n for seg in segments for n in seg if n != "_wall"})
    out: dict[str, float] = {}
    for name in names:
        per_seg = [seg.get(name, {"calls": 0, "self_s": 0.0, "durations": []}) for seg in segments]
        out[f"{name}.calls"] = statistics.median(e["calls"] for e in per_seg)
        out[f"{name}.self_s"] = statistics.median(e["self_s"] for e in per_seg)
        durations = sorted(d for e in per_seg for d in e["durations"])
        out[f"{name}.p50_us"] = 1e6 * _quantile(durations, 0.50)
        out[f"{name}.p99_us"] = 1e6 * _quantile(durations, 0.99)
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
