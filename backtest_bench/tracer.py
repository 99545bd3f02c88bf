"""Per-layer tracing of a `qens` run, installed from outside the package.

`Tracer.install` replaces each public function of the traced modules, and
two hot methods, with a wrapper wherever a `qens` module holds a reference to
it, so calls between modules go through the wrapper too. Most wrappers record
a span (name, start, end, parent); functions called up to millions of times
only count calls, and their time falls into their caller's self time.
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

MODULES = ("forecast", "scoring", "combine", "training", "baseline", "analysis",
           "reporting", "cli")
COUNTED = {"combine.combine_values", "combine.effective_weights",
           "scoring.wis_terms", "scoring.wis", "baseline.sample_quantile_type7"}
COUNTED_METHODS = {"forecast.get": ("SubmissionSet", "get"),
                   "forecast.snapshot": ("TruthStore", "snapshot")}
# Work counts read off results: name -> (span, size of its result)
RESULT_COUNTS = {
    "forecast.forecasts_loaded": ("forecast.load_forecasts", len),
    "training.window_records": ("training.build_training_window",
                                lambda window: len(window.records)),
}

# (metric, unit, kind, layer); kind is "self" (self time of a span),
# "calls" (calls of a span or a counted function) or "count" (a work count).
LAYER_METRICS = (
    ("forecast.load_forecasts_s", "s", "self", "forecast.load_forecasts"),
    ("forecast.forecasts_loaded", "count", "count", "forecast.forecasts_loaded"),
    ("forecast.load_truth_dir_s", "s", "self", "forecast.load_truth_dir"),
    ("forecast.eligible_components_s", "s", "self", "forecast.eligible_components"),
    ("forecast.eligible_components_calls", "count", "calls",
     "forecast.eligible_components"),
    ("forecast.get_calls", "count", "calls", "forecast.get"),
    ("forecast.save_forecasts_s", "s", "self", "forecast.save_forecasts"),
    ("forecast.snapshot_calls", "count", "calls", "forecast.snapshot"),
    ("reporting.load_forecast_dir_s", "s", "self", "reporting.load_forecast_dir"),
    ("reporting.score_submissions_s", "s", "self", "reporting.score_submissions"),
    ("reporting.run_self_s", "s", "self", "reporting.run"),
    ("reporting.add_baseline_s", "s", "self", "reporting.add_baseline"),
    ("baseline.baseline_forecast_s", "s", "self", "baseline.baseline_forecast"),
    ("baseline.baseline_forecast_calls", "count", "calls",
     "baseline.baseline_forecast"),
    ("baseline.mc_quantile_calls", "count", "calls",
     "baseline.sample_quantile_type7"),
    ("training.train_and_forecast_s", "s", "self", "training.train_and_forecast"),
    ("training.build_training_window_s", "s", "self",
     "training.build_training_window"),
    ("training.window_records", "count", "count", "training.window_records"),
    ("training.window_score_table_s", "s", "self", "training.window_score_table"),
    ("training.fit_theta_s", "s", "self", "training.fit_theta"),
    ("training.window_objective_s", "s", "self", "training.window_objective"),
    ("training.window_objective_calls", "count", "calls",
     "training.window_objective"),
    ("training.convex_weights_s", "s", "self", "training.convex_weights"),
    ("training.convex_weights_calls", "count", "calls", "training.convex_weights"),
    ("combine.combine_values_calls", "count", "calls", "combine.combine_values"),
    ("combine.effective_weights_calls", "count", "calls",
     "combine.effective_weights"),
    ("scoring.wis_terms_calls", "count", "calls", "scoring.wis_terms"),
    ("scoring.relative_wis_s", "s", "self", "scoring.relative_wis"),
    ("scoring.relative_wis_calls", "count", "calls", "scoring.relative_wis"),
    ("scoring.coverage_rates_s", "s", "self", "scoring.coverage_rates"),
    ("analysis.revision_exclusion_set_s", "s", "self",
     "analysis.revision_exclusion_set"),
    ("analysis.detect_peaks_s", "s", "self", "analysis.detect_peaks"),
)

# (metric, unit) of the figures that run.py derives from several layers or
# runs: objective calls per θ fit, import time in the set-up probes, and
# traced over untraced round time.
DERIVED_METRICS = (
    ("training.theta_per_fit", "calls/fit"),
    ("cli.import_s", "s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """Spans and call counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _span(self, name, fn, measure=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if measure is not None:
                counts[measure[0]] += measure[1](result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        mods = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        holders = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(package.__name__ + ".")]
        measures = {span: (count, size) for count, (span, size) in RESULT_COUNTS.items()}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = (self._counter(name, fn) if name in COUNTED
                           else self._span(name, fn, measures.get(name)))
                for holder in holders:
                    if getattr(holder, attr, None) is fn:
                        self._patch(holder, attr, wrapper)
        forecast = sys.modules[f"{package.__name__}.forecast"]
        for name, (cls, method) in COUNTED_METHODS.items():
            owner = getattr(forecast, cls)
            self._patch(owner, method, self._counter(name, getattr(owner, method)))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layers(self) -> dict[str, float]:
        """Per-layer figures: self seconds and calls per span name, and counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, covered):
            out[f"{name}:self"] = out.get(f"{name}:self", 0.0) + (end - start - children)
            out[f"{name}:calls"] = out.get(f"{name}:calls", 0) + 1
        for name, n in self.counts.items():
            out[f"{name}:calls" if name not in RESULT_COUNTS else name] = n
        return out


def layer_metric(layers: dict[str, float], kind: str, layer: str) -> float:
    if kind == "self":
        return layers.get(f"{layer}:self", 0.0)
    if kind == "calls":
        return layers.get(f"{layer}:calls", 0)
    return layers.get(layer, 0)
