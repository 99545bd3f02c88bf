"""Output checks for one backtest bundle, computed without `qens`.

Every number is recomputed here from the generated inputs and the method's
definitions (pinball-loss WIS, interpolated weighted median, weighted mean,
the random-walk baseline by histogram convolution) or tested against a
property the method must have. Numbers are compared within `REL_TOL`, not as
bytes: the bundle's last bits depend on the interpreter's string hash seed.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gen import HORIZONS, WEEK, Inputs, prospective_start

REL_TOL = 1e-9
REVISION_EXCLUSION_DAYS = 21
DEFAULT_WINDOW_WEEKS = 12  # a spec without window_weeks trains on 12 weeks
THETA_GRID = tuple([round(0.1 * i, 10) for i in range(101)]
                   + [float(v) for v in range(12, 31, 2)])
MAX_ERRORS = 5  # failures reported per check


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------ the method

def pinball_wis(taus: np.ndarray, q: np.ndarray, y: float) -> float:
    """Mean over levels of twice the pinball loss: the quantile form of WIS."""
    diff = y - q
    return float(np.mean(2.0 * np.maximum(taus * diff, (taus - 1.0) * diff)))


def weighted_median(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Interpolated weighted median of each column over positive-weight rows.

    Rows are sorted by value (ties keep row order); each gets the midpoint of
    its weight mass, and the result interpolates at mass 0.5, clamped at the
    two ends.
    """
    keep = weights > 0.0
    values, weights = values[keep], weights[keep] / weights[keep].sum()
    order = np.argsort(values, axis=0, kind="stable")
    v, w = np.take_along_axis(values, order, axis=0), weights[order]
    mids = np.cumsum(w, axis=0) - w / 2.0
    below = np.sum(mids <= 0.5, axis=0)
    cols = np.arange(values.shape[1])
    j = np.clip(below - 1, 0, len(v) - 1)
    j1 = np.clip(below, 0, len(v) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = v[j, cols] + (0.5 - mids[j, cols]) / (mids[j1, cols] - mids[j, cols]) * (
            v[j1, cols] - v[j, cols])
    return np.where(below == 0, v[0], np.where(below == len(v), v[-1], inside))


def ensemble(values: np.ndarray, weights: np.ndarray, combiner: str) -> np.ndarray:
    """Combined quantiles, floored at zero and made nondecreasing."""
    if combiner == "mean":
        q = (weights / weights.sum()) @ values
    else:
        q = weighted_median(values, weights)
    return np.maximum.accumulate(np.maximum(q, 0.0))


def random_walk_quantiles(history: list[float], taus) -> dict[int, np.ndarray]:
    """The baseline's quantiles per horizon for integer-valued weekly counts.

    Innovations are the observed weekly differences and their negations; the
    h-week sum is the h-fold convolution of their histogram on the integer
    grid, done exactly by FFT and rounding. Quantiles are type 7 (R's
    default) over the multiset of sums, then shifted to the last value,
    floored at zero and made nondecreasing.
    """
    steps = np.diff(np.asarray(history)).astype(np.int64)
    steps = np.concatenate([steps, -steps])
    span = int(np.abs(steps).max())
    base = np.bincount(steps + span, minlength=2 * span + 1).astype(float)
    size = 1 << int(math.ceil(math.log2(len(HORIZONS) * 2 * span + 1)))
    spectrum = np.fft.rfft(base, size)
    out = {}
    for h in HORIZONS:
        counts = np.rint(np.fft.irfft(spectrum ** h, size)[:2 * h * span + 1])
        total = len(steps) ** h
        if int(counts.sum()) != total:
            raise ValueError("histogram convolution lost mass")
        cum = np.cumsum(counts)
        q = []
        for p in taus:
            pos = (total - 1) * p + 1.0
            j = math.floor(pos)
            gamma = pos - j
            x_j = float(np.searchsorted(cum, j) - h * span)
            if gamma == 0.0 or j >= total:
                q.append(x_j)
            else:
                x_next = float(np.searchsorted(cum, j + 1) - h * span)
                q.append(x_j + gamma * (x_next - x_j))
        out[h] = np.maximum.accumulate(np.maximum(history[-1] + np.array(q), 0.0))
    return out


# ------------------------------------------------------------ expectations

class Expect:
    """What a correct bundle holds, derived from the generated inputs."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        shape = inputs.shape
        self.taus = np.array(shape.levels)
        self.specs = {s["name"]: s for s in shape.specs}
        self.forecasts = {k: {h: np.array(v) for h, v in by_h.items()}
                          for k, by_h in inputs.forecasts.items()}
        if not shape.baseline_submitted:
            for loc in inputs.locations:
                for s in inputs.dates:
                    history = [inputs.seen(s, loc, w) for w in inputs.weeks if w <= s]
                    self.forecasts[("baseline", loc, s)] = random_walk_quantiles(
                        history, shape.levels)
        self.models = sorted({m for m, _, _ in self.forecasts})
        self.first_date = {}
        for m, _, s in self.forecasts:
            self.first_date[m] = min(s, self.first_date.get(m, s))

    def complete(self, loc: str, s: dt.date) -> list[str]:
        """Models with all four horizons for one location and date."""
        return [m for m in self.models
                if len(self.forecasts.get((m, loc, s), {})) == len(HORIZONS)]

    def locations_at(self, s: dt.date) -> list[str]:
        return sorted({loc for _, loc, d in self.forecasts if d == s})

    def eligible(self, spec: dict, loc: str, s: dt.date) -> list[str]:
        models = self.complete(loc, s)
        if trained(spec):
            models = [m for m in models if self.first_date[m] < s]
        return models

    def all_eligible(self, spec: dict, s: dt.date) -> list[str]:
        return sorted({m for loc in self.locations_at(s)
                       for m in self.eligible(spec, loc, s)})

    def strata(self, spec: dict) -> list[str]:
        if spec.get("sharing", "per_model") == "per_horizon":
            return [f"h{h}" for h in HORIZONS]
        return [""]

    def stratum(self, spec: dict, h: int) -> str:
        return f"h{h}" if spec.get("sharing", "per_model") == "per_horizon" else ""

    def excluded(self, loc: str, s: dt.date) -> bool:
        """Issued on a revised week, or up to three weeks after, before the fix showed."""
        if not self.inputs.shape.apply_exclusions:
            return False
        for (rloc, week) in self.inputs.initial:
            if rloc != loc:
                continue
            if 0 <= (s - week).days <= REVISION_EXCLUSION_DAYS and (
                    self.inputs.seen(s, loc, week) != self.inputs.final[(loc, week)]):
                return True
        return False


def trained(spec: dict) -> bool:
    return spec.get("weighting", "equal") != "equal" or spec.get("top_k") is not None


# ------------------------------------------------------------ the bundle

@dataclass
class Bundle:
    ensemble: dict  # (spec, loc, date, horizon) -> array of K values
    ensemble_errors: list[str]
    weights: dict  # (spec, date, stratum) -> {model: weight}
    thetas: dict  # (spec, date, stratum) -> theta or None
    scores: dict  # (model, loc, date, horizon) -> (wis, phase)
    score_dups: int
    rwis: dict  # model -> relative WIS
    median_errors: dict  # (model, loc, date, horizon) -> median error


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


def read_bundle(out: Path, taus: np.ndarray) -> Bundle:
    cells: dict = {}
    errors = []
    for model, s, loc, t, kind, tau, value in _rows(out / "ensemble_forecasts.csv"):
        s, t = _date(s), _date(t)
        key = (model, loc, s, (t - s).days // 7)
        cells.setdefault(key, []).append((float(tau), float(value)))
    ensemble = {}
    for key, pairs in cells.items():
        got = tuple(round(tau, 10) for tau, _ in pairs)
        if got != tuple(round(float(tau), 10) for tau in taus):
            errors.append(f"{key}: levels {got} are not the run's levels, once each")
            continue
        ensemble[key] = np.array([v for _, v in pairs])
    weights, thetas = {}, {}
    for s, stratum, model, w, theta, spec in _rows(out / "weights.csv"):
        key = (spec, _date(s), stratum)
        weights.setdefault(key, {})[model] = float(w)
        thetas[key] = float(theta) if theta else None
    scores = {}
    dups = 0
    for model, loc, s, t, h, wis, phase in _rows(out / "scores.csv"):
        key = (model, loc, _date(s), int(h))
        dups += key in scores
        scores[key] = (float(wis), phase)
    rwis = {row[0]: float(row[2]) for row in _rows(out / "rwis.csv") if row[2]}
    median_errors = {(m, loc, _date(s), int(h)): float(e)
                     for m, loc, s, h, e, _ in _rows(out / "peak_errors.csv")}
    return Bundle(ensemble, errors, weights, thetas, scores, dups, rwis, median_errors)


# ------------------------------------------------------------ the checks

def check_cells(ex: Expect, b: Bundle) -> list[str]:
    """Each expected (spec, date, location, horizon) cell once, sane quantiles."""
    errors = list(b.ensemble_errors)
    expected = set()
    for name, spec in ex.specs.items():
        for s in ex.inputs.dates:
            for loc in ex.locations_at(s):
                avail = ex.eligible(spec, loc, s)
                for h in HORIZONS:
                    w = b.weights.get((name, s, ex.stratum(spec, h)), {})
                    if sum(w.get(m, 0.0) for m in avail) > 0.0:
                        expected.add((name, loc, s, h))
    for key in sorted(expected - set(b.ensemble)):
        errors.append(f"{key}: expected cell not emitted")
    for key in sorted(set(b.ensemble) - expected):
        errors.append(f"{key}: unexpected cell")
    for key, q in sorted(b.ensemble.items()):
        if not np.all(np.isfinite(q)) or np.any(q < 0.0) or np.any(np.diff(q) < 0.0):
            errors.append(f"{key}: quantiles not finite, nonnegative and nondecreasing")
    return errors


def check_values(ex: Expect, b: Bundle) -> list[str]:
    """Each ensemble value is the combination of the components in its cell."""
    errors = []
    for (name, loc, s, h), q in sorted(b.ensemble.items()):
        spec = ex.specs.get(name)
        w = b.weights.get((name, s, ex.stratum(spec, h)), {}) if spec else {}
        comps = [m for m in ex.eligible(spec, loc, s) if m in w] if spec else []
        mass = np.array([w[m] for m in comps])
        if not comps or mass.sum() <= 0.0:
            errors.append(f"{(name, loc, s, h)}: no weighted component")
            continue
        values = np.array([ex.forecasts[(m, loc, s)][h] for m in comps])
        want = ensemble(values, mass, spec.get("combiner", "median"))
        bad = [k for k in range(len(q)) if not close(q[k], want[k])]
        if bad:
            k = bad[0]
            errors.append(f"{(name, loc, s, h)} level {ex.taus[k]}: {q[k]!r} != {want[k]!r}")
    return errors


def check_weights(ex: Expect, b: Bundle) -> list[str]:
    """Logged weights: a distribution per (spec, date, stratum) that obeys the spec."""
    errors = []
    expected = {(name, s, stratum)
                for name, spec in ex.specs.items() for s in ex.inputs.dates
                if ex.all_eligible(spec, s) for stratum in ex.strata(spec)}
    for key in sorted(expected ^ set(b.weights)):
        errors.append(f"{key}: weight group {'missing' if key in expected else 'unexpected'}")
    for key in sorted(expected & set(b.weights)):
        name, s, _ = key
        spec, w, theta = ex.specs[name], b.weights[key], b.thetas[key]
        values = np.array(list(w.values()))
        if np.any(values < 0.0) or not close(values.sum(), 1.0):
            errors.append(f"{key}: weights are not a distribution (sum {values.sum()!r})")
        pool = ex.all_eligible(spec, s)
        if not set(w) <= set(pool):
            errors.append(f"{key}: weight on an ineligible model")
        if not trained(spec) and (sorted(w) != pool
                                  or not all(close(v, 1.0 / len(pool)) for v in values)):
            errors.append(f"{key}: untrained spec without equal weights")
        if theta is not None and not any(abs(theta - g) <= 1e-12 for g in THETA_GRID):
            errors.append(f"{key}: theta {theta!r} is off the default grid")
        cap = spec.get("max_weight", 1.0)
        if theta is not None and values.max() > cap * (1.0 + 1e-12):
            errors.append(f"{key}: weight {values.max()!r} above max_weight {cap}")
        k = spec.get("top_k")
        if k is not None and np.count_nonzero(values) > k and not is_fallback(ex, key, w):
            errors.append(f"{key}: {np.count_nonzero(values)} nonzero weights, top_k {k}")
    return errors


def window_records(ex: Expect, spec: dict, s: dt.date) -> list[tuple]:
    """(location, window date, horizon, truth as of s, eligible models) units."""
    window = [d for d in ex.inputs.dates if d < s]
    weeks = spec.get("window_weeks", DEFAULT_WINDOW_WEEKS)
    if weeks is not None:
        window = window[-weeks:]
    records = []
    for r in window:
        for loc in ex.locations_at(r):
            models = ex.complete(loc, r)
            for h in HORIZONS:
                t = r + h * WEEK
                y = ex.inputs.seen(s, loc, t) if t <= s else None
                if models and y is not None and y >= 0:
                    records.append((loc, r, h, y, models))
    return records


def window_wis(ex: Expect, spec: dict, s: dt.date, stratum: str,
               w: dict[str, float]) -> float:
    """Training-window WIS of the ensemble under weights `w`.

    Sigmoid weights are scored as emission would combine them, per record
    with missing components dropped; convex weights on the records where
    every weighted model is present, with the plain weighted mean.
    """
    records = window_records(ex, spec, s)
    if stratum:
        records = [r for r in records if f"h{r[2]}" == stratum]
    total = 0.0
    for loc, r, h, y, models in records:
        if spec["weighting"] == "convex_direct":
            if not all(m in models for m in w):
                continue
            comps = sorted(w)
            values = np.array([ex.forecasts[(m, loc, r)][h] for m in comps])
            q = np.array([w[m] for m in comps]) @ values
        else:
            comps = [m for m in models if w.get(m, 0.0) > 0.0]
            if not comps:
                continue
            values = np.array([ex.forecasts[(m, loc, r)][h] for m in comps])
            q = ensemble(values, np.array([w[m] for m in comps]), spec["combiner"])
        total += pinball_wis(ex.taus, q, y)
    return total


def is_fallback(ex: Expect, key: tuple, w: dict[str, float]) -> bool:
    """Equal weights over every eligible model: what a spec logs when it cannot fit."""
    pool = ex.all_eligible(ex.specs[key[0]], key[1])
    return sorted(w) == pool and all(v == 1.0 / len(pool) for v in w.values())


def trained_groups(ex: Expect, b: Bundle) -> list[tuple]:
    """(spec, date, stratum) groups whose weights came from a fit."""
    return [key for key in sorted(b.weights)
            if key[0] in ex.specs and trained(ex.specs[key[0]])
            and (b.thetas[key] is not None or not is_fallback(ex, key, b.weights[key]))]


def sampled_groups(ex: Expect, b: Bundle) -> list[tuple]:
    """The fitted groups of the first, middle and last fitted dates."""
    groups = trained_groups(ex, b)
    dates = sorted({d for _, d, _ in groups})
    picked = {dates[0], dates[len(dates) // 2], dates[-1]} if dates else set()
    return [g for g in groups if g[1] in picked]


def check_window(ex: Expect, b: Bundle) -> list[str]:
    """On sampled dates the fitted weights do no worse than equal weights."""
    errors = []
    for key in sampled_groups(ex, b):
        name, s, stratum = key
        spec, w = ex.specs[name], b.weights[key]
        fitted = window_wis(ex, spec, s, stratum, w)
        equal = window_wis(ex, spec, s, stratum, {m: 1.0 / len(w) for m in w})
        if fitted > equal and not close(fitted, equal):
            errors.append(f"{key}: window WIS {fitted!r} at the fitted weights "
                          f"exceeds {equal!r} at equal weights")
    return errors


def check_scores(ex: Expect, b: Bundle) -> list[str]:
    """scores.csv holds every scorable forecast once, with its pinball WIS."""
    errors = []
    if b.score_dups:
        errors.append(f"{b.score_dups} duplicate score rows")
    final = ex.inputs.final
    start = prospective_start(ex.inputs)
    forecasts = {(m, loc, s, h): q for (m, loc, s), by_h in ex.forecasts.items()
                 for h, q in by_h.items()}
    forecasts.update(b.ensemble)
    expected = set()
    for (m, loc, s, h), q in forecasts.items():
        y = final.get((loc, s + h * WEEK))
        if y is None or y < 0 or ex.excluded(loc, s):
            continue
        expected.add((m, loc, s, h))
        got = b.scores.get((m, loc, s, h))
        if got is None:
            continue
        want = pinball_wis(ex.taus, q, y)
        phase = "prospective" if s >= start else "development"
        if not close(got[0], want) or got[1] != phase:
            errors.append(f"{(m, loc, s, h)}: score {got} != {(want, phase)}")
    for key in sorted(expected - set(b.scores)):
        errors.append(f"{key}: scorable forecast has no score row")
    for key in sorted(set(b.scores) - expected):
        errors.append(f"{key}: score row for an unscorable or excluded forecast")
    if not close(b.rwis.get("baseline", math.nan), 1.0):
        errors.append(f"baseline relative WIS is {b.rwis.get('baseline')!r}, not 1")
    return errors


def check_baseline_median(ex: Expect, b: Bundle) -> list[str]:
    """Generated baseline: horizon-1 median error is last as-of value minus truth."""
    errors = []
    if ex.inputs.shape.baseline_submitted:
        return errors
    for loc in ex.inputs.locations:
        for s in ex.inputs.dates:
            y = ex.inputs.final.get((loc, s + WEEK))
            if y is None or y < 0:
                continue
            want = max(ex.inputs.seen(s, loc, s), 0.0) - y
            got = b.median_errors.get(("baseline", loc, s, 1))
            if got is None or not close(got, want):
                errors.append(f"baseline {loc} {s} h1: median error {got!r} != {want!r}")
    return errors


CHECKS = {
    "cells": check_cells,
    "values": check_values,
    "weights": check_weights,
    "window": check_window,
    "scores": check_scores,
    "baseline_median": check_baseline_median,
}


def run_checks(ex: Expect, out: Path, only: str | None = None) -> dict[str, list[str]]:
    """Failures per check (an empty list means it passed)."""
    bundle = read_bundle(out, ex.taus)
    names = [only] if only else list(CHECKS)
    return {name: CHECKS[name](ex, bundle)[:MAX_ERRORS] for name in names}
