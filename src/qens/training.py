"""Trained ensemble machinery and the rolling backtest pipeline.

Covers component selection by relative WIS, sigmoid relative-WIS weighting
with a grid-searched temperature, max-weight regularization via grid
restriction, directly optimized convex weights, post hoc (non-causal) weights,
per-horizon and per-quantile weight sharing, and week-by-week re-estimation
against vintage-correct truth.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .combine import WeightVector, combine_values
from .errors import ConfigError, DataError
from .forecast import (HORIZONS, WEEK, ForecastKey, QuantileForecast,
                       QuantileLevelSet, SubmissionSet, TruthStore,
                       eligible_components)
from .scoring import ScoreTable, relative_wis, wis_terms

log = logging.getLogger(__name__)

COMBINERS = ("mean", "median")
WEIGHTINGS = ("equal", "rel_wis_sigmoid", "convex_direct", "post_hoc")
SHARINGS = ("per_model", "per_horizon", "per_quantile")


def default_theta_grid() -> "ThetaGrid":
    """Temperature grid spanning equal weights through near-argmax weights."""
    fine = [round(0.1 * i, 10) for i in range(101)]
    coarse = [float(v) for v in range(12, 31, 2)]
    return ThetaGrid(tuple(fine + coarse))


@dataclass(frozen=True)
class ThetaGrid:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 0.0:
            raise ConfigError("theta grid must start at 0")
        for lo, hi in zip(self.values, self.values[1:]):
            if not lo < hi:
                raise ConfigError("theta grid must be strictly increasing")

    def feasible(self, rwis: Mapping[str, float], max_weight: float) -> tuple[list, np.ndarray]:
        """Grid values whose sigmoid weights respect the max-weight cap, and
        those weights: one row per value, columns in sorted model order."""
        w = _sigmoid_rows(rwis, self.values)
        keep = w.max(axis=1) <= max_weight * (1.0 + 1e-12)
        return [t for t, ok in zip(self.values, keep) if ok], w[keep]


@dataclass
class EnsembleSpec:
    """Full configuration of one combination method."""

    name: str
    combiner: str = "median"
    weighting: str = "equal"
    top_k: int | None = None
    window_weeks: int | None = 12  # None trains on all available history
    max_weight: float = 1.0
    sharing: str = "per_model"
    rwis_aggregation: str = "geometric"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"ensemble spec name must be a string, got {self.name!r}")
        for name, kinds, what in (("top_k", (int, type(None)), "an integer or null"),
                                  ("window_weeks", (int, type(None)), "an integer or null"),
                                  ("max_weight", (int, float), "a number")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.combiner not in COMBINERS:
            raise ConfigError(f"unknown combiner {self.combiner!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        if self.sharing not in SHARINGS:
            raise ConfigError(f"unknown sharing mode {self.sharing!r}")
        if self.rwis_aggregation not in ("geometric", "arithmetic"):
            raise ConfigError(f"unknown rWIS aggregation {self.rwis_aggregation!r}")
        if not 0.0 < self.max_weight <= 1.0:
            raise ConfigError("max_weight must be in (0, 1]")
        if self.top_k is not None:
            if self.top_k < 1:
                raise ConfigError("top_k must be >= 1")
            if self.max_weight < 1.0 / self.top_k - 1e-12:
                raise ConfigError("max_weight below 1/top_k is infeasible")
        if self.window_weeks is not None and self.window_weeks < 1:
            raise ConfigError("window_weeks must be >= 1 or null for all history")

    @property
    def trained(self) -> bool:
        return self.weighting != "equal" or self.top_k is not None

    def to_dict(self) -> dict:
        return {
            "name": self.name, "combiner": self.combiner,
            "weighting": self.weighting, "top_k": self.top_k,
            "window_weeks": self.window_weeks, "max_weight": self.max_weight,
            "sharing": self.sharing, "rwis_aggregation": self.rwis_aggregation,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "EnsembleSpec":
        if not isinstance(data, Mapping):
            raise ConfigError("ensemble spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown ensemble spec fields: {sorted(extra)}")
        if "name" not in data:
            raise ConfigError("ensemble spec needs a name")
        return cls(**data)


@dataclass(frozen=True)
class WindowRecord:
    """One scorable (location, forecast date, target) unit in a training window."""

    location: str
    forecast_date: dt.date
    target_end_date: dt.date
    horizon: int
    y: float
    values: Mapping[str, tuple[float, ...]]  # model -> K quantile values


@dataclass
class TrainingWindow:
    forecast_date: dt.date
    window_dates: tuple[dt.date, ...]
    records: list[WindowRecord]
    levels: QuantileLevelSet


def build_training_window(subs: SubmissionSet, truth: TruthStore, s: dt.date,
                          window_dates: Sequence[dt.date],
                          levels: QuantileLevelSet) -> TrainingWindow:
    """Scorable training units for a forecast date, using truth as of s.

    Only targets observed by s enter; targets with negative reported values
    are excluded from scoring per the evaluation convention.
    """
    snapshot = truth.snapshot(s)
    records: list[WindowRecord] = []
    for r in sorted(window_dates):
        if r >= s:
            raise DataError(f"window date {r} is not before the forecast date {s}")
        for loc in subs.locations_on(r):
            models = eligible_components(subs, loc, r, levels, require_history=False)
            if not models:
                continue
            for h in HORIZONS:
                t = r + h * WEEK
                if t > s:
                    continue
                y = snapshot.get((loc, t))
                if y is None or y < 0:
                    continue
                values = {m: subs.get(m, loc, r, t).values for m in models}
                records.append(WindowRecord(loc, r, t, h, y, values))
    return TrainingWindow(s, tuple(sorted(window_dates)), records, levels)


def window_score_table(records: Sequence[WindowRecord], levels: QuantileLevelSet,
                       level_index: int | None = None) -> ScoreTable:
    """Per-model WIS (or one level's contribution) over the window units."""
    table: ScoreTable = {}
    for rec in records:
        for m, vals in rec.values.items():
            terms = wis_terms(levels.levels, vals, rec.y)
            score = float(terms.mean() if level_index is None else terms[level_index])
            unit = (rec.location, rec.forecast_date)
            table.setdefault(m, {}).setdefault(unit, []).append(score)
    return table


def _sigmoid_rows(rwis: Mapping[str, float], thetas: Sequence[float]) -> np.ndarray:
    """Softmax of -theta * relative WIS, one row per theta, sorted model columns."""
    scores = np.array([rwis[m] for m in sorted(rwis)], dtype=float)
    if not scores.size:
        raise DataError("sigmoid weights need at least one model")
    if not np.all(np.isfinite(scores)):
        raise DataError("relative WIS values must be finite")
    expz = np.exp(-np.array(thetas, dtype=float)[:, None] * (scores - scores.min()))
    return expz / expz.sum(axis=1, keepdims=True)


def sigmoid_weights(rwis: Mapping[str, float], theta: float) -> WeightVector:
    """Softmax of -theta * relative WIS; theta = 0 gives equal weights."""
    if theta < 0:
        raise ConfigError("theta must be nonnegative")
    return WeightVector(dict(zip(sorted(rwis), _sigmoid_rows(rwis, [theta])[0].tolist())))


def select_top_k(rwis: Mapping[str, float], k: int) -> list[str]:
    """The k models with smallest relative WIS; boundary ties break by id."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    ranked = sorted(rwis, key=lambda m: (rwis[m], m))
    return sorted(ranked[:k])


def window_objective(records: Sequence[WindowRecord], models: Sequence[str],
                     weights: np.ndarray, combiner: str, levels: QuantileLevelSet,
                     level_index: int | None = None) -> np.ndarray:
    """Summed ensemble WIS over the window for each candidate weight vector.

    `weights` holds one candidate per row (T, M), columns in `models` order;
    returns the (T,) window totals (one level's terms when indexed). Mirrors
    forecast emission exactly: one kernel call per record for all rows, zero
    flooring, level monotonization. Rows with no weight on a record skip it.
    """
    # level k's term needs only levels 0..k (monotonization runs upward); two
    # at least, as numpy sums a lone column pairwise, moving the mean an ulp
    stop = None if level_index is None else max(level_index + 1, 2)
    column = {m: i for i, m in enumerate(models)}  # other models: zero column
    padded = np.concatenate([weights, np.zeros((len(weights), 1))], axis=1)
    totals = np.zeros(len(weights))
    for rec in records:
        ms = sorted(rec.values)
        w = padded[:, [column.get(m, -1) for m in ms]]
        live = w.any(axis=1)
        if live.any():
            values = np.array([rec.values[m] for m in ms])[:, :stop]
            q = combine_values(values, w[live, :, None], combiner)
            q = np.maximum.accumulate(np.maximum(q, 0.0), axis=-1)
            terms = wis_terms(levels.levels[:stop], q, rec.y)
            totals[live] += terms.mean(axis=-1) if level_index is None else terms[:, level_index]
    return totals


def fit_theta(window: TrainingWindow, rwis: Mapping[str, float],
              spec: EnsembleSpec, grid: ThetaGrid | None = None,
              level_index: int | None = None) -> tuple[float, WeightVector]:
    """Grid search for the sigmoid temperature minimizing window ensemble WIS.

    Only grid values whose (pre-missingness) weights respect the max-weight
    cap are evaluated; ties break toward the smaller theta.
    """
    grid = grid or default_theta_grid()
    if not window.records:
        raise DataError("training window holds no scorable forecasts")
    feasible, weights = grid.feasible(rwis, spec.max_weight)
    if not feasible:
        raise ConfigError(
            f"no feasible theta under max_weight={spec.max_weight} "
            f"(smallest uniform weight is {1.0 / len(rwis):.4f})")
    models = sorted(rwis)
    totals = window_objective(window.records, models, weights, spec.combiner,
                              window.levels, level_index=level_index).tolist()
    best = min(range(len(totals)), key=totals.__getitem__)  # first of the minima
    return feasible[best], WeightVector(dict(zip(models, weights[best].tolist())))


def convex_weights(records: Sequence[WindowRecord], models: Sequence[str],
                   levels: QuantileLevelSet, level_index: int | None = None,
                   max_iter: int = 10_000, tol: float = 1e-8) -> WeightVector:
    """Weights minimizing the weighted-mean ensemble WIS on the simplex.

    Exponentiated-gradient descent from a uniform start; the step is halved
    when the best objective stalls, which handles the kinks of the piecewise
    linear objective. Only records where every candidate model is available
    enter the objective, keeping it convex.
    """
    models = sorted(models)
    if not models:
        raise DataError("convex weights need at least one model")
    full = [r for r in records if all(m in r.values for m in models)]
    if not full:
        raise DataError("no complete training records for convex weight estimation")

    Q = np.array([[r.values[m] for m in models] for r in full])  # R x M x K
    y = np.array([r.y for r in full])
    taus = np.array(levels.levels)
    if level_index is not None:
        Q = Q[:, :, level_index:level_index + 1]
        taus = taus[level_index:level_index + 1]

    def objective_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        q_ens = np.einsum("m,rmk->rk", w, Q)
        indicator = (y[:, None] <= q_ens).astype(float)
        terms = 2.0 * (indicator - taus[None, :]) * (q_ens - y[:, None])
        obj = float(terms.mean(axis=1).mean())
        grad_terms = 2.0 * (indicator - taus[None, :])  # subgradient
        grad = np.einsum("rk,rmk->m", grad_terms, Q) / (Q.shape[0] * Q.shape[2])
        return obj, grad

    w = np.full(len(models), 1.0 / len(models))
    obj, grad = objective_and_grad(w)
    best_w, best_obj = w.copy(), obj
    scale = float(np.max(np.abs(grad)))
    if scale == 0.0:
        return WeightVector(dict(zip(models, w)))
    eta = 0.5 / scale
    stall = 0
    for _ in range(max_iter):
        w = w * np.exp(-eta * grad)
        w /= w.sum()
        obj, grad = objective_and_grad(w)
        if obj < best_obj - tol:
            best_w, best_obj = w.copy(), obj
            stall = 0
        else:
            stall += 1
            if stall >= 20:
                eta *= 0.5
                w = best_w.copy()
                _, grad = objective_and_grad(w)
                stall = 0
                if eta < 1e-14 / scale:
                    break
    best_w = best_w / best_w.sum()
    return WeightVector({m: float(v) for m, v in zip(models, best_w)})


def post_hoc_records(subs: SubmissionSet, truth: TruthStore, s: dt.date,
                     levels: QuantileLevelSet) -> list[WindowRecord]:
    """Scorable units for a single forecast date against realized truth."""
    final = truth.latest()
    records: list[WindowRecord] = []
    for loc in subs.locations_on(s):
        models = eligible_components(subs, loc, s, levels, require_history=False)
        if not models:
            continue
        for h in HORIZONS:
            t = s + h * WEEK
            y = final.get((loc, t))
            if y is None:
                raise DataError(
                    f"post hoc weights need observed truth for {loc} {t}")
            if y < 0:
                continue
            values = {m: subs.get(m, loc, s, t).values for m in models}
            records.append(WindowRecord(loc, s, t, h, y, values))
    return records


def post_hoc_weights(subs: SubmissionSet, truth: TruthStore, s: dt.date,
                     levels: QuantileLevelSet, models: Sequence[str],
                     level_index: int | None = None) -> WeightVector:
    """Convex weights for one forecast date using realized outcomes (non-causal)."""
    records = post_hoc_records(subs, truth, s, levels)
    return convex_weights(records, models, levels, level_index=level_index)


def _strata(spec: EnsembleSpec, levels: QuantileLevelSet) -> list[tuple[str, int | None, int | None]]:
    """(label, horizon filter, level index) triples for the sharing mode."""
    if spec.sharing == "per_horizon":
        return [(f"h{h}", h, None) for h in HORIZONS]
    if spec.sharing == "per_quantile":
        return [(f"q{tau:g}", None, k) for k, tau in enumerate(levels.levels)]
    return [("", None, None)]


def _stratum_weights(subs: SubmissionSet, truth: TruthStore, s: dt.date,
                     spec: EnsembleSpec, levels: QuantileLevelSet,
                     all_eligible: list[str], baseline_model: str,
                     grid: ThetaGrid) -> dict[str, tuple[WeightVector, float | None]]:
    """Estimated (pre-missingness) weights per stratum for forecast date s."""
    fallback = {label: (WeightVector.uniform(all_eligible), None)
                for label, _, _ in _strata(spec, levels)}
    if not spec.trained:
        return fallback

    hist_dates = [d for d in subs.forecast_dates() if d < s]
    if spec.window_weeks is not None:
        hist_dates = hist_dates[-spec.window_weeks:]
    if not hist_dates:
        log.warning("%s %s: no training history; falling back to equal weights",
                    spec.name, s)
        return fallback
    window = build_training_window(subs, truth, s, hist_dates, levels)
    if not window.records:
        log.warning("%s %s: no scorable training records; falling back to equal weights",
                    spec.name, s)
        return fallback

    out: dict[str, tuple[WeightVector, float | None]] = {}
    for label, horizon, level_index in _strata(spec, levels):
        records = [r for r in window.records
                   if horizon is None or r.horizon == horizon]
        sub_window = TrainingWindow(s, window.window_dates, records, levels)
        table = window_score_table(records, levels, level_index=level_index)
        if baseline_model not in table:
            log.warning("%s %s [%s]: baseline unscored in window; equal weights",
                        spec.name, s, label)
            out[label] = (WeightVector.uniform(all_eligible), None)
            continue
        rel = relative_wis(table, baseline_model, spec.rwis_aggregation)
        candidates = [m for m in all_eligible if m in rel.rel_wis]
        if not candidates:
            log.warning("%s %s [%s]: no scored eligible components; equal weights",
                        spec.name, s, label)
            out[label] = (WeightVector.uniform(all_eligible), None)
            continue
        rwis = {m: rel.rel_wis[m] for m in candidates}
        selected = select_top_k(rwis, spec.top_k) if spec.top_k else sorted(candidates)
        rwis_sel = {m: rwis[m] for m in selected}

        if spec.weighting == "equal":
            out[label] = (WeightVector.uniform(selected), None)
        elif spec.weighting == "rel_wis_sigmoid":
            theta, w = fit_theta(sub_window, rwis_sel, spec, grid,
                                 level_index=level_index)
            out[label] = (w, theta)
        elif spec.weighting == "convex_direct":
            w = convex_weights(records, selected, levels, level_index=level_index)
            out[label] = (w, None)
        else:  # post_hoc: weights fit on date s itself with realized truth
            w = post_hoc_weights(subs, truth, s, levels, selected,
                                 level_index=level_index)
            out[label] = (w, None)
    return out


def train_and_forecast(subs: SubmissionSet, truth: TruthStore, spec: EnsembleSpec,
                       dates: Sequence[dt.date], levels: QuantileLevelSet,
                       baseline_model: str = "baseline",
                       grid: ThetaGrid | None = None,
                       ) -> tuple[SubmissionSet, list[dict]]:
    """Weekly re-estimated ensemble forecasts over the given forecast dates.

    For each date s, weights are estimated from the most recent window of
    forecast dates using only the truth snapshot available at s (post hoc
    weighting is the deliberate, labeled exception), then applied per location
    with missingness renormalization. Returns the ensemble forecasts plus a
    weight log with one row per (date, stratum, model).
    """
    grid = grid or default_theta_grid()
    dates = sorted(dates)
    out = SubmissionSet()
    weight_log: list[dict] = []

    for s in dates:
        locations = subs.locations_on(s)
        elig = {loc: eligible_components(subs, loc, s, levels,
                                         require_history=spec.trained)
                for loc in locations}
        all_eligible = sorted({m for ms in elig.values() for m in ms})
        if not all_eligible:
            log.warning("%s %s: no eligible components; skipping date", spec.name, s)
            continue

        by_stratum = _stratum_weights(subs, truth, s, spec, levels,
                                      all_eligible, baseline_model, grid)
        for label, _, _ in _strata(spec, levels):
            w, theta = by_stratum[label]
            for m in w.models():
                weight_log.append({
                    "forecast_date": s, "stratum": label, "model": m,
                    "weight": w[m], "theta": theta, "spec_id": spec.name,
                })

        for loc in locations:
            avail = elig[loc]
            if not avail:
                log.warning("%s %s %s: no eligible components; cell skipped",
                            spec.name, s, loc)
                continue
            for h in HORIZONS:
                t = s + h * WEEK
                forecast = _emit_cell(subs, spec, levels, by_stratum, avail,
                                      loc, s, t, h)
                if forecast is not None:
                    out.add(forecast)
                else:
                    log.warning("%s %s %s h%d: no weighted components; cell skipped",
                                spec.name, s, loc, h)
    return out, weight_log


def _emit_cell(subs: SubmissionSet, spec: EnsembleSpec, levels: QuantileLevelSet,
               by_stratum: Mapping[str, tuple[WeightVector, float | None]],
               avail: Sequence[str], loc: str, s: dt.date, t: dt.date,
               h: int) -> QuantileForecast | None:
    """One ensemble forecast, or None when some level has no weighted component."""
    if spec.sharing == "per_quantile":
        strata = [by_stratum[f"q{tau:g}"][0] for tau in levels.levels]
        weights = np.array([[w.weights.get(m, 0.0) for w in strata] for m in avail])
    else:
        w, _ = by_stratum[f"h{h}" if spec.sharing == "per_horizon" else ""]
        weights = np.array([w.weights.get(m, 0.0) for m in avail])
    if not weights.any(axis=0).all():
        return None
    values = np.array([subs.get(m, loc, s, t).values for m in avail])
    q = combine_values(values, weights, spec.combiner)
    q = np.maximum.accumulate(np.maximum(q, 0.0))
    key = ForecastKey(spec.name, loc, s, t)
    return QuantileForecast(key, levels, tuple(float(v) for v in q))
