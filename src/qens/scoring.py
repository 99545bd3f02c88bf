"""Proper scoring for quantile forecasts.

Implements the weighted interval score (WIS) in its quantile form, one-sided
empirical coverage, and pairwise-aggregated relative WIS (geometric or
arithmetic aggregation across model pairs).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .forecast import ForecastKey, QuantileForecast, _write_csv

# A model's scores indexed by (location, forecast_date); each entry holds the
# per-horizon WIS values that were scorable for that unit.
ScoreTable = dict[str, dict[tuple[str, dt.date], list[float]]]


@dataclass(frozen=True)
class ScoreRecord:
    key: ForecastKey
    wis: float
    per_level: tuple[float, ...]


@dataclass
class RelWisTable:
    """Relative WIS per model over an index set of (location, forecast_date)."""

    theta: dict[str, float]
    rel_wis: dict[str, float]
    baseline: str
    aggregation: str
    undefined: frozenset[str] = frozenset()


def wis_terms(levels: Sequence[float], values: Sequence | np.ndarray,
              y: float | np.ndarray) -> np.ndarray:
    """Per-level WIS contributions 2 * (1[y <= q_k] - tau_k) * (q_k - y).

    One forecast's (K,) values against a scalar y, or N forecasts' (N, K)
    values against an (N, 1) column of observations.
    """
    if np.isnan(y).any():
        raise DataError("observed value is NaN")
    q = np.asarray(values, dtype=float)
    tau = np.asarray(levels, dtype=float)
    indicator = (y <= q).astype(float)
    return 2.0 * (indicator - tau) * (q - y)


def wis(q: QuantileForecast, y: float) -> ScoreRecord:
    """Weighted interval score of one forecast against the observation y."""
    terms = wis_terms(q.levels.levels, q.values, y)
    return ScoreRecord(q.key, float(terms.mean()), tuple(float(t) for t in terms))


def coverage_rates(forecasts: Sequence[QuantileForecast],
                   truth: Sequence[float]) -> dict[float, float]:
    """One-sided empirical coverage: share of observations <= each quantile.

    All forecasts must share a level set; the comparison is inclusive.
    """
    if not forecasts:
        raise DataError("coverage_rates needs at least one forecast")
    if len(forecasts) != len(truth):
        raise DataError("forecasts and truth must align one-to-one")
    levels = forecasts[0].levels
    if any(f.levels != levels for f in forecasts):
        raise DataError("coverage_rates requires a common level set")
    values = np.array([f.values for f in forecasts], dtype=float)
    y = np.asarray(truth, dtype=float)[:, None]
    rates = (y <= values).mean(axis=0)
    return {tau: float(r) for tau, r in zip(levels.levels, rates)}


def score_table(records: Iterable[ScoreRecord]) -> ScoreTable:
    """Group score records by model and (location, forecast_date)."""
    table: ScoreTable = {}
    for rec in records:
        unit = (rec.key.location, rec.key.forecast_date)
        table.setdefault(rec.key.model_id, {}).setdefault(unit, []).append(rec.wis)
    return table


def _baseline_component(table: ScoreTable, baseline: str) -> set[str]:
    """Models connected to the baseline through shared (location, date) units."""
    reachable = {baseline}
    frontier = [baseline]
    while frontier:
        current = frontier.pop()
        units = table[current].keys()
        for m in table:
            if m not in reachable and units & table[m].keys():
                reachable.add(m)
                frontier.append(m)
    return reachable


def _mean(groups: Iterable[Sequence[float]]) -> float:
    """Mean of the concatenated groups, summed left to right. The builtin
    `sum` compensates its rounding from Python 3.12 on, which would make
    relative WIS vary with the Python version."""
    total, n = 0.0, 0
    for values in groups:
        n += len(values)
        for v in values:
            total += v
    return total / n


def relative_wis(table: ScoreTable, baseline: str,
                 aggregation: str = "geometric") -> RelWisTable:
    """Pairwise-aggregated relative WIS, normalized so the baseline scores 1.

    For each model pair, the ratio of mean WIS over the units both scored is
    computed (the self-pair contributes ratio 1); ratios are combined with a
    geometric or arithmetic mean over the pairs that share at least one unit,
    then scaled by the baseline's aggregate. Models not connected to the
    baseline through shared units are reported as undefined.
    """
    if aggregation not in ("geometric", "arithmetic"):
        raise DataError(f"unknown aggregation {aggregation!r}")
    if baseline not in table:
        raise DataError(f"baseline model {baseline!r} has no scores")
    models = sorted(table)
    connected = _baseline_component(table, baseline)

    theta: dict[str, float] = {}
    for m in models:
        if m not in connected:
            continue
        log_ratios = []
        ratios = []
        for m2 in models:
            if m2 not in connected:
                continue
            # sorted, so that the sums below do not follow the hash seed
            shared = sorted(table[m].keys() & table[m2].keys())
            if not shared:
                continue
            ratio = (_mean([table[m][u] for u in shared])
                     / _mean([table[m2][u] for u in shared]))
            ratios.append(ratio)
            log_ratios.append(math.log(ratio))
        if aggregation == "geometric":
            theta[m] = math.exp(_mean([log_ratios]))
        else:
            theta[m] = _mean([ratios])

    base = theta[baseline]
    rel = {m: t / base for m, t in theta.items()}
    undefined = frozenset(m for m in models if m not in connected)
    return RelWisTable(theta=theta, rel_wis=rel, baseline=baseline,
                       aggregation=aggregation, undefined=undefined)


def save_scores(records: Iterable[ScoreRecord], path: str | Path) -> None:
    """Score export: model,location,forecast_date,target_end_date,horizon,wis."""
    rows = ([r.key.model_id, r.key.location, r.key.forecast_date.isoformat(),
             r.key.target_end_date.isoformat(), r.key.horizon, repr(r.wis)]
            for r in sorted(records, key=lambda r: r.key))
    _write_csv(path, ["model", "location", "forecast_date", "target_end_date",
                      "horizon", "wis"], rows)


def save_rel_wis(table: RelWisTable, path: str | Path) -> None:
    """Relative WIS export: model,theta,rel_wis,aggregation."""
    rows = [[m, repr(table.theta[m]), repr(table.rel_wis[m]), table.aggregation]
            for m in sorted(table.rel_wis)]
    rows += [[m, "", "", table.aggregation] for m in sorted(table.undefined)]
    _write_csv(path, ["model", "theta", "rel_wis", "aggregation"], rows)
