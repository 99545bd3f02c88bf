"""Quantile-wise ensemble combiners.

Component forecasts are combined level by level with a weighted mean or an
interpolated weighted median. Weights for unavailable components are zeroed
and the rest renormalized to sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, ValidationError
from .forecast import ForecastKey, QuantileForecast

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative component weights summing to one, optionally per-stratum."""

    weights: Mapping[str, float]
    stratum: int | float | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        if not self.weights:
            raise ValidationError("weight vector must be nonempty")
        if any(w < 0 for w in self.weights.values()):
            raise ValidationError("weights must be nonnegative")
        total = sum(self.weights.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total}, expected 1")

    def __getitem__(self, model: str) -> float:
        return self.weights[model]

    def models(self) -> list[str]:
        return sorted(self.weights)

    @classmethod
    def uniform(cls, models: Iterable[str], stratum=None) -> "WeightVector":
        models = sorted(models)
        if not models:
            raise ValidationError("cannot build uniform weights over no models")
        w = 1.0 / len(models)
        return cls({m: w for m in models}, stratum=stratum)


def combine_values(values: np.ndarray, weights: np.ndarray, method: str,
                   interpolate: bool = True) -> np.ndarray:
    """Combine the components present in one cell, all levels at once.

    `values` has one row per present component (rows ordered by model id)
    and one column per quantile level. `weights` holds their raw nonnegative
    weights, per row (M,) or per row and level (M, K); each level's weights
    are renormalized over the rows. A leading batch axis, (T, M, K) or
    (T, M, 1), gives (T, K) with row t bit for bit the call on `weights[t]`.
    Returns the levels before flooring and monotonization. This one kernel
    serves `combine`, the training objective and forecast emission, so the
    three agree bit for bit.

    The median gives each positive-weight value, sorted stably (model-id
    order on ties), the midpoint mass position P_m = sum_{j<m} w_j + w_m / 2
    and interpolates the bracketing (P, value) pairs at mass 0.5, clamped at
    the extremes, exactly as `np.interp` does. With interpolate=False it
    returns the smallest value whose cumulative weight reaches 0.5.
    """
    if method not in ("mean", "median"):
        raise DataError(f"unknown combination method {method!r}")
    values = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape[-2] == 0:
        raise DataError("no components to combine")
    # cumsum adds sequentially; np.sum switches to pairwise summation, which
    # would move the median's mass positions by an ulp
    total = w.cumsum(axis=-2)[..., -1:, :]
    if not (total > 0.0).all():
        raise DataError("no weight mass on available components")
    w = w / total
    if method == "mean":
        return (w * values).sum(axis=-2)

    # Zero-weight entries sort last (as NaN), after the n positive ones.
    w = np.broadcast_to(w, w.shape[:-2] + values.shape)
    positive = w > 0.0
    n = positive.sum(axis=-2)
    order = np.where(positive, values, np.nan).argsort(axis=-2, kind="stable")
    cols = np.arange(values.shape[1])
    batch = (np.arange(len(w))[:, None],) if w.ndim == 3 else ()  # indexes the batch axis
    vals, wts = values[order, cols], w[(*(b[..., None] for b in batch), order, cols)]
    cum = wts.cumsum(axis=-2)
    last = n - 1
    if not interpolate:
        return vals[(*batch, np.minimum((cum < 0.5).sum(axis=-2), last), cols)]
    pos = cum - wts / 2.0
    # j: the last positive entry's position at or below 0.5; the clamps
    # below replace the levels where 0.5 lies outside the positions
    j = ((pos <= 0.5) & (np.arange(w.shape[-2])[:, None] < n[..., None, :])).sum(axis=-2) - 1
    j = np.maximum(j, 0)
    j1 = np.minimum(j + 1, last)
    v0, v1 = vals[(*batch, j, cols)], vals[(*batch, j1, cols)]
    p0, p1 = pos[(*batch, j, cols)], pos[(*batch, j1, cols)]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (v1 - v0) / (p1 - p0) * (0.5 - p0) + v0
    inner = np.where(p0 == 0.5, v0, inner)
    inner = np.where(0.5 >= pos[(*batch, last, cols)], vals[(*batch, last, cols)], inner)
    return np.where(0.5 <= pos[..., 0, :], vals[..., 0, :], inner)


def combine(forecasts: Mapping[str, QuantileForecast], w: WeightVector,
            method: str = "median", model_id: str = "ensemble",
            interpolate: bool = True) -> QuantileForecast:
    """Combine component forecasts level by level into one ensemble forecast.

    All components must share the same (location, date, target) and level set.
    The output is floored at zero and forced monotone across levels.
    """
    if not forecasts:
        raise DataError("cannot combine an empty component set")
    items = [(m, f) for m, f in sorted(forecasts.items()) if m in w.weights]
    if not items:
        raise DataError("no component carries weight")
    _, first = items[0]
    for _, f in items[1:]:
        if f.levels != first.levels:
            raise DataError("component level sets do not match")
        if (f.key.location, f.key.forecast_date, f.key.target_end_date) != (
                first.key.location, first.key.forecast_date, first.key.target_end_date):
            raise DataError("component forecast keys do not match")
    values = np.array([f.values for _, f in items])
    weights = np.array([w[m] for m, _ in items])
    out = combine_values(values, weights, method, interpolate=interpolate)
    out = np.maximum.accumulate(np.maximum(out, 0.0))
    key = ForecastKey(model_id, first.key.location, first.key.forecast_date,
                      first.key.target_end_date)
    return QuantileForecast(key, first.levels, tuple(float(v) for v in out))
