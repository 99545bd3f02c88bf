"""Random-walk baseline forecaster on weekly counts.

The innovation distribution is the empirical multiset of observed weekly
differences together with their negations, which makes the predictive
distribution symmetric and anchors the predictive median at the last observed
value. Multi-week horizons use the exact h-fold convolution of the innovation
distribution when its support stays small enough, and seeded Monte Carlo
trajectories otherwise. Whole-number counts are convolved on an offset grid
without sorting; other values merge sorted pairwise sums. Quantiles use
linear interpolation of order statistics (R's default, type 7), and are
floored at zero after computation.
"""

from __future__ import annotations

import datetime as dt
from typing import Sequence

import numpy as np

from .errors import DataError
from .forecast import (HORIZONS, WEEK, ForecastKey, QuantileForecast,
                       QuantileLevelSet)

SUPPORT_CAP = 10 ** 6
MC_PATHS = 10 ** 5


def difference_multiset(history: Sequence[float]) -> np.ndarray:
    """Observed weekly differences and their negations (symmetric about 0)."""
    values = np.asarray(history, dtype=float)
    if values.size < 2:
        raise DataError("need at least two observations to form differences")
    diffs = np.diff(values)
    return np.concatenate([diffs, -diffs])


def sample_quantile_type7(samples: Sequence[float], p: float) -> float:
    """Type-7 sample quantile: h = (n - 1) p + 1 over 1-based order statistics."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise DataError("cannot take a quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise DataError(f"quantile level {p} outside [0, 1]")
    return float(_quantiles_type7(x, np.arange(1, x.size + 1), (p,))[0])


def _quantiles_type7(values: np.ndarray, cum: np.ndarray,
                     levels: Sequence[float]) -> np.ndarray:
    """Type-7 quantiles at every level of a multiset held as sorted distinct
    values with their cumulative counts (1, 2, ..., n for a sorted sample).

    The j-th order statistic is the first value whose cumulative count
    reaches j; the result interpolates towards the (j + 1)-th by gamma.
    """
    total = cum[-1]
    h = (total - 1) * np.asarray(levels, dtype=float) + 1.0
    j = np.floor(h).astype(np.int64)  # integer, so counts above 2**53 compare exactly
    gamma = h - j
    x_j = values[np.searchsorted(cum, j)]
    x_next = values[np.minimum(np.searchsorted(cum, j + 1), values.size - 1)]
    return np.where(j >= total, x_j, x_j + gamma * (x_next - x_j))


def _convolve_counts(values: np.ndarray, counts: np.ndarray, diffs: np.ndarray,
                     integer: bool) -> tuple[np.ndarray, np.ndarray]:
    """One convolution step of a counted support with the innovation multiset.

    `values` is sorted. When `integer` (every value and difference is a whole
    number and the new total count stays below 2**53, so `np.bincount`'s
    float counts are exact) and the offset grid is no larger than the
    pairwise-sum array, the sums are counted on that grid, whose nonzero bins
    are the support in value order. Otherwise the sorted pairwise sums are
    merged with `np.unique`.
    """
    d_min = diffs.min()
    span = (values[-1] - values[0]) + (diffs.max() - d_min) + 1.0
    if integer and span <= values.size * diffs.size:
        offsets = ((values - values[0]).astype(np.int64)[:, None]
                   + (diffs - d_min).astype(np.int64)[None, :]).ravel()
        binned = np.bincount(offsets, weights=np.repeat(counts, diffs.size))
        support = np.flatnonzero(binned)
        return (values[0] + d_min) + support, binned[support].astype(np.int64)
    sums = (values[:, None] + diffs[None, :]).ravel()
    reps = np.repeat(counts, diffs.size)
    uniq, inverse = np.unique(sums, return_inverse=True)
    merged = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(merged, inverse, reps)
    return uniq, merged


def baseline_forecast(history: Sequence[tuple[dt.date, float]],
                      levels: QuantileLevelSet,
                      model_id: str = "baseline",
                      seed: int = 0,
                      support_cap: int = SUPPORT_CAP,
                      mc_paths: int = MC_PATHS,
                      location: str | None = None) -> list[QuantileForecast]:
    """Forecasts at horizons 1-4 for one location from its observed series.

    `history` is the as-of series of (week-ending date, weekly count); the
    forecast date is the last observed week. Negative history values are kept
    when forming differences.
    """
    if len(history) < 2:
        raise DataError("baseline needs at least two observations")
    history = sorted(history)
    dates = [d for d, _ in history]
    values = [v for _, v in history]
    forecast_date = dates[-1]
    last = values[-1]
    diffs = difference_multiset(values)

    quantiles_by_h = _horizon_quantiles(diffs, levels, seed, support_cap, mc_paths)

    out = []
    for h in HORIZONS:
        q = np.maximum(last + quantiles_by_h[h], 0.0)
        q = np.maximum.accumulate(q)
        key = ForecastKey(model_id, location or "", forecast_date,
                          forecast_date + h * WEEK)
        out.append(QuantileForecast(key, levels, tuple(float(v) for v in q)))
    return out


def _horizon_quantiles(diffs: np.ndarray, levels: QuantileLevelSet, seed: int,
                       support_cap: int, mc_paths: int) -> dict[int, np.ndarray]:
    """Pre-floor quantile offsets (relative to the last observation) per horizon."""
    n = diffs.size
    integer = bool(np.all(np.mod(diffs, 1.0) == 0.0))
    out: dict[int, np.ndarray] = {}
    vals: np.ndarray | None = np.array([0.0])
    counts = np.array([1], dtype=np.int64)
    total = 1
    for h in HORIZONS:
        if vals is not None:
            # Bail out before the intermediate product array gets large.
            if vals.size * n > max(4 * support_cap, 10 ** 7):
                vals = None
            else:
                vals, counts = _convolve_counts(vals, counts, diffs,
                                                integer and total * n < 2 ** 53)
                total *= n
                if vals.size > support_cap:
                    vals = None
        if vals is not None:
            out[h] = _quantiles_type7(vals, np.cumsum(counts), levels.levels)
        else:
            rng = np.random.default_rng(seed)
            steps = rng.choice(diffs, size=(mc_paths, len(HORIZONS)))
            sums = steps.cumsum(axis=1)
            ranks = np.arange(1, mc_paths + 1)
            for hh in range(h, len(HORIZONS) + 1):
                out[hh] = _quantiles_type7(np.sort(sums[:, hh - 1]), ranks,
                                           levels.levels)
            break
    return out
