"""Shared fixtures and independent oracle implementations for the test suite.

The oracles here deliberately avoid the library's own code paths: pinball
loss, weighted median, pairwise relative skill, and Pearson correlation are
recomputed from their definitions so the tests are a genuine cross-check.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np
import pytest

from qens import (ForecastKey, QuantileForecast, QuantileLevelSet,
                  SubmissionSet, TruthStore)
from qens.errors import DataError, DuplicateCellError, ParseError, ValidationError
from qens.forecast import FORECAST_CSV_HEADER, WEEK

SAT0 = dt.date(2021, 1, 2)  # a Saturday


def sat(i: int) -> dt.date:
    """The i-th Saturday of the test calendar."""
    return SAT0 + i * WEEK


def make_forecast(model: str, loc: str, s: dt.date, h: int,
                  levels: QuantileLevelSet, values) -> QuantileForecast:
    key = ForecastKey(model, loc, s, s + h * WEEK)
    return QuantileForecast(key, levels, tuple(float(v) for v in values))


def submission_set(forecasts) -> SubmissionSet:
    subs = SubmissionSet()
    for f in forecasts:
        subs.add(f)
    return subs


@pytest.fixture
def seven() -> QuantileLevelSet:
    return QuantileLevelSet.seven()


@pytest.fixture
def three() -> QuantileLevelSet:
    return QuantileLevelSet((0.25, 0.5, 0.75))


# ---------------------------------------------------------------- oracles

def pinball_loss(tau: float, q: float, y: float) -> float:
    """Standard pinball (quantile) loss, written independently of the library."""
    if y >= q:
        return tau * (y - q)
    return (1.0 - tau) * (q - y)


def oracle_weighted_median(values, weights) -> float:
    """Interpolated weighted median recomputed from its definition.

    Components with zero weight are ignored; remaining ones are sorted by
    value and given midpoint positions; the 0.5 crossing is interpolated
    linearly and clamped at the extremes.
    """
    pairs = sorted((v, w) for v, w in zip(values, weights) if w > 0)
    vals = [v for v, _ in pairs]
    wts = [w for _, w in pairs]
    total = sum(wts)
    wts = [w / total for w in wts]
    positions = []
    acc = 0.0
    for w in wts:
        positions.append(acc + w / 2.0)
        acc += w
    if 0.5 <= positions[0]:
        return vals[0]
    if 0.5 >= positions[-1]:
        return vals[-1]
    for i in range(len(positions) - 1):
        if positions[i] <= 0.5 <= positions[i + 1]:
            span = positions[i + 1] - positions[i]
            frac = (0.5 - positions[i]) / span
            return vals[i] + frac * (vals[i + 1] - vals[i])
    raise AssertionError("unreachable")


def oracle_relative_skill(unit_scores, baseline: str,
                          aggregation: str = "geometric"):
    """Brute-force pairwise relative-skill table.

    `unit_scores` maps model -> {(location, date): [scores...]}. For each
    ordered pair (m, m'), the ratio of mean scores over their shared units is
    computed from scratch; ratios (including the self-pair, which is 1) are
    combined by geometric or arithmetic mean and normalized by the baseline.
    """
    models = sorted(unit_scores)
    theta = {}
    for m in models:
        ratios = []
        for other in models:
            shared = set(unit_scores[m]) & set(unit_scores[other])
            if not shared:
                continue
            num_scores = [s for u in shared for s in unit_scores[m][u]]
            den_scores = [s for u in shared for s in unit_scores[other][u]]
            ratios.append((sum(num_scores) / len(num_scores)) /
                          (sum(den_scores) / len(den_scores)))
        if aggregation == "geometric":
            theta[m] = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        else:
            theta[m] = sum(ratios) / len(ratios)
    return {m: theta[m] / theta[baseline] for m in models}


def oracle_pearson(x, y) -> float:
    """Pearson correlation from the definitional formula."""
    x = list(map(float, x))
    y = list(map(float, y))
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def random_quantile_values(rng: np.random.Generator, k: int,
                           scale: float = 10.0) -> np.ndarray:
    """A random strictly increasing nonnegative quantile vector."""
    steps = rng.uniform(0.05, 1.0, size=k) * scale / k
    start = rng.uniform(0.0, scale)
    return start + np.cumsum(steps)


def oracle_baseline_values(values, levels: QuantileLevelSet, seed: int = 0,
                           support_cap: int = 10 ** 6,
                           mc_paths: int = 10 ** 5) -> list[np.ndarray]:
    """Random-walk baseline quantiles at horizons 1-4, the sorting way.

    Every convolution step merges the sorted pairwise sums with `np.unique`,
    and each level is read separately: a `cumsum` of the counts and a search
    for the j-th order statistic. Monte Carlo samples are sorted and read per
    level as plain type-7 sample quantiles. Same bail-out rules, seeds and
    flooring as the library, so results must agree bit for bit.
    """
    values = [float(v) for v in values]
    diffs = np.diff(np.asarray(values))
    diffs = np.concatenate([diffs, -diffs])
    n = diffs.size
    offsets: dict[int, list[float]] = {}
    support, counts, total = np.array([0.0]), np.array([1], dtype=np.int64), 1
    for h in range(1, 5):
        if support is not None:
            if support.size * n > max(4 * support_cap, 10 ** 7):
                support = None
            else:
                sums = (support[:, None] + diffs[None, :]).ravel()
                support, inverse = np.unique(sums, return_inverse=True)
                merged = np.zeros(support.size, dtype=np.int64)
                np.add.at(merged, inverse, np.repeat(counts, n))
                counts, total = merged, total * n
                if support.size > support_cap:
                    support = None
        if support is not None:
            offsets[h] = []
            for p in levels.levels:
                hh = (total - 1) * p + 1.0
                j = math.floor(hh)
                gamma = hh - j
                cum = np.cumsum(counts)
                idx = int(np.searchsorted(cum, j))
                if gamma == 0.0 or j >= total:
                    offsets[h].append(float(support[idx]))
                else:
                    nxt = idx if cum[idx] >= j + 1 else idx + 1
                    offsets[h].append(float(support[idx] + gamma
                                            * (support[nxt] - support[idx])))
            continue
        rng = np.random.default_rng(seed)
        paths = rng.choice(diffs, size=(mc_paths, 4)).cumsum(axis=1)
        for hh in range(h, 5):
            x = np.sort(paths[:, hh - 1])
            offsets[hh] = []
            for p in levels.levels:
                pos = (mc_paths - 1) * p + 1.0
                j = min(math.floor(pos), mc_paths)
                offsets[hh].append(float(x[-1]) if j >= mc_paths else
                                   float(x[j - 1] + (pos - j) * (x[j] - x[j - 1])))
        break
    last = values[-1]
    return [np.maximum.accumulate(np.maximum(last + np.array(offsets[h]), 0.0))
            for h in range(1, 5)]


def oracle_convex_weights(records, models, levels: QuantileLevelSet,
                          level_index=None, max_iter: int = 10_000,
                          tol: float = 1e-8) -> dict[str, float]:
    """Exponentiated-gradient convex weights, written out step by step.

    Objective and subgradient are recomputed from scratch at every
    evaluation, including after each step-halving reset, with the mean
    pinball loss taken by `.mean()`. This is the loop the exact linear
    program fit replaced; that fit's objective must never be above this one's.
    """
    models = sorted(models)
    full = [r for r in records if all(m in r.values for m in models)]
    Q = np.array([[r.values[m] for m in models] for r in full])
    y = np.array([r.y for r in full])
    taus = np.array(levels.levels)
    if level_index is not None:
        Q = Q[:, :, level_index:level_index + 1]
        taus = taus[level_index:level_index + 1]

    def objective_and_grad(w):
        q_ens = np.einsum("m,rmk->rk", w, Q)
        indicator = (y[:, None] <= q_ens).astype(float)
        terms = 2.0 * (indicator - taus[None, :]) * (q_ens - y[:, None])
        obj = float(terms.mean(axis=1).mean())
        grad_terms = 2.0 * (indicator - taus[None, :])
        grad = np.einsum("rk,rmk->m", grad_terms, Q) / (Q.shape[0] * Q.shape[2])
        return obj, grad

    w = np.full(len(models), 1.0 / len(models))
    obj, grad = objective_and_grad(w)
    best_w, best_obj = w.copy(), obj
    scale = float(np.max(np.abs(grad)))
    if scale == 0.0:
        return dict(zip(models, w.tolist()))
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
    return {m: float(v) for m, v in zip(models, best_w)}


def oracle_load_forecasts(*paths):
    """Forecast CSVs read the way the loader did before its per-row caches.

    Every row parses its own level; every forecast gets its own level set;
    keys and quantiles are checked here by plain per-value loops, not by the
    classes' own checks; the file and error order is the library's, so
    results and errors must agree with `load_forecasts` exactly.
    """
    def parse_date(text, line):
        try:
            return dt.date.fromisoformat(text)
        except ValueError as e:
            raise ParseError(f"bad date {text!r}: {e}", line) from None

    def checked_key(model, loc, fdate, tdate):
        days = (tdate - fdate).days
        if days <= 0 or days % 7 != 0 or days // 7 not in (1, 2, 3, 4):
            raise ValidationError(f"target {tdate} is not 1-4 whole weeks after "
                                  f"forecast date {fdate}")
        return tuple.__new__(ForecastKey, (model, loc, fdate, tdate))  # checked above

    def checked_forecast(key, levels, values):
        if len(values) != levels.K:
            raise ValidationError(f"{key}: {len(values)} values for {levels.K} levels")
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(f"{key}: non-finite predictive quantile")
        if any(v < 0 for v in values):
            raise ValidationError(f"{key}: negative predictive quantile")
        for lo, hi in zip(values, values[1:]):
            if lo > hi:
                raise ValidationError(f"{key}: quantiles not nondecreasing")
        forecast = object.__new__(QuantileForecast)  # checked above, not by the class
        for name, field in (("key", key), ("levels", levels), ("values", values)):
            object.__setattr__(forecast, name, field)
        return forecast

    subs = SubmissionSet()
    for path in map(Path, paths):
        if not path.exists():
            raise DataError(f"forecast file not found: {path}")
        by_key, by_raw = {}, {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != FORECAST_CSV_HEADER:
                raise ParseError(f"unexpected header {header!r} in {path}", 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(row)}", lineno)
                model, fdate, loc, tdate, rtype, qlevel, value = row
                if rtype != "quantile":
                    continue
                cached = by_raw.get((model, fdate, loc, tdate))
                if cached is None:
                    try:
                        key = checked_key(model, loc, parse_date(fdate, lineno),
                                          parse_date(tdate, lineno))
                    except ValidationError as e:
                        raise ParseError(str(e), lineno) from None
                    cached = by_raw[(model, fdate, loc, tdate)] = (key, by_key.setdefault(key, {}))
                key, by_level = cached
                try:
                    tau = round(float(qlevel), 10)
                    val = float(value)
                except ValueError as e:
                    raise ParseError(f"bad numeric field: {e}", lineno) from None
                if not math.isfinite(val):
                    raise ParseError(f"non-finite value {value!r}", lineno)
                if tau in by_level:
                    raise DuplicateCellError(
                        f"line {lineno}: duplicate cell {key} at level {tau}")
                by_level[tau] = val
        for key in sorted(by_key, key=lambda k: (k.model_id, k.location,
                                                 k.forecast_date, k.target_end_date)):
            taus = tuple(sorted(by_key[key]))
            values = tuple(by_key[key][t] for t in taus)
            subs.add(checked_forecast(key, QuantileLevelSet(taus), values))
    return subs
