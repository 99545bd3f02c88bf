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

from .combine import WeightVector, _emit
from .errors import ConfigError, DataError, check_field_types
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
        check_field_types(self)
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
        if self.weighting in ("convex_direct", "post_hoc") and self.max_weight < 1.0:
            # the convex fit has no weight cap, so a cap would be ignored
            raise ConfigError(f"max_weight < 1 is not supported for "
                              f"{self.weighting!r} weighting")
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
    records: list[WindowRecord]
    levels: QuantileLevelSet


def _records(subs: SubmissionSet, observed: Mapping[tuple[str, dt.date], float],
             dates: Sequence[dt.date], levels: QuantileLevelSet,
             until: dt.date | None = None) -> list[WindowRecord]:
    """Scorable units of the forecasts issued on `dates` against `observed` truth;
    targets after `until`, unobserved or negative (excluded from scoring per
    the evaluation convention) do not enter."""
    records: list[WindowRecord] = []
    for r in sorted(dates):
        for loc in subs.locations_on(r):
            models = eligible_components(subs, loc, r, levels, require_history=False)
            if not models:
                continue
            for h in HORIZONS:
                t = r + h * WEEK
                if until is not None and t > until:
                    continue
                y = observed.get((loc, t))
                if y is None or y < 0:
                    continue
                values = {m: subs.get(m, loc, r, t).values for m in models}
                records.append(WindowRecord(loc, r, t, h, y, values))
    return records


def build_training_window(subs: SubmissionSet, truth: TruthStore, s: dt.date,
                          window_dates: Sequence[dt.date],
                          levels: QuantileLevelSet) -> TrainingWindow:
    """Scorable training units for a forecast date: only targets observed by s,
    in the truth snapshot available at s, enter."""
    for r in window_dates:
        if r >= s:
            raise DataError(f"window date {r} is not before the forecast date {s}")
    return TrainingWindow(_records(subs, truth.snapshot(s), window_dates, levels, until=s),
                          levels)


def window_score_table(records: Sequence[WindowRecord], levels: QuantileLevelSet,
                       level_index: int | None = None) -> ScoreTable:
    """Per-model WIS (or one level's contribution) over the window units.

    Every (record, model) forecast is scored in one kernel call.
    """
    table: ScoreTable = {}
    entries = [(rec, m) for rec in records for m in rec.values]
    if not entries:
        return table
    terms = wis_terms(levels.levels, [rec.values[m] for rec, m in entries],
                      np.array([rec.y for rec, _ in entries])[:, None])
    scores = terms.mean(axis=-1) if level_index is None else terms[:, level_index]
    for (rec, m), score in zip(entries, scores.tolist()):
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
    # level k's term needs only levels 0..k (monotonization runs upward)
    stop = None if level_index is None else level_index + 1
    column = {m: i for i, m in enumerate(models)}  # other models: zero column
    padded = np.concatenate([weights, np.zeros((len(weights), 1))], axis=1)
    totals = np.zeros(len(weights))
    for rec in records:
        ms = sorted(rec.values)
        w = padded[:, [column.get(m, -1) for m in ms]]
        live = w.any(axis=1)
        if live.any():
            values = np.array([rec.values[m] for m in ms])[:, :stop]
            q = _emit(values, w[live, :, None], combiner)
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
                   levels: QuantileLevelSet, level_index: int | None = None) -> WeightVector:
    """Weights minimizing the weighted-mean ensemble WIS on the simplex, exactly.

    Only records where every candidate model is available enter the
    objective, keeping it convex. Each (record, level) pair is one row a_i
    (the components' values) with observation y_i and level tau_i, and
    sum_i rho_tau_i(y_i - a_i.w) is minimized over w >= 0, sum(w) = 1. That
    is a linear program, solved by a simplex method in the M-dimensional
    weight space: the Barrodale-Roberts L1 algorithm with the simplex
    constraints added. A minimum lies at a vertex where M - 1 constraints
    are tight, each a zero weight w_m = 0 or a zero residual a_i.w = y_i.
    The descent starts at the best single component. Each pivot relaxes the
    tight constraint whose edge has the most negative directional
    derivative and moves to the exact minimum along that edge: one sort of
    the residual breakpoints, at each of which the slope rises by |a_i.d|,
    capped by the first weight to reach 0. The constraint met there replaces
    the relaxed one, and the descent stops when no edge descends.

    Components whose values are identical on every row are merged before the
    solve and split their weight equally. Degenerate vertices, common with
    integer counts, are avoided by solving on y plus a fixed perturbation of
    1e-9 of each row's scale; the weights are then read from the final
    vertex with the unperturbed y.
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
    if not (np.isfinite(Q).all() and np.isfinite(y).all()):
        raise DataError("convex weights need finite forecasts and observations")
    R, M, K = Q.shape
    A = Q.transpose(0, 2, 1).reshape(R * K, M)  # one row per (record, level)

    groups: dict[bytes, int] = {}  # identical columns share one variable
    group_of = [groups.setdefault(A[:, m].tobytes(), len(groups)) for m in range(M)]
    firsts = [group_of.index(g) for g in range(len(groups))]
    v = _simplex_pinball(A[:, firsts], np.repeat(y, K), np.tile(taus, R))
    size = np.bincount(group_of)
    return WeightVector({m: float(v[g] / size[g]) for m, g in zip(models, group_of)})


def _simplex_pinball(A: np.ndarray, y: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The w >= 0, sum(w) = 1 minimizing sum_i rho_tau_i(y_i - A_i.w), by the
    vertex descent `convex_weights` describes.

    With sum(w) = 1, the M - 1 tight constraints form the basis. A pivot
    that fails to lower the objective, which only rounding can cause, also
    ends the descent, so no basis repeats.
    """
    N, M = A.shape
    if M == 1:
        return np.ones(1)
    scale = np.maximum(np.abs(y), np.abs(A).max(axis=1))
    y_solve = y + 1e-9 * scale * np.random.default_rng(0).uniform(-1.0, 1.0, N)

    def system(basis: np.ndarray, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # basis codes: m < M is w_m = 0, M + i is A_i.w = obs_i
        B, rhs = np.zeros((M, M)), np.zeros(M)
        B[0], rhs[0] = 1.0, 1.0
        rows, bound = np.arange(1, M), basis < M
        B[rows[bound], basis[bound]] = 1.0
        B[rows[~bound]] = A[basis[~bound] - M]
        rhs[rows[~bound]] = obs[basis[~bound] - M]
        return B, rhs

    r = y_solve[:, None] - A
    start = int(np.argmin(np.maximum(tau[:, None] * r, (tau[:, None] - 1.0) * r).sum(axis=0)))
    basis = np.array([m for m in range(M) if m != start])
    previous, obj = basis, np.inf
    mass, a_max = np.abs(A).sum(axis=0), np.abs(A).max()
    while True:
        B, rhs = system(basis, y_solve)
        inverse = np.linalg.inv(B)
        edges = inverse[:, 1:]  # column j: the edge that relaxes basis[j]
        w = inverse @ rhs
        resid = basis >= M
        bound, tight = basis[~resid], basis[resid] - M
        w[bound] = 0.0
        r = y_solve - A @ w
        r[tight] = 0.0
        value = float(np.maximum(tau * r, (tau - 1.0) * r).sum())
        if value >= obj:
            basis = previous
            break
        obj = value

        # derivative along +edge j from the rows off the basis, plus the
        # relaxed residual's own: 1 - tau moving up through y, tau moving down
        g = np.where(r > 0.0, -tau, 1.0 - tau)
        g[tight] = 0.0
        slope = (g @ A) @ edges
        tau_j = tau[np.where(resid, basis - M, 0)]
        up = slope + np.where(resid, 1.0 - tau_j, 0.0)
        down = np.where(resid, tau_j - slope, np.inf)  # zero weights only rise
        noise = -1e-11 * (mass @ np.abs(edges))
        up[up >= noise] = np.inf
        down[down >= noise] = np.inf
        j = int(np.argmin(np.minimum(up, down)))
        rate = min(up[j], down[j])
        if rate == np.inf:
            break

        d = edges[:, j] * (1.0 if up[j] <= down[j] else -1.0)
        d[bound] = 0.0
        if not resid[j]:
            d[basis[j]] = 1.0
        ad = A @ d
        ad[tight] = 0.0
        falling = np.flatnonzero(d < 0.0)
        caps = np.maximum(w[falling], 0.0) / -d[falling]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = r / ad
        hit = np.flatnonzero((r * ad > 0.0) & (t < caps.min())
                             & (np.abs(ad) > 1e-12 * a_max * np.abs(d).sum()))
        hit = hit[np.argsort(t[hit], kind="stable")]
        k = int(np.searchsorted(rate + np.cumsum(np.abs(ad[hit])), 0.0))
        previous = basis.copy()
        basis[j] = M + hit[k] if k < hit.size else falling[np.argmin(caps)]

    B, rhs = system(basis, y)
    w = np.linalg.solve(B, rhs)
    w[basis[basis < M]] = 0.0
    w = np.maximum(w, 0.0)
    return w / w.sum()


def _strata(spec: EnsembleSpec, levels: QuantileLevelSet) -> list[tuple[str, int | None, int | None]]:
    """(label, horizon filter, level index) triples for the sharing mode."""
    if spec.sharing == "per_horizon":
        return [(f"h{h}", h, None) for h in HORIZONS]
    if spec.sharing == "per_quantile":
        return [(f"q{tau:g}", None, k) for k, tau in enumerate(levels.levels)]
    return [("", None, None)]


def _stratum_weights(subs: SubmissionSet, truth: TruthStore, s: dt.date, spec: EnsembleSpec,
                     strata: list, levels: QuantileLevelSet, all_eligible: list[str],
                     baseline_model: str, grid: ThetaGrid) -> list[tuple[WeightVector, float | None]]:
    """Estimated (pre-missingness) weights and theta for forecast date s, one
    pair per entry of `strata` (from `_strata`), in order."""
    equal = (WeightVector.uniform(all_eligible), None)
    if not spec.trained:
        return [equal] * len(strata)

    hist_dates = [d for d in subs.forecast_dates() if d < s]
    if spec.window_weeks is not None:
        hist_dates = hist_dates[-spec.window_weeks:]
    if not hist_dates:
        log.warning("%s %s: no training history; falling back to equal weights",
                    spec.name, s)
        return [equal] * len(strata)
    window = build_training_window(subs, truth, s, hist_dates, levels)
    if not window.records:
        log.warning("%s %s: no scorable training records; falling back to equal weights",
                    spec.name, s)
        return [equal] * len(strata)
    # post hoc weights fit on date s itself, against realized truth
    post_hoc = _records(subs, truth.latest(), [s], levels) if spec.weighting == "post_hoc" else []

    out: list[tuple[WeightVector, float | None]] = []
    for label, horizon, level_index in strata:
        records = [r for r in window.records
                   if horizon is None or r.horizon == horizon]
        table = window_score_table(records, levels, level_index=level_index)
        if baseline_model not in table:
            log.warning("%s %s [%s]: baseline unscored in window; equal weights",
                        spec.name, s, label)
            out.append(equal)
            continue
        rel = relative_wis(table, baseline_model, spec.rwis_aggregation)
        candidates = [m for m in all_eligible if m in rel.rel_wis]
        if not candidates:
            log.warning("%s %s [%s]: no scored eligible components; equal weights",
                        spec.name, s, label)
            out.append(equal)
            continue
        rwis = {m: rel.rel_wis[m] for m in candidates}
        selected = select_top_k(rwis, spec.top_k) if spec.top_k else sorted(candidates)

        if spec.weighting == "equal":
            out.append((WeightVector.uniform(selected), None))
        elif spec.weighting == "rel_wis_sigmoid":
            theta, w = fit_theta(TrainingWindow(records, levels),
                                 {m: rwis[m] for m in selected}, spec, grid,
                                 level_index=level_index)
            out.append((w, theta))
        else:
            if spec.weighting == "post_hoc":
                records = [r for r in post_hoc if horizon is None or r.horizon == horizon]
            out.append((convex_weights(records, selected, levels, level_index=level_index),
                        None))
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
    with missingness renormalization. Post hoc weighting fits only the dates
    where every location has final truth at every horizon. Returns the
    ensemble forecasts plus a weight log with one row per (date, stratum, model).
    """
    grid = grid or default_theta_grid()
    strata = _strata(spec, levels)
    dates = sorted(dates)
    if spec.weighting == "post_hoc":
        final, locations = truth.latest(), subs.locations()
        dates = [s for s in dates
                 if all((loc, s + h * WEEK) in final for loc in locations for h in HORIZONS)]
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

        by_stratum = _stratum_weights(subs, truth, s, spec, strata, levels,
                                      all_eligible, baseline_model, grid)
        # weights[h - 1, i, k]: model all_eligible[i] at horizon h and level k
        weights = np.zeros((len(HORIZONS), len(all_eligible), levels.K))
        for (label, horizon, level_index), (w, theta) in zip(strata, by_stratum):
            for m in w.models():
                weight_log.append({
                    "forecast_date": s, "stratum": label, "model": m,
                    "weight": w[m], "theta": theta, "spec_id": spec.name,
                })
            hs = slice(None) if horizon is None else slice(horizon - 1, horizon)
            ks = slice(None) if level_index is None else slice(level_index, level_index + 1)
            weights[hs, :, ks] = np.array([w.weights.get(m, 0.0) for m in all_eligible])[:, None]

        row = {m: i for i, m in enumerate(all_eligible)}
        for loc in locations:
            avail = elig[loc]
            if not avail:
                log.warning("%s %s %s: no eligible components; cell skipped",
                            spec.name, s, loc)
                continue
            cell_weights = weights[:, [row[m] for m in avail]]
            for h in HORIZONS:
                if not cell_weights[h - 1].any(axis=0).all():
                    log.warning("%s %s %s h%d: no weighted components; cell skipped",
                                spec.name, s, loc, h)
                    continue
                t = s + h * WEEK
                values = np.array([subs.get(m, loc, s, t).values for m in avail])
                q = _emit(values, cell_weights[h - 1], spec.combiner)
                out.add(QuantileForecast(ForecastKey(spec.name, loc, s, t), levels,
                                         tuple(q.tolist())))
    return out, weight_log
