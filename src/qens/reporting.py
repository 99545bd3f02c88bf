"""End-to-end run configuration and report emission.

`run` backtests every configured ensemble over the shared forecast dates,
scores components and ensembles against final truth (dropping negative-truth
targets and, optionally, anomaly-affected forecasts), and writes a
deterministic bundle of tidy CSVs for external plotting.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .analysis import (AnomalyRecord, detect_peaks, load_anomalies,
                       revision_exclusion_set, save_peaks)
from .baseline import baseline_forecast
from .errors import ConfigError, DataError, check_field_types
from .forecast import (WEEK, QuantileForecast, QuantileLevelSet,
                       SubmissionSet, TruthStore, _output_errors, _write_csv,
                       load_forecasts, load_truth_dir, save_forecasts)
from .scoring import (ScoreRecord, coverage_rates, relative_wis, save_rel_wis,
                      score_table, wis_terms)
from .training import EnsembleSpec, train_and_forecast

WEIGHT_LOG_HEADER = ["forecast_date", "stratum", "model", "weight", "theta", "spec_id"]


@dataclass
class RunConfig:
    """Paths, phase boundaries, and the ensemble specs of one experiment."""

    forecast_dir: Path
    truth_dir: Path
    output_dir: Path
    specs: list[EnsembleSpec]
    levels: QuantileLevelSet = field(default_factory=QuantileLevelSet.seven)
    baseline_model: str = "baseline"
    reference_spec: str | None = None  # defaults to the first equal median spec
    prospective_start: dt.date | None = None
    anomalies_file: Path | None = None
    apply_exclusions: bool = False
    baseline_seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not self.specs:
            raise ConfigError("run config needs at least one ensemble spec")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ConfigError("ensemble spec names must be unique")
        if self.reference_spec is not None and self.reference_spec not in names:
            raise ConfigError(f"reference_spec {self.reference_spec!r} names no spec")

    @classmethod
    def from_dict(cls, data: Mapping, base: Path | None = None) -> "RunConfig":
        base = base or Path(".")
        if not isinstance(data, Mapping):
            raise ConfigError("run config must be a JSON object")
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown run config fields: {sorted(extra)}")

        def path_of(key):
            raw = data.get(key)
            if raw is not None and not isinstance(raw, str):
                raise ConfigError(f"{key} must be a path string, got {raw!r}")
            return (base / raw) if raw is not None else None

        if not isinstance(data.get("specs"), list):
            raise ConfigError("run config must list ensemble specs")
        specs = [EnsembleSpec.from_dict(d) for d in data["specs"]]
        lv = data.get("levels", 7)
        try:
            levels = (QuantileLevelSet.preset(lv) if isinstance(lv, int)
                      else QuantileLevelSet(tuple(lv)))
        except (TypeError, DataError) as e:
            raise ConfigError(f"bad levels {lv!r}: {e}") from None
        for key in ("forecast_dir", "truth_dir", "output_dir"):
            if key not in data:
                raise ConfigError(f"run config missing {key!r}")
        return cls(
            forecast_dir=path_of("forecast_dir"),
            truth_dir=path_of("truth_dir"),
            output_dir=path_of("output_dir"),
            specs=specs,
            levels=levels,
            baseline_model=data.get("baseline_model", "baseline"),
            reference_spec=data.get("reference_spec"),
            prospective_start=_opt_date(data.get("prospective_start")),
            anomalies_file=path_of("anomalies_file"),
            apply_exclusions=data.get("apply_exclusions", False),
            baseline_seed=data.get("baseline_seed", 0),
        )


def _opt_date(raw) -> dt.date | None:
    try:
        return dt.date.fromisoformat(raw) if raw else None
    except (TypeError, ValueError):
        raise ConfigError(f"bad date {raw!r} in run config") from None


def load_forecast_dir(path: Path) -> SubmissionSet:
    """Load the forecast CSVs of a directory (or one CSV file) into one set."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"forecast file or directory not found: {path}")
    files = [path] if path.is_file() else sorted(path.glob("*.csv"))
    if not files:
        raise DataError(f"no forecast CSVs in {path}")
    return load_forecasts(*files)


def common_levels(subs: SubmissionSet) -> QuantileLevelSet:
    """The one level set every forecast uses; a DataError when they differ."""
    levels = {f.levels for f in subs}
    if len(levels) != 1:
        raise DataError("component forecasts use inconsistent quantile levels")
    return next(iter(levels))


def load_inputs(forecast_dir: Path, truth_dir: Path, baseline_model: str = "baseline",
                levels: QuantileLevelSet | None = None,
                seed: int = 0) -> tuple[SubmissionSet, TruthStore]:
    """Forecasts and truth; random-walk forecasts are generated for `baseline_model`
    when it has none, at `levels` (which another model must carry) or else at
    the forecasts' `common_levels`."""
    subs = load_forecast_dir(forecast_dir)
    truth = load_truth_dir(truth_dir)
    if levels is not None and not any(f.levels == levels for f in subs
                                      if f.key.model_id != baseline_model):
        raise DataError(f"no component forecast has the {levels.K} configured "
                        "quantile levels")
    if baseline_model not in subs.models():
        add_baseline(subs, truth, subs.forecast_dates(), levels or common_levels(subs),
                     model_id=baseline_model, seed=seed)
    return subs, truth


def add_baseline(subs: SubmissionSet, truth: TruthStore, dates: Sequence[dt.date],
                 levels: QuantileLevelSet, model_id: str = "baseline",
                 seed: int = 0) -> None:
    """Generate random-walk baseline forecasts from as-of truth for each date."""
    locations = subs.locations()
    for s in sorted(dates):
        for loc in locations:
            history = truth.as_of(s, loc)
            if len(history) < 2:
                continue
            if history[-1][0] != s:
                history = [(d, v) for d, v in history if d <= s]
                if len(history) < 2:
                    continue
            for f in baseline_forecast(history, levels, model_id=model_id,
                                       seed=seed, location=loc):
                if subs.get(model_id, loc, f.key.forecast_date,
                            f.key.target_end_date) is None:
                    subs.add(f)


def _observed(subs: SubmissionSet,
              truth: TruthStore) -> list[tuple[QuantileForecast, float]]:
    """Each forecast with its final observation, in `subs` order, unless that is
    missing or negative (NaN is kept, for the scoring kernel to reject)."""
    final = truth.latest()
    return [(f, y) for f in subs
            if (y := final.get((f.key.location, f.key.target_end_date))) is not None
            and not y < 0]


def score_submissions(subs: SubmissionSet, truth: TruthStore,
                      exclusions: set | None = None) -> list[ScoreRecord]:
    """WIS of every forecast against final truth; negative truth is dropped.

    Scores each level set's forecasts in one kernel call; records keep the
    order of `subs`.
    """
    scorable = _observed(subs, truth)
    if exclusions:
        scorable = [(f, y) for f, y in scorable if f.key not in exclusions]
    groups: dict[int, list[int]] = {}  # level sets are shared, so group by identity
    for i, (f, _) in enumerate(scorable):
        groups.setdefault(id(f.levels), []).append(i)
    records: list = [None] * len(scorable)  # filled group by group, in subs order
    for members in groups.values():
        fs = [scorable[i][0] for i in members]
        y = np.array([scorable[i][1] for i in members])[:, None]
        terms = wis_terms(fs[0].levels.levels, [f.values for f in fs], y)
        for i, f, score, per_level in zip(members, fs, terms.mean(axis=-1).tolist(),
                                          terms.tolist()):
            records[i] = ScoreRecord(f.key, score, tuple(per_level))
    return records


def phase_of(config: RunConfig, forecast_date: dt.date) -> str:
    if config.prospective_start and forecast_date >= config.prospective_start:
        return "prospective"
    return "development"


def run(config: RunConfig) -> Path:
    """Execute the full pipeline and write the report bundle; returns its path."""
    out = Path(config.output_dir)
    with _output_errors(out):  # an unwritable bundle path fails before any work
        out.mkdir(parents=True, exist_ok=True)
    anomalies: list[AnomalyRecord] = []
    if config.anomalies_file is not None:
        anomalies = load_anomalies(config.anomalies_file)
    subs, truth = load_inputs(config.forecast_dir, config.truth_dir,
                              config.baseline_model, config.levels, config.baseline_seed)
    dates = subs.forecast_dates()

    ensembles = SubmissionSet()
    weight_rows: list[dict] = []
    for spec in config.specs:
        ens, wlog = train_and_forecast(subs, truth, spec, dates, config.levels,
                                       baseline_model=config.baseline_model)
        ensembles.merge(ens)
        weight_rows.extend(wlog)

    save_forecasts(ensembles, out / "ensemble_forecasts.csv")
    subs.merge(ensembles)  # from here on, components and ensembles alike

    exclusions = None
    if config.apply_exclusions and anomalies:
        exclusions = revision_exclusion_set(anomalies, subs.forecasts.keys(), truth)
    records = score_submissions(subs, truth, exclusions)

    _write_scores(records, config, out / "scores.csv")
    rel = relative_wis(score_table(records), config.baseline_model)
    save_rel_wis(rel, out / "rwis.csv")
    save_coverage(subs, truth, out / "coverage.csv")
    save_weight_log(weight_rows, out / "weights.csv")
    reference = config.reference_spec or _default_reference(config.specs)
    _write_wis_differences(records, reference, config, out / "wis_diff.csv")
    peaks = _write_peaks(truth, subs, out / "peaks.csv")
    _write_peak_errors(subs, truth, peaks, out / "peak_errors.csv")
    return out


def _default_reference(specs: Sequence[EnsembleSpec]) -> str:
    for s in specs:
        if s.combiner == "median" and not s.trained:
            return s.name
    return specs[0].name


def _write_scores(records: Sequence[ScoreRecord], config: RunConfig,
                  path: Path) -> None:
    issued: dict[dt.date, tuple[str, str]] = {}  # forecast date -> (text, phase)

    def rows():
        for rec in sorted(records, key=attrgetter("key")):
            k = rec.key
            if k.forecast_date not in issued:
                issued[k.forecast_date] = (k.forecast_date.isoformat(),
                                           phase_of(config, k.forecast_date))
            fdate, phase = issued[k.forecast_date]
            yield [k.model_id, k.location, fdate, k.target_end_date.isoformat(),
                   k.horizon, repr(rec.wis), phase]

    _write_csv(path, ["model", "location", "forecast_date", "target_end_date",
                      "horizon", "wis", "phase"], rows())


def save_coverage(subs: SubmissionSet, truth: TruthStore, path: Path) -> None:
    """Coverage export: model,level,coverage against final truth."""
    by_model: dict[str, list[tuple[QuantileForecast, float]]] = {}
    for f, y in _observed(subs, truth):
        by_model.setdefault(f.key.model_id, []).append((f, y))
    rows = []
    for m, scorable in sorted(by_model.items()):
        levels = scorable[0][0].levels
        usable = [(f, y) for f, y in scorable if f.levels == levels]
        rates = coverage_rates([f for f, _ in usable], [y for _, y in usable])
        for tau in sorted(rates):
            rows.append([m, f"{tau:g}", repr(rates[tau])])
    _write_csv(path, ["model", "level", "coverage"], rows)


def save_weight_log(rows: Sequence[dict], path: Path) -> None:
    """Weight log export: one row per (spec, date, stratum, model)."""
    lines = ([r["forecast_date"].isoformat(), r["stratum"], r["model"], repr(r["weight"]),
              "" if r["theta"] is None else repr(r["theta"]), r["spec_id"]]
             for r in sorted(rows, key=lambda r: (r["spec_id"], r["forecast_date"],
                                                  r["stratum"], r["model"])))
    _write_csv(path, WEIGHT_LOG_HEADER, lines)


def _write_wis_differences(records: Sequence[ScoreRecord], reference: str,
                           config: RunConfig, path: Path) -> None:
    """Mean WIS difference vs the reference per (spec, forecast date, horizon)."""
    sums: dict[tuple[str, dt.date, int], tuple[float, int]] = {}
    for rec in records:
        k = (rec.key.model_id, rec.key.forecast_date, rec.key.horizon)
        total, n = sums.get(k, (0.0, 0))
        sums[k] = (total + rec.wis, n + 1)
    means = {k: total / n for k, (total, n) in sums.items()}
    spec_names = {s.name for s in config.specs}
    rows = []
    for (model, date, horizon) in sorted(means):
        if model not in spec_names:
            continue
        ref = means.get((reference, date, horizon))
        if ref is None:
            continue
        rows.append([model, date.isoformat(), horizon,
                     repr(means[(model, date, horizon)] - ref), phase_of(config, date)])
    _write_csv(path, ["spec_id", "forecast_date", "horizon", "mean_wis_diff", "phase"],
               rows)


def _write_peaks(truth: TruthStore, subs: SubmissionSet, path: Path) -> list:
    final = truth.by_location(truth.snapshot_dates[-1])
    peaks = []
    for loc in subs.locations():
        peaks.extend(detect_peaks(final.get(loc, ()), location=loc))
    save_peaks(peaks, path)
    return peaks


def _write_peak_errors(subs: SubmissionSet, truth: TruthStore, peaks, path: Path) -> None:
    """Predictive-median errors overall and for forecasts issued pre-peak."""
    peak_weeks = {(p.location, p.peak_week) for p in peaks}
    median_at: dict[int, int | None] = {}  # per level set, by identity

    def rows():
        for f, y in sorted(_observed(subs, truth), key=lambda pair: pair[0].key):
            if id(f.levels) not in median_at:
                rounded = [round(t, 10) for t in f.levels.levels]
                median_at[id(f.levels)] = rounded.index(0.5) if 0.5 in rounded else None
            k, key = median_at[id(f.levels)], f.key
            if k is None:
                continue
            pre_peak = (key.location, key.forecast_date + WEEK) in peak_weeks
            yield [key.model_id, key.location, key.forecast_date.isoformat(),
                   key.horizon, repr(f.values[k] - y), int(pre_peak)]

    _write_csv(path, ["model", "location", "forecast_date", "horizon",
                      "median_error", "pre_peak"], rows())
