"""End-to-end run configuration and report emission.

`run` backtests every configured ensemble over the shared forecast dates,
scores components and ensembles against final truth (dropping negative-truth
targets and, optionally, anomaly-affected forecasts), and writes a
deterministic bundle of tidy CSVs for external plotting.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .analysis import (AnomalyRecord, detect_peaks, load_anomalies,
                       revision_exclusion_set, save_peaks)
from .baseline import baseline_forecast
from .errors import ConfigError, DataError
from .forecast import (HORIZONS, WEEK, QuantileForecast, QuantileLevelSet,
                       SubmissionSet, TruthStore, load_forecasts,
                       load_truth_dir, save_forecasts)
from .scoring import (ScoreRecord, coverage_rates, relative_wis, save_rel_wis,
                      score_table, wis)
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
    development_cut: dt.date | None = None
    prospective_start: dt.date | None = None
    anomalies_file: Path | None = None
    apply_exclusions: bool = False
    baseline_seed: int = 0

    def __post_init__(self):
        if not self.specs:
            raise ConfigError("run config needs at least one ensemble spec")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ConfigError("ensemble spec names must be unique")
        if (self.development_cut and self.prospective_start
                and self.development_cut > self.prospective_start):
            raise ConfigError("development cut must not be after prospective start")

    @classmethod
    def from_dict(cls, data: Mapping, base: Path | None = None) -> "RunConfig":
        base = base or Path(".")
        if not isinstance(data, Mapping):
            raise ConfigError("run config must be a JSON object")

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
        seed = data.get("baseline_seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"baseline_seed must be an integer, got {seed!r}")
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
            development_cut=_opt_date(data.get("development_cut")),
            prospective_start=_opt_date(data.get("prospective_start")),
            anomalies_file=path_of("anomalies_file"),
            apply_exclusions=bool(data.get("apply_exclusions", False)),
            baseline_seed=seed,
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


def score_submissions(subs: SubmissionSet, truth: TruthStore,
                      exclusions: set | None = None) -> list[ScoreRecord]:
    """WIS of every forecast against final truth; negative truth is dropped."""
    final = truth.latest()
    records = []
    for f in subs:
        if exclusions and f.key in exclusions:
            continue
        y = final.get((f.key.location, f.key.target_end_date))
        if y is None or y < 0:
            continue
        records.append(wis(f, y))
    return records


def phase_of(config: RunConfig, forecast_date: dt.date) -> str:
    if config.prospective_start and forecast_date >= config.prospective_start:
        return "prospective"
    return "development"


def run(config: RunConfig) -> Path:
    """Execute the full pipeline and write the report bundle; returns its path."""
    subs = load_forecast_dir(config.forecast_dir)
    truth = load_truth_dir(config.truth_dir)
    anomalies: list[AnomalyRecord] = []
    if config.anomalies_file is not None:
        anomalies = load_anomalies(config.anomalies_file)
    dates = subs.forecast_dates()
    if config.baseline_model not in subs.models():
        add_baseline(subs, truth, dates, config.levels,
                     model_id=config.baseline_model, seed=config.baseline_seed)

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    ensembles = SubmissionSet()
    weight_rows: list[dict] = []
    for spec in config.specs:
        spec_dates = dates
        if spec.weighting == "post_hoc":
            final, locations = truth.latest(), subs.locations()
            spec_dates = [s for s in dates
                          if all((loc, s + h * WEEK) in final
                                 for loc in locations for h in HORIZONS)]
        ens, wlog = train_and_forecast(subs, truth, spec, spec_dates,
                                       config.levels,
                                       baseline_model=config.baseline_model)
        ensembles.merge(ens)
        weight_rows.extend(wlog)

    scored = SubmissionSet()
    scored.merge(subs)
    scored.merge(ensembles)
    save_forecasts(ensembles, out / "ensemble_forecasts.csv")

    exclusions = None
    if config.apply_exclusions and anomalies:
        exclusions = revision_exclusion_set(anomalies, scored.forecasts.keys(), truth)
    records = score_submissions(scored, truth, exclusions)

    _write_scores(records, config, out / "scores.csv")
    rel = relative_wis(score_table(records), config.baseline_model)
    save_rel_wis(rel, out / "rwis.csv")
    save_coverage(scored, truth, out / "coverage.csv")
    save_weight_log(weight_rows, out / "weights.csv")
    reference = config.reference_spec or _default_reference(config.specs)
    _write_wis_differences(records, reference, config, out / "wis_diff.csv")
    peaks = _write_peaks(truth, scored, config, out)
    _write_peak_errors(scored, truth, peaks, config, out / "peak_errors.csv")
    return out


def _default_reference(specs: Sequence[EnsembleSpec]) -> str:
    for s in specs:
        if s.combiner == "median" and not s.trained:
            return s.name
    return specs[0].name


def _write_scores(records: Sequence[ScoreRecord], config: RunConfig,
                  path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "location", "forecast_date", "target_end_date",
                         "horizon", "wis", "phase"])
        for rec in sorted(records, key=lambda r: r.key):
            k = rec.key
            writer.writerow([k.model_id, k.location, k.forecast_date.isoformat(),
                             k.target_end_date.isoformat(), k.horizon,
                             repr(rec.wis), phase_of(config, k.forecast_date)])


def save_coverage(subs: SubmissionSet, truth: TruthStore, path: Path) -> None:
    """Coverage export: model,level,coverage against final truth."""
    final = truth.latest()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "level", "coverage"])
        by_model: dict[str, list[tuple[QuantileForecast, float]]] = {}
        for f in subs:
            y = final.get((f.key.location, f.key.target_end_date))
            if y is not None and y >= 0:
                by_model.setdefault(f.key.model_id, []).append((f, y))
        for m, scorable in sorted(by_model.items()):
            levels = scorable[0][0].levels
            usable = [(f, y) for f, y in scorable if f.levels == levels]
            rates = coverage_rates([f for f, _ in usable], [y for _, y in usable])
            for tau in sorted(rates):
                writer.writerow([m, f"{tau:g}", repr(rates[tau])])


def save_weight_log(rows: Sequence[dict], path: Path) -> None:
    """Weight log export: one row per (spec, date, stratum, model)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEIGHT_LOG_HEADER)
        for row in sorted(rows, key=lambda r: (r["spec_id"], r["forecast_date"],
                                               r["stratum"], r["model"])):
            writer.writerow([
                row["forecast_date"].isoformat(), row["stratum"], row["model"],
                repr(row["weight"]),
                "" if row["theta"] is None else repr(row["theta"]),
                row["spec_id"],
            ])


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["spec_id", "forecast_date", "horizon", "mean_wis_diff",
                         "phase"])
        for (model, date, horizon) in sorted(means):
            if model not in spec_names:
                continue
            ref = means.get((reference, date, horizon))
            if ref is None:
                continue
            writer.writerow([model, date.isoformat(), horizon,
                             repr(means[(model, date, horizon)] - ref),
                             phase_of(config, date)])


def _write_peaks(truth: TruthStore, subs: SubmissionSet, config: RunConfig,
                 out: Path) -> list:
    final = truth.latest()
    peaks = []
    for loc in subs.locations():
        series = {t: v for (l, t), v in final.items() if l == loc}
        peaks.extend(detect_peaks(series, location=loc))
    save_peaks(peaks, out / "peaks.csv")
    return peaks


def _write_peak_errors(subs: SubmissionSet, truth: TruthStore, peaks,
                       config: RunConfig, path: Path) -> None:
    """Predictive-median errors overall and for forecasts issued pre-peak."""
    final = truth.latest()
    peak_weeks = {(p.location, p.peak_week) for p in peaks}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "location", "forecast_date", "horizon",
                         "median_error", "pre_peak"])
        median_at: dict[QuantileLevelSet, int | None] = {}  # per distinct level set
        for key in sorted(subs.forecasts):
            f = subs.forecasts[key]
            if f.levels not in median_at:
                rounded = [round(t, 10) for t in f.levels.levels]
                median_at[f.levels] = rounded.index(0.5) if 0.5 in rounded else None
            k, y = median_at[f.levels], final.get((key.location, key.target_end_date))
            if k is None or y is None or y < 0:
                continue
            median = f.values[k]
            pre_peak = (key.location, key.forecast_date + WEEK) in peak_weeks
            writer.writerow([key.model_id, key.location,
                             key.forecast_date.isoformat(), key.horizon,
                             repr(median - y), int(pre_peak)])
