"""Domain types, CSV ingestion, vintage-aware truth storage, and eligibility rules.

Forecasts live in a quantile format: each (model, location, forecast date,
target date) carries an ordered vector of predictive quantiles. Truth data is
versioned: every weekly snapshot records what was known on its date, so
backtests can be run against the data that would have been available in real
time.

Conventions: forecast dates and target end dates are both week-ending
(Saturday-anchored) dates, and the horizon in weeks is (target - forecast)/7.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import DuplicateCellError, DataError, ParseError, ValidationError

WEEK = dt.timedelta(days=7)
HORIZONS = (1, 2, 3, 4)

FORECAST_CSV_HEADER = [
    "model", "forecast_date", "location", "target_end_date",
    "type", "quantile", "value",
]
TRUTH_CSV_HEADER = ["location", "target_end_date", "value"]


@dataclass(frozen=True)
class QuantileLevelSet:
    """Ordered probability levels at which forecasts report quantiles."""

    levels: tuple[float, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("level set must be nonempty")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if not lo < hi:
                raise ValidationError(f"levels must be strictly increasing: {lo} >= {hi}")
        if self.levels[0] <= 0.0 or self.levels[-1] >= 1.0:
            raise ValidationError("levels must lie in the open unit interval")

    @property
    def K(self) -> int:
        return len(self.levels)

    def central_interval(self, coverage: float) -> tuple[float, float]:
        """Lower/upper levels of the central interval with the given coverage."""
        lo = round((1.0 - coverage) / 2.0, 10)
        hi = round(1.0 - lo, 10)
        rounded = [round(t, 10) for t in self.levels]
        if lo not in rounded or hi not in rounded:
            raise ValidationError(f"levels for {coverage:.0%} central interval not present")
        return lo, hi

    @classmethod
    def seven(cls) -> "QuantileLevelSet":
        return cls((0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975))

    @classmethod
    def twenty_three(cls) -> "QuantileLevelSet":
        inner = tuple(round(0.05 * i, 10) for i in range(1, 19))
        return cls((0.01, 0.025) + inner + (0.95, 0.975, 0.99))

    @classmethod
    def preset(cls, count: int) -> "QuantileLevelSet":
        if count == 7:
            return cls.seven()
        if count == 23:
            return cls.twenty_three()
        raise ValidationError(f"no preset level set with {count} levels")


@dataclass(frozen=True, order=True)
class ForecastKey:
    """Identity of one quantile forecast: who, where, when issued, and for when."""

    model_id: str
    location: str
    forecast_date: dt.date
    target_end_date: dt.date

    def __post_init__(self):
        days = (self.target_end_date - self.forecast_date).days
        if days <= 0 or days % 7 != 0 or days // 7 not in HORIZONS:
            raise ValidationError(
                f"target {self.target_end_date} is not 1-4 whole weeks after "
                f"forecast date {self.forecast_date}"
            )

    @property
    def horizon(self) -> int:
        return (self.target_end_date - self.forecast_date).days // 7


@dataclass(frozen=True)
class QuantileForecast:
    """One model's predictive quantiles for a single location/date/target cell."""

    key: ForecastKey
    levels: QuantileLevelSet
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.levels.K:
            raise ValidationError(
                f"{self.key}: {len(self.values)} values for {self.levels.K} levels"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError(f"{self.key}: non-finite predictive quantile")
        if any(v < 0 for v in self.values):
            raise ValidationError(f"{self.key}: negative predictive quantile")
        for lo, hi in zip(self.values, self.values[1:]):
            if lo > hi:
                raise ValidationError(f"{self.key}: quantiles not nondecreasing")


class TruthStore:
    """Versioned observations with as-of snapshot semantics.

    Each snapshot maps (location, target_end_date) to the value reported on
    the snapshot date. Queries never see a snapshot later than their as-of
    date. Raw snapshot values may be negative (reporting corrections).
    """

    def __init__(self, snapshots: Mapping[dt.date, Mapping[tuple[str, dt.date], float]]):
        self._snapshots = {d: dict(s) for d, s in sorted(snapshots.items())}

    @property
    def snapshot_dates(self) -> tuple[dt.date, ...]:
        return tuple(self._snapshots)

    def snapshot(self, as_of: dt.date) -> dict[tuple[str, dt.date], float]:
        """The latest snapshot dated on or before `as_of`; empty when none."""
        chosen: dict[tuple[str, dt.date], float] = {}
        for d, snap in self._snapshots.items():
            if d <= as_of:
                chosen = snap
            else:
                break
        return chosen

    def as_of(self, as_of: dt.date, location: str) -> list[tuple[dt.date, float]]:
        """Series of (target_end_date, value) from the applicable snapshot."""
        snap = self.snapshot(as_of)
        series = [(t, v) for (loc, t), v in snap.items() if loc == location]
        return sorted(series)

    def latest(self) -> dict[tuple[str, dt.date], float]:
        if not self._snapshots:
            return {}
        return self._snapshots[max(self._snapshots)]


def weekly_increments(series: Iterable[tuple[dt.date, float]]) -> list[tuple[dt.date, float]]:
    """Difference a cumulative Saturday series into weekly counts.

    Output values may be negative; exclusion of negative weeks happens at
    scoring time, not here.
    """
    items = sorted(series)
    out = []
    for (d0, v0), (d1, v1) in zip(items, items[1:]):
        if d1 - d0 != WEEK:
            raise DataError(f"gap in weekly series between {d0} and {d1}")
        out.append((d1, v1 - v0))
    return out


class SubmissionSet:
    """All component forecasts, keyed by (model, location, forecast date, target).

    `add`, the only writer, files each forecast by reference in the flat
    `forecasts` dict and in a cell index, forecast date -> location -> model
    -> horizon, and records each model's earliest forecast date, so questions
    about one cell or one date never scan every forecast.
    """

    def __init__(self) -> None:
        self.forecasts: dict[ForecastKey, QuantileForecast] = {}
        self._cells: dict[dt.date, dict[str, dict[str, dict[int, QuantileForecast]]]] = {}
        self._first_date: dict[str, dt.date] = {}

    def add(self, forecast: QuantileForecast) -> None:
        key = forecast.key
        if key in self.forecasts:
            raise DuplicateCellError(f"duplicate forecast for {key}")
        self.forecasts[key] = forecast
        by_model = self._cells.setdefault(key.forecast_date, {}).setdefault(key.location, {})
        by_model.setdefault(key.model_id, {})[key.horizon] = forecast
        if key.forecast_date < self._first_date.get(key.model_id, dt.date.max):
            self._first_date[key.model_id] = key.forecast_date

    def merge(self, other: "SubmissionSet") -> None:
        for f in other.forecasts.values():
            self.add(f)

    def __len__(self) -> int:
        return len(self.forecasts)

    def __iter__(self) -> Iterator[QuantileForecast]:
        return iter(self.forecasts.values())

    def models(self) -> list[str]:
        return sorted(self._first_date)

    def locations(self) -> list[str]:
        return sorted({loc for by_loc in self._cells.values() for loc in by_loc})

    def forecast_dates(self) -> list[dt.date]:
        return sorted(self._cells)

    def locations_on(self, forecast_date: dt.date) -> list[str]:
        """Locations with at least one forecast issued on `forecast_date`."""
        return sorted(self._cells.get(forecast_date, ()))

    def get(self, model_id: str, location: str, forecast_date: dt.date,
            target_end_date: dt.date) -> QuantileForecast | None:
        return self.forecasts.get(
            ForecastKey(model_id, location, forecast_date, target_end_date))


def eligible_components(subs: SubmissionSet, location: str, forecast_date: dt.date,
                        levels: QuantileLevelSet, require_history: bool = False) -> list[str]:
    """Models with a complete quantile set at all four horizons for this cell.

    With `require_history`, the model must additionally have at least one
    submission at an earlier forecast date (at any location).
    """
    cell = subs._cells.get(forecast_date, {}).get(location, {})
    return [m for m, by_h in sorted(cell.items())
            if len(by_h) == len(HORIZONS)
            and all(f.levels == levels for f in by_h.values())
            and not (require_history and subs._first_date[m] >= forecast_date)]


def _parse_date(text: str, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as e:
        raise ParseError(f"bad date {text!r}: {e}", line) from None


def load_forecasts(*paths: str | Path) -> SubmissionSet:
    """Read forecast CSVs, file by file, into one SubmissionSet.

    Rows with type != "quantile" are ignored. Duplicate cells, per-forecast
    quantile crossings and a forecast in two files are rejected. Each
    forecast is built from whatever levels were actually provided;
    completeness against a canonical level set is checked later by
    `eligible_components`.
    """
    subs = SubmissionSet()
    for path in map(Path, paths):
        if not path.exists():
            raise DataError(f"forecast file not found: {path}")
        by_key: dict[ForecastKey, dict[float, float]] = {}
        by_raw: dict[tuple[str, str, str, str], tuple[ForecastKey, dict[float, float]]] = {}
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
                        key = ForecastKey(model, loc, _parse_date(fdate, lineno),
                                          _parse_date(tdate, lineno))
                    except ValidationError as e:
                        raise ParseError(str(e), lineno) from None
                    # raw fields that parse to one key share its level dict
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
        for key, by_level in sorted(by_key.items()):
            taus = tuple(sorted(by_level))
            values = tuple(by_level[t] for t in taus)
            subs.add(QuantileForecast(key, QuantileLevelSet(taus), values))
    return subs


def _format_level(tau: float) -> str:
    text = f"{tau:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def save_forecasts(subs: SubmissionSet, path: str | Path) -> None:
    """Write forecasts in the canonical CSV layout (round-trips with load)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_CSV_HEADER)
        for key in sorted(subs.forecasts):
            f = subs.forecasts[key]
            for tau, val in zip(f.levels.levels, f.values):
                writer.writerow([
                    key.model_id, key.forecast_date.isoformat(), key.location,
                    key.target_end_date.isoformat(), "quantile",
                    _format_level(tau), repr(val),
                ])


def load_truth_dir(path: str | Path) -> TruthStore:
    """Read a directory of truth snapshot CSVs, one file per as-of date."""
    path = Path(path)
    if not path.is_dir():
        raise DataError(f"truth directory not found: {path}")
    snapshots: dict[dt.date, dict[tuple[str, dt.date], float]] = {}
    for fp in sorted(path.glob("*.csv")):
        try:
            as_of = dt.date.fromisoformat(fp.stem)
        except ValueError:
            raise DataError(f"truth snapshot filename is not an ISO date: {fp.name}")
        snap: dict[tuple[str, dt.date], float] = {}
        with open(fp, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != TRUTH_CSV_HEADER:
                raise ParseError(f"unexpected truth header {header!r} in {fp}", 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(TRUTH_CSV_HEADER):
                    raise ParseError(f"expected {len(TRUTH_CSV_HEADER)} fields, "
                                     f"got {len(row)} in {fp}", lineno)
                loc, tdate, value = row
                try:
                    y = float(value)
                except ValueError:
                    raise ParseError(f"bad value {value!r} in {fp}", lineno) from None
                if not math.isfinite(y):
                    raise ParseError(f"non-finite value {value!r} in {fp}", lineno)
                snap[(loc, _parse_date(tdate, lineno))] = y
        snapshots[as_of] = snap
    if not snapshots:
        raise DataError(f"no truth snapshots in {path}")
    return TruthStore(snapshots)


def save_truth_dir(store: TruthStore, path: str | Path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for as_of in store.snapshot_dates:
        snap = store.snapshot(as_of)
        with open(path / f"{as_of.isoformat()}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRUTH_CSV_HEADER)
            for (loc, t), v in sorted(snap.items()):
                writer.writerow([loc, t.isoformat(), repr(v)])
