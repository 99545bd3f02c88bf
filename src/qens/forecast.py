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

import bisect
import contextlib
import csv
import datetime as dt
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (ConfigError, DuplicateCellError, DataError, ParseError,
                     ValidationError)

WEEK = dt.timedelta(days=7)
HORIZONS = (1, 2, 3, 4)
_HORIZON_DAYS = frozenset(7 * h for h in HORIZONS)

FORECAST_CSV_HEADER = [
    "model", "forecast_date", "location", "target_end_date",
    "type", "quantile", "value",
]
TRUTH_CSV_HEADER = ["location", "target_end_date", "value"]


@contextlib.contextmanager
def _csv_reader(path: str | Path, header: Sequence[str], what: str) -> Iterator[Iterator]:
    """A `csv.reader` over a UTF-8 file, positioned after its checked header.

    A missing or unreadable file is a DataError, a wrong header a ParseError
    at line 1, and text that is not UTF-8 a ParseError naming the file (with
    no line: the text layer decodes in chunks).
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except OSError as e:
        raise DataError(f"cannot read {what} file {path}: {e.strerror}") from None
    with fh:
        try:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found != header:
                raise ParseError(f"unexpected header {found!r} in {path}", 1)
            yield reader
        except UnicodeDecodeError as e:
            raise ParseError(f"{what} file {path} is not UTF-8 text: {e.reason}") from None


@contextlib.contextmanager
def _output_errors(path: str | Path) -> Iterator[None]:
    """Turn an OSError while writing `path` into a ConfigError: the caller chose it."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV of a header and rows, creating missing parent directories."""
    path = Path(path)
    with _output_errors(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


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


class _KeyFields(NamedTuple):  # a NamedTuple may not define __new__; ForecastKey does
    model_id: str
    location: str
    forecast_date: dt.date
    target_end_date: dt.date


class ForecastKey(_KeyFields):
    """Identity of one quantile forecast: who, where, when issued, and for when.

    A named tuple, so hashing, equality and ordering (field by field) run in
    C; construction checks the horizon.
    """

    __slots__ = ()

    def __new__(cls, model_id: str, location: str, forecast_date: dt.date,
                target_end_date: dt.date) -> "ForecastKey":
        if (target_end_date - forecast_date).days not in _HORIZON_DAYS:
            raise ValidationError(
                f"target {target_end_date} is not 1-4 whole weeks after "
                f"forecast date {forecast_date}"
            )
        return tuple.__new__(cls, (model_id, location, forecast_date, target_end_date))

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
        # C-level passes; all values are finite before the sign and order checks
        if not all(map(math.isfinite, self.values)):
            raise ValidationError(f"{self.key}: non-finite predictive quantile")
        if min(self.values) < 0:
            raise ValidationError(f"{self.key}: negative predictive quantile")
        if not all(map(operator.le, self.values, self.values[1:])):
            raise ValidationError(f"{self.key}: quantiles not nondecreasing")


class TruthStore:
    """Versioned observations with as-of snapshot semantics.

    Each snapshot maps (location, target_end_date) to the value reported on
    the snapshot date. Queries never see a snapshot later than their as-of
    date. Raw snapshot values may be negative (reporting corrections).
    """

    def __init__(self, snapshots: Mapping[dt.date, Mapping[tuple[str, dt.date], float]]):
        self._snapshots = {d: dict(s) for d, s in sorted(snapshots.items())}
        self._dates = list(self._snapshots)
        # snapshot date -> location -> sorted series, built on first use
        self._series: dict[dt.date, dict[str, list[tuple[dt.date, float]]]] = {}

    @property
    def snapshot_dates(self) -> tuple[dt.date, ...]:
        return tuple(self._dates)

    def _applicable(self, as_of: dt.date) -> dt.date | None:
        """Date of the latest snapshot dated on or before `as_of`."""
        i = bisect.bisect_right(self._dates, as_of)
        return self._dates[i - 1] if i else None

    def snapshot(self, as_of: dt.date) -> dict[tuple[str, dt.date], float]:
        """The latest snapshot dated on or before `as_of`; empty when none."""
        d = self._applicable(as_of)
        return {} if d is None else self._snapshots[d]

    def by_location(self, as_of: dt.date) -> dict[str, list[tuple[dt.date, float]]]:
        """Each location's (target_end_date, value) series, sorted by date, from
        the applicable snapshot; empty when none. Shared: do not modify."""
        d = self._applicable(as_of)
        if d is None:
            return {}
        if d not in self._series:
            by_location: dict[str, list[tuple[dt.date, float]]] = {}
            for (loc, t), v in sorted(self._snapshots[d].items()):
                by_location.setdefault(loc, []).append((t, v))
            self._series[d] = by_location
        return self._series[d]

    def as_of(self, as_of: dt.date, location: str) -> list[tuple[dt.date, float]]:
        """Series of (target_end_date, value) from the applicable snapshot."""
        return list(self.by_location(as_of).get(location, ()))

    def latest(self) -> dict[tuple[str, dt.date], float]:
        return self._snapshots[self._dates[-1]] if self._dates else {}


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
            and all(f.levels.levels == levels.levels for f in by_h.values())
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
    level_of: dict[str, float] = {}  # quantile text -> level, parsed once
    level_sets: dict[tuple[float, ...], QuantileLevelSet] = {}  # one per level tuple
    for path in map(Path, paths):
        by_key: dict[ForecastKey, dict[float, float]] = {}
        by_raw: dict[tuple[str, str, str, str], tuple[ForecastKey, dict[float, float]]] = {}
        with _csv_reader(path, FORECAST_CSV_HEADER, "forecast") as reader:
            for lineno, row in enumerate(reader, start=2):
                try:
                    model, fdate, loc, tdate, rtype, qlevel, value = row
                except ValueError:
                    if not row:
                        continue
                    raise ParseError(f"expected {len(FORECAST_CSV_HEADER)} fields, "
                                     f"got {len(row)}", lineno) from None
                if rtype != "quantile":
                    continue
                raw = (model, fdate, loc, tdate)
                cached = by_raw.get(raw)
                if cached is None:
                    try:
                        key = ForecastKey(model, loc, _parse_date(fdate, lineno),
                                          _parse_date(tdate, lineno))
                    except ValidationError as e:
                        raise ParseError(str(e), lineno) from None
                    # raw fields that parse to one key share its level dict
                    cached = by_raw[raw] = (key, by_key.setdefault(key, {}))
                key, by_level = cached
                tau = level_of.get(qlevel)
                try:
                    if tau is None:
                        tau = round(float(qlevel), 10)
                        if tau == tau:  # NaN is never cached: each stays its own level
                            level_of[qlevel] = tau
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
            levels = level_sets.get(taus)
            if levels is None:
                levels = level_sets[taus] = QuantileLevelSet(taus)
            subs.add(QuantileForecast(key, levels, tuple(map(by_level.__getitem__, taus))))
    return subs


def _format_level(tau: float) -> str:
    text = f"{tau:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def save_forecasts(subs: SubmissionSet, path: str | Path) -> None:
    """Write forecasts in the canonical CSV layout (round-trips with load)."""
    level_text: dict[int, list[str]] = {}  # per level set, by identity

    def rows():
        for key in sorted(subs.forecasts):
            f = subs.forecasts[key]
            taus = level_text.get(id(f.levels))
            if taus is None:
                taus = level_text[id(f.levels)] = list(map(_format_level, f.levels.levels))
            model, location = key.model_id, key.location
            fdate, tdate = key.forecast_date.isoformat(), key.target_end_date.isoformat()
            for tau, val in zip(taus, f.values):
                yield model, fdate, location, tdate, "quantile", tau, repr(val)

    _write_csv(path, FORECAST_CSV_HEADER, rows())


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
        with _csv_reader(fp, TRUTH_CSV_HEADER, "truth") as reader:
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
    """One snapshot CSV per as-of date (round-trips with `load_truth_dir`)."""
    for as_of in store.snapshot_dates:
        snap = store.snapshot(as_of)
        rows = ([loc, t.isoformat(), repr(v)] for (loc, t), v in sorted(snap.items()))
        _write_csv(Path(path) / f"{as_of.isoformat()}.csv", TRUTH_CSV_HEADER, rows)
