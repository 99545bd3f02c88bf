"""Diagnostics: reporting anomalies, local peaks, and weight-trajectory
summaries."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ParseError
from .forecast import ForecastKey, TruthStore, _csv_reader, _write_csv

REVISION_ABS_THRESHOLD = 20.0
REVISION_REL_THRESHOLD = 0.4
PEAK_RADIUS = 5
REVISION_EXCLUSION_WEEKS = 3

ANOMALY_CSV_HEADER = ["location", "target_end_date", "kind", "initial_value",
                      "final_value"]


@dataclass(frozen=True)
class AnomalyRecord:
    location: str
    target_end_date: dt.date
    kind: str  # "revision" | "outlier"
    initial_value: float | None = None
    final_value: float | None = None


@dataclass(frozen=True)
class PeakRecord:
    location: str
    peak_week: dt.date
    window_radius: int = PEAK_RADIUS


def detect_revisions(initial: Mapping[dt.date, float], final: Mapping[dt.date, float],
                     location: str = "", abs_threshold: float = REVISION_ABS_THRESHOLD,
                     rel_threshold: float = REVISION_REL_THRESHOLD) -> list[AnomalyRecord]:
    """Flag weeks whose value was substantially revised.

    A week is flagged when |final - initial| reaches the absolute threshold
    and is at least the relative threshold of |initial| or of |final|.
    Absolute values in the percentage clause handle negative initial reports.
    """
    out = []
    for t in sorted(set(initial) & set(final)):
        a, b = initial[t], final[t]
        diff = abs(b - a)
        if diff < abs_threshold:
            continue
        if diff >= rel_threshold * abs(a) or diff >= rel_threshold * abs(b):
            out.append(AnomalyRecord(location, t, "revision", a, b))
    return out


def revision_exclusion_set(anomalies: Sequence[AnomalyRecord],
                           forecast_keys: Iterable[ForecastKey],
                           truth: TruthStore) -> set[ForecastKey]:
    """Forecast keys affected by reporting anomalies.

    Excluded: forecasts targeting an outlier week, and forecasts issued on a
    revised week or within the following three weeks while the as-of snapshot
    at the forecast date still showed the pre-revision value.
    """
    outliers = {(a.location, a.target_end_date) for a in anomalies
                if a.kind == "outlier"}
    revisions = [a for a in anomalies if a.kind == "revision"]
    excluded: set[ForecastKey] = set()
    for key in forecast_keys:
        if (key.location, key.target_end_date) in outliers:
            excluded.add(key)
            continue
        for a in revisions:
            if a.location != key.location:
                continue
            offset = (key.forecast_date - a.target_end_date).days
            if not 0 <= offset <= 7 * REVISION_EXCLUSION_WEEKS:
                continue
            snap = truth.snapshot(key.forecast_date)
            seen = snap.get((a.location, a.target_end_date))
            if seen is None or (a.final_value is not None and seen != a.final_value):
                excluded.add(key)
                break
    return excluded


def detect_peaks(series: Mapping[dt.date, float] | Sequence[tuple[dt.date, float]],
                 location: str = "", radius: int = PEAK_RADIUS) -> list[PeakRecord]:
    """Weeks that are the strict maximum of a centered (2*radius + 1)-week window.

    Boundary weeks without a full window are ineligible; plateaus yield no
    peaks because the comparison is strict.
    """
    items = sorted(dict(series).items())
    values = [v for _, v in items]
    out = []
    for i in range(radius, len(items) - radius):
        window = values[i - radius:i + radius + 1]
        center = values[i]
        if all(center > v for j, v in enumerate(window) if j != radius):
            out.append(PeakRecord(location, items[i][0], radius))
    return out


def lag1_autocorrelation(series: Sequence[float]) -> float | None:
    """Pearson correlation of consecutive weights; None when degenerate."""
    x = np.asarray(series, dtype=float)
    if x.size < 3:
        raise DataError("autocorrelation needs a series of length >= 3")
    a, b = x[:-1], x[1:]
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def components_to_cumulative_weight(weights: Mapping[str, float] | Sequence[float],
                                    threshold: float) -> int:
    """Smallest count of top-weighted components reaching the cumulative threshold."""
    if not 0.0 < threshold <= 1.0:
        raise DataError("threshold must be in (0, 1]")
    values = (list(weights.values()) if isinstance(weights, Mapping)
              else list(weights))
    ordered = sorted(values, reverse=True)
    total = 0.0
    for i, v in enumerate(ordered, start=1):
        total += v
        if total >= threshold - 1e-12:
            return i
    return len(ordered)


def load_anomalies(path: str | Path) -> list[AnomalyRecord]:
    """Anomaly CSV: location,target_end_date,kind,initial_value,final_value."""
    out = []
    with _csv_reader(path, ANOMALY_CSV_HEADER, "anomaly") as reader:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                loc, tdate, kind, initial, final = row
                record = AnomalyRecord(loc, dt.date.fromisoformat(tdate), kind,
                                       float(initial) if initial else None,
                                       float(final) if final else None)
            except ValueError as e:
                raise ParseError(f"bad row in {path}: {e}", lineno) from None
            if kind not in ("revision", "outlier"):
                raise ParseError(f"unknown anomaly kind {kind!r} in {path}", lineno)
            out.append(record)
    return out


def save_anomalies(anomalies: Sequence[AnomalyRecord], path: str | Path) -> None:
    rows = ([a.location, a.target_end_date.isoformat(), a.kind,
             "" if a.initial_value is None else repr(a.initial_value),
             "" if a.final_value is None else repr(a.final_value)]
            for a in sorted(anomalies,
                            key=lambda a: (a.location, a.target_end_date, a.kind)))
    _write_csv(path, ANOMALY_CSV_HEADER, rows)


def save_peaks(peaks: Sequence[PeakRecord], path: str | Path) -> None:
    """Peak CSV: location,peak_week."""
    rows = ([p.location, p.peak_week.isoformat()]
            for p in sorted(peaks, key=lambda p: (p.location, p.peak_week)))
    _write_csv(path, ["location", "peak_week"], rows)
