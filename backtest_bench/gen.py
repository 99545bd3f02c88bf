"""Input generator for the backtest benchmark (numpy and the standard library only).

Each workload has a fixed structure: locations, weeks, components, which
submissions are missing or partial, which weeks are revised and which hold a
negative correction, and each component's bias, spread and noise level. The
seed moves values only: truth counts and forecast noise. `generate` returns the data in memory, for the
output checks, and `write` lays it out as files for `qens backtest`.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

WEEK = dt.timedelta(days=7)
HORIZONS = (1, 2, 3, 4)
FIRST_WEEK = dt.date(2020, 6, 6)  # a Saturday
REVISION_LAG_WEEKS = 2  # a revised week shows its final value this much later

SEVEN = (0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975)
TWENTY_THREE = ((0.01, 0.025) + tuple(round(0.05 * i, 10) for i in range(1, 19))
                + (0.95, 0.975, 0.99))


@dataclass(frozen=True)
class Shape:
    """The seed-independent structure of one workload."""

    name: str
    scale: str  # "deaths" or "cases"
    levels: tuple[float, ...]
    n_locations: int
    lead_weeks: int  # truth weeks before the first forecast date
    n_dates: int
    baseline_submitted: bool
    specs: tuple[dict, ...]
    reference_spec: str
    apply_exclusions: bool
    # per component: first forecast date index, bias, spread, own noise
    components: tuple[tuple[int, float, float, float], ...]
    common_noise: float  # noise all components share, on the log scale
    skip_every: int  # component i skips date d when (3 i + 2 d) % skip_every == 0
    partial_every: int  # ... and only h1-h2 at location l when (5 i + d + l) % partial_every == 1
    revisions: tuple[tuple[int, int], ...]  # (location index, week index)
    negatives: tuple[tuple[int, int], ...]


SHAPES = {
    "deaths-trained": Shape(
        name="deaths-trained", scale="deaths", levels=TWENTY_THREE,
        n_locations=4, lead_weeks=8, n_dates=5, baseline_submitted=True,
        specs=(
            {"name": "equal_median", "combiner": "median", "weighting": "equal"},
            {"name": "relwis_median", "combiner": "median",
             "weighting": "rel_wis_sigmoid", "window_weeks": 4,
             "max_weight": 0.6},
        ),
        reference_spec="equal_median", apply_exclusions=False,
        # Three near-identical core teams and three late, clearly worse ones:
        # the max_weight cap then admits the whole theta grid on every seed.
        components=((0, 1.0, 1.0, 0.002), (0, 1.004, 1.005, 0.002),
                    (0, 0.996, 0.995, 0.002), (1, 2.0, 3.0, 0.15),
                    (2, 0.4, 3.0, 0.15), (3, 1.9, 2.5, 0.15)),
        common_noise=0.05, skip_every=3, partial_every=4,
        revisions=((1, 9), (3, 10)), negatives=((0, 8), (2, 11)),
    ),
    "cases-convex": Shape(
        name="cases-convex", scale="cases", levels=SEVEN,
        n_locations=10, lead_weeks=14, n_dates=10, baseline_submitted=False,
        specs=(
            {"name": "equal_mean", "combiner": "mean", "weighting": "equal"},
            {"name": "convex_mean", "combiner": "mean",
             "weighting": "convex_direct", "sharing": "per_horizon",
             "top_k": 3, "window_weeks": 6},
        ),
        reference_spec="equal_mean", apply_exclusions=False,
        components=((0, 1.0, 1.0, 0.05), (0, 1.1, 0.8, 0.1), (0, 0.9, 1.3, 0.1),
                    (1, 1.2, 1.0, 0.15), (3, 0.95, 1.6, 0.05), (4, 1.05, 0.7, 0.2)),
        common_noise=0.05, skip_every=8, partial_every=10,
        revisions=((0, 18), (2, 20)), negatives=((1, 17), (3, 21)),
    ),
    "hub-untrained": Shape(
        name="hub-untrained", scale="deaths", levels=TWENTY_THREE,
        n_locations=12, lead_weeks=8, n_dates=10, baseline_submitted=True,
        specs=(
            {"name": "equal_median", "combiner": "median", "weighting": "equal"},
            {"name": "equal_mean", "combiner": "mean", "weighting": "equal"},
        ),
        reference_spec="equal_median", apply_exclusions=True,
        components=tuple((entry, 0.8 + 0.03 * i, 0.7 + 0.07 * (i % 5), 0.05 + 0.02 * (i % 4))
                         for i, entry in enumerate((0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3,
                                                    4, 5, 6, 7, 8))),
        common_noise=0.1, skip_every=6, partial_every=7,
        revisions=((0, 10), (3, 12), (5, 9), (7, 14), (9, 11), (11, 15)),
        negatives=((2, 10), (8, 13)),
    ),
}


@dataclass
class Inputs:
    """One workload's generated data, indexed as the output checks need it."""

    shape: Shape
    seed: int
    locations: list[str]
    weeks: list[dt.date]
    dates: list[dt.date]  # forecast dates
    final: dict[tuple[str, dt.date], float]
    initial: dict[tuple[str, dt.date], float]  # pre-revision values
    snapshot_dates: list[dt.date]
    # (model, location, forecast date) -> {horizon: quantile values}
    forecasts: dict[tuple[str, str, dt.date], dict[int, tuple[float, ...]]] = field(
        default_factory=dict)

    def seen(self, as_of: dt.date, loc: str, week: dt.date) -> float | None:
        """The value of one week as the snapshot dated `as_of` reports it."""
        if week > as_of or (loc, week) not in self.final:
            return None
        if (loc, week) in self.initial and as_of < week + REVISION_LAG_WEEKS * WEEK:
            return self.initial[(loc, week)]
        return self.final[(loc, week)]


def component_names(shape: Shape) -> list[str]:
    return [f"team{i:02d}" for i in range(len(shape.components))]


def submission_plan(shape: Shape) -> dict[tuple[str, str, int], tuple[int, ...]]:
    """(model, location, date index) -> submitted horizons; fixed per workload."""
    plan = {}
    for i, m in enumerate(component_names(shape)):
        for d in range(shape.n_dates):
            entry = shape.components[i][0]
            if d < entry:
                continue
            core = entry == 0 and i < 3
            if not core and d > entry and (3 * i + 2 * d) % shape.skip_every == 0:
                continue
            for li in range(shape.n_locations):
                horizons = HORIZONS
                if not core and (5 * i + d + li) % shape.partial_every == 1:
                    horizons = (1, 2)
                plan[(m, f"L{li:02d}", d)] = horizons
    return plan


def generate(name: str, seed: int) -> Inputs:
    shape = SHAPES[name]
    # The epidemic curve of each location is part of the structure; the seed
    # draws the count noise around it and the forecast noise.
    curve_rng = np.random.default_rng(sum(map(ord, name)))
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    locations = [f"L{i:02d}" for i in range(shape.n_locations)]
    n_weeks = shape.lead_weeks + shape.n_dates + len(HORIZONS)
    weeks = [FIRST_WEEK + w * WEEK for w in range(n_weeks)]
    dates = weeks[shape.lead_weeks - 1:shape.lead_weeks - 1 + shape.n_dates]

    t = np.arange(n_weeks)
    means = {}
    final, initial = {}, {}
    for loc in locations:
        low, high = (40.0, 120.0) if shape.scale == "deaths" else (2000.0, 8000.0)
        base = curve_rng.uniform(low, high)
        amp = curve_rng.uniform(0.3, 0.7)
        period = curve_rng.uniform(14.0, 22.0)
        phase = curve_rng.uniform(0.0, period)
        mu = base * np.exp(amp * np.sin(2.0 * math.pi * (t + phase) / period))
        if shape.scale == "cases":
            counts = np.round(mu * rng.lognormal(0.0, 0.08, n_weeks))
        else:
            counts = rng.poisson(mu).astype(float)
        means[loc] = mu
        for w, week in enumerate(weeks):
            final[(loc, week)] = float(counts[w])
    for li, w in shape.negatives:
        low, high = (1, 15) if shape.scale == "deaths" else (50, 400)
        final[(locations[li], weeks[w])] = -float(rng.integers(low, high))
    for li, w in shape.revisions:
        key = (locations[li], weeks[w])
        final[key] = max(final[key], 40.0)
        initial[key] = float(math.floor(final[key] * rng.uniform(0.2, 0.45)))
    snapshot_dates = weeks[shape.lead_weeks - 1:]

    inputs = Inputs(shape, seed, locations, weeks, dates, final, initial,
                    snapshot_dates)
    z = np.array([NormalDist().inv_cdf(tau) for tau in shape.levels])
    common = rng.standard_normal((len(locations), n_weeks))
    plan = submission_plan(shape)
    for i, m in enumerate(component_names(shape)):
        _, bias, spread, noise = shape.components[i]
        for (mm, loc, d), horizons in sorted(plan.items()):
            if mm != m:
                continue
            s = dates[d]
            by_h = {}
            for h in horizons:
                w = shape.lead_weeks - 1 + d + h
                shared = shape.common_noise * common[locations.index(loc), w]
                center = means[loc][w] * bias * math.exp(
                    shared + noise * rng.standard_normal())
                if shape.scale == "deaths":
                    sd = spread * (2.0 + math.sqrt(center)) * (1.0 + 0.2 * h)
                else:
                    sd = spread * 0.08 * center * (1.0 + 0.2 * h)
                by_h[h] = _quantiles(center + sd * z)
            inputs.forecasts[(m, loc, s)] = by_h
    if shape.baseline_submitted:
        for loc in locations:
            for s in dates:
                history = [inputs.seen(s, loc, wk) for wk in weeks if wk <= s]
                last = history[-1]
                sd = 6.0 * float(np.std(np.diff(history))) + 1.0
                inputs.forecasts[("baseline", loc, s)] = {
                    h: _quantiles(last + sd * math.sqrt(h) * z) for h in HORIZONS}
    return inputs


def _quantiles(raw: np.ndarray) -> tuple[float, ...]:
    q = np.maximum.accumulate(np.round(np.maximum(raw, 0.0), 2))
    return tuple(float(v) for v in q)


def write(inputs: Inputs, root: Path) -> Path:
    """Lay the inputs out under `root`; returns the run config path."""
    shape = inputs.shape
    fdir = root / "forecasts"
    tdir = root / "truth"
    fdir.mkdir(parents=True)
    tdir.mkdir()
    by_model: dict[str, list] = {}
    for (m, loc, s), by_h in sorted(inputs.forecasts.items()):
        rows = by_model.setdefault(m, [])
        for h, values in sorted(by_h.items()):
            t = (s + h * WEEK).isoformat()
            for tau, v in zip(shape.levels, values):
                rows.append([m, s.isoformat(), loc, t, "quantile", f"{tau:g}", repr(v)])
    for m, rows in by_model.items():
        with open(fdir / f"{m}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "forecast_date", "location", "target_end_date",
                             "type", "quantile", "value"])
            writer.writerows(rows)
    for d in inputs.snapshot_dates:
        with open(tdir / f"{d.isoformat()}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["location", "target_end_date", "value"])
            for loc in inputs.locations:
                for wk in inputs.weeks:
                    if wk <= d:
                        writer.writerow([loc, wk.isoformat(), repr(inputs.seen(d, loc, wk))])
    with open(root / "anomalies.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "target_end_date", "kind", "initial_value",
                         "final_value"])
        for (loc, wk), v0 in sorted(inputs.initial.items()):
            writer.writerow([loc, wk.isoformat(), "revision", repr(v0),
                             repr(inputs.final[(loc, wk)])])
    config = {
        "forecast_dir": "forecasts",
        "truth_dir": "truth",
        "output_dir": "out",
        "specs": list(shape.specs),
        "levels": len(shape.levels),
        "baseline_model": "baseline",
        "reference_spec": shape.reference_spec,
        "prospective_start": prospective_start(inputs).isoformat(),
        "anomalies_file": "anomalies.csv",
        "apply_exclusions": shape.apply_exclusions,
        "baseline_seed": 0,
    }
    path = root / "run.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def prospective_start(inputs: Inputs) -> dt.date:
    return inputs.dates[len(inputs.dates) // 2]
