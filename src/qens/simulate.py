"""Synthetic component-forecast generator for desk-scale experiments.

Truth per location is a sum of logistic epidemic waves with lognormal
observation noise, so the marginal predictive quantiles of the generating law
are known in closed form and a calibrated "oracle" component can be emitted.
Component profiles perturb those quantiles with biases, dispersion scaling,
occasional outliers, regime-switching skill, and missing submissions; truth
snapshots optionally include injected reporting revisions.

Randomness comes from numpy's default generator (PCG64), seeded explicitly,
so runs are reproducible bit for bit for a fixed seed.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .analysis import AnomalyRecord
from .errors import ConfigError, DataError
from .forecast import (HORIZONS, WEEK, ForecastKey, QuantileForecast,
                       QuantileLevelSet, SubmissionSet, TruthStore)

DEFAULT_START = dt.date(2021, 1, 2)  # a Saturday


@dataclass(frozen=True)
class Wave:
    amplitude: float
    center: float  # week index
    width: float   # weeks


@dataclass(frozen=True)
class ComponentProfile:
    """How one synthetic component distorts the generating distribution."""

    name: str
    bias: float = 1.0            # multiplicative bias on the predictive center
    dispersion: float = 1.0      # multiplier on the generating sigma
    center_noise: float = 0.0    # sd of log-scale noise on the predictive center
    outlier_prob: float = 0.0
    outlier_magnitude: float = 10.0  # multiplicative shift of an outlying submission
    skill: str = "constant"      # "constant" | "regime_switching"
    regime_period: int = 6       # weeks per regime when switching
    off_bias: float = 1.0
    off_dispersion: float = 1.0
    off_center_noise: float = 0.0
    missing_prob: float = 0.0

    def __post_init__(self):
        for p in (self.outlier_prob, self.missing_prob):
            if not 0.0 <= p <= 1.0:
                raise ConfigError("probabilities must lie in [0, 1]")
        if self.skill not in ("constant", "regime_switching"):
            raise ConfigError(f"unknown skill schedule {self.skill!r}")
        if self.regime_period < 1:
            raise ConfigError("regime_period must be >= 1")

    def params_at(self, week_index: int) -> tuple[float, float, float]:
        """(bias, dispersion, center noise sd) effective in a given week."""
        if self.skill == "regime_switching" and (week_index // self.regime_period) % 2 == 1:
            return self.off_bias, self.off_dispersion, self.off_center_noise
        return self.bias, self.dispersion, self.center_noise


@dataclass
class SimSpec:
    """Scenario configuration for the synthetic data generator."""

    seed: int = 0
    n_locations: int = 4
    n_weeks: int = 30
    start: dt.date = DEFAULT_START
    base_level: float = 50.0
    wave_amplitude: tuple[float, float] = (200.0, 800.0)
    wave_width: tuple[float, float] = (3.0, 8.0)
    waves_per_location: int = 2
    sigma: float = 0.3           # lognormal observation noise (log scale)
    levels: QuantileLevelSet = field(default_factory=QuantileLevelSet.seven)
    components: tuple[ComponentProfile, ...] = ()
    include_oracle: bool = False
    revision_prob: float = 0.0
    revision_fraction: float = 0.5   # initial report as a share of the final value
    revision_lag: int = 2            # weeks until the snapshot shows the final value
    min_window_margin: int = 10

    def __post_init__(self):
        if self.n_weeks < self.min_window_margin:
            raise ConfigError("n_weeks too small for a meaningful run")
        if not 0.0 <= self.revision_prob <= 1.0:
            raise ConfigError("revision_prob must lie in [0, 1]")
        if not self.components and not self.include_oracle:
            raise ConfigError("scenario needs at least one component profile")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "n_locations": self.n_locations,
            "n_weeks": self.n_weeks, "start": self.start.isoformat(),
            "base_level": self.base_level,
            "wave_amplitude": list(self.wave_amplitude),
            "wave_width": list(self.wave_width),
            "waves_per_location": self.waves_per_location,
            "sigma": self.sigma, "levels": list(self.levels.levels),
            "components": [vars(c) for c in self.components],
            "include_oracle": self.include_oracle,
            "revision_prob": self.revision_prob,
            "revision_fraction": self.revision_fraction,
            "revision_lag": self.revision_lag,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimSpec":
        try:
            data = dict(data)
            if "start" in data:
                data["start"] = dt.date.fromisoformat(data["start"])
            if "levels" in data:
                lv = data["levels"]
                data["levels"] = (QuantileLevelSet.preset(lv) if isinstance(lv, int)
                                  else QuantileLevelSet(tuple(lv)))
            if "components" in data:
                data["components"] = tuple(ComponentProfile(**c) for c in data["components"])
            if "wave_amplitude" in data:
                data["wave_amplitude"] = tuple(data["wave_amplitude"])
            if "wave_width" in data:
                data["wave_width"] = tuple(data["wave_width"])
            return cls(**data)
        except (TypeError, ValueError, DataError) as e:
            raise ConfigError(f"bad simulation spec: {e}") from None


def _wave_intensity(week: np.ndarray, waves: Sequence[Wave]) -> np.ndarray:
    """Sum of logistic-pulse waves: each peaks at its amplitude at the center."""
    total = np.zeros_like(week, dtype=float)
    for w in waves:
        p = 1.0 / (1.0 + np.exp(-(week - w.center) / w.width))
        total += 4.0 * w.amplitude * p * (1.0 - p)
    return total


def simulate(spec: SimSpec) -> tuple[SubmissionSet, TruthStore, list[AnomalyRecord]]:
    """Generate component forecasts, vintage truth snapshots, and anomalies."""
    from scipy.stats import norm  # deferred: scipy.stats is slow to import

    rng = np.random.default_rng(spec.seed)
    weeks = np.arange(spec.n_weeks, dtype=float)
    dates = [spec.start + i * WEEK for i in range(spec.n_weeks)]
    locations = [f"loc{i:02d}" for i in range(spec.n_locations)]

    # Latent intensity and realized (final) truth per location and week.
    mu: dict[str, np.ndarray] = {}
    truth_final: dict[str, np.ndarray] = {}
    for loc in locations:
        waves = [Wave(amplitude=float(rng.uniform(*spec.wave_amplitude)),
                      center=float(rng.uniform(0.15, 0.85) * spec.n_weeks),
                      width=float(rng.uniform(*spec.wave_width)))
                 for _ in range(spec.waves_per_location)]
        m = spec.base_level + _wave_intensity(weeks, waves)
        z = rng.standard_normal(spec.n_weeks)
        mu[loc] = m
        truth_final[loc] = np.exp(np.log(m) + spec.sigma * z)

    # Injected revisions: the initial report is a fraction of the final value
    # until `revision_lag` weekly snapshots have passed.
    anomalies: list[AnomalyRecord] = []
    revised: dict[tuple[str, int], float] = {}
    for loc in locations:
        flags = rng.random(spec.n_weeks) < spec.revision_prob
        for i in np.flatnonzero(flags):
            initial = truth_final[loc][i] * spec.revision_fraction
            revised[(loc, int(i))] = initial
            anomalies.append(AnomalyRecord(loc, dates[int(i)], "revision",
                                           float(initial), float(truth_final[loc][i])))

    snapshots: dict[dt.date, dict[tuple[str, dt.date], float]] = {}
    for j, as_of in enumerate(dates):
        snap: dict[tuple[str, dt.date], float] = {}
        for loc in locations:
            for i in range(j + 1):
                value = truth_final[loc][i]
                if (loc, i) in revised and j - i < spec.revision_lag:
                    value = revised[(loc, i)]
                snap[(loc, dates[i])] = float(value)
        snapshots[as_of] = snap
    # Final snapshot with every revision applied, five weeks past the end.
    final_date = dates[-1] + 5 * WEEK
    snapshots[final_date] = {
        (loc, dates[i]): float(truth_final[loc][i])
        for loc in locations for i in range(spec.n_weeks)
    }
    truth = TruthStore(snapshots)

    profiles = list(spec.components)
    if spec.include_oracle:
        profiles.append(ComponentProfile(name="oracle"))

    subs = SubmissionSet()
    z_levels = norm.ppf(np.array(spec.levels.levels))
    max_s = spec.n_weeks - len(HORIZONS) - 1
    for profile in profiles:
        for loc in locations:
            for si in range(max_s + 1):
                if rng.random() < profile.missing_prob:
                    continue
                bias, disp, noise = profile.params_at(si)
                eps = rng.standard_normal() * noise if noise > 0 else 0.0
                outlier = 1.0
                if profile.outlier_prob > 0 and rng.random() < profile.outlier_prob:
                    outlier = profile.outlier_magnitude
                s = dates[si]
                for h in HORIZONS:
                    ti = si + h
                    center = math.log(mu[loc][ti]) + math.log(bias) + eps
                    q = np.exp(center + disp * spec.sigma * z_levels) * outlier
                    key = ForecastKey(profile.name, loc, s, dates[ti])
                    subs.add(QuantileForecast(key, spec.levels,
                                              tuple(float(v) for v in q)))
    return subs, truth, anomalies


def persistent_skill_spec(seed: int = 7, n_weeks: int = 34,
                          n_locations: int = 4) -> SimSpec:
    """One consistently sharp component among noisy, biased peers."""
    components = [
        ComponentProfile(name="sharp", dispersion=1.0, center_noise=0.05),
    ]
    for i in range(5):
        components.append(ComponentProfile(
            name=f"noisy{i}", bias=1.0 + 0.25 * ((-1) ** i),
            dispersion=1.8, center_noise=0.5, outlier_prob=0.02,
            outlier_magnitude=8.0))
    return SimSpec(seed=seed, n_locations=n_locations, n_weeks=n_weeks,
                   components=tuple(components))


def regime_switching_spec(seed: int = 11, n_weeks: int = 34,
                          n_locations: int = 4, period: int = 6) -> SimSpec:
    """Component skill flips between two groups every `period` weeks."""
    components = []
    for i in range(3):
        components.append(ComponentProfile(
            name=f"flipA{i}", skill="regime_switching", regime_period=period,
            bias=1.0, dispersion=1.0, center_noise=0.05,
            off_bias=2.2, off_dispersion=2.0, off_center_noise=0.6))
    for i in range(3):
        components.append(ComponentProfile(
            name=f"flipB{i}", skill="regime_switching", regime_period=period,
            bias=2.2, dispersion=2.0, center_noise=0.6,
            off_bias=1.0, off_dispersion=1.0, off_center_noise=0.05))
    return SimSpec(seed=seed, n_locations=n_locations, n_weeks=n_weeks,
                   components=tuple(components))
