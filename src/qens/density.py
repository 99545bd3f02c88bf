"""Reconstruction of a predictive density from a set of quantiles.

The interior of the distribution is a monotone piecewise-cubic CDF
interpolating the (quantile value, level) pairs; the tails come from a
location-scale family fit to the two outermost quantiles on each side, so the
lower tail carries mass tau_1 and the upper tail mass 1 - tau_K by
construction. The negative log score is evaluated on this reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, ValidationError
from .forecast import QuantileForecast

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

# Tail family name -> scipy.stats distribution, looked up when first used so
# that importing qens does not import scipy.stats (about a second).
TAIL_FAMILIES = {
    "normal": "norm",
    "cauchy": "cauchy",
}


def _tail_dist(family: str):
    import scipy.stats
    return getattr(scipy.stats, TAIL_FAMILIES[family])


@dataclass(frozen=True)
class TailFit:
    """Location-scale fit Y = a + b Z to one tail of the distribution."""

    a: float
    b: float
    side: str  # "lower" | "upper"
    family: str

    def __post_init__(self):
        if self.b <= 0:
            raise ValidationError("tail scale must be positive")

    def pdf(self, y: float) -> float:
        dist = _tail_dist(self.family)
        return float(dist.pdf((y - self.a) / self.b) / self.b)

    def cdf(self, y: float) -> float:
        dist = _tail_dist(self.family)
        return float(dist.cdf((y - self.a) / self.b))


@dataclass
class DensityApprox:
    """Spline-interior, location-scale-tail approximation of a predictive density."""

    levels: tuple[float, ...]
    values: tuple[float, ...]
    interior: PchipInterpolator
    lower: TailFit
    upper: TailFit
    family: str

    def cdf(self, y: float) -> float:
        if y < self.values[0]:
            return self.lower.cdf(y)
        if y > self.values[-1]:
            return self.upper.cdf(y)
        return float(self.interior(y))

    def pdf(self, y: float) -> float:
        # At exactly q_1 or q_K the spline side is used; this boundary choice
        # is measure-zero and does not affect integrals.
        if y < self.values[0]:
            return self.lower.pdf(y)
        if y > self.values[-1]:
            return self.upper.pdf(y)
        return max(float(self.interior.derivative()(y)), 0.0)

    def total_mass(self, tol: float = 1e-9) -> float:
        """Numerically integrated total probability (tails enter exactly)."""
        # Integrate knot to knot: the spline derivative is smooth inside each
        # segment but kinked at the knots, which defeats a single quad call.
        from scipy.integrate import quad
        interior = 0.0
        for lo, hi in zip(self.values, self.values[1:]):
            piece, _ = quad(self.pdf, lo, hi, limit=100, epsabs=tol)
            interior += piece
        return self.levels[0] + interior + (1.0 - self.levels[-1])


def fit_tail(levels: tuple[float, float], values: tuple[float, float],
             side: str, family: str) -> TailFit:
    """Fit location a and scale b of the tail family through two quantiles."""
    dist = _tail_dist(family)
    zi, zj = dist.ppf(levels[0]), dist.ppf(levels[1])
    b = (values[0] - values[1]) / (zi - zj)
    a = values[0] - b * zi
    return TailFit(a=float(a), b=float(b), side=side, family=family)


def density_from_quantiles(q: QuantileForecast, tail_family: str = "normal") -> DensityApprox:
    """Interpolating CDF plus tail fits for one quantile forecast.

    Requires strictly increasing quantile values (a degenerate forecast has no
    usable density) and at least two levels.
    """
    if tail_family not in TAIL_FAMILIES:
        raise DataError(f"unknown tail family {tail_family!r}; "
                        f"choose from {sorted(TAIL_FAMILIES)}")
    taus = q.levels.levels
    vals = q.values
    if len(vals) < 2:
        raise DataError("density reconstruction needs at least two quantiles")
    if any(lo >= hi for lo, hi in zip(vals, vals[1:])):
        raise DataError(f"{q.key}: duplicate quantile values; density is degenerate")

    from scipy.interpolate import PchipInterpolator
    interior = PchipInterpolator(np.asarray(vals), np.asarray(taus))
    lower = fit_tail((taus[0], taus[1]), (vals[0], vals[1]), "lower", tail_family)
    upper = fit_tail((taus[-2], taus[-1]), (vals[-2], vals[-1]), "upper", tail_family)
    return DensityApprox(levels=taus, values=vals, interior=interior,
                         lower=lower, upper=upper, family=tail_family)


def neg_log_score(d: DensityApprox, y: float) -> float:
    """Negative log predictive density at y; +inf where the density is zero."""
    if math.isnan(y):
        raise DataError("observed value is NaN")
    f = d.pdf(y)
    if f <= 0.0:
        return math.inf
    return -math.log(f)
