"""Quantile-format probabilistic forecast combination and evaluation."""

from .analysis import (AnomalyRecord, PeakRecord, components_to_cumulative_weight,
                       detect_peaks, detect_revisions, lag1_autocorrelation,
                       revision_exclusion_set)
from .baseline import baseline_forecast
from .combine import WeightVector, combine, combine_values
from .density import DensityApprox, density_from_quantiles, neg_log_score
from .errors import (ConfigError, DataError, DuplicateCellError, ParseError,
                     QensError, ValidationError)
from .forecast import (ForecastKey, QuantileForecast, QuantileLevelSet,
                       SubmissionSet, TruthStore, eligible_components,
                       load_forecasts, load_truth_dir, save_forecasts,
                       save_truth_dir)
from .reporting import RunConfig, run
from .scoring import (RelWisTable, ScoreRecord, coverage_rates, relative_wis,
                      score_table, wis, wis_terms)
from .simulate import (ComponentProfile, SimSpec, Wave, persistent_skill_spec,
                       regime_switching_spec, simulate)
from .training import (EnsembleSpec, build_training_window, convex_weights,
                       default_theta_grid, fit_theta, select_top_k,
                       sigmoid_weights, train_and_forecast, window_objective)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
