"""Command-line interface for the quantile-ensemble toolkit."""

from __future__ import annotations

import datetime as dt
import json
import sys
from pathlib import Path

import click

from .analysis import (detect_peaks, detect_revisions, save_anomalies,
                       save_peaks)
from .errors import ConfigError, DataError, QensError
from .forecast import (QuantileLevelSet, load_truth_dir, save_forecasts,
                       save_truth_dir)
from .reporting import (RunConfig, common_levels, load_forecast_dir, load_inputs,
                        run, save_coverage, save_weight_log, score_submissions)
from .scoring import relative_wis, save_rel_wis, save_scores, score_table
from .simulate import SimSpec, simulate
from .training import EnsembleSpec, train_and_forecast


def _levels_option(f):
    return click.option("--levels", type=click.Choice(["7", "23"]), default="7",
                        show_default=True,
                        help="Quantile level preset for generated forecasts.")(f)


def _read_json(path: Path):
    """A JSON config file's contents; a missing or malformed file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except ValueError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"invalid date {text!r}; expected YYYY-MM-DD") from None


@click.group()
def cli():
    """Quantile-format forecast combination, scoring, and diagnostics."""


@cli.command("simulate")
@click.option("--config", type=click.Path(path_type=Path), default=None,
              help="JSON simulation spec; omitted means built-in defaults.")
@click.option("--seed", type=int, default=None, help="Override the spec seed.")
@click.option("--out", type=click.Path(path_type=Path), required=True,
              help="Output directory for forecasts, truth, and anomalies.")
@_levels_option
def simulate_cmd(config, seed, out, levels):
    """Generate a synthetic multi-model forecasting dataset."""
    if config is not None:
        spec = SimSpec.from_dict(_read_json(config))
    else:
        from .simulate import ComponentProfile
        spec = SimSpec(
            seed=0, levels=QuantileLevelSet.preset(int(levels)),
            components=[
                ComponentProfile(name="sharp", dispersion=0.8),
                ComponentProfile(name="wide", dispersion=1.6),
                ComponentProfile(name="low_bias", bias=0.8, center_noise=0.1),
                ComponentProfile(name="high_bias", bias=1.25, center_noise=0.1),
                ComponentProfile(name="noisy", center_noise=0.3,
                                 outlier_prob=0.02, missing_prob=0.05),
            ],
        )
    if seed is not None:
        spec = SimSpec.from_dict({**spec.to_dict(), "seed": seed})
    subs, truth, anomalies = simulate(spec)
    save_forecasts(subs, out / "forecasts.csv")
    save_truth_dir(truth, out / "truth")
    save_anomalies(anomalies, out / "anomalies.csv")
    click.echo(f"wrote {len(subs)} forecasts for {len(subs.models())} models to {out}")


@cli.command()
@click.option("--forecasts", type=click.Path(path_type=Path), required=True,
              help="Component forecast CSV (or directory of CSVs).")
@click.option("--truth", "truth_dir", type=click.Path(path_type=Path),
              required=True, help="Directory of as-of truth snapshot CSVs.")
@click.option("--config", type=click.Path(path_type=Path), required=True,
              help="JSON ensemble spec (name, combiner, weighting, ...).")
@click.option("--out", type=click.Path(path_type=Path), required=True,
              help="Output CSV of ensemble forecasts.")
@click.option("--weights-out", type=click.Path(path_type=Path), default=None,
              help="Optional CSV for the per-date weight log.")
@click.option("--baseline", default="baseline", show_default=True,
              help="Model id used as the relative-score reference.")
def ensemble(forecasts, truth_dir, config, out, weights_out, baseline):
    """Train (if configured) and emit one ensemble over all forecast dates."""
    spec = EnsembleSpec.from_dict(_read_json(config))
    subs, truth = load_inputs(forecasts, truth_dir, baseline)
    ens, wlog = train_and_forecast(subs, truth, spec, subs.forecast_dates(),
                                   common_levels(subs), baseline_model=baseline)
    save_forecasts(ens, out)
    if weights_out is not None:
        save_weight_log(wlog, Path(weights_out))
    click.echo(f"wrote {len(ens)} ensemble forecasts to {out}")


@cli.command()
@click.option("--forecasts", type=click.Path(path_type=Path), required=True)
@click.option("--truth", "truth_dir", type=click.Path(path_type=Path),
              required=True)
@click.option("--out", type=click.Path(path_type=Path), required=True,
              help="Output CSV of per-forecast interval scores.")
def score(forecasts, truth_dir, out):
    """Score every forecast against final truth."""
    subs = load_forecast_dir(forecasts)
    truth = load_truth_dir(truth_dir)
    records = score_submissions(subs, truth)
    if not records:
        raise DataError("no forecast overlaps observed final truth")
    save_scores(records, out)
    click.echo(f"wrote {len(records)} scores to {out}")


@cli.command()
@click.option("--forecasts", type=click.Path(path_type=Path), required=True)
@click.option("--truth", "truth_dir", type=click.Path(path_type=Path),
              required=True)
@click.option("--baseline", default="baseline", show_default=True)
@click.option("--aggregation", type=click.Choice(["geometric", "arithmetic"]),
              default="geometric", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), required=True)
def relwis(forecasts, truth_dir, baseline, aggregation, out):
    """Pairwise relative skill of every model against a baseline."""
    subs, truth = load_inputs(forecasts, truth_dir, baseline)
    records = score_submissions(subs, truth)
    if not records:
        raise DataError("no forecast overlaps observed final truth")
    table = relative_wis(score_table(records), baseline, aggregation)
    save_rel_wis(table, out)
    click.echo(f"wrote relative skill for {len(table.rel_wis)} models to {out}")


@cli.command()
@click.option("--forecasts", type=click.Path(path_type=Path), required=True)
@click.option("--truth", "truth_dir", type=click.Path(path_type=Path),
              required=True)
@click.option("--out", type=click.Path(path_type=Path), required=True)
def coverage(forecasts, truth_dir, out):
    """Empirical one-sided quantile coverage per model and level."""
    subs = load_forecast_dir(forecasts)
    truth = load_truth_dir(truth_dir)
    save_coverage(subs, truth, Path(out))
    click.echo(f"wrote coverage table to {out}")


@cli.command()
@click.option("--truth", "truth_dir", type=click.Path(path_type=Path),
              required=True)
@click.option("--as-of", default=None,
              help="Snapshot date to scan (default: final snapshot).")
@click.option("--out", type=click.Path(path_type=Path), required=True)
def peaks(truth_dir, as_of, out):
    """Detect local epidemic peaks in the truth series."""
    truth = load_truth_dir(truth_dir)
    snap = truth.by_location(_parse_date(as_of) if as_of else truth.snapshot_dates[-1])
    found = [p for loc, series in sorted(snap.items())
             for p in detect_peaks(series, location=loc)]
    save_peaks(found, out)
    click.echo(f"wrote {len(found)} peaks to {out}")


@cli.command()
@click.option("--truth", "truth_dir", type=click.Path(path_type=Path),
              required=True)
@click.option("--initial", "initial_as_of", default=None,
              help="As-of date of the initial snapshot (default: earliest).")
@click.option("--out", type=click.Path(path_type=Path), required=True)
def anomalies(truth_dir, initial_as_of, out):
    """Flag substantially revised observations between two truth snapshots."""
    truth = load_truth_dir(truth_dir)
    final = truth.by_location(truth.snapshot_dates[-1])
    initial: dict[str, dict[dt.date, float]] = {}
    # the initial snapshot, or the first value ever reported: earlier snapshots overwrite
    for d in ([_parse_date(initial_as_of)] if initial_as_of else truth.snapshot_dates[::-1]):
        for loc, series in truth.by_location(d).items():
            initial.setdefault(loc, {}).update(series)
    found = [r for loc, series in sorted(final.items())
             for r in detect_revisions(initial.get(loc, {}), dict(series), location=loc)]
    save_anomalies(found, out)
    click.echo(f"wrote {len(found)} anomalies to {out}")


@cli.command()
@click.option("--config", type=click.Path(path_type=Path), required=True,
              help="JSON run config (paths, specs, phases, baseline).")
def backtest(config):
    """Run every configured ensemble across all dates and score the results."""
    out = run(RunConfig.from_dict(_read_json(config), base=config.parent))
    click.echo(f"report bundle written to {out}")


cli.add_command(backtest, name="report")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        return 2
    except DataError as e:
        click.echo(f"data error: {e}", err=True)
        return 3
    except QensError as e:
        click.echo(f"error: {e}", err=True)
        return 3
    except click.UsageError as e:
        click.echo(f"config error: {e.format_message()}", err=True)
        return 2
    except click.ClickException as e:
        e.show()
        return 2
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.exceptions.Abort:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
