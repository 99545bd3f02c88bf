"""Command-line workflows and exit-code conventions."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qens
from qens.cli import main

SRC = Path(qens.__file__).resolve().parents[1]


def run_cli(*args) -> int:
    return main(list(args))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--out", str(out / "data"), "--seed", "5")
    assert code == 0
    return out / "data"


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert (sim_dir / "forecasts.csv").exists()
        assert (sim_dir / "anomalies.csv").exists()
        assert (sim_dir / "truth").is_dir()

    def test_deterministic_across_runs(self, sim_dir, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path / "again"),
                       "--seed", "5") == 0
        a = (sim_dir / "forecasts.csv").read_bytes()
        b = (tmp_path / "again" / "forecasts.csv").read_bytes()
        assert a == b


class TestScoreAndRelwis:
    def test_score(self, sim_dir, tmp_path):
        out = tmp_path / "scores.csv"
        code = run_cli("score", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(sim_dir / "truth"), "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["wis"]) >= 0 for r in rows)

    def test_relwis(self, sim_dir, tmp_path):
        out = tmp_path / "rwis.csv"
        code = run_cli("relwis", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(sim_dir / "truth"),
                       "--baseline", "sharp", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = {r["model"]: r for r in csv.DictReader(fh)}
        assert rows["sharp"]["rel_wis"] == "1.0"

    def test_coverage(self, sim_dir, tmp_path):
        out = tmp_path / "coverage.csv"
        code = run_cli("coverage", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(sim_dir / "truth"), "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(0.0 <= float(r["coverage"]) <= 1.0 for r in rows)


class TestEnsemble:
    def test_equal_median(self, sim_dir, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"name": "ens"}))
        out = tmp_path / "ens.csv"
        code = run_cli("ensemble", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(sim_dir / "truth"),
                       "--config", str(config), "--out", str(out),
                       "--weights-out", str(tmp_path / "w.csv"))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["model"] == "ens" for r in rows)
        assert (tmp_path / "w.csv").exists()


class TestDiagnostics:
    def test_peaks(self, sim_dir, tmp_path):
        out = tmp_path / "peaks.csv"
        assert run_cli("peaks", "--truth", str(sim_dir / "truth"),
                       "--out", str(out)) == 0
        assert out.exists()

    def test_anomalies(self, sim_dir, tmp_path):
        out = tmp_path / "anom.csv"
        assert run_cli("anomalies", "--truth", str(sim_dir / "truth"),
                       "--out", str(out)) == 0
        assert out.exists()


class TestBacktest:
    def test_report_bundle(self, sim_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "forecast_dir": str(sim_dir / "forecasts.csv"),
            "truth_dir": str(sim_dir / "truth"),
            "output_dir": str(tmp_path / "report"),
            "specs": [{"name": "ens_eq"},
                      {"name": "ens_k2", "top_k": 2, "window_weeks": 6}],
        }))
        assert run_cli("backtest", "--config", str(config)) == 0
        report = tmp_path / "report"
        for name in ("scores.csv", "rwis.csv", "coverage.csv", "weights.csv",
                     "wis_diff.csv", "peaks.csv", "peak_errors.csv",
                     "ensemble_forecasts.csv"):
            assert (report / name).exists(), name
        # the reference spec's difference against itself is identically zero
        with open(report / "wis_diff.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["spec_id"] == "ens_eq"]
        assert rows and all(float(r["mean_wis_diff"]) == 0.0 for r in rows)

    def test_per_quantile_and_convex_specs(self, tmp_path):
        # a small scenario: per-quantile sharing runs one theta search per level
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({
            "seed": 3, "n_locations": 2, "n_weeks": 12,
            "components": [{"name": "sharp", "dispersion": 0.8},
                           {"name": "wide", "dispersion": 1.6},
                           {"name": "low_bias", "bias": 0.8},
                           {"name": "high_bias", "bias": 1.25}],
        }))
        data = tmp_path / "data"
        assert run_cli("simulate", "--config", str(sim), "--out", str(data)) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "forecast_dir": str(data / "forecasts.csv"),
            "truth_dir": str(data / "truth"),
            "output_dir": str(tmp_path / "report"),
            "specs": [{"name": "ens_eq"},
                      {"name": "ens_pq", "weighting": "rel_wis_sigmoid",
                       "sharing": "per_quantile", "top_k": 3, "window_weeks": 3},
                      {"name": "ens_cvx", "combiner": "mean",
                       "weighting": "convex_direct", "window_weeks": 3}],
        }))
        assert run_cli("backtest", "--config", str(config)) == 0
        report = tmp_path / "report"
        with open(report / "ensemble_forecasts.csv") as fh:
            emitted = {r["model"] for r in csv.DictReader(fh)}
        assert emitted == {"ens_eq", "ens_pq", "ens_cvx"}
        with open(report / "weights.csv") as fh:
            rows = list(csv.DictReader(fh))
        strata = {r["stratum"] for r in rows if r["spec_id"] == "ens_pq"}
        assert strata == {f"q{tau:g}" for tau in (0.025, 0.1, 0.25, 0.5, 0.75,
                                                   0.9, 0.975)}
        assert any(r["spec_id"] == "ens_cvx" for r in rows)

    def test_bundle_independent_of_hash_seed(self, sim_dir, tmp_path):
        # string hashing orders sets differently under each seed; the bundle
        # must not depend on it
        for seed in ("1", "2"):
            config = tmp_path / f"run{seed}.json"
            config.write_text(json.dumps({
                "forecast_dir": str(sim_dir / "forecasts.csv"),
                "truth_dir": str(sim_dir / "truth"),
                "output_dir": str(tmp_path / f"report{seed}"),
                "specs": [{"name": "ens_eq"}],
            }))
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
            subprocess.run([sys.executable, "-m", "qens.cli", "backtest",
                            "--config", str(config)], env=env, check=True,
                           capture_output=True)
        names = sorted(p.name for p in (tmp_path / "report1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "report2").iterdir())
        for name in names:
            assert ((tmp_path / "report1" / name).read_bytes()
                    == (tmp_path / "report2" / name).read_bytes()), name


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert run_cli("backtest", "--config",
                       str(tmp_path / "nope.json")) == 2

    def test_bad_spec_is_config_error(self, sim_dir, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"name": "x", "combiner": "mode"}))
        assert run_cli("ensemble", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(sim_dir / "truth"),
                       "--config", str(config),
                       "--out", str(tmp_path / "o.csv")) == 2

    def test_missing_data_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("score", "--forecasts", str(empty),
                       "--truth", str(empty), "--out",
                       str(tmp_path / "s.csv")) == 3

    def test_unknown_flag_is_config_error(self):
        assert run_cli("simulate", "--bogus") == 2

    def test_bad_truth_row_is_data_error(self, tmp_path):
        truth = tmp_path / "truth"
        truth.mkdir()
        (truth / "2021-01-09.csv").write_text(
            "location,target_end_date,value\nx,2021-01-02\n")
        assert run_cli("peaks", "--truth", str(truth),
                       "--out", str(tmp_path / "peaks.csv")) == 3


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats alone takes about a second to import; no command that
    # avoids density and simulation should pay for it
    code = "import sys, qens.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.strip() == "False"


class TestBadInputExitCodes:
    def test_non_finite_forecast_is_data_error(self, sim_dir, tmp_path):
        lines = (sim_dir / "forecasts.csv").read_text().splitlines()
        fields = lines[1].split(",")
        lines[1] = ",".join(fields[:-1] + ["nan"])
        bad = tmp_path / "forecasts.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("score", "--forecasts", str(bad),
                       "--truth", str(sim_dir / "truth"),
                       "--out", str(tmp_path / "s.csv")) == 3
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("text, line", [
        ("location,target_end_date,kind,initial_value,final_value\n"
         "x,2021-99-01,revision,1.0,2.0\n", 2),
        ("location,target_end_date,kind,initial_value,final_value\n"
         "x,2021-01-02,revision,ten,2.0\n", 2),
        ("location,kind,initial_value,final_value\nx,revision,1.0,2.0\n", 1),
        ("location,target_end_date,kind,initial_value,final_value\n"
         "x,2021-01-02,outlier,,\nx,2021-01-09,spike,1.0,2.0\n", 3),
    ], ids=["bad_date", "bad_value", "no_target_end_date", "bad_kind"])
    def test_bad_anomalies_is_data_error(self, sim_dir, tmp_path, text, line):
        (tmp_path / "anomalies.csv").write_text(text)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "forecast_dir": str(sim_dir / "forecasts.csv"),
            "truth_dir": str(sim_dir / "truth"),
            "output_dir": str(tmp_path / "report"),
            "anomalies_file": "anomalies.csv",
            "specs": [{"name": "ens_eq"}],
        }))
        done = subprocess.run([sys.executable, "-m", "qens.cli", "backtest",
                               "--config", str(config)], capture_output=True,
                              text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 3
        assert "Traceback" not in done.stderr
        assert f"data error: line {line}:" in done.stderr

    @pytest.mark.parametrize("edit", [
        lambda c: {**c, "prospective_start": "2020-99-01"},
        lambda c: {**c, "baseline_seed": "x"},
        lambda c: {**c, "levels": ["a"]},
        lambda c: {**c, "specs": [{"name": "e", "top_k": "3"}]},
        lambda c: {**c, "specs": [{"name": "e", "max_weight": "0.5"}]},
        lambda c: [c],
    ], ids=["bad_date", "string_seed", "string_levels", "string_top_k",
            "string_max_weight", "array_config"])
    def test_mistyped_config_is_config_error(self, sim_dir, tmp_path, capsys,
                                             edit):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(edit({
            "forecast_dir": str(sim_dir / "forecasts.csv"),
            "truth_dir": str(sim_dir / "truth"),
            "output_dir": str(tmp_path / "report"),
            "specs": [{"name": "ens_eq"}],
        })))
        assert run_cli("backtest", "--config", str(config)) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("text", ['{"start": "2021-99-01"}', '{"levels": ["a"]}',
                                      '{"levels": 5}', '{"components": [1]}', "{", None])
    def test_bad_simulation_config_is_config_error(self, tmp_path, text):
        config = tmp_path / "sim.json"
        if text is not None:  # None: the file is missing
            config.write_text(text)
        assert run_cli("simulate", "--config", str(config),
                       "--out", str(tmp_path / "data")) == 2

    def test_array_spec_is_config_error(self, sim_dir, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps([{"name": "ens"}]))
        assert run_cli("ensemble", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(sim_dir / "truth"), "--config", str(config),
                       "--out", str(tmp_path / "o.csv")) == 2
