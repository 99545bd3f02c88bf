"""Command-line workflows and exit-code conventions."""

import ast
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qens
from qens.cli import main
from qens.reporting import RunConfig

SRC = Path(qens.__file__).resolve().parents[1]


def run_cli(*args) -> int:
    return main(list(args))


def run_cli_process(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qens.cli", *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--out", str(out / "data"), "--seed", "5")
    assert code == 0
    return out / "data"


POST_HOC_SPEC = {"name": "ph", "combiner": "mean", "weighting": "post_hoc"}


@pytest.fixture(scope="module")
def short_truth_run(sim_dir, tmp_path_factory) -> Path:
    """A post hoc backtest on truth without its last four snapshots, whose
    final truth then stops before the last targets."""
    root = tmp_path_factory.mktemp("short_truth")
    shutil.copytree(sim_dir / "truth", root / "truth")
    for path in sorted((root / "truth").glob("*.csv"))[-4:]:
        path.unlink()
    (root / "spec.json").write_text(json.dumps(POST_HOC_SPEC))
    (root / "run.json").write_text(json.dumps({
        "forecast_dir": str(sim_dir / "forecasts.csv"), "truth_dir": "truth",
        "output_dir": "report", "specs": [POST_HOC_SPEC],
        "baseline_model": "sharp",  # a forecast model: no baseline to generate
    }))
    assert run_cli("backtest", "--config", str(root / "run.json")) == 0
    return root


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

    def test_relwis_generates_absent_baseline(self, sim_dir, tmp_path):
        # the early forecast dates only: the baseline's cost grows with history
        lines = (sim_dir / "forecasts.csv").read_text().splitlines(keepends=True)
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text("".join(lines[:1] + [line for line in lines[1:]
                                                   if line.split(",")[1] < "2021-04"]))
        out = tmp_path / "rwis.csv"
        code = run_cli("relwis", "--forecasts", str(forecasts),
                       "--truth", str(sim_dir / "truth"),
                       "--baseline", "baseline", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = {r["model"]: r for r in csv.DictReader(fh)}
        assert rows["baseline"]["rel_wis"] == "1.0" and len(rows) == 6

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

    def test_post_hoc_on_short_truth_matches_backtest(self, sim_dir, short_truth_run,
                                                     tmp_path):
        out = tmp_path / "ens.csv"
        code = run_cli("ensemble", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(short_truth_run / "truth"),
                       "--config", str(short_truth_run / "spec.json"),
                       "--baseline", "sharp", "--out", str(out))
        assert code == 0
        bundle = short_truth_run / "report" / "ensemble_forecasts.csv"
        assert out.read_bytes() == bundle.read_bytes()
        with open(out) as fh:
            dates = {r["forecast_date"] for r in csv.DictReader(fh)}
        last = sorted((short_truth_run / "truth").glob("*.csv"))[-1].stem
        assert dates and max(dates) < last  # dates without final truth are not fit


class TestDiagnostics:
    def test_peaks(self, sim_dir, tmp_path):
        out = tmp_path / "peaks.csv"
        assert run_cli("peaks", "--truth", str(sim_dir / "truth"),
                       "--out", str(out)) == 0
        assert out.exists()

    def test_peaks_match_bundle(self, short_truth_run, tmp_path):
        # every truth location has forecasts, so both scan the same series
        out = tmp_path / "peaks.csv"
        assert run_cli("peaks", "--truth", str(short_truth_run / "truth"),
                       "--out", str(out)) == 0
        assert out.read_bytes() == (short_truth_run / "report" / "peaks.csv").read_bytes()
        assert len(out.read_text().splitlines()) > 1

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

    def test_readme_run_config_parses(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Run config JSON (backtest)", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        config = RunConfig.from_dict(json.loads(block))
        assert [s.name for s in config.specs] == [config.reference_spec]


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
    # scipy.stats alone takes about a second to import and scipy.optimize
    # doubles the resident memory; no command that avoids density and
    # simulation should pay for them, and the convex fit needs neither
    code = ("import sys, qens.cli\n"
            "from qens import QuantileLevelSet, convex_weights, training\n"
            "import datetime as dt\n"
            "day = dt.date(2021, 1, 2)\n"
            "records = [training.WindowRecord('l', day, day, 1, 10.0 + i,\n"
            "           {'a': (8.0, 11.0, 14.0), 'b': (9.0 + i, 12.0, 13.0 + i)})\n"
            "           for i in range(4)]\n"
            "w = convex_weights(records, ['a', 'b'], QuantileLevelSet((0.25, 0.5, 0.75)))\n"
            "assert abs(sum(w.weights.values()) - 1.0) < 1e-12\n"
            "print('scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.strip() == "False"


def test_only_the_csv_helpers_open_files():
    # every CSV is read through forecast._csv_reader and written through
    # forecast._write_csv, so how a CSV is opened and checked cannot drift
    calls = set()
    for path in sorted((SRC / "qens").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if ((isinstance(f, ast.Name) and f.id == "open")
                        or (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                            and f.value.id == "csv")):
                    calls.add((path.name, getattr(top, "name", None), ast.unparse(f)))
    assert calls == {("forecast.py", "_csv_reader", "open"),
                     ("forecast.py", "_csv_reader", "csv.reader"),
                     ("forecast.py", "_write_csv", "open"),
                     ("forecast.py", "_write_csv", "csv.writer"),
                     ("cli.py", "_read_json", "open")}


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

    def test_capped_convex_spec_is_config_error(self, sim_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "forecast_dir": str(sim_dir / "forecasts.csv"),
            "truth_dir": str(sim_dir / "truth"),
            "output_dir": str(tmp_path / "report"),
            "specs": [{"name": "c", "combiner": "mean",
                       "weighting": "convex_direct", "max_weight": 0.5}],
        }))
        done = subprocess.run([sys.executable, "-m", "qens.cli", "backtest",
                               "--config", str(config)], capture_output=True,
                              text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "max_weight" in done.stderr
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("edit", [
        lambda c: {**c, "prospective_start": "2020-99-01"},
        lambda c: {**c, "baseline_seed": "x"},
        lambda c: {**c, "levels": ["a"]},
        lambda c: {**c, "specs": [{"name": "e", "top_k": "3"}]},
        lambda c: {**c, "specs": [{"name": "e", "max_weight": "0.5"}]},
        lambda c: {**c, "baseline_model": 5},
        lambda c: [c],
    ], ids=["bad_date", "string_seed", "string_levels", "string_top_k",
            "string_max_weight", "integer_baseline_model", "array_config"])
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

    @pytest.mark.parametrize("edit", [
        lambda c: {**c, "prospective_strat": "2021-03-06"},
        lambda c: {**c, "apply_exclusions": "false"},
        lambda c: {**c, "reference_spec": "ens_typo"},
        lambda c: {**c, "development_cut": "2021-03-06"},
    ], ids=["unknown_key", "string_apply_exclusions", "unknown_reference_spec",
            "removed_development_cut"])
    def test_config_it_would_misread_is_config_error(self, sim_dir, tmp_path, capsys,
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

    def test_level_set_no_component_carries_is_data_error(self, sim_dir, tmp_path,
                                                          capsys):
        # the simulated data carries 7 levels; only a generated baseline
        # would carry 23, so the run would ensemble the baseline alone
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "forecast_dir": str(sim_dir / "forecasts.csv"),
            "truth_dir": str(sim_dir / "truth"),
            "output_dir": str(tmp_path / "report"),
            "levels": 23,
            "specs": [{"name": "ens_eq"}],
        }))
        assert run_cli("backtest", "--config", str(config)) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "report" / "weights.csv").exists()

    @pytest.mark.parametrize("text", ['{"start": "2021-99-01"}', '{"levels": ["a"]}',
                                      '{"levels": 5}', '{"components": [1]}', "{", None])
    def test_bad_simulation_config_is_config_error(self, tmp_path, text):
        config = tmp_path / "sim.json"
        if text is not None:  # None: the file is missing
            config.write_text(text)
        assert run_cli("simulate", "--config", str(config),
                       "--out", str(tmp_path / "data")) == 2

    @pytest.mark.parametrize("spec, field", [
        ({"n_locations": "3", "components": [{"name": "c"}]}, "n_locations"),
        ({"sigma": "x", "components": [{"name": "c"}]}, "sigma"),
        ({"components": [{"name": "c", "bias": "x"}]}, "bias"),
    ], ids=["string_n_locations", "string_sigma", "string_component_bias"])
    def test_mistyped_simulation_field_is_config_error(self, tmp_path, capsys,
                                                       spec, field):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(spec))
        assert run_cli("simulate", "--config", str(config),
                       "--out", str(tmp_path / "data")) == 2
        assert f"config error: {field} must be " in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_array_spec_is_config_error(self, sim_dir, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps([{"name": "ens"}]))
        assert run_cli("ensemble", "--forecasts", str(sim_dir / "forecasts.csv"),
                       "--truth", str(sim_dir / "truth"), "--config", str(config),
                       "--out", str(tmp_path / "o.csv")) == 2


class TestFileErrorContract:
    """Unreadable input exits 3 and an unwritable output path exits 2, both
    without a traceback; missing output directories are created."""

    @pytest.mark.parametrize("kind", ["forecast", "truth", "anomaly"])
    def test_non_utf8_input_is_data_error(self, sim_dir, tmp_path, kind):
        data = tmp_path / "data"
        shutil.copytree(sim_dir, data)
        if kind == "forecast":  # the byte is in the last row: read in the row loop
            bad = data / "forecasts.csv"
            row = b"caf\xe9,2021-01-02,X,2021-01-09,quantile,0.5,1\n"
            args = ["score", "--forecasts", bad, "--truth", data / "truth",
                    "--out", tmp_path / "s.csv"]
        elif kind == "truth":
            bad, row = sorted((data / "truth").glob("*.csv"))[-1], b"x,2021-01-02,caf\xe9\n"
            args = ["peaks", "--truth", data / "truth", "--out", tmp_path / "p.csv"]
        else:
            bad, row = data / "anomalies.csv", b"caf\xe9,2021-01-02,outlier,,\n"
            config = tmp_path / "run.json"
            config.write_text(json.dumps({
                "forecast_dir": "data/forecasts.csv", "truth_dir": "data/truth",
                "output_dir": "report", "anomalies_file": "data/anomalies.csv",
                "specs": [{"name": "ens_eq"}]}))
            args = ["backtest", "--config", config]
        with open(bad, "ab") as fh:
            fh.write(row)
        done = run_cli_process(*args)
        assert done.returncode == 3
        assert "Traceback" not in done.stderr
        assert f"{bad} is not UTF-8" in done.stderr

    def test_directory_as_anomaly_file_is_data_error(self, sim_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "forecast_dir": str(sim_dir / "forecasts.csv"),
            "truth_dir": str(sim_dir / "truth"),
            "output_dir": str(tmp_path / "report"),
            "anomalies_file": str(sim_dir / "truth"),
            "specs": [{"name": "ens_eq"}]}))
        done = run_cli_process("backtest", "--config", config)
        assert done.returncode == 3
        assert "Traceback" not in done.stderr
        assert "cannot read anomaly file" in done.stderr

    def test_missing_output_directories_are_created(self, sim_dir, tmp_path):
        coverage = tmp_path / "new" / "dir" / "c.csv"
        done = run_cli_process("coverage", "--forecasts", sim_dir / "forecasts.csv",
                               "--truth", sim_dir / "truth", "--out", coverage)
        assert done.returncode == 0, done.stderr
        assert coverage.read_text().startswith("model,level,coverage\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "ens"}))
        weights = tmp_path / "new" / "w.csv"
        done = run_cli_process("ensemble", "--forecasts", sim_dir / "forecasts.csv",
                               "--truth", sim_dir / "truth", "--config", spec,
                               "--out", tmp_path / "ens.csv", "--weights-out", weights)
        assert done.returncode == 0, done.stderr
        assert weights.read_text().startswith(
            "forecast_date,stratum,model,weight,theta,spec_id\n")

    def test_unwritable_bundle_fails_before_training(self, sim_dir, tmp_path, capsys,
                                                     monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "forecast_dir": str(sim_dir / "forecasts.csv"),
            "truth_dir": str(sim_dir / "truth"),
            "output_dir": str(blocker / "report"),
            "specs": [{"name": "ens_eq"}]}))
        calls = []
        monkeypatch.setattr(qens.reporting, "train_and_forecast",
                            lambda *a, **kw: calls.append(1))
        assert run_cli("backtest", "--config", str(config)) == 2
        assert f"config error: cannot write {blocker / 'report'}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["score", "peaks", "simulate"])
    def test_output_under_a_file_is_config_error(self, sim_dir, tmp_path, command):
        # a regular file where a directory should be; a permission bit would
        # not stop a process running as root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out.csv"
        args = {"score": ["--forecasts", sim_dir / "forecasts.csv",
                          "--truth", sim_dir / "truth", "--out", out],
                "peaks": ["--truth", sim_dir / "truth", "--out", out],
                "simulate": ["--seed", "5", "--out", blocker / "data"]}[command]
        done = run_cli_process(command, *args)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "config error: cannot write" in done.stderr
