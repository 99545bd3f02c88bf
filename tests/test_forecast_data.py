"""Forecast containers, truth vintages, eligibility, and CSV round-trips."""

import datetime as dt
import math

import pytest

from qens import (DataError, DuplicateCellError, ForecastKey, ParseError,
                  QuantileForecast, QuantileLevelSet, SubmissionSet,
                  TruthStore, ValidationError, eligible_components,
                  load_forecasts, load_truth_dir, save_forecasts,
                  save_truth_dir, weekly_increments)
from qens.forecast import WEEK
from qens.reporting import load_forecast_dir

from conftest import make_forecast, sat, submission_set


class TestQuantileLevelSet:
    def test_presets(self):
        assert QuantileLevelSet.seven().K == 7
        assert QuantileLevelSet.twenty_three().K == 23
        assert QuantileLevelSet.preset(7) == QuantileLevelSet.seven()

    def test_levels_must_increase(self):
        with pytest.raises(ValidationError):
            QuantileLevelSet((0.5, 0.5))
        with pytest.raises(ValidationError):
            QuantileLevelSet((0.5, 0.25))

    def test_levels_must_be_interior(self):
        with pytest.raises(ValidationError):
            QuantileLevelSet((0.0, 0.5))
        with pytest.raises(ValidationError):
            QuantileLevelSet((0.5, 1.0))

    def test_central_interval(self):
        lo, hi = QuantileLevelSet.seven().central_interval(0.95)
        assert (lo, hi) == (0.025, 0.975)
        lo, hi = QuantileLevelSet.seven().central_interval(0.5)
        assert (lo, hi) == (0.25, 0.75)

    def test_twenty_three_is_symmetric(self):
        levels = QuantileLevelSet.twenty_three().levels
        for tau in levels:
            assert any(abs((1 - tau) - u) < 1e-9 for u in levels)


class TestForecastKey:
    def test_horizon(self):
        key = ForecastKey("m", "loc", sat(0), sat(3))
        assert key.horizon == 3

    def test_rejects_bad_horizons(self):
        with pytest.raises(ValidationError):
            ForecastKey("m", "loc", sat(0), sat(5))
        with pytest.raises(ValidationError):
            ForecastKey("m", "loc", sat(1), sat(0))
        with pytest.raises(ValidationError):
            ForecastKey("m", "loc", sat(0), sat(0) + dt.timedelta(days=10))


class TestQuantileForecast:
    def test_rejects_non_monotone(self, three):
        key = ForecastKey("m", "loc", sat(0), sat(1))
        with pytest.raises(ValidationError):
            QuantileForecast(key, three, (3.0, 2.0, 4.0))

    def test_rejects_negative(self, three):
        key = ForecastKey("m", "loc", sat(0), sat(1))
        with pytest.raises(ValidationError):
            QuantileForecast(key, three, (-1.0, 2.0, 4.0))

    def test_rejects_length_mismatch(self, three):
        key = ForecastKey("m", "loc", sat(0), sat(1))
        with pytest.raises(ValidationError):
            QuantileForecast(key, three, (1.0, 2.0))


class TestTruthStore:
    def make_store(self):
        return TruthStore({
            sat(1): {("loc", sat(0)): 10.0, ("loc", sat(1)): 20.0},
            sat(3): {("loc", sat(0)): 10.0, ("loc", sat(1)): 25.0,
                     ("loc", sat(2)): 30.0, ("loc", sat(3)): 40.0},
        })

    def test_as_of_between_snapshots_uses_earlier(self):
        store = self.make_store()
        series = store.as_of(sat(2), "loc")
        assert series == [(sat(0), 10.0), (sat(1), 20.0)]

    def test_as_of_before_first_snapshot_is_empty(self):
        assert self.make_store().as_of(sat(0), "loc") == []

    def test_as_of_after_last_uses_last(self):
        series = self.make_store().as_of(sat(9), "loc")
        assert series[-1] == (sat(3), 40.0)
        assert series[1] == (sat(1), 25.0)  # revised value wins

    def test_as_of_monotone_in_query_date(self):
        store = self.make_store()
        for i in range(5):
            early = dict(store.as_of(sat(i), "loc"))
            late = dict(store.as_of(sat(i + 1), "loc"))
            for week, value in early.items():
                if week in late and value != late[week]:
                    # later query may only reflect later snapshots
                    assert late[week] == 25.0


class TestWeeklyIncrements:
    def test_differences(self):  # hand-computed
        series = [(sat(0), 100.0), (sat(1), 150.0), (sat(2), 150.0)]
        assert weekly_increments(series) == [(sat(1), 50.0), (sat(2), 0.0)]

    def test_negative_retained(self):  # hand-computed
        series = [(sat(0), 100.0), (sat(1), 90.0)]
        assert weekly_increments(series) == [(sat(1), -10.0)]

    def test_single_observation_empty(self):
        assert weekly_increments([(sat(0), 5.0)]) == []

    def test_gap_rejected(self):
        with pytest.raises(DataError):
            weekly_increments([(sat(0), 1.0), (sat(2), 2.0)])


class TestSubmissionSet:
    def test_duplicate_add_rejected(self, three):
        subs = submission_set([make_forecast("m", "loc", sat(0), 1, three, [1, 2, 3])])
        with pytest.raises(DuplicateCellError):
            subs.add(make_forecast("m", "loc", sat(0), 1, three, [1, 2, 3]))

    def test_accessors(self, three):
        subs = submission_set([
            make_forecast("a", "x", sat(0), 1, three, [1, 2, 3]),
            make_forecast("b", "y", sat(1), 2, three, [1, 2, 3]),
        ])
        assert subs.models() == ["a", "b"]
        assert subs.locations() == ["x", "y"]
        assert subs.forecast_dates() == [sat(0), sat(1)]


class TestEligibility:
    def full_set(self, three, model="m", loc="loc", date=None):
        date = date or sat(5)
        return [make_forecast(model, loc, date, h, three, [1, 2, 3])
                for h in (1, 2, 3, 4)]

    def test_complete_model_eligible(self, three):
        subs = submission_set(self.full_set(three))
        assert eligible_components(subs, "loc", sat(5), three,
                                   require_history=False) == ["m"]

    def test_missing_horizon_ineligible(self, three):
        subs = submission_set(self.full_set(three)[:3])
        assert eligible_components(subs, "loc", sat(5), three,
                                   require_history=False) == []

    def test_wrong_levels_ineligible(self, three):
        other = QuantileLevelSet((0.1, 0.5, 0.9))
        subs = submission_set(
            [make_forecast("m", "loc", sat(5), h, other, [1, 2, 3])
             for h in (1, 2, 3, 4)])
        assert eligible_components(subs, "loc", sat(5), three,
                                   require_history=False) == []

    def test_history_requirement(self, three):
        subs = submission_set(self.full_set(three))
        assert eligible_components(subs, "loc", sat(5), three,
                                   require_history=True) == []
        assert eligible_components(subs, "loc", sat(5), three,
                                   require_history=False) == ["m"]
        # any earlier submission, even elsewhere, satisfies the requirement
        subs.add(make_forecast("m", "other", sat(4), 1, three, [1, 2, 3]))
        assert eligible_components(subs, "loc", sat(5), three,
                                   require_history=True) == ["m"]

    def test_eligibility_monotone_in_data(self, three):
        subs = submission_set(self.full_set(three))
        before = eligible_components(subs, "loc", sat(5), three,
                                     require_history=False)
        subs.add(make_forecast("other", "loc", sat(5), 1, three, [1, 2, 3]))
        after = eligible_components(subs, "loc", sat(5), three,
                                    require_history=False)
        assert set(before) <= set(after)


class TestForecastCSV:
    def test_round_trip(self, tmp_path, three):
        subs = submission_set([
            make_forecast("a", "x", sat(0), h, three, [1.5, 2.25, 3.125])
            for h in (1, 2, 3, 4)
        ] + [
            make_forecast("b", "x", sat(0), h, three, [10, 20, 30])
            for h in (1, 2, 3, 4)
        ])
        path = tmp_path / "f.csv"
        save_forecasts(subs, path)
        loaded = load_forecasts(path)
        assert loaded.models() == ["a", "b"]
        for key, f in subs.forecasts.items():
            assert loaded.forecasts[key].values == f.values
        # emit-load-emit is bit-identical
        path2 = tmp_path / "g.csv"
        save_forecasts(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_non_quantile_rows_ignored(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "model,forecast_date,location,target_end_date,type,quantile,value\n"
            "m,2021-01-02,loc,2021-01-09,quantile,0.5,10\n"
            "m,2021-01-02,loc,2021-01-09,point,,10\n")
        subs = load_forecasts(path)
        assert len(subs) == 1

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "model,forecast_date,location,target_end_date,type,quantile,value\n"
            "m,2021-01-02,loc,2021-01-09,quantile,0.25,10\n"
            "m,2021-01-02,loc,2021-01-09,quantile,0.5,5\n")
        with pytest.raises(ValidationError):
            load_forecasts(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "model,forecast_date,location,target_end_date,type,quantile,value\n"
            "m,2021-01-02,loc,2021-01-09,quantile,0.5,10\n"
            "m,2021-01-02,loc,2021-01-09,quantile,0.5,11\n")
        with pytest.raises(DuplicateCellError):
            load_forecasts(path)

    def test_directory_files_each_forecast_once(self, tmp_path, three, monkeypatch):
        for m in ("a", "b"):
            save_forecasts(submission_set([
                make_forecast(m, "x", sat(0), h, three, [1.0, 2.0, 3.0])
                for h in (1, 2, 3, 4)]), tmp_path / f"{m}.csv")
        added = []
        original = SubmissionSet.add
        monkeypatch.setattr(SubmissionSet, "add",
                            lambda self, f: (added.append(f.key), original(self, f)))
        subs = load_forecast_dir(tmp_path)
        assert subs.models() == ["a", "b"] and len(subs) == 8
        assert sorted(added) == sorted(subs.forecasts)

    def test_forecast_in_two_directory_files_rejected(self, tmp_path, three):
        subs = submission_set([make_forecast("a", "x", sat(0), 1, three,
                                             [1.0, 2.0, 3.0])])
        save_forecasts(subs, tmp_path / "first.csv")
        save_forecasts(subs, tmp_path / "second.csv")
        with pytest.raises(DataError, match="duplicate forecast"):
            load_forecast_dir(tmp_path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "model,forecast_date,location,target_end_date,type,quantile,value\n"
            "m,not-a-date,loc,2021-01-09,quantile,0.5,10\n")
        with pytest.raises(ParseError) as exc:
            load_forecasts(path)
        assert exc.value.line == 2


class TestTruthCSV:
    def test_round_trip(self, tmp_path):
        store = TruthStore({
            sat(1): {("x", sat(0)): 1.0, ("x", sat(1)): 2.0},
            sat(2): {("x", sat(0)): 1.0, ("x", sat(1)): 2.5,
                     ("x", sat(2)): -3.0},
        })
        save_truth_dir(store, tmp_path / "truth")
        loaded = load_truth_dir(tmp_path / "truth")
        assert loaded.snapshot_dates == (sat(1), sat(2))
        assert loaded.latest() == store.latest()
        assert loaded.snapshot(sat(1)) == store.snapshot(sat(1))

    @pytest.mark.parametrize("row", ["x,2021-01-02", "x,2021-01-02,ten",
                                     "x,2021-01-02,nan", "x,2021-01-02,inf",
                                     "x,2021-01-02,5,6"])
    def test_bad_row_rejected_with_line(self, tmp_path, row):
        truth = tmp_path / "truth"
        truth.mkdir()
        (truth / "2021-01-09.csv").write_text(
            f"location,target_end_date,value\nx,2021-01-09,4\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_truth_dir(truth)
        assert exc.value.line == 3


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_forecast_rejects_non_finite(self, three, value):
        with pytest.raises(ValidationError):
            make_forecast("m", "loc", sat(0), 1, three, [1.0, value, 3.0])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_load_names_line(self, tmp_path, value):
        path = tmp_path / "f.csv"
        path.write_text(
            "model,forecast_date,location,target_end_date,type,quantile,value\n"
            "m,2021-01-02,loc,2021-01-09,quantile,0.25,10\n"
            f"m,2021-01-02,loc,2021-01-09,quantile,0.5,{value}\n")
        with pytest.raises(ParseError) as exc:
            load_forecasts(path)
        assert exc.value.line == 3
