"""Revision anomalies, exclusion windows, peaks, ranks, and weight diagnostics."""

import datetime as dt

import numpy as np
import pytest

from qens import (DataError, ForecastKey, ParseError, QuantileLevelSet,
                  TruthStore, components_to_cumulative_weight, detect_peaks,
                  detect_revisions, lag1_autocorrelation, pi_width_rank,
                  revision_exclusion_set)
from qens.analysis import (AnomalyRecord, load_anomalies, save_anomalies,
                           save_peaks)

from conftest import make_forecast, oracle_pearson, sat


class TestDetectRevisions:
    CASES = [
        # (initial, final, flagged) — hand-evaluated against the rule:
        # flag iff |diff| >= 20 and (|diff| >= 0.4|initial| or >= 0.4|final|)
        (100.0, 150.0, True),    # diff 50 >= 20, 50% of initial
        (100.0, 110.0, False),   # diff 10 < 20
        (0.0, 19.0, False),      # diff 19 < 20
        (0.0, 20.0, True),       # diff 20; relative clause trivially true vs 0
        (10.0, 40.0, True),      # diff 30, 300% of initial
        (100.0, 119.0, False),   # diff 19 just misses the absolute bar
        (100.0, 120.0, False),   # diff 20 but only 20% of 100 and 16.7% of 120
        (50.0, 70.0, True),      # diff 20 exactly; 40% of initial exactly
        (50.0, 69.9, False),     # diff 19.9 < 20
        (1000.0, 1399.0, False), # diff 399 = 39.9% of both sides
        (1000.0, 1400.0, True),  # diff 400 = 40% of initial exactly
        (-30.0, 30.0, True),     # negative initial; |diff| 60, 200% of |initial|
    ]

    def test_twelve_case_table(self):
        for i, (initial, final, flagged) in enumerate(self.CASES):
            week = sat(i)
            found = detect_revisions({week: initial}, {week: final},
                                     location="loc")
            assert bool(found) == flagged, (initial, final)
            if flagged:
                rec = found[0]
                assert rec.kind == "revision"
                assert (rec.initial_value, rec.final_value) == (initial, final)

    def test_unrevised_weeks_ignored(self):
        found = detect_revisions({sat(0): 100.0, sat(1): 50.0},
                                 {sat(0): 100.0, sat(1): 200.0}, location="x")
        assert [r.target_end_date for r in found] == [sat(1)]


class TestRevisionExclusion:
    def setup_case(self):
        """A value at week 2 revised from 100 to 200, visible from week 5 on."""
        revised_week = sat(2)
        snapshots = {}
        for i in range(2, 10):
            snap = {("loc", sat(j)): 50.0 for j in range(i + 1) if j != 2}
            snap[("loc", revised_week)] = 100.0 if i < 5 else 200.0
            snapshots[sat(i)] = snap
        truth = TruthStore(snapshots)
        anomaly = AnomalyRecord("loc", revised_week, "revision", 100.0, 200.0)
        keys = [ForecastKey("m", "loc", sat(i), sat(i + 1)) for i in range(2, 9)]
        return truth, anomaly, keys

    def test_window_and_snapshot_rule(self):
        truth, anomaly, keys = self.setup_case()
        excluded = revision_exclusion_set([anomaly], keys, truth)
        by_date = {k.forecast_date: k in excluded for k in keys}
        # weeks 2-4: within 3 weeks of the revision and still showing 100
        assert by_date[sat(2)] and by_date[sat(3)] and by_date[sat(4)]
        # week 5: inside the window but the revision is already visible
        assert not by_date[sat(5)]
        # weeks 6+: outside the window entirely
        assert not by_date[sat(6)] and not by_date[sat(7)]

    def test_outlier_targets_excluded(self):
        truth, _, _ = self.setup_case()
        outlier = AnomalyRecord("loc", sat(4), "outlier", 1.0, 1.0)
        keys = [ForecastKey("m", "loc", sat(3), sat(4)),
                ForecastKey("m", "loc", sat(3), sat(5))]
        excluded = revision_exclusion_set([outlier], keys, truth)
        assert keys[0] in excluded and keys[1] not in excluded


class TestDetectPeaks:
    def test_single_spike(self):
        series = {sat(i): (100.0 if i == 10 else 1.0) for i in range(21)}
        peaks = detect_peaks(series, location="loc")
        assert [p.peak_week for p in peaks] == [sat(10)]

    def test_constant_series_no_peaks(self):
        series = {sat(i): 5.0 for i in range(21)}
        assert detect_peaks(series, location="loc") == []

    def test_monotone_series_no_peaks(self):
        series = {sat(i): float(i) for i in range(21)}
        assert detect_peaks(series, location="loc") == []

    def test_boundary_weeks_ineligible(self):
        # spike at week 3 lacks a full 11-week window
        series = {sat(i): (100.0 if i == 3 else 1.0) for i in range(21)}
        assert detect_peaks(series, location="loc") == []

    def test_peak_is_window_max(self):
        rng = np.random.default_rng(4)
        series = {sat(i): float(v) for i, v in
                  enumerate(rng.uniform(0, 100, size=40))}
        for p in detect_peaks(series, location="loc"):
            center = p.peak_week
            for off in range(-5, 6):
                if off != 0:
                    assert series[center] > series[center + off * dt.timedelta(weeks=1)]


class TestPiWidthRank:
    def test_two_models(self, seven):
        narrow = make_forecast("a", "loc", sat(0), 1, seven,
                               [10, 11, 12, 13, 14, 15, 16])
        wide = make_forecast("b", "loc", sat(0), 1, seven,
                             [0, 5, 10, 13, 16, 21, 26])
        ranks = pi_width_rank({"a": narrow, "b": wide})
        assert ranks == {"a": 0.0, "b": 1.0}

    def test_equal_widths_tie(self, seven):
        f = [10, 11, 12, 13, 14, 15, 16]
        ranks = pi_width_rank({
            "a": make_forecast("a", "loc", sat(0), 1, seven, f),
            "b": make_forecast("b", "loc", sat(0), 1, seven, f),
        })
        assert ranks == {"a": 0.5, "b": 0.5}

    def test_missing_tails_skipped(self, seven, three):
        full = make_forecast("a", "loc", sat(0), 1, seven,
                             [10, 11, 12, 13, 14, 15, 16])
        no_tails = make_forecast("b", "loc", sat(0), 1, three, [1, 2, 3])
        ranks = pi_width_rank({"a": full, "b": no_tails})
        assert "b" not in ranks and ranks["a"] == 0.5


class TestLag1Autocorrelation:
    def test_constant_series_undefined(self):
        assert lag1_autocorrelation([0.5, 0.5, 0.5, 0.5]) is None

    def test_alternating(self):  # hand-computed
        assert lag1_autocorrelation([0, 1, 0, 1, 0, 1]) == pytest.approx(-1.0)

    def test_matches_independent_oracle(self):
        series = [0.1, 0.2, 0.3, 0.4, 0.5]
        expected = oracle_pearson(series[:-1], series[1:])
        assert lag1_autocorrelation(series) == pytest.approx(expected, abs=1e-12)

    def test_random_series_against_oracle(self):
        rng = np.random.default_rng(8)
        series = list(rng.uniform(0, 1, size=25))
        expected = oracle_pearson(series[:-1], series[1:])
        assert lag1_autocorrelation(series) == pytest.approx(expected, abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            lag1_autocorrelation([0.1, 0.2])


class TestComponentsToCumulativeWeight:
    def test_prefix_counts(self):  # hand-computed prefix sums
        w = {"a": 0.6, "b": 0.3, "c": 0.1}
        assert components_to_cumulative_weight(w, 0.25) == 1
        assert components_to_cumulative_weight(w, 0.8) == 2
        assert components_to_cumulative_weight(w, 1.0) == 3

    def test_uniform_needs_all(self):
        w = {m: 0.25 for m in "abcd"}
        assert components_to_cumulative_weight(w, 1.0) == 4

    def test_concentration_monotone(self):
        spread = {"a": 0.4, "b": 0.3, "c": 0.3}
        tight = {"a": 0.8, "b": 0.1, "c": 0.1}
        for threshold in (0.3, 0.5, 0.7, 0.9):
            assert (components_to_cumulative_weight(tight, threshold) <=
                    components_to_cumulative_weight(spread, threshold))


class TestAnomalyCSV:
    def test_round_trip(self, tmp_path):
        records = [AnomalyRecord("x", sat(1), "revision", 10.0, 40.0),
                   AnomalyRecord("y", sat(2), "outlier", 5.0, 5.0)]
        save_anomalies(records, tmp_path / "a.csv")
        assert load_anomalies(tmp_path / "a.csv") == records

    def test_save_peaks(self, tmp_path):
        series = {sat(i): (100.0 if i == 10 else 1.0) for i in range(21)}
        peaks = detect_peaks(series, location="loc")
        save_peaks(peaks, tmp_path / "p.csv")
        text = (tmp_path / "p.csv").read_text()
        assert "loc" in text and sat(10).isoformat() in text

    @pytest.mark.parametrize("row", ["x,2021-13-02,revision,1.0,2.0",
                                     "x,2021-01-02,revision,ten,2.0",
                                     "x,2021-01-02,revision,1.0,2.0,3.0",
                                     "x,2021-01-02,typo,1.0,2.0"])
    def test_bad_row_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "a.csv"
        path.write_text("location,target_end_date,kind,initial_value,final_value\n"
                        f"x,2021-01-09,outlier,,\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_anomalies(path)
        assert exc.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("location,kind,initial_value,final_value\nx,revision,1,2\n")
        with pytest.raises(ParseError) as exc:
            load_anomalies(path)
        assert exc.value.line == 1
