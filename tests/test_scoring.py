"""Interval scoring, relative skill, and coverage."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qens import (DataError, QuantileLevelSet, TruthStore, coverage_rates,
                  relative_wis, score_table, wis, wis_terms)
from qens import scoring
from qens.reporting import score_submissions
from qens.scoring import ScoreRecord, save_scores

from conftest import (make_forecast, oracle_relative_skill, pinball_loss,
                      random_quantile_values, sat, submission_set)


class TestWis:
    def test_exact_hit_scores_zero(self):
        assert wis_terms((0.5,), (10.0,), 10.0).tolist() == [0.0]

    def test_single_level_miss(self):  # hand-computed: 2*(0-0.5)*(10-12)
        assert wis_terms((0.5,), (10.0,), 12.0).tolist() == [2.0]

    def test_three_level_example(self):  # hand-computed term by term
        terms = wis_terms((0.25, 0.5, 0.75), (8.0, 10.0, 12.0), 10.0)
        assert terms.tolist() == [1.0, 0.0, 1.0]
        f = make_forecast("m", "loc", sat(0), 1, QuantileLevelSet((0.25, 0.5, 0.75)),
                          [8, 10, 12])
        assert wis(f, 10.0).wis == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_nan_observation_rejected(self):
        with pytest.raises(DataError):
            wis_terms((0.5,), (10.0,), float("nan"))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_terms_nonnegative_and_match_pinball(self, seed):
        rng = np.random.default_rng(seed)
        taus = np.sort(rng.uniform(0.01, 0.99, size=5))
        q = random_quantile_values(rng, 5)
        y = rng.uniform(-5, 25)
        terms = wis_terms(tuple(taus), tuple(q), y)
        assert np.all(terms >= 0)
        for term, tau, qk in zip(terms, taus, q):
            assert term == pytest.approx(2.0 * pinball_loss(tau, qk, y), abs=1e-12)

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_translation_equivariance(self, c):
        taus = (0.1, 0.5, 0.9)
        q = (5.0, 10.0, 15.0)
        y = 11.0
        base = wis_terms(taus, q, y).mean()
        shifted = wis_terms(taus, tuple(v + c for v in q), y + c).mean()
        assert shifted == pytest.approx(base, abs=1e-9 * max(1.0, abs(c)))


class TestCoverage:
    def test_inclusive_comparison(self, three):
        f = make_forecast("m", "loc", sat(0), 1, three, [1, 2, 3])
        rates = coverage_rates([f], [2.0])
        assert rates[0.5] == 1.0  # y == q counts as covered
        assert rates[0.25] == 0.0

    def test_all_below(self, three):
        fs = [make_forecast("m", "loc", sat(i), 1, three, [10, 20, 30])
              for i in range(4)]
        rates = coverage_rates(fs, [1.0, 2.0, 3.0, 4.0])
        assert rates == {0.25: 1.0, 0.5: 1.0, 0.75: 1.0}

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            coverage_rates([], [])


def _records(level_set, spec):
    """ScoreRecords from {model: {(loc, date): [wis per horizon]}}."""
    records = []
    for model, units in spec.items():
        for (loc, date), scores in units.items():
            for h, score in enumerate(scores, start=1):
                key = make_forecast(model, loc, date, h, level_set,
                                    [1, 2, 3]).key
                records.append(ScoreRecord(key, float(score),
                                           (float(score),) * 3))
    return records


class TestRelativeWis:
    def test_identical_models_score_one(self, three):
        spec = {"baseline": {("x", sat(0)): [2, 2, 2, 2]},
                "m": {("x", sat(0)): [2, 2, 2, 2]}}
        table = relative_wis(score_table(_records(three, spec)), "baseline")
        assert table.rel_wis["m"] == pytest.approx(1.0, abs=1e-12)

    def test_full_coverage_reduces_to_mean_ratio(self, three):
        rng = np.random.default_rng(3)
        units = [("x", sat(i)) for i in range(6)] + [("y", sat(i)) for i in range(6)]
        spec = {m: {u: list(rng.uniform(1, 10, size=4)) for u in units}
                for m in ("baseline", "a", "b", "c")}
        records = _records(three, spec)
        table = score_table(records)
        mean_wis = {m: np.mean([s for scores in table[m].values() for s in scores])
                    for m in table}
        for agg in ("geometric", "arithmetic"):
            rel = relative_wis(table, "baseline", agg)
            for m in spec:
                expected = mean_wis[m] / mean_wis["baseline"]
                assert rel.rel_wis[m] == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_oracle_with_missingness(self, three):
        rng = np.random.default_rng(11)
        units = [(loc, sat(i)) for loc in "xyz" for i in range(4)]
        spec = {}
        for m in ("baseline", "a", "b"):
            # staggered missingness: each model skips a different subset
            kept = [u for j, u in enumerate(units)
                    if m == "baseline" or (hash((m, j)) % 3 != 0)]
            spec[m] = {u: list(rng.uniform(1, 10, size=4)) for u in kept}
        table = score_table(_records(three, spec))
        unit_scores = {m: {u: list(scores) for u, scores in table[m].items()}
                       for m in table}
        for agg in ("geometric", "arithmetic"):
            expected = oracle_relative_skill(unit_scores, "baseline", agg)
            rel = relative_wis(table, "baseline", agg)
            for m in spec:
                assert rel.rel_wis[m] == pytest.approx(expected[m], abs=1e-12)

    def test_disconnected_model_undefined(self, three):
        spec = {"baseline": {("x", sat(0)): [2.0]},
                "a": {("x", sat(0)): [1.0]},
                "lonely": {("y", sat(9)): [1.0]}}
        table = relative_wis(score_table(_records(three, spec)), "baseline")
        assert "lonely" in table.undefined
        assert "lonely" not in table.rel_wis
        assert "a" in table.rel_wis

    def test_geometric_vs_arithmetic_same_order_full_coverage(self, three):
        rng = np.random.default_rng(5)
        units = [("x", sat(i)) for i in range(8)]
        spec = {m: {u: list(rng.uniform(1, 10, size=4)) for u in units}
                for m in ("baseline", "a", "b", "c", "d")}
        table = score_table(_records(three, spec))
        geo = relative_wis(table, "baseline", "geometric").rel_wis
        ari = relative_wis(table, "baseline", "arithmetic").rel_wis
        assert sorted(geo, key=geo.get) == sorted(ari, key=ari.get)

    @pytest.mark.parametrize("aggregation", ["geometric", "arithmetic"])
    def test_sums_do_not_follow_the_builtin_sum(self, monkeypatch, aggregation):
        # Python 3.12+ compensates `sum` of floats (Neumaier); on these scores
        # that moves the baseline's theta by an ulp, so a bundle would differ
        # between Python versions. Relative WIS must add left to right.
        def neumaier_sum(values, start=0):
            total, comp = float(start), 0.0
            for v in values:
                t = total + v
                comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
                total = t
            return total + comp

        table = {"baseline": {("x", sat(0)): [1e16, 1.0, 1.0]},
                 "m": {("x", sat(0)): [3.0, 1e16, 1.0]}}
        plain = relative_wis(table, "baseline", aggregation)
        monkeypatch.setattr(scoring, "sum", neumaier_sum, raising=False)
        patched = relative_wis(table, "baseline", aggregation)
        for field in ("theta", "rel_wis"):
            got, want = getattr(patched, field), getattr(plain, field)
            assert ({m: v.hex() for m, v in got.items()}
                    == {m: v.hex() for m, v in want.items()})


class TestScoreCSV:
    def test_round_trip(self, tmp_path, three):
        f = make_forecast("m", "loc", sat(0), 2, three, [1, 2, 3])
        records = [wis(f, 2.5)]
        save_scores(records, tmp_path / "s.csv")
        with open(tmp_path / "s.csv", newline="", encoding="utf-8") as fh:
            loaded = list(csv.DictReader(fh))
        assert loaded == [{"model": "m", "location": "loc",
                           "forecast_date": sat(0).isoformat(),
                           "target_end_date": sat(2).isoformat(), "horizon": "2",
                           "wis": repr(records[0].wis)}]


class TestBatchedScoring:
    """`score_submissions` scores each level set in one kernel call."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_forecast_wis(self, seed):
        rng = np.random.default_rng(seed)
        # two separately built seven-level sets: equal, but not one object
        level_sets = [QuantileLevelSet.seven(), QuantileLevelSet.seven(),
                      QuantileLevelSet((0.5,)), QuantileLevelSet((0.25, 0.5, 0.75)),
                      QuantileLevelSet.twenty_three()]
        cells = [(m, loc, d, h) for m in "abcd" for loc in "XY"
                 for d in range(3) for h in (1, 2, 3, 4)]
        chosen = rng.permutation(len(cells))[:int(rng.integers(1, len(cells)))]
        forecasts = []
        for i in chosen:
            m, loc, d, h = cells[i]
            levels = level_sets[rng.integers(len(level_sets))]
            values = random_quantile_values(rng, levels.K, scale=float(rng.uniform(1, 1e4)))
            forecasts.append(make_forecast(m, loc, sat(d), h, levels, values))
        subs = submission_set(forecasts)
        final = {}
        for loc in "XY":
            for t in range(1, 7):
                u = rng.random()
                if u < 0.7:
                    final[(loc, sat(t))] = float(rng.uniform(0, 1e4))
                elif u < 0.85:
                    final[(loc, sat(t))] = -float(rng.uniform(0, 10))  # dropped
        truth = TruthStore({sat(8): final})
        exclusions = {f.key for f in forecasts if rng.random() < 0.2}
        records = score_submissions(subs, truth, exclusions)
        expected = []
        for f in subs:
            y = final.get((f.key.location, f.key.target_end_date))
            if f.key not in exclusions and y is not None and y >= 0:
                expected.append(wis(f, y))
        assert [r.key for r in records] == [r.key for r in expected]
        for got, want in zip(records, expected):
            assert float.hex(got.wis) == float.hex(want.wis)
            assert list(map(float.hex, got.per_level)) == list(map(float.hex, want.per_level))
        assert score_submissions(subs, truth) == score_submissions(subs, truth, set())

    def test_nan_observation_rejected(self, three):
        subs = submission_set([make_forecast("m", "X", sat(0), h, three, [1, 2, 3])
                               for h in (1, 2)])
        truth = TruthStore({sat(3): {("X", sat(1)): 2.0, ("X", sat(2)): math.nan}})
        with pytest.raises(DataError, match="NaN"):
            score_submissions(subs, truth)
        with pytest.raises(DataError, match="NaN"):
            wis_terms(three.levels, [[1.0, 2.0, 3.0]] * 2, np.array([[2.0], [math.nan]]))
