"""Weight estimation, temperature search, and the rolling backtest."""

import logging
import math

import numpy as np
import pytest

from qens import (ConfigError, DataError, EnsembleSpec, QuantileLevelSet,
                  SubmissionSet, TruthStore, WeightVector,
                  build_training_window, combine_values, convex_weights,
                  default_theta_grid, eligible_components, fit_theta,
                  select_top_k, sigmoid_weights, train_and_forecast,
                  window_objective)
from qens import training
from qens.forecast import WEEK
from qens.scoring import wis_terms
from qens.training import (ThetaGrid, TrainingWindow, WindowRecord,
                           window_score_table)

from conftest import (make_forecast, oracle_convex_weights, sat,
                      submission_set)


class TestEnsembleSpec:
    def test_defaults(self):
        spec = EnsembleSpec(name="base")
        assert spec.combiner == "median" and spec.weighting == "equal"
        assert not spec.trained

    def test_round_trip(self):
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid", top_k=3,
                            max_weight=0.5)
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(name="bad", top_k=10, max_weight=0.05)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleSpec.from_dict({"name": "x", "bogus": 1})

    @pytest.mark.parametrize("weighting", ["convex_direct", "post_hoc"])
    def test_cap_on_convex_fit_rejected(self, weighting):
        # the convex fit has no weight cap; a cap must not be silently ignored
        with pytest.raises(ConfigError, match="max_weight"):
            EnsembleSpec(name="c", weighting=weighting, max_weight=0.5)
        assert EnsembleSpec(name="c", weighting=weighting, max_weight=1.0).max_weight == 1.0


class TestThetaGrid:
    def test_default_shape(self):
        grid = default_theta_grid()
        assert grid.values[0] == 0.0
        assert all(a < b for a, b in zip(grid.values, grid.values[1:]))
        assert grid.values[-1] == 30.0

    def test_feasibility_mask(self):
        rwis = {"a": 0.5, "b": 1.0, "c": 1.5}
        grid = ThetaGrid((0.0, 1.0, 10.0))
        # theta=0 gives weight 1/3 <= 0.34; larger theta concentrates past it
        feasible, _ = grid.feasible(rwis, max_weight=0.34)
        assert feasible == [0.0]
        assert grid.feasible(rwis, max_weight=1.0)[0] == [0.0, 1.0, 10.0]

    def test_cap_at_uniform_weight(self):
        # max_weight exactly 1/M keeps only theta=0 for distinct rwis
        rwis = {"a": 0.5, "b": 1.0, "c": 1.5, "d": 2.0}
        feasible, _ = default_theta_grid().feasible(rwis, max_weight=0.25)
        assert feasible == [0.0]


class TestSigmoidWeights:
    def test_theta_zero_exactly_uniform(self):
        w = sigmoid_weights({"a": 0.3, "b": 0.9, "c": 2.7}, 0.0)
        assert all(w[m] == 1.0 / 3.0 for m in "abc")

    def test_softmax_example(self):  # hand-computed softmax
        w = sigmoid_weights({"a": 0.5, "b": 1.0}, 1.0)
        denom = math.exp(-0.5) + math.exp(-1.0)
        assert w["a"] == pytest.approx(math.exp(-0.5) / denom, abs=1e-12)
        assert w["b"] == pytest.approx(math.exp(-1.0) / denom, abs=1e-12)

    def test_large_theta_concentrates(self):
        w = sigmoid_weights({"a": 0.5, "b": 1.0, "c": 1.5}, 50.0)
        assert w["a"] >= 0.999

    def test_max_weight_monotone_in_theta(self):
        rwis = {"a": 0.4, "b": 0.9, "c": 1.3}
        maxima = [max(sigmoid_weights(rwis, t).weights.values())
                  for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a <= b + 1e-15 for a, b in zip(maxima, maxima[1:]))


class TestSelectTopK:
    def test_ordering(self):
        assert select_top_k({"a": 0.5, "b": 0.9, "c": 1.2}, 2) == ["a", "b"]

    def test_k_at_least_m(self):
        assert select_top_k({"a": 1.0, "b": 2.0}, 5) == ["a", "b"]

    def test_boundary_tie_by_id(self):
        assert select_top_k({"a": 0.5, "b": 0.9, "c": 0.9}, 2) == ["a", "b"]


def window_from(values_by_model, y_values, levels):
    """Synthetic training window; one location, one horizon per target."""
    records = []
    for i, y in enumerate(y_values):
        records.append(WindowRecord("loc", sat(i), sat(i + 1), 1, float(y),
                                    {m: tuple(v) for m, v in
                                     values_by_model(i).items()}))
    return TrainingWindow(records, levels)


class TestWindowObjective:
    def test_matches_direct_scoring(self, three):
        rng = np.random.default_rng(6)
        def vals(i):
            return {m: np.sort(rng.uniform(0, 20, size=3)) for m in "abc"}
        window = window_from(vals, rng.uniform(5, 15, size=8), three)
        w = WeightVector({"a": 0.5, "b": 0.3, "c": 0.2})
        for combiner in ("mean", "median"):
            got = window_objective(window.records, w.models(),
                                   np.array([[w[m] for m in w.models()]]),
                                   combiner, three)[0]
            expected = 0.0
            for rec in window.records:
                models = sorted(rec.values)
                matrix = np.array([rec.values[m] for m in models])
                weights = np.array([w[m] for m in models])
                q = combine_values(matrix, weights, combiner)
                q = np.maximum.accumulate(np.maximum(q, 0.0))
                expected += float(wis_terms(three.levels, q, rec.y).mean())
            assert got == pytest.approx(expected, abs=1e-12)


class TestWindowScoreTable:
    @pytest.mark.parametrize("k", [1, 3, 7, 23])
    def test_matches_per_record_scoring(self, k):
        # the one-call table equals scoring each forecast alone, bit for bit;
        # records hold different model subsets and units repeat over horizons
        rng = np.random.default_rng(30 + k)
        levels = (QuantileLevelSet((0.5,)) if k == 1 else
                  QuantileLevelSet(tuple(np.round(np.linspace(0.05, 0.95, k), 10))))
        records = []
        for i in range(12):
            models = [m for m in "abcde" if rng.uniform() < 0.8] or ["a"]
            records.append(WindowRecord(f"l{i % 2}", sat(i // 4), sat(i // 4 + i % 4 + 1),
                                        i % 4 + 1, float(rng.uniform(0, 90)),
                                        {m: tuple(np.sort(rng.uniform(0, 100, size=k)))
                                         for m in models}))
        for level_index in (None, *range(k)):
            want = {}
            for rec in records:
                for m, vals in rec.values.items():
                    terms = wis_terms(levels.levels, vals, rec.y)
                    score = float(terms.mean() if level_index is None else terms[level_index])
                    want.setdefault(m, {}).setdefault(
                        (rec.location, rec.forecast_date), []).append(score.hex())
            got = window_score_table(records, levels, level_index=level_index)
            assert {m: {u: [v.hex() for v in vs] for u, vs in units.items()}
                    for m, units in got.items()} == want
            assert list(got) == list(want)
        assert window_score_table([], levels) == {}


def scalar_objectives(records, rwis, thetas, combiner, levels, level_index=None):
    """Window totals one theta at a time, written as the per-theta search."""
    totals = []
    for theta in thetas:
        w = sigmoid_weights(rwis, theta)
        total = 0.0
        for rec in records:
            models = sorted(rec.values)
            weights = np.array([w.weights.get(m, 0.0) for m in models])
            if not weights.any():
                continue
            q = combine_values(np.array([rec.values[m] for m in models]), weights,
                               combiner)
            q = np.maximum.accumulate(np.maximum(q, 0.0))
            terms = wis_terms(levels.levels, q, rec.y)
            total += float(terms.mean() if level_index is None else terms[level_index])
        totals.append(total)
    return totals


class TestBatchedObjective:
    @pytest.mark.parametrize("combiner", ["mean", "median"])
    def test_underflowing_weights_match_scalar_oracle(self, three, combiner):
        # theta * (rel WIS gap) reaches 30 * 29.9 > 745 at the top of the grid,
        # so exp underflows: "b", then also "c", get weight 0.0 there, and the
        # records that hold only "b", "c" and the unranked "z" are skipped for
        # those rows only
        rng = np.random.default_rng(3)
        def vals(i):
            models = "bcz" if i % 3 == 0 else "abcz"
            return {m: np.sort(rng.uniform(0, 40, size=3)) for m in models}
        window = window_from(vals, rng.uniform(10, 30, size=12), three)
        rwis = {"a": 0.1, "b": 30.0, "c": 26.0}
        grid = default_theta_grid()
        feasible, weights = grid.feasible(rwis, 1.0)
        skipped = ~weights[:, 1:].any(axis=1)
        assert skipped.any() and not skipped.all()
        assert ((weights[:, 1] == 0.0) & (weights[:, 2] > 0.0)).any()

        totals = window_objective(window.records, ["a", "b", "c"], weights,
                                  combiner, three)
        oracle = scalar_objectives(window.records, rwis, feasible, combiner, three)
        assert totals.tolist() == oracle
        best = oracle.index(min(oracle))
        assert len(set(oracle)) > 1
        spec = EnsembleSpec(name="t", combiner=combiner, weighting="rel_wis_sigmoid")
        theta, w = fit_theta(window, rwis, spec, grid)
        assert theta == feasible[best]
        assert w.weights == sigmoid_weights(rwis, theta).weights

    @pytest.mark.parametrize("combiner", ["mean", "median"])
    def test_level_objective_equals_full_levels_objective(self, seven, combiner):
        # twelve components: past the eight at which numpy sums one column pairwise
        rng = np.random.default_rng(8)
        models = [f"m{i:02d}" for i in range(12)]
        def vals(i):
            return {m: np.sort(rng.uniform(0, 60, size=7)) for m in models}
        window = window_from(vals, rng.uniform(10, 50, size=6), seven)
        rwis = {m: float(v) for m, v in zip(models, rng.uniform(0.5, 2.0, size=12))}
        feasible, weights = default_theta_grid().feasible(rwis, 1.0)
        for k in range(seven.K):
            totals = window_objective(window.records, models, weights, combiner,
                                      seven, level_index=k)
            oracle = scalar_objectives(window.records, rwis, feasible, combiner,
                                       seven, level_index=k)
            assert totals.tolist() == oracle

    def test_one_objective_call_per_fit(self, three, monkeypatch):
        def vals(i):
            return {m: (4.0 + i, 5.0 + i, 6.0 + 2 * i) for m in "abc"}
        window = window_from(vals, [5.0] * 4, three)
        calls = []
        original = training.window_objective
        monkeypatch.setattr(training, "window_objective",
                            lambda *a, **kw: (calls.append(1), original(*a, **kw))[1])
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid")
        fit_theta(window, {"a": 0.5, "b": 1.0, "c": 1.5}, spec)
        assert len(calls) == 1


class TestFitTheta:
    def test_identical_components_tie_to_zero(self, three):
        def vals(i):
            return {m: (4.0, 5.0, 6.0) for m in "ab"}
        window = window_from(vals, [5.0] * 6, three)
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid")
        theta, w = fit_theta(window, {"a": 0.8, "b": 1.2}, spec)
        assert theta == 0.0
        assert w["a"] == w["b"] == 0.5

    def test_dominant_component_pushes_theta_up(self, three):
        # component "good" reproduces truth; others are offset by +50%
        def vals(i):
            y = 10.0 + i
            return {"good": (y - 1, y, y + 1),
                    "bad1": tuple(v * 1.5 for v in (y - 1, y, y + 1)),
                    "bad2": tuple(v * 1.5 for v in (y - 1, y, y + 1))}
        window = window_from(vals, [10.0 + i for i in range(8)], three)
        rwis = {"good": 0.2, "bad1": 1.0, "bad2": 1.0}
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid",
                            combiner="mean")
        grid = default_theta_grid()
        theta, w = fit_theta(window, rwis, spec, grid)
        assert theta == grid.values[-1]
        assert w["good"] >= 0.999

    def test_cap_restricts_to_equal(self, three):
        def vals(i):
            return {"a": (1.0, 2.0, 3.0), "b": (2.0, 3.0, 4.0),
                    "c": (3.0, 4.0, 5.0)}
        window = window_from(vals, [2.5] * 5, three)
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid", top_k=3,
                            max_weight=1.0 / 3.0)
        theta, w = fit_theta(window, {"a": 0.5, "b": 1.0, "c": 1.5}, spec)
        assert theta == 0.0
        assert all(v == 1.0 / 3.0 for v in w.weights.values())

    def test_empty_window_rejected(self, three):
        window = TrainingWindow([], three)
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid")
        with pytest.raises(DataError):
            fit_theta(window, {"a": 1.0}, spec)


class TestConvexWeights:
    @pytest.mark.parametrize("k", [1, 3, 7, 23])
    def test_matches_linear_program(self, k):
        # the optimum of the linear program HiGHS solves, on random windows
        # whole and per level, with integer ties, small counts and a
        # duplicated component; never worse than the exponentiated-gradient
        # loop it replaced
        from scipy.optimize import linprog
        rng = np.random.default_rng(k)
        levels = (QuantileLevelSet((0.5,)) if k == 1 else
                  QuantileLevelSet(tuple(np.round(np.linspace(0.05, 0.95, k), 10))))
        for trial in range(8):
            models = [f"m{i}" for i in range(1 if trial == 1 else int(rng.integers(2, 8)))]
            records = []
            for i in range(int(rng.integers(3, 16))):
                y = float(rng.uniform(0, 200))
                values = {m: np.sort(rng.uniform(0, 250, size=k)) for m in models}
                if trial % 2:  # integer counts, ties between components likely
                    y, values = round(y), {m: np.round(v / 10) * 10
                                           for m, v in values.items()}
                if trial in (4, 5):  # counts 0-5: degenerate vertices everywhere
                    y, values = round(y / 40), {m: np.round(v / 50)
                                                for m, v in values.items()}
                if trial % 3 == 0:
                    values["dup"] = values["m0"]
                records.append(WindowRecord("loc", sat(i), sat(i + 1), 1, y,
                                            {m: tuple(v) for m, v in values.items()}))
            models += ["dup"] if trial % 3 == 0 else []
            level_index = int(rng.integers(k)) if trial % 4 >= 2 else None
            A, y, tau = _pinball_rows(records, sorted(models), levels, level_index)
            N, M = A.shape
            lp = linprog(np.concatenate([np.zeros(M), tau, 1.0 - tau]),
                         A_eq=np.block([[A, np.eye(N), -np.eye(N)],
                                        [np.ones((1, M)), np.zeros((1, 2 * N))]]),
                         b_eq=np.append(y, 1.0), bounds=(0, None), method="highs")
            assert lp.status == 0

            got = convex_weights(records, models, levels, level_index=level_index)
            objective = _pinball_objective(A, y, tau, got.weights, sorted(models))
            assert objective == pytest.approx(lp.fun, rel=1e-9, abs=1e-12)
            loop = oracle_convex_weights(records, models, levels, level_index=level_index)
            assert objective <= _pinball_objective(A, y, tau, loop, sorted(models)) * (1 + 1e-12)
            if trial % 3 == 0:
                assert got["dup"] == got["m0"]
            if len(models) == 1:
                assert got.weights == {models[0]: 1.0}
            shuffled = [models[i] for i in rng.permutation(len(models))]
            assert convex_weights(records, shuffled, levels,
                                  level_index=level_index).weights == got.weights

    def test_non_finite_input_rejected(self, three):
        records = [WindowRecord("loc", sat(i), sat(i + 1), 1, y,
                                {"a": (1.0, 2.0, 3.0), "b": (2.0, 3.0, 4.0)})
                   for i, y in enumerate([2.5, math.nan, 3.0])]
        with pytest.raises(DataError, match="finite"):
            convex_weights(records, ["a", "b"], three)

    def test_perfect_component_dominates(self, three):
        rng = np.random.default_rng(10)
        records = []
        for i in range(10):
            y = 50.0 + 5 * i
            records.append(WindowRecord("loc", sat(i), sat(i + 1), 1, y, {
                "oracle": (y - 2, y, y + 2),
                "off1": (y * 1.4 - 2, y * 1.4, y * 1.4 + 2),
                "off2": (y * 1.3 - 2, y * 1.3, y * 1.3 + 2),
            }))
        w = convex_weights(records, ["oracle", "off1", "off2"], three)
        assert w["oracle"] >= 0.99

    def test_duplicate_components_get_equal_weight(self, three):
        rng = np.random.default_rng(12)
        records = []
        for i in range(6):
            y = float(rng.uniform(10, 30))
            base = tuple(np.sort(rng.uniform(5, 40, size=3)))
            other = tuple(np.sort(rng.uniform(5, 40, size=3)))
            records.append(WindowRecord("loc", sat(i), sat(i + 1), 1, y,
                                        {"a": base, "b": base, "c": other}))
        w = convex_weights(records, ["a", "b", "c"], three)
        assert w["a"] == pytest.approx(w["b"], abs=1e-9)

    def test_beats_all_vertices(self, three):
        rng = np.random.default_rng(14)
        records = []
        for i in range(12):
            y = float(rng.uniform(20, 80))
            records.append(WindowRecord("loc", sat(i), sat(i + 1), 1, y, {
                m: tuple(np.sort(rng.uniform(0, 100, size=3))) for m in "abc"}))
        models = ["a", "b", "c"]
        w = convex_weights(records, models, three)
        opt = _mean_objective(records, models, dict(w.weights), three)
        for m in models:
            vertex = {n: 1.0 if n == m else 0.0 for n in models}
            assert opt <= _mean_objective(records, models, vertex, three) + 1e-9

    def test_within_tolerance_of_grid_oracle(self, three):
        rng = np.random.default_rng(16)
        records = []
        for i in range(10):
            y = float(rng.uniform(20, 80))
            records.append(WindowRecord("loc", sat(i), sat(i + 1), 1, y, {
                m: tuple(np.sort(rng.uniform(0, 100, size=3))) for m in "abc"}))
        models = ["a", "b", "c"]
        w = convex_weights(records, models, three)
        opt = _mean_objective(records, models, dict(w.weights), three)
        best = math.inf
        for i in range(101):
            for j in range(101 - i):
                cand = {"a": i / 100.0, "b": j / 100.0,
                        "c": (100 - i - j) / 100.0}
                best = min(best, _mean_objective(records, models, cand, three))
        assert opt <= best + 1e-3


def _pinball_rows(records, models, levels, level_index=None):
    """One (record, level) row per pinball term over the complete records."""
    rows, ys, taus = [], [], []
    for rec in records:
        if not all(m in rec.values for m in models):
            continue
        for k, tau in enumerate(levels.levels):
            if level_index is None or k == level_index:
                rows.append([rec.values[m][k] for m in models])
                ys.append(rec.y)
                taus.append(tau)
    return np.array(rows), np.array(ys), np.array(taus)


def _pinball_objective(A, y, tau, weights, models):
    r = y - A @ np.array([weights[m] for m in models])
    return float(np.maximum(tau * r, (tau - 1.0) * r).sum())


def _mean_objective(records, models, weights, levels):
    """Mean ensemble pinball objective of the weighted-mean combiner."""
    total = 0.0
    for rec in records:
        q = np.zeros(levels.K)
        for m in models:
            q += weights[m] * np.array(rec.values[m])
        total += float(wis_terms(levels.levels, q, rec.y).mean())
    return total / len(records)


def backtest_inputs(three, n_weeks=10, models=("a", "b", "c"), loc="loc"):
    """A small deterministic backtest dataset with a baseline model."""
    rng = np.random.default_rng(20)
    subs = SubmissionSet()
    truth_final = {}
    for i in range(n_weeks + 5):
        truth_final[(loc, sat(i))] = float(50 + 10 * np.sin(i / 3.0)
                                           + rng.uniform(-3, 3))
    snapshots = {sat(i): {k: v for k, v in truth_final.items() if k[1] <= sat(i)}
                 for i in range(n_weeks + 5)}
    truth = TruthStore(snapshots)
    for i in range(n_weeks):
        for m in models:
            bias = {"a": 1.0, "b": 1.2, "c": 0.8}.get(m, 1.0)
            for h in (1, 2, 3, 4):
                y = truth_final[(loc, sat(i + h))]
                center = y * bias + rng.uniform(-1, 1)
                subs.add(make_forecast(m, loc, sat(i), h, three,
                                       np.sort([center - 5, center, center + 5])))
        # a simple flat baseline component
        last = truth_final[(loc, sat(i))]
        for h in (1, 2, 3, 4):
            subs.add(make_forecast("baseline", loc, sat(i), h, three,
                                   [max(last - 10, 0), last, last + 10]))
    return subs, truth


class TestTrainAndForecast:
    def test_equal_median_reduces_to_componentwise_median(self, three):
        subs, truth = backtest_inputs(three)
        spec = EnsembleSpec(name="ens")
        out, log_rows = train_and_forecast(subs, truth, spec,
                                           subs.forecast_dates(), three)
        for key, f in out.forecasts.items():
            comps = [subs.get(m, key.location, key.forecast_date,
                              key.target_end_date).values
                     for m in ("a", "b", "baseline", "c")]
            expected = np.median(np.array(comps), axis=0)
            assert np.allclose(f.values, np.maximum.accumulate(
                np.maximum(expected, 0)), atol=1e-12)

    def test_weight_log_shape(self, three):
        subs, truth = backtest_inputs(three)
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid",
                            window_weeks=5)
        out, log_rows = train_and_forecast(subs, truth, spec,
                                           subs.forecast_dates(), three)
        assert log_rows, "weight log must not be empty"
        for row in log_rows:
            assert set(row) == {"forecast_date", "stratum", "model", "weight",
                                "theta", "spec_id"}
            assert row["spec_id"] == "t"
        by_date = {}
        for row in log_rows:
            by_date.setdefault(row["forecast_date"], 0.0)
            by_date[row["forecast_date"]] += row["weight"]
        for total in by_date.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_first_date_falls_back_to_equal(self, three):
        subs, truth = backtest_inputs(three)
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid",
                            window_weeks=5)
        _, log_rows = train_and_forecast(subs, truth, spec,
                                         subs.forecast_dates()[:1], three)
        first = [r for r in log_rows if r["forecast_date"] == sat(0)]
        weights = {r["model"]: r["weight"] for r in first}
        assert all(w == pytest.approx(1.0 / len(weights)) for w in weights.values())

    def test_causality_future_snapshots_ignored(self, three):
        subs, truth = backtest_inputs(three)
        dates = subs.forecast_dates()[:6]
        spec = EnsembleSpec(name="t", weighting="rel_wis_sigmoid",
                            window_weeks=5)
        out1, _ = train_and_forecast(subs, truth, spec, dates, three)
        # corrupt every snapshot after the last forecast date
        cutoff = dates[-1]
        mutated = {}
        for d in truth.snapshot_dates:
            snap = dict(truth.snapshot(d))
            if d > cutoff:
                snap = {k: v * 100.0 + 7.0 for k, v in snap.items()}
            mutated[d] = snap
        out2, _ = train_and_forecast(subs, TruthStore(mutated), spec, dates, three)
        assert out1.forecasts.keys() == out2.forecasts.keys()
        for key in out1.forecasts:
            assert out1.forecasts[key].values == out2.forecasts[key].values

    def test_per_horizon_sharing_with_uniform_data_matches_per_model(self, three):
        subs, truth = backtest_inputs(three)
        dates = subs.forecast_dates()[3:6]
        base = EnsembleSpec(name="pm", weighting="rel_wis_sigmoid",
                            window_weeks=3, sharing="per_model")
        split = EnsembleSpec(name="ph", weighting="rel_wis_sigmoid",
                             window_weeks=3, sharing="per_horizon")
        _, log_pm = train_and_forecast(subs, truth, base, dates, three)
        _, log_ph = train_and_forecast(subs, truth, split, dates, three)
        strata = {r["stratum"] for r in log_ph if r["forecast_date"] == dates[-1]}
        assert strata == {"h1", "h2", "h3", "h4"}

    def test_post_hoc_beats_components_on_its_week(self, three):
        subs, truth = backtest_inputs(three)
        s = subs.forecast_dates()[5]
        records = training._records(subs, truth.latest(), [s], three)
        assert {r.forecast_date for r in records} == {s} and len(records) == 4
        models = ["a", "b", "baseline", "c"]
        w = convex_weights(records, models, three)
        opt = _mean_objective(records, models, dict(w.weights), three)
        for m in models:
            vertex = {n: 1.0 if n == m else 0.0 for n in models}
            assert opt <= _mean_objective(records, models, vertex, three) + 1e-9

    def test_post_hoc_per_horizon_fits_each_horizon(self, three):
        subs, truth = backtest_inputs(three)
        dates = subs.forecast_dates()[4:]  # every stratum has scored history
        spec = EnsembleSpec(name="ph", combiner="mean", weighting="post_hoc",
                            sharing="per_horizon")
        _, log_rows = train_and_forecast(subs, truth, spec, dates, three)
        final = truth.latest()
        by_stratum = {}
        for r in log_rows:
            by_stratum.setdefault((r["forecast_date"], r["stratum"]), {})[r["model"]] = r["weight"]
        assert {s for s, _ in by_stratum} == set(dates)
        for (s, label), logged in by_stratum.items():
            h = int(label[1:])
            t = s + h * WEEK
            record = WindowRecord("loc", s, t, h, final[("loc", t)],
                                  {m: subs.get(m, "loc", s, t).values for m in logged})
            expected = convex_weights([record], sorted(logged), three)
            assert {m: w.hex() for m, w in logged.items()} == \
                {m: expected[m].hex() for m in logged}
        assert any(by_stratum[(s, "h1")] != by_stratum[(s, "h4")] for s in dates)


def emitted_cells(subs, spec, out, levels):
    """(forecast, components in the order emission stacks them) per cell."""
    for key, f in sorted(out.forecasts.items()):
        avail = eligible_components(subs, key.location, key.forecast_date,
                                    levels, require_history=spec.trained)
        values = np.array([subs.get(m, key.location, key.forecast_date,
                                    key.target_end_date).values for m in avail])
        yield f, avail, values


class TestEmissionMatchesKernel:
    @pytest.mark.parametrize("combiner", ["mean", "median"])
    def test_emission_matches_objective_bit_for_bit(self, three, combiner,
                                                    monkeypatch):
        subs, truth = backtest_inputs(three)
        spec = EnsembleSpec(name="t", combiner=combiner,
                            weighting="rel_wis_sigmoid", window_weeks=5)
        out, log_rows = train_and_forecast(subs, truth, spec,
                                           subs.forecast_dates(), three)
        scored = []

        def recording_wis_terms(levels, q, y):
            scored.append(np.array(q))
            return wis_terms(levels, q, y)

        monkeypatch.setattr(training, "wis_terms", recording_wis_terms)
        assert out.forecasts
        for f, avail, values in emitted_cells(subs, spec, out, three):
            k = f.key
            w = WeightVector({r["model"]: r["weight"] for r in log_rows
                              if r["forecast_date"] == k.forecast_date})
            record = WindowRecord(k.location, k.forecast_date, k.target_end_date,
                                  k.horizon, 1.0,
                                  {m: tuple(v) for m, v in zip(avail, values)})
            window_objective([record], w.models(),
                             np.array([[w[m] for m in w.models()]]), combiner, three)
            assert scored[-1].tobytes() == np.array(f.values).tobytes()

    @pytest.mark.parametrize("combiner", ["mean", "median"])
    def test_per_quantile_cells_use_each_levels_weights(self, three, combiner):
        subs, truth = backtest_inputs(three, models=("a", "b", "c", "d"))
        spec = EnsembleSpec(name="pq", combiner=combiner,
                            weighting="rel_wis_sigmoid", top_k=2,
                            window_weeks=4, sharing="per_quantile")
        out, log_rows = train_and_forecast(subs, truth, spec,
                                           subs.forecast_dates(), three)
        labels = [f"q{tau:g}" for tau in three.levels]
        assert {r["stratum"] for r in log_rows} == set(labels)
        assert out.forecasts
        for f, avail, values in emitted_cells(subs, spec, out, three):
            by_label = {label: {} for label in labels}
            for r in log_rows:
                if r["forecast_date"] == f.key.forecast_date:
                    by_label[r["stratum"]][r["model"]] = r["weight"]
            weights = np.array([[by_label[label].get(m, 0.0) for label in labels]
                                for m in avail])
            q = combine_values(values, weights, combiner)
            q = np.maximum.accumulate(np.maximum(q, 0.0))
            assert q.tobytes() == np.array(f.values).tobytes()

    def test_convex_direct_cells_use_logged_weights(self, three):
        subs, truth = backtest_inputs(three)
        spec = EnsembleSpec(name="cvx", combiner="mean",
                            weighting="convex_direct", window_weeks=4)
        out, log_rows = train_and_forecast(subs, truth, spec,
                                           subs.forecast_dates(), three)
        assert out.forecasts
        for f, avail, values in emitted_cells(subs, spec, out, three):
            w = {r["model"]: r["weight"] for r in log_rows
                 if r["forecast_date"] == f.key.forecast_date}
            assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)
            q = combine_values(values, np.array([w.get(m, 0.0) for m in avail]),
                               "mean")
            q = np.maximum.accumulate(np.maximum(q, 0.0))
            assert q.tobytes() == np.array(f.values).tobytes()

    @pytest.mark.parametrize("combiner", ["mean", "median"])
    def test_per_horizon_cells_use_their_horizons_weights(self, three, combiner):
        subs, truth = backtest_inputs(three)
        spec = EnsembleSpec(name="ph", combiner=combiner, weighting="rel_wis_sigmoid",
                            window_weeks=4, sharing="per_horizon")
        out, log_rows = train_and_forecast(subs, truth, spec,
                                           subs.forecast_dates(), three)
        by_stratum = {}
        for r in log_rows:
            by_stratum.setdefault((r["forecast_date"], r["stratum"]), {})[r["model"]] = r["weight"]
        assert any(by_stratum[(s, "h1")] != by_stratum[(s, "h4")]
                   for s, _ in by_stratum)
        assert out.forecasts
        for f, avail, values in emitted_cells(subs, spec, out, three):
            w = by_stratum[(f.key.forecast_date, f"h{f.key.horizon}")]
            q = combine_values(values, np.array([w.get(m, 0.0) for m in avail]),
                               combiner)
            q = np.maximum.accumulate(np.maximum(q, 0.0))
            assert q.tobytes() == np.array(f.values).tobytes()

    def test_cell_without_weighted_components_is_skipped(self, three, caplog):
        subs, truth = backtest_inputs(three)
        for s in subs.forecast_dates():  # a location only b and c forecast
            for m in ("b", "c"):
                for h in (1, 2, 3, 4):
                    subs.add(make_forecast(m, "far", s, h, three, [1.0, 2.0, 3.0]))
        spec = EnsembleSpec(name="top1", weighting="equal", top_k=1, window_weeks=4)
        s = subs.forecast_dates()[5]
        with caplog.at_level(logging.WARNING, logger="qens.training"):
            out, log_rows = train_and_forecast(subs, truth, spec, [s], three)
        assert {r["model"]: r["weight"] for r in log_rows} == {"a": 1.0}
        assert {k.location for k in out.forecasts} == {"loc"}
        assert len(out) == 4
        for h in (1, 2, 3, 4):
            assert f"top1 {s} far h{h}: no weighted components; cell skipped" in caplog.messages
