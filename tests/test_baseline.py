"""Random-walk baseline forecaster and its sample-quantile rule."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qens import DataError, QuantileLevelSet, baseline_forecast
from qens import baseline
from qens.baseline import difference_multiset, sample_quantile_type7

from conftest import oracle_baseline_values, sat

LEVEL_SETS = (QuantileLevelSet.seven(), QuantileLevelSet(
    (0.01, 0.025) + tuple(round(0.05 * i, 10) for i in range(1, 19)) + (0.95, 0.975, 0.99)))


def history(values, start=0):
    return [(sat(start + i), float(v)) for i, v in enumerate(values)]


class TestDifferenceMultiset:
    def test_symmetric(self):
        d = difference_multiset([10.0, 12.0, 9.0])
        assert sorted(d) == [-3.0, -2.0, 2.0, 3.0]

    def test_too_short(self):
        with pytest.raises(DataError):
            difference_multiset([5.0])


class TestSampleQuantileType7:
    def test_interpolated(self):  # hand-computed: h = 2.5
        assert sample_quantile_type7([1, 2, 3, 4], 0.5) == 2.5

    def test_extremes(self):
        samples = [7, 1, 9, 4]
        assert sample_quantile_type7(samples, 0.0) == 1.0
        assert sample_quantile_type7(samples, 1.0) == 9.0

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(0, 100, size=37)
        for p in (0.01, 0.2, 0.5, 0.9, 0.975):
            expected = float(np.quantile(samples, p, method="linear"))
            assert sample_quantile_type7(samples, p) == pytest.approx(expected,
                                                                      abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            sample_quantile_type7([], 0.5)


class TestBaselineForecast:
    def test_constant_history_degenerate(self, seven):
        out = baseline_forecast(history([5, 5, 5]), seven)
        for f in out:
            assert f.values == (5.0,) * 7

    def test_h1_median_equals_last_observation(self, seven):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            values = np.round(rng.uniform(0, 500, size=n))
            out = baseline_forecast(history(list(values)), seven)
            h1 = out[0]
            assert h1.key.horizon == 1
            median = h1.values[h1.levels.levels.index(0.5)]
            assert median == values[-1]

    def test_two_point_history_tail(self, seven):
        # hand-computed: history [10, 2] has one difference (-8), so the
        # symmetric innovation multiset is {-8, 8} and the h=1 samples are
        # {2 - 8, 2 + 8} = {-6, 10}. Type-7 at tau=0.025 interpolates to
        # -6 + 0.025 * 16 = -5.6, floored to 0; at tau=0.975 it gives
        # -6 + 0.975 * 16 = 9.6 (no flooring).
        out = baseline_forecast(history([10, 2]), seven)
        h1 = out[0]
        assert h1.values[0] == 0.0
        assert h1.values[-1] == pytest.approx(9.6, abs=1e-12)

    def test_symmetry_before_floor(self, seven):
        # large level keeps the floor inactive, exposing pre-floor quantiles
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            values = 10000.0 + np.round(rng.uniform(-50, 50, size=n))
            out = baseline_forecast(history(list(values)), seven)
            last = values[-1]
            for f in out:
                for tau, q in zip(f.levels.levels, f.values):
                    mirror = f.values[f.levels.levels.index(round(1 - tau, 10))]
                    assert (q - last) == pytest.approx(last - mirror, abs=1e-9)

    def test_interval_width_grows_with_horizon(self, seven):
        out = baseline_forecast(history([100, 120, 90, 130, 105]), seven)
        widths = [f.values[-1] - f.values[0] for f in out]
        assert all(w2 >= w1 for w1, w2 in zip(widths, widths[1:]))

    def test_monotone_levels(self, seven):
        out = baseline_forecast(history([3, 9, 1, 4]), seven)
        for f in out:
            assert all(lo <= hi for lo, hi in zip(f.values, f.values[1:]))

    def test_mc_path_deterministic(self, seven):
        # tiny support cap forces the Monte Carlo path
        values = list(np.random.default_rng(1).uniform(0, 1000, size=12))
        a = baseline_forecast(history(values), seven, seed=42, support_cap=4)
        b = baseline_forecast(history(values), seven, seed=42, support_cap=4)
        assert [f.values for f in a] == [f.values for f in b]

    def test_mc_symmetry_within_tolerance(self, seven):
        # on the Monte Carlo path, symmetry about the last value holds to
        # within sampling noise (0.5% of the forecast scale)
        rng = np.random.default_rng(17)
        values = list(20000.0 + np.cumsum(rng.uniform(-40, 40, size=200)))
        mc = baseline_forecast(history(values), seven, seed=3, support_cap=4)
        last = values[-1]
        scale = mc[-1].values[-1] - mc[-1].values[0]
        for f in mc:
            for tau, q in zip(f.levels.levels, f.values):
                mirror = f.values[f.levels.levels.index(round(1 - tau, 10))]
                assert abs((q - last) - (last - mirror)) <= 0.005 * scale

    def test_insufficient_history(self, seven):
        with pytest.raises(DataError):
            baseline_forecast(history([5]), seven)

    def test_key_metadata(self, seven):
        out = baseline_forecast(history([5, 6], start=3), seven,
                                model_id="rw", location="here")
        assert out[0].key.model_id == "rw"
        assert out[0].key.location == "here"
        assert out[0].key.forecast_date == sat(4)
        assert [f.key.horizon for f in out] == [1, 2, 3, 4]


def assert_matches_oracle(values, levels, **kwargs):
    out = baseline_forecast(history(values), levels, seed=11, **kwargs)
    expected = oracle_baseline_values(values, levels, seed=11, **kwargs)
    for f, want in zip(out, expected):
        assert np.array(f.values).tobytes() == want.tobytes()


@st.composite
def small_step_walks(draw):
    """Integer walks whose steps stay below the history length, so every
    convolution step fits the offset grid."""
    n = draw(st.integers(2, 40))
    start = draw(st.integers(-50, 1000))
    steps = draw(st.lists(st.integers(-(n - 2), n - 2), min_size=n - 1,
                          max_size=n - 1))
    return list(start + np.concatenate([[0], np.cumsum(steps)]))


class TestBaselineAgainstSortingOracle:
    """The sort-free convolution and single read-out against the np.unique
    convolution with per-level type-7 reads, compared byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.integers(-300, 3000), min_size=2, max_size=30),
           levels=st.sampled_from(LEVEL_SETS))
    @example(values=[10, 2], levels=LEVEL_SETS[0])
    @example(values=[5, 5, 5, 5], levels=LEVEL_SETS[1])
    @example(values=[0, 0, 3, 3, 3, -2, 0], levels=LEVEL_SETS[0])
    def test_integer_histories(self, values, levels):
        assert_matches_oracle(values, levels)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-100.0, 5000.0, allow_nan=False),
                           min_size=2, max_size=12),
           levels=st.sampled_from(LEVEL_SETS))
    @example(values=[1.5, 2.25], levels=LEVEL_SETS[0])
    def test_non_integer_histories(self, values, levels):
        assert_matches_oracle(values, levels)

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.integers(0, 500), min_size=2, max_size=30),
           support_cap=st.sampled_from([1, 4, 60]))
    def test_monte_carlo(self, values, support_cap):
        assert_matches_oracle(values, LEVEL_SETS[0], support_cap=support_cap,
                              mc_paths=999)

    @pytest.mark.parametrize("values", [
        [0, 10 ** 6, 3, 10 ** 6 + 7, 12],  # bin span above the pairwise-sum count
        [0, 1] * 2500 + [0],  # 10,000 differences: 10**16 paths at h = 4
    ], ids=["span", "total"])
    def test_guards_fall_back_to_sorting(self, values, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(baseline.np, "unique",
                            lambda *a, **k: calls.append(1) or unique(*a, **k))
        assert_matches_oracle(values, LEVEL_SETS[1])
        assert calls

    @settings(max_examples=60, deadline=None)
    @given(values=small_step_walks(), levels=st.sampled_from(LEVEL_SETS))
    def test_integer_path_never_sorts(self, values, levels):
        def refuse(*args, **kwargs):
            raise AssertionError("integer history fell back to np.unique")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baseline.np, "unique", refuse)
            out = baseline_forecast(history(values), levels, seed=11)
        expected = oracle_baseline_values(values, levels, seed=11)
        for f, want in zip(out, expected):
            assert np.array(f.values).tobytes() == want.tobytes()
