"""Weighted mean and interpolated weighted median combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qens import (DataError, QuantileLevelSet, ValidationError, WeightVector,
                  combine, combine_values)

from conftest import make_forecast, oracle_weighted_median, sat


def one_level(slice_, w, method):
    """The kernel on one quantile level; rows ordered by model id."""
    models = sorted(slice_)
    values = np.array([[slice_[m]] for m in models])
    weights = np.array([w[m] for m in models])
    return float(combine_values(values, weights, method)[0])


def level_mean(slice_, w):
    return one_level(slice_, w, "mean")


def level_median(slice_, w):
    return one_level(slice_, w, "median")


class TestWeightVector:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            WeightVector({"a": 0.5, "b": 0.6})

    def test_nonnegative(self):
        with pytest.raises(ValidationError):
            WeightVector({"a": 1.5, "b": -0.5})

    def test_uniform(self):
        w = WeightVector.uniform(["a", "b", "c", "d"])
        assert all(w[m] == 0.25 for m in "abcd")


class TestEffectiveWeights:
    """The kernel renormalizes over the rows it is given: the weighted mean
    of an identity matrix reads back the effective weights."""

    def test_all_available_unchanged(self):
        w = WeightVector({"a": 0.5, "b": 0.3, "c": 0.2})
        eff = combine_values(np.eye(3), np.array([w[m] for m in "abc"]), "mean")
        assert eff.tolist() == [w[m] for m in "abc"]

    def test_renormalization(self):  # hand-computed: [0.5, _, 0.2] -> 5/7, 2/7
        w = WeightVector({"a": 0.5, "b": 0.3, "c": 0.2})
        eff = combine_values(np.eye(2), np.array([w["a"], w["c"]]), "mean")
        assert eff[0] == pytest.approx(5.0 / 7.0, abs=1e-15)
        assert eff[1] == pytest.approx(2.0 / 7.0, abs=1e-15)
        # a component with no weight at a level keeps none after renormalizing
        per_level = np.array([[w["a"]] * 3, [0.0] * 3, [w["c"]] * 3])
        eff = combine_values(np.eye(3), per_level, "mean")
        assert eff[1] == 0.0
        assert eff[0] == pytest.approx(5.0 / 7.0, abs=1e-15)

    def test_no_mass_rejected(self):
        w = WeightVector({"a": 1.0, "b": 0.0})
        for method in ("mean", "median"):
            with pytest.raises(DataError):
                combine_values(np.array([[4.0]]), np.array([w["b"]]), method)
            with pytest.raises(DataError):  # one level without mass suffices
                combine_values(np.ones((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]),
                               method)


class TestWeightedMean:
    def test_identical_values(self):
        w = WeightVector.uniform(["a", "b"])
        assert level_mean({"a": 7.0, "b": 7.0}, w) == 7.0

    def test_dot_product(self):  # hand-computed: 0.5*1 + 0.25*2 + 0.25*100
        w = WeightVector({"a": 0.5, "b": 0.25, "c": 0.25})
        assert level_mean({"a": 1.0, "b": 2.0, "c": 100.0}, w) == 26.0


class TestWeightedMedian:
    def test_single_model(self):
        w = WeightVector({"a": 1.0})
        assert level_median({"a": 42.0}, w) == 42.0

    def test_two_equal_weights_interpolate(self):
        # midpoint positions 0.25 and 0.75; 0.5 interpolates to the average
        w = WeightVector.uniform(["a", "b"])
        assert level_median({"a": 1.0, "b": 3.0}, w) == 2.0

    def test_unequal_weights(self):
        # positions 0.45 and 0.95: interpolating at 0.5 gives 1.2
        w = WeightVector({"a": 0.9, "b": 0.1})
        assert level_median({"a": 1.0, "b": 3.0}, w) == pytest.approx(1.2, abs=1e-15)

    def test_outlier_robust(self):
        # 0.5 lands exactly on the middle component's position
        w = WeightVector.uniform(["a", "b", "c"])
        slice_ = {"a": 1.0, "b": 2.0, "c": 100.0}
        assert level_median(slice_, w) == 2.0
        assert level_mean(slice_, w) == pytest.approx(103.0 / 3.0)

    def test_odd_count_equals_sample_median(self):
        w = WeightVector.uniform(list("abcde"))
        slice_ = dict(zip("abcde", (3.0, 9.0, 1.0, 7.0, 5.0)))
        # 1/5 is not a dyadic float, so the position sum carries one ulp
        assert level_median(slice_, w) == pytest.approx(5.0, abs=1e-12)
        # with exactly representable weights the hit is exact
        w2 = WeightVector({"a": 0.125, "b": 0.25, "c": 0.25, "d": 0.25,
                           "e": 0.125})
        slice2 = dict(zip("abcde", (1.0, 3.0, 5.0, 7.0, 9.0)))
        assert level_median(slice2, w2) == 5.0

    def test_concentrated_weight_converges(self):
        w = WeightVector({"a": 0.999, "b": 0.001})
        result = level_median({"a": 10.0, "b": 20.0}, w)
        # position of a is 0.4995 < 0.5 < 0.9995: tiny interpolation offset
        expected = 10.0 + (0.5 - 0.4995) / 0.5 * 10.0
        assert result == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_component_ignored(self):
        w = WeightVector({"a": 0.5, "b": 0.0, "c": 0.5})
        assert level_median({"a": 1.0, "b": 2.0, "c": 3.0}, w) == 2.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        values = rng.uniform(-50, 50, size=m)
        raw = rng.uniform(0.01, 1.0, size=m)
        weights = raw / raw.sum()
        models = [f"m{i}" for i in range(m)]
        w = WeightVector(dict(zip(models, weights)))
        got = level_median(dict(zip(models, values)), w)
        assert got == pytest.approx(oracle_weighted_median(values, weights),
                                    abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bracketing(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        values = rng.uniform(-10, 10, size=m)
        raw = rng.uniform(0.01, 1.0, size=m)
        weights = raw / raw.sum()
        models = [f"m{i}" for i in range(m)]
        w = WeightVector(dict(zip(models, weights)))
        slice_ = dict(zip(models, values))
        for method, fn in (("median", level_median),
                           ("mean", level_mean)):
            got = fn(slice_, w)
            assert values.min() - 1e-12 <= got <= values.max() + 1e-12


class TestCombine:
    def components(self, three, values_by_model, loc="loc", s=None, h=1):
        s = s or sat(4)
        return {m: make_forecast(m, loc, s, h, three, v)
                for m, v in values_by_model.items()}

    def test_identical_components_fixed_point(self, three):
        comps = self.components(three, {"a": [1, 2, 3], "b": [1, 2, 3]})
        w = WeightVector.uniform(["a", "b"])
        for method in ("mean", "median"):
            out = combine(comps, w, method=method)
            assert out.values == (1.0, 2.0, 3.0)

    def test_per_level_oracle(self, three):
        rng = np.random.default_rng(9)
        vals = {m: np.sort(rng.uniform(0, 30, size=3)) for m in "abc"}
        comps = self.components(three, vals)
        w = WeightVector({"a": 0.5, "b": 0.3, "c": 0.2})
        mean_out = combine(comps, w, method="mean")
        med_out = combine(comps, w, method="median")
        for k in range(3):
            col = [vals[m][k] for m in "abc"]
            wts = [w[m] for m in "abc"]
            exp_mean = float(np.dot(col, wts))
            exp_med = oracle_weighted_median(col, wts)
            # emitted values are monotonized, but with sorted inputs
            # per-level combination is already monotone
            assert mean_out.values[k] == pytest.approx(exp_mean, abs=1e-12)
            assert med_out.values[k] == pytest.approx(exp_med, abs=1e-12)

    def test_monotone_output(self, three):
        rng = np.random.default_rng(21)
        for _ in range(50):
            vals = {m: np.sort(rng.uniform(0, 30, size=3)) for m in "abcd"}
            comps = self.components(three, vals)
            w = WeightVector.uniform(list("abcd"))
            for method in ("mean", "median"):
                out = combine(comps, w, method=method).values
                assert all(lo <= hi for lo, hi in zip(out, out[1:]))

    def test_level_mismatch_rejected(self, three):
        other = QuantileLevelSet((0.1, 0.5, 0.9))
        comps = {"a": make_forecast("a", "loc", sat(4), 1, three, [1, 2, 3]),
                 "b": make_forecast("b", "loc", sat(4), 1, other, [1, 2, 3])}
        with pytest.raises(DataError):
            combine(comps, WeightVector.uniform(["a", "b"]))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            combine({}, WeightVector({"a": 1.0}))

    def test_missing_component_renormalized(self, three):
        comps = self.components(three, {"a": [1, 2, 3], "c": [5, 6, 7]})
        w = WeightVector({"a": 0.5, "b": 0.3, "c": 0.2})
        out = combine(comps, w, method="mean")
        # weights renormalize to 5/7, 2/7
        assert out.values[0] == pytest.approx((5 * 1 + 2 * 5) / 7.0, abs=1e-12)


class TestCombineValuesKernel:
    def test_mean_matrix(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = combine_values(values, np.array([0.25, 0.75]), "mean")
        assert out.tolist() == [2.5, 3.5]

    def test_unknown_method(self):
        with pytest.raises(DataError):
            combine_values(np.ones((1, 1)), np.ones(1), "mode")

    def test_no_components_rejected(self):
        with pytest.raises(DataError):
            combine_values(np.empty((0, 3)), np.empty(0), "median")

    def test_ties_break_by_row_order(self):
        # positions 0.2, 0.25 + 0.2, 0.75 (or 0.65, 0.95 when the tied rows
        # swap weights): 0.5 lands between the tied 2s, or between 1 and 2
        values = np.array([[1.0], [2.0], [2.0]])
        assert combine_values(values, np.array([0.4, 0.1, 0.5]), "median")[0] == 2.0
        got = combine_values(values, np.array([0.4, 0.5, 0.1]), "median")[0]
        assert got == pytest.approx(1.0 + 0.3 / 0.45, abs=1e-12)

    def test_raw_weights_renormalized_per_level(self):
        values = np.array([[1.0, 10.0], [3.0, 30.0]])
        scaled = combine_values(values, np.array([[2.0, 0.5], [2.0, 1.5]]), "mean")
        assert scaled.tolist() == [2.0, 25.0]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracles_with_ties_zeros_and_per_level_weights(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3, 7, 23]))
        if rng.random() < 0.5:
            values = rng.integers(-3, 4, size=(m, k)) * 10.0  # many ties
        else:
            values = rng.uniform(-50, 50, size=(m, k))
        per_level = rng.random() < 0.5
        raw = rng.uniform(0.0, 1.0, size=(m, k) if per_level else m)
        raw[rng.random(raw.shape) < 0.3] = 0.0
        if per_level:
            raw[rng.integers(0, m, size=k), np.arange(k)] = rng.uniform(0.1, 1.0, size=k)
            # the kernel breaks value ties by row and the oracle by weight:
            # sort each level's (value, weight) pairs so the two agree
            for col in range(k):
                order = np.lexsort((raw[:, col], values[:, col]))
                values[:, col], raw[:, col] = values[order, col], raw[order, col]
        else:
            raw[rng.integers(0, m)] = rng.uniform(0.1, 1.0)
            order = np.argsort(raw, kind="stable")
            values, raw = values[order], raw[order]
        weights = raw if per_level else np.repeat(raw[:, None], k, axis=1)
        got = combine_values(values, raw, "median")
        for col in range(k):
            expected = oracle_weighted_median(values[:, col], weights[:, col])
            assert got[col] == pytest.approx(expected, abs=1e-12)
        mean = combine_values(values, raw, "mean")
        for col in range(k):
            v, w = values[:, col], weights[:, col]
            expected = sum(x * y for x, y in zip(v, w)) / sum(w)
            assert mean[col] == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_batched_rows_equal_unbatched_calls(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 6))
        m = int(rng.integers(1, 31))  # past 8 rows, where numpy sums pairwise
        k = int(rng.choice([1, 2, 3, 7, 23]))
        if rng.random() < 0.5:
            values = rng.integers(-3, 4, size=(m, k)) * 10.0  # many ties
        else:
            values = rng.uniform(-50, 50, size=(m, k))
        per_level = rng.random() < 0.5
        raw = rng.uniform(0.0, 1.0, size=(t, m, k if per_level else 1))
        raw[rng.random(raw.shape) < 0.4] = 0.0
        if rng.random() < 0.3:
            raw[rng.integers(0, t), rng.integers(0, m)] = 0.0  # a row-wide zero
        # every weight row keeps some mass at every level
        for row in range(t):
            for col in range(raw.shape[2]):
                if not raw[row, :, col].any():
                    raw[row, rng.integers(0, m), col] = rng.uniform(0.1, 1.0)
        if rng.random() < 0.3:
            raw[:, rng.integers(0, m)] = 1e-320  # subnormal weights
        for method in ("mean", "median"):
            batched = combine_values(values, raw, method)
            assert batched.shape == (t, k)
            for row in range(t):
                single = raw[row] if per_level else raw[row, :, 0]
                expected = combine_values(values, single, method)
                assert batched[row].tobytes() == expected.tobytes()

    def test_batch_with_a_massless_row_rejected(self):
        weights = np.array([[[1.0], [0.0]], [[0.0], [0.0]]])
        with pytest.raises(DataError):
            combine_values(np.ones((2, 3)), weights, "median")

    @given(st.integers(0, 2 ** 32 - 1), st.integers(8, 60), st.integers(2, 23))
    @settings(max_examples=100, deadline=None)
    def test_one_level_mean_equals_its_level_in_a_larger_set(self, seed, m, k):
        # numpy sums a lone (M, 1) column pairwise from 8 rows on; the kernel
        # must add sequentially whatever the number of levels
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1000.0, size=(m, k))
        raw = rng.uniform(0.01, 1.0, size=m)
        batch = rng.uniform(0.01, 1.0, size=(3, m, 1))
        full = combine_values(values, raw, "mean")
        full_batch = combine_values(values, batch, "mean")
        for col in range(k):
            one = values[:, col:col + 1]
            assert combine_values(one, raw, "mean").tobytes() == full[col:col + 1].tobytes()
            assert (combine_values(one, batch, "mean").tobytes()
                    == full_batch[:, col:col + 1].tobytes())
