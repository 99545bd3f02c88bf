"""Acceptance gate: one test per criterion, each printing a PASS line.

Each test states its criterion, tolerance, and evidence. Oracles are
independent reimplementations (see conftest); randomized checks use fixed
seeds so the gate is deterministic.
"""

import datetime as dt
import math

import numpy as np
import pytest
from scipy import stats

from qens import (EnsembleSpec, QuantileLevelSet, SubmissionSet, TruthStore,
                  WeightVector, baseline_forecast, convex_weights,
                  density_from_quantiles, detect_revisions, neg_log_score,
                  relative_wis, score_table, simulate, train_and_forecast,
                  wis, wis_terms)
from qens.density import fit_tail
from qens.forecast import WEEK, save_forecasts
from qens.reporting import add_baseline
from qens.scoring import ScoreRecord
from qens.simulate import (ComponentProfile, SimSpec, persistent_skill_spec,
                           regime_switching_spec)
from qens.training import ThetaGrid, WindowRecord
from qens.combine import combine_values

from conftest import (make_forecast, oracle_relative_skill, pinball_loss,
                      random_quantile_values, sat)

SEVEN = QuantileLevelSet.seven()


def report(criterion: str, detail: str = ""):
    line = f"PASS: {criterion}"
    if detail:
        line += f" — {detail}"
    print(line)


# ------------------------------------------------------------------ 1

def test_criterion_01_wis_pinball_equivalence():
    """Per-level WIS terms equal twice an independent pinball loss (1e-12)."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 8))
        taus = np.sort(rng.uniform(0.01, 0.99, size=k))
        q = random_quantile_values(rng, k, scale=rng.uniform(1, 100))
        y = rng.uniform(-20, 120)
        terms = wis_terms(tuple(taus), tuple(q), y)
        for term, tau, qk in zip(terms, taus, q):
            worst = max(worst, abs(term - 2.0 * pinball_loss(tau, qk, y)))
    assert worst <= 1e-12
    report("criterion 1: WIS equals 2x pinball loss per level",
           f"max deviation {worst:.2e} over 10^4 randomized pairs")


# ------------------------------------------------------------------ 2

def test_criterion_02_properness_smoke():
    """True-quantile forecaster beats a +20%-of-scale shifted one in mean WIS."""
    rng = np.random.default_rng(102)
    mu, sigma = 4.0, 0.5
    true_q = np.array([math.exp(mu + sigma * stats.norm.ppf(t))
                       for t in SEVEN.levels])
    scale = true_q[-1] - true_q[0]
    shifted_q = true_q + 0.2 * scale
    draws = np.exp(rng.normal(mu, sigma, size=10_000))
    true_scores = [wis_terms(SEVEN.levels, true_q, y).mean() for y in draws]
    shifted_scores = [wis_terms(SEVEN.levels, shifted_q, y).mean() for y in draws]
    assert np.mean(true_scores) < np.mean(shifted_scores)
    report("criterion 2: properness Monte Carlo",
           f"true {np.mean(true_scores):.3f} < shifted {np.mean(shifted_scores):.3f} "
           "over 10^4 draws")


# ------------------------------------------------------------------ 3

def _score_records(spec, levels):
    records = []
    for model, units in spec.items():
        for (loc, date), scores in units.items():
            for h, score in enumerate(scores, start=1):
                key = make_forecast(model, loc, date, h, levels, [1, 2, 3]).key
                records.append(ScoreRecord(key, float(score), (float(score),) * 3))
    return records


def test_criterion_03_relative_wis_reduction_and_oracle():
    """Zero missingness: rWIS == meanWIS ratio (1e-12). 10% missingness:
    matches the brute-force pairwise oracle; geometric-vs-arithmetic Spearman
    >= 0.99."""
    three = QuantileLevelSet((0.25, 0.5, 0.75))
    rng = np.random.default_rng(103)
    models = ["baseline"] + [f"m{i:02d}" for i in range(12)]
    units = [(f"loc{j}", sat(i)) for j in range(4) for i in range(10)]

    # zero missingness
    full = {m: {u: list(rng.uniform(1, 10, size=4)) for u in units}
            for m in models}
    table = score_table(_score_records(full, three))
    mean_wis = {m: np.mean([s for ss in table[m].values() for s in ss])
                for m in table}
    for agg in ("geometric", "arithmetic"):
        rel = relative_wis(table, "baseline", agg)
        for m in models:
            expected = mean_wis[m] / mean_wis["baseline"]
            assert abs(rel.rel_wis[m] - expected) <= 1e-12

    # 10% missingness vs brute-force oracle
    sparse = {}
    for m in models:
        kept = [u for u in units if m == "baseline" or rng.uniform() > 0.10]
        sparse[m] = {u: list(rng.uniform(1, 10, size=4)) for u in kept}
    table = score_table(_score_records(sparse, three))
    unit_scores = {m: {u: list(ss) for u, ss in table[m].items()} for m in table}
    geo = relative_wis(table, "baseline", "geometric").rel_wis
    ari = relative_wis(table, "baseline", "arithmetic").rel_wis
    oracle_geo = oracle_relative_skill(unit_scores, "baseline", "geometric")
    for m in models:
        assert abs(geo[m] - oracle_geo[m]) <= 1e-12

    rho = stats.spearmanr([geo[m] for m in models],
                          [ari[m] for m in models]).statistic
    assert rho >= 0.99
    report("criterion 3: relative WIS reduction and missingness oracle",
           f"oracle match 1e-12; Spearman(geo, arith) = {rho:.4f}")


# ------------------------------------------------------------------ backtest data

def _backtest_dataset(n_weeks=24, n_models=5, seed=7):
    """Deterministic dataset: components + a flat baseline + vintage truth."""
    rng = np.random.default_rng(seed)
    subs = SubmissionSet()
    locs = ["east", "west"]
    final = {}
    for loc in locs:
        level = rng.uniform(40, 80)
        for i in range(n_weeks + 5):
            final[(loc, sat(i))] = float(level + 15 * math.sin(i / 3.0)
                                         + rng.uniform(-4, 4))
    snapshots = {sat(i): {k: v for k, v in final.items() if k[1] <= sat(i)}
                 for i in range(n_weeks + 5)}
    truth = TruthStore(snapshots)
    for i in range(n_weeks):
        for j in range(n_models):
            bias = 0.85 + 0.08 * j
            spread = 4.0 + 1.5 * j
            for loc in locs:
                for h in (1, 2, 3, 4):
                    y = final[(loc, sat(i + h))]
                    center = max(y * bias + rng.uniform(-2, 2), 1.0)
                    subs.add(make_forecast(f"m{j}", loc, sat(i), h, SEVEN,
                                           np.sort(center + spread *
                                                   np.array([-2, -1, -0.4, 0,
                                                             0.4, 1, 2]))))
        for loc in locs:
            last = final[(loc, sat(i))]
            for h in (1, 2, 3, 4):
                subs.add(make_forecast(
                    "baseline", loc, sat(i), h, SEVEN,
                    np.maximum(last + 6 * np.array([-2., -1, -0.4, 0, 0.4, 1, 2]) *
                               math.sqrt(h), 0.0)))
    return subs, truth


def test_criterion_04_theta_zero_identity():
    """A trained spec restricted to the grid {0} is bit-identical to the
    equal-weight combiner over the same component set."""
    subs, truth = _backtest_dataset(n_weeks=10)
    dates = subs.forecast_dates()[1:]  # all models have history from week 1
    for combiner in ("median", "mean"):
        trained = EnsembleSpec(name="ens", combiner=combiner,
                               weighting="rel_wis_sigmoid", window_weeks=6)
        equal = EnsembleSpec(name="ens", combiner=combiner, weighting="equal",
                             top_k=10 ** 6)  # trained eligibility, all kept
        out_t, _ = train_and_forecast(subs, truth, trained, dates, SEVEN,
                                      grid=ThetaGrid((0.0,)))
        out_e, _ = train_and_forecast(subs, truth, equal, dates, SEVEN)
        assert out_t.forecasts.keys() == out_e.forecasts.keys()
        for key in out_t.forecasts:
            assert out_t.forecasts[key].values == out_e.forecasts[key].values
    report("criterion 4: theta=0 grid is bit-identical to equal weighting",
           "median and mean combiners, 9-week backtest")


def test_criterion_05_weight_cap_equivalence():
    """max_weight = 1/top_k reproduces the equal-weight top-k ensemble
    bit-for-bit across a 20-week backtest."""
    subs, truth = _backtest_dataset(n_weeks=24)
    dates = subs.forecast_dates()[1:21]  # 20 forecast dates
    k = 3
    capped = EnsembleSpec(name="ens", weighting="rel_wis_sigmoid", top_k=k,
                          max_weight=1.0 / k, window_weeks=12)
    equal_topk = EnsembleSpec(name="ens", weighting="equal", top_k=k,
                              window_weeks=12)
    out_c, log_c = train_and_forecast(subs, truth, capped, dates, SEVEN)
    out_e, log_e = train_and_forecast(subs, truth, equal_topk, dates, SEVEN)
    assert out_c.forecasts.keys() == out_e.forecasts.keys()
    for key in out_c.forecasts:
        assert out_c.forecasts[key].values == out_e.forecasts[key].values
    report("criterion 5: weight cap 1/k equals equal-weight top-k",
           f"{len(out_c)} forecasts bit-identical over 20 weeks")


# ------------------------------------------------------------------ 6

def test_criterion_06_baseline_anchoring_and_symmetry():
    """h=1 median equals the last observation exactly on 100 random
    histories; pre-floor quantile symmetry within 1e-9 (convolution path)."""
    rng = np.random.default_rng(106)
    median_idx = SEVEN.levels.index(0.5)
    for trial in range(100):
        n = int(rng.integers(2, 12))
        values = list(np.round(rng.uniform(0, 400, size=n)))
        history = [(sat(i), float(v)) for i, v in enumerate(values)]
        out = baseline_forecast(history, SEVEN)
        assert out[0].values[median_idx] == values[-1]
    # symmetry: anchor far from zero so the floor stays inactive
    for trial in range(20):
        n = int(rng.integers(3, 10))
        values = list(50000.0 + np.round(rng.uniform(-60, 60, size=n)))
        history = [(sat(i), float(v)) for i, v in enumerate(values)]
        last = values[-1]
        for f in baseline_forecast(history, SEVEN):
            for tau, q in zip(f.levels.levels, f.values):
                mirror = f.values[f.levels.levels.index(round(1 - tau, 10))]
                assert abs((q - last) - (last - mirror)) <= 1e-9
    report("criterion 6: baseline median anchoring and symmetry",
           "100 histories exact; pre-floor symmetry within 1e-9")


# ------------------------------------------------------------------ 7

def test_criterion_07_weighted_median_robustness():
    """Corrupting one of M >= 3 equally weighted components to 1e9 leaves the
    median within [2nd smallest, 2nd largest]; the mean escapes that bracket."""
    rng = np.random.default_rng(107)
    for _ in range(1000):
        m = int(rng.integers(3, 9))
        values = rng.uniform(0, 100, size=m)
        corrupt_at = int(rng.integers(0, m))
        values[corrupt_at] = 1e9
        models = [f"m{i}" for i in range(m)]
        w = WeightVector.uniform(models)
        weights = np.array([w[name] for name in models])
        med = combine_values(values[:, None], weights, "median")[0]
        mean = combine_values(values[:, None], weights, "mean")[0]
        ordered = np.sort(values)
        second_smallest, second_largest = ordered[1], ordered[-2]
        assert second_smallest - 1e-9 <= med <= second_largest + 1e-9
        assert mean > second_largest
    report("criterion 7: weighted-median breakdown robustness",
           "10^3 corrupted slices stay inside the 2nd-order bracket")


# ------------------------------------------------------------------ 8

def test_criterion_08_tail_fit_recovery():
    """Location-scale quantiles recover (a, b) within 1e-9 for both families;
    the reconstructed CDF hits every (q_k, tau_k) exactly; total mass within
    1e-6 of one."""
    levels = QuantileLevelSet.twenty_three()
    for family, dist in (("normal", stats.norm), ("cauchy", stats.cauchy)):
        a_true, b_true = 500.0, 7.0
        values = tuple(a_true + b_true * dist.ppf(t) for t in levels.levels)
        for side, taus, qs in (("lower", levels.levels[:2], values[:2]),
                               ("upper", levels.levels[-2:], values[-2:])):
            fit = fit_tail(tuple(taus), tuple(qs), side=side, family=family)
            assert abs(fit.a - a_true) <= 1e-9
            assert abs(fit.b - b_true) <= 1e-9
        f = make_forecast("m", "loc", sat(0), 1, levels, values)
        d = density_from_quantiles(f, tail_family=family)
        for tau, q in zip(levels.levels, values):
            assert abs(d.cdf(q) - tau) <= 1e-12
        assert abs(d.total_mass() - 1.0) <= 1e-6
    report("criterion 8: tail fit recovery",
           "(a, b) within 1e-9 both families; CDF at knots within 1e-12; "
           "mass 1e-6")


# ------------------------------------------------------------------ 9

def test_criterion_09_wis_tail_invariance():
    """Identical quantiles with different tail families score identically
    under WIS (exact) while the log score differs by > 1 nat far out."""
    levels = QuantileLevelSet.twenty_three()
    values = tuple(800.0 + 30.0 * stats.norm.ppf(t) for t in levels.levels)
    f = make_forecast("m", "loc", sat(0), 1, levels, values)
    rng = np.random.default_rng(109)
    probes = rng.uniform(500, 1100, size=100)
    d_norm = density_from_quantiles(f, tail_family="normal")
    d_cauchy = density_from_quantiles(f, tail_family="cauchy")
    # WIS is a functional of the quantiles alone: reconstructing the same
    # forecast with either tail family leaves every probe score unchanged
    for y in probes:
        base = wis(f, float(y)).wis
        assert wis_terms(d_norm.levels, d_norm.values, float(y)).mean() == base
        assert wis_terms(d_cauchy.levels, d_cauchy.values, float(y)).mean() == base
    scale = (values[-1] - values[0]) / 4.0
    y_far = values[-1] + 6.0 * scale
    gap = abs(neg_log_score(d_norm, y_far) - neg_log_score(d_cauchy, y_far))
    assert gap > 1.0
    report("criterion 9: WIS tail invariance",
           f"WIS exact across tail families; log-score gap {gap:.2f} nats")


# ------------------------------------------------------------------ 10

def test_criterion_10_convex_weight_optimality():
    """Optimizer objective beats every simplex vertex and lands within 1e-3
    of a 0.01-resolution grid oracle for M = 3."""
    three = QuantileLevelSet((0.25, 0.5, 0.75))
    rng = np.random.default_rng(110)
    records = []
    for i in range(12):
        y = float(rng.uniform(20, 80))
        records.append(WindowRecord("loc", sat(i), sat(i + 1), 1, y, {
            m: tuple(np.sort(rng.uniform(0, 100, size=3))) for m in "abc"}))
    models = ["a", "b", "c"]

    def objective(weights):
        total = 0.0
        for rec in records:
            q = sum(weights[m] * np.array(rec.values[m]) for m in models)
            total += float(wis_terms(three.levels, q, rec.y).mean())
        return total / len(records)

    w = convex_weights(records, models, three)
    opt = objective(dict(w.weights))
    for m in models:
        assert opt <= objective({n: float(n == m) for n in models}) + 1e-9
    best_grid = math.inf
    for i in range(101):
        for j in range(101 - i):
            best_grid = min(best_grid, objective(
                {"a": i / 100, "b": j / 100, "c": (100 - i - j) / 100}))
    assert opt <= best_grid + 1e-3
    report("criterion 10: convex weight optimality",
           f"objective {opt:.6f} <= grid oracle {best_grid:.6f} + 1e-3")


# ------------------------------------------------------------------ 11

def test_criterion_11_revision_rule_table():
    """The 12-case hand-derived revision table (boundaries included) matches."""
    cases = [
        (100.0, 150.0, True), (100.0, 110.0, False), (0.0, 19.0, False),
        (0.0, 20.0, True), (10.0, 40.0, True), (100.0, 119.0, False),
        (100.0, 120.0, False), (50.0, 70.0, True), (50.0, 69.9, False),
        (1000.0, 1399.0, False), (1000.0, 1400.0, True), (-30.0, 30.0, True),
    ]
    for i, (initial, final, flagged) in enumerate(cases):
        found = detect_revisions({sat(i): initial}, {sat(i): final},
                                 location="loc")
        assert bool(found) == flagged, (initial, final)
    report("criterion 11: revision rule",
           "12-case table incl. 19/20 and 39.9%/40% boundaries, negative initial")


# ------------------------------------------------------------------ 12

def test_criterion_12_causality(tmp_path):
    """Mutating truth snapshots after forecast date s leaves every ensemble
    issued at s byte-identical across a full simulated backtest."""
    spec = SimSpec(seed=31, n_locations=3, n_weeks=22, components=[
        ComponentProfile(name="good"),
        ComponentProfile(name="biased", bias=1.25),
        ComponentProfile(name="noisy", center_noise=0.25),
    ], include_oracle=True, revision_prob=0.15)
    subs, truth, _ = simulate(spec)
    dates = subs.forecast_dates()
    add_baseline(subs, truth, dates, spec.levels)
    ens_spec = EnsembleSpec(name="trained", weighting="rel_wis_sigmoid",
                            window_weeks=8)

    def run(store):
        out, _ = train_and_forecast(subs, store, ens_spec, dates, spec.levels)
        path = tmp_path / f"out_{id(store)}.csv"
        save_forecasts(out, path)
        return path.read_bytes()

    original = run(truth)
    cutoff = dates[-1]
    mutated = {}
    for d in truth.snapshot_dates:
        snap = dict(truth.snapshot(d))
        if d > cutoff:
            snap = {k: v * 3.0 + 123.0 for k, v in snap.items()}
        mutated[d] = snap
    assert run(TruthStore(mutated)) == original
    report("criterion 12: causality",
           "post-date snapshot mutations leave emitted ensembles byte-identical")


# ------------------------------------------------------------------ 13

def test_criterion_13_oracle_coverage():
    """The simulator's oracle component is calibrated: |empirical - nominal|
    <= 0.02 at every level with N >= 5000 forecast-observation pairs."""
    spec = SimSpec(seed=41, n_locations=25, n_weeks=55,
                   components=[ComponentProfile(name="filler")],
                   include_oracle=True)
    subs, truth, _ = simulate(spec)
    final = truth.latest()
    hits = np.zeros(spec.levels.K)
    n = 0
    for key, f in subs.forecasts.items():
        if key.model_id != "oracle":
            continue
        y = final.get((key.location, key.target_end_date))
        if y is None:
            continue
        hits += [1.0 if y <= q else 0.0 for q in f.values]
        n += 1
    assert n >= 5000, n
    worst = max(abs(rate - tau) for tau, rate in zip(spec.levels.levels, hits / n))
    assert worst <= 0.02
    report("criterion 13: oracle calibration",
           f"N = {n}; max |empirical - nominal| = {worst:.4f} <= 0.02")


# ------------------------------------------------------------------ 14

def _mean_ensemble_wis(out: SubmissionSet, truth: TruthStore) -> float:
    final = truth.latest()
    scores = []
    for key, f in out.forecasts.items():
        y = final.get((key.location, key.target_end_date))
        if y is not None and y >= 0:
            scores.append(wis(f, y).wis)
    return float(np.mean(scores))


def _trained_vs_equal(sim_spec: SimSpec) -> tuple[float, float]:
    subs, truth, _ = simulate(sim_spec)
    dates = subs.forecast_dates()
    add_baseline(subs, truth, dates, sim_spec.levels)
    trained_spec = EnsembleSpec(name="trained", weighting="rel_wis_sigmoid",
                                window_weeks=12)
    equal_spec = EnsembleSpec(name="equal", weighting="equal")
    # skip the first date so the trained spec has history
    eval_dates = dates[1:]
    trained, _ = train_and_forecast(subs, truth, trained_spec, eval_dates,
                                    sim_spec.levels)
    equal, _ = train_and_forecast(subs, truth, equal_spec, eval_dates,
                                  sim_spec.levels)
    return (_mean_ensemble_wis(trained, truth),
            _mean_ensemble_wis(equal, truth))


def test_criterion_14_trained_vs_untrained_contrast():
    """With one persistently skilled component the trained (relative-WIS
    weighted median) ensemble beats the equal-weight median; under
    regime-switching skill (period 6, window 12) it does not."""
    t_wis, e_wis = _trained_vs_equal(persistent_skill_spec())
    assert t_wis < e_wis, (t_wis, e_wis)
    t2_wis, e2_wis = _trained_vs_equal(regime_switching_spec())
    assert t2_wis >= e2_wis, (t2_wis, e2_wis)
    report("criterion 14: trained-vs-untrained contrast",
           f"persistent skill: trained {t_wis:.2f} < equal {e_wis:.2f}; "
           f"regime switching: trained {t2_wis:.2f} >= equal {e2_wis:.2f}")
