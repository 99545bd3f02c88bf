"""The SubmissionSet cell index against brute-force scans of the flat dict.

The scans below answer each question the way the library did before it kept
an index: by looking at every forecast key. They serve as the oracle for
random submission sets with missing horizons and mixed level sets, built in
random order, partly through `merge`, and after a CSV round trip.
"""

import datetime as dt
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from qens import (ForecastKey, QuantileLevelSet, SubmissionSet,
                  eligible_components, load_forecasts, save_forecasts)
from qens.forecast import HORIZONS, WEEK

from conftest import make_forecast, sat

LEVEL_SETS = (QuantileLevelSet((0.25, 0.5, 0.75)), QuantileLevelSet((0.1, 0.5, 0.9)))
MODELS = ("a", "b", "c")
LOCATIONS = ("x", "y", "z")
QUERY_DATES = [sat(i) for i in range(-1, 6)]
QUERY_LOCATIONS = LOCATIONS + ("w",)


def scan_eligible(subs, location, forecast_date, levels, require_history):
    eligible = []
    for m in sorted({k.model_id for k in subs.forecasts}):
        by_h = {}
        for h in HORIZONS:
            key = ForecastKey(m, location, forecast_date, forecast_date + h * WEEK)
            if key in subs.forecasts:
                by_h[h] = subs.forecasts[key]
        if set(by_h) != set(HORIZONS):
            continue
        if any(f.levels != levels for f in by_h.values()):
            continue
        if require_history and not any(k.model_id == m and k.forecast_date < forecast_date
                                       for k in subs.forecasts):
            continue
        eligible.append(m)
    return eligible


def assert_index_matches_scans(subs):
    keys = subs.forecasts
    assert subs.models() == sorted({k.model_id for k in keys})
    assert subs.locations() == sorted({k.location for k in keys})
    assert subs.forecast_dates() == sorted({k.forecast_date for k in keys})
    for s in QUERY_DATES:
        assert subs.locations_on(s) == sorted({k.location for k in keys
                                               if k.forecast_date == s})
        for loc in QUERY_LOCATIONS:
            for levels in LEVEL_SETS:
                for history in (False, True):
                    assert (eligible_components(subs, loc, s, levels, history)
                            == scan_eligible(subs, loc, s, levels, history))


# (model, location, date index) -> (horizons present, level set index, a
# horizon on the other level set or None); most submissions are complete
submissions = st.dictionaries(
    st.tuples(st.sampled_from(MODELS), st.sampled_from(LOCATIONS), st.integers(0, 4)),
    st.tuples(st.one_of(st.just(frozenset(HORIZONS)),
                        st.frozensets(st.sampled_from(HORIZONS))),
              st.integers(0, 1), st.one_of(st.none(), st.sampled_from(HORIZONS))),
    max_size=24)


@settings(max_examples=60, deadline=None)
@given(submitted=submissions, data=st.data())
def test_index_matches_scans(submitted, data):
    forecasts = [make_forecast(m, loc, sat(i), h, LEVEL_SETS[j ^ (h == odd)], [1, 2, 3])
                 for (m, loc, i), (horizons, j, odd) in submitted.items()
                 for h in sorted(horizons)]
    forecasts = data.draw(st.permutations(forecasts))
    split = data.draw(st.integers(0, len(forecasts)))
    subs, other = SubmissionSet(), SubmissionSet()
    for f in forecasts[:split]:
        subs.add(f)
    for f in forecasts[split:]:
        other.add(f)
    subs.merge(other)
    assert len(subs) == len(forecasts)
    assert_index_matches_scans(subs)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        save_forecasts(subs, path)
        loaded = load_forecasts(path)
    assert loaded.forecasts.keys() == subs.forecasts.keys()
    assert_index_matches_scans(loaded)


def test_empty_set_answers_empty():
    subs = SubmissionSet()
    assert subs.models() == subs.locations() == subs.forecast_dates() == []
    assert subs.locations_on(dt.date(2021, 1, 2)) == []
    assert eligible_components(subs, "x", dt.date(2021, 1, 2), LEVEL_SETS[0], True) == []
