"""The forecast CSV loader against the row-by-row oracle, on generated files."""

import csv
import datetime as dt
import itertools
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qens import QensError, QuantileLevelSet, load_forecasts

from conftest import oracle_load_forecasts, sat

HEADER = ["model", "forecast_date", "location", "target_end_date", "type",
          "quantile", "value"]
LEVELS = QuantileLevelSet.seven().levels
BAD_LEVELS = ["nan", "x", "1.5", "", "inf", "1e400", "0", "1", "-0.25"]
BAD_VALUES = ["-1", "nan", "x", "-0.0", "", "NaN", "inf", "-inf", "1e400"]


def date_texts(d):
    """Spellings that `date.fromisoformat` reads as d."""
    year, week, day = d.isocalendar()
    return [d.isoformat(), d.strftime("%Y%m%d"), f"{year}-W{week:02d}-{day}"]


def level_texts(tau):
    return [repr(tau), f"{tau:.4f}", f"{tau:.3e}", repr(tau).lstrip("0")]


@st.composite
def forecast_files(draw):
    """One or two CSV files (header, rows): forecasts with mutations, shuffled.

    A row of [] is a blank line.
    """
    cells = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from("XY"),
                                    st.integers(0, 2), st.integers(1, 4)),
                          min_size=1, max_size=6, unique=True))
    rows = []
    for model, loc, d, h in cells:
        taus = sorted(draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=7,
                                    unique=True)))
        steps = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0, 1e5),
                              min_size=len(taus), max_size=len(taus)))
        values = list(itertools.accumulate(steps))  # zero steps make ties
        for tau, value in zip(taus, values):
            rows.append([model, draw(st.sampled_from(date_texts(sat(d)))), loc,
                         draw(st.sampled_from(date_texts(sat(d + h)))), "quantile",
                         draw(st.sampled_from(level_texts(tau))), repr(value)])
    originals = list(rows)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["cross", "value", "duplicate", "other", "blank",
                                     "width", "level", "date", "horizon"]))
        i = draw(st.integers(0, len(originals) - 1))
        row = originals[i]
        if kind == "cross":  # in place: a value out of order
            rows[i] = row[:6] + [draw(st.sampled_from(["0", "1e7"]))]
        elif kind == "value":
            rows[i] = row[:6] + [draw(st.sampled_from(BAD_VALUES))]
        elif kind == "duplicate":
            rows.append(row[:5] + [draw(st.sampled_from(level_texts(float(row[5])))),
                                   row[6]])
        elif kind == "other":
            rows.append(row[:4] + ["point", "", draw(st.sampled_from(BAD_VALUES))])
        elif kind == "blank":
            rows.append([])
        elif kind == "width":
            rows.append(row[:-1] if draw(st.booleans()) else row + ["extra"])
        elif kind == "level":  # in place, and with a twin when doubled
            rows[i] = row[:5] + [draw(st.sampled_from(BAD_LEVELS)), row[6]]
            if draw(st.booleans()):
                rows.append(rows[i][:6] + [repr(float(row[6]) + 1.0)])
        elif kind == "date":
            j = draw(st.sampled_from([1, 3]))
            rows[i] = row[:j] + [draw(st.sampled_from(["x", "2021-02-30"]))] + row[j + 1:]
        else:
            days = draw(st.sampled_from([-7, 0, 10, 35]))
            target = dt.date.fromisoformat(row[1]) + dt.timedelta(days=days)
            rows[i] = row[:3] + [target.isoformat()] + row[4:]
    rows = draw(st.permutations(rows))
    split = draw(st.integers(0, len(rows)))
    parts = [rows] if draw(st.booleans()) else [rows[:split], rows[split:]]
    files = []
    for part in parts:
        header = HEADER if draw(st.integers(0, 19)) < 19 else draw(st.sampled_from(
            [HEADER[:-1], HEADER[::-1], HEADER + ["note"]]))
        files.append((header, part))
    return files


def outcome(load, paths):
    try:
        return load(*paths), None
    except Exception as e:  # compared below, class and message
        return None, e


def contents(subs):
    return [(key, tuple(map(float.hex, f.levels.levels)), tuple(map(float.hex, f.values)))
            for key, f in subs.forecasts.items()]


NAN_TWINS = [(HEADER, [["a", "2021-01-02", "X", "2021-01-09", "quantile", "nan", "1.0"],
                       ["a", "2021-01-02", "X", "2021-01-09", "quantile", "nan", "2.0"]])]


@settings(max_examples=400, deadline=None)
@given(forecast_files())
@example(NAN_TWINS)  # two NaN levels are two levels, not a duplicate
def test_loader_matches_row_by_row_oracle(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (header, rows) in enumerate(files):
            path = Path(tmp) / f"part{i}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            paths.append(path)
        expected, expected_error = outcome(oracle_load_forecasts, paths)
        got, error = outcome(load_forecasts, paths)
    assert error is None or isinstance(error, QensError), repr(error)
    assert type(error) is type(expected_error)
    assert str(error) == str(expected_error)
    assert getattr(error, "line", None) == getattr(expected_error, "line", None)
    if error is None:
        assert contents(got) == contents(expected)  # keys in insertion order
        # one level set object per distinct level tuple
        assert (len({id(f.levels) for f in got})
                == len({f.levels.levels for f in got}))
