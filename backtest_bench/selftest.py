"""Self-test of the output checks: each passes a real bundle and rejects it
with one value perturbed.

Usage, from the root of a checkout: python3 backtest_bench/selftest.py

For every workload it runs one `qens backtest` on the inputs of seed 1, runs
all checks on the bundle, then for each perturbation edits one value in a
copy of the bundle and runs the check that should catch it. It also checks
that `BENCHMARK.json` names exactly the per-layer metrics, with their units,
that the traced run prints. Exits 0 when everything holds.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import gen
from checks import Expect, run_checks, sampled_groups, read_bundle
from tracer import DERIVED_METRICS, LAYER_METRICS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SEED = 1


def edit(path: Path, pick, column: int, change) -> bool:
    """Apply `change` to one field of the first data row that `pick` accepts."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if pick(row):
            row[column] = repr(change(float(row[column])))
            break
    else:
        return False
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return True


def perturbations(ex: Expect, out: Path):
    """(check, description, edit of a bundle copy) triples."""
    bundle = read_bundle(out, ex.taus)
    cell = sorted(bundle.ensemble)[0]
    name, loc, s, h = cell
    target = (s + h * gen.WEEK).isoformat()

    def in_cell(level):
        return lambda r: (r[0], r[2], r[1], r[3], r[5]) == (
            name, loc, s.isoformat(), target, f"{level:g}")

    low = float(bundle.ensemble[cell][0])
    yield ("cells", "an ensemble quantile below the level before it",
           lambda d: edit(d / "ensemble_forecasts.csv", in_cell(ex.taus[1]), 6,
                          lambda v: low - 1.0))
    yield ("values", "an ensemble top quantile raised by 1",
           lambda d: edit(d / "ensemble_forecasts.csv", in_cell(ex.taus[-1]), 6,
                          lambda v: v + 1.0))
    yield ("weights", "a logged weight raised by 0.01",
           lambda d: edit(d / "weights.csv", lambda r: True, 3, lambda v: v + 0.01))
    yield ("scores", "a WIS value scaled by 1.001",
           lambda d: edit(d / "scores.csv", lambda r: True, 5, lambda v: v * 1.001 + 1e-3))
    yield ("scores", "the baseline's relative WIS set to 1.001",
           lambda d: edit(d / "rwis.csv", lambda r: r[0] == "baseline", 2,
                          lambda v: 1.001))
    if not ex.inputs.shape.baseline_submitted:
        yield ("baseline_median", "a baseline horizon-1 median error raised by 1",
               lambda d: edit(d / "peak_errors.csv",
                              lambda r: r[0] == "baseline" and r[3] == "1", 4,
                              lambda v: v + 1.0))
    for spec, date, stratum in sampled_groups(ex, bundle)[:1]:
        for model in sorted(bundle.weights[(spec, date, stratum)]):
            yield ("window", f"{model}'s fitted weight raised to 100 ({spec} {date} {stratum})",
                   lambda d, m=model: edit(
                       d / "weights.csv",
                       lambda r: (r[0], r[1], r[2], r[5]) == (date.isoformat(), stratum, m, spec),
                       3, lambda v: 100.0))


def main() -> int:
    sys.path.insert(0, str(SRC))
    import qens.cli

    ok = True
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    printed = {m[:2] for m in LAYER_METRICS} | set(DERIVED_METRICS)
    if {(m["name"], m["unit"]) for m in declared["per_layer"]} != printed:
        print("BENCHMARK.json per_layer differs from the traced metrics and units")
        ok = False
    for workload in sorted(gen.SHAPES):
        work = BENCH / "work" / "selftest" / workload
        shutil.rmtree(work, ignore_errors=True)
        inputs = gen.generate(workload, SEED)
        config = gen.write(inputs, work)
        if qens.cli.main(["backtest", "--config", str(config)]) != 0:
            print(f"{workload}: backtest failed")
            ok = False
            continue
        ex = Expect(inputs)
        failures = {c: e for c, e in run_checks(ex, work / "out").items() if e}
        print(f"{workload}: clean bundle {'passes' if not failures else failures}")
        ok = ok and not failures
        caught = {}
        for check, what, change in perturbations(ex, work / "out"):
            copy = work / "perturbed"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(work / "out", copy)
            if not change(copy):
                print(f"{workload}: nothing to perturb for {what}")
                ok = False
                continue
            rejected = bool(run_checks(ex, copy, only=check)[check])
            if check == "window":
                caught[what] = rejected
                continue
            print(f"{workload}: {check} {'rejects' if rejected else 'MISSES'} {what}")
            ok = ok and rejected
        if caught:
            hit = [what for what, rejected in caught.items() if rejected]
            print(f"{workload}: window rejects {len(hit)} of {len(caught)} single-weight "
                  f"perturbations{', e.g. ' + hit[0] if hit else ''}")
            ok = ok and bool(hit)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
