"""Backtest benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 backtest_bench/run.py --workload deaths-trained --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from the seed, then runs `qens backtest`
rounds in one long-lived process until the rounds add up to `--seconds`,
checking every round's bundle between rounds, and times `qens` set-up in a
fresh interpreter after each of the first five rounds. Each round and each
set-up is timed beside a fixed reference workload (`reference.py`) and
reported at the reference's nominal speed, so that the machine's slow and
fast phases cancel out of the figures. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`;
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. No round or probe of these workloads is expected to fail, so
one that does makes the run incorrect; a run left without a sample of some
metric prints no result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import gen
from checks import Expect, run_checks
from reference import REFERENCE_S
from tracer import DERIVED_METRICS, LAYER_METRICS, layer_metric

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 5
MIN_ROUNDS = 3
REPLY_TIMEOUT_S = 150.0
# One thread for numerical libraries: rounds then do not compete with each
# other's threads on a small machine, and repeat more closely.
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def probe_setup(work: Path) -> dict | None:
    """Import and input reads in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(SRC), str(work)],
                          env=ENV, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        log(done.stderr.strip())
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


class Child:
    """The long-lived backtest process and its line protocol."""

    def __init__(self, config: Path, out: Path, stderr_path: Path):
        self._stderr = open(stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(SRC), str(config), str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            env=ENV, text=True)
        self.read()

    def read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("backtest process stopped answering")
        return json.loads(line)

    def ask(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qens" / "__init__.py").is_file():
        log(f"no qens sources under {SRC}")
        return 2

    work = BENCH / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(args.workload, args.seed)
    config = gen.write(inputs, work)
    expect = Expect(inputs)
    n_forecasts = sum(len(by_h) for by_h in inputs.forecasts.values())

    attempted = failed = 0
    correct = True
    probes, plain, traced, layers, rounds_log = [], [], [], [], []

    def probe() -> None:
        nonlocal attempted, failed, correct
        attempted += 1
        p = probe_setup(work)
        if p is None:
            failed += 1
            correct = False
            return
        if p["forecasts"] != n_forecasts or p["anomalies"] != len(inputs.initial):
            log(f"set-up read {p['forecasts']} forecasts and {p['anomalies']} anomalies")
            correct = False
        probes.append(p)

    # Set-up probes alternate with the first rounds, so that both sample
    # the machine over most of the run rather than one stretch of it.
    child = Child(config, work / "out", work / "backtest.stderr")
    try:
        measured = 0.0
        rounds = 0
        while rounds < MIN_ROUNDS + args.trace or measured < args.seconds:
            is_traced = bool(args.trace) and rounds % 2 == 1
            rounds += 1
            reply = child.ask({"traced": is_traced})
            attempted += 1
            measured += reply["seconds"]
            if reply["code"] != 0:
                # A failed round can take no time at all, so rounds would
                # not add up to --seconds: the first one ends the run.
                log(f"round {rounds}: qens backtest returned {reply['code']}")
                failed += 1
                correct = False
                break
            (traced if is_traced else plain).append(reply["seconds"] * REFERENCE_S / reply["ref"])
            rounds_log.append((reply["seconds"], reply["ref"]))
            if is_traced:
                layers.append(reply["layers"])
            for check, errors in run_checks(expect, work / "out").items():
                for error in errors:
                    log(f"check {check} failed: {error}")
                correct = correct and not errors
            if rounds <= SETUP_PROBES:
                probe()
        peak_kib = child.ask({"quit": True})["peak_rss_kib"]
    finally:
        child.close()
    for _ in range(rounds, SETUP_PROBES):
        probe()
    log(f"{args.workload} seed {args.seed}: (round s, reference s) "
        f"{[(round(t, 3), round(r, 4)) for t, r in rounds_log]}; (set-up s, reference s) "
        f"{[(round(p['setup_s'], 3), round(p['ref'], 4)) for p in probes]}")

    if not plain or not probes or (args.trace and not traced):
        log("no successful round or set-up probe to report")
        return 1
    if args.trace:
        metrics = {}
        for name, unit, kind, layer in LAYER_METRICS:
            value = float(median([layer_metric(l, kind, layer) for l in layers]))
            metrics[name] = {"value": value, "unit": unit}
        derived = {
            "training.theta_per_fit": median(
                [layer_metric(l, "calls", "training.window_objective")
                 / max(layer_metric(l, "calls", "training.fit_theta"), 1)
                 for l in layers]),
            "cli.import_s": median([p["import_s"] for p in probes]),
            "trace.overhead": median(traced) / median(plain),
        }
        for name, unit in DERIVED_METRICS:
            metrics[name] = {"value": derived[name], "unit": unit}
    else:
        metrics = {
            "backtest_s": {"value": median(plain), "unit": "s"},
            "setup_s": {"value": median([p["setup_s"] * REFERENCE_S / p["ref"]
                                         for p in probes]), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
