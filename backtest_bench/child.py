"""The backtest process: imports `qens` once, then runs rounds on request.

Usage: python3 child.py <src dir> <run config> <output dir>. Reads one JSON
command per line on stdin, {"traced": bool} for a round or {"quit": true},
and answers each with one JSON line on the original stdout. A round empties
the output directory, then times `qens.cli.main(["backtest", ...])` between
two runs of the reference workload, whose mean time it reports too; the
program's own console output goes to /dev/null.
"""

import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

src, config, out = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
replies = os.fdopen(os.dup(1), "w", buffering=1)
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
sys.path.insert(0, str(src))

import qens  # noqa: E402
import qens.cli  # noqa: E402

from reference import reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402

if not Path(qens.__file__).resolve().is_relative_to(src.resolve()):
    sys.exit(f"imported qens from {qens.__file__}, not from {src}")
replies.write(json.dumps({"ready": True}) + "\n")
for line in sys.stdin:
    command = json.loads(line)
    if command.get("quit"):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        replies.write(json.dumps({"peak_rss_kib": peak}) + "\n")
        break
    shutil.rmtree(out, ignore_errors=True)
    tracer = Tracer() if command["traced"] else None
    gc.collect()
    ref = reference_seconds()
    if tracer:
        tracer.install(qens)
    start = time.perf_counter()
    try:
        code = qens.cli.main(["backtest", "--config", config])
    except Exception:  # a crash is one failed round; the next round still runs
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    ref = (ref + reference_seconds()) / 2
    replies.write(json.dumps({"code": code, "seconds": seconds, "ref": ref,
                              "layers": tracer.layers() if tracer else None}) + "\n")
