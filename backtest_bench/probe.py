"""Set-up probe: import `qens` and read one workload's inputs in a fresh interpreter.

Usage: python3 probe.py <src dir> <workload dir>. Prints one JSON line with
the seconds from the first statement to the end of the import and of the
reads, the mean seconds of two reference workload runs after them, and how many
forecasts and anomalies were read. Exits 1 if `qens` was not imported from
<src dir>.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

src, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(src))
import qens.cli  # noqa: E402,F401

imported = time.perf_counter()
from qens.analysis import load_anomalies  # noqa: E402
from qens.forecast import load_truth_dir  # noqa: E402
from qens.reporting import load_forecast_dir  # noqa: E402

subs = load_forecast_dir(work / "forecasts")
load_truth_dir(work / "truth")
anomalies = load_anomalies(work / "anomalies.csv")
done = time.perf_counter()
from reference import reference_seconds  # noqa: E402  (not timed: it imports numpy)

ref = (reference_seconds() + reference_seconds()) / 2
if not Path(qens.__file__).resolve().is_relative_to(src.resolve()):
    sys.exit(f"imported qens from {qens.__file__}, not from {src}")
print(json.dumps({"import_s": imported - START, "setup_s": done - START, "ref": ref,
                  "forecasts": len(subs), "anomalies": len(anomalies)}))
