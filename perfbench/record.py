"""Record the report.json digests that ReportCheck expects, into baseline.json.

Usage (from the root of a checkout): python3 perfbench/record.py

For each workload and each seed in RECORDED_SEEDS it runs the CLI on the
first INPUTS inputs of a run, exactly as run.py does, and stores the sha256
of each report.json.  Run it only on a commit whose reports are known to be
right: a later run of the benchmark fails every report that differs.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import sys
import time

import run
from workloads import WORKLOADS, write_input

RECORDED_SEEDS = (42, 7)
INPUTS = 12


def main() -> int:
    import numpy
    import scipy

    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    os.makedirs(workdir)
    digests: dict = {}
    try:
        for name, workload in WORKLOADS.items():
            for seed in RECORDED_SEEDS:
                found = digests.setdefault(name, {}).setdefault(str(seed), [])
                for index in range(INPUTS):
                    sub_seed = run.input_seed(seed, index)
                    csv_path = os.path.join(workdir, "input.csv")
                    out_dir = os.path.join(workdir, "out")
                    write_input(workload, sub_seed, csv_path)
                    shutil.rmtree(out_dir, ignore_errors=True)
                    result = run.launch(
                        "run", workload.cli_args(csv_path, out_dir, sub_seed), workdir,
                        time.monotonic() + run.RUN_LIMIT_S)
                    if result.code != 0:
                        raise RuntimeError(f"{name} input {sub_seed} exited {result.code}")
                    with open(os.path.join(out_dir, "report.json"), "rb") as handle:
                        found.append(hashlib.sha256(handle.read()).hexdigest())
                print(name, seed, "recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = os.path.join(run.HERE, "baseline.json")
    with open(path) as handle:
        baseline = json.load(handle)
    baseline["digests"] = digests
    baseline["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
