"""Benchmark of ``smoothbench benchmark``, measured from outside the program.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run warms the bytecode and file caches with one import-only launch, then
repeats cycles for S seconds, one at a time.  Cycle i writes the workload's
surveillance CSV from input seed N*1000+i, which is also the CLI's --seed,
and runs the CLI on it in a fresh interpreter; with --trace 1 it runs an
untraced and a traced launch on the same input.  A new input per cycle makes
the medians less dependent on one draw of data and GA seed.  The run starts
no cycle that would end after S seconds, but always runs at least one.

Each CLI run must exit 0 and write a report.json that passes ReportCheck
(against the digest recorded in baseline.json for seeds 42 and 7, and
between the two launches of a traced cycle); a run that does not counts as
failed.  The last line of standard output is one JSON object: end-to-end
metrics (medians over the untraced runs) with --trace 0, per-layer metrics
(medians over the traced runs) with --trace 1.  Lines before it print every
metric by name and unit.  Self-tests: python3 -m pytest perfbench
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import ReportCheck  # noqa: E402
from layers import layer_metrics, metric_units  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, write_input  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 170.0  # a launch still running this long after the run began is killed
MAX_INPUTS = 1000  # cycles per run, also the stride between runs' input seeds

# medians over a run's untraced CLI launches of: seconds from launch to exit;
# user+sys CPU seconds of the process tree; seconds from launch until the
# input CSV is parsed (interpreter start, imports, read_surveillance_csv);
# peak resident memory.  Failed launches are counted in the result's
# "attempted" and "failed" fields.
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Launch:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    spans: list | None


def launch(mode: str, cli_args: list[str], workdir: str, deadline: float) -> Launch:
    """Run child.py in a fresh interpreter and measure it from here."""
    sidecar = os.path.join(workdir, "sidecar.json")
    if os.path.exists(sidecar):
        os.remove(sidecar)
    with open(os.path.join(workdir, "child.log"), "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, mode, sidecar, *cli_args],
                                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(max(0.0, deadline - started), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    notes = {}
    if os.path.exists(sidecar):
        with open(sidecar) as handle:
            notes = json.load(handle)
    parsed = notes.get("csv_parsed")
    return Launch(
        code=proc.returncode,
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        setup_s=None if parsed is None else parsed - started,
        spans=notes.get("spans"),
    )


def input_seed(seed: int, index: int) -> int:
    """Seed of the run's index-th input: each cycle of a run gets a new input."""
    return seed * MAX_INPUTS + index


def recorded_digests(name: str, seed: int) -> list[str]:
    with open(os.path.join(HERE, "baseline.json")) as handle:
        return json.load(handle)["digests"].get(name, {}).get(str(seed), [])


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workload = WORKLOADS[name]
    csv_path = os.path.join(workdir, "input.csv")
    out_dir = os.path.join(workdir, "out")
    deadline = time.monotonic() + RUN_LIMIT_S
    if launch("warm", [], workdir, deadline).code != 0:
        raise RuntimeError(f"smoothbench does not import; see {workdir}/child.log")

    digests = recorded_digests(name, seed)
    runs: list[Launch] = []
    traced: list[Launch] = []
    setups: list[float] = []
    attempted = failed = cycles = 0
    started = time.monotonic()
    while cycles < MAX_INPUTS:
        sub_seed = input_seed(seed, cycles)
        write_input(workload, sub_seed, csv_path)
        cli_args = workload.cli_args(csv_path, out_dir, sub_seed)
        # a traced run repeats its untraced partner's input and must write the
        # same bytes; the pair's order alternates so that it biases neither
        check = ReportCheck(digests[cycles] if cycles < len(digests) else None)
        modes = ("run", "trace")[::1 if cycles % 2 == 0 else -1] if trace else ("run",)
        for mode in modes:
            shutil.rmtree(out_dir, ignore_errors=True)
            result = launch(mode, cli_args, workdir, deadline)
            attempted += 1
            ok = result.code == 0 and check(os.path.join(out_dir, "report.json"))
            failed += not ok
            (traced if mode == "trace" else runs).append(result)
            if result.setup_s is not None:
                setups.append(result.setup_s)
        cycles += 1
        elapsed = time.monotonic() - started
        if elapsed * (cycles + 1) / cycles > seconds:
            break
    if not setups:
        raise RuntimeError("no run got as far as parsing the input CSV")

    walls = [r.wall_s for r in runs]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    per_layer = {}
    if trace:
        samples = [layer_metrics(r.spans or [], r.wall_s) for r in traced]
        per_layer = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        per_layer["trace.overhead_s"] = statistics.median(
            t.wall_s - r.wall_s for t, r in zip(traced, runs))
    return {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "setups": len(setups),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "smoothbench", "cli.py")):
        print(f"error: no smoothbench sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = result["walls"]
    runs = len(walls)
    tail = tail_percentile(runs)
    print(f"workload {args.workload} seed {args.seed}: {runs} untraced runs, "
          f"{result['setups']} setups, {result['failed']}/{result['attempted']} runs failed")
    print("wall_s per run: " + " ".join(f"{w:.3f}" for w in walls))
    if tail is None:
        print(f"no percentile of wall_s has 10 of {runs} runs beyond it, so only the median is reported")
    else:
        print(f"wall_s_p{tail:g} {percentile(walls, tail):.6g} s")
    for metric, value in result["end_to_end"].items():
        print(f"{metric} {value:.6g} {END_TO_END_UNITS[metric]}")
    units = metric_units()
    for metric, value in result["per_layer"].items():
        print(f"{metric} {value:.6g} {units[metric]}")

    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    all_units = units if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": all_units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
