"""Run ``smoothbench.cli.main`` in a fresh interpreter, watched from outside.

Usage: python3 perfbench/child.py MODE SIDECAR CLI-ARG...

MODE is one of
  warm   import the CLI and exit (compiles bytecode, fills the file cache);
  run    run the CLI, noting when the input CSV has been parsed;
  trace  like run, with a span around every call listed in LAYER_CALLS.
SIDECAR receives the notes as JSON when the process ends.  The exit code is
the CLI's.  Nothing under src/ is changed: the wrappers replace module-level
names at run time, in this process only.
"""
from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _code(args):
    """Method code of a call whose first argument is a MethodId or a spec."""
    first = args[0]
    return getattr(first, "method", first).value


def _scored(args, result):
    """(unique evaluations, genomes scored) of one GA calibration."""
    config = args[2]
    generations = len(result.history) - 1
    scored = config.population_size + generations * (config.population_size - config.elite_count)
    return [result.evaluations, scored]


def _estimate(args, result):
    return result.provenance["evaluation_counts"]["smoother_applications"]


def _report_bytes(args, result):
    return os.path.getsize(result[0])


# (module, attribute, span name, key, note): the module-level names through
# which each layer is called, outermost first.
LAYER_CALLS = (
    ("cli", "read_surveillance_csv", "csvio.read", None, None),
    ("cli", "run_benchmark", "pipeline.run", lambda a: a[1], _estimate),
    ("cli", "write_reports", "reportio.write", None, _report_bytes),
    ("pipeline", "normalize_series", "normalization.normalize", None, None),
    ("pipeline", "impute_linear", "timeseries.impute", None, None),
    ("pipeline", "calibrate", "calibration.calibrate", _code, _scored),
    ("pipeline", "build_loocv_matrix", "evaluation.loocv_build", _code, None),
    ("pipeline", "cluster_methods", "clustering.cluster", None, None),
    ("pipeline", "apply_smoother", "smoothers.apply", _code, None),
    ("pipeline", "confidence_band", "evaluation.band", None, None),
    ("pipeline", "fit_linear", "regression.fit", None, None),
    ("calibration", "evaluate_method", "evaluation.evaluate", _code, None),
    ("evaluation", "build_loocv_matrix", "evaluation.loocv_build", _code, None),
    ("evaluation", "apply_to_values", "smoothers.apply", _code, None),
    ("evaluation", "linear_operator", "smoothers.operator", _code,
     lambda a, r: r is not None),
)


def main(argv: list[str]) -> int:
    mode, sidecar, cli_args = argv[0], argv[1], argv[2:]
    from smoothbench import calibration, cli, evaluation, pipeline

    if mode == "warm":
        return 0
    notes: dict = {}
    read_csv = cli.read_surveillance_csv

    def timed_read(*args, **kwargs):
        records = read_csv(*args, **kwargs)
        notes["csv_parsed"] = time.monotonic()
        return records

    cli.read_surveillance_csv = timed_read
    tracer = None
    if mode == "trace":
        from spans import Tracer

        modules = {"cli": cli, "pipeline": pipeline, "calibration": calibration,
                   "evaluation": evaluation}
        tracer = Tracer()
        for module, attr, name, key, note in LAYER_CALLS:
            tracer.wrap(modules[module], attr, name, key, note)
    code = cli.main(cli_args)
    if tracer is not None:
        notes["spans"] = tracer.spans
    with open(sidecar, "w") as handle:
        json.dump(notes, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
