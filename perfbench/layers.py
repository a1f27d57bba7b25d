"""Per-layer metrics of one traced run, read off its spans.

Method codes are listed here rather than imported from smoothbench so that
the metric names stay fixed when the program changes.  A method that the
workload does not run reports 0.

Which end-to-end metric each layer should move, and where:
- calibration.ga_self_s and unique_eval_ratio: wall_s on paper_t60_discrete,
  barely on the other two; the largest calibrate_s bounds a per-method
  fan-out's gain on desk_t30.
- evaluation.loocv_build_ms and smoothers.operator_s of pol, spl and ker:
  wall_s and peak_rss_mb on long_t365_linear; band_s grows with T.
- smoothers.apply_s of rrm, adp, sup, gam and kal: wall_s and cpu_s on
  desk_t30, no change on long_t365_linear.
- csvio.read_s: setup_s everywhere.  The other layers are small on every
  workload and should stay small.
"""
from __future__ import annotations

from collections import defaultdict

from spans import END, KEY, NAME, NOTE, PARENT, START, self_times

PARAMETRIC = ("spl", "ker", "sma", "rrm", "sup", "pol", "sgf", "ari", "adp", "gam")
ALL_METHODS = ("tuk", "kal", "fft") + PARAMETRIC

# (metric, span name) of the layers measured as total busy seconds
BUSY = (
    ("csvio.read_s", "csvio.read"),
    ("normalization.normalize_s", "normalization.normalize"),
    ("timeseries.impute_s", "timeseries.impute"),
    ("clustering.cluster_s", "clustering.cluster"),
    ("regression.fit_s", "regression.fit"),
    ("reportio.write_s", "reportio.write"),
    ("pipeline.run_s", "pipeline.run"),
    ("evaluation.band_s", "evaluation.band"),
    ("smoothers.operator_s", "smoothers.operator"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for code in PARAMETRIC:
        units[f"calibration.calibrate_s.{code}"] = "s"
        units[f"calibration.ga_self_s.{code}"] = "s"
        units[f"calibration.evaluations.{code}"] = "count"
    units["calibration.unique_eval_ratio"] = "ratio"
    for code in PARAMETRIC:
        units[f"evaluation.evaluate_ms.{code}"] = "ms"
    for code in ALL_METHODS:
        units[f"evaluation.loocv_build_ms.{code}"] = "ms"
    units["evaluation.linear_path_ratio"] = "ratio"
    for code in ALL_METHODS:
        units[f"smoothers.apply_calls.{code}"] = "count"
        units[f"smoothers.apply_s.{code}"] = "s"
    units["smoothers.operator_calls"] = "count"
    # counted applications beside the estimate in the report's provenance
    units["smoothers.apply_calls_total"] = "count"
    units["pipeline.apps_estimate"] = "count"
    for metric, _span in BUSY:
        units[metric] = "s"
    units["reportio.report_bytes"] = "bytes"
    units["trace.remainder_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """All per-layer metrics except trace.overhead_s, which needs untraced runs."""
    busy = defaultdict(float)  # span name, or (span name, key) -> seconds
    calls = defaultdict(int)  # likewise -> number of spans
    ga_self = defaultdict(float)
    unique = scored = linear = 0
    top_level = 0.0
    notes = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        name, key, duration = span[NAME], span[KEY], span[END] - span[START]
        busy[name] += duration
        calls[name] += 1
        if key is not None:
            busy[name, key] += duration
            calls[name, key] += 1
        if span[PARENT] < 0:
            top_level += duration
        if name == "calibration.calibrate":
            ga_self[key] += own
            if span[NOTE] is not None:  # None when the calibration raised
                unique += span[NOTE][0]
                scored += span[NOTE][1]
        elif name == "smoothers.operator":
            linear += bool(span[NOTE])
        elif span[NOTE] is not None:
            notes[name] += span[NOTE]

    out: dict[str, float] = {}
    for code in PARAMETRIC:
        out[f"calibration.calibrate_s.{code}"] = busy["calibration.calibrate", code]
        out[f"calibration.ga_self_s.{code}"] = ga_self[code]
        out[f"calibration.evaluations.{code}"] = calls["evaluation.evaluate", code]
    out["calibration.unique_eval_ratio"] = _ratio(unique, scored)
    for code in PARAMETRIC:
        out[f"evaluation.evaluate_ms.{code}"] = 1e3 * _ratio(
            busy["evaluation.evaluate", code], calls["evaluation.evaluate", code])
    for code in ALL_METHODS:
        out[f"evaluation.loocv_build_ms.{code}"] = 1e3 * _ratio(
            busy["evaluation.loocv_build", code], calls["evaluation.loocv_build", code])
    out["evaluation.linear_path_ratio"] = _ratio(linear, calls["smoothers.operator"])
    for code in ALL_METHODS:
        out[f"smoothers.apply_calls.{code}"] = calls["smoothers.apply", code]
        out[f"smoothers.apply_s.{code}"] = busy["smoothers.apply", code]
    out["smoothers.operator_calls"] = calls["smoothers.operator"]
    out["smoothers.apply_calls_total"] = calls["smoothers.apply"]
    out["pipeline.apps_estimate"] = notes["pipeline.run"]
    for metric, span_name in BUSY:
        out[metric] = busy[span_name]
    out["reportio.report_bytes"] = notes["reportio.write"]
    out["trace.remainder_s"] = wall_s - top_level
    return out
