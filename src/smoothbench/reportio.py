"""Benchmark report persistence.

``report.json`` carries everything needed to rebuild a report object
bit-exactly (schema-versioned, sorted keys, shortest round-trip floats); the
three CSV companions are the plot/table payloads: the smoothed series with
its confidence envelope, the cluster table, and the regression summary.
A negative-infinite AIC (zero-residual sentinel) is stored as JSON null plus
the ``zero_residual`` flag.
"""
from __future__ import annotations

import json
import math
import os
from datetime import date

from .clustering import ClusterResult
from .csvio import fmt, open_input, write_table
from .errors import EvaluationFailure, IoError, SchemaError
from .evaluation import PerformanceIndex
from .pipeline import BenchmarkReport, MethodOutcome
from .regression import LinearFit
from .smoothers import MethodId

SCHEMA_VERSION = 1


def _aic_out(value: float) -> float | None:
    return None if value == -math.inf else value


def _aic_in(value, zero_residual: bool) -> float:
    if value is None or zero_residual:
        return float("-inf")
    return float(value)


def outcome_to_dict(o: MethodOutcome) -> dict:
    d: dict = {
        "method": o.method.value,
        "params": None if o.params is None else list(o.params),
        "ga_seed": o.ga_seed,
        "ga_evaluations": o.ga_evaluations,
        "error": o.error,
    }
    if o.index is not None:
        d["index"] = {
            "k": o.index.k,
            "mae": o.index.mae,
            "var": o.index.var,
            "aic": _aic_out(o.index.aic),
            "zero_residual": o.index.zero_residual,
        }
    else:
        d["index"] = None
    return d


def outcome_from_dict(d: dict) -> MethodOutcome:
    index = None
    if d.get("index") is not None:
        i = d["index"]
        index = PerformanceIndex(
            method=d["method"],
            k=int(i["k"]),
            mae=float(i["mae"]),
            var=float(i["var"]),
            aic=_aic_in(i["aic"], bool(i["zero_residual"])),
            zero_residual=bool(i["zero_residual"]),
        )
    params = d.get("params")
    return MethodOutcome(
        method=MethodId(d["method"]),
        params=None if params is None else tuple(float(p) for p in params),
        index=index,
        ga_seed=d.get("ga_seed"),
        ga_evaluations=int(d.get("ga_evaluations", 0)),
        error=d.get("error"),
    )


def report_to_dict(report: BenchmarkReport) -> dict:
    return {
        "site": report.site,
        "signal_kind": report.signal_kind,
        "timestamps": [t.isoformat() for t in report.timestamps],
        "original": list(report.original),
        "imputed": list(report.imputed),
        "methods": [outcome_to_dict(o) for o in report.outcomes],
        "cluster": {
            "assignments": {m.value: label for m, label in report.cluster.assignments.items()},
            "medoids": [m.value for m in report.cluster.medoids],
            "optimal": report.cluster.optimal.value,
        },
        "optimal_method": report.optimal_method.value,
        "optimal_params": list(report.optimal_params),
        "smoothed": list(report.smoothed),
        "band_lower": list(report.band_lower),
        "band_upper": list(report.band_upper),
        "band_level": report.band_level,
        "regression": None
        if report.regression is None
        else {
            "slope": report.regression.slope,
            "intercept": report.regression.intercept,
            "r_squared": report.regression.r_squared,
            "n": report.regression.n,
        },
        "provenance": report.provenance,
        "loocv_optimal": None
        if report.loocv_optimal is None
        else [list(row) for row in report.loocv_optimal],
    }


def report_from_dict(d: dict) -> BenchmarkReport:
    cluster = ClusterResult(
        assignments={MethodId(m): label for m, label in d["cluster"]["assignments"].items()},
        medoids=tuple(MethodId(m) for m in d["cluster"]["medoids"]),
        optimal=MethodId(d["cluster"]["optimal"]),
    )
    regression = None
    if d.get("regression") is not None:
        r = d["regression"]
        regression = LinearFit(
            slope=float(r["slope"]),
            intercept=float(r["intercept"]),
            r_squared=float(r["r_squared"]),
            n=int(r["n"]),
        )
    return BenchmarkReport(
        site=d["site"],
        signal_kind=d["signal_kind"],
        timestamps=tuple(date.fromisoformat(t) for t in d["timestamps"]),
        original=tuple(d["original"]),
        imputed=tuple(d["imputed"]),
        outcomes=tuple(outcome_from_dict(o) for o in d["methods"]),
        cluster=cluster,
        optimal_method=MethodId(d["optimal_method"]),
        optimal_params=tuple(d["optimal_params"]),
        smoothed=tuple(d["smoothed"]),
        band_lower=tuple(d["band_lower"]),
        band_upper=tuple(d["band_upper"]),
        band_level=float(d["band_level"]),
        regression=regression,
        provenance=d["provenance"],
        loocv_optimal=None
        if d.get("loocv_optimal") is None
        else tuple(tuple(row) for row in d["loocv_optimal"]),
    )


def reports_json(reports: list[BenchmarkReport]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "reports": [report_to_dict(r) for r in reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_reports_json(text: str) -> list[BenchmarkReport]:
    try:
        payload = json.loads(text)
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported report schema version: {version!r}")
        reports = [report_from_dict(d) for d in payload["reports"]]
    except (ValueError, KeyError, TypeError, AttributeError, EvaluationFailure) as exc:
        # what malformed JSON, JSON of the wrong shape, or a stored index out
        # of range raises on the way in
        raise SchemaError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    _check_kinds(reports, SchemaError)
    return reports


def _check_kinds(reports: list[BenchmarkReport], error: type[Exception]) -> None:
    kinds = [r.signal_kind for r in reports]
    if len(set(kinds)) != len(kinds):
        raise error(f"duplicate signal kinds in one report set: {kinds}")


def read_reports(path: str) -> list[BenchmarkReport]:
    with open_input(path) as handle:
        return parse_reports_json(handle.read())


def _clusters_rows(report: BenchmarkReport, with_signal: bool) -> list[list[str]]:
    medoids = set(report.cluster.medoids)
    rows = []
    for o in report.outcomes:
        if not o.ok:
            continue
        row = [
            o.method.value,
            fmt(o.index.var),
            fmt(o.index.mae),
            "-inf" if o.index.aic == -math.inf else fmt(o.index.aic),
            report.cluster.assignments[o.method],
            str(int(o.method in medoids)),
            str(int(o.method is report.optimal_method)),
        ]
        if with_signal:
            row.append(report.signal_kind)
        rows.append(row)
    return rows


def write_reports(reports: list[BenchmarkReport], outdir: str) -> list[str]:
    """Write report.json plus the smoothed/cluster/regression CSV payloads."""
    _check_kinds(reports, IoError)
    try:
        os.makedirs(outdir, exist_ok=True)
        paths = []

        path = os.path.join(outdir, "report.json")
        with open(path, "w") as handle:
            handle.write(reports_json(reports))
        paths.append(path)

        for report in reports:
            suffix = "raw" if report.signal_kind == "raw" else "norm"
            path = os.path.join(outdir, f"smoothed_{suffix}.csv")
            rows = [
                [t.isoformat(), fmt(orig), fmt(sm), fmt(lo), fmt(hi)]
                for t, orig, sm, lo, hi in zip(
                    report.timestamps,
                    report.original,
                    report.smoothed,
                    report.band_lower,
                    report.band_upper,
                )
            ]
            write_table(path, ["date", "original", "smoothed", "ci_lower", "ci_upper"], rows)
            paths.append(path)

        with_signal = len(reports) > 1
        header = ["method", "var", "err", "aic", "cluster", "is_medoid", "is_optimal"]
        if with_signal:
            header.append("signal")
        rows = []
        for report in reports:
            rows.extend(_clusters_rows(report, with_signal))
        path = os.path.join(outdir, "clusters.csv")
        write_table(path, header, rows)
        paths.append(path)

        header = ["site", "slope", "intercept", "r2", "n"]
        if with_signal:
            header.append("signal")
        rows = []
        for report in reports:
            if report.regression is None:
                continue
            row = [
                report.site,
                fmt(report.regression.slope),
                fmt(report.regression.intercept),
                fmt(report.regression.r_squared),
                str(report.regression.n),
            ]
            if with_signal:
                row.append(report.signal_kind)
            rows.append(row)
        path = os.path.join(outdir, "regression.csv")
        write_table(path, header, rows)
        paths.append(path)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write report files: {exc}") from exc
