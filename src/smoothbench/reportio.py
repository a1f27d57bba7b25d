"""Benchmark report persistence.

``report.json`` carries everything needed to rebuild a report object
bit-exactly (schema-versioned, sorted keys, shortest round-trip floats); the
three CSV companions are the plot/table payloads: the smoothed series with
its confidence envelope, the cluster table, and the regression summary.

The keys of ``report.json`` are the fields of the report dataclasses
(``BenchmarkReport``, ``MethodOutcome``, ``PerformanceIndex``,
``ClusterResult``, ``LinearFit``), its values those fields in their types'
codecs (``MethodId`` as its code, ``date`` in ISO form). ``_EXCEPTIONS`` holds
the only departures: the outcomes are stored under ``methods``; an index
omits its ``method``, its outcome's; and a -inf AIC (zero-residual sentinel)
is stored as null, the only null read as -inf. An absent key takes its
field's default, or None where its type allows.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing
from datetime import date
from operator import attrgetter

from .clustering import CLUSTER_LABELS
from .csvio import fmt, open_input, open_output, write_table
from .errors import EvaluationFailure, IoError, SchemaError
from .evaluation import PerformanceIndex
from .pipeline import BenchmarkReport
from .regression import LinearFit
from .smoothers import MethodId

SCHEMA_VERSION = 1

# (class, field) -> (JSON key, codec): a key of None leaves the field out, to be
# read from the same key of the enclosing object; a codec of None is its type's
_EXCEPTIONS = {
    (BenchmarkReport, "outcomes"): ("methods", None),
    (PerformanceIndex, "method"): (None, None),
    (PerformanceIndex, "aic"): ("aic", (lambda v: None if v == -math.inf else v,
                                        lambda v: -math.inf if v is None
                                        else _SCALARS[float][1](v))),
}


def _same(value):
    return value


def _typed(decode, *types):
    """``decode`` of a JSON value whose type is one of ``types``: a bool is no int."""
    def checked(value):
        if type(value) not in types:
            raise TypeError(f"expected {types[-1].__name__}, got {value!r:.40}")
        return decode(value)
    return checked


_SCALARS = {
    MethodId: (attrgetter("value"), _typed(MethodId, str)),
    date: (date.isoformat, _typed(date.fromisoformat, str)),
    float: (_same, _typed(float, int, float)), int: (_same, _typed(_same, int)),
    bool: (_same, _typed(_same, bool)), str: (_same, _typed(_same, str)),
    dict: (_same, _typed(_same, dict)),
}


def _bare(tp):
    """``tp`` without its None, and whether it had one."""
    args = typing.get_args(tp)
    if type(None) not in args:
        return tp, False
    (inner,) = [a for a in args if a is not type(None)]
    return inner, True


def _codec(tp) -> tuple:
    """(encode, decode) of a value of type ``tp`` to and from its JSON form."""
    inner, optional = _bare(tp)
    if optional:
        encode, decode = _codec(inner)
        return (encode if encode is _same else lambda v: None if v is None else encode(v),
                lambda v: None if v is None else decode(v))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:  # one map per tuple: a 365 x 365 LOOCV matrix is 133k values
        encode, decode = _codec(args[0])
        return (list if encode is _same else lambda v: list(map(encode, v)),
                lambda v: tuple(map(decode, v)))
    if origin is dict:
        (encode_key, decode_key), (encode, decode) = map(_codec, args)
        return (lambda v: {encode_key(k): encode(x) for k, x in v.items()},
                lambda v: {decode_key(k): decode(x) for k, x in v.items()})
    if dataclasses.is_dataclass(tp):
        return _encode_object, lambda v: _decode_object(tp, v, None)
    return _SCALARS[tp]


@functools.cache
def _fields(cls) -> tuple:
    """(name, key, encode, decode, nested, absent) per field of ``cls``.

    ``nested`` is the field's dataclass, which is decoded with its holder in
    reach; ``absent`` is the value of a missing key (``MISSING``: required).
    """
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        key, codec = _EXCEPTIONS.get((cls, f.name), (f.name, None))
        inner, optional = _bare(hints[f.name])
        out.append((
            f.name, key, *(codec or _codec(hints[f.name])),
            inner if dataclasses.is_dataclass(inner) else None,
            None if optional and f.default is dataclasses.MISSING else f.default,
        ))
    return tuple(out)


def _encode_object(obj) -> dict:
    return {key: encode(getattr(obj, name))
            for name, key, encode, *_ in _fields(type(obj)) if key is not None}


def _decode_object(cls, d: dict, outer: dict | None):
    kwargs = {}
    for name, key, _, decode, nested, absent in _fields(cls):
        if key is None:
            kwargs[name] = outer[name]
        elif key in d:
            value = d[key]
            kwargs[name] = (decode(value) if nested is None or value is None
                            else _decode_object(nested, value, d))
        elif absent is dataclasses.MISSING:
            raise KeyError(key)
        else:
            kwargs[name] = absent
    return cls(**kwargs)


def reports_json(reports: list[BenchmarkReport]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "reports": [_encode_object(r) for r in reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_reports_json(text: str) -> list[BenchmarkReport]:
    try:
        payload = json.loads(text)
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported report schema version: {version!r}")
        reports = [_decode_object(BenchmarkReport, d, None) for d in payload["reports"]]
    except (ValueError, KeyError, TypeError, AttributeError, EvaluationFailure) as exc:
        # what malformed JSON, JSON of the wrong shape, or a stored index out
        # of range raises on the way in
        raise SchemaError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    _check_kinds(reports, SchemaError)
    _check_lengths(reports)
    _check_outcomes(reports)
    return reports


def _check_kinds(reports: list[BenchmarkReport], error: type[Exception]) -> None:
    kinds = [r.signal_kind for r in reports]
    if len(set(kinds)) != len(kinds):
        raise error(f"duplicate signal kinds in one report set: {kinds}")


def _check_lengths(reports: list[BenchmarkReport]) -> None:
    """Each per-date series, and each row and column of the LOOCV matrix, holds one value a date."""
    for r in reports:
        series = [r.original, r.imputed, r.smoothed, r.band_lower, r.band_upper]
        if r.loocv_optimal is not None:
            series += [r.loocv_optimal, *r.loocv_optimal]
        bad = [len(values) for values in series if len(values) != len(r.timestamps)]
        if bad:
            raise SchemaError(f"malformed report: the {r.signal_kind} report has a series of "
                              f"{bad[0]} values for {len(r.timestamps)} timestamps")


def _check_outcomes(reports: list[BenchmarkReport]) -> None:
    """Each outcome holds an index or an error, and the cluster labels the
    scored methods, those with an index, each with one of ``CLUSTER_LABELS``."""
    for r in reports:
        scored = {o.method for o in r.outcomes if o.index is not None}
        if (any((o.index is None) == o.ok for o in r.outcomes)
                or set(r.cluster.assignments) != scored
                or not set(r.cluster.assignments.values()) <= set(CLUSTER_LABELS)):
            raise SchemaError(f"malformed report: the {r.signal_kind} report's outcomes "
                              "and cluster disagree")


def read_reports(path: str) -> list[BenchmarkReport]:
    with open_input(path) as handle:
        return parse_reports_json(handle.read())


_CLUSTERS_HEADER = ["method", "var", "err", "aic", "cluster", "is_medoid", "is_optimal"]
REGRESSION_HEADER = ["site", "slope", "intercept", "r2", "n"]


def regression_row(site: str, fit: LinearFit) -> list[str]:
    return [site, fmt(fit.slope), fmt(fit.intercept), fmt(fit.r_squared), str(fit.n)]


def _clusters_rows(report: BenchmarkReport) -> list[list[str]]:
    medoids = set(report.cluster.medoids)
    return [
        [
            o.method.value,
            fmt(o.index.var),
            fmt(o.index.mae),
            fmt(o.index.aic),
            report.cluster.assignments[o.method],
            str(int(o.method in medoids)),
            str(int(o.method is report.optimal_method)),
        ]
        for o in report.outcomes
        if o.ok
    ]


def _regression_rows(report: BenchmarkReport) -> list[list[str]]:
    return [] if report.regression is None else [regression_row(report.site, report.regression)]


def make_output_dir(outdir: str) -> None:
    """Make ``outdir`` if it is missing; failing that is an IoError."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write {outdir}: {exc.strerror or exc}") from exc


def write_reports(reports: list[BenchmarkReport], outdir: str) -> list[str]:
    """Write report.json plus the smoothed/cluster/regression CSV payloads."""
    _check_kinds(reports, IoError)
    make_output_dir(outdir)
    paths = []

    path = os.path.join(outdir, "report.json")
    with open_output(path) as handle:
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

    tagged = len(reports) > 1  # the tables that several reports share name each row's signal
    for name, header, rows_of in (("clusters.csv", _CLUSTERS_HEADER, _clusters_rows),
                                  ("regression.csv", REGRESSION_HEADER, _regression_rows)):
        path = os.path.join(outdir, name)
        rows = [row + [r.signal_kind] * tagged for r in reports for row in rows_of(r)]
        write_table(path, header + ["signal"] * tagged, rows)
        paths.append(path)
    return paths
