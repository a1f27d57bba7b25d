"""Self-tests of the benchmark's own arithmetic.  Run: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import ReportCheck  # noqa: E402
from layers import layer_metrics, metric_units  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402


def _span(name, start, end, parent, key=None, note=None):
    return [name, key, start, end, parent, note]


def test_self_time_subtracts_only_the_covered_part_of_children():
    spans = [
        _span("outer", 0.0, 10.0, -1),
        _span("child", 1.0, 3.0, 0),
        _span("grandchild", 1.5, 2.5, 1),
        _span("child", 2.5, 4.0, 0),  # overlaps the first child by 0.5
        _span("child", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 1.0, 1.0, 1.5, 3.0])


def test_tracer_records_nesting_keys_and_notes():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=clock)

    class Layer:
        @staticmethod
        def inner(code):
            return code.upper()

        @staticmethod
        def outer(code):
            return Layer.inner(code) + "!"

    tracer.wrap(Layer, "inner", "layer.inner", key=lambda a: a[0])
    tracer.wrap(Layer, "outer", "layer.outer", note=lambda a, r: len(r))
    assert Layer.outer("sma") == "SMA!"
    assert tracer.spans == [
        ["layer.outer", None, 0, 3, -1, 4],
        ["layer.inner", "sma", 1, 2, 0, None],
    ]


@pytest.mark.parametrize("count, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond_it(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 90.0) == 90
    assert percentile(values, 50.0) == 50
    assert percentile([3.0], 99.9) == 3.0


def test_layer_metrics_cover_every_per_layer_name():
    spans = [
        _span("csvio.read", 0.1, 0.2, -1),
        _span("pipeline.run", 0.2, 0.9, -1, key="raw", note=99),
        _span("calibration.calibrate", 0.3, 0.6, 1, key="sma", note=[10, 40]),
        _span("evaluation.evaluate", 0.35, 0.45, 2, key="sma"),
        _span("evaluation.loocv_build", 0.36, 0.44, 3, key="sma"),
        _span("smoothers.operator", 0.37, 0.38, 4, key="sma", note=True),
        _span("smoothers.apply", 0.39, 0.40, 4, key="sma"),
        _span("reportio.write", 0.9, 1.0, -1, note=5000),
    ]
    metrics = layer_metrics(spans, wall_s=1.5)
    assert set(metrics) | {"trace.overhead_s"} == set(metric_units())
    assert metrics["calibration.ga_self_s.sma"] == pytest.approx(0.2)
    assert metrics["calibration.unique_eval_ratio"] == 0.25
    assert metrics["evaluation.evaluate_ms.sma"] == pytest.approx(100.0)
    assert metrics["evaluation.linear_path_ratio"] == 1.0
    assert metrics["smoothers.apply_calls_total"] == 1
    assert metrics["pipeline.apps_estimate"] == 99
    assert metrics["reportio.report_bytes"] == 5000
    assert metrics["trace.remainder_s"] == pytest.approx(1.5 - 0.1 - 0.7 - 0.1)
    assert metrics["calibration.calibrate_s.adp"] == 0.0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    from run import END_TO_END_UNITS
    from workloads import WORKLOADS

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    from smoothbench.pipeline import PipelineConfig, run_benchmark
    from smoothbench.reportio import write_reports
    from smoothbench.synthetic import synthetic_records

    records, _ = synthetic_records(n=30, seed=3)
    report = run_benchmark(records, "raw", PipelineConfig(methods=("tuk", "kal", "fft")))
    out = tmp_path_factory.mktemp("report")
    return write_reports([report], str(out))[0]


def _flip_one_byte(src: str, dst) -> str:
    data = bytearray(open(src, "rb").read())
    at = data.index(b'"site"') + 1
    data[at] = ord("S")
    dst.write_bytes(bytes(data))
    return str(dst)


def test_output_check_rejects_one_changed_byte_against_recorded_digest(report_path, tmp_path):
    import hashlib

    digest = hashlib.sha256(open(report_path, "rb").read()).hexdigest()
    check = ReportCheck(digest)
    assert check(report_path)
    assert not check(_flip_one_byte(report_path, tmp_path / "report.json"))


def test_output_check_without_digest_requires_agreement(report_path, tmp_path):
    check = ReportCheck()
    assert check(report_path)
    assert check(report_path)
    assert not check(_flip_one_byte(report_path, tmp_path / "report.json"))


def test_output_check_rejects_a_report_that_does_not_parse(report_path, tmp_path):
    broken = tmp_path / "report.json"
    broken.write_text(open(report_path).read().replace('"schema_version": 1', '"schema_version": 9'))
    assert not ReportCheck()(str(broken))
    assert not ReportCheck()(str(tmp_path / "missing.json"))
