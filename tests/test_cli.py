import csv
import ctypes
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import smoothbench
import smoothbench.cli as cli
import smoothbench.pipeline as pipeline
from smoothbench.calibration import OBJECTIVES, GaConfig
from smoothbench.cli import main
from smoothbench.csvio import (
    NUMERIC_COLUMNS,
    SURVEILLANCE_COLUMNS,
    UnitConfig,
    check_output,
    fmt,
    read_series_csv,
    read_surveillance_csv,
    write_surveillance_csv,
)
from smoothbench.errors import ParseError, SchemaError
from smoothbench.pipeline import PipelineConfig, run_benchmark
from smoothbench.smoothers import (
    PARAMETRIC_METHODS,
    MethodId,
    apply_to_values,
    default_spec,
    make_spec,
)
from smoothbench.synthetic import bundled_records
from smoothbench.timeseries import SurveillanceRecord


@pytest.fixture
def series_csv(tmp_path):
    path = tmp_path / "x.csv"
    lines = ["date,value"]
    for i, v in enumerate([1, 2, 3, 4, 5]):
        lines.append(f"2020-10-{i + 1:02d},{v}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def surveillance_csv(tmp_path):
    path = tmp_path / "site.csv"
    records = bundled_records()
    write_surveillance_csv(records, str(path))
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class TestReadSurveillanceCsv:
    def test_unit_conversions_on_spec_row(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text(
            "date,site,virus_copies_per_ml,flow_m3_per_d,nh4_mg_per_l\n"
            "2020-10-01,A,100,539500,30\n"
        )
        (record,) = read_surveillance_csv(str(path))
        assert record.c_virus == pytest.approx(1e5)
        assert record.q_flow == pytest.approx(5.395e8)
        assert record.c_nh4 == pytest.approx(0.03)

    def test_empty_cell_is_missing(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text(
            "date,site,virus_copies_per_ml,flow_m3_per_d,nh4_mg_per_l\n"
            "2020-10-01,A,100,539500,\n"
        )
        (record,) = read_surveillance_csv(str(path))
        assert record.c_nh4 is None

    def test_bad_date_names_line(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text(
            "date,site,virus_copies_per_ml,flow_m3_per_d,nh4_mg_per_l\n"
            "2020-10-01,A,100,539500,30\n"
            "01/10/2020,A,100,539500,30\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            read_surveillance_csv(str(path))

    def test_missing_column_schema_error(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("date,site,virus_copies_per_ml\n2020-10-01,A,100\n")
        with pytest.raises(SchemaError, match="flow_m3_per_d"):
            read_surveillance_csv(str(path))

    def test_unit_override(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text(
            "date,site,virus_copies_per_ml,flow_m3_per_d,nh4_mg_per_l\n"
            "2020-10-01,A,100,539500,30\n"
        )
        units = UnitConfig(virus="copies_per_l", flow="l_per_d", nh4="g_per_l")
        (record,) = read_surveillance_csv(str(path), units)
        assert record.c_virus == 100.0
        assert record.q_flow == 539500.0
        assert record.c_nh4 == 30.0

    def test_table_names_each_record_field_once(self):
        numeric = [f.name for f in fields(SurveillanceRecord)
                   if f.name not in ("site", "timestamp")]
        assert sorted(c.field for c in NUMERIC_COLUMNS) == sorted(numeric)

    @pytest.mark.parametrize("first, second", [
        (i, j) for i in range(len(NUMERIC_COLUMNS)) for j in range(i + 1, len(NUMERIC_COLUMNS))
    ])
    def test_first_bad_cell_in_file_order_is_reported(self, tmp_path, first, second):
        path = tmp_path / "row.csv"
        cells = ["bad" if k in (first, second) else "1" for k in range(len(NUMERIC_COLUMNS))]
        path.write_text(",".join(["date", "site"] + [c.header for c in NUMERIC_COLUMNS])
                        + "\n" + ",".join(["2020-10-01", "A"] + cells) + "\n")
        header = NUMERIC_COLUMNS[first].header
        with pytest.raises(ParseError, match=f"^line 2: cannot parse {header}='bad'"):
            read_surveillance_csv(str(path))

    def test_round_trip_lossless(self, tmp_path, surveillance_csv):
        records = read_surveillance_csv(surveillance_csv)
        echo = tmp_path / "echo.csv"
        write_surveillance_csv(records, str(echo))
        assert read_surveillance_csv(str(echo)) == records


class TestSmoothCommand:
    def test_sma_hand_example(self, series_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(["smooth", "--method", "sma", "--param", "window=3",
                   "--input", series_csv, "--out", str(out)])
        assert rc == 0
        rows = read_csv_rows(out)
        assert [float(r["smoothed"]) for r in rows] == [1.5, 2.0, 3.0, 4.0, 4.5]

    def test_config_list_repeats_append_flag(self, surveillance_csv, tmp_path):
        # a list for the repeatable --param is one token per element
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"param": ["window=5", "degree=2"]}))
        by_config, by_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
        assert main(["smooth", "--method", "sgf", "--input", surveillance_csv,
                     "--config", str(cfg), "--out", str(by_config)]) == 0
        assert main(["smooth", "--method", "sgf", "--param", "window=5", "--param", "degree=2",
                     "--input", surveillance_csv, "--out", str(by_flags)]) == 0
        assert by_config.read_text() == by_flags.read_text()

    def test_invalid_params_exit_1(self, series_csv, capsys):
        rc = main(["smooth", "--method", "sgf", "--param", "window=5",
                   "--param", "degree=5", "--input", series_csv])
        assert rc == 1
        err = capsys.readouterr().err
        assert "degree" in err and "window" in err

    def test_unknown_method_exit_1(self, series_csv, capsys):
        assert main(["smooth", "--method", "nope", "--input", series_csv]) == 1

    def test_usage_error_exit_1(self, capsys):
        assert main(["smooth", "--method", "sma"]) == 1

    def test_surveillance_input_with_field(self, surveillance_csv, tmp_path):
        out = tmp_path / "sm.csv"
        rc = main(["smooth", "--method", "tuk", "--input", surveillance_csv,
                   "--field", "virus", "--out", str(out)])
        assert rc == 0
        assert len(read_csv_rows(out)) == 60

    def test_output_carries_provenance_comment(self, series_csv, tmp_path):
        out = tmp_path / "out.csv"
        main(["smooth", "--method", "sma", "--param", "window=3",
              "--input", series_csv, "--out", str(out)])
        first = out.read_text().splitlines()[0]
        assert first.startswith("#") and "method=sma" in first


class TestIngestAndNormalize:
    def test_ingest_echo(self, surveillance_csv, tmp_path):
        out = tmp_path / "echo.csv"
        assert main(["ingest", "--input", surveillance_csv, "--out", str(out)]) == 0
        assert read_surveillance_csv(str(out)) == read_surveillance_csv(surveillance_csv)

    def test_normalize_values(self, surveillance_csv, tmp_path):
        out = tmp_path / "norm.csv"
        rc = main(["normalize", "--input", surveillance_csv, "--f-nh4", "10.71",
                   "--out", str(out)])
        assert rc == 0
        series = read_series_csv(str(out))
        records = read_surveillance_csv(surveillance_csv)
        present = [r for r in records if r.c_virus is not None and r.c_nh4 is not None]
        sample = present[0]
        expected = sample.c_virus * 10.71 / sample.c_nh4
        by_date = {s.timestamp: s.value for s in series}
        assert by_date[sample.timestamp] == pytest.approx(expected, rel=1e-12)

    def test_normalize_needs_f_nh4_for_unknown_site(self, surveillance_csv, capsys):
        assert main(["normalize", "--input", surveillance_csv]) == 1
        assert "f-nh4" in capsys.readouterr().err

    def test_missing_nh4_load_lists_the_reference_sites(self, surveillance_csv, capsys):
        assert main(["normalize", "--input", surveillance_csv]) == 1
        assert "['A', 'B', 'C', 'D']" in capsys.readouterr().err

    def test_normalize_without_nh4_exits_1(self, tmp_path, capsys):
        path = tmp_path / "no_nh4.csv"
        write_surveillance_csv([replace(r, c_nh4=None) for r in bundled_records()], str(path))
        assert main(["normalize", "--input", str(path), "--f-nh4", "10.71"]) == 1
        assert "no NH4 values are present" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_json_payload(self, surveillance_csv, tmp_path, capsys):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--method", "sma", "--input", surveillance_csv,
                   "--ga-pop", "20", "--ga-iters", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "sma"
        assert set(payload["params"]) == {"window"}
        assert payload["evaluations"] > 0

    def test_nonparametric_exit(self, surveillance_csv, capsys):
        assert main(["calibrate", "--method", "tuk", "--input", surveillance_csv]) == 1

    @pytest.mark.parametrize("method", PARAMETRIC_METHODS, ids=lambda m: m.value)
    def test_series_too_short_for_any_genome_exits_1(self, series_csv, tmp_path, method,
                                                      capsys):
        short = tmp_path / "short.csv"
        with open(series_csv) as fh:
            short.write_text("".join(fh.readlines()[:5]))  # the header and 4 points
        argv = ["calibrate", "--method", method.value, "--ga-pop", "4", "--ga-iters", "1",
                "--out", str(tmp_path / "cal.json"), "--input"]
        assert main(argv + [str(short)]) == 1
        assert "needs at least 5 points, got 4" in capsys.readouterr().err
        assert main(argv + [series_csv]) == 0


class TestBenchmarkCommand:
    def test_end_to_end_files(self, surveillance_csv, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main([
            "benchmark", "--input", surveillance_csv, "--signal", "both",
            "--seed", "42", "--out", str(out), "--f-nh4", "10.71",
            "--ga-pop", "20", "--ga-iters", "2",
            "--methods", "tuk,fft,sma,spl,ker",
        ])
        assert rc == 0
        for name in ("report.json", "smoothed_raw.csv", "smoothed_norm.csv",
                     "clusters.csv", "regression.csv"):
            assert (out / name).exists(), name
        payload = json.loads((out / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert [r["signal_kind"] for r in payload["reports"]] == ["raw", "normalized"]
        cluster_rows = read_csv_rows(out / "clusters.csv")
        assert {r["signal"] for r in cluster_rows} == {"raw", "normalized"}
        assert len(cluster_rows) == 10

    def test_report_rerender_round_trip(self, surveillance_csv, tmp_path):
        out = tmp_path / "bench"
        main([
            "benchmark", "--input", surveillance_csv, "--signal", "raw",
            "--seed", "7", "--out", str(out),
            "--ga-pop", "20", "--ga-iters", "2", "--methods", "tuk,fft,sma",
        ])
        redo = tmp_path / "redo"
        assert main(["report", "--report", str(out / "report.json"), "--out", str(redo)]) == 0
        for name in ("report.json", "smoothed_raw.csv", "clusters.csv", "regression.csv"):
            assert (redo / name).read_bytes() == (out / name).read_bytes()

    def test_seed_from_environment(self, surveillance_csv, tmp_path, monkeypatch):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        monkeypatch.setenv("SMOOTHBENCH_SEED", "99")
        main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
              "--out", str(out1), "--ga-pop", "20", "--ga-iters", "2",
              "--methods", "tuk,fft,sma"])
        monkeypatch.delenv("SMOOTHBENCH_SEED")
        main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
              "--seed", "99", "--out", str(out2), "--ga-pop", "20", "--ga-iters", "2",
              "--methods", "tuk,fft,sma"])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_config_file_merged_under_flags(self, surveillance_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ga-pop": 20, "ga-iters": 2, "seed": 5,
                                   "methods": "tuk,fft,sma"}))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
              "--out", str(out1), "--config", str(cfg)])
        main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
              "--out", str(out2), "--config", str(cfg), "--seed", "6"])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["reports"][0]["provenance"]["master_seed"] == 5
        assert r2["reports"][0]["provenance"]["master_seed"] == 6

    def test_ga_seed_is_calibrate_only(self, surveillance_csv, tmp_path, capsys):
        # benchmark derives every GA seed from --seed, so it takes no --ga-seed
        rc = main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
                   "--out", str(tmp_path / "bench"), "--ga-seed", "1"])
        assert rc == 1
        assert "--ga-seed" in capsys.readouterr().err

    def test_config_values_reach_pipeline_config(self, surveillance_csv, tmp_path, monkeypatch):
        configs = []
        real = cli.run_benchmark

        def capture(records, kind, config, **kwargs):
            configs.append(config)
            return real(records, kind, config, **kwargs)

        monkeypatch.setattr(cli, "run_benchmark", capture)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ga_pop": 20, "methods": ["tuk", "fft", "sma"]}))
        rc = main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
                   "--ga-iters", "2", "--out", str(tmp_path / "bench"),
                   "--config", str(cfg)])
        assert rc == 0
        (config,) = configs
        assert config.ga.population_size == 20
        assert config.methods == (MethodId.TUK, MethodId.FFT, MethodId.SMA)

    def test_bad_seed_in_environment_exits_1(self, surveillance_csv, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("SMOOTHBENCH_SEED", "abc")
        rc = main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
                   "--out", str(tmp_path / "bench")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "SMOOTHBENCH_SEED" in err

    def test_negative_seed_in_environment_exits_1(self, surveillance_csv, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("SMOOTHBENCH_SEED", "-3")
        rc = main(["calibrate", "--method", "sma", "--input", surveillance_csv,
                   "--out", str(tmp_path / "cal.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -3\n"

    @pytest.mark.parametrize("objective", ["aic", "combined"])
    def test_cpu_count_never_changes_the_outputs(self, tmp_path, monkeypatch, objective):
        path = tmp_path / "site.csv"
        write_surveillance_csv(bundled_records(n=30), str(path))
        argv = ["benchmark", "--input", str(path), "--signal", "both", "--f-nh4", "10.71",
                "--objective", objective, "--ga-pop", "4", "--ga-iters", "1"]
        # the workers hand back each method's smooth and band, and its LOOCV matrix
        for loocv in ([], ["--include-loocv"]):
            outs = {}
            for cpus in (1, 2, 3, None):  # one to three workers, or one per CPU here
                if cpus is not None:
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus),
                                        raising=False)
                out = tmp_path / f"cpus-{cpus}{''.join(loocv)}"
                assert main(argv + loocv + ["--out", str(out)]) == 0
                outs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
                monkeypatch.undo()
            assert len(outs[1]) == 5
            assert outs[2] == outs[1]
            assert outs[3] == outs[1]
            assert outs[None] == outs[1]
        report = json.loads(outs[1]["report.json"])
        assert report["reports"][0]["loocv_optimal"] is not None
        assert len(report["reports"][0]["methods"]) == len(MethodId)
        assert "jobs" not in report["reports"][0]["provenance"]["config"]

    def test_one_worker_per_cpu_at_most_one_per_method(self, surveillance_csv, tmp_path,
                                                       monkeypatch):
        jobs = []
        real = cli.run_benchmark

        def capture(records, kind, config, **kwargs):
            jobs.append(kwargs["jobs"])
            return real(records, kind, config, **kwargs)

        forks = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(cli, "run_benchmark", capture)
        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(10**6), raising=False)
        base = ["--input", surveillance_csv, "--f-nh4", "10.71", "--methods", "tuk,fft,sma",
                "--ga-pop", "4", "--ga-iters", "1"]
        assert main(["benchmark", *base, "--signal", "both", "--out", str(tmp_path / "b")]) == 0
        assert main(["regress", *base, "--out", str(tmp_path / "fit.csv")]) == 0
        # each run may use every CPU, and its pool forks one worker per method
        assert jobs == [10**6] * 3
        assert len(forks) == 3 * 3


class TestRegressCommand:
    def test_raw_loads(self, surveillance_csv, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(["regress", "--input", surveillance_csv, "--f-nh4", "10.71",
                   "--raw-loads", "--out", str(out)])
        assert rc == 0
        (row,) = read_csv_rows(out)
        assert float(row["r2"]) > 0.5
        assert int(row["n"]) > 30

    def test_internal_benchmark_path(self, surveillance_csv, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(["regress", "--input", surveillance_csv, "--f-nh4", "10.71",
                   "--methods", "tuk,fft,sma,spl", "--ga-pop", "20", "--ga-iters", "2",
                   "--out", str(out)])
        assert rc == 0
        (row,) = read_csv_rows(out)
        assert float(row["r2"]) > 0.8

    def test_ga_flags_reach_pipeline_config(self, surveillance_csv, tmp_path, monkeypatch):
        configs = []
        real = cli.run_benchmark

        def capture(records, kind, config, **kwargs):
            configs.append(config)
            return real(records, kind, config, **kwargs)

        monkeypatch.setattr(cli, "run_benchmark", capture)
        rc = main(["regress", "--input", surveillance_csv, "--f-nh4", "10.71",
                   "--methods", "tuk,fft,sma", "--ga-pop", "20", "--ga-iters", "2",
                   "--objective", "mae", "--patience", "3",
                   "--out", str(tmp_path / "fit.csv")])
        assert rc == 0
        (config,) = configs
        assert (config.objective, config.ga.patience) == ("mae", 3)

    def test_internal_benchmark_writes_the_report_regression(self, surveillance_csv, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(["regress", "--input", surveillance_csv, "--f-nh4", "10.71",
                   "--methods", "tuk,fft,sma", "--ga-pop", "4", "--ga-iters", "1",
                   "--seed", "42", "--out", str(out)])
        assert rc == 0
        config = PipelineConfig(ga=GaConfig(population_size=4, iterations=1, seed=42),
                                methods=("tuk", "fft", "sma"), f_nh4=10.71)
        fit = run_benchmark(read_surveillance_csv(surveillance_csv), "normalized",
                            config).regression
        (row,) = read_csv_rows(out)
        assert (row["slope"], row["intercept"], row["r2"], row["n"]) == (
            fmt(fit.slope), fmt(fit.intercept), fmt(fit.r_squared), str(fit.n))

    def test_no_incidence_exits_1_before_any_ga(self, tmp_path, monkeypatch, capsys):
        def no_ga(*args, **kwargs):
            raise AssertionError("the GA ran")

        monkeypatch.setattr(pipeline, "calibrate", no_ga)
        path = tmp_path / "no_incidence.csv"
        write_surveillance_csv(
            [replace(r, incidence_7d=None) for r in bundled_records()], str(path))
        rc = main(["regress", "--input", str(path), "--f-nh4", "10.71",
                   "--methods", "tuk,fft,sma", "--out", str(tmp_path / "fit.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_incidence_column_is_named_with_the_file(self, tmp_path, capsys):
        path = tmp_path / "no_incidence.csv"
        write_surveillance_csv(
            [replace(r, incidence_7d=None) for r in bundled_records()], str(path))
        rc = main(["regress", "--input", str(path), "--f-nh4", "10.71", "--raw-loads",
                   "--out", str(tmp_path / "fit.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "incidence_7d_per_100k" in err
        assert str(path) in err

    def test_from_stored_report(self, surveillance_csv, tmp_path):
        bench = tmp_path / "bench"
        main(["benchmark", "--input", surveillance_csv, "--signal", "normalized",
              "--out", str(bench), "--f-nh4", "10.71",
              "--ga-pop", "20", "--ga-iters", "2", "--methods", "tuk,fft,sma,spl"])
        out = tmp_path / "fit.csv"
        rc = main(["regress", "--input", surveillance_csv, "--f-nh4", "10.71",
                   "--report", str(bench / "report.json"), "--out", str(out)])
        assert rc == 0
        (row,) = read_csv_rows(out)
        assert float(row["r2"]) > 0.8


class TestExitCodes:
    @pytest.mark.parametrize("command", [
        "ingest", "normalize", "smooth", "calibrate", "benchmark", "regress", "report"])
    def test_internal_failure_exits_2(self, command, series_csv, surveillance_csv, tmp_path,
                                      capsys):
        """An --out that cannot be written is an IoError, in every command."""
        bench = ["benchmark", "--input", surveillance_csv, "--signal", "raw", "--ga-pop", "4",
                 "--ga-iters", "1", "--methods", "tuk,fft,sma"]
        argv = {
            "ingest": ["ingest", "--input", surveillance_csv],
            "normalize": ["normalize", "--input", surveillance_csv, "--f-nh4", "10.71"],
            "smooth": ["smooth", "--method", "sma", "--param", "window=3", "--input", series_csv],
            "calibrate": ["calibrate", "--method", "sma", "--input", series_csv, "--ga-pop", "4",
                          "--ga-iters", "1"],
            "benchmark": bench,
            "regress": ["regress", "--input", surveillance_csv, "--raw-loads", "--f-nh4", "10.71"],
            "report": ["report", "--report", str(tmp_path / "bench" / "report.json")],
        }[command]
        if command == "report":
            assert main(bench + ["--out", str(tmp_path / "bench")]) == 0
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file, not a directory")
        capsys.readouterr()
        assert main(argv + ["--out", str(blocker / "nested")]) == 2
        err = capsys.readouterr().err
        assert "error: IoError:" in err
        assert "internal error:" not in err

    @pytest.mark.parametrize("command", ["benchmark", "regress", "calibrate"])
    def test_unwritable_out_fails_before_the_run(self, command, surveillance_csv, monkeypatch,
                                                 capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_benchmark", no_run)
        monkeypatch.setattr(cli, "calibrate", no_run)
        outs = [os.path.join(surveillance_csv, "out")]  # in a folder that is a plain file
        if command != "benchmark":  # these write one file, which a directory cannot be
            outs.append(os.path.dirname(surveillance_csv))
        for out in outs:
            argv = [command, "--input", surveillance_csv, "--out", out, "--ga-pop", "4",
                    "--ga-iters", "1"]
            argv += (["--method", "sma"] if command == "calibrate"
                     else ["--f-nh4", "10.71", "--methods", "tuk,fft,sma"])
            assert main(argv) == 2, out
            err = capsys.readouterr().err
            assert "error: IoError:" in err, out
            assert "internal error:" not in err, out

    def test_check_output_passes_stdout_and_a_new_file(self, tmp_path):
        check_output("-")
        check_output(str(tmp_path / "new.csv"))

    def test_data_failure_exits_2_as_error(self, tmp_path):
        """A failure the data causes names its type, not an internal error, once."""
        records = [
            replace(r, c_virus=None if r.c_virus is None else r.c_virus * 1e150)
            for r in bundled_records()
        ]
        path = tmp_path / "huge.csv"
        write_surveillance_csv(records, str(path))
        done = run_cli("benchmark", "--input", str(path), "--out", str(tmp_path / "bench"),
                       "--signal", "raw", "--methods", "tuk,fft,sma,spl,ker",
                       "--ga-pop", "4", "--ga-iters", "1")
        assert done.returncode == 2
        assert "error: EvaluationFailure:" in done.stderr
        assert "internal error" not in done.stderr
        assert "overflow encountered" not in done.stderr

    def test_kalman_overflow_exits_2_as_error(self, tmp_path):
        """KAL's variance grid past the largest double fails the method, not the
        program, and numpy prints no warning first."""
        path = tmp_path / "big.csv"
        values = ["0", "1", "0", "6e153", "0", "1", "2"]
        path.write_text("date,value\n" + "".join(
            f"2021-01-{day:02d},{v}\n" for day, v in enumerate(values, start=1)))
        done = run_cli("smooth", "--method", "kal", "--input", str(path),
                       "--out", str(tmp_path / "kal.csv"))
        assert done.returncode == 2
        assert "error: EvaluationFailure:" in done.stderr
        assert "internal error" not in done.stderr
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("method, params", [
        ("gam", ["--param", "basis_dim=10", "--param", "log10_penalty=0", "--param", "family=0",
                 "--param", "auto_penalty=1"]),
        ("sgf", ["--param", "window=5", "--param", "degree=2"]),
    ])
    def test_smooth_past_max_magnitude_exits_2_as_error(self, tmp_path, method, params):
        """``smooth`` is bounded as the benchmark's scoring is: on values near
        1e200 GAM's GCV and SGF's window SSE would overflow."""
        path = tmp_path / "huge.csv"
        path.write_text("date,value\n" + "".join(
            f"2021-01-{day:02d},{v!r}\n"
            for day, v in enumerate(np.linspace(1e200, 2.2e200, 20).tolist(), start=1)))
        done = run_cli("smooth", "--method", method, *params, "--input", str(path),
                       "--out", str(tmp_path / "out.csv"))
        assert done.returncode == 2
        assert f"error: EvaluationFailure: {method} is not smoothed on values past 1e+150" in (
            done.stderr)
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("flags, message", [
        (["--ga-pop", "1"], "population_size"),
        (["--ga-iters", "-3"], "iterations"),
        (["--patience", "0"], "patience"),
        (["--methods", "sma,sma,tuk,fft"], "once"),
    ])
    def test_bad_ga_settings_exit_1_before_any_ga(self, series_csv, surveillance_csv, tmp_path,
                                                  monkeypatch, flags, message, capsys):
        def no_ga(*args, **kwargs):
            raise AssertionError("the GA ran")

        monkeypatch.setattr(pipeline, "calibrate", no_ga)
        monkeypatch.setattr(cli, "calibrate", no_ga)
        commands = [["benchmark", "--input", surveillance_csv, "--signal", "raw",
                     "--out", str(tmp_path / "bench")]]
        if flags[0] != "--methods":
            commands.append(["calibrate", "--method", "sma", "--input", series_csv])
        for argv in commands:
            assert main(argv + flags) == 1, argv
            assert message in capsys.readouterr().err

    def test_corrupt_report_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text('{"schema_version": 99, "reports": []}')
        rc = main(["report", "--report", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_unexpected_exception_exits_2_with_its_type(
        self, surveillance_csv, tmp_path, monkeypatch, capsys
    ):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(pipeline, "build_loocv_matrix", singular)
        rc = main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
                   "--out", str(tmp_path / "bench"), "--ga-pop", "8",
                   "--ga-iters", "1", "--methods", "tuk,fft,sma"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "internal error" in err and "LinAlgError" in err

    def test_unreadable_input_files_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.csv")
        for argv in (
            ["ingest", "--input", missing],
            ["smooth", "--method", "tuk", "--input", missing],
            ["report", "--report", missing, "--out", str(tmp_path / "out")],
        ):
            assert main(argv) == 1, argv
            assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("column, cell", [
        ("virus_copies_per_ml", "nan"),
        ("flow_m3_per_d", "inf"),
        ("incidence_7d_per_100k", "-3"),
    ])
    def test_bad_cells_exit_1(self, surveillance_csv, tmp_path, column, cell, capsys):
        with open(surveillance_csv) as fh:
            rows = list(csv.DictReader(fh))
        rows[5][column] = cell
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        rc = main(["benchmark", "--input", str(bad), "--signal", "raw",
                   "--out", str(tmp_path / "bench"), "--ga-pop", "8",
                   "--ga-iters", "1", "--methods", "tuk,fft,sma"])
        assert rc == 1
        assert "line 7" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("ga-pop", "x"),
        ("methods", 5),
        ("methods", ["tuk", 3, "sma"]),
        ("seed", "abc"),
        ("seed", 1.7),
        ("aic-sign", "bogus"),
        ("no-standardize", "false"),
        ("bogus-key", 1),
    ])
    def test_bad_config_value_exits_1(self, surveillance_csv, tmp_path, key, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
                   "--out", str(tmp_path / "bench"), "--config", str(cfg)])
        assert rc == 1
        assert key in capsys.readouterr().err

    def test_malformed_report_exits_1(self, surveillance_csv, tmp_path, capsys):
        bench = tmp_path / "bench"
        assert main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
                     "--out", str(bench), "--ga-pop", "8", "--ga-iters", "1",
                     "--methods", "tuk,fft,sma"]) == 0
        stored = (bench / "report.json").read_text()
        n = len(json.loads(stored)["reports"][0]["timestamps"])

        def edited(*path, value):
            payload = json.loads(stored)
            node = payload["reports"][0]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            return json.dumps(payload)

        assert json.loads(stored)["reports"][0]["regression"] is not None
        assignments = json.loads(stored)["reports"][0]["cluster"]["assignments"]
        assert sorted(assignments) == ["fft", "sma", "tuk"]
        capsys.readouterr()
        bad = tmp_path / "report.json"
        for text in ('{"schema_version": 1}', "{not json", "[]",
                     '{"schema_version": 1, "reports": [{"site": "A"}]}',
                     edited("methods", 0, "index", "mae", value=-1.0),  # index out of range
                     # only the AIC's null reads as -inf
                     edited("methods", 0, "index", "mae", value=None),
                     edited("band_level", value=None),
                     edited("regression", "slope", value=None),
                     # a series that does not hold one value a date
                     edited("band_upper", value=[1.0] * 10),
                     edited("original", value=[1.0] * (n + 1)),
                     edited("loocv_optimal", value=[[0.0] * n] * (n - 1)),
                     edited("loocv_optimal", value=[[0.0] * (n - 1)] * n),
                     # a value of another JSON type is not converted
                     edited("methods", 0, "index", "zero_residual", value="false"),
                     edited("methods", 0, "index", "mae", value="0.5"),
                     edited("band_level", value="0.9"),
                     edited("methods", 0, "ga_evaluations", value=True),
                     edited("methods", 0, "ga_evaluations", value=2.7),
                     # outcomes and cluster disagree: a scored method without a
                     # label, a label for no scored method, a label not in
                     # CLUSTER_LABELS, an outcome with both or neither of an
                     # index and an error
                     edited("cluster", "assignments",
                            value={k: v for k, v in assignments.items() if k != "sma"}),
                     edited("cluster", "assignments", value={**assignments, "spl": "best"}),
                     edited("cluster", "assignments", value={**assignments, "sma": "good"}),
                     edited("methods", 0, "index", value=None),
                     edited("methods", 0, "error", value="EvaluationFailure: boom")):
            bad.write_text(text)
            rc = main(["report", "--report", str(bad), "--out", str(tmp_path / "out")])
            assert rc == 1, text
            assert "malformed report" in capsys.readouterr().err

    def test_repeated_signal_kind_report_exits_1(self, surveillance_csv, tmp_path, capsys):
        bench = tmp_path / "bench"
        assert main(["benchmark", "--input", surveillance_csv, "--signal", "raw",
                     "--out", str(bench), "--ga-pop", "8", "--ga-iters", "1",
                     "--methods", "tuk,fft,sma"]) == 0
        payload = json.loads((bench / "report.json").read_text())
        payload["reports"] *= 2
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["report", "--report", str(dup), "--out", str(out)]) == 1
        assert "duplicate signal kinds" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestFlags:
    def test_flags_only_where_they_are_read(self, series_csv, tmp_path, capsys):
        for flag, argv in (
            ("--seed", ["smooth", "--method", "sma", "--input", series_csv, "--seed", "1"]),
            ("--config", ["report", "--report", "r.json", "--out", str(tmp_path),
                          "--config", "c.json"]),
            ("--ga-seed", ["calibrate", "--method", "sma", "--input", series_csv,
                           "--ga-seed", "1"]),
        ):
            assert main(argv) == 1, flag
            assert flag in capsys.readouterr().err


class TestHelp:
    def test_help_lists_all_method_codes(self, capsys):
        rc = main(["--help"])
        assert rc == 0
        text = capsys.readouterr().out
        for code in ("tuk", "kal", "fft", "spl", "ker", "sma", "rrm", "sup",
                     "pol", "sgf", "ari", "adp", "gam"):
            assert code in text
        assert "window" in text and "degree" in text and "[3,21]" in text



GUARD_SERIES = np.sin(np.arange(40) / 5.0) + 0.1 * np.cos(np.arange(40) * 1.7) + 2.0


def run_cli(*argv):
    """Run the CLI in a new interpreter, so its warnings print as they do for a user."""
    return subprocess.run(
        [sys.executable, "-m", "smoothbench.cli", *argv],
        env=dict(os.environ, PYTHONPATH=_import_path()), capture_output=True, text=True,
        timeout=120,
    )


def _import_path():
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothbench.__file__)))
    return os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


def run_fresh(code):
    """Run ``code`` in a new interpreter, with ``y`` set to GUARD_SERIES; its stdout."""
    prelude = "import sys\nimport numpy as np\ny = np.frombuffer(bytes.fromhex(sys.argv[1]))\n"
    done = subprocess.run(
        [sys.executable, "-c", prelude + code, GUARD_SERIES.tobytes().hex()],
        env=dict(os.environ, PYTHONPATH=_import_path()), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestScipyLoadsOnFirstUse:
    def test_no_scipy_without_spl_gam_adp(self):
        loaded = run_fresh(
            "import smoothbench, smoothbench.cli\n"
            "from smoothbench.smoothers import MethodId, apply_to_values, default_spec\n"
            "for code in 'tuk kal fft ker sma rrm sup pol sgf ari'.split():\n"
            "    apply_to_values(default_spec(MethodId(code)), y)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert loaded == "[]"

    def test_no_scipy_for_adp_and_fixed_penalty_gam(self):
        loaded = run_fresh(
            "from smoothbench.smoothers import MethodId, apply_to_values, default_spec\n"
            "from smoothbench.smoothers import deletion_loocv, linear_parts\n"
            "adp, gam = default_spec(MethodId.ADP), default_spec(MethodId.GAM)\n"
            "assert gam.named_params()['auto_penalty'] == 0\n"
            "apply_to_values(adp, y)\n"
            "imp = y[::-1].copy()\n"
            "deletion_loocv(MethodId.ADP, y, imp)(adp)[1]()\n"
            "apply_to_values(gam, y)\n"
            "linear_parts(gam, y)[2]()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert loaded == "[]"

    def test_every_method_loads_at_most_scipy_linalg(self):
        unwanted = ("interpolate", "special", "sparse", "optimize", "stats", "spatial", "fft")
        loaded = run_fresh(
            "from smoothbench.smoothers import MethodId, apply_to_values, default_spec\n"
            "from smoothbench.smoothers import make_spec\n"
            "for method in MethodId:\n"
            "    apply_to_values(default_spec(method), y)\n"
            "apply_to_values(make_spec(MethodId.GAM, {'basis_dim': 10, 'log10_penalty': 0.0,\n"
            "                                         'family': 0, 'auto_penalty': 1}), y)\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in\n"
            f"             [['scipy', name] for name in {unwanted!r}]))\n"
        )
        assert loaded == "[]"

    def test_full_benchmark_loads_no_interpolate_or_special(self, tmp_path):
        # one worker, so that every method runs in this interpreter
        path = tmp_path / "site.csv"
        write_surveillance_csv(bundled_records(n=30), str(path))
        loaded = run_fresh(
            "from smoothbench import cli\n"
            "cli.worker_count = lambda: 1\n"
            f"assert cli.main(['benchmark', '--input', {str(path)!r}, '--signal', 'raw',\n"
            f"                 '--out', {str(tmp_path / 'bench')!r},\n"
            "                 '--ga-pop', '4', '--ga-iters', '1']) == 0\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['scipy', 'interpolate'], ['scipy', 'special'])))\n"
        )
        assert loaded == "[]"

    @pytest.mark.parametrize("spec", [
        default_spec(MethodId.SPL),
        default_spec(MethodId.ADP),
        default_spec(MethodId.GAM),
        make_spec(MethodId.GAM, {"basis_dim": 10, "log10_penalty": 0.0, "family": 0,
                                 "auto_penalty": 1}),
    ], ids=lambda spec: f"{spec.method.value}{spec.params}")
    def test_scipy_method_called_first(self, spec):
        smoothed = run_fresh(
            "from smoothbench.smoothers import MethodId, SmootherSpec, apply_to_values\n"
            f"spec = SmootherSpec(MethodId({spec.method.value!r}), {spec.params!r})\n"
            "print(apply_to_values(spec, y).tobytes().hex())\n"
        )
        assert smoothed == apply_to_values(spec, GUARD_SERIES).tobytes().hex()


class TestBlasThreads:
    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_import_before_numpy_sets_one_openblas_thread(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = _import_path()
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = (
            "import os, sys\n"
            "assert 'numpy' not in sys.modules\n"
            "import smoothbench\n"
            "assert 'numpy' in sys.modules\n"
            "tasks = '/proc/self/task'\n"
            "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else 1\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], threads)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        value, threads = done.stdout.split()
        assert value == expected
        if preset is None:
            assert threads == "1"  # numpy's OpenBLAS started no thread of its own


# 20 rounds of eight 1 MiB arrays touch 40960 pages; kept pages fault in once
_PAGE_ROUNDS = (
    "import resource\n"
    "from smoothbench import cli\n"
    "{setup}\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "for _ in range(20):\n"
    "    arrays = [np.ones(1 << 17) for _ in range(8)]\n"
    "    del arrays\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
)
# the pages of four rounds: one round faults in once, and the rest reuse it
_KEPT_FAULT_BOUND = 4 * 8 * 256


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # no C library to load by name None
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
class TestFreedPages:
    def test_freed_pages_are_kept(self):
        kept = int(run_fresh(_PAGE_ROUNDS.format(setup="cli.keep_freed_pages()")))
        returned = int(run_fresh(_PAGE_ROUNDS.format(setup="")))
        assert kept < _KEPT_FAULT_BOUND < returned

    def test_main_keeps_freed_pages_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "keep_freed_pages", lambda: calls.append("kept"))
        monkeypatch.setattr(cli, "_parse_args", lambda *a: calls.append("parsed") or sys.exit(2))
        assert main(["smooth"]) == 1
        assert calls == ["kept", "parsed"]


# a cell of a generated surveillance file: missing, zero, or positive from the
# smallest subnormal to the largest finite double
_CELL = st.one_of(st.none(), st.just(0.0), st.floats(5e-324, sys.float_info.max))


@st.composite
def _surveillance_rows(draw):
    """(step in days, rows of (virus, flow, nh4, incidence) in file units), T from 3 to 24."""
    n = draw(st.integers(3, 24))
    step = draw(st.sampled_from([1, 3, 7]))
    cells = st.tuples(_CELL, _CELL, st.one_of(st.just(0.0), _CELL), _CELL)
    if draw(st.booleans()):
        rows = [draw(cells)] * n
    else:
        rows = draw(st.lists(cells, min_size=n, max_size=n))
    return step, rows


def _write_surveillance(path, step, rows):
    start = date(2021, 1, 1)
    lines = [",".join(SURVEILLANCE_COLUMNS + ("incidence_7d_per_100k",))]
    for i, cells in enumerate(rows):
        day = start + timedelta(days=step * i)
        lines.append(",".join([day.isoformat(), "A"] + ["" if c is None else repr(c)
                                                        for c in cells]))
    path.write_text("\n".join(lines) + "\n")


# the KAL repro: 6e153 copies/L after the unit factor, which no method is scored on
_KAL_OVERFLOW = (1, [(v, 5e5, 30.0, 10.0) for v in (0.0, 1e-3, 0.0, 6e150, 0.0, 1e-3, 2e-3)])
# VAR features near 1e196, whose squares overflow in the z-scores of the
# clustering and of the combined objective
_VAR_OVERFLOW = (1, [(1e96 * (1.0 + (i * 7) % 5), 5e5, 30.0, 10.0) for i in range(12)])
# about 1e203 copies/L, past the bound that calibrate, as smooth, keeps
_CALIBRATE_HUGE = (1, [((1 + 0.05 * i) * 1e200, 5e5, 30.0, 10.0) for i in range(20)])
# an NH4 cell of 1e-300 mg/L, on which the normalized load overflows
_NH4_NEAR_ZERO = (1, [(1e10 * (1 + 2 * i / 7), 100.0, 1e-300 if i == 4 else 30.0, 10.0 + i)
                      for i in range(8)])
_NH4_ERROR = "error: NH4 concentration is 1.0000000000000001e-303 at 2021-01-05: the normalized"
# normalized loads near 4e205, whose squares overflow in the load-incidence fit
_LOAD_OVERFLOW = (1, [(1e200 * (1 + 0.1 * i), 100.0, 30.0, 10.0 + i) for i in range(8)])
# 1e306 copies/ml, finite in the file, is 1e309 copies/L after the unit factor
_UNIT_OVERFLOW = (1, [(v, 100.0, 30.0, 10.0) for v in (1e306, 2e10, 3e10)])
_UNIT_ERROR = "error: line 2: virus_copies_per_ml='1e+306' overflows on its unit factor 1000"
# a surveillance file in Latin-1, not UTF-8: the site is Z\xfcrich
_LATIN_1 = ",".join(SURVEILLANCE_COLUMNS).encode() + b"\n2021-01-01,Z\xfcrich,1e10,100,30\n"


class TestErrorContract:
    """Every run ends in exit 0, 1 with ``error:`` or 2 with ``error: <Type>:``,
    and prints no numpy RuntimeWarning."""

    @staticmethod
    def _check(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        err = capsys.readouterr().err
        assert "internal error:" not in err, err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (
            [str(w.message) for w in caught])
        if rc == 1:
            assert re.search(r"^error: ", err, re.MULTILINE), err
        elif rc == 2:
            assert re.search(r"^error: \w+: ", err, re.MULTILINE), err
        else:
            assert rc == 0, err
        return rc

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=_surveillance_rows())
    @example(site=_KAL_OVERFLOW)
    @example(site=_VAR_OVERFLOW)
    @example(site=_NH4_NEAR_ZERO)
    @example(site=_LOAD_OVERFLOW)
    def test_benchmark_and_report(self, site, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        path = tmp_path / "site.csv"
        _write_surveillance(path, *site)
        for objective in OBJECTIVES:
            for signal in ("raw", "normalized", "both"):
                out = tmp_path / f"{objective}-{signal}"
                rc = self._check(["benchmark", "--input", str(path), "--out", str(out),
                                  "--signal", signal, "--objective", objective,
                                  "--ga-pop", "3", "--ga-iters", "1"], capsys)
                if rc == 0:
                    report = str(out / "report.json")
                    self._check(["report", "--report", report, "--out", str(out / "again")],
                                capsys)
                    for kind in ("raw", "normalized") if signal == "both" else (signal,):
                        self._check(["regress", "--input", str(path), "--report", report,
                                     "--signal", kind, "--out", str(out / "fit.csv")], capsys)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=_surveillance_rows())
    @example(site=_KAL_OVERFLOW)
    def test_smooth(self, site, tmp_path, capsys):
        path = tmp_path / "site.csv"
        _write_surveillance(path, *site)
        for method in MethodId:
            params = [f"--param={name}={value!r}"
                      for name, value in default_spec(method).named_params().items()]
            self._check(["smooth", "--method", method.value, *params, "--input", str(path),
                         "--out", str(tmp_path / "smoothed.csv")], capsys)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=_surveillance_rows())
    @example(site=_CALIBRATE_HUGE)
    @example(site=_NH4_NEAR_ZERO)
    @example(site=_LOAD_OVERFLOW)
    @example(site=_UNIT_OVERFLOW)
    def test_calibrate_normalize_regress(self, site, tmp_path, capsys):
        path = tmp_path / "site.csv"
        _write_surveillance(path, *site)
        out = str(tmp_path / "out")
        echo = str(tmp_path / "echo.csv")
        if self._check(["ingest", "--input", str(path), "--out", echo], capsys) == 0:
            assert self._check(["ingest", "--input", echo, "--out", out], capsys) == 0
        for method in PARAMETRIC_METHODS:
            self._check(["calibrate", "--method", method.value, "--input", str(path),
                         "--ga-pop", "3", "--ga-iters", "1", "--out", out], capsys)
        self._check(["normalize", "--input", str(path), "--out", out], capsys)
        self._check(["regress", "--input", str(path), "--raw-loads", "--out", out], capsys)

    @pytest.mark.parametrize("site, argv, code, message", [
        (_CALIBRATE_HUGE, ["calibrate", "--method", "sgf", "--ga-pop", "4", "--ga-iters", "1"],
         2, "error: EvaluationFailure: sgf is not calibrated on values past 1e+150"),
        (_NH4_NEAR_ZERO, ["normalize", "--f-nh4", "10.71"], 1, _NH4_ERROR),
        (_NH4_NEAR_ZERO, ["regress", "--raw-loads"], 1, _NH4_ERROR),
        (_NH4_NEAR_ZERO, ["benchmark", "--signal", "normalized", "--ga-pop", "3",
                          "--ga-iters", "1"], 1, _NH4_ERROR),
        (_LOAD_OVERFLOW, ["regress", "--raw-loads", "--f-nh4", "10.71"],
         2, "error: EvaluationFailure: the linear fit overflows"),
        (_UNIT_OVERFLOW, ["ingest"], 1, _UNIT_ERROR),
        (_UNIT_OVERFLOW, ["smooth", "--method", "sma", "--param", "window=3"], 1, _UNIT_ERROR),
        (_UNIT_OVERFLOW, ["normalize", "--f-nh4", "10.71"], 1, _UNIT_ERROR),
        # np.random.default_rng takes no negative seed
        (_LOAD_OVERFLOW, ["calibrate", "--method", "sma", "--seed", "-1"],
         1, "error: seed must be nonnegative, got -1"),
        # an infinite f_nh4 overflows every load, which is not the data's fault
        (_LOAD_OVERFLOW, ["benchmark", "--f-nh4", "inf", "--ga-pop", "3", "--ga-iters", "1"],
         1, "error: f_nh4 must be positive and finite, got inf"),
        (_LOAD_OVERFLOW, ["normalize", "--f-nh4", "inf"],
         1, "error: f_nh4 must be positive and finite, got inf"),
        # {path} is the site file; a file that is not UTF-8 is an input error
        (_LATIN_1, ["ingest"], 1, "error: cannot read "),
        (_LATIN_1, ["smooth", "--method", "sma", "--param", "window=3"],
         1, "error: cannot read "),
        (_LATIN_1, ["report", "--report", "{path}"], 1, "error: cannot read "),
        (_LATIN_1, ["benchmark", "--config", "{path}", "--input", "{path}"],
         1, "error: cannot read "),
    ], ids=["calibrate", "normalize", "regress-nh4", "benchmark-nh4", "regress-overflow",
            "ingest-unit", "smooth-unit", "normalize-unit", "calibrate-seed",
            "benchmark-f-nh4", "normalize-f-nh4", "ingest-latin-1", "smooth-latin-1",
            "report-latin-1", "config-latin-1"])
    def test_pinned_repros(self, site, argv, code, message, tmp_path, capsys):
        path = tmp_path / "site.csv"
        if isinstance(site, bytes):
            path.write_bytes(site)
        else:
            _write_surveillance(path, *site)
        if "{path}" not in argv:
            argv = argv + ["--input", "{path}"]
        argv = [a.format(path=path) for a in argv] + ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert capsys.readouterr().err.startswith(message)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
