import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothbench.pipeline as pl
from smoothbench.calibration import GaConfig
from smoothbench.errors import (
    EvaluationFailure,
    InputError,
    MissingBiomarker,
    SchemaError,
    SeriesTooShort,
)
from smoothbench.clustering import cluster_methods
from smoothbench.evaluation import evaluate_method
from smoothbench.pipeline import PipelineConfig, method_seed, run_benchmark
from smoothbench.reportio import (
    parse_reports_json,
    read_reports,
    reports_json,
    write_reports,
)
from smoothbench.smoothers import MethodId, SmootherSpec
from smoothbench.synthetic import DEFAULT_F_NH4, bundled_records, catchment_suite
from smoothbench.timeseries import SurveillanceRecord, TimeSeries, build_series, impute_linear

TINY = dict(ga=GaConfig(population_size=8, iterations=3))


def tiny_config(**kw):
    merged = dict(TINY, f_nh4=DEFAULT_F_NH4)
    merged.update(kw)
    return PipelineConfig(**merged)


@pytest.fixture(scope="module")
def bundled():
    return bundled_records()


@pytest.fixture(scope="module")
def raw_report(bundled):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_benchmark(bundled, "raw", tiny_config())


def constant_records(n=12):
    start = date(2020, 10, 1)
    return [
        SurveillanceRecord(
            site="flat",
            timestamp=start + timedelta(days=i),
            c_virus=5e4,
            q_flow=1e8,
            c_nh4=0.03,
        )
        for i in range(n)
    ]


class TestRunBenchmark:
    def test_report_completeness(self, raw_report):
        assert raw_report.signal_kind == "raw"
        assert len(raw_report.outcomes) == 13
        assert all(o.ok for o in raw_report.outcomes)
        labels = set(raw_report.cluster.assignments.values())
        assert labels == {"best", "middle", "worst"}
        assert raw_report.optimal_method in {o.method for o in raw_report.outcomes}
        assert len(raw_report.cluster.medoids) == 3
        assert len(raw_report.smoothed) == len(raw_report.timestamps)

    def test_band_ordered_pointwise(self, raw_report):
        assert all(
            lo <= hi for lo, hi in zip(raw_report.band_lower, raw_report.band_upper)
        )

    def test_parameter_free_methods_skip_calibration(self, raw_report):
        for o in raw_report.outcomes:
            if o.method in (MethodId.TUK, MethodId.KAL, MethodId.FFT):
                assert o.ga_seed is None
                assert o.ga_evaluations == 0
            else:
                assert o.ga_seed is not None
                assert o.ga_evaluations > 0

    def test_provenance_counts(self, raw_report):
        counts = raw_report.provenance["evaluation_counts"]
        n = counts["series_length"]
        total = sum(
            (c["ga_evaluations"] + c["final_loocv_builds"]) * n
            for c in counts["per_method"].values()
        ) + 1
        assert counts["smoother_applications"] == total

    def test_regression_attached_when_incidence_present(self, raw_report):
        assert raw_report.regression is not None
        assert raw_report.regression.n > 10

    @pytest.mark.parametrize("standard_aic_sign", [False, True])
    def test_indices_match_evaluate_method(self, bundled, standard_aic_sign):
        config = tiny_config(
            methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA, MethodId.SPL),
            standard_aic_sign=standard_aic_sign,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_benchmark(bundled, "raw", config)
        imputed = impute_linear(build_series(bundled, "c_virus"))
        assert imputed.values().tolist() == list(report.imputed)
        for o in report.outcomes:
            spec = SmootherSpec(o.method, o.params)
            assert o.index == evaluate_method(spec, imputed, standard_aic_sign)

    def test_determinism(self, bundled, raw_report):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = run_benchmark(bundled, "raw", tiny_config())
        assert again == raw_report
        assert reports_json([again]) == reports_json([raw_report])

    def test_constant_input_degenerate_path(self):
        report = run_benchmark(constant_records(), "raw", tiny_config())
        # every method ties at (numerically) zero error; the exactly-zero ones
        # exercise the -inf AIC sentinel and the degenerate clustering path
        sentinels = 0
        for o in report.outcomes:
            if o.ok:
                assert o.index.mae <= 1e-8
                assert o.index.var <= 1e-8
                sentinels += o.index.aic == float("-inf")
        assert sentinels >= 5
        repeat = run_benchmark(constant_records(), "raw", tiny_config())
        assert repeat.optimal_method == report.optimal_method
        assert repeat == report

    def test_too_few_samples(self):
        with pytest.raises(SeriesTooShort):
            run_benchmark(constant_records(4), "raw", tiny_config())

    def test_aic_sign_switch_shifts_by_2k(self, bundled):
        methods = (MethodId.TUK, MethodId.FFT, MethodId.SMA)
        subtracted = run_benchmark(bundled, "raw", tiny_config(methods=methods))
        added = run_benchmark(
            bundled, "raw", tiny_config(methods=methods, standard_aic_sign=True)
        )
        for p, s in zip(subtracted.outcomes, added.outcomes):
            assert s.index.aic == pytest.approx(p.index.aic + 4 * p.index.k, rel=1e-12)

    def test_no_standardize_flag_clusters_raw_features(self, bundled):
        methods = (MethodId.TUK, MethodId.FFT, MethodId.SMA, MethodId.KER)
        report = run_benchmark(
            bundled, "raw", tiny_config(methods=methods, standardize=False)
        )
        assert set(report.cluster.assignments.values()) == {"best", "middle", "worst"}

    def test_stage_isolation_recluster(self, raw_report):
        indices = [o.index for o in raw_report.outcomes if o.ok]
        redo = cluster_methods(indices)
        assert redo == raw_report.cluster

    def test_failed_method_excluded_with_warning(self, bundled, monkeypatch):
        real = pl.build_loocv_matrix

        def sabotage(spec, series):
            if spec.method is MethodId.TUK:
                raise SeriesTooShort("sabotaged for the test")
            return real(spec, series)

        monkeypatch.setattr(pl, "build_loocv_matrix", sabotage)
        config = tiny_config(methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA, MethodId.KER))
        with pytest.warns(UserWarning, match="tuk"):
            report = run_benchmark(bundled, "raw", config)
        failed = next(o for o in report.outcomes if o.method is MethodId.TUK)
        assert not failed.ok
        assert "SeriesTooShort" in failed.error
        assert MethodId.TUK not in report.cluster.assignments
        assert len([o for o in report.outcomes if o.ok]) == 3

    def test_non_finite_indices_exclude_methods(self, bundled):
        # at 1e150 times the bundled concentrations every index's squares
        # overflow: each method fails on its own instead of aborting the run
        scaled = [
            replace(r, c_virus=None if r.c_virus is None else r.c_virus * 1e150) for r in bundled
        ]
        methods = (MethodId.TUK, MethodId.SPL, MethodId.SMA, MethodId.KER)
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(EvaluationFailure, match="only 0 methods succeeded"):
                run_benchmark(scaled, "raw", tiny_config(methods=methods))
        excluded = [str(w.message) for w in caught if "failed and is excluded" in str(w.message)]
        assert [text.split()[1] for text in excluded] == [m.value for m in methods]


class TestEvaluateOne:
    def test_failure_is_recorded_not_raised(self, bundled, monkeypatch):
        def sabotage(spec, series):
            raise SeriesTooShort("sabotaged for the test")

        monkeypatch.setattr(pl, "build_loocv_matrix", sabotage)
        config = tiny_config()
        imputed = impute_linear(build_series(bundled, "c_virus"))
        with pytest.warns(UserWarning, match="method sma failed and is excluded"):
            outcome, smooth = pl.evaluate_one(config, MethodId.SMA, imputed)
        assert smooth is None
        assert outcome.error == "SeriesTooShort: sabotaged for the test"
        assert (outcome.params, outcome.index) == (None, None)
        assert outcome.ga_seed == method_seed(config.ga.seed, MethodId.SMA)
        assert outcome.ga_evaluations > 0

    def test_kalman_overflow_excludes_the_method(self):
        imputed = TimeSeries.from_values([0.0, 1.0, 0.0, 6e153, 0.0, 1.0, 2.0])
        with np.errstate(all="ignore"), pytest.warns(
                UserWarning, match="method kal failed and is excluded"):
            outcome, _ = pl.evaluate_one(tiny_config(), MethodId.KAL, imputed)
        assert outcome.error.startswith("EvaluationFailure: kal")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_values_up_to_max_magnitude_are_scored(self, method):
        # a spike at the bound: every sum of squares stays below the largest double
        y = np.zeros(24)
        y[11] = pl.MAX_MAGNITUDE
        config = tiny_config(objective="combined")
        outcome, _ = pl.evaluate_one(config, method, TimeSeries.from_values(y))
        assert outcome.ok, outcome.error
        y[11] = np.nextafter(pl.MAX_MAGNITUDE, np.inf)
        with pytest.warns(UserWarning, match=f"method {method.value} failed and is excluded"):
            outcome, _ = pl.evaluate_one(config, method, TimeSeries.from_values(y))
        assert outcome.error == (
            f"EvaluationFailure: {method.value} is not scored on values past 1e+150")
        assert outcome.ga_evaluations == 0

    def test_run_benchmark_maps_evaluate_one(self, bundled):
        config = tiny_config(methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA, MethodId.SPL),
                             include_loocv=True)
        report = run_benchmark(bundled, "raw", config)
        imputed = impute_linear(build_series(bundled, "c_virus"))
        for method, got in zip(config.methods, report.outcomes):
            assert got == pl.evaluate_one(config, method, imputed)[0]
        optimal = SmootherSpec(report.optimal_method, report.optimal_params)
        assert report.loocv_optimal == tuple(
            tuple(row) for row in pl.build_loocv_matrix(optimal, imputed).matrix)


def _sabotage_ker_and_pol(monkeypatch):
    """ker and pol fail, naming the process they ran in; ker fails late."""
    real = pl.build_loocv_matrix

    def sabotage(spec, series):
        if spec.method is MethodId.KER:
            time.sleep(0.5)
        if spec.method in (MethodId.KER, MethodId.POL):
            raise SeriesTooShort(f"sabotaged in process {os.getpid()}")
        return real(spec, series)

    monkeypatch.setattr(pl, "build_loocv_matrix", sabotage)


def _excluded(bundled, jobs):
    """(method code, process id) of each excluded method's warning, and every
    warning's category, from a five-method run with ker and pol sabotaged."""
    methods = (MethodId.TUK, MethodId.FFT, MethodId.KER, MethodId.SMA, MethodId.POL)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_benchmark(bundled, "raw", tiny_config(methods=methods), jobs=jobs)
    assert [o.ok for o in report.outcomes] == [True, True, False, True, False]
    texts = [str(w.message).split() for w in caught if "failed and is excluded" in str(w.message)]
    return [(text[1], int(text[-1])) for text in texts], {w.category for w in caught}


class TestWorkerPool:
    def test_worker_count_caps_the_cpus_at_the_method_count(self, monkeypatch):
        # len(range(...)) counts a million CPUs without holding them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(10**6), raising=False)
        assert pl.worker_count(13) == 13
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert pl.worker_count(13) == 2
        assert pl.worker_count(1) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 10**6)
        assert pl.worker_count(13) == 13

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_1_rejected_before_any_ga(self, bundled, monkeypatch, jobs):
        def no_ga(*args, **kwargs):
            raise AssertionError("the GA ran")

        monkeypatch.setattr(pl, "calibrate", no_ga)
        with pytest.raises(InputError, match=f"jobs must be at least 1, got {jobs}"):
            run_benchmark(bundled, "raw", tiny_config(), jobs=jobs)

    def test_warnings_come_in_method_order(self, bundled, monkeypatch):
        # pol is submitted before ker and ker's failure is delayed, so pol's
        # warning is raised first in its worker; ker's still comes first here
        assert pl._single_threaded(), "a second thread in the test process stops the pool"
        _sabotage_ker_and_pol(monkeypatch)
        excluded, categories = _excluded(bundled, jobs=2)
        assert [code for code, _ in excluded] == ["ker", "pol"]
        assert os.getpid() not in {pid for _, pid in excluded}
        assert categories == {UserWarning}

    def test_a_process_with_threads_runs_the_methods_itself(self, bundled, monkeypatch):
        # forking a process that has other threads can deadlock the child
        _sabotage_ker_and_pol(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            excluded, categories = _excluded(bundled, jobs=2)
        finally:
            release.set()
            waiter.join()
        assert excluded == [("ker", os.getpid()), ("pol", os.getpid())]
        assert categories == {UserWarning}

    def test_no_worker_outlives_a_run(self, bundled, monkeypatch):
        config = tiny_config(methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA))
        run_benchmark(bundled, "raw", config, jobs=2)
        assert multiprocessing.active_children() == []

        def singular(spec, series):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(pl, "build_loocv_matrix", singular)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            run_benchmark(bundled, "raw", config, jobs=2)
        assert multiprocessing.active_children() == []

    def test_spl_and_gam_share_a_job_between_sup_and_rrm(self):
        methods = (MethodId.TUK, MethodId.GAM, MethodId.RRM, MethodId.SPL, MethodId.SUP,
                   MethodId.KAL)
        assert pl._jobs(methods) == [
            (MethodId.SUP,), (MethodId.SPL, MethodId.GAM), (MethodId.RRM,),
            (MethodId.TUK,), (MethodId.KAL,)]
        assert pl._jobs((MethodId.GAM, MethodId.TUK, MethodId.FFT)) == [
            (MethodId.GAM,), (MethodId.TUK,), (MethodId.FFT,)]

    @staticmethod
    def _counted_forks(monkeypatch) -> list[int]:
        forks = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks

    def test_no_more_workers_than_jobs(self, bundled, monkeypatch):
        forks = self._counted_forks(monkeypatch)
        config = tiny_config(methods=(MethodId.SPL, MethodId.GAM, MethodId.TUK))
        report = run_benchmark(bundled, "raw", config, jobs=3)
        assert len(forks) == 2
        assert report.outcomes == run_benchmark(bundled, "raw", config).outcomes

    def test_a_run_right_after_a_run_starts_its_own_pool(self, bundled, monkeypatch):
        # the first pool's joined threads stay listed in /proc/self/task for
        # up to a few ms after it returns; the second run forks all the same
        forks = self._counted_forks(monkeypatch)
        config = tiny_config(methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA))
        for run in (1, 2):
            run_benchmark(bundled, "raw", config, jobs=2)
            assert len(forks) == 2 * run

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_finish_counts_only_for_the_optimal_method(self, bundled, monkeypatch,
                                                               jobs):
        # each method's worker smooths it in full, but what that raises or warns
        # is the run's only if the method is optimal, as when the parent smoothed it
        config = tiny_config(methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA, MethodId.KER))
        clean = run_benchmark(bundled, "raw", config)
        real = pl.apply_smoother

        def sabotage(method):
            def smooth(spec, series):
                if spec.method is method:
                    warnings.warn(f"finishing {method.value}", RuntimeWarning)
                    raise SeriesTooShort(f"{method.value} sabotaged")
                return real(spec, series)

            monkeypatch.setattr(pl, "apply_smoother", smooth)

        sabotage(next(m for m in config.methods if m is not clean.optimal_method))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_benchmark(bundled, "raw", config, jobs=jobs) == clean
        assert [str(w.message) for w in caught] == []
        sabotage(clean.optimal_method)
        with pytest.warns(RuntimeWarning, match=f"finishing {clean.optimal_method.value}"), \
                pytest.raises(SeriesTooShort, match="sabotaged"):
            run_benchmark(bundled, "raw", config, jobs=jobs)


@pytest.mark.parametrize("seed, optimal", [(0, "spl"), (3, "gam")])
def test_scipy_linalg_loads_in_one_worker_only(tmp_path, seed, optimal):
    # a new interpreter, so that nothing has loaded scipy before the run
    log = tmp_path / "calls"
    script = textwrap.dedent(f"""
        import os, sys
        import smoothbench.pipeline as pl
        from smoothbench.calibration import GaConfig
        from smoothbench.smoothers import MethodId
        from smoothbench.synthetic import bundled_records

        evaluate_one = pl.evaluate_one

        def recorded(config, method, imputed):
            result = evaluate_one(config, method, imputed)
            with open({str(log)!r}, "a") as handle:
                handle.write(f"{{method.value}} {{os.getpid()}} {{'scipy.linalg' in sys.modules}}\\n")
            return result

        pl.evaluate_one = recorded
        methods = tuple(MethodId(code) for code in ("spl", "gam", "sma", "tuk", "fft"))
        config = pl.PipelineConfig(ga=GaConfig(population_size=4, iterations=1, seed={seed}),
                                   methods=methods)
        report = pl.run_benchmark(bundled_records(n=30), "raw", config, jobs=2)
        print(os.getpid(), report.optimal_method.value, "scipy" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(pl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    parent, best, parent_scipy = done.stdout.split()
    assert (best, parent_scipy) == (optimal, "False")
    calls = {code: (int(pid), loaded == "True")
             for code, pid, loaded in (line.split() for line in log.read_text().splitlines())}
    assert sorted(calls) == ["fft", "gam", "sma", "spl", "tuk"]
    assert int(parent) not in {pid for pid, _ in calls.values()}
    assert calls["spl"][0] == calls["gam"][0]
    assert calls["spl"][1] and calls["gam"][1]
    assert {pid for pid, loaded in calls.values() if loaded} == {calls["spl"][0]}


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_exit_when_their_parent_is_killed(tmp_path):
    # every method names its process in tmp_path and sleeps; the run is then
    # killed as a deadline kills it, so no cleanup runs in the parent
    script = textwrap.dedent(f"""
        import os, time
        import smoothbench.pipeline as pl
        from smoothbench.calibration import GaConfig
        from smoothbench.smoothers import MethodId
        from smoothbench.synthetic import bundled_records

        def slow(config, method, imputed):
            open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
            time.sleep(60)

        pl.evaluate_one = slow
        config = pl.PipelineConfig(ga=GaConfig(population_size=2, iterations=0),
                                   methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA))
        pl.run_benchmark(bundled_records(), "raw", config, jobs=2)
    """)
    src = os.path.dirname(os.path.dirname(pl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 30.0
        while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    workers = {int(name) for name in os.listdir(tmp_path)}
    try:
        assert len(workers) == 2 and proc.pid not in workers
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


class TestRawAndNormalized:
    def test_missing_biomarker(self):
        records = [
            SurveillanceRecord(site="x", timestamp=date(2020, 1, 1) + timedelta(days=i), c_virus=1e4 + i)
            for i in range(10)
        ]
        raw = run_benchmark(records, "raw", tiny_config(methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA)))
        assert raw.signal_kind == "raw"
        with pytest.raises(MissingBiomarker):
            run_benchmark(records, "normalized", tiny_config())

    def test_unknown_site_without_f_nh4_lists_reference_sites(self, bundled):
        config = PipelineConfig(**TINY, methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA))
        with pytest.raises(InputError, match=r"\['A', 'B', 'C', 'D'\]"):
            run_benchmark(bundled, "normalized", config)

    def test_pair_runs_tagged(self, bundled):
        config = tiny_config(methods=(MethodId.TUK, MethodId.FFT, MethodId.SMA, MethodId.SPL))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw, norm = [run_benchmark(bundled, kind, config) for kind in ("raw", "normalized")]
        assert (raw.signal_kind, norm.signal_kind) == ("raw", "normalized")
        assert raw.original != norm.original

    def test_constant_nh4_preserves_ranking_for_scale_equivariant_methods(self, bundled):
        # NH4 constant makes the normalized signal proportional to raw, so the
        # scale-equivariant subset must rank identically
        records = [
            SurveillanceRecord(
                site=r.site, timestamp=r.timestamp, c_virus=r.c_virus,
                q_flow=r.q_flow, c_nh4=0.025, active_cases=r.active_cases,
                incidence_7d=r.incidence_7d,
            )
            for r in bundled
        ]
        subset = (MethodId.SMA, MethodId.RRM, MethodId.TUK, MethodId.SPL,
                  MethodId.KER, MethodId.POL, MethodId.SGF, MethodId.FFT)
        config = tiny_config(methods=subset)
        raw, norm = [run_benchmark(records, kind, config) for kind in ("raw", "normalized")]
        assert raw.optimal_method == norm.optimal_method
        assert raw.cluster.assignments == norm.cluster.assignments


class TestConfig:
    def test_bad_ga_budget_fails_at_construction(self):
        with pytest.raises(InputError, match="population_size"):
            PipelineConfig(ga=GaConfig(population_size=1))
        # 5% elitism of 10 individuals rounds to none; the elite floors at one
        assert PipelineConfig(ga=GaConfig(population_size=10)).ga.elite_count == 1

    def test_bad_settings_fail_at_construction(self):
        for level in (1.5, 1.0, 0.0, -0.2):
            with pytest.raises(InputError, match="band_level"):
                PipelineConfig(band_level=level)
        with pytest.raises(InputError, match="objective"):
            PipelineConfig(objective="bic")
        for objective in ("aic", "mae", "combined"):
            assert PipelineConfig(objective=objective).objective == objective

    def test_repeated_method_fails_at_construction(self):
        with pytest.raises(InputError, match="once"):
            PipelineConfig(methods=("sma", "sma", "tuk", "fft"))

    def test_nonpositive_f_nh4_fails_at_construction(self):
        for f_nh4 in (0.0, -1.0, float("nan")):
            with pytest.raises(InputError, match="f_nh4"):
                PipelineConfig(f_nh4=f_nh4)

    def test_desk_budget_accepted(self):
        assert PipelineConfig().ga.population_size == 30


class TestSeeds:
    def test_method_seeds_stable_and_distinct(self):
        seeds = {m: method_seed(42, m) for m in MethodId}
        assert len(set(seeds.values())) == 13
        assert all(method_seed(42, m) == s for m, s in seeds.items())
        assert method_seed(43, MethodId.SMA) != seeds[MethodId.SMA]

    def test_dropping_methods_leaves_others_untouched(self, bundled):
        config_full = tiny_config(methods=(MethodId.SMA, MethodId.SPL, MethodId.KER, MethodId.TUK))
        config_less = tiny_config(methods=(MethodId.SMA, MethodId.SPL, MethodId.TUK))
        full = run_benchmark(bundled, "raw", config_full)
        less = run_benchmark(bundled, "raw", config_less)
        by_method_full = {o.method: o for o in full.outcomes}
        by_method_less = {o.method: o for o in less.outcomes}
        for m in (MethodId.SMA, MethodId.SPL):
            assert by_method_full[m].params == by_method_less[m].params
            assert by_method_full[m].index == by_method_less[m].index


def with_failed_method(report):
    """``report`` with one non-medoid, non-optimal method failed and no regression."""
    failed = next(m for m in report.cluster.assignments
                  if m not in report.cluster.medoids and m is not report.optimal_method)
    outcomes = tuple(
        pl.MethodOutcome(o.method, ga_seed=o.ga_seed, ga_evaluations=o.ga_evaluations,
                         error="EvaluationFailure: no viable genome")
        if o.method is failed else o
        for o in report.outcomes)
    assignments = {m: label for m, label in report.cluster.assignments.items() if m is not failed}
    return replace(report, outcomes=outcomes, regression=None,
                   cluster=replace(report.cluster, assignments=assignments))


def _scalar_paths(node, path=()):
    """The paths to the scalars of a JSON document that are not null."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [] if node is None else [path]
    return [p for key, child in items for p in _scalar_paths(child, path + (key,))]


_JSON_VALUES = st.one_of(
    st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


class TestReportIo:
    @pytest.mark.parametrize("variant", [lambda r: r, with_failed_method],
                             ids=["as_run", "failed_method_no_regression"])
    def test_json_round_trip_identity(self, raw_report, variant):
        report = variant(raw_report)
        text = reports_json([report])
        back = parse_reports_json(text)
        assert back == [report]
        assert reports_json(back) == text

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_scalar_of_another_json_type_is_a_schema_error(self, raw_report, data):
        payload = json.loads(reports_json([raw_report]))
        stored = payload["reports"][0]
        # provenance is free-form: its values have no type to check
        path = data.draw(st.sampled_from(
            [p for p in _scalar_paths(stored) if p[0] != "provenance"]))
        node = stored
        for key in path[:-1]:
            node = node[key]
        old = node[path[-1]]
        same = (int, float) if type(old) is float else (type(old),)  # an int is a float too
        node[path[-1]] = data.draw(_JSON_VALUES.filter(lambda v: type(v) not in same))
        with pytest.raises(SchemaError):
            parse_reports_json(json.dumps(payload))

    def test_absent_keys_read_as_none(self, raw_report):
        payload = json.loads(reports_json([raw_report]))
        stored = payload["reports"][0]
        for key in ("index", "params", "ga_seed", "error", "ga_evaluations"):
            del stored["methods"][0][key]
        del stored["regression"]
        stored["methods"][1]["index"]["aic"] = None
        (back,) = parse_reports_json(json.dumps(payload))
        assert back.outcomes[0] == pl.MethodOutcome(raw_report.outcomes[0].method)
        assert back.outcomes[0].ga_evaluations == 0
        assert back.outcomes[1].index.aic == float("-inf")
        assert back.outcomes[1].index.method == raw_report.outcomes[1].method.value
        assert back.regression is None
        assert back.loocv_optimal is None and "loocv_optimal" in stored
        del stored["loocv_optimal"]
        assert parse_reports_json(json.dumps(payload))[0].loocv_optimal is None

    def test_write_read_write_bytes_identical(self, raw_report, tmp_path):
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        write_reports([raw_report], str(out1))
        loaded = read_reports(str(out1 / "report.json"))
        write_reports(loaded, str(out2))
        for name in ("report.json", "smoothed_raw.csv", "clusters.csv", "regression.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_all_four_payloads_exist_and_reparse(self, raw_report, tmp_path):
        paths = write_reports([raw_report], str(tmp_path))
        names = {p.split("/")[-1] for p in paths}
        assert names == {"report.json", "smoothed_raw.csv", "clusters.csv", "regression.csv"}
        import csv

        with open(tmp_path / "clusters.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 13
        assert {r["cluster"] for r in rows} <= {"best", "middle", "worst"}
        assert sum(int(r["is_optimal"]) for r in rows) == 1
        with open(tmp_path / "smoothed_raw.csv") as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) == len(raw_report.timestamps)
        assert float(srows[0]["smoothed"]) == raw_report.smoothed[0]

    def test_neg_inf_aic_round_trips(self, tmp_path):
        report = run_benchmark(constant_records(), "raw", tiny_config())
        ok = [o for o in report.outcomes if o.ok]
        assert any(o.index.aic == float("-inf") for o in ok)
        back = parse_reports_json(reports_json([report]))[0]
        assert back == report

    def test_neg_inf_aic_reads_minus_inf_in_clusters_csv(self, tmp_path):
        import csv

        report = run_benchmark(constant_records(), "raw", tiny_config())
        write_reports([report], str(tmp_path))
        with open(tmp_path / "clusters.csv") as fh:
            aic = {r["method"]: r["aic"] for r in csv.DictReader(fh)}
        zero = [o.method.value for o in report.outcomes if o.ok and o.index.aic == float("-inf")]
        assert zero
        for method in zero:
            assert aic[method] == "-inf", method

    def test_loocv_traces_optional(self, bundled):
        config = tiny_config(methods=(MethodId.TUK, MethodId.SMA, MethodId.FFT), include_loocv=True)
        report = run_benchmark(bundled, "raw", config)
        n = len(report.timestamps)
        assert report.loocv_optimal is not None
        assert len(report.loocv_optimal) == n
        back = parse_reports_json(reports_json([report]))[0]
        assert back == report


class TestSynthetic:
    def test_bundled_shape(self, bundled):
        assert len(bundled) == 60
        assert sum(r.c_virus is None for r in bundled) == 1
        assert sum(r.c_nh4 is None for r in bundled) == 2
        assert all(r.incidence_7d is not None for r in bundled)

    def test_catchment_suite_noise_ordering(self):
        suite = catchment_suite()
        assert list(suite) == ["A", "B", "C", "D"]
        spreads = {}
        for site, (records, truth) in suite.items():
            values = np.array([r.c_virus for r in records])
            spreads[site] = np.std(np.log(values / np.maximum(truth.c_virus, 1e-12)))
        assert spreads["A"] < spreads["B"] < spreads["C"] < spreads["D"]
