"""End-to-end benchmark workflow.

normalize (optional) -> impute -> per-method GA calibration -> LOOCV indices
-> K-medoid clustering -> optimal method -> full-series smooth + confidence
band -> report.  ``evaluate_one`` calibrates and scores one method and shares
no state with the others: per-method GA seeds are derived by hashing the
master seed with the method code, so dropping one method never perturbs the
others.  ``run_benchmark`` runs it for the methods in up to ``jobs`` forked
worker processes (by default one: in the calling process), one job of
``_JOBS`` per worker at a time, longest first, and merges the outcomes and
the warnings each worker caught in the order of ``config.methods``, so the
report and the warnings are the same for every job count.  SPL and GAM, the
methods that load ``scipy.linalg``, share a job, so that one process of a
run at most loads it.  Each method's worker also finishes it: its full-series
smooth and its confidence band (and under ``include_loocv`` its LOOCV
matrix), so after clustering the parent only picks the optimal method's and
runs no smoother.  It forks only from a process that runs one thread, and
otherwise runs every method in-process; a worker exits once its parent is
gone.  Methods that fail are excluded from clustering with a warning instead
of aborting the run.
``normalized_loads`` and ``fit_loads`` are the one producer each of the
NH4-normalized series and the load-incidence fit.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from . import __version__
from .calibration import (
    CROSSOVER_RATE,
    ELITISM_FRACTION,
    MUTATION_RATE,
    OBJECTIVES,
    GaConfig,
    calibrate,
)
from .clustering import ClusterResult, cluster_methods
from .errors import (
    EvaluationFailure,
    InputError,
    MissingBiomarker,
    SeriesTooShort,
    SmoothbenchError,
)
from .evaluation import (
    LoocvEvaluator,
    LoocvMatrix,
    PerformanceIndex,
    build_loocv_matrix,
    confidence_band,
    performance_index,
)
from .normalization import normalize_series, reference_nh4_load
from .regression import LinearFit, fit_linear, join_load_incidence
from .smoothers import (
    PARAM_SPECS,
    MethodId,
    SmootherSpec,
    apply_smoother,
    default_spec,
)
from .timeseries import SurveillanceRecord, TimeSeries, build_series, impute_linear

SIGNAL_KINDS = ("raw", "normalized")
MAX_MAGNITUDE = 1e150  # past it, sums of squares of the values near the largest double

# The jobs of a worker pool, longest first, so that no long one starts last:
# two jobs keep their order unless their measured cost (in-process, scipy's
# import included) ranks them the other way both at T=30 and at T=365.  SPL
# and GAM are the methods that load scipy.linalg, so one worker runs the two
# back to back and imports it once.  Each method not listed is a job of its
# own, after these.
_JOBS = (
    (MethodId.SUP,), (MethodId.SPL, MethodId.GAM), (MethodId.RRM,), (MethodId.POL,),
    (MethodId.ADP,), (MethodId.KER,), (MethodId.SGF,), (MethodId.ARI,),
)


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of one benchmark run; ``ga.seed`` is the master seed."""

    ga: GaConfig = GaConfig()
    objective: str = "aic"
    standardize: bool = True
    standard_aic_sign: bool = False
    band_level: float = 0.95
    methods: tuple[MethodId, ...] = tuple(MethodId)
    f_nh4: float | None = None
    include_loocv: bool = False

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(MethodId(m) for m in self.methods))
        if len(self.methods) < 3:
            raise InputError("the benchmark needs at least 3 methods to cluster")
        if len(set(self.methods)) < len(self.methods):
            codes = ",".join(m.value for m in self.methods)
            raise InputError(f"each method may be listed once, got {codes}")
        if self.objective not in OBJECTIVES:
            raise InputError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if not 0.0 < self.band_level < 1.0:
            raise InputError(f"band_level must be in (0, 1), got {self.band_level}")
        if self.f_nh4 is not None and not self.f_nh4 > 0:
            raise InputError(f"f_nh4 must be positive, got {self.f_nh4}")

    def to_dict(self) -> dict:
        return {
            "master_seed": self.ga.seed,
            "ga_population": self.ga.population_size,
            "ga_iterations": self.ga.iterations,
            "mutation_rate": MUTATION_RATE,
            "crossover_rate": CROSSOVER_RATE,
            "elitism_fraction": ELITISM_FRACTION,
            "objective": self.objective,
            "patience": self.ga.patience,
            "standardize": self.standardize,
            "standard_aic_sign": self.standard_aic_sign,
            "band_level": self.band_level,
            "methods": [m.value for m in self.methods],
            "f_nh4": self.f_nh4,
            "include_loocv": self.include_loocv,
        }

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class MethodOutcome:
    """Calibration + evaluation result (or recorded failure) of one method."""

    method: MethodId
    params: tuple[float, ...] | None = None
    index: PerformanceIndex | None = None
    ga_seed: int | None = None
    ga_evaluations: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class MethodSmooth:
    """What the report takes from a scored method when it is the optimal one.

    Its full-series smooth and the bounds of its confidence band, and its
    LOOCV matrix under ``include_loocv``; or ``error``, the exception that
    stopped them.  ``caught`` holds the warnings they raised, as (message,
    category), for the parent to raise if the method is optimal.
    """

    smoothed: np.ndarray | None
    lower: np.ndarray | None
    upper: np.ndarray | None
    loocv: np.ndarray | None
    error: Exception | None
    caught: tuple[tuple[str, type[Warning]], ...]


@dataclass(frozen=True)
class BenchmarkReport:
    site: str
    signal_kind: str
    timestamps: tuple[date, ...]
    original: tuple[float | None, ...]
    imputed: tuple[float, ...]
    outcomes: tuple[MethodOutcome, ...]
    cluster: ClusterResult
    optimal_method: MethodId
    optimal_params: tuple[float, ...]
    smoothed: tuple[float, ...]
    band_lower: tuple[float, ...]
    band_upper: tuple[float, ...]
    band_level: float
    regression: LinearFit | None
    provenance: dict
    loocv_optimal: tuple[tuple[float, ...], ...] | None = None


def method_seed(master_seed: int, method: MethodId) -> int:
    """Stable per-method GA seed derived from the master seed."""
    digest = hashlib.sha256(f"{master_seed}:{MethodId(method).value}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def normalized_loads(records: list[SurveillanceRecord], f_nh4: float | None) -> TimeSeries:
    """Per-capita loads ``c_virus * f_nh4 / c_nh4``; ``f_nh4`` None takes the site's reference."""
    if all(r.c_nh4 is None for r in records):
        raise MissingBiomarker("normalized run requested but no NH4 values are present")
    if f_nh4 is None:
        f_nh4 = reference_nh4_load(records[0].site)
    return normalize_series(
        build_series(records, "c_virus"), build_series(records, "c_nh4"), f_nh4
    )


def fit_loads(loads: TimeSeries, incidence: TimeSeries) -> LinearFit:
    """OLS of 7-day incidence on the loads, over the dates both series hold."""
    return fit_linear(join_load_incidence(loads, incidence))


def _signal_series(
    records: list[SurveillanceRecord], signal_kind: str, config: PipelineConfig
) -> TimeSeries:
    if signal_kind == "raw":
        return build_series(records, "c_virus")
    if signal_kind != "normalized":
        raise InputError(f"signal_kind must be one of {SIGNAL_KINDS}, got {signal_kind!r}")
    return normalized_loads(records, config.f_nh4)


def check_magnitude(method: MethodId, series: TimeSeries, action: str = "scored") -> None:
    """Raise EvaluationFailure if ``series`` holds a value past ``MAX_MAGNITUDE``.

    No method is scored or smoothed on such values: their sums of squares
    overflow.
    """
    if max(map(abs, series.values().tolist())) > MAX_MAGNITUDE:
        raise EvaluationFailure(
            f"{method.value} is not {action} on values past {MAX_MAGNITUDE:g}")


def evaluate_one(
    config: PipelineConfig, method: MethodId, imputed: TimeSeries
) -> tuple[MethodOutcome, MethodSmooth | None]:
    """GA-calibrate (if parametric), LOOCV-score and finish one method; shares no state.

    The GA's evaluations and the final LOOCV build go through one
    ``LoocvEvaluator``, so what they share is computed once.  A
    SmoothbenchError is not raised: it is warned about and recorded in the
    outcome, whose smooth is then None.  No method is scored on values past
    ``MAX_MAGNITUDE``.
    """
    parametric = bool(PARAM_SPECS[method])
    seed = method_seed(config.ga.seed, method) if parametric else None
    evaluations = 0
    try:
        check_magnitude(method, imputed)
        evaluator = LoocvEvaluator(method, imputed)
        if parametric:
            result = calibrate(
                method, evaluator, replace(config.ga, seed=seed), objective=config.objective
            )
            spec, evaluations = result.spec, result.evaluations
        else:
            spec = default_spec(method)
        loocv = build_loocv_matrix(spec, evaluator)
        index = performance_index(spec, loocv, config.standard_aic_sign)
    except SmoothbenchError as exc:
        warnings.warn(f"method {method.value} failed and is excluded: {exc}")
        error = f"{type(exc).__name__}: {exc}"
        return MethodOutcome(method, ga_seed=seed, ga_evaluations=evaluations, error=error), None
    outcome = MethodOutcome(method, spec.params, index, seed, evaluations)
    return outcome, _finish(config, spec, imputed, loocv)


def _finish(
    config: PipelineConfig, spec: SmootherSpec, imputed: TimeSeries, loocv: LoocvMatrix
) -> MethodSmooth:
    """The report's share of a scored method, from the LOOCV matrix that VAR read.

    What it raises is held, not raised: it matters only if the method turns
    out optimal, and must not change the method's outcome.
    """
    smoothed = lower = upper = matrix = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            smoothed = apply_smoother(spec, imputed).values()
            lower, upper = (b.values() for b in confidence_band(loocv, config.band_level))
            if config.include_loocv:
                matrix = loocv.matrix
        except Exception as exc:
            error = exc
    warned = tuple((str(w.message), w.category) for w in caught)
    return MethodSmooth(smoothed, lower, upper, matrix, error, warned)


def _jobs(methods: tuple[MethodId, ...]) -> list[tuple[MethodId, ...]]:
    """``methods`` as the jobs of a pool: those of ``_JOBS``, then one per other method."""
    listed = {m for job in _JOBS for m in job}
    jobs = [tuple(m for m in job if m in methods) for job in _JOBS]
    return [job for job in jobs if job] + [(m,) for m in methods if m not in listed]


def worker_count(methods: int) -> int:
    """Worker processes for ``methods`` jobs: the CPUs this process may use,
    never more than ``methods``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, methods)


# Native ids of ended pools' threads: Python has joined them, but Linux lists
# each in /proc/self/task until its exit completes, up to a few ms later
_JOINED: set[int] = set()


def _single_threaded() -> bool:
    """Whether this process runs one thread, so that it may fork safely.

    A BLAS library's native threads count too, so Linux's own count of the
    process's threads is read where there is one, less the ended pools' threads.
    """
    try:
        tasks = {int(task) for task in os.listdir("/proc/self/task")}
    except OSError:
        return threading.active_count() == 1
    _JOINED.intersection_update(tasks)
    return len(tasks - _JOINED) == 1


def _evaluate_in_worker(
    config: PipelineConfig, job: tuple[MethodId, ...], imputed: TimeSeries
) -> list[tuple[tuple[MethodOutcome, MethodSmooth | None], list[tuple[str, type[Warning]]]]]:
    """``evaluate_one`` for each method of ``job`` in a worker: its result and
    the warnings it raised."""
    done = []
    for method in job:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = evaluate_one(config, method, imputed)
        done.append((result, [(str(w.message), w.category) for w in caught]))
    return done


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: end this process once ``parent`` is no longer its parent.

    A parent that is killed runs no cleanup, and its workers would finish
    their jobs and then wait for more for good; a thread that watches the
    parent's id ends them instead.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _evaluate_methods(
    config: PipelineConfig, imputed: TimeSeries, jobs: int
) -> list[tuple[MethodOutcome, MethodSmooth | None]]:
    """``evaluate_one`` for every method, in the order of ``config.methods``.

    With more than one job of ``_jobs`` and of ``jobs``, ``fork`` available
    and no other thread in this process, the jobs run in a pool of at most
    ``jobs`` forked processes, and the warnings each method caught are
    raised again here in that order.  The first exception in that order
    (an exception ends its job's later methods) cancels the jobs not yet
    started and is raised once the running ones end, so no worker outlives
    the call; a worker whose parent is killed exits by itself.
    """
    pool_jobs = _jobs(config.methods)
    workers = min(jobs, len(pool_jobs))
    if workers == 1 or not hasattr(os, "fork") or not _single_threaded():
        return [evaluate_one(config, m, imputed) for m in config.methods]
    # loaded here, so that the commands and runs that start no pool never load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )
    try:
        futures = [pool.submit(_evaluate_in_worker, config, job, imputed) for job in pool_jobs]
        where = {m: (f, i) for job, f in zip(pool_jobs, futures) for i, m in enumerate(job)}
        results = []
        for method in config.methods:
            future, slot = where[method]
            result, caught = future.result()[slot]
            for message, category in caught:
                warnings.warn(message, category)
            results.append(result)
        return results
    finally:
        threads = [t for t in threading.enumerate() if t is not threading.current_thread()]
        pool.shutdown(cancel_futures=True)
        _JOINED.update(t.native_id for t in threads if not t.is_alive())


def run_benchmark(
    records: list[SurveillanceRecord],
    signal_kind: str,
    config: PipelineConfig | None = None,
    jobs: int = 1,
) -> BenchmarkReport:
    """Execute the full workflow on one signal kind; fully seed-deterministic.

    ``jobs`` caps the worker processes; 1, the default, runs every method in
    this process.  The report does not depend on it.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    config = config or PipelineConfig()
    series = _signal_series(records, signal_kind, config)
    usable = sum(1 for s in series if s.value is not None)
    if usable < 5:
        raise SeriesTooShort(f"only {usable} usable samples after normalization")
    imputed = impute_linear(series)
    n = len(imputed)

    results = _evaluate_methods(config, imputed, jobs)
    outcomes = tuple(outcome for outcome, _ in results)
    succeeded = [o for o in outcomes if o.ok]
    if len(succeeded) < 3:
        raise EvaluationFailure(
            f"only {len(succeeded)} methods succeeded; need at least 3 to cluster"
        )
    cluster = cluster_methods(
        [o.index for o in succeeded], standardize=config.standardize
    )
    optimal = cluster.optimal
    optimal_params, finished = next(
        (o.params, smooth) for o, smooth in results if o.method is optimal)
    for message, category in finished.caught:
        warnings.warn(message, category)
    if finished.error is not None:
        raise finished.error

    regression = _regression_fit(records, imputed.with_values(finished.smoothed))

    per_method_counts = {
        o.method.value: {"ga_evaluations": o.ga_evaluations, "final_loocv_builds": int(o.ok)}
        for o in outcomes
    }
    total_apps = sum(
        (c["ga_evaluations"] + c["final_loocv_builds"]) * n
        for c in per_method_counts.values()
    ) + 1  # the final full-series smooth of the optimal method
    provenance = {
        "tool_version": __version__,
        "master_seed": config.ga.seed,
        "config_digest": config.digest(),
        "config": config.to_dict(),
        "method_seeds": {
            o.method.value: o.ga_seed for o in outcomes if o.ga_seed is not None
        },
        "evaluation_counts": {
            "series_length": n,
            "per_method": per_method_counts,
            "smoother_applications": total_apps,
        },
    }

    loocv_payload = None
    if config.include_loocv:
        loocv_payload = tuple(tuple(row) for row in finished.loocv)

    return BenchmarkReport(
        site=records[0].site,
        signal_kind=signal_kind,
        timestamps=series.timestamps,
        original=tuple(s.value for s in series),
        imputed=tuple(imputed.values()),
        outcomes=outcomes,
        cluster=cluster,
        optimal_method=optimal,
        optimal_params=optimal_params,
        smoothed=tuple(finished.smoothed),
        band_lower=tuple(finished.lower),
        band_upper=tuple(finished.upper),
        band_level=config.band_level,
        regression=regression,
        provenance=provenance,
        loocv_optimal=loocv_payload,
    )


def _regression_fit(records, smoothed: TimeSeries) -> LinearFit | None:
    """The load-incidence fit of the smooth, or None when the records allow none."""
    try:
        return fit_loads(smoothed, build_series(records, "incidence_7d"))
    except SmoothbenchError:
        return None
