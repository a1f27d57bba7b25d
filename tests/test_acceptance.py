"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances and budgets are pinned here and nowhere else.  Criterion 9 is a
soft qualitative check: it prints PASS or WARN but never fails the suite.
"""
import itertools
import math
import time

import numpy as np
import pytest

from smoothbench.calibration import GaConfig, calibrate
from smoothbench.cli import main as cli_main
from smoothbench.csvio import read_biomarker_table, write_biomarker_table, write_surveillance_csv
from smoothbench.evaluation import (
    LoocvMatrix,
    aic,
    build_loocv_matrix,
    evaluate_method,
    mae,
    var_index,
)
from smoothbench.clustering import k_medoid
from smoothbench.normalization import (
    REFERENCE_NH4_LOADS,
    estimate_population,
    flow_population_load,
)
from smoothbench.regression import LoadIncidencePair, fit_linear
from smoothbench.smoothers import (
    MethodId,
    SmootherSpec,
    apply_to_values,
    default_spec,
)
from smoothbench.synthetic import bundled_records, catchment_suite
from smoothbench.timeseries import TimeSeries, build_series, impute_linear

SHIFT_EQUIVARIANT = (
    MethodId.SMA, MethodId.RRM, MethodId.TUK, MethodId.SPL, MethodId.KER,
    MethodId.SUP, MethodId.POL, MethodId.SGF, MethodId.ADP, MethodId.FFT,
    MethodId.KAL,
)
SCALE_EQUIVARIANT = (
    MethodId.SMA, MethodId.RRM, MethodId.TUK, MethodId.SPL, MethodId.KER,
    MethodId.POL, MethodId.SGF, MethodId.FFT,
)


def announce(capsys, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[ACCEPTANCE] {label}: {status}{(' - ' + detail) if detail else ''}")


@pytest.fixture(scope="module")
def bundled_series():
    records = bundled_records()
    return impute_linear(build_series(records, "c_virus"))


def test_c01_smoother_invariant_suite(capsys):
    started = time.monotonic()
    failures = []
    for case in range(50):
        gen = np.random.default_rng(1001 + case)
        n = int(gen.integers(10, 121))
        base = np.cumsum(gen.normal(scale=0.4, size=n)) + gen.normal(scale=0.6, size=n) + 6.0
        const = np.full(n, float(gen.uniform(-5, 5)))
        shift = float(gen.uniform(-50, 50))
        scale = float(gen.uniform(0.1, 20.0))
        for m in MethodId:
            spec = default_spec(m)
            out = apply_to_values(spec, base)
            if len(out) != n:
                failures.append(f"{m.value} length case {case}")
            if np.abs(apply_to_values(spec, const) - const).max() > 1e-6:
                failures.append(f"{m.value} constant case {case}")
            if m in SHIFT_EQUIVARIANT:
                shifted = apply_to_values(spec, base + shift)
                if np.abs(shifted - (out + shift)).max() > 1e-6:
                    failures.append(f"{m.value} shift case {case}")
            if m in SCALE_EQUIVARIANT:
                scaled = apply_to_values(spec, scale * base)
                denom = max(1.0, np.abs(scale * out).max())
                if np.abs(scaled - scale * out).max() / denom > 1e-6:
                    failures.append(f"{m.value} scale case {case}")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120.0
    announce(capsys, "C1 smoother invariants (50 series, 13 methods)", ok, f"{elapsed:.1f}s")
    assert not failures, failures[:10]
    assert elapsed < 120.0


def test_c02_metric_formula_oracle(capsys):
    gen = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 11))
        m = gen.normal(size=(n, n))
        x = gen.normal(size=n)
        loocv = LoocvMatrix(m, TimeSeries.from_values(x))

        mae_oracle = sum(abs(m[t][t] - x[t]) for t in range(n)) / n
        var_oracle = 0.0
        for t in range(n):
            mu = sum(m[t]) / n
            var_oracle += sum((v - mu) ** 2 for v in m[t]) / (n - 1)
        k = int(gen.integers(0, 5))
        sse = sum((m[t][t] - x[t]) ** 2 for t in range(n))
        aic_oracle = n * math.log(sse / n) - 2 * k

        for got, want in ((mae(loocv), mae_oracle), (var_index(loocv), var_oracle),
                          (aic(loocv, k), aic_oracle)):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    slope_ok = True
    base_matrix = LoocvMatrix(np.diag([2.0, 3.0, 4.0, 5.0]), TimeSeries.from_values([1.0, 2, 3, 4]))
    a0 = aic(base_matrix, 0)
    for k in range(6):
        slope_ok &= aic(base_matrix, k) == a0 - 2.0 * k
    ok = worst <= 1e-12 and slope_ok
    announce(capsys, "C2 metric formulas vs hand-coded oracles", ok, f"worst rel dev {worst:.2e}")
    assert worst <= 1e-12
    assert slope_ok


def test_c03_loocv_blindness(capsys):
    gen = np.random.default_rng(3003)
    methods = list(MethodId)
    worst = 0.0
    for pair in range(20):
        method = methods[pair % len(methods)]
        n = 24
        y = np.cumsum(gen.normal(scale=0.3, size=n)) + 5.0
        series = TimeSeries.from_values(y)
        spec = default_spec(method)
        base = build_loocv_matrix(spec, series).matrix
        t = int(gen.integers(5, n - 5))
        for factor in (1.5, 0.5):
            perturbed = y.copy()
            perturbed[t] *= factor
            other = build_loocv_matrix(spec, series.with_values(perturbed)).matrix
            worst = max(worst, np.abs(other[:, t] - base[:, t]).max())
    ok = worst <= 1e-12
    announce(capsys, "C3 LOOCV blindness (20 pairs, +/-50%)", ok, f"worst col dev {worst:.2e}")
    assert worst <= 1e-12


def test_c04_sma_sgf_brute_force(capsys):
    gen = np.random.default_rng(4004)
    worst = 0.0
    cases = 0
    while cases < 200:
        n = int(gen.integers(5, 21))
        y = gen.normal(size=n)
        w = int(gen.choice([3, 5, 7]))
        if w > n:
            continue
        cases += 1
        got = apply_to_values(SmootherSpec(MethodId.SMA, (w,)), y)
        h = w // 2
        want = np.array([np.mean(y[max(0, i - h): min(n, i + h + 1)]) for i in range(n)])
        worst = max(worst, np.abs(got - want).max())

        if n >= 5:
            sw = int(gen.choice([5, 7]))
            if sw <= n:
                d = int(gen.integers(1, min(6, sw - 1) + 1))
                got = apply_to_values(SmootherSpec(MethodId.SGF, (sw, d)), y)
                hh = sw // 2
                want = np.empty(n)
                for i in range(n):
                    lo, hi = max(0, i - hh), min(n, i + hh + 1)
                    offs = np.arange(lo, hi) - i
                    deg = min(d, len(offs) - 1)
                    coeffs = np.polynomial.polynomial.polyfit(
                        offs / max(1, np.abs(offs).max()), y[lo:hi], deg
                    )
                    want[i] = coeffs[0]
                worst = max(worst, np.abs(got - want).max())

    poly_worst = 0.0
    for trial in range(30):
        n = int(gen.integers(9, 21))
        w, d = 7, int(gen.integers(1, 7))
        coeffs = gen.uniform(-1, 1, size=int(gen.integers(1, d + 2)))
        t = np.arange(n) / n
        y = np.polynomial.polynomial.polyval(t, coeffs)
        out = apply_to_values(SmootherSpec(MethodId.SGF, (w, d)), y)
        h = w // 2
        poly_worst = max(poly_worst, np.abs(out[h : n - h] - y[h : n - h]).max())

    ok = worst <= 1e-12 and poly_worst <= 1e-9
    announce(
        capsys, "C4 SMA/SGF brute-force equivalence (200 cases)", ok,
        f"worst {worst:.2e}, poly {poly_worst:.2e}",
    )
    assert worst <= 1e-12
    assert poly_worst <= 1e-9


GRID_SPECS = {
    MethodId.SMA: [(float(w),) for w in range(3, 22, 2)],
    MethodId.RRM: [(float(w),) for w in range(3, 22, 2)],
    MethodId.SPL: [(float(v),) for v in np.linspace(-4, 4, 101)],
    MethodId.KER: [(float(v),) for v in np.linspace(0.5, 10, 96)],
    MethodId.SUP: [(float(v),) for v in np.linspace(0, 10, 101)],
    MethodId.POL: [(float(v),) for v in np.linspace(0.1, 1.0, 91)],
    MethodId.SGF: [
        (float(w), float(d))
        for w in range(5, 22, 2)
        for d in range(1, 7)
        if d < w
    ],
    MethodId.ARI: [(float(p), float(d)) for p in range(1, 6) for d in (0, 1)],
}


def test_c05_ga_recovers_grid_optimum(capsys, bundled_series):
    started = time.monotonic()
    config = GaConfig(population_size=30, iterations=100, seed=42)
    details = []
    failures = []
    for method, grid in GRID_SPECS.items():
        grid_best = min(
            evaluate_method(SmootherSpec(method, params), bundled_series).aic
            for params in grid
        )
        result = calibrate(method, bundled_series, config, objective="aic")
        monotone = bool(np.all(np.diff(result.history) <= 0.0))
        within = result.fitness <= grid_best + 0.05 * abs(grid_best)
        details.append(f"{method.value}: ga {result.fitness:.2f} grid {grid_best:.2f}")
        if not within:
            failures.append(f"{method.value} ga {result.fitness} vs grid {grid_best}")
        if not monotone:
            failures.append(f"{method.value} history not monotone")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 300.0
    announce(capsys, "C5 GA within 5% of grid optimum (8 methods)", ok,
             f"{elapsed:.1f}s; " + "; ".join(details))
    assert not failures, failures
    assert elapsed < 300.0


def test_c06_k_medoid_exactness(capsys):
    gen = np.random.default_rng(6006)
    worst = 0.0
    for _ in range(50):
        n = int(gen.integers(4, 14))
        points = gen.normal(size=(n, 3))
        assignments, medoids = k_medoid(points, k=3)
        got = sum(
            math.dist(points[i], points[medoids[a]]) for i, a in enumerate(assignments)
        )
        best = min(
            sum(min(math.dist(points[i], points[m]) for m in trio) for i in range(n))
            for trio in itertools.combinations(range(n), 3)
        )
        worst = max(worst, abs(got - best) / max(best, 1e-12))

    centers = np.array([[0.0, 0, 0], [50.0, 0, 0], [0.0, 50, 0]])
    blob_points = np.vstack([c + gen.normal(scale=0.5, size=(4, 3)) for c in centers])
    assignments, _ = k_medoid(blob_points, k=3)
    blobs_ok = all(len(set(assignments[i : i + 4])) == 1 for i in (0, 4, 8))

    ok = worst <= 1e-12 and blobs_ok
    announce(capsys, "C6 k-medoid equals brute force (50 instances)", ok,
             f"worst rel gap {worst:.2e}")
    assert worst <= 1e-12
    assert blobs_ok


def test_c07_end_to_end_determinism(capsys, tmp_path):
    started = time.monotonic()
    csv_path = tmp_path / "synthetic.csv"
    write_surveillance_csv(bundled_records(), str(csv_path))
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = cli_main([
            "benchmark", "--input", str(csv_path), "--signal", "raw",
            "--seed", "42", "--out", str(out),
        ])
        assert rc == 0
        outs.append((out / "report.json").read_bytes())
    elapsed = time.monotonic() - started
    identical = outs[0] == outs[1]
    ok = identical and elapsed < 600.0
    announce(capsys, "C7 benchmark determinism (byte-identical report.json)", ok,
             f"{elapsed:.1f}s for two desk-budget runs")
    assert identical
    assert elapsed < 600.0


def test_c08_normalization_identity_and_reference_data(capsys, tmp_path):
    gen = np.random.default_rng(8008)
    worst = 0.0
    for _ in range(1000):
        c_virus = float(gen.uniform(1e-3, 1e8))
        q = float(gen.uniform(1.0, 1e9))
        c_bm = float(gen.uniform(1e-6, 10.0))
        f = float(gen.uniform(0.01, 50.0))
        composed = flow_population_load(c_virus, q, estimate_population(c_bm, q, f))
        direct = c_virus * f / c_bm
        worst = max(worst, abs(composed - direct) / direct)

    table_path = tmp_path / "loads.csv"
    write_biomarker_table(REFERENCE_NH4_LOADS, str(table_path))
    round_tripped = read_biomarker_table(str(table_path))
    table_ok = round_tripped == REFERENCE_NH4_LOADS and round_tripped["A"].f_bm == 10.71

    ok = worst <= 1e-12 and table_ok
    announce(capsys, "C8 normalization identity + reference NH4 table", ok,
             f"worst rel dev {worst:.2e}")
    assert worst <= 1e-12
    assert table_ok


def test_c09_qualitative_catchment_echo(capsys):
    # soft check: logged as PASS/WARN, never failed
    suite = catchment_suite()
    sites = list(suite)
    results = {}
    for site, (records, _) in suite.items():
        series = impute_linear(build_series(records, "c_virus"))
        for m in MethodId:
            pi = evaluate_method(default_spec(m), series)
            results[(site, m)] = pi

    monotone_mae = []
    monotone_var = []
    for m in MethodId:
        maes = [results[(s, m)].mae for s in sites]
        vars_ = [results[(s, m)].var for s in sites]
        monotone_mae.append(all(a < b for a, b in zip(maes, maes[1:])))
        monotone_var.append(all(a < b for a, b in zip(vars_, vars_[1:])))

    kal_rank_ok = []
    for s in sites:
        ordered = sorted(MethodId, key=lambda m: results[(s, m)].var)
        kal_rank_ok.append(ordered.index(MethodId.KAL) >= len(ordered) - 2)

    mae_frac = sum(monotone_mae) / len(monotone_mae)
    var_frac = sum(monotone_var) / len(monotone_var)
    kal_frac = sum(kal_rank_ok) / len(kal_rank_ok)
    size_effect = "PASS" if mae_frac == 1.0 and var_frac == 1.0 else "WARN"
    kal_echo = "PASS" if kal_frac >= 0.75 else "WARN"
    with capsys.disabled():
        print(
            f"[ACCEPTANCE] C9 catchment-size echo (soft): size effect {size_effect} "
            f"(MAE monotone {mae_frac:.0%}, VAR monotone {var_frac:.0%}); "
            f"KAL-worst echo {kal_echo} (two-worst VAR in {kal_frac:.0%} of sites)"
        )
    # never fails: the check depends on synthetic-data construction


def test_c10_ols_regression_oracle(capsys):
    gen = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(3, 40))
        x = gen.uniform(0, 500, size=n)
        y = np.clip(gen.uniform(0.5, 3.0) * x + gen.uniform(0, 200)
                    + gen.normal(scale=10.0, size=n), 0, None)
        fit = fit_linear([LoadIncidencePair(load=a, incidence=b) for a, b in zip(x, y)])
        design = np.column_stack([x, np.ones(n)])
        slope, intercept = np.linalg.solve(design.T @ design, design.T @ y)
        resid = y - (slope * x + intercept)
        sst = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - float(resid @ resid) / sst if sst else 1.0
        for got, want in ((fit.slope, slope), (fit.intercept, intercept), (fit.r_squared, r2)):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))

    exact = fit_linear(
        [LoadIncidencePair(load=float(i), incidence=2.0 * i + 1.0) for i in range(10)]
    )
    exact_ok = exact.slope == pytest.approx(2.0, abs=1e-12) and exact.intercept == pytest.approx(
        1.0, abs=1e-12
    ) and exact.r_squared == 1.0

    ok = worst <= 1e-10 and exact_ok
    announce(capsys, "C10 OLS matches normal equations (100 instances)", ok,
             f"worst rel dev {worst:.2e}")
    assert worst <= 1e-10
    assert exact_ok
