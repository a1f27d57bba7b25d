import math

import numpy as np
import pytest

import smoothbench.evaluation as ev
from smoothbench.calibration import GaConfig, calibrate
from smoothbench.errors import EvaluationFailure, SeriesTooShort, SmoothbenchError
from smoothbench.evaluation import (
    LoocvMatrix,
    PerformanceIndex,
    aic,
    build_loocv_matrix,
    confidence_band,
    deletion_imputations,
    evaluate_method,
    mae,
    var_index,
)
from smoothbench.smoothers import (
    MethodId,
    SmootherSpec,
    apply_to_values,
    default_spec,
    linear_operator,
    linear_parts,
)
from smoothbench.smoothers import kernel, localpoly
from smoothbench.smoothers.basic import simple_moving_average
from smoothbench.smoothers.gam import gam_matrix_operator
from smoothbench.smoothers.savgol import savgol_operator
from smoothbench.smoothers.spline import smoothing_spline
from smoothbench.smoothers.windows import equivalent_kernel, scatter_rows
from smoothbench.timeseries import TimeSeries

from conftest import random_series, reference_gaussian_weights, reference_pol_design
from test_stacked import DEGENERATE, spec_at


def matrix_of(values, source):
    return LoocvMatrix(np.asarray(values, dtype=float), TimeSeries.from_values(source))


def mae_oracle(m, x):
    total = 0.0
    for t in range(len(x)):
        total += abs(m[t][t] - x[t])
    return total / len(x)


def var_oracle(m):
    total = 0.0
    n = len(m)
    for t in range(n):
        row_mean = sum(m[t]) / n
        total += sum((v - row_mean) ** 2 for v in m[t]) / (n - 1)
    return total


def aic_oracle(m, x, k):
    n = len(x)
    sse = sum((m[t][t] - x[t]) ** 2 for t in range(n))
    return n * math.log(sse / n) - 2 * k


def _on_identity(smoother):
    # column j of S is S applied to e_j, the transposed smooth of the identity
    return lambda n, *params: np.ascontiguousarray(smoother(np.eye(n), *params).T)


def _kernel_operator(n, bandwidth):
    """Row-normalized Gaussian weight matrix (KER's former operator builder)."""
    k = reference_gaussian_weights(n, bandwidth)
    return k / k.sum(axis=1, keepdims=True)


def _local_quadratic_operator(n, span):
    """Dense equivalent-kernel matrix (POL's former operator builder)."""
    cols, local = reference_pol_design(n, span)
    return scatter_rows(cols, equivalent_kernel(local), n)


# the dense operator of each linear method, as formed before ``parts``
REFERENCE_OPERATORS = {
    MethodId.SPL: _on_identity(smoothing_spline),
    MethodId.KER: _kernel_operator,
    MethodId.SMA: _on_identity(simple_moving_average),
    MethodId.POL: _local_quadratic_operator,
    MethodId.SGF: savgol_operator,
    MethodId.GAM: gam_matrix_operator,
}
LINEAR_METHODS = list(REFERENCE_OPERATORS)


def typed_params(spec):
    """The spec's parameters, int where the ParamSpec is integer."""
    return tuple(int(p) if b.integer else p for b, p in zip(spec.bounds, spec.params))


def specs_across_box(method, n):
    """Specs at the low end, the middle and the high end of the length-n search box."""
    return [spec_at(method, n, (f,) * 4) for f in (0.0, 0.5, 1.0)]


def assert_bitwise_equal(got, want, spec):
    assert got.shape == want.shape, spec
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=str(spec))


def assert_deferred_matches_eager(spec, series):
    """The deferred build against the eager one: the whole matrix at once, the
    diagonal read off it."""
    y = series.values()
    imp = deletion_imputations(y, series.day_index())
    try:
        operator = linear_operator(spec, len(y))
        if operator is not None:
            eager = apply_to_values(spec, y)[:, None] + operator * (imp - y)[None, :]
        else:
            deleted = np.tile(y, (len(y), 1))
            np.fill_diagonal(deleted, imp)
            eager = np.ascontiguousarray(apply_to_values(spec, deleted).T)
    except SmoothbenchError as exc:
        with pytest.raises(type(exc)):
            build_loocv_matrix(spec, series).matrix
        return
    loocv = build_loocv_matrix(spec, series)
    diagonal = loocv.diagonal.copy()
    matrix = loocv.matrix
    assert matrix.flags.c_contiguous, spec
    assert_bitwise_equal(matrix, eager, spec)
    assert_bitwise_equal(diagonal, np.diag(eager), spec)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` to count its calls; returns the one-element counter."""
    calls = [0]
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestBuildMatrix:
    def test_shape(self, noisy_sine):
        loocv = build_loocv_matrix(default_spec(MethodId.SMA), noisy_sine)
        assert loocv.matrix.shape == (40, 40)

    def test_constant_series_gives_constant_matrix(self):
        series = TimeSeries.from_values([3.0] * 8)
        loocv = build_loocv_matrix(default_spec(MethodId.SMA), series)
        np.testing.assert_allclose(loocv.matrix, 3.0, rtol=1e-12)

    def test_sma_hand_trace(self):
        # deleting x_2 = 3 imputes 3 back, so column 2 is the plain smooth
        series = TimeSeries.from_values([1.0, 2, 3, 4, 5])
        loocv = build_loocv_matrix(SmootherSpec(MethodId.SMA, (3,)), series)
        np.testing.assert_allclose(loocv.matrix[:, 2], [1.5, 2, 3, 4, 4.5], rtol=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            build_loocv_matrix(default_spec(MethodId.SMA), TimeSeries.from_values([1.0, 2, 3, 4]))

    def test_fast_path_matches_per_deletion_loop(self, noisy_sine, monkeypatch):
        specs = [
            spec for m in LINEAR_METHODS for spec in specs_across_box(m, len(noisy_sine))
        ]
        fast = [build_loocv_matrix(spec, noisy_sine).matrix for spec in specs]
        # the one door to the rank-one path closed: every method takes the
        # per-deletion loop
        monkeypatch.setattr(ev, "linear_parts", lambda *a, **k: None)
        for spec, matrix in zip(specs, fast):
            slow = build_loocv_matrix(spec, noisy_sine).matrix
            np.testing.assert_allclose(
                matrix, slow, rtol=1e-10, atol=1e-12, err_msg=spec.method.value
            )

    def test_matrices_are_c_contiguous(self, noisy_sine):
        # var_index sums each row in memory order: an F-ordered matrix holds
        # the same values but changes the reported digits
        for method in MethodId:
            spec = default_spec(method)
            matrix = build_loocv_matrix(spec, noisy_sine).matrix
            assert matrix.flags.c_contiguous, method.value
            operator = linear_operator(spec, len(noisy_sine))
            assert operator is None or operator.flags.c_contiguous, method.value

    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_deferred_matrix_matches_eager_build(self, method, rng):
        series = random_series(rng, 33)
        for spec in specs_across_box(method, 33):
            assert_deferred_matches_eager(spec, series)

    @pytest.mark.parametrize("method", LINEAR_METHODS, ids=lambda m: m.value)
    def test_deferred_linear_build_at_t365(self, method, rng):
        series = random_series(rng, 365)
        for spec in specs_across_box(method, 365):
            assert_deferred_matches_eager(spec, series)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_deferred_matrix_on_degenerate_inputs(self, method, name):
        series = TimeSeries.from_values(DEGENERATE[name])
        for spec in specs_across_box(method, len(series)):
            assert_deferred_matches_eager(spec, series)

    @pytest.mark.parametrize("method", LINEAR_METHODS, ids=lambda m: m.value)
    def test_shared_parts_match_front_doors(self, method, rng):
        # the smooth, the operator diagonal and the operator of one shared
        # build, against apply_to_values, linear_operator and the operator
        # each method was built from before ``parts`` was its only form
        inputs = [random_series(rng, n).values() for n in (33, 365)]
        inputs += [DEGENERATE[name] for name in sorted(DEGENERATE)]
        for y in inputs:
            for spec in specs_across_box(method, len(y)):
                reference = REFERENCE_OPERATORS[method](len(y), *typed_params(spec))
                parts = linear_parts(spec, y)
                operator = linear_operator(spec, len(y))
                if reference is None:  # GAM with auto_penalty: not linear
                    assert parts is None and operator is None, spec
                    continue
                base, diagonal, operator_of = parts
                built = operator_of()
                for got, want in (
                    (base, apply_to_values(spec, y)),
                    (diagonal, np.diagonal(operator)),
                    (built, reference),
                    (operator, reference),
                ):
                    assert_bitwise_equal(got, want, spec)
                assert built.flags.c_contiguous and operator.flags.c_contiguous, spec

    def test_one_design_per_pol_build(self, rng, monkeypatch):
        calls = counting(monkeypatch, localpoly, "local_design")
        build_loocv_matrix(SmootherSpec(MethodId.POL, (0.4,)), random_series(rng, 60)).matrix
        assert calls == [1]

    def test_one_weight_matrix_per_ker_build(self, rng, monkeypatch):
        calls = counting(monkeypatch, kernel, "_gaussian_weights")
        build_loocv_matrix(SmootherSpec(MethodId.KER, (2.5,)), random_series(rng, 60)).matrix
        assert calls == [1]

    def test_aic_calibration_of_pol_forms_no_dense_operator(self, rng, monkeypatch):
        scatters = counting(monkeypatch, localpoly, "scatter_rows")
        operators = counting(monkeypatch, ev, "linear_operator")
        series = random_series(rng, 365)
        calibrate(MethodId.POL, series, GaConfig(population_size=6, iterations=2, seed=3))
        assert scatters == [0] and operators == [0]
        # the counter sees the one scatter that reading a matrix makes
        build_loocv_matrix(SmootherSpec(MethodId.POL, (0.3,)), series).matrix
        assert scatters == [1]

    def test_deletion_imputations_match_impute_linear(self, rng):
        from smoothbench.timeseries import impute_linear

        series = random_series(rng, 15)
        y = series.values()
        imp = deletion_imputations(y, series.day_index())
        for i in range(15):
            holed = [None if j == i else float(v) for j, v in enumerate(y)]
            expected = impute_linear(series.with_values(y).from_values(holed))
            assert imp[i] == pytest.approx(expected.samples[i].value, rel=1e-12)


class TestBlindness:
    @pytest.mark.parametrize(
        "method", [MethodId.SMA, MethodId.SPL, MethodId.SUP, MethodId.FFT, MethodId.GAM],
        ids=lambda m: m.value,
    )
    def test_interior_deletion_column_ignores_its_point(self, method, rng):
        series = random_series(rng, 18)
        spec = default_spec(method)
        base = build_loocv_matrix(spec, series).matrix
        y = series.values()
        for t in (5, 11):
            perturbed = y.copy()
            perturbed[t] *= 1.5
            other = build_loocv_matrix(spec, series.with_values(perturbed)).matrix
            np.testing.assert_allclose(other[:, t], base[:, t], atol=1e-12)


class TestMetrics:
    def test_mae_zero_when_diag_matches(self):
        m = matrix_of([[1, 9], [9, 2]], [1.0, 2.0])
        assert mae(m) == 0.0

    def test_mae_hand_example(self):
        m = matrix_of([[1.5, 0, 0], [0, 2.0, 0], [0, 0, 2.5]], [1.0, 2.0, 3.0])
        assert mae(m) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_mae_uniform_offset(self):
        m = matrix_of([[1.0, 0], [0, 1.0]], [0.0, 0.0])
        assert mae(m) == 1.0

    def test_var_zero_for_identical_columns(self):
        col = [1.0, 4.0, 2.0]
        m = matrix_of(np.column_stack([col] * 3), [0.0, 0.0, 0.0])
        assert var_index(m) == 0.0

    def test_var_hand_example(self):
        m = matrix_of([[0.0, 2.0], [1.0, 1.0]], [0.0, 0.0])
        assert var_index(m) == pytest.approx(2.0, rel=1e-15)

    def test_var_shift_invariant(self, rng):
        m = rng.normal(size=(6, 6))
        src = [0.0] * 6
        assert var_index(matrix_of(m + 13.5, src)) == pytest.approx(
            var_index(matrix_of(m, src)), rel=1e-9
        )

    def test_aic_hand_examples(self):
        m = matrix_of(np.diag([2.0, 3.0, 4.0, 5.0]), [1.0, 2.0, 3.0, 4.0])
        # residuals all 1 -> MSE 1 -> T*ln(1) = 0
        assert aic(m, 1) == pytest.approx(-2.0, abs=1e-12)
        assert aic(m, 0) == pytest.approx(0.0, abs=1e-12)

    def test_aic_slope_minus_two_per_parameter(self, rng):
        m = matrix_of(rng.normal(size=(5, 5)), rng.normal(size=5))
        base = aic(m, 0)
        for k in range(1, 6):
            assert aic(m, k) == base - 2.0 * k

    def test_aic_standard_sign_switch(self, rng):
        m = matrix_of(rng.normal(size=(5, 5)), rng.normal(size=5))
        assert aic(m, 3, standard_sign=True) == aic(m, 0) + 6.0

    def test_aic_zero_residual_sentinel(self):
        src = [1.0, 2.0, 3.0, 4.0, 5.0]
        m = matrix_of(np.diag(src) + np.ones((5, 5)) - np.diag(np.ones(5)), src)
        assert aic(m, 2) == float("-inf")

    def test_formula_oracles_on_random_matrices(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 11))
            m = rng.normal(size=(n, n))
            x = rng.normal(size=n)
            loocv = matrix_of(m, x)
            assert mae(loocv) == pytest.approx(mae_oracle(m, x), rel=1e-12)
            assert var_index(loocv) == pytest.approx(var_oracle(m), rel=1e-12)
            k = int(rng.integers(0, 5))
            assert aic(loocv, k) == pytest.approx(aic_oracle(m, x, k), rel=1e-12)


class TestConfidenceBand:
    def test_identical_columns_collapse(self):
        col = np.array([1.0, 4.0, 2.0])
        m = matrix_of(np.column_stack([col] * 3), [0.0, 0.0, 0.0])
        lower, upper = confidence_band(m, 0.95)
        np.testing.assert_array_equal(lower.values(), col)
        np.testing.assert_array_equal(upper.values(), col)

    def test_uniform_grid_percentiles(self):
        row = np.linspace(0.0, 100.0, 41)
        m = matrix_of(np.tile(row, (41, 1)), np.zeros(41))
        lower, upper = confidence_band(m, 0.95)
        assert lower.values()[0] == pytest.approx(2.5, rel=1e-12)
        assert upper.values()[0] == pytest.approx(97.5, rel=1e-12)

    def test_wide_level_approaches_row_extremes(self, rng):
        m = rng.normal(size=(6, 6))
        loocv = matrix_of(m, np.zeros(6))
        lower, upper = confidence_band(loocv, 0.9999999)
        np.testing.assert_allclose(lower.values(), m.min(axis=1), atol=1e-4)
        np.testing.assert_allclose(upper.values(), m.max(axis=1), atol=1e-4)

    def test_level_validated(self, rng):
        loocv = matrix_of(rng.normal(size=(5, 5)), np.zeros(5))
        with pytest.raises(ValueError):
            confidence_band(loocv, 1.0)


class TestEvaluateMethod:
    def test_constant_series_degenerate_contract(self):
        series = TimeSeries.from_values([2.0] * 10)
        pi = evaluate_method(default_spec(MethodId.SMA), series)
        assert pi.mae == 0.0
        assert pi.var == 0.0
        assert pi.aic == float("-inf")
        assert pi.zero_residual

    def test_reproducible_bit_exact(self, noisy_sine):
        a = evaluate_method(SmootherSpec(MethodId.SMA, (5,)), noisy_sine)
        b = evaluate_method(SmootherSpec(MethodId.SMA, (5,)), noisy_sine)
        assert (a.mae, a.var, a.aic) == (b.mae, b.var, b.aic)

    def test_frozen_regression_baseline(self, noisy_sine):
        # values recorded at first build; any drift means the pipeline's
        # numerics changed and reports are no longer reproducible
        pi = evaluate_method(SmootherSpec(MethodId.SMA, (5,)), noisy_sine)
        assert pi.mae == 0.0964789945825704
        assert pi.var == 0.0021389187815361553
        assert pi.aic == -176.68892965238342

    def test_k_from_catalog(self, noisy_sine):
        assert evaluate_method(default_spec(MethodId.GAM), noisy_sine).k == 4
        assert evaluate_method(default_spec(MethodId.TUK), noisy_sine).k == 0

    def test_index_validation(self):
        with pytest.raises(EvaluationFailure):
            PerformanceIndex(method="sma", k=1, mae=-1.0, var=0.0, aic=0.0)
        with pytest.raises(EvaluationFailure):
            PerformanceIndex(method="sma", k=1, mae=0.0, var=0.0, aic=float("nan"))

    @pytest.mark.parametrize(
        "method", [MethodId.TUK, MethodId.SPL, MethodId.POL, MethodId.SGF], ids=lambda m: m.value
    )
    def test_non_finite_index_is_a_smoothbench_error(self, method, rng):
        # squares of values near 1e155 overflow, so VAR is inf: a GA then
        # counts the genome as failed and the pipeline excludes the method
        series = random_series(rng, 30, scale=1e155)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SmoothbenchError, match="VAR"):
                evaluate_method(default_spec(method), series)
