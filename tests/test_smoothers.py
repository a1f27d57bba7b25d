from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothbench.errors import EvaluationFailure, InsufficientData, InvalidParams, SeriesTooShort
from smoothbench.smoothers import (
    K_PARAMS,
    PARAM_SPECS,
    PARAMETER_FREE_METHODS,
    PARAMETRIC_METHODS,
    MethodId,
    SmootherSpec,
    apply_smoother,
    apply_to_values,
    default_spec,
    linear_operator,
    make_spec,
    required_length,
)
from smoothbench.smoothers import gam, kernel, localpoly, savgol
from smoothbench.smoothers.basic import tukey_3r
from smoothbench.smoothers.fourier import fourier_lowpass
from smoothbench.smoothers.kalman import fit_kalman_local_level
from smoothbench.smoothers.windows import (
    batched_local_polyfit,
    equivalent_kernel,
    local_design,
    scatter_rows,
)
from smoothbench.timeseries import TimeSeries

from conftest import (
    full_windows,
    random_series,
    reference_gaussian_weights,
    reference_pol_design,
)

SHIFT_EQUIVARIANT = {
    MethodId.SMA, MethodId.RRM, MethodId.TUK, MethodId.SPL, MethodId.KER,
    MethodId.SUP, MethodId.POL, MethodId.SGF, MethodId.ADP, MethodId.FFT,
    MethodId.KAL,
}
SCALE_EQUIVARIANT = {
    MethodId.SMA, MethodId.RRM, MethodId.TUK, MethodId.SPL, MethodId.KER,
    MethodId.POL, MethodId.SGF, MethodId.FFT,
}


def sma_oracle(y, w):
    h = w // 2
    return np.array(
        [np.mean(y[max(0, i - h) : min(len(y), i + h + 1)]) for i in range(len(y))]
    )


def sgf_oracle(y, w, d):
    """Per-window polynomial least squares, written independently of the filter."""
    n = len(y)
    h = w // 2
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - h), min(n, i + h + 1)
        offs = np.arange(lo, hi) - i
        deg = min(d, len(offs) - 1)
        scaled = offs / max(1, np.abs(offs).max())
        coeffs = np.polynomial.polynomial.polyfit(scaled, y[lo:hi], deg)
        out[i] = coeffs[0]
    return out


class TestCatalog:
    def test_thirteen_methods(self):
        assert len(MethodId) == 13
        assert len(PARAMETER_FREE_METHODS) == 3
        assert len(PARAMETRIC_METHODS) == 10

    def test_parameter_counts_match_taxonomy(self):
        expected = {
            "tuk": 0, "kal": 0, "fft": 0,
            "spl": 1, "ker": 1, "sma": 1, "rrm": 1, "sup": 1, "pol": 1,
            "sgf": 2, "ari": 2, "adp": 3, "gam": 4,
        }
        assert {m.value: K_PARAMS[m] for m in MethodId} == expected

    def test_defaults_valid_for_every_method(self):
        for m in MethodId:
            spec = default_spec(m)
            assert len(spec.params) == K_PARAMS[m]
        expected = {
            "tuk": (), "kal": (), "fft": (),
            "spl": (0.0,), "ker": (2.0,), "sma": (5.0,), "rrm": (5.0,), "sup": (0.0,),
            "pol": (0.3,), "sgf": (7.0, 2.0), "ari": (2.0, 0.0), "adp": (7.0, 0.0, 4.0),
            "gam": (10.0, 0.0, 0.0, 0.0),
        }
        assert {m.value: default_spec(m).params for m in MethodId} == expected

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidParams):
            SmootherSpec(MethodId.SMA, (3, 5))
        with pytest.raises(InvalidParams):
            SmootherSpec(MethodId.TUK, (1,))

    def test_even_window_rejected(self):
        with pytest.raises(InvalidParams):
            SmootherSpec(MethodId.SMA, (4,))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(InvalidParams):
            SmootherSpec(MethodId.KER, (0.0,))

    def test_sgf_degree_window_boundary(self):
        SmootherSpec(MethodId.SGF, (5, 4))  # d < w holds
        with pytest.raises(InvalidParams, match="needs degree < window, got window=5, degree=5"):
            SmootherSpec(MethodId.SGF, (5, 5))

    def test_adp_degree_ordering(self):
        with pytest.raises(InvalidParams):
            SmootherSpec(MethodId.ADP, (7, 2, 1))

    def test_make_spec_names(self):
        spec = make_spec(MethodId.SGF, {"window": 7, "degree": 2})
        assert spec.params == (7.0, 2.0)
        with pytest.raises(InvalidParams):
            make_spec(MethodId.SGF, {"window": 7})
        with pytest.raises(InvalidParams):
            make_spec(MethodId.SGF, {"window": 7, "degree": 2, "bogus": 1})


def _catalog_grid(method):
    """Every genome on the catalog's per-parameter grid of ``method``."""
    return st.tuples(
        *(
            st.sampled_from(range(int(b.lo), int(b.hi) + 1, 2 if b.odd else 1))
            for b in PARAM_SPECS[method]
        )
    )


def _accepts(method, params) -> bool:
    try:
        SmootherSpec(method, params)
    except InvalidParams:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(sgf=_catalog_grid(MethodId.SGF), adp=_catalog_grid(MethodId.ADP))
def test_cross_parameter_rule_matches_predicates(sgf, adp):
    window, degree = sgf
    assert _accepts(MethodId.SGF, sgf) == (degree < window)
    window, min_degree, max_degree = adp
    assert _accepts(MethodId.ADP, adp) == (min_degree <= max_degree < window)


class TestHandExamples:
    def test_sma_window3(self):
        out = apply_to_values(SmootherSpec(MethodId.SMA, (3,)), np.array([1.0, 2, 3, 4, 5]))
        np.testing.assert_allclose(out, [1.5, 2, 3, 4, 4.5], rtol=1e-15)

    def test_tukey_iterates_to_fixpoint(self):
        np.testing.assert_array_equal(
            tukey_3r(np.array([1.0, 5, 2, 8, 3])), [1, 2, 3, 3, 3]
        )

    def test_tukey_monotone_unchanged(self):
        x = np.array([1.0, 2, 4, 7, 11])
        np.testing.assert_array_equal(tukey_3r(x), x)

    def test_tukey_short_series(self):
        out = tukey_3r(np.array([1.0, 9.0, 2.0]))
        assert list(out) == [1.0, 2.0, 2.0]

    def test_sgf_reproduces_quadratic_interior(self):
        t = np.arange(10, dtype=float)
        out = apply_to_values(SmootherSpec(MethodId.SGF, (5, 2)), t**2)
        np.testing.assert_allclose(out[2:-2], (t**2)[2:-2], atol=1e-9)


class TestOracles:
    def test_sma_matches_windowed_mean(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 21))
            y = rng.normal(size=n)
            for w in (3, 5, 7):
                if w > n:
                    continue
                out = apply_to_values(SmootherSpec(MethodId.SMA, (w,)), y)
                np.testing.assert_allclose(out, sma_oracle(y, w), atol=1e-12)

    def test_sgf_matches_windowed_least_squares(self, rng):
        for _ in range(30):
            n = int(rng.integers(7, 21))
            y = rng.normal(size=n)
            for w, d in ((5, 2), (7, 3), (7, 1)):
                if w > n:
                    continue
                out = apply_to_values(SmootherSpec(MethodId.SGF, (w, d)), y)
                np.testing.assert_allclose(out, sgf_oracle(y, w, d), atol=1e-10)


class TestInvariants:
    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_length_and_constant_preservation(self, method, rng):
        spec = default_spec(method)
        for n in (12, 31):
            y = random_series(rng, n).values()
            out = apply_to_values(spec, y)
            assert len(out) == n
            const = np.full(n, -3.75)
            np.testing.assert_allclose(apply_to_values(spec, const), const, atol=1e-6)

    @pytest.mark.parametrize(
        "method", sorted(SHIFT_EQUIVARIANT, key=lambda m: m.value), ids=lambda m: m.value
    )
    def test_shift_equivariance(self, method, rng):
        spec = default_spec(method)
        y = random_series(rng, 25).values()
        base = apply_to_values(spec, y)
        shifted = apply_to_values(spec, y + 41.5)
        np.testing.assert_allclose(shifted, base + 41.5, atol=1e-6)

    @pytest.mark.parametrize(
        "method", sorted(SCALE_EQUIVARIANT, key=lambda m: m.value), ids=lambda m: m.value
    )
    def test_scale_equivariance(self, method, rng):
        spec = default_spec(method)
        y = random_series(rng, 25).values()
        base = apply_to_values(spec, y)
        scaled = apply_to_values(spec, 7.5 * y)
        np.testing.assert_allclose(scaled, 7.5 * base, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_deterministic(self, method, rng):
        spec = default_spec(method)
        y = random_series(rng, 30).values()
        np.testing.assert_array_equal(apply_to_values(spec, y), apply_to_values(spec, y))

    def test_smoothers_work_on_the_sample_index(self, rng):
        # only imputation reads the calendar: the same values smooth alike
        # whether they are 1 day apart or spread unevenly over 120 days
        values = random_series(rng, 30).values()
        daily = TimeSeries.from_values(values)
        offsets = [0, *sorted(rng.choice(np.arange(1, 119), size=28, replace=False)), 119]
        start = daily.timestamps[0]
        spread = TimeSeries.from_pairs(
            (start + timedelta(days=int(d)), v) for d, v in zip(offsets, values)
        )
        for method in MethodId:
            spec = default_spec(method)
            smoothed = apply_smoother(spec, spread)
            assert smoothed.timestamps == spread.timestamps
            np.testing.assert_array_equal(
                smoothed.values(), apply_smoother(spec, daily).values(), err_msg=method.value
            )

    def test_gap_free_required(self, noisy_sine):
        gappy = TimeSeries.from_values([1.0, None, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(InsufficientData):
            apply_smoother(default_spec(MethodId.SMA), gappy)

    def test_series_too_short(self):
        # one length rule, at both front doors, for a series and for a stack
        cases = [
            (SmootherSpec(MethodId.SMA, (9,)), 7),
            (default_spec(MethodId.TUK), 4),
            (default_spec(MethodId.TUK), 2),
            (default_spec(MethodId.KAL), 4),
            (SmootherSpec(MethodId.ARI, (5, 1)), 12),
            (SmootherSpec(MethodId.GAM, (12, 0.0, 0, 0)), 10),
        ]
        for spec, n in cases:
            with pytest.raises(SeriesTooShort):
                apply_to_values(spec, np.arange(float(n)))
            with pytest.raises(SeriesTooShort):
                apply_to_values(spec, np.ones((3, n)))
            with pytest.raises(SeriesTooShort):
                linear_operator(spec, n)

    def test_required_length_rules(self):
        assert required_length(SmootherSpec(MethodId.SMA, (9,))) == 9
        assert required_length(SmootherSpec(MethodId.ARI, (5, 1))) == 13
        assert required_length(default_spec(MethodId.TUK)) == 5
        assert required_length(SmootherSpec(MethodId.GAM, (12, 0.0, 0, 0))) == 12
        assert required_length(SmootherSpec(MethodId.GAM, (4, 0.0, 0, 1))) == 5


class TestLinearOperators:
    @pytest.mark.parametrize(
        "spec",
        [
            SmootherSpec(MethodId.SMA, (5,)),
            SmootherSpec(MethodId.KER, (1.5,)),
            SmootherSpec(MethodId.SPL, (1.0,)),
            SmootherSpec(MethodId.SGF, (7, 2)),
            SmootherSpec(MethodId.POL, (0.4,)),
            SmootherSpec(MethodId.GAM, (12, 0.5, 0, 0)),
        ],
        ids=lambda s: s.method.value,
    )
    def test_operator_matches_direct_application(self, spec, rng):
        y = random_series(rng, 34).values()
        matrix = linear_operator(spec, len(y))
        direct = apply_to_values(spec, y)
        np.testing.assert_allclose(matrix @ y, direct, rtol=1e-10, atol=1e-12)

    def test_nonlinear_methods_have_no_operator(self):
        for m in (MethodId.TUK, MethodId.KAL, MethodId.FFT, MethodId.RRM,
                  MethodId.SUP, MethodId.ARI, MethodId.ADP):
            assert linear_operator(default_spec(m), 30) is None

    def test_gam_auto_penalty_is_nonlinear(self):
        assert linear_operator(SmootherSpec(MethodId.GAM, (10, 0.0, 0, 1)), 30) is None

    def test_operator_fuzz_over_random_specs(self, rng):
        draws = {
            MethodId.SMA: lambda: (float(rng.choice([3, 5, 7, 9, 11]))),
            MethodId.KER: lambda: float(rng.uniform(0.5, 10)),
            MethodId.SPL: lambda: float(rng.uniform(-4, 4)),
            MethodId.POL: lambda: float(rng.uniform(0.1, 1.0)),
        }
        for _ in range(25):
            m = list(draws)[int(rng.integers(len(draws)))]
            spec = SmootherSpec(m, (draws[m](),))
            n = int(rng.integers(12, 60))
            y = random_series(rng, n).values()
            matrix = linear_operator(spec, n)
            np.testing.assert_allclose(
                matrix @ y, apply_to_values(spec, y), rtol=1e-9, atol=1e-11
            )


class TestKalman:
    def test_constant_series_exact(self):
        smoothed, q, r = fit_kalman_local_level(np.array([4.0] * 12))
        assert list(smoothed) == [4.0] * 12
        assert q > 0 and r > 0

    def test_random_walk_prefers_large_signal_ratio(self):
        gen = np.random.default_rng(42)
        walk = np.cumsum(gen.normal(size=300))
        _, q, r = fit_kalman_local_level(walk)
        assert q / r > 1.0

    def test_white_noise_variance_reduction(self):
        gen = np.random.default_rng(7)
        noise = 10.0 + gen.normal(size=150)
        smoothed, _, _ = fit_kalman_local_level(noise)
        assert np.var(smoothed) < np.var(noise)

    def test_too_short(self):
        # the length rule lives in required_length, checked at the front door
        spec = default_spec(MethodId.KAL)
        assert required_length(spec) > 4
        with pytest.raises(SeriesTooShort):
            apply_to_values(spec, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_overflow_is_an_evaluation_failure(self):
        # the variance grid of a series this wide passes the largest double
        y = np.array([0.0, 1.0, 0.0, 6e153, 0.0, 1.0, 2.0])
        with np.errstate(all="ignore"):
            for values in (y, np.vstack([y, y])):
                with pytest.raises(EvaluationFailure, match="kal"):
                    apply_to_values(default_spec(MethodId.KAL), values)

    def test_raised_floating_point_error_is_an_evaluation_failure(self):
        with np.errstate(over="raise"):
            with pytest.raises(EvaluationFailure, match="sma"):
                apply_to_values(SmootherSpec(MethodId.SMA, (3.0,)), np.full(6, 1e308))


class TestFourier:
    def test_energy_rule_keeps_dominant_harmonic(self):
        t = np.arange(64, dtype=float)
        clean = np.sin(2 * np.pi * t / 32.0)
        gen = np.random.default_rng(5)
        noisy = clean + 0.05 * gen.normal(size=64)
        out = fourier_lowpass(noisy)
        assert np.abs(out - clean).max() < np.abs(noisy - clean).max()

    def test_constant_passthrough(self):
        const = np.full(16, 2.5)
        np.testing.assert_allclose(fourier_lowpass(const), const, atol=1e-12)

    def test_full_retention_is_identity(self, rng):
        y = rng.normal(size=20)
        np.testing.assert_allclose(fourier_lowpass(y, energy_fraction=1.0), y, atol=1e-10)

    def test_cutoff_is_smallest_harmonic_reaching_the_energy_share(self):
        n = 64
        t = np.arange(n)
        low = np.cos(2 * np.pi * t / n)  # harmonic 1
        high = np.cos(2 * np.pi * 5 * t / n)  # harmonic 5
        # harmonic 1 holds 16/17 > 90% of non-DC energy: cutoff stays at 1
        out = fourier_lowpass(4.0 * low + high)
        np.testing.assert_allclose(out, 4.0 * low, atol=1e-10)
        # equal split: 50% < 90%, so the cutoff must extend to harmonic 5
        out = fourier_lowpass(low + high)
        np.testing.assert_allclose(out, low + high, atol=1e-10)


class TestGamAutoPenalty:
    def test_gcv_smooths_noise_harder_than_tiny_penalty(self, rng):
        y = 3.0 + 0.5 * np.sin(np.arange(50) / 8.0) + 0.4 * rng.normal(size=50)
        near_interp = apply_to_values(SmootherSpec(MethodId.GAM, (25, -4.0, 0, 0)), y)
        auto = apply_to_values(SmootherSpec(MethodId.GAM, (25, -4.0, 0, 1)), y)
        resid_interp = np.var(y - near_interp)
        resid_auto = np.var(y - auto)
        assert resid_auto > resid_interp  # GCV refuses to chase the noise
        assert np.var(auto) < np.var(y)

    def test_auto_flag_ignores_manual_penalty(self, rng):
        y = rng.normal(size=30)
        a = apply_to_values(SmootherSpec(MethodId.GAM, (10, -4.0, 0, 1)), y)
        b = apply_to_values(SmootherSpec(MethodId.GAM, (10, 4.0, 0, 1)), y)
        np.testing.assert_array_equal(a, b)

    def test_basis_dim_capped_by_length(self):
        with pytest.raises(SeriesTooShort):
            apply_to_values(SmootherSpec(MethodId.GAM, (40, 0.0, 0, 0)), np.arange(20.0))


def test_gam_design_is_scipy_bspline_design_bit_for_bit():
    from scipy.interpolate import BSpline

    for n in (*range(4, 120), 180, 200, 365, 366, 500, 730):
        x = np.arange(n, dtype=float)
        for basis_dim in range(4, min(40, n) + 1):
            interior = np.linspace(0.0, n - 1.0, basis_dim - 2)[1:-1]
            knots = np.concatenate((np.zeros(4), interior, np.full(4, n - 1.0)))
            expected = BSpline.design_matrix(x, knots, 3).toarray()
            design = gam._gam_operators(n, basis_dim)[0]
            assert design.shape == expected.shape, (n, basis_dim)
            assert np.array_equal(design.view(np.int64), expected.view(np.int64)), (n, basis_dim)


class TestAutoregressive:
    def test_linear_trend_reproduced(self):
        x = np.arange(20, dtype=float) * 2.0 + 3.0
        out = apply_to_values(SmootherSpec(MethodId.ARI, (1, 0)), x)
        np.testing.assert_allclose(out, x, atol=1e-8)

    def test_differencing_handles_trend(self):
        x = np.arange(30, dtype=float)
        out = apply_to_values(SmootherSpec(MethodId.ARI, (2, 1)), x)
        np.testing.assert_allclose(out, x, atol=1e-8)

    def test_output_finite_on_noise(self, rng):
        y = random_series(rng, 40).values()
        out = apply_to_values(SmootherSpec(MethodId.ARI, (3, 1)), y)
        assert np.all(np.isfinite(out))


class TestAdaptiveDegree:
    def test_quadratic_gets_high_degree(self):
        t = np.arange(25, dtype=float)
        y = 0.5 * t**2 - 3 * t + 1
        out = apply_to_values(SmootherSpec(MethodId.ADP, (9, 0, 4)), y)
        np.testing.assert_allclose(out, y, atol=1e-7)

    def test_noise_stays_low_degree(self, rng):
        # pure noise: the F-test should rarely accept higher degrees, so the
        # output variance is well below the input variance
        y = rng.normal(size=41)
        out = apply_to_values(SmootherSpec(MethodId.ADP, (11, 0, 5)), y)
        assert np.var(out) < np.var(y)

    def test_f_critical_is_the_scipy_stats_quantile(self):
        from scipy.stats import f as f_dist

        from smoothbench.smoothers.savgol import _F_CRITICAL, F_TEST_ALPHA

        assert _F_CRITICAL.shape == (2, 20)
        assert np.all(_F_CRITICAL[:, 0] == np.inf)
        for jump in (1, 2):
            for dof2 in range(1, 20):
                expected = float(f_dist.ppf(1.0 - F_TEST_ALPHA, jump, dof2))
                assert _F_CRITICAL[jump - 1, dof2] == expected, (jump, dof2)

    def test_f_critical_table_covers_every_valid_spec(self):
        from smoothbench.smoothers.savgol import _F_CRITICAL

        bounds = {b.name: b for b in PARAM_SPECS[MethodId.ADP]}
        # raising degree d by jump on an m-point window (m <= window) tests
        # with dof2 = m - (d + jump) - 1, and only when dof2 > 0
        reachable = {
            (jump, m - (d + jump) - 1)
            for jump in (1, 2)
            for m in range(1, int(bounds["window"].hi) + 1)
            for d in range(int(bounds["min_degree"].lo), int(bounds["max_degree"].hi) - jump + 1)
            if m - (d + jump) - 1 > 0
        }
        for jump, dof2 in reachable:
            assert np.isfinite(_F_CRITICAL[jump - 1, dof2]), (jump, dof2)


def reference_local_design(offsets, degree, weights=None):
    """(design, weighted, normal) as built before the power table: ** on every offset."""
    scale = max(1.0, float(np.abs(offsets).max()))
    t = offsets / scale
    powers = np.arange(degree + 1)
    design = t[:, :, None] ** powers[None, None, :]
    w = np.ones_like(t) if weights is None else weights
    aw = design * w[:, :, None]
    return design, aw, np.einsum("nkp,nkq->npq", aw, design)


def assert_design_matches_reference(local, reference):
    for name, got, want in zip(("design", "weighted", "normal"), (
        local.design, local.weighted, local.normal), reference):
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)


def interior_windows(n, window):
    """Columns and offsets of ADP's full windows of a length-n series, one shape each."""
    half = window // 2
    interior = np.arange(half, n - half)
    return full_windows(interior - half, window, interior)


class TestLocalDesign:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 400), st.floats(0.1, 1.0))
    def test_pol_design_matches_broadcast_powers(self, n, span):
        cols, local = reference_pol_design(n, span)
        offsets = cols - np.arange(n)[:, None]
        assert_design_matches_reference(local, reference_local_design(offsets, 2, local.weights))
        # the k slot shapes POL builds
        _, _, slots = localpoly._slot_design(n, span)
        k = len(slots.normal)
        slot_offsets = np.arange(k)[None, :] - np.arange(k)[:, None]
        assert_design_matches_reference(
            slots, reference_local_design(slot_offsets, 2, slots.weights))

    @pytest.mark.parametrize("n", [30, 60, 365])
    def test_interior_designs_match_broadcast_powers(self, n):
        # every full-window design of ADP's interior fits, a shape for each window
        for window in range(5, 22, 2):
            _, offsets = interior_windows(n, window)
            for degree in range(1, min(6, window - 1) + 1):
                assert_design_matches_reference(
                    local_design(offsets, degree), reference_local_design(offsets, degree))


def assert_same_bits(got, want, name):
    assert got.shape == want.shape, name
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)


class TestSharedTables:
    """The per-shape and per-lag tables against a build over every window or pair."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(5, 400), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
    @example(n=40, span=0.1, seed=0)  # k = 4, the floor
    @example(n=5, span=0.1, seed=1)  # k = 4 of 5
    @example(n=400, span=1.0, seed=2)  # k = n: one window, n slots
    @example(n=7, span=1.0, seed=3)
    def test_pol_parts_match_full_windows(self, n, span, seed):
        y = random_series(np.random.default_rng(seed), n, scale=10.0).values()
        cols, local = reference_pol_design(n, span)
        rows = equivalent_kernel(local)
        smooth = batched_local_polyfit(y[cols], local, np.arange(n))
        base, diagonal, operator_of = localpoly.local_quadratic_parts(y, span)
        assert_same_bits(localpoly.local_quadratic(y, span), smooth, "local_quadratic")
        assert_same_bits(base, smooth, "smooth")
        assert_same_bits(diagonal, rows[np.arange(n), np.arange(n) - cols[:, 0]], "diagonal")
        assert_same_bits(operator_of(), scatter_rows(cols, rows, n), "operator")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 400), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1), st.booleans())
    @example(n=40, span=0.1, seed=0, want_sse=True)  # k = 4, the floor
    @example(n=5, span=0.1, seed=1, want_sse=False)  # k = 4 of 5
    @example(n=400, span=1.0, seed=2, want_sse=True)  # k = n: one window, n slots
    @example(n=7, span=1.0, seed=3, want_sse=False)
    def test_pol_slot_gather_matches_a_shape_per_window(self, n, span, seed, want_sse):
        y = random_series(np.random.default_rng(seed), n, scale=10.0).values()
        cols, slot, local = localpoly._slot_design(n, span)
        ref_cols, reference = reference_pol_design(n, span)
        assert_same_bits(cols, ref_cols, "cols")
        got = batched_local_polyfit(y[cols], local, slot, want_sse)
        want = batched_local_polyfit(y[cols], reference, np.arange(n), want_sse)
        assert_same_bits(np.array(got), np.array(want), "fit")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 6), st.integers(0, 400), st.integers(-10, 10),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_adp_interior_gather_matches_a_shape_per_window(
            self, half, degree, extra, shift, seed, want_sse):
        window = 2 * half + 1
        degree, shift, n = min(degree, window - 1), max(-half, min(half, shift)), window + extra
        gen = np.random.default_rng(seed)
        y, imp = random_series(gen, n, scale=10.0).values(), 10.0 * gen.normal(size=n)
        fits = savgol.WindowFits(y, imp)
        interior = np.arange(half, n - half)
        cols, offsets = interior_windows(n, window)
        reference = local_design(offsets, degree)
        yw = y[cols]
        yw[:, half + shift] = imp[interior + shift]
        want = batched_local_polyfit(yw, reference, np.arange(len(yw)), want_sse=True)
        got = fits.fit(window, degree, shift)
        assert_same_bits(np.array(got)[:, interior], np.array(want), "WindowFits")
        # one interior shape per (window, degree), the same whatever n is
        shape = fits._designs[window, degree]
        assert shape.normal.shape == (1, degree + 1, degree + 1)
        shortest = savgol.WindowFits(y[:window], imp[:window])
        shortest.fit(window, degree, 0)
        for name in ("design", "weights", "weighted", "normal"):
            assert_same_bits(getattr(shape, name),
                             getattr(shortest._designs[window, degree], name), name)
        got = batched_local_polyfit(yw, shape, np.zeros_like(interior), want_sse)
        want = batched_local_polyfit(yw, reference, np.arange(len(yw)), want_sse)
        assert_same_bits(np.array(got), np.array(want), "gather")

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 400), st.floats(0.5, 10.0))
    @example(n=2, bandwidth=0.5)
    @example(n=400, bandwidth=10.0)
    def test_ker_weights_match_pairwise_exp(self, n, bandwidth):
        weights = kernel._gaussian_weights(n, bandwidth)
        assert weights.flags.c_contiguous
        assert_same_bits(weights, reference_gaussian_weights(n, bandwidth), "weights")
