import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbench.errors import DegenerateDesign, EvaluationFailure, InsufficientData
from smoothbench.regression import (
    LoadIncidencePair,
    fit_linear,
    join_load_incidence,
)
from smoothbench.timeseries import TimeSeries


def pairs_from(xs, ys):
    return [LoadIncidencePair(load=x, incidence=y) for x, y in zip(xs, ys)]


def normal_equations_oracle(xs, ys):
    a = np.column_stack([np.asarray(xs, dtype=float), np.ones(len(xs))])
    coef = np.linalg.solve(a.T @ a, a.T @ np.asarray(ys, dtype=float))
    return float(coef[0]), float(coef[1])


class TestFitLinear:
    def test_exact_line(self):
        xs = np.arange(10.0)
        fit = fit_linear(pairs_from(xs, 2.0 * xs + 1.0))
        assert fit.slope == pytest.approx(2.0, rel=1e-12)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_points(self):
        fit = fit_linear(pairs_from([0.0, 1.0], [0.0, 3.0]))
        assert (fit.slope, fit.intercept) == (3.0, 0.0)

    def test_matches_normal_equations(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 30))
            xs = rng.uniform(0, 100, n)
            ys = np.clip(3.0 * xs + 10 + rng.normal(scale=5.0, size=n), 0, None)
            fit = fit_linear(pairs_from(xs, ys))
            slope, intercept = normal_equations_oracle(xs, ys)
            assert fit.slope == pytest.approx(slope, rel=1e-10, abs=1e-10)
            assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-10)

    def test_residuals_sum_to_zero(self, rng):
        xs = rng.uniform(0, 10, 25)
        ys = np.clip(xs * 2 + rng.normal(size=25), 0, None)
        fit = fit_linear(pairs_from(xs, ys))
        resid = ys - (fit.slope * xs + fit.intercept)
        assert abs(resid.sum()) < 1e-9

    def test_r_squared_invariant_to_x_rescaling(self, rng):
        xs = rng.uniform(0, 10, 25)
        ys = np.clip(xs * 2 + rng.normal(size=25), 0, None)
        r2 = fit_linear(pairs_from(xs, ys)).r_squared
        r2_scaled = fit_linear(pairs_from(xs * 1000.0 + 7.0, ys)).r_squared
        assert r2_scaled == pytest.approx(r2, rel=1e-12)

    def test_permutation_invariant(self, rng):
        xs = rng.uniform(0, 10, 15)
        ys = np.clip(xs + rng.normal(size=15), 0, None)
        fit = fit_linear(pairs_from(xs, ys))
        perm = rng.permutation(15)
        fit2 = fit_linear(pairs_from(xs[perm], ys[perm]))
        assert fit.slope == pytest.approx(fit2.slope, rel=1e-12)
        assert fit.intercept == pytest.approx(fit2.intercept, rel=1e-12)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesign):
            fit_linear(pairs_from([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]))

    def test_too_few(self):
        with pytest.raises(InsufficientData):
            fit_linear(pairs_from([1.0], [1.0]))

    @pytest.mark.parametrize("xs, ys", [
        ([4e205, 4.4e205, 4.8e205], [10.0, 11.0, 12.0]),  # the sum of squared loads
        ([0.0, 1e-160], [0.0, 1e300]),  # the slope, from a subnormal sum of squares
        ([1.0, 2.0, 3.0], [1e200, 0.0, 1e200]),  # the squared incidence
    ])
    def test_overflow_is_evaluation_failure(self, xs, ys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailure, match="overflows"):
                fit_linear(pairs_from(xs, ys))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(0, 1e150), st.floats(0, 1e150)), min_size=2,
                    max_size=30))
    def test_same_bits_as_the_unguarded_closed_form(self, rows):
        """The overflow guard changes no digit of a fit that does not overflow."""
        xs, ys = (np.array(col) for col in zip(*rows))
        x_mean, y_mean = float(xs.mean()), float(ys.mean())
        sxx = float(((xs - x_mean) ** 2).sum())
        if sxx == 0.0:
            return
        slope = float(((xs - x_mean) * (ys - y_mean)).sum()) / sxx
        if not np.isfinite(slope):
            return
        fit = fit_linear(pairs_from(xs, ys))
        assert (fit.slope, fit.intercept) == (slope, y_mean - slope * x_mean)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            LoadIncidencePair(load=-1.0, incidence=0.0)


class TestIncidenceAtLoad:
    def test_catchment_size_ordering_recovered(self, rng):
        # four sites built so smaller catchments carry larger slope and
        # intercept; the fits must recover that ordering
        true_params = {"A": (1.0, 20.0), "B": (1.5, 40.0), "C": (2.2, 80.0), "D": (3.0, 130.0)}
        fits = {}
        loads = rng.uniform(10, 400, 40)
        for site, (slope, intercept) in true_params.items():
            inc = np.clip(slope * loads + intercept + rng.normal(scale=2.0, size=40), 0, None)
            fits[site] = fit_linear(
                [LoadIncidencePair(load=x, incidence=y) for x, y in zip(loads, inc)]
            )
        slopes = [fits[s].slope for s in "ABCD"]
        intercepts = [fits[s].intercept for s in "ABCD"]
        assert slopes == sorted(slopes)
        assert intercepts == sorted(intercepts)


class TestBundledCatchments:
    def test_per_site_fits_recover_size_ordering(self):
        # the four bundled catchments are constructed with slope/intercept
        # growing as the served population shrinks; raw normalized loads
        # joined with incidence must recover that ordering
        from smoothbench.normalization import normalize_series
        from smoothbench.synthetic import DEFAULT_F_NH4, catchment_suite
        from smoothbench.timeseries import build_series, impute_linear

        fits = {}
        readouts = {}
        for site, (records, _) in catchment_suite().items():
            loads = normalize_series(
                build_series(records, "c_virus"),
                build_series(records, "c_nh4"),
                DEFAULT_F_NH4,
            )
            incidence = build_series(records, "incidence_7d")
            pairs = join_load_incidence(impute_linear(loads), incidence)
            fit = fit_linear(pairs)
            fits[site] = fit
            median_load = float(np.median([p.load for p in pairs]))
            readouts[site] = fit.slope * median_load + fit.intercept
        slopes = [fits[s].slope for s in "ABCD"]
        intercepts = [fits[s].intercept for s in "ABCD"]
        assert slopes == sorted(slopes)
        assert intercepts == sorted(intercepts)
        assert len(readouts) == 4
        assert all(v > 0 for v in readouts.values())


class TestJoin:
    def test_exact_date_join_drops_missing(self):
        loads = TimeSeries.from_values([1.0, None, 3.0, 4.0])
        incidence = TimeSeries.from_values([10.0, 20.0, None, 40.0])
        pairs = join_load_incidence(loads, incidence)
        assert [(p.load, p.incidence) for p in pairs] == [(1.0, 10.0), (4.0, 40.0)]

    def test_negative_smoothed_loads_clamped(self):
        loads = TimeSeries.from_values([-0.5, 2.0])
        incidence = TimeSeries.from_values([5.0, 6.0])
        pairs = join_load_incidence(loads, incidence)
        assert pairs[0].load == 0.0
