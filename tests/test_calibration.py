import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoothbench.calibration as cal
import smoothbench.evaluation as ev
import smoothbench.smoothers as smoothers
from smoothbench.calibration import (
    CalibrationResult,
    GaConfig,
    Individual,
    RouletteWheel,
    calibrate,
    repair_genome,
    search_bounds,
    two_point_crossover,
)
from smoothbench.errors import (
    EvaluationFailure,
    InputError,
    InvalidParams,
    NonParametricMethod,
    SeriesTooShort,
)
from smoothbench.evaluation import (
    ZERO_RESIDUAL_SSE,
    PerformanceIndex,
    build_loocv_matrix,
    evaluate_method,
)
from smoothbench.smoothers import (
    PARAM_SPECS,
    PARAMETRIC_METHODS,
    MethodId,
    SmootherSpec,
    apply_to_values,
    constrain,
    effective_params,
    required_length,
)
from smoothbench.timeseries import TimeSeries

from conftest import random_series


def small_config(**kw):
    base = dict(population_size=12, iterations=10, seed=3)
    base.update(kw)
    return GaConfig(**base)


class TestGaConfig:
    def test_table_defaults(self):
        cfg = GaConfig()
        assert (cfg.population_size, cfg.iterations) == (30, 100)

    def test_validation(self):
        for bad in (dict(population_size=1), dict(iterations=-1), dict(patience=0)):
            with pytest.raises(InputError, match=next(iter(bad))):
                GaConfig(**bad)
        GaConfig(population_size=2, iterations=0, patience=1)


class TestRouletteSelect:
    def test_singleton(self):
        pop = [Individual((1.0,), fitness=5.0)]
        assert RouletteWheel(pop).pick(np.random.default_rng(0)) is pop[0]

    def test_best_dominates_at_small_epsilon(self):
        pop = [Individual((0.0,), fitness=0.0), Individual((1.0,), fitness=100.0)]
        gen = np.random.default_rng(1)
        picks = sum(RouletteWheel(pop).pick(gen) is pop[0] for _ in range(2000))
        assert picks > 1990  # weight ratio (100+eps):eps

    def test_uniform_when_all_equal(self):
        pop = [Individual((float(i),), fitness=7.0) for i in range(4)]
        gen = np.random.default_rng(2)
        counts = np.zeros(4)
        draws = 10000
        for _ in range(draws):
            idx = pop.index(RouletteWheel(pop).pick(gen))
            counts[idx] += 1
        expected = draws / 4
        # three-sigma band of a binomial with p = 1/4
        sigma = math.sqrt(draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_infinite_fitness_never_selected(self):
        pop = [Individual((0.0,), fitness=1.0), Individual((1.0,), fitness=math.inf)]
        gen = np.random.default_rng(3)
        assert all(RouletteWheel(pop).pick(gen) is pop[0] for _ in range(200))

    def test_wheel_draws_like_repeated_selection(self):
        fits = [3.0, math.inf, -math.inf, 0.5, 3.0, 12.0]
        pop = [Individual((float(i),), fitness=f) for i, f in enumerate(fits)]
        wheel = RouletteWheel(pop)
        once, each = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(300):
            assert wheel.pick(once) is RouletteWheel(pop).pick(each)
        assert once.random() == each.random()

    def test_all_infinite_falls_back_to_uniform(self):
        pop = [Individual((float(i),), fitness=math.inf) for i in range(3)]
        gen = np.random.default_rng(4)
        seen = {pop.index(RouletteWheel(pop).pick(gen)) for _ in range(100)}
        assert seen == {0, 1, 2}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_total_falls_back_to_uniform(self):
        pop = [Individual((float(i),), fitness=f) for i, f in enumerate((-1e308, 0.0, 1e308))]
        wheel = RouletteWheel(pop)
        assert wheel.total == math.inf and wheel.cumulative is None
        gen = np.random.default_rng(5)
        assert {pop.index(wheel.pick(gen)) for _ in range(100)} == {0, 1, 2}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        fits=st.lists(
            st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1e308])),
            min_size=1, max_size=30,
        )
    )
    @example(fits=[math.inf, 1e308])  # eps overflows, so the +inf slot computes inf - inf
    def test_weights_match_the_scalar_loop(self, fits):
        """The vectorized weights, total and cumulative sums equal the scalar loop's."""
        cumulative, total = None, 0.0
        finite = [f for f in fits if math.isfinite(f)]
        if finite:
            max_f, min_f = max(finite), min(finite)
            eps = 1e-12 * (1.0 + abs(max_f) + abs(min_f))
            weights = np.empty(len(fits))
            for i, f in enumerate(fits):
                if f == math.inf:
                    weights[i] = 0.0
                else:
                    clamped = min_f - 1.0 if f == -math.inf else f
                    weights[i] = max_f - clamped + eps
            with np.errstate(over="ignore"):
                total = float(weights.sum())
            if 0.0 < total < math.inf:
                cumulative = np.cumsum(weights).tolist()
        wheel = RouletteWheel([Individual((float(i),), fitness=f) for i, f in enumerate(fits)])
        assert repr(wheel.total) == repr(total)
        assert repr(wheel.cumulative) == repr(cumulative)

    @settings(max_examples=200, deadline=None)
    @given(
        fits=st.lists(
            st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.inf, -math.inf, 0.0, 2.5])),
            min_size=1, max_size=30,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_picks_like_uniform_and_searchsorted(self, fits, seed):
        """Same picks, in order, and same rng state as rng.uniform located by searchsorted."""

        def reference_pick(wheel, rng):
            if wheel.cumulative is None:
                return wheel.population[int(rng.integers(len(wheel.population)))]
            pick = rng.uniform(0.0, wheel.total)
            idx = int(np.searchsorted(np.asarray(wheel.cumulative), pick, side="right"))
            return wheel.population[min(idx, len(wheel.population) - 1)]

        pop = [Individual((float(i),), fitness=f) for i, f in enumerate(fits)]
        wheel = RouletteWheel(pop)
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert wheel.pick(new) is reference_pick(wheel, old)
        assert new.random() == old.random()


class TestCrossover:
    def test_identical_parents_fixed_point(self):
        gen = np.random.default_rng(0)
        a = (1.0, 2.0, 3.0, 4.0)
        ca, cb = two_point_crossover(a, a, gen)
        assert ca == a and cb == a

    def test_segment_exchange_structure(self):
        gen = np.random.default_rng(1)
        a, b = (1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0)
        for _ in range(100):
            ca, cb = two_point_crossover(a, b, gen)
            # children are complementary and the exchanged block is contiguous
            assert tuple(3.0 - g for g in ca) == cb
            flips = [i for i in range(1, 4) if ca[i] != ca[i - 1]]
            assert len(flips) <= 2

    def test_hand_traced_cut_points(self):
        a, b = (1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0)
        for seed in range(200):
            gen = np.random.default_rng(seed)
            ca, cb = two_point_crossover(a, b, gen)
            if ca == (1.0, 2.0, 2.0, 1.0):
                assert cb == (2.0, 1.0, 1.0, 2.0)
                return
        pytest.fail("cuts (1, 3) never drawn in 200 seeds")

    def test_length_one_swaps_or_keeps(self):
        gen = np.random.default_rng(5)
        outcomes = {two_point_crossover((1.0,), (2.0,), gen) for _ in range(50)}
        assert outcomes == {((1.0,), (2.0,)), ((2.0,), (1.0,))}

    def test_length_two_one_point(self):
        gen = np.random.default_rng(6)
        ca, cb = two_point_crossover((1.0, 1.0), (2.0, 2.0), gen)
        assert ca == (1.0, 2.0) and cb == (2.0, 1.0)


class TestRepair:
    def test_parity_and_bounds(self):
        bounds = PARAM_SPECS[MethodId.SMA]
        assert repair_genome(MethodId.SMA, bounds, (4.2,)) == (5.0,)
        assert repair_genome(MethodId.SMA, bounds, (100.0,)) == (21.0,)
        assert repair_genome(MethodId.SMA, bounds, (-3.0,)) == (3.0,)

    def test_sgf_cross_constraint(self):
        bounds = PARAM_SPECS[MethodId.SGF]
        assert repair_genome(MethodId.SGF, bounds, (5.0, 6.7)) == (5.0, 4.0)

    def test_adp_cross_constraint(self):
        bounds = PARAM_SPECS[MethodId.ADP]
        w, dmin, dmax = repair_genome(MethodId.ADP, bounds, (5.0, 2.0, 0.0))
        assert dmin <= dmax < w

    def test_search_bounds_shrink_with_series_length(self):
        full = search_bounds(MethodId.SMA, 100)
        assert full[0].hi == 21
        short = search_bounds(MethodId.SMA, 9)
        assert short[0].hi == 9
        gam = search_bounds(MethodId.GAM, 20)
        assert gam[0].hi == 20
        ari = search_bounds(MethodId.ARI, 9)
        assert ari[0].hi == 3


@pytest.mark.xfail(strict=True, reason="search_bounds shrinks one gene at a time to a "
                   "rectangle and drops ari (order 3, differences 0) at T=7")
def test_search_bounds_hold_every_ari_spec_that_fits():
    bounds = search_bounds(MethodId.ARI, 7)
    grids = [b.grid() for b in PARAM_SPECS[MethodId.ARI]]
    fits = [g for g in itertools.product(*grids)
            if required_length(SmootherSpec(MethodId.ARI, g)) <= 7]
    outside = [g for g in fits if not all(b.is_valid(x) for b, x in zip(bounds, g))]
    assert not outside


@pytest.mark.parametrize("method", PARAMETRIC_METHODS, ids=lambda m: m.value)
def test_search_bounds_reject_a_series_too_short_for_any_genome(method):
    with pytest.raises(SeriesTooShort, match=f"{method.value} needs at least 5 points, got 4"):
        search_bounds(method, 4)
    assert search_bounds(method, 5)


class _ScriptedRng:
    """Stands in for the generator in ``_mutate``: one scripted draw per gene.

    A draw of None keeps the gene; a fraction f redraws it as lo + f * (hi - lo).
    """

    def __init__(self, draws):
        self._draws = list(draws)
        self._current = None

    def random(self):
        self._current = self._draws.pop(0)
        return 1.0 if self._current is None else 0.0

    def uniform(self, lo, hi):
        return lo + self._current * (hi - lo)


@settings(max_examples=300, deadline=None)
@given(
    method=st.sampled_from(PARAMETRIC_METHODS),
    n=st.integers(5, 60),
    parents=st.lists(
        st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=4), min_size=2, max_size=2
    ),
    take_b=st.lists(st.booleans(), min_size=4, max_size=4),
    draws=st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=4, max_size=4),
)
def test_mutation_repairs_like_full_repair(method, n, parents, take_b, draws):
    """Repairing only the redrawn genes, then constraining, is the full repair_genome."""
    bounds = search_bounds(method, n)
    a, b = (
        repair_genome(method, bounds, [g.lo + f * (g.hi - g.lo) for g, f in zip(bounds, p)])
        for p in parents
    )
    child = [gb if pick else ga for ga, gb, pick in zip(a, b, take_b)]
    draws = draws[: len(bounds)]
    raw = [
        gene if f is None else g.lo + f * (g.hi - g.lo)
        for g, f, gene in zip(bounds, draws, child)
    ]
    got = constrain(method, cal._mutate(child, bounds, 0.5, _ScriptedRng(draws)))
    assert got == repair_genome(method, bounds, raw)


def _by_name_bounds(method, n):
    """The search box by a rule on parameter names, kept as a reference for search_bounds."""
    out = []
    for b in PARAM_SPECS[method]:
        hi = b.hi
        if b.odd and hi > n:
            hi = n if n % 2 == 1 else n - 1
        elif b.name == "basis_dim" and hi > n:
            hi = n
        elif b.name == "order":
            hi = min(hi, max(1, (n - 3) // 2))
        out.append((b.name, b.lo, hi, type(hi), b.integer, b.odd))
    return out


@pytest.mark.parametrize("method", PARAMETRIC_METHODS, ids=lambda m: m.value)
def test_search_bounds_match_by_name_rule(method):
    for n in range(5, 401):
        got = [(b.name, b.lo, b.hi, type(b.hi), b.integer, b.odd) for b in search_bounds(method, n)]
        assert got == _by_name_bounds(method, n), n


@pytest.mark.parametrize("method", PARAMETRIC_METHODS, ids=lambda m: m.value)
@settings(max_examples=20, deadline=None)
@given(fractions=st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=4))
def test_search_box_agrees_with_length_rule(method, fractions):
    """At every n, repaired genomes of the box for length n are valid specs applicable to n."""
    for n in range(5, 401):
        bounds = search_bounds(method, n)
        drawn = [b.lo + f * (b.hi - b.lo) for b, f in zip(bounds, fractions)]
        for raw in (drawn, [b.lo for b in bounds], [b.hi for b in bounds]):
            spec = SmootherSpec(method, repair_genome(method, bounds, raw))
            assert required_length(spec) <= n, (n, spec.params)


class TestCalibrate:
    def test_surrogate_recovers_grid_optimum(self, noisy_sine):
        result = calibrate(
            MethodId.SMA, noisy_sine, small_config(), objective=lambda g: (g[0] - 7.0) ** 2
        )
        assert result.spec.params == (7.0,)
        assert result.fitness == 0.0

    def test_flat_objective_is_deterministic(self, noisy_sine):
        first = calibrate(MethodId.KER, noisy_sine, small_config(), objective=lambda g: 1.0)
        second = calibrate(MethodId.KER, noisy_sine, small_config(), objective=lambda g: 1.0)
        assert first.spec == second.spec
        assert first.history == second.history

    def test_nonparametric_rejected(self, noisy_sine):
        with pytest.raises(NonParametricMethod):
            calibrate(MethodId.TUK, noisy_sine, small_config())

    @pytest.mark.parametrize("method", PARAMETRIC_METHODS, ids=lambda m: m.value)
    def test_series_too_short_for_any_genome_rejected(self, method, noisy_sine):
        def never(genome):
            raise AssertionError("the GA ran")

        short = TimeSeries.from_values(noisy_sine.values()[:4])
        with pytest.raises(SeriesTooShort, match="at least 5 points, got 4"):
            calibrate(method, short, small_config(), objective=never)

    def test_history_monotone_and_elitism(self, noisy_sine):
        result = calibrate(
            MethodId.SPL, noisy_sine, small_config(iterations=15), objective="mae"
        )
        hist = np.array(result.history)
        assert len(hist) == 16
        assert np.all(np.diff(hist) <= 0.0)

    def test_every_evaluated_genome_is_feasible(self, noisy_sine):
        seen = []

        def spy(genome):
            seen.append(genome)
            return float(np.sum(np.square(genome)))

        calibrate(MethodId.SGF, noisy_sine, small_config(iterations=6), objective=spy)
        bounds = search_bounds(MethodId.SGF, len(noisy_sine))
        assert seen
        for genome in seen:
            assert all(b.is_valid(g) for b, g in zip(bounds, genome))
            assert genome[1] < genome[0]  # degree < window

    def test_sgf_on_quadratic_prefers_degree_two_or_more(self):
        t = np.arange(30, dtype=float)
        series = TimeSeries.from_values(0.3 * t**2 - 2.0 * t + 5.0)
        result = calibrate(
            MethodId.SGF, series, small_config(iterations=12), objective="mae"
        )
        assert result.spec.params[1] >= 2

    def test_patience_stops_early(self, noisy_sine):
        result = calibrate(
            MethodId.SMA,
            noisy_sine,
            small_config(iterations=50, patience=3),
            objective=lambda g: 0.0,
        )
        assert len(result.history) - 1 < 50

    def test_aic_objective_matches_evaluate_method(self, rng):
        series = random_series(rng, 25)
        result = calibrate(MethodId.SPL, series, small_config(iterations=8))
        check = evaluate_method(SmootherSpec(MethodId.SPL, result.spec.params), series)
        assert result.fitness == pytest.approx(check.aic, rel=1e-12)

    def test_sporadic_failures_penalized_not_fatal(self, noisy_sine):
        # one lattice value raising -> those individuals get +inf fitness and
        # the search still lands on the true optimum
        def flaky(genome):
            if genome[0] == 21.0:
                raise InvalidParams("synthetic failure")
            return (genome[0] - 7.0) ** 2

        result = calibrate(
            MethodId.SMA, noisy_sine, small_config(seed=0, iterations=5), objective=flaky
        )
        assert result.spec.params == (7.0,)

    def test_widespread_failures_abort(self, noisy_sine):
        def broken(genome):
            if genome[0] > 9.0:
                raise InvalidParams("synthetic failure")
            return 0.0

        with pytest.raises(EvaluationFailure):
            calibrate(
                MethodId.SMA, noisy_sine, small_config(seed=0, iterations=5), objective=broken
            )

    def test_combined_objective_runs(self, rng):
        series = random_series(rng, 25)
        result = calibrate(
            MethodId.KER, series, small_config(iterations=5), objective="combined"
        )
        assert isinstance(result, CalibrationResult)
        assert math.isfinite(result.fitness)

    def test_combined_objective_builds_each_genome_once(self, rng, monkeypatch):
        # the z-score baseline reads the initial population through the
        # fitness cache, so every LOOCV build is a cache miss
        calls = []
        real = cal.evaluate_method

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cal, "evaluate_method", counting)
        series = random_series(rng, 25)
        result = calibrate(
            MethodId.KER, series, small_config(iterations=5), objective="combined"
        )
        assert result.evaluations > 0
        assert len(calls) == result.evaluations

    def test_combined_baseline_keeps_numpy_bits(self, rng):
        baseline = [PerformanceIndex("ker", 1, *rng.uniform(0.1, 9.0, 2), rng.normal(40.0, 9.0))
                    for _ in range(37)] + [None]
        arr = np.array([(pi.mae, pi.var, pi.aic) for pi in baseline[:-1]])
        stats = [(float(arr[:, i].mean()), float(arr[:, i].std())) for i in range(3)]
        fitness = cal._combined_fitness(MethodId.KER, baseline)
        for pi in baseline[:-1]:
            z = [(f - mu) / sd for f, (mu, sd) in zip((pi.mae, pi.var, pi.aic), stats)]
            assert fitness(pi) == sum(z) / 3.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_combined_baseline_keeps_an_overflowing_var_spread(self):
        # the squares of VAR deviations near 1e196 pass the largest double
        var = [1.0, 3.0, 2.0, 7.0]
        baseline = [PerformanceIndex("sma", 1, 1.0 + i, v * 1e196, 10.0 * i)
                    for i, v in enumerate(var)]
        fitness = cal._combined_fitness(MethodId.SMA, baseline)
        high, low = (replace(baseline[0], var=v * 1e196) for v in (7.0, 1.0))
        np.testing.assert_allclose(fitness(high) - fitness(low), 6.0 / np.std(var) / 3.0,
                                   rtol=1e-12)


def _counting_evaluate_method(monkeypatch) -> list:
    """Record the spec of every evaluate_method call the GA makes."""
    calls = []
    real = cal.evaluate_method

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cal, "evaluate_method", counting)
    return calls


class TestSharedEvaluations:
    """Genomes that define the same smoother share one LOOCV evaluation."""

    @pytest.fixture
    def series(self):
        return random_series(np.random.default_rng(8), 24)

    def test_matches_unshared_run_with_one_build_per_smoother(self, series, monkeypatch):
        # a callable objective keys on every gene, so it evaluates each
        # genome on its own: the same run without the shared evaluations
        config = small_config(population_size=16, iterations=6)
        scored = []

        def unshared(genome):
            scored.append(genome)
            return evaluate_method(SmootherSpec(MethodId.GAM, genome), series).aic

        plain = calibrate(MethodId.GAM, series, config, unshared)
        calls = _counting_evaluate_method(monkeypatch)
        shared = calibrate(MethodId.GAM, series, config, "aic")
        assert shared.spec == plain.spec
        assert shared.fitness == plain.fitness
        assert shared.history == plain.history
        assert shared.evaluations == plain.evaluations == len(scored)
        smoothers = {
            cal._quantize(effective_params(SmootherSpec(MethodId.GAM, g))) for g in scored
        }
        assert len(calls) == len(smoothers) < shared.evaluations

    def test_failed_evaluation_is_shared(self, series, monkeypatch):
        calls = _counting_evaluate_method(monkeypatch)
        cache = cal._FitnessCache(
            lambda g: cal.evaluate_method(SmootherSpec(MethodId.GAM, g), series),
            lambda g: cal._quantize(effective_params(SmootherSpec(MethodId.GAM, g))),
        )
        # basis_dim 40 needs 40 points: the evaluation raises SeriesTooShort
        assert cache((40.0, 1.5, 0.0, 1.0)) is None
        assert cache((40.0, -2.5, 0.0, 1.0)) is None
        assert (cache.evaluations, len(calls)) == (2, 1)


@settings(max_examples=80, deadline=None)
@given(
    method=st.sampled_from(list(MethodId)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_effective_params_smooth_identically(method, fractions, seed):
    n = 30
    bounds = search_bounds(method, n)
    raw = [b.lo + f * (b.hi - b.lo) for b, f in zip(bounds, fractions)]
    spec = SmootherSpec(method, repair_genome(method, bounds, raw))
    y = random_series(np.random.default_rng(seed), n).values()
    same = SmootherSpec(method, effective_params(spec))
    np.testing.assert_array_equal(
        apply_to_values(same, y).view(np.int64), apply_to_values(spec, y).view(np.int64)
    )


def _diagonal_from_full_matrix(method: MethodId, series: TimeSeries, objective: str):
    """Callable objective: AIC or MAE read off np.diag of the full LOOCV matrix."""
    y = series.values()
    n = len(y)

    def score(genome):
        spec = SmootherSpec(method, genome)
        resid = np.diag(build_loocv_matrix(spec, series).matrix) - y
        if objective == "mae":
            return float(np.mean(np.abs(resid)))
        sse = float(resid @ resid)
        if sse < ZERO_RESIDUAL_SSE:
            return -math.inf
        return n * math.log(sse / n) - 2.0 * spec.k

    return score


class TestDiagonalObjectives:
    """aic and mae are scored from the LOOCV diagonal, without the full matrix."""

    @pytest.fixture
    def series(self):
        return random_series(np.random.default_rng(31), 24)

    @pytest.mark.parametrize("objective", ["aic", "mae"])
    @pytest.mark.parametrize("method", PARAMETRIC_METHODS, ids=lambda m: m.value)
    def test_matches_full_matrix_objective(self, method, objective, series):
        config = small_config(population_size=10, iterations=4)
        full = _diagonal_from_full_matrix(method, series, objective)
        brute = calibrate(method, series, config, full)
        fast = calibrate(method, series, config, objective)
        assert fast.spec == brute.spec
        assert fast.fitness == brute.fitness
        assert fast.history == brute.history
        assert fast.evaluations == brute.evaluations

    @pytest.mark.parametrize("method", [MethodId.ADP, MethodId.SGF], ids=lambda m: m.value)
    def test_ga_builds_no_full_matrix(self, method, series, monkeypatch):
        built = []
        real = ev.build_loocv_matrix

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ev, "build_loocv_matrix", recording)
        calibrate(method, series, small_config(iterations=4), "aic")
        assert built
        assert all(loocv._matrix is None for loocv in built)

    def test_matrix_is_built_once(self, series, monkeypatch):
        builds = []
        row = smoothers._METHODS[MethodId.ADP]

        def counting(*args):
            diagonal, build = row.loocv(*args)

            def counted_build():
                builds.append(args)
                return build()

            return diagonal, counted_build

        monkeypatch.setitem(smoothers._METHODS, MethodId.ADP, row._replace(loocv=counting))
        loocv = build_loocv_matrix(SmootherSpec(MethodId.ADP, (7.0, 0.0, 4.0)), series)
        assert builds == []
        first = loocv.matrix
        assert loocv.matrix is first
        assert len(builds) == 1

    def test_search_skips_the_var_check(self, series, monkeypatch):
        # non-finite entries off the diagonal make VAR inf: the full index
        # raises, the diagonal objectives do not look at them
        real = ev.build_loocv_matrix

        def off_diagonal_inf(spec, s):
            loocv = real(spec, s)
            matrix = np.full((len(s), len(s)), np.inf)
            np.fill_diagonal(matrix, loocv.diagonal)
            return ev.LoocvMatrix(matrix, s)

        monkeypatch.setattr(ev, "build_loocv_matrix", off_diagonal_inf)
        spec = SmootherSpec(MethodId.SMA, (5.0,))
        config = small_config(iterations=2)
        with np.errstate(invalid="ignore"):
            with pytest.raises(EvaluationFailure, match="VAR"):
                evaluate_method(spec, series)
            with pytest.raises(EvaluationFailure, match="viable"):
                calibrate(MethodId.SMA, series, config, "combined")
        for objective in ("aic", "mae"):
            assert math.isfinite(evaluate_method(spec, series, objective=objective))
            assert math.isfinite(calibrate(MethodId.SMA, series, config, objective).fitness)


def _holey_objective(genome):
    """A fixed objective of plain float arithmetic, +inf or -inf on some genomes."""
    s = 0.0
    for i, g in enumerate(genome):
        d = g - 0.7 * (i + 2)
        s += d * d * (i + 1)
    code = int(s * 97.0) % 23
    if code < 6:
        return math.inf
    if code == 11 and int(s * 7919.0) % 13 == 0:
        return -math.inf
    return s


# generations per population size: each run makes a long stream of draws
FROZEN_ITERATIONS = {2: 200, 7: 60, 100: 8}
# (method, seed, population) -> (params, fitness, evaluations, sha256 of
# repr(history)) of calibrate on _holey_objective, recorded when the GA made
# one generator call per double
FROZEN_GA_RUNS = {
    ("spl", 0, 2): ((1.0956934985716344,), 0.09260244681157179, 20,
        "2227449b651a89971290b9d8d3db51e419174f0b47bfc428054b7c5ccaee5479"),
    ("spl", 0, 7): ((1.6673500553109282,), 0.0714760520747564, 43,
        "c7688af6769ae32c1be3eac763137ca2a65b39ca82490b93367330d1c1abae93"),
    ("spl", 0, 100): ((1.1477996577931124,), 0.06360501260927115, 189,
        "5fae4aed49dca237be01ae6acc490f61f34dbe2a71132f6aa01e2e8e674c4c46"),
    ("spl", 1, 2): ((1.1135146565270153,), 0.08207385202483396, 15,
        "25977d4603a00883ba3c7cb54cae255e1fad2de137462aa6f65f5b9e700cc7f5"),
    ("spl", 1, 7): ((0.9733635759871264,), 0.18201863829449239, 37,
        "9bcda692e861360372d8b59fe768bcdda470916ff78c8528272dbde00f65088e"),
    ("spl", 1, 100): ((1.1512252214638465,), 0.061888890435712156, 172,
        "f64bf67ca1b7af178f66373e8bfa7fe41bb7f826961c1f6ad2dcfee73dfd3c01"),
    ("spl", 20261019, 2): ((1.8822146732209522,), 0.23253099106958974, 23,
        "975ba8ed32427d0df382e8c3ba935be7ee607aa3351aec3f79401728ae1678d2"),
    ("spl", 20261019, 7): ((1.6795716594158865,), 0.07816031274855248, 33,
        "43174b9d2d53140e945ef0ce2071162843da78bbff8a48944d55c91b53aa70f9"),
    ("spl", 20261019, 100): ((2.901880730647899,), -math.inf, 169,
        "565d75942571423477770e5dc95cf1a534a8208ead8dd013e115c1c48ddef2d2"),
    ("ker", 0, 2): ((1.6806911267458575,), 0.0787875086338591, 20,
        "6809042fb3ee335642a28fcf15cdf18d1f45713b37e131cf11e5dc763911a7db"),
    ("ker", 0, 7): ((0.6570125375210264,), 0.5520303694009441, 43,
        "36603af8fd522c811e30d6729369a0d71ecfe7aa45c421b33880e5f8f41da26e"),
    ("ker", 0, 100): ((1.1280474564455854,), 0.07395818594571575, 189,
        "f46ab19c2b4d34b08c886cd99bd2fe0f8f8c4579f7f076f79ceac7e68faacd6e"),
    ("ker", 1, 2): ((1.1228499479749892,), 0.07681215133746616, 15,
        "6afef15d0c9b9bf8e072a2a85d512262a5f4fb66600f274f3d40769badb28ad8"),
    ("ker", 1, 7): ((1.1498915376463619,), 0.06255424294090117, 37,
        "565e7de55a0e18915d857549423dcf970c599d6fe4caf8044f99fdb704f14485"),
    ("ker", 1, 100): ((1.1498915376463619,), 0.06255424294090117, 172,
        "ce6801688f8fa8e7217d0ddb152ac0e2ab191d83613318757991e2aa2790baa5"),
    ("ker", 20261019, 2): ((1.0705992509657467,), 0.10850485346432706, 21,
        "a5e1792d6c83a9b1d806d016e1271d61887ca8df1fdb63a6227c7690b9ac2d47"),
    ("ker", 20261019, 7): ((1.0877245030348408,), 0.09751598600483709, 33,
        "c44ec7056f13d36a38980dc03111fa6f22d81a65f6d253ecf211d6f5ae3daadb"),
    ("ker", 20261019, 100): ((6.941352297863223,), -math.inf, 169,
        "565d75942571423477770e5dc95cf1a534a8208ead8dd013e115c1c48ddef2d2"),
    ("sma", 0, 2): ((3.0,), 2.5600000000000005, 10,
        "88705c46b7231d1055284609713e9e4a2c290cd5c3c7264e96597a7dbfaa86cc"),
    ("sma", 0, 7): ((3.0,), 2.5600000000000005, 10,
        "ffc205b027ecc4a0bd8a0b77cd208d9ca56f3e0474f00e87d5d5eb43735fbcca"),
    ("sma", 0, 100): ((3.0,), 2.5600000000000005, 10,
        "2dd03f95fdbb83ec13f92bdba13634c427e0a2058a578467d69d70ccaec606d1"),
    ("sma", 1, 2): ((3.0,), 2.5600000000000005, 8,
        "b69c5a697b5960ae005365b30126d5fa83165d4a15a55ed6a309f900385ceee1"),
    ("sma", 1, 7): ((3.0,), 2.5600000000000005, 10,
        "b2ad27b16c8a951a0195587ffb4f0cdddda7709c00c18293a186c826a9f430f7"),
    ("sma", 1, 100): ((3.0,), 2.5600000000000005, 10,
        "2dd03f95fdbb83ec13f92bdba13634c427e0a2058a578467d69d70ccaec606d1"),
    ("sma", 20261019, 2): ((3.0,), 2.5600000000000005, 9,
        "4973080fd1a086dc42387b1f9dab9dea8d05123ab5a9e536f528e1ea706eb13f"),
    ("sma", 20261019, 7): ((3.0,), 2.5600000000000005, 10,
        "4417f67ceacaefb631f4bf8431e602f0826a91ee5cf68599b599b38d511346ea"),
    ("sma", 20261019, 100): ((3.0,), 2.5600000000000005, 10,
        "2dd03f95fdbb83ec13f92bdba13634c427e0a2058a578467d69d70ccaec606d1"),
    ("rrm", 0, 2): ((3.0,), 2.5600000000000005, 10,
        "88705c46b7231d1055284609713e9e4a2c290cd5c3c7264e96597a7dbfaa86cc"),
    ("rrm", 0, 7): ((3.0,), 2.5600000000000005, 10,
        "ffc205b027ecc4a0bd8a0b77cd208d9ca56f3e0474f00e87d5d5eb43735fbcca"),
    ("rrm", 0, 100): ((3.0,), 2.5600000000000005, 10,
        "2dd03f95fdbb83ec13f92bdba13634c427e0a2058a578467d69d70ccaec606d1"),
    ("rrm", 1, 2): ((3.0,), 2.5600000000000005, 8,
        "b69c5a697b5960ae005365b30126d5fa83165d4a15a55ed6a309f900385ceee1"),
    ("rrm", 1, 7): ((3.0,), 2.5600000000000005, 10,
        "b2ad27b16c8a951a0195587ffb4f0cdddda7709c00c18293a186c826a9f430f7"),
    ("rrm", 1, 100): ((3.0,), 2.5600000000000005, 10,
        "2dd03f95fdbb83ec13f92bdba13634c427e0a2058a578467d69d70ccaec606d1"),
    ("rrm", 20261019, 2): ((3.0,), 2.5600000000000005, 9,
        "4973080fd1a086dc42387b1f9dab9dea8d05123ab5a9e536f528e1ea706eb13f"),
    ("rrm", 20261019, 7): ((3.0,), 2.5600000000000005, 10,
        "4417f67ceacaefb631f4bf8431e602f0826a91ee5cf68599b599b38d511346ea"),
    ("rrm", 20261019, 100): ((3.0,), 2.5600000000000005, 10,
        "2dd03f95fdbb83ec13f92bdba13634c427e0a2058a578467d69d70ccaec606d1"),
    ("sup", 0, 2): ((1.058889084153547,), 0.1163566569096059, 23,
        "bee03967b4fe3a167d476e5def0e8a76d6a3a74ebbb9c3b9fc556c0f84bbce2c"),
    ("sup", 0, 7): ((8.277629198311454,), -math.inf, 43,
        "3e068cdc2b721f966a53ad2e8c301504154cbdf935c51f9e7390a856718fb102"),
    ("sup", 0, 100): ((1.149326332809052,), 0.06283728742295815, 189,
        "240b981a9c2f7bd554a754fecf77b9e377b4f90312f0a22b0501b9afb40aea58"),
    ("sup", 1, 2): ((1.0244131138007828,), 0.14106550908482365, 15,
        "3dab8e398cec4e9e9887bba2a3b8c6234cc43555defae82be0755219b5054c64"),
    ("sup", 1, 7): ((1.0815954185604848,), 0.10138147748167281, 37,
        "399b8b7a313a2ec98324c8831237f2233b380275e0792e1b8d741c8aa6546105"),
    ("sup", 1, 100): ((9.699254132161325,), -math.inf, 172,
        "565d75942571423477770e5dc95cf1a534a8208ead8dd013e115c1c48ddef2d2"),
    ("sup", 20261019, 2): ((0.7524635978790251,), 0.41930339207177686, 21,
        "9dcbfce01c17bb680ee366aa3fbb7c8e89128ce3c6594450628f581e5a55015d"),
    ("sup", 20261019, 7): ((0.9537294185075551,), 0.1991574319056048, 33,
        "b8629942576cb5ef79e57a8da51a09c268f8a168a8c6e16f3991c2b9c4505f4c"),
    ("sup", 20261019, 100): ((1.146663422018096,), 0.06417942174358128, 169,
        "249bef5a85936ced790d783615155e21a971b82d437b8f251d01a0b97d2bdd98"),
    ("pol", 0, 2): ((0.9883300092039617,), 0.16947218132201014, 20,
        "86933bae465c3906c2d0316528c2fe152abf80d74b6d1cf8be871d4fcbe8a9cf"),
    ("pol", 0, 7): ((0.967790396549445,), 0.18680514131488593, 43,
        "e36630cba05dc898c282ac8640c51fc66d523ce97a3c303efba810546746e325"),
    ("pol", 0, 100): ((0.8072071306424268,), -math.inf, 189,
        "565d75942571423477770e5dc95cf1a534a8208ead8dd013e115c1c48ddef2d2"),
    ("pol", 1, 2): ((0.966578120598905,), 0.18785452554357723, 15,
        "f54e49aa00215af18818bab3be29c6653892d260d2ac75114b4085822aa1d244"),
    ("pol", 1, 7): ((0.966578120598905,), 0.18785452554357723, 37,
        "d48833aa0b6f59dadedcdb865e185b91863a366eda5a1e6f33226fc817f7166f"),
    ("pol", 1, 100): ((0.9914810792757737,), 0.16688770858968666, 172,
        "4cfaf96579e7a599d190de4bdfec992fce6210a83348b8e78d0f4e73113ed050"),
    ("pol", 20261019, 2): ((0.9841897966036718,), 0.17289812524849577, 21,
        "ecf1fd1d991d1fe109a8491a4a4eb0b3b3b2c16be260e91cb5673440f878c240"),
    ("pol", 20261019, 7): ((0.9716323692008336,), 0.18349882711649085, 33,
        "3e86a972c2b8f4a53640405b89f5ad899acac99ccf6d2779203a4121e8f41b70"),
    ("pol", 20261019, 100): ((0.48768436662206216,), -math.inf, 169,
        "565d75942571423477770e5dc95cf1a534a8208ead8dd013e115c1c48ddef2d2"),
    ("sgf", 0, 2): ((5.0, 3.0), 14.580000000000002, 14,
        "fbbdd335a75cce15c58d8cbe83b7aeff84c5f37e1eae21ada09344e81bf0d195"),
    ("sgf", 0, 7): ((5.0, 2.0), 12.98, 20,
        "a36df4eef2988c61c1b272bd27aee2e78a3db1a14f0860d685fe95da24899f5d"),
    ("sgf", 0, 100): ((5.0, 2.0), 12.98, 51,
        "71e9b79c2152071cccfe69f6a2f753b74fc7d1c7a707119bbcafe80e6a417fc1"),
    ("sgf", 1, 2): ((7.0, 2.0), 31.379999999999995, 14,
        "67588b806aa330de127e44ff95246658855bf1ca8072431b04b4b041c58bcb1b"),
    ("sgf", 1, 7): ((5.0, 2.0), 12.98, 30,
        "9d02b7fe70ffbefc0db2460443d3e07928e07998a3126979cf64aa47f25694cb"),
    ("sgf", 1, 100): ((5.0, 2.0), 12.98, 51,
        "0ac2132ef3ab06cb3ef3f82e80913c5f4929887070e32c26f8e0eaa41bc957b3"),
    ("sgf", 20261019, 2): ((5.0, 2.0), 12.98, 17,
        "669f89f666ef750d1375a67a47291d66cfdc8ac384cc37b2ca365fd0cdc3a481"),
    ("sgf", 20261019, 7): ((5.0, 2.0), 12.98, 22,
        "10f701f8fdf3fa6af15934cefb2b427771fdc1bc0712afa0558d6da4c5535562"),
    ("sgf", 20261019, 100): ((5.0, 2.0), 12.98, 50,
        "0ac2132ef3ab06cb3ef3f82e80913c5f4929887070e32c26f8e0eaa41bc957b3"),
    ("ari", 0, 2): ((1.0, 1.0), 2.5799999999999983, 7,
        "bf5f1c445c8ce31fdb924040a15d4dd23dc6d5fbb546ef1f9a911f758aa75fb2"),
    ("ari", 0, 7): ((1.0, 1.0), 2.5799999999999983, 8,
        "f086b3b86d30c28b4db0823b0d7168f96c1ad969b1eae02bd92b0d87c85bc9b7"),
    ("ari", 0, 100): ((1.0, 1.0), 2.5799999999999983, 10,
        "64e9f15528edadb8f08b326d8882b71d1455243d1dda94aec31b2b9e599fffed"),
    ("ari", 1, 2): ((1.0, 1.0), 2.5799999999999983, 8,
        "8444a9f9ca96015f6cd301fede3ed078cc811131ce2db1f43a3f4cc21e1740f1"),
    ("ari", 1, 7): ((1.0, 1.0), 2.5799999999999983, 9,
        "c80d83856b35b2c59bb40c0890b0ae0b220c545a0a7b86364756d8ba0700b49e"),
    ("ari", 1, 100): ((1.0, 1.0), 2.5799999999999983, 10,
        "64e9f15528edadb8f08b326d8882b71d1455243d1dda94aec31b2b9e599fffed"),
    ("ari", 20261019, 2): ((1.0, 1.0), 2.5799999999999983, 7,
        "baf67fa180f7b06deeefcd7df4a3fb3487aad2cbf1be44446ac9fb36a1ac32ff"),
    ("ari", 20261019, 7): ((1.0, 1.0), 2.5799999999999983, 10,
        "e548defa8a4327a28c249de6842a1d627464106aef04744c7cee9a9e4a0f19fd"),
    ("ari", 20261019, 100): ((1.0, 1.0), 2.5799999999999983, 10,
        "64e9f15528edadb8f08b326d8882b71d1455243d1dda94aec31b2b9e599fffed"),
    ("adp", 0, 2): ((5.0, 2.0, 2.0), 14.899999999999999, 19,
        "0b49168b1bdfcf99f9d7e96f39aaf7d8c4822e3bde00ed57bb674ba491e6b332"),
    ("adp", 0, 7): ((5.0, 2.0, 2.0), 14.899999999999999, 35,
        "1a0753a0282887948b7d10ec3fdecea96822f745860fae03802a3dc6395bd926"),
    ("adp", 0, 100): ((5.0, 2.0, 2.0), 14.899999999999999, 112,
        "f429a84ba08740927397fbb3422b0f0437ba4a02a4b3e0f00794a6cf93e305b4"),
    ("adp", 1, 2): ((7.0, 2.0, 3.0), 31.499999999999996, 21,
        "2d079e61b1dbd53ae566266044f404b1f2bf3b0f9b9c0684c0e6b239d184613f"),
    ("adp", 1, 7): ((7.0, 2.0, 3.0), 31.499999999999996, 33,
        "3a1037b9c219362723c2f2ab8ef60eed592a57a8fad5546c9eba079142633a8d"),
    ("adp", 1, 100): ((5.0, 2.0, 2.0), 14.899999999999999, 110,
        "f429a84ba08740927397fbb3422b0f0437ba4a02a4b3e0f00794a6cf93e305b4"),
    ("adp", 20261019, 2): ((5.0, 2.0, 2.0), 14.899999999999999, 20,
        "d6ba8f9663e7b9cfae77a81b61a072e9519f40e11be183092a52632c9d29cb5c"),
    ("adp", 20261019, 7): ((5.0, 2.0, 2.0), 14.899999999999999, 35,
        "af3fd34d7cbd4516c85ae118e0a5783a118342f5e978aa05495b2434d0be2594"),
    ("adp", 20261019, 100): ((5.0, 2.0, 2.0), 14.899999999999999, 114,
        "f429a84ba08740927397fbb3422b0f0437ba4a02a4b3e0f00794a6cf93e305b4"),
    ("gam", 0, 2): ((5.0, 2.0636080188514248, 0.0, 1.0), 61.482648752583835, 37,
        "7be1cf4e89932699ec0b34b9f030428b3b3afcc3211238673fb601b3d1a968de"),
    ("gam", 0, 7): ((4.0, 1.8973400091153652, 0.0, 1.0), -math.inf, 99,
        "f345d316f9fa4e5752dda583fc9cf75360a7fa166a8a53e9633e8821695aa2a1"),
    ("gam", 0, 100): ((34.0, -0.6071481164478971, 0.0, 1.0), -math.inf, 462,
        "565d75942571423477770e5dc95cf1a534a8208ead8dd013e115c1c48ddef2d2"),
    ("gam", 1, 2): ((5.0, 2.1455336061537897, 0.0, 1.0), 61.484146618578734, 44,
        "9834f85db165c12889f135ddb0e47f6558ecd7850c10d73219070848f32794a5"),
    ("gam", 1, 7): ((9.0, 1.1025520933837862, 0.0, 1.0), 108.26980465282612, 74,
        "bbcaba343fae1b1e2dcf9fdf3018d2c3fe3f3ed3a41c789a7c4656c87f72a933"),
    ("gam", 1, 100): ((6.0, -2.601315696819011, 0.0, 0.0), -math.inf, 440,
        "b8ef200a4d4bbab7875845c4cc747771318006dc3bb7ed4311c92e9f4ffb6119"),
    ("gam", 20261019, 2): ((9.0, 1.9072581187380724, 0.0, 1.0), 106.35429886558477, 31,
        "781c0d7ad1dedf442e6b62b2dc1c6135b9af52a5773018fa376f54497a3c2697"),
    ("gam", 20261019, 7): ((5.0, -2.0350335558765424, 0.0, 1.0), -math.inf, 81,
        "b970fbe920baff5d87410a0cbbe740e89b7b5f47e2f3baacfa07c18afb740a14"),
    ("gam", 20261019, 100): ((24.0, 0.45656496463638785, 0.0, 1.0), -math.inf, 458,
        "b1d4dd7f44dec37ec3745121bf0a8f37f781541a06577d7c785bbfa46eefd276"),
}


@pytest.mark.parametrize(
    "key", list(FROZEN_GA_RUNS), ids=lambda key: "-".join(map(str, key)))
def test_ga_run_is_frozen(key):
    method, seed, population = key
    config = GaConfig(population, FROZEN_ITERATIONS[population], seed)
    series = TimeSeries.from_values(np.arange(60.0))
    result = calibrate(MethodId(method), series, config, _holey_objective)
    params, fitness, evaluations, digest = FROZEN_GA_RUNS[key]
    assert (result.spec.params, result.fitness, result.evaluations) == (
        params, fitness, evaluations)
    assert hashlib.sha256(repr(result.history).encode()).hexdigest() == digest


def _reference_calibrate(method, series, config, objective):
    """``calibrate``'s GA loop without the full-box stop, on a callable
    objective: the same operators and draws, always every generation."""
    method = MethodId(method)
    bounds = search_bounds(method, len(series))
    rng = np.random.default_rng(config.seed)
    cache = cal._FitnessCache(objective)
    population = [
        Individual(repair_genome(method, bounds, cal._random_genome(bounds, rng)))
        for _ in range(config.population_size)
    ]

    def evaluate_population(pop):
        failures = 0
        for ind in pop:
            result = cache(ind.genome)
            if result is None:
                ind.fitness = math.inf
                failures += 1
            else:
                ind.fitness = float(result)
        if failures > cal.MAX_FAILURE_FRACTION * config.population_size:
            raise EvaluationFailure(
                f"{failures}/{len(pop)} evaluations failed for {method.value}; "
                "population is not viable"
            )

    evaluate_population(population)
    best = min(population, key=lambda ind: ind.fitness)
    best_genome, best_fitness = best.genome, best.fitness
    history = [best_fitness]
    last_improvement = 0
    elite_count = config.elite_count
    child_count = config.population_size - elite_count
    for gen in range(config.iterations):
        elite = sorted(population, key=lambda ind: ind.fitness)[:elite_count]
        wheel = RouletteWheel(population)
        children = []
        while len(children) < child_count:
            pa = wheel.pick(rng)
            pb = wheel.pick(rng)
            if rng.random() < cal.CROSSOVER_RATE:
                ga, gb = two_point_crossover(pa.genome, pb.genome, rng)
            else:
                ga, gb = pa.genome, pb.genome
            for genome in (ga, gb):
                if len(children) >= child_count:
                    break
                mutated = cal._mutate(genome, bounds, cal.MUTATION_RATE, rng)
                children.append(Individual(constrain(method, mutated)))
        evaluate_population(children)
        population = elite + children
        gen_best = min(population, key=lambda ind: ind.fitness)
        if gen_best.fitness < best_fitness:
            best_genome, best_fitness = gen_best.genome, gen_best.fitness
            last_improvement = gen + 1
        history.append(best_fitness)
        if config.patience is not None and (gen + 1) - last_improvement >= config.patience:
            break
    if not math.isfinite(best_fitness) and best_fitness > 0:
        raise EvaluationFailure(f"no viable parameter vector found for {method.value}")
    return CalibrationResult(SmootherSpec(method, best_genome), best_fitness,
                             tuple(history), cache.evaluations)


DISCRETE_METHODS = [MethodId.SMA, MethodId.RRM, MethodId.SGF, MethodId.ARI, MethodId.ADP]


def _surrogate(kind, salt):
    """A fixed objective on integer genomes with many ties.

    ``plain`` returns finite values only, ``inf`` returns +inf or -inf on
    some genomes, ``fail`` raises a SmoothbenchError on some and ``nan``
    returns NaN on some; the last two must keep the GA from stopping early.
    """
    def objective(genome):
        code = (int(sum(g * (i + 3) ** 2 for i, g in enumerate(genome))) * 2654435761
                + salt) % 29
        if kind == "inf" and code in (0, 1):
            return math.inf if code else -math.inf
        if kind == "fail" and code == 0:
            raise InvalidParams("synthetic failure")
        if kind == "nan" and code == 0:
            return math.nan
        return code * 0.37 - salt % 5

    return objective


def _outcome(run, *args):
    try:
        result = run(*args)
    except EvaluationFailure as exc:
        return ("raised", str(exc))
    # repr keeps NaN comparable and tells -0.0 from 0.0
    return repr((result.spec, result.fitness, result.history, result.evaluations))


def _wheel_counter(monkeypatch) -> list:
    """Count the generations calibrate runs: one RouletteWheel each."""
    built = []

    class CountingWheel(RouletteWheel):
        def __init__(self, population):
            built.append(len(population))
            super().__init__(population)

    monkeypatch.setattr(cal, "RouletteWheel", CountingWheel)
    return built


def _feasible_box(method, n):
    """Every valid spec in the GA's search bounds for a length-n series, by brute force."""
    ranges = [range(int(b.lo), int(b.hi) + 1) for b in search_bounds(method, n)]
    box = set()
    for raw in itertools.product(*ranges):
        try:
            spec = SmootherSpec(method, raw)
        except InvalidParams:
            continue
        if required_length(spec) <= n:
            box.add(spec.params)
    return box


class TestFullBoxStop:
    """Once the cache holds every genome of an integer box, the GA stops
    with the full run's result."""

    @settings(max_examples=150, deadline=None)
    @given(
        method=st.sampled_from(DISCRETE_METHODS),
        n=st.sampled_from([7, 12, 60]),
        seed=st.integers(0, 2**32 - 1),
        population=st.integers(2, 100),
        iterations=st.integers(0, 300),
        patience=st.none() | st.integers(1, 20),
        kind=st.sampled_from(["plain", "inf", "fail", "nan"]),
        salt=st.integers(0, 1000),
    )
    @example(method=MethodId.SGF, n=60, seed=0, population=100, iterations=250,
             patience=None, kind="inf", salt=3)
    @example(method=MethodId.SMA, n=60, seed=1, population=2, iterations=300,
             patience=7, kind="inf", salt=0)
    def test_matches_the_full_run(self, method, n, seed, population, iterations, patience,
                                  kind, salt):
        series = TimeSeries.from_values(np.arange(float(n)))
        config = GaConfig(population, iterations, seed, patience)
        objective = _surrogate(kind, salt)
        assert _outcome(calibrate, method, series, config, objective) == _outcome(
            _reference_calibrate, method, series, config, objective)

    @pytest.mark.parametrize("patience", [None, 20])
    @pytest.mark.parametrize("method", DISCRETE_METHODS[:4], ids=lambda m: m.value)
    def test_stop_fires(self, method, patience, monkeypatch):
        series = TimeSeries.from_values(np.arange(60.0))
        config = GaConfig(100, 60, 7, patience)
        objective = _surrogate("plain", 1)
        want = _reference_calibrate(method, series, config, objective)
        built = _wheel_counter(monkeypatch)
        got = calibrate(method, series, config, objective)
        assert got == want
        assert len(built) < len(want.history) - 1
        assert got.evaluations == cal._box_size(method, search_bounds(method, 60))

    @pytest.mark.parametrize("kind", ["fail", "nan"])
    def test_failure_or_nan_in_the_box_runs_every_generation(self, kind, monkeypatch):
        series = TimeSeries.from_values(np.arange(60.0))
        config = GaConfig(100, 30, 5)
        objective = _surrogate(kind, 2)
        built = _wheel_counter(monkeypatch)
        result = calibrate(MethodId.SMA, series, config, objective)
        assert result.evaluations == 10  # the whole box, from the first population
        assert len(built) == 30 and len(result.history) == 31

    def test_continuous_box_runs_every_generation(self, monkeypatch):
        built = _wheel_counter(monkeypatch)
        calibrate(MethodId.GAM, TimeSeries.from_values(np.arange(60.0)), GaConfig(4, 20, 0),
                  _holey_objective)
        assert len(built) == 20

    @pytest.mark.parametrize("method, n, size", [
        (MethodId.SGF, 60, 52), (MethodId.SMA, 7, 3), (MethodId.ARI, 7, 4),
        (MethodId.ADP, 60, 156)])
    def test_box_is_every_genome_the_ga_creates(self, method, n, size):
        seen = set()

        def record(genome):
            seen.add(genome)
            return 1.0

        bounds = search_bounds(method, n)
        assert cal._box_size(method, bounds) == size == len(_feasible_box(method, n))
        result = calibrate(method, TimeSeries.from_values(np.arange(float(n))),
                           GaConfig(50, 2000, 3), record)
        assert seen == _feasible_box(method, n)
        assert result.evaluations == size
        if method is MethodId.SMA:
            assert seen == {(3.0,), (5.0,), (7.0,)}

    @pytest.mark.parametrize("method", PARAMETRIC_METHODS, ids=lambda m: m.value)
    def test_param_grid_is_what_repair_returns(self, method):
        for b in PARAM_SPECS[method]:
            grid = b.grid()
            if not b.integer:
                assert grid is None
                continue
            assert grid == tuple(sorted({b.repair(x) for x in np.linspace(b.lo, b.hi, 2001)}))
            assert all(b.is_valid(g) for g in grid)
