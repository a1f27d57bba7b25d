import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothbench.calibration as cal
import smoothbench.evaluation as ev
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
from smoothbench.evaluation import ZERO_RESIDUAL_SSE, build_loocv_matrix, evaluate_method
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

    def test_overflowing_total_falls_back_to_uniform(self):
        pop = [Individual((float(i),), fitness=f) for i, f in enumerate((-1e308, 0.0, 1e308))]
        wheel = RouletteWheel(pop)
        assert wheel.total == math.inf and wheel.cumulative is None
        gen = np.random.default_rng(5)
        assert {pop.index(wheel.pick(gen)) for _ in range(100)} == {0, 1, 2}

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
        real = ev._deletion_smooths

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(ev, "_deletion_smooths", counting)
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
