"""Genetic-algorithm parameter search for the parametric smoothers.

Minimizes a LOOCV-based objective (AIC by default, MAE or an equal-weight
z-scored combination selectable) over each method's parameter box.  The
operators follow the classic configuration: roulette-wheel selection under a
minimization transform, two-point crossover, per-gene uniform resampling
mutation and a small copied-unchanged elite.  Integer genes are rounded and
odd-window genes snapped to the nearest odd value whenever a genome is
created, so every evaluated genome is feasible.

All randomness flows from one seeded generator; for a fixed (method, series,
config, objective) the full trace is reproducible.

A box of integer genes holds finitely many genomes.  Once the fitness cache
has scored all of them, none failed and none scored NaN, no later generation
can beat the best genome strictly or add an evaluation, so the GA stops and
repeats the best fitness in ``history`` for each generation it would still
have run: the result is exactly that of the full run.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EvaluationFailure,
    InputError,
    NonParametricMethod,
    SeriesTooShort,
    SmoothbenchError,
)
from .clustering import column_std
from .evaluation import LoocvEvaluator, PerformanceIndex, evaluate_method
from .smoothers import (
    PARAM_SPECS,
    MethodId,
    ParamSpec,
    SmootherSpec,
    constrain,
    effective_params,
    required_length,
)
from .timeseries import TimeSeries

OBJECTIVES = ("aic", "mae", "combined")
MAX_FAILURE_FRACTION = 0.1
# the paper's full-fidelity GA budget as (population size, generations)
PAPER_BUDGET = (100, 1000)
# the operator rates of the classic configuration, fixed for every run
MUTATION_RATE = 0.1
CROSSOVER_RATE = 0.8
ELITISM_FRACTION = 0.05


@dataclass(frozen=True)
class GaConfig:
    """GA budget, seed and stopping rule; the defaults are the reduced desk budget."""

    population_size: int = 30
    iterations: int = 100
    seed: int = 42
    patience: int | None = None

    def __post_init__(self):
        if self.population_size < 2:
            raise InputError(f"population_size must be at least 2, got {self.population_size}")
        if self.iterations < 0:
            raise InputError(f"iterations must be nonnegative, got {self.iterations}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        if self.patience is not None and self.patience < 1:
            raise InputError(f"patience must be at least 1, got {self.patience}")

    @property
    def elite_count(self) -> int:
        """Individuals copied unchanged into the next generation, at least one."""
        return max(1, int(round(ELITISM_FRACTION * self.population_size)))


@dataclass
class Individual:
    genome: tuple[float, ...]
    fitness: float = math.inf  # inf marks a failed evaluation


@dataclass(frozen=True)
class CalibrationResult:
    """Best spec found plus the per-generation best-fitness trace."""

    spec: SmootherSpec
    fitness: float
    history: tuple[float, ...]
    evaluations: int


def search_bounds(method: MethodId, n: int) -> tuple[ParamSpec, ...]:
    """Catalog bounds shrunk so every candidate is applicable to length n.

    Taking the integer genes in catalog order, each upper bound drops one grid
    step at a time, not below its lower bound, until the box's constrained
    upper corner meets ``required_length``.  That length never falls as an
    integer gene grows, so every genome of the box then fits; a series too
    short for even the lowered corner raises SeriesTooShort.
    """
    method = MethodId(method)
    bounds = list(PARAM_SPECS[method])

    def corner_need() -> int:
        corner = constrain(method, [b.hi for b in bounds])
        return required_length(SmootherSpec(method, corner))

    for i, b in enumerate(bounds):
        while b.integer and b.hi > b.lo and corner_need() > n:
            b = bounds[i] = replace(b, hi=b.hi - (2 if b.odd else 1))
    need = corner_need()
    if need > n:
        raise SeriesTooShort(f"{method.value} needs at least {need} points, got {n}")
    return tuple(bounds)


def _box_size(method: MethodId, bounds: Sequence[ParamSpec]) -> int | None:
    """Distinct genomes the GA can create in ``bounds``; None if a gene is continuous."""
    grids = [b.grid() for b in bounds]
    if None in grids:
        return None
    return len({_quantize(constrain(method, list(g))) for g in itertools.product(*grids)})


def repair_genome(
    method: MethodId, bounds: Sequence[ParamSpec], raw: Sequence[float]
) -> tuple[float, ...]:
    """Per-gene clamp/round/parity snap plus the catalog's cross-parameter rule."""
    return constrain(method, [b.repair(x) for b, x in zip(bounds, raw)])


class RouletteWheel:
    """Selection weights of one population, built once and drawn from many times.

    Each individual's weight is (worst finite - fitness + eps); infinite
    fitness weighs nothing, and a population without a positive, finite total
    weight is drawn from uniformly.
    """

    def __init__(self, population: Sequence[Individual]):
        self.population = population
        self.cumulative: "list[float] | None" = None
        self.total = 0.0
        fitnesses = np.array([ind.fitness for ind in population])
        finite = fitnesses[np.isfinite(fitnesses)]
        if not finite.size:
            return
        max_f = float(finite.max())
        min_f = float(finite.min())
        eps = 1e-12 * (1.0 + abs(max_f) + abs(min_f))
        clamped = np.where(fitnesses == -math.inf, min_f - 1.0, fitnesses)
        # a weight past the largest double is inf, as it was in scalar
        # arithmetic; inf - inf arises only in the weightless +inf slots
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.where(fitnesses == math.inf, 0.0, (max_f - clamped) + eps)
            self.total = float(weights.sum())
        if 0.0 < self.total < math.inf:
            self.cumulative = np.cumsum(weights).tolist()

    def pick(self, rng: np.random.Generator) -> Individual:
        if self.cumulative is None:
            return self.population[int(rng.integers(len(self.population)))]
        # the same double as rng.uniform(0.0, total), from the same single draw
        pick = rng.random() * self.total
        idx = bisect.bisect_right(self.cumulative, pick)
        return self.population[min(idx, len(self.population) - 1)]


def two_point_crossover(
    a: Sequence[float], b: Sequence[float], rng: np.random.Generator
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Exchange the segment between two uniform cut points.

    Genomes shorter than 3 degrade to a one-point exchange (length 2) or a
    random swap (length 1).
    """
    length = len(a)
    if length != len(b):
        raise ValueError("genomes must have equal length")
    if length == 1:
        if rng.random() < 0.5:
            child_a, child_b = tuple(b), tuple(a)
        else:
            child_a, child_b = tuple(a), tuple(b)
    elif length == 2:
        child_a = (a[0], b[1])
        child_b = (b[0], a[1])
    else:
        c1, c2 = sorted(rng.choice(np.arange(1, length), size=2, replace=False))
        child_a = tuple(a[:c1]) + tuple(b[c1:c2]) + tuple(a[c2:])
        child_b = tuple(b[:c1]) + tuple(a[c1:c2]) + tuple(b[c2:])
    return child_a, child_b


def _random_genome(bounds: Sequence[ParamSpec], rng: np.random.Generator) -> list[float]:
    return [rng.uniform(b.lo, b.hi) for b in bounds]


def _mutate(
    genome: Sequence[float],
    bounds: Sequence[ParamSpec],
    rate: float,
    rng: np.random.Generator,
) -> list[float]:
    """Redraw each gene with probability ``rate``, and repair the redrawn ones.

    The other genes come from repaired parents, and ``ParamSpec.repair``
    leaves a repaired gene as it is, so only the catalog's cross-parameter
    rule (:func:`constrain`) remains to be applied.
    """
    out = list(genome)
    for i, b in enumerate(bounds):
        if rng.random() < rate:
            out[i] = b.repair(rng.uniform(b.lo, b.hi))
    return out


def _quantize(genome: Sequence[float]) -> tuple[float, ...]:
    return tuple(float(f"{g:.6g}") for g in genome)


class _FitnessCache:
    """Evaluate-once cache over quantized genomes.

    Each key holds its genome's evaluation result, or None when the
    evaluation raised a SmoothbenchError; ``evaluations`` counts the misses.
    A genome is stored under itself as well as under its quantized key, so a
    genome seen before is found without quantizing it again.  A miss first
    looks up ``shared_key(genome)``: genomes with the same shared key define
    the same smoother, so they share one evaluation.
    """

    def __init__(
        self,
        evaluate: Callable[[tuple[float, ...]], object],
        shared_key: Callable[[tuple[float, ...]], tuple] = _quantize,
    ):
        self._evaluate = evaluate
        self._shared_key = shared_key
        self._store: dict[tuple[float, ...], object] = {}
        self._shared: dict[tuple, object] = {}
        self.evaluations = 0

    def __call__(self, genome: tuple[float, ...]):
        try:
            return self._store[genome]
        except KeyError:
            pass
        key = _quantize(genome)
        if key in self._store:
            result = self._store[key]
        else:
            self.evaluations += 1
            shared = self._shared_key(genome)
            try:
                result = self._shared[shared]
            except KeyError:
                try:
                    result = self._evaluate(genome)
                except SmoothbenchError:
                    result = None
                self._shared[shared] = result
            self._store[key] = result
        self._store[genome] = result
        return result


def calibrate(
    method: MethodId,
    series: "TimeSeries | LoocvEvaluator",
    config: GaConfig | None = None,
    objective: "str | Callable[[tuple[float, ...]], float]" = "aic",
) -> CalibrationResult:
    """Run the GA and return the best-ever genome as a SmootherSpec.

    ``objective`` is one of {"aic", "mae", "combined"} (computed from the
    LOOCV evaluation) or a callable mapping a repaired parameter tuple to a
    fitness value, lower is better (used for surrogate tests).  Every LOOCV
    evaluation goes through one evaluator of ``method`` on ``series``:
    ``series`` itself if it is one, else a new one.
    """
    method = MethodId(method)
    config = config or GaConfig()
    if not PARAM_SPECS[method]:
        raise NonParametricMethod(f"{method.value} has no parameters to calibrate")
    bounds = search_bounds(method, len(series))
    box = _box_size(method, bounds)
    rng = np.random.default_rng(config.seed)

    if callable(objective):
        # a callable may read every gene, so genomes share nothing
        cache = _FitnessCache(objective)
    elif objective not in OBJECTIVES:
        raise InputError(f"objective must be one of {OBJECTIVES} or callable")
    else:
        # aic and mae read only the LOOCV diagonal, so the cache holds just
        # that number; combined z-scores all three indices
        read = None if objective == "combined" else objective
        evaluator = LoocvEvaluator.of(method, series)

        def evaluate(genome: tuple[float, ...]) -> "PerformanceIndex | float":
            return evaluate_method(SmootherSpec(method, genome), evaluator, objective=read)

        def smoother_key(genome: tuple[float, ...]) -> tuple[float, ...]:
            return _quantize(effective_params(SmootherSpec(method, genome)))

        cache = _FitnessCache(evaluate, smoother_key)

    population = [
        Individual(repair_genome(method, bounds, _random_genome(bounds, rng)))
        for _ in range(config.population_size)
    ]

    if objective == "combined":
        fitness_of = _combined_fitness(method, [cache(ind.genome) for ind in population])
    else:
        fitness_of = float

    def evaluate_population(pop: list[Individual]) -> None:
        failures = 0
        for ind in pop:
            result = cache(ind.genome)
            if result is None:
                ind.fitness = math.inf
                failures += 1
            else:
                ind.fitness = fitness_of(result)
        if failures > MAX_FAILURE_FRACTION * config.population_size:
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
        # cache.evaluations counts the distinct genomes scored, so it reaches
        # box exactly when the cache holds the whole box
        if cache.evaluations == box:
            results = cache._shared.values()
            if all(r is not None and not math.isnan(fitness_of(r)) for r in results):
                end = config.iterations
                if config.patience is not None:
                    end = min(end, last_improvement + config.patience)
                history.extend([best_fitness] * (end - gen))
                break
            box = None  # a failure or a NaN could still change the run: keep going
        elite = sorted(population, key=lambda ind: ind.fitness)[:elite_count]
        wheel = RouletteWheel(population)
        children: list[Individual] = []
        while len(children) < child_count:
            pa = wheel.pick(rng)
            pb = wheel.pick(rng)
            if rng.random() < CROSSOVER_RATE:
                ga, gb = two_point_crossover(pa.genome, pb.genome, rng)
            else:
                ga, gb = pa.genome, pb.genome
            for genome in (ga, gb):
                if len(children) >= child_count:
                    break
                mutated = _mutate(genome, bounds, MUTATION_RATE, rng)
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
    return CalibrationResult(
        spec=SmootherSpec(method, best_genome),
        fitness=best_fitness,
        history=tuple(history),
        evaluations=cache.evaluations,
    )


def _combined_fitness(
    method: MethodId, baseline: Sequence["PerformanceIndex | None"]
) -> Callable[[PerformanceIndex], float]:
    """Mean z-score of (MAE, VAR, AIC) against the initial population.

    The baseline is frozen once, so the scalarization stays a fixed function
    for the rest of the run; failed evaluations (None) are left out of it.
    """
    triples = [(pi.mae, pi.var, _clamp_aic(pi.aic)) for pi in baseline if pi is not None]
    if not triples:
        raise EvaluationFailure(f"no viable individual to baseline {method.value}")
    arr = np.asarray(triples)
    # column_std of an (N, 1) column is the 1-D std, bit for bit, unless it overflows
    z_stats = [(float(c.mean()), float(column_std(c[:, None])[0]) or 1.0) for c in arr.T]

    def fitness(pi: PerformanceIndex) -> float:
        feats = (pi.mae, pi.var, _clamp_aic(pi.aic))
        return sum((f - mu) / sd for f, (mu, sd) in zip(feats, z_stats)) / 3.0

    return fitness


def _clamp_aic(aic: float) -> float:
    # the -inf zero-residual sentinel must not poison z-scores
    return -1e12 if aic == -math.inf else aic
