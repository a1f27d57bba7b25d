import itertools
import math

import numpy as np
import pytest

from smoothbench.clustering import (
    cluster_methods,
    k_medoid,
    rank_clusters,
    select_optimal,
    standardize_scores,
)
from smoothbench.errors import TooFewPoints
from smoothbench.evaluation import PerformanceIndex
from smoothbench.smoothers import MethodId


def brute_force_cost(points, k=3):
    """Independent exhaustive optimum over medoid sets, plain loops."""
    n = len(points)
    best = math.inf
    for medoids in itertools.combinations(range(n), k):
        total = 0.0
        for i in range(n):
            d = min(
                math.dist(points[i], points[m]) for m in medoids
            )
            total += d
        best = min(best, total)
    return best


def achieved_cost(points, assignments, medoids):
    total = 0.0
    for i, a in enumerate(assignments):
        total += math.dist(points[i], points[medoids[a]])
    return total


def index_for(method, var, err, aic):
    return PerformanceIndex(method=method, k=0, mae=err, var=var, aic=aic)


class TestKMedoid:
    def test_three_blob_recovery(self, rng):
        centers = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        points = np.vstack([c + rng.normal(scale=1.0, size=(4, 3)) for c in centers])
        assignments, medoids = k_medoid(points, k=3)
        blocks = [set(assignments[i : i + 4]) for i in (0, 4, 8)]
        assert all(len(b) == 1 for b in blocks)
        assert {next(iter(b)) for b in blocks} == {0, 1, 2}

    def test_identical_points_degenerate(self):
        points = np.ones((6, 3))
        assignments, medoids = k_medoid(points, k=3)
        assert achieved_cost(points, assignments, medoids) == 0.0
        again, medoids2 = k_medoid(points, k=3)
        np.testing.assert_array_equal(assignments, again)
        assert medoids == medoids2

    def test_exactly_k_points(self):
        points = [[0.0], [5.0], [9.0]]
        assignments, medoids = k_medoid(points, k=3)
        assert sorted(medoids) == [0, 1, 2]
        assert achieved_cost(points, assignments, medoids) == 0.0

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            k_medoid([[1.0], [2.0]], k=3)

    def test_matches_brute_force_on_small_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 14))
            points = rng.normal(size=(n, 3))
            assignments, medoids = k_medoid(points, k=3)
            got = achieved_cost(points, assignments, medoids)
            assert got == pytest.approx(brute_force_cost(points), rel=1e-12)

    def test_medoids_are_members_assigned_to_themselves(self, rng):
        points = rng.normal(size=(10, 3))
        assignments, medoids = k_medoid(points, k=3)
        for pos, m in enumerate(medoids):
            assert assignments[m] == pos

    def test_medoid_membership_holds_for_identical_points(self):
        assignments, medoids = k_medoid(np.zeros((7, 3)), k=3)
        for pos, m in enumerate(medoids):
            assert assignments[m] == pos

    def test_permutation_invariance(self, rng):
        indices = [index_for(m.value, *rng.uniform(1, 10, 3)) for m in MethodId]
        base = cluster_methods(indices)
        perm = list(rng.permutation(len(indices)))
        shuffled = cluster_methods([indices[i] for i in perm])
        assert base.assignments == shuffled.assignments
        assert base.optimal == shuffled.optimal


class TestStandardize:
    def test_zscore_columns(self):
        indices = [
            index_for("sma", 1.0, 10.0, 100.0),
            index_for("tuk", 2.0, 20.0, 200.0),
            index_for("fft", 3.0, 30.0, 300.0),
        ]
        scores = standardize_scores(indices)
        z = np.array([s.z_features for s in scores])
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, rtol=1e-12)

    def test_neg_inf_aic_pulled_to_floor(self):
        indices = [
            index_for("sma", 1.0, 1.0, float("-inf")),
            index_for("tuk", 2.0, 2.0, 50.0),
            index_for("fft", 3.0, 3.0, 60.0),
        ]
        scores = standardize_scores(indices, standardize=False)
        aics = [s.features[2] for s in scores]
        assert aics[0] == 40.0  # min finite - 10

    def test_all_equal_column_yields_zeros(self):
        indices = [index_for(m, 5.0, 1.0 * i, 7.0) for i, m in enumerate(("sma", "tuk", "fft"))]
        scores = standardize_scores(indices)
        assert all(s.z_features[0] == 0.0 for s in scores)


class TestRankingAndOptimal:
    def test_rank_by_mean_aic(self, rng):
        indices = (
            [index_for(m.value, 1.0, 1.0, -10.0 + rng.random()) for m in list(MethodId)[:4]]
            + [index_for(m.value, 1.0, 1.0, 0.0 + rng.random()) for m in list(MethodId)[4:8]]
            + [index_for(m.value, 1.0, 1.0, 10.0 + rng.random()) for m in list(MethodId)[8:]]
        )
        result = cluster_methods(indices)
        best = [m for m, label in result.assignments.items() if label == "best"]
        assert set(best) == {m for m in list(MethodId)[:4]}

    def test_tie_broken_by_mae(self):
        assignments = np.array([0, 0, 1, 1, 2, 2])
        indices = [
            index_for("sma", 1.0, 0.2, 5.0),
            index_for("tuk", 1.0, 0.2, 5.0),
            index_for("fft", 1.0, 0.1, 5.0),
            index_for("ker", 1.0, 0.1, 5.0),
            index_for("spl", 1.0, 0.9, 50.0),
            index_for("rrm", 1.0, 0.9, 50.0),
        ]
        scores = standardize_scores(indices)
        labels = rank_clusters(assignments, scores)
        assert labels[1] == "best"  # same AIC, lower MAE
        assert labels[0] == "middle"
        assert labels[2] == "worst"

    def test_optimal_single_member(self):
        labels = {MethodId.SMA: "best", MethodId.TUK: "worst", MethodId.FFT: "worst"}
        scores = standardize_scores(
            [index_for("sma", 1, 1, 1.0), index_for("tuk", 2, 2, 9.0), index_for("fft", 3, 3, 9.5)]
        )
        assert select_optimal(labels, scores) is MethodId.SMA

    def test_optimal_collinear_middle(self):
        labels = {MethodId.SMA: "best", MethodId.TUK: "best", MethodId.FFT: "best"}
        scores = standardize_scores(
            [
                index_for("sma", 0.0, 0.0, 0.0),
                index_for("tuk", 1.0, 1.0, 1.0),
                index_for("fft", 2.0, 2.0, 2.0),
            ]
        )
        assert select_optimal(labels, scores) is MethodId.TUK

    def test_optimal_matches_enumeration(self, rng):
        methods = list(MethodId)[:5]
        indices = [index_for(m.value, *rng.uniform(0, 5, 3)) for m in methods]
        scores = standardize_scores(indices)
        labels = {m: "best" for m in methods}
        chosen = select_optimal(labels, scores)
        pts = np.array([s.z_features for s in scores])
        sums = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2).sum(axis=1)
        assert chosen == methods[int(np.argmin(sums))]

    def test_dominating_method_lands_in_best_cluster(self, rng):
        dominator, rest = list(MethodId)[0], list(MethodId)[1:]
        indices = [index_for(dominator.value, 0.01, 0.01, -100.0)]
        for m in rest:
            indices.append(index_for(m.value, *rng.uniform(5, 10, 2), rng.uniform(50, 99)))
        result = cluster_methods(indices)
        assert result.assignments[dominator] == "best"

    def test_duplicate_methods_rejected(self):
        indices = [index_for("sma", 1, 1, 1.0), index_for("sma", 2, 2, 2.0),
                   index_for("tuk", 3, 3, 3.0)]
        with pytest.raises(ValueError):
            cluster_methods(indices)
