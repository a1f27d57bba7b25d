"""K-medoid grouping of methods by (VAR, ERR, AIC) and optimal-method pick.

Features are z-scored before Euclidean distances are taken (the three indices
live on wildly different scales); a flag restores raw-feature behaviour.  The
thirteen-method instances are small enough (C(13, 3) = 286 medoid triples)
that the globally optimal medoid triple is found by exhaustive enumeration.

Clusters are ranked best/middle/worst by mean standardized AIC and the
optimal method is the medoid (multivariate median) of the best cluster.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import TooFewPoints
from .evaluation import PerformanceIndex
from .smoothers import MethodId

CLUSTER_LABELS = ("best", "middle", "worst")
AIC_SENTINEL_OFFSET = 10.0


@dataclass(frozen=True)
class MethodScore:
    """One method's feature vector (var, err, aic) and its standardized form."""

    method: MethodId
    features: tuple[float, float, float]
    z_features: tuple[float, float, float]


@dataclass(frozen=True)
class ClusterResult:
    assignments: dict[MethodId, str]  # method -> best | middle | worst
    medoids: tuple[MethodId, ...]
    optimal: MethodId


def finite_aic_features(indices: Sequence[PerformanceIndex]) -> np.ndarray:
    """(var, err, aic) rows with the -inf AIC sentinel pulled to a finite floor."""
    rows = np.array([pi.features() for pi in indices], dtype=float)
    aic_col = rows[:, 2]
    neg_inf = np.isneginf(aic_col)
    if neg_inf.any():
        finite = aic_col[~neg_inf]
        floor = (finite.min() - AIC_SENTINEL_OFFSET) if finite.size else 0.0
        rows[neg_inf, 2] = floor
    return rows


def standardize_scores(
    indices: Sequence[PerformanceIndex], standardize: bool = True
) -> list[MethodScore]:
    rows = finite_aic_features(indices)
    if standardize:
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        std[std == 0.0] = 1.0
        z = (rows - mean) / std
    else:
        z = rows.copy()
    return [
        MethodScore(
            method=MethodId(pi.method),
            features=tuple(raw),
            z_features=tuple(zrow),
        )
        for pi, raw, zrow in zip(indices, rows, z)
    ]


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _assign(dist: np.ndarray, medoids: Sequence[int]) -> np.ndarray:
    # nearest medoid, ties to the earliest in the list; a medoid always owns
    # itself even when another medoid sits at distance zero
    out = np.argmin(dist[:, list(medoids)], axis=1)
    for pos, m in enumerate(medoids):
        out[m] = pos
    return out


def _cost(dist: np.ndarray, medoids: Sequence[int]) -> float:
    return float(dist[:, list(medoids)].min(axis=1).sum())


def k_medoid(
    points: Sequence[Sequence[float]], k: int = 3
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Partition points around k medoids; returns (assignments, medoid indices).

    Assignments map each point to a medoid position 0..k-1.  Every medoid set
    is enumerated and the cheapest one wins, the first in index order on a
    tie, so the result is exact and deterministic.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < k:
        raise TooFewPoints(f"need at least {k} points, got {n}")
    dist = _distance_matrix(pts)
    medoids = min(combinations(range(n), k), key=lambda cand: _cost(dist, cand))
    # every medoid belongs to its own cluster: distance zero to itself
    return _assign(dist, medoids), tuple(int(m) for m in medoids)


def rank_clusters(
    assignments: np.ndarray, scores: Sequence[MethodScore]
) -> dict[int, str]:
    """Order the clusters best-to-worst by mean standardized AIC (MAE tiebreak)."""
    keys = []
    for cluster in range(max(assignments) + 1):
        members = [s for s, a in zip(scores, assignments) if a == cluster]
        mean_aic = float(np.mean([m.z_features[2] for m in members])) if members else math.inf
        mean_mae = float(np.mean([m.features[1] for m in members])) if members else math.inf
        keys.append((mean_aic, mean_mae, cluster))
    ordered = sorted(keys)
    return {cluster: CLUSTER_LABELS[rank] for rank, (_, _, cluster) in enumerate(ordered)}


def select_optimal(
    labels: Mapping[MethodId, str], scores: Sequence[MethodScore]
) -> MethodId:
    """Medoid of the best cluster: member minimizing summed distance to the rest."""
    members = [s for s in scores if labels[s.method] == "best"]
    if not members:
        raise TooFewPoints("the best cluster is empty")
    pts = np.array([m.z_features for m in members])
    dist = _distance_matrix(pts)
    return members[int(np.argmin(dist.sum(axis=1)))].method


def cluster_methods(
    indices: Sequence[PerformanceIndex], standardize: bool = True
) -> ClusterResult:
    """Full clustering stage: standardize, partition, rank, pick the optimum."""
    methods = [pi.method for pi in indices]
    if len(set(methods)) != len(methods):
        raise ValueError(f"duplicate method ids in cluster input: {methods}")
    scores = standardize_scores(indices, standardize=standardize)
    assignments, medoid_idx = k_medoid([s.z_features for s in scores], k=3)
    label_of_cluster = rank_clusters(assignments, scores)
    labels = {
        s.method: label_of_cluster[int(a)] for s, a in zip(scores, assignments)
    }
    optimal = select_optimal(labels, scores)
    return ClusterResult(
        assignments=labels,
        medoids=tuple(scores[m].method for m in medoid_idx),
        optimal=optimal,
    )
