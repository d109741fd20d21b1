"""The classic DBSCAN loop and the distance-based Scor collector, as oracles.

``classic_dbscan`` is Ester et al.'s one-region-query-per-seed loop with a
FIFO seed queue.  Its neighbourhoods are a full ``Metric.to_many`` scan of
the point set (the definition of ``N_Eps``), so it shares no code with the
indexes under test.  ``DistanceCollector`` and ``distance_eps_range`` are
the greedy specific-core-point selection (Definition 6) and the specific
ε-range (Definition 7) measured with explicit distances.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from repro.clustering.labels import NOISE, UNCLASSIFIED
from repro.data.distance import get_metric


@dataclass
class OracleResult:
    labels: np.ndarray
    core_mask: np.ndarray
    n_region_queries: int


class RecordingObserver:
    """Captures the full event stream, including neighbor array contents."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_cluster_start(self, cluster_id: int, seed_index: int) -> None:
        self.events.append(("start", cluster_id, seed_index))

    def on_core_point(self, index, cluster_id, neighbors) -> None:
        self.events.append(("core", index, cluster_id, tuple(neighbors.tolist())))


def classic_dbscan(
    points,
    eps,
    min_pts,
    *,
    metric="euclidean",
    order=None,
    observer=None,
) -> OracleResult:
    """The classic loop: one region query per start object or popped seed."""
    points = np.asarray(points, dtype=float)
    resolved = get_metric(metric)
    n = points.shape[0]

    def region_query(i):
        return np.flatnonzero(resolved.to_many(points[i], points) <= eps)

    labels = np.full(n, UNCLASSIFIED, dtype=np.intp)
    core_mask = np.zeros(n, dtype=bool)
    queries = 0
    next_cluster = 0

    def absorb(neighbors, cluster_id, seeds):
        for j in neighbors:
            if labels[j] == UNCLASSIFIED:
                labels[j] = cluster_id
                seeds.append(int(j))
            elif labels[j] == NOISE:
                labels[j] = cluster_id

    for start in range(n) if order is None else order:
        start = int(start)
        if labels[start] != UNCLASSIFIED:
            continue
        neighbors = region_query(start)
        queries += 1
        if neighbors.size < min_pts:
            labels[start] = NOISE
            continue
        cluster_id = next_cluster
        next_cluster += 1
        if observer is not None:
            observer.on_cluster_start(cluster_id, start)
        labels[start] = cluster_id
        core_mask[start] = True
        if observer is not None:
            observer.on_core_point(start, cluster_id, neighbors)
        seeds: deque[int] = deque()
        absorb(neighbors, cluster_id, seeds)
        while seeds:
            current = seeds.popleft()
            current_neighbors = region_query(current)
            queries += 1
            if current_neighbors.size < min_pts:
                continue
            core_mask[current] = True
            if observer is not None:
                observer.on_core_point(current, cluster_id, current_neighbors)
            absorb(current_neighbors, cluster_id, seeds)
    return OracleResult(labels, core_mask, queries)


class DistanceCollector:
    """Specific core points chosen by measuring distances to every point
    already chosen in the cluster (Definition 6, greedy)."""

    def __init__(self, points, eps, metric="euclidean") -> None:
        self._points = np.asarray(points, dtype=float)
        self._eps = float(eps)
        self._metric = get_metric(metric)
        self.scor: dict[int, list[int]] = defaultdict(list)

    def on_cluster_start(self, cluster_id, seed_index) -> None:
        pass

    def on_core_point(self, index, cluster_id, neighbors) -> None:
        chosen = self.scor[cluster_id]
        if chosen:
            distances = self._metric.to_many(
                self._points[index], self._points[chosen]
            )
            if bool((distances <= self._eps).any()):
                return
        chosen.append(int(index))


def distance_eps_range(points, s, eps, core_mask, metric="euclidean") -> float:
    """Definition 7 by a full distance scan from ``s``."""
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    distances = resolved.to_many(points[s], points)
    near = np.flatnonzero((distances <= eps) & core_mask)
    near = near[near != s]
    if near.size == 0:
        return float(eps)
    return float(eps + resolved.to_many(points[s], points[near]).max())
