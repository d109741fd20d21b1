"""Local clustering and local-model determination (Sections 4 and 5).

Each site clusters its objects with DBSCAN and condenses every local cluster
into few representatives.  Both schemes of the paper are implemented:

* ``REP_Scor`` (§5.1) — a *complete set of specific core points* per cluster
  (Definition 6), each with its *specific ε-range* (Definition 7),
* ``REP_kMeans`` (§5.2) — k-means centroids seeded by the specific core
  points, each with the max distance of its assigned objects as ε-range.

The specific core points are collected **on the fly during the DBSCAN run**
through the observer hook, exactly as the paper describes ("all information
which is comprised within the local model ... is computed on-the-fly during
the DBSCAN run"): a core point enters ``Scor`` iff, at the moment it is
identified, it is not within ``Eps`` of an already-selected specific core
point of its cluster.  This greedy rule satisfies all three conditions of
Definition 6 and makes the selection a function of the processing order,
which the paper points out explicitly.

The collector never measures a distance: when it selects a point it marks
that point's ``Eps``-neighbourhood (the row DBSCAN hands it) as covered,
and a later core point is selected iff it is not covered.  That is the
distance test, because the neighbour relation is bitwise symmetric (every
metric kernel computes ``|p - q|`` and ``|q - p|`` from the same rounded
coordinate differences), and because a core point within ``Eps`` of a
selected core point belongs to that point's cluster.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.clustering.dbscan import DBSCAN, DBSCANResult
from repro.clustering.kmeans import lloyd_iterations
from repro.core.models import LocalModel
from repro.data.distance import Metric, get_metric
from repro.index import NeighborIndex
from repro.obs import NULL_METRICS, NULL_TRACER

__all__ = [
    "SpecificCorePointCollector",
    "specific_eps_ranges",
    "verify_specific_core_set",
    "build_rep_scor_model",
    "build_rep_kmeans_model",
    "build_local_model",
    "LocalClusteringOutcome",
    "LOCAL_MODEL_SCHEMES",
]

LOCAL_MODEL_SCHEMES = ("rep_scor", "rep_kmeans")


class SpecificCorePointCollector:
    """DBSCAN observer that greedily picks specific core points (Def. 6).

    Args:
        n_points: the number of objects the DBSCAN run clusters.  The
            coverage test reads the run's neighbour rows, so it needs
            neither the points nor the metric.
    """

    def __init__(self, n_points: int) -> None:
        self._covered = np.zeros(n_points, dtype=bool)
        self._scor: dict[int, list[int]] = defaultdict(list)

    def on_cluster_start(self, cluster_id: int, seed_index: int) -> None:
        """No-op; selection happens per core point."""

    def on_core_point(
        self, index: int, cluster_id: int, neighbors: np.ndarray
    ) -> None:
        """Admit ``index`` into ``Scor`` iff no chosen point covers it."""
        if self._covered[index]:
            return
        self._scor[cluster_id].append(index)
        self._covered[neighbors] = True

    def specific_core_points(self) -> dict[int, np.ndarray]:
        """Mapping ``local cluster id -> Scor index array`` (selection order)."""
        return {
            cid: np.asarray(idx, dtype=np.intp) for cid, idx in self._scor.items()
        }


def specific_eps_ranges(
    point_indices: np.ndarray, result: DBSCANResult
) -> np.ndarray:
    """Specific ε-ranges of many core points (Definition 7), batched.

    ``ε_s = Eps + max{dist(s, s_i) | s_i ∈ Cor ∧ s_i ∈ N_Eps(s)}`` — the
    maximum runs over *core* points inside ``s``'s ``Eps``-neighborhood, so
    ``s`` also covers the neighborhoods of the core points it suppressed.
    With no other core point nearby the range degenerates to ``Eps``.  All
    neighbourhoods come from one batched index call; only the distances
    to the other core points in them are computed, with ``Metric.paired``,
    bitwise ``metric.to_many``.

    Args:
        point_indices: indices of the specific core points.
        result: the finished DBSCAN run (provides core flags and the index).

    Returns:
        The ε_s values, aligned with ``point_indices``.
    """
    point_indices = np.asarray(point_indices, dtype=np.intp)
    if point_indices.size == 0:
        return np.empty(0, dtype=float)
    index = result.index
    neighbors, offsets = index.region_query_batch(point_indices, result.eps)
    owner = np.repeat(point_indices, np.diff(offsets))
    others = np.flatnonzero(result.core_mask[neighbors] & (neighbors != owner))
    reach = np.full(neighbors.size, -np.inf)
    reach[others] = index.metric.paired(
        index.points[owner[others]], index.points[neighbors[others]]
    )
    # Every row holds its own point, so no row is empty for reduceat.
    farthest = np.maximum.reduceat(reach, offsets[:-1])
    return np.where(np.isneginf(farthest), result.eps, result.eps + farthest)


def verify_specific_core_set(
    points: np.ndarray,
    result: DBSCANResult,
    cluster_id: int,
    scor: np.ndarray,
    *,
    metric: str | Metric = "euclidean",
) -> bool:
    """Check the three conditions of Definition 6 for one cluster.

    Used by the test suite (and available to users as an invariant check):

    1. ``Scor_C ⊆ Cor_C`` — every chosen point is a core point of ``C``;
    2. chosen points are pairwise farther than ``Eps`` apart;
    3. every core point of ``C`` lies within ``Eps`` of a chosen point.

    Returns:
        ``True`` iff all conditions hold.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    scor = np.asarray(scor, dtype=np.intp)
    cores = set(map(int, result.core_points_of(cluster_id)))
    if not set(map(int, scor)) <= cores:
        return False
    for i, s in enumerate(scor):
        others = scor[i + 1 :]
        if others.size:
            distances = resolved.to_many(points[s], points[others])
            if bool((distances <= result.eps).any()):
                return False
    if cores:
        core_idx = np.asarray(sorted(cores), dtype=np.intp)
        covered = np.zeros(core_idx.size, dtype=bool)
        for s in scor:
            covered |= resolved.to_many(points[s], points[core_idx]) <= result.eps
        if not covered.all():
            return False
    return True


@dataclass
class LocalClusteringOutcome:
    """A site's local clustering plus the model derived from it.

    Attributes:
        model: the transmitted :class:`~repro.core.models.LocalModel`.
        clustering: the full local DBSCAN result (stays on the site).
        specific_core_points: per local cluster, the chosen ``Scor`` indices.
    """

    model: LocalModel
    clustering: DBSCANResult
    specific_core_points: dict[int, np.ndarray] = field(default_factory=dict)


def _run_local_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    metric: Metric,
    index: NeighborIndex | None,
    tracer,
    metrics,
) -> tuple[DBSCANResult, dict[int, np.ndarray]]:
    collector = SpecificCorePointCollector(points.shape[0])
    runner = DBSCAN(eps, min_pts, metric=metric)
    query_s0 = metrics.value("index.query_seconds")
    start = time.perf_counter()
    result = runner.fit(points, observer=collector, index=index, metrics=metrics)
    end = time.perf_counter()
    if tracer.enabled:
        span = tracer.record(
            "dbscan",
            wall_start=start,
            wall_end=end,
            attrs={
                "n_points": int(points.shape[0]),
                "n_region_queries": result.n_region_queries,
                "n_clusters": result.n_clusters,
            },
        )
        if metrics.enabled:
            # A synthetic child summarizing the time spent inside the
            # index: anchored at the dbscan start, its duration is the
            # accumulated per-query seconds measured during this fit
            # (clamped so it can never outgrow its parent).
            query_seconds = metrics.value("index.query_seconds") - query_s0
            tracer.record(
                "region_queries",
                wall_start=start,
                wall_end=min(end, start + query_seconds),
                attrs={"n_queries": result.n_region_queries},
                parent=span,
            )
    return result, collector.specific_core_points()


def _record_derive_span(tracer, start: float, scheme: str, n: int) -> None:
    """Close a ``derive_model`` span opened at ``start``."""
    tracer.record(
        "derive_model",
        wall_start=start,
        wall_end=time.perf_counter(),
        attrs={"scheme": scheme, "n_representatives": n},
    )


def build_rep_scor_model(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    site_id: int = 0,
    metric: str | Metric = "euclidean",
    index: NeighborIndex | None = None,
    tracer=None,
    metrics=None,
) -> LocalClusteringOutcome:
    """Cluster a site's data and build its ``REP_Scor`` local model (§5.1).

    Args:
        points: the site's objects, shape ``(n, d)``.
        eps: local DBSCAN ``Eps``.
        min_pts: local DBSCAN ``MinPts``.
        site_id: identifier stamped on the representatives.
        metric: distance metric.
        index: optional pre-built index over ``points``.
        tracer: optional :class:`~repro.obs.Tracer`; records ``dbscan``
            (with a ``region_queries`` child) and ``derive_model`` spans.
        metrics: optional :class:`~repro.obs.MetricsRegistry`.

    Returns:
        A :class:`LocalClusteringOutcome` whose model holds, per local
        cluster, the specific core points with their specific ε-ranges.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    metrics = NULL_METRICS if metrics is None else metrics
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    result, scor_map = _run_local_dbscan(
        points, eps, min_pts, resolved, index, tracer, metrics
    )
    derive_start = time.perf_counter()
    cluster_ids = sorted(scor_map)
    chosen = (
        np.concatenate([scor_map[cid] for cid in cluster_ids])
        if cluster_ids
        else np.empty(0, dtype=np.intp)
    )
    owners = np.repeat(
        np.asarray(cluster_ids, dtype=np.intp),
        [scor_map[cid].size for cid in cluster_ids],
    )
    _record_derive_span(tracer, derive_start, "rep_scor", chosen.size)
    model = LocalModel(
        site_id=site_id,
        points=points[chosen],
        eps_ranges=specific_eps_ranges(chosen, result),
        local_cluster_ids=owners,
        n_objects=points.shape[0],
        scheme="rep_scor",
        eps_local=float(eps),
        min_pts_local=int(min_pts),
    )
    return LocalClusteringOutcome(model, result, scor_map)


def build_rep_kmeans_model(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    site_id: int = 0,
    metric: str | Metric = "euclidean",
    index: NeighborIndex | None = None,
    max_iter: int = 100,
    tracer=None,
    metrics=None,
) -> LocalClusteringOutcome:
    """Cluster a site's data and build its ``REP_kMeans`` local model (§5.2).

    Per local DBSCAN cluster ``C``: run k-means over ``C``'s members with
    ``k = |Scor_C|`` seeded by the specific core points; every centroid
    becomes a representative whose ε-range is the maximum distance of its
    assigned objects ``ε_c = max{dist(o, c) | o ∈ O_c}``.

    Args: as :func:`build_rep_scor_model`, plus ``max_iter`` for Lloyd.

    Returns:
        A :class:`LocalClusteringOutcome`.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    metrics = NULL_METRICS if metrics is None else metrics
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    result, scor_map = _run_local_dbscan(
        points, eps, min_pts, resolved, index, tracer, metrics
    )
    derive_start = time.perf_counter()
    centroids, radii, owners = [], [], []
    for cid in sorted(scor_map):
        members = result.members(cid)
        seeds = points[scor_map[cid]]
        km = lloyd_iterations(
            points[members], seeds, metric=resolved, max_iter=max_iter
        )
        for j in range(km.k):
            # A degenerate cell (empty, or every member exactly on the
            # centroid) has radius 0, which a model rejects; the smallest
            # positive float keeps the old "covers only exact
            # coincidences" semantics while satisfying ε_r > 0.
            radii.append(
                max(km.radius_of(j, points[members]), np.finfo(float).tiny)
            )
        centroids.append(km.centroids)
        owners += [cid] * km.k
    _record_derive_span(tracer, derive_start, "rep_kmeans", len(radii))
    model = LocalModel(
        site_id=site_id,
        points=(
            np.concatenate(centroids) if centroids else np.empty((0, 0))
        ),
        eps_ranges=radii,
        local_cluster_ids=owners,
        n_objects=points.shape[0],
        scheme="rep_kmeans",
        eps_local=float(eps),
        min_pts_local=int(min_pts),
    )
    return LocalClusteringOutcome(model, result, scor_map)


def build_local_model(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    scheme: str = "rep_scor",
    site_id: int = 0,
    metric: str | Metric = "euclidean",
    index: NeighborIndex | None = None,
    tracer=None,
    metrics=None,
) -> LocalClusteringOutcome:
    """Dispatch to the configured local-model scheme.

    Args:
        points: the site's objects.
        eps: local ``Eps``.
        min_pts: local ``MinPts``.
        scheme: ``"rep_scor"`` or ``"rep_kmeans"``.
        site_id: identifier stamped on representatives.
        metric: distance metric.
        index: optional pre-built index.
        tracer: optional :class:`~repro.obs.Tracer`.
        metrics: optional :class:`~repro.obs.MetricsRegistry`.

    Returns:
        A :class:`LocalClusteringOutcome`.

    Raises:
        ValueError: for unknown schemes.
    """
    if scheme == "rep_scor":
        return build_rep_scor_model(
            points,
            eps,
            min_pts,
            site_id=site_id,
            metric=metric,
            index=index,
            tracer=tracer,
            metrics=metrics,
        )
    if scheme == "rep_kmeans":
        return build_rep_kmeans_model(
            points,
            eps,
            min_pts,
            site_id=site_id,
            metric=metric,
            index=index,
            tracer=tracer,
            metrics=metrics,
        )
    raise ValueError(
        f"unknown local model scheme {scheme!r}; known: {LOCAL_MODEL_SCHEMES}"
    )
