"""OPTICS (Ankerst et al., SIGMOD'99) — hierarchical density ordering.

Section 6 of the DBDC paper discusses OPTICS as an alternative way to build
the *global* model: cluster the representatives once, then let the user cut
the reachability plot at any ``Eps_global`` without re-running the
clustering.  The paper refrains from it for its mainline (relabeling and
quantitative evaluation get harder) but we implement it as the documented
extension: :func:`optics` produces the ordering, and
:func:`extract_dbscan_clustering` cuts it at an arbitrary ``eps' <= eps``,
yielding a clustering nearly identical to a DBSCAN run at ``eps'``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.clustering.labels import NOISE
from repro.data.distance import Metric, get_metric
from repro.index import NeighborIndex, build_index

__all__ = ["OPTICSResult", "optics", "extract_dbscan_clustering"]

UNDEFINED = np.inf


@dataclass
class OPTICSResult:
    """Outcome of an OPTICS run.

    Attributes:
        ordering: object indices in OPTICS visit order.
        reachability: reachability distance per object (aligned with object
            index, not with ordering); ``inf`` where undefined.
        core_distance: core distance per object; ``inf`` for non-core.
        eps: generating radius.
        min_pts: density threshold.
    """

    ordering: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray
    eps: float
    min_pts: int

    def reachability_plot(self) -> np.ndarray:
        """Reachability values in visit order (the classic OPTICS plot)."""
        return self.reachability[self.ordering]


def optics(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    metric: str | Metric = "euclidean",
    index: NeighborIndex | None = None,
) -> OPTICSResult:
    """Compute the OPTICS ordering of ``points``.

    Args:
        points: array of shape ``(n, d)``.
        eps: generating radius (upper bound for later cuts).
        min_pts: density threshold (neighborhood cardinality incl. self).
        metric: metric name or instance.
        index: optional pre-built index over the same points (default:
            the one ``build_index("auto")`` picks for ``eps``).

    Returns:
        An :class:`OPTICSResult`.

    Raises:
        ValueError: for a NaN or non-positive ``eps`` (``inf``, the usual
            OPTICS setting, is accepted) or ``min_pts < 1``.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    points = np.asarray(points, dtype=float)
    n = points.shape[0] if points.ndim == 2 else 0
    resolved = get_metric(metric)
    if index is None:
        index = build_index(points, "auto", metric=resolved, eps=eps)
    reachability = np.full(n, UNDEFINED)
    core_distance = np.full(n, UNDEFINED)
    processed = np.zeros(n, dtype=bool)
    ordering: list[int] = []

    def neighbors_of(i: int) -> tuple[np.ndarray, np.ndarray]:
        idx = index.region_query(i, eps)
        dists = resolved.to_many(points[i], points[idx])
        return idx, dists

    for start in range(n):
        if processed[start]:
            continue
        seeds: list[tuple[float, int]] = []
        stale: dict[int, float] = {}

        def process(i: int) -> None:
            processed[i] = True
            ordering.append(i)
            idx, dists = neighbors_of(i)
            if idx.size >= min_pts:
                core_distance[i] = float(np.partition(dists, min_pts - 1)[min_pts - 1])
                core = core_distance[i]
                for j, dist in zip(idx, dists):
                    if processed[j]:
                        continue
                    new_reach = max(core, float(dist))
                    if new_reach < reachability[j]:
                        reachability[j] = new_reach
                        stale[int(j)] = new_reach
                        heapq.heappush(seeds, (new_reach, int(j)))

        process(start)
        while seeds:
            reach, j = heapq.heappop(seeds)
            if processed[j] or stale.get(j, reach) != reach:
                continue
            process(j)
    return OPTICSResult(
        ordering=np.asarray(ordering, dtype=np.intp),
        reachability=reachability,
        core_distance=core_distance,
        eps=float(eps),
        min_pts=int(min_pts),
    )


def extract_dbscan_clustering(result: OPTICSResult, eps_cut: float) -> np.ndarray:
    """Cut an OPTICS ordering at ``eps_cut``, producing a flat clustering.

    Implements the *ExtractDBSCAN-Clustering* procedure of the OPTICS paper:
    walking the ordering, a reachability above ``eps_cut`` starts a new
    cluster if the object itself is core at ``eps_cut``, otherwise marks
    noise; reachable objects join the current cluster.

    Args:
        result: an :class:`OPTICSResult` with ``eps >= eps_cut``.
        eps_cut: the cut radius.

    Returns:
        Label array (noise = -1), equivalent to DBSCAN at ``eps_cut`` up to
        border-point ambiguity.

    Raises:
        ValueError: if ``eps_cut`` exceeds the generating radius.
    """
    if eps_cut > result.eps:
        raise ValueError(
            f"eps_cut {eps_cut} exceeds the generating eps {result.eps}"
        )
    n = result.ordering.size
    labels = np.full(n, NOISE, dtype=np.intp)
    cluster_id = -1
    for obj in result.ordering:
        if result.reachability[obj] > eps_cut:
            if result.core_distance[obj] <= eps_cut:
                cluster_id += 1
                labels[obj] = cluster_id
            else:
                labels[obj] = NOISE
        else:
            labels[obj] = cluster_id
    return labels
