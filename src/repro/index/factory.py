"""Index construction by name, plus the automatic default used by DBSCAN.

Clustering code never instantiates a concrete index class directly; it calls
:func:`build_index` with a name (``"grid"``, ``"kdtree"``, ``"rtree"``,
``"mtree"``, ``"brute"`` or ``"auto"``).  Every kind answers the same exact
queries, so only DBSCAN's index ablation names one; everything else takes
``"auto"``.  For a metric whose balls fit in ``L_inf`` cubes, ``"auto"``
picks the uniform grid when a usable cell size is known (DBSCAN passes its
``Eps``) and brute force otherwise (its sorted-projection sweep beats the
kd-tree on batched queries); for any other metric it picks the M-tree
above 256 points and brute force below — mirroring how the original system
would fall back from R*-tree to sequential scan.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.distance import Metric, get_metric
from repro.index.base import LINF_BOUNDED_METRICS, NeighborIndex
from repro.index.brute import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTreeIndex
from repro.index.mtree import MTreeIndex
from repro.index.rtree import RTreeIndex

__all__ = ["build_index", "available_indexes"]

_BY_NAME = {
    "brute": BruteForceIndex,
    "kdtree": KDTreeIndex,
    "rtree": RTreeIndex,
    "mtree": MTreeIndex,
}


def _usable_cell_size(eps: float | None) -> bool:
    """Whether ``eps`` can be a grid's cell size: positive and finite."""
    return eps is not None and math.isfinite(eps) and eps > 0


def available_indexes() -> list[str]:
    """Names accepted by :func:`build_index`."""
    return ["auto", "brute", "grid", "kdtree", "rtree", "mtree"]


def build_index(
    points: np.ndarray,
    kind: str = "auto",
    *,
    metric: str | Metric = "euclidean",
    eps: float | None = None,
) -> NeighborIndex:
    """Build a neighbor index over ``points``.

    Args:
        points: array of shape ``(n, d)``.
        kind: one of :func:`available_indexes`.
        metric: metric name or instance.
        eps: typical query radius; required cell size hint for ``"grid"``
            and used by ``"auto"`` to prefer the grid, which it picks only
            for a finite, positive ``eps`` (a grid scans finitely many
            cell rings).

    Returns:
        A ready-to-query :class:`~repro.index.base.NeighborIndex`.

    Raises:
        ValueError: unknown ``kind``, or ``grid`` requested without a
            positive, finite ``eps``.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    if kind == "auto":
        if resolved.name not in LINF_BOUNDED_METRICS:
            # Unknown (non-L_p) metric over a large set: the M-tree only
            # needs the triangle inequality, like the paper's fallback.
            kind = "mtree" if len(points) > 256 else "brute"
        elif _usable_cell_size(eps) and len(points):
            kind = "grid"
        else:
            kind = "brute"
    if kind == "grid":
        if not _usable_cell_size(eps):
            raise ValueError(
                f"grid index needs a positive, finite eps as cell-size hint, "
                f"got {eps}"
            )
        return GridIndex(points, resolved, cell_size=eps)
    if kind not in _BY_NAME:
        raise ValueError(
            f"unknown index kind {kind!r}; known: {available_indexes()}"
        )
    return _BY_NAME[kind](points, resolved)
