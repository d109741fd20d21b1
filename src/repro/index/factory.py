"""Index construction by name, plus the automatic default used by DBSCAN.

Clustering code never instantiates a concrete index class directly; it calls
:func:`build_index` with a configured name (``"grid"``, ``"kdtree"``,
``"rtree"``, ``"brute"`` or ``"auto"``).  ``"auto"`` picks the uniform grid
when the metric allows it and a sensible cell size is known (DBSCAN passes
its ``Eps``), otherwise the kd-tree, otherwise brute force — mirroring how
the original system would fall back from R*-tree to sequential scan.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.distance import Metric, get_metric
from repro.index.base import NeighborIndex
from repro.index.brute import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTreeIndex
from repro.index.mtree import MTreeIndex
from repro.index.rtree import RTreeIndex

__all__ = ["build_index", "available_indexes"]

_GRID_OK = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}
_TREE_OK = _GRID_OK | set()  # kd-tree/R-tree prune with L_inf cubes: same family


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
    leaf_size: int = 16,
    node_capacity: int = 32,
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
        leaf_size: kd-tree leaf size.
        node_capacity: R-tree fanout.

    Returns:
        A ready-to-query :class:`~repro.index.base.NeighborIndex`.

    Raises:
        ValueError: unknown ``kind``, or ``grid`` requested without a
            positive, finite ``eps``.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    if kind == "auto":
        if resolved.name in _GRID_OK and _usable_cell_size(eps) and len(points):
            return GridIndex(points, resolved, cell_size=eps)
        if resolved.name in _TREE_OK and len(points):
            return KDTreeIndex(points, resolved, leaf_size=leaf_size)
        if len(points) > 256:
            # Unknown (non-L_p) metric over a large set: the M-tree only
            # needs the triangle inequality, like the paper's fallback.
            return MTreeIndex(points, resolved, node_capacity=node_capacity)
        return BruteForceIndex(points, resolved)
    if kind == "brute":
        return BruteForceIndex(points, resolved)
    if kind == "grid":
        if not _usable_cell_size(eps):
            raise ValueError(
                f"grid index needs a positive, finite eps as cell-size hint, "
                f"got {eps}"
            )
        return GridIndex(points, resolved, cell_size=eps)
    if kind == "kdtree":
        return KDTreeIndex(points, resolved, leaf_size=leaf_size)
    if kind == "rtree":
        return RTreeIndex(points, resolved, node_capacity=node_capacity)
    if kind == "mtree":
        return MTreeIndex(points, resolved, node_capacity=node_capacity)
    raise ValueError(f"unknown index kind {kind!r}; known: {available_indexes()}")
