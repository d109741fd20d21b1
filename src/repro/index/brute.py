"""Brute-force neighbor index.

The reference implementation of :class:`~repro.index.base.NeighborIndex`:
every range query scans the full point set with the metric's vectorized
one-to-many kernel.  It is the correctness oracle the other indexes are
tested against and the fallback for metrics that no spatial index supports
(e.g. arbitrary registered metrics that are not translation-invariant in a
way a grid could exploit).

Batched queries (``range_query_batch``) avoid one full scan per query: the
index lazily sorts the points along their widest coordinate once, prunes
each query's candidate set to the slab ``|x_dim - q_dim| <= eps`` with two
``searchsorted`` calls, and evaluates only the survivors.  The per-axis
distance lower-bounds every ``L_p`` metric, so the pruned scan is exact, and
survivors are re-evaluated with the same ``to_many`` kernel as the single
query path, so results are bitwise identical.  Metrics outside the ``L_p``
family fall back to one full ``to_many`` sweep per query.
"""

from __future__ import annotations

import numpy as np

from repro.data.distance import Metric
from repro.index.base import NeighborIndex

__all__ = ["BruteForceIndex"]

# Metrics for which the per-coordinate distance lower-bounds the metric
# distance, making the sorted-projection pruning exact.
_PROJECTION_METRICS = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}


class BruteForceIndex(NeighborIndex):
    """Exact neighbor index via a full linear scan per query.

    Works with every metric, costs ``O(n)`` per query and ``O(1)`` build
    time.  Within DBSCAN this gives the ``O(n^2)`` end of the complexity
    range discussed in the paper (Section 9.1).  Batched queries sort the
    point set lazily (once) to prune candidates, see the module docstring.
    """

    def __init__(self, points: np.ndarray, metric: str | Metric = "euclidean") -> None:
        super().__init__(points, metric)
        self._proj_order: np.ndarray | None = None
        self._proj_values: np.ndarray | None = None
        self._proj_points: np.ndarray | None = None
        self._proj_dim = -1

    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        if len(self) == 0:
            return np.empty(0, dtype=np.intp)
        distances = self._metric.to_many(np.asarray(query, dtype=float), self._points)
        return np.flatnonzero(distances <= eps)

    def _projection_reach(self, eps: float) -> float | None:
        """Slab half-width for projection pruning, ``None`` if unsupported.

        ``squared_euclidean`` thresholds the *squared* distance, so its
        coordinate reach is ``sqrt(eps)``; the true metrics use ``eps``.
        """
        name = self._metric.name
        if name == "squared_euclidean":
            return float(np.sqrt(max(eps, 0.0)))
        if name in _PROJECTION_METRICS or name.startswith("minkowski"):
            return float(max(eps, 0.0))
        return None

    def _ensure_projection(self) -> None:
        if self._proj_order is not None:
            return
        spread = self._points.max(axis=0) - self._points.min(axis=0)
        self._proj_dim = int(np.argmax(spread))
        self._proj_order = np.argsort(self._points[:, self._proj_dim], kind="stable")
        self._proj_points = self._points[self._proj_order]
        self._proj_values = self._proj_points[:, self._proj_dim]

    def _range_rows(self, queries: np.ndarray, eps: float) -> list[np.ndarray]:
        reach = self._projection_reach(eps)
        if reach is None or len(self) == 0:
            # Non-L_p metric (no valid coordinate bound) or nothing indexed:
            # one full scan per query.
            return super()._range_rows(queries, eps)
        self._ensure_projection()
        assert self._proj_values is not None  # for type checkers
        projected = queries[:, self._proj_dim]
        lo = np.searchsorted(self._proj_values, projected - reach, side="left")
        hi = np.searchsorted(self._proj_values, projected + reach, side="right")
        out: list[np.ndarray] = []
        for i in range(queries.shape[0]):
            if lo[i] >= hi[i]:
                out.append(np.empty(0, dtype=np.intp))
                continue
            candidates = self._proj_order[lo[i]:hi[i]]
            distances = self._metric.to_many(queries[i], self._proj_points[lo[i]:hi[i]])
            hits = candidates[distances <= eps]
            hits.sort()
            out.append(hits)
        return out
