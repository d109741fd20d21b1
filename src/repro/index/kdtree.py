"""A from-scratch kd-tree supporting exact range and kNN queries.

Stands in for the R*-tree the paper uses as DBSCAN's spatial access method:
build once, then answer ``Eps``-range queries in expected
``O(log n + answer)`` for low-dimensional data.  The tree stores points in a
flat, implicitly-linked node array (no Python object per node) and prunes
subtrees with axis-aligned bounding boxes, so it is exact for every metric
whose balls are contained in their ``L_inf`` cube (all ``L_p`` metrics).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.data.distance import Metric
from repro.index.base import NeighborIndex, coordinate_reach

__all__ = ["KDTreeIndex"]

_LEAF = -1


class KDTreeIndex(NeighborIndex):
    """Median-split kd-tree over a static point set.

    Args:
        points: array of shape ``(n, d)``.
        metric: any ``L_p``-style metric (euclidean, manhattan, chebyshev,
            minkowski).  Pruning uses per-axis distances, which lower-bound
            all of these.
        leaf_size: maximum number of points stored in a leaf before the
            builder stops splitting.
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: str | Metric = "euclidean",
        *,
        leaf_size: int = 16,
    ) -> None:
        super().__init__(points, metric)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self._leaf_size = int(leaf_size)
        n = len(self)
        # Node storage: for node k, children at 2k+1 / 2k+2 do not work for
        # unbalanced median trees, so nodes carry explicit child ids.
        self._split_dim: list[int] = []
        self._split_val: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._leaf_slices: list[tuple[int, int]] = []
        self._order = np.arange(n, dtype=np.intp)
        if n:
            self._root = self._build(0, n, depth=0)
        else:
            self._root = _LEAF

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_node(self) -> int:
        self._split_dim.append(-1)
        self._split_val.append(0.0)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._leaf_slices.append((0, 0))
        return len(self._split_dim) - 1

    def _build(self, start: int, stop: int, depth: int) -> int:
        node = self._new_node()
        count = stop - start
        segment = self._order[start:stop]
        pts = self._points[segment]
        if count <= self._leaf_size:
            self._leaf_slices[node] = (start, stop)
            return node
        spread = pts.max(axis=0) - pts.min(axis=0)
        dim = int(np.argmax(spread))
        if spread[dim] == 0.0:
            # All points identical along every axis: keep as one leaf.
            self._leaf_slices[node] = (start, stop)
            return node
        mid = count // 2
        local = np.argpartition(pts[:, dim], mid)
        self._order[start:stop] = segment[local]
        split_value = float(self._points[self._order[start + mid], dim])
        self._split_dim[node] = dim
        self._split_val[node] = split_value
        self._left[node] = self._build(start, start + mid, depth + 1)
        self._right[node] = self._build(start + mid, stop, depth + 1)
        return node

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        if len(self) == 0:
            return np.empty(0, dtype=np.intp)
        query = np.asarray(query, dtype=float)
        reach = coordinate_reach(self._metric, eps)
        hits: list[np.ndarray] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            dim = self._split_dim[node]
            if dim == -1:
                start, stop = self._leaf_slices[node]
                segment = self._order[start:stop]
                distances = self._metric.to_many(query, self._points[segment])
                match = segment[distances <= eps]
                if match.size:
                    hits.append(match)
                continue
            delta = query[dim] - self._split_val[node]
            # A child can only contain points within eps of the query if the
            # cube holding the query's eps-ball crosses the splitting
            # hyperplane.
            if delta <= reach:
                stack.append(self._left[node])
            if delta >= -reach:
                stack.append(self._right[node])
        if not hits:
            return np.empty(0, dtype=np.intp)
        out = np.concatenate(hits)
        out.sort()
        return out

    def _range_rows(self, queries: np.ndarray, eps: float) -> list[np.ndarray]:
        """Batched range queries via one shared tree traversal.

        The whole query group descends the tree together: at every split
        node the group is partitioned with vectorized comparisons, and each
        leaf evaluates all queries that reach it with a single distance-
        matrix call.  Every query visits exactly the leaves the single-query
        traversal would visit, so results are identical.
        """
        n_queries = queries.shape[0]
        empty = np.empty(0, dtype=np.intp)
        if n_queries == 0 or len(self) == 0:
            return [empty] * n_queries
        reach = coordinate_reach(self._metric, eps)
        hits: list[list[np.ndarray]] = [[] for _ in range(n_queries)]
        stack: list[tuple[int, np.ndarray]] = [
            (self._root, np.arange(n_queries, dtype=np.intp))
        ]
        while stack:
            node, group = stack.pop()
            dim_ = self._split_dim[node]
            if dim_ == -1:
                start, stop = self._leaf_slices[node]
                segment = self._order[start:stop]
                distances = self._metric.matrix(queries[group], self._points[segment])
                rows, cols = np.nonzero(distances <= eps)
                bounds = np.searchsorted(rows, np.arange(group.size + 1))
                for r in range(group.size):
                    match = segment[cols[bounds[r]:bounds[r + 1]]]
                    if match.size:
                        hits[group[r]].append(match)
                continue
            delta = queries[group, dim_] - self._split_val[node]
            left = group[delta <= reach]
            right = group[delta >= -reach]
            if left.size:
                stack.append((self._left[node], left))
            if right.size:
                stack.append((self._right[node], right))
        out: list[np.ndarray] = []
        for parts in hits:
            if not parts:
                out.append(empty)
                continue
            merged = np.concatenate(parts)
            merged.sort()
            out.append(merged)
        return out

    def knn_query(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest indexed points to ``query``.

        Args:
            query: point of shape ``(d,)``.
            k: number of neighbors; clipped to the index size.

        Returns:
            ``(indices, distances)`` sorted by ascending distance.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = len(self)
        if n == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, np.empty(0, dtype=float)
        k = min(k, n)
        query = np.asarray(query, dtype=float)
        # Max-heap of (-distance, index) holding the best k found so far.
        best: list[tuple[float, int]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            dim = self._split_dim[node]
            if dim == -1:
                start, stop = self._leaf_slices[node]
                segment = self._order[start:stop]
                distances = self._metric.to_many(query, self._points[segment])
                for dist, idx in zip(distances, segment):
                    if len(best) < k:
                        heapq.heappush(best, (-float(dist), int(idx)))
                    elif dist < -best[0][0]:
                        heapq.heapreplace(best, (-float(dist), int(idx)))
                continue
            radius = np.inf if len(best) < k else -best[0][0]
            delta = query[dim] - self._split_val[node]
            if delta <= radius:
                stack.append(self._left[node])
            if delta >= -radius:
                stack.append(self._right[node])
        best.sort(key=lambda item: -item[0])
        indices = np.asarray([idx for __, idx in best], dtype=np.intp)
        distances = np.asarray([-d for d, __ in best], dtype=float)
        return indices, distances
