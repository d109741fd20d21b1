"""A from-scratch R-tree with Sort-Tile-Recursive (STR) bulk loading.

The DBDC paper performs its region queries with R*-trees [Beckmann et al.,
SIGMOD'90].  For a reproduction that only ever bulk-loads a static point set
and then queries it, STR packing produces node layouts at least as good as
incremental R*-insertions, so we implement the packed variant: leaves hold
points, inner nodes hold minimum bounding rectangles (MBRs), and range
queries descend only into nodes whose MBR intersects the query ball's
bounding cube (then filter exactly by metric distance).
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.distance import Metric
from repro.index.base import NeighborIndex, coordinate_reach

__all__ = ["RTreeIndex"]


class _Node:
    """R-tree node: an MBR plus either child nodes or point indices."""

    __slots__ = ("lower", "upper", "children", "entries")

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        children: list["_Node"] | None,
        entries: np.ndarray | None,
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.children = children
        self.entries = entries

    @property
    def is_leaf(self) -> bool:
        return self.entries is not None


class RTreeIndex(NeighborIndex):
    """Packed R-tree (STR bulk load) over a static point set.

    Args:
        points: array of shape ``(n, d)``.
        metric: any ``L_p``-style metric; MBR pruning uses the ``L_inf``
            bounding cube of the query ball, which contains the ball for all
            of them.
        node_capacity: maximum fanout of leaves and inner nodes.
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: str | Metric = "euclidean",
        *,
        node_capacity: int = 32,
    ) -> None:
        super().__init__(points, metric)
        if node_capacity < 2:
            raise ValueError(f"node_capacity must be >= 2, got {node_capacity}")
        self._capacity = int(node_capacity)
        self._root: _Node | None = None
        if len(self):
            leaves = self._pack_leaves()
            self._root = self._pack_levels(leaves)

    # ------------------------------------------------------------------
    # STR bulk load
    # ------------------------------------------------------------------
    def _pack_leaves(self) -> list[_Node]:
        order = self._str_order(self._points, np.arange(len(self), dtype=np.intp))
        leaves = []
        for start in range(0, order.size, self._capacity):
            entries = order[start : start + self._capacity]
            pts = self._points[entries]
            leaves.append(_Node(pts.min(axis=0), pts.max(axis=0), None, entries))
        return leaves

    def _str_order(self, points: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Recursively sort-tile ``indices`` so consecutive runs are compact."""
        d = points.shape[1]
        n = indices.size
        leaf_count = math.ceil(n / self._capacity)

        def tile(idx: np.ndarray, dim: int) -> np.ndarray:
            if dim >= d - 1 or idx.size <= self._capacity:
                return idx[np.argsort(points[idx, dim], kind="stable")]
            remaining_dims = d - dim
            slabs = max(1, math.ceil(leaf_count ** (1.0 / remaining_dims) * idx.size / n))
            idx = idx[np.argsort(points[idx, dim], kind="stable")]
            slab_size = math.ceil(idx.size / slabs)
            parts = [
                tile(idx[s : s + slab_size], dim + 1)
                for s in range(0, idx.size, slab_size)
            ]
            return np.concatenate(parts)

        return tile(indices, 0)

    def _pack_levels(self, nodes: list[_Node]) -> _Node:
        while len(nodes) > 1:
            centers = np.asarray([(node.lower + node.upper) / 2.0 for node in nodes])
            order = np.lexsort(centers.T[::-1])
            next_level = []
            for start in range(0, len(nodes), self._capacity):
                group = [nodes[i] for i in order[start : start + self._capacity]]
                lower = np.minimum.reduce([g.lower for g in group])
                upper = np.maximum.reduce([g.upper for g in group])
                next_level.append(_Node(lower, upper, group, None))
            nodes = next_level
        return nodes[0]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels in the tree (0 for an empty index)."""
        node, levels = self._root, 0
        while node is not None:
            levels += 1
            node = None if node.is_leaf else node.children[0]
        return levels

    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        if self._root is None:
            return np.empty(0, dtype=np.intp)
        query = np.asarray(query, dtype=float)
        reach = coordinate_reach(self._metric, eps)
        low = query - reach
        high = query + reach
        hits: list[np.ndarray] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if np.any(node.lower > high) or np.any(node.upper < low):
                continue
            if node.is_leaf:
                entries = node.entries
                distances = self._metric.to_many(query, self._points[entries])
                match = entries[distances <= eps]
                if match.size:
                    hits.append(match)
            else:
                stack.extend(node.children)
        if not hits:
            return np.empty(0, dtype=np.intp)
        out = np.concatenate(hits)
        out.sort()
        return out
