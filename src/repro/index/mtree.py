"""A from-scratch M-tree for general metric spaces.

The paper stresses that DBSCAN "can be used for all kinds of metric data
spaces and is not confined to vector spaces" (§4) and names the M-tree
[Ciaccia/Patella/Zezula, VLDB'97] as the access method for that case.  The
grid, kd-tree and R-tree in this package all exploit coordinate axes; the
M-tree only ever calls the metric, so it works for *any* distance that
satisfies the triangle inequality (e.g. haversine on coordinates, or a
kernel-induced metric).

This is the bulk-loaded variant: leaf entries store objects with their
distance to the parent routing object; inner nodes store routing objects
with covering radii.  Range queries prune with the classic M-tree
inequality ``|d(q, parent) - d(parent, child)| > eps + r_child``.  The
pruning distances must obey the triangle inequality: squared_euclidean
does not, so it prunes on their square roots (the euclidean distance)
against ``sqrt(eps)``.  Every pruning test leaves a relative slack of
``_SLACK`` so that rounding never prunes an exact tie; the final test is
the exact ``d(q, x) <= eps``.
"""

from __future__ import annotations

import numpy as np

from repro.data.distance import Metric
from repro.index.base import NeighborIndex, coordinate_reach

__all__ = ["MTreeIndex"]

#: Relative slack of the pruning tests, far above the rounding error of a
#: distance and far below any gap pruning relies on.
_SLACK = 1e-9


class _MNode:
    """M-tree node: a routing object, covering radius, and children."""

    __slots__ = ("router", "radius", "children", "entries", "entry_dists")

    def __init__(
        self,
        router: int,
        radius: float,
        children: list["_MNode"] | None,
        entries: np.ndarray | None,
        entry_dists: np.ndarray | None,
    ) -> None:
        self.router = router
        self.radius = radius
        self.children = children
        self.entries = entries
        self.entry_dists = entry_dists

    @property
    def is_leaf(self) -> bool:
        return self.entries is not None


class MTreeIndex(NeighborIndex):
    """Bulk-loaded M-tree over a static point set.

    Only metric properties are used — no coordinate arithmetic — so any
    registered :class:`~repro.data.distance.Metric` obeying the triangle
    inequality works.

    Args:
        points: array of shape ``(n, d)`` (rows are opaque objects to the
            tree; only the metric interprets them).
        metric: distance metric (must satisfy the triangle inequality).
        node_capacity: max objects per leaf / children per inner node.
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
        self._root: _MNode | None = None
        if len(self):
            self._root = self._build(np.arange(len(self), dtype=np.intp))

    # ------------------------------------------------------------------
    # bulk load: recursive k-router partitioning
    # ------------------------------------------------------------------
    def _prune_distance(self, distances):
        """Distances in the pruning space (square roots for
        squared_euclidean, whose values break the triangle inequality)."""
        if self._metric.name == "squared_euclidean":
            return np.sqrt(distances)
        return distances

    def _distances(self, router: int, members: np.ndarray) -> np.ndarray:
        return self._prune_distance(
            self._metric.to_many(self._points[router], self._points[members])
        )

    def _router_distance(self, query: np.ndarray, node: _MNode) -> float:
        return float(
            self._prune_distance(
                self._metric.pairwise(query, self._points[node.router])
            )
        )

    def _build(self, members: np.ndarray) -> _MNode:
        router = int(members[0])
        dists = self._distances(router, members)
        if members.size <= self._capacity:
            return _MNode(
                router=router,
                radius=float(dists.max()) if dists.size else 0.0,
                children=None,
                entries=members,
                entry_dists=dists,
            )
        # Pick up to `capacity` routers spread out by a farthest-first
        # sweep, then assign every member to its nearest router.
        n_groups = min(self._capacity, max(2, members.size // self._capacity))
        routers = [router]
        router_dists = [dists]
        min_dist = dists.copy()
        for __ in range(n_groups - 1):
            farthest = int(np.argmax(min_dist))
            candidate = int(members[farthest])
            if min_dist[farthest] == 0.0:
                break  # all remaining members coincide with a router
            routers.append(candidate)
            cand_dists = self._distances(candidate, members)
            router_dists.append(cand_dists)
            min_dist = np.minimum(min_dist, cand_dists)
        if len(routers) == 1:
            # All members coincide: recursion cannot shrink the set, so
            # chunk them into capacity-sized leaves directly.
            children = [
                _MNode(
                    router=router,
                    radius=0.0,
                    children=None,
                    entries=members[start : start + self._capacity],
                    entry_dists=dists[start : start + self._capacity],
                )
                for start in range(0, members.size, self._capacity)
            ]
            return _MNode(router, 0.0, children, None, None)
        stacked = np.vstack(router_dists)  # (n_routers, n_members)
        assignment = stacked.argmin(axis=0)
        children = []
        for g in range(len(routers)):
            group = members[assignment == g]
            if group.size == 0:
                continue
            # Ensure the group's router leads the array so _build reuses it.
            router_pos = int(np.flatnonzero(group == routers[g])[0])
            group[0], group[router_pos] = group[router_pos], group[0]
            children.append(self._build(group))
        radius = float(dists.max())
        return _MNode(
            router=router,
            radius=radius,
            children=children,
            entries=None,
            entry_dists=None,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree)."""
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
        hits: list[np.ndarray] = []
        # Stack of (node, distance from query to the node's router).
        stack = [(self._root, self._router_distance(query, self._root))]
        while stack:
            node, d_router = stack.pop()
            # Covering-radius pruning: nothing in this subtree can be
            # within eps if the query is farther than radius + reach.
            if d_router - node.radius - reach > _SLACK * (
                d_router + node.radius + reach
            ):
                continue
            if node.is_leaf:
                # Pre-filter by |d(q,router) - d(router,entry)| <= reach
                # before paying for exact distances.
                dists = node.entry_dists
                plausible = np.abs(dists - d_router) - reach <= _SLACK * (
                    dists + d_router + reach
                )
                candidates = node.entries[plausible]
                if candidates.size:
                    exact = self._metric.to_many(query, self._points[candidates])
                    match = candidates[exact <= eps]
                    if match.size:
                        hits.append(match)
                continue
            for child in node.children:
                stack.append((child, self._router_distance(query, child)))
        if not hits:
            return np.empty(0, dtype=np.intp)
        out = np.concatenate(hits)
        out.sort()
        return out
