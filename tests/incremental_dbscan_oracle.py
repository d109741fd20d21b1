"""Incremental DBSCAN over a dynamic grid, as test oracles.

:class:`IncrementalDBSCAN` (Ester et al., VLDB'98 style) maintains a
DBSCAN clustering under point insertions and deletions.  Insertions can
create, absorb into, or *merge* clusters; deletions can shrink, dissolve,
or *split* clusters.  The maintained labelling always equals some
from-scratch DBSCAN run over the current point set (cluster ids and
order-dependent border assignments may differ, the partition structure
does not — ``tests/test_incremental.py`` asserts this).  The DBDC paper
cites the algorithm for incremental local sites (§4) and for growing the
global model while representatives arrive (§6); the library does both
without it — a site re-fits its live objects with DBSCAN when it derives
a model, and the server folds models in through connected components —
so it serves here as an independent oracle
(``tests/global_model_oracle.py``).

:class:`DynamicGridIndex` is the mutable index it runs on: per-cell Python
sets, so points are added and removed in ``O(1)`` while range queries stay
exact.  Indices handed out by :meth:`DynamicGridIndex.insert` are stable
for the lifetime of the structure; removed slots are tombstoned, never
reused.  Like every static index, it refuses a point with a non-finite
coordinate, and it scans the ``L_inf`` cube that holds the query ball under
the same rule as :class:`~repro.index.grid.GridIndex`.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from repro.clustering.dbscan import density_parameters
from repro.clustering.labels import NOISE
from repro.data.distance import Metric, get_metric
from repro.index.base import coordinate_reach

__all__ = ["DynamicGridIndex", "IncrementalDBSCAN"]

_GRID_METRICS = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}


class DynamicGridIndex:
    """Mutable exact neighbor index over a uniform grid.

    Args:
        dim: point dimensionality.
        cell_size: grid cell edge (pick the typical query radius).
        metric: an ``L_p``-style metric (ball bounded by its ``L_inf`` cube).

    Raises:
        ValueError: for invalid cell size / metric / dimension.
    """

    def __init__(
        self,
        dim: int,
        cell_size: float,
        metric: str | Metric = "euclidean",
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._metric = get_metric(metric)
        if self._metric.name not in _GRID_METRICS:
            raise ValueError(
                f"DynamicGridIndex supports {sorted(_GRID_METRICS)}, "
                f"got {self._metric.name!r}"
            )
        self._dim = int(dim)
        self._cell_size = float(cell_size)
        self._cells: dict[tuple[int, ...], set[int]] = defaultdict(set)
        self._points: list[np.ndarray] = []
        self._alive: list[bool] = []
        self._n_alive = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _key(self, point: np.ndarray) -> tuple[int, ...]:
        return tuple(np.floor(point / self._cell_size).astype(np.int64))

    def insert(self, point: np.ndarray) -> int:
        """Add ``point``; returns its stable index.

        Raises:
            ValueError: for a point of the wrong shape or with a NaN or
                infinite coordinate.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self._dim,):
            raise ValueError(f"expected a ({self._dim},) point, got shape {point.shape}")
        if not np.isfinite(point).all():
            raise ValueError(f"points must be finite, got {point!r}")
        idx = len(self._points)
        self._points.append(point)
        self._alive.append(True)
        self._cells[self._key(point)].add(idx)
        self._n_alive += 1
        return idx

    def remove(self, index: int) -> None:
        """Tombstone the point at ``index``.

        Raises:
            KeyError: if the index is unknown or already removed.
        """
        if not 0 <= index < len(self._points) or not self._alive[index]:
            raise KeyError(f"no live point with index {index}")
        self._alive[index] = False
        key = self._key(self._points[index])
        cell = self._cells[key]
        cell.discard(index)
        if not cell:
            del self._cells[key]
        self._n_alive -= 1

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_alive

    def __contains__(self, index: int) -> bool:
        return 0 <= index < len(self._points) and self._alive[index]

    @property
    def metric(self) -> Metric:
        """Metric the grid was built under."""
        return self._metric

    def point(self, index: int) -> np.ndarray:
        """Coordinates of a live point.

        Raises:
            KeyError: for dead/unknown indices.
        """
        if index not in self:
            raise KeyError(f"no live point with index {index}")
        return self._points[index]

    def live_indices(self) -> np.ndarray:
        """Sorted array of all live point indices."""
        return np.asarray(
            [i for i, alive in enumerate(self._alive) if alive], dtype=np.intp
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        """Indices of live points within ``eps`` of ``query`` (sorted)."""
        if self._n_alive == 0:
            return np.empty(0, dtype=np.intp)
        query = np.asarray(query, dtype=float)
        reach = coordinate_reach(self._metric, eps)
        low = np.floor((query - reach) / self._cell_size).astype(np.int64)
        high = np.floor((query + reach) / self._cell_size).astype(np.int64)
        cube = 1
        for lo, hi in zip(low, high):
            cube *= int(hi - lo) + 1
        candidates: list[int] = []
        if cube <= max(64, 4 * len(self._cells)):
            for key in _iter_cube(low, high):
                members = self._cells.get(key)
                if members:
                    candidates.extend(members)
        else:
            for key, members in self._cells.items():
                if all(lo <= k <= hi for k, lo, hi in zip(key, low, high)):
                    candidates.extend(members)
        if not candidates:
            return np.empty(0, dtype=np.intp)
        cand = np.asarray(candidates, dtype=np.intp)
        pts = np.asarray([self._points[i] for i in candidates])
        distances = self._metric.to_many(query, pts)
        hits = cand[distances <= eps]
        hits.sort()
        return hits

    def region_query(self, index: int, eps: float) -> np.ndarray:
        """``N_Eps`` of a live indexed point (includes the point itself)."""
        return self.range_query(self.point(index), eps)

    def count_in_range(self, query: np.ndarray, eps: float) -> int:
        """Number of live points within ``eps`` of ``query``."""
        return int(self.range_query(query, eps).size)


def _iter_cube(low: np.ndarray, high: np.ndarray):
    """Yield every integer key tuple in the axis-aligned box [low, high]."""
    spans = [range(int(lo), int(hi) + 1) for lo, hi in zip(low, high)]

    def rec(i: int, prefix: tuple[int, ...]):
        if i == len(spans):
            yield prefix
            return
        for value in spans[i]:
            yield from rec(i + 1, prefix + (value,))

    yield from rec(0, ())


class IncrementalDBSCAN:
    """Maintain a DBSCAN clustering under inserts and deletes.

    Args:
        eps: neighborhood radius.
        min_pts: density threshold (neighborhood cardinality incl. self).
        dim: point dimensionality.
        metric: ``L_p``-style metric (the dynamic grid requires one).

    Attributes are exposed via accessors; point indices are the stable ids
    returned by :meth:`insert`.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        dim: int,
        *,
        metric: str | Metric = "euclidean",
    ) -> None:
        self.eps, self.min_pts = density_parameters(eps, min_pts)
        self.metric = get_metric(metric)
        self._grid = DynamicGridIndex(dim, cell_size=self.eps, metric=self.metric)
        self._labels: dict[int, int] = {}
        self._core: dict[int, bool] = {}
        self._next_cluster = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._grid)

    def label_of(self, index: int) -> int:
        """Cluster id of a live point (``NOISE`` for noise)."""
        return self._labels[index]

    def is_core(self, index: int) -> bool:
        """Whether the live point ``index`` currently is a core object."""
        return self._core[index]

    def live_indices(self) -> np.ndarray:
        """Stable indices of all live points, sorted."""
        return self._grid.live_indices()

    def points(self) -> np.ndarray:
        """Coordinates of all live points, ordered by :meth:`live_indices`."""
        idx = self.live_indices()
        if idx.size == 0:
            return np.empty((0, 0))
        return np.asarray([self._grid.point(i) for i in idx])

    def labels(self) -> np.ndarray:
        """Labels of all live points, ordered by :meth:`live_indices`."""
        return np.asarray([self._labels[i] for i in self.live_indices()], dtype=np.intp)

    def cluster_count(self) -> int:
        """Number of distinct non-noise clusters."""
        return len({label for label in self._labels.values() if label >= 0})

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray) -> int:
        """Insert ``point`` and repair the clustering.

        Returns:
            The new point's stable index.
        """
        idx = self._grid.insert(np.asarray(point, dtype=float))
        neighbors = self._grid.region_query(idx, self.eps)
        self._labels[idx] = NOISE
        self._core[idx] = neighbors.size >= self.min_pts

        # Core properties can only be gained on insertion, and only by the
        # new point's neighbors (their neighborhood grew by exactly one).
        newly_core: list[int] = []
        for q in neighbors:
            q = int(q)
            if q == idx or self._core[q]:
                continue
            if self._grid.region_query(q, self.eps).size >= self.min_pts:
                self._core[q] = True
                newly_core.append(q)
        if self._core[idx]:
            newly_core.append(idx)

        if not newly_core:
            # No core property changed: the new point is border or noise.
            core_neighbors = [int(q) for q in neighbors if self._core[int(q)]]
            if core_neighbors:
                self._labels[idx] = self._label_of_nearest_core(idx, core_neighbors)
            return idx

        # One insertion can create several *disconnected* groups of new
        # core points (e.g. a non-core arrival whose neighborhood pushes
        # two far-apart neighbors over MinPts) — each group merges only
        # the clusters it actually touches.  Components are traced over
        # core-core eps links through the NEW cores; links between two
        # old cores existed before the insertion, so their clusters are
        # already merged and traversal can stop at them (their label is
        # collected for the wholesale relabel instead).
        newly_core_set = set(newly_core)
        processed: set[int] = set()
        for changed in newly_core:
            if changed in processed:
                continue
            component = {changed}
            frontier = [changed]
            touched: set[int] = set()
            if self._labels[changed] >= 0:
                touched.add(int(self._labels[changed]))
            while frontier:
                current = frontier.pop()
                for q in self._grid.region_query(current, self.eps):
                    q = int(q)
                    if not self._core[q] or q in component:
                        continue
                    if q in newly_core_set:
                        component.add(q)
                        frontier.append(q)
                        if self._labels[q] >= 0:
                            touched.add(int(self._labels[q]))
                    elif self._labels[q] >= 0:
                        # Old core: merge its whole cluster, no traversal.
                        touched.add(int(self._labels[q]))
            if touched:
                target = min(touched)
                for other in touched - {target}:
                    self._relabel_cluster(other, target)
            else:
                target = self._next_cluster
                self._next_cluster += 1
            self._expand_cores(component, target)
            processed |= component

        if not self._core[idx] and self._labels[idx] == NOISE:
            # The new point itself may be a border of a (possibly fresh)
            # cluster even when it triggered no merge near itself.
            core_neighbors = [int(q) for q in neighbors if self._core[int(q)]]
            if core_neighbors:
                self._labels[idx] = self._label_of_nearest_core(idx, core_neighbors)
        return idx

    def _label_of_nearest_core(self, idx: int, core_neighbors: list[int]) -> int:
        point = self._grid.point(idx)
        pts = np.asarray([self._grid.point(q) for q in core_neighbors])
        distances = self.metric.to_many(point, pts)
        return self._labels[core_neighbors[int(np.argmin(distances))]]

    def _relabel_cluster(self, old: int, new: int) -> None:
        for key, label in self._labels.items():
            if label == old:
                self._labels[key] = new

    def _expand_cores(self, seeds: set[int], target: int) -> None:
        """BFS over density-connected cores, claiming borders along the way."""
        queue: deque[int] = deque(seeds)
        visited = set(seeds)
        while queue:
            core = queue.popleft()
            self._labels[core] = target
            for q in self._grid.region_query(core, self.eps):
                q = int(q)
                if self._core[q]:
                    if q not in visited and self._labels[q] != target:
                        visited.add(q)
                        queue.append(q)
                elif self._labels[q] == NOISE:
                    self._labels[q] = target

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, index: int) -> None:
        """Remove the live point ``index`` and repair the clustering.

        Deletion can demote cores, orphan borders, dissolve clusters and —
        the expensive case — split one cluster into several; the affected
        clusters are re-derived locally from the surviving core objects.

        Raises:
            KeyError: for dead/unknown indices.
        """
        neighbors = [int(q) for q in self._grid.region_query(index, self.eps) if int(q) != index]
        old_label = self._labels.pop(index)
        was_core = self._core.pop(index)
        self._grid.remove(index)

        # Cores can only be lost, and only by the removed point's neighbors.
        lost_core: list[int] = []
        for q in neighbors:
            if self._core[q] and self._grid.region_query(q, self.eps).size < self.min_pts:
                self._core[q] = False
                lost_core.append(q)

        if not was_core and not lost_core:
            return  # a border/noise point left; no reachability changed

        # Every cluster that contained the removed point or a demoted core
        # must be rebuilt from its surviving cores (splits show up here).
        affected = {old_label} | {self._labels[q] for q in lost_core}
        affected.discard(NOISE)
        if not affected:
            return
        members = [
            key for key, label in self._labels.items() if label in affected
        ]
        self._rebuild_clusters(members)

    def _rebuild_clusters(self, members: list[int]) -> None:
        """Re-derive cluster structure for ``members`` from scratch.

        Core flags are already up to date; this only re-runs the
        connected-component expansion (Lemmas 1 and 2 of the DBSCAN paper:
        a cluster is uniquely determined by any of its core objects).
        """
        member_set = set(members)
        for key in members:
            self._labels[key] = NOISE
        unvisited_cores = {key for key in members if self._core[key]}
        non_cores = [key for key in members if not self._core[key]]
        while unvisited_cores:
            seed = unvisited_cores.pop()
            target = self._next_cluster
            self._next_cluster += 1
            queue: deque[int] = deque([seed])
            visited = {seed}
            while queue:
                core = queue.popleft()
                self._labels[core] = target
                for q in self._grid.region_query(core, self.eps):
                    q = int(q)
                    if self._core[q]:
                        if q not in visited:
                            visited.add(q)
                            queue.append(q)
                            unvisited_cores.discard(q)
                    elif q in member_set and self._labels[q] == NOISE:
                        self._labels[q] = target
        # A demoted member may border a core of an *unaffected* cluster:
        # it must become that cluster's border object, not noise.
        for key in non_cores:
            if self._labels[key] != NOISE:
                continue
            core_neighbors = [
                int(q)
                for q in self._grid.region_query(key, self.eps)
                if self._core[int(q)]
            ]
            if core_neighbors:
                self._labels[key] = self._label_of_nearest_core(key, core_neighbors)
