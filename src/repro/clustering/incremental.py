"""Incremental DBSCAN (Ester et al., VLDB'98 style).

The DBDC paper leans on this algorithm twice:

* Section 4 lists the existence of "an efficient incremental version" as a
  reason for choosing DBSCAN locally — a site only re-transmits its local
  model when its clustering changed considerably;
* Section 6 notes the server "can start with the construction of the global
  model after the first representatives of any local model come in", i.e.
  the global clustering is maintained incrementally as representatives
  arrive.

:class:`IncrementalDBSCAN` maintains a DBSCAN clustering under point
insertions and deletions.  Insertions can create, absorb into, or *merge*
clusters; deletions can shrink, dissolve, or *split* clusters.  The
maintained labelling always equals some from-scratch DBSCAN run over the
current point set (cluster ids and order-dependent border assignments may
differ, the partition structure does not — the property tests assert this).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.clustering.dbscan import density_parameters
from repro.clustering.labels import NOISE
from repro.data.distance import Metric, get_metric
from repro.index.dynamic import DynamicGridIndex

__all__ = ["IncrementalDBSCAN"]


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
