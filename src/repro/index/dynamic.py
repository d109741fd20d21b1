"""A dynamic uniform-grid index supporting insertions and deletions.

Incremental DBSCAN (Ester et al., VLDB'98) — the algorithm the DBDC paper
names as the enabler for incremental local sites and for building the global
model while representatives are still arriving — needs an index whose
contents change over time.  The static indexes in this package are built
once; this grid keeps per-cell Python sets so points can be added and
removed in ``O(1)`` while range queries stay exact.

Indices handed out by :meth:`DynamicGridIndex.insert` are stable for the
lifetime of the structure; removed slots are tombstoned, never reused.
Like every static index, it refuses a point with a non-finite coordinate,
and it scans the ``L_inf`` cube that holds the query ball under the same
rule as :class:`~repro.index.grid.GridIndex`.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro.data.distance import Metric, get_metric
from repro.index.base import coordinate_reach

__all__ = ["DynamicGridIndex"]

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

    # Same observability contract as NeighborIndex.attach_metrics; the
    # dynamic grid is not a NeighborIndex subclass, so it mirrors it.
    _obs_metrics = None

    def attach_metrics(self, metrics) -> None:
        """Record region-query metrics into ``metrics`` from now on."""
        self._obs_metrics = metrics

    def detach_metrics(self) -> None:
        """Stop recording (also drops the registry before pickling)."""
        self._obs_metrics = None

    def region_query(self, index: int, eps: float) -> np.ndarray:
        """``N_Eps`` of a live indexed point (includes the point itself)."""
        if self._obs_metrics is None:
            return self.range_query(self.point(index), eps)
        start = time.perf_counter()
        neighbors = self.range_query(self.point(index), eps)
        metrics = self._obs_metrics
        metrics.inc("index.region_queries", 1)
        metrics.inc("index.query_seconds", time.perf_counter() - start)
        metrics.observe("index.neighbors_per_query", neighbors.size)
        return neighbors

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
