"""The neighbor-index abstraction used by DBSCAN and OPTICS.

The original DBDC/DBSCAN implementations perform their region queries through
a spatial access method (the paper uses R*-trees for vector data and mentions
M-trees for metric data).  Everything in this reproduction that needs an
``Eps``-range query goes through the small :class:`NeighborIndex` protocol
defined here, so the index can be swapped (brute force, uniform grid,
kd-tree, R-tree) without touching the clustering code.

An index is built once over an immutable point set and answers:

* ``region_query(i, eps)`` — indices of all points within distance ``eps``
  of the *indexed* point ``i`` (including ``i`` itself, matching the
  definition of ``N_Eps(q)`` in the paper),
* ``range_query(q, eps)`` — same for an arbitrary query point ``q``,
* ``range_query_batch(Q, eps)`` / ``region_query_batch(indices, eps)`` —
  the batched forms: one call answers a whole block of queries in CSR
  form, ``(hits, offsets)``: two fresh ``intp`` arrays, row ``k`` being
  ``hits[offsets[k]:offsets[k + 1]]``, ascending (with
  ``count_only=True`` just the neighbour counts, ``np.diff(offsets)``).
  The rows are contractually identical (element-wise ``array_equal``)
  to the per-query results — DBSCAN's level-synchronous expansion relies
  on this.  The base class assembles the CSR once from per-query answers:
  the generic fallback loops over ``range_query``, and
  :class:`~repro.index.brute.BruteForceIndex` and
  :class:`~repro.index.kdtree.KDTreeIndex` compute those answers with
  vectorized sweeps; :class:`~repro.index.grid.GridIndex` answers
  through its cell-pair join, which is CSR already.  No mode returns
  distances: a caller that needs them for some of the hits computes
  those with ``metric.paired(points[query], points[hit])``, bitwise
  ``metric.to_many``.
* ``candidate_pairs(eps)`` — an upper bound on the total hits of a region
  query of every indexed point, known before any distance is computed:
  n² here, the grid's cell-pair candidate count in
  :class:`~repro.index.grid.GridIndex`.  DBSCAN fetches the whole
  neighbourhood graph in one call when the bound fits its row budget.

Indexed points must be finite: a NaN or infinite coordinate has no cell,
no bounding box and no meaningful distance, so every index refuses it at
build time instead of answering queries with silently corrupted results.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.data.distance import Metric, get_metric

__all__ = [
    "LINF_BOUNDED_METRICS",
    "NeighborIndex",
    "PAIR_BUDGET_BYTES",
    "PASS_BUDGET_BYTES",
    "require_finite",
]

#: Bytes one vectorized query block may allocate — the ~32 MB bound
#: ``Metric.matrix`` already uses.  DBSCAN sizes the neighbour rows it
#: fetches or holds at once from it, and so decides whether a fit fetches
#: its whole neighbour graph in one call.
PAIR_BUDGET_BYTES = 32 * 2**20

#: Bytes of ``(query, candidate)`` pair arrays one grid-join pass works
#: on.  A block of queries is cut into passes of this size, small enough
#: to stay in the CPU caches, and the pass buffers are reused from one
#: pass and one join to the next (``repro.index.grid``).
PASS_BUDGET_BYTES = 4 * 2**20


#: Metrics whose ``eps``-balls fit in the ``L_inf`` cube of half-width
#: :func:`coordinate_reach`: the grid takes only these, and brute force,
#: the kd-tree and the R-tree prune with such cubes.
LINF_BOUNDED_METRICS = frozenset(
    {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}
)


def coordinate_reach(metric: Metric, eps: float) -> float:
    """Half-width of the ``L_inf`` cube containing the ``eps``-ball.

    For euclidean/manhattan/chebyshev that is ``eps`` itself; for
    squared_euclidean the ball of squared radius ``eps`` has coordinate
    half-width ``sqrt(eps)`` (larger than ``eps`` when ``eps < 1`` —
    using ``eps`` there would silently drop true neighbors).
    """
    if eps <= 0:
        return 0.0
    if metric.name == "squared_euclidean":
        return math.sqrt(eps)
    return eps


def _budget_runs(ends: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Cut consecutive items, whose sizes are given as running totals
    ``ends``, into ``(lo, hi)`` runs of at most ``budget`` in total; an
    item over the budget runs alone."""
    m = ends.size
    if m == 0 or ends[-1] <= budget:
        return [(0, m)]
    bounds, lo = [], 0
    while lo < m:
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + budget, side="right")), lo + 1)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def require_finite(points: np.ndarray) -> None:
    """Refuse a float point array holding a NaN or infinite coordinate.

    Raises:
        ValueError: naming how many rows are bad and the first of them.
    """
    if not np.isfinite(points).all():
        rows = np.isfinite(points).reshape(len(points), -1).all(axis=1)
        bad = np.flatnonzero(~rows)
        raise ValueError(
            f"points must be finite; {bad.size} row(s) hold NaN or "
            f"infinite coordinates (first: row {int(bad[0])})"
        )


def _as_query_batch(queries: np.ndarray, dim: int) -> np.ndarray:
    """Normalize a batch of query points to a float array of shape ``(q, d)``.

    Accepts a batch without rows (an empty list, shape ``(0,)`` or ``(0,
    k)``; → shape ``(0, dim)``) so callers can issue degenerate batches
    without special-casing.  Emptiness is the row count: zero-dimensional
    queries hold no elements but are still queries.

    Raises:
        ValueError: for a batch with rows that is not 2-D or whose column
            count is not the index's ``dim``.
    """
    out = np.asarray(queries, dtype=float)
    if out.ndim and out.shape[0] == 0:
        return np.empty((0, dim), dtype=float)
    if out.ndim != 2:
        raise ValueError(f"queries must be a 2-D array, got shape {out.shape}")
    if out.shape[1] != dim:
        raise ValueError(
            f"queries have {out.shape[1]} columns but the index holds "
            f"{dim}-dimensional points"
        )
    return out


def _through(lengths: np.ndarray) -> np.ndarray:
    """Running totals with a leading zero: CSR offsets of ``lengths``."""
    out = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=out[1:])
    return out


def _csr(rows: list[np.ndarray], count_only: bool):
    """The batch answer of per-query hit arrays: their counts with
    ``count_only``, else CSR ``(hits, offsets)``, both fresh ``intp``."""
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    if count_only:
        return counts
    hits = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
    return hits.astype(np.intp, copy=False), _through(counts)


class NeighborIndex(abc.ABC):
    """Abstract exact ``Eps``-neighborhood index over a fixed point set.

    Subclasses index ``points`` (shape ``(n, d)``) under ``metric`` at
    construction time.  All queries are *exact*: approximate indexes would
    change DBSCAN's output and are out of scope for the reproduction.
    """

    def __init__(self, points: np.ndarray, metric: str | Metric = "euclidean") -> None:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
        if len(points) and not points.shape[1]:
            raise ValueError(
                f"points must have at least one coordinate, got shape {points.shape}"
            )
        require_finite(points)
        self._points = points
        self._metric = get_metric(metric)

    @property
    def points(self) -> np.ndarray:
        """The indexed point set (read-only view)."""
        return self._points

    @property
    def metric(self) -> Metric:
        """Metric the index was built under."""
        return self._metric

    def __len__(self) -> int:
        return self._points.shape[0]

    def region_query(self, index: int, eps: float) -> np.ndarray:
        """``N_Eps`` of an indexed point.

        Args:
            index: row index of the query point in the indexed set.
            eps: neighborhood radius (inclusive).

        Returns:
            Sorted integer array of neighbor indices; always contains
            ``index`` itself (a point is in its own ``Eps``-neighborhood).
        """
        return self.range_query(self._points[index], eps)

    @abc.abstractmethod
    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        """Indices of all indexed points within ``eps`` of ``query``.

        Args:
            query: point of shape ``(d,)``; need not be part of the index.
            eps: neighborhood radius (inclusive).

        Returns:
            Sorted integer array of matching indices.
        """

    def range_query_batch(
        self, queries: np.ndarray, eps: float, *, count_only: bool = False
    ):
        """Answer many range queries at once.

        Args:
            queries: array of shape ``(q, d)`` (an empty array is allowed
                and yields no rows).
            eps: neighborhood radius (inclusive), shared by all queries.
            count_only: return just the ``intp`` array of hit counts.

        Returns:
            ``(hits, offsets)`` in CSR form: fresh ``intp`` arrays, row
            ``k`` is ``hits[offsets[k]:offsets[k + 1]]``, ascending and
            equal to ``range_query(queries[k], eps)``; the ``q`` counts
            with ``count_only``.
        """
        dim = self._points.shape[1] if self._points.ndim == 2 else 0
        queries = _as_query_batch(queries, dim)
        return _csr(self._range_rows(queries, eps), count_only)

    def _range_rows(self, queries: np.ndarray, eps: float) -> list[np.ndarray]:
        """The sorted hits of each query row: the generic fallback loops
        over :meth:`range_query`; subclasses vectorize it."""
        return [self.range_query(query, eps) for query in queries]

    def region_query_batch(
        self, indices: np.ndarray, eps: float, *, count_only: bool = False
    ):
        """``N_Eps`` of many indexed points at once.

        Args:
            indices: integer array of row indices into the indexed set.
            eps: neighborhood radius (inclusive), shared by all queries.
            count_only: return just the neighbourhood sizes.

        Returns:
            ``(hits, offsets)`` in CSR form, as :meth:`range_query_batch`:
            row ``k`` equals ``region_query(indices[k], eps)``; the
            neighbourhood sizes with ``count_only``.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size == 0:
            return _csr([], count_only)
        return self._region_batch(indices, eps, count_only)

    def _region_batch(self, indices: np.ndarray, eps: float, count_only: bool):
        """The answer of a non-empty :meth:`region_query_batch`: the range
        queries of the indexed points (the grid joins their cells)."""
        return self.range_query_batch(
            self._points[indices], eps, count_only=count_only
        )

    def candidate_pairs(self, eps: float) -> int:
        """An upper bound on ``sum(len(region_query(i, eps)) for every i)``.

        Cheap and computed before any distance: the generic bound is
        ``n²``; indexes that prune by structure override it.
        """
        return len(self) ** 2

    def count_in_range(self, query: np.ndarray, eps: float) -> int:
        """Number of indexed points within ``eps`` of ``query``."""
        return int(self.range_query(query, eps).size)
