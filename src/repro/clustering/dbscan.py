"""DBSCAN — the density-based clustering algorithm of Ester et al. (KDD'96).

This is the algorithm DBDC runs on every local site *and* (with adapted
parameters) on the server.  The implementation follows Definitions 1-5 of
the paper exactly:

* a *core object* has at least ``MinPts`` objects in its ``Eps``-
  neighborhood (which contains the object itself),
* clusters are maximal sets of density-connected objects,
* everything else is *noise*.

Objects are processed in a deterministic order (ascending index), which the
paper explicitly leans on: "the actual processing order of the objects
during the DBSCAN run determines a concrete set of specific core points"
(Section 5).  DBDC hooks into the run through the :class:`DBSCANObserver`
protocol — the local-model builders receive every core point *in processing
order* together with its neighborhood, exactly the information needed to
pick specific core points on the fly.

The run is level-synchronous and produces exactly the classic loop's
output (labels, core flags, ``n_region_queries``, the observer stream):

1. **Every row up front, when it fits.**  The index bounds the hits of a
   region query of every object (:meth:`NeighborIndex.candidate_pairs`;
   the grid sums its cell-pair candidates, other indexes answer n²).
   When the bound is within one BFS row block (``PAIR_BUDGET_BYTES //
   64`` neighbour entries), a single ``region_query_batch`` call fetches
   the whole ``Eps``-neighbourhood graph as CSR ``(hits, offsets)``: the
   row lengths ``np.diff(offsets)`` fix the core mask, and every BFS
   level slices its rows out of ``hits``.  On the grid
   that call takes the join's self mode, which evaluates each unordered
   candidate pair once and mirrors its hit: ``(candidates - n) / 2``
   distances instead of every candidate pair from both ends.  Larger
   inputs keep the budgeted path: one ``count_only`` call sizes every
   neighbourhood, and each level fetches its own rows.  Noise is never
   queried on its own on either path.
2. **Clusters start at core objects, in processing order.**  Each
   unlabelled core object opens the next cluster.
3. **Breadth-first expansion, one row fetch per level.**  The rows of the
   whole core frontier come as one flat array: slices of the graph's
   ``hits`` joined together, or the ``hits`` of one ``region_query_batch``
   call as they come.  The observer sees each frontier object with a view
   of its row, in order; then every still-unlabelled object in the flat
   rows is claimed, in order of first occurrence (found with one
   ``np.minimum.at`` into a per-fit position array, no sort), and the
   claimed core objects form the next level.  Both row sources feed this
   one expansion.

The classic loop pops seeds from a FIFO queue, so one "round" of it
processes exactly the seeds enqueued during the previous round — one BFS
level.  Within a level each core seed claims its unlabelled neighbours in
ascending index order, skipping those an earlier seed of the level already
claimed; concatenating the level's rows and keeping each unlabelled object
at its first occurrence is that same sequence.  Non-core seeds expand
nothing and emit nothing, so dropping them from the frontier changes no
event, and each object is still charged one region query, as the classic
loop charges it.  ``tests/test_dbscan_batched.py`` and
``tests/test_dbscan_oracle.py`` pin the equivalence against the classic
one-query-per-seed loop kept in ``tests/dbscan_oracle.py``, on both row
sources.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.clustering.labels import NOISE, UNCLASSIFIED, n_clusters
from repro.data.distance import Metric, get_metric
from repro.index import NeighborIndex, build_index
from repro.index.base import PAIR_BUDGET_BYTES, _budget_runs
from repro.obs import NULL_METRICS

__all__ = [
    "DBSCAN",
    "DBSCANResult",
    "DBSCANObserver",
    "dbscan",
    "density_parameters",
    "global_radius",
]


def density_parameters(
    eps: float,
    min_pts: int,
    *,
    eps_name: str = "eps",
    min_pts_name: str = "min_pts",
) -> tuple[float, int]:
    """Check DBSCAN's two parameters and return them as ``(float, int)``.

    ``Eps`` must be positive and finite; ``MinPts`` a whole number of at
    least one (whole-valued floats and NumPy integers are accepted).

    Raises:
        ValueError: naming the offending parameter (``eps_name`` or
            ``min_pts_name``) and its value.
    """
    radius = float(eps)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"{eps_name} must be positive and finite, got {eps}")
    count = float(min_pts)
    if not (count.is_integer() and count >= 1):
        raise ValueError(f"{min_pts_name} must be a whole number >= 1, got {min_pts}")
    return radius, int(count)


def global_radius(eps_global: float | None) -> float | None:
    """Check DBDC's server merge radius ``eps_global``: ``None`` (the
    owner's default) or positive and finite, returned as a float.

    Raises:
        ValueError: naming ``eps_global`` and its value.
    """
    if eps_global is None:
        return None
    radius = float(eps_global)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(
            f"eps_global must be None or positive and finite, got {eps_global}"
        )
    return radius


#: The rows of one frontier block: every row's hits in one flat array, in
#: block order, and each row as a view of its hits (the per-level source
#: makes those only as the observer reads them).
_Rows = tuple[np.ndarray, Iterable[np.ndarray]]


def _region_query_batch(
    index: NeighborIndex, block: np.ndarray, eps: float, metrics, count_only=False
):
    """``index.region_query_batch(block, eps)``, recording the ``index.*``
    metrics of a non-empty call into an enabled registry: the queries,
    the call and its size, every neighbourhood size and the seconds
    inside the index."""
    if not (metrics.enabled and block.size):
        return index.region_query_batch(block, eps, count_only=count_only)
    start = time.perf_counter()
    answer = index.region_query_batch(block, eps, count_only=count_only)
    seconds = time.perf_counter() - start
    metrics.inc("index.region_queries", block.size)
    metrics.inc("index.query_seconds", seconds)
    metrics.inc("index.batch_queries")
    metrics.observe("index.batch_size", block.size)
    for count in (answer if count_only else np.diff(answer[1])).tolist():
        metrics.observe("index.neighbors_per_query", count)
    return answer


def _row_budget() -> int:
    """Neighbour entries one BFS row block may hold.  A block's neighbours
    live in a few index-sized arrays at once (the rows, their
    concatenation, their labels, the claims)."""
    return PAIR_BUDGET_BYTES // (8 * np.dtype(np.intp).itemsize)


class DBSCANObserver(Protocol):
    """Callback protocol invoked during a DBSCAN run.

    Implementations receive events in processing order; DBDC's specific-
    core-point selector is the canonical observer.
    """

    def on_cluster_start(self, cluster_id: int, seed_index: int) -> None:
        """A new cluster ``cluster_id`` starts expanding from ``seed_index``."""

    def on_core_point(
        self, index: int, cluster_id: int, neighbors: np.ndarray
    ) -> None:
        """``index`` was identified as a core point of ``cluster_id``.

        Args:
            index: the core object's row index.
            cluster_id: cluster being expanded.
            neighbors: indices of ``N_Eps(index)`` (includes ``index``).
        """


@dataclass
class DBSCANResult:
    """Outcome of one DBSCAN run.

    Attributes:
        labels: per-object cluster id, ``NOISE`` (-1) for noise.
        core_mask: boolean array, ``True`` for core objects.
        eps: the ``Eps`` parameter used.
        min_pts: the ``MinPts`` parameter used.
        n_region_queries: number of ``Eps``-range queries issued (cost
            proxy used by the efficiency experiments).
        index: the neighbor index built for (or passed into) the run;
            reusable for follow-up queries such as specific ε-ranges.
    """

    labels: np.ndarray
    core_mask: np.ndarray
    eps: float
    min_pts: int
    n_region_queries: int
    index: NeighborIndex = field(repr=False)

    @property
    def n_clusters(self) -> int:
        """Number of clusters found."""
        return n_clusters(self.labels)

    @property
    def n_noise(self) -> int:
        """Number of noise objects."""
        return int(np.count_nonzero(self.labels == NOISE))

    def members(self, cluster_id: int) -> np.ndarray:
        """Sorted indices of the objects in ``cluster_id``."""
        return np.flatnonzero(self.labels == cluster_id)

    def core_points_of(self, cluster_id: int) -> np.ndarray:
        """Sorted indices of the *core* objects of ``cluster_id``."""
        return np.flatnonzero((self.labels == cluster_id) & self.core_mask)


class DBSCAN:
    """Configurable DBSCAN runner.

    Args:
        eps: neighborhood radius ``Eps``.
        min_pts: density threshold ``MinPts`` (neighborhood cardinality,
            the query object included — as in Definition 1).
        metric: distance metric name or instance.
        index_kind: neighbor index to build (``"auto"`` picks the grid for
            ``L_p`` metrics, see :func:`repro.index.build_index`).

    Raises:
        ValueError: for a non-positive or non-finite ``eps``, or a
            ``min_pts`` that is not a whole number ``>= 1``.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        *,
        metric: str | Metric = "euclidean",
        index_kind: str = "auto",
    ) -> None:
        self.eps, self.min_pts = density_parameters(eps, min_pts)
        self.metric = get_metric(metric)
        self.index_kind = index_kind

    def fit(
        self,
        points: np.ndarray,
        *,
        index: NeighborIndex | None = None,
        observer: DBSCANObserver | None = None,
        order: Sequence[int] | None = None,
        metrics=None,
    ) -> DBSCANResult:
        """Cluster ``points``.

        Args:
            points: array of shape ``(n, d)``.
            index: pre-built neighbor index over the same points
                (``points`` itself or an equal array); built automatically
                when omitted.
            observer: optional event sink (see :class:`DBSCANObserver`).
            order: processing order of start objects; defaults to
                ascending index.  Must be a permutation of ``range(n)``.
            metrics: optional :class:`~repro.obs.MetricsRegistry`.  The
                run records its counters (``dbscan.*``) and the metrics of
                its own ``region_query_batch`` calls (``index.*``).  Labels
                and query counts are identical with or without it.

        Returns:
            A :class:`DBSCANResult`.

        Raises:
            ValueError: if ``index`` holds other points than ``points``,
                or ``order`` is not a permutation.
        """
        metrics = NULL_METRICS if metrics is None else metrics
        points = np.asarray(points, dtype=float)
        n = points.shape[0] if points.ndim == 2 else 0
        if index is None:
            index = build_index(
                points, self.index_kind, metric=self.metric, eps=self.eps
            )
        elif index.points is not points and not np.array_equal(index.points, points):
            raise ValueError(
                f"the index holds other points (shape {index.points.shape}) "
                f"than the fit clusters (shape {points.shape})"
            )
        if order is None:
            start_order = np.arange(n, dtype=np.intp)
        else:
            start_order = np.asarray(list(order), dtype=np.intp)
            if start_order.shape != (n,) or not np.array_equal(
                np.sort(start_order), np.arange(n)
            ):
                raise ValueError("order must be a permutation of range(n)")
        labels = np.full(n, UNCLASSIFIED, dtype=np.intp)
        # Per object, its first position among a level's claims: a working
        # array of this fit (never of the instance, which threads may share).
        first = np.empty(n, dtype=np.intp)
        next_cluster = 0
        everyone = np.arange(n, dtype=np.intp)
        if index.candidate_pairs(self.eps) <= _row_budget():
            # The whole graph fits one row block: fetch it once, read the
            # counts off its row lengths and every level's rows out of it.
            graph, offsets = _region_query_batch(index, everyone, self.eps, metrics)
            counts = np.diff(offsets)
            bounds = offsets.tolist()

            def rows(block: np.ndarray) -> _Rows:
                views = [graph[bounds[i] : bounds[i + 1]] for i in block.tolist()]
                return np.concatenate(views), views

        else:
            counts = _region_query_batch(
                index, everyone, self.eps, metrics, count_only=True
            )

            def rows(block: np.ndarray) -> _Rows:
                hits, offsets = _region_query_batch(index, block, self.eps, metrics)
                bounds = offsets.tolist()
                return hits, (hits[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

        core_mask = counts >= self.min_pts
        for start in start_order[core_mask[start_order]].tolist():
            if labels[start] != UNCLASSIFIED:
                continue
            cluster_id = next_cluster
            next_cluster += 1
            if observer is not None:
                observer.on_cluster_start(cluster_id, start)
            labels[start] = cluster_id
            self._expand(
                rows,
                np.asarray([start], dtype=np.intp),
                cluster_id,
                labels,
                first,
                core_mask,
                counts,
                observer,
                metrics,
            )
        labels[labels == UNCLASSIFIED] = NOISE
        # The classic loop's cost proxy: one region query per object.
        queries = n
        metrics.inc("dbscan.runs")
        metrics.inc("dbscan.region_queries", queries)
        metrics.observe("dbscan.clusters", next_cluster)
        return DBSCANResult(
            labels=labels,
            core_mask=core_mask,
            eps=self.eps,
            min_pts=self.min_pts,
            n_region_queries=queries,
            index=index,
        )

    def _expand(
        self,
        rows: Callable[[np.ndarray], _Rows],
        frontier: np.ndarray,
        cluster_id: int,
        labels: np.ndarray,
        first: np.ndarray,
        core_mask: np.ndarray,
        counts: np.ndarray,
        observer: DBSCANObserver | None,
        metrics,
    ) -> None:
        """Grow ``cluster_id`` level by level from a labelled core frontier.

        Each level takes its rows from ``rows`` (slices of the held graph,
        or one ``region_query_batch`` call), cut into blocks of at most one
        row budget of neighbour entries when the rows would be larger (the
        neighbourhood sizes are known up front).
        """
        row_budget = _row_budget()
        while frontier.size:
            metrics.observe("dbscan.frontier_batch_size", frontier.size)
            runs = _budget_runs(np.cumsum(counts[frontier]), row_budget)
            frontier = np.concatenate(
                [
                    self._claim(
                        rows,
                        frontier[lo:hi],
                        cluster_id,
                        labels,
                        first,
                        core_mask,
                        observer,
                    )
                    for lo, hi in runs
                ]
            )

    def _claim(
        self,
        rows: Callable[[np.ndarray], _Rows],
        block: np.ndarray,
        cluster_id: int,
        labels: np.ndarray,
        first: np.ndarray,
        core_mask: np.ndarray,
        observer: DBSCANObserver | None,
    ) -> np.ndarray:
        """Fetch the rows of one frontier block, report each frontier
        object to the observer in order, and claim the rows' unlabelled
        objects in order of first occurrence (see the module docstring).

        ``first`` is the fit's working array of first positions: each
        unlabelled entry writes its position there, the least one stays,
        and only the entries the block touches are reset, so a block costs
        O(its rows), never O(n).

        Returns:
            The claimed core objects, in claim order: the next level.
        """
        reached, block_rows = rows(block)
        if observer is not None:
            for current, neighbors in zip(block.tolist(), block_rows):
                observer.on_core_point(current, cluster_id, neighbors)
        fresh = reached[labels[reached] == UNCLASSIFIED]
        position = np.arange(fresh.size)
        first[fresh] = fresh.size
        np.minimum.at(first, fresh, position)
        fresh = fresh[first[fresh] == position]
        labels[fresh] = cluster_id
        return fresh[core_mask[fresh]]


def dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    metric: str | Metric = "euclidean",
    index_kind: str = "auto",
    index: NeighborIndex | None = None,
    observer: DBSCANObserver | None = None,
    metrics=None,
) -> DBSCANResult:
    """Functional one-shot wrapper around :class:`DBSCAN`.

    Args:
        points: array of shape ``(n, d)``.
        eps: neighborhood radius.
        min_pts: density threshold.
        metric: metric name or instance.
        index_kind: neighbor index kind.
        index: optional pre-built index.
        observer: optional run observer.
        metrics: optional :class:`~repro.obs.MetricsRegistry` (see
            :meth:`DBSCAN.fit`).

    Returns:
        A :class:`DBSCANResult`.
    """
    runner = DBSCAN(eps, min_pts, metric=metric, index_kind=index_kind)
    return runner.fit(points, index=index, observer=observer, metrics=metrics)
