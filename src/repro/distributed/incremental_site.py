"""An incremental client site: evolving local data, lazy model retransmission.

Section 4's fourth argument for DBSCAN is the existence of an efficient
incremental version: "only if the local clustering changes 'considerably',
we have to transmit a new local model to the central site".  This module
implements that behaviour:

* the site keeps its objects as they arrive and depart, under stable ids
  (``0, 1, 2, …`` in arrival order, never reused),
* its ``REP_Scor`` local model is derived by
  :func:`~repro.core.local.build_rep_scor_model` over the live objects in
  id order — the one Scor path every site uses — at most once per change
  of the live set: the derived model is kept until the next arrival or
  departure,
* :func:`model_drift` quantifies how far the current model has moved
  from the last transmitted one, and
  :meth:`IncrementalClientSite.maybe_transmit` retransmits only when the
  drift exceeds a threshold.

Re-fitting costs one batch DBSCAN per derived model, and a site derives
about one model per round.  Maintaining the clustering per arrival and
departure instead (incremental DBSCAN) costs more, because a departure
can split a cluster that must then be re-expanded.

Drift measure: the symmetric share of representatives in either model that
are *not* covered (within their ε-range) by any representative of the other
model, plus any change in the local cluster count.  Two models describing
the same cluster areas have drift ~0 even if the concrete specific core
points differ — exactly the "considerable change" semantics the paper
wants.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.clustering.dbscan import density_parameters
from repro.core.local import build_rep_scor_model
from repro.core.models import LocalModel
from repro.data.distance import Metric, get_metric

__all__ = ["DriftReport", "IncrementalClientSite", "model_drift"]


@dataclass(frozen=True)
class DriftReport:
    """How much a local model moved since the last transmission.

    Attributes:
        uncovered_fraction: symmetric share of representatives not covered
            by the other model's representatives (0 = same areas).
        cluster_count_delta: absolute change in the number of local
            clusters described.
        drift: the scalar used against the threshold —
            ``uncovered_fraction + min(1, cluster_count_delta)``.
    """

    uncovered_fraction: float
    cluster_count_delta: int

    @property
    def drift(self) -> float:
        return self.uncovered_fraction + min(1, self.cluster_count_delta)


def _coverage_misses(
    sources: LocalModel, targets: LocalModel, metric: Metric
) -> int:
    """How many of ``sources``' reps no rep of ``targets`` covers."""
    if not len(targets):
        return len(sources)
    misses = 0
    for point in sources.points:
        distances = metric.to_many(point, targets.points)
        if not bool((distances <= targets.eps_ranges).any()):
            misses += 1
    return misses


def model_drift(
    old: LocalModel, new: LocalModel, *, metric: str | Metric = "euclidean"
) -> DriftReport:
    """Quantify the change between two local models of the same site.

    Args:
        old: the last transmitted model.
        new: the freshly derived model.
        metric: distance metric.

    Returns:
        A :class:`DriftReport`.
    """
    resolved = get_metric(metric)
    total = len(old) + len(new)
    if total == 0:
        uncovered = 0.0
    else:
        misses = _coverage_misses(new, old, resolved) + _coverage_misses(
            old, new, resolved
        )
        uncovered = misses / total
    return DriftReport(
        uncovered_fraction=uncovered,
        cluster_count_delta=abs(old.n_local_clusters - new.n_local_clusters),
    )


class IncrementalClientSite:
    """A client site whose data evolves over time.

    Objects take the ids ``0, 1, 2, …`` in arrival order; an id is never
    reused.

    Args:
        site_id: unique site identifier.
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        dim: object dimensionality.
        metric: distance metric.
        drift_threshold: retransmit when the drift exceeds this value.
    """

    def __init__(
        self,
        site_id: int,
        *,
        eps_local: float,
        min_pts_local: int,
        dim: int,
        metric: str | Metric = "euclidean",
        drift_threshold: float = 0.2,
    ) -> None:
        self.eps_local, self.min_pts_local = density_parameters(
            eps_local,
            min_pts_local,
            eps_name="eps_local",
            min_pts_name="min_pts_local",
        )
        if not drift_threshold >= 0:
            raise ValueError(f"drift_threshold must be >= 0, got {drift_threshold}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.site_id = site_id
        self.dim = int(dim)
        self.metric = get_metric(metric)
        self.drift_threshold = float(drift_threshold)
        # Every object ever added, in id order, in buffers that double
        # when full; ``_live`` marks the ones not removed yet.  Rows past
        # ``_n_ids`` are never read.
        self._points = np.empty((0, self.dim))
        self._live = np.empty(0, dtype=bool)
        self._n_ids = 0
        self._model: LocalModel | None = None
        self._transmitted: LocalModel | None = None
        self.n_transmissions = 0

    # ------------------------------------------------------------------
    # data evolution
    # ------------------------------------------------------------------
    def check_change(
        self, points: np.ndarray, object_ids: Iterable[int] = ()
    ) -> tuple[np.ndarray, list[int]]:
        """Check an arrival batch and the ids departing after it.

        Changes nothing.  The batch's objects would take the next ids, so
        ``object_ids`` may name them.

        Returns:
            ``(rows, ids)``: the arrivals as a ``(k, dim)`` float array (an
            empty arrival of any shape reads as zero rows) and the
            departing ids as a list.

        Raises:
            ValueError: for arrivals not shaped ``(k, dim)`` or holding a
                NaN or an infinite value.
            KeyError: for a departing id that is unknown, already removed
                or named twice.
        """
        rows = np.asarray(points, dtype=float)
        if rows.size == 0:
            rows = np.empty((0, self.dim))
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(
                f"site {self.site_id}: arrivals must be shaped (k, {self.dim}), "
                f"got {rows.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValueError(
                f"site {self.site_id}: arrivals must be finite, row "
                f"{bad[0]} holds a NaN or an infinite value"
            )
        ids = list(object_ids)
        seen: set[int] = set()
        for object_id in ids:
            arriving = self._n_ids <= object_id < self._n_ids + rows.shape[0]
            if object_id in seen or not (arriving or self._is_live(object_id)):
                raise KeyError(
                    f"site {self.site_id} has no live object with id {object_id}"
                )
            seen.add(object_id)
        return rows, ids

    def _is_live(self, object_id: int) -> bool:
        return 0 <= object_id < self._n_ids and bool(self._live[object_id])

    def add_object(self, point: np.ndarray) -> int:
        """Insert one object; returns its stable id."""
        row = np.asarray(point, dtype=float)
        if row.shape != (self.dim,):
            raise ValueError(
                f"site {self.site_id}: expected a ({self.dim},) point, "
                f"got shape {row.shape}"
            )
        return self.add_objects(row[np.newaxis])[0]

    def add_objects(self, points: np.ndarray) -> list[int]:
        """Insert a batch of objects; returns their stable ids.

        A batch with a malformed row adds none of its rows.
        """
        rows, __ = self.check_change(points)
        start, end = self._n_ids, self._n_ids + rows.shape[0]
        if end > self._live.size:
            capacity = max(end, 2 * self._live.size)
            self._points = np.resize(self._points, (capacity, self.dim))
            self._live = np.resize(self._live, capacity)
        self._points[start:end] = rows
        self._live[start:end] = True
        self._n_ids = end
        if rows.shape[0]:
            self._model = None
        return list(range(start, end))

    def remove_object(self, object_id: int) -> None:
        """Delete one object by its stable id.

        Raises:
            KeyError: if the id is unknown or already removed.
        """
        if not self._is_live(object_id):
            raise KeyError(
                f"site {self.site_id} has no live object with id {object_id}"
            )
        self._live[object_id] = False
        self._model = None

    @property
    def n_objects(self) -> int:
        """Current number of objects on the site."""
        return int(np.count_nonzero(self._live[: self._n_ids]))

    @property
    def n_local_clusters(self) -> int:
        """Number of local clusters of the current model's fit."""
        return self.current_model().n_local_clusters

    # ------------------------------------------------------------------
    # model derivation and transmission policy
    # ------------------------------------------------------------------
    def current_model(self) -> LocalModel:
        """The ``REP_Scor`` model of the live objects, in id order.

        Fitted on the first call after a change and kept until the next.
        """
        if self._model is None:
            live = self._points[: self._n_ids][self._live[: self._n_ids]]
            self._model = build_rep_scor_model(
                live,
                self.eps_local,
                self.min_pts_local,
                site_id=self.site_id,
                metric=self.metric,
            ).model
        return self._model

    def drift_since_transmission(self) -> DriftReport:
        """Drift of the current model vs the last transmitted one.

        A site that never transmitted reports maximal drift.
        """
        current = self.current_model()
        if self._transmitted is None:
            return DriftReport(uncovered_fraction=1.0, cluster_count_delta=max(1, current.n_local_clusters))
        return model_drift(self._transmitted, current, metric=self.metric)

    def maybe_transmit(self) -> LocalModel | None:
        """Return a fresh model iff the clustering changed considerably.

        Returns:
            The new :class:`~repro.core.models.LocalModel` when the drift
            exceeds the threshold (the site records it as transmitted), or
            ``None`` when the last transmitted model is still good enough.
        """
        current = self.current_model()
        if self._transmitted is not None:
            report = model_drift(self._transmitted, current, metric=self.metric)
            if report.drift <= self.drift_threshold:
                return None
        self._transmitted = current
        self.n_transmissions += 1
        return current

    @property
    def transmitted_model(self) -> LocalModel | None:
        """The last transmitted model (``None`` before the first one)."""
        return self._transmitted
