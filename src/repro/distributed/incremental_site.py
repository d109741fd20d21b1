"""An incremental client site: evolving local data, lazy model retransmission.

Section 4's fourth argument for DBSCAN is the existence of an efficient
incremental version: "only if the local clustering changes 'considerably',
we have to transmit a new local model to the central site".  This module
implements that behaviour:

* the site maintains its clustering with
  :class:`~repro.clustering.incremental.IncrementalDBSCAN` as objects
  arrive and depart,
* its ``REP_Scor`` local model can be derived from the maintained state at
  any time,
* :meth:`IncrementalClientSite.model_drift` quantifies how far the current
  model has moved from the last transmitted one, and
  :meth:`IncrementalClientSite.maybe_transmit` retransmits only when the
  drift exceeds a threshold.

Drift measure: the symmetric share of representatives in either model that
are *not* covered (within their ε-range) by any representative of the other
model, plus any change in the local cluster count.  Two models describing
the same cluster areas have drift ~0 even if the concrete specific core
points differ — exactly the "considerable change" semantics the paper
wants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.incremental import IncrementalDBSCAN
from repro.core.local import build_rep_scor_from_clustering
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
        if drift_threshold < 0:
            raise ValueError(f"drift_threshold must be >= 0, got {drift_threshold}")
        self.site_id = site_id
        self.eps_local = float(eps_local)
        self.min_pts_local = int(min_pts_local)
        self.metric = get_metric(metric)
        self.drift_threshold = float(drift_threshold)
        self._clustering = IncrementalDBSCAN(
            eps_local, min_pts_local, dim, metric=self.metric
        )
        self._transmitted: LocalModel | None = None
        self.n_transmissions = 0

    # ------------------------------------------------------------------
    # data evolution
    # ------------------------------------------------------------------
    def add_object(self, point: np.ndarray) -> int:
        """Insert one object; returns its stable id."""
        return self._clustering.insert(point)

    def add_objects(self, points: np.ndarray) -> list[int]:
        """Insert a batch of objects; returns their stable ids."""
        return [self._clustering.insert(p) for p in np.asarray(points, dtype=float)]

    def remove_object(self, object_id: int) -> None:
        """Delete one object by its stable id."""
        self._clustering.delete(object_id)

    @property
    def n_objects(self) -> int:
        """Current number of objects on the site."""
        return len(self._clustering)

    @property
    def n_local_clusters(self) -> int:
        """Current number of local clusters."""
        return self._clustering.cluster_count()

    # ------------------------------------------------------------------
    # model derivation and transmission policy
    # ------------------------------------------------------------------
    def current_model(self) -> LocalModel:
        """Derive the ``REP_Scor`` model from the maintained clustering."""
        points = self._clustering.points()
        labels = self._clustering.labels()
        live = self._clustering.live_indices()
        core = np.asarray(
            [self._clustering.is_core(int(i)) for i in live], dtype=bool
        )
        return build_rep_scor_from_clustering(
            points,
            labels,
            core,
            self.eps_local,
            self.min_pts_local,
            site_id=self.site_id,
            metric=self.metric,
        )

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
