"""A client site: owns local data, clusters it, builds and ships its model.

The site object is deliberately self-contained — it never reads another
site's points, mirroring the paper's architecture where "we abstain from an
additional communication between the various client sites as we assume that
they are independent from each other" (Section 2.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.clustering.dbscan import density_parameters
from repro.clustering.labels import NOISE
from repro.core.local import LocalClusteringOutcome, build_local_model
from repro.core.models import GlobalModel, LocalModel
from repro.core.relabel import CoverMemo, RelabelStats, relabel_site
from repro.data.distance import Metric, get_metric

__all__ = ["ClientSite"]


@dataclass
class _SitePhaseTimes:
    """Per-site phase timings, clock-named: ``*_wall_seconds`` is elapsed
    ``perf_counter`` time, ``*_cpu_seconds`` is this-thread CPU time
    (``time.thread_time``) — the two diverge whenever the phase ran in a
    contended worker pool."""

    local_wall_seconds: float = 0.0
    local_cpu_seconds: float = 0.0
    relabel_wall_seconds: float = 0.0
    relabel_cpu_seconds: float = 0.0


class ClientSite:
    """One client of the DBDC protocol.

    Args:
        site_id: unique site identifier.
        points: the site's objects, shape ``(n, d)``.
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme (``"rep_scor"`` / ``"rep_kmeans"``).
        metric: distance metric.
        relabel_kernel: coverage kernel of the update step (``"auto"`` /
            ``"vectorized"`` / ``"reference"``; bit-identical labels).
    """

    def __init__(
        self,
        site_id: int,
        points: np.ndarray,
        *,
        eps_local: float,
        min_pts_local: int,
        scheme: str = "rep_scor",
        metric: str | Metric = "euclidean",
        relabel_kernel: str = "auto",
    ) -> None:
        self.site_id = site_id
        self.points = np.asarray(points, dtype=float)
        self.eps_local, self.min_pts_local = density_parameters(
            eps_local,
            min_pts_local,
            eps_name="eps_local",
            min_pts_name="min_pts_local",
        )
        self.scheme = scheme
        self.metric = get_metric(metric)
        self.relabel_kernel = relabel_kernel
        self.times = _SitePhaseTimes()
        self.failure: str | None = None
        self._outcome: LocalClusteringOutcome | None = None
        self._global_labels: np.ndarray | None = None
        self._relabel_stats: RelabelStats | None = None
        self._cover_memo: CoverMemo | None = None

    # ------------------------------------------------------------------
    # protocol steps
    #
    # Each step is split into a ``compute_*`` part and an ``apply_*`` part
    # that stores the result on the site.  The split lets
    # DistributedRunner fan the compute out over worker threads *or worker
    # processes* (where mutations of a pickled copy would be lost) and
    # apply the returned results to the runner's own site objects.  The only
    # state a compute part touches is the relabel cover memo, a cache
    # whose loss costs a full relabel, never a different label.
    # ------------------------------------------------------------------
    def compute_local_clustering(
        self, *, tracer=None, metrics=None
    ) -> tuple[LocalClusteringOutcome, float, float]:
        """Pure part of steps 1+2: cluster locally, derive the local model.

        Args:
            tracer: optional :class:`~repro.obs.Tracer` receiving the
                ``dbscan`` / ``derive_model`` spans of this site.
            metrics: optional :class:`~repro.obs.MetricsRegistry`.

        Returns:
            ``(outcome, wall_seconds, cpu_seconds)`` — elapsed wall time
            and this-thread CPU time; nothing is stored on the site.
        """
        wall_start = time.perf_counter()
        cpu_start = time.thread_time()
        outcome = build_local_model(
            self.points,
            self.eps_local,
            self.min_pts_local,
            scheme=self.scheme,
            site_id=self.site_id,
            metric=self.metric,
            tracer=tracer,
            metrics=metrics,
        )
        return (
            outcome,
            time.perf_counter() - wall_start,
            time.thread_time() - cpu_start,
        )

    def apply_local_outcome(
        self,
        outcome: LocalClusteringOutcome,
        wall_seconds: float,
        cpu_seconds: float = 0.0,
    ) -> LocalModel:
        """Store a local clustering outcome and return the model to ship."""
        self._outcome = outcome
        self.times.local_wall_seconds = wall_seconds
        self.times.local_cpu_seconds = cpu_seconds
        return outcome.model

    def run_local_clustering(self) -> LocalModel:
        """Steps 1+2: cluster locally, derive the local model.

        Returns:
            The :class:`~repro.core.models.LocalModel` to transmit.
        """
        return self.apply_local_outcome(*self.compute_local_clustering())

    def compute_relabel(
        self, model: GlobalModel
    ) -> tuple[np.ndarray, RelabelStats, float, float]:
        """Compute part of step 4: global labels for this site.

        Args:
            model: the broadcast global model.

        Returns:
            ``(global_labels, stats, wall_seconds, cpu_seconds)``.  The
            call advances the site's cover memo (allocated on the first
            relabel), so a model that appends to the last one relabeled
            joins only its new representatives; :meth:`apply_relabel`
            still stores the labels.

        Raises:
            RuntimeError: when called before :meth:`run_local_clustering`.
        """
        if self._outcome is None:
            raise RuntimeError("run_local_clustering must run before relabeling")
        if self._cover_memo is None:
            self._cover_memo = CoverMemo()
        wall_start = time.perf_counter()
        cpu_start = time.thread_time()
        global_labels, stats = relabel_site(
            self.points,
            self._outcome.clustering.labels,
            model,
            site_id=self.site_id,
            metric=self.metric,
            kernel=self.relabel_kernel,
            memo=self._cover_memo,
        )
        return (
            global_labels,
            stats,
            time.perf_counter() - wall_start,
            time.thread_time() - cpu_start,
        )

    def apply_relabel(
        self,
        global_labels: np.ndarray,
        stats: RelabelStats,
        wall_seconds: float,
        cpu_seconds: float = 0.0,
    ) -> RelabelStats:
        """Store a relabeling result on the site."""
        self._global_labels = global_labels
        self._relabel_stats = stats
        self.times.relabel_wall_seconds = wall_seconds
        self.times.relabel_cpu_seconds = cpu_seconds
        return stats

    def apply_degraded_labels(self, reason: str, *, id_offset: int) -> int:
        """Fall back to local labels after missing the global round.

        The degraded-mode guarantee (see ``docs/fault_model.md``): a site
        that crashed before its local phase has nothing — every object is
        noise; a site that clustered locally but never merged keeps its
        local clusters, renumbered into fresh global ids starting at
        ``id_offset`` so they cannot collide with the global model's ids
        (or another failed site's).  Local noise stays noise either way.

        Args:
            reason: why the site missed the round (recorded on
                :attr:`failure`).
            id_offset: first global cluster id this site may use.

        Returns:
            The next free global cluster id.
        """
        self.failure = reason
        n = self.points.shape[0]
        if self._outcome is None:
            labels = np.full(n, NOISE, dtype=np.intp)
            next_offset = id_offset
        else:
            labels = np.array(
                self._outcome.clustering.labels, dtype=np.intp, copy=True
            )
            clustered = labels >= 0
            n_local = int(labels[clustered].max()) + 1 if clustered.any() else 0
            labels[clustered] += id_offset
            next_offset = id_offset + n_local
        n_noise = int((labels == NOISE).sum())
        self.apply_relabel(
            labels,
            RelabelStats(
                n_objects=n,
                n_covered=0,
                n_noise_promoted=0,
                n_inherited=0,
                n_still_noise=n_noise,
                n_local_clusters_merged=0,
            ),
            0.0,
        )
        return next_offset

    def receive_global_model(self, model: GlobalModel) -> RelabelStats:
        """Step 4: relabel local objects with global cluster ids.

        Args:
            model: the broadcast global model.

        Returns:
            The site's :class:`~repro.core.relabel.RelabelStats`.

        Raises:
            RuntimeError: when called before :meth:`run_local_clustering`.
        """
        return self.apply_relabel(*self.compute_relabel(model))

    # ------------------------------------------------------------------
    # post-protocol queries (Section 7: "give me all objects on your site
    # which belong to the global cluster 4711")
    # ------------------------------------------------------------------
    @property
    def local_outcome(self) -> LocalClusteringOutcome:
        """The site's local clustering (raises before step 1)."""
        if self._outcome is None:
            raise RuntimeError("local clustering has not run yet")
        return self._outcome

    @property
    def global_labels(self) -> np.ndarray:
        """Per-object global labels (raises before step 4)."""
        if self._global_labels is None:
            raise RuntimeError("global model has not been received yet")
        return self._global_labels

    @property
    def relabel_stats(self) -> RelabelStats:
        """Relabeling bookkeeping (raises before step 4)."""
        if self._relabel_stats is None:
            raise RuntimeError("global model has not been received yet")
        return self._relabel_stats

    def objects_of_global_cluster(self, global_id: int) -> np.ndarray:
        """Answer the server's membership query for one global cluster.

        Args:
            global_id: a global cluster id.

        Returns:
            The site's objects belonging to that cluster, shape ``(m, d)``.
        """
        members = np.flatnonzero(self.global_labels == global_id)
        return self.points[members]

    def noise_objects(self) -> np.ndarray:
        """The site's objects that remain noise after the global update."""
        members = np.flatnonzero(self.global_labels == NOISE)
        return self.points[members]
