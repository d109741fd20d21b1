"""Multi-round streaming simulation: evolving sites, lazy resynchronization.

This composes the incremental extensions the paper motivates into a
complete running system:

* every client site keeps its objects as they arrive and depart, and
  re-fits them into a local model when it derives one,
* a site re-transmits its local model only when it drifted "considerably"
  (§4), and
* the server rebuilds the global model from the latest models and
  broadcasts it, so all sites stay relabeled (§6/§7).

:class:`StreamingScenario` drives rounds of arrivals and departures and
records, per round, how many sites actually re-transmitted, the traffic
spent, and the size of the global model — the numbers that show why the
lazy policy matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.dbscan import density_parameters, global_radius
from repro.core.global_model import build_global_model
from repro.core.models import GlobalModel, LocalModel
from repro.data.distance import Metric, get_metric
from repro.distributed.incremental_site import IncrementalClientSite
from repro.distributed.network import SERVER, SimulatedNetwork
from repro.faults.transport import ResilientTransport

__all__ = ["RoundStats", "StreamingScenario"]


@dataclass(frozen=True)
class RoundStats:
    """Bookkeeping of one scenario round.

    Attributes:
        round_index: 0-based round number.
        arrivals: objects inserted this round (across sites).
        departures: objects removed this round.
        sites_transmitted: sites whose fresh model reached the server.
        bytes_up: model bytes put on the upstream wire this round
            (includes failed/retried attempts when a transport is used).
        n_global_clusters: clusters in the refreshed global model.
        n_representatives: representatives in the refreshed global model.
        sites_failed: sites whose upload was lost this round (they retry
            next round; the server keeps their stale model meanwhile).
    """

    round_index: int
    arrivals: int
    departures: int
    sites_transmitted: int
    bytes_up: int
    n_global_clusters: int
    n_representatives: int
    sites_failed: int = 0


class StreamingScenario:
    """Drive incremental sites and a lazily-refreshed global model.

    Args:
        n_sites: number of client sites.
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        dim: object dimensionality.
        eps_global: server merge radius (``None`` → ``2·eps_local``, the
            paper's observed default — a streaming server cannot wait for
            all ε_r values).
        drift_threshold: per-site retransmission threshold.
        metric: distance metric.
        network: optional pre-configured simulated network.
        transport: optional fault-injecting transport (built over this
            scenario's network); when a site's upload is lost despite the
            retries, the server reuses the site's stale model and the
            site re-transmits on the next round.
    """

    def __init__(
        self,
        n_sites: int,
        *,
        eps_local: float,
        min_pts_local: int,
        dim: int = 2,
        eps_global: float | None = None,
        drift_threshold: float = 0.2,
        metric: str | Metric = "euclidean",
        network: SimulatedNetwork | None = None,
        transport: ResilientTransport | None = None,
    ) -> None:
        if n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {n_sites}")
        eps_local, min_pts_local = density_parameters(
            eps_local,
            min_pts_local,
            eps_name="eps_local",
            min_pts_name="min_pts_local",
        )
        self.metric = get_metric(metric)
        eps_global = global_radius(eps_global)
        self.eps_global = eps_global if eps_global is not None else 2.0 * eps_local
        self.network = network or SimulatedNetwork()
        if transport is not None and transport.network is not self.network:
            raise ValueError(
                "transport must wrap this scenario's network "
                "(pass the same SimulatedNetwork to both)"
            )
        self.transport = transport
        self._retry_pending: set[int] = set()
        self.sites = [
            IncrementalClientSite(
                site_id,
                eps_local=eps_local,
                min_pts_local=min_pts_local,
                dim=dim,
                metric=self.metric,
                drift_threshold=drift_threshold,
            )
            for site_id in range(n_sites)
        ]
        self._latest_models: dict[int, LocalModel] = {}
        self._global_model: GlobalModel | None = None
        self.history: list[RoundStats] = []

    @property
    def global_model(self) -> GlobalModel:
        """The current global model (raises before the first round)."""
        if self._global_model is None:
            raise RuntimeError("no round has run yet")
        return self._global_model

    def run_round(
        self,
        arrivals: list[np.ndarray],
        departures: list[list[int]] | None = None,
    ) -> RoundStats:
        """Execute one round: mutate the sites, resync lazily, rebuild.

        Every site's arrivals and departures are checked before any site
        changes, so a refused round changes nothing.

        Args:
            arrivals: per site, an array of new objects (may be empty).
            departures: per site, stable object ids to remove; the ids of
                this round's arrivals count as live.

        Returns:
            The round's :class:`RoundStats`.

        Raises:
            ValueError: when the per-site lists do not match ``n_sites``,
                or when a site's arrivals are not shaped ``(k, dim)`` or
                hold a NaN or an infinite value.
            KeyError: when a departure names an id that is not live on
                its site, or names it twice.
        """
        if len(arrivals) != len(self.sites):
            raise ValueError(
                f"expected {len(self.sites)} arrival arrays, got {len(arrivals)}"
            )
        if departures is None:
            departures = [[] for __ in self.sites]
        if len(departures) != len(self.sites):
            raise ValueError(
                f"expected {len(self.sites)} departure lists, got {len(departures)}"
            )

        changes = [
            site.check_change(new_points, leaving)
            for site, new_points, leaving in zip(self.sites, arrivals, departures)
        ]
        n_arrived = 0
        n_departed = 0
        for site, (rows, leaving) in zip(self.sites, changes):
            site.add_objects(rows)
            for object_id in leaving:
                site.remove_object(object_id)
            n_arrived += rows.shape[0]
            n_departed += len(leaving)

        # Lazy resync: only drifted sites upload a fresh model (plus sites
        # whose previous upload was lost and must retry).
        bytes_up = 0
        transmitted = 0
        failed = 0
        for site in self.sites:
            model = site.maybe_transmit()
            if model is None:
                if site.site_id not in self._retry_pending:
                    continue
                model = site.current_model()
            payload = model.to_bytes()
            if self.transport is None:
                message = self.network.send(
                    site.site_id, SERVER, "local_model", payload
                )
                bytes_up += message.n_bytes
                delivered = True
            else:
                outcome = self.transport.deliver(
                    site.site_id, SERVER, "local_model", payload
                )
                bytes_up += outcome.bytes_sent
                # A delivered-but-corrupt payload is useless to the
                # server: treat it as a failed upload and retry next
                # round, exactly like a lost one.
                delivered = outcome.delivered and outcome.checksum_ok
            if delivered:
                transmitted += 1
                self._latest_models[site.site_id] = model
                self._retry_pending.discard(site.site_id)
            else:
                failed += 1
                self._retry_pending.add(site.site_id)

        self._global_model, __ = build_global_model(
            list(self._latest_models.values()),
            eps_global=self.eps_global,
            metric=self.metric,
        )
        stats = RoundStats(
            round_index=len(self.history),
            arrivals=n_arrived,
            departures=n_departed,
            sites_transmitted=transmitted,
            bytes_up=bytes_up,
            n_global_clusters=self._global_model.n_global_clusters,
            n_representatives=len(self._global_model),
            sites_failed=failed,
        )
        self.history.append(stats)
        return stats

    def total_bytes_up(self) -> int:
        """Total model bytes uploaded across all rounds."""
        return sum(stats.bytes_up for stats in self.history)

    def eager_bytes_up(self) -> int:
        """What an *eager* policy (every site, every round) would have
        uploaded, estimated with the current model sizes."""
        per_round = sum(
            len(site.current_model().to_bytes()) for site in self.sites
        )
        return per_round * max(1, len(self.history))
