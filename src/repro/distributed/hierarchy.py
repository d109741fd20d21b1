"""Hierarchical DBDC: sites → regional servers → one global server.

A natural extension of the paper's two-level architecture to organizations
whose sites are themselves grouped — the paper's own DaimlerChrysler
motivation ("some data ... in Europe and some data in the US") suggests a
continental tier between stores and headquarters.

The key observation making this work: a *local model* is just a set of
``(r, ε_r)`` pairs, and that shape is closed under aggregation.  A regional
server therefore:

1. collects the local models of its sites,
2. **condenses** them: a representative that lies within ``Eps_local`` of
   an already-kept representative is dropped, and the kept one's ε-range
   grows to ``max(ε_kept, dist + ε_dropped)`` so every object the dropped
   representative covered stays covered (the same greedy idea as
   Definition 6, lifted one level up),
3. forwards only the condensed set over the long-haul link.

The top server merges the condensed regional models exactly like the flat
server would, and the global model is broadcast down the tree; every site
relabels as usual (§7 unchanged).  Condensation preserves *coverage*, so
the relabeled clustering stays close to the flat run's, while the
long-haul link carries a fraction of the flat topology's traffic — the
trade the tests and the hierarchy example quantify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.global_model import build_global_model
from repro.core.models import GlobalModel, LocalModel, stack_columns
from repro.data.distance import Metric, get_metric
from repro.distributed.network import SERVER, NetworkStats, SimulatedNetwork
from repro.distributed.site import ClientSite

__all__ = [
    "RegionReport",
    "HierarchicalReport",
    "condense_models",
    "run_hierarchical_dbdc",
]


def condense_models(
    models: list[LocalModel],
    radius: float,
    *,
    region_id: int = 0,
    metric: str | Metric = "euclidean",
) -> LocalModel:
    """Coverage-preserving condensation of several local models into one.

    Representatives are scanned in order; one that falls within ``radius``
    of an already-kept representative is absorbed into it — the kept
    representative's ε-range grows to ``max(ε_kept, dist + ε_absorbed)``
    so the absorbed representative's whole area remains covered.

    Args:
        models: the local models to aggregate.
        radius: absorption radius (use the sites' ``Eps_local``; larger
            radii condense harder at the cost of coarser ε-ranges).
        region_id: stamped as the condensed model's ``site_id``.
        metric: distance metric.

    Returns:
        One :class:`~repro.core.models.LocalModel` covering everything the
        inputs covered, usually with far fewer representatives.
    """
    resolved = get_metric(metric)
    points, eps_ranges, site_ids, local_ids = stack_columns(models)
    kept: list[int] = []
    kept_ranges: list[float] = []
    for i, (point, eps_range) in enumerate(zip(points, eps_ranges.tolist())):
        if kept:
            distances = resolved.to_many(point, points[kept])
            nearest = int(np.argmin(distances))
            if distances[nearest] <= radius:
                kept_ranges[nearest] = max(
                    kept_ranges[nearest], float(distances[nearest]) + eps_range
                )
                continue
        kept.append(i)
        kept_ranges.append(eps_range)
    scheme = models[0].scheme if models else "rep_scor"
    eps_local = models[0].eps_local if models else 0.0
    min_pts = models[0].min_pts_local if models else 0
    return LocalModel(
        site_id=region_id,
        points=points[kept],
        eps_ranges=kept_ranges,
        local_cluster_ids=local_ids[kept],
        n_objects=sum(model.n_objects for model in models),
        scheme=scheme,
        eps_local=eps_local,
        min_pts_local=min_pts,
        site_ids=site_ids[kept],
    )


@dataclass
class RegionReport:
    """One regional server's view.

    Attributes:
        region_id: index of the region.
        site_ids: global ids of the sites under this region.
        n_received_representatives: representatives received from sites.
        n_forwarded_representatives: representatives after condensation.
        bytes_up_sites: site → region traffic.
        bytes_up_region: region → top traffic (condensed model).
        n_quarantined_models: site models the regional server's admission
            gate refused (``LocalModel.validate`` problems); they are
            excluded from condensation, like the central server's
            quarantine bucket.
    """

    region_id: int
    site_ids: list[int]
    n_received_representatives: int
    n_forwarded_representatives: int
    bytes_up_sites: int
    bytes_up_region: int
    n_quarantined_models: int = 0


@dataclass
class HierarchicalReport:
    """Outcome of a hierarchical DBDC run.

    Attributes:
        sites: all client sites (flat order; relabeled).
        regions: per-region bookkeeping.
        global_model: the top server's model (broadcast to every site).
        flat_equivalent_bytes: long-haul traffic of a flat topology
            (every site's model crossing the long-haul link).
        long_haul_bytes: long-haul traffic of the hierarchy (one condensed
            model per region).
        network: aggregated statistics of every message the run put on
            the network — ``bytes_by_kind`` splits the traffic into the
            three hops (``local_model`` site→region, ``regional_model``
            region→top, ``global_model`` broadcast).
    """

    sites: list[ClientSite]
    regions: list[RegionReport]
    global_model: GlobalModel
    flat_equivalent_bytes: int
    long_haul_bytes: int
    network: NetworkStats = field(default_factory=NetworkStats)

    @property
    def long_haul_saving(self) -> float:
        """Long-haul traffic as a fraction of the flat topology's."""
        if self.flat_equivalent_bytes == 0:
            return 0.0
        return self.long_haul_bytes / self.flat_equivalent_bytes

    @property
    def n_quarantined_models(self) -> int:
        """Site models refused by regional admission gates, all regions."""
        return sum(region.n_quarantined_models for region in self.regions)

    def labels_per_site(self) -> list[np.ndarray]:
        """Every site's relabeled objects, in site order."""
        return [site.global_labels for site in self.sites]


def run_hierarchical_dbdc(
    region_site_points: list[list[np.ndarray]],
    *,
    eps_local: float,
    min_pts_local: int,
    scheme: str = "rep_scor",
    eps_global: float | None = None,
    condense_radius: float | None = None,
    metric: str | Metric = "euclidean",
    index_kind: str = "auto",
    network: SimulatedNetwork | None = None,
) -> HierarchicalReport:
    """Run DBDC over a two-tier site hierarchy.

    Args:
        region_site_points: per region, the list of its sites' point
            arrays (``region_site_points[r][s]`` is one site's data).
        eps_local: local DBSCAN ``Eps`` (all sites).
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        eps_global: top-level merge radius (``None`` → max ε_r over the
            *condensed* representatives, the paper's default rule).
        condense_radius: regional absorption radius (``None`` →
            ``eps_local``; 0 disables condensation entirely).
        metric: distance metric.
        index_kind: neighbor index kind.
        network: optional pre-configured simulated network.

    Returns:
        A :class:`HierarchicalReport`.

    Raises:
        ValueError: for an empty hierarchy.
    """
    if not region_site_points or not any(region_site_points):
        raise ValueError("at least one region with one site is required")
    resolved = get_metric(metric)
    network = network or SimulatedNetwork()
    if condense_radius is None:
        condense_radius = eps_local

    sites: list[ClientSite] = []
    regions: list[RegionReport] = []
    regional_models: list[LocalModel] = []
    long_haul_bytes = 0
    flat_equivalent_bytes = 0
    site_id = 0
    for region_id, site_points in enumerate(region_site_points):
        site_models: list[LocalModel] = []
        region_site_ids: list[int] = []
        bytes_up_sites = 0
        for points in site_points:
            site = ClientSite(
                site_id,
                np.asarray(points, dtype=float),
                eps_local=eps_local,
                min_pts_local=min_pts_local,
                scheme=scheme,
                metric=resolved,
                index_kind=index_kind,
            )
            model = site.run_local_clustering()
            payload = model.to_bytes()
            # Site → regional server: one short hop (negative ids below
            # SERVER denote regional servers in the traffic log).
            network.send(site.site_id, -(region_id + 2), "local_model", payload)
            bytes_up_sites += len(payload)
            flat_equivalent_bytes += len(payload)
            site_models.append(model)
            region_site_ids.append(site_id)
            sites.append(site)
            site_id += 1

        # Regional admission gate: semantically invalid models never
        # reach condensation (same rule as RoundCore.arrive).
        admitted_models = [m for m in site_models if not m.validate()]
        n_quarantined = len(site_models) - len(admitted_models)
        site_models = admitted_models

        if condense_radius > 0:
            condensed = condense_models(
                site_models, condense_radius, region_id=region_id, metric=resolved
            )
        else:
            points, eps_ranges, site_ids, local_ids = stack_columns(site_models)
            condensed = LocalModel(
                site_id=region_id,
                points=points,
                eps_ranges=eps_ranges,
                local_cluster_ids=local_ids,
                site_ids=site_ids,
                n_objects=sum(m.n_objects for m in site_models),
                scheme=scheme,
                eps_local=eps_local,
                min_pts_local=min_pts_local,
            )
        payload = condensed.to_bytes()
        network.send(-(region_id + 2), SERVER, "regional_model", payload)
        long_haul_bytes += len(payload)
        regional_models.append(condensed)
        regions.append(
            RegionReport(
                region_id=region_id,
                site_ids=region_site_ids,
                n_received_representatives=sum(len(m) for m in site_models),
                n_forwarded_representatives=len(condensed),
                bytes_up_sites=bytes_up_sites,
                bytes_up_region=len(payload),
                n_quarantined_models=n_quarantined,
            )
        )

    global_model, __stats = build_global_model(
        regional_models,
        eps_global=eps_global,
        metric=resolved,
        index_kind=index_kind,
    )
    payload = global_model.to_bytes()
    for site in sites:
        network.send(SERVER, site.site_id, "global_model", payload)
        site.receive_global_model(global_model)
    return HierarchicalReport(
        sites=sites,
        regions=regions,
        global_model=global_model,
        flat_equivalent_bytes=flat_equivalent_bytes,
        long_haul_bytes=long_haul_bytes,
        network=network.stats(),
    )
