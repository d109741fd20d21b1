"""The DBDC pipeline: local clustering → local models → global model →
relabeling (Figure 2 of the paper), executed in-process.

This module is the library's main entry point for single-call use.  It
simulates the distributed protocol the way the paper's own evaluation does
(Section 9): all local clusterings are carried out sequentially on one
machine, and the *overall runtime* is accounted as

    ``max(local clustering times) + global clustering time``

because real sites would run concurrently.  Transmission volume is measured
in representatives and serialized bytes.

For an explicit sites/server/network simulation (message passing, byte and
latency accounting per link), use :mod:`repro.distributed` — it shares all
of the model-building code below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.clustering.dbscan import density_parameters, global_radius
from repro.clustering.labels import NOISE
from repro.core.global_model import (
    GlobalClusteringStats,
    build_global_model,
    default_eps_global,
)
from repro.core.local import LOCAL_MODEL_SCHEMES, LocalClusteringOutcome, build_local_model
from repro.core.models import GlobalModel, LocalModel
from repro.core.relabel import RELABEL_KERNELS, RelabelStats, relabel_site
from repro.data.distance import Metric, get_metric

__all__ = [
    "DBDCConfig",
    "SiteOutcome",
    "DBDCResult",
    "PartitionedDBDCResult",
    "run_dbdc",
    "run_dbdc_partitioned",
]


@dataclass(frozen=True)
class DBDCConfig:
    """Parameters of a DBDC run.

    Attributes:
        eps_local: DBSCAN ``Eps`` on every site.
        min_pts_local: DBSCAN ``MinPts`` on every site.
        scheme: local model scheme, ``"rep_scor"`` or ``"rep_kmeans"``.
        eps_global: server merge radius; ``None`` selects the paper's
            default (max ε_r over all representatives ≈ ``2·eps_local``).
        metric: distance metric name or instance.
        relabel_kernel: coverage kernel of the update step —
            ``"auto"``, ``"vectorized"`` or ``"reference"``.  All kernels
            produce bit-identical labels; the knob trades constants only.
    """

    eps_local: float
    min_pts_local: int
    scheme: str = "rep_scor"
    eps_global: float | None = None
    metric: str | Metric = "euclidean"
    relabel_kernel: str = "auto"

    def __post_init__(self) -> None:
        density_parameters(
            self.eps_local,
            self.min_pts_local,
            eps_name="eps_local",
            min_pts_name="min_pts_local",
        )
        if self.scheme not in LOCAL_MODEL_SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; known: {LOCAL_MODEL_SCHEMES}"
            )
        global_radius(self.eps_global)
        if self.relabel_kernel not in RELABEL_KERNELS:
            raise ValueError(
                f"unknown relabel_kernel {self.relabel_kernel!r}; "
                f"known: {RELABEL_KERNELS}"
            )


@dataclass
class SiteOutcome:
    """Per-site artifacts of a DBDC run.

    Attributes:
        site_id: the site's identifier.
        points: the site's objects (kept for inspection; sites never
            transmit them).
        local: local clustering + local model.
        global_labels: the site's objects relabeled with global ids.
        relabel_stats: bookkeeping of the update step.
        local_seconds: wall time of local clustering + model building.
        relabel_seconds: wall time of the update step.
    """

    site_id: int
    points: np.ndarray
    local: LocalClusteringOutcome
    global_labels: np.ndarray
    relabel_stats: RelabelStats
    local_seconds: float
    relabel_seconds: float


@dataclass
class DBDCResult:
    """Everything a DBDC run produces.

    Attributes:
        config: the run's configuration.
        sites: per-site outcomes (ordered by site id).
        global_model: the server's model.
        global_stats: server-side clustering statistics.
        eps_global_used: the actual merge radius (after defaulting).
        global_seconds: wall time of the server clustering.
        n_objects: total objects across sites.
        bytes_up: serialized local-model bytes (sites → server).
        bytes_down: serialized global-model bytes (server → each site,
            counted once; multiply by #sites for total broadcast volume).
    """

    config: DBDCConfig
    sites: list[SiteOutcome]
    global_model: GlobalModel
    global_stats: GlobalClusteringStats
    eps_global_used: float
    global_seconds: float
    n_objects: int
    bytes_up: int
    bytes_down: int

    # ------------------------------------------------------------------
    # paper-style accounting
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        """Number of client sites."""
        return len(self.sites)

    @property
    def n_representatives(self) -> int:
        """Total representatives transmitted to the server."""
        return len(self.global_model)

    @property
    def representative_fraction(self) -> float:
        """Share of objects transmitted as representatives.

        This is the "number of local repr. [%]" column of the paper's
        Figure 10 (as a fraction, multiply by 100 for percent).
        """
        if self.n_objects == 0:
            return 0.0
        return self.n_representatives / self.n_objects

    @property
    def max_local_seconds(self) -> float:
        """Slowest site's local phase (sites run concurrently in reality)."""
        if not self.sites:
            return 0.0
        return max(site.local_seconds for site in self.sites)

    @property
    def overall_seconds(self) -> float:
        """The paper's overall runtime: max local + global (Section 9)."""
        return self.max_local_seconds + self.global_seconds

    def labels(self) -> np.ndarray:
        """Global labels of all objects, sites concatenated in order."""
        if not self.sites:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([site.global_labels for site in self.sites])

    def local_labels(self) -> np.ndarray:
        """Pre-update local labels, sites concatenated in order.

        Local cluster ids are offset per site so they do not collide —
        useful for comparing "no-merge" against the relabeled outcome.
        """
        parts = []
        offset = 0
        for site in self.sites:
            labels = site.local.clustering.labels.copy()
            mask = labels >= 0
            labels[mask] += offset
            if mask.any():
                offset = int(labels[mask].max()) + 1
            parts.append(labels)
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)

    def points(self) -> np.ndarray:
        """All objects, sites concatenated in order (aligned with labels)."""
        return np.concatenate([site.points for site in self.sites])

    @property
    def n_global_clusters(self) -> int:
        """Distinct global clusters that actually contain objects."""
        labels = self.labels()
        return int(np.unique(labels[labels != NOISE]).size) if labels.size else 0


def run_dbdc(
    site_points: list[np.ndarray],
    config: DBDCConfig,
) -> DBDCResult:
    """Execute the full DBDC protocol over explicitly partitioned data.

    Args:
        site_points: one point array per client site.
        config: run parameters.

    Returns:
        A :class:`DBDCResult`.

    Raises:
        ValueError: if no sites are given.
    """
    if not site_points:
        raise ValueError("at least one site is required")
    # Step 1 + 2: local clustering and local model determination.
    outcomes: list[LocalClusteringOutcome] = []
    local_times: list[float] = []
    for site_id, points in enumerate(site_points):
        start = time.perf_counter()
        outcome = build_local_model(
            np.asarray(points, dtype=float),
            config.eps_local,
            config.min_pts_local,
            scheme=config.scheme,
            site_id=site_id,
            metric=config.metric,
        )
        local_times.append(time.perf_counter() - start)
        outcomes.append(outcome)
    local_models: list[LocalModel] = [outcome.model for outcome in outcomes]
    bytes_up = sum(len(model.to_bytes()) for model in local_models)

    # Step 3: global model.
    eps_global = (
        config.eps_global
        if config.eps_global is not None
        else default_eps_global(local_models)
    )
    start = time.perf_counter()
    global_model, global_stats = build_global_model(
        local_models,
        eps_global=eps_global if eps_global > 0 else None,
        metric=config.metric,
    )
    global_seconds = time.perf_counter() - start
    bytes_down = len(global_model.to_bytes())

    # Step 4: relabeling on every site.
    metric = get_metric(config.metric)
    sites: list[SiteOutcome] = []
    for site_id, (points, outcome) in enumerate(zip(site_points, outcomes)):
        points = np.asarray(points, dtype=float)
        start = time.perf_counter()
        labels, stats = relabel_site(
            points,
            outcome.clustering.labels,
            global_model,
            site_id=site_id,
            metric=metric,
            kernel=config.relabel_kernel,
        )
        relabel_seconds = time.perf_counter() - start
        sites.append(
            SiteOutcome(
                site_id=site_id,
                points=points,
                local=outcome,
                global_labels=labels,
                relabel_stats=stats,
                local_seconds=local_times[site_id],
                relabel_seconds=relabel_seconds,
            )
        )
    return DBDCResult(
        config=config,
        sites=sites,
        global_model=global_model,
        global_stats=global_stats,
        eps_global_used=global_model.eps_global,
        global_seconds=global_seconds,
        n_objects=sum(site.points.shape[0] for site in sites),
        bytes_up=bytes_up,
        bytes_down=bytes_down,
    )


@dataclass
class PartitionedDBDCResult:
    """A :class:`DBDCResult` plus the mapping back to the original order.

    Attributes:
        result: the underlying run.
        assignment: per original object, the site it was placed on.
        positions: per original object, its row within its site.
    """

    result: DBDCResult
    assignment: np.ndarray
    positions: np.ndarray

    def labels_in_original_order(self) -> np.ndarray:
        """Global labels aligned with the original (pre-partition) order."""
        out = np.empty(self.assignment.size, dtype=np.intp)
        for i, (site, pos) in enumerate(zip(self.assignment, self.positions)):
            out[i] = self.result.sites[site].global_labels[pos]
        return out


def run_dbdc_partitioned(
    points: np.ndarray,
    assignment: np.ndarray,
    config: DBDCConfig,
) -> PartitionedDBDCResult:
    """Run DBDC on a dataset split by an explicit site assignment.

    Args:
        points: the complete dataset, shape ``(n, d)``.
        assignment: per object, the site id in ``0..k-1``.
        config: run parameters.

    Returns:
        A :class:`PartitionedDBDCResult` that can realign labels with the
        original object order — which the quality functions need, because
        they compare against a central clustering of ``points``.
    """
    points = np.asarray(points, dtype=float)
    assignment = np.asarray(assignment, dtype=np.intp)
    if assignment.size != points.shape[0]:
        raise ValueError(
            f"{points.shape[0]} points but {assignment.size} assignments"
        )
    if assignment.size and assignment.min() < 0:
        raise ValueError("site assignments must be non-negative")
    n_sites = int(assignment.max()) + 1 if assignment.size else 0
    site_points = []
    positions = np.empty(assignment.size, dtype=np.intp)
    for site in range(n_sites):
        members = np.flatnonzero(assignment == site)
        positions[members] = np.arange(members.size)
        site_points.append(points[members])
    result = run_dbdc(site_points, config)
    return PartitionedDBDCResult(result, assignment, positions)
