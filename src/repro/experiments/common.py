"""Shared plumbing for the per-figure experiment modules.

The experiments all follow the paper's §9 protocol:

* the data set is *equally distributed* onto the client sites
  (uniform-random assignment),
* all local clusterings run sequentially on one machine,
* the reported overall runtime is ``max(local) + global``,
* quality compares the distributed labels against a central DBSCAN run
  over the complete data with the local parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.clustering.dbscan import DBSCANResult, dbscan
from repro.core.dbdc import DBDCConfig, PartitionedDBDCResult, run_dbdc_partitioned
from repro.data.datasets import Dataset
from repro.distributed.partition import uniform_random
from repro.quality.qdbdc import QualityReport, evaluate_quality

__all__ = [
    "timed",
    "central_reference",
    "DistributedTrial",
    "run_trial",
    "dataset_trial",
]


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def central_reference(
    points: np.ndarray, eps: float, min_pts: int
) -> tuple[DBSCANResult, float]:
    """Central DBSCAN over the complete data set, timed.

    Returns:
        ``(result, seconds)``.
    """
    return timed(dbscan, points, eps, min_pts)


@dataclass
class DistributedTrial:
    """One DBDC run compared against a central reference.

    Attributes:
        run: the partitioned DBDC run.
        labels: distributed labels in original object order.
        quality: both quality criteria vs the central reference (``None``
            when no reference was evaluated — efficiency-only trials).
        central_seconds: central reference runtime (0 when skipped).
    """

    run: PartitionedDBDCResult
    labels: np.ndarray
    quality: QualityReport | None
    central_seconds: float

    @property
    def overall_seconds(self) -> float:
        """The paper's DBDC runtime accounting (max local + global)."""
        return self.run.result.overall_seconds

    @property
    def representative_percent(self) -> float:
        """Representative share of the data volume, in percent."""
        return 100.0 * self.run.result.representative_fraction


def run_trial(
    points: np.ndarray,
    *,
    n_sites: int,
    eps_local: float,
    min_pts: int,
    scheme: str = "rep_scor",
    eps_global: float | None = None,
    seed: int = 0,
    central: DBSCANResult | None = None,
    central_seconds: float = 0.0,
    evaluate: bool = True,
) -> DistributedTrial:
    """Run DBDC once and (optionally) score it against a central run.

    Args:
        points: the complete data set.
        n_sites: number of client sites.
        eps_local: local DBSCAN ``Eps``.
        min_pts: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        eps_global: server radius (``None`` → paper default, ≈2·eps_local).
        seed: partitioning seed.
        central: pre-computed central reference (computed here if
            ``evaluate`` and missing).
        central_seconds: runtime of the supplied reference.
        evaluate: whether to compute quality at all.

    Returns:
        A :class:`DistributedTrial`.
    """
    points = np.asarray(points, dtype=float)
    assignment = uniform_random(points.shape[0], n_sites, seed=seed)
    config = DBDCConfig(
        eps_local=eps_local,
        min_pts_local=min_pts,
        scheme=scheme,
        eps_global=eps_global,
    )
    run = run_dbdc_partitioned(points, assignment, config)
    labels = run.labels_in_original_order()
    quality = None
    if evaluate:
        if central is None:
            central, central_seconds = central_reference(points, eps_local, min_pts)
        quality = evaluate_quality(labels, central.labels, qp=min_pts)
    return DistributedTrial(
        run=run,
        labels=labels,
        quality=quality,
        central_seconds=central_seconds,
    )


def dataset_trial(
    data: Dataset,
    *,
    n_sites: int,
    scheme: str = "rep_scor",
    eps_global: float | None = None,
    seed: int = 0,
    central: DBSCANResult | None = None,
    central_seconds: float = 0.0,
) -> DistributedTrial:
    """:func:`run_trial` with a data set's recommended parameters."""
    return run_trial(
        data.points,
        n_sites=n_sites,
        eps_local=data.eps_local,
        min_pts=data.min_pts,
        scheme=scheme,
        eps_global=eps_global,
        seed=seed,
        central=central,
        central_seconds=central_seconds,
    )
