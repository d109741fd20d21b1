"""In-process reference for multi-round streaming sessions.

:func:`run_streaming_session` is the oracle the service-mode streaming
tests pin against: N sequential incremental rounds run entirely in
process as a sequence of events — open round ``r``, one arrival per
site, commit — fed to the same
:class:`~repro.distributed.server.RoundCore` the live
service drives.  A socket session over
:func:`~repro.service.worker.run_site_worker_session` must produce
bit-identical labels.

Each round's batches are clustered under *effective* site ids
``site_id + round_index * n_sites``, which keeps the
``(site_id, local_cluster_id)`` inheritance keys of the relabel step
collision-free across rounds — the same contract the service enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.models import GlobalModel
from repro.core.relabel import relabel_site
from repro.distributed.server import RoundCore
from repro.distributed.site import ClientSite

__all__ = ["StreamingResult", "run_streaming_session"]


@dataclass
class StreamingResult:
    """Outcome of one in-process streaming session.

    Attributes:
        model: the final session global model.
        labels: ``labels[r][i]`` — global labels of site ``i``'s round-r
            batch under the final model.
        n_rounds: rounds run.
        n_sites: sites per round.
        n_repairs: incremental model repairs performed (rounds beyond
            the first contribute one per admitted model).
    """

    model: GlobalModel
    labels: list = field(default_factory=list)
    n_rounds: int = 0
    n_sites: int = 0
    n_repairs: int = 0


def run_streaming_session(
    batches: list,
    *,
    eps_local: float,
    min_pts_local: int,
    eps_global: float | None = None,
    scheme: str = "rep_scor",
    metric: str = "euclidean",
    relabel_kernel: str = "auto",
    metrics=None,
) -> StreamingResult:
    """Run N sequential incremental rounds entirely in process.

    Args:
        batches: ``batches[r][i]`` is site ``i``'s round-r point array,
            shape ``(n, d)``; every round must list the same number of
            sites.
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        eps_global: server merge radius (``None`` → the paper default,
            frozen at the value of the first round with representatives).
        scheme: local model scheme.
        metric: distance metric.
        relabel_kernel: coverage kernel for the update step.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; the round
            core records its ``server.*`` metrics into it, as the
            service's does.

    Returns:
        A :class:`StreamingResult` with the final model and per-batch
        labels under it.
    """
    if not batches:
        raise ValueError("need at least one round of batches")
    n_sites = len(batches[0])
    if n_sites == 0:
        raise ValueError("need at least one site per round")
    for round_index, round_batches in enumerate(batches):
        if len(round_batches) != n_sites:
            raise ValueError(
                f"round {round_index} has {len(round_batches)} batches, "
                f"expected {n_sites}"
            )

    core = RoundCore(eps_global, metric=metric, metrics=metrics)
    sites: list[list[ClientSite]] = []
    model: GlobalModel | None = None
    for round_index, round_batches in enumerate(batches):
        round_sites = [
            ClientSite(
                site_index + round_index * n_sites,
                np.asarray(batch, dtype=float),
                eps_local=eps_local,
                min_pts_local=min_pts_local,
                scheme=scheme,
                metric=metric,
                relabel_kernel=relabel_kernel,
            )
            for site_index, batch in enumerate(round_batches)
        ]
        core.apply(core.open_round(round_index))
        for site in round_sites:
            core.apply(core.arrive(site.run_local_clustering()))
        model = core.apply(core.commit_round(round_index))
        sites.append(round_sites)
        # True streaming: every batch seen so far is relabeled against
        # the round's committed model — from scratch, without the site's
        # cover memo, so the oracle shares no fold state with the sites
        # it checks.
        for earlier in sites:
            for site in earlier:
                labels, stats = relabel_site(
                    site.points,
                    site.local_outcome.clustering.labels,
                    model,
                    site_id=site.site_id,
                    metric=site.metric,
                    kernel=relabel_kernel,
                )
                site.apply_relabel(labels, stats, 0.0)

    assert model is not None
    return StreamingResult(
        model=model,
        labels=[
            [site.global_labels for site in round_sites]
            for round_sites in sites
        ],
        n_rounds=len(batches),
        n_sites=n_sites,
        n_repairs=core.n_repairs,
    )
