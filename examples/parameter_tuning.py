"""Choosing DBSCAN parameters for a DBDC deployment.

DBDC inherits DBSCAN's ``Eps``/``MinPts`` (the paper never says how its
values were picked).  This example walks the standard workflow on a fresh
data set:

1. the sorted k-distance plot (DBSCAN paper §4.2) and its knee,
2. a quick central sanity run at the suggested parameters,
3. the §5 trade-off: how ``Eps_local`` steers the number of transmitted
   representatives vs the distributed clustering's quality,
4. distributed aggregate queries over the final federation.

Usage::

    python examples/parameter_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro.clustering.dbscan import dbscan
from repro.clustering.parameters import (
    sorted_k_distance_plot,
    suggest_parameters,
)
from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
from repro.data.generators import random_cluster_dataset
from repro.distributed import ClientSite, FederationQueries, RoundCore
from repro.distributed.partition import split, uniform_random
from repro.quality import evaluate_quality


def main() -> None:
    points, __ = random_cluster_dataset(
        5_000, n_clusters=9, noise_fraction=0.08, min_separation=18.0, seed=23
    )

    # 1. k-distance knee.
    eps, min_pts = suggest_parameters(points)
    curve = sorted_k_distance_plot(points, min_pts - 1)
    print(f"suggested parameters: Eps = {eps:.2f}, MinPts = {min_pts}")
    print(
        f"k-dist curve: max {curve[0]:.2f}, knee {eps:.2f}, min {curve[-1]:.2f}"
    )

    # 2. Central sanity run.
    central = dbscan(points, eps, min_pts)
    print(
        f"central DBSCAN at the knee: {central.n_clusters} clusters, "
        f"{central.n_noise} noise ({100 * central.n_noise / len(points):.1f}%)"
    )

    # 3. The §5 trade-off around the suggested Eps.
    assignment = uniform_random(points.shape[0], 4, seed=0)
    print(f"\n{'Eps_local':>10s} {'repr. %':>8s} {'bytes up':>9s} {'P^II %':>7s}")
    for factor in (0.75, 1.0, 1.5):
        eps_local = factor * eps
        reference = dbscan(points, eps_local, min_pts)
        config = DBDCConfig(eps_local=eps_local, min_pts_local=min_pts)
        run = run_dbdc_partitioned(points, assignment, config)
        quality = evaluate_quality(
            run.labels_in_original_order(), reference.labels, qp=min_pts
        )
        print(
            f"{eps_local:10.2f} {100 * run.result.representative_fraction:8.1f} "
            f"{run.result.bytes_up:9d} {quality.q_p2_percent:7.1f}"
        )

    # 4. Stand up the federation at the chosen parameters and query it.
    sites = [
        ClientSite(sid, part, eps_local=eps, min_pts_local=min_pts)
        for sid, part in enumerate(split(points, assignment))
    ]
    server = RoundCore()
    server.apply(server.open_round(0))
    for site in sites:
        server.apply(server.arrive(site.run_local_clustering()))
    model = server.apply(server.commit_round(0))
    for site in sites:
        site.receive_global_model(model)
    queries = FederationQueries(sites)
    print("\nfederation summary (distributed aggregates, no raw data moved):")
    for aggregate in queries.cluster_summary()[:5]:
        print(
            f"  cluster {aggregate.global_id}: {aggregate.count} objects, "
            f"centroid ({aggregate.centroid[0]:.1f}, {aggregate.centroid[1]:.1f}), "
            f"spread ({aggregate.std[0]:.1f}, {aggregate.std[1]:.1f}), "
            f"per-site {aggregate.per_site_counts}"
        )
    print(f"  ... plus {max(0, len(queries.cluster_summary()) - 5)} more; "
          f"{queries.noise_count()} noise objects federation-wide")


if __name__ == "__main__":
    main()
