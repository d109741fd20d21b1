"""Geographic scenario: DBDC over a *metric* space (great-circle distance).

Section 4 lists among DBSCAN's advantages that it "can be used for all
kinds of metric data spaces and is not confined to vector spaces".  This
example exercises that property through the whole DBDC pipeline:

* weather stations are (lat, lon) positions on the sphere, distances are
  great-circle (haversine) — a metric with no meaningful coordinate
  arithmetic (so k-means-style centroids are out; ``REP_Scor`` uses only
  actual objects and distances),
* region queries run through the M-tree, the paper's cited access method
  for metric data (grids/kd-trees need coordinate axes, the M-tree needs
  only the triangle inequality): named for the central run, picked by
  ``build_index("auto")`` for each data center's few hundred stations,
  while the server's few dozen representatives get a linear scan,
* three regional data centers each hold a share of the stations; storm
  systems spanning data centers are recovered by the global merge.

Usage::

    python examples/geo_weather_stations.py
"""

from __future__ import annotations

import numpy as np

from repro.clustering.dbscan import dbscan
from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
from repro.data.distance import Metric, register_metric
from repro.distributed.partition import uniform_random
from repro.quality import evaluate_quality

EARTH_RADIUS_KM = 6371.0


def _haversine_pair(p, q):
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    dlat, dlon = q[0] - p[0], q[1] - p[1]
    a = np.sin(dlat / 2) ** 2 + np.cos(p[0]) * np.cos(q[0]) * np.sin(dlon / 2) ** 2
    return float(2 * np.arcsin(np.sqrt(np.clip(a, 0, 1))))


def _haversine_many(p, points):
    p, points = np.asarray(p, dtype=float), np.asarray(points, dtype=float)
    dlat = points[:, 0] - p[0]
    dlon = points[:, 1] - p[1]
    a = np.sin(dlat / 2) ** 2 + np.cos(p[0]) * np.cos(points[:, 0]) * np.sin(dlon / 2) ** 2
    return 2 * np.arcsin(np.sqrt(np.clip(a, 0, 1)))


haversine = Metric("haversine", _haversine_pair, _haversine_many)
register_metric(haversine)


def make_stations(seed: int = 5) -> np.ndarray:
    """Stations clustered around 5 storm systems + scattered singletons."""
    rng = np.random.default_rng(seed)
    storm_centers = np.radians(
        np.asarray(
            [
                [48.0, 11.0],   # Munich
                [40.7, -74.0],  # New York
                [-33.9, 151.2],  # Sydney
                [35.7, 139.7],  # Tokyo
                [19.4, -99.1],  # Mexico City
            ]
        )
    )
    stations = [
        center + rng.normal(0, 0.012, size=(250, 2)) for center in storm_centers
    ]
    lat = rng.uniform(np.radians(-60), np.radians(70), size=120)
    lon = rng.uniform(-np.pi, np.pi, size=120)
    scattered = np.column_stack([lat, lon])
    return np.concatenate(stations + [scattered])


def main() -> None:
    stations = make_stations()
    # Eps = 150 km expressed as a central angle.
    eps_local = 150.0 / EARTH_RADIUS_KM
    min_pts = 5

    central = dbscan(stations, eps_local, min_pts, metric=haversine, index_kind="mtree")
    print(
        f"{stations.shape[0]} stations; central DBSCAN (haversine, M-tree) "
        f"finds {central.n_clusters} storm systems, {central.n_noise} isolated stations"
    )

    assignment = uniform_random(stations.shape[0], 3, seed=0)
    config = DBDCConfig(
        eps_local=eps_local,
        min_pts_local=min_pts,
        scheme="rep_scor",  # representatives must be real stations on a sphere
        metric=haversine,
    )
    run = run_dbdc_partitioned(stations, assignment, config)
    result = run.result
    print(
        f"DBDC over 3 data centers: {result.n_global_clusters} global storm "
        f"systems from {result.n_representatives} representatives "
        f"({100 * result.representative_fraction:.1f}% of the stations)"
    )
    print(
        f"Eps_global = {result.eps_global_used * EARTH_RADIUS_KM:.0f} km "
        f"(derived default; 2·Eps_local = {2 * eps_local * EARTH_RADIUS_KM:.0f} km)"
    )
    quality = evaluate_quality(
        run.labels_in_original_order(), central.labels, qp=min_pts
    )
    print(
        f"quality vs central: P^I = {quality.q_p1_percent:.1f}%, "
        f"P^II = {quality.q_p2_percent:.1f}%"
    )


if __name__ == "__main__":
    main()
