"""Clustering algorithms built from scratch for the DBDC reproduction.

* :mod:`repro.clustering.dbscan` — DBSCAN (local and global clustering),
* :mod:`repro.clustering.kmeans` — seeded Lloyd iterations (``REP_kMeans``),
* :mod:`repro.clustering.optics` — OPTICS ordering (global-model variant),
* :mod:`repro.clustering.labels` — label conventions shared by all of them.
"""

from repro.clustering.dbscan import DBSCAN, DBSCANResult, dbscan
from repro.clustering.kmeans import KMeansResult, kmeans, lloyd_iterations
from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    cluster_ids,
    cluster_members,
    cluster_sizes,
    compact_labels,
    contingency_table,
    n_clusters,
    noise_mask,
    noise_ratio,
)
from repro.clustering.optics import OPTICSResult, extract_dbscan_clustering, optics
from repro.clustering.parameters import (
    k_distances,
    sorted_k_distance_plot,
    suggest_eps_by_knee,
    suggest_eps_by_quantile,
    suggest_parameters,
)
from repro.clustering.singlelink import (
    SingleLinkResult,
    cut_by_count,
    cut_by_distance,
    single_link,
)

__all__ = [
    "k_distances",
    "sorted_k_distance_plot",
    "suggest_eps_by_knee",
    "suggest_eps_by_quantile",
    "suggest_parameters",
    "SingleLinkResult",
    "cut_by_count",
    "cut_by_distance",
    "single_link",
    "DBSCAN",
    "DBSCANResult",
    "dbscan",
    "KMeansResult",
    "kmeans",
    "lloyd_iterations",
    "OPTICSResult",
    "optics",
    "extract_dbscan_clustering",
    "NOISE",
    "UNCLASSIFIED",
    "cluster_ids",
    "cluster_members",
    "cluster_sizes",
    "compact_labels",
    "contingency_table",
    "n_clusters",
    "noise_mask",
    "noise_ratio",
]
