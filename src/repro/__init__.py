"""DBDC: Density Based Distributed Clustering — full reproduction.

Reproduces Januzaj, Kriegel & Pfeifle, *"DBDC: Density Based Distributed
Clustering"*, EDBT 2004, from scratch in pure Python + numpy:

* the DBDC protocol (local DBSCAN → ``REP_Scor``/``REP_kMeans`` local
  models → global DBSCAN over representatives → relabeling),
* every substrate it depends on (DBSCAN, k-means, OPTICS,
  grid/kd-tree/R-tree spatial indexes, a simulated site/server network),
  and
* the paper's quality framework (``P^I``, ``P^II``, ``Q_DBDC``).

Quick start::

    import numpy as np
    from repro import DBDCConfig, run_dbdc_partitioned, dataset_a
    from repro.distributed import uniform_random

    data = dataset_a()
    assignment = uniform_random(data.n, n_sites=4, seed=0)
    config = DBDCConfig(eps_local=data.eps_local, min_pts_local=data.min_pts)
    run = run_dbdc_partitioned(data.points, assignment, config)
    labels = run.labels_in_original_order()

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro.clustering import DBSCAN, dbscan, kmeans, optics
from repro.core import (
    DBDCConfig,
    DBDCResult,
    GlobalModel,
    LocalModel,
    PartitionedDBDCResult,
    build_global_model,
    build_local_model,
    default_eps_global,
    relabel_site,
    run_dbdc,
    run_dbdc_partitioned,
)
from repro.data import dataset_a, dataset_b, dataset_c, load_dataset
from repro.quality import evaluate_quality, q_dbdc_p1, q_dbdc_p2

__version__ = "1.0.0"

__all__ = [
    "DBSCAN",
    "dbscan",
    "kmeans",
    "optics",
    "DBDCConfig",
    "DBDCResult",
    "PartitionedDBDCResult",
    "GlobalModel",
    "LocalModel",
    "build_global_model",
    "build_local_model",
    "default_eps_global",
    "relabel_site",
    "run_dbdc",
    "run_dbdc_partitioned",
    "dataset_a",
    "dataset_b",
    "dataset_c",
    "load_dataset",
    "evaluate_quality",
    "q_dbdc_p1",
    "q_dbdc_p2",
    "__version__",
]
