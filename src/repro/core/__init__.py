"""The paper's primary contribution: the DBDC algorithm.

* :mod:`repro.core.local` — local clustering and local models
  (``REP_Scor``, ``REP_kMeans``; Sections 4-5),
* :mod:`repro.core.models` — the ``(r, ε_r)`` model types on the wire,
* :mod:`repro.core.global_model` — server-side merge (Section 6),
* :mod:`repro.core.relabel` — the local update step (Section 7),
* :mod:`repro.core.dbdc` — the one-call pipeline with the paper's timing
  and transmission accounting.
"""

from repro.core.dbdc import (
    DBDCConfig,
    DBDCResult,
    PartitionedDBDCResult,
    SiteOutcome,
    run_dbdc,
    run_dbdc_partitioned,
)
from repro.core.global_model import (
    GlobalClusteringStats,
    build_global_model,
    build_global_model_via_optics,
    default_eps_global,
)
from repro.core.local import (
    LOCAL_MODEL_SCHEMES,
    LocalClusteringOutcome,
    SpecificCorePointCollector,
    build_local_model,
    build_rep_kmeans_model,
    build_rep_scor_model,
    verify_specific_core_set,
)
from repro.core.models import GlobalModel, LocalModel
from repro.core.relabel import (
    RELABEL_KERNELS,
    RelabelStats,
    relabel_site,
    relabel_site_reference,
)

__all__ = [
    "DBDCConfig",
    "DBDCResult",
    "PartitionedDBDCResult",
    "SiteOutcome",
    "run_dbdc",
    "run_dbdc_partitioned",
    "GlobalClusteringStats",
    "build_global_model",
    "build_global_model_via_optics",
    "default_eps_global",
    "LOCAL_MODEL_SCHEMES",
    "LocalClusteringOutcome",
    "SpecificCorePointCollector",
    "build_local_model",
    "build_rep_kmeans_model",
    "build_rep_scor_model",
    "verify_specific_core_set",
    "GlobalModel",
    "LocalModel",
    "RELABEL_KERNELS",
    "RelabelStats",
    "relabel_site",
    "relabel_site_reference",
]
