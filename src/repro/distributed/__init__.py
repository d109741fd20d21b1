"""The simulated distributed system: sites, server, partitioning, network."""

from repro.distributed.network import (
    SERVER,
    LinkSpec,
    Message,
    NetworkStats,
    SimulatedNetwork,
)
from repro.distributed.partition import (
    PARTITIONERS,
    partition,
    round_robin,
    skewed_sizes,
    spatial_blocks,
    split,
    uniform_random,
)
from repro.distributed.runner import (
    DistributedRunConfig,
    DistributedRunner,
    DistributedRunReport,
    RoundPolicy,
)
from repro.distributed.hierarchy import (
    HierarchicalReport,
    RegionReport,
    condense_models,
    run_hierarchical_dbdc,
)
from repro.distributed.incremental_site import (
    DriftReport,
    IncrementalClientSite,
    model_drift,
)
from repro.distributed.queries import (
    ClusterAggregate,
    FederationQueries,
    SitePartial,
)
from repro.distributed.scenario import RoundStats, StreamingScenario
from repro.distributed.server import Decision, RoundCore
from repro.distributed.site import ClientSite

__all__ = [
    "HierarchicalReport",
    "RegionReport",
    "condense_models",
    "run_hierarchical_dbdc",
    "DriftReport",
    "IncrementalClientSite",
    "model_drift",
    "ClusterAggregate",
    "FederationQueries",
    "SitePartial",
    "RoundStats",
    "StreamingScenario",
    "SERVER",
    "LinkSpec",
    "Message",
    "NetworkStats",
    "SimulatedNetwork",
    "PARTITIONERS",
    "partition",
    "round_robin",
    "skewed_sizes",
    "spatial_blocks",
    "split",
    "uniform_random",
    "DistributedRunConfig",
    "DistributedRunner",
    "DistributedRunReport",
    "RoundPolicy",
    "Decision",
    "RoundCore",
    "ClientSite",
]
