"""Fault injection for the distributed DBDC protocol.

The paper's federation is loosely coupled by design; this package makes
that testable.  :class:`FaultPlan` describes unreliable links (drop,
duplicate, reorder, jitter, truncation) and site failures (crash before
the local phase, crash after the upload, stragglers) as pure, seeded
data; :class:`ResilientTransport` moves messages through those faults
with timeouts, capped exponential backoff and retry budgets; and the
degraded-mode path of :class:`~repro.distributed.runner.DistributedRunner`
plus the deadline/quorum policy of
:class:`~repro.distributed.server.RoundCore` turn whatever survives
into a (possibly degraded) global clustering.

See ``docs/fault_model.md`` for the fault taxonomy and the degraded-mode
label guarantees, and the ``chaos`` scenario presets
(:mod:`repro.scenario`) for the quality-vs-failure-rate sweep built on
top.
"""

from repro.faults.integrity import crc_matches, payload_crc32
from repro.faults.plan import FaultPlan, LinkFaults, SiteBehavior, SiteFaults
from repro.faults.transport import (
    BreakerPolicy,
    DeliveryOutcome,
    ResilientTransport,
    TransportPolicy,
    TransportStats,
)

__all__ = [
    "FaultPlan",
    "LinkFaults",
    "SiteFaults",
    "SiteBehavior",
    "BreakerPolicy",
    "DeliveryOutcome",
    "ResilientTransport",
    "TransportPolicy",
    "TransportStats",
    "crc_matches",
    "payload_crc32",
]
