"""Service mode: DBDC as a live socket deployment.

The subsystem promotes the simulated distributed protocol to a real
one — the same round protocol core
(:class:`~repro.distributed.server.RoundCore`), the same fault
machinery — behind a versioned binary wire protocol:

* :mod:`repro.service.wire` — frame format and payload codecs.
* :mod:`repro.service.transport` — the :class:`Transport` seam both
  :class:`~repro.distributed.network.SimulatedNetwork` and
  :class:`SocketTransport` implement.
* :mod:`repro.service.server` — the asyncio :class:`DBDCService`, the
  I/O shell around the round core.
* :mod:`repro.service.journal` — the CRC-guarded write-ahead journal
  behind crash-restart recovery (:class:`WriteAheadJournal`).
* :mod:`repro.service.client` — the blocking :class:`ServiceClient`.
* :mod:`repro.service.worker` — the site-worker process body (the
  session loop; a one-shot worker runs its round 0).
* :mod:`repro.service.faulting` — socket-level fault injection
  (:class:`FaultingSocketTransport` replays the FaultPlan DSL against
  real connections).

The benchmark, smoke and crash-drill runs against the service are
scenario presets (:mod:`repro.scenario`).

See ``docs/service.md`` for the wire format tables, the
streaming-session state machine and deployment topology.
"""

from repro.service.client import (
    ClockSync,
    ServiceClient,
    sync_clock,
    upload_trace,
)
from repro.service.faulting import FaultingSocketTransport, InjectedFault
from repro.service.journal import (
    JournalCorrupt,
    JournalError,
    JournalTruncated,
    RecordKind,
    WriteAheadJournal,
)
from repro.service.server import DBDCService, ServiceConfig, ServiceHandle
from repro.service.transport import ServiceError, SocketTransport, Transport
from repro.service.worker import (
    SiteSessionResult,
    SiteWorkerResult,
    run_site_worker,
    run_site_worker_session,
)

__all__ = [
    "ClockSync",
    "DBDCService",
    "FaultingSocketTransport",
    "InjectedFault",
    "JournalCorrupt",
    "JournalError",
    "JournalTruncated",
    "RecordKind",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "SiteSessionResult",
    "SiteWorkerResult",
    "SocketTransport",
    "Transport",
    "WriteAheadJournal",
    "run_site_worker",
    "run_site_worker_session",
    "sync_clock",
    "upload_trace",
]
