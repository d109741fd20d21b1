"""Site-worker entry point: one DBDC site as a service client.

:func:`run_site_worker` executes the full protocol for one site against
a live :class:`~repro.service.server.DBDCService` — local DBSCAN, model
derivation, upload, await-global, relabel — and returns the site's
global labels plus transfer bookkeeping.  It is the process body behind
``python -m repro serve-worker`` and the thread body the integration
tests and the sustained-load bench fan out.

The upload rides :class:`~repro.faults.transport.ResilientTransport`
over the :class:`~repro.service.transport.SocketTransport` — the exact
retry/backoff/breaker machinery the simulated deployments use, run
unchanged over a real socket (the seam ISSUE 7's tentpole demands).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.models import GlobalModel
from repro.distributed.site import ClientSite
from repro.faults.plan import FaultPlan
from repro.faults.transport import ResilientTransport, TransportPolicy
from repro.obs import NULL_TRACER
from repro.service import wire
from repro.service.client import ServiceClient, upload_trace
from repro.service.transport import ServiceError, SocketTransport

__all__ = [
    "SiteWorkerResult",
    "SiteSessionResult",
    "run_site_worker",
    "run_site_worker_session",
]


@dataclass
class SiteWorkerResult:
    """What one site worker brings home.

    Attributes:
        site_id: the worker's site id.
        verdict: admission verdict of the upload (``"admitted"`` /
            ``"quarantined"`` / ``"deadline_missed"`` / ``"failed"``).
        labels: the site's global labels (noise = -1); local labels
            renumbered nowhere — exactly what ``receive_global_model``
            would have produced in process.
        n_objects: objects the site clustered.
        upload_attempts: transport attempts the upload took.
        bytes_sent: payload bytes the worker put on the wire.
        wall_seconds: end-to-end worker wall time.
        phase_seconds: per-phase wall breakdown (``local_dbscan`` /
            ``upload`` / ``await_global`` / ``relabel``) — populated
            only when the worker ran with an enabled tracer.
        error: the failure detail when ``verdict == "failed"``.
    """

    site_id: int
    verdict: str
    labels: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.intp)
    )
    n_objects: int = 0
    upload_attempts: int = 0
    bytes_sent: int = 0
    wall_seconds: float = 0.0
    phase_seconds: dict = field(default_factory=dict)
    error: str = ""


def run_site_worker(
    host: str,
    port: int,
    site_id: int,
    points: np.ndarray,
    *,
    eps_local: float,
    min_pts_local: int,
    scheme: str = "rep_scor",
    metric: str = "euclidean",
    index_kind: str = "auto",
    relabel_kernel: str = "auto",
    timeout_s: float = 30.0,
    await_global_s: float = 30.0,
    transport_policy: TransportPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    breaker_policy=None,
    tracer=None,
    metrics=None,
) -> SiteWorkerResult:
    """Run one site through the full protocol against a live service.

    Args:
        host: service host.
        port: service port.
        site_id: this site's id.
        points: the site's objects, shape ``(n, d)``.
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        metric: distance metric.
        index_kind: neighbor index kind.
        relabel_kernel: coverage kernel for the update step.
        timeout_s: per-operation socket timeout.
        await_global_s: how long to wait for the global model.
        transport_policy: retry/backoff policy of the upload (default:
            the fault layer's defaults).
        fault_plan: socket-level fault plan; when set, the upload runs
            through a :class:`~repro.service.faulting.FaultingSocketTransport`
            so drops/truncation/corruption hit the *real* connection.
        breaker_policy: optional per-link circuit breaker
            (:class:`~repro.faults.transport.BreakerPolicy`).
        tracer: optional :class:`~repro.obs.Tracer` — records the
            worker's phase spans, stamps trace contexts on outgoing
            frames, and ships the span forest to the service at the end.
        metrics: optional registry for the transport's per-frame-kind
            byte counters.

    Returns:
        A :class:`SiteWorkerResult`; never raises for protocol-level
        refusals — the verdict records them.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    start = time.perf_counter()
    site = ClientSite(
        site_id,
        points,
        eps_local=eps_local,
        min_pts_local=min_pts_local,
        scheme=scheme,
        metric=metric,
        index_kind=index_kind,
        relabel_kernel=relabel_kernel,
    )
    result = SiteWorkerResult(
        site_id=site_id, verdict="failed", n_objects=int(points.shape[0])
    )
    socket_transport = SocketTransport(
        host,
        port,
        site_id=site_id,
        timeout_s=timeout_s,
        tracer=tracer,
        metrics=metrics,
    )
    worker_span = tracer.span(
        "site_worker",
        (
            {
                "process": f"site-{site_id}",
                "site": int(site_id),
                "n_objects": int(points.shape[0]),
            }
            if tracer.enabled
            else None
        ),
    )
    if tracer.enabled:
        # Anchor the root at the same read that feeds wall_seconds so
        # the trace and the result reconcile exactly.
        worker_span.span.wall_start = start
    try:
        with socket_transport, worker_span:
            model = site.run_local_clustering()
            local_done = time.perf_counter()
            if tracer.enabled:
                tracer.record(
                    "local_dbscan", wall_start=start, wall_end=local_done
                )
            # The simulated deployments' retry/backoff/breaker layer,
            # pointed at the socket instead of SimulatedNetwork.  When a
            # fault plan is set, the injector sits between the two and
            # sabotages the real connection; the retry loop treats its
            # failures exactly like in-flight drops.
            # Socket failures are always retryable: a connect refused
            # during a server restart window, a connection severed by a
            # crash, a torn frame — all of them ride the retry/backoff
            # seam instead of surfacing raw (the transport closed the
            # connection, so each retry reconnects from scratch).
            network = socket_transport
            retryable: tuple = (OSError, wire.WireError)
            if fault_plan is not None:
                from repro.service.faulting import FaultingSocketTransport

                network = FaultingSocketTransport(socket_transport, fault_plan)
                retryable = FaultingSocketTransport.RETRYABLE
            resilient = ResilientTransport(
                network,
                FaultPlan.none(),
                transport_policy,
                breaker_policy=breaker_policy,
                retryable_errors=retryable,
                sleep=time.sleep,
            )
            payload = wire.encode_local_model(model)
            overload_budget = 50
            while True:
                try:
                    outcome = resilient.deliver(
                        site_id, wire.SERVER_ID, "local_model", payload
                    )
                    break
                except ServiceError as error:
                    if (
                        error.status == "overloaded"
                        and error.retry_after_s is not None
                        and overload_budget > 0
                    ):
                        # Typed backpressure: honor the server's retry
                        # hint instead of treating the shed as a verdict.
                        overload_budget -= 1
                        time.sleep(error.retry_after_s)
                        continue
                    # The admission gate said no: surface its verdict.
                    result.verdict = error.status
                    result.error = error.detail
                    return result
            result.upload_attempts = outcome.attempts
            result.bytes_sent = outcome.bytes_sent
            if not outcome.delivered:
                result.error = "upload not delivered"
                return result
            response = socket_transport.last_response
            if response is not None and response.kind == wire.FrameKind.ACK:
                result.verdict, __ = wire.decode_status(response.payload)
            else:
                result.verdict = "admitted"
            upload_done = time.perf_counter()
            if tracer.enabled:
                tracer.record(
                    "upload",
                    wall_start=local_done,
                    wall_end=upload_done,
                    attrs={
                        "attempts": outcome.attempts,
                        "bytes": outcome.bytes_sent,
                    },
                )
            global_model = _await_global(socket_transport, await_global_s)
            await_done = time.perf_counter()
            if tracer.enabled:
                tracer.record(
                    "await_global", wall_start=upload_done, wall_end=await_done
                )
            site.receive_global_model(global_model)
            result.labels = site.global_labels
            if tracer.enabled:
                tracer.record(
                    "relabel",
                    wall_start=await_done,
                    wall_end=time.perf_counter(),
                )
    except (OSError, wire.WireError, ServiceError) as error:
        result.verdict = "failed"
        result.error = f"{type(error).__name__}: {error}"
    finally:
        result.wall_seconds = time.perf_counter() - start
    if tracer.enabled:
        for root in tracer.roots:
            if root is worker_span.span:
                result.phase_seconds = {
                    child.name: child.wall_seconds for child in root.children
                }
                break
        try:
            with socket_transport:
                upload_trace(
                    socket_transport,
                    tracer,
                    process=f"site-{site_id}",
                    site=int(site_id),
                )
        except (OSError, wire.WireError, ServiceError):
            pass  # tracing is best-effort; never fail the protocol result
    return result


def _await_global(
    transport: SocketTransport, timeout_s: float
) -> GlobalModel:
    response = transport.request(
        wire.FrameKind.AWAIT_GLOBAL, wire.encode_await_global(timeout_s)
    )
    return wire.decode_global_model(response.payload)


@dataclass
class SiteSessionResult:
    """What one streaming-session worker brings home.

    Attributes:
        site_id: the worker's *base* site id (round ``r`` submits under
            effective id ``site_id + r * n_sites``).
        n_rounds: batches the worker processed.
        verdicts: per-round admission verdicts.
        labels: per-round label arrays — ``labels[r]`` are the global
            labels of batch ``r`` under the *final* session model.
        model: the final session :class:`GlobalModel` (``None`` when the
            session failed before round 0 committed).
        bytes_sent: payload bytes the worker put on the wire.
        wall_seconds: end-to-end worker wall time.
        round_wall_seconds: wall time of each completed round, measured
            from the same ``perf_counter`` reads that bound the round's
            trace spans (so trace and result reconcile exactly).
        round_phase_seconds: per-round ``{phase: seconds}`` breakdown
            (``open_round`` / ``local_dbscan`` / ``upload`` /
            ``await_delta`` / ``relabel``); the phases exactly partition
            the round's wall time.
        reconnects: transport reconnects the session survived (server
            restarts, severed connections).
        epochs: server epochs observed, in order of first sighting — a
            second entry means the server crashed and recovered
            mid-session.
        error: the failure detail (empty on success).
    """

    site_id: int
    n_rounds: int = 0
    verdicts: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    model: GlobalModel | None = None
    bytes_sent: int = 0
    wall_seconds: float = 0.0
    round_wall_seconds: list = field(default_factory=list)
    round_phase_seconds: list = field(default_factory=list)
    reconnects: int = 0
    epochs: list = field(default_factory=list)
    error: str = ""


def run_site_worker_session(
    host: str,
    port: int,
    site_id: int,
    batches: list,
    *,
    n_sites: int,
    eps_local: float,
    min_pts_local: int,
    scheme: str = "rep_scor",
    metric: str = "euclidean",
    index_kind: str = "auto",
    relabel_kernel: str = "auto",
    timeout_s: float = 30.0,
    await_global_s: float = 30.0,
    tracer=None,
    metrics=None,
    resume: bool = True,
    max_reconnects: int = 10,
    reconnect_backoff_s: float = 0.05,
    round_hook=None,
) -> SiteSessionResult:
    """Run one site through an N-round streaming session.

    Per round ``r`` the worker opens the round, clusters batch ``r``
    under effective site id ``site_id + r * n_sites`` (which keeps the
    ``(site_id, local_cluster_id)`` inheritance keys collision-free
    across rounds), submits the local model, then blocks on the round's
    MODEL_DELTA — representatives strictly append, so each round only
    ships the new ones.  After every commit all batches seen so far are
    relabeled against the updated model, so ``labels`` reflects the
    final session state.

    The round protocol is race-free across workers: a worker only opens
    round ``r + 1`` after receiving round ``r``'s delta, and round ``r``
    cannot commit before every worker has submitted to it.

    Args:
        host: service host.
        port: service port.
        site_id: this worker's base site id in ``[0, n_sites)``.
        batches: one point array per round, shape ``(n_r, d)`` each.
        n_sites: total workers in the session (the effective-id stride).
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        metric: distance metric.
        index_kind: neighbor index kind.
        relabel_kernel: coverage kernel for the update step.
        timeout_s: per-operation socket timeout.
        await_global_s: how long each MODEL_DELTA may block server-side.
        tracer: optional :class:`~repro.obs.Tracer` — records one
            ``round`` span per round (children: the five phases below),
            stamps trace contexts on every frame, and ships the span
            forest to the service after the last round.
        metrics: optional registry for the transport's per-frame-kind
            byte counters.
        resume: survive server crashes/restarts — socket failures close
            the connection and retry the failed verb with capped
            exponential backoff; every verb is idempotent server-side
            (duplicate submits dedupe, re-opened rounds acknowledge,
            committed rounds replay their deltas), so a mid-session
            restart from the journal continues seamlessly.  Typed
            ``overloaded`` replies always sleep the server's
            ``retry_after`` hint and retry, resume or not.
        max_reconnects: reconnect budget per verb when resuming.
        reconnect_backoff_s: first reconnect delay; doubles per attempt,
            capped at 1 second.
        round_hook: optional ``hook(round_index, model)`` called after
            each round's relabel — the seam the recovery tests use to
            crash the server at a deterministic round boundary.

    Returns:
        A :class:`SiteSessionResult`; protocol-level refusals land in
        ``error`` rather than raising.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    start = time.perf_counter()
    result = SiteSessionResult(site_id=site_id, n_rounds=len(batches))
    sites: list[ClientSite] = []
    model: GlobalModel | None = None
    try:
        with ServiceClient(
            host,
            port,
            site_id=site_id,
            timeout_s=timeout_s,
            tracer=tracer,
            metrics=metrics,
        ) as client:

            def call(verb, *args, **kwargs):
                """One protocol verb through the reconnect-and-resume seam.

                ``overloaded`` replies sleep the server's retry hint and
                go again (typed backpressure is not a failure).  Socket
                and framing errors reconnect with capped exponential
                backoff up to ``max_reconnects`` — every verb is
                idempotent server-side, so a retried request against a
                recovered server lands exactly once.
                """
                reconnects = 0
                overload_budget = 200
                while True:
                    try:
                        return verb(*args, **kwargs)
                    except ServiceError as error:
                        if (
                            error.status == "overloaded"
                            and error.retry_after_s is not None
                            and overload_budget > 0
                        ):
                            overload_budget -= 1
                            time.sleep(error.retry_after_s)
                            continue
                        raise
                    except (OSError, wire.WireError):
                        if not resume or reconnects >= max_reconnects:
                            raise
                        client.close()
                        delay = min(
                            reconnect_backoff_s * (2.0 ** reconnects), 1.0
                        )
                        reconnects += 1
                        result.reconnects += 1
                        time.sleep(delay)

            def note_epoch() -> None:
                epoch = client.server_epoch
                if epoch is not None and epoch not in result.epochs:
                    result.epochs.append(epoch)

            # A live session span parents the per-round records and is
            # the trace context outgoing frames carry.
            with tracer.span(
                "session",
                (
                    {
                        "process": f"site-{site_id}",
                        "site": int(site_id),
                        "n_rounds": len(batches),
                    }
                    if tracer.enabled
                    else None
                ),
            ):
                for round_index, batch in enumerate(batches):
                    r0 = time.perf_counter()
                    call(client.open_round, round_index)
                    opened = time.perf_counter()
                    site = ClientSite(
                        site_id + round_index * n_sites,
                        np.asarray(batch, dtype=float),
                        eps_local=eps_local,
                        min_pts_local=min_pts_local,
                        scheme=scheme,
                        metric=metric,
                        index_kind=index_kind,
                        relabel_kernel=relabel_kernel,
                    )
                    local_model = site.run_local_clustering()
                    r1 = time.perf_counter()
                    result.verdicts.append(call(client.submit, local_model))
                    r2 = time.perf_counter()
                    sites.append(site)
                    model = call(
                        client.await_model_delta,
                        round_index,
                        model,
                        timeout_s=await_global_s,
                    )
                    r3 = time.perf_counter()
                    # True streaming: every batch seen so far is
                    # relabeled against the round's committed model.
                    for seen in sites:
                        seen.receive_global_model(model)
                    r4 = time.perf_counter()
                    result.round_wall_seconds.append(r4 - r0)
                    result.round_phase_seconds.append(
                        {
                            "open_round": opened - r0,
                            "local_dbscan": r1 - opened,
                            "upload": r2 - r1,
                            "await_delta": r3 - r2,
                            "relabel": r4 - r3,
                        }
                    )
                    if tracer.enabled:
                        round_span = tracer.record(
                            "round",
                            wall_start=r0,
                            wall_end=r4,
                            attrs={
                                "round": round_index,
                                "site": int(site_id),
                                "process": f"site-{site_id}",
                            },
                        )
                        for name, (lo, hi) in (
                            ("open_round", (r0, opened)),
                            ("local_dbscan", (opened, r1)),
                            ("upload", (r1, r2)),
                            ("await_delta", (r2, r3)),
                            ("relabel", (r3, r4)),
                        ):
                            tracer.record(
                                name,
                                wall_start=lo,
                                wall_end=hi,
                                attrs={"round": round_index},
                                parent=round_span,
                            )
                    note_epoch()
                    if round_hook is not None:
                        round_hook(round_index, model)
            result.bytes_sent = client.transport.bytes_sent
            if tracer.enabled:
                try:
                    client.upload_trace(
                        process=f"site-{site_id}", site=int(site_id)
                    )
                except (OSError, wire.WireError, ServiceError):
                    pass  # tracing is best-effort
    except ServiceError as error:
        result.error = f"{error.status}: {error.detail}"
    except (OSError, wire.WireError) as error:
        result.error = f"{type(error).__name__}: {error}"
    result.labels = [site.global_labels for site in sites]
    result.model = model
    result.wall_seconds = time.perf_counter() - start
    return result
