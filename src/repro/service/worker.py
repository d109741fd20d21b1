"""Site-worker entry points: one DBDC site as a service client.

:func:`run_site_worker_session` runs one site through the rounds of a
session against a live :class:`~repro.service.server.DBDCService`:
per round it opens the round, clusters its batch, uploads the local
model, waits for the round's MODEL_DELTA and relabels everything it
holds.  :func:`run_site_worker` is the paper's one-shot protocol — local
DBSCAN, upload, await the global model, relabel — as round 0 of such a
session; it is the process body behind ``python -m repro serve-worker``
and the thread body the integration tests and the scenario presets fan
out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.models import GlobalModel
from repro.distributed.site import ClientSite
from repro.obs import NULL_TRACER
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.transport import ServiceError

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
        verdict: admission verdict of the upload (``"admitted"``, the
            gate's refusal such as ``"quarantined"``, or ``"failed"``).
        labels: the site's global labels (noise = -1); local labels
            renumbered nowhere — exactly what ``receive_global_model``
            would have produced in process.
        n_objects: objects the site clustered.
        upload_attempts: LOCAL_MODEL requests the upload took.
        bytes_sent: payload bytes of the model upload.
        wall_seconds: end-to-end worker wall time.
        phase_seconds: the round's wall breakdown (``open_round`` /
            ``local_dbscan`` / ``upload`` / ``await_delta`` /
            ``relabel``).
        error: the failure or refusal detail (empty on success).
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
    relabel_kernel: str = "auto",
    timeout_s: float = 30.0,
    await_global_s: float = 30.0,
    tracer=None,
    metrics=None,
) -> SiteWorkerResult:
    """Run one site through the one-shot protocol against a live service:
    round 0 of :func:`run_site_worker_session` over ``[points]``.

    Round 0 commits when the service's ``expected_sites`` models are in,
    or on an explicit ROUND_COMMIT; the worker waits up to
    ``await_global_s`` for it.

    Args:
        host: service host.
        port: service port.
        site_id: this site's id.
        points: the site's objects, shape ``(n, d)``.
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        metric: distance metric.
        relabel_kernel: coverage kernel for the update step.
        timeout_s: per-operation socket timeout.
        await_global_s: how long to wait for round 0's model.
        tracer: optional :class:`~repro.obs.Tracer` — records the
            worker's ``session`` / ``round`` / phase spans, stamps trace
            contexts on outgoing frames, and ships the span forest to the
            service at the end.
        metrics: optional registry for the transport's per-frame-kind
            byte counters.

    Returns:
        A :class:`SiteWorkerResult`; never raises for protocol-level
        refusals — the verdict records them.
    """
    session = run_site_worker_session(
        host,
        port,
        site_id,
        [points],
        n_sites=1,
        eps_local=eps_local,
        min_pts_local=min_pts_local,
        scheme=scheme,
        metric=metric,
        relabel_kernel=relabel_kernel,
        timeout_s=timeout_s,
        await_global_s=await_global_s,
        tracer=tracer,
        metrics=metrics,
    )
    # The upload's verdict stands unless a later step failed.
    verdict = session.verdicts[0] if session.verdicts else "failed"
    if session.error and verdict == "admitted":
        verdict = "failed"
    return SiteWorkerResult(
        site_id=site_id,
        verdict=verdict,
        labels=(session.labels or [np.empty(0, dtype=np.intp)])[0],
        n_objects=int(points.shape[0]),
        upload_attempts=session.upload_attempts,
        bytes_sent=session.bytes_sent,
        wall_seconds=session.wall_seconds,
        phase_seconds=(session.round_phase_seconds or [{}])[0],
        error=session.error,
    )


@dataclass
class SiteSessionResult:
    """What one streaming-session worker brings home.

    Attributes:
        site_id: the worker's *base* site id (round ``r`` submits under
            effective id ``site_id + r * n_sites``).
        n_rounds: batches the worker processed.
        verdicts: per-round admission verdicts; an upload the gate
            refuses ends the session with the refusal (``"quarantined"``,
            ``"no_round_open"``, …) as its last verdict.
        labels: per-round label arrays — ``labels[r]`` are the global
            labels of batch ``r`` under the last model the worker
            received (a round whose model never came has none).
        model: the final session :class:`GlobalModel` (``None`` when the
            session failed before round 0 committed).
        upload_attempts: LOCAL_MODEL requests sent, resubmissions
            included.
        bytes_sent: payload bytes of those model uploads.
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
    upload_attempts: int = 0
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
        site_id: this worker's base site id (in ``[0, n_sites)`` when
            it runs more than one round).
        batches: one point array per round, shape ``(n_r, d)`` each.
        n_sites: total workers in the session (the effective-id stride).
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        metric: distance metric.
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
    client = ServiceClient(
        host,
        port,
        site_id=site_id,
        timeout_s=timeout_s,
        tracer=tracer,
        metrics=metrics,
    )
    try:
        with client:

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
                        relabel_kernel=relabel_kernel,
                    )
                    local_model = site.run_local_clustering()
                    r1 = time.perf_counter()
                    try:
                        result.verdicts.append(call(client.submit, local_model))
                    except ServiceError as error:
                        result.verdicts.append(error.status)
                        raise
                    r2 = time.perf_counter()
                    model = call(
                        client.await_model_delta,
                        round_index,
                        model,
                        timeout_s=await_global_s,
                    )
                    r3 = time.perf_counter()
                    # True streaming: every batch seen so far is
                    # relabeled against the round's committed model.
                    sites.append(site)
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
    result.upload_attempts = client.uploads
    result.bytes_sent = client.upload_bytes
    result.labels = [site.global_labels for site in sites]
    result.model = model
    result.wall_seconds = time.perf_counter() - start
    return result
