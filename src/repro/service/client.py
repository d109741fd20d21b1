"""Blocking client API for a live :class:`~repro.service.server.DBDCService`.

:class:`ServiceClient` wraps one :class:`~repro.service.transport.SocketTransport`
connection with the protocol verbs a site (or an operator tool) needs:

>>> with ServiceClient("127.0.0.1", 7171, site_id=0) as client:   # doctest: +SKIP
...     client.submit(local_model)                    # opens round 0 if needed
...     model = client.await_model_delta(0, None, timeout_s=30.0)
...     labels = client.query(points)

Every method is synchronous and raises typed errors —
:class:`~repro.service.transport.ServiceError` for protocol-level
refusals (quarantine, deadline miss, no model yet),
:class:`~repro.service.wire.WireError` for malformed traffic, ``OSError``
for socket failures.  Nothing blocks past the transport timeout.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.models import GlobalModel, LocalModel
from repro.service import wire
from repro.service.transport import ServiceError, SocketTransport

__all__ = ["ServiceClient", "ClockSync", "sync_clock", "upload_trace"]


class ClockSync:
    """One NTP-style clock-offset estimate for a connection.

    Attributes:
        offset_s: estimated ``server_clock - client_clock`` in
            ``perf_counter`` seconds; *add* it to client timestamps to
            place them on the server's timeline.
        rtt_s: measured round-trip time net of server hold time — the
            uncertainty radius of ``offset_s``.
    """

    __slots__ = ("offset_s", "rtt_s")

    def __init__(self, offset_s: float, rtt_s: float) -> None:
        self.offset_s = offset_s
        self.rtt_s = rtt_s


def sync_clock(transport: SocketTransport) -> ClockSync:
    """Estimate the server/client ``perf_counter`` offset.

    A single NTP-style exchange over a ``TRACE_UPLOAD`` probe: the
    client stamps send/receive times ``t0``/``t3``, the server answers
    with its receive/send times ``t1``/``t2``, and the offset is
    ``((t1 - t0) + (t2 - t3)) / 2`` — exact when the two directions are
    symmetric, otherwise off by at most half the asymmetry (bounded by
    ``rtt_s``).
    """
    t0 = time.perf_counter()
    response = transport.request(
        wire.FrameKind.TRACE_UPLOAD,
        wire.encode_json({"probe": True, "client_send_wall": t0}),
    )
    t3 = time.perf_counter()
    reply = wire.decode_json(response.payload)
    t1 = float(reply["server_recv_wall"])
    t2 = float(reply["server_send_wall"])
    return ClockSync(
        offset_s=((t1 - t0) + (t2 - t3)) / 2.0,
        rtt_s=(t3 - t0) - (t2 - t1),
    )


def upload_trace(
    transport: SocketTransport,
    tracer,
    *,
    process: str,
    site: int | None = None,
) -> str:
    """Ship a tracer's span forest to the service for merging.

    Runs a :func:`sync_clock` exchange first, then uploads the exported
    spans together with the measured offset so the server can place the
    remote lane on its own timeline.  No-op (returns ``"disabled"``)
    when the tracer is off — the untraced path sends nothing.
    """
    if not tracer.enabled:
        return "disabled"
    sync = sync_clock(transport)
    document = {
        "process": process,
        "site": site,
        "trace_id": tracer.trace_id,
        "wall_origin": tracer.wall_origin,
        "clock_offset_s": sync.offset_s,
        "rtt_s": sync.rtt_s,
        "spans": tracer.export_spans(),
    }
    response = transport.request(
        wire.FrameKind.TRACE_UPLOAD, wire.encode_json(document)
    )
    status, __ = wire.decode_status(response.payload)
    return status


class ServiceClient:
    """A synchronous DBDC protocol client over one TCP connection.

    Args:
        host: service host.
        port: service port.
        site_id: the site id stamped on outgoing frames (``SERVER_ID``
            for operator tools that are not a site).
        timeout_s: per-operation socket timeout.
        transport: inject a pre-built transport (tests); overrides
            ``host``/``port``.
        tracer: forwarded to the built transport — outgoing frames then
            carry this tracer's trace context (see
            :meth:`SocketTransport.current_context`).
        metrics: forwarded to the built transport (per-frame-kind byte
            counters).

    Attributes:
        uploads: :meth:`submit` requests sent, resubmissions included.
        upload_bytes: their payload bytes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        site_id: int = wire.SERVER_ID,
        timeout_s: float = 30.0,
        transport: SocketTransport | None = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.transport = transport or SocketTransport(
            host,
            port,
            site_id=site_id,
            timeout_s=timeout_s,
            tracer=tracer,
            metrics=metrics,
        )
        self.site_id = self.transport.site_id
        self.uploads = 0
        self.upload_bytes = 0

    @property
    def tracer(self):
        """The transport's tracer (:data:`~repro.obs.NULL_TRACER` when off)."""
        return self.transport.tracer

    @property
    def server_epoch(self) -> int | None:
        """The last server epoch observed on this connection.

        A durability-aware server stamps its generation counter on every
        status reply; a change mid-session means the server crashed and
        recovered between two requests.  ``None`` until a stamped reply
        arrives.
        """
        return self.transport.last_epoch

    def _ack_status(self, response) -> str:
        """Decode an ACK status payload, tracking the server epoch."""
        status, __, epoch, __ = wire.decode_status_ext(response.payload)
        if epoch is not None:
            self.transport.last_epoch = epoch
        return status

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        """Open the underlying connection (idempotent)."""
        self.transport.connect()
        return self

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self.transport.close()

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # protocol verbs
    # ------------------------------------------------------------------
    def submit(self, model: LocalModel) -> str:
        """Upload one local model through the admission gate.

        On a service where no round was ever opened, the upload opens
        round 0 first.

        Returns:
            The admission verdict (``"admitted"``).

        Raises:
            ServiceError: when the gate quarantines or rejects the model
                (``error.status`` carries the verdict; ``"no_round_open"``
                once round 0 committed and no later round is open).
        """
        payload = wire.encode_local_model(model)
        self.uploads += 1
        self.upload_bytes += len(payload)
        response = self.transport.request(wire.FrameKind.LOCAL_MODEL, payload)
        return self._ack_status(response)

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def open_round(self, round_index: int) -> str:
        """Open streaming round ``round_index`` (idempotent per round).

        Raises:
            ServiceError: ``status == "bad_round"`` when the index is
                not the next round (or another round is still open).
        """
        response = self.transport.request(
            wire.FrameKind.ROUND_OPEN, wire.encode_round_open(round_index)
        )
        return self._ack_status(response)

    def commit_round(self, round_index: int) -> str:
        """Explicitly commit round ``round_index`` (partial rounds).

        Sessions running with ``expected_sites`` auto-commit; this verb
        closes a round early when some sites are known lost.
        """
        response = self.transport.request(
            wire.FrameKind.ROUND_COMMIT, wire.encode_round_commit(round_index)
        )
        return self._ack_status(response)

    def await_model_delta(
        self,
        round_index: int,
        known_model: GlobalModel | None = None,
        *,
        timeout_s: float = 30.0,
    ) -> GlobalModel:
        """Block until ``round_index`` commits, then fetch the model.

        Representatives strictly append across rounds, so the reply only
        carries the representatives beyond ``known_model`` plus the full
        (small) label vector; the client reassembles the complete model.
        ``await_model_delta(0, None)`` fetches the whole current model.

        Args:
            round_index: the round whose commit to wait for.
            known_model: the model from the previous round (``None`` on
                round 0, or for a full fetch — the whole model is
                shipped).
            timeout_s: how long the server may hold the request open.

        Raises:
            ServiceError: ``"no_model"`` on timeout, ``"shutting_down"``
                when the service stops first, ``"bad_delta"`` when
                ``known_model`` is not a prefix of the server's model,
                ``"bad_round"`` at once for a negative round.
        """
        known = 0 if known_model is None else len(known_model)
        response = self.transport.request(
            wire.FrameKind.MODEL_DELTA,
            wire.encode_delta_request(round_index, known, timeout_s),
        )
        delta = wire.decode_model_delta(response.payload)
        return wire.apply_model_delta(known_model, delta)

    def query(self, points: np.ndarray) -> np.ndarray:
        """Label a batch of points against the current global model.

        Args:
            points: shape ``(n, d)``.

        Returns:
            Global labels, shape ``(n,)`` (noise = -1).
        """
        response = self.transport.request(
            wire.FrameKind.LABEL_QUERY, wire.encode_points(points)
        )
        return wire.decode_labels(response.payload)

    def health(self) -> dict:
        """The service's health document."""
        response = self.transport.request(wire.FrameKind.HEALTH)
        return wire.decode_json(response.payload)

    def metrics_text(self) -> str:
        """The OpenMetrics exposition, fetched over the protocol port."""
        response = self.transport.request(wire.FrameKind.METRICS)
        return response.payload.decode("utf-8")

    def sync_clock(self) -> ClockSync:
        """Estimate this connection's server-clock offset (see
        :func:`sync_clock`)."""
        return sync_clock(self.transport)

    def upload_trace(self, *, process: str, site: int | None = None) -> str:
        """Ship the client tracer's spans to the service (see
        :func:`upload_trace`)."""
        return upload_trace(
            self.transport, self.tracer, process=process, site=site
        )

    def shutdown(self) -> bool:
        """Ask the service to shut down gracefully.

        Returns:
            Whether the service acknowledged (``False`` if the
            connection died first — the service may already be gone).
        """
        try:
            self.transport.request(wire.FrameKind.SHUTDOWN)
            return True
        except (OSError, wire.WireError, ServiceError):
            return False
