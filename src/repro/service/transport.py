"""The transport seam between the simulated and socket deployments.

:class:`Transport` is the protocol both network backends implement:
:class:`~repro.distributed.network.SimulatedNetwork` (byte/sim-time
accounting, in-process) and :class:`SocketTransport` (a real framed TCP
connection to a live :class:`~repro.service.server.DBDCService`).  The
fault machinery from PRs 2 and 5 —
:class:`~repro.faults.transport.ResilientTransport` retries, backoff and
circuit breakers, plus ``RoundCore.arrive``'s integrity gate — only
ever calls ``send(sender, receiver, kind, payload)``, so it runs
unchanged over either backend; the integration tests pin exactly that.

:class:`SocketTransport` is deliberately synchronous (one short-lived
request/response per ``send``): the client side of DBDC is a site
worker, and worker code stays portable between threads and processes
when it never owns an event loop.  The asyncio side lives entirely in
the service process.
"""

from __future__ import annotations

import socket
import time
from typing import Protocol, runtime_checkable

from repro.distributed.network import Message
from repro.distributed.server import count_setting, seconds_setting
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.service import wire

__all__ = ["Transport", "SocketTransport", "ServiceError"]

#: Message-kind strings of the in-process protocol mapped onto wire
#: frames, with the response kind each request expects.
_KIND_TO_FRAME: dict[str, tuple[wire.FrameKind, tuple[wire.FrameKind, ...]]] = {
    "local_model": (
        wire.FrameKind.LOCAL_MODEL,
        (wire.FrameKind.ACK,),
    ),
    "label_query": (
        wire.FrameKind.LABEL_QUERY,
        (wire.FrameKind.LABEL_REPLY,),
    ),
    "health": (
        wire.FrameKind.HEALTH,
        (wire.FrameKind.HEALTH_REPLY,),
    ),
}


class ServiceError(RuntimeError):
    """The service answered a request with an ERROR frame.

    Attributes:
        status: the typed status string (``"quarantined"``,
            ``"overloaded"``, ``"bad_round"``, ...).
        detail: the human-readable detail string.
        epoch: the server epoch stamped on the reply (``None`` when the
            server runs without a journal).
        retry_after_s: the backoff the server suggested (``overloaded``
            replies); ``None`` otherwise.
    """

    def __init__(
        self,
        status: str,
        detail: str = "",
        *,
        epoch: int | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(f"{status}: {detail}" if detail else status)
        self.status = status
        self.detail = detail
        self.epoch = epoch
        self.retry_after_s = retry_after_s


@runtime_checkable
class Transport(Protocol):
    """What a DBDC network backend must provide.

    ``send`` moves one payload from ``sender`` to ``receiver`` and
    returns the :class:`~repro.distributed.network.Message` metadata —
    byte count, transfer seconds, and the CRC-32 stamp from
    :mod:`repro.faults.integrity`.  ``SimulatedNetwork.send`` satisfies
    this by accounting; :class:`SocketTransport` by real I/O.
    """

    def send(
        self, sender: int, receiver: int, kind: str, payload: bytes
    ) -> Message:
        """Move one message; return its metadata."""
        ...


class SocketTransport:
    """A blocking framed TCP connection implementing :class:`Transport`.

    One instance is one persistent connection; requests and responses
    alternate (the wire protocol is strictly request/response).  The
    ``sim_seconds`` field of returned messages carries the *measured*
    round-trip wall time — on the socket path the "simulated" clock is
    the real one.

    Args:
        host: service host.
        port: service port.
        site_id: the site id stamped on outgoing frames.
        timeout_s: per-operation socket timeout (connect, send, read),
            positive and finite.
        max_payload: reject response frames declaring more than this; a
            whole number of bytes of at least one frame header.
        tracer: when an enabled :class:`~repro.obs.Tracer` is given,
            every request carries a version-2 frame with a
            :class:`~repro.service.wire.TraceContext` naming the
            tracer's trace id and the innermost open span as parent.
            The default :data:`~repro.obs.NULL_TRACER` keeps the wire
            bytes exactly version 1.
        metrics: registry for ``service.frame_bytes_{sent,received}``
            per-frame-kind counters (payload bytes, matching the
            ``SimulatedNetwork.bytes_by_kind`` accounting).

    Raises:
        ValueError: naming ``timeout_s`` or ``max_payload`` when it is
            out of range (a NaN would turn the frame cap off).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        site_id: int = wire.SERVER_ID,
        timeout_s: float = 30.0,
        max_payload: int = wire.DEFAULT_MAX_PAYLOAD,
        tracer=None,
        metrics=None,
    ) -> None:
        self.host = host
        self.port = port
        self.site_id = site_id
        self.timeout_s = seconds_setting("timeout_s", timeout_s, finite=True)
        self.max_payload = count_setting(
            "max_payload", max_payload, minimum=wire.HEADER_SIZE
        )
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.bytes_sent = 0
        self.bytes_received = 0
        self.n_requests = 0
        self.last_response: wire.Frame | None = None
        #: Last server epoch observed on any status reply (ACK or
        #: ERROR); ``None`` until a durability-aware server answers.
        self.last_epoch: int | None = None
        self._sock: socket.socket | None = None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> "SocketTransport":
        """Open the connection (idempotent)."""
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "SocketTransport":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        """Whether the socket is currently open."""
        return self._sock is not None

    # ------------------------------------------------------------------
    # framed request/response
    # ------------------------------------------------------------------
    def _read_exactly(self, n: int) -> bytes:
        assert self._sock is not None
        chunks: list[bytes] = []
        remaining = n
        while remaining > 0:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise wire.FrameTruncated(
                    f"connection closed with {remaining} bytes outstanding"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        data = b"".join(chunks)
        self.bytes_received += len(data)
        return data

    def read_frame(self) -> wire.Frame:
        """Read one complete frame (CRC verified; typed errors, no hangs
        beyond the socket timeout)."""
        header = self._read_exactly(wire.HEADER_SIZE)
        # A corrupt header or length field raises before any payload
        # read is attempted; then the whole frame is decoded once.
        declared = wire.declared_payload_len(header, max_payload=self.max_payload)
        payload = self._read_exactly(declared)
        frame, __ = wire.decode_frame(header + payload, max_payload=self.max_payload)
        return frame

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes onto the connection (no framing, no response).

        The seam the socket-level fault injector uses to put truncated
        or corrupted frames on a *real* connection; production code has
        no reason to call it.
        """
        self.connect()
        assert self._sock is not None
        self._sock.sendall(data)
        self.bytes_sent += len(data)

    def current_context(self) -> wire.TraceContext | None:
        """The trace context outgoing frames should carry right now.

        ``None`` when tracing is disabled — :func:`wire.encode_frame`
        then emits plain version-1 bytes, keeping the untraced wire path
        bit-identical.  With tracing on, the innermost open span becomes
        the parent; outside any span the context still names the trace.
        """
        if not self.tracer.enabled:
            return None
        span = self.tracer.current_span()
        span_id = 0 if span is None else self.tracer.ensure_span_id(span)
        return wire.TraceContext(
            trace_id=self.tracer.trace_id,
            span_id=span_id,
            flags=wire.TRACE_FLAG_SAMPLED,
        )

    def request(
        self, kind: wire.FrameKind, payload: bytes = b""
    ) -> wire.Frame:
        """Send one frame, return the response frame.

        Any socket or framing failure tears the connection down before
        re-raising: the stream state after a half-delivered exchange is
        unknowable, so the next request reconnects from scratch — the
        seam the retry layer leans on to ride out server restarts.

        Raises:
            ServiceError: when the service answers with an ERROR frame.
            WireError: on malformed responses.
            OSError: on socket failures/timeouts (including
                ``ConnectionRefusedError`` during a restart window).
        """
        try:
            self.connect()
            assert self._sock is not None
            data = wire.encode_frame(
                kind,
                payload,
                site_id=self.site_id,
                context=self.current_context(),
            )
            self._sock.sendall(data)
            self.bytes_sent += len(data)
            self.n_requests += 1
            if self.metrics.enabled:
                # Payload bytes only — the same accounting
                # SimulatedNetwork keeps in bytes_by_kind, so the two
                # backends reconcile.
                self.metrics.inc(
                    f"service.frame_bytes_sent"
                    f"[{wire.FrameKind(kind).name.lower()}]",
                    len(payload),
                )
            response = self.read_frame()
        except (OSError, wire.WireError):
            self.close()
            raise
        if self.metrics.enabled:
            self.metrics.inc(
                f"service.frame_bytes_received[{response.kind.name.lower()}]",
                len(response.payload),
            )
        if response.kind == wire.FrameKind.ERROR:
            status, detail, epoch, retry_after_s = wire.decode_status_ext(
                response.payload
            )
            if epoch is not None:
                self.last_epoch = epoch
            raise ServiceError(
                status, detail, epoch=epoch, retry_after_s=retry_after_s
            )
        return response

    # ------------------------------------------------------------------
    # the Transport protocol
    # ------------------------------------------------------------------
    def send(
        self, sender: int, receiver: int, kind: str, payload: bytes
    ) -> Message:
        """Deliver one protocol message over the socket.

        The returned :class:`Message` mirrors what ``SimulatedNetwork``
        records: payload length, the shared CRC-32 stamp, and transfer
        seconds — here the measured request/response round trip.
        """
        mapping = _KIND_TO_FRAME.get(kind)
        if mapping is None:
            raise ValueError(
                f"kind {kind!r} has no wire mapping; known: "
                f"{sorted(_KIND_TO_FRAME)}"
            )
        frame_kind, expected_replies = mapping
        start = time.perf_counter()
        response = self.request(frame_kind, payload)
        elapsed = time.perf_counter() - start
        if response.kind not in expected_replies:
            raise wire.CodecError(
                f"unexpected reply {response.kind.name} to {kind!r}"
            )
        self.last_response = response
        return Message(
            sender=sender,
            receiver=receiver,
            kind=kind,
            n_bytes=len(payload),
            sim_seconds=elapsed,
            payload_crc=wire.payload_crc32(payload),
        )
