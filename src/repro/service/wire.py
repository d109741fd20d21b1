"""The DBDC wire protocol: versioned, length-prefixed, CRC-guarded frames.

One protocol implementation serves both deployment shapes.  The payload
codecs here serialize exactly the objects the in-process protocol
exchanges (:class:`~repro.core.models.LocalModel` uploads,
:class:`~repro.core.models.GlobalModel` deltas, label queries,
health/metrics probes), and the frame header carries the same CRC-32
stamp :mod:`repro.faults.integrity` gives the simulated network — so a
payload that survives the socket path is admissible, bit for bit, under
:class:`~repro.distributed.network.SimulatedNetwork` accounting and vice
versa.

Frame layout (little-endian, 18-byte header)::

    offset  size  field
    0       4     magic  b"DBDC"
    4       1     protocol version (1 = plain, 2 = trace-context prefixed)
    5       1     frame kind (:class:`FrameKind`)
    6       4     sender site id (int32; -1 = the central server)
    10      4     body length (uint32, capped by ``max_payload``)
    14      4     CRC-32 of the payload (:func:`payload_crc32`)
    18      ...   body bytes

A version-1 body is the payload itself.  A version-2 body carries a
length-prefixed distributed-tracing context before the payload::

    0       1     context length (must be TRACE_CONTEXT_SIZE)
    1       25    trace context (:class:`TraceContext` — 128-bit trace
                  id, 64-bit parent span id, 8-bit flags)
    26      ...   payload bytes

The CRC field covers the *payload only*, never the context prefix: the
stamp must equal the :func:`payload_crc32` the simulated network and the
admission gate compute over the same payload, so turning tracing on
cannot perturb integrity semantics.  ``encode_frame`` without a context
emits exactly the version-1 bytes — the no-trace wire path is
bit-identical by construction.

Every malformed input raises a typed :class:`WireError` subclass —
decoders never hang and never return garbage: short buffers raise
:class:`FrameTruncated` (stream readers treat it as "need more bytes"),
bad magic/version/kind raise their own errors before the payload is
touched, oversized declared lengths raise :class:`FrameTooLarge` without
allocating, and payload bit-flips raise :class:`ChecksumMismatch` (or
are reported to the caller with ``verify_crc=False``, which is how the
service quarantines instead of dropping the connection).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.core.models import (
    GlobalModel,
    LocalModel,
    model_columns,
    pack_records,
    record_dtype,
    stack_columns,
)
from repro.faults.integrity import crc_matches, payload_crc32

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "TRACE_PROTOCOL_VERSION",
    "SERVER_ID",
    "DEFAULT_MAX_PAYLOAD",
    "TRACE_CONTEXT_SIZE",
    "TRACE_FLAG_SAMPLED",
    "TraceContext",
    "encode_trace_context",
    "decode_trace_context",
    "FrameKind",
    "Frame",
    "WireError",
    "FrameTruncated",
    "BadMagic",
    "UnsupportedVersion",
    "UnknownFrameKind",
    "FrameTooLarge",
    "ChecksumMismatch",
    "CodecError",
    "payload_crc32",
    "crc_matches",
    "declared_payload_len",
    "encode_frame",
    "decode_frame",
    "encode_local_model",
    "decode_local_model",
    "encode_points",
    "decode_points",
    "encode_labels",
    "decode_labels",
    "encode_json",
    "decode_json",
    "encode_status",
    "decode_status",
    "decode_status_ext",
    "ModelDelta",
    "encode_round_open",
    "decode_round_open",
    "encode_round_commit",
    "decode_round_commit",
    "encode_delta_request",
    "decode_delta_request",
    "encode_model_delta",
    "decode_model_delta",
    "delta_from_model",
    "apply_model_delta",
]

MAGIC = b"DBDC"
PROTOCOL_VERSION = 1
#: Protocol version of frames carrying a :class:`TraceContext` prefix.
TRACE_PROTOCOL_VERSION = 2
#: Sender id of the central server (mirrors ``repro.distributed.network.SERVER``).
SERVER_ID = -1
#: Default cap on a frame's declared payload length (64 MiB) — a corrupt
#: or hostile length field must not make a reader allocate unboundedly.
DEFAULT_MAX_PAYLOAD = 64 * 1024 * 1024

_HEADER = struct.Struct("<4sBBiII")
HEADER_SIZE = _HEADER.size


class FrameKind(IntEnum):
    """Every frame kind of protocol version 1.  Kinds 4 and 5 stay
    unassigned, so an older client's whole-model request of kind 5 gets
    a typed ``protocol_error``, never another meaning."""

    ACK = 1            # generic success reply (status + detail strings)
    ERROR = 2          # generic failure reply (status + detail strings)
    LOCAL_MODEL = 3    # site -> server: LocalModel upload
    LABEL_QUERY = 6    # client -> server: points to classify
    LABEL_REPLY = 7    # server -> client: global label per query point
    HEALTH = 8         # client -> server: liveness/health probe
    HEALTH_REPLY = 9   # server -> client: JSON health document
    METRICS = 10       # client -> server: OpenMetrics snapshot request
    METRICS_REPLY = 11 # server -> client: OpenMetrics exposition text
    SHUTDOWN = 12      # admin -> server: request graceful shutdown
    ROUND_OPEN = 13    # site -> server: open streaming round N
    ROUND_COMMIT = 14  # site -> server: commit streaming round N
    MODEL_DELTA = 15   # request: block until round N commits; reply:
    #                    appended representatives + full label vector
    TRACE_UPLOAD = 16  # site -> server: JSON span forest (or clock probe)
    TRACE_REPLY = 17   # server -> site: JSON clock-probe timestamps


class WireError(Exception):
    """Base class of every wire-protocol violation (typed, never a hang)."""


class FrameTruncated(WireError):
    """The buffer ends before the declared frame does (short read/EOF)."""


class BadMagic(WireError):
    """The frame does not start with ``b"DBDC"``."""


class UnsupportedVersion(WireError):
    """The frame speaks a protocol version this reader does not."""


class UnknownFrameKind(WireError):
    """The frame kind byte names no :class:`FrameKind`."""


class FrameTooLarge(WireError):
    """The declared payload length exceeds the reader's cap."""


class ChecksumMismatch(WireError):
    """The payload does not match the CRC-32 the sender stamped."""


class CodecError(WireError):
    """A payload failed to decode into its typed object."""


#: Flag bit: the sender is actively sampling this trace.
TRACE_FLAG_SAMPLED = 0x01

# 128-bit trace id (as two uint64 halves), 64-bit span id, 8-bit flags.
_TRACE_CONTEXT = struct.Struct("<QQQB")
#: Encoded size of one :class:`TraceContext` (25 bytes).
TRACE_CONTEXT_SIZE = _TRACE_CONTEXT.size
_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class TraceContext:
    """The compact distributed-tracing context a version-2 frame carries.

    Attributes:
        trace_id: 128-bit id of the distributed trace this request
            belongs to.
        span_id: 64-bit id of the sender's span that caused the request
            (the *parent* of any server-side span it spawns).
        flags: 8-bit flag field (:data:`TRACE_FLAG_SAMPLED`).
    """

    trace_id: int
    span_id: int
    flags: int = TRACE_FLAG_SAMPLED

    @property
    def sampled(self) -> bool:
        """Whether the sampled flag bit is set."""
        return bool(self.flags & TRACE_FLAG_SAMPLED)


def encode_trace_context(context: TraceContext) -> bytes:
    """Serialize a :class:`TraceContext` (:data:`TRACE_CONTEXT_SIZE` bytes).

    Raises:
        ValueError: when an id or the flags field is out of range.
    """
    if not 0 <= context.trace_id < (1 << 128):
        raise ValueError(f"trace_id out of 128-bit range: {context.trace_id}")
    if not 0 <= context.span_id < (1 << 64):
        raise ValueError(f"span_id out of 64-bit range: {context.span_id}")
    if not 0 <= context.flags < (1 << 8):
        raise ValueError(f"flags out of 8-bit range: {context.flags}")
    return _TRACE_CONTEXT.pack(
        (context.trace_id >> 64) & _UINT64_MASK,
        context.trace_id & _UINT64_MASK,
        context.span_id,
        context.flags,
    )


def decode_trace_context(payload: bytes) -> TraceContext:
    """Inverse of :func:`encode_trace_context`.

    Raises:
        CodecError: when the payload is not exactly
            :data:`TRACE_CONTEXT_SIZE` bytes.
    """
    if len(payload) != TRACE_CONTEXT_SIZE:
        raise CodecError(
            f"trace context is {len(payload)} bytes, "
            f"expected {TRACE_CONTEXT_SIZE}"
        )
    high, low, span_id, flags = _TRACE_CONTEXT.unpack(payload)
    return TraceContext(
        trace_id=(high << 64) | low, span_id=span_id, flags=flags
    )


@dataclass(frozen=True)
class Frame:
    """One decoded frame.

    Attributes:
        kind: the frame kind.
        site_id: sender site id (:data:`SERVER_ID` for the server).
        payload: the (CRC-checked, unless the reader opted out) bytes.
        crc_ok: whether the payload matched the header checksum — always
            true when the reader verifies eagerly; carries the verdict
            when it opted out via ``verify_crc=False``.
        context: the trace context a version-2 frame carried (``None``
            on version-1 frames — the untraced path).
    """

    kind: FrameKind
    site_id: int
    payload: bytes
    crc_ok: bool = True
    context: TraceContext | None = None


def encode_frame(
    kind: FrameKind | int,
    payload: bytes = b"",
    *,
    site_id: int = SERVER_ID,
    context: TraceContext | None = None,
) -> bytes:
    """Assemble one frame: header (with CRC stamp) + body.

    Without ``context`` this emits exactly the protocol-version-1 bytes
    the pre-tracing code emitted — the untraced wire path stays
    bit-identical.  With ``context`` the frame is version 2 and the body
    gains a length-prefixed context block before the payload; the CRC
    still covers the payload alone (see the module docstring).
    """
    kind = FrameKind(kind)
    if context is None:
        return (
            _HEADER.pack(
                MAGIC,
                PROTOCOL_VERSION,
                int(kind),
                int(site_id),
                len(payload),
                payload_crc32(payload),
            )
            + payload
        )
    context_block = encode_trace_context(context)
    body = bytes((len(context_block),)) + context_block + payload
    return (
        _HEADER.pack(
            MAGIC,
            TRACE_PROTOCOL_VERSION,
            int(kind),
            int(site_id),
            len(body),
            payload_crc32(payload),
        )
        + body
    )


def declared_payload_len(
    header: bytes, *, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> int:
    """The payload length a valid frame header declares.

    Stream readers (the service's and the socket transport's) fetch the
    header, call this, read that many bytes and decode the whole frame
    once.  It runs the header checks :func:`decode_frame` runs, so a
    corrupt or over-cap header raises before any payload byte is read,
    and the header layout has a single source of truth.

    Args:
        header: at least the first :data:`HEADER_SIZE` bytes of a frame.
        max_payload: reject declared payload lengths above this.

    Raises:
        WireError: the typed subclass :func:`decode_frame` raises for the
            same header; :class:`FrameTruncated` when fewer than
            :data:`HEADER_SIZE` bytes are given.
    """
    return _frame_header(header, 0, max_payload)[3]


def _frame_header(
    buffer: bytes, offset: int, max_payload: int
) -> tuple[int, FrameKind, int, int, int]:
    """Check the frame header at ``offset``: its size, magic, version,
    kind and declared length.  Returns ``(version, kind, site id,
    length, crc)``."""
    if len(buffer) - offset < HEADER_SIZE:
        raise FrameTruncated(
            f"need {HEADER_SIZE} header bytes, have {len(buffer) - offset}"
        )
    magic, version, kind_byte, site_id, length, crc = _HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version not in (PROTOCOL_VERSION, TRACE_PROTOCOL_VERSION):
        raise UnsupportedVersion(
            f"protocol version {version}, expected {PROTOCOL_VERSION} "
            f"or {TRACE_PROTOCOL_VERSION}"
        )
    try:
        kind = FrameKind(kind_byte)
    except ValueError:
        raise UnknownFrameKind(f"unknown frame kind {kind_byte}") from None
    if length > max_payload:
        raise FrameTooLarge(f"declared payload {length} exceeds cap {max_payload}")
    return version, kind, site_id, length, crc


def decode_frame(
    buffer: bytes,
    *,
    offset: int = 0,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    verify_crc: bool = True,
) -> tuple[Frame, int]:
    """Decode the frame starting at ``offset`` in ``buffer``.

    Args:
        buffer: raw bytes (may hold several concatenated frames).
        offset: where this frame starts.
        max_payload: reject declared payload lengths above this.
        verify_crc: raise :class:`ChecksumMismatch` on a CRC failure
            (the client default).  With ``False`` the frame is returned
            with ``crc_ok=False`` instead — the server path, which must
            quarantine corrupt uploads rather than drop the connection.

    Returns:
        ``(frame, next_offset)``.

    Raises:
        WireError: typed subclass per violation; :class:`FrameTruncated`
            when the buffer is merely incomplete.
    """
    version, kind, site_id, length, crc = _frame_header(
        buffer, offset, max_payload
    )
    start = offset + HEADER_SIZE
    if len(buffer) - start < length:
        raise FrameTruncated(
            f"declared payload {length}, have {len(buffer) - start}"
        )
    body = bytes(buffer[start : start + length])
    context: TraceContext | None = None
    if version == TRACE_PROTOCOL_VERSION:
        # The context prefix is structural, so parse it before the CRC
        # verdict: a server reading with verify_crc=False still needs
        # the context of a frame it is about to quarantine.
        if length < 1:
            raise CodecError("version-2 frame has no context-length byte")
        ctx_len = body[0]
        if ctx_len != TRACE_CONTEXT_SIZE:
            raise CodecError(
                f"context length {ctx_len}, expected {TRACE_CONTEXT_SIZE}"
            )
        if 1 + ctx_len > length:
            raise CodecError(
                f"context needs {1 + ctx_len} body bytes, declared {length}"
            )
        context = decode_trace_context(body[1 : 1 + ctx_len])
        payload = body[1 + ctx_len :]
    else:
        payload = body
    crc_ok = crc_matches(payload, crc)
    if verify_crc and not crc_ok:
        raise ChecksumMismatch(
            f"payload CRC {payload_crc32(payload):#010x} != header {crc:#010x}"
        )
    return Frame(
        kind=kind,
        site_id=site_id,
        payload=payload,
        crc_ok=crc_ok,
        context=context,
    ), (start + length)


# ----------------------------------------------------------------------
# Payload codecs.  Every decode_* wraps low-level failures (struct
# errors, bad counts, non-finite floats) in CodecError so transports can
# treat "payload would not parse" uniformly.
# ----------------------------------------------------------------------

_LOCAL_HEADER = struct.Struct("<iqdIIIH")  # site, n_objects, eps, min_pts,
#                                            n_reps, dim, scheme length
# One packed record per representative, after the header.  Coordinates
# follow as ``<{dim}d`` (``record_dtype`` appends them).
_EPS = ("eps_ranges", "<f8")
_IDS = (("site_ids", "<i4"), ("local_cluster_ids", "<i4"))
_LOCAL_RECORD = (("local_cluster_ids", "<i4"), _EPS)
_DELTA_RECORD = (*_IDS, _EPS)
_ARRAY_HEADER = struct.Struct("<II")       # rows, dim
_COUNT = struct.Struct("<I")
_SHORT_STR = struct.Struct("<H")


def _codec_guard(message: str):
    """Decorator: re-raise any decode failure as a :class:`CodecError`."""

    def wrap(fn):
        def inner(payload: bytes, *args, **kwargs):
            try:
                return fn(payload, *args, **kwargs)
            except WireError:
                raise
            except Exception as error:
                raise CodecError(f"{message}: {error}") from error

        inner.__name__ = fn.__name__
        inner.__doc__ = fn.__doc__
        return inner

    return wrap


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError(f"string too long for the wire ({len(data)} bytes)")
    return _SHORT_STR.pack(len(data)) + data


def _unpack_str(payload: bytes, offset: int) -> tuple[str, int]:
    (length,) = _SHORT_STR.unpack_from(payload, offset)
    offset += _SHORT_STR.size
    if len(payload) - offset < length:
        raise FrameTruncated(f"string of {length} bytes truncated")
    return payload[offset : offset + length].decode("utf-8"), offset + length


def encode_local_model(model: LocalModel) -> bytes:
    """Serialize a full :class:`LocalModel` — unlike the accounting-only
    ``LocalModel.to_bytes``, the metadata (object count, scheme, local
    DBSCAN parameters) rides along, so the server reconstructs exactly
    what the site built.

    Raises:
        ValueError: when a local cluster id does not fit an int32, or the
            scheme name is too long.
    """
    scheme = model.scheme.encode("utf-8")
    if len(scheme) > 0xFFFF:
        raise ValueError(f"scheme name too long for the wire ({len(scheme)} bytes)")
    header = _LOCAL_HEADER.pack(
        model.site_id,
        model.n_objects,
        model.eps_local,
        model.min_pts_local,
        len(model),
        model.dim,
        len(scheme),
    )
    return header + scheme + pack_records(record_dtype(_LOCAL_RECORD, model.dim), model)


def _record_columns(
    payload: bytes, offset: int, fields, n: int, dim: int, trailer: int = 0
) -> dict[str, np.ndarray]:
    """The columns of the ``n`` packed records of ``fields`` at
    ``offset`` (views of ``payload``), once the payload's size is exactly
    theirs plus ``trailer`` bytes."""
    dtype = record_dtype(fields, dim)
    expected = offset + n * dtype.itemsize + trailer
    if len(payload) != expected:
        raise CodecError(
            f"payload is {len(payload)} bytes, header declares {expected}"
        )
    records = np.frombuffer(payload, dtype, count=n, offset=offset)
    return {name: records[name] for name in dtype.names}


@_codec_guard("invalid LocalModel payload")
def decode_local_model(payload: bytes) -> LocalModel:
    """Inverse of :func:`encode_local_model`.

    Raises:
        CodecError: on truncated records, impossible counts, or
            representatives the model layer itself rejects (non-finite
            coordinates, non-positive ε-ranges).
    """
    site_id, n_objects, eps_local, min_pts, n_reps, dim, scheme_len = (
        _LOCAL_HEADER.unpack_from(payload, 0)
    )
    offset = _LOCAL_HEADER.size
    if len(payload) - offset < scheme_len:
        raise CodecError(f"scheme string of {scheme_len} bytes truncated")
    scheme = payload[offset : offset + scheme_len].decode("utf-8")
    offset += scheme_len
    return LocalModel(
        site_id=site_id,
        **_record_columns(payload, offset, _LOCAL_RECORD, n_reps, dim),
        n_objects=n_objects,
        scheme=scheme,
        eps_local=eps_local,
        min_pts_local=min_pts,
    )


def encode_points(points: np.ndarray) -> bytes:
    """Serialize an ``(n, d)`` float64 point array (label queries)."""
    points = np.ascontiguousarray(points, dtype="<f8")
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    return _ARRAY_HEADER.pack(points.shape[0], points.shape[1]) + points.tobytes()


@_codec_guard("invalid point-array payload")
def decode_points(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_points`.

    Raises:
        CodecError: on a size mismatch, or when a coordinate is NaN or
            infinite (no index can place such a point, so a label query
            carrying one is refused as a whole).
    """
    rows, dim = _ARRAY_HEADER.unpack_from(payload, 0)
    expected = _ARRAY_HEADER.size + rows * dim * 8
    if len(payload) != expected:
        raise CodecError(
            f"payload is {len(payload)} bytes, header declares {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8", offset=_ARRAY_HEADER.size)
    points = data.reshape(rows, dim).astype(float)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise CodecError(
            f"{int((~finite).sum())} of {rows} points have non-finite "
            f"coordinates (first: row {int(np.flatnonzero(~finite)[0])})"
        )
    return points


def encode_labels(labels: np.ndarray) -> bytes:
    """Serialize a label vector (int64 on the wire)."""
    labels = np.ascontiguousarray(labels, dtype="<i8")
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    return _COUNT.pack(labels.shape[0]) + labels.tobytes()


@_codec_guard("invalid label-vector payload")
def decode_labels(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_labels` (returns ``intp`` labels)."""
    (count,) = _COUNT.unpack_from(payload, 0)
    expected = _COUNT.size + count * 8
    if len(payload) != expected:
        raise CodecError(
            f"payload is {len(payload)} bytes, header declares {expected}"
        )
    data = np.frombuffer(payload, dtype="<i8", offset=_COUNT.size)
    return data.astype(np.intp)


def encode_json(document: dict) -> bytes:
    """Serialize a JSON document payload (health replies)."""
    return json.dumps(document, sort_keys=True).encode("utf-8")


@_codec_guard("invalid JSON payload")
def decode_json(payload: bytes) -> dict:
    """Inverse of :func:`encode_json`."""
    document = json.loads(payload.decode("utf-8"))
    if not isinstance(document, dict):
        raise CodecError(f"expected a JSON object, got {type(document).__name__}")
    return document


#: Fixed-size durability extension of a status payload: the server
#: epoch (generation counter across crash restarts; 0 = not stamped)
#: and the suggested retry-after seconds of an ``overloaded`` reply
#: (negative = not set).
_STATUS_EXT = struct.Struct("<Qd")


def encode_status(
    status: str,
    detail: str = "",
    *,
    epoch: int | None = None,
    retry_after_s: float | None = None,
) -> bytes:
    """Serialize an ACK/ERROR payload (status + human detail strings).

    When ``epoch`` or ``retry_after_s`` is given, a fixed 16-byte
    extension follows the strings; decoders accept payloads with or
    without it, so durability-aware servers interoperate with clients
    that only call :func:`decode_status`.
    """
    payload = _pack_str(status) + _pack_str(detail)
    if epoch is not None or retry_after_s is not None:
        payload += _STATUS_EXT.pack(
            0 if epoch is None else int(epoch),
            -1.0 if retry_after_s is None else float(retry_after_s),
        )
    return payload


def _decode_status_parts(
    payload: bytes,
) -> tuple[str, str, int | None, float | None]:
    status, offset = _unpack_str(payload, 0)
    detail, offset = _unpack_str(payload, offset)
    remaining = len(payload) - offset
    if remaining == 0:
        return status, detail, None, None
    if remaining != _STATUS_EXT.size:
        raise CodecError(f"{remaining} trailing bytes")
    epoch, retry_after_s = _STATUS_EXT.unpack_from(payload, offset)
    return (
        status,
        detail,
        int(epoch) if epoch else None,
        float(retry_after_s) if retry_after_s >= 0 else None,
    )


@_codec_guard("invalid status payload")
def decode_status(payload: bytes) -> tuple[str, str]:
    """Inverse of :func:`encode_status` (extension tolerated, dropped)."""
    status, detail, __, __ = _decode_status_parts(payload)
    return status, detail


@_codec_guard("invalid status payload")
def decode_status_ext(
    payload: bytes,
) -> tuple[str, str, int | None, float | None]:
    """Like :func:`decode_status` but surfaces the durability extension.

    Returns:
        ``(status, detail, epoch, retry_after_s)`` — ``epoch`` is
        ``None`` when the server did not stamp one (plain payload or
        epoch 0), ``retry_after_s`` is ``None`` unless the server
        suggested a backoff (``overloaded`` replies).
    """
    return _decode_status_parts(payload)


# ----------------------------------------------------------------------
# Streaming-session codecs (ROUND_OPEN / ROUND_COMMIT / MODEL_DELTA).
#
# A MODEL_DELTA exchange is asymmetric: the request names a round and how
# many representatives the client already holds; the reply carries only
# the representatives appended since then plus the *full* label vector.
# This is exact — never an approximation — because the server's
# incremental repair (GlobalModelRepairer) strictly appends
# representatives: the first ``base_count`` entries of the repaired model
# are the client's known prefix, byte for byte, and only labels move.
# ----------------------------------------------------------------------

_ROUND = struct.Struct("<i")                 # round index
_DELTA_REQUEST = struct.Struct("<iId")       # round, known reps, timeout
_DELTA_HEADER = struct.Struct("<dIIII")      # eps_global, min_pts,
#                                              base_count, n_new, dim


@dataclass(frozen=True)
class ModelDelta:
    """The appended tail of an incrementally repaired global model.

    Attributes:
        eps_global: the (frozen) merge radius of the session's model.
        min_pts_global: the server's ``MinPts_global``.
        base_count: representatives the receiver already holds — the
            unchanged prefix the delta builds on.
        points, eps_ranges, site_ids, local_cluster_ids: the columns of
            the representatives appended since ``base_count`` (order
            preserved), copied and checked as a model's are.
        labels: global labels of the *entire* repaired model, length
            ``base_count`` plus the appended count — labels of old
            representatives may change (merges), so the full vector
            always rides along.
    """

    eps_global: float
    min_pts_global: int
    base_count: int
    points: np.ndarray
    eps_ranges: np.ndarray
    site_ids: np.ndarray
    local_cluster_ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        names = ("points", "eps_ranges", "site_ids", "local_cluster_ids")
        columns = model_columns(*(getattr(self, name) for name in names))
        for name, column in zip(names, columns):
            object.__setattr__(self, name, column)


def encode_round_open(round_index: int) -> bytes:
    """Serialize a ROUND_OPEN payload (the round being opened)."""
    return _ROUND.pack(int(round_index))


@_codec_guard("invalid ROUND_OPEN payload")
def decode_round_open(payload: bytes) -> int:
    """Inverse of :func:`encode_round_open`."""
    if len(payload) != _ROUND.size:
        raise CodecError(f"payload is {len(payload)} bytes, expected {_ROUND.size}")
    return int(_ROUND.unpack(payload)[0])


def encode_round_commit(round_index: int) -> bytes:
    """Serialize a ROUND_COMMIT payload (the round being committed)."""
    return _ROUND.pack(int(round_index))


@_codec_guard("invalid ROUND_COMMIT payload")
def decode_round_commit(payload: bytes) -> int:
    """Inverse of :func:`encode_round_commit`."""
    if len(payload) != _ROUND.size:
        raise CodecError(f"payload is {len(payload)} bytes, expected {_ROUND.size}")
    return int(_ROUND.unpack(payload)[0])


def encode_delta_request(
    round_index: int, known_reps: int, timeout_s: float
) -> bytes:
    """Serialize a MODEL_DELTA request.

    Args:
        round_index: the round whose commit the client waits for.
        known_reps: representatives the client already holds (0 for a
            fresh session — the reply then carries the whole model).
        timeout_s: how long the server may hold the request open.
    """
    return _DELTA_REQUEST.pack(
        int(round_index), int(known_reps), float(timeout_s)
    )


@_codec_guard("invalid MODEL_DELTA request payload")
def decode_delta_request(payload: bytes) -> tuple[int, int, float]:
    """Inverse of :func:`encode_delta_request`.

    Raises:
        CodecError: on a size mismatch, or a NaN or negative timeout
            (``0`` is a poll, ``+inf`` waits as long as the server
            allows).
    """
    if len(payload) != _DELTA_REQUEST.size:
        raise CodecError(
            f"payload is {len(payload)} bytes, expected {_DELTA_REQUEST.size}"
        )
    round_index, known_reps, timeout_s = _DELTA_REQUEST.unpack(payload)
    if not timeout_s >= 0:
        raise CodecError(f"timeout must be >= 0, got {timeout_s}")
    return int(round_index), int(known_reps), float(timeout_s)


def encode_model_delta(delta: ModelDelta) -> bytes:
    """Serialize a MODEL_DELTA reply.

    Raises:
        ValueError: when the label vector does not cover the model, or a
            site or local cluster id does not fit an int32.
    """
    n_new, dim = delta.points.shape
    labels = np.ascontiguousarray(delta.labels, dtype="<i8")
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size != delta.base_count + n_new:
        raise ValueError(
            f"label vector has {labels.size} entries, model has "
            f"{delta.base_count + n_new} representatives"
        )
    header = _DELTA_HEADER.pack(
        delta.eps_global, delta.min_pts_global, delta.base_count, n_new, dim
    )
    records = pack_records(record_dtype(_DELTA_RECORD, dim), delta)
    return header + records + labels.tobytes()


@_codec_guard("invalid MODEL_DELTA payload")
def decode_model_delta(payload: bytes) -> ModelDelta:
    """Inverse of :func:`encode_model_delta`."""
    eps_global, min_pts, base_count, n_new, dim = _DELTA_HEADER.unpack_from(
        payload, 0
    )
    labels_size = (base_count + n_new) * 8
    columns = _record_columns(
        payload, _DELTA_HEADER.size, _DELTA_RECORD, n_new, dim, labels_size
    )
    labels = np.frombuffer(payload, dtype="<i8", offset=len(payload) - labels_size)
    return ModelDelta(
        eps_global=float(eps_global),
        min_pts_global=int(min_pts),
        base_count=int(base_count),
        **columns,
        labels=labels.astype(np.intp, copy=False),
    )


def delta_from_model(model: GlobalModel, known_reps: int) -> ModelDelta:
    """The delta that advances a client holding ``known_reps``
    representatives to ``model``.

    Raises:
        ValueError: when ``known_reps`` exceeds the model (the client
            claims to know more than exists — a protocol violation).
    """
    n = len(model)
    if not 0 <= known_reps <= n:
        raise ValueError(
            f"known_reps {known_reps} out of range for a model of {n} "
            "representatives"
        )
    return ModelDelta(
        eps_global=float(model.eps_global),
        min_pts_global=int(model.min_pts_global),
        base_count=int(known_reps),
        points=model.points[known_reps:],
        eps_ranges=model.eps_ranges[known_reps:],
        site_ids=model.site_ids[known_reps:],
        local_cluster_ids=model.local_cluster_ids[known_reps:],
        labels=model.global_labels.copy(),
    )


def apply_model_delta(
    known_model: GlobalModel | None, delta: ModelDelta
) -> GlobalModel:
    """Reconstruct the full global model from a known prefix + delta.

    Args:
        known_model: the model the client held before the round
            (``None`` for a fresh session; the delta must then have
            ``base_count == 0``).
        delta: the server's reply.

    Raises:
        CodecError: when the delta does not extend ``known_model``
            (mismatched prefix length or dimensionality) — the client
            must refetch with ``known_reps=0``.
    """
    known = 0 if known_model is None else len(known_model)
    if known != delta.base_count:
        raise CodecError(
            f"delta builds on {delta.base_count} representatives, client "
            f"holds {known}"
        )
    if known and len(delta.eps_ranges) and known_model.dim != delta.points.shape[1]:
        raise CodecError(
            f"delta of dimensionality {delta.points.shape[1]} does not extend "
            f"a {known_model.dim}-dimensional model"
        )
    columns = stack_columns([delta] if known_model is None else [known_model, delta])
    if columns[1].size != delta.labels.size:
        raise CodecError(
            f"reconstructed model has {columns[1].size} representatives but "
            f"{delta.labels.size} labels"
        )
    return GlobalModel(
        *columns,
        global_labels=delta.labels,
        eps_global=delta.eps_global,
        min_pts_global=delta.min_pts_global,
    )
