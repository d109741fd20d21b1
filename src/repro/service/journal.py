"""Write-ahead journal backing :class:`~repro.service.server.DBDCService`.

Each record is one decision of the round core
(:class:`~repro.distributed.server.RoundCore`) that changed its state —
an admitted local model, a round open or commit, a quarantine — written
to disk *before* the decision is applied and acknowledged to a client,
so a crashed server restarts by applying the same decisions to a fresh
core and holds the exact state an uninterrupted run would (the recovery
tests pin bit-identity per round).

Record format (little-endian, length-prefixed, CRC-guarded)::

    +-------+-------+------+------+--------+----------------+
    | magic | crc32 | kind | seq  | length | payload        |
    | 4s    | I     | B    | Q    | I      | length bytes   |
    +-------+-------+------+------+--------+----------------+

The CRC covers ``kind + seq + length + payload`` — a flipped kind or
sequence byte is caught even though the payloads of, say, ROUND_OPEN
and ROUND_COMMIT are interchangeable.  Every record carries a strictly
increasing sequence number; a record that does not raise it is damage.

The journal is one append-only file, ``wal.log``, fsynced after every
record.  It is never compacted: replay always applies the full decision
stream to the core, so recovered state is trivially equivalent to never
having crashed.  Bounding its size would take a snapshot of derived
state (the committed model and the admitted set), which this module does
not write.  Every truncation or corruption point yields a typed error —
:class:`JournalTruncated` for a torn tail, :class:`JournalCorrupt` for
bit damage — and recovery resumes from the last good record, never a
wrong one.
"""

from __future__ import annotations

import enum
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "RecordKind",
    "Record",
    "ScanResult",
    "JournalRecovery",
    "JournalError",
    "JournalTruncated",
    "JournalCorrupt",
    "WriteAheadJournal",
    "scan_records",
    "encode_record",
    "encode_epoch",
    "decode_epoch",
    "encode_round_marker",
    "decode_round_marker",
    "encode_admitted",
    "decode_admitted",
    "encode_quarantine",
    "decode_quarantine",
]

MAGIC = b"DBWJ"

#: magic, crc32, kind, sequence, payload length.
_RECORD_HEADER = struct.Struct("<4sIBQI")
RECORD_HEADER_SIZE = _RECORD_HEADER.size
#: The slice of the header the CRC covers (everything after the CRC).
_CRC_BODY = struct.Struct("<BQI")

#: Reject records declaring more payload than this — a corrupt length
#: field must not make the scanner swallow the rest of the file as one
#: giant "payload".
MAX_RECORD_PAYLOAD = 64 * 1024 * 1024

_EPOCH = struct.Struct("<Q")
_ROUND = struct.Struct("<i")
_QUARANTINE = struct.Struct("<iiH")  # round, site, reason length


class RecordKind(enum.IntEnum):
    """What one journal record describes."""

    EPOCH = 1           #: a server generation started (payload: epoch)
    MODEL_ADMITTED = 2  #: an upload passed the admission gate
    ROUND_OPEN = 3      #: a streaming round opened
    ROUND_COMMIT = 4    #: a streaming round committed
    QUARANTINE = 5      #: an upload was quarantined


class JournalError(Exception):
    """Base of every journal failure; ``offset`` names the byte the
    scanner stopped at."""

    def __init__(self, message: str, *, offset: int = 0) -> None:
        super().__init__(message)
        self.offset = offset


class JournalTruncated(JournalError):
    """The journal ends mid-record — the torn tail of a crash mid-write.
    Everything before ``offset`` is intact and replayable."""


class JournalCorrupt(JournalError):
    """A record is damaged in place (bad magic, CRC mismatch, impossible
    length or sequence) — bit rot or an overwrite, not a torn append."""


@dataclass(frozen=True)
class Record:
    """One decoded journal record."""

    kind: RecordKind
    seq: int
    payload: bytes


@dataclass(frozen=True)
class ScanResult:
    """What scanning one journal file produced.

    Attributes:
        records: every intact record, in file order.
        valid_bytes: length of the intact prefix — the repair point.
        error: the typed error that stopped the scan (``None`` on a
            clean end-of-file).
    """

    records: list
    valid_bytes: int
    error: JournalError | None


@dataclass(frozen=True)
class JournalRecovery:
    """What :meth:`WriteAheadJournal.recover` reconstructed.

    Attributes:
        records: the intact record stream to replay, in order.
        log_error: typed error the log scan stopped at.
        truncated_bytes: torn/damaged log bytes cut off by the repair.
    """

    records: list
    log_error: JournalError | None = None
    truncated_bytes: int = 0


def encode_record(kind: RecordKind, seq: int, payload: bytes) -> bytes:
    """Serialize one record (header + payload)."""
    if len(payload) > MAX_RECORD_PAYLOAD:
        raise ValueError(
            f"record payload of {len(payload)} bytes exceeds "
            f"{MAX_RECORD_PAYLOAD}"
        )
    body = _CRC_BODY.pack(int(kind), seq, len(payload))
    crc = zlib.crc32(body + payload) & 0xFFFFFFFF
    return _RECORD_HEADER.pack(MAGIC, crc, int(kind), seq, len(payload)) + payload


def scan_records(data: bytes) -> ScanResult:
    """Walk a journal byte stream, stopping at the first damage.

    Never raises: the typed error lands in the result so callers can
    both replay the good prefix and report exactly what was lost.
    """
    records: list[Record] = []
    offset = 0
    prev_seq = 0
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < RECORD_HEADER_SIZE:
            return ScanResult(
                records,
                offset,
                JournalTruncated(
                    f"{remaining} trailing bytes, record header needs "
                    f"{RECORD_HEADER_SIZE}",
                    offset=offset,
                ),
            )
        magic, crc, kind_value, seq, length = _RECORD_HEADER.unpack_from(
            data, offset
        )
        if magic != MAGIC:
            return ScanResult(
                records,
                offset,
                JournalCorrupt(
                    f"bad record magic {magic!r} at byte {offset}",
                    offset=offset,
                ),
            )
        if length > MAX_RECORD_PAYLOAD:
            return ScanResult(
                records,
                offset,
                JournalCorrupt(
                    f"record declares {length} payload bytes at byte "
                    f"{offset} (cap {MAX_RECORD_PAYLOAD})",
                    offset=offset,
                ),
            )
        end = offset + RECORD_HEADER_SIZE + length
        if end > len(data):
            return ScanResult(
                records,
                offset,
                JournalTruncated(
                    f"record at byte {offset} declares {length} payload "
                    f"bytes, {len(data) - offset - RECORD_HEADER_SIZE} "
                    "present",
                    offset=offset,
                ),
            )
        payload = data[offset + RECORD_HEADER_SIZE : end]
        body = data[offset + 8 : offset + RECORD_HEADER_SIZE]
        if zlib.crc32(body + payload) & 0xFFFFFFFF != crc:
            return ScanResult(
                records,
                offset,
                JournalCorrupt(
                    f"CRC mismatch on record at byte {offset}", offset=offset
                ),
            )
        try:
            kind = RecordKind(kind_value)
        except ValueError:
            return ScanResult(
                records,
                offset,
                JournalCorrupt(
                    f"unknown record kind {kind_value} at byte {offset}",
                    offset=offset,
                ),
            )
        if seq <= prev_seq:
            return ScanResult(
                records,
                offset,
                JournalCorrupt(
                    f"sequence went {prev_seq} -> {seq} at byte {offset}",
                    offset=offset,
                ),
            )
        records.append(Record(kind=kind, seq=seq, payload=payload))
        prev_seq = seq
        offset = end
    return ScanResult(records, offset, None)


# ----------------------------------------------------------------------
# record payload codecs
# ----------------------------------------------------------------------
def encode_epoch(epoch: int) -> bytes:
    """EPOCH payload: the server generation that just started."""
    return _EPOCH.pack(int(epoch))


def decode_epoch(payload: bytes) -> int:
    """Inverse of :func:`encode_epoch`."""
    if len(payload) != _EPOCH.size:
        raise JournalCorrupt(
            f"EPOCH payload is {len(payload)} bytes, expected {_EPOCH.size}"
        )
    return int(_EPOCH.unpack(payload)[0])


def encode_round_marker(round_index: int) -> bytes:
    """ROUND_OPEN / ROUND_COMMIT payload: the round index."""
    return _ROUND.pack(int(round_index))


def decode_round_marker(payload: bytes) -> int:
    """Inverse of :func:`encode_round_marker`."""
    if len(payload) != _ROUND.size:
        raise JournalCorrupt(
            f"round payload is {len(payload)} bytes, expected {_ROUND.size}"
        )
    return int(_ROUND.unpack(payload)[0])


def encode_admitted(round_index: int, model_payload: bytes) -> bytes:
    """MODEL_ADMITTED payload: round index (-1 = one-shot) + the exact
    wire payload of the admitted upload (replay re-decodes it through
    the same codec the live admission used)."""
    return _ROUND.pack(int(round_index)) + model_payload


def decode_admitted(payload: bytes) -> tuple[int, bytes]:
    """Inverse of :func:`encode_admitted`."""
    if len(payload) < _ROUND.size:
        raise JournalCorrupt(
            f"MODEL_ADMITTED payload is {len(payload)} bytes, header needs "
            f"{_ROUND.size}"
        )
    return int(_ROUND.unpack_from(payload, 0)[0]), payload[_ROUND.size :]


def encode_quarantine(round_index: int, site_id: int, reason: str) -> bytes:
    """QUARANTINE payload: round index, site id, human reason."""
    data = reason.encode("utf-8")[:0xFFFF]
    return _QUARANTINE.pack(int(round_index), int(site_id), len(data)) + data


def decode_quarantine(payload: bytes) -> tuple[int, int, str]:
    """Inverse of :func:`encode_quarantine`."""
    if len(payload) < _QUARANTINE.size:
        raise JournalCorrupt(
            f"QUARANTINE payload is {len(payload)} bytes, header needs "
            f"{_QUARANTINE.size}"
        )
    round_index, site_id, length = _QUARANTINE.unpack_from(payload, 0)
    data = payload[_QUARANTINE.size :]
    if len(data) != length:
        raise JournalCorrupt(
            f"QUARANTINE reason is {len(data)} bytes, header declares "
            f"{length}"
        )
    return int(round_index), int(site_id), data.decode("utf-8", "replace")


class WriteAheadJournal:
    """The service's durable record stream: one append-only ``wal.log``.

    Args:
        directory: where the log lives (created if missing).
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log_path = self.directory / "wal.log"
        self.bytes_written = 0
        self.records_written = 0
        self._fh = None
        self._next_seq = 1

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> JournalRecovery:
        """Scan the log, cut off its torn tail, return the replay.

        The damaged tail is truncated in place and fsynced: the repair
        writes no record bytes, so a failure while it runs cannot lose
        the intact prefix.

        Raises:
            JournalError: the directory holds a ``wal.snapshot``.  Older
                journals compacted their prefix into that file, so its
                records are not in the log, and replaying the log alone
                would silently drop them.
        """
        snapshot = self.directory / "wal.snapshot"
        if snapshot.exists():
            raise JournalError(
                f"{snapshot} holds records that are not in wal.log; "
                "this journal replays wal.log alone and refuses to drop them"
            )
        log_bytes = (
            self.log_path.read_bytes() if self.log_path.exists() else b""
        )
        log = scan_records(log_bytes)
        truncated = len(log_bytes) - log.valid_bytes
        if truncated:
            with open(self.log_path, "r+b") as fh:
                fh.truncate(log.valid_bytes)
                os.fsync(fh.fileno())
        self._next_seq = log.records[-1].seq + 1 if log.records else 1
        return JournalRecovery(
            records=log.records, log_error=log.error, truncated_bytes=truncated
        )

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _handle(self):
        if self._fh is None:
            self._fh = open(self.log_path, "ab")
        return self._fh

    def append(self, kind: RecordKind, payload: bytes) -> int:
        """Durably append one record; returns its sequence number.

        The record is flushed and fsynced before this returns — the
        caller may acknowledge the client afterwards.
        """
        seq = self._next_seq
        record = encode_record(kind, seq, payload)
        fh = self._handle()
        fh.write(record)
        fh.flush()
        os.fsync(fh.fileno())
        self._next_seq += 1
        self.bytes_written += len(record)
        self.records_written += 1
        return seq

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
