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
increasing sequence number; replay deduplicates on it, which makes the
compaction rename window crash-safe (a crash between the snapshot
rename and the log truncation leaves duplicate records that replay
skips instead of applying twice).

Two files live in the journal directory:

- ``wal.log`` — the append-only tail, fsynced per record by default.
- ``wal.snapshot`` — the compacted prefix, rewritten atomically
  (tmp + fsync + rename) whenever the log outgrows
  ``snapshot_every_bytes`` at a safe point (no open round).

Compaction preserves the *record stream* rather than derived state:
recovery always applies the full decision stream to the core, so
recovered state is trivially equivalent to never having crashed (only
redundant EPOCH records are collapsed).  Every
truncation or corruption point yields a typed error —
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
        records: the deduplicated record stream to replay, in order.
        snapshot_error: typed error the snapshot scan stopped at.
        log_error: typed error the log scan stopped at.
        truncated_bytes: torn/damaged log bytes discarded by the repair.
        gap: true when the snapshot lost records *and* the log does not
            continue contiguously — the log tail was unreachable and
            was discarded rather than replayed out of order.
    """

    records: list
    snapshot_error: JournalError | None = None
    log_error: JournalError | None = None
    truncated_bytes: int = 0
    gap: bool = False


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
    """The service's durable record stream (``wal.log`` + ``wal.snapshot``).

    Args:
        directory: where the journal files live (created if missing).
        fsync: fsync the log after every appended record (the
            durability-before-acknowledgement guarantee; turn off only
            for benches that measure the fsync cost itself).
        snapshot_every_bytes: compact once the log outgrows this.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: bool = True,
        snapshot_every_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if snapshot_every_bytes <= 0:
            raise ValueError(
                "snapshot_every_bytes must be positive, got "
                f"{snapshot_every_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log_path = self.directory / "wal.log"
        self.snapshot_path = self.directory / "wal.snapshot"
        self._tmp_path = self.directory / "wal.snapshot.tmp"
        self.fsync = bool(fsync)
        self.snapshot_every_bytes = int(snapshot_every_bytes)
        self.bytes_written = 0
        self.records_written = 0
        self.fsync_count = 0
        self.compactions = 0
        self.last_recovery: JournalRecovery | None = None
        self._fh = None
        self._next_seq = 1

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> JournalRecovery:
        """Scan snapshot + log, repair the torn tail, return the replay.

        The log is truncated to its intact prefix (the snapshot is
        written atomically, so it is never repaired in place).  A stale
        compaction temp file is removed.  Records already covered by the
        snapshot are deduplicated by sequence number — the crash window
        between the snapshot rename and the log truncation therefore
        replays each record exactly once.
        """
        self._tmp_path.unlink(missing_ok=True)
        snap_bytes = (
            self.snapshot_path.read_bytes()
            if self.snapshot_path.exists()
            else b""
        )
        log_bytes = (
            self.log_path.read_bytes() if self.log_path.exists() else b""
        )
        snap = scan_records(snap_bytes)
        log = scan_records(log_bytes)
        last_snap_seq = snap.records[-1].seq if snap.records else 0
        fresh = [r for r in log.records if r.seq > last_snap_seq]
        gap = False
        if snap.error is not None and fresh:
            # The snapshot lost records off its tail; the log only
            # continues the stream if its first fresh record is the very
            # next sequence number — otherwise replaying it would skip
            # state and silently diverge.
            if fresh[0].seq != last_snap_seq + 1:
                gap = True
                fresh = []
        records = list(snap.records) + fresh
        highest = max(
            last_snap_seq,
            log.records[-1].seq if log.records else 0,
        )
        self._next_seq = highest + 1
        truncated = len(log_bytes) - log.valid_bytes
        if gap:
            # The surviving log records are unreachable without their
            # predecessors: drop them so later appends extend a
            # consistent stream.
            with open(self.log_path, "wb") as fh:
                fh.flush()
                os.fsync(fh.fileno())
            truncated = len(log_bytes)
        elif truncated:
            with open(self.log_path, "wb") as fh:
                fh.write(log_bytes[: log.valid_bytes])
                fh.flush()
                os.fsync(fh.fileno())
        recovery = JournalRecovery(
            records=records,
            snapshot_error=snap.error,
            log_error=log.error,
            truncated_bytes=truncated,
            gap=gap,
        )
        self.last_recovery = recovery
        return recovery

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _handle(self):
        if self._fh is None:
            self._fh = open(self.log_path, "ab")
        return self._fh

    def append(self, kind: RecordKind, payload: bytes) -> int:
        """Durably append one record; returns its sequence number.

        The record is flushed (and fsynced unless disabled) before this
        returns — the caller may acknowledge the client afterwards.
        """
        seq = self._next_seq
        record = encode_record(kind, seq, payload)
        fh = self._handle()
        fh.write(record)
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
            self.fsync_count += 1
        self._next_seq += 1
        self.bytes_written += len(record)
        self.records_written += 1
        return seq

    @property
    def log_size(self) -> int:
        """Current size of the append log in bytes."""
        try:
            return self.log_path.stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def maybe_compact(self, *, force: bool = False) -> bool:
        """Fold the log into the snapshot when it has outgrown the cap.

        Only call at a safe point (no round open): the snapshot is
        written to a temp file, fsynced, atomically renamed over the old
        one, and only then is the log truncated.  A crash anywhere in
        between is recovered by the sequence-number dedup in
        :meth:`recover`.  Redundant EPOCH records collapse to the
        newest; everything else is preserved verbatim — replay always
        applies the full decision stream to the core.
        """
        size = self.log_size
        if size == 0:
            return False
        if not force and size < self.snapshot_every_bytes:
            return False
        if self._fh is not None:
            self._fh.flush()
        snap_bytes = (
            self.snapshot_path.read_bytes()
            if self.snapshot_path.exists()
            else b""
        )
        log_bytes = self.log_path.read_bytes()
        snap = scan_records(snap_bytes)
        log = scan_records(log_bytes)
        if snap.error is not None or log.error is not None:
            raise (snap.error or log.error)
        last_snap_seq = snap.records[-1].seq if snap.records else 0
        merged = list(snap.records) + [
            r for r in log.records if r.seq > last_snap_seq
        ]
        epochs = [r for r in merged if r.kind == RecordKind.EPOCH]
        if len(epochs) > 1:
            keep = epochs[-1]  # epoch grows with seq: last is the max
            merged = [
                r for r in merged if r.kind != RecordKind.EPOCH or r is keep
            ]
        with open(self._tmp_path, "wb") as fh:
            for record in merged:
                fh.write(encode_record(record.kind, record.seq, record.payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(self._tmp_path, self.snapshot_path)
        self._sync_directory()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        with open(self.log_path, "wb") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        self.compactions += 1
        return True

    def _sync_directory(self) -> None:
        """Make the snapshot rename durable (fsync the directory)."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds: best effort
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
