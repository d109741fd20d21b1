"""Torture tests for the write-ahead journal.

The journal's contract: *every* truncation and corruption point yields a
typed error — :class:`JournalTruncated` for a torn tail,
:class:`JournalCorrupt` for bit damage — and recovery replays exactly
the intact record prefix, never a damaged or out-of-order record.  The
suite drives that contract at every byte offset of a known-good stream,
then property-tests it under hypothesis, checks that cutting a torn
tail cannot lose the intact prefix even when the disk is full, and that
a leftover ``wal.snapshot`` is refused rather than half-replayed.
"""

from __future__ import annotations

import errno

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import journal as journal_module
from repro.service.journal import (
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER_SIZE,
    JournalCorrupt,
    JournalError,
    JournalTruncated,
    Record,
    RecordKind,
    WriteAheadJournal,
    decode_admitted,
    decode_epoch,
    decode_quarantine,
    decode_round_marker,
    encode_admitted,
    encode_epoch,
    encode_quarantine,
    encode_record,
    encode_round_marker,
    scan_records,
)


def _stream(payloads: list[bytes]) -> tuple[bytes, list[Record]]:
    """A well-formed journal byte stream plus its expected records."""
    kinds = list(RecordKind)
    data = b""
    records = []
    for index, payload in enumerate(payloads):
        kind = kinds[index % len(kinds)]
        data += encode_record(kind, index + 1, payload)
        records.append(Record(kind=kind, seq=index + 1, payload=payload))
    return data, records


PAYLOADS = [b"", b"a", b"hello world", bytes(range(64)), b"x" * 200]


class TestScan:
    def test_clean_round_trip(self):
        data, records = _stream(PAYLOADS)
        result = scan_records(data)
        assert result.error is None
        assert result.valid_bytes == len(data)
        assert result.records == records

    def test_empty_stream(self):
        result = scan_records(b"")
        assert result.error is None
        assert result.records == []
        assert result.valid_bytes == 0

    def test_truncation_at_every_byte_offset(self):
        """Cutting the stream anywhere loses only the torn record: the
        scan returns the record prefix before the cut and a typed
        ``JournalTruncated`` unless the cut lands on a record boundary."""
        data, records = _stream(PAYLOADS)
        boundaries = [0]
        for record in records:
            boundaries.append(
                boundaries[-1] + RECORD_HEADER_SIZE + len(record.payload)
            )
        for cut in range(len(data)):
            result = scan_records(data[:cut])
            n_intact = sum(1 for edge in boundaries[1:] if edge <= cut)
            assert result.records == records[:n_intact], f"cut at {cut}"
            assert result.valid_bytes == boundaries[n_intact]
            if cut in boundaries:
                assert result.error is None, f"cut at {cut} is a boundary"
            else:
                assert isinstance(result.error, JournalTruncated), (
                    f"cut at {cut}"
                )
                assert result.error.offset == boundaries[n_intact]

    def test_single_byte_flip_at_every_offset(self):
        """Any single flipped byte is caught (CRC-32 detects all bursts
        up to 32 bits) and costs at most the record it lives in: the
        records before it replay, a typed error names the stop offset."""
        data, records = _stream(PAYLOADS)
        boundaries = [0]
        for record in records:
            boundaries.append(
                boundaries[-1] + RECORD_HEADER_SIZE + len(record.payload)
            )
        for offset in range(len(data)):
            damaged = bytearray(data)
            damaged[offset] ^= 0xFF
            result = scan_records(bytes(damaged))
            hit = sum(1 for edge in boundaries[1:] if edge <= offset)
            assert result.records == records[:hit], f"flip at {offset}"
            assert isinstance(result.error, JournalError), f"flip at {offset}"
            assert result.error.offset == boundaries[hit]
            assert result.valid_bytes == boundaries[hit]

    def test_bad_magic_is_corrupt(self):
        data, __ = _stream([b"payload"])
        result = scan_records(b"XXXX" + data[4:])
        assert isinstance(result.error, JournalCorrupt)
        assert "magic" in str(result.error)

    def test_oversized_length_is_corrupt_not_swallowed(self):
        record = bytearray(encode_record(RecordKind.EPOCH, 1, b"12345678"))
        # Overwrite the length field with something past the cap.
        import struct

        struct.pack_into("<I", record, 17, MAX_RECORD_PAYLOAD + 1)
        result = scan_records(bytes(record))
        assert isinstance(result.error, JournalCorrupt)
        assert "cap" in str(result.error)

    def test_non_monotonic_sequence_is_corrupt(self):
        data = encode_record(RecordKind.EPOCH, 2, b"") + encode_record(
            RecordKind.ROUND_OPEN, 2, b""
        )
        result = scan_records(data)
        assert len(result.records) == 1
        assert isinstance(result.error, JournalCorrupt)
        assert "sequence" in str(result.error)

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(ValueError, match="exceeds"):
            encode_record(RecordKind.EPOCH, 1, b"\x00" * (MAX_RECORD_PAYLOAD + 1))

    @settings(max_examples=60, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=50), min_size=1, max_size=8),
        cut=st.integers(min_value=0, max_value=10_000),
    )
    def test_truncation_property(self, payloads, cut):
        data, records = _stream(payloads)
        cut = cut % (len(data) + 1)
        result = scan_records(data[:cut])
        assert result.records == records[: len(result.records)]
        assert result.valid_bytes <= cut
        if result.error is None:
            assert result.valid_bytes == cut
        else:
            assert isinstance(result.error, JournalTruncated)

    @settings(max_examples=60, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=50), min_size=1, max_size=8),
        offset=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_flip_property(self, payloads, offset, flip):
        data, records = _stream(payloads)
        offset = offset % len(data)
        damaged = bytearray(data)
        damaged[offset] ^= flip
        result = scan_records(bytes(damaged))
        assert isinstance(result.error, JournalError)
        assert result.records == records[: len(result.records)]
        # The scan never replays the damaged record itself.
        assert len(result.records) < len(records)


class TestPayloadCodecs:
    def test_epoch_round_trip(self):
        assert decode_epoch(encode_epoch(7)) == 7

    def test_epoch_typed_error(self):
        with pytest.raises(JournalCorrupt):
            decode_epoch(b"\x01")

    def test_round_marker_round_trip(self):
        assert decode_round_marker(encode_round_marker(3)) == 3
        assert decode_round_marker(encode_round_marker(-1)) == -1

    def test_round_marker_typed_error(self):
        with pytest.raises(JournalCorrupt):
            decode_round_marker(b"")

    def test_admitted_round_trip(self):
        round_index, payload = decode_admitted(encode_admitted(2, b"model"))
        assert round_index == 2
        assert payload == b"model"

    def test_admitted_typed_error(self):
        with pytest.raises(JournalCorrupt):
            decode_admitted(b"\x00\x00")

    def test_quarantine_round_trip(self):
        round_index, site_id, reason = decode_quarantine(
            encode_quarantine(1, 4, "checksum failed")
        )
        assert (round_index, site_id, reason) == (1, 4, "checksum failed")

    def test_quarantine_length_mismatch(self):
        payload = bytearray(encode_quarantine(0, 0, "abc"))
        del payload[-1]
        with pytest.raises(JournalCorrupt):
            decode_quarantine(bytes(payload))


class TestWriteAheadJournal:
    def test_append_recover_round_trip(self, tmp_path):
        with WriteAheadJournal(tmp_path) as journal:
            journal.append(RecordKind.EPOCH, encode_epoch(1))
            journal.append(RecordKind.ROUND_OPEN, encode_round_marker(0))
            journal.append(RecordKind.MODEL_ADMITTED, encode_admitted(0, b"m"))
        with WriteAheadJournal(tmp_path) as fresh:
            recovery = fresh.recover()
            assert [r.kind for r in recovery.records] == [
                RecordKind.EPOCH,
                RecordKind.ROUND_OPEN,
                RecordKind.MODEL_ADMITTED,
            ]
            assert recovery.truncated_bytes == 0
            assert recovery.log_error is None
            # Appends continue the sequence, not restart it.
            seq = fresh.append(RecordKind.ROUND_COMMIT, encode_round_marker(0))
        assert seq == 4

    def test_recover_truncates_torn_tail(self, tmp_path):
        with WriteAheadJournal(tmp_path) as journal:
            journal.append(RecordKind.EPOCH, encode_epoch(1))
            journal.append(RecordKind.ROUND_OPEN, encode_round_marker(0))
        log_path = tmp_path / "wal.log"
        intact = log_path.read_bytes()
        log_path.write_bytes(intact + intact[: RECORD_HEADER_SIZE - 3])
        fresh = WriteAheadJournal(tmp_path)
        recovery = fresh.recover()
        assert len(recovery.records) == 2
        assert isinstance(recovery.log_error, JournalTruncated)
        assert recovery.truncated_bytes == RECORD_HEADER_SIZE - 3
        # The file itself was repaired to the intact prefix.
        assert log_path.read_bytes() == intact
        assert WriteAheadJournal(tmp_path).recover().log_error is None

    def test_recover_at_every_truncation_offset(self, tmp_path):
        """The on-disk repair mirrors the scan: for every cut point the
        journal recovers the boundary-aligned prefix and the repaired
        file re-recovers cleanly."""
        with WriteAheadJournal(tmp_path) as journal:
            for index in range(4):
                journal.append(
                    RecordKind.MODEL_ADMITTED,
                    encode_admitted(index, b"payload-%d" % index),
                )
        log_path = tmp_path / "wal.log"
        intact = log_path.read_bytes()
        for cut in range(len(intact)):
            log_path.write_bytes(intact[:cut])
            recovery = WriteAheadJournal(tmp_path).recover()
            assert recovery.truncated_bytes == cut - sum(
                RECORD_HEADER_SIZE + len(r.payload)
                for r in recovery.records
            )
            again = WriteAheadJournal(tmp_path).recover()
            assert again.log_error is None
            assert again.records == recovery.records
        log_path.write_bytes(intact)

    def test_torn_tail_repair_writes_no_record_bytes(
        self, tmp_path, monkeypatch
    ):
        """Cutting the torn tail must not rewrite the intact prefix: with
        every write to the log failing (a full disk), recovery still
        replays all acknowledged records and leaves them on disk."""
        with WriteAheadJournal(tmp_path) as journal:
            for index in range(3):
                journal.append(
                    RecordKind.MODEL_ADMITTED,
                    encode_admitted(index, b"model-%d" % index),
                )
        log_path = tmp_path / "wal.log"
        intact = log_path.read_bytes()
        log_path.write_bytes(intact + intact[: RECORD_HEADER_SIZE + 2])

        class FullDisk:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._fh.close()

        def full_disk_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return FullDisk(fh) if set(mode) & set("wa+") else fh

        with monkeypatch.context() as patch:
            patch.setattr(journal_module, "open", full_disk_open, raising=False)
            recovery = WriteAheadJournal(tmp_path).recover()
        assert [decode_admitted(r.payload)[0] for r in recovery.records] == [0, 1, 2]
        assert isinstance(recovery.log_error, JournalTruncated)
        assert log_path.read_bytes() == intact
        again = WriteAheadJournal(tmp_path).recover()
        assert again.records == recovery.records
        assert again.log_error is None

    def test_leftover_snapshot_is_refused_not_half_replayed(self, tmp_path):
        """A ``wal.snapshot`` holds a compacted prefix whose records are
        not in ``wal.log``: recovery raises a typed error naming the file
        instead of replaying the log alone, and touches neither file."""
        snapshot = encode_record(RecordKind.EPOCH, 1, encode_epoch(1))
        snapshot += encode_record(RecordKind.ROUND_OPEN, 2, encode_round_marker(0))
        # The log continues the stream and even has a torn tail to repair.
        log = encode_record(RecordKind.ROUND_COMMIT, 3, encode_round_marker(0))
        log += log[:5]
        (tmp_path / "wal.snapshot").write_bytes(snapshot)
        (tmp_path / "wal.log").write_bytes(log)
        with pytest.raises(JournalError, match="wal.snapshot"):
            WriteAheadJournal(tmp_path).recover()
        assert (tmp_path / "wal.snapshot").read_bytes() == snapshot
        assert (tmp_path / "wal.log").read_bytes() == log

    @settings(max_examples=25, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=40), min_size=1, max_size=6),
        cut=st.integers(min_value=0, max_value=10_000),
    )
    def test_recover_property(self, tmp_path_factory, payloads, cut):
        """For any stream and any cut, recovery yields a boundary-aligned
        prefix and leaves the directory re-recoverable."""
        tmp_path = tmp_path_factory.mktemp("wal")
        with WriteAheadJournal(tmp_path) as journal:
            for index, payload in enumerate(payloads):
                journal.append(
                    RecordKind.MODEL_ADMITTED, encode_admitted(index, payload)
                )
        log_path = tmp_path / "wal.log"
        data = log_path.read_bytes()
        log_path.write_bytes(data[: cut % (len(data) + 1)])
        recovery = WriteAheadJournal(tmp_path).recover()
        assert len(recovery.records) <= len(payloads)
        for index, record in enumerate(recovery.records):
            assert decode_admitted(record.payload) == (index, payloads[index])
        again = WriteAheadJournal(tmp_path).recover()
        assert again.records == recovery.records
        assert again.log_error is None
