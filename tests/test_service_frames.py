"""Frame-read edge cases of the live service (ISSUE 8 satellites).

Raw-socket tests of :meth:`DBDCService._read_frame` and the shutdown
path: a clean EOF between frames is not an error, mid-header and
mid-payload truncation each get a typed ``protocol_error`` reply, the
per-frame deadline is ONE budget shared by header and payload (a
slow-loris client cannot stretch a frame to twice ``idle_timeout_s``),
and a graceful ``stop()`` hands blocked MODEL_DELTA waiters a typed
``shutting_down`` frame before their connection closes.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    wire,
)


def _raw_exchange(host: str, port: int, data: bytes) -> bytes:
    """Send raw bytes, half-close, and drain whatever comes back."""
    with socket.create_connection((host, port), timeout=10) as sock:
        if data:
            sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestFrameReads:
    def test_clean_eof_between_frames_is_not_an_error(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            response = _raw_exchange(handle.host, handle.port, b"")
            assert response == b""  # no ERROR frame for a clean goodbye
            counters = handle.service.metrics.to_dict()["counters"]
            assert counters.get("service.frame_errors", 0) == 0
            # The service keeps serving.
            with ServiceClient(handle.host, handle.port) as client:
                assert client.health()["status"] == "serving"

    def test_mid_header_truncation_is_a_typed_error(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            frame = wire.encode_frame(wire.FrameKind.LABEL_QUERY, b"x" * 64)
            response = _raw_exchange(handle.host, handle.port, frame[:10])
            decoded, __ = wire.decode_frame(response)
            assert decoded.kind == wire.FrameKind.ERROR
            status, detail = wire.decode_status(decoded.payload)
            assert status == "protocol_error"
            assert "mid-header" in detail

    def test_mid_payload_truncation_is_a_typed_error(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            frame = wire.encode_frame(wire.FrameKind.LABEL_QUERY, b"x" * 64)
            cut = wire.HEADER_SIZE + 5
            response = _raw_exchange(handle.host, handle.port, frame[:cut])
            decoded, __ = wire.decode_frame(response)
            assert decoded.kind == wire.FrameKind.ERROR
            status, detail = wire.decode_status(decoded.payload)
            assert status == "protocol_error"
            assert "mid-payload" in detail

    def test_frame_deadline_is_one_budget_for_header_and_payload(self):
        """The slow-loris fix: the payload read only gets what the header
        read left of the per-frame deadline, so sending a bare header
        late cannot hold the connection for another full timeout."""
        config = ServiceConfig(idle_timeout_s=1.0, metrics_port=None)
        with ServiceHandle.start(config) as handle:
            frame = wire.encode_frame(wire.FrameKind.LABEL_QUERY, b"x" * 64)
            start = time.perf_counter()
            with socket.create_connection(
                (handle.host, handle.port), timeout=10
            ) as sock:
                time.sleep(0.6)
                sock.sendall(frame[: wire.HEADER_SIZE])
                # Never send the payload: the server must close at the
                # frame deadline (~1.0s after accept), not grant the
                # payload a fresh budget (~1.6s — the old 2x bug).
                while sock.recv(4096):
                    pass
            elapsed = time.perf_counter() - start
            assert elapsed < 1.45, (
                f"connection lived {elapsed:.2f}s — the payload read got "
                "its own deadline instead of sharing the frame's"
            )
            counters = handle.service.metrics.to_dict()["counters"]
            assert counters.get("service.connection_deadline_closes", 0) >= 1

    def test_a_payload_frame_is_decoded_once_per_read(self, monkeypatch):
        """Both stream readers validate the header, read the payload and
        decode the frame once: one label query costs one ``decode_frame``
        call on the service's loop thread and one on the client's."""
        calls: list[tuple[str, int]] = []
        decode = wire.decode_frame

        def counted(buffer, *args, **kwargs):
            calls.append((threading.current_thread().name, len(buffer)))
            return decode(buffer, *args, **kwargs)

        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.health()  # connected, no model yet
                monkeypatch.setattr(wire, "decode_frame", counted)
                with pytest.raises(ServiceError):
                    client.query([[0.0, 0.0]])
                monkeypatch.undo()
        main = threading.main_thread().name
        assert len(calls) == 2
        assert sorted(name == main for name, __ in calls) == [False, True]
        assert all(size > wire.HEADER_SIZE for __, size in calls)


class TestShutdownNotice:
    def test_stop_sends_shutting_down_to_delta_waiters(self):
        """Graceful stop: an in-flight MODEL_DELTA waiter (its wait races
        the shutdown event) receives a typed ``shutting_down`` ERROR
        frame, not a dead socket."""
        handle = ServiceHandle.start(ServiceConfig(metrics_port=None))
        outcomes: list[object] = []

        def wait() -> None:
            try:
                with ServiceClient(handle.host, handle.port) as client:
                    outcomes.append(
                        client.await_model_delta(0, None, timeout_s=30.0)
                    )
            except Exception as error:  # noqa: BLE001 - recorded for asserts
                outcomes.append(error)

        thread = threading.Thread(target=wait)
        thread.start()
        time.sleep(0.4)  # let the waiter block server-side
        handle.stop()
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(outcomes) == 1
        error = outcomes[0]
        assert isinstance(error, ServiceError), f"got {error!r}"
        assert error.status == "shutting_down"
        assert handle.service._n_shutdown_notices >= 1
        gauges = handle.service.metrics.to_dict()["gauges"]
        assert gauges["service.shutdown_notices"] >= 1
