"""Distributed tracing across the socket service.

One traced multi-worker streaming session — the ``service-trace-smoke``
scenario at a small size, module-scoped: real sockets, real threads —
feeds most of the assertions:

* the merged document is ONE trace — schema-valid, one trace id, every
  process (server + each site) present with a clock-offset estimate;
* **attribution** — every round's wall time at every site reconciles
  with the worker's own measurements within 1%, and the phase children
  exactly partition each round span;
* **critical path** — every round names a gating site and phase, plus
  the server-side admission/repair/broadcast split;
* wire context propagation — the server's admission spans carry the
  session trace id that arrived in the frame headers;
* the Chrome export gives every remote process its own pid lane
  (named ``process site-N``);
* ``service.frame_bytes_{sent,received}`` counters keep the same
  payload-byte accounting ``SimulatedNetwork.bytes_by_kind`` does;
* with tracing off the socket path sends plain version-1 frames and the
  service records nothing.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.data.datasets import load_dataset
from repro.distributed.network import SERVER, SimulatedNetwork
from repro.obs import (
    MetricsRegistry,
    critical_path,
    format_critical_path,
    round_spans,
    to_chrome_trace,
    validate_trace,
)
import repro.scenario as scenario
from repro.scenario import PRESETS, ROUND_PHASES, reconcile_session_trace, run
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceHandle
from repro.service.transport import ServiceError, SocketTransport

N_SITES = 2
N_ROUNDS = 2
SEED = 0
SESSION = replace(
    PRESETS["service-trace-smoke"],
    cardinality=(480,),
    sites=N_SITES,
    rounds=N_ROUNDS,
    data_seed=SEED,
)


@pytest.fixture(scope="module")
def session_report():
    """One traced socket session shared by the whole module."""
    return run(SESSION, "service-trace-smoke")


def _admissions(spans):
    for span in spans:
        if span["name"] == "serve[local_model]":
            yield span
        yield from _admissions(span.get("children", []))


class TestMergedDocument:
    def test_schema_valid(self, session_report):
        assert validate_trace(session_report.trace) == []
        assert session_report.metrics["serve_trace.schema_ok"] == 1.0

    def test_one_trace_many_processes(self, session_report):
        processes = session_report.trace["processes"]
        expected = {"server"} | {f"site-{i}" for i in range(N_SITES)}
        assert expected <= set(processes)
        # The server anchors the merged timeline: offset exactly zero.
        assert processes["server"]["clock_offset_s"] == 0.0
        for name in expected - {"server"}:
            entry = processes[name]
            assert entry["rtt_s"] >= 0.0
            assert abs(entry["clock_offset_s"]) < 10.0  # same machine
            assert entry["n_spans"] >= 1

    def test_labels_bit_identical_with_tracing_on(self, session_report):
        assert session_report.metrics["serve_trace.labels_identical"] == 1.0
        assert session_report.metrics["serve_trace.model_identical"] == 1.0

    def test_every_worker_round_attributed(self, session_report):
        assert session_report.problems == []
        assert session_report.metrics["serve_trace.attribution_ok"] == 1.0

    def test_phase_children_partition_each_round(self, session_report):
        rounds = round_spans(session_report.trace)
        assert set(rounds) == {
            (r, site) for r in range(N_ROUNDS) for site in range(N_SITES)
        }
        for span in rounds.values():
            children = span["children"]
            assert [child["name"] for child in children] == list(ROUND_PHASES)
            covered = sum(c["wall_end"] - c["wall_start"] for c in children)
            wall = span["wall_end"] - span["wall_start"]
            assert covered == pytest.approx(wall, rel=1e-6)

    def test_gate_catches_a_missing_round_span(self, session_report):
        doc = session_report.trace
        spans = round_spans(doc)
        victim = spans[(N_ROUNDS - 1, 0)]
        victim["name"] = "renamed"
        try:
            trace_id = int(next(_admissions(doc["spans"]))["attrs"]["trace_id"], 16)
            problems = reconcile_session_trace(
                doc, {0: SimpleNamespace(round_wall_seconds=[])},
                N_SITES, N_ROUNDS, trace_id,
            )
        finally:
            victim["name"] = "round"
        assert problems == [f"round span missing for round {N_ROUNDS - 1} site 0"]

    def test_server_spans_carry_wire_context(self, session_report):
        spans = list(_admissions(session_report.trace["spans"]))
        assert len(spans) == N_SITES * N_ROUNDS
        trace_hex = spans[0]["attrs"]["trace_id"]
        assert int(trace_hex, 16) != 0
        for span in spans:
            assert span["attrs"]["trace_id"] == trace_hex
            # The parent is the worker's live session span, carried in
            # the frame header — present and a real (non-zero) id.
            assert int(span["attrs"]["parent_span_id"], 16) != 0


class TestCriticalPath:
    def test_every_round_names_gating_site_and_phase(self, session_report):
        rows = critical_path(session_report.trace)
        assert [row["round"] for row in rows] == list(range(N_ROUNDS))
        for row in rows:
            assert 0 <= row["gating_site"] < N_SITES
            assert row["gating_phase"] in ROUND_PHASES
            assert row["site_wall_seconds"] > 0.0
            assert row["phase_seconds"] > 0.0
            assert row["server_repair_seconds"] > 0.0
            assert row["server_admission_seconds"] >= 0.0
            assert row["server_broadcast_seconds"] >= 0.0

    def test_report_text_names_every_round(self, session_report):
        text = format_critical_path(critical_path(session_report.trace))
        for round_index in range(N_ROUNDS):
            assert f"round {round_index}:" in text
        assert "gates at" in text


class TestChromeLanes:
    def test_every_process_gets_a_named_pid_lane(self, session_report):
        chrome = to_chrome_trace(session_report.trace)
        events = chrome["traceEvents"]
        lanes = {
            event["args"]["name"]: event["pid"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        for name in ["server"] + [f"site-{i}" for i in range(N_SITES)]:
            assert f"process {name}" in lanes
        # Distinct processes, distinct pids — and none collide with the
        # reserved wall (1) / sim (2) lanes.
        pids = [lanes[f"process site-{i}"] for i in range(N_SITES)]
        pids.append(lanes["process server"])
        assert len(set(pids)) == len(pids)
        assert all(pid >= 3 for pid in pids)

    def test_site_spans_land_on_their_process_lane(self, session_report):
        chrome = to_chrome_trace(session_report.trace)
        events = chrome["traceEvents"]
        lanes = {
            event["args"]["name"]: event["pid"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        round_events = [
            event
            for event in events
            if event["ph"] == "X" and event["name"] == "round"
        ]
        assert round_events
        site_pids = {lanes[f"process site-{i}"] for i in range(N_SITES)}
        assert {event["pid"] for event in round_events} <= site_pids


class TestFrameByteCounters:
    def test_reconciles_with_simulated_network_accounting(self):
        """Both backends count *payload* bytes per kind, identically."""
        data = load_dataset("A", cardinality=240, seed=SEED)
        payloads = {
            "health": b"",
            "label_query": wire.encode_points(data.points[:64]),
        }
        simulated = SimulatedNetwork()
        for kind, payload in payloads.items():
            simulated.send(0, SERVER, kind, payload)
        by_kind = simulated.stats().bytes_by_kind

        metrics = MetricsRegistry()
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            transport = SocketTransport(
                handle.host, handle.port, site_id=0, metrics=metrics
            )
            with transport:
                for kind, payload in payloads.items():
                    try:
                        transport.send(0, SERVER, kind, payload)
                    except ServiceError:
                        pass  # "no_model" reply: typed, bytes still counted
        for kind, payload in payloads.items():
            assert metrics.value(f"service.frame_bytes_sent[{kind}]") == (
                by_kind[kind]
            ) == len(payload)
            # And something came back, counted the same way.
        assert metrics.value("service.frame_bytes_received[health_reply]") > 0

    def test_server_counts_received_payload_bytes(self):
        metrics = MetricsRegistry()
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None),
            metrics=metrics,
        ) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.health()
            received = metrics.value("service.frame_bytes_received[health]")
            sent = metrics.value("service.frame_bytes_sent[health_reply]")
        assert received == 0.0  # HEALTH carries no payload
        assert sent > 0.0  # the JSON health document does


class TestUntracedPathUnchanged:
    def test_no_tracer_means_version1_frames(self):
        transport = SocketTransport("127.0.0.1", 1, site_id=0)
        assert transport.current_context() is None
        data = wire.encode_frame(
            wire.FrameKind.HEALTH, b"", site_id=0,
            context=transport.current_context(),
        )
        assert data[4] == wire.PROTOCOL_VERSION
        assert data == wire.encode_frame(
            wire.FrameKind.HEALTH, b"", site_id=0
        )

    def test_untraced_session_records_no_uploads(self):
        from repro.service.worker import run_site_worker_session

        data = load_dataset("A", cardinality=240, seed=SEED)
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            result = run_site_worker_session(
                handle.host,
                handle.port,
                0,
                [data.points],
                n_sites=1,
                eps_local=data.eps_local,
                min_pts_local=data.min_pts,
            )
            with ServiceClient(handle.host, handle.port) as client:
                health = client.health()
        assert result.error == ""
        assert health["trace_uploads"] == 0

    def test_traced_labels_match_untraced_oracle(self, session_report):
        """Tracing must be a pure observer: the traced and the untraced
        session both end bit-identical to the one streaming oracle."""
        untraced = run(replace(SESSION, trace=False))
        assert untraced.trace is None
        for report in (session_report, untraced):
            assert report.metrics["serve_trace.labels_identical"] == 1.0
            assert report.metrics["serve_trace.model_identical"] == 1.0

    @pytest.mark.parametrize("part", ["labels", "model"])
    def test_diverging_oracle_reads_zero(self, monkeypatch, part):
        """The session checks can fail: an oracle off by one label, or
        by its merge radius, turns exactly that flag to 0."""
        oracle_session = scenario.run_streaming_session

        def skewed(*args, **kwargs):
            oracle = oracle_session(*args, **kwargs)
            if part == "labels":
                oracle.labels[-1][0] = oracle.labels[-1][0] + 1
            else:
                oracle.model = replace(
                    oracle.model, eps_global=2 * oracle.model.eps_global
                )
            return oracle

        monkeypatch.setattr(scenario, "run_streaming_session", skewed)
        report = run(replace(SESSION, trace=False))
        assert {
            name: report.metrics[f"serve_trace.{name}_identical"]
            for name in ("labels", "model")
        } == {"labels": float(part != "labels"), "model": float(part != "model")}
        assert report.problems == [{
            "labels": "session labels diverge from the streaming oracle",
            "model": "final session model differs from the streaming oracle",
        }[part]]
