"""Socket-level fault injection (``repro.service.faulting``).

The seed-keyed :class:`FaultPlan` DSL sabotages *real* TCP traffic:
injected drops and mid-frame truncations drive
:class:`ResilientTransport`'s retry/backoff loop over an actual
connection (with reconnect-and-resync after a torn-down stream),
corrupted frames land in the server's CRC quarantine as a protocol
verdict (not a retry), open circuit breakers fast-fail without touching
the wire, and the whole socket chaos sweep reproduces its counters
run-to-run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults.plan import FaultPlan, LinkFaults
from repro.faults.transport import (
    BreakerPolicy,
    ResilientTransport,
    TransportPolicy,
)
import repro.scenario as scenario
from repro.scenario import Scenario, run
from repro.service import (
    FaultingSocketTransport,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    SocketTransport,
    wire,
)

#: Tight budgets keep injected timeouts out of the tests' wall clock —
#: backoffs are recorded on the simulated clock but slept via a no-op.
POLICY = TransportPolicy(
    timeout_s=0.05, max_attempts=6, backoff_base_s=0.001, backoff_cap_s=0.002
)


def _tiny_model(site_id: int):
    from repro.core.models import LocalModel

    return LocalModel(
        site_id=site_id,
        points=[[0.0, 0.0]],
        eps_ranges=[1.0],
        local_cluster_ids=[0],
        n_objects=1,
        scheme="rep_scor",
        eps_local=1.0,
        min_pts_local=1,
    )


def _deliver_with_plan(plan, *, breaker_policy=None, n_messages=1):
    """One site's upload (plus optional probes) through the injector
    against a live service; returns what the retry layer saw."""
    outcomes = []
    with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
        with SocketTransport(handle.host, handle.port, site_id=0) as sock:
            injector = FaultingSocketTransport(
                sock, plan, sleep=lambda seconds: None
            )
            resilient = ResilientTransport(
                injector,
                FaultPlan.none(),
                POLICY,
                breaker_policy=breaker_policy,
                retryable_errors=FaultingSocketTransport.RETRYABLE,
                sleep=lambda seconds: None,
            )
            payload = wire.encode_local_model(_tiny_model(0))
            outcomes.append(
                resilient.deliver(0, wire.SERVER_ID, "local_model", payload)
            )
            for __ in range(n_messages - 1):
                outcomes.append(
                    resilient.deliver(0, wire.SERVER_ID, "health", b"")
                )
            admitted = list(handle.service.server.admitted_site_ids)
    return outcomes, injector, resilient, admitted


class TestInjectedDrops:
    def test_drops_drive_the_real_retry_loop(self):
        """A dropped attempt never touches the wire; the retry layer
        charges it a timeout and the next attempt delivers."""
        plan = FaultPlan(seed=5, link=LinkFaults(drop_prob=0.6))
        outcomes, injector, __, admitted = _deliver_with_plan(plan)
        outcome = outcomes[0]
        assert outcome.delivered
        assert outcome.attempts > 1
        assert injector.n_dropped == outcome.attempts - 1
        assert outcome.n_dropped == injector.n_dropped
        assert admitted == [0]

    def test_drop_trace_is_deterministic(self):
        plan = FaultPlan(seed=5, link=LinkFaults(drop_prob=0.6))
        first, inj_a, __, __admitted = _deliver_with_plan(plan)
        second, inj_b, __, __admitted = _deliver_with_plan(plan)
        assert first[0].attempts == second[0].attempts
        assert first[0].n_dropped == second[0].n_dropped
        assert first[0].bytes_sent == second[0].bytes_sent
        assert inj_a.n_dropped == inj_b.n_dropped


class TestInjectedTruncation:
    def test_truncation_tears_the_stream_and_reconnect_resyncs(self):
        """A truncated frame hits the wire for real (the server reads a
        short frame); the injector tears the connection down so the next
        attempt starts on a clean stream — and still gets through."""
        plan = FaultPlan(seed=1, link=LinkFaults(truncate_prob=0.7))
        outcomes, injector, __, admitted = _deliver_with_plan(plan)
        outcome = outcomes[0]
        assert injector.n_truncated >= 1
        assert outcome.delivered
        assert outcome.attempts == injector.n_truncated + 1
        assert admitted == [0]


class TestInjectedCorruption:
    def test_corruption_is_quarantined_not_retried(self):
        """Flipped payload bytes arrive as a complete frame; the server's
        CRC gate quarantines the upload — a protocol verdict the retry
        layer must NOT paper over with another attempt."""
        plan = FaultPlan.corrupted_payloads(1.0, seed=3)
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with SocketTransport(handle.host, handle.port, site_id=0) as sock:
                injector = FaultingSocketTransport(
                    sock, plan, sleep=lambda seconds: None
                )
                resilient = ResilientTransport(
                    injector,
                    FaultPlan.none(),
                    POLICY,
                    retryable_errors=FaultingSocketTransport.RETRYABLE,
                    sleep=lambda seconds: None,
                )
                payload = wire.encode_local_model(_tiny_model(0))
                with pytest.raises(ServiceError) as excinfo:
                    resilient.deliver(0, wire.SERVER_ID, "local_model", payload)
                assert excinfo.value.status == "quarantined"
                assert injector.n_corrupted == 1
                health = handle.service.health()
        assert health["sites_quarantined"] == 1
        assert health["sites_admitted"] == 0


class TestBreakerOverSockets:
    def test_open_breaker_fast_fails_the_real_link(self):
        plan = FaultPlan(seed=0, link=LinkFaults(drop_prob=1.0))
        outcomes, injector, resilient, admitted = _deliver_with_plan(
            plan,
            breaker_policy=BreakerPolicy(
                failure_threshold=1, cooldown_s=1000.0
            ),
            n_messages=2,
        )
        first, second = outcomes
        assert not first.delivered  # every attempt dropped
        assert first.attempts == POLICY.max_attempts
        assert second.fast_failed  # breaker open: no wire traffic at all
        assert second.attempts == 0
        assert resilient.breaker_state(0) == "open"
        assert resilient.stats.n_fast_failed == 1
        assert resilient.stats.n_breaker_state_changes >= 1
        assert injector.n_sends == POLICY.max_attempts
        assert admitted == []


class TestSocketChaosSweep:
    SPEC = Scenario(
        dataset="A", cardinality=(200,), sites=2, server="thread",
        fault_mode="links", failure_probs=(0.6,), seed=7,
    )

    def test_sweep_counters_reproduce_run_to_run(self):
        first = run(self.SPEC).metrics
        second = run(self.SPEC).metrics
        assert first["socket_chaos.retries[p=0.6]"] > 0
        # No fault-free lane, nothing to compare with the runner.
        assert "socket_chaos.completed_identical" not in first
        stable = [key for key in first if "seconds" not in key]
        assert {key: first[key] for key in stable} == {
            key: second[key] for key in stable
        }

    def test_fault_free_lane_is_bit_identical_to_the_runner(self):
        report = run(replace(self.SPEC, failure_probs=(0.0,)))
        assert report.metrics["socket_chaos.completed_identical"] == 1.0
        assert report.problems == []

    def test_diverging_fault_free_lane_reads_zero(self, monkeypatch):
        reference = scenario._reference_labels
        monkeypatch.setattr(
            scenario, "_reference_labels",
            lambda spec, data: reference(spec, data) + 1,
        )
        report = run(replace(self.SPEC, failure_probs=(0.0, 0.6)))
        assert report.metrics["socket_chaos.completed_identical"] == 0.0
        assert report.problems == [
            "a fault-free socket trial diverged from the runner"
        ]
