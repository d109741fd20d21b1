"""Property tests: trace invariants hold under arbitrary fault plans.

For any fault plan the degraded-mode runner may face, the exported trace
must stay structurally sound: spans are well-nested (children inside
their parent's window), every span ends at or after its start on every
clock it carries, and — since these runs use ``parallelism=1`` — sibling
durations sum to no more than their parent's duration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import gaussian_blobs
from repro.distributed.runner import (
    DistributedRunConfig,
    DistributedRunner,
    RoundPolicy,
)
from repro.faults import FaultPlan, LinkFaults, SiteFaults, TransportPolicy
from repro.obs import MetricsRegistry, Tracer, validate_trace

EPSILON = 1e-6


@pytest.fixture(scope="module")
def blobs():
    points, __ = gaussian_blobs(
        [60, 60], np.asarray([[0.0, 0.0], [12.0, 0.0]]), 1.0, seed=17
    )
    return points


def _check_span(span, parent):
    assert span["wall_end"] >= span["wall_start"] - EPSILON, span["name"]
    if span.get("sim_start") is not None and span.get("sim_end") is not None:
        assert span["sim_end"] >= span["sim_start"] - EPSILON, span["name"]
    if parent is not None:
        assert span["wall_start"] >= parent["wall_start"] - EPSILON, (
            f"{span['name']} starts before parent {parent['name']}"
        )
        assert span["wall_end"] <= parent["wall_end"] + EPSILON, (
            f"{span['name']} ends after parent {parent['name']}"
        )
    children = span.get("children", [])
    child_sum = sum(c["wall_end"] - c["wall_start"] for c in children)
    span_duration = span["wall_end"] - span["wall_start"]
    assert child_sum <= span_duration + EPSILON * max(1, len(children)), (
        f"{span['name']}: children sum {child_sum} > duration {span_duration}"
    )
    for child in children:
        _check_span(child, span)


@st.composite
def fault_plans(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    link = LinkFaults(
        drop_prob=draw(st.floats(min_value=0.0, max_value=0.8)),
        duplicate_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
        reorder_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
        truncate_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
        jitter_s=draw(st.floats(min_value=0.0, max_value=0.2)),
    )
    site = SiteFaults(
        crash_before_local_prob=draw(st.floats(min_value=0.0, max_value=0.6)),
        crash_after_send_prob=draw(st.floats(min_value=0.0, max_value=0.6)),
        straggler_prob=draw(st.floats(min_value=0.0, max_value=0.6)),
    )
    return FaultPlan(seed=seed, link=link, site=site)


class TestTraceProperties:
    @settings(max_examples=12, deadline=None)
    @given(plan=fault_plans(), deadline_s=st.floats(min_value=1.0, max_value=100.0))
    def test_any_fault_plan_yields_well_nested_trace(
        self, blobs, plan, deadline_s
    ):
        report = DistributedRunner(
            DistributedRunConfig(eps_local=1.0, min_pts_local=5, seed=3),
            fault_plan=plan,
            transport_policy=TransportPolicy(max_attempts=3),
            round_policy=RoundPolicy(deadline_s=deadline_s),
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        ).run(blobs, 3)
        doc = report.trace
        assert validate_trace(doc) == []
        assert len(doc["spans"]) == 1  # one run root
        for root in doc["spans"]:
            _check_span(root, None)
        # The metrics snapshot in the trace is internally consistent.
        counters = doc["metrics"]["counters"]
        if "transport.messages" in counters:
            assert counters["transport.attempts"] >= counters[
                "transport.messages"
            ] - EPSILON
            delivered = counters.get("transport.delivered", 0)
            failed = counters.get("transport.failed", 0)
            assert delivered + failed == counters["transport.messages"]
