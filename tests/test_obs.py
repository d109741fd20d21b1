"""Unit and integration tests for the observability layer (repro.obs)."""

from __future__ import annotations

from dataclasses import replace

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.data.generators import gaussian_blobs
from repro.distributed.runner import (
    DistributedRunConfig,
    DistributedRunner,
    RecoveryPolicy,
)
from repro.faults import FaultPlan, SiteFaults
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Span,
    Tracer,
    load_trace_schema,
    phase_totals,
    to_chrome_trace,
    trace_document,
    validate_trace,
)
from repro.scenario import PRESETS, reconcile_trace, run


@pytest.fixture(scope="module")
def blobs():
    points, __ = gaussian_blobs(
        [80, 80, 80], np.asarray([[0.0, 0.0], [12.0, 0.0], [6.0, 10.0]]), 1.0,
        seed=3,
    )
    return points


def _config(**overrides):
    defaults = dict(eps_local=1.0, min_pts_local=5, seed=3)
    defaults.update(overrides)
    return DistributedRunConfig(**defaults)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.inc("a", 2.5)
        assert metrics.value("a") == 3.5
        assert metrics.value("missing", default=-1.0) == -1.0

    def test_gauges_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.set("g", 1.0)
        metrics.set("g", 7.0)
        assert metrics.value("g") == 7.0

    def test_histogram_summary(self):
        metrics = MetricsRegistry()
        for value in (1.0, 3.0, 5.0):
            metrics.observe("h", value)
        hist = metrics.to_dict()["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["sum"] == 9.0
        assert hist["min"] == 1.0
        assert hist["max"] == 5.0
        # Power-of-two buckets: 1 -> 1.0, 3 -> 4.0, 5 -> 8.0.
        assert hist["buckets"] == {"1.0": 1, "4.0": 1, "8.0": 1}

    def test_histogram_nonpositive_bucket(self):
        metrics = MetricsRegistry()
        metrics.observe("h", 0.0)
        metrics.observe("h", -2.0)
        assert metrics.to_dict()["histograms"]["h"]["buckets"] == {"0.0": 2}

    def test_merge_combines_families(self):
        worker = MetricsRegistry()
        worker.inc("c", 2.0)
        worker.set("g", 4.0)
        worker.observe("h", 2.0)
        driver = MetricsRegistry()
        driver.inc("c", 1.0)
        driver.observe("h", 16.0)
        driver.merge(worker.to_dict())
        assert driver.value("c") == 3.0
        assert driver.value("g") == 4.0
        hist = driver.to_dict()["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == 18.0
        assert hist["buckets"] == {"2.0": 1, "16.0": 1}

    def test_merge_none_is_noop(self):
        metrics = MetricsRegistry()
        metrics.merge(None)
        metrics.merge({})
        assert metrics.to_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_registry_survives_pickling(self):
        metrics = MetricsRegistry()
        metrics.inc("c", 5.0)
        clone = pickle.loads(pickle.dumps(metrics))
        clone.inc("c")  # the re-created lock must work
        assert clone.value("c") == 6.0

    def test_null_metrics_noop(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.set("x", 1.0)
        NULL_METRICS.observe("x", 1.0)
        assert NULL_METRICS.value("x") == 0.0
        assert NULL_METRICS.to_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert NullMetrics.enabled is False


class TestTracer:
    def test_live_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", attrs={"k": 1}):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner"]
        inner = outer.children[0]
        assert inner.attrs == {"k": 1}
        assert outer.wall_start <= inner.wall_start
        assert inner.wall_end <= outer.wall_end

    def test_record_under_open_span_and_parent(self):
        tracer = Tracer()
        with tracer.span("phase"):
            auto = tracer.record("auto", wall_start=0.0, wall_end=1.0)
        explicit = tracer.record(
            "child", wall_start=0.2, wall_end=0.4, parent=auto
        )
        root = tracer.record("root", wall_start=5.0, wall_end=6.0)
        assert tracer.roots[0].children == [auto]
        assert auto.children == [explicit]
        assert tracer.roots[1] is root

    def test_record_rehydrates_dict_children(self):
        tracer = Tracer()
        exported = {
            "name": "w",
            "wall_start": 0.1,
            "wall_end": 0.2,
            "children": [{"name": "inner", "wall_start": 0.1, "wall_end": 0.15}],
        }
        span = tracer.record(
            "parent", wall_start=0.0, wall_end=1.0, children=[exported]
        )
        assert isinstance(span.children[0], Span)
        assert span.children[0].children[0].name == "inner"

    def test_export_normalizes_origin(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        exported = tracer.export_spans()
        assert exported[0]["wall_start"] >= 0.0
        assert exported[0]["wall_start"] < 60.0  # near zero, not an epoch

    def test_span_dict_round_trip(self):
        span = Span("a", 1.0, 2.0, sim_start=0.0, sim_end=5.0, attrs={"x": 1})
        span.children.append(Span("b", 1.2, 1.8))
        copy = Span.from_dict(span.to_dict())
        assert copy.name == "a"
        assert copy.sim_seconds == 5.0
        assert copy.attrs == {"x": 1}
        assert copy.children[0].name == "b"
        assert copy.children[0].wall_seconds == pytest.approx(0.6)

    def test_leaked_inner_span_tolerated(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("leaked")  # never exited
        outer.__exit__(None, None, None)
        with tracer.span("next"):
            pass
        # The stack unwound; "next" is a new root, not a child of "leaked".
        assert [r.name for r in tracer.roots] == ["outer", "next"]

    def test_null_tracer_shares_one_handle(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.record("x", wall_start=0.0, wall_end=1.0) is None
        assert NULL_TRACER.export_spans() == []
        assert NullTracer.enabled is False

    def test_disabled_path_allocation_free(self):
        """The null objects are the disabled path: exercising them must
        allocate nothing (pins the zero-overhead claim)."""
        span = NULL_TRACER.span  # pre-bind so the loop allocates nothing
        inc = NULL_METRICS.inc
        # Warm up any lazy interning.
        with span("warm"):
            inc("warm")
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for __ in range(100):
            with span("s"):
                inc("c")
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        leaked = sum(
            stat.size_diff
            for stat in after.compare_to(before, "lineno")
            if stat.size_diff > 0 and "tracemalloc" not in str(stat.traceback)
        )
        # Allow a little slack for interpreter-internal bookkeeping.
        assert leaked < 512


class TestTraceDocument:
    def _document(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.inc("c", 2.0)
        with tracer.span("run"):
            with tracer.span("local_phase", attrs={"site": 0}):
                pass
            tracer.record(
                "send", wall_start=0.0, wall_end=0.1, sim_start=0.0, sim_end=3.0
            )
        return trace_document(tracer, metrics)

    def test_document_validates(self):
        doc = self._document()
        assert validate_trace(doc) == []
        # And survives a JSON round trip.
        assert validate_trace(json.loads(json.dumps(doc))) == []

    def test_validator_rejects_malformed(self):
        doc = self._document()
        doc["version"] = 99
        assert any("version" in e for e in validate_trace(doc))
        doc = self._document()
        del doc["spans"][0]["wall_end"]
        assert any("wall_end" in e for e in validate_trace(doc))
        doc = self._document()
        doc["spans"][0]["surprise"] = 1
        assert any("surprise" in e for e in validate_trace(doc))
        assert any("number" in e for e in validate_trace({
            "version": 1,
            "clocks": {"wall": "w", "sim": "s"},
            "origin": {"wall": "not-a-number"},
            "spans": [],
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }))

    def test_schema_loads(self):
        schema = load_trace_schema()
        assert schema["properties"]["version"]["enum"] == [1]

    def test_phase_totals(self):
        doc = self._document()
        totals = phase_totals(doc)
        assert totals["run"]["count"] == 1
        assert totals["send"]["sim_seconds"] == pytest.approx(3.0)
        assert totals["local_phase"]["sim_seconds"] is None

    def test_chrome_trace_shape(self):
        doc = self._document()
        chrome = to_chrome_trace(doc)
        events = chrome["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        # 3 wall events + 1 sim event for the sim-stamped span.
        assert len(complete) == 4
        assert all(e["dur"] >= 0.0 for e in complete)
        sim_events = [e for e in complete if e["pid"] == 2]
        assert [e["name"] for e in sim_events] == ["send"]
        assert sim_events[0]["dur"] == pytest.approx(3.0 * 1e6)
        # The site-attributed span rides its own thread lane.
        lanes = {e["name"]: e["tid"] for e in complete if e["pid"] == 1}
        assert lanes["local_phase"] == 2  # tid 2 + site 0
        assert lanes["run"] == 1


def _spans_well_nested(spans, parent=None, epsilon=1e-6, check_child_sum=True):
    """Assert the exported span forest is well-nested per clock.

    ``check_child_sum`` additionally asserts that sibling durations sum to
    no more than the parent's — true only for sequential (parallelism=1)
    runs, where children cannot overlap.
    """
    for span in spans:
        assert span["wall_end"] >= span["wall_start"] - epsilon, span["name"]
        if span.get("sim_start") is not None and span.get("sim_end") is not None:
            assert span["sim_end"] >= span["sim_start"] - epsilon, span["name"]
        if parent is not None:
            assert span["wall_start"] >= parent["wall_start"] - epsilon
            assert span["wall_end"] <= parent["wall_end"] + epsilon
        children = span.get("children", [])
        if check_child_sum:
            child_sum = sum(c["wall_end"] - c["wall_start"] for c in children)
            assert child_sum <= (
                span["wall_end"] - span["wall_start"]
            ) + epsilon * max(1, len(children)), span["name"]
        _spans_well_nested(children, span, epsilon, check_child_sum)


#: Site 1 crashes before its local phase; a recovery round reboots it.
_CRASH_SITE_1 = FaultPlan(
    seed=2, site_overrides={1: SiteFaults(crash_before_local_prob=1.0)}
)


def _shape(span):
    """A span tree as nested ``(name, children)`` tuples, the children of a
    recovery round sorted (they may appear in the order the work ran)."""
    children = tuple(_shape(child) for child in span.get("children", []))
    if span["name"].startswith("recovery_round["):
        children = tuple(sorted(children))
    return span["name"], children


def _walk(span):
    """``span`` and every span below it, depth first."""
    yield span
    for child in span.get("children", []):
        yield from _walk(child)


class TestRunnerIntegration:
    def test_disabled_tracing_is_bit_identical(self, blobs):
        """The acceptance pin: a runner without tracer/metrics produces
        the exact same labels, model bytes and network accounting as one
        with them — observation never changes the computation."""
        plain = DistributedRunner(_config()).run(blobs, 3)
        observed = DistributedRunner(
            _config(), tracer=Tracer(), metrics=MetricsRegistry()
        ).run(blobs, 3)
        np.testing.assert_array_equal(
            plain.labels_in_original_order(),
            observed.labels_in_original_order(),
        )
        assert (
            plain.global_model.to_bytes() == observed.global_model.to_bytes()
        )
        assert plain.network.bytes_total == observed.network.bytes_total
        assert plain.network.bytes_by_kind == observed.network.bytes_by_kind
        assert plain.trace is None
        assert observed.trace is not None

    @pytest.mark.parametrize("recovery_rounds", [0, 1])
    def test_degraded_observed_matches_plain(self, blobs, recovery_rounds):
        recovery = RecoveryPolicy(max_recovery_rounds=recovery_rounds)
        plain = DistributedRunner(
            _config(), fault_plan=_CRASH_SITE_1, recovery_policy=recovery
        ).run(blobs, 3)
        observed = DistributedRunner(
            _config(),
            fault_plan=_CRASH_SITE_1,
            recovery_policy=recovery,
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        ).run(blobs, 3)
        np.testing.assert_array_equal(
            plain.labels_in_original_order(),
            observed.labels_in_original_order(),
        )
        assert plain.failed_sites == observed.failed_sites
        assert plain.recovered_sites == observed.recovered_sites
        assert plain.retries == observed.retries
        assert plain.network.bytes_total == observed.network.bytes_total

    def test_recovery_round_trace_shape(self, blobs):
        """The runner's span tree with one recovery round: names and
        nesting (a recovery round's children in any order), sim stamps on
        every ``send[*]`` and on the round, the round's attrs, and
        ``degraded_fallback`` only under an active plan."""
        report = DistributedRunner(
            _config(),
            fault_plan=_CRASH_SITE_1,
            recovery_policy=RecoveryPolicy(max_recovery_rounds=1),
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        ).run(blobs, 3)
        assert report.recovered_sites == [1]
        [run] = report.trace["spans"]
        assert run["attrs"] == {"mode": "degraded", "n_sites": 3}

        def local(site):
            dbscan = ("dbscan", (("region_queries", ()),))
            return (f"site[{site}].local", (dbscan, ("derive_model", ())))

        def relabel(site):
            return (f"site[{site}].relabel", ())

        upload, broadcast = ("send[local_model]", ()), ("send[global_model]", ())
        recovery = (local(1), upload, *[broadcast] * 3, *map(relabel, (0, 1, 2)))
        assert _shape(run) == (
            "run",
            (
                (
                    "local_phase",
                    (("compute", (local(0), local(2))), ("upload", (upload,) * 2)),
                ),
                ("global_phase", ()),
                ("broadcast", (broadcast,) * 2),
                ("relabel", (("compute", (relabel(0), relabel(2))),)),
                ("recovery_round[1]", tuple(sorted(recovery))),
                ("degraded_fallback", ()),
            ),
        )
        _spans_well_nested(report.trace["spans"])

        [stats] = report.recovery_rounds
        [round_span] = [s for s in run["children"] if s["name"] == "recovery_round[1]"]
        assert round_span["sim_start"] == stats.start_sim_seconds
        assert round_span["sim_end"] == stats.end_sim_seconds
        assert round_span["attrs"] == {
            "attempted": len(stats.attempted_sites),
            "recovered": len(stats.recovered_sites),
            "rebroadcast": len(stats.rebroadcast_sites),
        } == {"attempted": 1, "recovered": 1, "rebroadcast": 3}

        sends = {}
        for span in _walk(run):
            stamped = "sim_start" in span and "sim_end" in span
            if span["name"].startswith("send["):
                assert stamped and span["sim_end"] >= span["sim_start"]
                assert span["attrs"]["delivered"] and span["attrs"]["attempts"] == 1
                sends.setdefault(span["name"], []).append(span["attrs"]["site"])
            else:
                assert stamped == (span is round_span), span["name"]
        assert sends == {
            "send[local_model]": [0, 2, 1],
            "send[global_model]": [0, 2, 0, 1, 2],
        }

        clean = DistributedRunner(_config(), tracer=Tracer()).run(blobs, 3)
        [clean_run] = clean.trace["spans"]
        assert clean_run["attrs"] == {"mode": "fault_free", "n_sites": 3}
        assert [s["name"] for s in clean_run["children"]] == [
            "local_phase", "global_phase", "broadcast", "relabel"
        ]

    def test_trace_validates_and_reconciles(self, blobs):
        report = DistributedRunner(
            _config(), tracer=Tracer(), metrics=MetricsRegistry()
        ).run(blobs, 3)
        doc = report.trace
        assert validate_trace(doc) == []
        # Per-phase totals reconcile with the report's fields within 1%.
        assert reconcile_trace(doc, report) == []
        _spans_well_nested(doc["spans"])
        totals = phase_totals(doc)
        for phase in ("run", "local_phase", "global_phase", "relabel"):
            assert phase in totals
        # The trace-smoke preset runs the same gates (schema, JSON
        # round-trip, reconciliation, Chrome export, phase totals).
        smoke = run(replace(PRESETS["trace-smoke"], cardinality=(600,)))
        assert smoke.problems == []
        _spans_well_nested(smoke.trace["spans"])
        # And they bite: a stretched phase no longer reconciles.
        report.global_wall_seconds *= 2
        assert len(reconcile_trace(doc, report)) == 1

    def test_trace_chrome_export_valid(self, blobs):
        report = DistributedRunner(
            _config(), tracer=Tracer(), metrics=MetricsRegistry()
        ).run(blobs, 3)
        chrome = to_chrome_trace(report.trace)
        events = chrome["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        for event in events:
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert isinstance(event["pid"], int)
        json.dumps(chrome)  # must be JSON-serializable as-is

    def test_metrics_cover_every_layer(self, blobs):
        metrics = MetricsRegistry()
        plan = FaultPlan(
            seed=3, site_overrides={2: SiteFaults(crash_after_send_prob=1.0)}
        )
        DistributedRunner(
            _config(), fault_plan=plan, tracer=Tracer(), metrics=metrics
        ).run(blobs, 3)
        snapshot = metrics.to_dict()
        counters = snapshot["counters"]
        assert counters["index.region_queries"] > 0
        assert counters["dbscan.runs"] == 3
        assert counters["transport.messages"] > 0
        assert counters["server.models_admitted"] == 3
        assert counters["runner.degraded_rounds"] == 1
        assert snapshot["gauges"]["runner.failed_sites"] == 1
        assert snapshot["histograms"]["index.neighbors_per_query"]["count"] > 0
        assert snapshot["histograms"]["server.representatives_per_model"][
            "count"
        ] == 3

    def test_worker_spans_grafted_under_compute(self, blobs, force_width):
        for backend, parallelism in (("thread", 2), ("process", 2)):
            report = DistributedRunner(
                _config(parallelism=parallelism, parallel_backend=backend),
                tracer=Tracer(),
                metrics=MetricsRegistry(),
            ).run(blobs, 3)
            assert report.effective_parallelism == parallelism
            doc = report.trace
            run = doc["spans"][0]
            local = next(c for c in run["children"] if c["name"] == "local_phase")
            compute = next(
                c for c in local["children"] if c["name"] == "compute"
            )
            names = {c["name"] for c in compute["children"]}
            assert names == {f"site[{i}].local" for i in range(3)}
            # Overlapping workers break the child-sum bound, so only check
            # nesting/containment here.
            _spans_well_nested(doc["spans"], check_child_sum=False)

    def test_region_query_span_bounded_by_dbscan(self, blobs):
        report = DistributedRunner(
            _config(), tracer=Tracer(), metrics=MetricsRegistry()
        ).run(blobs, 3)
        run = report.trace["spans"][0]
        local = next(c for c in run["children"] if c["name"] == "local_phase")
        compute = next(c for c in local["children"] if c["name"] == "compute")
        for site_span in compute["children"]:
            dbscan = next(
                c for c in site_span["children"] if c["name"] == "dbscan"
            )
            queries = next(
                c for c in dbscan["children"] if c["name"] == "region_queries"
            )
            assert queries["wall_end"] <= dbscan["wall_end"] + 1e-9
            assert dbscan["attrs"]["n_region_queries"] > 0
