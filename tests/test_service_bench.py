"""Tests for the live-service scenario (the ``service-smoke`` preset):
uploads over sockets, query storm, scrape and crash drill."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.obs.regress import detect_regressions, rule_for
from repro.obs.registry import RunRegistry
from repro.scenario import PRESETS, record, report_document, run, summary

SMALL = replace(
    PRESETS["service-smoke"],
    cardinality=(500,),
    clients=3,
    queries=9,
    query_batch=64,
    seed=11,
)


@pytest.fixture(scope="module")
def small_report():
    """One real (tiny) service run shared by the assertions below."""
    return run(SMALL, "service-smoke")


class TestBenchReport:
    def test_correctness_gates_hold(self, small_report):
        metrics = small_report.metrics
        assert metrics["serve.labels_identical"] == 1.0
        assert metrics["serve.scrape_roundtrip_ok"] == 1.0
        assert metrics["serve.recovery_labels_identical"] == 1.0
        assert metrics["serve.upload_failed"] == 0.0
        assert metrics["serve.query_failed"] == 0.0
        assert small_report.problems == []

    def test_load_metrics_are_populated(self, small_report):
        metrics = small_report.metrics
        assert metrics["serve.queries_count"] == 9.0
        assert metrics["serve.labels_served_count"] == 9.0 * 64
        assert metrics["serve.query_throughput_rps"] > 0
        assert (
            0
            < metrics["serve.query_p50_wall_seconds"]
            <= metrics["serve.query_p95_wall_seconds"]
            <= metrics["serve.query_max_wall_seconds"]
        )
        assert metrics["serve.bytes_up"] > 0
        assert metrics["serve.journal_bytes"] > 0

    def test_health_document_rides_along(self, small_report):
        assert small_report.metrics["serve.sites_admitted_count"] == 2
        # The drill's restarted server replayed both admitted models.
        assert small_report.metrics["serve.recovered_models_count"] == 2

    def test_report_is_json_able(self, small_report):
        json.dumps(report_document(small_report))

    def test_summary_mentions_the_gates(self, small_report):
        text = summary(small_report)
        assert "serve.labels_identical" in text
        assert "serve.scrape_roundtrip_ok" in text
        assert text.endswith("verdict: ok")


class TestRegressWiring:
    def test_gate_metrics_hit_gating_rules(self):
        # The names are chosen so the default rule table gates them:
        # identity/roundtrip at zero tolerance (survive --ignore-timing),
        # failures as "lower", throughput as timing-tagged "higher".
        assert rule_for("serve.labels_identical").direction == "higher"
        assert rule_for("serve.labels_identical").rel_threshold == 0.0
        assert not rule_for("serve.labels_identical").timing
        assert rule_for("serve.scrape_roundtrip_ok").rel_threshold == 0.0
        assert rule_for("serve.upload_failed").direction == "lower"
        assert rule_for("serve.query_throughput_rps").direction == "higher"
        assert rule_for("serve.query_throughput_rps").timing
        assert rule_for("serve.query_p95_wall_seconds").timing

    def test_identity_loss_is_a_regression_without_timing(self, small_report, tmp_path):
        record = RunRegistry(tmp_path / "runs").record(
            "service-smoke", metrics=small_report.metrics
        )
        broken = dict(small_report.metrics)
        broken["serve.labels_identical"] = 0.0
        candidate = RunRegistry(tmp_path / "runs2").record(
            "service-smoke", metrics=broken
        )
        report = detect_regressions(
            [record], [candidate], include_timing=False
        )
        assert "serve.labels_identical" in report.regressions

    def test_flat_rerun_passes_regress_without_timing(self, small_report, tmp_path):
        record = RunRegistry(tmp_path / "runs").record(
            "service-smoke", metrics=small_report.metrics
        )
        report = detect_regressions([record], [record], include_timing=False)
        assert report.ok


class TestRecording:
    def test_record_lands_in_registry_with_artifact(self, small_report, tmp_path):
        root = tmp_path / "registry"
        stored = record(small_report, str(root))
        assert stored["command"] == "service-smoke"
        assert stored["metrics"]["serve.labels_identical"] == 1.0
        assert stored["config"] == SMALL.config()
        artifact = root / stored["artifacts"]["BENCH_service-smoke.json"]
        assert artifact.exists()
        assert json.loads(artifact.read_text())["spec"]["sites"] == 2

    def test_cli_main_smoke(self, tmp_path, capsys):
        status = main(
            [
                "scenario", "service-smoke",
                "--cardinality", "400",
                "--clients", "2",
                "--queries", "4",
                "--query-batch", "32",
                "--out", str(tmp_path / "serve.json"),
                "--registry", str(tmp_path / "runs"),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "scenario service-smoke:" in out
        assert "recorded" in out
