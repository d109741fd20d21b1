"""Regression detector tests — including the ISSUE acceptance cases:
``runs regress`` passes on an identical re-run and fails on a synthetic
2x slowdown or a Q_DBDC drop — plus hypothesis property tests.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_RULES,
    MetricRule,
    build_run_record,
    detect_regressions,
    diff_records,
)
from repro.obs.regress import classify, metric_medians, rule_for


def _env():
    return {
        "git_rev": "deadbeef",
        "git_dirty": False,
        "python": "3.11.0",
        "numpy": "2.0.0",
        "cpu_count": 4,
        "platform": "TestOS",
    }


BASE_METRICS = {
    "local.wall_seconds": 2.0,
    "overall.wall_seconds": 5.0,
    "local.admitted_sim_seconds": 1.2,
    "quality.q_p2_percent": 97.5,
    "quality.q_p1_percent": 91.0,
    "net.bytes_total": 40960.0,
    "net.bytes[local_model]": 30720.0,
    "transport.retries": 2.0,
    "transmission.cost_ratio": 0.08,
    "local_phase.speedup[threads]": 1.8,
    "model.representatives_count": 120.0,
}


def _record(metrics, command="run"):
    return build_run_record(
        command,
        config={"dataset": "C", "seed": 42},
        metrics=metrics,
        environment=_env(),
    )


def _mutated(**overrides):
    metrics = dict(BASE_METRICS)
    metrics.update(overrides)
    return _record(metrics)


class TestRuleTable:
    def test_first_match_wins(self):
        assert rule_for("local.wall_seconds").direction == "lower"
        assert rule_for("quality.q_p2_percent").direction == "higher"
        assert rule_for("transmission.cost_ratio").direction == "lower"
        assert rule_for("local_phase.speedup[threads]").direction == "higher"

    def test_speedup_beats_generic_patterns(self):
        # "speedup" rules sort before anything else that could match.
        rule = rule_for("region_queries.speedup[batched]")
        assert rule.direction == "higher"
        assert rule.timing

    def test_unknown_names_are_informational(self):
        assert rule_for("model.representatives_count").direction == "ignore"

    def test_timing_tagging(self):
        assert rule_for("local.wall_seconds").timing
        assert rule_for("local.cpu_seconds").timing
        assert not rule_for("local.admitted_sim_seconds").timing
        assert not rule_for("net.bytes_total").timing

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            MetricRule("*", "sideways")


class TestClassify:
    def test_inside_band_unchanged(self):
        rule = MetricRule("*", "lower", 0.10)
        assert classify(rule, 100.0, 105.0) == "unchanged"

    def test_lower_direction(self):
        rule = MetricRule("*", "lower", 0.10)
        assert classify(rule, 100.0, 150.0) == "regression"
        assert classify(rule, 100.0, 50.0) == "improvement"

    def test_higher_direction(self):
        rule = MetricRule("*", "higher", 0.10)
        assert classify(rule, 100.0, 50.0) == "regression"
        assert classify(rule, 100.0, 150.0) == "improvement"

    def test_abs_threshold_guards_tiny_baselines(self):
        # 1ms -> 2ms is a 2x relative change but inside the absolute band.
        rule = MetricRule("*", "lower", 0.30, abs_threshold=0.005)
        assert classify(rule, 0.001, 0.002) == "unchanged"

    def test_threshold_scale_widens_band(self):
        rule = MetricRule("*", "lower", 0.10)
        assert classify(rule, 100.0, 115.0) == "regression"
        assert classify(rule, 100.0, 115.0, threshold_scale=2.0) == "unchanged"

    def test_missing_sides(self):
        rule = MetricRule("*", "lower")
        assert classify(rule, None, 1.0) == "missing"
        assert classify(rule, 1.0, None) == "missing"


class TestLostMetrics:
    def test_missing_gated_metric_fails_the_gate(self):
        baseline = _record(BASE_METRICS)
        candidate = _record(
            {k: v for k, v in BASE_METRICS.items() if k != "quality.q_p2_percent"}
        )
        report = detect_regressions([baseline], [candidate])
        assert set(report.lost) == {"quality.q_p2_percent"}
        assert not report.regressions
        assert not report.ok
        text = report.to_text()
        assert "LOST        quality.q_p2_percent: 97.5 -> absent" in text
        assert text.endswith("verdict: REGRESSION")

    def test_informational_and_timing_metrics_are_never_lost(self):
        baseline = _record(BASE_METRICS)
        dropped = ("model.representatives_count", "local.wall_seconds")
        candidate = _record(
            {k: v for k, v in BASE_METRICS.items() if k not in dropped}
        )
        # Informational rule: absent is fine even with timing on.
        report = detect_regressions([baseline], [candidate])
        assert set(report.lost) == {"local.wall_seconds"}
        # Timing rules are dropped wholesale under include_timing=False.
        report = detect_regressions([baseline], [candidate], include_timing=False)
        assert report.lost == {}
        assert report.ok

    def test_new_candidate_metric_is_not_lost(self):
        baseline = _record(BASE_METRICS)
        candidate = _record(dict(BASE_METRICS, **{"extra.failed": 0.0}))
        assert detect_regressions([baseline], [candidate]).ok


class TestAcceptanceCriteria:
    """The three cases ISSUE.md requires to be covered by tests."""

    def test_identical_rerun_is_ok(self):
        a = _record(BASE_METRICS)
        b = _record(BASE_METRICS)
        report = detect_regressions([a], [b])
        assert report.ok
        assert report.regressions == {}
        assert "verdict: OK" in report.to_text()

    def test_synthetic_2x_slowdown_fails(self):
        baseline = _record(BASE_METRICS)
        slow = _mutated(
            **{
                "local.wall_seconds": 4.0,
                "overall.wall_seconds": 10.0,
            }
        )
        report = detect_regressions([baseline], [slow])
        assert not report.ok
        assert "local.wall_seconds" in report.regressions
        assert "overall.wall_seconds" in report.regressions
        assert "verdict: REGRESSION" in report.to_text()

    def test_q_dbdc_drop_fails(self):
        baseline = _record(BASE_METRICS)
        worse = _mutated(**{"quality.q_p2_percent": 80.0})
        report = detect_regressions([baseline], [worse])
        assert not report.ok
        assert "quality.q_p2_percent" in report.regressions


class TestDirectionAwareness:
    def test_speedup_drop_is_regression(self):
        report = detect_regressions(
            [_record(BASE_METRICS)],
            [_mutated(**{"local_phase.speedup[threads]": 1.0})],
        )
        assert "local_phase.speedup[threads]" in report.regressions

    def test_improvements_do_not_fail(self):
        faster = _mutated(
            **{
                "local.wall_seconds": 1.0,
                "quality.q_p2_percent": 99.5,
                "net.bytes_total": 20480.0,
            }
        )
        report = detect_regressions([_record(BASE_METRICS)], [faster])
        assert report.ok
        assert "local.wall_seconds" in report.improvements
        assert "quality.q_p2_percent" in report.improvements

    def test_cost_ratio_up_is_regression(self):
        report = detect_regressions(
            [_record(BASE_METRICS)],
            [_mutated(**{"transmission.cost_ratio": 0.2})],
        )
        assert "transmission.cost_ratio" in report.regressions

    def test_retries_up_is_regression(self):
        report = detect_regressions(
            [_record(BASE_METRICS)], [_mutated(**{"transport.retries": 9.0})]
        )
        assert "transport.retries" in report.regressions


class TestNoiseAwareness:
    def test_median_of_k_absorbs_one_outlier(self):
        baseline = _record(BASE_METRICS)
        normal = _record(BASE_METRICS)
        outlier = _mutated(**{"local.wall_seconds": 40.0})
        report = detect_regressions(
            [baseline], [normal, outlier, _record(BASE_METRICS)]
        )
        assert report.ok

    def test_metric_medians_drop_none(self):
        records = [
            _record({"x": 1.0}),
            _record({"x": None}),
            _record({"x": 3.0}),
        ]
        assert metric_medians(records) == {"x": 2.0}

    def test_small_jitter_within_band(self):
        jitter = _mutated(
            **{
                "local.wall_seconds": 2.3,
                "net.bytes_total": 41500.0,
                "quality.q_p2_percent": 97.4,
            }
        )
        report = detect_regressions([_record(BASE_METRICS)], [jitter])
        assert report.ok

    def test_ignore_timing_drops_wall_clocks(self):
        slow = _mutated(**{"local.wall_seconds": 40.0})
        report = detect_regressions(
            [_record(BASE_METRICS)], [slow], include_timing=False
        )
        assert report.ok
        assert "local.wall_seconds" not in report.entries
        # Deterministic metrics still gate.
        bad = _mutated(**{"quality.q_p2_percent": 50.0})
        report = detect_regressions(
            [_record(BASE_METRICS)], [bad], include_timing=False
        )
        assert not report.ok

    def test_ignore_patterns(self):
        slow = _mutated(**{"local.wall_seconds": 40.0})
        report = detect_regressions(
            [_record(BASE_METRICS)], [slow], ignore=("local.*",)
        )
        assert report.ok

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError):
            detect_regressions([], [_record(BASE_METRICS)])
        with pytest.raises(ValueError):
            detect_regressions([_record(BASE_METRICS)], [])


METRIC_NAMES = st.sampled_from(sorted(BASE_METRICS))
FINITE = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
METRICS_DICTS = st.dictionaries(METRIC_NAMES, FINITE, min_size=1, max_size=8)


class TestHypothesisProperties:
    @settings(max_examples=50, deadline=None)
    @given(a=METRICS_DICTS, b=METRICS_DICTS)
    def test_diff_is_antisymmetric_in_delta(self, a, b):
        ra, rb = _record(a), _record(b)
        forward = diff_records(ra, rb)
        backward = diff_records(rb, ra)
        assert set(forward["metrics"]) == set(backward["metrics"])
        for name, entry in forward["metrics"].items():
            mirrored = backward["metrics"][name]
            if entry["delta"] is None:
                assert mirrored["delta"] is None
            else:
                assert mirrored["delta"] == pytest.approx(-entry["delta"])

    @settings(max_examples=50, deadline=None)
    @given(a=METRICS_DICTS, b=METRICS_DICTS)
    def test_detect_regressions_deterministic(self, a, b):
        ra, rb = _record(a), _record(b)
        first = detect_regressions([ra], [rb])
        second = detect_regressions(
            [copy.deepcopy(ra)], [copy.deepcopy(rb)]
        )
        assert first.entries == second.entries
        assert first.ok == second.ok

    @settings(max_examples=50, deadline=None)
    @given(metrics=METRICS_DICTS)
    def test_self_comparison_never_regresses(self, metrics):
        record = _record(metrics)
        assert detect_regressions([record], [record]).ok

    @settings(max_examples=50, deadline=None)
    @given(a=METRICS_DICTS, b=METRICS_DICTS, scale=st.floats(1.0, 10.0))
    def test_widening_thresholds_never_adds_regressions(self, a, b, scale):
        ra, rb = _record(a), _record(b)
        tight = detect_regressions([ra], [rb])
        loose = detect_regressions([ra], [rb], threshold_scale=scale)
        assert set(loose.regressions) <= set(tight.regressions)


class TestRuleCoverage:
    def test_every_default_rule_is_reachable(self):
        # Guard against dead rules shadowed by an earlier pattern.
        samples = {
            "*speedup*": "x.speedup[y]",
            "*percent*": "quality.q_p2_percent",
            "*cost_ratio*": "transmission.cost_ratio",
            "*saving*": "net.saving_fraction",
            "*wall_seconds*": "local.wall_seconds",
            "*cpu_seconds*": "local.cpu_seconds",
            "*sim_seconds*": "round.round_sim_seconds",
            "*seconds*": "seconds.elapsed",
            "*bytes*": "net.bytes_total",
            "*retries*": "transport.retries",
            "*timeouts*": "transport.timeouts",
            "*failed*": "sites.failed",
            "*drops*": "chaos.drops",
            "*identical*": "relabel_kernels.labels_identical",
            "*roundtrip_ok*": "serve.scrape_roundtrip_ok",
            "*tracemalloc_peak_mb*": "scale.tracemalloc_peak_mb[20000:local]",
            "*rss_peak_mb*": "scale.rss_peak_mb[20000]",
            "*_rps": "serve.query_throughput_rps",
            "*_ok": "serve_trace.schema_ok",
            "*": "anything.else",
        }
        for rule in DEFAULT_RULES:
            name = samples[rule.pattern]
            assert rule_for(name) == rule, (rule.pattern, name)
