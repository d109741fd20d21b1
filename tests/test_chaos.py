"""Chaos sweep tests (the ``chaos`` presets): end-to-end run, quality
degradation shape, CLI."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro.scenario as scenario
from repro.cli import main
from repro.scenario import Scenario, report_document, run, summary, write_report

# Small fig. 6 data set A slice — enough structure for stable quality
# numbers, small enough for the fast tier.
SWEEP = Scenario(
    dataset="A",
    cardinality=(1200,),
    sites=8,
    failure_probs=(0.0, 0.25, 0.5),
    trials=2,
    seed=42,
)


@pytest.fixture(scope="module")
def sweep_and_trials():
    """The sweep's report plus every trial's runner outcome."""
    outcomes = []

    class Recording(scenario.DistributedRunner):
        def run(self, *args, **kwargs):
            outcomes.append(super().run(*args, **kwargs))
            return outcomes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "DistributedRunner", Recording)
        report = run(SWEEP, "chaos")
    return report, outcomes


@pytest.fixture(scope="module")
def sweep(sweep_and_trials):
    return sweep_and_trials[0]


def _point(report, name: str, prob: float):
    return report.metrics.get(f"chaos.{name}[p={prob:g}]")


class TestRunChaosSweep:
    def test_report_structure(self, sweep, sweep_and_trials):
        assert sweep.problems == []
        trials = sweep_and_trials[1]
        assert len(trials) == len(SWEEP.failure_probs) * SWEEP.trials
        for outcome in trials:
            assert 0 <= len(outcome.failed_sites) <= SWEEP.sites
            assert (
                len(outcome.participating_sites) + len(outcome.failed_sites)
                == SWEEP.sites
            )
        assert "chaos.central_wall_seconds" in sweep.metrics
        for prob in SWEEP.failure_probs:
            assert 0.0 <= _point(sweep, "failed_fraction", prob) <= 1.0
            assert 0 <= _point(sweep, "degraded_runs", prob) <= SWEEP.trials
            for name in ("q_p1_overall_percent", "q_p2_overall_percent", "retries"):
                assert _point(sweep, name, prob) is not None

    def test_zero_probability_is_healthy(self, sweep):
        assert _point(sweep, "failed_fraction", 0.0) == 0.0
        assert _point(sweep, "degraded_runs", 0.0) == 0
        assert _point(sweep, "retries", 0.0) == 0
        assert _point(sweep, "q_p2_overall_percent", 0.0) > 50.0

    def test_quality_degrades_with_failures_noncatastrophically(self, sweep):
        """Sorted by failed-site fraction, overall P^II must decrease
        monotonically-ish: each step loses roughly the failed sites'
        share of the objects, never collapses below the surviving share."""
        points = sorted(
            (
                _point(sweep, "failed_fraction", p),
                _point(sweep, "q_p2_overall_percent", p),
            )
            for p in SWEEP.failure_probs
        )
        fractions = [frac for frac, __ in points]
        q_overall = [q for __, q in points]
        assert fractions[0] < fractions[-1], "sweep injected no failures"
        healthy = q_overall[0]
        for prev, cur in zip(q_overall, q_overall[1:]):
            assert cur <= prev + 5.0  # monotone up to trial noise
        for frac, q in zip(fractions, q_overall):
            # Non-catastrophic: the surviving (1 - frac) share of objects
            # keeps most of its quality, so overall quality tracks that
            # share instead of collapsing.  Generous slack: the quality
            # criteria match clusters globally, so heavy degradation also
            # shaves a few points off the surviving objects' scores.
            assert q >= healthy * (1.0 - frac) - 20.0

    def test_surviving_sites_keep_quality(self, sweep):
        healthy = _point(sweep, "q_p2_overall_percent", 0.0)
        for prob in SWEEP.failure_probs:
            surviving = _point(sweep, "q_p2_surviving_percent", prob)
            if surviving is not None:
                assert surviving > healthy - 15.0

    def test_deterministic_given_seed(self):
        spec = replace(SWEEP, failure_probs=(0.5,), trials=1)

        def deterministic_part(report):
            # Wall clocks vary; everything else must repeat exactly.
            return {k: v for k, v in report.metrics.items() if "seconds" not in k}

        assert deterministic_part(run(spec)) == deterministic_part(run(spec))

    def test_links_mode_retries(self):
        report = run(replace(
            SWEEP, fault_mode="links", failure_probs=(0.5,), trials=1, sites=4,
            cardinality=(600,),
        ))
        assert _point(report, "retries", 0.5) > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="mode"):
            replace(SWEEP, fault_mode="gremlins")
        with pytest.raises(ValueError, match="trials"):
            replace(SWEEP, trials=0)
        with pytest.raises(ValueError, match="in process"):
            replace(SWEEP, recovery_rounds=1, server="thread")

    def test_table_renders(self, sweep):
        text = summary(sweep)
        assert "sites fault sweep" in text
        assert "chaos.q_p2_overall_percent[p=0.25]" in text
        assert text.endswith("verdict: ok")

    def test_write_report_round_trips(self, sweep, tmp_path):
        path = write_report(sweep, str(tmp_path / "sub" / "chaos.json"))
        with open(path, encoding="utf-8") as handle:
            restored = json.load(handle)
        assert restored == json.loads(json.dumps(report_document(sweep)))
        assert restored["metrics"] == sweep.metrics


class TestChaosCli:
    def test_chaos_command_end_to_end(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_chaos.json"
        code = main(
            [
                "scenario",
                "chaos",
                "--cardinality", "600",
                "--sites", "4",
                "--trials", "1",
                "--failure-probs", "0,0.5",
                "--out", str(out_path),
                "--registry", str(tmp_path / ".runs"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos.q_p2_overall_percent[p=0.5]" in out
        assert f"wrote {out_path}" in out
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["scenario"] == "chaos"
        assert report["spec"]["failure_probs"] == [0.0, 0.5]
