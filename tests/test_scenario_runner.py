"""The scenario runner itself: the spec, its parser, the record path and
the exit status (``repro.scenario``)."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

import repro.scenario as scenario
from repro.obs import config_digest
from repro.scenario import (
    PRESETS,
    Report,
    Scenario,
    build_parser,
    execute,
    namespace,
    record,
    run,
)

#: One valid alternative value per spec field.
ALTERNATIVES = {
    "dataset": "B",
    "cardinality": (500,),
    "sites": 3,
    "rounds": 2,
    "scheme": "rep_kmeans",
    "seed": 7,
    "data_seed": 0,
    "server": "thread",
    "fault_mode": "links",
    "failure_probs": (0.5,),
    "trials": 2,
    "corrupt_rate": 0.1,
    "recovery_rounds": 1,
    "server_crashes": 1,
    "trace": True,
    "queries": 4,
    "clients": 2,
    "query_batch": 32,
    "max_inflight": 1,
    "sections": ("local_phase",),
    "parallelism": 2,
    "repeats": 3,
}


class TestSpec:
    def test_alternatives_cover_every_field(self):
        assert set(ALTERNATIVES) == {f.name for f in fields(Scenario)}

    def test_any_one_field_changes_the_config_digest(self):
        base = Scenario()
        digests = {config_digest(base.config())}
        for name, value in ALTERNATIVES.items():
            # Build without validation: only the digest is under test.
            spec = object.__new__(Scenario)
            for f in fields(Scenario):
                object.__setattr__(spec, f.name, getattr(base, f.name))
            object.__setattr__(spec, name, value)
            digests.add(config_digest(spec.config()))
        assert len(digests) == len(ALTERNATIVES) + 1

    def test_presets_are_valid_and_keep_their_namespaces(self):
        expected = {
            "run-smoke": "",
            "trace-smoke": "",
            "chaos": "chaos",
            "chaos-recovery": "chaos",
            "hotpaths": "",
            "hotpaths-smoke": "",
            "service-smoke": "serve",
            "socket-chaos-smoke": "socket_chaos",
            "service-trace-smoke": "serve_trace",
            "service-recovery-smoke": "recovery",
        }
        assert {name: namespace(spec) for name, spec in PRESETS.items()} == expected

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(rounds=2), "rounds > 1 needs a socket server"),
            (dict(queries=5), "a query storm needs a server"),
            (dict(server_crashes=1), "server crashes need a server"),
            (dict(server="thread", rounds=2, server_crashes=2), "continue after"),
            (dict(server="subprocess", trace=True), "thread server"),
            (dict(server="thread", recovery_rounds=1), "in process"),
            (dict(sections=("scale",), trace=True), "run alone"),
            (dict(corrupt_rate=1.5), r"\[0, 1\]"),
            (dict(dataset="Z"), "dataset must be one of"),
            (dict(cardinality=(300, 500)), "'scale' section"),
        ],
        ids=[
            "rounds", "storm", "crashes", "last-crash", "subprocess-trace",
            "socket-recovery", "sections", "corrupt-rate", "dataset",
            "cardinality-sweep",
        ],
    )
    def test_inconsistent_specs_are_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            Scenario(**overrides)


class TestParser:
    def test_one_option_per_spec_field(self):
        options = {
            option
            for action in build_parser()._actions
            for option in action.option_strings
        }
        for f in fields(Scenario):
            assert "--" + f.name.replace("_", "-") in options

    def test_overrides_replace_only_the_given_fields(self, monkeypatch):
        seen = {}

        def fake_execute(spec, command, **options):
            seen.update(spec=spec, command=command, **options)
            return 0

        monkeypatch.setattr(scenario, "execute", fake_execute)
        assert scenario.main([
            "service-recovery-smoke", "--sites", "3", "--data-seed", "none",
            "--failure-probs", "", "--no-registry",
        ]) == 0
        assert seen["spec"] == replace(
            PRESETS["service-recovery-smoke"], sites=3, data_seed=None
        )
        assert seen["command"] == "service-recovery-smoke"
        assert seen["out"] == "BENCH_service-recovery-smoke.json"
        assert seen["registry"] is None

    def test_invalid_combination_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            scenario.main(["run-smoke", "--rounds", "3"])
        assert "rounds > 1 needs a socket server" in capsys.readouterr().err


class TestRecordAndExit:
    def test_record_stores_the_whole_spec(self, tmp_path):
        spec = replace(PRESETS["run-smoke"], repeats=2)
        stored = record(
            Report(spec=spec, command="run-smoke", metrics={"x.count": 1.0}),
            str(tmp_path / ".runs"),
        )
        assert stored["config"] == spec.config()
        assert stored["config_digest"] == config_digest(spec.config())
        assert "BENCH_run-smoke.json" in stored["artifacts"]

    def test_record_failure_only_warns(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert record(Report(spec=Scenario()), str(blocker)) is None
        assert "warning: could not record run" in capsys.readouterr().err

    def test_problems_fail_the_command(self, monkeypatch, tmp_path, capsys):
        def broken(spec, report):
            report.problems.append("forced failure")

        monkeypatch.setitem(scenario._KINDS, "paper_run", (broken, ""))
        out = tmp_path / "report.json"
        status = execute(
            PRESETS["run-smoke"], "run-smoke", out=str(out), registry=None
        )
        assert status == 1
        assert "FAIL: forced failure" in capsys.readouterr().out
        assert json.loads(out.read_text())["problems"] == ["forced failure"]

    def test_trace_smoke_fails_on_schema_or_reconciliation(self, monkeypatch):
        spec = replace(PRESETS["trace-smoke"], cardinality=(300,))
        monkeypatch.setattr(scenario, "validate_trace", lambda doc: ["bad span"])
        problems = run(spec).problems
        assert "schema: bad span" in problems
        monkeypatch.undo()
        monkeypatch.setattr(
            scenario, "reconcile_trace", lambda doc, outcome: ["off by 2%"]
        )
        assert run(spec).problems == ["off by 2%"]

    def test_repeats_take_the_best_of_several_timings(self):
        spec = replace(
            PRESETS["hotpaths-smoke"], cardinality=(200,), sites=2,
            sections=("region_queries",), repeats=2,
        )
        report = run(spec)
        assert report.problems == []
        assert report.metrics["region_queries.batched_seconds[grid]"] > 0
