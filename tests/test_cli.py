"""Unit tests for the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.scenario import build_parser as build_scenario_parser


class TestParser:
    def test_single_command(self):
        args = build_parser().parse_args(["fig6"])
        assert args.commands == ["fig6"]

    def test_multiple_commands(self):
        args = build_parser().parse_args(["fig9", "fig10"])
        assert args.commands == ["fig9", "fig10"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "C", "--sites", "7", "--scheme", "rep_kmeans", "--seed", "5"]
        )
        assert args.dataset == "C"
        assert args.sites == 7
        assert args.scheme == "rep_kmeans"
        assert args.seed == 5

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "medoid"])

    def test_trace_options(self):
        args = build_scenario_parser().parse_args(
            ["trace-smoke", "--trace-out", "/tmp/t.json",
             "--chrome-out", "/tmp/c.json", "--fault-mode", "chaos",
             "--failure-probs", "0.3", "--trace", "true"]
        )
        assert args.preset == "trace-smoke"
        assert args.trace is True
        assert args.trace_out == "/tmp/t.json"
        assert args.chrome_out == "/tmp/c.json"
        assert args.fault_mode == "chaos"
        assert args.failure_probs == (0.3,)
        # Fields not given stay unset, so the preset's values stand.
        assert not hasattr(args, "sites")
        with pytest.raises(SystemExit):
            build_scenario_parser().parse_args(["trace-smoke", "--trace", "maybe"])


class TestExecution:
    def test_fig6_without_sketch(self, capsys):
        assert main(["fig6", "--no-sketch"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "8700" in out

    def test_baselines_command(self, capsys):
        assert main(["baselines"]) == 0
        out = capsys.readouterr().out
        assert "single-link" in out
        assert "concentric" in out

    def test_figure_record_keeps_its_own_options(self, tmp_path, capsys):
        from repro.obs import RunRegistry

        registry = tmp_path / ".runs"
        assert main(["fig6", "--no-sketch", "--registry", str(registry)]) == 0
        (stored,) = RunRegistry(str(registry)).load_records()
        assert stored["command"] == "fig6"
        assert stored["config"] == {
            "dataset": "A", "cardinality": None, "n_sites": 4,
            "scheme": "rep_scor", "seed": 42,
        }
        assert set(stored["metrics"]) == {"command.wall_seconds"}
        assert stored["artifacts"] == {}

    def test_bad_run_option_fails_before_any_output(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6", "run", "--sites", "0"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sites must be >= 1" in captured.err

    def test_figures_option_accepted(self):
        args = build_parser().parse_args(["figures", "--out", "/tmp/x"])
        assert args.out == "/tmp/x"
        assert args.commands == ["figures"]

    def test_run_command_small(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--dataset",
                    "C",
                    "--sites",
                    "2",
                    "--cardinality",
                    "600",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "quality: P^I" in out
        assert "DBDC(rep_scor)" in out

    def test_trace_smoke_command(self, capsys, tmp_path):
        assert main([
            "scenario", "trace-smoke", "--no-registry",
            "--out", str(tmp_path / "report.json"),
            "--trace-out", str(tmp_path / "trace.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out
        assert "phase.wall_seconds[local_phase]" in out

    def test_trace_recording_failure_does_not_abort(self, tmp_path, capsys):
        # Point the registry at an existing *file*: the record append
        # fails, but recording is best-effort so the trace still lands.
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "scenario", "trace-smoke",
                "--dataset", "C",
                "--cardinality", "600",
                "--sites", "2",
                "--out", str(tmp_path / "report.json"),
                "--trace-out", str(trace_path),
                "--registry", str(blocker),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: could not record run" in captured.err
        assert trace_path.exists()
        assert (tmp_path / "report.json").exists()

    def test_bench_recording_failure_does_not_abort(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        report_path = tmp_path / "bench.json"
        code = main(
            [
                "scenario", "hotpaths-smoke",
                "--cardinality", "300",
                "--sites", "2",
                "--parallelism", "1",
                "--out", str(report_path),
                "--registry", str(blocker),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: could not record run" in captured.err
        assert report_path.exists()

    def test_trace_writes_valid_documents(self, tmp_path, capsys):
        import json

        from repro.obs import validate_trace

        trace_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "chrome.json"
        assert (
            main(
                [
                    "scenario", "trace-smoke",
                    "--dataset", "C",
                    "--cardinality", "600",
                    "--sites", "2",
                    "--no-registry",
                    "--out", str(tmp_path / "report.json"),
                    "--trace-out", str(trace_path),
                    "--chrome-out", str(chrome_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "phase.wall_seconds[run]" in out
        doc = json.loads(trace_path.read_text())
        assert validate_trace(doc) == []
        chrome = json.loads(chrome_path.read_text())
        assert any(e.get("ph") == "X" for e in chrome["traceEvents"])
