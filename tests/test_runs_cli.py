"""End-to-end tests of the ``python -m repro runs`` CLI family."""

from __future__ import annotations

import json

from repro.cli import main as repro_main
from repro.obs import RunRegistry, build_run_record, parse_openmetrics
from repro.obs.runs_cli import main as runs_main


def _env():
    return {
        "git_rev": "deadbeef",
        "git_dirty": False,
        "python": "3.11.0",
        "numpy": "2.0.0",
        "cpu_count": 4,
        "platform": "TestOS",
    }


def _seed_registry(root, metrics_list):
    registry = RunRegistry(root)
    records = [
        registry.record("run", config={"seed": 42}, metrics=m, environment=_env())
        for m in metrics_list
    ]
    return registry, records


BASELINE_METRICS = {
    "local.wall_seconds": 2.0,
    "quality.q_p2_percent": 97.5,
    "net.bytes_total": 40960.0,
}


class TestListShowDiff:
    def test_list_empty(self, tmp_path, capsys):
        assert runs_main(["--registry", str(tmp_path / ".runs"), "list"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_list_and_show(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        __, records = _seed_registry(root, [BASELINE_METRICS])
        assert runs_main(["--registry", str(root), "list"]) == 0
        out = capsys.readouterr().out
        assert records[0]["run_id"] in out
        assert runs_main(["--registry", str(root), "show", "latest"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == records[0]["run_id"]
        assert shown["metrics"]["quality.q_p2_percent"] == 97.5

    def test_show_unresolvable_ref_exits_2(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        _seed_registry(root, [BASELINE_METRICS])
        assert runs_main(["--registry", str(root), "show", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_reports_deltas(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        changed = dict(BASELINE_METRICS, **{"net.bytes_total": 20480.0})
        _seed_registry(root, [BASELINE_METRICS, changed])
        code = runs_main(["--registry", str(root), "diff", "latest~1", "latest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "net.bytes_total" in out
        assert "-50.0%" in out

    def test_diff_json(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        _seed_registry(root, [BASELINE_METRICS, BASELINE_METRICS])
        code = runs_main(
            ["--registry", str(root), "diff", "latest~1", "latest", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["net.bytes_total"]["delta"] == 0


class TestRegressGate:
    def test_identical_rerun_exits_zero(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        _seed_registry(root, [BASELINE_METRICS, BASELINE_METRICS])
        code = runs_main(
            ["--registry", str(root), "regress", "--baseline", "latest~1"]
        )
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_slowdown_exits_nonzero(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        slow = dict(BASELINE_METRICS, **{"local.wall_seconds": 4.0})
        _seed_registry(root, [BASELINE_METRICS, slow])
        code = runs_main(
            ["--registry", str(root), "regress", "--baseline", "latest~1"]
        )
        assert code == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

    def test_committed_baseline_file(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        _seed_registry(root, [BASELINE_METRICS])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                build_run_record(
                    "run",
                    config={"seed": 42},
                    metrics=BASELINE_METRICS,
                    environment=_env(),
                )
            )
        )
        code = runs_main(
            ["--registry", str(root), "regress", "--baseline", str(baseline)]
        )
        assert code == 0

    def test_lost_gated_metrics_fail_against_committed_baseline(
        self, tmp_path, capsys
    ):
        baseline = json.loads(
            open("baselines/service_smoke.json", encoding="utf-8").read()
        )
        lost = ("serve.labels_identical", "serve.query_failed")
        root = tmp_path / ".runs"
        RunRegistry(root).record(
            "serve-bench",
            metrics={
                name: value
                for name, value in baseline["metrics"].items()
                if name not in lost
            },
            environment=_env(),
        )
        code = runs_main(
            [
                "--registry", str(root), "regress",
                "--baseline", "baselines/service_smoke.json",
                "--ignore-timing",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        for name in lost:
            assert f"LOST        {name}:" in out
        assert "verdict: REGRESSION" in out

    def test_ignore_timing_flag(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        slow = dict(BASELINE_METRICS, **{"local.wall_seconds": 40.0})
        _seed_registry(root, [BASELINE_METRICS, slow])
        args = ["--registry", str(root), "regress", "--baseline", "latest~1"]
        assert runs_main(args) == 1
        capsys.readouterr()
        assert runs_main(args + ["--ignore-timing"]) == 0

    def test_ignore_pattern_flag(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        worse = dict(BASELINE_METRICS, **{"quality.q_p2_percent": 50.0})
        _seed_registry(root, [BASELINE_METRICS, worse])
        args = ["--registry", str(root), "regress", "--baseline", "latest~1"]
        assert runs_main(args) == 1
        capsys.readouterr()
        assert runs_main(args + ["--ignore", "quality.*"]) == 0

    def test_last_k_median_absorbs_outlier(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        outlier = dict(BASELINE_METRICS, **{"local.wall_seconds": 40.0})
        _seed_registry(
            root,
            [BASELINE_METRICS, BASELINE_METRICS, outlier, BASELINE_METRICS],
        )
        args = ["--registry", str(root), "regress", "--baseline", "latest~3"]
        # Latest alone is fine, but the outlier one run back would fail;
        # --last 3 medians it away.
        assert runs_main(args + ["--candidate", "latest~1"]) == 1
        capsys.readouterr()
        assert runs_main(args + ["--last", "3"]) == 0

    def test_last_k_ignores_other_configs(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        registry = RunRegistry(root)
        slow = dict(BASELINE_METRICS, **{"local.wall_seconds": 40.0})
        registry.record(
            "run", config={"seed": 42}, metrics=BASELINE_METRICS,
            environment=_env(),
        )
        # Two slow runs under a *different* config: without digest
        # filtering they would dominate the --last 3 median.
        for _ in range(2):
            registry.record(
                "run", config={"seed": 7}, metrics=slow, environment=_env()
            )
        registry.record(
            "run", config={"seed": 42}, metrics=BASELINE_METRICS,
            environment=_env(),
        )
        args = [
            "--registry", str(root), "regress",
            "--baseline", "latest~3", "--last", "3",
        ]
        assert runs_main(args) == 0
        err = capsys.readouterr().err
        assert "only 2 of the requested 3" in err

    def test_last_ignored_for_file_candidate(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        slow = dict(BASELINE_METRICS, **{"local.wall_seconds": 40.0})
        _seed_registry(root, [BASELINE_METRICS, slow])
        cand_file = tmp_path / "candidate.json"
        cand_file.write_text(
            json.dumps(
                build_run_record(
                    "run",
                    config={"seed": 42},
                    metrics=BASELINE_METRICS,
                    environment=_env(),
                )
            )
        )
        # Widening must not replace a file-resolved candidate with
        # registry records (the slow latest run would fail the gate).
        args = [
            "--registry", str(root), "regress",
            "--baseline", "latest~1",
            "--candidate", str(cand_file), "--last", "3",
        ]
        assert runs_main(args) == 0
        assert "--last ignored" in capsys.readouterr().err

    def test_mismatched_commands_warn(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        registry = RunRegistry(root)
        registry.record("run", metrics=BASELINE_METRICS, environment=_env())
        registry.record("bench", metrics={"x": 1.0}, environment=_env())
        runs_main(["--registry", str(root), "regress", "--baseline", "latest~1"])
        assert "different commands" in capsys.readouterr().err


class TestGcAndExport:
    def test_gc_keeps_newest(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        registry, records = _seed_registry(
            root, [BASELINE_METRICS, BASELINE_METRICS, BASELINE_METRICS]
        )
        assert runs_main(["--registry", str(root), "gc", "--keep", "1"]) == 0
        assert "dropped 2" in capsys.readouterr().out
        remaining = registry.load_records()
        assert [r["run_id"] for r in remaining] == [records[-1]["run_id"]]

    def test_export_openmetrics(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        _seed_registry(root, [BASELINE_METRICS])
        out_path = tmp_path / "metrics.om"
        code = runs_main(
            [
                "--registry",
                str(root),
                "export",
                "latest",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        families = parse_openmetrics(out_path.read_text())
        assert "dbdc_run_info" in families
        assert "dbdc_quality_q_p2_percent" in families

    def test_export_to_stdout(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        _seed_registry(root, [BASELINE_METRICS])
        assert runs_main(["--registry", str(root), "export", "latest"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert parse_openmetrics(out)


class TestTopLevelDispatch:
    def test_repro_cli_routes_runs(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        _seed_registry(root, [BASELINE_METRICS])
        code = repro_main(["runs", "--registry", str(root), "list"])
        assert code == 0
        assert "run" in capsys.readouterr().out

    def test_repro_cli_routes_regress_exit_code(self, tmp_path, capsys):
        root = tmp_path / ".runs"
        slow = dict(BASELINE_METRICS, **{"local.wall_seconds": 4.0})
        _seed_registry(root, [BASELINE_METRICS, slow])
        code = repro_main(
            [
                "runs",
                "--registry",
                str(root),
                "regress",
                "--baseline",
                "latest~1",
            ]
        )
        assert code == 1
