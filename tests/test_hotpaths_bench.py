"""Tests for the hot-path sections of the scenario runner (the
``hotpaths`` / ``hotpaths-smoke`` presets)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro.scenario as scenario
from repro.index import grid
from repro.scenario import PRESETS, SECTIONS, Scenario, build_parser, run

SMALL = replace(
    PRESETS["hotpaths-smoke"], cardinality=(400,), sites=2, parallelism=2, seed=11
)
PHASES = ("generate", "partition", "local", "global", "relabel")
VARIANTS = ("sequential", "thread_x2", "process_x2")


@pytest.fixture(scope="module")
def small_report():
    """One real (tiny) hot-path run shared by the section/metric tests."""
    return run(SMALL, "hotpaths-smoke")


def _sections(**overrides):
    return run(replace(SMALL, **overrides), "hotpaths-smoke")


class TestReportShape:
    def test_all_sections_present_at_small_primary(self, small_report):
        families = {name.split(".")[0] for name in small_report.metrics}
        assert {
            "region_queries", "dbscan", "local_phase", "relabel_kernels",
            "global_model", "scale",
        } <= families
        assert small_report.problems == []

    def test_meta_records_sweep_and_workers(self, small_report):
        config = small_report.spec.config()
        assert config["cardinality"] == (400,)
        assert config["parallelism"] == 2
        assert config["sections"] == SECTIONS
        for name in VARIANTS:
            assert small_report.metrics[f"local_phase.effective_workers[{name}]"] >= 1

    def test_relabel_kernels_section(self, small_report):
        metrics = small_report.metrics
        assert metrics["relabel_kernels.labels_identical"] == 1.0
        assert metrics["relabel_kernels.wall_seconds[reference]"] > 0
        assert metrics["relabel_kernels.wall_seconds[vectorized]"] > 0
        assert metrics["relabel_kernels.representatives_count"] > 0

    def test_global_model_section(self, small_report):
        metrics = small_report.metrics
        assert metrics["global_model.fold_equals_rebuild"] == 1.0
        assert metrics["global_model.build_seconds"] > 0
        assert metrics["global_model.fold_seconds"] > 0
        assert metrics["global_model.representatives_count"] > 0
        assert 1 <= metrics["global_model.clusters_count"] <= metrics[
            "global_model.representatives_count"
        ]

    def test_local_phase_section(self, small_report):
        metrics = small_report.metrics
        assert metrics["local_phase.labels_identical"] == 1.0
        for name in VARIANTS:
            assert metrics[f"local_phase.wall_seconds[{name}]"] > 0

    def test_local_phase_stamps_effective_workers(self, small_report):
        for name in VARIANTS:
            workers = small_report.metrics[f"local_phase.effective_workers[{name}]"]
            assert workers >= 1
            if name != "sequential" and workers < 2:
                # A fallback is explained, not silent.
                assert any(
                    note.startswith(f"local phase {name}: fell back")
                    for note in small_report.notes
                )

    def test_scale_section_has_per_phase_budgets(self, small_report):
        metrics = small_report.metrics
        for phase in PHASES:
            assert metrics[f"scale.wall_seconds[400:{phase}]"] >= 0
            assert metrics[f"scale.tracemalloc_peak_mb[400:{phase}]"] >= 0
        assert metrics["scale.total_wall_seconds[400]"] == pytest.approx(
            sum(metrics[f"scale.wall_seconds[400:{phase}]"] for phase in PHASES)
        )
        assert metrics["scale.rss_peak_mb[400]"] > 0
        assert metrics["scale.clusters_count[400]"] >= 1

    def test_flat_metrics_expose_gateable_names(self, small_report):
        metrics = small_report.metrics
        assert metrics["relabel_kernels.labels_identical"] == 1.0
        assert metrics["local_phase.labels_identical"] == 1.0
        for name in (
            "relabel_kernels.wall_seconds[reference]",
            "relabel_kernels.wall_seconds[vectorized]",
            "scale.total_wall_seconds[400]",
            "scale.tracemalloc_peak_mb[400:relabel]",
            "scale.rss_peak_mb[400]",
            "local_phase.effective_workers[sequential]",
            "local_phase.relabel_wall_seconds[sequential]",
        ):
            assert name in metrics
        assert all(np.isfinite(value) for value in metrics.values())

    def test_flat_metrics_tolerate_missing_sections(self):
        report = _sections(sections=("scale",))
        assert "scale.total_wall_seconds[400]" in report.metrics
        assert not any(name.startswith("relabel_kernels") for name in report.metrics)


class TestSweepSemantics:
    def test_large_primary_skips_classic_sections(self, monkeypatch):
        monkeypatch.setattr(scenario, "_CLASSIC_MAX", 100)
        monkeypatch.setattr(scenario, "_KERNELS_MAX", 100)
        report = _sections(cardinality=(300,))
        families = {name.split(".")[0] for name in report.metrics}
        assert "region_queries" not in families
        assert "relabel_kernels" not in families
        assert "scale.total_wall_seconds[300]" in report.metrics
        assert report.spec.cardinality == (300,)
        skipped = [note for note in report.notes if note.startswith("skipped ")]
        assert [note.split(":")[0] for note in skipped] == [
            f"skipped {name}" for name in SECTIONS[:5]
        ]

    def test_mid_primary_skips_only_classic_sections(self, monkeypatch):
        monkeypatch.setattr(scenario, "_CLASSIC_MAX", 100)
        report = _sections(cardinality=(300,))
        families = {name.split(".")[0] for name in report.metrics}
        assert not families & {"region_queries", "dbscan", "local_phase"}
        assert {"relabel_kernels", "global_model", "scale"} <= families
        assert report.problems == []

    def test_sweep_runs_scale_per_entry(self):
        report = _sections(cardinality=(300, 500), sections=("dbscan", "scale"))
        assert "scale.total_wall_seconds[300]" in report.metrics
        assert "scale.total_wall_seconds[500]" in report.metrics
        # The classic sections ran at the primary (first) entry only: one
        # region query per object.
        assert report.metrics["dbscan.region_queries_count[grid]"] == 300

    def test_rejects_bad_cardinalities(self):
        with pytest.raises(ValueError, match="positive"):
            Scenario(cardinality=(100, 0))
        with pytest.raises(ValueError, match="positive"):
            Scenario(cardinality=(-5,))
        with pytest.raises(ValueError, match="sections"):
            Scenario(sections=("region_queries", "warp_drive"))
        with pytest.raises(ValueError, match="'scale' section"):
            Scenario(cardinality=(300, 500), sections=("dbscan",))
        with pytest.raises(ValueError, match="'scale' section"):
            Scenario(cardinality=(300, 500))

    def test_parse_cardinality(self):
        parser = build_parser()
        args = parser.parse_args(["hotpaths", "--cardinality", "20000"])
        assert args.cardinality == (20000,)
        args = parser.parse_args(["hotpaths", "--cardinality", "300, 500 ,700"])
        assert args.cardinality == (300, 500, 700)
        with pytest.raises(SystemExit):
            parser.parse_args(["hotpaths", "--cardinality", "lots"])


class TestGitProvenance:
    def test_strict_git_refuses_dirty_tree(self, monkeypatch, capsys):
        monkeypatch.setattr(
            scenario, "run_environment",
            lambda: {"git_rev": "abc", "git_dirty": True},
        )
        monkeypatch.setattr(scenario, "run", pytest.fail)
        assert scenario.main(["hotpaths-smoke", "--strict-git", "--no-registry"]) == 2
        assert "dirty" in capsys.readouterr().err

    def test_dirty_tree_warns_without_strict(self, monkeypatch, capsys):
        environment = dict(scenario.run_environment(), git_dirty=True)
        monkeypatch.setattr(scenario, "run_environment", lambda: environment)
        spec = replace(SMALL, cardinality=(100,), sections=("region_queries",))
        assert scenario.execute(spec, "hotpaths-smoke", registry=None) == 0
        assert "dirty" in capsys.readouterr().err


class TestStandaloneSections:
    def test_relabel_kernels_asserts_identity(self, monkeypatch):
        spec = dict(cardinality=(300,), sections=("relabel_kernels",))
        assert _sections(**spec).problems == []
        # A kernel that diverges is a failed check, not a number.
        relabel = scenario.relabel_site

        def broken(site, labels, model, *, site_id, kernel):
            out, stats = relabel(site, labels, model, site_id=site_id, kernel=kernel)
            return (out + 1 if kernel == "vectorized" else out), stats

        monkeypatch.setattr(scenario, "relabel_site", broken)
        report = _sections(**spec)
        assert report.metrics["relabel_kernels.labels_identical"] == 0.0
        assert report.problems == [
            "vectorized relabel diverged from the reference kernel"
        ]

    def test_local_phase_asserts_identity(self, monkeypatch):
        spec = dict(cardinality=(300,), sections=("local_phase",))
        assert _sections(**spec).problems == []

        class Diverging(scenario.DistributedRunner):
            """A runner whose process runs shift every global label."""

            def run(self, points, n_sites):
                outcome = super().run(points, n_sites)
                if self.config.parallel_backend == "process":
                    for site in outcome.sites:
                        site.apply_relabel(
                            site.global_labels + 1, site.relabel_stats, 0.0
                        )
                return outcome

        monkeypatch.setattr(scenario, "DistributedRunner", Diverging)
        report = _sections(**spec)
        assert report.metrics["local_phase.labels_identical"] == 0.0
        assert report.problems == [
            "local phase process_x2: labels diverged from the sequential run"
        ]

    def test_scale_peaks_count_the_join_buffers(self):
        """Each probed phase starts with the grid join's free list empty,
        so its peak counts the pass buffers it needs: a run that follows
        one which left buffer sets behind reads the same peaks (within
        the few KB small allocations move between runs).  The local peak
        used to drop to less than half.  A first run fills the process's
        one-time state (lazy imports, the neighbour stencil cache)
        before the free list is emptied."""
        _sections(sections=("scale",))
        grid._FREE_BUFFERS.clear()
        first, second = (
            _sections(sections=("scale",)).metrics for __ in range(2)
        )
        for phase in ("local", "relabel"):
            name = f"scale.tracemalloc_peak_mb[400:{phase}]"
            assert second[name] == pytest.approx(first[name], rel=0.05), name

    def test_a_fresh_process_charges_no_lazy_import_to_a_phase(self):
        """NumPy imports ``numpy.ma`` on the first ``np.unique`` and
        ``numpy.random`` on the first generator.  The scenario module
        imports both up front, so a process's first scale run, with no
        warm-up, reads every phase's peak within 5% of its second run.
        Without them the first 2,000-point run read 1.89 MB in relabel
        and 0.85 MB in generate against 0.81 and 0.11 MB."""
        code = (
            "import json\n"
            "from dataclasses import replace\n"
            "from repro.scenario import PRESETS, run\n"
            "spec = replace(PRESETS['hotpaths-smoke'], cardinality=(2000,),"
            " sections=('scale',))\n"
            "print(json.dumps([run(spec, 'hotpaths-smoke').metrics for __ in range(2)]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=os.environ.copy(), timeout=300,
        )
        assert result.returncode == 0, result.stderr
        first, second = json.loads(result.stdout.splitlines()[-1])
        for phase in PHASES:
            name = f"scale.tracemalloc_peak_mb[2000:{phase}]"
            assert first[name] == pytest.approx(second[name], rel=0.05), name

    def test_scale_pipeline_budgets(self):
        report = _sections(cardinality=(250,), sections=("scale",))
        phases = [n for n in report.metrics if n.startswith("scale.wall_seconds[250:")]
        assert len(phases) == 5
