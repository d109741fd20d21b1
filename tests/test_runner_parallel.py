"""Parallel local phase: reports must match the sequential run exactly.

``DistributedRunConfig.parallelism`` only changes *when* site work
executes, never *what* it computes: parallel runs must agree with
``parallelism=1`` on every deterministic report field (labels, global
model, relabel stats, network traffic) — only the wall-clock timings may
differ.  These sites hold a few hundred points, far below the runner's
fallback floor, so every test that means to run a pool forces its width
(the ``force_width`` fixture) and checks that the run kept it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.distributed.runner as runner_mod
from repro.data.generators import gaussian_blobs
from repro.distributed.network import SimulatedNetwork
from repro.distributed.runner import DistributedRunConfig, DistributedRunner


@pytest.fixture
def blobs():
    points, __ = gaussian_blobs(
        [120, 120, 120], np.asarray([[0.0, 0.0], [14.0, 0.0], [7.0, 12.0]]), 1.0, seed=7
    )
    return points


def _config(**overrides):
    defaults = dict(eps_local=1.0, min_pts_local=5, seed=3)
    defaults.update(overrides)
    return DistributedRunConfig(**defaults)


def _run(points, config, n_sites=4):
    network = SimulatedNetwork()
    return DistributedRunner(config, network).run(points, n_sites=n_sites)


def _assert_reports_equal(reference, candidate):
    """Equality on everything except the wall-clock timing fields."""
    assert np.array_equal(
        reference.labels_in_original_order(), candidate.labels_in_original_order()
    )
    assert np.array_equal(
        np.asarray(reference.assignment), np.asarray(candidate.assignment)
    )
    assert len(reference.global_model) == len(candidate.global_model)
    assert np.array_equal(
        reference.global_model.global_labels, candidate.global_model.global_labels
    )
    assert reference.global_model.to_bytes() == candidate.global_model.to_bytes()
    for ref_site, cand_site in zip(reference.sites, candidate.sites):
        assert np.array_equal(ref_site.global_labels, cand_site.global_labels)
        assert ref_site.relabel_stats == cand_site.relabel_stats
        assert (
            ref_site.local_outcome.model.to_bytes()
            == cand_site.local_outcome.model.to_bytes()
        )
    assert reference.network.n_messages == candidate.network.n_messages
    assert reference.network.bytes_upstream == candidate.network.bytes_upstream
    assert reference.network.bytes_downstream == candidate.network.bytes_downstream


def _run_wide(points, config, n_sites=4):
    """A run that must have kept its configured width."""
    report = _run(points, config, n_sites)
    assert report.effective_parallelism == config.parallelism
    assert report.parallelism_fallback_reason is None
    return report


@pytest.mark.parametrize("parallelism", [2, 4, 8])
def test_thread_parallelism_matches_sequential(blobs, force_width, parallelism):
    reference = _run(blobs, _config(parallelism=1))
    candidate = _run_wide(blobs, _config(parallelism=parallelism))
    _assert_reports_equal(reference, candidate)


def test_process_backend_matches_sequential(blobs, force_width):
    """Two process workers for four sites: each runs two tasks."""
    reference = _run(blobs, _config(parallelism=1))
    candidate = _run_wide(blobs, _config(parallelism=2, parallel_backend="process"))
    _assert_reports_equal(reference, candidate)


def test_process_worker_per_site_matches_sequential(blobs, force_width):
    """One process worker per site, each task carrying its site's arrays."""
    reference = _run(blobs, _config(parallelism=1))
    candidate = _run_wide(blobs, _config(parallelism=4, parallel_backend="process"))
    _assert_reports_equal(reference, candidate)


def test_parallelism_larger_than_site_count(blobs, force_width):
    reference = _run(blobs, _config(parallelism=1), n_sites=2)
    candidate = _run_wide(blobs, _config(parallelism=16), n_sites=2)
    _assert_reports_equal(reference, candidate)


def test_wall_times_recorded(blobs, force_width):
    report = _run_wide(blobs, _config(parallelism=2))
    assert report.local_wall_seconds > 0
    assert report.relabel_wall_seconds > 0
    # Wall time of the whole phase can't beat the slowest *measured* site
    # by more than scheduling noise; sanity-check the fields are coherent.
    assert report.overall_wall_seconds > 0


def test_parallel_report_separates_wall_and_cpu(blobs, force_width):
    """Satellite of the observability sweep: a parallel local phase must
    report max-over-sites *wall* time and aggregate *CPU* time as
    separate, clock-named fields — the historical single number silently
    mixed the two."""
    report = _run_wide(blobs, _config(parallelism=4))
    # max_local_wall_seconds is a max, not a sum: it can never exceed the
    # whole phase's wall time but must cover the slowest site.
    slowest = max(site.times.local_wall_seconds for site in report.sites)
    assert report.max_local_wall_seconds == slowest
    assert report.max_local_wall_seconds <= report.local_wall_seconds
    # CPU time aggregates across sites and is attributed per site too.
    assert report.local_cpu_seconds > 0
    assert report.local_cpu_seconds == pytest.approx(
        sum(site.times.local_cpu_seconds for site in report.sites)
    )
    assert report.relabel_cpu_seconds == pytest.approx(
        sum(site.times.relabel_cpu_seconds for site in report.sites)
    )


def test_per_site_times_name_their_clock(blobs, force_width):
    report = _run_wide(blobs, _config(parallelism=2))
    for site in report.sites:
        assert site.times.local_wall_seconds > 0
        assert site.times.local_cpu_seconds >= 0
        assert site.times.relabel_wall_seconds > 0


def test_config_rejects_bad_parallelism():
    with pytest.raises(ValueError, match="parallelism"):
        _config(parallelism=0)
    with pytest.raises(ValueError, match="parallelism"):
        _config(parallelism=-2)


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="parallel_backend"):
        _config(parallel_backend="mpi")


def test_labels_in_original_order_validates_assignment(blobs):
    report = _run(blobs, _config())
    # Out-of-range site id.
    report.assignment = np.asarray(report.assignment).copy()
    report.assignment[0] = len(report.sites)
    with pytest.raises(ValueError, match="site"):
        report.labels_in_original_order()
    # Count mismatch: legal ids, but site 0 gets one object too many.
    report.assignment = np.zeros(sum(s.points.shape[0] for s in report.sites), dtype=np.intp)
    with pytest.raises(ValueError, match="objects"):
        report.labels_in_original_order()


# ---------------------------------------------------------------------------
# auto-fallback
# ---------------------------------------------------------------------------
def _patch_cpus(monkeypatch, n):
    monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: n)


def test_auto_fallback_single_cpu(blobs, monkeypatch):
    _patch_cpus(monkeypatch, 1)
    report = _run(blobs, _config(parallelism=4))
    assert report.effective_parallelism == 1
    assert report.parallelism_fallback_reason == "single_cpu"


def test_auto_fallback_counts_only_the_cpus_the_process_may_use(
    blobs, monkeypatch
):
    """A process pinned to one CPU (``taskset -c 0``) on a many-CPU box
    falls back as single-CPU, and its run records stamp one CPU."""
    import os

    from repro.obs import run_environment

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    report = _run(blobs, _config(parallelism=4))
    assert report.effective_parallelism == 1
    assert report.parallelism_fallback_reason == "single_cpu"
    assert run_environment()["cpu_count"] == 1


def test_auto_fallback_small_sites(blobs, monkeypatch):
    # 360 points over 4 sites is far below the 20k-per-site threshold.
    _patch_cpus(monkeypatch, 8)
    report = _run(blobs, _config(parallelism=4))
    assert report.effective_parallelism == 1
    assert report.parallelism_fallback_reason == "small_sites"


def test_auto_fallback_can_be_disabled(blobs, force_width):
    report = _run(blobs, _config(parallelism=4))
    assert report.effective_parallelism == 4
    assert report.parallelism_fallback_reason is None


def test_fallback_run_matches_parallel_run(blobs, monkeypatch):
    """The fallback decision may change *when* work runs, never results."""
    _patch_cpus(monkeypatch, 8)
    fell_back = _run(blobs, _config(parallelism=4))
    assert fell_back.parallelism_fallback_reason == "small_sites"
    monkeypatch.setattr(runner_mod, "FALLBACK_MIN_POINTS", 0)
    forced = _run_wide(blobs, _config(parallelism=4))
    _assert_reports_equal(fell_back, forced)


def test_sequential_run_reports_no_fallback(blobs):
    report = _run(blobs, _config(parallelism=1))
    assert report.effective_parallelism == 1
    assert report.parallelism_fallback_reason is None


def test_fallback_fields_in_flat_metrics(blobs):
    metrics = _run(blobs, _config(parallelism=4)).flat_metrics()
    assert metrics["parallel.effective_workers"] == 1.0
    assert metrics["parallel.fallback_count"] == 1.0


def test_config_rejects_bad_new_knobs():
    with pytest.raises(ValueError, match="relabel_kernel"):
        _config(relabel_kernel="warp")


@pytest.mark.parametrize("kernel", ["reference", "vectorized"])
def test_relabel_kernels_match_default(blobs, kernel):
    reference = _run(blobs, _config())
    candidate = _run(blobs, _config(relabel_kernel=kernel))
    _assert_reports_equal(reference, candidate)
