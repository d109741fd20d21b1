"""Degraded-mode protocol tests: bit-identity of the clean path, label
guarantees for failed sites, deadline/quorum semantics, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distributed.runner as runner_mod
from repro.clustering.labels import NOISE
from repro.data.generators import gaussian_blobs
from repro.distributed.network import SERVER, SimulatedNetwork
from repro.distributed.partition import split, uniform_random
from repro.distributed.runner import (
    DistributedRunConfig,
    DistributedRunner,
    RecoveryPolicy,
    RoundPolicy,
)
from repro.distributed.server import RoundCore
from repro.distributed.site import ClientSite
from repro.faults import FaultPlan, SiteFaults, TransportPolicy

N_SITES = 4


@pytest.fixture(scope="module")
def workload():
    points, __ = gaussian_blobs(
        [120, 120], np.asarray([[0.0, 0.0], [15.0, 0.0]]), 1.0, seed=21
    )
    assignment = uniform_random(points.shape[0], N_SITES, seed=8)
    return split(points, assignment), assignment


@pytest.fixture
def config():
    return DistributedRunConfig(eps_local=1.0, min_pts_local=5)


@pytest.fixture
def pools(monkeypatch):
    """``(started, shut down)``: the runner's process pools."""
    started, closed = [], []

    class CountingPool(runner_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

        def shutdown(self, *args, **kwargs):
            closed.append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", CountingPool)
    return started, closed


def _failing_relabel_task(task):
    """A process relabel task that fails (module level, so it pickles)."""
    raise RuntimeError(f"relabel of site {task.site_id} failed")


def _manual_legacy_run(site_points, config):
    """The pre-fault-runtime protocol, spelled out with the primitives —
    the oracle the refactored clean path must stay bit-identical to."""
    network = SimulatedNetwork()
    sites = [
        ClientSite(
            site_id,
            points,
            eps_local=config.eps_local,
            min_pts_local=config.min_pts_local,
            scheme=config.scheme,
            metric=config.metric,
            index_kind=config.index_kind,
        )
        for site_id, points in enumerate(site_points)
    ]
    server = RoundCore(
        config.eps_global, metric=config.metric, index_kind=config.index_kind
    )
    server.apply(server.open_round(0))
    for site in sites:
        model = site.run_local_clustering()
        network.send(site.site_id, SERVER, "local_model", model.to_bytes())
        server.apply(server.arrive(model))
    global_model = server.apply(server.commit_round(0))
    payload = global_model.to_bytes()
    for site in sites:
        network.send(SERVER, site.site_id, "global_model", payload)
        site.receive_global_model(global_model)
    return sites, global_model, network.stats()


class TestCleanPathBitIdentity:
    """With no plan (or an inactive one) every deterministic report field
    must be bit-identical to the pre-fault-runtime implementation."""

    @pytest.mark.parametrize("plan", [None, FaultPlan.none(seed=77)])
    def test_matches_manual_legacy_protocol(self, workload, config, plan):
        site_points, assignment = workload
        report = DistributedRunner(config, fault_plan=plan).run_on_sites(
            site_points, assignment
        )
        legacy_sites, legacy_model, legacy_stats = _manual_legacy_run(
            site_points, config
        )

        for site, legacy in zip(report.sites, legacy_sites):
            np.testing.assert_array_equal(site.global_labels, legacy.global_labels)
            assert site.failure is None
        np.testing.assert_array_equal(
            report.global_model.global_labels, legacy_model.global_labels
        )
        assert report.global_model.eps_global == legacy_model.eps_global

        assert report.network.n_messages == legacy_stats.n_messages
        assert report.network.bytes_upstream == legacy_stats.bytes_upstream
        assert report.network.bytes_downstream == legacy_stats.bytes_downstream
        assert report.network.bytes_by_kind == legacy_stats.bytes_by_kind
        assert report.network.sim_seconds_total == pytest.approx(
            legacy_stats.sim_seconds_total
        )

        assert report.participating_sites == [s.site_id for s in report.sites]
        assert report.failed_sites == []
        assert report.retries == 0
        assert report.degraded is False
        assert report.transport_stats is None

    def test_inactive_plan_and_no_plan_agree(self, workload, config):
        site_points, assignment = workload
        without = DistributedRunner(config).run_on_sites(site_points, assignment)
        inactive = DistributedRunner(
            config, fault_plan=FaultPlan.none(seed=3)
        ).run_on_sites(site_points, assignment)
        np.testing.assert_array_equal(
            without.labels_in_original_order(),
            inactive.labels_in_original_order(),
        )
        assert without.network.bytes_total == inactive.network.bytes_total


class TestDegradedLabels:
    def test_crash_before_local_leaves_noise(self, workload, config):
        site_points, assignment = workload
        plan = FaultPlan(
            seed=1,
            site_overrides={1: SiteFaults(crash_before_local_prob=1.0)},
        )
        report = DistributedRunner(config, fault_plan=plan).run_on_sites(
            site_points, assignment
        )
        crashed = report.sites[1]
        assert crashed.failure == "crash_before_local"
        assert (crashed.global_labels == NOISE).all()
        assert report.failed_sites == [1]
        assert 1 not in report.participating_sites
        assert report.degraded is True
        # The healthy sites still got relabeled into the global model.
        for site_id in (0, 2, 3):
            assert report.sites[site_id].failure is None
            assert (report.sites[site_id].global_labels >= 0).any()

    def test_missed_broadcast_keeps_local_labels_fresh_ids(
        self, workload, config
    ):
        site_points, assignment = workload
        plan = FaultPlan(
            seed=1, site_overrides={0: SiteFaults(crash_after_send_prob=1.0)}
        )
        report = DistributedRunner(config, fault_plan=plan).run_on_sites(
            site_points, assignment
        )
        lost = report.sites[0]
        assert lost.failure == "crash_after_send"
        # Its model was merged, but it never saw the global model.
        assert 0 in report.participating_sites
        assert report.failed_sites == [0]

        local_labels = lost.local_outcome.clustering.labels
        fresh_floor = int(report.global_model.global_labels.max()) + 1
        # Noise stays noise; clusters survive under fresh, non-colliding ids.
        np.testing.assert_array_equal(
            lost.global_labels == NOISE, local_labels == NOISE
        )
        clustered = lost.global_labels[lost.global_labels >= 0]
        assert (clustered >= fresh_floor).all()
        np.testing.assert_array_equal(
            clustered, local_labels[local_labels >= 0] + fresh_floor
        )
        healthy_ids = {
            int(label)
            for site_id in (1, 2, 3)
            for label in report.sites[site_id].global_labels
            if label >= 0
        }
        assert healthy_ids.isdisjoint(int(c) for c in clustered)

    def test_all_sites_failed_yields_empty_global_model(self, workload, config):
        site_points, assignment = workload
        plan = FaultPlan.site_failures(1.0, seed=5)
        report = DistributedRunner(config, fault_plan=plan).run_on_sites(
            site_points, assignment
        )
        assert report.participating_sites == []
        assert report.failed_sites == list(range(N_SITES))
        assert len(report.global_model) == 0
        assert report.degraded is True
        labels = report.labels_in_original_order()
        assert (labels == NOISE).all()


class TestDeadlineAndQuorum:
    def test_straggler_misses_deadline(self, workload, config):
        site_points, assignment = workload
        plan = FaultPlan(
            seed=2,
            site_overrides={
                2: SiteFaults(straggler_prob=1.0, straggler_factor=1e6)
            },
        )
        policy = RoundPolicy(deadline_s=5.0, compute_rate_objects_per_s=50_000.0)
        report = DistributedRunner(
            config, fault_plan=plan, round_policy=policy
        ).run_on_sites(site_points, assignment)
        assert report.failed_sites == [2]
        assert report.sites[2].failure == "deadline_missed"
        assert 2 not in report.participating_sites
        assert report.degraded is True
        # The straggler still keeps its (renumbered) local clusters.
        assert (report.sites[2].global_labels >= 0).any()

    def test_quorum_missed_flags_degraded(self, workload, config):
        site_points, assignment = workload
        plan = FaultPlan(
            seed=3, site_overrides={0: SiteFaults(crash_before_local_prob=1.0)}
        )
        strict = DistributedRunner(
            config, fault_plan=plan, round_policy=RoundPolicy()
        ).run_on_sites(site_points, assignment)
        assert strict.degraded is True

    def test_harmless_active_plan_is_not_degraded(self, workload, config):
        """A plan that is active but injects nothing effective (stragglers
        with factor 1, no deadline) completes a healthy round whose labels
        match the clean run."""
        site_points, assignment = workload
        plan = FaultPlan(
            seed=4, site=SiteFaults(straggler_prob=1.0, straggler_factor=1.0)
        )
        degraded_path = DistributedRunner(
            config, fault_plan=plan, round_policy=RoundPolicy()
        ).run_on_sites(site_points, assignment)
        clean = DistributedRunner(config).run_on_sites(site_points, assignment)
        assert degraded_path.degraded is False
        assert degraded_path.failed_sites == []
        # Admission is in simulated-arrival order, so compare as sets.
        assert set(degraded_path.participating_sites) == set(
            clean.participating_sites
        )
        np.testing.assert_array_equal(
            degraded_path.labels_in_original_order(),
            clean.labels_in_original_order(),
        )
        assert degraded_path.transport_stats is not None
        assert degraded_path.transport_stats.n_failed == 0


class TestClockNamedReportFields:
    """Satellite of the observability sweep: every timing field names its
    clock (``*_wall_seconds`` / ``*_cpu_seconds`` / ``*_sim_seconds``) and
    the simulated-clock fields actually carry the simulated round."""

    def test_fault_free_run_has_zero_sim_fields(self, workload, config):
        site_points, assignment = workload
        report = DistributedRunner(config).run_on_sites(site_points, assignment)
        assert report.local_sim_seconds == 0.0
        assert report.round_sim_seconds == 0.0
        assert report.max_local_wall_seconds > 0
        assert report.global_wall_seconds > 0
        # Back-compat aliases resolve to the wall-clock fields.
        assert report.max_local_seconds == report.max_local_wall_seconds
        assert report.global_seconds == report.global_wall_seconds
        assert report.overall_seconds == report.overall_wall_seconds

    def test_degraded_run_reports_simulated_round(self, workload, config):
        site_points, assignment = workload
        plan = FaultPlan(
            seed=4, site=SiteFaults(straggler_prob=1.0, straggler_factor=2.0)
        )
        report = DistributedRunner(config, fault_plan=plan).run_on_sites(
            site_points, assignment
        )
        # The simulated clock is a different clock: local compute plus
        # transfer times, not perf_counter deltas.
        assert report.local_sim_seconds > 0
        assert report.round_sim_seconds >= report.local_sim_seconds
        # And the wall-clock fields still measure the real execution.
        assert report.max_local_wall_seconds > 0
        assert report.local_cpu_seconds > 0

    def test_crash_after_send_broadcast_still_hits_the_wire(
        self, workload, config
    ):
        """Regression: the server is not omniscient — a broadcast to a
        crash-after-send site burns attempts and bytes on the network even
        though it can never be delivered."""
        site_points, assignment = workload
        plan = FaultPlan(
            seed=1, site_overrides={0: SiteFaults(crash_after_send_prob=1.0)}
        )
        report = DistributedRunner(config, fault_plan=plan).run_on_sites(
            site_points, assignment
        )
        clean = DistributedRunner(config).run_on_sites(site_points, assignment)
        assert report.sites[0].failure == "crash_after_send"
        # All four admitted sites got broadcast traffic; the dead site's
        # share burned the full retry budget, so downstream bytes exceed
        # the clean run's.
        assert (
            report.network.bytes_by_kind["global_model"]
            > clean.network.bytes_by_kind["global_model"]
        )
        assert report.transport_stats.n_failed >= 1
        assert report.retries >= 1


def _report_fingerprint(report):
    return (
        [site.global_labels.tolist() for site in report.sites],
        [site.failure for site in report.sites],
        report.participating_sites,
        report.failed_sites,
        report.retries,
        report.degraded,
        report.network.bytes_total,
        report.network.bytes_by_kind,
        round(report.network.sim_seconds_total, 9),
        report.transport_stats,
    )


class TestDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(
        intensity=st.floats(min_value=0.2, max_value=0.9),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_same_plan_same_report(self, workload, intensity, seed):
        """Same seed + same plan ⇒ identical report, retry counts and
        byte accounting included."""
        site_points, assignment = workload
        def run():
            return DistributedRunner(
                DistributedRunConfig(eps_local=1.0, min_pts_local=5),
                fault_plan=FaultPlan.chaos(intensity, seed=seed),
                transport_policy=TransportPolicy(max_attempts=3),
                round_policy=RoundPolicy(deadline_s=60.0),
            ).run_on_sites(site_points, assignment)

        assert _report_fingerprint(run()) == _report_fingerprint(run())

    def test_parallel_run_matches_sequential(self, workload, config, force_width):
        """The keyed RNG streams make injected faults independent of
        execution order — a parallel local phase changes nothing."""
        site_points, assignment = workload
        plan = FaultPlan.chaos(0.6, seed=9)

        def run(parallelism):
            cfg = DistributedRunConfig(
                eps_local=config.eps_local,
                min_pts_local=config.min_pts_local,
                parallelism=parallelism,
            )
            return DistributedRunner(cfg, fault_plan=plan).run_on_sites(
                site_points, assignment
            )

        parallel = run(4)
        assert parallel.effective_parallelism == 4
        assert _report_fingerprint(run(1)) == _report_fingerprint(parallel)

    def test_process_run_with_recovery_matches_sequential(
        self, workload, config, force_width
    ):
        """Process workers relabel against a repaired model: sites 2 and
        3 crash before their local phase and site 1 after its upload, so
        the recovery round computes two sites, folds their models in and
        relabels all four, each on a worker of its own."""
        site_points, assignment = workload
        plan = FaultPlan.chaos(0.5, seed=4)

        def run(parallelism, backend):
            cfg = DistributedRunConfig(
                eps_local=config.eps_local,
                min_pts_local=config.min_pts_local,
                parallelism=parallelism,
                parallel_backend=backend,
            )
            return DistributedRunner(
                cfg,
                fault_plan=plan,
                recovery_policy=RecoveryPolicy(max_recovery_rounds=1),
            ).run_on_sites(site_points, assignment)

        reference = run(1, "thread")
        candidate = run(N_SITES, "process")
        assert candidate.effective_parallelism == N_SITES
        (recovery,) = candidate.recovery_rounds
        assert recovery.recovered_sites == [1, 2, 3]
        assert recovery.rebroadcast_sites == list(range(N_SITES))
        assert _report_fingerprint(candidate) == _report_fingerprint(reference)
        assert candidate.global_model.to_bytes() == reference.global_model.to_bytes()
        for got, want in zip(candidate.sites, reference.sites):
            assert got.relabel_stats == want.relabel_stats
            assert (
                got.local_outcome.model.to_bytes()
                == want.local_outcome.model.to_bytes()
            )

    def _recovery_run(self, workload, config, parallelism, backend):
        site_points, assignment = workload
        cfg = DistributedRunConfig(
            eps_local=config.eps_local,
            min_pts_local=config.min_pts_local,
            parallelism=parallelism,
            parallel_backend=backend,
        )
        return DistributedRunner(
            cfg,
            fault_plan=FaultPlan.chaos(0.5, seed=4),
            recovery_policy=RecoveryPolicy(max_recovery_rounds=1),
        ).run_on_sites(site_points, assignment)

    def test_a_process_run_with_recovery_starts_one_pool(
        self, workload, config, force_width, pools
    ):
        """Round 0's local phase and relabel and the recovery round's
        local phase and relabel share one process pool, shut down once
        when the run returns; the labels are the sequential run's."""
        started, closed = pools
        reference = self._recovery_run(workload, config, 1, "thread")
        assert started == []
        candidate = self._recovery_run(workload, config, N_SITES, "process")
        assert candidate.recovery_rounds_used == 1
        assert len(started) == 1 and closed == started
        np.testing.assert_array_equal(
            candidate.labels_in_original_order(),
            reference.labels_in_original_order(),
        )
        assert _report_fingerprint(candidate) == _report_fingerprint(reference)

    def test_a_process_run_that_raises_shuts_its_pool_down(
        self, workload, config, force_width, pools, monkeypatch
    ):
        started, closed = pools
        monkeypatch.setattr(
            runner_mod, "_process_relabel_task", _failing_relabel_task
        )
        with pytest.raises(RuntimeError, match="relabel of site"):
            self._recovery_run(workload, config, N_SITES, "process")
        assert len(started) == 1 and closed == started
