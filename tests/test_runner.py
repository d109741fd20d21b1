"""Unit tests for the DistributedRunner orchestration."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.data.generators import gaussian_blobs
from repro.distributed.network import SimulatedNetwork
from repro.distributed.runner import DistributedRunConfig, DistributedRunner


@pytest.fixture
def blobs():
    points, __ = gaussian_blobs(
        [150, 150], np.asarray([[0.0, 0.0], [14.0, 0.0]]), 1.0, seed=33
    )
    return points


@pytest.fixture
def config():
    return DistributedRunConfig(eps_local=1.0, min_pts_local=5, seed=3)


class TestRun:
    def test_end_to_end_report(self, blobs, config):
        report = DistributedRunner(config).run(blobs, n_sites=3)
        assert len(report.sites) == 3
        assert report.n_objects == blobs.shape[0]
        assert report.n_representatives == len(report.global_model)
        assert report.overall_wall_seconds > 0
        assert report.global_wall_seconds >= 0

    def test_network_traffic_accounted(self, blobs, config):
        network = SimulatedNetwork()
        report = DistributedRunner(config, network).run(blobs, n_sites=3)
        stats = report.network
        # 3 local models up + 3 broadcasts down.
        assert stats.n_messages == 6
        assert stats.bytes_upstream > 0
        assert stats.bytes_downstream > 0

    def test_transmission_saving_complements_cost_ratio(self, blobs, config):
        report = DistributedRunner(config).run(blobs, n_sites=3)
        cost = report.transmission_cost_ratio
        assert cost == pytest.approx(
            report.network.bytes_upstream / report.raw_bytes
        )
        assert 0 < cost < 1.0
        assert report.transmission_saving == pytest.approx(1.0 - cost)
        # Models are far cheaper than the raw data — the saving dominates.
        assert report.transmission_saving > 0.5

    def test_transmission_ratios_zero_for_empty_baseline(self, blobs, config):
        report = DistributedRunner(config).run(blobs, n_sites=3)
        report.raw_bytes = 0
        assert report.transmission_cost_ratio == 0.0
        assert report.transmission_saving == 0.0

    def test_bytes_by_kind_covers_all_traffic(self, blobs, config):
        report = DistributedRunner(config).run(blobs, n_sites=3)
        by_kind = report.bytes_by_kind
        assert set(by_kind) == {"local_model", "global_model"}
        assert by_kind["local_model"] == report.network.bytes_upstream
        assert by_kind["global_model"] == report.network.bytes_downstream
        assert sum(by_kind.values()) == report.network.bytes_total

    def test_labels_realigned(self, blobs, config):
        report = DistributedRunner(config).run(blobs, n_sites=3)
        labels = report.labels_in_original_order()
        assert labels.shape == (blobs.shape[0],)
        # The two blobs are separated; each maps to one global cluster.
        first_blob = labels[:150]
        clustered = first_blob[first_blob >= 0]
        assert np.unique(clustered).size == 1

    def test_both_blobs_distinct_clusters(self, blobs, config):
        report = DistributedRunner(config).run(blobs, n_sites=3)
        labels = report.labels_in_original_order()
        a = labels[:150][labels[:150] >= 0]
        b = labels[150:][labels[150:] >= 0]
        assert set(np.unique(a)).isdisjoint(np.unique(b))

    def test_presplit_sites_without_assignment(self, blobs, config):
        halves = [blobs[:150], blobs[150:]]
        report = DistributedRunner(config).run_on_sites(halves)
        assert report.assignment is None
        with pytest.raises(RuntimeError, match="assignment"):
            report.labels_in_original_order()

    def test_rejects_empty_sites(self, config):
        with pytest.raises(ValueError, match="at least one site"):
            DistributedRunner(config).run_on_sites([])

    def test_matches_plain_pipeline_quality(self, blobs, config):
        """Runner and run_dbdc_partitioned produce the same partition for
        the same assignment."""
        from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
        from repro.distributed.partition import uniform_random

        assignment = uniform_random(blobs.shape[0], 3, seed=11)
        report = DistributedRunner(config).run_on_sites(
            [blobs[assignment == s] for s in range(3)], assignment
        )
        plain = run_dbdc_partitioned(
            blobs,
            assignment,
            DBDCConfig(eps_local=1.0, min_pts_local=5),
        )
        np.testing.assert_array_equal(
            report.labels_in_original_order(),
            plain.labels_in_original_order(),
        )

    def test_scheme_passthrough(self, blobs):
        config = DistributedRunConfig(
            eps_local=1.0, min_pts_local=5, scheme="rep_kmeans"
        )
        report = DistributedRunner(config).run(blobs, n_sites=2)
        outcome = report.sites[0].local_outcome
        assert outcome.model.scheme == "rep_kmeans"


class TestNonLpMetric:
    """A registered non-L_p metric through the whole runner: every site
    runs DBSCAN on the index ``build_index("auto")`` picks for it, brute
    force at any size (the M-tree is a named kind only)."""

    def test_haversine_labels_equal_plain_pipeline(self, monkeypatch):
        from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
        from repro.index import BruteForceIndex
        from tests.test_mtree import haversine

        dbscan_module = importlib.import_module("repro.clustering.dbscan")
        rng = np.random.default_rng(7)
        hubs = np.asarray([[0.85, 0.2], [0.1, -1.4], [-0.6, 2.2]])
        stations = np.concatenate(
            [hub + rng.normal(0.0, 0.02, size=(220, 2)) for hub in hubs]
            + [rng.uniform([-1.0, -3.0], [1.0, 3.0], size=(40, 2))]
        )
        sizes = (257, 256, 187)
        assignment = rng.permutation(np.repeat(np.arange(3), sizes))
        built = []
        build_index = dbscan_module.build_index

        def spy(points, *args, **kwargs):
            index = build_index(points, *args, **kwargs)
            built.append((len(points), type(index)))
            return index

        monkeypatch.setattr(dbscan_module, "build_index", spy)
        config = DistributedRunConfig(
            eps_local=0.06, min_pts_local=5, metric=haversine
        )
        report = DistributedRunner(config).run_on_sites(
            [stations[assignment == s] for s in range(3)], assignment
        )
        expected = [
            (257, BruteForceIndex), (256, BruteForceIndex), (187, BruteForceIndex)
        ]
        assert built == expected
        plain = run_dbdc_partitioned(
            stations,
            assignment,
            DBDCConfig(eps_local=0.06, min_pts_local=5, metric=haversine),
        )
        assert built == expected * 2
        labels = report.labels_in_original_order()
        np.testing.assert_array_equal(labels, plain.labels_in_original_order())
        # Each hub, spread over all three sites, is one global cluster.
        hubs = [labels[start : start + 220] for start in (0, 220, 440)]
        clusters = [np.unique(hub[hub >= 0]) for hub in hubs]
        assert [c.size for c in clusters] == [1, 1, 1]
        assert len({int(c[0]) for c in clusters}) == 3
