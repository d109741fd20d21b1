"""Tests for hierarchical DBDC and regional condensation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import dbscan
from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
from repro.core.local import build_rep_scor_model
from repro.core.models import LocalModel
from repro.data.distance import euclidean
from repro.data.generators import gaussian_blobs
from repro.distributed.hierarchy import condense_models, run_hierarchical_dbdc
from repro.distributed.partition import split, uniform_random
from repro.quality import evaluate_quality
from tests.model_rows import covers


@pytest.fixture(scope="module")
def workload():
    points, __ = gaussian_blobs(
        [300, 300, 300],
        np.asarray([[0.0, 0.0], [25.0, 0.0], [12.0, 20.0]]),
        1.2,
        seed=17,
    )
    return points


EPS, MIN_PTS = 1.2, 5


def _regions(points, n_sites=6, n_regions=2, seed=0):
    assignment = uniform_random(points.shape[0], n_sites, seed=seed)
    parts = split(points, assignment)
    per_region = n_sites // n_regions
    regions = [
        parts[r * per_region : (r + 1) * per_region] for r in range(n_regions)
    ]
    return regions, assignment


class TestCondenseModels:
    def _models(self, workload):
        halves = [workload[: len(workload) // 2], workload[len(workload) // 2 :]]
        return [
            build_rep_scor_model(points, EPS, MIN_PTS, site_id=sid).model
            for sid, points in enumerate(halves)
        ]

    def test_reduces_representative_count(self, workload):
        models = self._models(workload)
        condensed = condense_models(models, EPS)
        assert 0 < len(condensed) < sum(len(m) for m in models)

    def test_coverage_preserved(self, workload):
        """Every object covered by some input representative must remain
        covered by some condensed representative — the invariant the
        absorption rule is built around."""
        models = self._models(workload)
        condensed = condense_models(models, EPS)
        for point in workload[::7]:
            covered_before = any(covers(model, point, euclidean) for model in models)
            if covered_before:
                assert covers(condensed, point, euclidean)

    def test_radius_zero_keeps_everything(self, workload):
        models = self._models(workload)
        condensed = condense_models(models, 0.0)
        assert len(condensed) == sum(len(m) for m in models)

    def test_metadata_aggregated(self, workload):
        models = self._models(workload)
        condensed = condense_models(models, EPS, region_id=7)
        assert condensed.site_id == 7
        assert condensed.n_objects == workload.shape[0]
        assert condensed.scheme == models[0].scheme

    def test_empty_input(self):
        condensed = condense_models([], 1.0)
        assert len(condensed) == 0


class TestHierarchicalRun:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one region"):
            run_hierarchical_dbdc([], eps_local=1.0, min_pts_local=5)
        with pytest.raises(ValueError, match="at least one region"):
            run_hierarchical_dbdc([[]], eps_local=1.0, min_pts_local=5)

    def test_finds_the_clusters(self, workload):
        regions, __ = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS
        )
        assert report.global_model.n_global_clusters == 3

    def test_long_haul_cheaper_than_flat(self, workload):
        regions, __ = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS
        )
        assert report.long_haul_bytes < report.flat_equivalent_bytes
        assert 0 < report.long_haul_saving < 1

    def test_condensation_off_forwards_every_representative(self, workload):
        regions, __ = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS, condense_radius=0.0
        )
        for region in report.regions:
            assert (
                region.n_forwarded_representatives
                == region.n_received_representatives
            )
        # Traffic differs from flat only by the merged message headers.
        assert (
            report.flat_equivalent_bytes - report.long_haul_bytes
            < 16 * sum(len(r.site_ids) for r in report.regions)
        )

    def test_quality_close_to_flat_dbdc(self, workload):
        regions, assignment = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS
        )
        labels = np.empty(workload.shape[0], dtype=np.intp)
        for sid in range(6):
            members = np.flatnonzero(assignment == sid)
            labels[members] = report.sites[sid].global_labels
        central = dbscan(workload, EPS, MIN_PTS)
        hierarchical_q = evaluate_quality(labels, central.labels, qp=MIN_PTS)
        flat = run_dbdc_partitioned(
            workload, assignment, DBDCConfig(eps_local=EPS, min_pts_local=MIN_PTS)
        )
        flat_q = evaluate_quality(
            flat.labels_in_original_order(), central.labels, qp=MIN_PTS
        )
        assert hierarchical_q.q_p2 > flat_q.q_p2 - 0.05

    def test_region_reports_populated(self, workload):
        regions, __ = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS
        )
        assert len(report.regions) == 2
        for region in report.regions:
            assert len(region.site_ids) == 3
            assert region.n_forwarded_representatives <= region.n_received_representatives
            assert region.bytes_up_region > 0
            # Healthy sites produce valid models: nothing quarantined.
            assert region.n_quarantined_models == 0
        assert report.n_quarantined_models == 0

    def test_every_site_relabeled(self, workload):
        regions, __ = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS
        )
        for labels in report.labels_per_site():
            assert (labels >= -1).all()
            assert (labels >= 0).any()


class TestHierarchyTrafficAccounting:
    def test_network_stats_match_region_reports(self, workload):
        """The network layer's per-kind accounting must agree with the
        per-region bookkeeping the report carries."""
        regions, __ = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS
        )
        by_kind = report.network.bytes_by_kind
        assert set(by_kind) == {"local_model", "regional_model", "global_model"}
        assert by_kind["local_model"] == sum(
            r.bytes_up_sites for r in report.regions
        )
        assert by_kind["regional_model"] == sum(
            r.bytes_up_region for r in report.regions
        )
        assert by_kind["regional_model"] == report.long_haul_bytes
        assert sum(by_kind.values()) == report.network.bytes_total

    def test_message_count_matches_topology(self, workload):
        regions, __ = _regions(workload)
        report = run_hierarchical_dbdc(
            regions, eps_local=EPS, min_pts_local=MIN_PTS
        )
        n_sites = len(report.sites)
        n_regions = len(report.regions)
        # site->region uploads + region->top uploads + broadcasts.
        assert report.network.n_messages == n_sites + n_regions + n_sites
