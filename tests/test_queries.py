"""Tests for the distributed aggregate-query layer (§7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generators import gaussian_blobs
from repro.distributed.queries import ClusterAggregate, FederationQueries, SitePartial
from repro.distributed.server import RoundCore
from repro.distributed.site import ClientSite


@pytest.fixture(scope="module")
def federation():
    """Three sites over two blobs, fully relabeled."""
    points, __ = gaussian_blobs(
        [240, 240], np.asarray([[0.0, 0.0], [18.0, 0.0]]), 1.0, seed=31
    )
    rng = np.random.default_rng(0)
    assignment = rng.integers(0, 3, size=points.shape[0])
    sites = [
        ClientSite(sid, points[assignment == sid], eps_local=1.0, min_pts_local=5)
        for sid in range(3)
    ]
    server = RoundCore()
    server.apply(server.open_round(0))
    for site in sites:
        server.apply(server.arrive(site.run_local_clustering()))
    model = server.apply(server.commit_round(0))
    for site in sites:
        site.receive_global_model(model)
    return points, sites


class TestSitePartial:
    def test_from_points(self, rng):
        points = rng.normal(size=(20, 2))
        partial = SitePartial.from_points(3, points)
        assert partial.count == 20
        np.testing.assert_allclose(partial.coordinate_sum, points.sum(axis=0))
        np.testing.assert_allclose(partial.lower, points.min(axis=0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SitePartial.from_points(0, np.empty((0, 2)))

    def test_constant_wire_size(self, rng):
        small = SitePartial.from_points(0, rng.normal(size=(5, 2)))
        large = SitePartial.from_points(0, rng.normal(size=(5000, 2)))
        assert small.n_bytes == large.n_bytes


class TestClusterAggregate:
    def test_combine_matches_direct_computation(self, rng):
        a = rng.normal(0, 1, size=(30, 2))
        b = rng.normal(0, 1, size=(50, 2))
        aggregate = ClusterAggregate.combine(
            7,
            [SitePartial.from_points(0, a), SitePartial.from_points(1, b)],
        )
        union = np.concatenate([a, b])
        assert aggregate.count == 80
        np.testing.assert_allclose(aggregate.centroid, union.mean(axis=0))
        np.testing.assert_allclose(aggregate.std, union.std(axis=0), rtol=1e-9)
        np.testing.assert_allclose(aggregate.lower, union.min(axis=0))
        np.testing.assert_allclose(aggregate.upper, union.max(axis=0))
        assert aggregate.per_site_counts == {0: 30, 1: 50}

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no partials"):
            ClusterAggregate.combine(1, [])


class TestFederationQueries:
    def test_global_cluster_ids(self, federation):
        __, sites = federation
        queries = FederationQueries(sites)
        assert queries.global_cluster_ids().size == 2

    def test_membership_split_across_sites(self, federation):
        __, sites = federation
        queries = FederationQueries(sites)
        gid = int(queries.global_cluster_ids()[0])
        per_site = queries.objects_of(gid)
        assert sum(v.shape[0] for v in per_site.values()) > 200
        assert all(sid in per_site for sid in (0, 1, 2))

    def test_aggregate_centroid_near_blob_center(self, federation):
        __, sites = federation
        queries = FederationQueries(sites)
        centroids = [agg.centroid for agg in queries.cluster_summary()]
        centroids.sort(key=lambda c: c[0])
        np.testing.assert_allclose(centroids[0], [0.0, 0.0], atol=0.3)
        np.testing.assert_allclose(centroids[1], [18.0, 0.0], atol=0.3)

    def test_aggregate_counts_cover_everything(self, federation):
        points, sites = federation
        queries = FederationQueries(sites)
        clustered = sum(agg.count for agg in queries.cluster_summary())
        assert clustered + queries.noise_count() == points.shape[0]

    def test_unknown_cluster_raises(self, federation):
        __, sites = federation
        queries = FederationQueries(sites)
        with pytest.raises(KeyError, match="no members"):
            queries.aggregate(999)

    def test_aggregate_traffic_far_below_raw(self, federation):
        __, sites = federation
        queries = FederationQueries(sites)
        gid = int(queries.global_cluster_ids()[0])
        traffic = queries.aggregate_traffic_bytes(gid)
        raw = sum(v.shape[0] for v in queries.objects_of(gid).values()) * 2 * 8
        assert 0 < traffic < raw / 5
