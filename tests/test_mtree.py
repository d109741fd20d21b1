"""Tests for the M-tree — the paper's metric-space access method."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import dbscan
from repro.data.distance import Metric, register_metric
from repro.index import BruteForceIndex, MTreeIndex, build_index


def _haversine_pair(p, q):
    """Great-circle distance on the unit sphere (lat, lon in radians) —
    a genuine non-L_p metric that still obeys the triangle inequality."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    dlat = q[0] - p[0]
    dlon = q[1] - p[1]
    a = np.sin(dlat / 2) ** 2 + np.cos(p[0]) * np.cos(q[0]) * np.sin(dlon / 2) ** 2
    return float(2 * np.arcsin(np.sqrt(np.clip(a, 0, 1))))


def _haversine_many(p, points):
    p = np.asarray(p, dtype=float)
    points = np.asarray(points, dtype=float)
    dlat = points[:, 0] - p[0]
    dlon = points[:, 1] - p[1]
    a = np.sin(dlat / 2) ** 2 + np.cos(p[0]) * np.cos(points[:, 0]) * np.sin(dlon / 2) ** 2
    return 2 * np.arcsin(np.sqrt(np.clip(a, 0, 1)))


haversine = Metric("haversine", _haversine_pair, _haversine_many)
register_metric(haversine)


class TestConstruction:
    def test_rejects_bad_capacity(self, rng):
        with pytest.raises(ValueError, match="node_capacity"):
            MTreeIndex(rng.normal(size=(5, 2)), node_capacity=1)

    def test_empty(self):
        index = MTreeIndex(np.empty((0, 2)))
        assert index.range_query(np.zeros(2), 1.0).size == 0
        assert index.height == 0

    def test_height_grows(self, rng):
        small = MTreeIndex(rng.normal(size=(10, 2)), node_capacity=4)
        large = MTreeIndex(rng.normal(size=(2000, 2)), node_capacity=4)
        assert large.height > small.height >= 1

    def test_all_identical_points(self):
        points = np.zeros((100, 2))
        index = MTreeIndex(points, node_capacity=8)
        assert index.range_query(np.zeros(2), 0.0).size == 100


class TestEuclideanOracle:
    def test_matches_bruteforce(self, rng):
        points = rng.uniform(-5, 5, size=(300, 2))
        index = MTreeIndex(points, node_capacity=8)
        oracle = BruteForceIndex(points)
        for eps in (0.3, 1.0, 4.0):
            for qi in range(0, 300, 41):
                np.testing.assert_array_equal(
                    index.range_query(points[qi], eps),
                    oracle.range_query(points[qi], eps),
                )

    def test_external_query(self, rng):
        points = rng.uniform(-5, 5, size=(150, 3))
        index = MTreeIndex(points, node_capacity=8)
        oracle = BruteForceIndex(points)
        q = np.asarray([7.0, -2.0, 1.0])
        np.testing.assert_array_equal(
            index.range_query(q, 5.0), oracle.range_query(q, 5.0)
        )

    @given(seed=st.integers(0, 10_000), eps=st.floats(0.05, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_property_random(self, seed, eps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        points = rng.uniform(-3, 3, size=(n, 2))
        index = MTreeIndex(points, node_capacity=4)
        oracle = BruteForceIndex(points)
        q = rng.uniform(-4, 4, size=2)
        np.testing.assert_array_equal(
            index.range_query(q, eps), oracle.range_query(q, eps)
        )


class TestNonVectorMetric:
    """The reason the M-tree exists: metrics with no coordinate structure."""

    @pytest.fixture
    def stations(self, rng):
        # Weather stations: (lat, lon) in radians, clustered around hubs.
        hubs = np.asarray([[0.85, 0.2], [0.1, -1.4], [-0.6, 2.2]])
        points = np.concatenate(
            [hub + rng.normal(0, 0.02, size=(60, 2)) for hub in hubs]
        )
        return points

    def test_matches_bruteforce_under_haversine(self, stations, rng):
        index = MTreeIndex(stations, metric=haversine, node_capacity=8)
        oracle = BruteForceIndex(stations, metric=haversine)
        for qi in (0, 50, 100, 170):
            np.testing.assert_array_equal(
                index.range_query(stations[qi], 0.05),
                oracle.range_query(stations[qi], 0.05),
            )

    def test_dbscan_on_sphere_via_mtree(self, stations):
        """End-to-end §4 claim: DBSCAN in a non-vector metric space."""
        result = dbscan(stations, eps=0.06, min_pts=5, metric=haversine, index_kind="mtree")
        assert result.n_clusters == 3
        # Each hub forms one cluster.
        for start in (0, 60, 120):
            block = result.labels[start : start + 60]
            clustered = block[block >= 0]
            assert np.unique(clustered).size == 1

    def test_auto_factory_uses_brute_force_for_unknown_metric(self, rng):
        points = rng.normal(0, 0.3, size=(500, 2))
        index = build_index(points, "auto", metric=haversine)
        assert isinstance(index, BruteForceIndex)

    def test_factory_explicit_mtree(self, rng):
        index = build_index(rng.normal(size=(20, 2)), "mtree")
        assert isinstance(index, MTreeIndex)
