"""Unit tests for OPTICS and its DBSCAN-equivalent extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import dbscan
from repro.clustering.labels import NOISE
from repro.clustering.optics import extract_dbscan_clustering, optics


class TestValidation:
    def test_rejects_bad_eps(self, rng):
        with pytest.raises(ValueError, match="eps"):
            optics(rng.normal(size=(5, 2)), 0.0, 3)

    def test_rejects_a_nan_eps(self, rng):
        """A NaN used to pass the ``eps <= 0`` check."""
        with pytest.raises(ValueError, match="eps"):
            optics(rng.normal(size=(5, 2)), np.nan, 3)

    def test_infinite_eps_runs_as_on_brute_force(self, small_blobs):
        """An infinite generating distance, the usual OPTICS setting,
        used to crash in the automatically picked grid; it runs on the
        kd-tree now."""
        points, __ = small_blobs
        result = optics(points, np.inf, 5)
        oracle = optics(points, np.inf, 5, index_kind="brute")
        np.testing.assert_array_equal(result.ordering, oracle.ordering)
        np.testing.assert_array_equal(result.reachability, oracle.reachability)
        np.testing.assert_array_equal(result.core_distance, oracle.core_distance)
        assert np.isfinite(result.reachability[result.ordering[1:]]).all()

    def test_rejects_bad_min_pts(self, rng):
        with pytest.raises(ValueError, match="min_pts"):
            optics(rng.normal(size=(5, 2)), 1.0, 0)

    def test_rejects_cut_above_generating_eps(self, rng):
        result = optics(rng.normal(size=(20, 2)), 1.0, 3)
        with pytest.raises(ValueError, match="exceeds"):
            extract_dbscan_clustering(result, 2.0)


class TestOrderingStructure:
    def test_ordering_is_permutation(self, small_blobs):
        points, __ = small_blobs
        result = optics(points, 2.0, 5)
        np.testing.assert_array_equal(
            np.sort(result.ordering), np.arange(points.shape[0])
        )

    def test_first_visited_has_undefined_reachability(self, small_blobs):
        points, __ = small_blobs
        result = optics(points, 2.0, 5)
        assert np.isinf(result.reachability[result.ordering[0]])

    def test_core_distance_definition(self, small_blobs):
        """Core distance = distance to the min_pts-th nearest neighbor
        (self included), or inf when the eps-neighborhood is too small."""
        points, __ = small_blobs
        eps, min_pts = 2.0, 5
        result = optics(points, eps, min_pts)
        for i in range(0, points.shape[0], 17):
            dist = np.linalg.norm(points - points[i], axis=1)
            inside = np.sort(dist[dist <= eps])
            if inside.size >= min_pts:
                assert result.core_distance[i] == pytest.approx(inside[min_pts - 1])
            else:
                assert np.isinf(result.core_distance[i])

    def test_reachability_plot_alignment(self, small_blobs):
        points, __ = small_blobs
        result = optics(points, 2.0, 5)
        plot = result.reachability_plot()
        assert plot.shape == result.ordering.shape
        assert plot[0] == result.reachability[result.ordering[0]]

    def test_valleys_in_reachability_plot(self, small_blobs):
        """Dense blobs must show up as low-reachability stretches."""
        points, __ = small_blobs
        result = optics(points, 3.0, 5)
        plot = result.reachability_plot()
        finite = plot[np.isfinite(plot)]
        # Most of the data sits inside dense blobs: the median
        # reachability is far below the generating radius.
        assert np.median(finite) < 1.0


class TestExtractDBSCAN:
    @pytest.mark.parametrize("eps_cut", [0.8, 1.2, 2.0])
    def test_extraction_matches_dbscan_partition(self, small_blobs, eps_cut):
        points, __ = small_blobs
        ordering = optics(points, 2.5, 5)
        extracted = extract_dbscan_clustering(ordering, eps_cut)
        reference = dbscan(points, eps_cut, 5)
        # Compare partitions on core points (border points are
        # order-dependent in both algorithms).
        core = reference.core_mask
        mapping: dict[int, int] = {}
        reverse: dict[int, int] = {}
        for a, b in zip(extracted[core], reference.labels[core]):
            assert a >= 0 and b >= 0
            assert mapping.setdefault(int(a), int(b)) == int(b)
            assert reverse.setdefault(int(b), int(a)) == int(a)

    def test_extraction_noise_is_dbscan_noise_superset_free(self, small_blobs):
        """OPTICS extraction marks exactly DBSCAN's non-reachable points
        as noise (up to border ambiguity): no core point is ever noise."""
        points, __ = small_blobs
        ordering = optics(points, 2.5, 5)
        extracted = extract_dbscan_clustering(ordering, 1.2)
        reference = dbscan(points, 1.2, 5)
        assert not (extracted[reference.core_mask] == NOISE).any()

    def test_cut_at_generating_eps(self, small_blobs):
        points, __ = small_blobs
        ordering = optics(points, 1.5, 5)
        extracted = extract_dbscan_clustering(ordering, 1.5)
        reference = dbscan(points, 1.5, 5)
        assert np.unique(extracted[extracted >= 0]).size == reference.n_clusters

    def test_smaller_cut_more_or_equal_noise(self, small_blobs):
        points, __ = small_blobs
        ordering = optics(points, 3.0, 5)
        loose = extract_dbscan_clustering(ordering, 2.5)
        tight = extract_dbscan_clustering(ordering, 0.6)
        assert (tight == NOISE).sum() >= (loose == NOISE).sum()
