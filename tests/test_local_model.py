"""Unit + property tests for local models (Sections 5.1 / 5.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import dbscan
from repro.core.local import (
    LOCAL_MODEL_SCHEMES,
    build_local_model,
    build_rep_kmeans_model,
    build_rep_scor_model,
    specific_eps_ranges,
    verify_specific_core_set,
)
from repro.data.generators import gaussian_blobs
from tests.model_rows import rows_of


@pytest.fixture
def blob_site(rng):
    points, __ = gaussian_blobs(
        [80, 80], np.asarray([[0.0, 0.0], [15.0, 0.0]]), 1.0, seed=10
    )
    return points


class TestSpecificCorePoints:
    def test_definition6_holds_per_cluster(self, blob_site):
        outcome = build_rep_scor_model(blob_site, 1.0, 5, site_id=0)
        for cid, scor in outcome.specific_core_points.items():
            assert verify_specific_core_set(
                blob_site, outcome.clustering, cid, scor
            )

    def test_every_cluster_has_representatives(self, blob_site):
        outcome = build_rep_scor_model(blob_site, 1.0, 5)
        assert set(outcome.specific_core_points) == set(
            range(outcome.clustering.n_clusters)
        )
        for scor in outcome.specific_core_points.values():
            assert scor.size >= 1

    def test_selection_depends_on_processing_order(self, blob_site):
        """The paper: the DBSCAN processing order fixes the concrete Scor."""
        from repro.clustering.dbscan import DBSCAN
        from repro.core.local import SpecificCorePointCollector

        forward = SpecificCorePointCollector(len(blob_site))
        DBSCAN(1.0, 5).fit(blob_site, observer=forward)
        backward = SpecificCorePointCollector(len(blob_site))
        DBSCAN(1.0, 5).fit(
            blob_site, observer=backward, order=list(range(len(blob_site)))[::-1]
        )
        fwd = {int(i) for s in forward.specific_core_points().values() for i in s}
        bwd = {int(i) for s in backward.specific_core_points().values() for i in s}
        # Both are valid complete sets but (generically) different ones.
        assert fwd != bwd

    @given(seed=st.integers(0, 20_000))
    @settings(max_examples=25, deadline=None)
    def test_property_definition6(self, seed):
        rng = np.random.default_rng(seed)
        points = np.concatenate(
            [rng.normal(0, 0.8, size=(30, 2)), rng.uniform(-6, 6, size=(20, 2))]
        )
        outcome = build_rep_scor_model(points, 0.9, 4)
        for cid, scor in outcome.specific_core_points.items():
            assert verify_specific_core_set(points, outcome.clustering, cid, scor)


class TestSpecificEpsRanges:
    def test_definition7_value(self, blob_site):
        outcome = build_rep_scor_model(blob_site, 1.0, 5)
        result = outcome.clustering
        for rep, (cid, scor) in zip(
            rows_of(outcome.model),
            [
                (cid, s)
                for cid in sorted(outcome.specific_core_points)
                for s in outcome.specific_core_points[cid]
            ],
        ):
            # Recompute ε_s from the definition directly.
            dist = np.linalg.norm(blob_site - blob_site[scor], axis=1)
            core_in_eps = np.flatnonzero(
                (dist <= 1.0) & result.core_mask & (np.arange(len(dist)) != scor)
            )
            expected = 1.0 + (dist[core_in_eps].max() if core_in_eps.size else 0.0)
            assert rep.eps_range == pytest.approx(expected)

    def test_range_at_least_eps(self, blob_site):
        outcome = build_rep_scor_model(blob_site, 1.0, 5)
        for rep in rows_of(outcome.model):
            assert rep.eps_range >= 1.0

    def test_range_at_most_two_eps(self, blob_site):
        """ε_s = Eps + max dist to core in N_Eps(s) ≤ 2·Eps."""
        outcome = build_rep_scor_model(blob_site, 1.0, 5)
        for rep in rows_of(outcome.model):
            assert rep.eps_range <= 2.0 + 1e-9

    def test_isolated_core_gets_plain_eps(self):
        # min_pts=1: a lone point is core with no core neighbors.
        points = np.asarray([[0.0, 0.0], [100.0, 100.0]])
        result = dbscan(points, 1.0, 1)
        assert specific_eps_ranges(np.asarray([0]), result).tolist() == [1.0]


class TestRepScorModel:
    def test_representatives_are_actual_objects(self, blob_site):
        outcome = build_rep_scor_model(blob_site, 1.0, 5, site_id=3)
        for rep in rows_of(outcome.model):
            distances = np.linalg.norm(blob_site - rep.point, axis=1)
            assert distances.min() == pytest.approx(0.0, abs=1e-12)
            assert rep.site_id == 3

    def test_model_metadata(self, blob_site):
        outcome = build_rep_scor_model(blob_site, 1.0, 5, site_id=3)
        model = outcome.model
        assert model.scheme == "rep_scor"
        assert model.n_objects == blob_site.shape[0]
        assert model.eps_local == 1.0
        assert model.min_pts_local == 5
        assert model.n_local_clusters == outcome.clustering.n_clusters

    def test_far_fewer_representatives_than_objects(self, blob_site):
        outcome = build_rep_scor_model(blob_site, 1.0, 5)
        assert 0 < len(outcome.model) < blob_site.shape[0] / 3

    def test_noise_only_site_empty_model(self, rng):
        points = rng.uniform(0, 1000, size=(20, 2))
        outcome = build_rep_scor_model(points, 0.5, 4)
        assert len(outcome.model) == 0
        assert outcome.model.max_eps_range == 0.0


class TestRepKMeansModel:
    def test_same_representative_count_as_scor(self, blob_site):
        """§5.2: k = |Scor_C| — both schemes transmit equally many reps."""
        scor = build_rep_scor_model(blob_site, 1.0, 5)
        km = build_rep_kmeans_model(blob_site, 1.0, 5)
        assert len(km.model) == len(scor.model)

    def test_centroids_inside_cluster_bbox(self, blob_site):
        outcome = build_rep_kmeans_model(blob_site, 1.0, 5)
        for rep in rows_of(outcome.model):
            members = outcome.clustering.members(rep.local_cluster_id)
            low = blob_site[members].min(axis=0) - 1e-9
            high = blob_site[members].max(axis=0) + 1e-9
            assert (rep.point >= low).all() and (rep.point <= high).all()

    def test_eps_range_covers_assigned_objects(self, blob_site):
        """Section 5.2: ε_c = max distance of assigned objects, so every
        cluster object is covered by at least one centroid's range."""
        outcome = build_rep_kmeans_model(blob_site, 1.0, 5)
        for cid in range(outcome.clustering.n_clusters):
            members = outcome.clustering.members(cid)
            reps = [
                r for r in rows_of(outcome.model) if r.local_cluster_id == cid
            ]
            for obj in blob_site[members]:
                assert any(
                    np.linalg.norm(obj - r.point) <= r.eps_range + 1e-9 for r in reps
                )

    def test_scheme_label(self, blob_site):
        outcome = build_rep_kmeans_model(blob_site, 1.0, 5)
        assert outcome.model.scheme == "rep_kmeans"


class TestDispatch:
    def test_known_schemes(self, blob_site):
        for scheme in LOCAL_MODEL_SCHEMES:
            outcome = build_local_model(blob_site, 1.0, 5, scheme=scheme)
            assert outcome.model.scheme == scheme

    def test_unknown_scheme_raises(self, blob_site):
        with pytest.raises(ValueError, match="unknown local model scheme"):
            build_local_model(blob_site, 1.0, 5, scheme="rep_medoid")
