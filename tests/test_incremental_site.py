"""Unit tests for the incremental client site and its drift policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local import (
    build_rep_scor_from_clustering,
    build_rep_scor_model,
    select_specific_core_points,
    verify_specific_core_set,
)
from repro.data.generators import gaussian_blobs
from repro.distributed.incremental_site import (
    IncrementalClientSite,
    model_drift,
)


@pytest.fixture
def blob(rng):
    points, __ = gaussian_blobs([80], np.asarray([[0.0, 0.0]]), 0.8, seed=42)
    return points


class TestSelectionFromState:
    def test_definition6_holds(self, blob):
        """The state-based selector satisfies Def. 6 like the observer."""
        outcome = build_rep_scor_model(blob, 1.0, 4)
        result = outcome.clustering
        scor_map = select_specific_core_points(
            blob, result.labels, result.core_mask, 1.0
        )
        for cid, scor in scor_map.items():
            assert verify_specific_core_set(blob, result, cid, scor)

    def test_model_from_clustering_equivalent_metadata(self, blob):
        outcome = build_rep_scor_model(blob, 1.0, 4, site_id=2)
        model = build_rep_scor_from_clustering(
            blob,
            outcome.clustering.labels,
            outcome.clustering.core_mask,
            1.0,
            4,
            site_id=2,
        )
        assert model.scheme == "rep_scor"
        assert model.site_id == 2
        assert model.n_local_clusters == outcome.model.n_local_clusters
        # ε-ranges bounded as per Definition 7.
        for eps_range in model.eps_ranges:
            assert 1.0 <= eps_range <= 2.0 + 1e-9


class TestDriftMeasure:
    def _model(self, points, site_id=0):
        outcome = build_rep_scor_model(points, 1.0, 4, site_id=site_id)
        return outcome.model

    def test_zero_for_identical_models(self, blob):
        model = self._model(blob)
        report = model_drift(model, model)
        assert report.uncovered_fraction == 0.0
        assert report.cluster_count_delta == 0
        assert report.drift == 0.0

    def test_large_for_new_region(self, blob):
        old = self._model(blob)
        far, __ = gaussian_blobs([80], np.asarray([[30.0, 30.0]]), 0.8, seed=1)
        new = self._model(np.concatenate([blob, far]))
        report = model_drift(old, new)
        assert report.uncovered_fraction > 0.2
        assert report.cluster_count_delta == 1
        assert report.drift > 1.0

    def test_symmetricish_direction(self, blob):
        """Removing a cluster is as much drift as adding one."""
        small = self._model(blob)
        far, __ = gaussian_blobs([80], np.asarray([[30.0, 30.0]]), 0.8, seed=1)
        big = self._model(np.concatenate([blob, far]))
        assert model_drift(small, big).drift == pytest.approx(
            model_drift(big, small).drift
        )

    def test_empty_models(self, blob):
        from repro.core.models import LocalModel

        empty = LocalModel(0, np.empty((0, 0)), [], [], 0, "rep_scor", 1.0, 4)
        assert model_drift(empty, empty).drift == 0.0
        nonempty = self._model(blob)
        assert model_drift(empty, nonempty).uncovered_fraction == 1.0


class TestIncrementalClientSite:
    def _site(self, **kwargs):
        defaults = dict(
            eps_local=1.0, min_pts_local=4, dim=2, drift_threshold=0.2
        )
        defaults.update(kwargs)
        return IncrementalClientSite(0, **defaults)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            self._site(drift_threshold=-0.1)

    def test_first_transmission_always_happens(self, blob):
        site = self._site()
        site.add_objects(blob)
        model = site.maybe_transmit()
        assert model is not None
        assert site.n_transmissions == 1

    def test_no_retransmit_on_same_area_growth(self, blob):
        site = self._site()
        site.add_objects(blob[:60])
        site.maybe_transmit()
        site.add_objects(blob[60:])
        assert site.maybe_transmit() is None
        assert site.n_transmissions == 1

    def test_retransmit_on_new_cluster(self, blob):
        site = self._site()
        site.add_objects(blob)
        site.maybe_transmit()
        far, __ = gaussian_blobs([60], np.asarray([[25.0, 25.0]]), 0.8, seed=2)
        site.add_objects(far)
        assert site.maybe_transmit() is not None
        assert site.n_transmissions == 2

    def test_retransmit_after_mass_deletion(self, blob):
        site = self._site()
        ids = site.add_objects(blob)
        far, __ = gaussian_blobs([60], np.asarray([[25.0, 25.0]]), 0.8, seed=2)
        site.add_objects(far)
        site.maybe_transmit()
        for i in ids:  # the first cluster disappears entirely
            site.remove_object(i)
        report = site.drift_since_transmission()
        assert report.cluster_count_delta >= 1
        assert site.maybe_transmit() is not None

    def test_current_model_is_valid_rep_scor(self, blob):
        site = self._site()
        site.add_objects(blob)
        model = site.current_model()
        assert model.scheme == "rep_scor"
        assert len(model) >= 1
        assert model.n_objects == blob.shape[0]

    def test_counts_track_state(self, blob):
        site = self._site()
        ids = site.add_objects(blob)
        assert site.n_objects == blob.shape[0]
        assert site.n_local_clusters == 1
        site.remove_object(ids[0])
        assert site.n_objects == blob.shape[0] - 1

    def test_model_interoperates_with_server(self, blob):
        """The incremental site's model plugs into the normal server."""
        from repro.distributed.server import CentralServer

        site = self._site()
        site.add_objects(blob)
        server = CentralServer()
        server.receive_local_model(site.maybe_transmit())
        global_model = server.build()
        assert global_model.n_global_clusters >= 1
