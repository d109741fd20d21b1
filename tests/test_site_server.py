"""Unit tests for ClientSite and RoundCore, the paper's server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.labels import NOISE
from repro.core.global_model import build_global_model
from repro.data.generators import gaussian_blobs
from repro.distributed.server import RoundCore
from repro.distributed.site import ClientSite


@pytest.fixture
def two_sites():
    """Two sites each holding half of two blobs (split uniformly)."""
    points, __ = gaussian_blobs(
        [120, 120], np.asarray([[0.0, 0.0], [12.0, 0.0]]), 1.0, seed=21
    )
    rng = np.random.default_rng(0)
    mask = rng.random(points.shape[0]) < 0.5
    make = lambda sid, pts: ClientSite(
        sid, pts, eps_local=1.0, min_pts_local=5, scheme="rep_scor"
    )
    return make(0, points[mask]), make(1, points[~mask])


def _serve(models, **kwargs):
    """The paper's one-shot protocol, round 0: open, admit every model,
    commit.  Returns the server and the committed global model."""
    server = RoundCore(**kwargs)
    server.apply(server.open_round(0))
    for model in models:
        server.apply(server.arrive(model))
    return server, server.apply(server.commit_round(0))


def _stream(server, model):
    """Section 6's incremental server: one round per arriving model."""
    index = server.rounds_committed
    server.apply(server.open_round(index))
    server.apply(server.arrive(model))
    return server.apply(server.commit_round(index))


class TestClientSite:
    def test_protocol_order_enforced(self, two_sites):
        site, __ = two_sites
        with pytest.raises(RuntimeError, match="local clustering"):
            __ = site.local_outcome
        with pytest.raises(RuntimeError, match="run_local_clustering"):
            site.receive_global_model(None)

    def test_local_model_produced(self, two_sites):
        site, __ = two_sites
        model = site.run_local_clustering()
        assert model.site_id == 0
        assert len(model) > 0
        assert site.times.local_wall_seconds > 0

    def test_global_labels_unavailable_before_update(self, two_sites):
        site, __ = two_sites
        site.run_local_clustering()
        with pytest.raises(RuntimeError, match="global model"):
            __ = site.global_labels

    def test_full_protocol_and_membership_query(self, two_sites):
        site_a, site_b = two_sites
        __, model = _serve([site.run_local_clustering() for site in (site_a, site_b)])
        for site in (site_a, site_b):
            stats = site.receive_global_model(model)
            assert stats.n_objects == site.points.shape[0]
        # Both halves of each blob share a global id across sites.
        gid = site_a.global_labels[0]
        assert gid >= 0
        objects_a = site_a.objects_of_global_cluster(gid)
        objects_b = site_b.objects_of_global_cluster(gid)
        assert objects_a.shape[0] > 0 and objects_b.shape[0] > 0
        # The two returned sets stem from the same spatial blob.
        centroid_a = objects_a.mean(axis=0)
        centroid_b = objects_b.mean(axis=0)
        assert np.linalg.norm(centroid_a - centroid_b) < 2.0

    def test_noise_objects_query(self, two_sites):
        site_a, site_b = two_sites
        __, model = _serve([site.run_local_clustering() for site in (site_a, site_b)])
        site_a.receive_global_model(model)
        noise = site_a.noise_objects()
        assert noise.shape[0] == int(np.sum(site_a.global_labels == NOISE))


class TestRoundCore:
    def test_a_round_without_models_commits_an_empty_model(self):
        __, model = _serve([])
        assert len(model) == 0 and model.n_global_clusters == 0

    def test_no_model_before_the_first_commit(self, two_sites):
        site_a, __ = two_sites
        server = RoundCore()
        assert server.committed is None
        server.apply(server.open_round(0))
        server.apply(server.arrive(site_a.run_local_clustering()))
        assert server.committed is None

    def test_explicit_eps_global_respected(self, two_sites):
        site_a, site_b = two_sites
        models = [site_a.run_local_clustering(), site_b.run_local_clustering()]
        server, built = _serve(models, eps_global=2.5)
        assert built.eps_global == 2.5
        assert server.global_seconds > 0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps_global"):
            RoundCore(0.0)

    def test_snapshot_matches_batch_cluster_count(self, two_sites):
        site_a, site_b = two_sites
        models = [site_a.run_local_clustering(), site_b.run_local_clustering()]
        eps_global = 2.0
        batch, __ = build_global_model(models, eps_global=eps_global)
        streaming = RoundCore(eps_global)
        for model in models:
            snapshot = _stream(streaming, model)
        assert snapshot.n_global_clusters == batch.n_global_clusters
        assert len(snapshot) == len(batch)

    def test_snapshot_available_mid_stream(self, two_sites):
        site_a, site_b = two_sites
        model_a = site_a.run_local_clustering()
        streaming = RoundCore(2.0)
        early = _stream(streaming, model_a)
        assert len(early) == len(model_a)
        assert (early.global_labels >= 0).all()
        # Second site arrives later; the committed model grows by it.
        model_b = site_b.run_local_clustering()
        late = _stream(streaming, model_b)
        assert len(late) == len(model_a) + len(model_b)
        assert streaming.committed is late

    def test_snapshot_arrival_order_invariant(self, two_sites):
        site_a, site_b = two_sites
        model_a = site_a.run_local_clustering()
        model_b = site_b.run_local_clustering()
        forward = RoundCore(2.0)
        for model in (model_a, model_b):
            _stream(forward, model)
        backward = RoundCore(2.0)
        for model in (model_b, model_a):
            _stream(backward, model)
        assert (
            forward.committed.n_global_clusters
            == backward.committed.n_global_clusters
        )
