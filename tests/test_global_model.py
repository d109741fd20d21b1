"""Unit tests for the server-side global model (Section 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.global_model import (
    MIN_PTS_GLOBAL,
    build_global_model,
    build_global_model_via_optics,
    default_eps_global,
)
from tests.model_rows import Row, local_model


def _model(site_id, reps):
    return local_model(
        site_id, [Row(tuple(p), eps, site_id, cid) for p, eps, cid in reps]
    )


class TestDefaultEpsGlobal:
    def test_max_over_all_sites(self):
        m1 = _model(0, [([0, 0], 1.5, 0)])
        m2 = _model(1, [([5, 5], 1.9, 0), ([9, 9], 1.2, 1)])
        assert default_eps_global([m1, m2]) == 1.9

    def test_empty_models(self):
        assert default_eps_global([]) == 0.0
        assert default_eps_global([_model(0, [])]) == 0.0

    def test_default_close_to_twice_eps_local(self):
        """Section 6: the ε_r-derived default lands near 2·Eps_local."""
        from repro.core.local import build_rep_scor_model
        from repro.data.generators import gaussian_blobs

        points, __ = gaussian_blobs([200], np.asarray([[0.0, 0.0]]), 1.0, seed=5)
        outcome = build_rep_scor_model(points, 0.5, 5)
        eps_default = default_eps_global([outcome.model])
        assert 0.5 < eps_default <= 1.0 + 1e-9  # (Eps, 2·Eps]


class TestBuildGlobalModel:
    def test_figure4_merge_across_sites(self):
        """The paper's Figure 4: four representatives from three sites in a
        chain merge into ONE global cluster at Eps_global = 2·Eps_local,
        but stay separate at Eps_global = Eps_local."""
        eps_local = 1.0
        chain = [
            _model(0, [([0.0, 0.0], 2.0, 0), ([1.8, 0.0], 2.0, 0)]),
            _model(1, [([3.6, 0.0], 2.0, 0)]),
            _model(2, [([5.4, 0.0], 2.0, 0)]),
        ]
        merged, stats = build_global_model(chain, eps_global=2 * eps_local)
        assert merged.n_global_clusters == 1
        assert stats.n_merged_clusters == 1
        separate, stats2 = build_global_model(chain, eps_global=eps_local)
        assert separate.n_global_clusters == 4
        assert stats2.n_singletons == 4

    def test_min_pts_global_is_two(self):
        model, __ = build_global_model([_model(0, [([0, 0], 1.0, 0)])], eps_global=1.0)
        assert model.min_pts_global == MIN_PTS_GLOBAL == 2

    def test_singletons_promoted_to_own_clusters(self):
        models = [_model(0, [([0, 0], 1.0, 0), ([100, 100], 1.0, 1)])]
        model, stats = build_global_model(models, eps_global=2.0)
        assert model.n_global_clusters == 2
        assert stats.n_singletons == 2
        assert (model.global_labels >= 0).all()

    def test_default_eps_used_when_none(self):
        models = [_model(0, [([0, 0], 1.7, 0)])]
        model, __ = build_global_model(models)
        assert model.eps_global == 1.7

    def test_empty_input(self):
        model, stats = build_global_model([_model(0, [])])
        assert len(model) == 0
        assert stats.n_representatives == 0

    def test_representative_order_preserved(self):
        m1 = _model(0, [([0, 0], 1.0, 0)])
        m2 = _model(1, [([5, 5], 1.0, 0)])
        model, __ = build_global_model([m1, m2], eps_global=1.0)
        assert model.site_ids[0] == 0
        assert model.site_ids[1] == 1

    def test_stats_counts_consistent(self):
        models = [
            _model(0, [([0, 0], 1.0, 0), ([1, 0], 1.0, 0), ([50, 50], 1.0, 1)])
        ]
        model, stats = build_global_model(models, eps_global=1.5)
        assert stats.n_representatives == 3
        assert stats.n_merged_clusters == 1
        assert stats.n_singletons == 1
        assert model.n_global_clusters == 2


class TestOpticsVariant:
    def test_matches_dbscan_based_model(self, rng):
        points = rng.normal(size=(30, 2))
        models = [
            _model(0, [(p, 1.0, i) for i, p in enumerate(points[:15])]),
            _model(1, [(p, 1.0, i) for i, p in enumerate(points[15:])]),
        ]
        via_dbscan, __ = build_global_model(models, eps_global=0.8)
        via_optics, __ = build_global_model_via_optics(
            models, eps_max=1.6, eps_cut=0.8
        )
        # Same number of global clusters (partitions agree up to borders;
        # representatives are "cores" at MinPts=2 almost always).
        assert via_optics.n_global_clusters == via_dbscan.n_global_clusters

    def test_multiple_cuts_from_one_run(self):
        chain = [_model(0, [([float(i), 0.0], 1.0, i) for i in range(5)])]
        tight, __ = build_global_model_via_optics(chain, eps_max=4.0, eps_cut=0.5)
        loose, __ = build_global_model_via_optics(chain, eps_max=4.0, eps_cut=1.5)
        assert tight.n_global_clusters == 5
        assert loose.n_global_clusters == 1
