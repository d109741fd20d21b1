"""Unit tests for the relabeling step (Section 7, Figure 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.labels import NOISE
from repro.core.relabel import relabel_site
from tests.model_rows import Row, global_model


def _global_model(reps_spec, labels, eps_global=2.0):
    reps = [Row(tuple(p), eps, site, cid) for p, eps, site, cid in reps_spec]
    return global_model(reps, labels, eps_global=eps_global)


class TestFigure5Scenario:
    """Reproduce the paper's Figure 5 example:

    R1, R2 are this site's representatives of two separate local clusters;
    R3 comes from another site.  All three belong to the same global
    cluster.  Local noise objects A, B fall inside R3's ε-range and get
    promoted; C stays noise.
    """

    @pytest.fixture
    def scenario(self):
        points = np.asarray(
            [
                [0.0, 0.0],  # 0: member of local cluster 0 (near R1)
                [0.5, 0.0],  # 1: member of local cluster 0
                [6.0, 0.0],  # 2: member of local cluster 1 (near R2)
                [6.5, 0.0],  # 3: member of local cluster 1
                [3.0, 0.2],  # 4: A — local noise inside R3's range
                [3.2, -0.2],  # 5: B — local noise inside R3's range
                [3.0, 9.0],  # 6: C — local noise outside every range
            ]
        )
        local_labels = np.asarray([0, 0, 1, 1, NOISE, NOISE, NOISE])
        model = _global_model(
            [
                ([0.0, 0.0], 1.0, 0, 0),  # R1 (this site, local cluster 0)
                ([6.0, 0.0], 1.0, 0, 1),  # R2 (this site, local cluster 1)
                ([3.0, 0.0], 1.0, 1, 0),  # R3 (remote site)
            ],
            labels=[7, 7, 7],  # one shared global cluster id
        )
        return points, local_labels, model

    def test_noise_promotion(self, scenario):
        points, local_labels, model = scenario
        out, stats = relabel_site(points, local_labels, model, site_id=0)
        assert out[4] == 7  # A
        assert out[5] == 7  # B
        assert stats.n_noise_promoted == 2

    def test_c_stays_noise(self, scenario):
        points, local_labels, model = scenario
        out, __ = relabel_site(points, local_labels, model, site_id=0)
        assert out[6] == NOISE

    def test_local_clusters_merged(self, scenario):
        points, local_labels, model = scenario
        out, stats = relabel_site(points, local_labels, model, site_id=0)
        assert out[0] == out[1] == out[2] == out[3] == 7
        assert stats.n_local_clusters_merged == 1


class TestCoverageRules:
    def test_nearest_covering_representative_wins(self):
        points = np.asarray([[1.0, 0.0]])
        local_labels = np.asarray([NOISE])
        model = _global_model(
            [([0.0, 0.0], 2.0, 1, 0), ([1.5, 0.0], 2.0, 1, 1)],
            labels=[3, 4],
        )
        out, __ = relabel_site(points, local_labels, model, site_id=0)
        assert out[0] == 4  # distance 0.5 beats distance 1.0

    def test_uncovered_cluster_member_inherits_own_global_id(self):
        # The member at distance 1.5 from its rep is outside ε_r = 1.0 but
        # belonged to local cluster 0, whose rep joined global cluster 9.
        points = np.asarray([[1.5, 0.0]])
        local_labels = np.asarray([0])
        model = _global_model([([0.0, 0.0], 1.0, 0, 0)], labels=[9])
        out, stats = relabel_site(points, local_labels, model, site_id=0)
        assert out[0] == 9
        assert stats.n_inherited == 1

    def test_inheritance_disabled_without_site_id(self):
        points = np.asarray([[1.5, 0.0]])
        local_labels = np.asarray([0])
        model = _global_model([([0.0, 0.0], 1.0, 0, 0)], labels=[9])
        out, __ = relabel_site(points, local_labels, model, site_id=None)
        assert out[0] == NOISE

    def test_split_local_cluster_follows_nearest_own_rep(self):
        # Local cluster 0 has two reps that ended in different global
        # clusters; the uncovered member picks the nearer one.
        points = np.asarray([[4.2, 0.0]])
        local_labels = np.asarray([0])
        model = _global_model(
            [([0.0, 0.0], 1.0, 0, 0), ([5.5, 0.0], 1.0, 0, 0)],
            labels=[1, 2],
        )
        out, __ = relabel_site(points, local_labels, model, site_id=0)
        assert out[0] == 2

    def test_remote_reps_do_not_drive_inheritance(self):
        # The only rep of "local cluster 0" belongs to another site.
        points = np.asarray([[1.5, 0.0]])
        local_labels = np.asarray([0])
        model = _global_model([([0.0, 0.0], 1.0, 5, 0)], labels=[9])
        out, __ = relabel_site(points, local_labels, model, site_id=0)
        assert out[0] == NOISE


class TestEdgeCases:
    def test_empty_global_model(self):
        points = np.asarray([[0.0, 0.0]])
        model = global_model([], [], eps_global=1.0)
        out, stats = relabel_site(points, np.asarray([0]), model, site_id=0)
        assert out[0] == NOISE
        assert stats.n_covered == 0

    def test_empty_site(self):
        model = _global_model([([0.0, 0.0], 1.0, 0, 0)], labels=[0])
        out, stats = relabel_site(
            np.empty((0, 2)), np.empty(0, dtype=int), model, site_id=0
        )
        assert out.size == 0
        assert stats.n_objects == 0

    def test_length_mismatch_raises(self):
        model = _global_model([([0.0, 0.0], 1.0, 0, 0)], labels=[0])
        with pytest.raises(ValueError, match="local labels"):
            relabel_site(np.zeros((2, 2)), np.asarray([0]), model, site_id=0)

    def test_stats_consistency(self, rng):
        points = rng.normal(0, 2, size=(50, 2))
        local_labels = np.where(rng.random(50) < 0.3, NOISE, 0)
        model = _global_model([([0.0, 0.0], 2.0, 0, 0)], labels=[0])
        out, stats = relabel_site(points, local_labels, model, site_id=0)
        assert stats.n_objects == 50
        assert stats.n_still_noise == int(np.count_nonzero(out == NOISE))
        assert 0 <= stats.n_covered <= 50
