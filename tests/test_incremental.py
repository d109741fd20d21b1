"""Unit + property tests: incremental DBSCAN == batch DBSCAN.

The maintained labelling must always equal a from-scratch DBSCAN over the
current point set *as a partition of the core points* (cluster ids and
order-dependent border claims may differ; noise must match exactly).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import dbscan
from repro.clustering.labels import NOISE
from tests.incremental_dbscan_oracle import IncrementalDBSCAN


def assert_equivalent_to_batch(inc: IncrementalDBSCAN) -> None:
    """Compare the incremental state against a fresh DBSCAN run."""
    points = inc.points()
    if points.size == 0:
        return
    batch = dbscan(points, inc.eps, inc.min_pts, metric=inc.metric, index_kind="brute")
    live = inc.live_indices()
    inc_labels = inc.labels()
    inc_core = np.asarray([inc.is_core(int(i)) for i in live])
    np.testing.assert_array_equal(inc_core, batch.core_mask)
    # Core partition equal up to renaming (bijectively).
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for a, b in zip(inc_labels[batch.core_mask], batch.labels[batch.core_mask]):
        assert a >= 0 and b >= 0
        assert mapping.setdefault(int(a), int(b)) == int(b)
        assert reverse.setdefault(int(b), int(a)) == int(a)
    # A point is clustered incrementally iff it is clustered in batch
    # (border points may differ in *which* cluster, not in noise-ness)...
    np.testing.assert_array_equal(inc_labels == NOISE, batch.labels == NOISE)


class TestValidation:
    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            IncrementalDBSCAN(0.0, 3, 2)

    def test_rejects_bad_min_pts(self):
        with pytest.raises(ValueError, match="min_pts"):
            IncrementalDBSCAN(1.0, 0, 2)


class TestInsertionCases:
    def test_noise_insertion(self):
        inc = IncrementalDBSCAN(1.0, 3, 2)
        idx = inc.insert([0.0, 0.0])
        assert inc.label_of(idx) == NOISE
        assert not inc.is_core(idx)

    def test_cluster_creation(self):
        inc = IncrementalDBSCAN(1.0, 3, 2)
        ids = [inc.insert(p) for p in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5])]
        labels = {inc.label_of(i) for i in ids}
        assert labels == {0} or len(labels) == 1 and NOISE not in labels
        assert inc.cluster_count() == 1

    def test_absorption_of_border_point(self):
        inc = IncrementalDBSCAN(1.0, 3, 2)
        for p in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5]):
            inc.insert(p)
        border = inc.insert([0.9, 0.0])  # near the cluster, itself non-core?
        assert inc.label_of(border) >= 0

    def test_merge_two_clusters(self):
        inc = IncrementalDBSCAN(1.0, 3, 2)
        left = [inc.insert(p) for p in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5])]
        right = [inc.insert(p) for p in ([3.0, 0.0], [3.5, 0.0], [3.0, 0.5])]
        assert inc.cluster_count() == 2
        # The bridge point connects both sides.
        inc.insert([1.7, 0.0])
        inc.insert([1.7, 0.4])
        inc.insert([2.4, 0.0])
        assert_equivalent_to_batch(inc)

    def test_noise_promoted_when_density_grows(self):
        inc = IncrementalDBSCAN(1.0, 4, 2)
        a = inc.insert([0.0, 0.0])
        b = inc.insert([0.5, 0.0])
        assert inc.label_of(a) == NOISE
        inc.insert([0.0, 0.5])
        inc.insert([0.5, 0.5])
        assert inc.label_of(a) >= 0
        assert inc.label_of(b) >= 0

    def test_disconnected_newly_core_groups_stay_separate(self):
        """Regression (hypothesis seed 19173): a non-core insertion can
        push two far-apart neighbors over MinPts simultaneously; the two
        fresh cores are NOT density-connected through the non-core new
        point and must found/extend *separate* clusters."""
        inc = IncrementalDBSCAN(1.0, 3, 2)
        # Two pairs, each one point short of a core, sitting just under
        # 2*eps apart; the bridge point is within eps of one member of
        # each pair but ends up non-core itself (2 neighbors < MinPts-1).
        left_a = inc.insert([0.0, 0.0])
        left_b = inc.insert([-0.8, 0.0])
        right_a = inc.insert([1.9, 0.0])
        right_b = inc.insert([2.7, 0.0])
        assert inc.cluster_count() == 0
        bridge = inc.insert([0.95, 0.0])  # within eps of left_a and right_a
        assert_equivalent_to_batch(inc)
        # left_a and right_a are now core; bridge has only 2 neighbors
        # (min_pts=3 counts the point itself: bridge has {bridge, left_a,
        # right_a} = 3 → actually core here, so shift the geometry):
        # ensured by the batch-equivalence assertion above either way.

    def test_non_core_bridge_does_not_merge(self):
        """The sharp version: the bridge is non-core, so the two fresh
        cores must stay in different clusters."""
        inc = IncrementalDBSCAN(1.0, 4, 2)
        for p in ([0.0, 0.0], [-0.8, 0.0], [0.0, 0.8]):
            inc.insert(p)
        for p in ([2.4, 0.0], [3.2, 0.0], [2.4, 0.8]):
            inc.insert(p)
        assert inc.cluster_count() == 0  # each side has only 3 < MinPts
        bridge = inc.insert([1.2, 0.0])  # within eps of (0,0) and (2.4,0)? no: dist 1.2
        # Place the bridge precisely within eps of one member per side.
        inc.delete(bridge)
        bridge = inc.insert([1.0, 0.0])  # dist 1.0 to (0,0), 1.4 to (2.4,0)
        assert_equivalent_to_batch(inc)

    def test_incremental_matches_batch_after_stream(self, rng):
        inc = IncrementalDBSCAN(0.8, 4, 2)
        points = np.concatenate(
            [rng.normal(0, 0.5, size=(40, 2)), rng.uniform(-5, 5, size=(40, 2))]
        )
        for p in points:
            inc.insert(p)
        assert_equivalent_to_batch(inc)


class TestDeletionCases:
    def _build(self, points):
        inc = IncrementalDBSCAN(1.0, 3, 2)
        ids = [inc.insert(p) for p in points]
        return inc, ids

    def test_delete_noise_point(self):
        inc, ids = self._build([[0.0, 0.0], [10.0, 10.0]])
        inc.delete(ids[1])
        assert len(inc) == 1
        assert inc.label_of(ids[0]) == NOISE

    def test_delete_unknown_raises(self):
        inc, ids = self._build([[0.0, 0.0]])
        with pytest.raises(KeyError):
            inc.delete(99)

    def test_cluster_dissolves(self):
        inc, ids = self._build([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        assert inc.cluster_count() == 1
        inc.delete(ids[0])
        assert inc.cluster_count() == 0
        for i in ids[1:]:
            assert inc.label_of(i) == NOISE

    def test_cluster_splits(self):
        # Two dense ends connected by a single bridge point.
        left = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
        right = [[4.0, 0.0], [4.5, 0.0], [4.0, 0.5], [4.5, 0.5]]
        bridge = [[1.4, 0.25], [2.25, 0.25], [3.1, 0.25]]
        inc, ids = self._build(left + right + bridge)
        assert inc.cluster_count() == 1
        inc.delete(ids[len(left) + len(right) + 1])  # remove middle bridge
        assert_equivalent_to_batch(inc)
        assert inc.cluster_count() == 2

    def test_demoted_member_joins_neighboring_cluster(self):
        """Regression: rebuilding an affected cluster must hand demoted
        members that border an *unaffected* cluster's core over to that
        cluster instead of leaving them as noise (found by hypothesis,
        seed 1302)."""
        inc = IncrementalDBSCAN(1.0, 3, 2)
        # Cluster A (will be dissolved) around x=0.
        a = [inc.insert(p) for p in ([0.0, 0.0], [0.6, 0.0], [0.0, 0.6])]
        # Border object between the clusters, member of A.
        border = inc.insert([1.4, 0.0])
        # Cluster B around x=2.2 — the border is also in reach of B's core.
        b = [inc.insert(p) for p in ([2.2, 0.0], [2.8, 0.0], [2.2, 0.6])]
        assert inc.label_of(border) >= 0
        # Dissolve A: its cores drop below MinPts.
        inc.delete(a[1])
        inc.delete(a[2])
        assert_equivalent_to_batch(inc)
        # The border must now belong to B (its distance to B's core at
        # (2.2, 0) is 0.8 <= eps), not to noise.
        assert inc.label_of(border) == inc.label_of(b[0])

    def test_delete_then_matches_batch(self, rng):
        inc = IncrementalDBSCAN(0.8, 4, 2)
        points = rng.normal(0, 1.2, size=(60, 2))
        ids = [inc.insert(p) for p in points]
        for victim in rng.choice(ids, size=25, replace=False):
            inc.delete(int(victim))
        assert_equivalent_to_batch(inc)


class TestStreamEquivalence:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=25, deadline=None)
    def test_random_insert_delete_stream(self, seed):
        rng = np.random.default_rng(seed)
        eps = float(rng.uniform(0.5, 1.5))
        min_pts = int(rng.integers(2, 5))
        inc = IncrementalDBSCAN(eps, min_pts, 2)
        live: list[int] = []
        for __ in range(int(rng.integers(10, 50))):
            if live and rng.random() < 0.35:
                victim = live.pop(int(rng.integers(len(live))))
                inc.delete(victim)
            else:
                p = rng.uniform(-3, 3, size=2)
                live.append(inc.insert(p))
        assert_equivalent_to_batch(inc)

    @pytest.mark.parametrize(
        "metric", ["euclidean", "manhattan", "chebyshev", "squared_euclidean"]
    )
    @given(seed=st.integers(0, 50_000), eps=st.floats(0.2, 1.5))
    @settings(max_examples=20, deadline=None)
    def test_every_grid_metric(self, metric, seed, eps):
        """The grid metrics, squared_euclidean below ε 1 included: its
        ball reaches √ε > ε along an axis."""
        rng = np.random.default_rng(seed)
        min_pts = int(rng.integers(2, 5))
        inc = IncrementalDBSCAN(eps, min_pts, 2, metric=metric)
        live: list[int] = []
        for __ in range(int(rng.integers(10, 40))):
            if live and rng.random() < 0.3:
                inc.delete(live.pop(int(rng.integers(len(live)))))
            else:
                live.append(inc.insert(rng.uniform(-2, 2, size=2)))
        assert_equivalent_to_batch(inc)

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=15, deadline=None)
    def test_insert_all_delete_all(self, seed):
        rng = np.random.default_rng(seed)
        inc = IncrementalDBSCAN(1.0, 3, 2)
        ids = [inc.insert(rng.uniform(-2, 2, size=2)) for __ in range(20)]
        for i in ids:
            inc.delete(i)
        assert len(inc) == 0
        assert inc.cluster_count() == 0
