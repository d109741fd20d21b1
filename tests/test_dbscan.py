"""Unit tests for DBSCAN against the paper's Definitions 1-5."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.clustering.dbscan import DBSCAN, dbscan
from repro.clustering.labels import NOISE
from repro.core.dbdc import DBDCConfig
from repro.distributed.incremental_site import IncrementalClientSite
from repro.distributed.runner import (
    DistributedRunConfig,
    RecoveryPolicy,
    RoundPolicy,
)
from repro.distributed.scenario import StreamingScenario
from repro.distributed.server import RoundCore
from repro.distributed.site import ClientSite
from repro.index import build_index
from repro.service.server import ServiceConfig
from tests.conftest import brute_force_neighbors
from tests.incremental_dbscan_oracle import IncrementalDBSCAN

# The places DBSCAN's parameters enter, as (eps, min_pts) -> object.
PARAMETER_OWNERS = {
    "DBSCAN": lambda eps, min_pts: DBSCAN(eps, min_pts),
    "IncrementalDBSCAN": lambda eps, min_pts: IncrementalDBSCAN(
        eps, min_pts, dim=2
    ),
    "DBDCConfig": lambda eps, min_pts: DBDCConfig(
        eps_local=eps, min_pts_local=min_pts
    ),
    "DistributedRunConfig": lambda eps, min_pts: DistributedRunConfig(
        eps_local=eps, min_pts_local=min_pts
    ),
    "ClientSite": lambda eps, min_pts: ClientSite(
        0, np.zeros((1, 2)), eps_local=eps, min_pts_local=min_pts
    ),
    "IncrementalClientSite": lambda eps, min_pts: IncrementalClientSite(
        0, eps_local=eps, min_pts_local=min_pts, dim=2
    ),
    "StreamingScenario": lambda eps, min_pts: StreamingScenario(
        1, eps_local=eps, min_pts_local=min_pts
    ),
}

# The places DBDC's server merge radius enters, as eps_global -> object.
GLOBAL_RADIUS_OWNERS = {
    "DBDCConfig": lambda eps_global: DBDCConfig(
        eps_local=1.0, min_pts_local=3, eps_global=eps_global
    ),
    "DistributedRunConfig": lambda eps_global: DistributedRunConfig(
        eps_local=1.0, min_pts_local=3, eps_global=eps_global
    ),
    "RoundCore": lambda eps_global: RoundCore(eps_global),
    "ServiceConfig": lambda eps_global: ServiceConfig(eps_global=eps_global),
    "StreamingScenario": lambda eps_global: StreamingScenario(
        1, eps_local=1.0, min_pts_local=3, eps_global=eps_global
    ),
}

# The places a round's admission deadline enters, as deadline_s -> object.
ROUND_DEADLINE_OWNERS = {
    "RecoveryPolicy": lambda deadline_s: RecoveryPolicy(deadline_s=deadline_s),
    "RoundCore.open_round": lambda deadline_s: RoundCore().open_round(
        0, deadline_s=deadline_s
    ),
    "RoundPolicy": lambda deadline_s: RoundPolicy(deadline_s=deadline_s),
    "ServiceConfig": lambda deadline_s: ServiceConfig(deadline_s=deadline_s),
}

# The places the sites of one round enter, as expected_sites -> object.
ROUND_SITES_OWNERS = {
    "RoundCore": lambda sites: RoundCore(expected_sites=sites),
    "ServiceConfig": lambda sites: ServiceConfig(expected_sites=sites),
}


class TestParameterValidation:
    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            DBSCAN(0.0, 3)

    def test_rejects_bad_min_pts(self):
        with pytest.raises(ValueError, match="min_pts"):
            DBSCAN(1.0, 0)

    def test_rejects_bad_order(self, tiny_grid_points):
        with pytest.raises(ValueError, match="permutation"):
            DBSCAN(1.5, 3).fit(tiny_grid_points, order=[0, 0, 1, 2, 3, 4, 5])

    @pytest.mark.parametrize("owner", sorted(PARAMETER_OWNERS))
    @pytest.mark.parametrize(
        "eps,min_pts,bad",
        [
            (math.nan, 3, "eps"),
            (math.inf, 3, "eps"),
            (0.5, 2.7, "min_pts"),
            (0.5, math.nan, "min_pts"),
            (0.5, math.inf, "min_pts"),
        ],
    )
    def test_rejects_non_finite_eps_and_fractional_min_pts(
        self, owner, eps, min_pts, bad
    ):
        with pytest.raises(ValueError, match=rf"{bad}\w* must be"):
            PARAMETER_OWNERS[owner](eps, min_pts)

    @pytest.mark.parametrize("owner", sorted(PARAMETER_OWNERS))
    @pytest.mark.parametrize(
        "eps,min_pts",
        [(np.float64(1.5), np.int64(3)), (1.5, 3.0), (np.float32(1.5), np.int32(3))],
    )
    def test_accepts_whole_valued_floats_and_numpy_integers(
        self, owner, eps, min_pts
    ):
        PARAMETER_OWNERS[owner](eps, min_pts)

    @pytest.mark.parametrize("owner", sorted(GLOBAL_RADIUS_OWNERS))
    @pytest.mark.parametrize("eps_global", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_eps_global(self, owner, eps_global):
        """A NaN merge radius merges nothing and an infinite one cannot
        size a grid: both used to build a wrong model or fail untyped."""
        with pytest.raises(ValueError, match=rf"eps_global must be .*{eps_global}"):
            GLOBAL_RADIUS_OWNERS[owner](eps_global)

    @pytest.mark.parametrize("owner", sorted(GLOBAL_RADIUS_OWNERS))
    def test_accepts_a_positive_eps_global(self, owner):
        GLOBAL_RADIUS_OWNERS[owner](2.0)

    @pytest.mark.parametrize("owner", sorted(GLOBAL_RADIUS_OWNERS))
    def test_accepts_no_eps_global(self, owner):
        GLOBAL_RADIUS_OWNERS[owner](None)

    @pytest.mark.parametrize("owner", sorted(ROUND_DEADLINE_OWNERS))
    @pytest.mark.parametrize("deadline_s", [math.nan, 0.0, -1.0, -math.inf])
    def test_rejects_a_nan_or_non_positive_deadline(self, owner, deadline_s):
        """A NaN deadline is never passed, so it silently turned the
        deadline off."""
        with pytest.raises(ValueError, match=rf"deadline_s must be .*{deadline_s}"):
            ROUND_DEADLINE_OWNERS[owner](deadline_s)

    @pytest.mark.parametrize("owner", sorted(ROUND_DEADLINE_OWNERS))
    @pytest.mark.parametrize("deadline_s", [None, 0.25, math.inf, np.float64(2.0)])
    def test_accepts_no_deadline_or_a_positive_one(self, owner, deadline_s):
        ROUND_DEADLINE_OWNERS[owner](deadline_s)

    @pytest.mark.parametrize("owner", sorted(ROUND_SITES_OWNERS))
    @pytest.mark.parametrize("sites", [0, -2, 2.5, math.nan, math.inf])
    def test_rejects_a_round_of_no_whole_sites(self, owner, sites):
        """0 or -2 sites committed round 0 at its first upload, 2.5 or NaN
        never committed it."""
        with pytest.raises(ValueError, match=rf"expected_sites must be .*{sites}"):
            ROUND_SITES_OWNERS[owner](sites)

    @pytest.mark.parametrize("owner", sorted(ROUND_SITES_OWNERS))
    @pytest.mark.parametrize("sites", [None, 1, 4, np.int64(3), 2.0])
    def test_accepts_no_site_count_or_a_whole_one(self, owner, sites):
        ROUND_SITES_OWNERS[owner](sites)

    def test_a_whole_valued_site_count_runs_as_an_int(self):
        core = RoundCore(expected_sites=np.float64(2.0))
        assert type(core.expected_sites) is int and core.expected_sites == 2

    def test_whole_valued_min_pts_runs_as_an_int(self, tiny_grid_points):
        runner = DBSCAN(np.float64(1.5), 3.0)
        assert type(runner.min_pts) is int and runner.min_pts == 3
        expected = dbscan(tiny_grid_points, 1.5, 3)
        assert np.array_equal(runner.fit(tiny_grid_points).labels, expected.labels)


class TestPrebuiltIndex:
    @staticmethod
    def _points(n, seed=0):
        return np.random.default_rng(seed).normal(0, 1, size=(n, 2))

    @pytest.mark.parametrize(
        "fit_n,index_n,index_seed",
        [(30, 60, 0), (60, 30, 0), (30, 30, 1)],
        ids=["index-larger", "index-smaller", "same-shape-other-points"],
    )
    def test_refuses_an_index_over_other_points(self, fit_n, index_n, index_seed):
        index = build_index(self._points(index_n, index_seed), "grid", eps=0.5)
        with pytest.raises(
            ValueError, match=rf"\({index_n}, 2\).*\({fit_n}, 2\)"
        ):
            DBSCAN(0.5, 3).fit(self._points(fit_n), index=index)

    def test_accepts_an_index_over_an_equal_copy(self):
        points = self._points(60)
        index = build_index(points.copy(), "grid", eps=0.5)
        result = DBSCAN(0.5, 3).fit(points, index=index)
        assert result.index is index
        assert np.array_equal(result.labels, dbscan(points, 0.5, 3).labels)


class TestTinyLayout:
    """The 7-point fixture has a fully known structure (see conftest)."""

    def test_cluster_and_noise_assignment(self, tiny_grid_points):
        result = dbscan(tiny_grid_points, 1.5, 3)
        assert result.n_clusters == 1
        assert result.labels[0] == result.labels[1] == result.labels[2] == result.labels[3]
        assert result.labels[4] == result.labels[0]  # border of the square
        assert result.labels[5] == NOISE
        assert result.labels[6] == NOISE

    def test_core_flags(self, tiny_grid_points):
        result = dbscan(tiny_grid_points, 1.5, 3)
        assert bool(result.core_mask[:4].all())
        assert not result.core_mask[4]  # border: only 2 neighbors
        assert not result.core_mask[5] and not result.core_mask[6]

    def test_members_and_core_points_of(self, tiny_grid_points):
        result = dbscan(tiny_grid_points, 1.5, 3)
        np.testing.assert_array_equal(result.members(0), [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(result.core_points_of(0), [0, 1, 2, 3])

    def test_n_noise(self, tiny_grid_points):
        result = dbscan(tiny_grid_points, 1.5, 3)
        assert result.n_noise == 2


class TestDefinitions:
    """Check Definitions 1-5 directly on random data."""

    @pytest.fixture
    def run(self, rng):
        points = rng.uniform(0, 10, size=(250, 2))
        return points, dbscan(points, 0.9, 4)

    def test_core_condition_definition1(self, run):
        points, result = run
        for i in range(points.shape[0]):
            n_neighbors = brute_force_neighbors(points, i, 0.9).size
            assert bool(result.core_mask[i]) == (n_neighbors >= 4)

    def test_core_points_are_clustered(self, run):
        __, result = run
        assert (result.labels[result.core_mask] >= 0).all()

    def test_noise_has_no_core_neighbor(self, run):
        points, result = run
        for i in np.flatnonzero(result.labels == NOISE):
            neighbors = brute_force_neighbors(points, i, 0.9)
            assert not result.core_mask[neighbors].any()

    def test_border_points_have_core_neighbor_in_cluster(self, run):
        points, result = run
        borders = np.flatnonzero((result.labels >= 0) & ~result.core_mask)
        for i in borders:
            neighbors = brute_force_neighbors(points, i, 0.9)
            core_neighbors = neighbors[result.core_mask[neighbors]]
            assert core_neighbors.size > 0
            assert (result.labels[core_neighbors] == result.labels[i]).any()

    def test_maximality_core_links_stay_in_cluster(self, run):
        """Two core points within eps must share a cluster (Def. 4)."""
        points, result = run
        cores = np.flatnonzero(result.core_mask)
        for i in cores:
            neighbors = brute_force_neighbors(points, i, 0.9)
            core_neighbors = neighbors[result.core_mask[neighbors]]
            assert (result.labels[core_neighbors] == result.labels[i]).all()

    def test_connectivity_within_cluster(self, run):
        """Each cluster's cores form one connected eps-graph component."""
        points, result = run
        for cid in range(result.n_clusters):
            cores = [int(i) for i in result.core_points_of(cid)]
            if not cores:
                continue
            seen = {cores[0]}
            frontier = [cores[0]]
            core_set = set(cores)
            while frontier:
                i = frontier.pop()
                for j in brute_force_neighbors(points, i, 0.9):
                    j = int(j)
                    if j in core_set and j not in seen:
                        seen.add(j)
                        frontier.append(j)
            assert seen == core_set


class TestIndexEquivalence:
    @pytest.mark.parametrize("kind", ["brute", "grid", "kdtree", "rtree"])
    def test_all_indexes_identical_labels(self, kind, small_blobs):
        points, __ = small_blobs
        reference = dbscan(points, 1.2, 5, index_kind="brute")
        other = dbscan(points, 1.2, 5, index_kind=kind)
        np.testing.assert_array_equal(other.labels, reference.labels)
        np.testing.assert_array_equal(other.core_mask, reference.core_mask)


class TestBehaviour:
    def test_blobs_recovered(self, small_blobs):
        points, truth = small_blobs
        result = dbscan(points, 1.2, 5)
        assert result.n_clusters == 3
        # Every generated blob maps to exactly one found cluster.
        for blob in range(3):
            labels = result.labels[truth == blob]
            clustered = labels[labels >= 0]
            assert clustered.size > 90
            assert np.unique(clustered).size == 1

    def test_all_noise_when_sparse(self, rng):
        points = rng.uniform(0, 1000, size=(30, 2))
        result = dbscan(points, 0.5, 3)
        assert result.n_clusters == 0
        assert result.n_noise == 30

    def test_single_cluster_when_dense(self, rng):
        points = rng.normal(0, 0.1, size=(50, 2))
        result = dbscan(points, 1.0, 3)
        assert result.n_clusters == 1
        assert result.n_noise == 0

    def test_min_pts_one_makes_everything_core(self, rng):
        points = rng.uniform(0, 100, size=(20, 2))
        result = dbscan(points, 0.001, 1)
        assert result.core_mask.all()
        assert result.n_clusters == 20  # every point its own cluster

    def test_empty_input(self):
        result = dbscan(np.empty((0, 2)), 1.0, 3)
        assert result.labels.size == 0
        assert result.n_clusters == 0

    def test_duplicate_points_cluster_together(self):
        points = np.asarray([[0.0, 0.0]] * 10)
        result = dbscan(points, 0.5, 5)
        assert result.n_clusters == 1
        assert (result.labels == 0).all()

    def test_processing_order_changes_labels_not_partition(self, small_blobs):
        points, __ = small_blobs
        forward = dbscan(points, 1.2, 5)
        runner = DBSCAN(1.2, 5)
        backward = runner.fit(points, order=list(range(len(points)))[::-1])
        # Same number of clusters and identical core structure.
        assert forward.n_clusters == backward.n_clusters
        np.testing.assert_array_equal(forward.core_mask, backward.core_mask)
        # Core partition identical up to renaming.
        mapping = {}
        for a, b in zip(
            forward.labels[forward.core_mask], backward.labels[backward.core_mask]
        ):
            assert mapping.setdefault(int(a), int(b)) == int(b)

    def test_region_query_count_positive(self, small_blobs):
        points, __ = small_blobs
        result = dbscan(points, 1.2, 5)
        assert result.n_region_queries >= points.shape[0]


class TestObserver:
    class Recorder:
        def __init__(self):
            self.cluster_starts = []
            self.core_events = []

        def on_cluster_start(self, cluster_id, seed_index):
            self.cluster_starts.append((cluster_id, seed_index))

        def on_core_point(self, index, cluster_id, neighbors):
            self.core_events.append((index, cluster_id, np.asarray(neighbors)))

    def test_observer_sees_every_core_point_once(self, small_blobs):
        points, __ = small_blobs
        recorder = self.Recorder()
        result = dbscan(points, 1.2, 5, observer=recorder)
        seen = [idx for idx, __, __ in recorder.core_events]
        assert sorted(seen) == sorted(np.flatnonzero(result.core_mask))
        assert len(seen) == len(set(seen))

    def test_observer_cluster_ids_match_result(self, small_blobs):
        points, __ = small_blobs
        recorder = self.Recorder()
        result = dbscan(points, 1.2, 5, observer=recorder)
        for idx, cid, __ in recorder.core_events:
            assert result.labels[idx] == cid

    def test_observer_neighbors_are_n_eps(self, small_blobs):
        points, __ = small_blobs
        recorder = self.Recorder()
        dbscan(points, 1.2, 5, observer=recorder)
        for idx, __, neighbors in recorder.core_events[:10]:
            np.testing.assert_array_equal(
                np.sort(neighbors), brute_force_neighbors(points, idx, 1.2)
            )

    def test_cluster_start_per_cluster(self, small_blobs):
        points, __ = small_blobs
        recorder = self.Recorder()
        result = dbscan(points, 1.2, 5, observer=recorder)
        assert len(recorder.cluster_starts) == result.n_clusters
        assert [cid for cid, __ in recorder.cluster_starts] == list(
            range(result.n_clusters)
        )
