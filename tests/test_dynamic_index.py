"""Unit + property tests for the dynamic grid index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.incremental_dbscan_oracle import DynamicGridIndex


def _oracle(live_points: dict[int, np.ndarray], query: np.ndarray, eps: float) -> list[int]:
    hits = []
    for idx, point in live_points.items():
        if np.linalg.norm(point - query) <= eps:
            hits.append(idx)
    return sorted(hits)


class TestConstruction:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            DynamicGridIndex(0, cell_size=1.0)

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError, match="cell_size"):
            DynamicGridIndex(2, cell_size=-1.0)

    def test_rejects_unsupported_metric(self):
        from repro.data.distance import Metric, euclidean

        weird = Metric("weird2", euclidean.pairwise, euclidean.to_many)
        with pytest.raises(ValueError, match="supports"):
            DynamicGridIndex(2, cell_size=1.0, metric=weird)


class TestInsertRemove:
    def test_insert_returns_stable_indices(self):
        grid = DynamicGridIndex(2, cell_size=1.0)
        a = grid.insert([0.0, 0.0])
        b = grid.insert([1.0, 1.0])
        assert (a, b) == (0, 1)
        assert len(grid) == 2
        assert a in grid and b in grid

    def test_insert_wrong_shape_raises(self):
        grid = DynamicGridIndex(2, cell_size=1.0)
        with pytest.raises(ValueError, match="expected"):
            grid.insert([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_insert_non_finite_raises(self, bad):
        grid = DynamicGridIndex(2, cell_size=1.0)
        with pytest.raises(ValueError, match="finite"):
            grid.insert([0.0, bad])
        assert len(grid) == 0

    def test_squared_euclidean_reaches_sqrt_eps(self):
        """Squared distance 0.49 <= ε 0.5 with a coordinate gap of 0.7:
        the scan must cover √ε, not ε, around the query."""
        grid = DynamicGridIndex(2, cell_size=0.5, metric="squared_euclidean")
        grid.insert([0.49, 0.0])
        grid.insert([1.19, 0.0])
        assert list(grid.region_query(0, 0.5)) == [0, 1]

    def test_remove_tombstones(self):
        grid = DynamicGridIndex(2, cell_size=1.0)
        a = grid.insert([0.0, 0.0])
        grid.insert([2.0, 2.0])
        grid.remove(a)
        assert len(grid) == 1
        assert a not in grid
        assert grid.range_query(np.zeros(2), 0.5).size == 0

    def test_remove_twice_raises(self):
        grid = DynamicGridIndex(2, cell_size=1.0)
        a = grid.insert([0.0, 0.0])
        grid.remove(a)
        with pytest.raises(KeyError):
            grid.remove(a)

    def test_point_accessor(self):
        grid = DynamicGridIndex(2, cell_size=1.0)
        a = grid.insert([3.0, 4.0])
        np.testing.assert_array_equal(grid.point(a), [3.0, 4.0])
        grid.remove(a)
        with pytest.raises(KeyError):
            grid.point(a)

    def test_indices_never_reused(self):
        grid = DynamicGridIndex(2, cell_size=1.0)
        a = grid.insert([0.0, 0.0])
        grid.remove(a)
        b = grid.insert([0.0, 0.0])
        assert b != a

    def test_live_indices_sorted(self):
        grid = DynamicGridIndex(1, cell_size=1.0)
        ids = [grid.insert([float(i)]) for i in range(5)]
        grid.remove(ids[2])
        np.testing.assert_array_equal(grid.live_indices(), [0, 1, 3, 4])


class TestQueries:
    def test_region_query_includes_self(self):
        grid = DynamicGridIndex(2, cell_size=1.0)
        a = grid.insert([0.0, 0.0])
        assert a in grid.region_query(a, 0.0)

    def test_matches_oracle_after_churn(self, rng):
        grid = DynamicGridIndex(2, cell_size=0.8)
        live: dict[int, np.ndarray] = {}
        for __ in range(300):
            if live and rng.random() < 0.3:
                victim = int(rng.choice(list(live)))
                grid.remove(victim)
                del live[victim]
            else:
                p = rng.uniform(-4, 4, size=2)
                live[grid.insert(p)] = p
        for __ in range(20):
            q = rng.uniform(-5, 5, size=2)
            eps = float(rng.uniform(0.1, 3.0))
            assert list(grid.range_query(q, eps)) == _oracle(live, q, eps)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_ops(self, seed):
        rng = np.random.default_rng(seed)
        grid = DynamicGridIndex(2, cell_size=1.0)
        live: dict[int, np.ndarray] = {}
        for __ in range(int(rng.integers(5, 60))):
            if live and rng.random() < 0.4:
                victim = int(rng.choice(list(live)))
                grid.remove(victim)
                del live[victim]
            else:
                p = rng.uniform(-3, 3, size=2)
                live[grid.insert(p)] = p
        q = rng.uniform(-3, 3, size=2)
        eps = float(rng.uniform(0.2, 2.0))
        assert list(grid.range_query(q, eps)) == _oracle(live, q, eps)
        assert grid.count_in_range(q, eps) == len(_oracle(live, q, eps))
