"""Unit + property tests for all neighbor indexes (vs the brute oracle)."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    BruteForceIndex,
    GridIndex,
    KDTreeIndex,
    RTreeIndex,
    available_indexes,
    build_index,
)
from repro.index.mtree import MTreeIndex
from tests.csr_rows import csr_rows

INDEX_BUILDERS = {
    "brute": lambda pts, metric="euclidean": BruteForceIndex(pts, metric),
    "grid": lambda pts, metric="euclidean": GridIndex(pts, metric, cell_size=1.0),
    "kdtree": lambda pts, metric="euclidean": KDTreeIndex(pts, metric, leaf_size=4),
    "rtree": lambda pts, metric="euclidean": RTreeIndex(pts, metric, node_capacity=4),
}


def _oracle(points, query, eps, metric="euclidean"):
    return BruteForceIndex(points, metric).range_query(query, eps)


@pytest.mark.parametrize("kind", list(INDEX_BUILDERS), ids=str)
class TestAllIndexes:
    def test_region_query_contains_self(self, kind, rng):
        points = rng.normal(size=(50, 2))
        index = INDEX_BUILDERS[kind](points)
        for i in (0, 17, 49):
            assert i in index.region_query(i, 0.5)

    def test_matches_oracle_random_points(self, kind, rng):
        points = rng.uniform(-5, 5, size=(200, 2))
        index = INDEX_BUILDERS[kind](points)
        for eps in (0.1, 0.7, 2.5, 12.0):
            for qi in range(0, 200, 37):
                expected = _oracle(points, points[qi], eps)
                got = index.range_query(points[qi], eps)
                np.testing.assert_array_equal(got, expected)

    def test_matches_oracle_external_query(self, kind, rng):
        points = rng.uniform(-5, 5, size=(100, 3))
        index = INDEX_BUILDERS[kind](points)
        query = np.asarray([9.0, 0.0, -1.0])
        np.testing.assert_array_equal(
            index.range_query(query, 6.0), _oracle(points, query, 6.0)
        )

    def test_manhattan_metric(self, kind, rng):
        points = rng.uniform(-3, 3, size=(80, 2))
        index = INDEX_BUILDERS[kind](points, metric="manhattan")
        query = points[5]
        np.testing.assert_array_equal(
            index.range_query(query, 1.3),
            _oracle(points, query, 1.3, metric="manhattan"),
        )

    def test_empty_index(self, kind):
        points = np.empty((0, 2))
        index = INDEX_BUILDERS[kind](points)
        assert index.range_query(np.zeros(2), 1.0).size == 0
        assert len(index) == 0

    def test_single_point(self, kind):
        index = INDEX_BUILDERS[kind](np.asarray([[1.0, 2.0]]))
        assert list(index.range_query(np.asarray([1.0, 2.0]), 0.0)) == [0]
        assert index.range_query(np.asarray([5.0, 5.0]), 1.0).size == 0

    def test_duplicate_points_all_returned(self, kind):
        points = np.asarray([[0.0, 0.0]] * 5 + [[3.0, 0.0]])
        index = INDEX_BUILDERS[kind](points)
        hits = index.range_query(np.zeros(2), 0.1)
        assert list(hits) == [0, 1, 2, 3, 4]

    def test_eps_boundary_inclusive(self, kind):
        points = np.asarray([[0.0, 0.0], [1.0, 0.0]])
        index = INDEX_BUILDERS[kind](points)
        assert 1 in index.range_query(np.zeros(2), 1.0)
        assert 1 not in index.range_query(np.zeros(2), 0.999)

    def test_count_in_range(self, kind, rng):
        points = rng.uniform(-2, 2, size=(60, 2))
        index = INDEX_BUILDERS[kind](points)
        q = points[0]
        assert index.count_in_range(q, 1.0) == _oracle(points, q, 1.0).size

    @given(seed=st.integers(0, 10_000), eps=st.floats(0.01, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_property_random_configurations(self, kind, seed, eps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        dim = int(rng.integers(1, 4))
        points = rng.uniform(-4, 4, size=(n, dim))
        index = INDEX_BUILDERS[kind](points)
        query = rng.uniform(-5, 5, size=dim)
        np.testing.assert_array_equal(
            index.range_query(query, eps), _oracle(points, query, eps)
        )


@pytest.mark.parametrize(
    "build",
    [
        *INDEX_BUILDERS.values(),
        lambda pts: MTreeIndex(pts, node_capacity=4),
    ],
    ids=[*INDEX_BUILDERS, "mtree"],
)
def test_zero_dimensional_points_and_queries(build):
    """Points without coordinates are refused by name, but an empty
    ``(0, 0)`` point set is an index: a batch of two zero-dimensional
    queries gets two empty rows there (a zero-dimensional batch holds no
    elements, yet its rows are queries), and a 2-D index refuses it."""
    with pytest.raises(ValueError, match="at least one coordinate"):
        build(np.zeros((3, 0)))
    empty = build(np.zeros((0, 0)))
    queries = np.zeros((2, 0))
    hits, offsets = empty.range_query_batch(queries, 1.0)
    assert hits.size == 0 and offsets.tolist() == [0, 0, 0]
    assert empty.range_query_batch(queries, 1.0, count_only=True).tolist() == [0, 0]
    with pytest.raises(ValueError, match="0 columns"):
        build(np.zeros((3, 2))).range_query_batch(queries, 1.0)


class TestGridSpecifics:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError, match="cell_size"):
            GridIndex(np.zeros((3, 2)), cell_size=0.0)

    def test_rejects_unsupported_metric(self):
        from repro.data.distance import Metric, euclidean

        weird = Metric("weird", euclidean.pairwise, euclidean.to_many)
        with pytest.raises(ValueError, match="supports metrics"):
            GridIndex(np.zeros((3, 2)), weird, cell_size=1.0)

    def test_query_radius_larger_than_cell(self, rng):
        points = rng.uniform(0, 10, size=(150, 2))
        index = GridIndex(points, cell_size=0.5)
        q = points[3]
        np.testing.assert_array_equal(
            index.range_query(q, 4.0), _oracle(points, q, 4.0)
        )

    def test_occupied_cells_counted(self):
        points = np.asarray([[0.1, 0.1], [0.2, 0.2], [5.0, 5.0]])
        index = GridIndex(points, cell_size=1.0)
        assert index.n_occupied_cells == 2

    def test_neighbour_table_built_on_first_region_query(self, rng):
        """Queries of other points never build the neighbour table; the
        first region query at the build radius builds it, once."""
        points = rng.uniform(0, 5, size=(80, 2))
        index = GridIndex(points, cell_size=0.5)
        assert index._table is None
        index.range_query_batch(points, 0.5)
        index.region_query_batch(np.arange(10), 1.2)
        assert index._table is None
        index.region_query_batch(np.arange(10), 0.5)
        table = index._table
        assert table is not None
        index.region_query_batch(np.arange(80), 0.5, count_only=True)
        assert index._table is table

    def test_concurrent_first_region_queries_agree(self, rng):
        """Threads that race to build a fresh grid's neighbour table all
        get the serial answer: a table built twice is the same table."""
        points = rng.uniform(0, 8, size=(600, 2))
        ids = np.arange(len(points))
        expected = csr_rows(GridIndex(points, cell_size=0.5).region_query_batch(ids, 0.5))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for __ in range(5):
                index = GridIndex(points, cell_size=0.5)
                answers: list = []
                threads = [
                    threading.Thread(
                        target=lambda: answers.append(
                            index.region_query_batch(ids, 0.5)
                        )
                    )
                    for __ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert len(answers) == len(threads)
                for answer in answers:
                    rows = csr_rows(answer)
                    assert len(rows) == len(expected)
                    assert all(map(np.array_equal, rows, expected))
        finally:
            sys.setswitchinterval(switch)


class TestKDTreeSpecifics:
    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError, match="leaf_size"):
            KDTreeIndex(np.zeros((3, 2)), leaf_size=0)

    def test_knn_matches_sorted_oracle(self, rng):
        points = rng.normal(size=(120, 2))
        index = KDTreeIndex(points, leaf_size=5)
        q = rng.normal(size=2)
        idx, dist = index.knn_query(q, 7)
        diff = points - q
        all_dist = np.sqrt((diff * diff).sum(axis=1))
        expected = np.sort(all_dist)[:7]
        np.testing.assert_allclose(np.sort(dist), expected, rtol=1e-12)
        assert np.all(np.diff(dist) >= -1e-12)

    def test_knn_k_exceeds_n(self, rng):
        points = rng.normal(size=(5, 2))
        index = KDTreeIndex(points)
        idx, dist = index.knn_query(np.zeros(2), 50)
        assert idx.size == 5

    def test_knn_rejects_bad_k(self):
        index = KDTreeIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="k must be"):
            index.knn_query(np.zeros(2), 0)

    def test_identical_points_leaf(self):
        points = np.zeros((40, 2))
        index = KDTreeIndex(points, leaf_size=4)
        assert index.range_query(np.zeros(2), 0.1).size == 40


class TestRTreeSpecifics:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="node_capacity"):
            RTreeIndex(np.zeros((3, 2)), node_capacity=1)

    def test_height_grows_with_points(self, rng):
        small = RTreeIndex(rng.normal(size=(10, 2)), node_capacity=4)
        large = RTreeIndex(rng.normal(size=(1000, 2)), node_capacity=4)
        assert large.height > small.height >= 1

    def test_three_dimensional(self, rng):
        points = rng.uniform(-2, 2, size=(300, 3))
        index = RTreeIndex(points, node_capacity=8)
        q = points[42]
        np.testing.assert_array_equal(
            index.range_query(q, 1.2), _oracle(points, q, 1.2)
        )


class TestFactory:
    def test_available_names(self):
        assert set(available_indexes()) == {
            "auto",
            "brute",
            "grid",
            "kdtree",
            "rtree",
            "mtree",
        }

    def test_auto_prefers_grid_with_eps(self, rng):
        points = rng.normal(size=(20, 2))
        index = build_index(points, "auto", eps=1.0)
        assert isinstance(index, GridIndex)

    def test_auto_without_eps_uses_brute_force(self, rng):
        """No cell size: the sorted-projection sweep, which beats the
        kd-tree on batched queries."""
        points = rng.normal(size=(20, 2))
        index = build_index(points, "auto")
        assert isinstance(index, BruteForceIndex)

    def test_auto_empty_points_brute(self):
        index = build_index(np.empty((0, 2)), "auto", eps=1.0)
        assert isinstance(index, BruteForceIndex)

    @pytest.mark.parametrize(
        "kind,cls",
        [("brute", BruteForceIndex), ("grid", GridIndex), ("kdtree", KDTreeIndex), ("rtree", RTreeIndex)],
    )
    def test_explicit_kinds(self, kind, cls, rng):
        points = rng.normal(size=(10, 2))
        index = build_index(points, kind, eps=1.0)
        assert isinstance(index, cls)

    def test_grid_without_eps_raises(self, rng):
        with pytest.raises(ValueError, match="grid index needs"):
            build_index(rng.normal(size=(5, 2)), "grid")

    def test_unknown_kind_raises(self, rng):
        with pytest.raises(ValueError, match="unknown index kind"):
            build_index(rng.normal(size=(5, 2)), "balltree")


class TestGridCSRStorage:
    """The structure-of-arrays (CSR) cell layout of :class:`GridIndex`."""

    def _naive_cells(self, index: GridIndex) -> dict:
        """Rebuild the cell -> sorted point indices map the slow way."""
        coords = np.floor(
            (index._points - index._origin) / index.cell_size
        ).astype(np.int64)
        cells: dict = {}
        for i, key in enumerate(map(tuple, coords.tolist())):
            cells.setdefault(key, []).append(i)
        return cells

    def test_flat_is_a_permutation(self, rng):
        points = rng.uniform(-5, 5, size=(200, 2))
        index = GridIndex(points, cell_size=1.3)
        np.testing.assert_array_equal(np.sort(index._flat), np.arange(200))

    def test_slices_partition_flat(self, rng):
        points = rng.uniform(-5, 5, size=(150, 3))
        index = GridIndex(points, cell_size=2.0)
        bounds = sorted(index._cells.values())
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 150
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start  # contiguous, non-overlapping

    def test_csr_matches_naive_bucketing(self, rng):
        for trial in range(5):
            points = rng.uniform(-4, 4, size=(120, 2))
            index = GridIndex(points, cell_size=0.9)
            expected = self._naive_cells(index)
            assert set(index._cells) == set(expected)
            for key, (start, stop) in index._cells.items():
                # Stable lexsort keeps indices ascending within a cell,
                # exactly like the per-cell append lists used to.
                assert index._flat[start:stop].tolist() == expected[key]

    def test_occupied_cell_count(self, rng):
        points = rng.uniform(0, 3, size=(80, 2))
        index = GridIndex(points, cell_size=1.0)
        assert index.n_occupied_cells == len(self._naive_cells(index))
        assert index.n_occupied_cells == len(index._cells)

    def test_duplicate_points_share_one_cell(self):
        points = np.tile([[1.5, -0.5]], (7, 1))
        index = GridIndex(points, cell_size=1.0)
        assert index.n_occupied_cells == 1
        np.testing.assert_array_equal(
            index.range_query(points[0], 0.1), np.arange(7)
        )

    def test_empty_index(self):
        index = GridIndex(np.empty((0, 2)), cell_size=1.0)
        assert index.n_occupied_cells == 0
        assert index.range_query(np.zeros(2), 5.0).size == 0
        rows = csr_rows(index.range_query_batch(np.zeros((3, 2)), 5.0))
        assert len(rows) == 3 and all(hits.size == 0 for hits in rows)

    def test_single_point(self):
        index = GridIndex(np.asarray([[2.0, 2.0]]), cell_size=1.0)
        assert index.n_occupied_cells == 1
        np.testing.assert_array_equal(index.range_query([2.0, 2.0], 0.5), [0])
        assert index.range_query([9.0, 9.0], 0.5).size == 0

    def test_queries_through_empty_cells(self, rng):
        # Two far-apart clumps: the query cube between them spans many
        # empty cells, exercising both gather branches.
        points = np.concatenate(
            [rng.normal(0, 0.2, size=(30, 2)), rng.normal(50, 0.2, size=(30, 2))]
        )
        index = GridIndex(points, cell_size=0.5)
        brute = BruteForceIndex(points)
        for query in ([25.0, 25.0], [0.0, 0.0], [50.0, 50.0]):
            for eps in (0.4, 30.0, 80.0):
                np.testing.assert_array_equal(
                    index.range_query(np.asarray(query), eps),
                    brute.range_query(np.asarray(query), eps),
                )

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 120),
        cell=st.floats(0.3, 3.0),
        eps=st.floats(0.05, 6.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_grids_match_brute_oracle(self, seed, n, cell, eps):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-6, 6, size=(n, 2))
        index = GridIndex(points, cell_size=cell)
        brute = BruteForceIndex(points)
        queries = points[:: max(1, n // 7)]
        batched = csr_rows(index.range_query_batch(queries, eps))
        assert len(batched) == len(queries)
        for query, batch_hits in zip(queries, batched):
            expected = brute.range_query(query, eps)
            np.testing.assert_array_equal(index.range_query(query, eps), expected)
            np.testing.assert_array_equal(np.sort(batch_hits), expected)


def _neighbour_sets(dim: int) -> dict[str, GridIndex]:
    """A grid in ``dim`` dimensions per branch of ``_neighbour_cells``:
    more occupied cells than a one-ring stencil has offsets (key lookups)
    and fewer (every occupied cell compared)."""
    rng = np.random.default_rng(dim)
    dense = GridIndex(rng.uniform(0, 4, size=(2 * 3**dim + 40, dim)), cell_size=1.0)
    sparse = GridIndex(rng.uniform(0, 40, size=(3**dim - 1, dim)), cell_size=1.0)
    assert 3**dim <= dense.n_occupied_cells and dense._keys is not None
    assert sparse.n_occupied_cells < 3**dim
    return {"stencil": dense, "compare": sparse}


class TestNeighbourCells:
    """``GridIndex._neighbour_cells`` against the cell coordinates: per
    row, every occupied cell within ``rings`` in L-inf, ids ascending."""

    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("branch", ["stencil", "compare"])
    def test_equals_the_cells_within_reach(self, dim, branch):
        grid = _neighbour_sets(dim)[branch]
        coords = grid._cell_coords
        rng = np.random.default_rng(dim + 10)
        # Occupied cells and query cells anywhere up to one ring outside
        # the occupied extent, as query points are clipped.
        outside = rng.integers(-2, grid._extent + 2, size=(40, dim))
        cells = np.concatenate([coords[rng.permutation(len(coords))[:40]], outside])
        for rings in (1, 2) if dim <= 4 else (1,):
            offsets, ids = grid._neighbour_cells(cells, rings)
            assert offsets.dtype == ids.dtype == np.intp
            assert offsets[0] == 0 and offsets[-1] == ids.size
            for k, row in enumerate(cells):
                expected = np.flatnonzero(np.abs(coords - row).max(axis=1) <= rings)
                assert np.array_equal(ids[offsets[k] : offsets[k + 1]], expected)

    @pytest.mark.parametrize("branch", ["stencil", "compare"])
    def test_temporaries_stay_two_dimensional(self, branch):
        """At d = 8 a call used to build ``(rows, stencil or cells, d)``
        int64 offsets or gaps, faulted in afresh on every call; one axis at
        a time, no temporary holds more than ``(rows, stencil or cells)``."""
        grid = _neighbour_sets(8)[branch]
        cells = grid._cell_coords[:60]
        expected = grid._neighbour_cells(cells, 1)
        tracemalloc.start()
        try:
            got = grid._neighbour_cells(cells, 1)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(map(np.array_equal, got, expected))
        # One (rows, stencil or cells, d) int64 array: a block holds
        # about ``_pair_budget`` (row, cell) entries.
        assert peak < 8 * 8 * grid._pair_budget


# The grid at the query radius, and trees of small leaves and fanouts, so
# a few dozen points already make deep trees.
DEEP_INDEXES = {
    "grid": lambda pts, metric, eps: GridIndex(pts, metric, cell_size=eps),
    "kdtree": lambda pts, metric, eps: KDTreeIndex(pts, metric, leaf_size=4),
    "rtree": lambda pts, metric, eps: RTreeIndex(pts, metric, node_capacity=4),
    "mtree": lambda pts, metric, eps: MTreeIndex(pts, metric, node_capacity=4),
}


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev", "squared_euclidean"])
@pytest.mark.parametrize("kind", sorted(DEEP_INDEXES))
class TestEveryKindEveryGridMetric:
    """Every index answers every grid metric exactly: squared_euclidean
    below ε 1 (its ball reaches √ε > ε along an axis) and lattices whose
    neighbours sit at exactly ε, where rounding decides the ties."""

    @given(
        seed=st.integers(0, 10_000),
        spacing=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
        lattice=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_region_queries_match_brute_force(self, kind, metric, seed, spacing, lattice):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 80))
        if lattice:
            points = rng.integers(0, 6, size=(n, dim)) * spacing
            eps = spacing * spacing if metric == "squared_euclidean" else spacing
        else:
            points = rng.uniform(-2, 2, size=(n, dim))
            eps = float(rng.uniform(0.05, 1.5))
        index = DEEP_INDEXES[kind](points, metric, eps)
        oracle = BruteForceIndex(points, metric)
        rows = csr_rows(index.region_query_batch(np.arange(n), eps))
        assert len(rows) == n
        for got, i in zip(rows, range(n)):
            np.testing.assert_array_equal(got, oracle.range_query(points[i], eps))
