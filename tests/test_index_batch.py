"""Property tests for the batched query layer.

For every index kind and metric, ``range_query_batch`` /
``region_query_batch`` must return exactly the per-query results — on
random point sets, duplicated points, empty query batches, external query
points, and (for the grid) radii larger than the build radius — in one
CSR shape (``tests/csr_rows.py`` checks it), with ``count_only`` giving
the row lengths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distance import Metric, get_metric
from repro.index import build_index
from tests.csr_rows import csr_rows

# (index kind, metric) combinations each index supports exactly.  The
# M-tree needs the triangle inequality, so squared_euclidean is excluded
# there; the grid rejects non-L_p metrics at construction time.
INDEX_METRICS = [
    ("brute", "euclidean"),
    ("brute", "manhattan"),
    ("brute", "chebyshev"),
    ("brute", "squared_euclidean"),
    ("grid", "euclidean"),
    ("grid", "manhattan"),
    ("grid", "chebyshev"),
    ("grid", "squared_euclidean"),
    ("kdtree", "euclidean"),
    ("kdtree", "manhattan"),
    ("kdtree", "chebyshev"),
    ("rtree", "euclidean"),
    ("rtree", "manhattan"),
    ("mtree", "euclidean"),
    ("mtree", "manhattan"),
]

BUILD_EPS = 1.1


def _point_set(seed: int, n: int = 140, dim: int = 2) -> np.ndarray:
    """Clumps + scatter + exact duplicates, the hard cases for indexes."""
    rng = np.random.default_rng(seed)
    clumped = rng.normal(0.0, 1.0, size=(n // 2, dim))
    scattered = rng.uniform(-8.0, 8.0, size=(n - n // 2, dim))
    points = np.concatenate([clumped, scattered])
    # Duplicate a slice of rows verbatim (ties at distance 0 and on cell
    # borders must behave identically in both query paths).
    points[-10:] = points[:10]
    return points


def _assert_batch_matches(index, queries: np.ndarray, eps: float) -> None:
    answer = index.range_query_batch(queries, eps)
    batch = csr_rows(answer)
    assert len(batch) == len(queries)
    for query, hits in zip(queries, batch):
        expected = index.range_query(query, eps)
        assert np.array_equal(hits, expected)
    counts = index.range_query_batch(queries, eps, count_only=True)
    assert counts.dtype == np.intp
    assert np.array_equal(counts, np.diff(answer[1]))


@pytest.mark.parametrize("kind,metric", INDEX_METRICS)
@pytest.mark.parametrize("seed", [0, 1])
def test_range_query_batch_equals_per_query(kind, metric, seed):
    points = _point_set(seed)
    index = build_index(points, kind, metric=metric, eps=BUILD_EPS)
    rng = np.random.default_rng(seed + 99)
    external = rng.uniform(-10.0, 10.0, size=(25, points.shape[1]))
    for eps in (0.0, 0.4, BUILD_EPS, 3.7):
        _assert_batch_matches(index, points[:40], eps)
        _assert_batch_matches(index, external, eps)


@pytest.mark.parametrize("kind,metric", INDEX_METRICS)
def test_region_query_batch_equals_per_query(kind, metric):
    """A few indices, every point in index order (the grid's whole-graph
    fetch), and a subset, a permutation and a repeat of every point."""
    points = _point_set(3)
    n = points.shape[0]
    index = build_index(points, kind, metric=metric, eps=BUILD_EPS)
    everyone = np.arange(n)
    for indices in (
        np.asarray([0, 5, 5, 17, n - 1], dtype=np.intp),
        everyone,
        everyone[1:],
        np.random.default_rng(3).permutation(n),
        np.concatenate([everyone, everyone]),
    ):
        for eps in (0.4, BUILD_EPS, 2.5):
            answer = index.region_query_batch(indices, eps)
            batch = csr_rows(answer)
            assert len(batch) == indices.size
            for i, hits in zip(indices, batch):
                assert np.array_equal(hits, index.region_query(int(i), eps))
            counts = index.region_query_batch(indices, eps, count_only=True)
            assert counts.dtype == np.intp
            assert np.array_equal(counts, np.diff(answer[1]))


@pytest.mark.parametrize("kind,metric", INDEX_METRICS)
def test_region_counts_and_distances_of_every_point(kind, metric):
    """``count_only`` over every point agrees with the rows of the
    whole-graph fetch, and the hit distances a caller computes over the
    CSR pairs with ``Metric.paired`` are bitwise ``to_many``'s."""
    points = _point_set(4)
    index = build_index(points, kind, metric=metric, eps=BUILD_EPS)
    everyone = np.arange(points.shape[0])
    hits, offsets = index.region_query_batch(everyone, BUILD_EPS)
    rows = csr_rows((hits, offsets))
    counts = index.region_query_batch(everyone, BUILD_EPS, count_only=True)
    resolved = get_metric(metric)
    owner = np.repeat(everyone, np.diff(offsets))
    distances = resolved.paired(points[owner], points[hits])
    for i, row in enumerate(rows):
        expected = resolved.to_many(points[i], points[row])
        assert distances[offsets[i] : offsets[i + 1]].tobytes() == expected.tobytes()
        assert counts[i] == row.size


@pytest.mark.parametrize("kind", ["brute", "grid", "kdtree", "rtree", "mtree"])
def test_empty_query_batch(kind):
    """An empty batch is an empty ``hits`` with ``offsets == [0]``, and
    no counts."""
    points = _point_set(4)
    index = build_index(points, kind, eps=BUILD_EPS)
    for answer in (
        index.range_query_batch([], 1.0),
        index.range_query_batch(np.empty((0, 2)), 1.0),
        index.region_query_batch([], 1.0),
        index.region_query_batch(np.empty(0, dtype=np.intp), 1.0),
    ):
        assert csr_rows(answer) == []
        assert answer[0].size == 0 and answer[1].tolist() == [0]
    for counts in (
        index.range_query_batch(np.empty((0, 2)), 1.0, count_only=True),
        index.region_query_batch([], 1.0, count_only=True),
    ):
        assert counts.dtype == np.intp and counts.size == 0


@pytest.mark.parametrize("kind", ["brute", "grid", "kdtree", "rtree", "mtree"])
@pytest.mark.parametrize("columns", [1, 3])
def test_batch_of_another_dimensionality_is_refused(kind, columns):
    """The grid used to broadcast a one-column batch against its 2-D
    origin and answer it; brute force and the kd-tree raised a bare
    IndexError."""
    index = build_index(_point_set(4), kind, eps=BUILD_EPS)
    with pytest.raises(ValueError, match=f"{columns} columns .* 2-dimensional"):
        index.range_query_batch(np.full((5, columns), 0.5), 1.0)
    assert csr_rows(index.range_query_batch(np.empty((0, columns)), 1.0)) == []


@pytest.mark.parametrize("kind", ["brute", "grid", "kdtree"])
def test_batch_on_empty_index(kind):
    index = build_index(np.empty((0, 2)), kind, eps=BUILD_EPS)
    batch = csr_rows(index.range_query_batch(np.asarray([[0.0, 0.0], [1.0, 1.0]]), 2.0))
    assert len(batch) == 2
    assert all(hits.size == 0 for hits in batch)


def test_grid_batch_eps_larger_than_build_radius():
    """Queries spanning several cell rings stay exact in the batch path."""
    points = _point_set(5)
    index = build_index(points, "grid", eps=0.3)  # small cells
    for eps in (0.9, 2.5, 40.0):  # up to "covers every cell"
        _assert_batch_matches(index, points[:30], eps)


def test_brute_batch_falls_back_for_unknown_metric():
    """A metric outside the L_p family uses the exact per-query fallback."""
    euclid = get_metric("euclidean")
    custom = Metric("custom_scaled", euclid.pairwise, euclid.to_many)
    points = _point_set(6)
    index = build_index(points, "brute", metric=custom)
    _assert_batch_matches(index, points[:25], 1.3)


@pytest.mark.parametrize("name", ["euclidean", "squared_euclidean", "manhattan", "chebyshev"])
def test_metric_matrix_rows_bitwise_equal_to_many(name):
    """The batched kernels' determinism guarantee: matrix row == to_many."""
    metric = get_metric(name)
    rng = np.random.default_rng(11)
    queries = rng.normal(0, 5, size=(17, 3))
    points = rng.normal(0, 5, size=(200, 3))
    matrix = metric.matrix(queries, points)
    for i, query in enumerate(queries):
        row = metric.to_many(query, points)
        assert np.array_equal(matrix[i], row)  # bitwise, not approx
