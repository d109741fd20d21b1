"""Equivalence guard: level-synchronous DBSCAN == the classic DBSCAN loop.

``DBSCAN.fit`` (the whole neighbourhood graph in one batched region query
when the index's pair bound fits one row block, otherwise a counting pass
and one batched region query per BFS level) must be *bit-identical* to the
classic one-query-per-seed loop (``tests/dbscan_oracle.py``) in every
observable: labels, core mask, ``n_region_queries`` and the complete
observer event sequence.  Checked on the paper's A/B/C-style data sets and
on adversarial small layouts (exact-integer coordinates with boundary
distances, custom processing orders).  Two pins fix which sizes take
which path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import DBSCAN, _row_budget
from repro.data.datasets import load_dataset
from repro.index import build_index
from repro.obs import MetricsRegistry
from tests.dbscan_oracle import RecordingObserver, classic_dbscan


def _run_both(points, eps, min_pts, *, index_kind="auto", order=None, index=None):
    oracle_obs = RecordingObserver()
    oracle = classic_dbscan(points, eps, min_pts, order=order, observer=oracle_obs)
    observer = RecordingObserver()
    runner = DBSCAN(eps, min_pts, index_kind=index_kind)
    result = runner.fit(points, observer=observer, order=order, index=index)
    return (oracle, oracle_obs), (result, observer)


def _assert_identical(points, eps, min_pts, *, index_kind="auto", order=None, index=None):
    (ref, ref_obs), (bat, bat_obs) = _run_both(
        points, eps, min_pts, index_kind=index_kind, order=order, index=index
    )
    assert np.array_equal(ref.labels, bat.labels)
    assert np.array_equal(ref.core_mask, bat.core_mask)
    assert ref.n_region_queries == bat.n_region_queries
    assert ref_obs.events == bat_obs.events


@pytest.mark.parametrize("index_kind", ["brute", "grid", "kdtree"])
@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_equivalence_on_paper_datasets(name, index_kind):
    data = load_dataset(name, cardinality=700)
    _assert_identical(
        data.points, data.eps_local, data.min_pts, index_kind=index_kind
    )


@pytest.mark.parametrize("index_kind", ["brute", "grid", "kdtree", "rtree", "mtree"])
def test_equivalence_exact_boundary_layout(tiny_grid_points, index_kind):
    """Integer coordinates with distances exactly equal to eps."""
    _assert_identical(tiny_grid_points, 1.5, 3, index_kind=index_kind)
    _assert_identical(tiny_grid_points, 1.0, 2, index_kind=index_kind)


def test_equivalence_on_blobs_all_parameters(small_blobs):
    points, __ = small_blobs
    for eps, min_pts in [(0.5, 3), (1.2, 5), (2.5, 10), (8.0, 2)]:
        _assert_identical(points, eps, min_pts)


def test_equivalence_with_custom_order(small_blobs):
    points, __ = small_blobs
    rng = np.random.default_rng(0)
    order = rng.permutation(points.shape[0])
    _assert_identical(points, 1.2, 5, order=list(order))


def test_equivalence_with_prebuilt_shared_index(small_blobs):
    """Both runs reuse one prebuilt index (the DBDC site pattern)."""
    points, __ = small_blobs
    index = build_index(points, "grid", eps=1.2)
    _assert_identical(points, 1.2, 5, index=index)
    _assert_identical(points, 1.2, 5, index=index)


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_randomized(seed):
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [
            rng.normal(0, 1.0, size=(60, 2)),
            rng.uniform(-6, 6, size=(60, 2)),
            np.repeat(rng.normal(3, 0.2, size=(5, 2)), 4, axis=0),  # duplicates
        ]
    )
    eps = float(rng.uniform(0.2, 2.0))
    min_pts = int(rng.integers(1, 8))
    _assert_identical(points, eps, min_pts)


@pytest.mark.slow
@pytest.mark.parametrize("index_kind", ["brute", "grid"])
def test_equivalence_at_scale(index_kind):
    data = load_dataset("A", cardinality=5000)
    _assert_identical(
        data.points, data.eps_local, data.min_pts, index_kind=index_kind
    )


def _index_calls(points, eps, min_pts, kind):
    """Fit over a fresh ``kind`` index under a metrics registry; returns
    the registry's export and the index's pair bound."""
    index = build_index(points, kind, eps=eps)
    metrics = MetricsRegistry()
    DBSCAN(eps, min_pts).fit(
        points, index=index, observer=RecordingObserver(), metrics=metrics
    )
    return metrics.to_dict(), index.candidate_pairs(eps)


def test_a_fit_under_the_pair_bound_makes_one_index_call():
    """A data set A site's share on the grid: the pair bound is within one
    row block, so the fit fetches the whole graph in one batched call of n
    queries; the frontier histogram still records every BFS level."""
    data = load_dataset("A", cardinality=2175)
    n = data.points.shape[0]
    exported, bound = _index_calls(
        data.points, data.eps_local, data.min_pts, "grid"
    )
    assert bound <= _row_budget()
    counters, histograms = exported["counters"], exported["histograms"]
    assert counters["index.batch_queries"] == 1
    assert counters["index.region_queries"] == n
    assert histograms["index.neighbors_per_query"]["count"] == n
    assert histograms["dbscan.frontier_batch_size"]["count"] > 1


def test_a_fit_over_the_pair_bound_fetches_rows_per_level():
    """The brute-force index bounds the graph by n², over one row block at
    this size: a counting call, then one call per BFS level."""
    data = load_dataset("A", cardinality=800)
    exported, bound = _index_calls(
        data.points, data.eps_local, data.min_pts, "brute"
    )
    assert bound > _row_budget()
    counters, histograms = exported["counters"], exported["histograms"]
    levels = histograms["dbscan.frontier_batch_size"]["count"]
    assert counters["index.batch_queries"] == 1 + levels
