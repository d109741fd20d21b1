"""Hypothesis suite: ``DBSCAN.fit`` and the REP_Scor model vs. the classic oracle.

Every index kind and every grid metric, on generated data built to hit
the hard cases: Gaussian blobs under uniform noise, exact duplicates,
integer lattices whose neighbour distances equal ``eps`` exactly, random
``eps``/``MinPts``, custom processing orders, and dimensions up to 12 whose
cell-coordinate extent overflows a 64-bit linear key.  The oracle is the
classic one-region-query-per-seed loop over a full distance scan
(``tests/dbscan_oracle.py``); labels, core mask, ``n_region_queries`` and
the whole observer stream (neighbour arrays included) must be equal, and
``build_rep_scor_model`` must choose the Scor sets and ε-ranges the
distance-based collector chooses; ``specific_eps_ranges`` must equal
Definition 7 computed per Scor point with ``to_many``, bitwise.

Every case runs on both of the fit's row sources: the whole
neighbourhood graph from one index call (what these small inputs get by
the size rule), and the per-level path, forced by overstating the index's
pair bound.  The bound itself is checked against the true hit total.
The grid join's reducing mode (the relabel fold's nearest cover) is
checked against a brute-force masked argmin.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import DBSCAN, _row_budget
from repro.core.local import (
    SpecificCorePointCollector,
    build_rep_scor_model,
    specific_eps_ranges,
)
from repro.data.distance import Metric, euclidean, get_metric
from repro.index import GridIndex, build_index
from repro.obs import MetricsRegistry
from tests.csr_rows import csr_rows
from tests.dbscan_oracle import (
    DistanceCollector,
    RecordingObserver,
    classic_dbscan,
    distance_eps_range,
)

# (index kind, metric) pairs each index answers exactly (the pairs of
# tests/test_index_batch.py): squared_euclidean is grid/brute only.
KIND_METRICS = [
    ("brute", "euclidean"),
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

GRID_METRICS = ["euclidean", "manhattan", "chebyshev", "squared_euclidean"]

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def blob_sets(draw, max_dim=4):
    """Blobs + uniform noise (+ exact duplicates), random eps and MinPts."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(1, max_dim))
    n_blobs = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(
            rng.uniform(-10, 10, size=dim),
            rng.uniform(0.2, 1.5),
            size=(int(rng.integers(5, 40)), dim),
        )
        for __ in range(n_blobs)
    ]
    parts.append(rng.uniform(-12, 12, size=(int(rng.integers(0, 30)), dim)))
    points = np.concatenate(parts)
    if draw(st.booleans()):
        copies = points[rng.integers(0, len(points), size=8)]
        points = np.concatenate([points, copies])
    eps = draw(st.floats(0.05, 4.0))
    min_pts = draw(st.integers(1, 10))
    return points, eps, min_pts


@st.composite
def lattices(draw):
    """Integer lattice points scaled by a power of two: many neighbour
    distances equal ``eps`` exactly (axis steps, Manhattan diagonals)."""
    dim = draw(st.integers(1, 3))
    side = draw(st.integers(2, 6))
    scale = 2.0 ** draw(st.integers(-3, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), -1)
    points = grid.reshape(-1, dim).astype(float)
    keep = rng.random(len(points)) < draw(st.floats(0.4, 1.0))
    points = points[keep] if keep.any() else points[:1]
    steps = draw(st.integers(1, 2))
    return points * scale, steps * scale, draw(st.integers(1, 6))


def _order(draw_order, n, seed):
    if not draw_order:
        return None
    return np.random.default_rng(seed).permutation(n).tolist()


def _lattice_eps(metric: str, step: float) -> float:
    # squared_euclidean thresholds squared distances: an axis step of
    # ``step`` sits exactly at eps = step**2 (exact for powers of two).
    return step * step if metric == "squared_euclidean" else step


def _count_calls(index) -> list[tuple[int, bool]]:
    """Record every ``region_query_batch`` call on ``index`` as
    ``(number of queries, count_only)``."""
    calls = []
    batch = index.region_query_batch

    def counted(indices, radius, **kwargs):
        calls.append((len(indices), kwargs.get("count_only", False)))
        return batch(indices, radius, **kwargs)

    index.region_query_batch = counted
    return calls


def _assert_matches_oracle(points, eps, min_pts, kind, metric, order):
    oracle_obs = RecordingObserver()
    oracle = classic_dbscan(
        points, eps, min_pts, metric=metric, order=order, observer=oracle_obs
    )
    for per_level in (False, True):
        index = build_index(points, kind, metric=metric, eps=eps)
        calls = _count_calls(index)
        if per_level:
            # An overstated pair bound forces the per-level path.
            index.candidate_pairs = lambda radius: _row_budget() + 1
        observer = RecordingObserver()
        result = DBSCAN(eps, min_pts, metric=metric, index_kind=kind).fit(
            points, index=index, observer=observer, order=order
        )
        assert np.array_equal(result.labels, oracle.labels)
        assert np.array_equal(result.core_mask, oracle.core_mask)
        assert result.n_region_queries == oracle.n_region_queries == len(points)
        assert observer.events == oracle_obs.events
        # One call for the whole graph, or a counting call and then one
        # call per BFS level.
        modes = [count_only for __, count_only in calls]
        assert modes == ([True] + [False] * (len(modes) - 1) if per_level else [False])


@pytest.mark.parametrize("kind,metric", KIND_METRICS)
@SETTINGS
@given(data=blob_sets(), custom_order=st.booleans(), seed=st.integers(0, 999))
def test_blobs_match_classic_oracle(kind, metric, data, custom_order, seed):
    points, eps, min_pts = data
    if metric == "squared_euclidean":
        eps = eps * eps  # covers eps < 1, where sqrt(eps) > eps
    _assert_matches_oracle(
        points, eps, min_pts, kind, metric, _order(custom_order, len(points), seed)
    )


@pytest.mark.parametrize("kind,metric", KIND_METRICS)
@SETTINGS
@given(data=lattices(), custom_order=st.booleans(), seed=st.integers(0, 999))
def test_lattices_match_classic_oracle(kind, metric, data, custom_order, seed):
    points, step, min_pts = data
    eps = _lattice_eps(metric, step)
    _assert_matches_oracle(
        points, eps, min_pts, kind, metric, _order(custom_order, len(points), seed)
    )


@pytest.mark.parametrize("metric", GRID_METRICS)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), dim=st.integers(5, 12), min_pts=st.integers(1, 4)
)
def test_high_dimensions_beyond_linear_keys(metric, seed, dim, min_pts):
    """Wide sparse clouds in up to 12-D: the occupied extent's cell count
    exceeds 2^63, so no linearized key may be formed."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0, 1e5, size=(3, dim))
    points = np.concatenate(
        [rng.normal(c, 0.3, size=(20, dim)) for c in centres]
        + [rng.uniform(0, 1e5, size=(15, dim))]
    )
    eps = 1.5 if metric != "squared_euclidean" else 2.25
    index = build_index(points, "grid", metric=metric, eps=eps)
    extent = index._cell_coords.max(axis=0) + 1
    assert math.prod(int(e) for e in extent) > 2**63
    _assert_matches_oracle(points, eps, min_pts, "grid", metric, None)


@pytest.mark.parametrize("metric", GRID_METRICS)
@SETTINGS
@given(data=blob_sets(max_dim=12), cell_factor=st.sampled_from([0.3, 1.0, 2.5]))
def test_grid_join_rows_counts_and_distances(metric, data, cell_factor):
    """The join's rows and counts agree with a full scan, and the hit
    distances a caller computes over its CSR pairs with ``Metric.paired``
    are the scan's, bitwise — at the build radius (prebuilt neighbour
    table) and at other radii."""
    points, eps, __ = data
    resolved = get_metric(metric)
    index = GridIndex(points, resolved, cell_size=eps * cell_factor)
    picks = np.arange(0, len(points), 3)
    hits, offsets = index.region_query_batch(picks, eps)
    rows = csr_rows((hits, offsets))
    counts = index.region_query_batch(picks, eps, count_only=True)
    owner = np.repeat(picks, np.diff(offsets))
    distances = resolved.paired(points[owner], points[hits])
    assert len(rows) == len(counts) == picks.size
    for k, (i, row, count) in enumerate(zip(picks, rows, counts)):
        full = resolved.to_many(points[i], points)
        expected = np.flatnonzero(full <= eps)
        assert np.array_equal(row, expected)
        dist = distances[offsets[k] : offsets[k + 1]]
        assert dist.tobytes() == full[expected].tobytes()
        assert count == expected.size


@st.composite
def cover_sets(draw, metric):
    """Indexed points with one radius each, and the queries of the
    join's reducing mode: Gaussian or integer layouts with duplicates in
    1–3 dimensions, scaled so squared-Euclidean radii fall below 1,
    radii equal to an exact query–point distance, queries outside the
    extent and non-finite rows, empty batches and empty indexes."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(0, 40)), draw(st.integers(0, 30))
    if draw(st.booleans()):
        # Integer points, half-integer queries: equal distances to points
        # in neighbouring cells, whose pair order is not index order.
        points = rng.integers(-2, 3, size=(n, dim)).astype(float)
        queries = rng.integers(-6, 7, size=(m, dim)) / 2.0
    else:
        points = rng.normal(0, 2, size=(n, dim))
        queries = rng.normal(0, 3, size=(m, dim))
    if n and draw(st.booleans()):
        points = np.concatenate([points, points[rng.integers(0, n, size=6)]])
    if m:
        # Far outside the extent, and rows with a NaN or infinite value.
        queries[rng.random(m) < 0.15] += 40.0
        bad = np.flatnonzero(rng.random(m) < 0.15)
        queries[bad, rng.integers(0, dim, size=bad.size)] = rng.choice(
            [np.nan, np.inf, -np.inf], size=bad.size
        )
    scale = 2.0 ** draw(st.integers(-3, 1))
    points, queries = points * scale, queries * scale
    resolved = get_metric(metric)
    radii = rng.uniform(0.0, 2.0, size=len(points)) * scale
    if metric == "squared_euclidean":
        radii = radii * radii
    finite = queries[np.isfinite(queries).all(axis=1)]
    if len(finite):
        # Radii at an exact pair distance: the boundary must be a hit.
        exact = np.flatnonzero(rng.random(len(points)) < 0.5)
        for j, k in zip(exact, rng.integers(0, len(finite), size=exact.size)):
            radii[j] = resolved.to_many(finite[k], points[j : j + 1])[0]
    top = float(radii.max()) if len(radii) and radii.max() > 0 else scale
    cell = top * draw(st.sampled_from([1.0, 0.5, 2.0]))
    eps = top * draw(st.sampled_from([1.0, 1.0, 0.6]))
    return points, queries, radii, cell, eps


@pytest.mark.parametrize("metric", GRID_METRICS)
@SETTINGS
@given(data=st.data())
def test_grid_join_nearest_matches_masked_argmin(metric, data):
    """The join's reducing mode is a brute-force masked argmin: per
    query, among the points within ``min(radius, eps)``, the distance
    (bitwise ``Metric.to_many``) and the lowest index at it."""
    points, queries, radii, cell, eps = data.draw(cover_sets(metric))
    resolved = get_metric(metric)
    index = GridIndex(points, resolved, cell_size=cell)
    nearest, distance = index.join(queries, eps, radii=radii)
    assert nearest.dtype == np.intp and nearest.shape == (len(queries),)
    for k, query in enumerate(queries):
        full = (
            resolved.to_many(query, points)
            if np.isfinite(query).all()
            else np.full(len(points), np.inf)
        )
        masked = np.where(full <= np.minimum(radii, eps), full, np.inf)
        best = int(np.argmin(masked)) if len(points) else -1
        if best < 0 or not np.isfinite(masked[best]):
            assert (nearest[k], distance[k]) == (-1, np.inf)
        else:
            assert nearest[k] == best
            assert distance[k].tobytes() == masked[best].tobytes()


@pytest.mark.parametrize("metric", GRID_METRICS)
def test_grid_join_nearest_breaks_ties_by_index(metric):
    """Point 1 sits in the first cell, point 0 in the next: a query
    halfway between them reads point 1 first, but point 0 wins."""
    index = GridIndex(np.asarray([[1.0], [0.0]]), metric, cell_size=1.0)
    nearest, distance = index.join(np.asarray([[0.5]]), 1.0, radii=np.ones(2))
    half = 0.25 if metric == "squared_euclidean" else 0.5
    assert nearest.tolist() == [0] and distance.tolist() == [half]


def test_grid_join_nearest_refuses_radii_of_another_length():
    index = GridIndex(np.zeros((3, 2)), cell_size=1.0)
    for radii in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="radii"):
            index.join(np.zeros((1, 2)), 1.0, radii=radii)


@pytest.mark.parametrize("kind,metric", KIND_METRICS)
@SETTINGS
@given(
    data=st.one_of(blob_sets(), lattices()),
    factor=st.sampled_from([1.0, 0.3, 0.7, 1.5, 2.5]),
)
def test_candidate_pairs_bound_the_true_hits(kind, metric, data, factor):
    """``candidate_pairs`` never understates the hits of a region query of
    every point, at the build radius and at other radii (a lower bound
    could let a graph over the row budget be fetched whole)."""
    points, eps, __ = data
    if metric == "squared_euclidean":
        eps = eps * eps
    index = build_index(points, kind, metric=metric, eps=eps)
    resolved = get_metric(metric)
    radius = eps * factor
    truth = sum(
        int(np.count_nonzero(resolved.to_many(p, points) <= radius)) for p in points
    )
    assert truth <= index.candidate_pairs(radius) <= len(points) ** 2


def test_budget_cuts_change_nothing(monkeypatch):
    """Join passes and BFS row blocks cut at tiny budgets give the uncut
    results: the same rows and counts, the same nearest points, the same
    DBSCAN run."""
    rng = np.random.default_rng(4)
    points = np.concatenate(
        [rng.normal(0, 1, size=(150, 2)), rng.uniform(-5, 5, size=(50, 2))]
    )
    whole = GridIndex(points, cell_size=0.4)
    cut = GridIndex(points, cell_size=0.4)
    cut._pair_budget = 25
    ids = np.arange(len(points))
    queries = rng.uniform(-6, 6, size=(120, 2))
    radii = rng.uniform(0.05, 0.4, size=len(points))
    for eps in (0.4, 1.3):
        rows = csr_rows(whole.region_query_batch(ids, eps))
        cut_rows = csr_rows(cut.region_query_batch(ids, eps))
        assert len(rows) == len(cut_rows) == ids.size
        assert all(np.array_equal(a, b) for a, b in zip(rows, cut_rows))
        counts = cut.region_query_batch(ids, eps, count_only=True)
        assert np.array_equal(counts, list(map(len, rows)))
        nearest, distance = whole.join(queries, eps, radii=radii)
        cut_nearest, cut_distance = cut.join(queries, eps, radii=radii)
        assert np.array_equal(nearest, cut_nearest)
        assert np.array_equal(distance, cut_distance)
        assert 0 < np.count_nonzero(nearest >= 0) < len(queries)
    dbscan_module = importlib.import_module("repro.clustering.dbscan")
    # Row blocks of 40 neighbours: far below the graph's pair bound, so
    # the fit takes the per-level path, and most levels take several calls.
    monkeypatch.setattr(dbscan_module, "PAIR_BUDGET_BYTES", 8 * 8 * 40)
    assert cut.candidate_pairs(0.4) > 40
    calls = _count_calls(cut)
    metrics = MetricsRegistry()
    oracle_obs, observer = RecordingObserver(), RecordingObserver()
    oracle = classic_dbscan(points, 0.4, 4, observer=oracle_obs)
    result = DBSCAN(0.4, 4).fit(points, index=cut, observer=observer, metrics=metrics)
    assert np.array_equal(result.labels, oracle.labels)
    assert np.array_equal(result.core_mask, oracle.core_mask)
    assert observer.events == oracle_obs.events
    # The counting call, then more row calls than BFS levels: cut blocks.
    levels = metrics.to_dict()["histograms"]["dbscan.frontier_batch_size"]["count"]
    assert calls[0] == (len(points), True)
    assert len(calls) - 1 > levels


@pytest.mark.parametrize("kind,metric", [
    ("grid", "euclidean"),
    ("grid", "manhattan"),
    ("grid", "squared_euclidean"),
    ("kdtree", "euclidean"),
    ("brute", "chebyshev"),
])
@SETTINGS
@given(data=st.one_of(blob_sets(), lattices()))
def test_rep_scor_model_matches_distance_collector(kind, metric, data):
    points, eps, min_pts = data
    if metric == "squared_euclidean":
        eps = eps * eps
    collector = DistanceCollector(points, eps, metric)
    oracle = classic_dbscan(points, eps, min_pts, metric=metric, observer=collector)
    outcome = build_rep_scor_model(
        points, eps, min_pts, metric=metric, index_kind=kind
    )
    assert np.array_equal(outcome.clustering.labels, oracle.labels)
    expected = dict(collector.scor)
    got = {cid: s.tolist() for cid, s in outcome.specific_core_points.items()}
    assert got == expected
    expected_ranges = [
        distance_eps_range(points, s, eps, oracle.core_mask, metric)
        for cid in sorted(expected)
        for s in expected[cid]
    ]
    got_ranges = outcome.model.eps_ranges.tolist()
    assert got_ranges == expected_ranges


# A metric without a paired kernel: ``Metric.paired`` loops over its rows
# with ``to_many`` (brute force answers it, the grid refuses it).
WEIRD = Metric("weird", euclidean.pairwise, euclidean.to_many)


@pytest.mark.parametrize("metric", [*GRID_METRICS, WEIRD], ids=str)
@pytest.mark.parametrize("per_level", [False, True], ids=["graph", "per-level"])
@SETTINGS
@given(data=st.one_of(blob_sets(), lattices()))
def test_specific_eps_ranges_are_definition_7(metric, per_level, data):
    """Each Scor point's ε-range is Definition 7 computed from it with
    ``to_many``, bitwise, with the Scor sets read off either row source
    of the fit (the per-level one forced by an overstated pair bound)."""
    points, eps, min_pts = data
    resolved = get_metric(metric)
    if resolved.name == "squared_euclidean":
        eps = eps * eps
    index = build_index(points, metric=resolved, eps=eps)
    if per_level:
        index.candidate_pairs = lambda radius: _row_budget() + 1
    collector = SpecificCorePointCollector(len(points))
    result = DBSCAN(eps, min_pts, metric=resolved).fit(
        points, index=index, observer=collector
    )
    chosen = np.concatenate(
        [np.empty(0, dtype=np.intp), *collector.specific_core_points().values()]
    )
    expected = np.asarray(
        [distance_eps_range(points, s, eps, result.core_mask, resolved) for s in chosen],
        dtype=float,
    )
    ranges = specific_eps_ranges(chosen, result)
    assert ranges.tobytes() == expected.tobytes()
