"""The grid join's self mode: a region query of every indexed point, in
index order, evaluates each unordered candidate pair once and mirrors its
hits, and must give the per-query join's rows bit for bit.

The oracles are the per-query ``region_query`` and the brute-force
index.  The work is pinned by counting the rows ``Metric.paired``
evaluates: ``(candidate_pairs(eps) - n) / 2`` for a whole-graph fetch.
Every other block keeps the per-query path, which evaluates every
candidate pair from both ends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import dataset_a
from repro.data.distance import Metric
from repro.distributed.partition import partition
from repro.index import BruteForceIndex, GridIndex
from tests.csr_rows import csr_rows

METRICS = ("euclidean", "manhattan", "chebyshev", "squared_euclidean")


@pytest.fixture
def self_joins(monkeypatch):
    """Counts the calls that take the self mode."""
    calls: list[float] = []
    original = GridIndex._self_join

    def counted(self, eps):
        calls.append(eps)
        return original(self, eps)

    monkeypatch.setattr(GridIndex, "_self_join", counted)
    return calls


@pytest.fixture
def paired_rows(monkeypatch):
    """Counts the distances every ``Metric.paired`` call evaluates."""
    rows = [0]
    original = Metric.paired

    def counted(self, left, right, out=None):
        rows[0] += len(left)
        return original(self, left, right, out=out)

    monkeypatch.setattr(Metric, "paired", counted)
    return rows


def _cloud(seed: int, n: int, dim: int, spread: float = 2.0) -> np.ndarray:
    """Clumps, scatter and exact duplicates."""
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [
            rng.normal(0.0, 0.5 * spread, size=(n // 2, dim)),
            rng.uniform(-2 * spread, 2 * spread, size=(n - n // 2, dim)),
        ]
    )
    points[-(n // 10) :] = points[: n // 10]
    return points


def _radius(metric: str) -> float:
    # Under squared_euclidean a radius below 1 reaches sqrt(eps) > eps.
    return 0.49 if metric == "squared_euclidean" else 0.7


def _assert_whole_graph(grid: GridIndex, eps: float, calls: list) -> None:
    """One whole-graph fetch in self mode equals the per-query rows and
    the brute-force index's rows."""
    n = len(grid)
    before = len(calls)
    rows = csr_rows(grid.region_query_batch(np.arange(n), eps))
    assert len(calls) == before + 1
    brute = BruteForceIndex(grid.points, grid.metric)
    assert len(rows) == n
    for i, row in enumerate(rows):
        assert row.dtype == np.intp
        assert np.array_equal(row, grid.region_query(i, eps)), i
        assert np.array_equal(row, brute.region_query(i, eps)), i


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_whole_graph_equals_per_query_and_brute_force(metric, dim, self_joins):
    eps = _radius(metric)
    points = _cloud(dim, 240, dim, spread=0.4 * dim)
    _assert_whole_graph(GridIndex(points, metric, cell_size=eps), eps, self_joins)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("budget", [1, 7, 60])
def test_small_passes_and_tails_over_one_pass(metric, dim, budget, self_joins):
    """Passes forced small through the instance's pair budget: a cell of
    30 duplicates has tails of up to 29 pairs, longer than a pass."""
    eps = _radius(metric)
    points = np.concatenate([_cloud(dim + budget, 90, dim), np.full((30, dim), 0.1)])
    grid = GridIndex(points, metric, cell_size=eps)
    grid._pair_budget = budget
    _assert_whole_graph(grid, eps, self_joins)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize(
    "points",
    [
        np.zeros((1, 2)),
        np.zeros((5, 3)),  # duplicates only: one occupied cell
        np.asarray([[0.0, 0.0], [0.1, 0.2], [0.3, 0.1], [0.2, 0.2]]),
        np.asarray([[0.0], [10.0], [20.0]]),  # no two cells are neighbours
    ],
    ids=["one-point", "duplicates", "one-cell", "isolated"],
)
def test_degenerate_sets(metric, points, self_joins):
    eps = _radius(metric)
    _assert_whole_graph(GridIndex(points, metric, cell_size=eps), eps, self_joins)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dim", [2, 3])
def test_both_neighbour_cell_branches(metric, dim, self_joins):
    """A wide cloud looks its neighbour cells up through the stencil; a
    tight one, with fewer occupied cells than the stencil has offsets,
    compares every occupied cell."""
    eps = _radius(metric)
    stencil_used = set()
    for spread in (0.3, 3.0 * dim):
        points = _cloud(dim, 200, dim, spread=spread)
        grid = GridIndex(points, metric, cell_size=eps)
        span = 2 * grid._rings0 + 1
        stencil_used.add(span**dim <= grid.n_occupied_cells)
        _assert_whole_graph(grid, eps, self_joins)
    assert stencil_used == {False, True}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("seed,dim", [(0, 5), (1, 8), (2, 12)])
def test_clouds_beyond_linear_keys(metric, seed, dim, self_joins):
    """The wide sparse clouds of the DBSCAN oracle suite, whose occupied
    extent has more cells than a linear key can number."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0, 1e5, size=(3, dim))
    points = np.concatenate(
        [rng.normal(c, 0.3, size=(20, dim)) for c in centres]
        + [rng.uniform(0, 1e5, size=(15, dim))]
    )
    eps = 1.5 if metric != "squared_euclidean" else 2.25
    grid = GridIndex(points, metric, cell_size=eps)
    assert grid._keys is None
    _assert_whole_graph(grid, eps, self_joins)


def test_a_data_set_a_site_evaluates_half_the_candidates(paired_rows, self_joins):
    """A 2,175-point site of data set A: the whole-graph fetch evaluates
    each unordered candidate pair once, no self pair."""
    data = dataset_a()
    site = data.points[partition(data.points, 4, "uniform_random", 1) == 0]
    assert len(site) == 2175
    eps = data.eps_local
    grid = GridIndex(site, cell_size=eps)
    candidates = grid.candidate_pairs(eps)
    assert paired_rows[0] == 0
    graph = grid.region_query_batch(np.arange(len(site)), eps)
    assert self_joins == [eps]
    assert paired_rows[0] == (candidates - len(site)) // 2
    hits = sum(map(len, csr_rows(graph)))
    assert (hits - len(site)) % 2 == 0 and hits <= candidates
    paired_rows[0] = 0
    per_query = grid.join(site, eps, cells=grid._point_cell)
    assert paired_rows[0] == candidates
    assert all(map(np.array_equal, graph, per_query))


@pytest.mark.parametrize("metric", METRICS)
def test_a_lattice_at_exactly_eps(metric, paired_rows, self_joins):
    """Integer lattice points at the radius: every axis neighbour sits at
    distance exactly ``eps``, and is a hit from both ends."""
    grid_1d = np.arange(9.0)
    points = np.stack(np.meshgrid(grid_1d, grid_1d, indexing="ij"), -1).reshape(-1, 2)
    points = np.concatenate([points, points[:5]])
    eps = 1.0
    grid = GridIndex(points, metric, cell_size=eps)
    candidates = grid.candidate_pairs(eps)
    rows = csr_rows(grid.region_query_batch(np.arange(len(points)), eps))
    assert paired_rows[0] == (candidates - len(points)) // 2
    brute = BruteForceIndex(points, metric)
    for i, row in enumerate(rows):
        assert np.array_equal(row, brute.region_query(i, eps))
    assert len(rows[10]) >= 5  # the point and its four axis neighbours


@pytest.mark.parametrize("metric", METRICS)
def test_other_blocks_keep_the_per_query_path(metric, self_joins):
    """A subset, a permutation or a repeated index of all points, counts
    and another ring reach take the per-query join, and agree with the
    whole-graph fetch."""
    eps = _radius(metric)
    points = _cloud(4, 300, 2)
    grid = GridIndex(points, metric, cell_size=eps)
    n = len(points)
    everyone = np.arange(n)
    graph = csr_rows(grid.region_query_batch(everyone, eps))
    assert len(self_joins) == 1
    rng = np.random.default_rng(5)
    for indices in (
        everyone[:-1],
        rng.permutation(n),
        np.concatenate([everyone, everyone]),
        np.repeat(everyone, 2)[:n],
    ):
        rows = csr_rows(grid.region_query_batch(indices, eps))
        assert len(rows) == indices.size
        for i, row in zip(indices, rows):
            assert np.array_equal(row, graph[i])
    counts = grid.region_query_batch(everyone, eps, count_only=True)
    for i in range(n):
        assert counts[i] == graph[i].size
    wider = 2.5 * eps
    for i, row in enumerate(csr_rows(grid.region_query_batch(everyone, wider))):
        assert np.array_equal(row, grid.region_query(i, wider))
    assert len(self_joins) == 1
