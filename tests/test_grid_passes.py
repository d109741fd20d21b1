"""The grid join's pass buffers: answers never alias them, one join uses a
buffer set at a time, and a repeated join reuses its set instead of
allocating its pair arrays again, in every mode of the join (the self
mode of a whole-graph fetch included).  Also the join's refusal of a NaN
or negative radius, and the query table: queries that are not indexed
points, at the build radius's ring reach, find their cells in a table
built once per grid, and get what brute force and the dense relabel
reference give."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.labels import NOISE
from repro.core.models import GlobalModel
from repro.core.relabel import relabel_site_reference
from repro.data.distance import get_metric
from repro.index import BruteForceIndex, GridIndex
from repro.index import grid as grid_module
from repro.index.base import PASS_BUDGET_BYTES

METRICS = ("euclidean", "manhattan", "chebyshev", "squared_euclidean")


def _grid(seed: int, n: int, metric: str = "euclidean", budget: int | None = None):
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [rng.normal(0, 1, size=(n // 2, 2)), rng.uniform(-4, 4, size=(n - n // 2, 2))]
    )
    grid = GridIndex(points, metric, cell_size=0.5)
    if budget is not None:
        grid._pair_budget = budget
    return grid


def _answers(grid: GridIndex, seed: int) -> dict:
    """One answer of every join mode, as the caller receives it."""
    rng = np.random.default_rng(seed)
    points = grid.points
    queries = rng.uniform(-5, 5, size=(len(points) // 2, 2))
    radii = rng.uniform(0.05, 0.5, size=len(points))
    cells = grid._point_cell
    return {
        "rows": grid.join(points, 0.5, cells=cells),
        "graph": grid._self_join(0.5),
        "counts": grid.join(points, 0.5, cells=cells, count_only=True),
        "range": grid.join(queries, 0.8),
        "nearest": grid.join(queries, 0.5, radii=radii),
    }


def _arrays(answer) -> tuple[np.ndarray, ...]:
    return answer if isinstance(answer, tuple) else (answer,)


def _equal(left: dict, right: dict) -> bool:
    return all(
        len(_arrays(left[mode])) == len(_arrays(right[mode]))
        and all(map(np.array_equal, _arrays(left[mode]), _arrays(right[mode])))
        for mode in left
    )


def test_answers_do_not_alias_the_pass_buffers():
    """Answers held by a caller stay as they were while later joins, with
    larger and smaller passes, over other grids and metrics, reuse the
    buffers their passes were computed in."""
    held = _answers(_grid(0, 900, budget=700), seed=1)
    snapshot = {
        mode: tuple(np.copy(part) for part in _arrays(answer))
        for mode, answer in held.items()
    }
    for seed, metric in enumerate(METRICS, start=2):
        for budget in (None, 150, 3000):
            _answers(_grid(seed, 600 + 200 * seed, metric, budget), seed)
    for mode, answer in held.items():
        assert all(map(np.array_equal, _arrays(answer), snapshot[mode])), mode


def test_passes_and_buffers_change_no_answer():
    """The same joins answered in one pass, in many passes and with a
    lone query over the pass budget agree."""
    whole = _answers(_grid(5, 800), seed=6)
    for budget in (1, 40, 999):
        assert _equal(_answers(_grid(5, 800, budget=budget), seed=6), whole)


def test_concurrent_joins_get_the_sequential_answers():
    """Eight threads join eight grids at once, in every mode, with a
    shortened switch interval: a buffer set shared by two joins would
    mix their pairs."""
    grids = [
        _grid(10 + k, 500 + 40 * k, METRICS[k % 4], budget=300 + 97 * k)
        for k in range(8)
    ]
    expected = [_answers(grid, seed=k) for k, grid in enumerate(grids)]
    wrong: list[int] = []
    done: list[int] = []

    def work(k: int) -> None:
        for __ in range(4):
            if not _equal(_answers(grids[k], seed=k), expected[k]):
                wrong.append(k)
        done.append(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert sorted(done) == list(range(8))
    assert wrong == []


def test_a_repeated_join_reuses_its_pass_buffers():
    """The second of two equal counting joins over more than 100,000
    candidate pairs allocates no pair-sized array: its passes write into
    the buffers the first one left."""
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 10, size=(2_000, 2))
    grid = GridIndex(points, cell_size=1.0)
    pairs = grid.candidate_pairs(1.0)
    assert pairs > 100_000
    ids = np.arange(len(points))
    first = grid.region_query_batch(ids, 1.0, count_only=True)
    tracemalloc.start()
    try:
        second = grid.region_query_batch(ids, 1.0, count_only=True)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second)
    # Eight bytes per pair would be one pair-sized index or distance
    # array; the per-query and per-cell arrays stay far below it.
    assert peak < 1_000_000 < 8 * pairs


def test_kept_buffer_sets_stay_within_their_bound():
    """A row answer of more than a quarter pass and a lone query over the
    pass budget leave nothing larger behind: every kept set holds at most
    one pass of pair arrays plus a quarter pass of staged answer.
    (Sets kept by earlier tests may have served grids of other dimensions,
    whose passes differ in shape, so the list starts empty.)"""
    grid_module._FREE_BUFFERS.clear()
    rng = np.random.default_rng(8)
    grid = GridIndex(rng.uniform(0, 10, size=(20_000, 2)), cell_size=1.0)
    for queries in (2_000, 400):
        hits, __ = grid.join(grid.points[:queries], 1.0)
        assert hits.nbytes > PASS_BUDGET_BYTES // 4
    # A whole-graph fetch stages every hit from both ends.
    hits, __ = GridIndex(grid.points[:3_000], cell_size=1.0)._self_join(1.0)
    assert hits.nbytes > PASS_BUDGET_BYTES // 4
    dense = GridIndex(rng.uniform(0, 1, size=(100_000, 2)), cell_size=1.0)
    assert len(dense) > dense._pair_budget  # one cell: a lone oversize query
    dense.join(dense.points[:1], 1.0)
    for kept in list(grid_module._FREE_BUFFERS):
        sizes = {name: array.nbytes for name, array in kept._arrays.items()}
        staged = sizes.pop("hits", 0)
        assert sum(sizes.values()) <= PASS_BUDGET_BYTES
        assert staged <= PASS_BUDGET_BYTES // 4


@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_join_refuses_a_nan_or_negative_radius(bad):
    """A NaN radius used to cover every pair in reach."""
    index = GridIndex(np.asarray([[0.0, 0.0], [5.0, 5.0]]), cell_size=1.0)
    query = np.asarray([[0.9, 0.0]])
    nearest, distance = index.join(query, 1.0, radii=[0.5, 0.5])
    assert nearest.tolist() == [-1] and distance.tolist() == [np.inf]
    with pytest.raises(ValueError, match=r"radii\[0\]"):
        index.join(query, 1.0, radii=[bad, 0.5])


def _table_case(seed: int, dim: int, n: int, metric: str, cell: float):
    """A grid, and queries that are not indexed points: inside the
    extent, on indexed points, far outside it, and with a NaN or infinite
    coordinate."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-3, 3, size=(n, dim))
    points[: n // 3] = rng.normal(0, 0.4, size=(n // 3, dim))
    queries = np.concatenate(
        [
            rng.uniform(-5, 5, size=(2 * n, dim)),
            points[rng.integers(n, size=n // 4 + 1)],
            rng.uniform(-1, 1, size=(6, dim))
            * [[1e6], [1e12], [-1e6], [1e300], [3.5], [-7]],
        ]
    )
    rows = rng.integers(len(queries), size=3)
    for row, bad in zip(rows, (np.nan, np.inf, -np.inf)):
        queries[row, rng.integers(dim)] = bad
    return GridIndex(points, metric, cell_size=cell), queries


def _radii_sweep(grid: GridIndex) -> list[float]:
    """The build radius, one below it with the same ring reach, and one
    of another ring reach."""
    cell = grid.cell_size
    reach = grid._rings0
    below = next(f * cell for f in (0.6, 0.8, 0.95) if grid._rings(f * cell) == reach)
    other = next(f * cell for f in (2.5, 4.0) if grid._rings(f * cell) != reach)
    return [cell, below, other]


def _assert_table_answers(grid: GridIndex, queries: np.ndarray, seed: int) -> None:
    """Rows, counts and the reducing join equal brute force and the dense
    relabel reference bit for bit, at every radius of the sweep."""
    metric = get_metric(grid.metric.name)
    points = grid.points
    brute = BruteForceIndex(points, metric)
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0, 1.5 * grid.cell_size, size=len(points))
    for eps in _radii_sweep(grid):
        hits, offsets = grid.range_query_batch(queries, eps)
        expected_hits, expected_offsets = brute.range_query_batch(queries, eps)
        assert np.array_equal(hits, expected_hits)
        assert np.array_equal(offsets, expected_offsets)
        counts = grid.range_query_batch(queries, eps, count_only=True)
        assert np.array_equal(counts, np.diff(expected_offsets))
        nearest, distance = grid.join(queries, eps, radii=radii)
        model = GlobalModel(
            points=points,
            eps_ranges=np.minimum(radii, eps),
            site_ids=np.zeros(len(points), dtype=np.intp),
            local_cluster_ids=np.zeros(len(points), dtype=np.intp),
            global_labels=np.arange(len(points)),
            eps_global=1.0,
            min_pts_global=2,
        )
        labels, __ = relabel_site_reference(
            queries, np.full(len(queries), NOISE), model, metric=metric
        )
        assert np.array_equal(nearest, labels)
        covered = nearest >= 0
        assert np.isinf(distance[~covered]).all()
        exact = [
            metric.to_many(query, points[[j]])[0]
            for query, j in zip(queries[covered], nearest[covered])
        ]
        assert distance[covered].tobytes() == np.asarray(exact, dtype=float).tobytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    n=st.integers(1, 160),
    metric=st.sampled_from(METRICS),
    cell=st.sampled_from([0.5, 0.75, 1.25]),
)
def test_the_query_table_answers_as_brute_force(seed, dim, n, metric, cell):
    grid, queries = _table_case(seed, dim, n, metric, cell)
    stencil = (2 * grid._rings0 + 1) ** dim
    assert (grid._box is not None) == (stencil <= grid.n_occupied_cells)
    _assert_table_answers(grid, queries, seed)
    if grid._box is not None:
        cell_keys, offsets, neighbours, counts = grid._query_table
        # Every occupied cell is a neighbour of each cell of its stencil;
        # the last row is the empty one.
        assert neighbours.size == grid.n_occupied_cells * stencil
        assert offsets.size == cell_keys.size + 2 and counts[-1] == 0
        assert (np.diff(cell_keys) > 0).all()


@pytest.mark.parametrize("guard", ["few cells", "entry budget"])
def test_the_per_call_lookup_answers_where_the_table_does_not_apply(
    guard, monkeypatch
):
    """A grid with fewer occupied cells than the stencil has, or one whose
    table would exceed the entry budget, groups its queries per call."""
    if guard == "few cells":
        grid, queries = _table_case(3, 3, 12, "euclidean", 0.5)
    else:
        monkeypatch.setattr(grid_module, "_TABLE_ENTRIES", 100)
        grid, queries = _table_case(4, 2, 120, "euclidean", 0.5)
        assert grid.n_occupied_cells * 9 > 100
    assert grid._box is None
    _assert_table_answers(grid, queries, seed=5)
    assert grid._query_table is None


def test_threads_racing_the_first_query_get_the_sequential_answers():
    """Eight threads ask a fresh grid's first queries at once, under a
    shortened switch interval; each gets what one thread asking alone
    gets."""
    cases = [_table_case(20 + dim, dim, 150, "euclidean", 0.75) for dim in (1, 2, 3)]
    rng = np.random.default_rng(9)
    expected = []
    for grid, queries in cases:
        radii = rng.uniform(0, 1.0, size=len(grid))
        alone = GridIndex(grid.points, grid.metric, cell_size=grid.cell_size)
        eps = alone.cell_size
        expected.append(
            (radii, alone.join(queries, eps), alone.join(queries, eps, radii=radii))
        )
    for (grid, queries), (radii, rows, reduced) in zip(cases, expected):
        assert grid._box is not None and grid._query_table is None
        barrier = threading.Barrier(8)
        wrong: list[int] = []

        def work(k: int) -> None:
            barrier.wait()
            answer = (
                grid.join(queries, grid.cell_size, radii=radii)
                if k % 2
                else grid.join(queries, grid.cell_size)
            )
            if not all(map(np.array_equal, answer, reduced if k % 2 else rows)):
                wrong.append(k)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert wrong == []
