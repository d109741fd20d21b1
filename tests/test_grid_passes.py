"""The grid join's pass buffers: answers never alias them, one join uses a
buffer set at a time, and a repeated join reuses its set instead of
allocating its pair arrays again, in every mode of the join (the self
mode of a whole-graph fetch included).  Also the join's refusal of a NaN
or negative radius."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.index import GridIndex
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
