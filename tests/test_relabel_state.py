"""The relabel state a global model keeps: derived once, read by every
relabel against it.

:func:`~repro.core.relabel.relabel_site` reads the model's columns and,
per ``(start, metric)``, the grids over the representatives from
``start`` on — the cover grid (cell edge: their largest ε_r) and, where
the near stage runs, the near grid (cell edge: a quarter of it) — which
the model builds on first use and keeps.  The contract pinned here:

* many relabels against one model build one grid set per ``(start,
  metric)``; a session-shaped sequence builds two sets per commit (folds
  from the previous model's length and from 0), and two metrics build
  two; a fold too small for the near stage builds no near grid;
* threads relabelling one fresh model at once build each grid once and
  all equal :func:`~repro.core.relabel.relabel_site_reference`, which
  reads none of the kept state;
* no grid builds the neighbour table region queries read;
* the columns are read-only and equal a fresh stack of the local models;
* the grids stay out of pickles, equality and ``repr``;
* points of another dimensionality than a non-empty model's are refused.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import relabel
from repro.core.global_model import GlobalModelRepairer, build_global_model
from repro.core.local import build_local_model
from repro.core.models import stack_columns
from repro.core.relabel import CoverMemo, relabel_site, relabel_site_reference
from repro.data.distance import get_metric
from repro.index.grid import GridIndex
from repro.obs.registry import usable_cpu_count
from tests.model_rows import Row, global_model


@pytest.fixture()
def grid_builds(monkeypatch):
    """``(representatives, metric name, cell edge)`` of every grid the
    relabel module builds while the test runs, where a fold of any size
    takes the near stage (these sites hold 90 objects)."""
    monkeypatch.setattr(relabel, "_NEAR_MIN_OBJECTS", 0)
    builds: list[tuple[int, str, float]] = []

    class CountingGrid(GridIndex):
        def __init__(self, points, metric, *, cell_size):
            super().__init__(points, metric, cell_size=cell_size)
            builds.append((len(points), self.metric.name, cell_size))

    monkeypatch.setattr(relabel, "GridIndex", CountingGrid)
    return builds


def _grid_set(model, start=0, metric="euclidean"):
    """The builds of one fold start's grid set, where the near stage runs
    (these layouts fill enough cells for both query tables): the cover
    grid, then the near grid at a quarter of its cell edge (euclidean and
    chebyshev reach as far as their radius)."""
    cell = float(model.eps_ranges[start:].max())
    n = len(model) - start
    return [(n, metric, cell), (n, metric, cell / 4)]


def _sites(seed: int, n_sites: int, n: int = 90) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    centres = np.asarray([[0.0, 0.0], [3.0, 0.0], [6.0, 1.0]])
    return [
        np.concatenate(
            [
                centres[rng.integers(0, 3, n // 2)]
                + rng.normal(0, 0.6, size=(n // 2, 2)),
                rng.uniform(-3, 9, size=(n - n // 2, 2)),
            ]
        )
        for __ in range(n_sites)
    ]


def _outcomes(sites, metric="euclidean"):
    return [
        build_local_model(points, 0.8, 3, site_id=i, metric=metric)
        for i, points in enumerate(sites)
    ]


def _session(seed: int = 5, metric: str = "euclidean"):
    """A base model over three sites and its fold of three more, which
    keeps the base's representatives as its prefix."""
    sites = _sites(seed, 6)
    outcomes = _outcomes(sites, metric)
    base, __ = build_global_model(
        [o.model for o in outcomes[:3]], metric=metric
    )
    repairer = GlobalModelRepairer(base, metric=metric)
    for outcome in outcomes[3:]:
        repairer.add_model(outcome.model)
    return sites, outcomes, base, repairer.model()


def _reference(points, labels, model, site_id, metric="euclidean"):
    return relabel_site_reference(
        points, labels, model, site_id=site_id, metric=metric
    )


def _assert_equal(got, expected):
    np.testing.assert_array_equal(got[0], expected[0])
    assert got[1] == expected[1]


def test_relabels_against_one_model_build_one_grid(grid_builds):
    sites = _sites(1, 4)
    outcomes = _outcomes(sites)
    model, __ = build_global_model([o.model for o in outcomes])
    for __ in range(3):
        for i, (points, outcome) in enumerate(zip(sites, outcomes)):
            labels = outcome.clustering.labels
            got = relabel_site(points, labels, model, site_id=i)
            _assert_equal(got, _reference(points, labels, model, i))
    assert grid_builds == _grid_set(model)


def test_a_fold_below_the_near_floor_builds_the_cover_grid_alone(
    grid_builds, monkeypatch
):
    """The near grid is built by the first fold large enough for the
    near stage, so label queries of a few hundred objects never pay for
    it."""
    monkeypatch.setattr(relabel, "_NEAR_MIN_OBJECTS", 91)
    sites = _sites(1, 4)
    outcomes = _outcomes(sites)
    model, __ = build_global_model([o.model for o in outcomes])
    labels = outcomes[0].clustering.labels
    relabel_site(sites[0], labels, model, site_id=0)
    assert grid_builds == _grid_set(model)[:1]
    both = np.concatenate([sites[0], sites[1]])
    got = relabel_site(both, np.full(len(both), -1), model)
    _assert_equal(got, _reference(both, np.full(len(both), -1), model, None))
    assert grid_builds == _grid_set(model)


def test_a_session_commit_builds_one_grid_per_fold_start(grid_builds):
    """Sites seen before the commit fold from the previous model's length,
    a new site folds from 0: two grid sets over the commit, however many
    sites relabel against it."""
    sites, outcomes, base, folded = _session()
    memos = [CoverMemo() for __ in range(3)]
    for i, memo in enumerate(memos):
        relabel_site(
            sites[i], outcomes[i].clustering.labels, base, site_id=i, memo=memo
        )
    assert grid_builds == _grid_set(base)
    grid_builds.clear()
    for i in range(6):
        labels = outcomes[i].clustering.labels
        memo = memos[i] if i < 3 else CoverMemo()
        got = relabel_site(sites[i], labels, folded, site_id=i, memo=memo)
        _assert_equal(got, _reference(sites[i], labels, folded, i))
    assert grid_builds == _grid_set(folded, len(base)) + _grid_set(folded)


def test_each_metric_builds_its_own_grid(grid_builds):
    """One model relabeled under two metrics: the chebyshev ball covers
    points the euclidean ball of the same ε_r misses.  Two
    representatives fill too few cells for a query table, so each metric
    builds its cover grid alone."""
    reps = [Row((0.0, 0.0), 1.0, 0, 0), Row((4.0, 0.0), 1.0, 1, 0)]
    model = global_model(reps, [0, 1], eps_global=1.0)
    points = np.asarray([[0.9, 0.9], [0.5, 0.0], [4.8, 0.8], [2.0, 2.0]])
    noise = np.full(4, -1)
    expected = {"euclidean": [-1, 0, -1, -1], "chebyshev": [0, 0, 1, -1]}
    for metric in ("euclidean", "chebyshev", "euclidean", "chebyshev"):
        got = relabel_site(points, noise, model, metric=metric)
        _assert_equal(got, _reference(points, noise, model, None, metric))
        assert got[0].tolist() == expected[metric]
    assert grid_builds == [(2, "euclidean", 1.0), (2, "chebyshev", 1.0)]


def test_concurrent_relabels_of_a_fresh_model_build_each_grid_once(grid_builds):
    """More threads than cores, switching often, relabel one fresh model
    at once under two metrics and from two fold starts: every result
    equals the reference and each ``(start, metric)`` grid is built
    once."""
    sites, outcomes, base, folded = _session(seed=11)
    metrics = [get_metric("euclidean"), get_metric("chebyshev")]
    n_threads = max(8, 2 * (usable_cpu_count() or 1) + 2)
    jobs = []
    for k in range(n_threads):
        i = k % len(sites)
        metric = metrics[k % 2]
        memo = CoverMemo()
        if i < 3 and k % 4 < 2:
            # Primed on the base model: the fold starts past its prefix.
            relabel_site(
                sites[i], outcomes[i].clustering.labels, base,
                site_id=i, metric=metric, memo=memo,
            )
        jobs.append((i, metric, memo))
    grid_builds.clear()
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list[BaseException] = []

    def work(k: int) -> None:
        i, metric, memo = jobs[k]
        try:
            barrier.wait(timeout=30)
            results[k] = relabel_site(
                sites[i], outcomes[i].clustering.labels, folded,
                site_id=i, metric=metric, memo=memo,
            )
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(k,)) for k in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for (i, metric, __), got in zip(jobs, results):
        labels = outcomes[i].clustering.labels
        _assert_equal(got, _reference(sites[i], labels, folded, i, metric))
    expected = [
        build
        for metric in ("euclidean", "chebyshev")
        for start in (0, len(base))
        for build in _grid_set(folded, start, metric)
    ]
    assert len(expected) == 8
    assert Counter(grid_builds) == Counter(expected)


def test_cover_grids_build_no_neighbour_table(monkeypatch):
    """A fold's queries are a site's objects, not indexed points, so no
    cover or near grid builds the neighbour table that region queries
    read."""
    monkeypatch.setattr(relabel, "_NEAR_MIN_OBJECTS", 0)
    sites, outcomes, base, folded = _session()
    memos = [CoverMemo() for __ in range(6)]
    for model in (base, folded):
        for i, memo in enumerate(memos):
            labels = outcomes[i].clustering.labels
            relabel_site(sites[i], labels, model, site_id=i, memo=memo)
    grids = [
        grid for model in (base, folded) for __, grid in model._cover_grids.values()
    ]
    assert len(grids) == 4 and None not in grids
    assert all(grid._table is None for grid in grids)


def test_kept_arrays_are_read_only_and_equal_a_fresh_stack():
    """The columns a relabel reads are the model's own: read-only, equal
    to a fresh stack of the local models (base sites, then the folded
    ones) and sharing no memory with them."""
    sites, outcomes, __, model = _session()
    relabel_site(sites[0], outcomes[0].clustering.labels, model, site_id=0)
    local_models = [outcome.model for outcome in outcomes]
    names = ("points", "eps_ranges", "site_ids", "local_cluster_ids")
    for name, expected in zip(names, stack_columns(local_models)):
        kept = getattr(model, name)
        assert not kept.flags.writeable, name
        np.testing.assert_array_equal(kept, expected)
        with pytest.raises(ValueError):
            kept[0] = 0
        for local in local_models:
            assert not np.shares_memory(kept, getattr(local, name)), name


def test_the_state_stays_out_of_pickles_and_repr():
    sites, outcomes, __, model = _session()
    before = pickle.dumps(model)
    text = repr(model)
    got = relabel_site(sites[4], outcomes[4].clustering.labels, model, site_id=4)
    assert model._cover_grids
    after = pickle.dumps(model)
    assert len(after) == len(before)
    assert repr(model) == text
    restored = pickle.loads(after)
    assert restored._cover_grids == {}
    _assert_equal(
        relabel_site(
            sites[4], outcomes[4].clustering.labels, restored, site_id=4
        ),
        got,
    )


def test_the_state_stays_out_of_equality():
    model = global_model(
        [Row((0.0, 0.0), 1.0, 0, 0), Row((3.0, 0.0), 1.0, 1, 0)], [0, 1]
    )
    twin = copy.copy(model)
    relabel_site(np.zeros((3, 2)), np.full(3, -1), model)
    assert model._cover_grids and twin._cover_grids == {}
    assert model == twin


class TestDimensionality:
    MODEL = global_model([Row((48.0, 48.0), 5.0, 0, 0)], [10], eps_global=5.0)

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("kernel", ["vectorized", "reference"])
    def test_points_of_another_dimensionality_are_refused(self, columns, kernel):
        points = np.full((5, columns), 48.0)
        with pytest.raises(ValueError, match="2-dimensional"):
            relabel_site(points, np.full(5, -1), self.MODEL, kernel=kernel)
        with pytest.raises(ValueError, match="2-dimensional"):
            relabel_site_reference(points, np.full(5, -1), self.MODEL)

    def test_a_flat_point_array_is_refused(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            relabel_site(np.full(2, 48.0), np.full(2, -1), self.MODEL)

    def test_an_empty_batch_and_an_empty_model_still_relabel(self):
        labels, stats = relabel_site(
            np.empty((0, 2)), np.empty(0, dtype=np.intp), self.MODEL
        )
        assert labels.size == 0 and stats.n_objects == 0
        empty = global_model([], [], eps_global=1.0)
        for columns in (1, 3):
            labels, __ = relabel_site(
                np.zeros((4, columns)), np.full(4, -1), empty
            )
            assert labels.tolist() == [-1] * 4
