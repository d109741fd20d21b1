"""Label queries read a per-model label table: ``coverage_labels`` ≡ the
reference relabel.

``coverage_labels`` answers a point from the label table its model keeps
where the table decides the point's cell, and folds the other points
through ``relabel_site``; either way its labels must be bit for bit the
pure-coverage labels of ``relabel_site_reference`` (``site_id=None``,
noise local labels).  The layouts below put objects where a wrong
decision would show: on the table's cell edges and corners, at exactly
ε_r from a representative along an axis, between representatives of
different labels, beyond the table, and 10^6 away from the origin.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.labels import NOISE
from repro.core import relabel
from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
from repro.core.models import GlobalModel
from repro.core.relabel import coverage_labels, relabel_site, relabel_site_reference
from repro.data.datasets import load_dataset
from repro.data.distance import get_metric
from repro.distributed.partition import partition

TABLE_METRICS = ["euclidean", "manhattan", "chebyshev"]


def _model(points, eps_ranges, labels) -> GlobalModel:
    n = len(eps_ranges)
    return GlobalModel(
        points=np.asarray(points, dtype=float),
        eps_ranges=eps_ranges,
        site_ids=np.zeros(n, dtype=np.intp),
        local_cluster_ids=np.zeros(n, dtype=np.intp),
        global_labels=labels,
        eps_global=1.0,
    )


def _reference(objects, model, metric) -> np.ndarray:
    noise = np.full(len(objects), NOISE, dtype=np.intp)
    return relabel_site_reference(objects, noise, model, metric=metric)[0]


def _table(model, metric):
    return relabel._label_table(model, get_metric(metric))


@given(
    seed=st.integers(0, 100_000),
    metric=st.sampled_from(TABLE_METRICS),
    dim=st.integers(1, 3),
    unit=st.sampled_from([1.0, 0.25]),
    n_reps=st.integers(1, 40),
    n_labels=st.integers(1, 4),
    offset=st.sampled_from([0.0, 1e6, -1e6]),
)
@settings(max_examples=150, deadline=None)
def test_labels_equal_the_reference(seed, metric, dim, unit, n_reps, n_labels, offset):
    """Representatives on a lattice of ``unit`` with ε-ranges of one to
    eight units and one to four labels; objects on the table's cell edges
    and corners (one cell beyond it included), at exactly ε_r from a
    representative along an axis, halfway between lattice points and
    anywhere around the model.  All coordinates are dyadic, so the edges
    and the ε_r distances are exact, also 10^6 from the origin."""
    rng = np.random.default_rng(seed)
    reps = rng.integers(0, 24, size=(n_reps, dim)) * unit + offset
    eps_ranges = unit * rng.choice([1.0, 2.0, 3.0, 4.0, 6.0, 8.0], size=n_reps)
    model = _model(reps, eps_ranges, rng.integers(0, n_labels, size=n_reps))
    table = _table(model, metric)
    assert table is not None
    k = 60
    which = rng.integers(0, n_reps, size=k)
    at_range = reps[which].copy()
    at_range[np.arange(k), rng.integers(0, dim, size=k)] += (
        rng.choice([-1.0, 1.0], size=k) * eps_ranges[which]
    )
    edges = table.origin + table.cell * rng.integers(
        -1, table.shape.astype(int) + 2, size=(k, dim)
    )
    halfway = rng.integers(-2, 50, size=(k, dim)) * (unit / 2) + offset
    around = rng.uniform(-10 * unit, 34 * unit, size=(k, dim)) + offset
    objects = np.concatenate([at_range, edges, halfway, around])
    got, folded = coverage_labels(objects, model, metric=metric)
    np.testing.assert_array_equal(got, _reference(objects, model, metric))
    assert got.dtype == np.intp
    assert 0 <= folded <= len(objects)


@pytest.mark.parametrize("metric", TABLE_METRICS)
def test_a_single_representative_decides_inside_and_outside(metric):
    model = _model([[2.0, 3.0]], [1.0], [7])
    objects = np.asarray(
        [[2.0, 3.0], [2.1, 3.1], [3.0, 3.0], [2.0, 2.0], [3.5, 3.0], [40.0, -9.0]]
    )
    got, folded = coverage_labels(objects, model, metric=metric)
    np.testing.assert_array_equal(got, _reference(objects, model, metric))
    assert list(got[:2]) == [7, 7] and list(got[-2:]) == [NOISE, NOISE]
    # The centre's cell and the far points are decided; the two points at
    # exactly ε_r lie on a cover boundary.
    assert folded <= 4


def test_an_empty_model_labels_every_point_noise():
    model = _model(np.empty((0, 2)), [], [])
    objects = np.arange(8.0).reshape(4, 2)
    got, __ = coverage_labels(objects, model)
    np.testing.assert_array_equal(got, np.full(4, NOISE))
    np.testing.assert_array_equal(got, _reference(objects, model, "euclidean"))


def test_points_far_beyond_the_table_are_noise():
    model = _model([[0.0, 0.0], [1.0, 0.5]], [1.0, 1.0], [0, 1])
    objects = np.asarray([[1e300, -1e300], [-1.7e308, 5.0], [0.0, 1e15]])
    with np.errstate(all="raise"):
        got, folded = coverage_labels(objects, model)
    np.testing.assert_array_equal(got, np.full(3, NOISE))
    assert folded == 0


def _spread_model() -> GlobalModel:
    """Two representatives 10^4 apart with ε_r 0.1: about 10^11 cells."""
    return _model([[0.0, 0.0], [1e4, 1e4]], [0.1, 0.1], [0, 1])


def _dense_3d_model() -> GlobalModel:
    """400 representatives in a 10-cube, each with ε_r 1: a box of at
    least 9^3 cells each, more pairs than the build evaluates."""
    rng = np.random.default_rng(5)
    return _model(rng.uniform(0, 10, size=(400, 3)), np.ones(400), np.arange(400))


@pytest.mark.parametrize(
    "model, metric",
    [
        (_model([[0.0, 0.0], [0.5, 0.0]], [1.0, 2.0], [0, 1]), "squared_euclidean"),
        (_spread_model(), "euclidean"),
        (_dense_3d_model(), "chebyshev"),
    ],
    ids=["squared_euclidean", "over_the_cell_cap", "over_the_pair_cap"],
)
def test_models_outside_the_limits_fold_every_point(model, metric):
    rng = np.random.default_rng(0)
    low, high = model.points.min(axis=0) - 1, model.points.max(axis=0) + 1
    objects = np.concatenate(
        [rng.uniform(low, high, size=(50, model.dim)), model.points[:20] + 0.05]
    )
    assert _table(model, metric) is None
    got, folded = coverage_labels(objects, model, metric=metric)
    assert folded == len(objects)
    np.testing.assert_array_equal(got, _reference(objects, model, metric))


BAD_POINTS = {
    "nan": np.asarray([[0.0, 1.0], [np.nan, 2.0]]),
    "inf": np.asarray([[np.inf, 1.0]]),
    "three_columns": np.zeros((4, 3)),
    "one_column": np.zeros((4, 1)),
    "flat": np.zeros(4),
}


@pytest.mark.parametrize("name", sorted(BAD_POINTS))
def test_bad_points_raise_what_relabel_site_raises(name):
    points = BAD_POINTS[name]
    model = _model([[0.0, 0.0], [3.0, 0.0]], [1.0, 1.0], [0, 1])
    noise = np.full(len(points), NOISE, dtype=np.intp)
    with pytest.raises(ValueError) as expected:
        relabel_site(points, noise, model, site_id=None)
    with pytest.raises(ValueError) as got:
        coverage_labels(points, model)
    assert str(got.value) == str(expected.value)


def test_an_unknown_kernel_is_refused_even_where_the_table_decides():
    model = _model([[0.0, 0.0]], [1.0], [0])
    assert coverage_labels(np.zeros((1, 2)), model)[1] == 0
    with pytest.raises(ValueError, match="unknown relabel kernel"):
        coverage_labels(np.zeros((1, 2)), model, kernel="fast")


@pytest.fixture(scope="module")
def storm():
    """Data set A at 2,000 points on 4 sites: the query storm's model."""
    data = load_dataset("A", cardinality=2000, seed=0)
    model = run_dbdc_partitioned(
        data.points,
        partition(data.points, 4, "uniform_random", 42),
        DBDCConfig(eps_local=data.eps_local, min_pts_local=data.min_pts),
    ).result.global_model
    return data.points, model


@pytest.mark.parametrize("kernel", ["auto", "reference"])
@pytest.mark.parametrize("metric", TABLE_METRICS)
def test_the_table_answers_most_points_of_a_clustered_model(storm, metric, kernel):
    points, model = storm
    got, folded = coverage_labels(points, model, metric=metric, kernel=kernel)
    np.testing.assert_array_equal(got, _reference(points, model, metric))
    assert folded < 0.1 * len(points)


def test_the_table_is_built_once_and_stays_out_of_equality_and_pickles(
    storm, monkeypatch
):
    points, model = storm
    model = pickle.loads(pickle.dumps(model))
    builds: list[int] = []
    build = relabel._build_label_table

    def counted(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(relabel, "_build_label_table", counted)
    results: list = [None] * 8

    def query(i: int) -> None:
        results[i] = coverage_labels(points[i * 100 : i * 100 + 256], model)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert builds == [1]
    for i, labels in enumerate(results):
        block = points[i * 100 : i * 100 + 256]
        np.testing.assert_array_equal(labels, _reference(block, model, "euclidean"))
    key = ("labels", id(get_metric("euclidean")))
    assert key in model._cover_grids
    assert pickle.loads(pickle.dumps(model))._cover_grids == {}
    assert model == pickle.loads(pickle.dumps(model))
