"""Non-finite coordinates are refused, never silently clustered.

A NaN or infinite coordinate has no grid cell and no meaningful distance.
Left in, one such row used to corrupt the grid's cell keys and ring
bounds: DBSCAN split 199 ordinary points into dozens of spurious clusters
and a label query's other rows changed labels.  Every index now refuses
the row when it is built, every relabel kernel refuses a site holding
one, the wire codec refuses it on decode, and the service answers such a
label query with a typed error and keeps serving.

Non-finite radii get one answer from every index: a NaN radius matches
nothing.  The grid refuses an infinite radius and a non-finite cell size
with an error that names it, since it scans finitely many cell rings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import dbscan
from repro.clustering.labels import NOISE
from repro.core.global_model import build_global_model
from repro.core.local import build_local_model
from repro.core.relabel import relabel_site
from repro.data.datasets import load_dataset
from repro.data.distance import minkowski_metric
from repro.index import GridIndex, available_indexes, build_index
from repro.service import ServiceClient, ServiceConfig, ServiceError, ServiceHandle, wire
from repro.service.worker import run_site_worker
from tests.csr_rows import csr_rows

BAD_VALUES = [np.nan, -np.inf, np.inf]


def _gaussian_with(bad: float) -> np.ndarray:
    points = np.random.default_rng(3).normal(size=(200, 2))
    points[17, 1] = bad
    return points


@pytest.mark.parametrize("kind", available_indexes())
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_every_index_refuses_non_finite_points(kind, bad):
    with pytest.raises(ValueError, match="finite"):
        build_index(_gaussian_with(bad), kind, eps=0.3)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_dbscan_refuses_instead_of_splitting_clusters(bad):
    with pytest.raises(ValueError, match="finite"):
        dbscan(_gaussian_with(bad), 0.3, 4)


@pytest.mark.parametrize("kind", ["brute", "grid", "kdtree"])
def test_non_finite_query_rows_match_nothing(kind):
    """A non-finite *query* (not an indexed point) matches nothing and
    leaves the other rows of its batch alone."""
    points = np.random.default_rng(3).normal(size=(200, 2))
    index = build_index(points, kind, eps=0.3)
    queries = points[:6].copy()
    queries[2, 0] = np.nan
    queries[4, 1] = -np.inf
    rows = csr_rows(index.range_query_batch(queries, 0.3))
    assert len(rows) == len(queries)
    for i, row in enumerate(rows):
        expected = [] if i in (2, 4) else index.range_query(points[i], 0.3)
        assert np.array_equal(row, expected)


@pytest.mark.parametrize(
    "kernel, metric",
    [
        ("auto", "euclidean"),
        ("reference", "euclidean"),
        # ``auto`` resolves to the reference kernel off the grid metrics.
        ("auto", minkowski_metric(3)),
    ],
    ids=["vectorized", "reference", "minkowski3-auto"],
)
def test_vectorized_relabel_refuses_a_nan_row(kernel, metric):
    """Every kernel refuses the row, not only the one whose index happens
    to be built over the site's points."""
    data = load_dataset("A", cardinality=400, seed=5)
    model, __ = build_global_model(
        [build_local_model(data.points, data.eps_local, data.min_pts).model]
    )
    queries = data.points[:256].copy()
    queries[9] = np.nan
    with pytest.raises(ValueError, match="finite"):
        relabel_site(
            queries, np.full(256, NOISE, dtype=np.intp), model,
            kernel=kernel, metric=metric,
        )


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_decode_points_refuses_non_finite(bad):
    points = np.zeros((4, 3))
    points[2, 0] = bad
    with pytest.raises(wire.CodecError, match="non-finite"):
        wire.decode_points(wire.encode_points(points))


def test_service_answers_nan_query_with_typed_error_and_keeps_serving():
    data = load_dataset("A", cardinality=300, seed=5)
    with ServiceHandle.start(ServiceConfig(expected_sites=1)) as handle:
        result = run_site_worker(
            handle.host, handle.port, 0, data.points,
            eps_local=data.eps_local, min_pts_local=data.min_pts,
        )
        assert result.verdict == "admitted"
        queries = data.points[:64].copy()
        with ServiceClient(handle.host, handle.port) as client:
            expected = client.query(queries)
            queries[5, 1] = np.nan
            with pytest.raises(ServiceError) as excinfo:
                client.query(queries)
            assert excinfo.value.status == "bad_request"
            assert "non-finite" in excinfo.value.detail
            # The same connection still gets answers.
            assert np.array_equal(client.query(data.points[:64]), expected)


@pytest.mark.parametrize("kind", ["brute", "grid", "kdtree", "rtree", "mtree"])
def test_a_nan_radius_matches_nothing_on_every_index(kind):
    """The grid used to answer each query's own-cell points (``d > nan``
    marks no pair as a miss) while its own count said 0."""
    points = np.random.default_rng(3).normal(size=(200, 2))
    index = build_index(points, kind, eps=0.3)
    everyone = np.arange(len(points))
    for rows in (
        csr_rows(index.range_query_batch(points[:20], np.nan)),
        csr_rows(index.region_query_batch(everyone, np.nan)),
        [index.range_query(points[0], np.nan), index.region_query(5, np.nan)],
    ):
        assert all(row.size == 0 for row in rows)
    counts = index.region_query_batch(everyone, np.nan, count_only=True)
    assert np.array_equal(counts, np.zeros(len(points), dtype=np.intp))


def test_a_nan_radius_covers_nothing_in_the_grid_join():
    """The reducing mode used to return covers beyond their own radius."""
    points = np.random.default_rng(3).normal(size=(200, 2))
    grid = GridIndex(points, cell_size=0.5)
    queries = points[:30] + 0.01
    hits, offsets = grid.join(queries, np.nan)
    assert hits.size == 0
    assert np.array_equal(offsets, np.zeros(31, dtype=np.intp))
    nearest, distance = grid.join(queries, np.nan, radii=np.full(200, 0.5))
    assert np.array_equal(nearest, np.full(30, -1))
    assert np.array_equal(distance, np.full(30, np.inf))


def test_the_grid_refuses_an_infinite_radius():
    """It used to raise a bare ``OverflowError`` from its ring count."""
    grid = GridIndex(np.random.default_rng(3).normal(size=(50, 2)), cell_size=0.5)
    for call in (
        lambda: grid.region_query_batch(np.arange(50), np.inf),
        lambda: grid.range_query(np.zeros(2), np.inf),
        lambda: grid.join(np.zeros((1, 2)), np.inf, radii=np.full(50, 0.5)),
        lambda: grid.candidate_pairs(np.inf),
    ):
        with pytest.raises(ValueError, match="eps must be finite"):
            call()


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_the_grid_refuses_a_non_finite_cell_size(bad):
    """A NaN cell size used to be accepted with a cast warning, after
    which every query raised "cannot convert float NaN to integer"."""
    points = np.random.default_rng(3).normal(size=(50, 2))
    with pytest.raises(ValueError, match="cell_size must be positive and finite"):
        GridIndex(points, cell_size=bad)
    with pytest.raises(ValueError, match="eps"):
        build_index(points, "grid", eps=bad)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_auto_picks_no_grid_for_a_non_finite_radius(bad):
    index = build_index(np.random.default_rng(3).normal(size=(50, 2)), eps=bad)
    assert not isinstance(index, GridIndex)
