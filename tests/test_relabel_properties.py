"""Hypothesis property tests: vectorized relabel ≡ the reference kernel.

The vectorized kernel's contract is *bit-identical* labels and stats —
not "close", identical — across datasets, local-model schemes, metrics
and eps ranges, including tie-heavy layouts where several global
representatives cover the same object at exactly equal distance, and
grid-aligned layouts on the boundary of the fold's near stage (covers at
exactly ρ, ε-ranges below ρ, a memo that keeps covers at exactly ρ) in
one to four dimensions under every grid metric.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import relabel
from repro.core.global_model import build_global_model
from repro.core.local import build_local_model
from repro.core.models import GlobalModel
from repro.core.relabel import (
    CoverMemo,
    relabel_site,
    relabel_site_reference,
    resolve_relabel_kernel,
)
from repro.distributed.partition import partition, split


def _random_points(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    clumped = rng.normal(0, 1.0, size=(n // 2, 2))
    scattered = rng.uniform(-8, 8, size=(n - n // 2, 2))
    return np.concatenate([clumped, scattered])


def _assert_kernels_agree(points, eps, min_pts, *, scheme, metric, n_sites):
    site_points = split(points, partition(points, n_sites, "uniform_random", 0))
    outcomes = [
        build_local_model(
            site, eps, min_pts, scheme=scheme, site_id=i, metric=metric
        )
        for i, site in enumerate(site_points)
    ]
    global_model, __ = build_global_model(
        [o.model for o in outcomes], metric=metric
    )
    for i, (site, outcome) in enumerate(zip(site_points, outcomes)):
        labels = outcome.clustering.labels
        ref_labels, ref_stats = relabel_site_reference(
            site, labels, global_model, site_id=i, metric=metric
        )
        vec_labels, vec_stats = relabel_site(
            site, labels, global_model, site_id=i, metric=metric,
            kernel="vectorized",
        )
        np.testing.assert_array_equal(vec_labels, ref_labels)
        assert vec_stats == ref_stats


@given(
    seed=st.integers(0, 100_000),
    n=st.integers(8, 120),
    eps=st.floats(0.3, 3.0),
    min_pts=st.integers(2, 5),
    scheme=st.sampled_from(["rep_scor", "rep_kmeans"]),
    n_sites=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_matches_reference(seed, n, eps, min_pts, scheme, n_sites):
    points = _random_points(seed, n)
    _assert_kernels_agree(
        points, eps, min_pts, scheme=scheme, metric="euclidean",
        n_sites=n_sites,
    )


@given(
    seed=st.integers(0, 100_000),
    metric=st.sampled_from(
        ["euclidean", "manhattan", "chebyshev", "squared_euclidean"]
    ),
)
@settings(max_examples=20, deadline=None)
def test_vectorized_matches_reference_per_metric(seed, metric):
    points = _random_points(seed, 60)
    _assert_kernels_agree(
        points, 1.0, 3, scheme="rep_scor", metric=metric, n_sites=2
    )


@given(
    seed=st.integers(0, 100_000),
    n=st.integers(20, 120),
    grid=st.integers(2, 5),
)
@settings(max_examples=30, deadline=None)
def test_tie_heavy_integer_layout(seed, n, grid):
    """Duplicate coordinates force exact distance ties between several
    representatives per object — the tie-break (lowest representative
    index wins) must match bitwise."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, grid, size=(n, 2)).astype(float)
    _assert_kernels_agree(
        points, 1.0, 2, scheme="rep_scor", metric="euclidean", n_sites=2
    )


def _lattice_model(points, eps_ranges, labels) -> GlobalModel:
    n = len(points)
    return GlobalModel(
        points=points,
        eps_ranges=eps_ranges,
        site_ids=np.zeros(n, dtype=np.intp),
        local_cluster_ids=np.zeros(n, dtype=np.intp),
        global_labels=labels,
        eps_global=1.0,
    )


@given(
    seed=st.integers(0, 100_000),
    metric=st.sampled_from(
        ["euclidean", "manhattan", "chebyshev", "squared_euclidean"]
    ),
    dim=st.integers(1, 4),
    unit=st.sampled_from([1.0, 0.25]),
    steps=st.integers(1, 2),
    n_dense=st.integers(1, 60),
    n_base=st.integers(0, 40),
)
@settings(max_examples=80, deadline=None)
def test_near_stage_boundary_layouts(
    seed, metric, dim, unit, steps, n_dense, n_base
):
    """Representatives and objects on a lattice of ``unit`` (objects also
    halfway between), every ε_r a multiple of ρ — ρ/2, ρ, 2ρ, 3ρ or 4ρ,
    the first representative of each fold at 4ρ, so ρ is a lattice
    distance (``steps`` units, squared under squared_euclidean, where a
    0.25 unit gives ε-ranges below 1).  Far representatives fill enough
    cells for both grids' query tables in most cases.  A memo folds the
    first ``n_base`` representatives, then the rest, in two stages
    whatever the object count; labels, stats and the memo equal the
    reference and a fresh fold (of the default, single-join size)."""
    rng = np.random.default_rng(seed)
    reach = steps * unit
    rho = reach**2 if metric == "squared_euclidean" else reach
    dense = rng.integers(0, 6, size=(n_dense, dim))
    spread = rng.integers(0, 60, size=(3**dim + 8, dim))
    points = np.concatenate([dense, spread]).astype(float) * unit
    order = rng.permutation(len(points))
    points = points[order]
    eps_ranges = rho * rng.choice([0.5, 1.0, 2.0, 3.0, 4.0], size=len(points))
    n_base = min(n_base, len(points) - 1)
    eps_ranges[0] = eps_ranges[n_base] = 4 * rho
    labels = rng.permutation(len(points))
    objects = np.concatenate(
        [
            rng.integers(0, 13, size=(80, dim)) * (unit / 2),
            points[rng.integers(0, len(points), 20)] + unit / 2,
        ]
    )
    noise = np.full(len(objects), -1)
    model = _lattice_model(points, eps_ranges, labels)
    memo = CoverMemo()
    # A hundred objects take the near stage only below its size floor.
    with mock.patch.object(relabel, "_NEAR_MIN_OBJECTS", 0):
        if n_base:
            base = _lattice_model(
                points[:n_base], eps_ranges[:n_base], labels[:n_base]
            )
            relabel_site(objects, noise, base, metric=metric, memo=memo)
        got = relabel_site(objects, noise, model, metric=metric, memo=memo)
    expected = relabel_site_reference(objects, noise, model, metric=metric)
    np.testing.assert_array_equal(got[0], expected[0])
    assert got[1] == expected[1]
    fresh = CoverMemo()
    relabel_site(objects, noise, model, metric=metric, memo=fresh)
    np.testing.assert_array_equal(memo.nearest, fresh.nearest)
    np.testing.assert_array_equal(memo.distance, fresh.distance)


class TestKernelDispatch:
    def test_auto_resolves_to_vectorized_for_grid_metrics(self):
        for metric in ("euclidean", "manhattan", "chebyshev",
                       "squared_euclidean"):
            assert resolve_relabel_kernel("auto", metric) == "vectorized"

    def test_explicit_kernels_pass_through(self):
        assert resolve_relabel_kernel("reference", "euclidean") == "reference"
        assert resolve_relabel_kernel("vectorized", "euclidean") == "vectorized"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            resolve_relabel_kernel("warp", "euclidean")

    def test_relabel_site_rejects_unknown_kernel(self, rng):
        points = rng.normal(size=(10, 2))
        outcome = build_local_model(points, 1.0, 2, site_id=0)
        model, __ = build_global_model([outcome.model])
        with pytest.raises(ValueError, match="kernel"):
            relabel_site(
                points, outcome.clustering.labels, model, kernel="warp"
            )
