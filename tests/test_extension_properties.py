"""Hypothesis property tests for the extension subsystems."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import dbscan
from repro.clustering.optics import extract_dbscan_clustering, optics
from repro.core.local import build_rep_scor_model
from repro.data.distance import euclidean
from repro.data.generators import gaussian_blobs
from repro.distributed.hierarchy import condense_models
from repro.distributed.incremental_site import model_drift
from tests.model_rows import covers


def _site_models(seed: int, n_sites: int, eps: float):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 30, size=(2, 2))
    models = []
    points_per_site = []
    for site_id in range(n_sites):
        pts, __ = gaussian_blobs([40, 40], centers, 1.0, seed=rng)
        points_per_site.append(pts)
        models.append(
            build_rep_scor_model(pts, eps, 4, site_id=site_id).model
        )
    return models, points_per_site


@given(
    seed=st.integers(0, 20_000),
    radius_factor=st.floats(0.3, 2.0),
)
@settings(max_examples=15, deadline=None)
def test_condensation_preserves_coverage(seed, radius_factor):
    """For ANY absorption radius, every object covered before condensation
    stays covered after — the invariant the hierarchy's quality rests on."""
    eps = 1.1
    models, points_per_site = _site_models(seed, 2, eps)
    condensed = condense_models(models, radius_factor * eps)
    assert len(condensed) <= sum(len(m) for m in models)
    for pts in points_per_site:
        for point in pts[::11]:
            before = any(covers(model, point, euclidean) for model in models)
            if before:
                assert covers(condensed, point, euclidean)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=15, deadline=None)
def test_condensation_monotone_in_radius(seed):
    """A larger absorption radius never keeps more representatives."""
    models, __ = _site_models(seed, 2, 1.1)
    small = condense_models(models, 0.5)
    large = condense_models(models, 2.0)
    assert len(large) <= len(small)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=15, deadline=None)
def test_drift_is_zero_on_self_and_symmetric(seed):
    models, __ = _site_models(seed, 1, 1.1)
    model = models[0]
    assert model_drift(model, model).drift == 0.0
    other = condense_models([model], 1.1)
    forward = model_drift(model, other)
    backward = model_drift(other, model)
    assert forward.uncovered_fraction == backward.uncovered_fraction


@given(
    seed=st.integers(0, 20_000),
    cut_factor=st.floats(0.3, 1.0),
)
@settings(max_examples=15, deadline=None)
def test_optics_cut_equivalent_to_dbscan(seed, cut_factor):
    """Any OPTICS cut at eps' <= eps matches DBSCAN(eps') as a partition
    of the core points, for random data and cut radii."""
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [rng.normal(0, 0.8, size=(40, 2)), rng.uniform(-5, 5, size=(30, 2))]
    )
    eps = 1.5
    cut = cut_factor * eps
    ordering = optics(points, eps, 4)
    extracted = extract_dbscan_clustering(ordering, cut)
    reference = dbscan(points, cut, 4)
    core = reference.core_mask
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for a, b in zip(extracted[core], reference.labels[core]):
        assert a >= 0 and b >= 0
        assert mapping.setdefault(int(a), int(b)) == int(b)
        assert reverse.setdefault(int(b), int(a)) == int(a)
