"""Cross-cutting edge cases: condensation under other metrics, empty sites
in the runner, duplicate-heavy data through the whole pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dbdc import DBDCConfig, run_dbdc
from repro.core.local import build_rep_scor_model
from repro.data.distance import manhattan
from repro.data.generators import gaussian_blobs
from repro.distributed.hierarchy import condense_models
from tests.model_rows import covers


class TestCondenseUnderManhattan:
    def test_coverage_preserved(self, rng):
        points, __ = gaussian_blobs([120], np.asarray([[0.0, 0.0]]), 1.0, seed=3)
        model = build_rep_scor_model(points, 1.2, 4, metric="manhattan").model
        condensed = condense_models([model], 1.2, metric="manhattan")
        assert len(condensed) <= len(model)
        for point in points[::5]:
            if covers(model, point, manhattan):
                assert covers(condensed, point, manhattan)


class TestDegenerateData:
    def test_all_duplicate_points_pipeline(self):
        """Thousands of identical objects: one cluster, one representative
        per site, quality 100 %."""
        points = np.zeros((300, 2))
        run = run_dbdc(
            [points[:150], points[150:]],
            DBDCConfig(eps_local=1.0, min_pts_local=5),
        )
        assert run.n_global_clusters == 1
        assert run.n_representatives == 2  # one specific core point per site
        assert (run.labels() >= 0).all()

    def test_single_point_sites(self):
        """Sites holding a single object each: everything is noise."""
        run = run_dbdc(
            [np.asarray([[0.0, 0.0]]), np.asarray([[50.0, 50.0]])],
            DBDCConfig(eps_local=1.0, min_pts_local=3),
        )
        assert run.n_global_clusters == 0
        assert (run.labels() == -1).all()

    def test_collinear_points(self):
        """A perfect line — degenerate bounding boxes everywhere."""
        points = np.column_stack([np.linspace(0, 10, 200), np.zeros(200)])
        run = run_dbdc(
            [points[::2], points[1::2]],
            DBDCConfig(eps_local=0.3, min_pts_local=4),
        )
        assert run.n_global_clusters == 1

    def test_one_dimensional_data(self):
        """d = 1 must work end to end (indexes, models, relabel)."""
        rng = np.random.default_rng(4)
        points = np.concatenate(
            [rng.normal(0, 0.5, size=(100, 1)), rng.normal(20, 0.5, size=(100, 1))]
        )
        run = run_dbdc(
            [points[::2], points[1::2]],
            DBDCConfig(eps_local=0.8, min_pts_local=4),
        )
        assert run.n_global_clusters == 2
