"""Unit tests for the persistence helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local import build_rep_scor_model
from repro.core.global_model import build_global_model
from repro.data.generators import gaussian_blobs
from repro.data.io import (
    global_model_from_dict,
    global_model_to_dict,
    load_global_model,
    load_labels_csv,
    load_local_model,
    load_points,
    local_model_from_dict,
    local_model_to_dict,
    save_global_model,
    save_labels_csv,
    save_local_model,
    save_points,
)


@pytest.fixture
def local_model():
    points, __ = gaussian_blobs([60], np.asarray([[0.0, 0.0]]), 0.8, seed=9)
    return build_rep_scor_model(points, 1.0, 4, site_id=3).model


class TestPointsNpz:
    def test_roundtrip_with_labels(self, tmp_path, rng):
        points = rng.normal(size=(40, 2))
        labels = rng.integers(-1, 4, size=40)
        path = tmp_path / "data.npz"
        save_points(path, points, labels)
        loaded_points, loaded_labels = load_points(path)
        np.testing.assert_array_equal(loaded_points, points)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_roundtrip_without_labels(self, tmp_path, rng):
        points = rng.normal(size=(10, 3))
        path = tmp_path / "data.npz"
        save_points(path, points)
        loaded_points, loaded_labels = load_points(path)
        np.testing.assert_array_equal(loaded_points, points)
        assert loaded_labels is None

    def test_length_mismatch_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError, match="labels"):
            save_points(tmp_path / "x.npz", rng.normal(size=(5, 2)), [0, 1])


class TestLabelsCsv:
    def test_roundtrip(self, tmp_path, rng):
        labels = rng.integers(-1, 5, size=30)
        path = tmp_path / "labels.csv"
        save_labels_csv(path, labels)
        np.testing.assert_array_equal(load_labels_csv(path), labels)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_labels_csv(path)

    def test_gap_in_indices_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("index,label\n0,1\n2,1\n")
        with pytest.raises(ValueError, match="contiguous"):
            load_labels_csv(path)


class TestLocalModelJson:
    def test_dict_roundtrip(self, local_model):
        restored = local_model_from_dict(local_model_to_dict(local_model))
        assert restored.site_id == local_model.site_id
        assert restored.scheme == local_model.scheme
        assert len(restored) == len(local_model)
        np.testing.assert_allclose(local_model.points, restored.points)
        np.testing.assert_allclose(local_model.eps_ranges, restored.eps_ranges)

    def test_file_roundtrip(self, tmp_path, local_model):
        path = tmp_path / "model.json"
        save_local_model(path, local_model)
        restored = load_local_model(path)
        assert restored.n_objects == local_model.n_objects
        assert restored.max_eps_range == pytest.approx(local_model.max_eps_range)

    def test_wrong_kind_rejected(self, local_model):
        payload = local_model_to_dict(local_model)
        payload["kind"] = "global_model"
        with pytest.raises(ValueError, match="not a local model"):
            local_model_from_dict(payload)


class TestGlobalModelJson:
    def test_roundtrip(self, tmp_path, local_model):
        model, __ = build_global_model([local_model], eps_global=2.0)
        path = tmp_path / "global.json"
        save_global_model(path, model)
        restored = load_global_model(path)
        assert restored.eps_global == model.eps_global
        assert restored.n_global_clusters == model.n_global_clusters
        np.testing.assert_array_equal(restored.global_labels, model.global_labels)

    def test_wrong_kind_rejected(self, local_model):
        model, __ = build_global_model([local_model], eps_global=2.0)
        payload = global_model_to_dict(model)
        payload["kind"] = "local_model"
        with pytest.raises(ValueError, match="not a global model"):
            global_model_from_dict(payload)

    def test_restored_model_usable_for_relabel(self, tmp_path, local_model):
        """A reloaded global model must drive the §7 update unchanged."""
        from repro.core.relabel import relabel_site
        from repro.data.generators import gaussian_blobs

        model, __ = build_global_model([local_model], eps_global=2.0)
        path = tmp_path / "global.json"
        save_global_model(path, model)
        restored = load_global_model(path)
        points, __truth = gaussian_blobs([20], np.asarray([[0.0, 0.0]]), 0.5, seed=1)
        local_labels = np.zeros(20, dtype=np.intp)
        original, __ = relabel_site(points, local_labels, model, site_id=3)
        reloaded, __ = relabel_site(points, local_labels, restored, site_id=3)
        np.testing.assert_array_equal(original, reloaded)
