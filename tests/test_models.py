"""Unit tests for the model types and their wire serialization."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.models import GlobalModel, LocalModel
from repro.core.relabel import relabel_site
from tests.model_rows import Row, columns, global_model, local_model


def _rep(x, y, eps_range=1.0, site_id=0, local_cluster_id=0):
    return Row((x, y), eps_range, site_id, local_cluster_id)


def _one(row: Row) -> GlobalModel:
    return global_model([row], [0])


class TestRepresentative:
    """One representative row, checked when its model is constructed."""

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError, match="eps_range"):
            _one(_rep(0.0, 0.0, eps_range=-0.1))

    def test_covers(self):
        model = _one(_rep(0.0, 0.0, eps_range=2.0))
        labels, __ = relabel_site(np.asarray([[1.0, 1.0], [3.0, 0.0]]), [-1, -1], model)
        assert labels.tolist() == [0, -1]

    def test_covers_boundary_inclusive(self):
        model = _one(_rep(0.0, 0.0, eps_range=1.0))
        labels, __ = relabel_site(np.asarray([[1.0, 0.0]]), [-1], model)
        assert labels.tolist() == [0]

    def test_point_coerced_to_float(self):
        model = GlobalModel([[1, 2]], [1.0], [0], [0], [0], eps_global=1.0)
        assert model.points.dtype == float

    def test_rejects_nan_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            _one(_rep(float("nan"), 0.0))

    def test_rejects_infinite_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            _one(_rep(float("inf"), 0.0))

    def test_rejects_zero_range(self):
        with pytest.raises(ValueError, match="eps_range"):
            _one(_rep(0.0, 0.0, eps_range=0.0))

    def test_rejects_nan_range(self):
        with pytest.raises(ValueError, match="eps_range"):
            _one(_rep(0.0, 0.0, eps_range=float("nan")))


class TestColumns:
    """The column contract both models share."""

    def test_points_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            GlobalModel([1.0, 2.0], [1.0, 1.0], [0, 0], [0, 0], [0, 0], 1.0)

    @pytest.mark.parametrize("short", ["eps_ranges", "site_ids", "local_cluster_ids"])
    def test_columns_of_unequal_length_are_refused(self, short):
        cols = columns([_rep(0.0, 0.0), _rep(1.0, 1.0)])
        cols[short] = cols[short][:1]
        with pytest.raises(ValueError, match=short):
            GlobalModel(**cols, global_labels=[0, 0], eps_global=1.0)

    def test_inputs_are_copied_and_the_copies_read_only(self):
        points = np.asarray([[0.0, 0.0], [1.0, 1.0]])
        ranges = np.asarray([1.0, 2.0])
        model = LocalModel(0, points, ranges, [0, 1], 10, "rep_scor", 1.0, 5)
        assert points.flags.writeable and ranges.flags.writeable
        assert not np.shares_memory(model.points, points)
        for name in ("points", "eps_ranges", "site_ids", "local_cluster_ids"):
            column = getattr(model, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[0] = 0
        points[0, 0] = 9.0
        assert model.points[0, 0] == 0.0

    def test_an_empty_model_has_no_dimensionality(self):
        model = GlobalModel(np.empty((0, 3)), [], [], [], [], eps_global=1.0)
        assert model.points.shape == (0, 0) and model.dim == 0

    def test_copies_and_pickles_stay_read_only(self):
        model = global_model([_rep(0.0, 0.0), _rep(1.0, 1.0)], [0, 1])
        for twin in (
            copy.copy(model),
            copy.deepcopy(model),
            pickle.loads(pickle.dumps(model)),
        ):
            assert twin == model
            assert not twin.points.flags.writeable
            assert not twin.global_labels.flags.writeable


class TestEquality:
    """Value equality: equal scalars and equal columns."""

    def test_two_equal_global_models_compare_equal(self):
        rows = [_rep(0.0, 0.0), _rep(1.0, 1.0, site_id=1)]
        assert global_model(rows, [0, 1]) == global_model(rows, [0, 1])

    def test_a_model_equals_its_deepcopy(self):
        model = global_model([_rep(0.0, 0.0), _rep(1.0, 1.0)], [0, 1])
        assert model == copy.deepcopy(model)

    def test_two_equal_one_representative_local_models_compare_equal(self):
        assert local_model(0, [_rep(0.0, 0.0)]) == local_model(0, [_rep(0.0, 0.0)])

    @pytest.mark.parametrize(
        "other",
        [
            [_rep(0.0, 0.0), _rep(1.0, 1.5)],
            [_rep(0.0, 0.0), _rep(1.0, 1.0, eps_range=2.0)],
            [_rep(0.0, 0.0), _rep(1.0, 1.0, site_id=3)],
            [_rep(0.0, 0.0), _rep(1.0, 1.0, local_cluster_id=3)],
            [_rep(0.0, 0.0)],
        ],
    )
    def test_any_column_difference_is_unequal(self, other):
        model = global_model([_rep(0.0, 0.0), _rep(1.0, 1.0)], [0, 1])
        assert model != global_model(other, list(range(len(other))))

    def test_labels_and_scalars_count(self):
        rows = [_rep(0.0, 0.0), _rep(1.0, 1.0)]
        model = global_model(rows, [0, 1])
        assert model != global_model(rows, [0, 0])
        assert model != global_model(rows, [0, 1], eps_global=2.0)
        assert model != global_model(rows, [0, 1], min_pts_global=3)
        assert local_model(0, rows) != local_model(0, rows, n_objects=7)

    def test_models_of_two_kinds_are_unequal(self):
        rows = [_rep(0.0, 0.0)]
        assert local_model(0, rows) != global_model(rows, [0])


class TestLocalModel:
    def _model(self):
        return local_model(
            2,
            [
                _rep(0.0, 0.0, 1.5, site_id=2, local_cluster_id=0),
                _rep(5.0, 5.0, 2.5, site_id=2, local_cluster_id=0),
                _rep(9.0, 1.0, 1.0, site_id=2, local_cluster_id=1),
            ],
            n_objects=500,
            scheme="rep_scor",
            eps_local=1.0,
            min_pts_local=5,
        )

    def test_len_and_cluster_count(self):
        model = self._model()
        assert len(model) == 3
        assert model.n_local_clusters == 2

    def test_max_eps_range(self):
        assert self._model().max_eps_range == 2.5

    def test_points_and_ranges_aligned(self):
        model = self._model()
        pts = model.points
        ranges = model.eps_ranges
        assert pts.shape == (3, 2)
        assert ranges.shape == (3,)
        np.testing.assert_allclose(pts[1], [5.0, 5.0])
        assert ranges[1] == 2.5

    def test_empty_model(self):
        model = LocalModel(0, np.empty((0, 0)), [], [], 0, "rep_scor", 1.0, 5)
        assert model.max_eps_range == 0.0
        assert model.points.shape[0] == 0

    def test_bytes_roundtrip(self):
        model = self._model()
        payload = model.to_bytes()
        restored = LocalModel.from_bytes(payload)
        assert restored.site_id == 2
        assert len(restored) == 3
        np.testing.assert_allclose(model.points, restored.points)
        np.testing.assert_allclose(model.eps_ranges, restored.eps_ranges)
        np.testing.assert_array_equal(
            model.local_cluster_ids, restored.local_cluster_ids
        )
        assert (restored.site_ids == 2).all()

    def test_validate_accepts_consistent_model(self):
        assert self._model().validate() == []

    def test_validate_rejects_negative_site_id(self):
        model = self._model()
        model.site_id = -1
        problems = model.validate()
        assert any("site id" in p for p in problems)

    def test_validate_rejects_negative_object_count(self):
        model = self._model()
        model.n_objects = -5
        assert any("object count" in p for p in model.validate())

    def test_validate_rejects_foreign_representatives(self):
        model = local_model(
            2,
            [
                _rep(0.0, 0.0, 1.5, site_id=2),
                _rep(5.0, 5.0, 2.5, site_id=7),
                _rep(9.0, 1.0, 1.0, site_id=2, local_cluster_id=1),
            ],
            n_objects=500,
        )
        assert any("claims site 7" in p for p in model.validate())

    def test_validate_rejects_mixed_dimensionalities(self):
        # A 2-D points array cannot mix dimensionalities: the ragged
        # table is refused when the model is constructed.
        with pytest.raises(ValueError):
            LocalModel(2, [[0.0, 0.0], [1.0, 2.0, 3.0]], [1.0, 1.0], [0, 1],
                       500, "rep_scor", 1.0, 5)

    def test_validate_rejects_more_reps_than_objects(self):
        model = self._model()
        model.n_objects = 2
        assert any("representatives declared" in p for p in model.validate())

    def test_wire_size_scales_with_reps(self):
        model = self._model()
        single = local_model(2, [_rep(0.0, 0.0, 1.5, site_id=2)], n_objects=500)
        assert len(model.to_bytes()) > len(single.to_bytes())
        # Per-representative payload: id (4) + eps (8) + 2 coords (16).
        assert len(model.to_bytes()) - len(single.to_bytes()) == 2 * (4 + 8 + 16)

    @pytest.mark.parametrize("cid", [-1, 2**32])
    def test_accounting_refuses_ids_outside_uint32(self, cid):
        model = local_model(0, [_rep(0.0, 0.0, local_cluster_id=cid)])
        with pytest.raises(ValueError, match="local_cluster_ids"):
            model.to_bytes()


class TestGlobalModel:
    def test_label_alignment_enforced(self):
        with pytest.raises(ValueError, match="labels"):
            global_model([_rep(0, 0)], [0, 1])

    def test_rejects_noise_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            global_model([_rep(0, 0)], [-1])

    def test_members_of(self):
        model = global_model([_rep(0, 0), _rep(1, 1), _rep(9, 9)], [0, 0, 1], 2.0)
        assert len(model.members_of(0)) == 2
        assert len(model.members_of(1)) == 1
        assert model.n_global_clusters == 2

    def test_empty_model(self):
        model = global_model([], [])
        assert model.n_global_clusters == 0
        assert len(model) == 0

    def test_to_bytes_nonempty(self):
        model = global_model([_rep(0, 0), _rep(1, 1)], [0, 1], eps_global=2.0)
        payload = model.to_bytes()
        assert len(payload) > 0
