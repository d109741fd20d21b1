"""Unit tests for label bookkeeping utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    cluster_ids,
    cluster_members,
    cluster_sizes,
    compact_labels,
    contingency_table,
    distinct,
    distinct_count,
    n_clusters,
    noise_mask,
    noise_ratio,
    relabel,
    validate_labels,
)


class TestValidate:
    def test_accepts_finished_labels(self):
        out = validate_labels([0, 1, NOISE, 2])
        assert out.dtype == np.intp

    def test_rejects_unclassified(self):
        with pytest.raises(ValueError, match="UNCLASSIFIED"):
            validate_labels([0, UNCLASSIFIED])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            validate_labels(np.zeros((2, 2), dtype=int))


class TestQueries:
    LABELS = np.asarray([0, 0, 1, NOISE, 1, 2, NOISE])

    def test_cluster_ids(self):
        np.testing.assert_array_equal(cluster_ids(self.LABELS), [0, 1, 2])

    def test_n_clusters(self):
        assert n_clusters(self.LABELS) == 3

    def test_cluster_sizes(self):
        assert cluster_sizes(self.LABELS) == {0: 2, 1: 2, 2: 1}

    def test_cluster_members(self):
        members = cluster_members(self.LABELS)
        np.testing.assert_array_equal(members[1], [2, 4])

    def test_noise_mask_and_ratio(self):
        np.testing.assert_array_equal(
            noise_mask(self.LABELS), [False, False, False, True, False, False, True]
        )
        assert noise_ratio(self.LABELS) == pytest.approx(2 / 7)

    def test_noise_ratio_empty(self):
        assert noise_ratio(np.empty(0, dtype=int)) == 0.0


class TestTransforms:
    def test_compact_labels_preserves_first_appearance(self):
        out = compact_labels([5, 5, NOISE, 2, 9, 2])
        np.testing.assert_array_equal(out, [0, 0, NOISE, 1, 2, 1])

    def test_relabel_partial_mapping(self):
        out = relabel([0, 1, 2, NOISE], {1: 7})
        np.testing.assert_array_equal(out, [0, 7, 2, NOISE])

    def test_relabel_does_not_touch_noise(self):
        out = relabel([NOISE, 0], {0: 3})
        assert out[0] == NOISE


class TestContingency:
    def test_counts(self):
        left = [0, 0, 1, NOISE]
        right = [1, 1, 1, NOISE]
        table = contingency_table(left, right)
        assert table[(0, 1)] == 2
        assert table[(1, 1)] == 1
        assert table[(NOISE, NOISE)] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            contingency_table([0], [0, 1])


@given(
    values=st.lists(st.integers(-(2**40), 2**40), max_size=60),
    repeat=st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_distinct_equals_np_unique(values, repeat):
    """The sort-and-compare distinct values, inverse and count of the hot
    paths equal ``np.unique``'s (1-D ``intp``, empty included)."""
    array = np.asarray(values * repeat, dtype=np.intp)
    unique, inverse = np.unique(array, return_inverse=True)
    got, got_inverse = distinct(array, return_inverse=True)
    np.testing.assert_array_equal(got, unique)
    np.testing.assert_array_equal(got_inverse, inverse.reshape(-1))
    assert got_inverse.dtype == np.intp
    np.testing.assert_array_equal(distinct(array), unique)
    assert distinct_count(array) == unique.size
