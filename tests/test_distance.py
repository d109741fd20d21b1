"""Unit tests for repro.data.distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.distance import (
    Metric,
    available_metrics,
    chebyshev,
    euclidean,
    get_metric,
    manhattan,
    minkowski_metric,
    pairwise_distances,
    register_metric,
    squared_euclidean,
)

ALL_TRUE_METRICS = [euclidean, manhattan, chebyshev, minkowski_metric(3.0)]


class TestPairwiseKernels:
    def test_euclidean_known_value(self):
        assert euclidean.pairwise([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_manhattan_known_value(self):
        assert manhattan.pairwise([0.0, 0.0], [3.0, 4.0]) == pytest.approx(7.0)

    def test_chebyshev_known_value(self):
        assert chebyshev.pairwise([0.0, 0.0], [3.0, 4.0]) == pytest.approx(4.0)

    def test_squared_euclidean_known_value(self):
        assert squared_euclidean.pairwise([0.0, 0.0], [3.0, 4.0]) == pytest.approx(25.0)

    def test_minkowski_p2_matches_euclidean(self):
        mink = minkowski_metric(2.0)
        p, q = np.asarray([1.0, 2.0, 3.0]), np.asarray([4.0, 6.0, 3.0])
        assert mink.pairwise(p, q) == pytest.approx(euclidean.pairwise(p, q))

    def test_minkowski_p1_matches_manhattan(self):
        mink = minkowski_metric(1.0)
        p, q = np.asarray([1.0, -2.0]), np.asarray([-3.0, 5.0])
        assert mink.pairwise(p, q) == pytest.approx(manhattan.pairwise(p, q))

    def test_minkowski_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            minkowski_metric(0.5)


class TestToManyConsistency:
    @pytest.mark.parametrize("metric", ALL_TRUE_METRICS, ids=lambda m: m.name)
    def test_to_many_matches_pairwise(self, metric, rng):
        points = rng.normal(size=(40, 3))
        q = rng.normal(size=3)
        vector = metric.to_many(q, points)
        scalar = np.asarray([metric.pairwise(q, p) for p in points])
        np.testing.assert_allclose(vector, scalar, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "metric",
        [euclidean, squared_euclidean, manhattan, chebyshev],
        ids=lambda m: m.name,
    )
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_paired_into_out_is_bitwise_to_many(self, metric, dim, rng):
        """With ``out`` the pair kernels run the same ufuncs in the same
        order, so every distance stays bitwise the one-to-many kernel's."""
        scale = 10.0 ** rng.uniform(-3, 3, size=(300, 1))
        left = rng.normal(size=(300, dim)) * scale
        right = rng.normal(size=(300, dim)) * scale
        expected = np.asarray(
            [metric.to_many(q, p[None, :])[0] for q, p in zip(left, right)]
        )
        assert np.array_equal(metric.paired(left, right), expected)
        out = np.empty(300)
        assert metric.paired(left, right.copy(), out=out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "metric",
        [euclidean, squared_euclidean, manhattan, chebyshev],
        ids=lambda m: m.name,
    )
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_paired_is_bitwise_symmetric(self, metric, dim, rng):
        """``paired(a, b) == paired(b, a)`` bit for bit: the grid's
        whole-graph fetch evaluates each pair from one end and mirrors the
        hit, so both ends must see the same distance."""
        scale = 10.0 ** rng.uniform(-3, 3, size=(400, 1))
        left = rng.normal(size=(400, dim)) * scale
        right = rng.normal(size=(400, dim)) * scale + left * 0.999
        forward = metric.paired(left, right)
        assert np.array_equal(forward, metric.paired(right, left))
        out = np.empty(400)
        metric.paired(right, left.copy(), out=out)
        assert np.array_equal(forward, out)

    def test_paired_calls_a_two_argument_to_pairs_without_out(self, rng):
        """A registered metric's ``to_pairs(Q, X)`` keeps working: it is
        handed ``out`` only when the caller of ``paired`` passes one."""
        custom = Metric(
            name="custom_pairs",
            pairwise=euclidean.pairwise,
            to_many=euclidean.to_many,
            to_pairs=lambda left, right: np.abs(left - right).sum(axis=1),
        )
        left, right = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        np.testing.assert_array_equal(
            custom.paired(left, right), np.abs(left - right).sum(axis=1)
        )

    def test_paired_without_to_pairs_calls_to_many_per_run_of_left_rows(
        self, rng
    ):
        """A registered metric with ``to_many`` alone: ``paired`` calls it
        once per run of bitwise-equal consecutive left rows (CSR pairs of
        one query), and every distance is bitwise the per-pair call's —
        ``-0.0`` and ``0.0`` start separate runs, a NaN row's run holds its
        equal neighbours."""
        calls = []

        def great_circle(p, points):
            calls.append(len(points))
            dlat, dlon = points[:, 0] - p[0], points[:, 1] - p[1]
            a = np.sin(dlat / 2) ** 2 + np.cos(p[0]) * np.cos(
                points[:, 0]
            ) * np.sin(dlon / 2) ** 2
            return 2 * np.arcsin(np.sqrt(np.clip(a, 0, 1)))

        custom = Metric("great_circle_test", lambda p, q: 0.0, great_circle)
        register_metric(custom)
        queries = rng.uniform(-1.5, 1.5, size=(6, 2))
        queries[3] = [0.0, 0.5]
        queries[4] = [-0.0, 0.5]
        queries[5] = [np.nan, 0.5]
        run_lengths = [3, 1, 4, 2, 2, 3]
        left = np.repeat(queries, run_lengths, axis=0)
        right = rng.uniform(-1.5, 1.5, size=(len(left), 2))
        expected = np.asarray(
            [great_circle(q, p[None, :])[0] for q, p in zip(left, right)]
        )
        for out in (None, np.empty(len(left))):
            calls.clear()
            got = get_metric("great_circle_test").paired(left, right, out=out)
            assert np.array_equal(got, expected, equal_nan=True)
            assert calls == run_lengths
        calls.clear()
        assert custom.paired(left[:0], right[:0]).shape == (0,)
        assert calls == []

    def test_matrix_shape_and_values(self, rng):
        left = rng.normal(size=(5, 2))
        right = rng.normal(size=(7, 2))
        mat = euclidean.matrix(left, right)
        assert mat.shape == (5, 7)
        assert mat[2, 3] == pytest.approx(euclidean.pairwise(left[2], right[3]))


class TestMetricAxioms:
    @pytest.mark.parametrize("metric", ALL_TRUE_METRICS, ids=lambda m: m.name)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_identity(self, metric, data):
        dim = data.draw(st.integers(1, 4))
        coords = st.floats(-100, 100, allow_nan=False)
        p = np.asarray(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
        q = np.asarray(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
        assert metric.pairwise(p, q) == pytest.approx(metric.pairwise(q, p))
        assert metric.pairwise(p, p) == pytest.approx(0.0, abs=1e-9)
        assert metric.pairwise(p, q) >= 0.0

    @pytest.mark.parametrize("metric", ALL_TRUE_METRICS, ids=lambda m: m.name)
    @given(
        arr=hnp.arrays(
            float,
            (3, 3),
            elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, metric, arr):
        p, q, r = arr
        d_pq = metric.pairwise(p, q)
        d_pr = metric.pairwise(p, r)
        d_rq = metric.pairwise(r, q)
        assert d_pq <= d_pr + d_rq + 1e-9


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_metric("euclidean") is euclidean
        assert get_metric("cityblock") is manhattan
        assert get_metric("linf") is chebyshev

    def test_lookup_passthrough(self):
        assert get_metric(euclidean) is euclidean

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown metric"):
            get_metric("no-such-metric")

    def test_register_metric_with_alias(self):
        custom = Metric("custom-test", euclidean.pairwise, euclidean.to_many)
        register_metric(custom, "custom-alias")
        assert get_metric("custom-test") is custom
        assert get_metric("custom-alias") is custom

    def test_available_metrics_sorted(self):
        names = available_metrics()
        assert names == sorted(names)
        assert "euclidean" in names


class TestPairwiseDistances:
    def test_symmetric_zero_diagonal(self, rng):
        points = rng.normal(size=(10, 2))
        mat = pairwise_distances(points)
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), 0.0, atol=1e-12)

    def test_accepts_metric_name(self, rng):
        points = rng.normal(size=(6, 2))
        m1 = pairwise_distances(points, "manhattan")
        m2 = manhattan.matrix(points, points)
        np.testing.assert_allclose(m1, m2)
