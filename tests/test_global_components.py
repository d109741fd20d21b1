"""The global model as connected components of the ε_global graph.

At ``MinPts_global = 2`` the server's DBSCAN over the representatives is
the connected components of the ε_global graph, so
:func:`~repro.core.global_model.build_global_model` and
:class:`~repro.core.global_model.GlobalModelRepairer` compute components.
The oracles (``tests/global_model_oracle.py``) are the DBSCAN build and
the incremental-DBSCAN repairer they replace:

* build labels and stats equal the DBSCAN build;
* every fold of a 1–5 fold sequence equals the incremental repairer in
  labels and ``relabeled``;
* a fold sequence partitions the representatives like a rebuild;
* a :class:`~repro.distributed.server.RoundCore` that commits after any
  arrivals (Section 6's incremental server) partitions them like the
  build.

Cases are blobs, lattices whose neighbours sit at exactly ε, exact
duplicates, ε ≤ 0, empty models and an empty base, over every index kind
and grid metric; ``minkowski_metric(3)``, which no grid supports, is
checked against the brute-force index.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.global_model import GlobalModelRepairer, build_global_model
from repro.core.models import LocalModel
from repro.data.distance import minkowski_metric
from repro.distributed.server import RoundCore
from repro.distributed.streaming import run_streaming_session
from repro.obs import MetricsRegistry
from tests.global_model_oracle import OracleRepairer, oracle_build
from tests.incremental_dbscan_oracle import IncrementalDBSCAN
from tests.model_rows import Row, local_model

KINDS = ("auto", "brute", "grid", "kdtree", "rtree", "mtree")
GRID_METRICS = ("euclidean", "manhattan", "chebyshev", "squared_euclidean")
# The grid refuses a Minkowski metric; every other kind answers it.
MINKOWSKI_KINDS = ("auto", "brute", "kdtree", "rtree", "mtree")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _model(site_id: int, points) -> LocalModel:
    reps = [Row(tuple(point), 1.0, site_id, i) for i, point in enumerate(points)]
    return local_model(site_id, reps, len(reps), "rep_scor", 1.0, 3)


def _canonical(labels) -> np.ndarray:
    """Labels renamed by order of first occurrence: equal exactly when
    two label arrays describe the same partition."""
    __, first, inverse = np.unique(
        np.asarray(labels), return_index=True, return_inverse=True
    )
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(-1)]


def _same_partition(a, b) -> bool:
    return np.array_equal(_canonical(a), _canonical(b))


@st.composite
def fold_cases(draw, metrics=GRID_METRICS):
    """``(metric, eps_global, models)``: a base model and 1–5 late ones.

    Lattice spacings are dyadic (exact in binary, so neighbours sit at
    exactly ε) or 0.3 (ties decided by rounding, which every index must
    decide as the distance kernel does).
    """
    metric = draw(st.sampled_from(metrics))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["blobs", "lattice", "duplicates"]))
    spacing = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 0.3]))
    if shape == "lattice":
        eps = spacing * spacing if metric == "squared_euclidean" else spacing
    else:
        eps = float(rng.uniform(0.2, 2.0))
    if draw(st.integers(0, 9)) == 0:
        eps = draw(st.sampled_from([0.0, -1.0]))
    sizes = draw(st.lists(st.integers(0, 8), min_size=2, max_size=6))
    centers = rng.uniform(-4.0, 4.0, size=(3, dim))
    pool: list[np.ndarray] = []
    models = []
    for site_id, size in enumerate(sizes):
        if shape == "lattice":
            points = rng.integers(0, 5, size=(size, dim)) * spacing
        else:
            points = centers[rng.integers(0, 3, size=size)] + rng.normal(
                0.0, 0.6, size=(size, dim)
            )
        if shape == "duplicates" and pool and size:
            # Repeat earlier points verbatim, across models too.
            copied = rng.random(size) < 0.5
            points[copied] = np.asarray(pool)[rng.integers(0, len(pool), size)][
                copied
            ]
        pool.extend(points)
        models.append(_model(site_id, points))
    return metric, eps, models


class TestBuild:
    @SETTINGS
    @given(case=fold_cases(), kind=st.sampled_from(KINDS))
    def test_build_equals_dbscan_build(self, case, kind):
        metric, eps, models = case
        model, stats = build_global_model(
            models, eps_global=eps, metric=metric, index_kind=kind
        )
        expected, expected_stats = oracle_build(
            models, eps_global=eps, metric=metric, index_kind=kind
        )
        np.testing.assert_array_equal(model.global_labels, expected.global_labels)
        assert stats == expected_stats

    def test_default_eps_and_empty_input(self):
        model, stats = build_global_model([_model(0, [])])
        assert len(model) == 0 and stats.n_representatives == 0
        models = [_model(0, [[0.0, 0.0], [0.5, 0.0]]), _model(1, [[9.0, 9.0]])]
        model, stats = build_global_model(models)
        expected, expected_stats = oracle_build(models)
        np.testing.assert_array_equal(model.global_labels, expected.global_labels)
        assert stats == expected_stats


class TestFold:
    @SETTINGS
    @given(case=fold_cases(), kind=st.sampled_from(KINDS))
    def test_folds_equal_incremental_repairer(self, case, kind):
        metric, eps, models = case
        base, __ = build_global_model(
            models[:1], eps_global=eps, metric=metric, index_kind=kind
        )
        repairer = GlobalModelRepairer(base, metric=metric, index_kind=kind)
        oracle = OracleRepairer(base, metric=metric)
        for late in models[1:]:
            before = repairer.model().global_labels
            repaired, relabeled = repairer.add_model(late)
            expected, expected_relabeled = oracle.add_model(late)
            np.testing.assert_array_equal(
                repaired.global_labels, expected.global_labels
            )
            assert relabeled == expected_relabeled
            after = repaired.global_labels
            fold = repairer.last_fold
            assert fold.n_clusters == np.unique(after).size
            assert fold.label_churn == np.count_nonzero(after[: before.size] != before)
            assert fold.cluster_merges == (
                np.unique(before).size - np.unique(after[: before.size]).size
            )
        rebuilt, __ = build_global_model(
            models, eps_global=eps, metric=metric, index_kind=kind
        )
        assert _same_partition(repairer.model().global_labels, rebuilt.global_labels)

    @SETTINGS
    @given(case=fold_cases(), commits=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_incremental_server_snapshot_equals_build(self, case, commits):
        """The round core committing wherever hypothesis draws (one round
        per arriving model at most): the last commit partitions the
        representatives like one build over every model."""
        metric, eps, models = case
        assume(eps > 0)
        server = RoundCore(eps, metric=metric)
        index = 0
        server.apply(server.open_round(index))
        for model, commit in zip(models, commits):
            server.apply(server.arrive(model))
            if commit:
                server.apply(server.commit_round(index))
                index += 1
                server.apply(server.open_round(index))
        snap = server.apply(server.commit_round(index))
        built, __ = build_global_model(models, eps_global=eps, metric=metric)
        assert len(snap) == len(built)
        assert _same_partition(snap.global_labels, built.global_labels)


class TestMinkowski:
    """No grid supports ``minkowski_metric(3)``: the build and the folds
    must work on every other index, checked against the brute force."""

    @SETTINGS
    @given(case=fold_cases(metrics=("euclidean",)), kind=st.sampled_from(MINKOWSKI_KINDS))
    def test_build_and_folds_against_brute_force(self, case, kind):
        __, eps, models = case
        metric = minkowski_metric(3)
        model, stats = build_global_model(
            models, eps_global=eps, metric=metric, index_kind=kind
        )
        expected, expected_stats = oracle_build(
            models, eps_global=eps, metric=metric, index_kind="brute"
        )
        np.testing.assert_array_equal(model.global_labels, expected.global_labels)
        assert stats == expected_stats
        base, __ = build_global_model(models[:1], eps_global=eps, metric=metric)
        repairer = GlobalModelRepairer(base, metric=metric, index_kind=kind)
        brute = GlobalModelRepairer(base, metric=metric, index_kind="brute")
        for late in models[1:]:
            repaired, relabeled = repairer.add_model(late)
            expected_fold, expected_relabeled = brute.add_model(late)
            np.testing.assert_array_equal(
                repaired.global_labels, expected_fold.global_labels
            )
            assert relabeled == expected_relabeled
        assert _same_partition(repaired.global_labels, expected.global_labels)

    def test_repairer_fold_equals_rebuild(self):
        metric = minkowski_metric(3)
        first = _model(0, [[0.0, 0.0], [0.9, 0.0], [5.0, 5.0]])
        late = _model(1, [[1.8, 0.0], [5.0, 5.8], [20.0, 20.0]])
        base, __ = build_global_model([first], eps_global=1.0, metric=metric)
        repaired, relabeled = GlobalModelRepairer(base, metric=metric).add_model(late)
        rebuilt, __ = build_global_model([first, late], eps_global=1.0, metric=metric)
        assert not relabeled
        assert _same_partition(repaired.global_labels, rebuilt.global_labels)
        assert repaired.n_global_clusters == 3

    def test_two_round_streaming_session(self):
        rng = np.random.default_rng(5)
        centers = np.asarray([[0.0, 0.0], [10.0, 0.0]])
        batches = [
            [
                centers[site] + rng.normal(0.0, 0.7, size=(40, 2))
                for site in range(2)
            ]
            for __ in range(2)
        ]
        metric = minkowski_metric(3)
        result = run_streaming_session(
            batches, eps_local=1.0, min_pts_local=4, metric=metric
        )
        assert result.n_repairs == 2
        model = result.model
        rebuilt, __ = build_global_model(
            [
                LocalModel(
                    0, model.points, model.eps_ranges, model.local_cluster_ids,
                    len(model), "rep_scor", 1.0, 4, site_ids=model.site_ids,
                )
            ],
            eps_global=result.model.eps_global,
            metric=metric,
        )
        assert _same_partition(result.model.global_labels, rebuilt.global_labels)


class TestSquaredEuclideanBelowUnitEps:
    """Squared distance 0.49 <= ε 0.5, coordinate gap 0.7 > ε: a cell
    scan within ε of the query misses the pair, one within √ε finds it."""

    POINTS = ([0.49, 0.0], [1.19, 0.0])

    def test_fold_equals_rebuild(self):
        first, late = _model(0, [self.POINTS[0]]), _model(1, [self.POINTS[1]])
        kwargs = {"eps_global": 0.5, "metric": "squared_euclidean"}
        rebuilt, __ = build_global_model([first, late], **kwargs)
        base, __ = build_global_model([first], **kwargs)
        repaired, __ = GlobalModelRepairer(
            base, metric="squared_euclidean"
        ).add_model(late)
        np.testing.assert_array_equal(rebuilt.global_labels, [0, 0])
        np.testing.assert_array_equal(repaired.global_labels, [0, 0])

    def test_incremental_dbscan_finds_the_pair(self):
        inc = IncrementalDBSCAN(0.5, 2, 2, metric="squared_euclidean")
        for point in self.POINTS:
            inc.insert(point)
        np.testing.assert_array_equal(inc.labels(), [0, 0])


class TestModelGauges:
    """Every commit reports the served model's size and what the commit
    changed, taken from the build's or the fold's own outputs."""

    @staticmethod
    def _commit(core: RoundCore, round_index: int, models) -> None:
        core.apply(core.open_round(round_index))
        for model in models:
            core.apply(core.arrive(model))
        core.apply(core.commit_round(round_index))

    def test_build_then_merging_fold(self):
        registry = MetricsRegistry()
        core = RoundCore(1.0, metrics=registry)
        self._commit(core, 0, [_model(0, [[0, 0], [1, 0], [3, 0], [4, 0]])])
        snapshot = registry.to_dict()
        assert snapshot["gauges"]["server.representatives"] == 4
        assert snapshot["gauges"]["server.clusters"] == 2
        assert snapshot["counters"]["server.label_churn"] == 0
        assert snapshot["counters"]["server.cluster_merges"] == 0
        # Site 1 bridges the two clusters; site 2 opens a third.
        self._commit(core, 1, [_model(2, [[9, 9]]), _model(1, [[2, 0]])])
        snapshot = registry.to_dict()
        assert snapshot["gauges"]["server.representatives"] == 6
        assert snapshot["gauges"]["server.clusters"] == 2
        assert snapshot["counters"]["server.label_churn"] == 2
        assert snapshot["counters"]["server.cluster_merges"] == 1
        assert core.committed.n_global_clusters == 2

    @pytest.mark.parametrize("n_rounds", [1, 3])
    def test_streaming_oracle_reports_the_served_model(self, n_rounds):
        rng = np.random.default_rng(11)
        batches = [
            [rng.normal(site * 6.0, 0.8, size=(30, 2)) for site in range(3)]
            for __ in range(n_rounds)
        ]
        registry = MetricsRegistry()
        result = run_streaming_session(
            batches, eps_local=1.0, min_pts_local=4, metrics=registry
        )
        gauges = registry.to_dict()["gauges"]
        assert gauges["server.representatives"] == len(result.model)
        assert gauges["server.clusters"] == result.model.n_global_clusters
