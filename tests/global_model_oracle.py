"""The DBSCAN-based global build and the incremental-DBSCAN repairer, as
oracles.

``oracle_build`` is the server's global build as Section 6 states it:
DBSCAN(``Eps_global``, ``MinPts_global = 2``) over every representative,
its noise promoted to singleton clusters after every cluster, in index
order.  ``OracleRepairer`` folds late models in one representative at a
time through :class:`~tests.incremental_dbscan_oracle.IncrementalDBSCAN`
and maps its raw labels onto stable ids: a raw cluster adopts the
smallest previous id among its members, a raw cluster without previous
members and every new noise representative take fresh ids in index
order, and an old noise representative keeps its id.  Both share no code
with the components routine of ``repro.core.global_model`` under test.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.dbscan import dbscan
from repro.clustering.labels import NOISE
from repro.core.global_model import (
    MIN_PTS_GLOBAL,
    GlobalClusteringStats,
    default_eps_global,
)
from repro.core.models import GlobalModel, LocalModel
from repro.data.distance import get_metric
from tests.incremental_dbscan_oracle import IncrementalDBSCAN
from tests.model_rows import global_model, rows_of


def _promote(labels: np.ndarray) -> np.ndarray:
    labels = labels.copy()
    next_id = int(labels.max()) + 1 if (labels >= 0).any() else 0
    for i, label in enumerate(labels):
        if label == NOISE:
            labels[i] = next_id
            next_id += 1
    return labels


def oracle_build(
    local_models: list[LocalModel],
    *,
    eps_global: float | None = None,
    metric="euclidean",
) -> tuple[GlobalModel, GlobalClusteringStats]:
    """The global build through DBSCAN over the representatives, on the
    brute-force index (no index shared with the build under test)."""
    representatives = [rep for model in local_models for rep in rows_of(model)]
    if eps_global is None:
        eps_global = default_eps_global(local_models)
    n = len(representatives)
    if not n:
        labels = np.empty(0, dtype=np.intp)
        n_merged = n_singletons = 0
    elif eps_global <= 0:
        labels = np.arange(n, dtype=np.intp)
        n_merged, n_singletons = 0, n
    else:
        points = np.asarray([rep.point for rep in representatives], dtype=float)
        result = dbscan(
            points,
            eps_global,
            MIN_PTS_GLOBAL,
            metric=get_metric(metric),
            index_kind="brute",
        )
        labels = _promote(result.labels)
        n_merged, n_singletons = result.n_clusters, result.n_noise
    model = global_model(representatives, labels, float(eps_global), MIN_PTS_GLOBAL)
    stats = GlobalClusteringStats(n, n_merged, n_singletons, float(eps_global))
    return model, stats


class OracleRepairer:
    """Late models folded in by incremental DBSCAN, one insert at a time."""

    def __init__(self, model: GlobalModel, *, metric="euclidean") -> None:
        self.metric = get_metric(metric)
        self.eps_global = float(model.eps_global)
        self._representatives = rows_of(model)
        self._labels = np.asarray(model.global_labels, dtype=np.intp).copy()
        self._next_fresh = int(self._labels.max()) + 1 if self._labels.size else 0
        self._incremental: IncrementalDBSCAN | None = None

    def _canonical_labels(self, raw: np.ndarray, n_prev: int) -> np.ndarray:
        prev = self._labels
        canonical = np.empty(raw.size, dtype=np.intp)
        target: dict[int, int] = {}
        for i in range(n_prev):
            r = int(raw[i])
            if r >= 0 and (r not in target or int(prev[i]) < target[r]):
                target[r] = int(prev[i])
        next_fresh = self._next_fresh
        for i in range(raw.size):
            r = int(raw[i])
            if r < 0:
                if i < n_prev:
                    canonical[i] = prev[i]
                else:
                    canonical[i] = next_fresh
                    next_fresh += 1
            else:
                if r not in target:
                    target[r] = next_fresh
                    next_fresh += 1
                canonical[i] = target[r]
        self._next_fresh = next_fresh
        return canonical

    def add_model(self, model: LocalModel) -> tuple[GlobalModel, bool]:
        new_reps = rows_of(model)
        n_prev = len(self._representatives)
        if not new_reps:
            return self.model(), False
        if self.eps_global <= 0:
            fresh = np.arange(
                self._next_fresh, self._next_fresh + len(new_reps), dtype=np.intp
            )
            self._next_fresh += len(new_reps)
            self._labels = np.concatenate([self._labels, fresh])
            self._representatives.extend(new_reps)
            return self.model(), False
        if self._incremental is None:
            self._incremental = IncrementalDBSCAN(
                self.eps_global,
                MIN_PTS_GLOBAL,
                len(new_reps[0].point),
                metric=self.metric,
            )
            for rep in self._representatives:
                self._incremental.insert(np.asarray(rep.point))
        for rep in new_reps:
            self._incremental.insert(np.asarray(rep.point))
        self._representatives.extend(new_reps)
        canonical = self._canonical_labels(self._incremental.labels(), n_prev)
        relabeled = bool((canonical[:n_prev] != self._labels[:n_prev]).any())
        self._labels = canonical
        return self.model(), relabeled

    def model(self) -> GlobalModel:
        return global_model(
            self._representatives, self._labels, self.eps_global, MIN_PTS_GLOBAL
        )
