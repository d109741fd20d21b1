"""Determination of the global model on the server site (Section 6).

The server receives the local models — sets of ``(r, ε_r)`` pairs — and
"reconstructs" a clustering over the representatives with DBSCAN:

* ``MinPts_global = 2``: every representative already stands for a cluster
  of its own, so two density-connected representatives suffice to merge;
* ``Eps_global`` is tunable; the paper's default is the maximum ε_r over all
  transmitted representatives, which is "generally close to 2·Eps_local".

Representatives that DBSCAN leaves as noise are *not* noise in the global
model — "each specific local representative forms a cluster on its own" —
so they receive singleton global cluster ids.

At ``MinPts_global = 2`` every representative with a neighbour is a core
object, so that DBSCAN is exactly the connected components of the
ε_global graph, its noise being the isolated representatives.  The build
and the repair (:class:`GlobalModelRepairer`) therefore both compute
components: one neighbour index, one batched region query, and a
vectorized union (:func:`_component_roots`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.labels import NOISE, distinct, distinct_count
from repro.clustering.optics import extract_dbscan_clustering, optics
from repro.core.models import GlobalModel, LocalModel, stack_columns
from repro.data.distance import Metric, get_metric
from repro.index import build_index

__all__ = [
    "default_eps_global",
    "build_global_model",
    "build_global_model_via_optics",
    "FoldStats",
    "GlobalClusteringStats",
    "GlobalModelRepairer",
]

MIN_PTS_GLOBAL = 2


@dataclass(frozen=True)
class GlobalClusteringStats:
    """Reporting companion to a global model.

    Attributes:
        n_representatives: representatives clustered on the server.
        n_merged_clusters: global clusters containing >= 2 representatives.
        n_singletons: representatives left unmerged (own global cluster).
        eps_global: radius used.
    """

    n_representatives: int
    n_merged_clusters: int
    n_singletons: int
    eps_global: float


def default_eps_global(local_models: list[LocalModel]) -> float:
    """The paper's default ``Eps_global``: max ε_r over all representatives.

    Args:
        local_models: the collected local models.

    Returns:
        The maximum specific ε-range, or 0.0 when no representatives exist.
    """
    ranges = [model.max_eps_range for model in local_models if len(model)]
    return max(ranges) if ranges else 0.0


def _promote_singletons(labels: np.ndarray) -> np.ndarray:
    """Give each DBSCAN-noise representative its own global cluster id."""
    labels = labels.copy()
    next_id = int(labels.max()) + 1 if (labels >= 0).any() else 0
    for i, label in enumerate(labels):
        if label == NOISE:
            labels[i] = next_id
            next_id += 1
    return labels


def _neighbour_pairs(
    points: np.ndarray,
    queries: np.ndarray,
    eps: float,
    metric: Metric,
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(query, neighbour)`` pair of one batched region query.

    ``queries`` are row indices into ``points``; each is paired with every
    row within ``eps`` of it (itself included).  A degenerate radius
    (``eps <= 0``) merges nothing, so it yields no pair and builds no
    index.
    """
    if eps <= 0 or not queries.size:
        none = np.empty(0, dtype=np.intp)
        return none, none
    index = build_index(points, "auto", metric=metric, eps=eps)
    hits, offsets = index.region_query_batch(queries, eps)
    return np.repeat(queries, np.diff(offsets)), hits


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest node of every node's connected component.

    ``n`` nodes joined by the undirected edges ``(u[k], v[k])``.  Each
    round hooks every root that shares an edge with a smaller root onto
    the smallest such root, then jumps every pointer to its root; edges
    inside one tree drop out.  A pointer only ever points to a smaller
    node, so a tree's root is its smallest member.  All of it is array
    passes: no Python step per node or per edge.
    """
    parent = np.arange(n, dtype=np.intp)
    while u.size:
        a, b = parent[u], parent[v]
        cross = a != b
        if not cross.any():
            break
        u, v, a, b = u[cross], v[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return parent


def build_global_model(
    local_models: list[LocalModel],
    *,
    eps_global: float | None = None,
    metric: str | Metric = "euclidean",
) -> tuple[GlobalModel, GlobalClusteringStats]:
    """Merge local models into the global model (Section 6).

    The representatives' connected components under ``eps_global`` are
    numbered as DBSCAN(``eps_global``, 2) numbers them: the components of
    two or more representatives by their lowest-index member, then the
    singletons (DBSCAN's noise) in index order.

    Args:
        local_models: local models from all sites (any order).
        eps_global: merge radius; defaults to
            :func:`default_eps_global` (≈ ``2·Eps_local``).  At
            ``eps_global <= 0`` nothing merges.
        metric: distance metric (must match the sites').

    Returns:
        ``(global_model, stats)``.
    """
    resolved = get_metric(metric)
    columns = stack_columns(local_models)
    if eps_global is None:
        eps_global = default_eps_global(local_models)
    points = columns[0]
    n = points.shape[0]
    labels = np.empty(0, dtype=np.intp)
    n_merged = n_singletons = 0
    if n:
        nodes = np.arange(n, dtype=np.intp)
        roots = _component_roots(
            n, *_neighbour_pairs(points, nodes, eps_global, resolved)
        )
        size = np.bincount(roots, minlength=n)
        merged = size[roots] >= 2
        n_merged = int(np.count_nonzero(size >= 2))
        n_singletons = n - int(np.count_nonzero(merged))
        # Merged components sort by their root, singletons after them.
        rank = np.where(merged, roots, n + nodes)
        labels = distinct(rank, return_inverse=True)[1]
    model = GlobalModel(
        *columns,
        global_labels=labels,
        eps_global=float(eps_global),
        min_pts_global=MIN_PTS_GLOBAL,
    )
    stats = GlobalClusteringStats(
        n_representatives=n,
        n_merged_clusters=n_merged,
        n_singletons=n_singletons,
        eps_global=float(eps_global),
    )
    return model, stats


@dataclass(frozen=True)
class FoldStats:
    """What the last :meth:`GlobalModelRepairer.add_model` fold changed.

    Attributes:
        n_clusters: global clusters in the repaired model.
        label_churn: pre-existing representatives whose label changed.
        cluster_merges: pre-existing cluster ids absorbed into a smaller
            one.
    """

    n_clusters: int
    label_churn: int = 0
    cluster_merges: int = 0


class GlobalModelRepairer:
    """Fold late local models into an existing global model.

    The recovery rounds of the degraded protocol (``RecoveryPolicy``) and
    every session round after the first need the server to *grow* its
    global model when new local models arrive, without re-clustering
    every representative — the property Section 6 of the paper (and the
    incremental DBSCAN it cites) promises.

    Because ``MinPts_global = 2`` the global model is the connected
    components of the ε_global graph, so a fold is a components problem
    too: each existing cluster enters as one node, each new
    representative as another, and one index over the maintained
    representatives joins only the new ones against it; their columns are
    appended to the maintained model's.  The maintained partition is
    therefore *exactly* the partition a from-scratch rebuild
    over the same representatives would produce, differing only in label
    names (the equivalence tests pin this).

    Label names are kept *stable* on purpose: a component holding existing
    clusters takes the smallest of their ids (a merge adopts the smallest
    participating id), and a component of new representatives only takes
    a fresh id beyond everything handed out so far, in order of its
    lowest member.  Sites that are not re-broadcast therefore never hold a
    label the repaired model re-used for something else.

    ``eps_global`` stays frozen at the base model's radius: the paper's
    default (max ε_r) is a function of *all* models, but re-deriving it on
    every late arrival would re-cluster everything and re-broadcast to
    every site — the repair keeps the round's radius and documents the
    drift instead.

    Args:
        model: the global model to repair (usually the round's build; an
            empty one starts from nothing).
        metric: distance metric (must match the server's).
    """

    def __init__(
        self,
        model: GlobalModel,
        *,
        metric: str | Metric = "euclidean",
    ) -> None:
        self.metric = get_metric(metric)
        self.eps_global = float(model.eps_global)
        self._model = model
        labels = model.global_labels
        self._next_fresh = int(labels.max()) + 1 if labels.size else 0
        self.last_fold = FoldStats(n_clusters=model.n_global_clusters)

    @property
    def n_representatives(self) -> int:
        """Representatives currently in the maintained model."""
        return len(self._model)

    def add_model(self, model: LocalModel) -> tuple[GlobalModel, bool]:
        """Fold one late local model in and return the repaired global model.

        Args:
            model: the late site's local model.

        Returns:
            ``(repaired_model, relabeled)`` — ``relabeled`` is true when
            any *pre-existing* representative's global label changed (a
            late representative merged old clusters), which is what forces
            a re-broadcast to previously relabeled sites.
            :attr:`last_fold` says what else the fold changed.
        """
        return self.add_models([model])

    def add_models(self, models: list[LocalModel]) -> tuple[GlobalModel, bool]:
        """Fold the representatives of ``models`` in as one fold, appended
        in order (see :meth:`add_model`)."""
        base = self._model
        columns = stack_columns([base, *models])
        n_prev = len(base)
        m = columns[1].size - n_prev
        if not m:
            self.last_fold = FoldStats(self.last_fold.n_clusters)
            return base, False
        # Nodes: the k existing clusters in id order, then the new
        # representatives in index order.
        ids, cluster_of = distinct(base.global_labels, return_inverse=True)
        k = ids.size
        node = np.concatenate([cluster_of, k + np.arange(m)])
        u, v = _neighbour_pairs(
            columns[0],
            np.arange(n_prev, n_prev + m, dtype=np.intp),
            self.eps_global,
            self.metric,
        )
        roots = _component_roots(k + m, node[u], node[v])
        # A component with existing clusters is rooted at the smallest of
        # them; the others are rooted at their lowest new member, which
        # orders their fresh ids.
        heads = roots[k:] == np.arange(k, k + m)
        n_fresh = int(np.count_nonzero(heads))
        names = np.empty(k + m, dtype=np.intp)
        names[:k] = ids
        names[k:][heads] = self._next_fresh + np.arange(n_fresh)
        labels = names[roots[node]]
        churn = int(np.count_nonzero(labels[:n_prev] != base.global_labels))
        merges = int(np.count_nonzero(roots[:k] != np.arange(k)))
        self._next_fresh += n_fresh
        self._model = GlobalModel(
            *columns,
            global_labels=labels,
            eps_global=self.eps_global,
            min_pts_global=MIN_PTS_GLOBAL,
        )
        self.last_fold = FoldStats(k - merges + n_fresh, churn, merges)
        return self._model, churn > 0

    def model(self) -> GlobalModel:
        """The maintained global model (stable labels, no noise)."""
        return self._model


def build_global_model_via_optics(
    local_models: list[LocalModel],
    *,
    eps_max: float,
    eps_cut: float,
    metric: str | Metric = "euclidean",
) -> tuple[GlobalModel, GlobalClusteringStats]:
    """The OPTICS alternative the paper discusses (and sets aside) in §6.

    One OPTICS run with generating radius ``eps_max`` lets the server cut
    the reachability plot at any ``eps_cut <= eps_max`` without
    re-clustering — useful to explore several ``Eps_global`` values.

    Args:
        local_models: local models from all sites.
        eps_max: OPTICS generating radius (upper bound for cuts).
        eps_cut: the cut that produces this global model.
        metric: distance metric.

    Returns:
        ``(global_model, stats)`` equivalent to a DBSCAN-based model at
        ``eps_cut`` up to border ambiguity.
    """
    resolved = get_metric(metric)
    columns = stack_columns(local_models)
    points = columns[0]
    if not points.shape[0]:
        return build_global_model(local_models, eps_global=eps_cut, metric=resolved)
    ordering = optics(points, eps_max, MIN_PTS_GLOBAL, metric=resolved)
    labels = extract_dbscan_clustering(ordering, eps_cut)
    n_singletons = int(np.count_nonzero(labels == NOISE))
    n_merged = distinct_count(labels[labels >= 0])
    labels = _promote_singletons(labels)
    model = GlobalModel(
        *columns,
        global_labels=labels,
        eps_global=float(eps_cut),
        min_pts_global=MIN_PTS_GLOBAL,
    )
    stats = GlobalClusteringStats(
        n_representatives=points.shape[0],
        n_merged_clusters=n_merged,
        n_singletons=n_singletons,
        eps_global=float(eps_cut),
    )
    return model, stats
