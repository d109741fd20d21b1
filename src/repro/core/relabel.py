"""Updating the local clustering based on the global model (Section 7).

After the server broadcasts the global model, every site relabels its
objects independently:

* an object in the ``ε_r``-neighborhood of a global representative ``r``
  joins ``r``'s global cluster (when several representatives cover an
  object, the nearest one wins) — this is how former *local noise* becomes
  part of a global cluster, as in the paper's Figure 5 example;
* objects of a local cluster that no representative happens to cover still
  inherit the global id of their own cluster's representatives (the local
  cluster as a whole is part of that global cluster);
* everything else stays noise.

Two formerly independent local clusters end up with the same global id iff
the server merged their representatives — the "merge two local clusters to
one" effect of Section 1.

Two interchangeable kernels implement the coverage step, selected by the
``kernel=`` knob of :func:`relabel_site`:

* ``"reference"`` (:func:`relabel_site_reference`) sweeps a dense
  ``(m, n)`` distance matrix in chunks — O(n·m) work regardless of how
  little of the site each representative actually covers;
* ``"vectorized"`` builds a uniform grid over the site's points once and
  answers **one batched range query for all representatives** (the
  grid's cell-pair join), then assigns labels with pure-numpy sorting: the
  per-object nearest covering representative falls out of a single
  ``lexsort``/``searchsorted`` pass over the (object, distance,
  representative) hit triplets.  Work is proportional to the number of
  actual coverage hits, which is what makes 10^6-point relabels feasible.

Both kernels are **bit-identical**: the batched path computes every
surviving distance with the same float kernel (`Metric.to_many`) and
breaks distance ties toward the lowest representative index, exactly like
the reference argmin.  ``"auto"`` picks the vectorized kernel whenever the
metric supports grid indexing and falls back to the reference otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.labels import NOISE, validate_labels
from repro.core.models import GlobalModel
from repro.data.distance import Metric, get_metric

__all__ = [
    "RELABEL_KERNELS",
    "RelabelStats",
    "relabel_site",
    "relabel_site_reference",
]

RELABEL_KERNELS = ("auto", "reference", "vectorized")

#: Metrics whose ε-balls are bounded by L_inf cubes — the grid-index
#: family (mirrors ``repro.index.grid._GRID_METRICS``).
_GRID_METRICS = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}


@dataclass(frozen=True)
class RelabelStats:
    """Bookkeeping of one site's relabeling pass.

    Attributes:
        n_objects: objects on the site.
        n_covered: objects covered by some representative's ε_r-range.
        n_noise_promoted: former local-noise objects assigned to a global
            cluster (Figure 5's A and B).
        n_inherited: uncovered cluster members that inherited their local
            cluster's global id.
        n_still_noise: objects that remain noise after the update.
        n_local_clusters_merged: local clusters that shared their global id
            with another local cluster of the same site after the update.
    """

    n_objects: int
    n_covered: int
    n_noise_promoted: int
    n_inherited: int
    n_still_noise: int
    n_local_clusters_merged: int


def _empty_stats(n: int, out: np.ndarray) -> RelabelStats:
    return RelabelStats(
        n_objects=n,
        n_covered=0,
        n_noise_promoted=0,
        n_inherited=0,
        n_still_noise=int(np.count_nonzero(out == NOISE)),
        n_local_clusters_merged=0,
    )


def _apply_inheritance(
    points: np.ndarray,
    local_labels: np.ndarray,
    out: np.ndarray,
    was_noise: np.ndarray,
    global_model: GlobalModel,
    site_id: int | None,
    metric: Metric,
) -> int:
    """Inheritance fallback shared by both kernels.

    Members of a local cluster that no ε_r-range covers still belong to
    the global cluster their representatives joined.  Vectorized per local
    cluster, not per object: clusters with a single own representative
    inherit its global id directly, clusters whose representatives split
    across global clusters follow the nearest own representative.

    Returns:
        The number of objects that inherited a label (``out`` is updated
        in place).
    """
    if site_id is None:
        return 0
    rep_labels = global_model.global_labels
    own = [
        j
        for j, rep in enumerate(global_model.representatives)
        if rep.site_id == site_id
    ]
    uncovered = np.flatnonzero((out == NOISE) & ~was_noise)
    if not own or not uncovered.size:
        return 0
    own_local = np.asarray(
        [global_model.representatives[j].local_cluster_id for j in own],
        dtype=np.intp,
    )
    own_labels = rep_labels[own]
    own_points = np.asarray(
        [global_model.representatives[j].point for j in own], dtype=float
    )
    n_inherited = 0
    uncovered_locals = local_labels[uncovered]
    for local_id in np.unique(uncovered_locals):
        members = uncovered[uncovered_locals == local_id]
        reps_of_cluster = np.flatnonzero(own_local == local_id)
        if reps_of_cluster.size == 0:
            continue
        if reps_of_cluster.size == 1:
            out[members] = own_labels[reps_of_cluster[0]]
        else:
            distances = metric.matrix(
                points[members], own_points[reps_of_cluster]
            )
            nearest = reps_of_cluster[np.argmin(distances, axis=1)]
            out[members] = own_labels[nearest]
        n_inherited += int(members.size)
    return n_inherited


def _count_merged(
    local_labels: np.ndarray, out: np.ndarray, site_id: int | None
) -> int:
    """Merge accounting: how many of this site's local clusters now share
    a global id with another local cluster of the same site.  The summed
    ``(len(locals) - 1)`` over shared globals equals the number of
    distinct (global, local) pairs minus the number of distinct globals.
    """
    if site_id is None:
        return 0
    counted = (local_labels >= 0) & (out != NOISE)
    if not np.any(counted):
        return 0
    pairs = np.unique(np.stack([out[counted], local_labels[counted]]), axis=1)
    return int(pairs.shape[1] - np.unique(pairs[0]).size)


def _finish(
    points: np.ndarray,
    local_labels: np.ndarray,
    out: np.ndarray,
    n_covered: int,
    global_model: GlobalModel,
    site_id: int | None,
    metric: Metric,
) -> tuple[np.ndarray, RelabelStats]:
    """Shared tail of both kernels: inheritance, merge and noise stats."""
    was_noise = local_labels == NOISE
    n_noise_promoted = int(np.count_nonzero(was_noise & (out != NOISE)))
    n_inherited = _apply_inheritance(
        points, local_labels, out, was_noise, global_model, site_id, metric
    )
    stats = RelabelStats(
        n_objects=points.shape[0],
        n_covered=n_covered,
        n_noise_promoted=n_noise_promoted,
        n_inherited=n_inherited,
        n_still_noise=int(np.count_nonzero(out == NOISE)),
        n_local_clusters_merged=_count_merged(local_labels, out, site_id),
    )
    return out, stats


def relabel_site_reference(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    *,
    site_id: int | None = None,
    metric: str | Metric = "euclidean",
) -> tuple[np.ndarray, RelabelStats]:
    """The historical dense-sweep relabel kernel (kept as the oracle).

    Nearest covering representative per object via one vectorized
    distance-matrix sweep, chunked over the (possibly large) site data so
    the ``(m, chunk)`` matrix stays small.  Distance ties pick the lowest
    representative index (argmin), matching the historical first-wins
    scan.  See :func:`relabel_site` for the argument contract.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    local_labels = validate_labels(local_labels)
    n = points.shape[0]
    if local_labels.size != n:
        raise ValueError(f"{n} points but {local_labels.size} local labels")
    out = np.full(n, NOISE, dtype=np.intp)
    m = len(global_model)
    if m == 0 or n == 0:
        return out, _empty_stats(n, out)

    rep_points = global_model.points()
    rep_ranges = global_model.eps_ranges()
    rep_labels = global_model.global_labels

    best_distance = np.full(n, np.inf)
    chunk = max(1, 4_000_000 // max(m, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        distances = resolved.matrix(rep_points, points[start:stop])
        masked = np.where(distances <= rep_ranges[:, None], distances, np.inf)
        best_rep = np.argmin(masked, axis=0)
        best = masked[best_rep, np.arange(stop - start)]
        covered = np.isfinite(best)
        out[start:stop][covered] = rep_labels[best_rep[covered]]
        best_distance[start:stop] = best
    n_covered = int(np.count_nonzero(np.isfinite(best_distance)))
    return _finish(
        points, local_labels, out, n_covered, global_model, site_id, resolved
    )


def _relabel_site_vectorized(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    *,
    site_id: int | None,
    metric: Metric,
) -> tuple[np.ndarray, RelabelStats]:
    """Batched broadcast-relabel kernel (see the module docstring).

    One grid-index build over the site's points, one batched range query
    for all representatives at the maximum ε_r, then a per-representative
    exact filter and a single lexsort pass assigning every covered object
    its nearest representative's global label.
    """
    from repro.index.grid import GridIndex

    n = points.shape[0]
    out = np.full(n, NOISE, dtype=np.intp)
    m = len(global_model)
    if m == 0 or n == 0:
        return out, _empty_stats(n, out)

    rep_points = np.ascontiguousarray(global_model.points(), dtype=float)
    rep_ranges = global_model.eps_ranges()
    rep_labels = global_model.global_labels
    max_eps = float(rep_ranges.max())

    # One batched range-query plan answers every representative's
    # max-ε_r neighborhood at once and hands back the hit distances it
    # already evaluated (the join's `Metric.paired` distances are bitwise
    # the `to_many` values the dense reference sweep computes, so no
    # recompute is needed); representatives with a smaller ε_r are then filtered
    # exactly in one vectorized pass.
    index = GridIndex(points, metric, cell_size=max_eps)
    neighborhoods, neighborhood_distances = index.range_query_batch(
        rep_points, max_eps, return_distances=True
    )

    counts = np.asarray([members.size for members in neighborhoods])
    objects = np.concatenate(neighborhoods) if counts.sum() else np.empty(0, np.intp)
    distances = np.concatenate(neighborhood_distances) if counts.sum() else np.empty(0)
    reps = np.repeat(np.arange(m, dtype=np.intp), counts)
    keep = distances <= rep_ranges[reps]
    objects, distances, reps = objects[keep], distances[keep], reps[keep]

    n_covered = 0
    if objects.size > 0:
        # Group hits by object with one stable integer sort.  The hit
        # stream is representative-major, so after the stable sort each
        # object's hits still appear in ascending representative index —
        # the reference kernel's tie-break order.
        order = np.argsort(objects, kind="stable")
        objects = objects[order]
        distances = distances[order]
        starts = np.flatnonzero(
            np.concatenate(([True], objects[1:] != objects[:-1]))
        )
        sizes = np.diff(np.append(starts, objects.size))
        # Per-object minimum distance (a comparison, not arithmetic — no
        # rounding), then the first hit matching it per group: the
        # nearest representative, exact ties toward the lowest index,
        # bitwise the reference kernel's masked argmin.
        nearest = np.minimum.reduceat(distances, starts)
        is_nearest = np.flatnonzero(distances == np.repeat(nearest, sizes))
        nearest_objects = objects[is_nearest]
        first = np.flatnonzero(
            np.concatenate(
                ([True], nearest_objects[1:] != nearest_objects[:-1])
            )
        )
        winners = is_nearest[first]
        out[objects[winners]] = rep_labels[reps[order[winners]]]
        n_covered = int(starts.size)
    return _finish(
        points, local_labels, out, n_covered, global_model, site_id, metric
    )


def resolve_relabel_kernel(
    kernel: str, metric: str | Metric = "euclidean"
) -> str:
    """Resolve a kernel knob value to a concrete kernel name.

    ``"auto"`` selects the vectorized kernel for grid-compatible metrics
    (the paper's L_p family) and the reference sweep otherwise.

    Raises:
        ValueError: for unknown kernel names.
    """
    if kernel not in RELABEL_KERNELS:
        raise ValueError(
            f"unknown relabel kernel {kernel!r}; known: {RELABEL_KERNELS}"
        )
    if kernel != "auto":
        return kernel
    resolved = get_metric(metric)
    return "vectorized" if resolved.name in _GRID_METRICS else "reference"


def relabel_site(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    *,
    site_id: int | None = None,
    metric: str | Metric = "euclidean",
    kernel: str = "auto",
) -> tuple[np.ndarray, RelabelStats]:
    """Relabel one site's objects with global cluster ids.

    Args:
        points: the site's objects, shape ``(n, d)``.
        local_labels: the site's local DBSCAN labels (noise = -1).
        global_model: the broadcast global model.
        site_id: this site's id — used for the inheritance fallback (maps
            the site's local clusters to their representatives' global ids).
            ``None`` disables inheritance by site (pure coverage relabel).
        metric: distance metric.
        kernel: coverage kernel — ``"auto"`` (default), ``"vectorized"``
            or ``"reference"``.  All kernels produce bit-identical labels
            and stats; the knob only trades constant factors.

    Returns:
        ``(global_labels, stats)`` where ``global_labels`` holds global
        cluster ids (noise = -1).

    Raises:
        ValueError: for unknown kernels or mismatched label counts.
    """
    chosen = resolve_relabel_kernel(kernel, metric)
    if chosen == "reference":
        return relabel_site_reference(
            points, local_labels, global_model, site_id=site_id, metric=metric
        )
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    local_labels = validate_labels(local_labels)
    if local_labels.size != points.shape[0]:
        raise ValueError(
            f"{points.shape[0]} points but {local_labels.size} local labels"
        )
    return _relabel_site_vectorized(
        points, local_labels, global_model, site_id=site_id, metric=resolved
    )
