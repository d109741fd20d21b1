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
* ``"vectorized"`` is a **fold** over the model's representatives.  A
  :class:`CoverMemo` keeps, per object, the index and distance of its
  nearest covering representative over the model prefix it has seen, and
  a new model folds in only the representatives it appends, in two
  stages of the reducing cell-pair join (:meth:`GridIndex.join` with
  ``radii``), which hands back, per object, the nearest appended
  representative within its own ε_r and that distance — no hit list.
  The *near* stage joins every object at ρ, a quarter of the appended
  representatives' largest ε_r, against a grid whose cell edge is ρ's
  coordinate reach (one ring of cells); the *cover* stage joins only the
  objects with no cover within ρ, neither found now nor kept, against a
  grid whose cell edge is that largest ε_r or, where shorter, its
  coordinate reach (``squared_euclidean`` above 1).  An appended cover
  replaces the kept one only when it is strictly nearer.  A full relabel
  is the same fold from an empty memo.

  The near stage changes no answer.  A cover found within ρ is the
  nearest: every covering representative at its distance or nearer lies
  within ρ, so the near join evaluated it with the same kernel and the
  same lowest-index tie-break; and an object whose kept cover is within
  ρ has nothing strictly nearer beyond ρ.  On the paper's data a
  specific ε-range is ``Eps_local`` plus up to ``Eps_local`` more and the
  sites' representatives interleave, so most objects have a cover within
  ρ, and the near join's cells hold about a 4^-d share of the cover
  join's candidates (a sixteenth in 2-D).  The near stage runs where
  both grids find a query's cells in a query table (the grid's own
  stencil rule: enough occupied cells, a table of bounded size, ρ's ring
  reach equal to the build radius's) and the fold has at least
  ``_NEAR_MIN_OBJECTS`` objects, enough to pay for a second join;
  elsewhere, high-dimensional folds and small label queries included,
  the cover join runs alone.

  The grids depend on the model alone, so each model builds them once
  per ``(first folded index, metric)``, the near grid only when a fold
  first takes the near stage, and keeps them beside its columns: the
  label queries against one committed model, the sites
  relabeled against one broadcast and a session's folds of one commit
  share them.  Work is proportional to the candidate pairs of the
  appended representatives' cells, which is what makes 10^6-point
  relabels and per-round session relabels cheap.

Both kernels are **bit-identical**: the join computes every distance with
a kernel bitwise equal to ``Metric.to_many`` (and ``d(p, q)`` is bitwise
``d(q, p)``), the minimum is a comparison, and ties go to the lowest
representative index exactly like the reference argmin — within one fold
because the join takes the lowest index at each object's minimum, across
folds because the kept cover precedes every appended representative.  A fold
never changes the prefix it extends, so the nearest cover over the union
is the kept cover or an appended one.  ``"auto"`` picks the vectorized
kernel whenever the metric supports grid indexing and falls back to the
reference otherwise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.clustering.labels import NOISE, validate_labels
from repro.core.models import GlobalModel
from repro.data.distance import Metric, get_metric
from repro.index.base import LINF_BOUNDED_METRICS, coordinate_reach, require_finite
from repro.index.grid import GridIndex

__all__ = [
    "RELABEL_KERNELS",
    "CoverMemo",
    "RelabelStats",
    "relabel_site",
    "relabel_site_reference",
    "require_model_dimensionality",
]

RELABEL_KERNELS = ("auto", "reference", "vectorized")

#: Held while one of a model's cover grids is built, so concurrent
#: relabels against one model (the service's executor threads, the
#: runner's thread pool) build each once.
_BUILD_LOCK = threading.Lock()

#: The near stage's radius ρ as a share of the largest ε_r folded.  A
#: specific ε-range is ``Eps_local`` plus up to ``Eps_local`` more, so on
#: the paper's data most objects have a cover within a quarter of it,
#: while the near join's cells hold a 4^-d share of the cover join's
#: candidates.  Of a half, a third, a quarter, a fifth and a sixth, a
#: quarter relabeled data sets A and B fastest.
_NEAR_SHARE = 0.25

#: Objects a fold needs before the near stage pays for its second join:
#: a join costs about as much fixed work as a few thousand pairs, and on
#: the query storm's model a fold of fewer objects than this was slower
#: in two stages (256 objects: 0.68 → 0.88 ms; 1,024: even).
_NEAR_MIN_OBJECTS = 1024


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


def _kept(model: GlobalModel, key: tuple, build):
    """The value the model keeps under ``key`` in its private slot,
    ``build()`` on first use under ``_BUILD_LOCK`` (a model is never
    changed in place).  Keys hold a fold start and a metric, keyed by
    identity: values hold the metric, as :class:`CoverMemo` holds it."""
    grids = model._cover_grids
    entry = grids.get(key)
    if entry is None:
        with _BUILD_LOCK:
            entry = grids.get(key)
            if entry is None:
                entry = grids[key] = build()
    return entry[1]


def _cover_grid(
    model: GlobalModel, start: int, metric: Metric, top: float
) -> GridIndex:
    """The cover grid over the model's representatives from ``start`` on,
    whose largest ε_r is ``top`` (cell edge: ``top`` or, where shorter,
    its coordinate reach, so one ring of cells holds every cover).  A
    fold from an empty memo reads the one at 0, a fold over what a commit
    appended the one at the previous model's length."""

    def build():
        cell = min(top, coordinate_reach(metric, top))
        return metric, GridIndex(model.points[start:], metric, cell_size=cell)

    return _kept(model, (start, id(metric)), build)


def _near_grid(
    model: GlobalModel, start: int, metric: Metric, cover: GridIndex, top: float
) -> GridIndex | None:
    """The near grid over the same representatives as ``cover`` (cell
    edge: the coordinate reach of ρ), or ``None`` where the near stage
    does not run: either grid would look a query's cells up per call.
    Built by the first fold of at least ``_NEAR_MIN_OBJECTS`` objects, so
    small label queries never build it."""

    def build():
        if not cover.reads_query_table(top):
            return metric, None
        radius = top * _NEAR_SHARE
        reach = coordinate_reach(metric, radius)
        near = GridIndex(model.points[start:], metric, cell_size=reach)
        return metric, near if near.reads_query_table(radius) else None

    return _kept(model, (start, id(metric), "near"), build)


class CoverMemo:
    """Per object, the nearest covering representative over a model
    prefix: the state the vectorized kernel folds forward.

    A caller that relabels the same points against a growing model (a
    streaming site) owns one memo and passes it to every
    :func:`relabel_site` call, which advances it in place.  The memo is
    bound to the points array and the metric by identity, and to the
    model prefix it was built over by value: the new model's leading
    points and ε-ranges must equal the ones it folded
    (``np.array_equal``).  That is sound because the nearest cover over a
    prefix depends only on its points, its ranges and the metric; labels,
    site ids and local cluster ids are read from the new model.  So an
    equal model refetched from scratch continues the memo, and anything
    else — other points, another metric, a shorter model, a prefix that
    differs in one coordinate or one ε_r — restarts it from empty: a memo
    never answers for anything it was not built from.  It assumes the
    bound points array is not modified in place.

    Attributes:
        nearest: per object, the model index of its nearest covering
            representative, ``-1`` where none covers it.
        distance: the distance to that representative, ``inf`` where none
            covers the object.
    """

    def __init__(self) -> None:
        self._points: np.ndarray | None = None
        self._metric: Metric | None = None
        self._prefix_points = np.empty((0, 0))
        self._prefix_ranges = np.empty(0)
        self.nearest = np.empty(0, dtype=np.intp)
        self.distance = np.empty(0)

    def fold(
        self, points: np.ndarray, metric: Metric, model: GlobalModel
    ) -> None:
        """Advance the memo over ``model``: fold in the representatives
        beyond its prefix, or all of them after a restart."""
        base = self._prefix_ranges.size
        if not (
            points is self._points
            and metric is self._metric
            and len(model) >= base
            and np.array_equal(model.eps_ranges[:base], self._prefix_ranges)
            and np.array_equal(model.points[:base], self._prefix_points)
        ):
            self._points, self._metric, base = points, metric, 0
            self.nearest = np.full(points.shape[0], -1, dtype=np.intp)
            self.distance = np.full(points.shape[0], np.inf)
        if base < len(model) and points.shape[0]:
            self._fold_in(points, metric, model, base)
        self._prefix_points = model.points
        self._prefix_ranges = model.eps_ranges

    def _fold_in(
        self,
        points: np.ndarray,
        metric: Metric,
        model: GlobalModel,
        base: int,
    ) -> None:
        """The model's grids over the representatives from ``base`` on,
        the points as the queries of their reducing joins (each
        representative covers its own ε_r): first the near grid's at ρ
        where the near stage runs, then the cover grid's for the objects
        whose cover, kept or found, is not within ρ."""
        radii = model.eps_ranges[base:]
        top = float(radii.max())
        cover = _cover_grid(model, base, metric, top)
        rows = np.arange(points.shape[0])
        near = None
        if points.shape[0] >= _NEAR_MIN_OBJECTS:
            near = _near_grid(model, base, metric, cover, top)
        if near is not None:
            near_radius = top * _NEAR_SHARE
            self._merge(rows, base, *near.join(points, near_radius, radii=radii))
            rows = np.flatnonzero(self.distance > near_radius)
        if rows.size:
            queries = points if rows.size == points.shape[0] else points[rows]
            found = cover.join(queries, top, radii=radii)
            self._merge(rows, base, *found)

    def _merge(
        self,
        rows: np.ndarray,
        base: int,
        nearest: np.ndarray,
        distance: np.ndarray,
    ) -> None:
        """Take the folded cover of each of ``rows`` where it is strictly
        nearer than the kept one, so distance ties keep the lower model
        index."""
        nearer = np.flatnonzero(distance < self.distance[rows])
        self.nearest[rows[nearer]] = base + nearest[nearer]
        self.distance[rows[nearer]] = distance[nearer]


def _apply_inheritance(
    points: np.ndarray,
    local_labels: np.ndarray,
    out: np.ndarray,
    was_noise: np.ndarray,
    model: GlobalModel,
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
    own = np.flatnonzero(model.site_ids == site_id)
    uncovered = np.flatnonzero((out == NOISE) & ~was_noise)
    if not own.size or not uncovered.size:
        return 0
    own_local = model.local_cluster_ids[own]
    own_labels = model.global_labels[own]
    own_points = model.points[own]
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
    distinct (global, local) pairs minus the number of distinct globals;
    each pair is counted as one integer key, ``global * (max local + 1) +
    local``.
    """
    if site_id is None:
        return 0
    counted = (local_labels >= 0) & (out != NOISE)
    if not np.any(counted):
        return 0
    globals_, locals_ = out[counted], local_labels[counted]
    pairs = np.unique(globals_ * (int(locals_.max()) + 1) + locals_).size
    return pairs - int(np.unique(globals_).size)


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
    scan.  It reads the model's columns and none of the grids the model
    keeps.  See :func:`relabel_site` for the argument
    contract.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    require_model_dimensionality(points, global_model)
    local_labels = validate_labels(local_labels)
    n = points.shape[0]
    if local_labels.size != n:
        raise ValueError(f"{n} points but {local_labels.size} local labels")
    out = np.full(n, NOISE, dtype=np.intp)
    m = len(global_model)
    if m == 0 or n == 0:
        return _finish(
            points, local_labels, out, 0, global_model, site_id, resolved
        )

    rep_points = global_model.points
    rep_ranges = global_model.eps_ranges
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


def require_model_dimensionality(
    points: np.ndarray, global_model: GlobalModel
) -> None:
    """Refuse points whose dimensionality differs from a non-empty
    model's representatives (an empty batch or model passes).

    Raises:
        ValueError: naming the points' shape and the model's
            dimensionality.
    """
    if not len(global_model) or not len(points):
        return
    dim = global_model.dim
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(
            f"points of shape {points.shape} do not match the model's "
            f"{dim}-dimensional representatives"
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
    return "vectorized" if resolved.name in LINF_BOUNDED_METRICS else "reference"


def relabel_site(
    points: np.ndarray,
    local_labels: np.ndarray,
    global_model: GlobalModel,
    *,
    site_id: int | None = None,
    metric: str | Metric = "euclidean",
    kernel: str = "auto",
    memo: CoverMemo | None = None,
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
        memo: a caller-owned :class:`CoverMemo` for these points, which
            the vectorized kernel advances in place: a model that extends
            the memo's prefix costs a join of only its appended
            representatives.  ``None`` folds from an empty memo (a full
            relabel).  The reference kernel ignores it.

    Returns:
        ``(global_labels, stats)`` where ``global_labels`` holds global
        cluster ids (noise = -1).

    Raises:
        ValueError: for unknown kernels, mismatched label counts, a point
            with a NaN or infinite coordinate or points of another
            dimensionality than a non-empty model's.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    require_finite(points)
    require_model_dimensionality(points, global_model)
    if resolve_relabel_kernel(kernel, resolved) == "reference":
        return relabel_site_reference(
            points, local_labels, global_model, site_id=site_id, metric=resolved
        )
    local_labels = validate_labels(local_labels)
    n = points.shape[0]
    if local_labels.size != n:
        raise ValueError(f"{n} points but {local_labels.size} local labels")
    memo = CoverMemo() if memo is None else memo
    memo.fold(points, resolved, global_model)
    covered = np.flatnonzero(memo.nearest >= 0)
    out = np.full(n, NOISE, dtype=np.intp)
    out[covered] = global_model.global_labels[memo.nearest[covered]]
    return _finish(
        points, local_labels, out, covered.size, global_model, site_id, resolved
    )
