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

Label queries (:func:`coverage_labels`) are relabels without local
labels, so a point's label depends on its position alone.  Each model
keeps a *label table* for them: over cells of a quarter of its largest
ε_r, the label of every cell that one representative covers whole and
no representative of another label reaches, noise for every cell none
reaches, and *undecided* elsewhere (a cover boundary, two labels within
reach).  A point reads its cell, and only the points of undecided cells
fold.  On the query storm's model 2.75% of the points fold.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.clustering.labels import NOISE, distinct, distinct_count, validate_labels
from repro.core.models import GlobalModel
from repro.data.distance import Metric, get_metric
from repro.index.base import LINF_BOUNDED_METRICS, coordinate_reach, require_finite
from repro.index.grid import GridIndex

__all__ = [
    "RELABEL_KERNELS",
    "CoverMemo",
    "RelabelStats",
    "coverage_labels",
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

#: Metrics a label table serves: true metrics (the triangle inequality
#: bounds a point's distance through its cell's centre) whose balls fit
#: in ``L_inf`` cubes.  ``squared_euclidean`` is no metric.
_TABLE_METRICS = LINF_BOUNDED_METRICS - {"squared_euclidean"}

#: A label table's cell edge as a share of the model's largest ε_r.  On
#: the query storm a third, a quarter and a sixth served queries equally
#: fast within the runs' spread (a half slower); a quarter keeps the
#: storm's table at 50 KiB and its build near 2 ms (``docs/performance.md``).
_TABLE_SHARE = 0.25

#: Caps on a label table: its cells, and the (representative, cell)
#: pairs its build evaluates.  A model over either folds every point.
_TABLE_CELLS = 2**18
_TABLE_PAIRS = 2**18

#: A label table's value for a cell whose points it cannot decide.
_UNDECIDED = -2


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
    changed in place).  Keys hold a fold start (or ``"labels"``, the
    label table's) and a metric, keyed by identity: values hold the
    metric, as :class:`CoverMemo` holds it."""
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


@dataclass(frozen=True)
class _LabelTable:
    """A model's coverage labels over a grid of ``shape`` cells of edge
    ``cell`` (cell ``i`` spans ``origin + i * cell`` to the next), framed
    by one layer of noise cells that every point outside the grid reads:
    per cell the global label, ``NOISE`` or ``_UNDECIDED``, flattened in
    C order (``strides``, ``base`` the frame's offset)."""

    origin: np.ndarray
    cell: float
    shape: np.ndarray
    strides: np.ndarray
    base: float
    values: np.ndarray

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Each point's cell value (a fresh array)."""
        # A far point's index may overflow to inf; the clip frames it.
        with np.errstate(over="ignore"):
            index = _cell_index(points, self.origin, self.cell)
        np.minimum(np.maximum(index, -1.0, out=index), self.shape, out=index)
        return self.values[(index @ self.strides + self.base).astype(np.intp)]


def _cell_index(coords: np.ndarray, origin: np.ndarray, cell: float) -> np.ndarray:
    """Per coordinate, the (float) index of the cell holding it.  The
    table's lookups and its build's cell ranges share it, so both round
    alike and the ranges are monotone in the coordinates."""
    return np.floor((coords - origin) / cell)


def _build_label_table(model: GlobalModel, metric: Metric) -> _LabelTable | None:
    """The model's label table, or ``None`` outside its limits.

    With ``h`` the metric's distance from a cell's centre to its corners,
    a representative *reaches* a cell when its distance to the centre
    minus ``h`` is at most its ε_r plus a slack, and *covers* it when
    that distance plus ``h`` is at most its ε_r minus the slack.  A cell
    that some representative covers, and whose reaching representatives
    all share one label, takes that label: every point in it is covered,
    and its nearest cover reaches the cell.  A cell no representative
    reaches is noise; any other is undecided.  The slack, ``(d + 3) *
    2^-40`` times the largest coordinate magnitude within reach plus the
    largest ε_r, exceeds the rounding of the cell lookup and of the
    distances by thousands of ulps; a model whose slack is not small
    beside the cells gets no table.
    """
    points, ranges = model.points, model.eps_ranges
    m, dim = points.shape
    top = float(ranges.max())
    cell = top * _TABLE_SHARE
    low = (points - ranges[:, None]).min(axis=0)
    high = (points + ranges[:, None]).max(axis=0)
    scale = max(float(np.abs(low).max()), float(np.abs(high).max())) + top
    slack = (dim + 3) * 2.0**-40 * scale
    if not slack < cell / 8:
        return None
    # One spare cell below the reach of every representative, one above.
    origin = low - cell
    extent = _cell_index(high, origin, cell) + 2
    if float(np.prod(extent)) > _TABLE_CELLS:
        return None
    shape = extent.astype(np.intp)
    # Each representative's box of cells, wide enough for its ε_r + slack.
    reach = (ranges + slack)[:, None]
    first, last = (
        np.clip(_cell_index(bound, origin, cell), 0, shape - 1).astype(np.intp)
        for bound in (points - reach, points + reach)
    )
    widths = last - first + 1
    counts = widths.prod(axis=1)
    total = int(counts.sum())
    if total > _TABLE_PAIRS:
        return None
    # Every cell of each representative's box, as (representative, cell).
    rep = np.repeat(np.arange(m), counts)
    offset = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    cells = np.empty((total, dim), dtype=np.intp)
    for axis in range(dim - 1, -1, -1):
        width = widths[rep, axis]
        cells[:, axis] = first[rep, axis] + offset % width
        offset //= width
    centre = metric.paired(points[rep], origin + (cells + 0.5) * cell)
    corner = float(metric.to_many(np.zeros(dim), np.full((1, dim), cell / 2))[0])
    radius = ranges[rep]
    reaches = np.flatnonzero(centre - corner <= radius + slack)
    covers = centre + corner <= radius - slack
    flat = np.ravel_multi_index(tuple(cells.T), tuple(shape))
    # Per cell one reaching representative's label (any will do), then
    # whether another reaching one has a different label.
    n_cells = int(np.prod(shape))
    labels = model.global_labels[rep[reaches]]
    reached = flat[reaches]
    pivot = np.full(n_cells, NOISE, dtype=np.intp)
    pivot[reached] = labels
    mixed = np.zeros(n_cells, dtype=bool)
    mixed[reached[labels != pivot[reached]]] = True
    covered = np.zeros(n_cells, dtype=bool)
    covered[flat[covers]] = True
    decided = (covered & ~mixed) | (pivot == NOISE)
    values = np.where(decided, pivot, _UNDECIDED).reshape(shape)
    framed = np.pad(values, 1, constant_values=NOISE)
    strides = np.cumprod(np.r_[1, framed.shape[:0:-1]])[::-1].astype(float)
    return _LabelTable(
        origin, cell, extent, strides, float(strides.sum()), framed.ravel()
    )


def _label_table(model: GlobalModel, metric: Metric) -> _LabelTable | None:
    """The label table the model keeps per metric, built by the first
    label query against it; ``None`` where the table does not apply."""

    def build():
        if metric.name not in _TABLE_METRICS or not model.dim:
            return metric, None
        return metric, _build_label_table(model, metric)

    return _kept(model, ("labels", id(metric)), build)


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
    for local_id in distinct(uncovered_locals):
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
    pairs = distinct_count(globals_ * (int(locals_.max()) + 1) + locals_)
    return pairs - distinct_count(globals_)


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


def coverage_labels(
    points: np.ndarray,
    model: GlobalModel,
    *,
    metric: str | Metric = "euclidean",
    kernel: str = "auto",
) -> tuple[np.ndarray, int]:
    """The pure-coverage labels of ``points`` against ``model`` (no local
    clustering to inherit from): bit for bit ``relabel_site``'s with
    ``site_id=None`` and noise local labels.

    The label of a point depends on the model and its position alone, so
    the model keeps a label table over cells of a quarter of its largest
    ε_r, built by the first call and shared by every later one: each
    point reads its cell's label or noise, and only the points of cells
    the table cannot decide — a cover boundary or two labels within
    reach — go through ``relabel_site``'s fold.  The table serves the
    euclidean, manhattan and chebyshev metrics within a cap on its cells
    and on its build's work; elsewhere every point folds.

    Args:
        points: the objects, shape ``(n, d)``.
        model: the global model.
        metric: distance metric.
        kernel: the fold's kernel, as in :func:`relabel_site`.

    Returns:
        ``(labels, n_folded)``: global cluster ids (noise = -1), and how
        many of the points went through the fold.

    Raises:
        ValueError: as :func:`relabel_site` does, for an unknown kernel,
            a point with a NaN or infinite coordinate or points of another
            dimensionality than a non-empty model's.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    require_finite(points)
    require_model_dimensionality(points, model)
    resolve_relabel_kernel(kernel, resolved)

    def fold(rows: np.ndarray) -> np.ndarray:
        noise = np.full(rows.shape[0], NOISE, dtype=np.intp)
        return relabel_site(
            rows, noise, model, site_id=None, metric=resolved, kernel=kernel
        )[0]

    table = _label_table(model, resolved) if len(model) and len(points) else None
    if table is None:
        return fold(points), points.shape[0]
    labels = table.lookup(points)
    undecided = np.flatnonzero(labels == _UNDECIDED)
    if undecided.size:
        labels[undecided] = fold(points[undecided])
    return labels, int(undecided.size)
