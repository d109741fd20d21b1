"""Uniform grid index.

The workhorse index of this reproduction.  DBSCAN issues region queries with
one fixed radius ``Eps``; a uniform grid whose cell edge equals that radius
answers each query by scanning only the ``3^d`` cells surrounding the query
point.  For the low-dimensional data sets of the paper (2-D point sets A, B,
C) this is the fastest exact structure by a wide margin and plays the role
the R*-tree played in the original system.

The grid supports arbitrary query radii as well (it scans
``ceil(eps / cell)`` rings of cells), so OPTICS and the global clustering can
reuse it with radii different from the build radius — only the constant
factor changes, never correctness.

Cell storage is structure-of-arrays in CSR style: one flat ``intp`` array
holds every point index grouped by cell (ascending within each cell), and
an offsets array slices it per occupied cell; the occupied cells are kept
in lexicographic order of their integer coordinates.  The layout is built
in one vectorized ``lexsort`` pass — no per-point python loop, no per-cell
list objects.

Every query — single, batched, counted — is answered by one **cell-pair
join** that runs in a fixed number of NumPy passes per block of queries:

1. a *neighbour table* lists, for every occupied cell, the occupied cells
   within the ring reach of the build radius; it is built once, by the
   first query of indexed points at that radius, so a grid queried only
   with other points never builds it.  Other points (a relabel fold's
   objects, a label query's) land in any cell, so the first such query
   at that reach builds a *query table* instead: every cell within the
   reach of an occupied cell, with its neighbour cells and candidate
   count, plus one empty row for every other cell.  Its neighbour lists
   hold exactly ``n_occupied × (2 rings + 1)^d`` entries (each occupied
   cell is a neighbour of every cell of its stencil), and a block of
   queries finds its rows with one ``searchsorted`` of their cell keys.
   A grid builds it only while that count stays within
   ``_TABLE_ENTRIES`` (1 MiB of cell ids) and the stencil lookup applies;
   otherwise, and for every other ring reach, the queries are grouped by
   cell and their neighbour cells looked up per call;
2. the block's ``(query, candidate)`` pairs are generated with two ragged
   expansions: query → its cell's neighbour cells → their points, so the
   pairs arrive grouped by query (each pair's point and query index are
   running sums written into the pass buffers);
3. one row-paired distance kernel (:meth:`Metric.paired`, bitwise equal to
   ``Metric.to_many``) filters the pairs;
4. one sort of ``(query, point)`` keys, the pairs out of range keyed past
   every hit, puts the survivors in CSR order: a flat hit array, ascending
   within each query, plus per-query row offsets.  That is the batch
   answer of every index kind (``range_query_batch`` is the join), so
   the rows are never split per query.  The join's reducing mode lists no
   hits: two ``np.minimum.reduceat`` over each query's pairs give its
   nearest point within that point's own radius (the relabel fold's
   cover).

A region query of every indexed point, in index order and at the build
radius's ring reach (DBSCAN's one-call graph fetch, the global model's
first build) takes the join's **self mode** instead of steps 2–4: each
unordered candidate pair is evaluated once.  A point is paired with the
rest of its own cell after it and with the points of its neighbour cells
of a higher id (half the neighbour table); each hit is staged as the two
keys ``(q, p)`` and ``(p, q)`` (:meth:`Metric.paired` is bitwise
symmetric), plus one self key per point, and one in-place sort of the
staged keys gives the per-query rows bit for bit.  Such a fetch evaluates
``(candidate_pairs - n) / 2`` distances; every other block (a subset, a
permutation, counts, another radius) keeps the per-query path.

A block is cut into passes of at most ``PASS_BUDGET_BYTES`` (4 MiB) of
pair arrays, small enough to stay in the CPU caches.  A pass writes its
pair arrays with ``out=`` into one buffer set, which the join takes from
a module-level free list and gives back when it returns, so later passes
and later joins reuse the same pages instead of faulting fresh ones in.
A row answer is staged in the set pass by pass and copied out once, so
nothing a join returns aliases a buffer.  The list keeps at most one set
per join that ran at the same time; a set holds one pass of pair arrays
(a lone query over the budget gets buffers that are not kept) and a
staged answer array of at most a quarter pass, so at most 1.25 passes
(5 MiB).  Taking and giving back a set are single atomic ``deque``
operations: a set serves one join at a time, no lock is held across a
pass, and a forked child inherits the list as it is.  Only the neighbour
and query tables are filled in after construction, and each is a pure
function of the points: threads that race to build one build equal
tables.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from repro.data.distance import Metric
from repro.index.base import (
    PASS_BUDGET_BYTES,
    NeighborIndex,
    _as_query_batch,
    _budget_runs,
    _through,
    coordinate_reach,
)

__all__ = ["GridIndex"]

_GRID_METRICS = {"euclidean", "manhattan", "chebyshev", "squared_euclidean"}

# Linearized cell keys (row-major over the occupied extent) are used only
# while the extent's cell count stays below this; beyond it the neighbour
# lookup compares coordinate rows instead, so a key can never overflow.
_KEY_LIMIT = 2**62

# The sort key of a pair beyond the query radius: past every hit's key.
_MISS = np.iinfo(np.intp).max

# The bytes of a staged row answer that a kept buffer set keeps: a
# quarter of a pass, so a kept set holds at most 1.25 passes.
_STAGE_BYTES = PASS_BUDGET_BYTES // 4

# Entries of a per-call index or key temporary made at once: 64 KiB of
# int64, below glibc's default mmap threshold (128 KiB), so such a
# temporary comes from the heap instead of being mapped and faulted in
# afresh on every call.
_CHUNK = 8192

# Neighbour entries a query table may hold: 1 MiB of cell ids.  A table
# row has at least one entry, so its per-cell arrays (keys, offsets,
# counts) are at most three times that again: a table stays under 4 MiB.
_TABLE_ENTRIES = 1 << 17


class _PassBuffers:
    """The pair arrays of one join's passes, kept for later joins.

    Each named array grows to the largest pass it served and is handed
    out as a leading slice, so passes and joins write into the same
    pages instead of asking the allocator for fresh ones.
    """

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(
        self, name: str, size: int, dtype=np.intp, keep: int = 0
    ) -> np.ndarray:
        """The first ``size`` entries of the named array.  A growth keeps
        the first ``keep`` entries and then, as a staged answer grows pass
        by pass, doubles the array: up to ``_STAGE_BYTES`` while the answer
        fits there, so that the set keeps it, and freely past it."""
        array = self._arrays.get(name)
        if array is None or array.size < size:
            if keep:
                cap = _STAGE_BYTES // array.itemsize
                double = 2 * array.size if size > cap else min(2 * array.size, cap)
                grown = np.empty(max(size, double), dtype)
                grown[:keep] = array[:keep]
            else:
                grown = np.empty(size, dtype)
            array = self._arrays[name] = grown
        return array[:size]

    @classmethod
    def take(cls) -> _PassBuffers:
        """A set from the free list, or a new one.  One ``pop``: testing
        the list first would race with another join's ``pop``."""
        try:
            return _FREE_BUFFERS.pop()
        except IndexError:
            return cls()

    def release(self) -> None:
        """Return to the free list, dropping a staged answer array over
        ``_STAGE_BYTES`` (the pass arrays never outgrow one pass)."""
        if "hits" in self._arrays and self._arrays["hits"].nbytes > _STAGE_BYTES:
            del self._arrays["hits"]
        _FREE_BUFFERS.append(self)


# Buffer sets between joins.  A join pops one (or makes one) and appends
# it back when done: ``deque.pop`` and ``append`` are atomic, so no lock
# is held across a pass, a forked child inherits the sets as they are,
# and a set serves one join at a time.  Module-level, because services
# start fresh threads for every session; at most one set per join that
# ran at the same time is kept.
_FREE_BUFFERS: collections.deque[_PassBuffers] = collections.deque()


class GridIndex(NeighborIndex):
    """Exact neighbor index over a uniform grid of cube-shaped cells.

    Args:
        points: array of shape ``(n, d)``.
        metric: metric name or instance.  Must be one of the translation-
            invariant ``L_p``-style metrics whose balls are bounded by
            ``L_inf`` cubes (euclidean, manhattan, chebyshev); other metrics
            should use :class:`~repro.index.brute.BruteForceIndex`.
        cell_size: edge length of a grid cell.  Choose the typical query
            radius (DBSCAN's ``Eps``) for single-ring queries.

    Raises:
        ValueError: if ``cell_size`` is not positive and finite, the metric
            is not grid-compatible or a point has a non-finite coordinate.
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: str | Metric = "euclidean",
        *,
        cell_size: float,
    ) -> None:
        super().__init__(points, metric)
        if not (math.isfinite(cell_size) and cell_size > 0):
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        if self._metric.name not in _GRID_METRICS:
            raise ValueError(
                f"GridIndex supports metrics {sorted(_GRID_METRICS)}, "
                f"got {self._metric.name!r}"
            )
        self._cell_size = float(cell_size)
        n, dim = self._points.shape
        self._origin = self._points.min(axis=0) if n else np.zeros(dim)
        coords = np.floor((self._points - self._origin) / self._cell_size).astype(
            np.int64
        )
        # CSR cell storage: cell ``c`` (coordinates ``_cell_coords[c]``)
        # holds ``_flat[_cell_start[c]:_cell_start[c + 1]]``.
        self._flat, self._cell_coords, self._cell_start, self._point_cell = (
            _build_csr(coords)
        )
        self._cell_sizes = np.diff(self._cell_start)
        self._extent = (
            self._cell_coords.max(axis=0) + 1
            if len(self._cell_coords)
            else np.zeros(dim, dtype=np.int64)
        )
        self._strides, self._keys = _linear_keys(self._cell_coords, self._extent)
        # Bytes one pair costs in a join pass's buffers, whatever the
        # mode: two gathered coordinate rows (the point rows then hold
        # their difference), five index arrays, two float arrays, a mask.
        self._pair_budget = max(1, PASS_BUDGET_BYTES // (16 * dim + 57))
        self._rings0 = self._rings(self._cell_size)
        # The neighbour table at the build radius, built on first use.
        self._table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # The query table at the build radius, built on first use where
        # it applies (``_box`` holds its key strides, else ``None``).
        self._box = self._query_box()
        self._query_table: tuple[np.ndarray, ...] | None = None

    @property
    def cell_size(self) -> float:
        """Edge length of one grid cell."""
        return self._cell_size

    @property
    def n_occupied_cells(self) -> int:
        """Number of non-empty grid cells."""
        return len(self._cell_coords)

    def reads_query_table(self, eps: float) -> bool:
        """Whether a join of points that are not indexed, at ``eps``,
        finds their cells in the query table (``eps``'s ring reach is the
        build radius's and the grid has a table) instead of looking them
        up per call."""
        return self._box is not None and self._rings(eps) == self._rings0

    @property
    def _cells(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """``cell key -> (start, stop)`` slice table over ``_flat``.

        Built on access for inspection; queries work on the arrays.
        """
        bounds = self._cell_start.tolist()
        return {
            key: (start, stop)
            for key, start, stop in zip(
                map(tuple, self._cell_coords.tolist()), bounds[:-1], bounds[1:]
            )
        }

    def _rings(self, eps: float) -> int:
        """Cell rings around a query's own cell that can hold hits (none
        for a NaN radius).

        Raises:
            ValueError: naming ``eps`` when its reach is infinite: the
                grid scans a finite number of rings.
        """
        reach = coordinate_reach(self._metric, eps)
        if not reach > 0:
            return 0
        rings = reach / self._cell_size
        if not math.isfinite(rings):
            raise ValueError(
                f"eps must be finite for a grid query (the grid scans a "
                f"finite number of cell rings), got {eps}"
            )
        return int(math.ceil(rings))

    # ------------------------------------------------------------------
    # the cell-pair join
    # ------------------------------------------------------------------
    def _neighbour_cells(
        self, cells: np.ndarray, rings: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Occupied cells within ``rings`` of each row of ``cells``.

        ``cells`` holds integer cell coordinates, occupied or not (query
        cells are clipped to at most one ring outside the occupied extent,
        so the arithmetic cannot overflow).  Returns CSR ``(offsets,
        cell ids)`` with ids ascending within each row.  A stencil of
        ``(2 rings + 1)^d`` key lookups is used while it is smaller than
        the occupied cell count and the keys fit; otherwise every occupied
        cell is compared with the row (the high-dimensional case).  Both
        build their keys and masks one axis at a time, in blocks of rows of
        about ``_CHUNK`` (row, cell) entries, so no temporary is larger
        than ``(rows, stencil or cells)``.
        """
        m, dim = cells.shape
        n_cells = len(self._cell_coords)
        if m == 0 or n_cells == 0:
            return np.zeros(m + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        span = 2 * rings + 1
        rows: list[np.ndarray] = []
        found: list[np.ndarray] = []
        if self._keys is not None and span**dim <= n_cells:
            stencil = _stencil(rings, dim)
            step = max(1, _CHUNK // len(stencil))
            for lo in range(0, m, step):
                block = cells[lo : lo + step]
                shape = (len(block), len(stencil))
                near, keys = np.empty(shape, np.int64), np.zeros(shape, np.int64)
                inside, test = np.ones(shape, bool), np.empty(shape, bool)
                for axis in range(dim):
                    np.add(block[:, axis, None], stencil[:, axis], out=near)
                    inside &= np.greater_equal(near, 0, out=test)
                    inside &= np.less(near, self._extent[axis], out=test)
                    keys += np.multiply(near, self._strides[axis], out=near)
                pos = np.searchsorted(self._keys, keys)
                np.minimum(pos, n_cells - 1, out=pos)
                found_keys = np.take(self._keys, pos, out=near, mode="clip")
                inside &= np.equal(found_keys, keys, out=test)
                row, col = np.nonzero(inside)
                rows.append(row + lo)
                found.append(pos[row, col])
        else:
            step = max(1, _CHUNK // n_cells)
            for lo in range(0, m, step):
                block = cells[lo : lo + step]
                shape = (len(block), n_cells)
                gap = np.empty(shape, np.int64)
                inside, test = np.ones(shape, bool), np.empty(shape, bool)
                for axis in range(dim):
                    np.subtract(self._cell_coords[:, axis], block[:, axis, None], out=gap)
                    inside &= np.less_equal(np.abs(gap, out=gap), rings, out=test)
                row, cell = np.nonzero(inside)
                rows.append(row + lo)
                found.append(cell)
        row = np.concatenate(rows)
        offsets = np.searchsorted(row, np.arange(m + 1)).astype(np.intp)
        return offsets, np.concatenate(found).astype(np.intp)

    def _with_sizes(
        self, offsets: np.ndarray, neighbours: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A neighbour CSR plus each row's candidate count (the points of
        its neighbour cells)."""
        through = _through(self._cell_sizes[neighbours])
        return offsets, neighbours, through[offsets[1:]] - through[offsets[:-1]]

    def _neighbour_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The neighbour table at the build radius, built on first use: per
        occupied cell its neighbour cells (CSR) and candidate count."""
        if self._table is None:
            # A pure function of the points: threads that race here build
            # equal tables.
            self._table = self._with_sizes(
                *self._neighbour_cells(self._cell_coords, self._rings0)
            )
        return self._table

    def _query_box(self) -> np.ndarray | None:
        """Row-major strides of the box that query cells are clipped to at
        the build radius's ring reach (the occupied extent and ``rings +
        1`` cells on each side), or ``None`` where the query table does
        not apply: the stencil lookup of :meth:`_neighbour_cells` does
        not, the table would hold over ``_TABLE_ENTRIES`` neighbour
        entries, or the box's keys would not fit."""
        n_cells, dim = self._cell_coords.shape
        stencil = (2 * self._rings0 + 1) ** dim
        if (
            self._keys is None
            or stencil > n_cells
            or n_cells * stencil > _TABLE_ENTRIES
        ):
            return None
        strides, __ = _linear_keys(
            self._cell_coords[:0], self._extent + 2 * self._rings0 + 2
        )
        return strides

    def _cell_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The query table at the build radius, built on first use: the
        ascending box keys of every cell within the ring reach of an
        occupied cell, then per such cell its neighbour cells (CSR, ids
        ascending) and candidate count, plus a last row without
        neighbours for every other cell.

        Each occupied cell is entered once per stencil offset, cell after
        cell, so a stable sort by the entries' keys groups them into rows
        with their cell ids ascending, as :meth:`_neighbour_cells` lists
        them.
        """
        if self._query_table is None:
            stencil = _stencil(self._rings0, self._cell_coords.shape[1])
            keys = (
                (self._cell_coords + self._rings0 + 1) @ self._box
            )[:, None] + stencil @ self._box
            keys = keys.reshape(-1)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            rows = np.flatnonzero(np.diff(keys)) + 1
            offsets = np.concatenate([[0], rows, [keys.size, keys.size]])
            # A pure function of the points: threads that race here build
            # equal tables.
            self._query_table = (
                keys[offsets[:-2]],
                *self._with_sizes(offsets, order // len(stencil)),
            )
        return self._query_table

    def _query_groups(
        self, queries: np.ndarray, rings: int, cells: np.ndarray | None
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Group the queries by cell: the group of each query, and per
        group its neighbour cells (CSR) and candidate count.

        ``cells`` gives the occupied cell of each query when the queries
        are indexed points; at the build radius those cells' rows of the
        neighbour table are the groups.  Other queries at the build
        radius's ring reach read their rows of the query table where the
        grid has one; otherwise they are grouped by their (possibly
        unoccupied) cell, whose neighbour cells are looked up for this
        call.  Non-finite queries land in a final group without
        neighbours (they can match nothing).
        """
        if cells is not None:
            if rings == self._rings0:
                return cells, self._neighbour_table()
            groups, group_of = np.unique(cells, return_inverse=True)
            table = self._neighbour_cells(self._cell_coords[groups], rings)
            return group_of.reshape(-1), self._with_sizes(*table)
        finite = np.isfinite(queries).all(axis=1)
        scaled = np.floor((queries[finite] - self._origin) / self._cell_size)
        np.clip(scaled, -rings - 1, self._extent + rings, out=scaled)
        coords = scaled.astype(np.int64)
        if rings == self._rings0 and self._box is not None:
            cell_keys, offsets, neighbours, group_size = self._cell_table()
            keys = (coords + rings + 1) @ self._box
            row = np.searchsorted(cell_keys, keys)
            # A cell the table lacks reads the last row, the empty one.
            row[cell_keys.take(row, mode="clip") != keys] = cell_keys.size
            group_of = np.full(queries.shape[0], cell_keys.size, dtype=np.intp)
            group_of[finite] = row
            return group_of, (offsets, neighbours, group_size)
        # Group by one row-major key per cell of the clipped box: a 1-D
        # ``unique`` in the rows' lexicographic order, far cheaper than a
        # row-wise one, which is left for boxes beyond the key range.
        __, keys = _linear_keys(coords + rings + 1, self._extent + 2 * rings + 2)
        if keys is not None:
            __, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            unique = coords[first]
        elif len(coords) <= 1:
            unique, inverse = coords, np.zeros(len(coords), dtype=np.intp)
        else:
            unique, inverse = np.unique(coords, axis=0, return_inverse=True)
        offsets, neighbours = self._neighbour_cells(unique, rings)
        group_of = np.full(queries.shape[0], len(unique), dtype=np.intp)
        group_of[finite] = inverse.reshape(-1)
        return group_of, self._with_sizes(np.append(offsets, offsets[-1]), neighbours)

    def join(
        self,
        queries: np.ndarray,
        eps: float,
        *,
        cells: np.ndarray | None = None,
        count_only: bool = False,
        radii: np.ndarray | None = None,
    ):
        """Answer a block of range queries through the cell-pair join.

        What :meth:`range_query_batch` and :meth:`region_query_batch`
        return.  With ``radii`` the join reduces instead: per query, the
        nearest indexed point within that point's own radius (the relabel
        fold's nearest covering representative).

        Args:
            queries: ``(m, d)`` float query points.  A row with a NaN or
                infinite coordinate matches nothing.
            eps: query radius; a NaN or negative one matches nothing.
            cells: the occupied cell id of each query when the queries
                are indexed points (how :meth:`region_query_batch` calls
                it); ``None`` for any other queries.
            count_only: return just the ``intp`` hit counts.
            radii: one radius per indexed point: point ``j`` matches a
                query within ``radii[j]`` of it.  A radius above ``eps``
                (``inf`` included) is cut to ``eps``, the reach of the
                candidate cells.

        Returns:
            With ``radii``, ``(nearest, distance)``: per query, the index
            of the nearest matching point (the lowest index on a distance
            tie) and that distance (bitwise ``Metric.to_many``), ``-1``
            and ``inf`` where no point matches.  Otherwise the hit counts
            with ``count_only``, or ``(hits, offsets)`` in CSR form: row
            ``k`` is ``hits[offsets[k]:offsets[k + 1]]``, ascending.
            Every array is fresh: none shares memory with the pass
            buffers.

        Raises:
            ValueError: if ``eps`` is infinite, or ``radii`` is not one
                value per indexed point, or one of them is NaN or negative
                (naming the first).
        """
        m = queries.shape[0]
        if radii is not None:
            radii = np.asarray(radii, dtype=float)
            if radii.shape != (len(self),):
                raise ValueError(
                    f"radii of shape {radii.shape} for {len(self)} indexed points"
                )
            if not (radii >= 0).all():
                bad = np.flatnonzero(~(radii >= 0))
                raise ValueError(
                    f"radii must be non-negative numbers; radii[{bad[0]}] "
                    f"is {radii[bad[0]]}"
                )
            radii = np.minimum(radii, eps)
            nearest, nearest_distance = np.full(m, -1, np.intp), np.full(m, np.inf)
        counts = np.zeros(m, dtype=np.intp)
        rings = self._rings(eps)
        if m == 0 or len(self) == 0 or not eps >= 0:
            if radii is not None:
                return nearest, nearest_distance
            if count_only:
                return counts
            return np.empty(0, dtype=np.intp), np.zeros(m + 1, dtype=np.intp)
        queries = np.asarray(queries, dtype=float)
        group_of, (offsets, neighbours, group_size) = self._query_groups(
            queries, rings, cells
        )
        pairs = group_size[group_of]
        total = 0
        pooled = _PassBuffers.take()
        for lo, hi, query_through, buffers in self._passes(pairs, pooled):
            through, segs = _take_rows(offsets, neighbours, group_of[lo:hi])
            # Each segment is a query and one of its neighbour cells.
            segments = (
                np.repeat(np.arange(hi - lo), np.diff(through)),
                self._cell_start[segs],
                self._cell_sizes[segs],
            )
            k = int(query_through[-1])
            grouped = self._pairs(queries[lo:hi], segments, k, buffers)
            if radii is not None:
                self._nearest(
                    grouped,
                    query_through,
                    pairs[lo:hi],
                    radii,
                    nearest[lo:hi],
                    nearest_distance[lo:hi],
                    buffers,
                )
                continue
            counts[lo:hi], pass_hits = self._hits(
                grouped, query_through, eps, buffers, rows=not count_only
            )
            if count_only:
                continue
            # The passes' hits are staged in the kept set, so the answer
            # is one fresh array, copied out at the end.
            end = total + pass_hits.size
            pooled("hits", end, keep=total)[total:] = pass_hits
            total = end
        if radii is not None:
            answer = nearest, nearest_distance
        elif count_only:
            answer = counts
        else:
            answer = pooled("hits", total).copy(), _through(counts)
        pooled.release()
        return answer

    def _self_join(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """The rows of every indexed point, in index order: the join's
        self mode, for a positive ``eps`` whose ring reach is the build
        radius's (the neighbour table's).

        Each unordered candidate pair is evaluated once: a point is paired
        with the rest of its own cell after it (the flat array holds a
        cell's points ascending) and with the points of its neighbour
        cells of a higher id, half the neighbour table.  Each hit is staged
        as the keys ``(q, p)`` and ``(p, q)`` (``Metric.paired`` is bitwise
        symmetric), plus one self key per point, in the kept buffer set;
        one in-place sort of the staged keys then gives the per-query
        join's ascending rows bit for bit.

        Returns:
            ``(hits, offsets)`` in CSR form, both fresh arrays.
        """
        n = len(self)
        offsets, neighbours, __ = self._neighbour_table()
        owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        upper = neighbours > owner
        up_offsets, up_cells, up_size = self._with_sizes(
            _through(np.bincount(owner[upper], minlength=len(offsets) - 1)),
            neighbours[upper],
        )
        tail_start = np.empty(n, dtype=np.intp)
        tail_start[self._flat] = np.arange(1, n + 1)
        tail_size = self._cell_start[self._point_cell + 1] - tail_start
        pooled = _PassBuffers.take()
        total = n
        np.multiply(np.arange(n), n + 1, out=pooled("hits", n))
        pairs = tail_size + up_size[self._point_cell]
        for lo, hi, query_through, buffers in self._passes(pairs, pooled):
            through, segs = _take_rows(up_offsets, up_cells, self._point_cell[lo:hi])
            tails = lo + np.flatnonzero(tail_size[lo:hi])
            # A segment is a query and one of its upper cells, or its tail;
            # the queries are global indices, so are the pairs' queries.
            segments = (
                np.concatenate([np.repeat(np.arange(lo, hi), np.diff(through)), tails]),
                np.concatenate([self._cell_start[segs], tail_start[tails]]),
                np.concatenate([self._cell_sizes[segs], tail_size[tails]]),
            )
            k = int(query_through[-1])
            pair_query, pair_point, d = self._pairs(self._points, segments, k, buffers)
            hit = _positions(
                np.less_equal(d, eps, out=buffers("mask", k, bool)), buffers("work", k)
            )
            h = hit.size
            q = np.take(pair_query, hit, out=buffers("at", h), mode="clip")
            p = np.take(pair_point, hit, out=buffers("sorted", h), mode="clip")
            keys = pooled("hits", total + 2 * h, keep=total)
            forward, backward = keys[total : total + h], keys[total + h :]
            np.add(np.multiply(q, n, out=forward), p, out=forward)
            np.add(np.multiply(p, n, out=backward), q, out=backward)
            total += 2 * h
        keys = pooled("hits", total)
        keys.sort()
        answer = np.remainder(keys, n), np.searchsorted(keys, np.arange(n + 1) * n)
        pooled.release()
        return answer

    def _passes(self, pairs: np.ndarray, pooled: _PassBuffers):
        """Cut a block of queries, with ``pairs`` pairs each, into passes
        of at most the pair budget: yields each pass's query run ``lo,
        hi``, the running pair totals of its queries from 0 and the
        buffers its pair arrays go to."""
        ends = _through(pairs)
        for lo, hi in _budget_runs(ends[1:], self._pair_budget):
            query_through = ends[lo : hi + 1] - ends[lo]
            # A lone query over the pass budget gets buffers of its own,
            # so the kept set never outgrows one pass.
            oversize = query_through[-1] > self._pair_budget
            yield lo, hi, query_through, _PassBuffers() if oversize else pooled

    def _pairs(
        self,
        queries: np.ndarray,
        segments: tuple[np.ndarray, np.ndarray, np.ndarray],
        k: int,
        buffers: _PassBuffers,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass's ``k`` pairs, cut into segments ``(query, start,
        length)``, each never empty: query row ``query`` of ``queries``
        against the ``length`` points of the flat cell array from
        ``start`` on (one of its neighbour cells, or the rest of its own).

        Returns each pair's query, its point and its distance, the pairs
        in segment order, in ``buffers``.
        """
        seg_query, seg_start, seg_len = segments
        # Each segment is a run of pairs: its points in turn, the query
        # repeated.
        at = _ramps(seg_start, seg_len, 1, buffers("at", k))
        pair_query = _ramps(seg_query, seg_len, 0, buffers("query", k))
        pair_point = np.take(self._flat, at, out=buffers("point", k), mode="clip")
        # ``take`` into a buffer needs ``mode="clip"``: with the default
        # ``"raise"`` NumPy gathers into a fresh array and copies it over.
        # The indices are in range by construction.
        dim = queries.shape[1]
        left = buffers("left", k * dim, float).reshape(k, dim)
        right = buffers("right", k * dim, float).reshape(k, dim)
        np.take(queries, pair_query, axis=0, out=left, mode="clip")
        np.take(self._points, pair_point, axis=0, out=right, mode="clip")
        d = self._metric.paired(left, right, out=buffers("distance", k, float))
        return pair_query, pair_point, d

    def _hits(
        self,
        grouped: tuple[np.ndarray, np.ndarray, np.ndarray],
        query_through: np.ndarray,
        eps: float,
        buffers: _PassBuffers,
        *,
        rows: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The hit counts of a pass's pairs within ``eps`` and, with
        ``rows``, the hits (ascending within each query), a view of
        ``buffers``."""
        pair_query, pair_point, d = grouped
        k, n = d.size, len(self)
        if not rows:
            # Summed over 0/1 index flags: a sum over a bool mask into
            # index counts would copy the mask first.
            flags = np.less_equal(d, eps, out=buffers("work", k))
            has_pairs = np.flatnonzero(np.diff(query_through))
            counts = np.zeros(query_through.size - 1, dtype=np.intp)
            if has_pairs.size:
                counts[has_pairs] = np.add.reduceat(flags, query_through[has_pairs])
            return counts, None
        key = np.multiply(pair_query, n, out=buffers("work", k))
        key += pair_point
        # One sort with each miss keyed past every hit puts the hits
        # first, by query and ascending within each.
        np.copyto(key, _MISS, where=np.greater(d, eps, out=buffers("mask", k, bool)))
        key.sort()
        bounds = np.searchsorted(key, np.arange(query_through.size) * n)
        hits = np.remainder(key[: bounds[-1]], n, out=key[: bounds[-1]])
        return np.diff(bounds), hits

    def _nearest(
        self,
        grouped: tuple[np.ndarray, np.ndarray, np.ndarray],
        query_through: np.ndarray,
        pairs: np.ndarray,
        radii: np.ndarray,
        nearest: np.ndarray,
        distance: np.ndarray,
        buffers: _PassBuffers,
    ) -> None:
        """Write, per query of a pass, the nearest point within its own
        radius into ``nearest`` and that distance into ``distance`` (left
        at ``-1``/``inf`` where none).

        Works in place on the pass's buffers: a pair beyond its point's
        radius reads as ``inf``, then the first ``reduceat`` over the
        query groups takes each minimum distance, and the second the
        lowest point index at it (a group's pairs are not in index order
        across cells), the pairs off the minimum reading as ``n``.
        ``reduceat`` reads one element for an empty group, so only
        queries with pairs are reduced.
        """
        pair_query, pair_point, d = grouped
        has_pairs = np.flatnonzero(pairs)
        if not has_pairs.size:
            return
        k = d.size
        bound, off = buffers("spare", k, float), buffers("mask", k, bool)
        np.take(radii, pair_point, out=bound, mode="clip")
        np.copyto(d, np.inf, where=np.greater(d, bound, out=off))
        starts = query_through[has_pairs]
        best = np.minimum.reduceat(d, starts)
        minima = np.empty(nearest.size)
        minima[has_pairs] = best
        np.take(minima, pair_query, out=bound, mode="clip")
        np.copyto(pair_point, len(self), where=np.not_equal(d, bound, out=off))
        lowest = np.minimum.reduceat(pair_point, starts)
        covered = np.isfinite(best)
        nearest[has_pairs[covered]] = lowest[covered]
        distance[has_pairs[covered]] = best[covered]

    # ------------------------------------------------------------------
    # the NeighborIndex API: thin views over the join
    # ------------------------------------------------------------------
    def candidate_pairs(self, eps: float) -> int:
        """The candidate pairs of a region query of every indexed point:
        each point against the points of its cell's neighbour cells (the
        prebuilt table at the build radius).  They bound the hits.  The
        per-query join evaluates every one of them; a whole-graph fetch in
        the self mode evaluates each unordered pair once, ``(candidates -
        n) / 2`` distances, about half."""
        group_of, (__, __, group_size) = self._query_groups(
            self._points, self._rings(eps), self._point_cell
        )
        return int(group_size[group_of].sum())

    def range_query(self, query: np.ndarray, eps: float) -> np.ndarray:
        dim = self._points.shape[1]
        query = np.asarray(query, dtype=float).reshape(1, dim)
        hits, __ = self.join(query, eps)
        return hits

    def range_query_batch(
        self, queries: np.ndarray, eps: float, *, count_only: bool = False
    ):
        """The cell-pair join of ``queries``: CSR ``(hits, offsets)``, or
        the counts with ``count_only``."""
        queries = _as_query_batch(queries, self._points.shape[1])
        return self.join(queries, eps, count_only=count_only)

    def _region_batch(self, indices: np.ndarray, eps: float, count_only: bool):
        if (
            not count_only
            and indices.size == len(self)
            and self._rings(eps) == self._rings0
            and np.array_equal(indices, np.arange(len(self)))
        ):
            # The whole neighbour graph: each cell pair is joined once.
            return self._self_join(eps)
        return self.join(
            self._points[indices],
            eps,
            cells=self._point_cell[indices],
            count_only=count_only,
        )


def _build_csr(
    coords: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of ``coords`` by identical cell, vectorized.

    Returns the flat point-index array (grouped by cell, ascending within
    each cell thanks to the stable sort), the occupied cells' coordinates
    (lexicographic order), the cell offsets into the flat array and the
    cell id of every point.
    """
    n, dim = coords.shape
    if n == 0:
        return (
            np.empty(0, dtype=np.intp),
            np.empty((0, dim), dtype=np.int64),
            np.zeros(1, dtype=np.intp),
            np.empty(0, dtype=np.intp),
        )
    # lexsort keys run last-to-first, so reversing the columns sorts rows
    # lexicographically; the sort is stable, keeping point indices
    # ascending inside each cell.
    order = np.lexsort(coords.T[::-1]).astype(np.intp)
    sorted_coords = coords[order]
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    starts = np.append(np.flatnonzero(first), n).astype(np.intp)
    point_cell = np.empty(n, dtype=np.intp)
    point_cell[order] = np.cumsum(first) - 1
    return order, sorted_coords[first], starts, point_cell


def _linear_keys(
    cells: np.ndarray, extent: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Row-major strides and keys of the occupied cells, or ``(None,
    None)`` when the extent's cell count would not fit the key range."""
    sizes = [int(size) for size in extent]
    if math.prod(sizes) >= _KEY_LIMIT:
        return None, None
    strides = np.asarray(
        [math.prod(sizes[k + 1 :]) for k in range(len(sizes))], dtype=np.int64
    )
    # Lexicographic cell order is ascending key order, so the keys are
    # sorted and ``searchsorted`` can look cells up.
    return strides, cells @ strides


@functools.lru_cache(maxsize=64)
def _stencil(rings: int, dim: int) -> np.ndarray:
    """All integer offsets in ``[-rings, rings]^dim``, lexicographic.

    Cached and read-only: building one costs more than a small join's
    own passes, and every label query of a cover grid asks for the same.
    """
    axis = np.arange(-rings, rings + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    stencil = np.stack(grids, axis=-1).reshape(-1, dim)
    stencil.setflags(write=False)
    return stencil


def _ranges(starts: np.ndarray, through: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` for every start ``s`` and
    length ``l`` (given as the running totals ``through``)."""
    lengths = np.diff(through)
    return np.repeat(starts - through[:-1], lengths) + np.arange(through[-1])


def _ramps(
    starts: np.ndarray, lengths: np.ndarray, step: int, out: np.ndarray
) -> np.ndarray:
    """Write ``starts[i] + step * j`` for every ``j < lengths[i]`` (each
    length at least 1), row after row, into ``out`` and return it:
    ``step`` 1 concatenates ``arange(s, s + l)``, ``step`` 0 repeats each
    start.  Each row's first entry holds the step from the row before,
    and one running sum in place spreads them, so nothing the size of
    ``out`` is allocated."""
    if out.size:
        out.fill(step)
        out[0] = starts[0]
        out[np.cumsum(lengths[:-1])] = (
            starts[1:] - starts[:-1] - step * (lengths[:-1] - 1)
        )
        np.cumsum(out, out=out)
    return out


def _positions(mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The positions of the true entries of ``mask``, written into ``out``
    and returned as its leading slice.  Listed ``_CHUNK`` entries at a
    time: a pass-sized array of positions would be mapped and faulted in
    afresh on every pass."""
    count = 0
    for lo in range(0, mask.size, _CHUNK):
        found = np.flatnonzero(mask[lo : lo + _CHUNK])
        np.add(found, lo, out=out[count : count + found.size])
        count += found.size
    return out[:count]


def _take_rows(
    offsets: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR sub-table of the selected ``rows``."""
    through = _through(offsets[rows + 1] - offsets[rows])
    return through, values[_ranges(offsets[rows], through)]
