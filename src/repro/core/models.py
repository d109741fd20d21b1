"""Model types exchanged between DBDC sites and the server.

A *local model* (Sections 5-6) is the aggregated information a client site
transmits instead of its raw data: a table of pairs ``(r, ε_r)`` where
``r`` is a representative point and ``ε_r`` the specific ε-range
describing the area ``r`` stands for.  The *global model* is the server's
clustering of all representatives: every representative carries a global
cluster id.

Both models are that table, held as columns: ``points`` ``(m, d)``,
``eps_ranges``, ``site_ids`` and ``local_cluster_ids`` (plus
``global_labels`` on a global model).  A constructor copies its inputs
into owned, read-only arrays checked once (:func:`model_columns`); a
model is never changed in place, and one without representatives has
points of shape ``(0, 0)``.  Two models are equal when their scalars and
their columns are.

Both models know how to serialize themselves to bytes — not for real
networking (the sites are simulated in-process) but because the paper's
efficiency argument is about *transmission volume*; the byte sizes feed the
network-cost accounting in :mod:`repro.distributed.network`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.clustering.labels import distinct_count

__all__ = [
    "LocalModel",
    "GlobalModel",
    "model_columns",
    "stack_columns",
    "record_dtype",
    "pack_records",
]

_HEADER = struct.Struct("<III")  # site id, number of reps, dimensionality
_COLUMNS = ("points", "eps_ranges", "site_ids", "local_cluster_ids")
#: The accounting record of ``to_bytes``: an id, ε_r, the coordinates.
_ACCOUNTING_ID = "<u4"


def model_columns(
    points, eps_ranges, site_ids, local_cluster_ids
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Owned, read-only copies of one table of representatives, checked.

    Corrupt payloads must fail loudly here, not poison the global DBSCAN:
    NaN/inf coordinates break every distance function, and a non-positive
    ε-range describes no area at all (Def. 7 gives every representative a
    strictly positive specific ε-range).

    Raises:
        ValueError: for points that are not 2-D, columns of unequal
            length, a non-finite coordinate or a non-finite or
            non-positive ε-range.
    """
    points = np.array(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    m = len(points)
    columns = (
        points,
        np.array(eps_ranges, dtype=float),
        np.array(site_ids, dtype=np.intp),
        np.array(local_cluster_ids, dtype=np.intp),
    )
    for name, column in zip(_COLUMNS[1:], columns[1:]):
        if column.shape != (m,):
            raise ValueError(f"{name} has shape {column.shape}, expected ({m},)")
    ranges = columns[1]
    if not m:
        columns = (points.reshape(0, 0), *columns[1:])
    elif not np.isfinite(points).all():
        row = ~np.isfinite(points).all(axis=1)
        raise ValueError(
            f"representative coordinates must be finite, got {points[row][0]!r}"
        )
    # NaN fails every comparison, so both reductions catch it.
    elif not (ranges.min() > 0 and ranges.max() < np.inf):
        bad = ~((ranges > 0) & (ranges < np.inf))
        raise ValueError(f"eps_range must be > 0, got {ranges[bad][0]}")
    for column in columns:
        column.setflags(write=False)
    return columns


def stack_columns(parts) -> tuple[np.ndarray, ...]:
    """The ``points``, ``eps_ranges``, ``site_ids`` and
    ``local_cluster_ids`` of ``parts`` (models or deltas), concatenated
    in order; parts without representatives are skipped."""
    parts = [part for part in parts if len(part.eps_ranges)]
    if not parts:
        return np.empty((0, 0)), np.empty(0), *np.empty((2, 0), dtype=np.intp)
    return tuple(
        np.concatenate([getattr(part, name) for part in parts]) for name in _COLUMNS
    )


@lru_cache(maxsize=64)
def record_dtype(fields: tuple[tuple[str, str], ...], dim: int) -> np.dtype:
    """A packed little-endian record: ``fields`` (name, type) in order,
    then ``dim`` float64 coordinates in the field ``points``."""
    return np.dtype([*fields, ("points", "<f8", (dim,))])


def pack_records(dtype: np.dtype, columns) -> bytes:
    """One packed ``dtype`` record per representative, each field read
    from the attribute of ``columns`` that it names.

    Raises:
        ValueError: when an id does not fit its integer field (NumPy's
            cast would wrap it silently).
    """
    n = len(columns.eps_ranges)
    records = np.empty(n, dtype=dtype)
    for name in dtype.names:
        values = getattr(columns, name)
        kind = dtype.fields[name][0]
        if n and kind.kind in "iu" and not np.can_cast(values.dtype, kind):
            info = np.iinfo(kind)
            if not info.min <= values.min() <= values.max() <= info.max:
                bad = values[(values < info.min) | (values > info.max)][0]
                raise ValueError(f"{name} value {bad} does not fit a {kind.str} field")
        records[name] = values
    return records.tobytes()


class _Table:
    """What both models share: the columns, value equality, and
    read-only columns after a copy or an unpickle."""

    _scalars: tuple[str, ...] = ()
    _columns: tuple[str, ...] = _COLUMNS

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        """Coordinates per representative (0 for an empty model)."""
        return self.points.shape[1]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._scalars
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self._columns
        )

    __hash__ = None

    def _check_columns(self) -> None:
        self.points, self.eps_ranges, self.site_ids, self.local_cluster_ids = (
            model_columns(
                self.points, self.eps_ranges, self.site_ids, self.local_cluster_ids
            )
        )

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in self._columns:
            getattr(self, name).setflags(write=False)

    def _accounting_bytes(self, site_id: int, ids: str) -> bytes:
        """Header (site id, count, dim), then per representative the id
        column ``ids`` (uint32), ε_r (float64) and the coordinates."""
        dtype = record_dtype(((ids, _ACCOUNTING_ID), ("eps_ranges", "<f8")), self.dim)
        header = _HEADER.pack(site_id, len(self), self.dim)
        return header + pack_records(dtype, self)


@dataclass(eq=False)
class LocalModel(_Table):
    """Everything one site sends to the server.

    Attributes:
        site_id: originating site.
        points: representative coordinates ``(m, d)`` (concrete local
            objects for ``REP_Scor``, k-means centroids for
            ``REP_kMeans``).
        eps_ranges: the specific ε-range ``ε_r`` of each representative —
            the radius of the area it describes (Definition 7 / §5.2).
        local_cluster_ids: the site-scoped local cluster each
            representative describes.
        n_objects: number of objects on the site (reporting only; the paper
            quotes the representative share of the data volume).
        scheme: ``"rep_scor"`` or ``"rep_kmeans"``.
        eps_local: the site's DBSCAN ``Eps``.
        min_pts_local: the site's DBSCAN ``MinPts``.
        site_ids: originating site per representative; defaults to
            ``site_id`` on every row (a regional aggregate keeps its
            sources' ids).
    """

    site_id: int
    points: np.ndarray
    eps_ranges: np.ndarray
    local_cluster_ids: np.ndarray
    n_objects: int
    scheme: str
    eps_local: float
    min_pts_local: int
    site_ids: np.ndarray | None = None

    _scalars = ("site_id", "n_objects", "scheme", "eps_local", "min_pts_local")

    def __post_init__(self) -> None:
        if self.site_ids is None:
            self.site_ids = np.full(np.shape(self.eps_ranges), self.site_id)
        self._check_columns()

    @property
    def n_local_clusters(self) -> int:
        """Number of local clusters the model describes."""
        return distinct_count(self.local_cluster_ids)

    @property
    def max_eps_range(self) -> float:
        """Largest ε_r in the model (feeds the ``Eps_global`` default)."""
        return float(self.eps_ranges.max()) if len(self) else 0.0

    def validate(self) -> list[str]:
        """Semantic admission checks beyond what construction enforces.

        Construction already rejects NaN/inf coordinates, non-positive
        ε-ranges and rows of another dimensionality; this method covers
        the cross-field consistency a server must check before merging a
        model it did not build itself (see ``RoundCore.arrive``):

        * the site id is a valid client id (non-negative),
        * every representative claims the model's site id,
        * the declared object count can actually produce this many
          representatives (each representative stands for at least one
          object, so ``len(model) <= n_objects`` whenever a count is
          declared).

        Returns:
            A list of human-readable problems; empty means admissible.
        """
        problems = []
        if self.site_id < 0:
            problems.append(f"negative site id {self.site_id}")
        if self.n_objects < 0:
            problems.append(f"negative object count {self.n_objects}")
        foreign = np.flatnonzero(self.site_ids != self.site_id)
        if foreign.size:
            problems.append(
                f"representative claims site {int(self.site_ids[foreign[0]])}, "
                f"model claims site {self.site_id}"
            )
        if self.n_objects > 0 and len(self) > self.n_objects:
            problems.append(
                f"{len(self)} representatives declared for only "
                f"{self.n_objects} objects"
            )
        return problems

    def to_bytes(self) -> bytes:
        """Serialize for transmission-size accounting.

        Layout: header (site id, count, dim) then per representative the
        local cluster id (uint32), ε_r (float64) and coordinates (float64
        each) — the minimal wire content of ``LocalModel_k``.

        Raises:
            ValueError: when a local cluster id does not fit a uint32.
        """
        return self._accounting_bytes(self.site_id, "local_cluster_ids")

    @classmethod
    def from_bytes(
        cls,
        payload: bytes,
        *,
        n_objects: int = 0,
        scheme: str = "unknown",
        eps_local: float = 0.0,
        min_pts_local: int = 0,
    ) -> "LocalModel":
        """Inverse of :meth:`to_bytes` (metadata fields are not on the wire)."""
        site_id, count, dim = _HEADER.unpack_from(payload, 0)
        dtype = record_dtype(
            (("local_cluster_ids", _ACCOUNTING_ID), ("eps_ranges", "<f8")), dim
        )
        records = np.frombuffer(payload, dtype, count=count, offset=_HEADER.size)
        return cls(
            site_id=site_id,
            points=records["points"],
            eps_ranges=records["eps_ranges"],
            local_cluster_ids=records["local_cluster_ids"],
            n_objects=n_objects,
            scheme=scheme,
            eps_local=eps_local,
            min_pts_local=min_pts_local,
        )


@dataclass(eq=False)
class GlobalModel(_Table):
    """The server's clustering of all local representatives (§6).

    Attributes:
        points: all representatives from all sites, ``(m, d)``, in server
            processing order.
        eps_ranges: their specific ε-ranges.
        site_ids: their originating sites.
        local_cluster_ids: their site-scoped local cluster ids.
        global_labels: global cluster id per representative (no noise —
            every representative belongs to a global cluster, singletons
            included: "each specific local representative forms a cluster
            on its own").
        eps_global: the ``Eps_global`` the server clustered with.
        min_pts_global: always 2 in the paper.

    A model is never changed in place: a repair or a fold builds a new
    one.  The relabel step (:mod:`repro.core.relabel`) relies on that: it
    keeps the cover grids and the label table it builds over a model in a
    private slot that equality, ``repr`` and pickling leave out.
    """

    points: np.ndarray
    eps_ranges: np.ndarray
    site_ids: np.ndarray
    local_cluster_ids: np.ndarray
    global_labels: np.ndarray
    eps_global: float
    min_pts_global: int = 2
    _cover_grids: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    _scalars = ("eps_global", "min_pts_global")
    _columns = (*_COLUMNS, "global_labels")

    def __post_init__(self) -> None:
        self._check_columns()
        labels = np.array(self.global_labels, dtype=np.intp)
        if labels.shape != (len(self),):
            raise ValueError(f"{len(self)} representatives but {labels.size} labels")
        if labels.size and labels.min() < 0:
            raise ValueError("global labels must be non-negative (no noise)")
        labels.setflags(write=False)
        self.global_labels = labels

    def __getstate__(self) -> dict:
        # Derived state stays behind: a pickle is the model's value only.
        return {**self.__dict__, "_cover_grids": {}}

    @property
    def n_global_clusters(self) -> int:
        """Number of distinct global clusters."""
        return distinct_count(self.global_labels)

    def members_of(self, global_id: int) -> np.ndarray:
        """Row indices of the representatives assigned to ``global_id``."""
        return np.flatnonzero(self.global_labels == global_id)

    def to_bytes(self) -> bytes:
        """Serialize for transmission-size accounting (broadcast payload):
        the local layout with the global label as the id.

        Raises:
            ValueError: when a global label does not fit a uint32.
        """
        return self._accounting_bytes(0, "global_labels")
