"""Model types exchanged between DBDC sites and the server.

A *local model* (Sections 5-6) is the aggregated information a client site
transmits instead of its raw data: a set of pairs ``(r, ε_r)`` where ``r``
is a representative point and ``ε_r`` the specific ε-range describing the
area ``r`` stands for.  The *global model* is the server's clustering of all
representatives: every representative carries a global cluster id.

Both models know how to serialize themselves to bytes — not for real
networking (the sites are simulated in-process) but because the paper's
efficiency argument is about *transmission volume*; the byte sizes feed the
network-cost accounting in :mod:`repro.distributed.network`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Representative", "LocalModel", "GlobalModel"]

_HEADER = struct.Struct("<III")  # site id, number of reps, dimensionality


@dataclass(frozen=True)
class Representative:
    """One ``(r, ε_r)`` pair of a local model.

    Attributes:
        point: the representative's coordinates (a concrete local object for
            ``REP_Scor``, a k-means centroid for ``REP_kMeans``).
        eps_range: the specific ε-range ``ε_r`` — radius of the area this
            representative describes (Definitions 7 / Section 5.2).
        site_id: originating site.
        local_cluster_id: id of the local cluster the representative
            describes (site-scoped).
    """

    point: np.ndarray
    eps_range: float
    site_id: int
    local_cluster_id: int

    def __post_init__(self) -> None:
        point = np.asarray(self.point, dtype=float)
        object.__setattr__(self, "point", point)
        # Corrupt payloads must fail loudly at construction, not poison the
        # global DBSCAN: NaN/inf coordinates break every distance function,
        # and a non-positive ε-range describes no area at all (Def. 7 gives
        # every representative a strictly positive specific ε-range).
        if not np.isfinite(point).all():
            raise ValueError(
                f"representative coordinates must be finite, got {point!r}"
            )
        if not np.isfinite(self.eps_range) or self.eps_range <= 0:
            raise ValueError(f"eps_range must be > 0, got {self.eps_range}")

    def covers(self, point: np.ndarray, metric) -> bool:
        """Whether ``point`` lies in this representative's ε_r-neighborhood."""
        return bool(metric.pairwise(self.point, point) <= self.eps_range)


@dataclass
class LocalModel:
    """Everything one site sends to the server.

    Attributes:
        site_id: originating site.
        representatives: the ``(r, ε_r)`` pairs (``LocalModel_k`` in §5).
        n_objects: number of objects on the site (reporting only; the paper
            quotes the representative share of the data volume).
        scheme: ``"rep_scor"`` or ``"rep_kmeans"``.
        eps_local: the site's DBSCAN ``Eps``.
        min_pts_local: the site's DBSCAN ``MinPts``.
    """

    site_id: int
    representatives: list[Representative]
    n_objects: int
    scheme: str
    eps_local: float
    min_pts_local: int

    def __len__(self) -> int:
        return len(self.representatives)

    @property
    def n_local_clusters(self) -> int:
        """Number of local clusters the model describes."""
        return len({rep.local_cluster_id for rep in self.representatives})

    @property
    def max_eps_range(self) -> float:
        """Largest ε_r in the model (feeds the ``Eps_global`` default)."""
        if not self.representatives:
            return 0.0
        return max(rep.eps_range for rep in self.representatives)

    def points(self) -> np.ndarray:
        """Representative coordinates stacked into an ``(m, d)`` array."""
        if not self.representatives:
            return np.empty((0, 0))
        return np.asarray([rep.point for rep in self.representatives])

    def eps_ranges(self) -> np.ndarray:
        """The ε_r values aligned with :meth:`points`."""
        return np.asarray([rep.eps_range for rep in self.representatives])

    def validate(self) -> list[str]:
        """Semantic admission checks beyond what construction enforces.

        :class:`Representative` already rejects NaN/inf coordinates and
        non-positive ε-ranges at construction; this method covers the
        cross-field consistency a server must check before merging a model
        it did not build itself (see ``CentralServer.admit``):

        * the site id is a valid client id (non-negative),
        * every representative claims the model's site id,
        * all representatives share one dimensionality,
        * the declared object count can actually produce this many
          representatives (each representative stands for at least one
          object, so ``len(representatives) <= n_objects`` whenever a
          count is declared).

        Returns:
            A list of human-readable problems; empty means admissible.
        """
        problems: list[str] = []
        if self.site_id < 0:
            problems.append(f"negative site id {self.site_id}")
        if self.n_objects < 0:
            problems.append(f"negative object count {self.n_objects}")
        dims = {rep.point.size for rep in self.representatives}
        if len(dims) > 1:
            problems.append(f"mixed representative dimensionalities {sorted(dims)}")
        for rep in self.representatives:
            if rep.site_id != self.site_id:
                problems.append(
                    f"representative claims site {rep.site_id}, "
                    f"model claims site {self.site_id}"
                )
                break
        if self.n_objects > 0 and len(self.representatives) > self.n_objects:
            problems.append(
                f"{len(self.representatives)} representatives declared for "
                f"only {self.n_objects} objects"
            )
        return problems

    def to_bytes(self) -> bytes:
        """Serialize for transmission-size accounting.

        Layout: header (site id, count, dim) then per representative the
        local cluster id (uint32), ε_r (float64) and coordinates (float64
        each) — the minimal wire content of ``LocalModel_k``.
        """
        dim = self.representatives[0].point.size if self.representatives else 0
        chunks = [_HEADER.pack(self.site_id, len(self.representatives), dim)]
        record = struct.Struct(f"<Id{dim}d")
        for rep in self.representatives:
            chunks.append(
                record.pack(rep.local_cluster_id, rep.eps_range, *rep.point)
            )
        return b"".join(chunks)

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
        record = struct.Struct(f"<Id{dim}d")
        offset = _HEADER.size
        reps = []
        for __ in range(count):
            values = record.unpack_from(payload, offset)
            offset += record.size
            reps.append(
                Representative(
                    point=np.asarray(values[2:], dtype=float),
                    eps_range=values[1],
                    site_id=site_id,
                    local_cluster_id=values[0],
                )
            )
        return cls(
            site_id=site_id,
            representatives=reps,
            n_objects=n_objects,
            scheme=scheme,
            eps_local=eps_local,
            min_pts_local=min_pts_local,
        )


@dataclass
class GlobalModel:
    """The server's clustering of all local representatives (§6).

    Attributes:
        representatives: all representatives from all sites, in server
            processing order.
        global_labels: global cluster id per representative (no noise —
            every representative belongs to a global cluster, singletons
            included: "each specific local representative forms a cluster
            on its own").
        eps_global: the ``Eps_global`` the server clustered with.
        min_pts_global: always 2 in the paper.

    A model is never changed in place: a repair or a fold builds a new
    one.  The relabel step (:mod:`repro.core.relabel`) relies on that: it
    derives its state from a model once and keeps it in a private slot
    that equality, ``repr`` and pickling leave out.
    """

    representatives: list[Representative]
    global_labels: np.ndarray
    eps_global: float
    min_pts_global: int = 2
    _relabel_state: object = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.global_labels = np.asarray(self.global_labels, dtype=np.intp)
        if len(self.representatives) != self.global_labels.size:
            raise ValueError(
                f"{len(self.representatives)} representatives but "
                f"{self.global_labels.size} labels"
            )
        if self.global_labels.size and self.global_labels.min() < 0:
            raise ValueError("global labels must be non-negative (no noise)")

    def __len__(self) -> int:
        return len(self.representatives)

    def __getstate__(self) -> dict:
        # Derived state stays behind: a pickle is the model's value only.
        return {**self.__dict__, "_relabel_state": None}

    @property
    def n_global_clusters(self) -> int:
        """Number of distinct global clusters."""
        return int(np.unique(self.global_labels).size) if len(self) else 0

    def points(self) -> np.ndarray:
        """Representative coordinates stacked into an ``(m, d)`` array."""
        if not self.representatives:
            return np.empty((0, 0))
        return np.asarray([rep.point for rep in self.representatives])

    def eps_ranges(self) -> np.ndarray:
        """The ε_r values aligned with :meth:`points`."""
        return np.asarray([rep.eps_range for rep in self.representatives])

    def members_of(self, global_id: int) -> list[Representative]:
        """Representatives assigned to ``global_id``."""
        return [
            rep
            for rep, label in zip(self.representatives, self.global_labels)
            if label == global_id
        ]

    def to_bytes(self) -> bytes:
        """Serialize for transmission-size accounting (broadcast payload)."""
        dim = self.representatives[0].point.size if self.representatives else 0
        chunks = [_HEADER.pack(0, len(self.representatives), dim)]
        record = struct.Struct(f"<Id{dim}d")
        for rep, label in zip(self.representatives, self.global_labels):
            chunks.append(record.pack(int(label), rep.eps_range, *rep.point))
        return b"".join(chunks)
