"""Distance metrics used throughout the DBDC reproduction.

DBSCAN (and therefore DBDC) is defined over an arbitrary metric space.  The
paper stresses that DBSCAN "can be used for all kinds of metric data spaces
and is not confined to vector spaces" (Section 4).  This module provides the
metric abstraction the rest of the library builds on:

* scalar pairwise distances (``pairwise``),
* vectorized one-to-many kernels (``to_many``) which the spatial indexes and
  the brute-force scans rely on for speed,
* vectorized many-to-many kernels (``to_matrix``) and row-paired kernels
  (``to_pairs``, one distance per ``(query, point)`` row pair) which the
  batched query layer uses to evaluate whole query blocks in one numpy
  call — these are written so that every entry is bitwise identical to
  the corresponding ``to_many`` entry (same subtraction, same reduction
  order), which DBSCAN's exact equivalence to the classic loop relies on,
* a small registry so metrics can be selected by name from configuration
  objects and the CLI.

All kernels accept ``numpy`` arrays; points are rows of shape ``(d,)`` and
point sets are arrays of shape ``(n, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Metric",
    "euclidean",
    "squared_euclidean",
    "manhattan",
    "chebyshev",
    "minkowski_metric",
    "get_metric",
    "register_metric",
    "available_metrics",
    "pairwise_distances",
]


@dataclass(frozen=True)
class Metric:
    """A distance metric bundling scalar and vectorized kernels.

    Attributes:
        name: registry key (e.g. ``"euclidean"``).
        pairwise: ``f(p, q) -> float`` distance between two points.
        to_many: ``f(p, X) -> ndarray`` distances from point ``p`` to every
            row of ``X`` (shape ``(len(X),)``).  It must be element-wise:
            entry ``j`` of ``to_many(p, X)`` is bitwise ``to_many(p,
            X[j:j+1])[0]``, whatever the other rows of ``X``, which is
            what lets the kernels below (and :meth:`paired`'s fallback)
            answer a block of rows at once.
        params: optional metric parameters (e.g. Minkowski ``p``).
        to_matrix: optional ``f(Q, X) -> ndarray`` of shape ``(len(Q),
            len(X))``; row ``i`` must be bitwise identical to
            ``to_many(Q[i], X)``.  ``None`` falls back to a row loop.
        to_pairs: optional ``f(Q, X) -> ndarray`` of shape ``(len(Q),)``
            with ``out[i] = d(Q[i], X[i])``, bitwise identical to
            ``to_many(Q[i], X[i:i+1])``.  Called as ``f(Q, X, out)`` only
            when a caller of :meth:`paired` passes ``out``: it then writes
            the distances there and may overwrite ``X``.  ``None`` falls
            back to one ``to_many`` call per run of equal consecutive
            rows of ``Q``.
    """

    name: str
    pairwise: Callable[[np.ndarray, np.ndarray], float]
    to_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    to_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    to_pairs: Callable[..., np.ndarray] | None = None

    def matrix(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Full distance matrix between two point sets.

        Uses the vectorized ``to_matrix`` kernel when the metric provides
        one (chunked over ``left`` so the broadcast temporary stays small),
        otherwise one ``to_many`` sweep per row of ``left``.  Both paths
        produce bitwise-identical results.

        Args:
            left: array of shape ``(n, d)``.
            right: array of shape ``(m, d)``.

        Returns:
            Array of shape ``(n, m)`` with ``out[i, j] = d(left[i], right[j])``.
        """
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        out = np.empty((left.shape[0], right.shape[0]), dtype=float)
        if self.to_matrix is not None:
            # Bound the (chunk, m, d) broadcast temporary to ~32 MB.
            per_row = max(1, right.shape[0] * max(right.shape[1] if right.ndim == 2 else 1, 1))
            chunk = max(1, 4_000_000 // per_row)
            for start in range(0, left.shape[0], chunk):
                stop = start + chunk
                out[start:stop] = self.to_matrix(left[start:stop], right)
        else:
            for i, row in enumerate(left):
                out[i] = self.to_many(row, right)
        return out

    def paired(
        self, left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Row-paired distances ``out[i] = d(left[i], right[i])``.

        Each entry is bitwise equal to ``to_many(left[i], right[i:i+1])``,
        so a query answered through one flat array of ``(query, point)``
        pairs sees exactly the distances of a per-query sweep.

        Args:
            left: array of shape ``(k, d)``.
            right: array of shape ``(k, d)``.
            out: optional float array of shape ``(k,)`` to write the
                distances into.  The built-in kernels then use ``right``
                as scratch and overwrite it with the row differences, so
                a caller that gathered ``right`` into a buffer of its own
                allocates nothing here.  The ufunc sequence is the same
                with and without ``out``, and so is every distance.

        Returns:
            Array of shape ``(k,)`` (``out`` when given).
        """
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        if self.to_pairs is not None:
            if out is None:
                return self.to_pairs(left, right)
            return self.to_pairs(left, right, out)
        k = left.shape[0]
        if out is None:
            out = np.empty(k, dtype=float)
        if not k:
            return out
        # Pairs of one query run consecutively (a CSR block): one call per
        # run of bitwise-equal left rows, element-wise ``to_many`` making
        # each entry the per-pair call's.
        bits = np.ascontiguousarray(left).view(np.uint64)
        starts = np.flatnonzero(np.any(bits[1:] != bits[:-1], axis=1)) + 1
        bounds = [0, *starts.tolist(), k]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out[lo:hi] = self.to_many(left[lo], right[lo:hi])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
            return f"Metric({self.name}, {inner})"
        return f"Metric({self.name})"


def _euclidean_pair(p: np.ndarray, q: np.ndarray) -> float:
    diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return float(np.sqrt(np.dot(diff, diff)))


def _euclidean_many(p: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = np.asarray(points, dtype=float) - np.asarray(p, dtype=float)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _squared_pair(p: np.ndarray, q: np.ndarray) -> float:
    diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return float(np.dot(diff, diff))


def _squared_many(p: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = np.asarray(points, dtype=float) - np.asarray(p, dtype=float)
    return np.einsum("ij,ij->i", diff, diff)


def _manhattan_pair(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())


def _manhattan_many(p: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(points, dtype=float) - np.asarray(p, dtype=float)).sum(axis=1)


def _chebyshev_pair(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).max())


def _chebyshev_many(p: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(points, dtype=float) - np.asarray(p, dtype=float)).max(axis=1)


# Many-to-many kernels: the broadcast subtraction and the reduction over the
# trailing axis perform the exact same float operations per (query, point)
# pair as the to_many kernels, so every row is bitwise equal to a to_many
# call — a property the batched query layer's equivalence guarantee needs.

def _broadcast_diff(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=float)
    points = np.asarray(points, dtype=float)
    return points[None, :, :] - queries[:, None, :]


def _euclidean_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = _broadcast_diff(queries, points)
    return np.sqrt(np.einsum("qnd,qnd->qn", diff, diff))


def _squared_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = _broadcast_diff(queries, points)
    return np.einsum("qnd,qnd->qn", diff, diff)


def _manhattan_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.abs(_broadcast_diff(queries, points)).sum(axis=2)


def _chebyshev_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.abs(_broadcast_diff(queries, points)).max(axis=2)


# Row-paired kernels: ``points - queries`` row by row is the ``to_many``
# subtraction (``points - p``) and the reduction over the last axis of a
# contiguous ``(k, d)`` array is the ``to_many`` reduction, so each entry
# is bitwise equal to the one-to-many kernel's.  With ``out`` the same
# ufuncs write into ``out`` and, for the row differences, into ``points``.

def _euclidean_pairs(
    queries: np.ndarray, points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    scratch = None if out is None else points
    diff = np.subtract(points, queries, out=scratch)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff, out=out), out=out)


def _squared_pairs(
    queries: np.ndarray, points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    scratch = None if out is None else points
    diff = np.subtract(points, queries, out=scratch)
    return np.einsum("ij,ij->i", diff, diff, out=out)


def _manhattan_pairs(
    queries: np.ndarray, points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    scratch = None if out is None else points
    diff = np.abs(np.subtract(points, queries, out=scratch), out=scratch)
    return diff.sum(axis=1, out=out)


def _chebyshev_pairs(
    queries: np.ndarray, points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    scratch = None if out is None else points
    diff = np.abs(np.subtract(points, queries, out=scratch), out=scratch)
    return diff.max(axis=1, out=out)


euclidean = Metric(
    "euclidean", _euclidean_pair, _euclidean_many,
    to_matrix=_euclidean_matrix, to_pairs=_euclidean_pairs,
)
squared_euclidean = Metric(
    "squared_euclidean", _squared_pair, _squared_many,
    to_matrix=_squared_matrix, to_pairs=_squared_pairs,
)
manhattan = Metric(
    "manhattan", _manhattan_pair, _manhattan_many,
    to_matrix=_manhattan_matrix, to_pairs=_manhattan_pairs,
)
chebyshev = Metric(
    "chebyshev", _chebyshev_pair, _chebyshev_many,
    to_matrix=_chebyshev_matrix, to_pairs=_chebyshev_pairs,
)


def minkowski_metric(p: float) -> Metric:
    """Build a Minkowski metric of order ``p``.

    Args:
        p: Minkowski exponent; must be >= 1 for the triangle inequality.

    Returns:
        A :class:`Metric` computing ``(sum |x_i - y_i|^p)^(1/p)``.

    Raises:
        ValueError: if ``p < 1``.
    """
    if p < 1:
        raise ValueError(f"Minkowski order must be >= 1, got {p}")

    def pair(a: np.ndarray, b: np.ndarray) -> float:
        diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return float(np.power(np.power(diff, p).sum(), 1.0 / p))

    def many(a: np.ndarray, points: np.ndarray) -> np.ndarray:
        diff = np.abs(np.asarray(points, dtype=float) - np.asarray(a, dtype=float))
        return np.power(np.power(diff, p).sum(axis=1), 1.0 / p)

    def matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
        diff = np.abs(_broadcast_diff(queries, points))
        return np.power(np.power(diff, p).sum(axis=2), 1.0 / p)

    return Metric(f"minkowski(p={p:g})", pair, many, params={"p": p}, to_matrix=matrix)


_REGISTRY: dict[str, Metric] = {
    "euclidean": euclidean,
    "squared_euclidean": squared_euclidean,
    "manhattan": manhattan,
    "cityblock": manhattan,
    "chebyshev": chebyshev,
    "linf": chebyshev,
}


def register_metric(metric: Metric, *aliases: str) -> None:
    """Register a metric under its name (and optional aliases)."""
    _REGISTRY[metric.name] = metric
    for alias in aliases:
        _REGISTRY[alias] = metric


def available_metrics() -> list[str]:
    """Names accepted by :func:`get_metric`, sorted."""
    return sorted(_REGISTRY)


def get_metric(metric: str | Metric) -> Metric:
    """Resolve a metric by name or pass one through.

    Args:
        metric: registry name or a :class:`Metric` instance.

    Returns:
        The resolved :class:`Metric`.

    Raises:
        KeyError: for unknown names.
    """
    if isinstance(metric, Metric):
        return metric
    try:
        return _REGISTRY[metric]
    except KeyError:
        known = ", ".join(available_metrics())
        raise KeyError(f"unknown metric {metric!r}; known: {known}") from None


def pairwise_distances(points: np.ndarray, metric: str | Metric = "euclidean") -> np.ndarray:
    """Symmetric distance matrix of a point set.

    Args:
        points: array of shape ``(n, d)``.
        metric: metric name or instance.

    Returns:
        Array of shape ``(n, n)``.
    """
    resolved = get_metric(metric)
    points = np.asarray(points, dtype=float)
    return resolved.matrix(points, points)
