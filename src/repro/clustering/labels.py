"""Label conventions and bookkeeping shared by all clustering algorithms.

A *clustering* over ``n`` objects is an integer label array of length ``n``:
non-negative entries are cluster identifiers, :data:`NOISE` (``-1``) marks
noise, and :data:`UNCLASSIFIED` (``-2``) marks objects an algorithm has not
visited yet (never present in finished results).  This mirrors Definition 8
of the paper: clusters are disjoint subsets of the database, noise is
everything else.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

__all__ = [
    "NOISE",
    "UNCLASSIFIED",
    "n_clusters",
    "cluster_ids",
    "cluster_sizes",
    "cluster_members",
    "noise_mask",
    "noise_ratio",
    "compact_labels",
    "relabel",
    "contingency_table",
    "distinct",
    "distinct_count",
    "validate_labels",
]

NOISE = -1
UNCLASSIFIED = -2


def validate_labels(labels: np.ndarray) -> np.ndarray:
    """Check and normalize a finished label array.

    Args:
        labels: 1-D integer array.

    Returns:
        The array as ``np.intp``.

    Raises:
        ValueError: if the array is not 1-D or still contains
            :data:`UNCLASSIFIED` entries.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    labels = labels.astype(np.intp, copy=False)
    if labels.size and labels.min() < NOISE:
        raise ValueError("labels contain UNCLASSIFIED entries; clustering unfinished")
    return labels


def distinct(
    values: np.ndarray, *, return_inverse: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-D array, and with
    ``return_inverse`` each value's index among them: what
    ``np.unique(values, return_inverse=True)`` answers, from one sort and
    one comparison of neighbours.  On the few thousand integer ids of a
    relabel or a global fold that is several times cheaper than
    ``np.unique`` (``docs/performance.md``)."""
    if not return_inverse:
        ordered = np.sort(values)
        return ordered[_run_starts(ordered)]
    # Equal values share their rank, so the sort need not be stable.
    order = np.argsort(values)
    ordered = values[order]
    starts = _run_starts(ordered)
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def distinct_count(values: np.ndarray) -> int:
    """How many distinct values a 1-D array holds (one sort, one
    comparison of neighbours)."""
    return int(np.count_nonzero(_run_starts(np.sort(values))))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def cluster_ids(labels: np.ndarray) -> np.ndarray:
    """Sorted array of distinct non-noise cluster identifiers."""
    labels = validate_labels(labels)
    ids = np.unique(labels)
    return ids[ids >= 0]


def n_clusters(labels: np.ndarray) -> int:
    """Number of distinct non-noise clusters."""
    return int(cluster_ids(labels).size)


def cluster_sizes(labels: np.ndarray) -> dict[int, int]:
    """Mapping ``cluster id -> member count`` (noise excluded)."""
    labels = validate_labels(labels)
    counts = Counter(int(label) for label in labels if label >= 0)
    return dict(sorted(counts.items()))


def cluster_members(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Mapping ``cluster id -> sorted member index array`` (noise excluded)."""
    labels = validate_labels(labels)
    return {int(cid): np.flatnonzero(labels == cid) for cid in cluster_ids(labels)}


def noise_mask(labels: np.ndarray) -> np.ndarray:
    """Boolean mask of noise objects."""
    return validate_labels(labels) == NOISE


def noise_ratio(labels: np.ndarray) -> float:
    """Fraction of objects labelled noise (0.0 for an empty array)."""
    labels = validate_labels(labels)
    if labels.size == 0:
        return 0.0
    return float(np.count_nonzero(labels == NOISE)) / labels.size


def compact_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber cluster ids to ``0 .. k-1`` preserving first-appearance order.

    Noise stays :data:`NOISE`.  Useful after merges/relabels have left gaps
    in the id space.
    """
    labels = validate_labels(labels)
    out = np.full(labels.shape, NOISE, dtype=np.intp)
    mapping: dict[int, int] = {}
    for i, label in enumerate(labels):
        if label < 0:
            continue
        if label not in mapping:
            mapping[int(label)] = len(mapping)
        out[i] = mapping[int(label)]
    return out


def relabel(labels: np.ndarray, mapping: dict[int, int]) -> np.ndarray:
    """Apply a cluster-id mapping, leaving unmapped ids (and noise) alone.

    Args:
        labels: finished label array.
        mapping: old id -> new id.

    Returns:
        New label array.
    """
    labels = validate_labels(labels)
    out = labels.copy()
    for i, label in enumerate(labels):
        if label >= 0 and int(label) in mapping:
            out[i] = mapping[int(label)]
    return out


def contingency_table(
    left: np.ndarray, right: np.ndarray
) -> dict[tuple[int, int], int]:
    """Joint label counts of two clusterings over the same objects.

    Args:
        left: first label array (noise allowed).
        right: second label array of the same length.

    Returns:
        Mapping ``(left id, right id) -> count`` including noise pairs
        (noise appears as ``-1``).

    Raises:
        ValueError: on length mismatch.
    """
    left = validate_labels(left)
    right = validate_labels(right)
    if left.shape != right.shape:
        raise ValueError(
            f"label arrays must align, got {left.shape} vs {right.shape}"
        )
    table = Counter(zip(map(int, left), map(int, right)))
    return dict(table)
