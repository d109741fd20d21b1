"""Shared fixtures and reference oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.labels import NOISE
from repro.data.generators import gaussian_blobs, uniform_noise


@pytest.fixture
def rng():
    """A fresh, seeded random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def force_width(monkeypatch):
    """Let a parallel run keep its configured width: eight usable CPUs
    and no size floor, so a few hundred points run the pool a test
    names instead of falling back to one worker."""
    import repro.distributed.runner as runner

    monkeypatch.setattr(runner, "usable_cpu_count", lambda: 8)
    monkeypatch.setattr(runner, "FALLBACK_MIN_POINTS", 0)


@pytest.fixture
def small_blobs():
    """Three well-separated 2-D blobs + a little noise (n=330)."""
    points, truth = gaussian_blobs(
        [100, 100, 100],
        np.asarray([[0.0, 0.0], [20.0, 0.0], [10.0, 18.0]]),
        1.0,
        seed=7,
    )
    noise = uniform_noise(30, (-10.0, 30.0), dim=2, seed=8)
    all_points = np.concatenate([points, noise])
    all_truth = np.concatenate([truth, np.full(30, NOISE, dtype=np.intp)])
    return all_points, all_truth


@pytest.fixture
def tiny_grid_points():
    """A deterministic 7-point layout with known DBSCAN structure.

    With eps=1.5, min_pts=3:
      * points 0-3 form a dense square (all core),
      * point 4 hangs off point 3 (border),
      * points 5, 6 are far away and isolated (noise).
    """
    return np.asarray(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [2.2, 1.0],
            [10.0, 10.0],
            [20.0, -5.0],
        ]
    )


def brute_force_neighbors(points: np.ndarray, i: int, eps: float) -> np.ndarray:
    """Oracle N_Eps: plain distance scan (used to check every index)."""
    diff = points - points[i]
    dist = np.sqrt((diff * diff).sum(axis=1))
    return np.flatnonzero(dist <= eps)


def partitions_equal_up_to_borders(
    labels_a: np.ndarray,
    labels_b: np.ndarray,
    core_mask: np.ndarray,
) -> bool:
    """Whether two DBSCAN labelings agree as partitions of the core points.

    DBSCAN's clusters are unique on core points; border points may be
    claimed by either adjacent cluster depending on processing order, and
    noise must match exactly.  This helper checks exactly that.
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    # Core points: the induced partitions must be identical.
    core_a = labels_a[core_mask]
    core_b = labels_b[core_mask]
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for a, b in zip(core_a, core_b):
        if a < 0 or b < 0:
            return False
        if mapping.setdefault(int(a), int(b)) != int(b):
            return False
        if reverse.setdefault(int(b), int(a)) != int(a):
            return False
    # Non-core points: noise on one side must be noise or border on the
    # other only if it is border-ambiguous; we require noise to match.
    noise_a = (labels_a == NOISE) & ~core_mask
    noise_b = (labels_b == NOISE) & ~core_mask
    return bool(np.array_equal(noise_a, noise_b))
