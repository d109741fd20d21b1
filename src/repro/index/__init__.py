"""Exact spatial indexes for ``Eps``-range queries.

DBSCAN's region queries are served by one of four interchangeable exact
structures, all built from scratch:

* :class:`~repro.index.brute.BruteForceIndex` — linear scan oracle,
* :class:`~repro.index.grid.GridIndex` — uniform grid, cell size = ``Eps``,
* :class:`~repro.index.kdtree.KDTreeIndex` — median-split kd-tree,
* :class:`~repro.index.rtree.RTreeIndex` — STR bulk-loaded R-tree (the
  structure family the paper used).

Use :func:`~repro.index.factory.build_index` to construct one by name.

All indexes also answer *batched* queries (``range_query_batch`` /
``region_query_batch``) in one CSR shape, ``(hits, offsets)``, or just
counts: brute and kd-tree compute the per-query rows with vectorized
group evaluation, and the grid answers every query through one
vectorized cell-pair join — what DBSCAN's level-synchronous expansion
rides on (see ``docs/performance.md``).
"""

from repro.index.base import NeighborIndex
from repro.index.brute import BruteForceIndex
from repro.index.factory import available_indexes, build_index
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTreeIndex
from repro.index.mtree import MTreeIndex
from repro.index.rtree import RTreeIndex

__all__ = [
    "NeighborIndex",
    "BruteForceIndex",
    "GridIndex",
    "KDTreeIndex",
    "MTreeIndex",
    "RTreeIndex",
    "build_index",
    "available_indexes",
]
