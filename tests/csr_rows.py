"""The rows of a batched neighbour query, for tests.

``range_query_batch`` and ``region_query_batch`` answer in CSR form,
``(hits, offsets)``.  :func:`csr_rows` checks that shape on every answer
it is given and returns the rows, one array per query, so a test can
compare each row with the per-query answer.
"""

from __future__ import annotations

import numpy as np


def csr_rows(answer) -> list[np.ndarray]:
    """The rows of a CSR answer, after checking its shape: two fresh
    ``intp`` arrays, ``offsets`` starting at 0, non-decreasing and ending
    at ``hits.size``, each row strictly ascending."""
    hits, offsets = answer
    assert hits.dtype == np.intp and offsets.dtype == np.intp
    assert hits.ndim == offsets.ndim == 1 and offsets.size >= 1
    assert hits.flags.owndata and offsets.flags.owndata
    assert offsets[0] == 0 and offsets[-1] == hits.size
    assert (np.diff(offsets) >= 0).all()
    bounds = offsets.tolist()
    rows = [hits[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    assert all((np.diff(row) > 0).all() for row in rows)
    return rows
