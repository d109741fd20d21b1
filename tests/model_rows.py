"""Small models written row by row, for tests.

A model is a table of columns (``repro.core.models``); a test often reads
better as a list of representatives.  :class:`Row` is one ``(r, ε_r)``
pair with its ids, and :func:`local_model` / :func:`global_model` build a
model from rows through the column constructors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.models import GlobalModel, LocalModel


class Row(NamedTuple):
    """One representative: its point, ε_r, site and local cluster."""

    point: tuple[float, ...]
    eps_range: float = 1.0
    site_id: int = 0
    local_cluster_id: int = 0


def columns(rows) -> dict:
    """The column keyword arguments of a model holding ``rows``."""
    rows = list(rows)
    return {
        "points": (
            np.asarray([row.point for row in rows], dtype=float)
            if rows
            else np.empty((0, 0))
        ),
        "eps_ranges": [row.eps_range for row in rows],
        "site_ids": [row.site_id for row in rows],
        "local_cluster_ids": [row.local_cluster_id for row in rows],
    }


def local_model(
    site_id: int,
    rows,
    n_objects: int = 100,
    scheme: str = "rep_scor",
    eps_local: float = 1.0,
    min_pts_local: int = 5,
) -> LocalModel:
    """A local model of ``rows`` (each keeps its own site id)."""
    return LocalModel(
        site_id=site_id,
        **columns(rows),
        n_objects=n_objects,
        scheme=scheme,
        eps_local=eps_local,
        min_pts_local=min_pts_local,
    )


def global_model(
    rows, labels, eps_global: float = 1.0, min_pts_global: int = 2
) -> GlobalModel:
    """A global model of ``rows`` labelled ``labels``."""
    return GlobalModel(
        **columns(rows),
        global_labels=np.asarray(labels, dtype=np.intp),
        eps_global=eps_global,
        min_pts_global=min_pts_global,
    )


def rows_of(model) -> list[Row]:
    """A model's representatives as rows."""
    return [
        Row(tuple(point), eps_range, site_id, local_id)
        for point, eps_range, site_id, local_id in zip(
            model.points.tolist(),
            model.eps_ranges.tolist(),
            model.site_ids.tolist(),
            model.local_cluster_ids.tolist(),
        )
    ]


def covers(model, point, metric) -> bool:
    """Whether ``point`` lies in some representative's ε_r-neighbourhood."""
    return any(
        metric.pairwise(rep_point, point) <= eps_range
        for rep_point, eps_range in zip(model.points, model.eps_ranges)
    )
