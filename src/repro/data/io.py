"""Persistence helpers: datasets, labels and models on disk.

Real deployments of a DBDC-style system need to move three artifacts
around: point sets (site data), clusterings (labels) and the transmitted
models.  This module provides simple, dependency-free formats for each:

* point sets + labels → ``.npz`` (numpy archive, exact round trip),
* labels alone → ``.csv`` (one ``index,label`` row per object —
  interoperable with anything),
* local/global models → ``.json`` (human-inspectable wire content).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.core.models import GlobalModel, LocalModel

__all__ = [
    "save_points",
    "load_points",
    "save_labels_csv",
    "load_labels_csv",
    "local_model_to_dict",
    "local_model_from_dict",
    "save_local_model",
    "load_local_model",
    "global_model_to_dict",
    "global_model_from_dict",
    "save_global_model",
    "load_global_model",
]


# ----------------------------------------------------------------------
# point sets
# ----------------------------------------------------------------------
def save_points(
    path: str | Path, points: np.ndarray, labels: np.ndarray | None = None
) -> None:
    """Save a point set (and optional labels) as a ``.npz`` archive.

    Args:
        path: target file.
        points: array of shape ``(n, d)``.
        labels: optional label array of length ``n``.

    Raises:
        ValueError: on label/point length mismatch.
    """
    points = np.asarray(points, dtype=float)
    payload = {"points": points}
    if labels is not None:
        labels = np.asarray(labels, dtype=np.intp)
        if labels.shape != (points.shape[0],):
            raise ValueError(
                f"{points.shape[0]} points but {labels.shape} labels"
            )
        payload["labels"] = labels
    np.savez_compressed(Path(path), **payload)


def load_points(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Load a point set saved by :func:`save_points`.

    Returns:
        ``(points, labels)``; ``labels`` is ``None`` when absent.
    """
    with np.load(Path(path)) as archive:
        points = archive["points"]
        labels = archive["labels"] if "labels" in archive.files else None
    return points, labels


# ----------------------------------------------------------------------
# labels
# ----------------------------------------------------------------------
def save_labels_csv(path: str | Path, labels: np.ndarray) -> None:
    """Write labels as ``index,label`` CSV rows (with a header)."""
    labels = np.asarray(labels, dtype=np.intp)
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "label"])
        for i, label in enumerate(labels):
            writer.writerow([i, int(label)])


def load_labels_csv(path: str | Path) -> np.ndarray:
    """Read labels written by :func:`save_labels_csv`.

    Raises:
        ValueError: when indices are not the contiguous range ``0..n-1``.
    """
    indices, labels = [], []
    with open(Path(path), newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["index", "label"]:
            raise ValueError(f"unexpected CSV header: {header}")
        for row in reader:
            indices.append(int(row[0]))
            labels.append(int(row[1]))
    if indices != list(range(len(indices))):
        raise ValueError("label CSV indices must be contiguous from 0")
    return np.asarray(labels, dtype=np.intp)


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------
_ROW_KEYS = ("point", "eps_range", "site_id", "local_cluster_id")
_COLUMNS = ("points", "eps_ranges", "site_ids", "local_cluster_ids")


def _rows_to_dicts(model: LocalModel | GlobalModel) -> list[dict]:
    """One JSON object per representative (the file format is row-wise)."""
    columns = (getattr(model, name).tolist() for name in _COLUMNS)
    return [dict(zip(_ROW_KEYS, row)) for row in zip(*columns)]


def _columns_from_dicts(rows: list[dict]) -> dict:
    """The model columns of :func:`_rows_to_dicts`' rows."""
    columns = {
        name: [row[key] for row in rows] for key, name in zip(_ROW_KEYS, _COLUMNS)
    }
    if not rows:
        columns["points"] = np.empty((0, 0))
    return columns


def local_model_to_dict(model: LocalModel) -> dict:
    """JSON-serializable form of a local model (full metadata)."""
    return {
        "kind": "local_model",
        "site_id": model.site_id,
        "n_objects": model.n_objects,
        "scheme": model.scheme,
        "eps_local": model.eps_local,
        "min_pts_local": model.min_pts_local,
        "representatives": _rows_to_dicts(model),
    }


def local_model_from_dict(data: dict) -> LocalModel:
    """Inverse of :func:`local_model_to_dict`.

    Raises:
        ValueError: when the payload is not a local model.
    """
    if data.get("kind") != "local_model":
        raise ValueError(f"not a local model payload: kind={data.get('kind')!r}")
    return LocalModel(
        site_id=int(data["site_id"]),
        **_columns_from_dicts(data["representatives"]),
        n_objects=int(data["n_objects"]),
        scheme=str(data["scheme"]),
        eps_local=float(data["eps_local"]),
        min_pts_local=int(data["min_pts_local"]),
    )


def save_local_model(path: str | Path, model: LocalModel) -> None:
    """Write a local model as indented JSON."""
    Path(path).write_text(json.dumps(local_model_to_dict(model), indent=2))


def load_local_model(path: str | Path) -> LocalModel:
    """Read a local model written by :func:`save_local_model`."""
    return local_model_from_dict(json.loads(Path(path).read_text()))


def global_model_to_dict(model: GlobalModel) -> dict:
    """JSON-serializable form of a global model."""
    return {
        "kind": "global_model",
        "eps_global": model.eps_global,
        "min_pts_global": model.min_pts_global,
        "global_labels": [int(label) for label in model.global_labels],
        "representatives": _rows_to_dicts(model),
    }


def global_model_from_dict(data: dict) -> GlobalModel:
    """Inverse of :func:`global_model_to_dict`.

    Raises:
        ValueError: when the payload is not a global model.
    """
    if data.get("kind") != "global_model":
        raise ValueError(f"not a global model payload: kind={data.get('kind')!r}")
    return GlobalModel(
        **_columns_from_dicts(data["representatives"]),
        global_labels=np.asarray(data["global_labels"], dtype=np.intp),
        eps_global=float(data["eps_global"]),
        min_pts_global=int(data["min_pts_global"]),
    )


def save_global_model(path: str | Path, model: GlobalModel) -> None:
    """Write a global model as indented JSON."""
    Path(path).write_text(json.dumps(global_model_to_dict(model), indent=2))


def load_global_model(path: str | Path) -> GlobalModel:
    """Read a global model written by :func:`save_global_model`."""
    return global_model_from_dict(json.loads(Path(path).read_text()))
