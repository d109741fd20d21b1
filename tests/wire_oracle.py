"""The per-record ``struct`` model codecs: the oracle of the packed ones.

These are the codecs ``repro.service.wire`` and ``repro.core.models``
used before a model became its columns: one ``struct`` record packed or
unpacked per representative, in a Python loop.  They read and return
columns, so ``tests/test_wire.py`` can compare them with the vectorized
codecs byte for byte and column for column.  Each decode returns the
header fields and a dict of columns.
"""

from __future__ import annotations

import struct

import numpy as np

_LOCAL_HEADER = struct.Struct("<iqdIIIH")
_DELTA_HEADER = struct.Struct("<dIIII")
_ACCOUNTING_HEADER = struct.Struct("<III")


def _dim(points: np.ndarray) -> int:
    return points.shape[1] if points.shape[0] else 0


def _columns(rows: list[tuple], dim: int, fields: tuple[str, ...]) -> dict:
    """Unpacked records → columns: the leading ``fields``, then ε_r and
    the ``dim`` coordinates."""
    n = len(rows)
    columns = {
        name: np.asarray([row[i] for row in rows], dtype=np.intp)
        for i, name in enumerate(fields)
    }
    k = len(fields)
    columns["eps_ranges"] = np.asarray([row[k] for row in rows], dtype=float)
    columns["points"] = np.asarray(
        [row[k + 1 :] for row in rows], dtype=float
    ).reshape(n, dim)
    return columns


def encode_local_model(model) -> bytes:
    dim = _dim(model.points)
    record = struct.Struct(f"<id{dim}d")
    scheme = model.scheme.encode("utf-8")
    chunks = [
        _LOCAL_HEADER.pack(
            model.site_id,
            model.n_objects,
            model.eps_local,
            model.min_pts_local,
            len(model.eps_ranges),
            dim,
            len(scheme),
        ),
        scheme,
    ]
    for cid, eps, point in zip(
        model.local_cluster_ids.tolist(),
        model.eps_ranges.tolist(),
        model.points.tolist(),
    ):
        chunks.append(record.pack(cid, eps, *point))
    return b"".join(chunks)


def decode_local_model(payload: bytes) -> tuple[tuple, dict]:
    header = _LOCAL_HEADER.unpack_from(payload, 0)
    n_reps, dim, scheme_len = header[4:]
    offset = _LOCAL_HEADER.size + scheme_len
    record = struct.Struct(f"<id{dim}d")
    rows = [
        record.unpack_from(payload, offset + i * record.size) for i in range(n_reps)
    ]
    scheme = payload[_LOCAL_HEADER.size : offset].decode("utf-8")
    return (*header[:4], scheme), _columns(rows, dim, ("local_cluster_ids",))


def encode_model_delta(delta) -> bytes:
    dim = _dim(delta.points)
    record = struct.Struct(f"<iid{dim}d")
    n_new = len(delta.eps_ranges)
    chunks = [
        _DELTA_HEADER.pack(
            delta.eps_global, delta.min_pts_global, delta.base_count, n_new, dim
        )
    ]
    for site, cid, eps, point in zip(
        delta.site_ids.tolist(),
        delta.local_cluster_ids.tolist(),
        delta.eps_ranges.tolist(),
        delta.points.tolist(),
    ):
        chunks.append(record.pack(site, cid, eps, *point))
    chunks.append(np.ascontiguousarray(delta.labels, dtype="<i8").tobytes())
    return b"".join(chunks)


def decode_model_delta(payload: bytes) -> tuple[tuple, dict]:
    eps_global, min_pts, base_count, n_new, dim = _DELTA_HEADER.unpack_from(
        payload, 0
    )
    record = struct.Struct(f"<iid{dim}d")
    rows = [
        record.unpack_from(payload, _DELTA_HEADER.size + i * record.size)
        for i in range(n_new)
    ]
    columns = _columns(rows, dim, ("site_ids", "local_cluster_ids"))
    offset = _DELTA_HEADER.size + n_new * record.size
    columns["labels"] = np.frombuffer(payload, "<i8", offset=offset).astype(np.intp)
    return (eps_global, min_pts, base_count), columns


def accounting_bytes(site_id: int, ids, model) -> bytes:
    """``LocalModel.to_bytes`` (``ids``: the local cluster ids) and
    ``GlobalModel.to_bytes`` (``site_id`` 0, ``ids``: the labels)."""
    dim = _dim(model.points)
    record = struct.Struct(f"<Id{dim}d")
    chunks = [_ACCOUNTING_HEADER.pack(site_id, len(model.eps_ranges), dim)]
    for label, eps, point in zip(
        np.asarray(ids).tolist(), model.eps_ranges.tolist(), model.points.tolist()
    ):
        chunks.append(record.pack(label, eps, *point))
    return b"".join(chunks)
