"""Per-layer busy time for the traced run (``--trace 1``).

The program is left untouched: :class:`LayerClock` wraps the entry point of
each layer from outside, for the duration of the traced run, and charges
every call's *self time* (its time minus the time of wrapped calls nested
in it on the same thread) to that layer.  A computing layer is charged the
CPU time of its thread, so time spent waiting for the interpreter lock
held by another thread is not counted; the two waiting layers, ``rpc_wait``
(a client's request round trip) and ``fsync``, are charged wall time.
Times are summed over all threads: site workers, the service's event loop
and its executor.

An entry point the program no longer has, or a layer the workload must
reach that records no call, is reported by :meth:`LayerClock.problems`
and marks the traced run incorrect, so a renamed or bypassed layer cannot
read as a layer that got faster.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict

# (layer, module, attribute path, layers it is counted within).  A call
# made outside the named enclosing layers is charged to whatever layer
# encloses it instead: the global build's DBSCAN on representatives
# stays global build, the relabel step's coverage queries stay relabel.
ENTRY_POINTS = [
    ("local_model", "repro.core.local", "build_local_model", None),
    ("dbscan", "repro.clustering.dbscan", "DBSCAN.fit", {"local_model"}),
    ("index_build", "repro.clustering.dbscan", "build_index", {"dbscan"}),
    ("global_build", "repro.core.global_model", "build_global_model", None),
    ("repair", "repro.core.global_model", "GlobalModelRepairer.add_model", None),
    ("relabel", "repro.core.relabel", "relabel_site", None),
    ("admission", "repro.service.server", "DBDCService._admit", None),
    ("round_commit", "repro.service.server", "DBDCService._commit_round", None),
    ("journal_append", "repro.service.journal", "WriteAheadJournal.append", None),
    ("rpc_wait", "repro.service.transport", "SocketTransport.request", None),
]
REGION_QUERY_METHODS = (
    "region_query",
    "region_query_batch",
    "range_query",
    "range_query_batch",
    "count_in_range",
)
LAYERS = [layer for layer, *__ in ENTRY_POINTS] + [
    "region_query",
    "wire_codec",
    "fsync",
]
# Layers whose call counts are reported too: each is one unit of work an
# optimisation would remove (a round trip, a durable write, a frame).
COUNTED = ["region_query", "rpc_wait", "fsync", "wire_codec", "index_build"]
WAITING = {"rpc_wait", "fsync"}


class LayerClock:
    """Installs timing wrappers on the layer entry points and collects
    per-layer busy seconds and call counts until :meth:`uninstall`."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._missing: list[str] = []

    def install(self) -> "LayerClock":
        import repro.index.base
        import repro.service.wire

        for layer, module_name, path, within in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, __, name = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner_name:
                found = self._wrap_method(owner, name, layer, within)
            else:
                found = self._wrap_function(getattr(owner, name, None), layer, within)
            if not found:
                self._missing.append(f"{module_name}.{path}")
        index_base = repro.index.base.NeighborIndex
        found = False
        for cls in [index_base, *_subclasses(index_base)]:
            for name in REGION_QUERY_METHODS:
                found |= self._wrap_method(cls, name, "region_query", {"dbscan"})
        if not found:
            self._missing.append("repro.index.base.NeighborIndex region queries")
        wire = repro.service.wire
        found = False
        for name in dir(wire):
            if name.startswith(("encode_", "decode_")):
                found |= self._wrap_function(getattr(wire, name), "wire_codec", None)
        if not found:
            self._missing.append("repro.service.wire encode_*/decode_*")
        self._wrap_method(os, "fsync", "fsync", None)
        return self

    def problems(self, required: set[str]) -> list[str]:
        """Entry points that could not be wrapped, and layers in
        ``required`` that recorded no call."""
        return [f"entry point not found: {name}" for name in self._missing] + [
            f"layer recorded no call: {layer}"
            for layer in sorted(required)
            if not self.calls[layer]
        ]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap_function(self, original, layer: str, within) -> bool:
        """Replace ``original`` in every loaded ``repro`` module that
        imported it by name; returns whether any was replaced."""
        if not callable(original):
            return False
        replaced = False
        timed = self._timed(original, layer, within)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, timed)
                    self._undo.append((module, name, original))
                    replaced = True
        return replaced

    def _wrap_method(self, owner, name: str, layer: str, within) -> bool:
        """Replace ``owner.name`` where ``owner`` (a class or module)
        defines it itself; returns whether it did."""
        original = vars(owner).get(name) if owner is not None else None
        if not callable(original):
            return False
        setattr(owner, name, self._timed(original, layer, within))
        self._undo.append((owner, name, original))
        return True

    def _timed(self, original, layer: str, within):
        clock = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = clock._stack()
            enclosing = stack[-1][0] if stack else None
            if enclosing == layer or (
                within is not None and enclosing not in within
            ):
                return original(*args, **kwargs)
            frame = [layer, 0.0, 0.0]  # layer, child wall, child CPU
            stack.append(frame)
            wall_start = time.perf_counter()
            cpu_start = time.thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                wall = time.perf_counter() - wall_start
                cpu = time.thread_time() - cpu_start
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                busy = wall - frame[1] if layer in WAITING else cpu - frame[2]
                with clock._lock:
                    clock.seconds[layer] += busy
                    clock.calls[layer] += 1

        return timed

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def metrics(self, n_ops: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-operation busy milliseconds of every layer, corrected to
        reference speed by ``scale``, and per-operation call counts of the
        counted ones."""
        per_op = 1.0 / max(n_ops, 1)
        out = {
            f"{layer}_ms": (1e3 * self.seconds[layer] * per_op * scale, "ms")
            for layer in LAYERS
        }
        out.update(
            {
                f"{layer}_calls": (self.calls[layer] * per_op, "count")
                for layer in COUNTED
            }
        )
        return out


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
