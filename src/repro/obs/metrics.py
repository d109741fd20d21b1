"""Zero-dependency metrics registry: counters, gauges, histograms.

Every hot layer of the pipeline (DBSCAN and its region queries, the
resilient transport with its checksums and circuit breakers, the central
server's admission gate, the distributed runner and its recovery rounds)
records into a :class:`MetricsRegistry` when one is passed, and into
:data:`NULL_METRICS` — nothing, not even an allocation — when none is.
The registry is deliberately tiny: three metric families, float values,
power-of-two histogram buckets, and a JSON-ready
:meth:`MetricsRegistry.to_dict` export that lands in
``DistributedRunReport.trace`` and the traced scenario presets' output.

Metric names are dotted paths (``"index.region_queries"``); per-kind
variants append the kind in brackets (``"transport.bytes[local_model]"``).
Units are part of the documented name contract (see
``docs/observability.md``), not runtime state.

Worker threads and worker processes record into *their own* registry and
the driver merges the exported dicts (:meth:`MetricsRegistry.merge`), so
no lock contention or cross-process state is needed on the hot path; the
driver-side registry itself is still thread-safe.
"""

from __future__ import annotations

import math
import threading

__all__ = ["MetricsRegistry", "NullMetrics", "NULL_METRICS"]


def _bucket_bound(value: float) -> float:
    """Power-of-two upper bound of the histogram bucket holding ``value``.

    ``0`` collects everything ``<= 0``; exponents are clamped to
    ``2**-30 .. 2**60`` so pathological values cannot mint unbounded
    bucket keys.
    """
    if value <= 0:
        return 0.0
    exponent = math.ceil(math.log2(value))
    return float(2.0 ** min(60, max(-30, exponent)))


class MetricsRegistry:
    """Thread-safe counters, gauges and histograms.

    All three families share one flat name space per family; recording
    under a new name creates the metric on the fly (observability must
    never raise in production paths).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, total, min, max, {bucket_bound: count}]
        self._histograms: dict[str, list] = {}

    # Locks cannot cross process boundaries; a registry that rides along
    # in a pickled object (e.g. an index captured by a worker-process
    # result) re-creates its lock on arrival.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        value = float(value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = [0, 0.0, math.inf, -math.inf, {}]
                self._histograms[name] = hist
            hist[0] += 1
            hist[1] += value
            hist[2] = min(hist[2], value)
            hist[3] = max(hist[3], value)
            bound = _bucket_bound(value)
            hist[4][bound] = hist[4].get(bound, 0) + 1

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of counter or gauge ``name`` (``default`` if unset)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            return self._gauges.get(name, default)

    def merge(self, exported: dict | None) -> None:
        """Fold a :meth:`to_dict` export (e.g. from a worker) into this
        registry: counters add, gauges take the incoming value, histograms
        combine."""
        if not exported:
            return
        for name, value in exported.get("counters", {}).items():
            self.inc(name, value)
        for name, value in exported.get("gauges", {}).items():
            self.set(name, value)
        with self._lock:
            for name, data in exported.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = [0, 0.0, math.inf, -math.inf, {}]
                    self._histograms[name] = hist
                hist[0] += data["count"]
                hist[1] += data["sum"]
                hist[2] = min(hist[2], data["min"])
                hist[3] = max(hist[3], data["max"])
                for bound, count in data["buckets"].items():
                    bound = float(bound)
                    hist[4][bound] = hist[4].get(bound, 0) + count

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": hist[0],
                        "sum": hist[1],
                        "min": hist[2] if hist[0] else 0.0,
                        "max": hist[3] if hist[0] else 0.0,
                        # JSON object keys must be strings.
                        "buckets": {
                            str(bound): count
                            for bound, count in sorted(hist[4].items())
                        },
                    }
                    for name, hist in self._histograms.items()
                },
            }


class NullMetrics:
    """The disabled registry: every record is a no-op and allocates nothing.

    A single module-level instance (:data:`NULL_METRICS`) is shared by
    everyone; library code holds either a real registry or this object and
    never needs a ``None`` check.
    """

    enabled = False

    def inc(self, name: str, value: float = 1.0) -> None:
        """No-op."""

    def set(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, value: float) -> None:
        """No-op."""

    def value(self, name: str, default: float = 0.0) -> float:
        """Always ``default``."""
        return default

    def merge(self, exported: dict | None) -> None:
        """No-op."""

    def to_dict(self) -> dict:
        """An empty snapshot."""
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()
