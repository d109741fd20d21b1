"""Trace exports: the JSON trace document, Chrome ``trace_event`` files,
per-phase totals and schema validation.

The canonical artifact is the *trace document* — a plain dict with the
span forest, the metrics snapshot and clock metadata — written by
the traced scenario presets and embedded in ``DistributedRunReport.trace``.
:func:`to_chrome_trace` converts it to the Chrome ``trace_event`` format
(open in ``chrome://tracing`` or Perfetto): pid 1 shows the wall clock,
pid 2 shows the simulated clock, and site-attributed spans get their own
thread lanes.

:func:`validate_trace` checks a document against the checked-in JSON
schema (``trace_schema.json``) with a small built-in validator — the
subset of JSON Schema the schema actually uses — so CI can gate on trace
shape without any third-party dependency.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import NULL_METRICS

__all__ = [
    "TRACE_FORMAT_VERSION",
    "trace_document",
    "to_chrome_trace",
    "shift_span_times",
    "write_trace",
    "write_chrome_trace",
    "phase_totals",
    "round_spans",
    "server_round_seconds",
    "critical_path",
    "format_critical_path",
    "load_trace_schema",
    "validate_trace",
    "validate_document",
]

TRACE_FORMAT_VERSION = 1

_SCHEMA_PATH = Path(__file__).with_name("trace_schema.json")


def trace_document(tracer, metrics=None) -> dict:
    """Assemble the canonical trace document from a tracer (and optional
    metrics registry)."""
    metrics = NULL_METRICS if metrics is None else metrics
    return {
        "version": TRACE_FORMAT_VERSION,
        "clocks": {
            "wall": "time.perf_counter seconds, origin-normalized",
            "sim": "simulated protocol seconds (RoundPolicy / network clock)",
        },
        "origin": {"wall": tracer.wall_origin},
        "spans": tracer.export_spans(),
        "metrics": metrics.to_dict(),
    }


def _walk(spans, depth=0, site=None, parent_name=None, process=None):
    """Yield ``(span_dict, depth, site_id, parent_name, process)`` over a
    forest.  ``site`` and ``process`` attrs propagate to descendants."""
    for span in spans:
        span_site = site
        span_process = process
        attrs = span.get("attrs", {})
        if "site" in attrs:
            span_site = attrs["site"]
        if "process" in attrs:
            span_process = attrs["process"]
        yield span, depth, span_site, parent_name, span_process
        yield from _walk(
            span.get("children", []),
            depth + 1,
            span_site,
            span["name"],
            span_process,
        )


def to_chrome_trace(doc: dict) -> dict:
    """Convert a trace document to Chrome ``trace_event`` JSON.

    Base process lanes: pid 1 replays the wall clock, pid 2 replays the
    simulated clock (only spans that carry sim timestamps appear there).
    Spans carrying (or inheriting) a ``process`` attribute — the merged
    distributed-trace documents the socket service emits — each get their
    *own* pid lane (3, 4, ...), named ``process <name>`` in first-seen
    order, with the document's ``processes`` map pre-registering lanes so
    ordering is stable.  Within each pid, tid 1 is the driver and tid
    ``2 + site`` is one lane per site.  Timestamps/durations are
    microseconds per the format.
    """
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "wall clock"},
        },
        {
            "ph": "M",
            "pid": 2,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "simulated clock"},
        },
    ]
    process_pids: dict[str, int] = {}

    def _process_pid(process: str) -> int:
        pid = process_pids.get(process)
        if pid is None:
            pid = 3 + len(process_pids)
            process_pids[process] = pid
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": f"process {process}"},
                }
            )
        return pid

    for process in doc.get("processes", {}):
        _process_pid(str(process))

    for span, __, site, __parent, process in _walk(doc.get("spans", [])):
        tid = 1 if site is None else 2 + int(site)
        wall_pid = 1 if process is None else _process_pid(str(process))
        args = {
            key: value
            for key, value in span.get("attrs", {}).items()
            if isinstance(value, (str, int, float, bool))
        }
        events.append(
            {
                "ph": "X",
                "pid": wall_pid,
                "tid": tid,
                "name": span["name"],
                "ts": span["wall_start"] * 1e6,
                "dur": max(0.0, span["wall_end"] - span["wall_start"]) * 1e6,
                "args": args,
            }
        )
        if span.get("sim_start") is not None and span.get("sim_end") is not None:
            events.append(
                {
                    "ph": "X",
                    "pid": 2,
                    "tid": tid,
                    "name": span["name"],
                    "ts": span["sim_start"] * 1e6,
                    "dur": max(0.0, span["sim_end"] - span["sim_start"]) * 1e6,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def shift_span_times(span: dict, delta: float) -> dict:
    """Return ``span`` (an exported dict) with all wall timestamps
    shifted by ``delta`` seconds, recursively.

    Used when merging a remote process's span forest into the server's
    trace: ``delta`` is the remote origin plus the estimated clock
    offset minus the local origin, so all lanes share one timeline.
    Sim timestamps are a shared logical clock and are left alone.
    """
    out = dict(span)
    out["wall_start"] = span["wall_start"] + delta
    out["wall_end"] = span["wall_end"] + delta
    if span.get("children"):
        out["children"] = [
            shift_span_times(child, delta) for child in span["children"]
        ]
    return out


def write_trace(doc: dict, path) -> Path:
    """Write the trace document to ``path`` as JSON."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_chrome_trace(doc: dict, path) -> Path:
    """Write the Chrome ``trace_event`` conversion of ``doc`` to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(doc)) + "\n")
    return path


def phase_totals(doc: dict) -> dict:
    """Sum span durations by span name across the document.

    Returns ``{name: {"count", "wall_seconds", "sim_seconds"}}`` where
    ``sim_seconds`` is ``None`` for names that never carry sim stamps.
    Used by the benchmarks and the reconciliation test to compare trace
    contents against report timing fields.
    """
    totals: dict[str, dict] = {}
    for span, __, __site, __parent, __process in _walk(doc.get("spans", [])):
        entry = totals.setdefault(
            span["name"], {"count": 0, "wall_seconds": 0.0, "sim_seconds": None}
        )
        entry["count"] += 1
        entry["wall_seconds"] += span["wall_end"] - span["wall_start"]
        if span.get("sim_start") is not None and span.get("sim_end") is not None:
            if entry["sim_seconds"] is None:
                entry["sim_seconds"] = 0.0
            entry["sim_seconds"] += span["sim_end"] - span["sim_start"]
    return totals


def _duration(span: dict) -> float:
    return span["wall_end"] - span["wall_start"]


def round_spans(doc: dict) -> dict[tuple[int, int], dict]:
    """``{(round, site): span}`` of the session workers' ``round`` spans."""
    return {
        (int(span["attrs"]["round"]), int(site)): span
        for span, __, site, __parent, __process in _walk(doc.get("spans", []))
        if span["name"] == "round" and site is not None
    }


def server_round_seconds(doc: dict) -> dict[int, dict[str, float]]:
    """Per-round server seconds: admission / repair / broadcast.

    ``serve[local_model]`` spans cover the whole admission branch; the
    ``round_commit`` recorded inside the triggering admission is carved
    out, so *admission* counts gate work only and *repair* the commit.
    ``serve[model_delta]`` covers the delta encode (broadcast).
    """
    totals: dict[int, dict[str, float]] = {}
    for span, __, __site, __parent, __process in _walk(doc.get("spans", [])):
        if "round" not in span.get("attrs", {}):
            continue
        row = totals.setdefault(
            int(span["attrs"]["round"]),
            {"admission": 0.0, "repair": 0.0, "broadcast": 0.0},
        )
        if span["name"] == "serve[local_model]":
            row["admission"] += _duration(span)
        elif span["name"] == "round_commit":
            row["repair"] += _duration(span)
            row["admission"] -= _duration(span)
        elif span["name"] == "serve[model_delta]":
            row["broadcast"] += _duration(span)
    for row in totals.values():
        row["admission"] = max(row["admission"], 0.0)
    return totals


def critical_path(doc: dict) -> list[dict]:
    """Per-round critical-path rows of a merged session trace.

    For each round the *gating site* is the one whose round span is
    longest (the round cannot commit before its slowest site), the
    *gating phase* is that site's longest phase child, and the server
    columns split the round's server work into admission, repair and
    broadcast.
    """
    by_round: dict[int, list[tuple[int, dict]]] = {}
    for (round_index, site_id), span in round_spans(doc).items():
        by_round.setdefault(round_index, []).append((site_id, span))
    server = server_round_seconds(doc)
    rows: list[dict] = []
    for round_index in sorted(by_round):
        site_id, span = max(by_round[round_index], key=lambda p: _duration(p[1]))
        children = span.get("children", [])
        phase = max(children, key=_duration) if children else None
        row = {
            "round": round_index,
            "gating_site": site_id,
            "site_wall_seconds": _duration(span),
            "gating_phase": phase["name"] if phase else "",
            "phase_seconds": _duration(phase) if phase else 0.0,
            "n_sites": len(by_round[round_index]),
        }
        seconds = server.get(
            round_index, {"admission": 0.0, "repair": 0.0, "broadcast": 0.0}
        )
        row.update({f"server_{k}_seconds": v for k, v in seconds.items()})
        rows.append(row)
    return rows


def format_critical_path(rows: list[dict]) -> str:
    """Human-readable per-round critical-path report."""
    if not rows:
        return "critical path: no round spans in trace"
    lines = ["round critical path (gating site / phase, server breakdown):"]
    for row in rows:
        lines.append(
            f"  round {row['round']}: site {row['gating_site']} gates at "
            f"{row['site_wall_seconds']:.4f}s "
            f"({row['gating_phase']} {row['phase_seconds']:.4f}s); "
            f"server admission {row['server_admission_seconds'] * 1e3:.2f}ms, "
            f"repair {row['server_repair_seconds'] * 1e3:.2f}ms, "
            f"broadcast {row['server_broadcast_seconds'] * 1e3:.2f}ms"
        )
    return "\n".join(lines)


def load_trace_schema() -> dict:
    """Load the checked-in trace document schema."""
    return json.loads(_SCHEMA_PATH.read_text())


def validate_trace(doc, schema: dict | None = None) -> list[str]:
    """Validate ``doc`` against the trace schema.

    Returns a list of human-readable problems (empty means valid).  The
    validator implements the JSON Schema subset the checked-in schema
    uses: ``type``, ``properties``, ``required``, ``additionalProperties``,
    ``items``, ``enum``, ``minimum``, ``$ref`` into ``$defs``.
    """
    if schema is None:
        schema = load_trace_schema()
    return validate_document(doc, schema)


def validate_document(doc, schema: dict) -> list[str]:
    """Validate any document against a JSON Schema (the supported subset).

    The generic entry point behind :func:`validate_trace`; the run
    registry reuses it for ``runrecord_schema.json``.  Returns a list of
    human-readable problems (empty means valid).
    """
    errors: list[str] = []
    _validate(doc, schema, schema, "$", errors)
    return errors


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, type_name: str) -> bool:
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[type_name])


def _validate(value, schema: dict, root: dict, path: str, errors: list[str]):
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/$defs/"):
            errors.append(f"{path}: unsupported $ref {ref!r}")
            return
        schema = root["$defs"][ref[len("#/$defs/") :]]

    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(value, name) for name in names):
            errors.append(
                f"{path}: expected {'/'.join(names)}, "
                f"got {type(value).__name__}"
            )
            return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']!r}")

    if "minimum" in schema and isinstance(value, (int, float)):
        if not isinstance(value, bool) and value < schema["minimum"]:
            errors.append(f"{path}: {value!r} < minimum {schema['minimum']!r}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                _validate(item, props[key], root, f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                _validate(item, extra, root, f"{path}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], root, f"{path}[{index}]", errors)
