"""Zero-dependency observability: nested-span tracing + a metrics
registry, with JSON / Chrome ``trace_event`` exports.

The package is a leaf — nothing in here imports the rest of ``repro`` —
so every layer of the pipeline can depend on it without cycles.  See
``docs/observability.md`` for the span taxonomy, metric name/unit
contract, and the wall-vs-simulated clock rules.
"""

from repro.obs.export import (
    TRACE_FORMAT_VERSION,
    critical_path,
    format_critical_path,
    load_trace_schema,
    phase_totals,
    round_spans,
    server_round_seconds,
    shift_span_times,
    to_chrome_trace,
    trace_document,
    validate_document,
    validate_trace,
    write_chrome_trace,
    write_trace,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.openmetrics import (
    OPENMETRICS_CONTENT_TYPE,
    parse_openmetrics,
    render_registry,
    render_run_record,
)
from repro.obs.regress import (
    DEFAULT_RULES,
    MetricRule,
    RegressionReport,
    detect_regressions,
    diff_records,
)
from repro.obs.registry import (
    DEFAULT_REGISTRY_ROOT,
    RUNRECORD_VERSION,
    RunRegistry,
    build_run_record,
    config_digest,
    load_runrecord_schema,
    run_environment,
    validate_run_record,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    new_trace_id,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "new_trace_id",
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
    "RUNRECORD_VERSION",
    "DEFAULT_REGISTRY_ROOT",
    "RunRegistry",
    "build_run_record",
    "config_digest",
    "run_environment",
    "load_runrecord_schema",
    "validate_run_record",
    "MetricRule",
    "DEFAULT_RULES",
    "RegressionReport",
    "diff_records",
    "detect_regressions",
    "render_run_record",
    "render_registry",
    "parse_openmetrics",
    "OPENMETRICS_CONTENT_TYPE",
]
