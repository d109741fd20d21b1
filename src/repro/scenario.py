"""One scenario runner: every benchmark and smoke run of the repository.

The paper's evaluation (§9) runs one protocol over a few axes — data
set, cardinality, number of sites, local-model scheme — and scores each
run with ``P^I``/``P^II``.  This module drives that protocol, and every
deployment grown around it, from one declarative spec:

* :class:`Scenario` — a frozen spec of the axes a run varies: data set
  and size, sites, rounds, scheme and seeds; where the server lives (in
  process, a thread-hosted socket service, or a ``repro serve``
  subprocess); a fault sweep (mode, probabilities, trials, corruption,
  recovery rounds); server crashes; tracing; a label-query storm; and
  the hot-path micro-benchmark sections.
* :func:`run` — executes a spec and returns a :class:`Report` whose flat
  metrics are written where they are measured.  Correctness checks that
  fail land in ``report.problems`` (the command exits 1 on any).
* :func:`record` — the one path into the :class:`~repro.obs.RunRegistry`;
  the record's ``config`` is the whole spec, so runs that differ in any
  axis never share a config digest.
* :data:`PRESETS` — named specs behind ``python -m repro scenario
  <preset> [--<field> value]``, whose parser is derived from the spec.

Metric names keep the namespace each kind of run has always used (see
:func:`namespace`), so the committed ``baselines/*.json`` gate this
runner unchanged.  ``docs/performance.md`` has the preset table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import urllib.request
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

# NumPy imports these two lazily: numpy.ma on the first np.unique and
# numpy.random on the first generator.  Imported up front, neither lands
# in a scale probe's phase: a process's first run would charge about
# 1 MB to relabel and 0.7 MB to generate that no later run pays.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.clustering.dbscan import DBSCAN
from repro.clustering.labels import NOISE
from repro.core.global_model import GlobalModelRepairer, build_global_model
from repro.core.local import build_local_model
from repro.core.relabel import CoverMemo, relabel_site
from repro.data.datasets import load_dataset
from repro.distributed.partition import partition, split
from repro.distributed.runner import (
    DistributedRunConfig,
    DistributedRunner,
    RecoveryPolicy,
)
from repro.distributed.site import ClientSite
from repro.distributed.streaming import run_streaming_session
from repro.experiments.common import central_reference, dataset_trial
from repro.faults import FaultPlan, TransportPolicy
from repro.faults.transport import BreakerPolicy, ResilientTransport
from repro.index import build_index, grid
from repro.obs import (
    MetricsRegistry,
    RunRegistry,
    Tracer,
    critical_path,
    format_critical_path,
    parse_openmetrics,
    phase_totals,
    round_spans,
    run_environment,
    server_round_seconds,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
    write_trace,
)
from repro.quality.degraded import evaluate_degraded_quality
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.faulting import FaultingSocketTransport
from repro.service.server import ServiceConfig, ServiceHandle
from repro.service.transport import ServiceError, SocketTransport
from repro.service.worker import run_site_worker, run_site_worker_session

__all__ = [
    "Scenario",
    "Report",
    "PRESETS",
    "SECTIONS",
    "ROUND_PHASES",
    "namespace",
    "run",
    "record",
    "summary",
    "report_document",
    "write_report",
    "reconcile_trace",
    "reconcile_session_trace",
    "build_parser",
    "execute",
    "main",
]

#: The hot-path micro-benchmark sections, in run order.
SECTIONS = (
    "region_queries",
    "dbscan",
    "local_phase",
    "relabel_kernels",
    "global_model",
    "scale",
)

#: The phase children of a session worker's ``round`` span, in order.
ROUND_PHASES = ("open_round", "local_dbscan", "upload", "await_delta", "relabel")

_INDEX_KINDS = ("brute", "grid", "kdtree")

#: Largest primary cardinality the classic sections run at: the
#: brute-force index and the per-query loops are quadratic-ish and
#: pointless to time at 10^6.
_CLASSIC_MAX = 50_000
#: Largest primary cardinality the relabel-kernel comparison (it runs the
#: dense O(n·m) reference sweep on purpose) and the global-model section
#: run at.
_KERNELS_MAX = 200_000

#: Health probes each socket-sweep site sends through its resilient link
#: after the upload, so circuit breakers see enough traffic to trip.
_PROBE_MESSAGES = 3

# (trace span path, report attribute) pairs whose wall durations agree.
_RECONCILED_FIELDS = (
    ("run > local_phase > compute", "local_wall_seconds"),
    ("run > relabel > compute", "relabel_wall_seconds"),
    ("run > global_phase", "global_wall_seconds"),
)


def _axis(default, help: str, choices: tuple | None = None):
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class Scenario:
    """The axes of one run; every field is a ``--<field>`` override."""

    dataset: str = _axis("A", "paper data set", ("A", "B", "C"))
    cardinality: tuple[int, ...] = _axis(
        (), "data set size (default: the paper's); a comma list sweeps the "
        "hot-path 'scale' section, the first entry runs the other sections"
    )
    sites: int = _axis(4, "client sites")
    rounds: int = _axis(1, "streaming rounds (more than 1 needs a server)")
    scheme: str = _axis(
        "rep_scor", "local model scheme", ("rep_scor", "rep_kmeans")
    )
    seed: int = _axis(42, "partition seed; fault seeds derive from it")
    data_seed: int | None = _axis(
        None, "data set generator seed (default: the data set's own)"
    )
    server: str = _axis(
        "none", "where the server runs: in process, a thread-hosted socket "
        "service, or a 'repro serve' subprocess",
        ("none", "thread", "subprocess"),
    )
    fault_mode: str = _axis(
        "sites", "what the fault sweep breaks", ("sites", "links", "chaos")
    )
    failure_probs: tuple[float, ...] = _axis(
        (), "swept failure probabilities (empty: no fault sweep)"
    )
    trials: int = _axis(1, "fault seeds per swept probability")
    corrupt_rate: float = _axis(
        0.0, "payload corruption probability layered on the fault mode"
    )
    recovery_rounds: int = _axis(
        0, "in-process recovery rounds per faulted run (0: abandon)"
    )
    server_crashes: int = _axis(
        0, "hard kills + restarts of the journaled server: between sweep "
        "uploads, after session rounds, or after a one-shot query storm"
    )
    trace: bool = _axis(False, "trace the run and gate the trace document")
    queries: int = _axis(0, "label queries in the storm after the commit")
    clients: int = _axis(8, "concurrent query-storm clients")
    query_batch: int = _axis(256, "points per label query")
    max_inflight: int = _axis(
        0, "server cap on in-flight work requests (0: unbounded)"
    )
    sections: tuple[str, ...] = _axis(
        (), f"hot-path sections to run (of {', '.join(SECTIONS)})"
    )
    parallelism: int = _axis(1, "local-phase width (runner, hot paths)")
    repeats: int = _axis(1, "best-of repeats of each hot-path timing")

    def __post_init__(self) -> None:
        for f in fields(self):
            choices = f.metadata["choices"]
            value = getattr(self, f.name)
            if choices and value not in choices:
                raise ValueError(
                    f"{f.name} must be one of {choices}, got {value!r}"
                )
        for name in ("sites", "rounds", "trials", "clients", "query_batch",
                     "parallelism", "repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("recovery_rounds", "server_crashes", "queries",
                     "max_inflight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if any(value <= 0 for value in self.cardinality):
            raise ValueError(
                f"cardinalities must be positive, got {self.cardinality}"
            )
        if not all(0.0 <= p <= 1.0 for p in (*self.failure_probs, self.corrupt_rate)):
            raise ValueError("failure_probs and corrupt_rate must be in [0, 1]")
        unknown = set(self.sections) - set(SECTIONS)
        if unknown:
            raise ValueError(f"unknown sections {sorted(unknown)}; known: {SECTIONS}")
        in_process = self.server == "none"
        rules = (
            (self.sections and not in_process, "hot-path sections run in process"),
            (self.rounds > 1 and in_process, "rounds > 1 needs a socket server"),
            (self.rounds > 1 and self.failure_probs,
             "fault sweeps run one-shot rounds"),
            (self.server_crashes and in_process, "server crashes need a server"),
            (self.rounds > 1 and self.server_crashes >= self.rounds,
             "the session must continue after the last crash"),
            (self.queries and in_process, "a query storm needs a server"),
            (self.recovery_rounds and not in_process,
             "recovery rounds run in process"),
            (self.trace and self.server == "subprocess",
             "tracing merges spans in process: use a thread server"),
            (self.failure_probs and not in_process and (self.trace or self.queries),
             "socket fault sweeps run no trace and no query storm"),
            (self.sections and (self.trace or self.failure_probs),
             "hot-path sections run alone"),
            (len(self.cardinality) > 1 and "scale" not in self.sections,
             "a cardinality sweep needs the hot-path 'scale' section"),
        )
        for broken, message in rules:
            if broken:
                raise ValueError(message)

    def config(self) -> dict:
        """The whole spec as a JSON-able dict (the record's ``config``)."""
        return asdict(self)


#: Named specs; ``docs/performance.md`` maps each to its baseline.
PRESETS: dict[str, Scenario] = {
    # The paper's protocol in process (``repro run``'s smoke size).
    "run-smoke": Scenario(dataset="C", cardinality=(600,), sites=2),
    # Traced in-process run: schema, 1% reconciliation, Chrome export.
    "trace-smoke": Scenario(cardinality=(1200,), sites=3, seed=7, trace=True),
    # Site-failure sweep over the simulated network (BENCH_chaos.json).
    "chaos": Scenario(failure_probs=(0.0, 0.125, 0.25, 0.375, 0.5), trials=3),
    "chaos-recovery": Scenario(
        dataset="C", cardinality=(600,), failure_probs=(0.0, 0.3),
        recovery_rounds=1, corrupt_rate=0.05,
    ),
    # Hot-path micro-benchmarks (BENCH_hotpaths.json).
    "hotpaths": Scenario(cardinality=(20_000,), sections=SECTIONS, parallelism=4),
    "hotpaths-smoke": Scenario(
        cardinality=(2000,), sections=SECTIONS, parallelism=2
    ),
    # Live socket service: uploads, query storm, scrape, crash drill.
    "service-smoke": Scenario(
        cardinality=(800,), sites=2, server="thread", queries=20, clients=4,
        server_crashes=1,
    ),
    # The fault sweep against real TCP links (drops, breakers).
    "socket-chaos-smoke": Scenario(
        cardinality=(400,), server="thread", fault_mode="links",
        failure_probs=(0.0, 0.9),
    ),
    # Traced 4-site x 3-round socket session, one merged trace.
    "service-trace-smoke": Scenario(
        cardinality=(960,), rounds=3, data_seed=0, server="thread", trace=True
    ),
    # kill -9 a server subprocess after round 0, resume from the journal,
    # then storm the restarted server through max_inflight=1.
    "service-recovery-smoke": Scenario(
        cardinality=(480,), sites=2, rounds=3, data_seed=0,
        server="subprocess", server_crashes=1, queries=48, clients=6,
        max_inflight=1,
    ),
}


def _kind(spec: Scenario) -> str:
    """The kind of run a spec describes: the one place its shape is read.

    :func:`run` dispatches on the kind and :func:`namespace` names the
    metrics after it (both through ``_KINDS``).
    """
    if spec.sections:
        return "hot_paths"
    if spec.server == "none":
        if spec.failure_probs:
            return "chaos"
        return "traced_run" if spec.trace else "paper_run"
    if spec.failure_probs:
        return "socket_chaos"
    if spec.rounds > 1:
        return "recovery" if spec.server_crashes else "session"
    return "one_shot"


def namespace(spec: Scenario) -> str:
    """The metric namespace of a spec's kind of run.

    Each kind keeps the prefix its baseline has always gated; the
    in-process paper run, the traced run and the hot-path sections write
    bare names (``quality.q_p2_percent``, ``relabel_kernels.labels_identical``).
    """
    return _KINDS[_kind(spec)][1]


@dataclass
class Report:
    """What one scenario run measured.

    Attributes:
        spec: the spec that ran (``None`` for a figure command's record).
        command: the registry command (the preset name).
        metrics: flat ``{dotted.name[label]: value}`` measurements.
        problems: failed correctness checks (empty = the run passes).
        notes: human-readable lines the summary prints first.
        trace: the trace document of a traced run.
        metrics_registry: the traced run's ``MetricsRegistry`` snapshot.
        environment: provenance (git revision, versions, cpu count); the
            registry fills it in when empty.
    """

    spec: Scenario | None
    command: str = "scenario"
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    trace: dict | None = None
    metrics_registry: dict | None = None
    environment: dict = field(default_factory=dict)

    def put(self, name: str, value, label: str | None = None) -> None:
        """Store one metric under the spec's namespace."""
        prefix = namespace(self.spec)
        key = f"{prefix}.{name}" if prefix else name
        self.metrics[key if label is None else f"{key}[{label}]"] = float(value)

    def check(self, ok: bool, problem: str) -> float:
        """Record ``problem`` unless ``ok``; returns the flag as 1.0/0.0."""
        if not ok:
            self.problems.append(problem)
        return 1.0 if ok else 0.0


def run(spec: Scenario, command: str = "scenario") -> Report:
    """Execute one scenario and return its report."""
    report = Report(spec=spec, command=command)
    start = time.perf_counter()
    _KINDS[_kind(spec)][0](spec, report)
    report.metrics["command.wall_seconds"] = time.perf_counter() - start
    return report


def _load(spec: Scenario, cardinality: int | None = None):
    if cardinality is None and spec.cardinality:
        cardinality = spec.cardinality[0]
    return load_dataset(spec.dataset, cardinality=cardinality, seed=spec.data_seed)


# -- in process ---------------------------------------------------------


def _paper_run(spec: Scenario, report: Report) -> None:
    """One DBDC execution scored against central DBSCAN (``repro run``)."""
    data = _load(spec)
    central, central_seconds = central_reference(
        data.points, data.eps_local, data.min_pts
    )
    trial = dataset_trial(
        data, n_sites=spec.sites, scheme=spec.scheme, seed=spec.seed,
        central=central, central_seconds=central_seconds,
    )
    result, quality = trial.run.result, trial.quality
    report.notes += [
        f"data set {data.name}: {data.n} objects on {spec.sites} sites",
        f"central DBSCAN: {central.n_clusters} clusters, "
        f"{central.n_noise} noise, {central_seconds:.2f}s",
        f"DBDC({spec.scheme}): {result.n_global_clusters} global clusters, "
        f"{result.n_representatives} representatives "
        f"({100 * result.representative_fraction:.1f}% of the data), "
        f"Eps_global={result.eps_global_used:.2f}",
        f"runtime: max local {result.max_local_seconds:.2f}s + global "
        f"{result.global_seconds:.2f}s = {result.overall_seconds:.2f}s "
        f"(central: {central_seconds:.2f}s)",
        f"quality: P^I = {quality.q_p1_percent:.1f}%  "
        f"P^II = {quality.q_p2_percent:.1f}%",
        f"transmission: {result.bytes_up} bytes up / "
        f"{result.bytes_down} bytes down per site",
    ]
    report.metrics.update({
        "quality.q_p1_percent": quality.q_p1_percent,
        "quality.q_p2_percent": quality.q_p2_percent,
        "model.global_clusters_count": result.n_global_clusters,
        "model.representatives_count": result.n_representatives,
        "model.representative_fraction": result.representative_fraction,
        "local.max_wall_seconds": result.max_local_seconds,
        "global.wall_seconds": result.global_seconds,
        "overall.wall_seconds": result.overall_seconds,
        "central.wall_seconds": central_seconds,
        "net.bytes_up_per_site": result.bytes_up,
        "net.bytes_down_per_site": result.bytes_down,
    })


def _fault_plan(spec: Scenario, prob: float, seed: int) -> FaultPlan:
    plan = {
        "sites": FaultPlan.site_failures,
        "links": FaultPlan.lossy_links,
        "chaos": FaultPlan.chaos,
    }[spec.fault_mode](prob, seed=seed)
    if spec.corrupt_rate > 0.0:
        # The corruption axis rides on the mode, never below its own rate.
        plan = replace(plan, link=replace(
            plan.link, corrupt_prob=max(plan.link.corrupt_prob, spec.corrupt_rate)
        ))
    return plan


def _lanes(spec: Scenario):
    """``(prob, fault seed)`` per swept trial, grouped by probability."""
    for index, prob in enumerate(spec.failure_probs):
        yield prob, [spec.seed + 1000 * index + t for t in range(spec.trials)]


def _runner_lanes(spec: Scenario, report: Report) -> None:
    """``DistributedRunner`` runs: one traced run, or a fault sweep."""
    data = _load(spec)
    config = DistributedRunConfig(
        eps_local=data.eps_local, min_pts_local=data.min_pts,
        scheme=spec.scheme, seed=spec.seed, parallelism=spec.parallelism,
    )

    def execute_lane(plan, recovery_rounds=spec.recovery_rounds, trace=spec.trace):
        runner = DistributedRunner(
            config,
            fault_plan=plan,
            recovery_policy=RecoveryPolicy(max_recovery_rounds=recovery_rounds),
            tracer=Tracer() if trace else None,
            metrics=MetricsRegistry() if trace else None,
        )
        outcome = runner.run(data.points, spec.sites)
        if trace:
            report.trace = outcome.trace
            report.metrics_registry = outcome.trace.get("metrics")
            fault_free = outcome if plan is None else None
            report.problems += _trace_gates(outcome.trace, fault_free)
        return outcome

    if not spec.failure_probs:
        outcome = execute_lane(None)
        report.metrics.update(outcome.flat_metrics())
        for name, row in phase_totals(outcome.trace).items():
            report.metrics[f"phase.wall_seconds[{name}]"] = row["wall_seconds"]
        report.notes.append(
            f"traced run: data set {data.name}, {data.n} objects on "
            f"{spec.sites} sites"
        )
        return

    central, central_seconds = central_reference(
        data.points, data.eps_local, data.min_pts
    )

    def quality(outcome):
        return evaluate_degraded_quality(
            outcome.labels_in_original_order(), central.labels,
            assignment=outcome.assignment, failed_sites=outcome.failed_sites,
            n_sites=spec.sites, qp=data.min_pts,
        )

    for prob, seeds in _lanes(spec):
        label = f"p={prob:g}"
        rows = []
        for fault_seed in seeds:
            plan = _fault_plan(spec, prob, fault_seed)
            outcome = execute_lane(plan)
            scored = quality(outcome)
            row = {
                "failed_fraction": scored.failed_fraction,
                "q_p1": scored.overall.q_p1_percent,
                "q_p2": scored.overall.q_p2_percent,
                "surviving": scored.surviving.q_p2_percent
                if scored.surviving is not None else None,
                "retries": outcome.retries,
                "degraded": outcome.degraded,
                "recovered": len(outcome.recovered_sites),
                "quarantined": len(outcome.quarantined_sites),
            }
            if spec.recovery_rounds:
                # Same plan, recovery off: the run had failed sites been
                # abandoned — the recovered-vs-abandoned quality column.
                row["abandoned"] = quality(
                    execute_lane(plan, recovery_rounds=0, trace=False)
                ).overall.q_p2_percent
            rows.append(row)
        _put_sweep_point(report, label, rows, means=(
            ("q_p1_overall_percent", "q_p1"),
            ("q_p2_overall_percent", "q_p2"),
            ("q_p2_surviving_percent", "surviving"),
            ("failed_fraction", "failed_fraction"),
            ("q_p2_overall_abandoned_percent", "abandoned"),
        ), totals=(
            ("retries", "retries"),
            ("degraded_runs", "degraded"),
            ("recovered_sites", "recovered"),
            ("quarantined_models", "quarantined"),
        ))
    report.put("central_wall_seconds", central_seconds)
    report.notes.append(
        f"{spec.fault_mode} fault sweep: data set {data.name}, {data.n} "
        f"objects on {spec.sites} sites, {spec.trials} trial(s) per point"
    )


def _put_sweep_point(report: Report, label: str, rows: list, *, means, totals) -> None:
    """Mean / total of the per-trial rows of one swept probability."""
    for name, key in means:
        values = [row[key] for row in rows if row.get(key) is not None]
        if values:
            report.put(name, float(np.mean(values)), label)
    for name, key in totals:
        report.put(name, sum(row[key] for row in rows), label)


def _span_path_duration(doc: dict, path: str) -> float | None:
    """Wall duration of the first span matching ``a > b > c`` from a root."""
    spans, found = doc["spans"], None
    for name in (part.strip() for part in path.split(">")):
        found = next((s for s in spans if s["name"] == name), None)
        if found is None:
            return None
        spans = found.get("children", [])
    return found["wall_end"] - found["wall_start"]


def reconcile_trace(doc: dict, outcome, *, tolerance: float = 0.01) -> list[str]:
    """Check a runner trace's phase durations against the report fields.

    The spans come from the very ``perf_counter`` reads that filled the
    report, so ``tolerance`` (relative) only absorbs JSON float
    round-trips.  Returns mismatch descriptions (empty = reconciled).
    """
    problems: list[str] = []
    for path, name in _RECONCILED_FIELDS:
        span_seconds = _span_path_duration(doc, path)
        report_seconds = getattr(outcome, name)
        if span_seconds is None:
            problems.append(f"span {path!r} missing from trace")
        elif abs(span_seconds - report_seconds) > tolerance * max(report_seconds, 1e-9):
            problems.append(
                f"span {path!r} = {span_seconds:.6f}s but report.{name} "
                f"= {report_seconds:.6f}s (tolerance {tolerance:.0%})"
            )
    return problems


def _trace_gates(doc: dict, outcome=None) -> list[str]:
    """Schema, JSON round-trip, Chrome export and phase checks of a
    runner trace; ``outcome`` (a fault-free run) adds reconciliation."""
    problems = [f"schema: {err}" for err in validate_trace(doc)]
    problems += [
        f"round-trip: {err}"
        for err in validate_trace(json.loads(json.dumps(doc)))
    ]
    if outcome is not None:
        problems += reconcile_trace(doc, outcome)
    events = to_chrome_trace(doc).get("traceEvents", [])
    if not events:
        problems.append("chrome trace has no events")
    problems += [
        f"chrome event {event.get('name')!r} negative dur"
        for event in events
        if event.get("ph") == "X" and event.get("dur", 0) < 0
    ]
    totals = phase_totals(doc)
    problems += [
        f"phase totals missing {name!r}"
        for name in ("run", "local_phase", "global_phase", "relabel")
        if name not in totals
    ]
    return problems


# -- hot paths ------------------------------------------------------------


def _best_of(fn, repeats: int):
    """Best-of-``repeats`` wall time of ``fn`` plus its (last) result."""
    best, result = float("inf"), None
    for __ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _probe(fn):
    """Run ``fn`` under the memory budget probe: ``(result, wall seconds,
    tracemalloc peak MB, process RSS high-water MB)``.  ``ru_maxrss`` is
    monotone, so per-phase values are a running maximum.  The grid join's
    free list is emptied first, so the peak counts the pass buffers the
    phase needs, whatever earlier work left behind."""
    grid._FREE_BUFFERS.clear()
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    __, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, wall, peak / 2**20, rss_mb


def _local_models(site_points, eps, min_pts):
    return [
        build_local_model(site, eps, min_pts, scheme="rep_scor", site_id=i)
        for i, site in enumerate(site_points)
    ]


def _relabel_all(site_points, outcomes, global_model, kernel: str):
    return [
        relabel_site(site, outcome.clustering.labels, global_model,
                     site_id=i, kernel=kernel)
        for i, (site, outcome) in enumerate(zip(site_points, outcomes))
    ]


def _fold_all(base, models):
    repairer = GlobalModelRepairer(base)
    for model in models:
        repairer.add_model(model)
    return repairer.model()


def _relabel_fold_identical(site_points, outcomes, base, folded) -> bool:
    """Whether each site, relabeled through one cover memo against
    ``base`` and then against ``folded``, matches a fresh relabel against
    ``folded`` in labels and stats."""
    for i, (site, outcome) in enumerate(zip(site_points, outcomes)):
        labels, memo = outcome.clustering.labels, CoverMemo()
        relabel_site(site, labels, base, site_id=i, memo=memo)
        got = relabel_site(site, labels, folded, site_id=i, memo=memo)
        fresh = relabel_site(site, labels, folded, site_id=i)
        if not (np.array_equal(got[0], fresh[0]) and got[1] == fresh[1]):
            return False
    return True


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two label arrays partition their items alike."""
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def _hot_paths(spec: Scenario, report: Report) -> None:
    """Single vs. batched vs. parallel execution, and memory at scale.

    Every timed pair or set also checks its outputs agree (DBSCAN over
    every index kind against the brute-force index, every local-phase
    variant's labels against the sequential run's); a divergence is a
    problem, not a number.  The ``scale`` section runs the whole pipeline
    per swept cardinality under tracemalloc (its walls are upper bounds).
    Above ``_CLASSIC_MAX`` primary points the classic sections are
    skipped, above ``_KERNELS_MAX`` the kernel and global-model sections
    too; each skip is a note.
    """
    sections, repeats, put = set(spec.sections), spec.repeats, report.put
    # The data sets' own (paper) sizes are far below both limits.
    primary = spec.cardinality[0] if spec.cardinality else 0
    for limit, heavy in (
        (_CLASSIC_MAX, ("region_queries", "dbscan", "local_phase")),
        (_KERNELS_MAX, ("relabel_kernels", "global_model")),
    ):
        if primary > limit:
            report.notes += [
                f"skipped {name}: {primary} points > {limit:,} limit"
                for name in heavy if name in sections
            ]
            sections -= set(heavy)
    if sections - {"scale"}:
        # The primary data set; a scale-only run at 10^6 never builds it.
        data = _load(spec)
        points, eps, min_pts = data.points, data.eps_local, data.min_pts
    if "region_queries" in sections:
        rng = np.random.default_rng(spec.seed)
        queries = np.sort(rng.choice(
            points.shape[0], size=min(2000, points.shape[0]), replace=False
        )).astype(np.intp)
        for kind in _INDEX_KINDS:
            index = build_index(points, kind, eps=eps)
            single, one_by_one = _best_of(
                lambda: [index.region_query(int(i), eps) for i in queries], repeats
            )
            batched, at_once = _best_of(
                lambda: index.region_query_batch(queries, eps), repeats
            )
            hits, offsets = at_once
            report.check(
                np.array_equal(np.diff(offsets), list(map(len, one_by_one)))
                and np.array_equal(hits, np.concatenate(one_by_one)),
                f"batched {kind} region queries diverged from per-query results",
            )
            put("region_queries.single_seconds", single, kind)
            put("region_queries.batched_seconds", batched, kind)
            put("region_queries.speedup", single / batched, kind)
    if "dbscan" in sections:
        # Every index kind must reproduce the brute-force index's run
        # (``_INDEX_KINDS`` starts with "brute").
        runs = {}
        for kind in _INDEX_KINDS:
            index = build_index(points, kind, eps=eps)
            seconds, result = _best_of(
                lambda: DBSCAN(eps, min_pts).fit(points, index=index), repeats
            )
            runs[kind] = result
            brute = runs["brute"]
            report.check(
                np.array_equal(result.labels, brute.labels)
                and np.array_equal(result.core_mask, brute.core_mask)
                and result.n_region_queries == brute.n_region_queries,
                f"DBSCAN over the {kind} index diverged from the brute-force index",
            )
            put("dbscan.fit_seconds", seconds, kind)
            put("dbscan.clusters_count", result.n_clusters, kind)
            put("dbscan.region_queries_count", result.n_region_queries, kind)
    if "local_phase" in sections:
        # Each variant stamps the runner's post-fallback worker count: on
        # one CPU a parallel config legitimately runs sequentially.
        width = spec.parallelism
        sequential = None
        labels = {}
        for name, parallelism, backend in (
            ("sequential", 1, "thread"),
            (f"thread_x{width}", width, "thread"),
            (f"process_x{width}", width, "process"),
        ):
            outcome = DistributedRunner(DistributedRunConfig(
                eps_local=eps, min_pts_local=min_pts, seed=spec.seed,
                parallelism=parallelism, parallel_backend=backend,
            )).run(points, spec.sites)
            labels[name] = outcome.labels_in_original_order()
            wall = outcome.local_wall_seconds
            put("local_phase.wall_seconds", wall, name)
            put("local_phase.cpu_seconds", outcome.local_cpu_seconds, name)
            put("local_phase.relabel_wall_seconds", outcome.relabel_wall_seconds, name)
            put("local_phase.effective_workers", outcome.effective_parallelism, name)
            if sequential is None:
                sequential = wall
            elif wall > 0:
                put("local_phase.speedup", sequential / wall, name)
            if outcome.parallelism_fallback_reason:
                report.notes.append(
                    f"local phase {name}: fell back to "
                    f"{outcome.effective_parallelism} worker(s) "
                    f"({outcome.parallelism_fallback_reason})"
                )
        reference = labels.pop("sequential")
        diverged = [
            name for name, got in labels.items() if not np.array_equal(got, reference)
        ]
        put("local_phase.labels_identical", report.check(
            not diverged,
            f"local phase {', '.join(diverged)}: labels diverged from the "
            "sequential run",
        ))
    if "relabel_kernels" in sections:
        # The dense reference sweep vs. the vectorized kernel over the
        # same sites and global model: labels and stats bit-identical.
        site_points = split(
            points, partition(points, spec.sites, "uniform_random", spec.seed)
        )
        outcomes = _local_models(site_points, eps, min_pts)
        global_model, __ = build_global_model([o.model for o in outcomes])
        seconds, outputs = {}, {}
        for kernel in ("reference", "vectorized"):
            seconds[kernel], outputs[kernel] = _best_of(
                lambda kernel=kernel: _relabel_all(
                    site_points, outcomes, global_model, kernel
                ),
                repeats,
            )
            put("relabel_kernels.wall_seconds", seconds[kernel], kernel)
        put("relabel_kernels.speedup", seconds["reference"] / seconds["vectorized"])
        put("relabel_kernels.labels_identical", report.check(
            all(np.array_equal(ref[0], vec[0]) and ref[1] == vec[1]
                for ref, vec in zip(outputs["reference"], outputs["vectorized"])),
            "vectorized relabel diverged from the reference kernel",
        ))
        put("relabel_kernels.covered_count",
            sum(stats.n_covered for __, stats in outputs["vectorized"]))
        put("relabel_kernels.representatives_count", len(global_model))
    if "global_model" in sections:
        # The server's two paths over one set of representatives: build 4
        # of 12 sites, fold the other 8 in site order, and check the fold
        # partitions them like a rebuild of all 12 at the frozen radius.
        # The 4 base sites' relabel folds the same way: through a cover
        # memo from the base model to the folded one.
        fold_sites = split(
            points, partition(points, 12, "uniform_random", spec.seed)
        )
        outcomes = _local_models(fold_sites, eps, min_pts)
        models = [outcome.model for outcome in outcomes]
        seconds, (base, __) = _best_of(
            lambda: build_global_model(models[:4]), repeats
        )
        put("global_model.build_seconds", seconds)
        seconds, folded = _best_of(lambda: _fold_all(base, models[4:]), repeats)
        put("global_model.fold_seconds", seconds)
        rebuilt, __ = build_global_model(models, eps_global=base.eps_global)
        put("global_model.representatives_count", len(folded))
        put("global_model.clusters_count", folded.n_global_clusters)
        put("global_model.fold_equals_rebuild", report.check(
            _same_partition(folded.global_labels, rebuilt.global_labels),
            "folding 8 sites into a 4-site global model diverged from the rebuild",
        ))
        put("global_model.relabel_fold_identical", report.check(
            _relabel_fold_identical(fold_sites[:4], outcomes, base, folded),
            "relabeling the 4 base sites through a cover memo diverged from "
            "a fresh relabel against the folded model",
        ))
    if "scale" in sections:
        for value in spec.cardinality or (None,):
            _scale_pipeline(spec, report, value)


def _scale_pipeline(spec: Scenario, report: Report, cardinality: int | None) -> None:
    """generate → partition → local → global → relabel at one size (the
    data set's own when ``None``), each phase under its own wall + memory
    probe."""
    budgets: dict[str, tuple] = {}

    def phase(name, fn):
        result, *budgets[name] = _probe(fn)
        return result

    data = phase("generate", lambda: _load(spec, cardinality))
    points, eps, min_pts = data.points, data.eps_local, data.min_pts
    site_points = phase("partition", lambda: split(
        points, partition(points, spec.sites, "uniform_random", spec.seed)
    ))
    outcomes = phase("local", lambda: _local_models(site_points, eps, min_pts))
    global_model, __ = phase(
        "global", lambda: build_global_model([o.model for o in outcomes])
    )
    relabeled = phase("relabel", lambda: _relabel_all(
        site_points, outcomes, global_model, "vectorized"
    ))
    labels = np.concatenate([site_labels for site_labels, __ in relabeled])
    size = cardinality or data.n
    for name, (wall, traced_mb, __) in budgets.items():
        report.put("scale.wall_seconds", wall, f"{size}:{name}")
        report.put("scale.tracemalloc_peak_mb", traced_mb, f"{size}:{name}")
    report.put("scale.total_wall_seconds", sum(b[0] for b in budgets.values()), size)
    report.put("scale.rss_peak_mb", max(b[2] for b in budgets.values()), size)
    report.put("scale.clusters_count", np.unique(labels[labels >= 0]).size, size)
    report.put(
        "scale.covered_count", sum(stats.n_covered for __, stats in relabeled), size
    )


# -- the socket service -----------------------------------------------------


def _free_port() -> int:
    """An OS-assigned free port, released for the server to bind: a
    restarted server must come back on the address clients retry."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class _Server:
    """The scenario's DBDC service on a fixed port, thread-hosted or a
    ``repro serve`` subprocess; :meth:`restart` is the crash drill — a
    hard kill (``SIGKILL`` for the subprocess: no drain, no journal
    close) and a fresh boot on the same port and journal."""

    def __init__(self, spec: Scenario, *, expected_sites, journal_dir=None,
                 scrape: bool = False, tracer=None) -> None:
        self.kind = spec.server
        self.host = "127.0.0.1"
        self.port = _free_port()
        self.config = ServiceConfig(
            host=self.host, port=self.port,
            metrics_port=0 if scrape and self.kind == "thread" else None,
            expected_sites=expected_sites, journal_dir=journal_dir,
            max_inflight_requests=spec.max_inflight or None,
        )
        self.tracer = tracer
        self.handle = self.proc = None
        self.restart_seconds = 0.0
        self.tail = ""
        self._log = tempfile.TemporaryFile() if self.kind == "subprocess" else None
        self._boot()

    def _boot(self) -> None:
        if self.kind == "thread":
            self.handle = ServiceHandle.start(self.config, tracer=self.tracer)
            return
        config = self.config
        argv = [sys.executable, "-m", "repro", "serve", "--host", self.host,
                "--port", str(self.port), "--metrics-port", "-1",
                "--idle-timeout", "60"]
        for flag, value in (("--expected-sites", config.expected_sites),
                            ("--journal-dir", config.journal_dir),
                            ("--max-inflight", config.max_inflight_requests)):
            if value is not None:
                argv += [flag, str(value)]
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=self._log, env=os.environ.copy()
        )
        deadline, last_error = time.monotonic() + 30.0, None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {self.log_tail()}"
                )
            try:
                self.health()
                return
            except (OSError, wire.WireError, ServiceError) as error:
                last_error = error
                time.sleep(0.1)
        raise RuntimeError(f"server on port {self.port} not ready: {last_error}")

    @property
    def metrics_port(self) -> int | None:
        return self.handle.metrics_port if self.handle is not None else None

    def health(self) -> dict:
        with ServiceClient(self.host, self.port, timeout_s=5.0) as client:
            return client.health()

    def restart(self) -> None:
        start = time.perf_counter()
        if self.handle is not None:
            self.handle.kill()
        else:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self._boot()
        self.restart_seconds += time.perf_counter() - start

    def log_tail(self) -> str:
        self._log.seek(0)
        return self._log.read().decode("utf-8", "replace")[-2000:]

    def stop(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            return
        try:
            with ServiceClient(self.host, self.port, timeout_s=5.0) as client:
                client.shutdown()
            self.proc.wait(timeout=15)
        except (OSError, wire.WireError, ServiceError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=15)
            self.tail = self.log_tail()
            self._log.close()

    def __enter__(self) -> "_Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@contextlib.contextmanager
def _journaled(report: Report):
    """A write-ahead journal directory when the spec crashes its server
    (``None`` otherwise); its on-disk size after the server stopped is
    recorded as ``journal_bytes``."""
    if not report.spec.server_crashes:
        yield None
        return
    with tempfile.TemporaryDirectory(prefix="dbdc-wal-") as journal_dir:
        yield journal_dir
        report.put("journal_bytes", sum(
            os.path.getsize(os.path.join(journal_dir, name))
            for name in os.listdir(journal_dir)
        ))


def _percentile(samples: list, q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def _query_storm(
    report: Report, server: _Server, points: np.ndarray, model
) -> None:
    """``clients`` threads send ``queries`` label queries in total.

    Every client walks fixed slices of the data, so the work is
    deterministic.  A typed ``overloaded`` reply is retried after its
    ``retry_after_s`` hint; anything else — an untyped error, a dropped
    connection, labels other than the in-process pure-coverage relabel of
    the slice against the oracle's global ``model`` — fails the query.
    """
    spec = report.spec
    batch, n = spec.query_batch, points.shape[0]
    lock = threading.Lock()
    latencies: list[float] = []
    counts = {"ok": 0, "shed": 0, "wrong": 0}
    blocks = {
        lo: points[lo: lo + batch]
        for lo in {(query * batch) % max(n - batch, 1) for query in range(spec.queries)}
    }
    expected = {
        lo: relabel_site(
            block, np.full(len(block), NOISE, dtype=np.intp), model, site_id=None
        )[0]
        for lo, block in blocks.items()
    }

    def client(index: int) -> None:
        try:
            with ServiceClient(server.host, server.port) as service:
                for query in range(index, spec.queries, spec.clients):
                    lo = (query * batch) % max(n - batch, 1)
                    block = blocks[lo]
                    for __ in range(500):
                        start = time.perf_counter()
                        try:
                            labels = service.query(block)
                        except ServiceError as error:
                            hint = error.retry_after_s or 0.0
                            if error.status != "overloaded" or hint <= 0:
                                break
                            with lock:
                                counts["shed"] += 1
                            time.sleep(hint)
                            continue
                        right = np.array_equal(labels, expected[lo])
                        with lock:
                            latencies.append(time.perf_counter() - start)
                            counts["ok"] += right
                            counts["wrong"] += not right
                        break
        except (OSError, wire.WireError):
            pass  # the unanswered queries count as failed

    start = time.perf_counter()
    _in_threads(client, spec.clients)
    wall = time.perf_counter() - start
    failed = spec.queries - counts["ok"]
    report.put("queries_count", counts["ok"])
    report.put("query_failed", failed)
    report.put("labels_served_count", counts["ok"] * batch)
    report.put("query_throughput_rps", counts["ok"] / wall if wall > 0 else 0.0)
    report.put("query_phase_wall_seconds", wall)
    for q in (50, 95, 99):
        report.put(f"query_p{q}_wall_seconds", _percentile(latencies, q))
    report.put("query_max_wall_seconds", max(latencies, default=0.0))
    report.put("overload_shed_count", counts["shed"])
    report.check(
        counts["wrong"] == 0,
        f"query storm: {counts['wrong']} of {spec.queries} replies differ "
        "from the in-process relabel",
    )
    report.put("overload_typed_ok", report.check(
        failed == 0, f"query storm: {failed} of {spec.queries} queries failed"
    ))


def _scrape(report: Report, server: _Server) -> None:
    """Strict-parse the live HTTP OpenMetrics endpoint: a malformed
    exposition or a wrong content type fails."""
    families = 0
    try:
        url = f"http://{server.host}:{server.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            families = len(parse_openmetrics(
                response.read().decode("utf-8"),
                content_type=response.headers.get("Content-Type"),
            ))
    except (OSError, ValueError) as error:
        report.notes.append(f"scrape failed: {error}")
    report.put("scrape_families_count", families)
    report.put("scrape_roundtrip_ok", report.check(
        families > 0, "OpenMetrics scrape did not strict-parse"
    ))


def _reference_run(spec: Scenario, data):
    """The in-process runner's report for the spec's partition — the
    oracle every fault-free socket upload must match bit for bit (its
    labels) and the storm's label queries too (its global model)."""
    return DistributedRunner(DistributedRunConfig(
        eps_local=data.eps_local, min_pts_local=data.min_pts,
        scheme=spec.scheme, seed=spec.seed,
    )).run(data.points, spec.sites)


def _reference_labels(spec: Scenario, data) -> np.ndarray:
    """The reference run's labels, in the original point order."""
    return _reference_run(spec, data).labels_in_original_order()


def _one_shot(spec: Scenario, report: Report) -> None:
    """Concurrent one-shot uploads over sockets, checked against the
    in-process runner, then the query storm, the scrape and the crash
    drill (the restarted server must label the data identically)."""
    data = _load(spec)
    points = data.points
    oracle = _reference_run(spec, data)
    reference = oracle.labels_in_original_order()
    assignment = partition(points, spec.sites, "uniform_random", spec.seed)
    parts = split(points, assignment)
    server_tracer = Tracer() if spec.trace else None
    results: dict = {}
    start = time.perf_counter()
    with _journaled(report) as journal_dir, _Server(
        spec, expected_sites=spec.sites, scrape=True, tracer=server_tracer,
        journal_dir=journal_dir,
    ) as server:

        def upload(site_id: int) -> None:
            results[site_id] = run_site_worker(
                server.host, server.port, site_id, parts[site_id],
                eps_local=data.eps_local, min_pts_local=data.min_pts,
                scheme=spec.scheme,
                tracer=Tracer(trace_id=server_tracer.trace_id) if spec.trace else None,
            )

        _in_threads(upload, spec.sites)
        report.put("upload_phase_wall_seconds", time.perf_counter() - start)
        labels = np.empty(points.shape[0], dtype=np.intp)
        admitted = [
            r for r in results.values() if r.verdict == "admitted" and r.labels.size
        ]
        for result in admitted:
            labels[assignment == result.site_id] = result.labels
        report.put("upload_failed", spec.sites - len(admitted))
        report.put("uploads_count", spec.sites)
        report.put("upload_attempts_count", sum(r.upload_attempts for r in admitted))
        report.put("bytes_up", sum(r.bytes_sent for r in admitted))
        report.put("labels_identical", report.check(
            len(admitted) == spec.sites and np.array_equal(reference, labels),
            "socket labels diverge from the in-process runner",
        ))
        _serve_tail(report, server, points, oracle.global_model)
        if spec.trace:
            _service_trace_gates(report, server.handle.merged_trace())
        if spec.server_crashes:
            with ServiceClient(server.host, server.port) as client:
                before = client.query(points)
            for __ in range(spec.server_crashes):
                server.restart()
            with ServiceClient(server.host, server.port) as client:
                after = client.query(points)
            health = server.health()
            report.put("recovered_models_count", health.get("recovered_models", 0))
            report.put("recovery_wall_seconds", server.restart_seconds)
            report.put("recovery_labels_identical", report.check(
                np.array_equal(before, after),
                "the restarted server labels the data differently",
            ))
    report.put("total_wall_seconds", time.perf_counter() - start)
    report.notes.append(
        f"one-shot socket run: data set {data.name}, {data.n} objects, "
        f"{spec.sites} sites, {spec.server} server"
    )


def _serve_tail(report: Report, server: _Server, points: np.ndarray, model) -> None:
    """After the commit: query storm (its replies checked against the
    oracle's global ``model``), scrape, and the health document."""
    if report.spec.queries:
        _query_storm(report, server, points, model)
    if server.metrics_port:
        _scrape(report, server)
    health = server.health()
    report.put("sites_admitted_count", health.get("sites_admitted", 0))
    report.put("recovered_models_count", health.get("recovered_models", 0))
    report.put("final_epoch_count", health.get("epoch", 0))
    report.put("duplicate_uploads_count", health.get("duplicate_uploads", 0))


def _in_threads(target, n: int) -> None:
    """``target(i)`` for ``i < n`` on daemon threads; a thread still
    running after two minutes is left behind (its result stays missing)."""
    threads = [
        threading.Thread(target=target, args=(i,), daemon=True) for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)


def _session(spec: Scenario, report: Report) -> None:
    """An N-round streaming session over sockets, every round checked
    against the in-process streaming oracle.

    Each round's data is split round-robin over the sites.  With
    ``server_crashes = k`` the server is hard-killed and restarted after
    each of rounds ``0 … k-1`` commits, while the workers hold at a
    barrier; they reconnect, resume and must still end bit-identical.
    """
    data = _load(spec)
    points, n_sites, n_rounds = data.points, spec.sites, spec.rounds
    chunk = points.shape[0] // n_rounds
    batches = [
        [points[r * chunk: (r + 1) * chunk][i::n_sites] for i in range(n_sites)]
        for r in range(n_rounds)
    ]
    oracle = run_streaming_session(
        batches, eps_local=data.eps_local, min_pts_local=data.min_pts,
        scheme=spec.scheme,
    )
    server_tracer = Tracer() if spec.trace else None
    results: dict = {}
    barrier = threading.Barrier(n_sites, timeout=60.0)
    with _journaled(report) as journal_dir, _Server(
        spec, expected_sites=n_sites, scrape=True, tracer=server_tracer,
        journal_dir=journal_dir,
    ) as server:

        def work(site_id: int) -> None:
            def crash_after(round_index: int, model) -> None:
                if round_index >= spec.server_crashes:
                    return
                try:
                    barrier.wait()
                    if site_id == 0:
                        server.restart()
                    barrier.wait()
                except Exception as error:
                    report.problems.append(f"crash drill, site {site_id}: {error}")
                    barrier.abort()
                    raise

            results[site_id] = run_site_worker_session(
                server.host, server.port, site_id,
                [batches[r][site_id] for r in range(n_rounds)],
                n_sites=n_sites, eps_local=data.eps_local,
                min_pts_local=data.min_pts, scheme=spec.scheme,
                timeout_s=10.0, max_reconnects=60, round_hook=crash_after,
                tracer=Tracer(trace_id=server_tracer.trace_id) if spec.trace else None,
            )

        start = time.perf_counter()
        _in_threads(work, n_sites)
        report.put("session_wall_seconds", time.perf_counter() - start)
        complete = sorted(results) == list(range(n_sites))
        report.check(complete, f"worker results missing: have {sorted(results)}")
        for site_id, result in sorted(results.items()):
            report.check(not result.error, f"site {site_id}: {result.error}")
        labels_ok = complete and all(
            len(result.labels) == n_rounds
            and all(np.array_equal(result.labels[r], oracle.labels[r][site_id])
                    for r in range(n_rounds))
            for site_id, result in results.items()
        )
        report.put("labels_identical", report.check(
            labels_ok, "session labels diverge from the streaming oracle"
        ))
        report.put("model_identical", report.check(
            complete and results[0].model is not None
            and results[0].model == oracle.model,
            "final session model differs from the streaming oracle",
        ))
        report.put("verdicts_ok", report.check(
            complete
            and all(r.verdicts == ["admitted"] * n_rounds for r in results.values()),
            "not every session upload was admitted",
        ))
        report.put("reconnects_count", sum(r.reconnects for r in results.values()))
        if spec.server_crashes:
            # k + 1 epochs seen = the worker talked to every generation.
            report.put("epochs_ok", report.check(
                complete
                and all(len(r.epochs) > spec.server_crashes for r in results.values()),
                "a worker did not observe every server epoch",
            ))
            report.put("server_kills_count", spec.server_crashes)
            report.put("restart_wall_seconds", server.restart_seconds)
        if spec.trace:
            _session_trace_gates(
                report, server.handle.merged_trace(), results, server_tracer
            )
        _serve_tail(report, server, points, oracle.model)
    if server.tail and report.problems:
        report.notes.append("server log tail:\n" + server.tail)
    report.notes.append(
        f"socket session: data set {data.name}, {data.n} objects, "
        f"{n_sites} sites x {n_rounds} rounds, {spec.server} server, "
        f"{spec.server_crashes} crash(es)"
    )


def _session_trace_gates(report, doc, results, tracer) -> None:
    spec = report.spec
    problems = reconcile_session_trace(
        doc, results, spec.sites, spec.rounds, tracer.trace_id
    )
    rows = critical_path(doc)
    report.trace, report.metrics_registry = doc, doc.get("metrics")
    report.problems += problems
    report.notes.append(format_critical_path(rows))
    report.put("schema_ok", not any(p.startswith("schema:") for p in problems))
    report.put("attribution_ok", not any(not p.startswith("schema:") for p in problems))
    report.put("gating_named_ok", report.check(
        len(rows) == spec.rounds and all(row["gating_phase"] for row in rows),
        f"critical path names {len(rows)} of {spec.rounds} rounds",
    ))
    report.put("rounds_count", spec.rounds)
    report.put("sites_count", spec.sites)
    report.put("spans_count", len(_spans(doc)))
    report.put("processes_count", len(doc.get("processes", {})))
    for row in rows:
        report.put("round_wall_seconds", row["site_wall_seconds"], str(row["round"]))


def _service_trace_gates(report: Report, doc: dict) -> None:
    """A traced one-shot run: schema-valid, every process shipped its
    spans, one admission span per site."""
    spec = report.spec
    report.trace, report.metrics_registry = doc, doc.get("metrics")
    processes = set(doc.get("processes", {}))
    expected = {"server"} | {f"site-{i}" for i in range(spec.sites)}
    report.put("trace_schema_ok", report.check(
        not validate_trace(doc), f"trace schema: {validate_trace(doc)}"
    ))
    report.put("trace_processes_ok", report.check(
        expected <= processes, f"trace lacks processes {sorted(expected - processes)}"
    ))
    admissions = len(_spans(doc, "serve[local_model]"))
    report.put("trace_admissions_ok", report.check(
        admissions == spec.sites, f"{admissions} admission spans for {spec.sites} sites"
    ))
    report.put("trace_processes_count", len(processes))
    report.put("trace_spans_count", len(_spans(doc)))


def _spans(doc: dict, name: str | None = None) -> list:
    """Every span of a trace document (named ``name``, when given)."""
    out, stack = [], list(doc.get("spans", []))
    while stack:
        span = stack.pop()
        stack.extend(span.get("children", []))
        if name is None or span["name"] == name:
            out.append(span)
    return out


def reconcile_session_trace(doc, results, n_sites, n_rounds, trace_id,
                            *, tolerance: float = 0.01) -> list[str]:
    """Gate a merged session trace: schema, attribution, completeness.

    Attribution is exact by construction — round spans come from the
    ``perf_counter`` reads behind ``SiteSessionResult.round_wall_seconds``
    and their phase children share boundary reads — so ``tolerance``
    (relative) only absorbs float round-trips.  Returns problems (empty =
    fully reconciled).
    """
    problems = [f"schema: {err}" for err in validate_trace(doc)]
    rounds = round_spans(doc)

    def off(a: float, b: float) -> bool:
        return abs(a - b) > tolerance * max(b, 1e-9)

    for site_id, result in sorted(results.items()):
        for r in range(n_rounds):
            span = rounds.get((r, site_id))
            where = f"round {r} site {site_id}"
            if span is None:
                problems.append(f"round span missing for {where}")
                continue
            wall = span["wall_end"] - span["wall_start"]
            walls = result.round_wall_seconds
            if r < len(walls) and off(wall, walls[r]):
                problems.append(
                    f"{where}: span {wall:.6f}s vs result "
                    f"{result.round_wall_seconds[r]:.6f}s"
                )
            children = span.get("children", [])
            names = [child["name"] for child in children]
            if names != list(ROUND_PHASES):
                problems.append(f"{where}: phases {names} != {list(ROUND_PHASES)}")
            elif off(sum(c["wall_end"] - c["wall_start"] for c in children), wall):
                problems.append(f"{where}: phases do not cover the round")
    server = server_round_seconds(doc)
    for r in range(n_rounds):
        if server.get(r, {}).get("repair", 0.0) <= 0.0:
            problems.append(f"no round_commit span for round {r}")
    admissions = _spans(doc, "serve[local_model]")
    if len(admissions) != n_sites * n_rounds:
        problems.append(
            f"{len(admissions)} serve[local_model] spans, expected "
            f"{n_sites * n_rounds}"
        )
    stamped = [
        s for s in admissions
        if s.get("attrs", {}).get("trace_id") == f"{trace_id:032x}"
    ]
    if len(stamped) != len(admissions):
        problems.append(
            f"only {len(stamped)}/{len(admissions)} admissions carry the "
            "session trace id (context not propagated?)"
        )
    expected = {"server"} | {f"site-{i}" for i in range(n_sites)}
    missing = expected - set(doc.get("processes", {}))
    if missing:
        problems.append(f"processes missing from merged doc: {sorted(missing)}")
    return problems


def _socket_sweep(spec: Scenario, report: Report) -> None:
    """The fault sweep against live sockets.

    Each trial boots a fresh service and runs every site in site-id
    order through :class:`FaultingSocketTransport` +
    :class:`ResilientTransport`, so the seed-keyed :class:`FaultPlan`
    sabotages real TCP links: drops and truncations drive the retry
    loop, corrupted frames hit the server's CRC quarantine, breakers
    trip.  The first upload to arrive opens round 0; once every site has
    had its turn the trial commits the round and fetches its model.
    Injection is keyed by per-link call counters, so every count
    reproduces across machines.  ``server_crashes = k`` kills and
    restarts the journaled service before the uploads of sites 1…k.
    """
    data = _load(spec)
    central, central_seconds = central_reference(
        data.points, data.eps_local, data.min_pts
    )
    assignment = partition(data.points, spec.sites, "uniform_random", spec.seed)
    parts = split(data.points, assignment)
    policy = TransportPolicy(
        timeout_s=0.2, max_attempts=4, backoff_base_s=0.01, backoff_cap_s=0.05
    )
    breakers = BreakerPolicy(failure_threshold=2, cooldown_s=0.5)
    reference = None
    identical = []
    for prob, seeds in _lanes(spec):
        rows = []
        for fault_seed in seeds:
            plan = _fault_plan(spec, prob, fault_seed)
            start = time.perf_counter()
            row = dict.fromkeys(("retries", "drops", "truncations", "corruptions",
                                 "fast_fails", "breaker_changes", "quarantined"), 0)
            sites: dict[int, ClientSite] = {}
            with tempfile.TemporaryDirectory(prefix="dbdc-wal-") as scratch, _Server(
                spec, expected_sites=None,
                journal_dir=scratch if spec.server_crashes else None,
            ) as server:
                for site_id in range(spec.sites):
                    if 1 <= site_id <= spec.server_crashes:
                        server.restart()
                    behavior = plan.resolve_site(site_id)
                    if behavior.crashes_before_local:
                        continue
                    site = ClientSite(
                        site_id, parts[site_id], eps_local=data.eps_local,
                        min_pts_local=data.min_pts, scheme=spec.scheme,
                    )
                    verdict = _faulted_upload(server, site, plan, policy, breakers, row)
                    if verdict == "quarantined":
                        row["quarantined"] += 1
                    if verdict == "admitted" and not behavior.crashes_after_send:
                        sites[site_id] = site
                labels = np.full(data.points.shape[0], NOISE, dtype=np.intp)
                if sites:
                    # A degraded round 0 (opened by the first bare upload)
                    # closes on an explicit commit.
                    with ServiceClient(
                        server.host, server.port, timeout_s=10.0
                    ) as client:
                        client.commit_round(0)
                        global_model = client.await_model_delta(
                            0, None, timeout_s=10.0
                        )
                    for site_id, site in sites.items():
                        site.receive_global_model(global_model)
                        labels[assignment == site_id] = site.global_labels
            failed = sorted(set(range(spec.sites)) - set(sites))
            scored = evaluate_degraded_quality(
                labels, central.labels, assignment=assignment,
                failed_sites=failed, n_sites=spec.sites, qp=data.min_pts,
            )
            row.update(
                failed=len(failed), wall=time.perf_counter() - start,
                q_p1=scored.overall.q_p1_percent, q_p2=scored.overall.q_p2_percent,
                surviving=scored.surviving.q_p2_percent
                if scored.surviving is not None else None,
            )
            rows.append(row)
            if prob == 0.0 and spec.corrupt_rate == 0.0:
                # A fault-free lane must equal the in-process runner.
                if reference is None:
                    reference = _reference_labels(spec, data)
                identical.append(np.array_equal(labels, reference))
        _put_sweep_point(report, f"p={prob:g}", rows, means=(
            ("q_p1_overall_percent", "q_p1"),
            ("q_p2_overall_percent", "q_p2"),
            ("q_p2_surviving_percent", "surviving"),
        ), totals=(
            ("retries", "retries"),
            ("drops", "drops"),
            ("truncations", "truncations"),
            ("corruptions", "corruptions"),
            ("breaker_fast_fails", "fast_fails"),
            ("breaker_state_changes", "breaker_changes"),
            ("failed_sites", "failed"),
            ("quarantined", "quarantined"),
            ("wall_seconds", "wall"),
        ))
    if identical:
        report.put("completed_identical", report.check(
            all(identical), "a fault-free socket trial diverged from the runner"
        ))
    report.put("central_wall_seconds", central_seconds)
    report.notes.append(
        f"socket {spec.fault_mode} sweep: data set {data.name}, {data.n} "
        f"objects on {spec.sites} sites over real TCP, {spec.trials} trial(s) "
        "per point"
    )


def _faulted_upload(server, site, plan, policy, breakers, row) -> str:
    """One site's upload plus health probes through a faulted resilient
    link; adds the link's counters to ``row`` and returns the verdict."""
    model = site.run_local_clustering()
    with SocketTransport(server.host, server.port, site_id=site.site_id,
                         timeout_s=10.0) as transport:
        injector = FaultingSocketTransport(transport, plan)
        link = ResilientTransport(
            injector, FaultPlan.none(), policy, breaker_policy=breakers,
            retryable_errors=FaultingSocketTransport.RETRYABLE, sleep=time.sleep,
        )
        clock = 0.0
        try:
            outcome = link.deliver(
                site.site_id, wire.SERVER_ID, "local_model",
                wire.encode_local_model(model), start_s=clock,
            )
            clock += outcome.sim_seconds
            verdict = "admitted" if outcome.delivered else "failed"
        except ServiceError as error:
            # A protocol verdict (quarantine), not a transport failure.
            verdict = error.status
            clock += policy.timeout_s
        for __ in range(_PROBE_MESSAGES):
            clock += link.deliver(
                site.site_id, wire.SERVER_ID, "health", b"", start_s=clock
            ).sim_seconds
        stats = link.stats
        row["retries"] += stats.n_retries
        row["drops"] += injector.n_dropped
        row["truncations"] += injector.n_truncated
        row["corruptions"] += injector.n_corrupted
        row["fast_fails"] += stats.n_fast_failed
        row["breaker_changes"] += stats.n_breaker_state_changes
    return verdict


#: Each kind of run: the function that runs it and the metric namespace
#: its baseline gates.  A session gates ``serve_trace.*`` traced or not:
#: its baseline is the traced one.
_KINDS = {
    "paper_run": (_paper_run, ""),
    "traced_run": (_runner_lanes, ""),
    "chaos": (_runner_lanes, "chaos"),
    "hot_paths": (_hot_paths, ""),
    "one_shot": (_one_shot, "serve"),
    "session": (_session, "serve_trace"),
    "recovery": (_session, "recovery"),
    "socket_chaos": (_socket_sweep, "socket_chaos"),
}


# -- reporting and the command ------------------------------------------------


def record(report: Report, registry_root: str = ".runs", *,
           config: dict | None = None) -> dict | None:
    """Append the report to the run registry: the one record path.

    ``config`` defaults to the whole spec; the figure commands, which have
    no spec, pass the options they read.  The report document is stored
    as ``BENCH_<command>.json`` unless it would hold nothing but the wall
    time.  Recording is bookkeeping, so a failure only warns (the run
    keeps its outputs) and returns ``None``.
    """
    artifacts = {}
    if report.notes or report.problems or set(report.metrics) - {
        "command.wall_seconds"
    }:
        artifacts[f"BENCH_{report.command}.json"] = report_document(report)
    if report.trace is not None:
        artifacts[f"TRACE_{report.command}.json"] = report.trace
    try:
        return RunRegistry(registry_root).record(
            report.command,
            config=report.spec.config() if config is None else config,
            metrics=report.metrics,
            metrics_registry=report.metrics_registry,
            artifacts=artifacts,
            environment=report.environment or None,
        )
    except Exception as error:
        print(f"warning: could not record run: {error}", file=sys.stderr)
        return None


def report_document(report: Report) -> dict:
    """The JSON-able report: spec, provenance, metrics, problems."""
    return {
        "scenario": report.command,
        "spec": report.spec.config(),
        "environment": report.environment,
        "metrics": dict(sorted(report.metrics.items())),
        "problems": list(report.problems),
        "notes": list(report.notes),
    }


def write_report(report: Report, path: str) -> str:
    """Write the report document as pretty JSON (makes parent dirs)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_document(report), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def summary(report: Report) -> str:
    """The notes, one metric per line, then the verdict."""
    lines = [f"scenario {report.command}:"] + [f"  {note}" for note in report.notes]
    width = max((len(name) for name in report.metrics), default=0)
    lines += [
        f"  {name:{width}s}  {value:.6g}"
        for name, value in sorted(report.metrics.items())
    ]
    lines += [f"FAIL: {problem}" for problem in report.problems]
    lines.append("verdict: " + ("FAIL" if report.problems else "ok"))
    return "\n".join(lines)


def _tuple_of(parse):
    return lambda text: tuple(parse(p.strip()) for p in text.split(",") if p.strip())


#: The value parser of each annotation a spec field uses.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda text: {"true": True, "1": True, "yes": True,
                          "false": False, "0": False, "no": False}[text.lower()],
    "int | None": lambda text: None if text.lower() == "none" else int(text),
    "tuple[int, ...]": _tuple_of(int),
    "tuple[float, ...]": _tuple_of(float),
    "tuple[str, ...]": _tuple_of(str),
}


def build_parser() -> argparse.ArgumentParser:
    """``repro scenario <preset> [--<field> value]``: one option per spec
    field (defaulting to the preset's value) plus the output options."""
    parser = argparse.ArgumentParser(
        prog="repro scenario",
        description="Run a named scenario preset, overriding any spec field.",
    )
    parser.add_argument("preset", choices=sorted(PRESETS), help="the preset to run")
    for f in fields(Scenario):
        parse = _PARSERS[f.type]
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=lambda text, parse=parse: _parse_value(parse, text),
            default=argparse.SUPPRESS,
            choices=f.metadata["choices"],
            help=f.metadata["help"],
        )
    parser.add_argument("--out", default=None,
                        help="report JSON path (default: BENCH_<preset>.json)")
    parser.add_argument("--trace-out", default=None,
                        help="trace document path (default: TRACE_<preset>.json)")
    parser.add_argument("--chrome-out", default=None,
                        help="also write the trace as Chrome trace_event JSON")
    parser.add_argument("--registry", default=".runs", help="run registry root")
    parser.add_argument("--no-registry", action="store_true",
                        help="do not append a RunRecord")
    parser.add_argument("--strict-git", action="store_true",
                        help="refuse to run on a dirty git tree (default: warn)")
    return parser


def _parse_value(parse, text: str):
    try:
        return parse(text)
    except (KeyError, ValueError) as error:
        raise argparse.ArgumentTypeError(f"bad value {text!r}") from error


def execute(spec: Scenario, command: str, *, out: str | None = None,
            trace_out: str | None = None, chrome_out: str | None = None,
            registry: str | None = ".runs", strict_git: bool = False) -> int:
    """Run, print, record, write; the exit status is 1 on any problem."""
    environment = run_environment()
    if environment["git_dirty"]:
        message = (
            "git tree is dirty: the record would attribute these numbers to "
            f"rev {environment['git_rev']!r}, which does not match the "
            "working tree — commit (or stash) before recording numbers"
        )
        if strict_git:
            print(f"error: {message}", file=sys.stderr)
            return 2
        print(f"warning: {message}", file=sys.stderr)
    report = run(spec, command)
    report.environment = environment
    print(summary(report))
    if registry is not None:
        stored = record(report, registry)
        if stored is not None:
            print(f"recorded {stored['run_id']} in {registry}")
    if out is not None:
        print(f"wrote {write_report(report, out)}")
    if report.trace is not None:
        trace_path = write_trace(report.trace, trace_out or f"TRACE_{command}.json")
        print(f"wrote {trace_path}")
        if chrome_out:
            print(f"wrote {write_chrome_trace(report.trace, chrome_out)} "
                  "(load in chrome://tracing)")
    return 1 if report.problems else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro scenario``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        f.name: getattr(args, f.name) for f in fields(Scenario) if hasattr(args, f.name)
    }
    try:
        spec = replace(PRESETS[args.preset], **overrides)
    except ValueError as error:
        parser.error(str(error))
    return execute(
        spec, args.preset,
        out=args.out or f"BENCH_{args.preset}.json",
        trace_out=args.trace_out, chrome_out=args.chrome_out,
        registry=None if args.no_registry else args.registry,
        strict_git=args.strict_git,
    )


if __name__ == "__main__":
    sys.exit(main())
