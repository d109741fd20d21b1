"""End-to-end orchestration of the DBDC protocol over the simulated network.

:class:`DistributedRunner` wires :class:`~repro.distributed.site.ClientSite`
objects, the :class:`~repro.distributed.server.RoundCore` round protocol
and a :class:`~repro.distributed.network.SimulatedNetwork` into the four
protocol steps of the paper's Figure 2, with the same runtime accounting
the paper uses (sites run conceptually in parallel: overall = max local +
global).

This is the "whole system" view; :func:`repro.core.dbdc.run_dbdc` offers the
same pipeline as a plain function when network accounting is not needed.

The local phase (steps 1+2) and the relabel fan-out (step 4) are
"conceptually parallel" in the paper — every site works independently.  The
``parallelism`` config knob makes that real: with ``parallelism > 1`` the
runner fans the per-site compute out over a ``concurrent.futures`` executor
(threads by default, processes via ``parallel_backend="process"``) and then
applies the results in deterministic site order, so the report is identical
to a sequential run except for wall-clock timing fields.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, TypeVar

import numpy as np

from repro.clustering.dbscan import density_parameters, global_radius
from repro.core.models import GlobalModel, LocalModel
from repro.core.relabel import RELABEL_KERNELS, relabel_site
from repro.data.distance import Metric
from repro.distributed.network import SERVER, NetworkStats, SimulatedNetwork
from repro.distributed.partition import partition, split
from repro.distributed.server import RoundCore, round_deadline
from repro.distributed.site import ClientSite
from repro.faults.plan import FaultPlan
from repro.faults.transport import (
    BreakerPolicy,
    DeliveryOutcome,
    ResilientTransport,
    TransportPolicy,
    TransportStats,
)
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Span,
    Tracer,
    shift_span_times,
    trace_document,
)
from repro.obs.registry import usable_cpu_count

__all__ = [
    "DistributedRunConfig",
    "DistributedRunReport",
    "DistributedRunner",
    "RecoveryPolicy",
    "RecoveryRoundStats",
    "RoundPolicy",
]

_R = TypeVar("_R")

#: A parallel fan-out engages only when the largest site holds at least
#: this many objects: below it, worker startup dominates the work being
#: distributed (the committed 20k bench showed process_x4 at a 0.76x
#: *slowdown*).
FALLBACK_MIN_POINTS = 20_000


class _DirectTransport:
    """The transport of a run without faults: each message is sent once
    over the network and no simulated clock runs (arrival = send time)."""

    stats = None

    def __init__(self, network: SimulatedNetwork) -> None:
        self.network = network

    def deliver(
        self,
        sender: int,
        receiver: int,
        kind: str,
        payload: bytes,
        *,
        start_s: float = 0.0,
        receiver_down: bool = False,
    ) -> DeliveryOutcome:
        message = self.network.send(sender, receiver, kind, payload)
        return DeliveryOutcome(
            delivered=True,
            attempts=1,
            sim_seconds=0.0,
            arrival_s=start_s,
            bytes_sent=message.n_bytes,
        )


def _no_sim_time(n_objects: int, slowdown: float = 1.0) -> float:
    """Simulated local-phase time of a run without a simulated clock."""
    return 0.0


def _local_task(site: ClientSite, observed: bool):
    """A site's local-phase compute: ``(outcome, wall_s, cpu_s, spans,
    metrics)``.  Observed, it runs under a worker-local tracer and
    metrics registry whose exports ride back with the result, so the
    driver can graft and merge them (thread and process workers alike);
    unobserved, under the null ones, which export nothing."""
    tracer, metrics = (
        (Tracer(), MetricsRegistry()) if observed else (NULL_TRACER, NULL_METRICS)
    )
    with tracer.span(
        f"site[{site.site_id}].local",
        attrs={"site": site.site_id, "n_objects": int(site.points.shape[0])},
    ):
        outcome, wall_s, cpu_s = site.compute_local_clustering(
            tracer=tracer, metrics=metrics
        )
    return outcome, wall_s, cpu_s, tracer.export_spans(origin=0.0), metrics.to_dict()


def _relabel_task(site_id: int, relabel: Callable[[], tuple], observed: bool):
    """``relabel()``'s ``(labels, stats, wall_s, cpu_s)`` plus the spans
    of a worker-local tracer when observed (none otherwise)."""
    tracer = Tracer() if observed else NULL_TRACER
    with tracer.span(f"site[{site_id}].relabel", attrs={"site": site_id}):
        result = relabel()
    return (*result, tracer.export_spans(origin=0.0))


def _graft_worker_spans(
    parent: Span, exported: list[dict], start: float, end: float
) -> None:
    """Attach worker-exported span trees under ``parent``.

    ``[start, end]`` is the driver's window around the fan-out.  Thread
    workers share the driver's ``perf_counter`` clock, so their
    timestamps land inside it as-is.  Process workers have their own
    clock epoch; a span starting outside the window is re-anchored at the
    window start (durations are preserved).
    """
    for data in exported:
        if not start <= data["wall_start"] <= end:
            data = shift_span_times(data, start - data["wall_start"])
        parent.children.append(Span.from_dict(data))


# ----------------------------------------------------------------------
# Process fan-outs.
#
# A process worker gets one site's arrays inline, pickled with its task:
# the points and settings for the local phase, plus the local labels and
# the model for a relabel.  It never gets the ClientSite, whose neighbour
# index and cover memo would be pickled along, and a local outcome comes
# back without its neighbour index, which would pickle the points back.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SiteTask:
    """Picklable inputs of one site's work on a process worker."""

    site_id: int
    points: np.ndarray
    config: DistributedRunConfig
    observed: bool
    labels: np.ndarray | None = None
    model: GlobalModel | None = None


def _site(site_id: int, points: np.ndarray, config: DistributedRunConfig) -> ClientSite:
    """A client site holding ``points`` under ``config``'s settings."""
    return ClientSite(
        site_id,
        points,
        eps_local=config.eps_local,
        min_pts_local=config.min_pts_local,
        scheme=config.scheme,
        metric=config.metric,
        relabel_kernel=config.relabel_kernel,
    )


def _process_local_task(task: _SiteTask):
    """Process-worker task: one site's local phase, returned without the
    clustering's neighbour index."""
    result = _local_task(_site(task.site_id, task.points, task.config), task.observed)
    result[0].clustering.index = None
    return result


def _process_relabel_task(task: _SiteTask):
    """Process-worker task: one site's relabel from its points, local
    labels and the model (a worker keeps no cover memo)."""
    return _relabel_task(task.site_id, partial(_timed_relabel, task), task.observed)


def _timed_relabel(task: _SiteTask):
    """One relabel pass with the wall/CPU timing of ``compute_relabel``."""
    wall_start = time.perf_counter()
    cpu_start = time.thread_time()
    global_labels, stats = relabel_site(
        task.points,
        task.labels,
        task.model,
        site_id=task.site_id,
        metric=task.config.metric,
        kernel=task.config.relabel_kernel,
    )
    return (
        global_labels,
        stats,
        time.perf_counter() - wall_start,
        time.thread_time() - cpu_start,
    )


@dataclass(frozen=True)
class DistributedRunConfig:
    """Configuration of a distributed run.

    Attributes:
        eps_local: local DBSCAN ``Eps``.
        min_pts_local: local DBSCAN ``MinPts``.
        scheme: local model scheme.
        eps_global: server merge radius (``None`` → paper default).
        metric: distance metric.
        partition_strategy: how the data is spread over sites.
        seed: partitioning seed.
        parallelism: maximum number of sites whose local phase / relabel
            pass runs concurrently (1 = strictly sequential).  Results are
            identical either way; only wall-clock timing changes.
        parallel_backend: ``"thread"`` (default) or ``"process"``.  The
            process backend sidesteps the GIL for CPU-bound local phases
            but requires the metric to be picklable (all registered named
            metrics are; ``minkowski_metric`` closures are not).
        relabel_kernel: coverage kernel of the update step (``"auto"`` /
            ``"vectorized"`` / ``"reference"``); every kernel produces
            bit-identical labels, the knob only trades constants.

    A parallel run degrades to sequential execution whenever parallelism
    cannot win: one usable CPU, or every site below
    :data:`FALLBACK_MIN_POINTS` objects.  The decision lands on the report
    as :attr:`DistributedRunReport.effective_parallelism` /
    ``parallelism_fallback_reason``; results are identical either way.
    A process worker gets one site's arrays inline with its task.
    """

    eps_local: float
    min_pts_local: int
    scheme: str = "rep_scor"
    eps_global: float | None = None
    metric: str | Metric = "euclidean"
    partition_strategy: str = "uniform_random"
    seed: int = 0
    parallelism: int = 1
    parallel_backend: str = "thread"
    relabel_kernel: str = "auto"

    def __post_init__(self) -> None:
        density_parameters(
            self.eps_local,
            self.min_pts_local,
            eps_name="eps_local",
            min_pts_name="min_pts_local",
        )
        global_radius(self.eps_global)
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.parallel_backend not in ("thread", "process"):
            raise ValueError(
                f"parallel_backend must be 'thread' or 'process', "
                f"got {self.parallel_backend!r}"
            )
        if self.relabel_kernel not in RELABEL_KERNELS:
            raise ValueError(
                f"unknown relabel_kernel {self.relabel_kernel!r}; "
                f"known: {RELABEL_KERNELS}"
            )


@dataclass(frozen=True)
class RoundPolicy:
    """Server-side round policy for degraded-mode runs.

    Simulated time, not wall time, drives the policy so that runs are
    reproducible: a site's simulated local phase lasts
    ``n_objects / compute_rate_objects_per_s`` (times its straggler
    slowdown), and its model's arrival time adds the transport's
    simulated delivery delay on top.

    Attributes:
        deadline_s: simulated time after which the server rejects late
            local models (``None`` = wait forever, the paper's behavior).
        compute_rate_objects_per_s: nominal local clustering throughput
            used to convert a site's object count into simulated seconds.
    """

    deadline_s: float | None = None
    compute_rate_objects_per_s: float = 50_000.0

    def __post_init__(self) -> None:
        round_deadline(self.deadline_s)
        if self.compute_rate_objects_per_s <= 0:
            raise ValueError(
                "compute_rate_objects_per_s must be positive, got "
                f"{self.compute_rate_objects_per_s}"
            )

    def sim_local_seconds(self, n_objects: int, slowdown: float = 1.0) -> float:
        """Simulated duration of one site's local phase."""
        return n_objects / self.compute_rate_objects_per_s * slowdown


@dataclass(frozen=True)
class RecoveryPolicy:
    """Recovery-round policy: let failed sites rejoin and heal the model.

    After the initial degraded round, up to ``max_recovery_rounds``
    recovery rounds run.  In each round every still-failed site gets one
    chance to rejoin: crashed sites reboot (re-running their local phase
    if they never computed one; local state survives a crash-after-send),
    sites whose upload was lost, late or quarantined resubmit, and sites
    that missed the broadcast receive it again.  The round core folds
    late models, sorted by site id, into the existing global model
    *incrementally* (:class:`~repro.core.global_model.GlobalModelRepairer`)
    instead of re-running the global DBSCAN — unless the base model has
    no representatives, which it rebuilds — and re-broadcasts only when
    the repair actually changed the model (recovered sites always
    receive it).

    Site-crash decisions are *not* re-drawn in recovery rounds — a
    crashed site is assumed rebooted — but every transfer still rides the
    resilient transport under the plan's link faults, so rejoins can fail
    again and retry in the next round.

    Attributes:
        max_recovery_rounds: recovery rounds to attempt (0 = disabled,
            today's single-round degraded behavior).
        deadline_s: per-round admission deadline, relative to the round's
            start (``None`` = wait forever).  Like the
            :class:`RoundPolicy` deadline, arrival exactly *at* the
            deadline is admitted.
        rejoin_backoff_s: simulated delay before the first recovery round
            starts (gives rebooting sites time to come back).
        backoff_multiplier: factor applied to the backoff for each
            further round (round *r* waits
            ``rejoin_backoff_s * backoff_multiplier**(r-1)``).
    """

    max_recovery_rounds: int = 0
    deadline_s: float | None = None
    rejoin_backoff_s: float = 0.5
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_recovery_rounds < 0:
            raise ValueError(
                f"max_recovery_rounds must be >= 0, got {self.max_recovery_rounds}"
            )
        round_deadline(self.deadline_s)
        if self.rejoin_backoff_s < 0:
            raise ValueError(
                f"rejoin_backoff_s must be >= 0, got {self.rejoin_backoff_s}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any recovery round can run."""
        return self.max_recovery_rounds > 0

    def backoff_seconds(self, round_index: int) -> float:
        """Simulated backoff before recovery round ``round_index`` (1-based)."""
        return self.rejoin_backoff_s * self.backoff_multiplier ** (round_index - 1)


@dataclass(frozen=True)
class RecoveryRoundStats:
    """What one recovery round did.

    Attributes:
        round_index: 1-based recovery round number.
        start_sim_seconds: simulated time the round started (previous
            round end + rejoin backoff).
        end_sim_seconds: simulated time of the round's last transport
            activity.
        wall_seconds: driver wall-clock time the round took.
        attempted_sites: sites the round tried to heal (failed or stale
            at round start), sorted.
        recovered_sites: sites that completed the full protocol this
            round (model merged and global labels applied), sorted.
        quarantined_sites: sites whose resubmission was quarantined this
            round (corrupt or invalid), sorted.
        rebroadcast_sites: sites the repaired model was broadcast to,
            sorted.
        relabel_changed_sites: broadcast receivers whose global labels
            actually changed after relabeling, sorted.
        still_failed_sites: sites still failed after the round, sorted.
        retries: transport retries spent in this round.
    """

    round_index: int
    start_sim_seconds: float
    end_sim_seconds: float
    wall_seconds: float
    attempted_sites: list[int]
    recovered_sites: list[int]
    quarantined_sites: list[int]
    rebroadcast_sites: list[int]
    relabel_changed_sites: list[int]
    still_failed_sites: list[int]
    retries: int


@dataclass
class DistributedRunReport:
    """Everything a distributed run produces.

    Every timing field names its clock: ``*_wall_seconds`` is real
    elapsed ``perf_counter`` time on the driver or a worker,
    ``*_cpu_seconds`` is accumulated per-thread CPU time, and
    ``*_sim_seconds`` is the deterministic simulated protocol clock
    (the one ``RoundPolicy`` deadlines and transport delays run on).

    Attributes:
        sites: the client sites (holding their labels and stats).
        global_model: the broadcast model.
        network: traffic statistics.
        raw_bytes: what centralizing the raw data would have transmitted.
        raw_sim_seconds: simulated transfer time of the raw data.
        max_local_wall_seconds: slowest site's local phase (wall clock,
            measured on whichever worker ran the site).
        global_wall_seconds: server clustering time (wall clock).
        assignment: per original object, its site (when partitioned by the
            runner; ``None`` when sites were handed in pre-split).
        local_wall_seconds: actual elapsed wall time of the whole local
            compute fan-out on the driver (= sum of sites when
            sequential, ideally the max when parallel).
        local_cpu_seconds: CPU time summed over all sites' local phases —
            unlike wall time, this is additive under parallelism.
        relabel_wall_seconds: actual elapsed wall time of the step-4
            relabel fan-out.
        relabel_cpu_seconds: CPU time summed over all sites' relabels.
        local_sim_seconds: simulated time at which the last *admitted*
            local model arrived at the server (0 without an active fault
            plan, which runs no simulated clock).
        round_sim_seconds: simulated time at which the round's last
            transport activity finished — uploads, retries and broadcast
            included (0 without an active fault plan).
        participating_sites: sites whose local model the server admitted
            into the global model, in admission order: round by round,
            and within a round by simulated arrival time, ties broken by
            site id (site order without an active plan).  The global
            model itself is built and folded in site-id order.
        failed_sites: sites that missed some part of the round (crashed,
            link failed, deadline missed, or lost the broadcast), sorted.
            A site can appear in both lists: its model was merged but it
            never received the global model back.
        retries: transport retries across all messages of the round.
        degraded: whether the round was degraded — any site failed (even
            after recovery) or a site holds stale labels.
        transport_stats: detailed transport bookkeeping (``None``
            without an active fault plan, whose transport sends each
            message once).
        recovered_sites: sites that failed the initial round but completed
            the protocol in a recovery round, sorted.  They appear in
            ``participating_sites`` too and *not* in ``failed_sites``.
        quarantined_sites: sites whose model was quarantined by the
            integrity gate at least once (corrupt payload or invalid
            model), sorted.  A quarantined site that later recovered is
            listed here *and* in ``recovered_sites``.
        stale_sites: previously healthy sites that missed a re-broadcast
            of a repaired model and therefore hold labels of an older
            global model, sorted.  Stale is not failed — the labels are
            internally consistent, just out of date — but it keeps the
            run degraded.
        recovery_rounds_used: recovery rounds actually executed.
        recovery_rounds: per-round recovery bookkeeping.
        trace: the run's trace document (spans + metrics, see
            ``docs/observability.md``) when the runner was handed a
            tracer; ``None`` otherwise.
        effective_parallelism: workers the fan-outs actually used after
            auto-fallback (equals ``config.parallelism`` when no fallback
            fired).
        parallelism_fallback_reason: why a parallel config degraded to
            sequential execution (``"single_cpu"`` / ``"small_sites"``),
            ``None`` when it did not.
    """

    sites: list[ClientSite]
    global_model: GlobalModel
    network: NetworkStats
    raw_bytes: int
    raw_sim_seconds: float
    max_local_wall_seconds: float
    global_wall_seconds: float
    assignment: np.ndarray | None = None
    local_wall_seconds: float = 0.0
    local_cpu_seconds: float = 0.0
    relabel_wall_seconds: float = 0.0
    relabel_cpu_seconds: float = 0.0
    local_sim_seconds: float = 0.0
    round_sim_seconds: float = 0.0
    participating_sites: list[int] = field(default_factory=list)
    failed_sites: list[int] = field(default_factory=list)
    retries: int = 0
    degraded: bool = False
    transport_stats: TransportStats | None = None
    recovered_sites: list[int] = field(default_factory=list)
    quarantined_sites: list[int] = field(default_factory=list)
    stale_sites: list[int] = field(default_factory=list)
    recovery_rounds_used: int = 0
    recovery_rounds: list[RecoveryRoundStats] = field(default_factory=list)
    trace: dict | None = None
    effective_parallelism: int = 1
    parallelism_fallback_reason: str | None = None

    @property
    def overall_wall_seconds(self) -> float:
        """The paper's overall runtime (max local + global, wall clock)."""
        return self.max_local_wall_seconds + self.global_wall_seconds

    @property
    def n_objects(self) -> int:
        """Objects across all sites."""
        return sum(site.points.shape[0] for site in self.sites)

    @property
    def n_representatives(self) -> int:
        """Representatives the server clustered."""
        return len(self.global_model)

    @property
    def transmission_cost_ratio(self) -> float:
        """Upstream bytes as a fraction of the raw-data baseline.

        ``0.03`` means the models cost 3% of shipping the raw data — the
        paper's "low transmission cost" claim.  0.0 for an empty baseline.
        """
        if self.raw_bytes == 0:
            return 0.0
        return self.network.bytes_upstream / self.raw_bytes

    @property
    def transmission_saving(self) -> float:
        """Fraction of the raw-data baseline *saved* by shipping models.

        The complement of :attr:`transmission_cost_ratio`: ``0.97`` means
        97% of the raw-data bytes never crossed the network.  (Earlier
        revisions returned the cost ratio under this name.)  0.0 for an
        empty baseline.
        """
        if self.raw_bytes == 0:
            return 0.0
        return 1.0 - self.transmission_cost_ratio

    @property
    def bytes_by_kind(self) -> dict[str, int]:
        """Traffic per message kind (``local_model`` vs ``global_model``)."""
        return dict(self.network.bytes_by_kind)

    def flat_metrics(self) -> dict[str, float]:
        """The report as the flat metric dict a RunRecord stores.

        Names follow the :mod:`repro.obs` contract (dotted, units in the
        name, per-kind variants in brackets); the run registry appends
        them and ``python -m repro runs regress`` compares them under the
        direction-aware rules of :mod:`repro.obs.regress`.
        """
        metrics: dict[str, float] = {
            "local.wall_seconds": self.local_wall_seconds,
            "local.cpu_seconds": self.local_cpu_seconds,
            "local.max_wall_seconds": self.max_local_wall_seconds,
            "global.wall_seconds": self.global_wall_seconds,
            "relabel.wall_seconds": self.relabel_wall_seconds,
            "relabel.cpu_seconds": self.relabel_cpu_seconds,
            "overall.wall_seconds": self.overall_wall_seconds,
            "local.admitted_sim_seconds": self.local_sim_seconds,
            "round.round_sim_seconds": self.round_sim_seconds,
            "raw.baseline_sim_seconds": self.raw_sim_seconds,
            "net.bytes_total": float(self.network.bytes_total),
            "net.bytes_upstream": float(self.network.bytes_upstream),
            "net.bytes_downstream": float(self.network.bytes_downstream),
            "transport.retries": float(self.retries),
            "transmission.cost_ratio": self.transmission_cost_ratio,
            "sites.participating_count": float(len(self.participating_sites)),
            "sites.failed": float(len(self.failed_sites)),
            "run.degraded_count": float(self.degraded),
            "model.representatives_count": float(self.n_representatives),
            "model.objects_count": float(self.n_objects),
            "recovery.rounds_used": float(self.recovery_rounds_used),
            "recovery.recovered_sites_count": float(len(self.recovered_sites)),
            "sites.quarantined_count": float(len(self.quarantined_sites)),
            "sites.stale_count": float(len(self.stale_sites)),
            "parallel.effective_workers": float(self.effective_parallelism),
            "parallel.fallback_count": float(
                self.parallelism_fallback_reason is not None
            ),
        }
        if self.transport_stats is not None:
            metrics["transport.corrupted"] = float(self.transport_stats.n_corrupted)
            metrics["breaker.fast_fails"] = float(
                self.transport_stats.n_fast_failed
            )
            metrics["breaker.state_changes"] = float(
                self.transport_stats.n_breaker_state_changes
            )
        for kind, n_bytes in sorted(self.bytes_by_kind.items()):
            metrics[f"net.bytes[{kind}]"] = float(n_bytes)
        return metrics

    def labels_in_original_order(self) -> np.ndarray:
        """Global labels aligned with the pre-partition object order.

        Raises:
            RuntimeError: when the runner was given pre-split sites (no
                assignment is known).
            ValueError: when the assignment does not cover every site (it
                references unknown site ids, or its per-site object counts
                disagree with the sites' actual data).
        """
        if self.assignment is None:
            raise RuntimeError("no partition assignment recorded for this run")
        assignment = np.asarray(self.assignment, dtype=np.intp)
        n_sites = len(self.sites)
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= n_sites
        ):
            raise ValueError(
                f"assignment references site ids outside 0..{n_sites - 1}"
            )
        counts = np.bincount(assignment, minlength=n_sites)
        for site_id, site in enumerate(self.sites):
            if counts[site_id] != site.points.shape[0]:
                raise ValueError(
                    f"assignment covers {counts[site_id]} objects for site "
                    f"{site_id}, which holds {site.points.shape[0]}"
                )
        # A stable sort by site id lists, per site, its members in original
        # order — exactly the order partition.split handed the points over,
        # so concatenated per-site labels scatter straight back.
        order = np.argsort(assignment, kind="stable")
        out = np.empty(assignment.size, dtype=np.intp)
        out[order] = np.concatenate(
            [site.global_labels for site in self.sites]
        )
        return out


class DistributedRunner:
    """Executes the four DBDC protocol steps over a simulated network.

    Every run is one loop of rounds over the
    :class:`~repro.distributed.server.RoundCore`: round 0 is the first
    pass, recovery rounds are the rest.  With an active ``fault_plan``
    messages travel via a :class:`ResilientTransport` (timeouts, retries,
    backoff) on a simulated clock, the core applies the ``round_policy``'s
    deadline, the global model is built from whichever local
    models were admitted, and sites that missed the round fall back to
    their local labels.  Without a plan (or with an inactive one) the
    same loop runs over a transport that sends each message once and
    advances no simulated clock, so every site is admitted in site order
    and the report matches the paper's fault-free protocol bit for bit.
    The global model is always built from the admitted models sorted by
    site id, so a plan that only delays messages changes nothing.
    ``participating_sites`` lists sites in admission order (see
    :class:`DistributedRunReport`); ``transport_stats`` is ``None``
    without an active plan.

    Args:
        config: run configuration.
        network: optional pre-configured network (fresh default otherwise).
        fault_plan: faults to inject (``None`` or inactive = clean run).
        transport_policy: retry/backoff parameters for the fault path.
        round_policy: server deadline policy for the fault path.
        recovery_policy: optional :class:`RecoveryPolicy`; with
            ``max_recovery_rounds > 0`` failed sites get recovery rounds
            to rejoin and the global model is repaired incrementally.
            ``None`` (or 0 rounds) keeps today's single-round behavior.
        breaker_policy: optional per-link circuit breaker for the
            resilient transport (``None`` = disabled).
        tracer: optional :class:`~repro.obs.Tracer`.  When given, the run
            produces the full span tree (``run > local_phase > site[i]
            …``), recording each span as its phase ends, and the
            report carries the trace document.  ``None`` (the default)
            is :data:`~repro.obs.NULL_TRACER`: no spans, bit-identical
            output.
        metrics: optional :class:`~repro.obs.MetricsRegistry` threaded
            through DBSCAN (and its region queries), server and transport.
    """

    def __init__(
        self,
        config: DistributedRunConfig,
        network: SimulatedNetwork | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        transport_policy: TransportPolicy | None = None,
        round_policy: RoundPolicy | None = None,
        recovery_policy: RecoveryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.network = network or SimulatedNetwork()
        self.fault_plan = fault_plan
        self.transport_policy = transport_policy or TransportPolicy()
        self.round_policy = round_policy or RoundPolicy()
        self.recovery_policy = recovery_policy or RecoveryPolicy()
        self.breaker_policy = breaker_policy
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._effective_parallelism = config.parallelism
        self._fallback_reason: str | None = None
        # The process pool of the run in progress (see ``_fan_out``).
        self._pool: ProcessPoolExecutor | None = None
        self._pool_width = 1

    def _resolve_parallelism(
        self, site_points: list[np.ndarray]
    ) -> tuple[int, str | None]:
        """Decide how many workers the fan-outs actually get.

        A parallel config degrades to sequential execution when
        parallelism cannot win: one usable CPU, or every site's work
        below :data:`FALLBACK_MIN_POINTS`.  Results are identical either
        way — only scheduling changes.
        """
        config = self.config
        if config.parallelism <= 1:
            return config.parallelism, None
        if (usable_cpu_count() or 1) <= 1:
            return 1, "single_cpu"
        largest = max(
            (np.asarray(points).shape[0] for points in site_points), default=0
        )
        if largest < FALLBACK_MIN_POINTS:
            return 1, "small_sites"
        return config.parallelism, None

    def run_on_sites(
        self,
        site_points: list[np.ndarray],
        assignment: np.ndarray | None = None,
    ) -> DistributedRunReport:
        """Run the protocol over pre-split site data.

        Args:
            site_points: one point array per site.
            assignment: optional original-order assignment (for realignment).

        Returns:
            A :class:`DistributedRunReport`.

        Raises:
            ValueError: when no sites are given.
        """
        if not site_points:
            raise ValueError("at least one site is required")
        self._effective_parallelism, self._fallback_reason = (
            self._resolve_parallelism(site_points)
        )
        sites = [
            _site(site_id, points, self.config)
            for site_id, points in enumerate(site_points)
        ]
        active = self.fault_plan is not None and self.fault_plan.is_active()
        mode = "degraded" if active else "fault_free"
        self._pool_width = min(self._effective_parallelism, len(sites))
        try:
            with self.tracer.span("run", attrs={"mode": mode, "n_sites": len(sites)}):
                report = self._run(sites, site_points, assignment, active)
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        if self.tracer.enabled:
            report.trace = trace_document(self.tracer, self.metrics)
        return report

    def _local_fanout(self, sites: list[ClientSite], observing: bool) -> list:
        """Fan the local-phase compute out."""
        return self._fan_out(
            sites,
            partial(_local_task, observed=observing),
            _process_local_task,
            lambda site: _SiteTask(site.site_id, site.points, self.config, observing),
        )

    def _relabel_fanout(
        self,
        sites: list[ClientSite],
        global_model: GlobalModel,
        observing: bool,
    ) -> list:
        """Fan the step-4 relabel compute out."""

        def task(site: ClientSite):
            relabel = partial(site.compute_relabel, global_model)
            return _relabel_task(site.site_id, relabel, observing)

        return self._fan_out(
            sites,
            task,
            _process_relabel_task,
            lambda site: _SiteTask(
                site.site_id,
                site.points,
                self.config,
                observing,
                labels=site.local_outcome.clustering.labels,
                model=global_model,
            ),
        )

    def _raw_cost(self, site_points: list[np.ndarray]) -> tuple[int, float]:
        dim = site_points[0].shape[1] if site_points[0].ndim == 2 else 0
        return self.network.raw_data_cost(
            sum(p.shape[0] for p in site_points), dim
        )

    def _run(
        self,
        sites: list[ClientSite],
        site_points: list[np.ndarray],
        assignment: np.ndarray | None,
        active: bool,
    ) -> DistributedRunReport:
        """The protocol as one round loop over the round core.

        Round 0 is the first pass: every site that did not crash computes
        its local model and uploads it, the core admits what arrives, the
        commit builds the global model, and the admitted sites receive it
        and relabel.  Recovery rounds are the rest: every site still
        failed or stale gets one more chance through the same steps —
        crashed sites reboot and compute, unadmitted models are uploaded
        again, the commit folds the new models in, and the model is
        broadcast to the sites that need it.  Sites failed after the last
        round fall back to their local labels.

        Each span is recorded as its phase ends, from the ``perf_counter``
        reads that fill the report: round 0's phases are the run's
        ``local_phase`` / ``global_phase`` / ``broadcast`` / ``relabel``
        spans, and a recovery round records its work under one
        ``recovery_round[r]`` span.
        """
        plan = self.fault_plan
        policy = self.round_policy
        recovery = self.recovery_policy
        tracer = self.tracer
        metrics = self.metrics
        observing = tracer.enabled or metrics.enabled
        if active:
            transport = ResilientTransport(
                self.network,
                plan,
                self.transport_policy,
                breaker_policy=self.breaker_policy,
                metrics=metrics,
            )
            sim_local = policy.sim_local_seconds
        else:
            plan = FaultPlan.none()
            transport = _DirectTransport(self.network)
            sim_local = _no_sim_time
        core = RoundCore(
            self.config.eps_global,
            metric=self.config.metric,
            expected_sites=len(sites),
            metrics=metrics,
        )
        sites_by_id = {site.site_id: site for site in sites}
        behaviors = {site_id: plan.resolve_site(site_id) for site_id in sites_by_id}
        failed = {
            site_id: "crash_before_local"
            for site_id, behavior in behaviors.items()
            if behavior.crashes_before_local
        }
        models: dict[int, LocalModel] = {}
        relabeled: set[int] = set()
        stale: set[int] = set()
        recovered_total: set[int] = set()
        quarantined_total: set[int] = set()
        recovery_rounds: list[RecoveryRoundStats] = []
        retries = 0
        round_sim_end = 0.0
        local_cpu_seconds = 0.0
        relabel_cpu_seconds = 0.0
        global_model: GlobalModel | None = None

        def deliver(sender, receiver, kind, payload, start_s, down=False):
            nonlocal retries, round_sim_last
            send_start = time.perf_counter()
            delivery = transport.deliver(
                sender, receiver, kind, payload, start_s=start_s, receiver_down=down
            )
            if tracer.enabled:
                tracer.record(
                    f"send[{kind}]",
                    wall_start=send_start,
                    wall_end=time.perf_counter(),
                    sim_start=start_s,
                    sim_end=delivery.arrival_s,
                    attrs={
                        "site": receiver if sender == SERVER else sender,
                        "kind": kind,
                        "bytes": delivery.bytes_sent,
                        "delivered": delivery.delivered,
                        "attempts": delivery.attempts,
                    },
                )
            retries += delivery.retries
            round_sim_last = max(round_sim_last, delivery.arrival_s)
            return delivery

        for round_index in range(recovery.max_recovery_rounds + 1):
            if round_index == 0:
                attempted = [
                    site_id for site_id in sites_by_id if site_id not in failed
                ]
                round_start = 0.0
                deadline = policy.deadline_s
            else:
                attempted = sorted(set(failed) | stale)
                if not attempted:
                    break
                round_start = round_sim_end + recovery.backoff_seconds(round_index)
                deadline = recovery.deadline_s
            round_wall_start = time.perf_counter()
            round_sim_last = round_start
            retries_before = retries
            # Round 0 records the run's phase spans; a recovery round
            # records its work directly under its own span (workers' spans
            # are grafted under round 0's ``compute`` or that span).
            phase_tracer, round_tracer = (
                (tracer, NULL_TRACER) if round_index == 0 else (NULL_TRACER, tracer)
            )
            with round_tracer.span(f"recovery_round[{round_index}]") as round_span:
                # Steps 1+2: sites without a local model compute one
                # (crashed sites reboot in recovery rounds: crash decisions
                # are not re-drawn, straggler slowdowns still apply), and
                # every site whose model the server has not admitted
                # uploads it.
                computing = [
                    sites_by_id[site_id]
                    for site_id in attempted
                    if site_id not in models
                ]
                with phase_tracer.span("local_phase"):
                    local_start = time.perf_counter()
                    results = self._local_fanout(computing, observing)
                    compute_end = time.perf_counter()
                    parent = round_span or phase_tracer.record(
                        "compute", wall_start=local_start, wall_end=compute_end
                    )
                    for site, result in zip(computing, results):
                        outcome, wall_s, cpu_s, spans, exported = result
                        if tracer.enabled:
                            _graft_worker_spans(parent, spans, local_start, compute_end)
                        metrics.merge(exported)
                        local_cpu_seconds += cpu_s
                        models[site.site_id] = site.apply_local_outcome(
                            outcome, wall_s, cpu_s
                        )
                    fresh = {site.site_id for site in computing}
                    admitted = set(core.admitted_site_ids)
                    deliveries: list[tuple[float, int, bool]] = []
                    with phase_tracer.span("upload"):
                        for site_id in attempted:
                            if site_id in admitted:
                                continue
                            start_s = round_start
                            if site_id in fresh:
                                start_s += sim_local(
                                    sites_by_id[site_id].points.shape[0],
                                    behaviors[site_id].slowdown,
                                )
                            delivery = deliver(
                                site_id,
                                SERVER,
                                "local_model",
                                models[site_id].to_bytes(),
                                start_s,
                            )
                            if delivery.delivered:
                                deliveries.append(
                                    (delivery.arrival_s, site_id, delivery.checksum_ok)
                                )
                            else:
                                failed[site_id] = "link_failed"

                # Step 3: the core admits in simulated-arrival order
                # (deadline relative to the round's start) and commits the
                # round.
                core.apply(
                    core.open_round(round_index, at_s=round_start, deadline_s=deadline)
                )
                broadcast_start = round_start
                round_quarantined: list[int] = []
                for arrival_s, site_id, checksum_ok in sorted(deliveries):
                    decision = core.arrive(
                        models[site_id], at_s=arrival_s, crc_ok=checksum_ok
                    )
                    core.apply(decision)
                    if decision.verdict == "admitted":
                        broadcast_start = max(broadcast_start, arrival_s)
                    else:
                        failed[site_id] = decision.verdict
                    if decision.verdict == "quarantined":
                        quarantined_total.add(site_id)
                        round_quarantined.append(site_id)
                n_before = len(global_model) if global_model is not None else 0
                global_start = time.perf_counter()
                global_model = core.apply(core.commit_round(round_index))
                phase_tracer.record(
                    "global_phase",
                    wall_start=global_start,
                    wall_end=global_start + core.global_seconds,
                    attrs={"n_representatives": len(global_model)},
                )
                grew = len(global_model) > n_before

                # Broadcast to every attempted site the server holds a
                # model of, and — when the model grew — to every relabeled
                # site too: new representatives can promote noise on *any*
                # site (Definition 9).  A crash-after-send site still gets
                # its round-0 attempts — the server is not omniscient —
                # they just never land.
                admitted = set(core.admitted_site_ids)
                receivers_needed = {
                    site_id for site_id in attempted if site_id in admitted
                }
                receivers_needed |= stale
                if grew:
                    receivers_needed |= relabeled
                payload = global_model.to_bytes()
                receivers: list[ClientSite] = []
                with phase_tracer.span("broadcast"):
                    for site_id in sorted(receivers_needed):
                        down = (
                            round_index == 0 and behaviors[site_id].crashes_after_send
                        )
                        delivery = deliver(
                            SERVER,
                            site_id,
                            "global_model",
                            payload,
                            broadcast_start,
                            down,
                        )
                        if down:
                            failed[site_id] = "crash_after_send"
                        elif delivery.delivered and delivery.checksum_ok:
                            receivers.append(sites_by_id[site_id])
                        elif site_id in relabeled and site_id not in failed:
                            # A healthy site that misses a refresh is
                            # *stale*, not failed: its old labels are
                            # internally consistent, just out of date.  It
                            # is retried next round.
                            stale.add(site_id)
                        else:
                            # Corrupt bytes must not be applied as a global
                            # model.
                            failed[site_id] = (
                                "broadcast_corrupt"
                                if delivery.delivered
                                else "broadcast_lost"
                            )

                # Step 4 on the sites that hold the committed model.
                changed: list[int] = []
                recovered: list[int] = []
                with phase_tracer.span("relabel"):
                    relabel_start = time.perf_counter()
                    results = self._relabel_fanout(receivers, global_model, observing)
                    relabel_end = time.perf_counter()
                    parent = round_span or phase_tracer.record(
                        "compute", wall_start=relabel_start, wall_end=relabel_end
                    )
                    for site, result in zip(receivers, results):
                        labels, stats, wall_s, cpu_s, spans = result
                        if tracer.enabled:
                            _graft_worker_spans(
                                parent, spans, relabel_start, relabel_end
                            )
                        relabel_cpu_seconds += cpu_s
                        site_id = site.site_id
                        old_labels = (
                            site.global_labels if site_id in relabeled else None
                        )
                        site.apply_relabel(labels, stats, wall_s, cpu_s)
                        if old_labels is None or not np.array_equal(
                            old_labels, site.global_labels
                        ):
                            changed.append(site_id)
                        if failed.pop(site_id, None) is not None:
                            recovered_total.add(site_id)
                            recovered.append(site_id)
                        stale.discard(site_id)
                        relabeled.add(site_id)

                round_sim_end = max(round_sim_end, round_sim_last)
                if round_index == 0:
                    local_sim_seconds = broadcast_start
                    local_wall_seconds = compute_end - local_start
                    relabel_wall_seconds = relabel_end - relabel_start
                else:
                    recovery_rounds.append(
                        RecoveryRoundStats(
                            round_index=round_index,
                            start_sim_seconds=round_start,
                            end_sim_seconds=round_sim_last,
                            wall_seconds=time.perf_counter() - round_wall_start,
                            attempted_sites=attempted,
                            recovered_sites=sorted(recovered),
                            quarantined_sites=sorted(round_quarantined),
                            rebroadcast_sites=sorted(receivers_needed),
                            relabel_changed_sites=sorted(changed),
                            still_failed_sites=sorted(failed),
                            retries=retries - retries_before,
                        )
                    )
                    metrics.inc("recovery.rounds")
                    if tracer.enabled:
                        round_span.set_sim(round_start, round_sim_last)
                        round_span.attrs.update(
                            attempted=len(attempted),
                            recovered=len(recovered),
                            rebroadcast=len(receivers_needed),
                        )
        if recovered_total:
            metrics.set("recovery.recovered_sites", len(recovered_total))

        # Degraded fallback, in deterministic site order: fresh global ids
        # beyond everything the global model handed out.
        with (tracer if active else NULL_TRACER).span("degraded_fallback"):
            next_id = (
                int(global_model.global_labels.max()) + 1 if len(global_model) else 0
            )
            for site in sites:
                if site.site_id in failed:
                    next_id = site.apply_degraded_labels(
                        failed[site.site_id], id_offset=next_id
                    )

        participating = core.admitted_site_ids
        degraded = bool(failed) or bool(stale)
        metrics.set("runner.participating_sites", len(participating))
        metrics.set("runner.failed_sites", len(failed))
        if degraded:
            metrics.inc("runner.degraded_rounds")

        raw_bytes, raw_seconds = self._raw_cost(site_points)
        return DistributedRunReport(
            sites=sites,
            global_model=global_model,
            network=self.network.stats(),
            raw_bytes=raw_bytes,
            raw_sim_seconds=raw_seconds,
            max_local_wall_seconds=max(
                site.times.local_wall_seconds for site in sites
            ),
            global_wall_seconds=core.global_seconds,
            assignment=assignment,
            local_wall_seconds=local_wall_seconds,
            local_cpu_seconds=local_cpu_seconds,
            relabel_wall_seconds=relabel_wall_seconds,
            relabel_cpu_seconds=relabel_cpu_seconds,
            local_sim_seconds=local_sim_seconds,
            round_sim_seconds=round_sim_end,
            participating_sites=participating,
            failed_sites=sorted(failed),
            retries=retries,
            degraded=degraded,
            transport_stats=transport.stats,
            recovered_sites=sorted(recovered_total),
            quarantined_sites=sorted(quarantined_total),
            stale_sites=sorted(stale),
            recovery_rounds_used=len(recovery_rounds),
            recovery_rounds=recovery_rounds,
            effective_parallelism=self._effective_parallelism,
            parallelism_fallback_reason=self._fallback_reason,
        )

    def _fan_out(
        self,
        sites: list[ClientSite],
        task: Callable[[ClientSite], _R],
        process_task: Callable[[_SiteTask], _R],
        process_item: Callable[[ClientSite], _SiteTask],
    ) -> list[_R]:
        """Run one task per site, in site order, possibly concurrently.

        ``_effective_parallelism`` (the post-fallback worker count
        resolved by :meth:`run_on_sites`) bounds the pool size.  In this
        process and on threads ``task`` gets the site itself; a process
        worker runs ``process_task`` on ``process_item(site)``.  A run
        has one process pool, started at its first process fan-out, so
        the local phase, the relabel and every recovery round share its
        workers; :meth:`run_on_sites` shuts it down when the run returns
        or raises.
        """
        workers = min(self._effective_parallelism, len(sites))
        if workers <= 1:
            return [task(site) for site in sites]
        if self.config.parallel_backend == "thread":
            with ThreadPoolExecutor(max_workers=workers) as executor:
                return list(executor.map(task, sites))
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._pool_width)
        return list(self._pool.map(process_task, map(process_item, sites)))

    def run(self, points: np.ndarray, n_sites: int) -> DistributedRunReport:
        """Partition ``points`` and run the protocol.

        Args:
            points: the complete data set, shape ``(n, d)``.
            n_sites: number of client sites.

        Returns:
            A :class:`DistributedRunReport` whose labels can be realigned
            with the original object order.
        """
        points = np.asarray(points, dtype=float)
        assignment = partition(
            points, n_sites, self.config.partition_strategy, self.config.seed
        )
        return self.run_on_sites(split(points, assignment), assignment)
