"""DBDC as a live asyncio socket service.

:class:`DBDCService` is the I/O shell around the round protocol core,
:class:`~repro.distributed.server.RoundCore`: sites connect over
TCP (the wire protocol of :mod:`repro.service.wire`), upload local
models, await a round's model, and issue label queries; operators
probe health frames and scrape a plaintext HTTP endpoint serving the
existing OpenMetrics exporter.  Every protocol rule — admission, round
open/commit and their idempotence, the commit rule, duplicate
resubmissions — lives in the core, which the in-process runner and the
streaming oracle drive too; the service turns frames into core events
and core decisions into reply frames.

Determinism contract: the core builds from the admitted models sorted
by site id, so a socket run whose uploads race each other builds the
*same* global model as an in-process run — the bit-identical-labels
guarantee the integration tests pin.

Concurrency model: one event loop owns all protocol state, so admission
and build are race-free by construction; only the numpy-heavy label
relabeling runs in the default executor, to keep the loop responsive
under query load.  A label query queues its points with the model
snapshot it read on arrival, and one fold at a time runs: whenever none
is running, every queued query of the first one's model and
dimensionality is labeled by one ``coverage_labels`` call over their
concatenated points, and each gets its slice of the labels: each point
reads the model's label table, and only the points it cannot decide go
through the relabel fold (``relabel_site``).  A query's
labels do not depend on the other objects, so each reply is bit for bit
the one a lone relabel gives; a lone query waits for nothing, and
queries with no rows or against an empty model are answered without a
fold.  Per-connection deadlines bound
every read (one budget per frame, header and payload together), and
:meth:`DBDCService.stop` drains connections gracefully — in-flight
waiters receive a typed ``shutting_down`` frame before their connection
closes.

Rounds (ROUND_OPEN / ROUND_COMMIT / MODEL_DELTA) put the core's
rounds behind the same wire: the first round with representatives
commits by the site-sorted build, every later round folds into the
session model — representatives strictly append, so MODEL_DELTA replies
are exact.  A one-shot deployment is round 0: the first LOCAL_MODEL to
reach a service where no round was ever opened opens it, and it commits
at ``expected_sites`` models or on ROUND_COMMIT.  Streaming sites submit
each round's batch under a fresh *effective* site id, which keeps the
``(site_id, local_cluster_id)`` inheritance keys of the relabel step
collision-free across rounds.  See ``docs/service.md``.

Durability: with ``journal_dir`` configured, each core decision that
changes state (an admission, a quarantine, a round open or commit) is
written to a CRC-guarded write-ahead journal
(:mod:`repro.service.journal`) *before* it is applied and acknowledged;
:meth:`DBDCService.start` applies the decoded records to a fresh core,
so a crash-restarted server equals one that never crashed by
construction.  Every status reply carries the server *epoch*
(generation counter), duplicate resubmissions are acknowledged
idempotently, and bounded admission (``max_inflight_requests`` /
``max_connections``) sheds overload with typed ``overloaded`` replies
carrying a retry hint.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.clustering.dbscan import global_radius
from repro.clustering.labels import NOISE
from repro.core.models import GlobalModel, LocalModel
from repro.core.relabel import coverage_labels, require_model_dimensionality
from repro.distributed.server import (
    Decision,
    RoundCore,
    count_setting,
    round_deadline,
    round_sites,
    seconds_setting,
)
from repro.obs import MetricsRegistry, NULL_TRACER, shift_span_times, trace_document
from repro.obs.openmetrics import OPENMETRICS_CONTENT_TYPE, render_registry
from repro.service import journal, wire

__all__ = ["ServiceConfig", "DBDCService", "ServiceHandle"]


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`DBDCService`.

    Attributes:
        host: bind address.
        port: protocol port (0 = ephemeral, the tests' default).
        metrics_port: HTTP metrics port (0 = ephemeral, ``None`` =
            disable the endpoint).
        eps_global: server merge radius (``None`` → the paper default).
        metric: distance metric name.
        expected_sites: sites of one round, a whole number >= 1; when
            set, the open round commits as soon as that many models are
            admitted.  ``None`` = a round commits only on ROUND_COMMIT.
        deadline_s: admission deadline of each round in *service uptime*
            seconds (the socket path's arrival clock) after the round
            opened — round 0 opened by a bare upload counts from service
            start; ``None`` = never reject.
        quorum: minimum admitted fraction for a healthy round.
        relabel_kernel: kernel of the fold that labels the query points
            the model's label table cannot decide.
        idle_timeout_s: per-connection deadline — a connection that
            sends no complete frame for this long is closed.  The budget
            covers one *whole* frame: header and payload reads share a
            single deadline, so a slow-loris client cannot stretch a
            frame to twice the configured limit.
        await_timeout_cap_s: upper bound a MODEL_DELTA request may
            block, whatever timeout the client asked for.
        max_frame_bytes: reject frames declaring more payload than this.
        shutdown_grace_s: how long :meth:`DBDCService.stop` waits for
            in-flight requests (e.g. released MODEL_DELTA waiters) to
            flush their response frames before cancelling connections.
        journal_dir: directory of the write-ahead journal; ``None``
            disables durability (the pre-journal behavior).  When set,
            every admitted model, round open/commit and quarantine
            decision is journaled (fsynced) *before* it is acknowledged,
            and :meth:`DBDCService.start` replays the journal so a
            restarted server is bit-identical to one that never crashed.
        max_inflight_requests: cap on concurrently dispatching *work*
            frames (LOCAL_MODEL / LABEL_QUERY / TRACE_UPLOAD); excess
            requests are shed with a typed ``overloaded`` reply carrying
            ``retry_after_s`` instead of queueing unboundedly.  Parked
            MODEL_DELTA waiters never count — they hold no work, and
            counting them would deadlock small caps.
            ``None`` = unbounded (the pre-overload behavior).
        max_connections: cap on concurrent protocol connections; excess
            connects receive one ``overloaded`` frame and are closed.
            ``None`` = unbounded.
        retry_after_s: the backoff hint stamped on ``overloaded``
            replies.
    """

    host: str = "127.0.0.1"
    port: int = 0
    metrics_port: int | None = 0
    eps_global: float | None = None
    metric: str = "euclidean"
    expected_sites: int | None = None
    deadline_s: float | None = None
    quorum: float = 0.0
    relabel_kernel: str = "auto"
    idle_timeout_s: float = 30.0
    await_timeout_cap_s: float = 120.0
    max_frame_bytes: int = wire.DEFAULT_MAX_PAYLOAD
    shutdown_grace_s: float = 5.0
    journal_dir: str | None = None
    max_inflight_requests: int | None = None
    max_connections: int | None = None
    retry_after_s: float = 0.05

    def __post_init__(self) -> None:
        global_radius(self.eps_global)
        round_sites(self.expected_sites)
        round_deadline(self.deadline_s)
        # An infinite idle timeout, delta wait cap or grace means "never";
        # a retry hint must be a finite sleep.
        seconds_setting("idle_timeout_s", self.idle_timeout_s)
        seconds_setting("await_timeout_cap_s", self.await_timeout_cap_s)
        seconds_setting("shutdown_grace_s", self.shutdown_grace_s, zero=True)
        seconds_setting("retry_after_s", self.retry_after_s, finite=True)
        count_setting(
            "max_frame_bytes", self.max_frame_bytes, minimum=wire.HEADER_SIZE
        )
        for name in ("max_inflight_requests", "max_connections"):
            if getattr(self, name) is not None:
                count_setting(name, getattr(self, name))


#: Frame kinds that consume the bounded admission budget; everything
#: else (health, metrics, parked waiters) is cheap or must never shed.
_WORK_KINDS = frozenset(
    {
        wire.FrameKind.LOCAL_MODEL,
        wire.FrameKind.LABEL_QUERY,
        wire.FrameKind.TRACE_UPLOAD,
    }
)

#: Verdicts answered with an ACK frame; every other verdict is an ERROR.
_ACK_VERDICTS = frozenset(
    {"admitted", "duplicate", "round_open", "round_committed"}
)


class DBDCService:
    """The central server as a long-running asyncio socket service.

    Args:
        config: service configuration.
        metrics: optional shared registry (fresh one otherwise); the
            round core records its ``server.*`` metrics into the same
            registry the HTTP endpoint serves.
        tracer: optional :class:`~repro.obs.Tracer` for distributed
            tracing — the service records ``serve[...]`` /
            ``round_commit`` spans, accepts ``TRACE_UPLOAD`` span
            forests from remote processes, and merges everything into
            one document (:meth:`merged_trace_document`).  The default
            :data:`~repro.obs.NULL_TRACER` keeps serving allocation-free.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: TRACE_UPLOAD documents from remote processes, merge inputs.
        self._remote_traces: list[dict] = []
        self.server = RoundCore(
            self.config.eps_global,
            metric=self.config.metric,
            quorum=self.config.quorum,
            expected_sites=self.config.expected_sites,
            metrics=self.metrics,
        )
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()
        self._started_monotonic = 0.0
        self._frames_total = 0
        self._n_shutdown_notices = 0
        # Set, then replaced, at every commit: a waiter wakes and
        # re-checks the round it awaits.
        self._commit_signal = asyncio.Event()
        # Durability + overload state: the journal is only attached
        # *after* recovery replay, so replaying never journals.
        self._journal: journal.WriteAheadJournal | None = None
        self._epoch = 0
        self._recovered_models = 0
        self._recovery_wall_s = 0.0
        self._inflight = 0
        self._n_load_shed = 0
        self._n_connections_refused = 0
        self._n_duplicate_uploads = 0
        # Label queries waiting for a fold — (model, points, reply) — and
        # the task that runs folds while any wait.
        self._label_queue: list[tuple[GlobalModel, np.ndarray, asyncio.Future]] = []
        self._label_folds: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The protocol port actually bound (after :meth:`start`)."""
        assert self._asyncio_server is not None, "service not started"
        return self._asyncio_server.sockets[0].getsockname()[1]

    @property
    def metrics_bound_port(self) -> int | None:
        """The HTTP metrics port actually bound (``None`` if disabled)."""
        if self._http_server is None:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` — the socket path's arrival clock."""
        return time.monotonic() - self._started_monotonic

    async def start(self) -> None:
        """Bind the protocol and metrics listeners.

        With a ``journal_dir`` configured, the journal is replayed
        *before* the listeners bind: no client can observe a
        half-recovered server.
        """
        self._started_monotonic = time.monotonic()
        if self.config.journal_dir is not None:
            self._recover_from_journal()
        self._asyncio_server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        if self.config.metrics_port is not None:
            self._http_server = await asyncio.start_server(
                self._on_http_connection, self.config.host, self.config.metrics_port
            )
        self.metrics.set("service.up", 1)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain connections.

        Setting the shutdown event releases every in-flight MODEL_DELTA
        waiter (their wait races the event), and each
        replies to its client with a typed ``shutting_down`` frame before
        its serve loop exits; so does every label query still queued for
        a fold.  Those in-dispatch connections, and the queries of a
        running fold, get a grace window to flush their frames; only
        connections still idle or waiting after it are cancelled, and
        then the fold.
        """
        self._shutdown.set()
        for __, __, reply in self._label_queue:
            reply.set_result(None)
        self._label_queue.clear()
        listeners = [
            listener
            for listener in (self._asyncio_server, self._http_server)
            if listener is not None
        ]
        # asyncio builds an accepted connection's transport one loop
        # pass after the accept, and fails the build (leaking the
        # socket) if the server was closed in between.  So stop
        # accepting first, give pending accepts that pass, then close.
        loop = asyncio.get_running_loop()
        for listener in listeners:
            for sock in listener.sockets:
                loop.remove_reader(sock)
        await asyncio.sleep(0)
        for listener in listeners:
            listener.close()
        for listener in listeners:
            await listener.wait_closed()
        busy = {task for task in self._busy if not task.done()}
        if busy:
            await asyncio.wait(busy, timeout=self.config.shutdown_grace_s)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._label_folds is not None:
            self._label_folds.cancel()
            await asyncio.gather(self._label_folds, return_exceptions=True)
        if self._journal is not None:
            self._journal.close()
        self.metrics.set("service.up", 0)

    async def serve_until_shutdown(self) -> None:
        """Start, then block until a SHUTDOWN frame or :meth:`request_stop`."""
        if self._asyncio_server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Ask the service to shut down (safe from the loop thread)."""
        self._shutdown.set()

    # ------------------------------------------------------------------
    # durability: journal + crash-restart recovery
    # ------------------------------------------------------------------
    def _status(
        self, status: str, detail: str = "", *, retry_after: bool = False
    ) -> bytes:
        """Encode a status payload stamped with the server epoch.

        Without a journal the epoch stays 0 and the payload is the
        plain pre-durability encoding, byte for byte.
        """
        return wire.encode_status(
            status,
            detail,
            epoch=self._epoch if self._epoch else None,
            retry_after_s=self.config.retry_after_s if retry_after else None,
        )

    def _recover_from_journal(self) -> None:
        """Apply the journal to the round core.

        Every record is a core decision that was journaled before it was
        applied; recovery applies the same decisions in the same order,
        so the recovered core equals one that never crashed.  Two kinds of
        record from journals written by older services replay as today's
        service would have decided: an admission the gate's
        dimensionality check now refuses applies as the quarantine the
        gate would have recorded, and an arrival outside any round
        (round ``-1``, the one-shot uploads of a service without round
        0) applies as an arrival in round 0, opening it first.  The
        journal is attached only after replay — recovery itself never
        journals — and the new epoch is the first record of the
        generation that just started.
        """
        start = time.perf_counter()
        wal = journal.WriteAheadJournal(self.config.journal_dir)
        recovery = wal.recover()
        for record in recovery.records:
            if record.kind == journal.RecordKind.EPOCH:
                self._epoch = max(self._epoch, journal.decode_epoch(record.payload))
                continue
            decision = self._decision_from_record(record)
            if decision.round_index < 0 and self._never_opened():
                self._apply(
                    self.server.open_round(
                        0, at_s=self.uptime_s, deadline_s=self.config.deadline_s
                    )
                )
            self._apply(decision)
            self._recovered_models += decision.record == "MODEL_ADMITTED"
        self._epoch += 1
        self._journal = wal
        wal.append(journal.RecordKind.EPOCH, journal.encode_epoch(self._epoch))
        # The crash may have landed between a round's last admission and
        # its commit: an uninterrupted run would have committed there.
        self._settle()
        self._recovery_wall_s = time.perf_counter() - start
        self.metrics.set("service.epoch", self._epoch)
        self.metrics.set("service.recovery_wall_seconds", self._recovery_wall_s)
        self.metrics.set("service.recovered_models", self._recovered_models)
        self.metrics.set("service.recovered_rounds", self.server.rounds_committed)
        self.metrics.set(
            "service.journal_truncated_bytes", recovery.truncated_bytes
        )
        self._journal_metrics()

    def _decision_from_record(self, record: journal.Record) -> Decision:
        """Decode one journal record back into the decision it logged, or,
        for an admission the dimensionality check refuses, into the
        quarantine the gate would have recorded."""
        kind = record.kind
        if kind == journal.RecordKind.MODEL_ADMITTED:
            round_index, payload = journal.decode_admitted(record.payload)
            model = wire.decode_local_model(payload)
            problems = self.server.dimensionality_problems(model)
            if problems:
                return Decision(
                    "quarantined",
                    "QUARANTINE",
                    round_index,
                    model,
                    "; ".join(problems),
                )
            return Decision("admitted", "MODEL_ADMITTED", round_index, model)
        if kind == journal.RecordKind.QUARANTINE:
            round_index, site_id, reason = journal.decode_quarantine(
                record.payload
            )
            return Decision(
                "quarantined",
                "QUARANTINE",
                round_index,
                _placeholder_model(site_id),
                reason,
            )
        round_index = journal.decode_round_marker(record.payload)
        if kind == journal.RecordKind.ROUND_OPEN:
            # The open time is the restart clock: the original one did not
            # survive the crash, and deadlines only count from here on.
            return Decision(
                "round_open",
                "ROUND_OPEN",
                round_index,
                at_s=self.uptime_s,
                deadline_s=self.config.deadline_s,
            )
        return Decision("round_committed", "ROUND_COMMIT", round_index)

    def _journal_decision(self, decision: Decision, model_payload: bytes = b"") -> None:
        """Make one decision durable (fsynced) before it is applied."""
        if self._journal is None or decision.record is None:
            return
        kind = journal.RecordKind[decision.record]
        if kind == journal.RecordKind.MODEL_ADMITTED:
            payload = journal.encode_admitted(decision.round_index, model_payload)
        elif kind == journal.RecordKind.QUARANTINE:
            payload = journal.encode_quarantine(
                decision.round_index, decision.model.site_id, decision.detail
            )
        else:
            payload = journal.encode_round_marker(decision.round_index)
        self._journal.append(kind, payload)
        self._journal_metrics()

    def _journal_metrics(self) -> None:
        wal = self._journal
        if wal is None:
            return
        self.metrics.set("service.journal_bytes", wal.bytes_written)
        self.metrics.set("service.journal_records", wal.records_written)

    # ------------------------------------------------------------------
    # protocol state (owned by the round core)
    # ------------------------------------------------------------------
    def _apply(self, decision: Decision) -> None:
        """Apply one decision to the core and release what it unblocks."""
        self.server.apply(decision)
        if decision.record == "ROUND_OPEN":
            self.metrics.inc("service.rounds_opened")
        elif decision.record == "ROUND_COMMIT":
            self._commit_signal.set()
            self._commit_signal = asyncio.Event()
            self.metrics.set(
                "service.rounds_committed", self.server.rounds_committed
            )
            self.metrics.set("service.model_repairs", self.server.n_repairs)
            self.metrics.set("service.model_builds", self.server.n_builds)

    def _settle(self) -> None:
        """Commit the open round once ``expected_sites`` models are in."""
        if self.server.round_full:
            self._commit_round(self.server.round_index)

    def _never_opened(self) -> bool:
        """Whether no round was ever opened (none open, none committed)."""
        return self.server.round_index is None and not self.server.rounds_committed

    def _admit(self, frame: wire.Frame) -> Decision:
        """Run one upload through the core's admission gate.

        An upload that reaches a service where no round was ever opened
        first opens round 0, at uptime 0 so its deadline counts from
        service start: a one-shot deployment is round 0 of a session.
        Durability before acknowledgement: each decision is journaled (and
        fsynced) before it is applied — a crash after the append replays
        it, a crash before it never acknowledged anything.  The round
        commits once ``expected_sites`` models are in.
        """
        if self._never_opened():
            self._open_round(0, at_s=0.0)
        crc_ok = frame.crc_ok
        undecodable = ""
        try:
            model = wire.decode_local_model(frame.payload)
        except wire.WireError as error:
            # Admit a placeholder so the quarantine names the site.
            model = _placeholder_model(frame.site_id)
            if crc_ok:
                undecodable = f"undecodable payload: {error}"
            crc_ok = False
        decision = self.server.arrive(model, at_s=self.uptime_s, crc_ok=crc_ok)
        if undecodable and decision.verdict == "quarantined":
            decision = dataclasses.replace(decision, detail=undecodable)
        if decision.verdict == "duplicate":
            self._n_duplicate_uploads += 1
            self.metrics.set(
                "service.duplicate_uploads", self._n_duplicate_uploads
            )
        self._journal_decision(decision, frame.payload)
        self._apply(decision)
        self._settle()
        return decision

    def _reply_for(self, decision: Decision) -> tuple[wire.FrameKind, bytes]:
        """The response frame of one core decision."""
        if decision.verdict not in _ACK_VERDICTS:
            return wire.FrameKind.ERROR, self._status(
                decision.verdict, decision.detail
            )
        status = "admitted" if decision.verdict == "duplicate" else decision.verdict
        return wire.FrameKind.ACK, self._status(status, decision.detail)

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def _open_round(
        self, round_index: int, *, at_s: float | None = None
    ) -> Decision:
        """Open a round through the core at ``at_s`` (default: now) —
        idempotent for the currently open round.  The decision is
        journaled before it is applied."""
        decision = self.server.open_round(
            round_index,
            at_s=self.uptime_s if at_s is None else at_s,
            deadline_s=self.config.deadline_s,
        )
        self._journal_decision(decision)
        self._apply(decision)
        return decision

    def _commit_round(self, round_index: int) -> Decision:
        """Commit a round through the core (explicit or automatic).

        The commit decision is journaled before it is applied: a crash
        mid-apply replays the record and re-derives the same model.
        """
        commit_start = time.perf_counter()
        decision = self.server.commit_round(round_index)
        if decision.record is None:
            return decision
        n_models = len(self.server.round_models)
        self._journal_decision(decision)
        self._apply(decision)
        if self.tracer.enabled:
            self.tracer.record(
                "round_commit",
                wall_start=commit_start,
                wall_end=time.perf_counter(),
                attrs={
                    "process": "server",
                    "round": round_index,
                    "n_models": n_models,
                },
            )
        return decision

    async def _await_commit(self, round_index: int, timeout_s: float) -> str:
        """Wait until round ``round_index`` has committed, racing graceful
        shutdown.

        Returns ``"ready"``, ``"shutting_down"`` or ``"timeout"`` — the
        waiter is never torn down by bare cancellation while the service
        stops; it gets the verdict and replies before its connection
        closes (counted in ``service.shutdown_notices``).  A commit of
        another round wakes the waiter, which waits again for the time
        left.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(timeout_s, 0.0)
        while True:
            if self.server.rounds_committed > round_index:
                return "ready"
            if self._shutdown.is_set():
                return "shutting_down"
            remaining = deadline - loop.time()
            if remaining <= 0:
                return "timeout"
            waiters = [
                asyncio.ensure_future(self._commit_signal.wait()),
                asyncio.ensure_future(self._shutdown.wait()),
            ]
            try:
                await asyncio.wait(
                    waiters, timeout=remaining, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                for waiter in waiters:
                    waiter.cancel()
                await asyncio.gather(*waiters, return_exceptions=True)

    # ------------------------------------------------------------------
    # label queries
    # ------------------------------------------------------------------
    async def _fold_labels(
        self, points: np.ndarray, model: GlobalModel
    ) -> np.ndarray | None:
        """The labels of one query's points against ``model``, from the
        fold that takes them: the running one's successor, or a fold of
        its own when none is running.  ``None`` when the service stops
        first; the fold's exception when it raises."""
        if self._shutdown.is_set():
            return None
        reply = asyncio.get_running_loop().create_future()
        self._label_queue.append((model, points, reply))
        if self._label_folds is None:
            self._label_folds = asyncio.ensure_future(self._run_label_folds())
        return await reply

    async def _run_label_folds(self) -> None:
        """Run folds until no label query is queued.

        A fold takes every queued query of the first one's model and
        dimensionality and labels their concatenated points with one
        ``coverage_labels`` call (a pure-coverage relabel, no local
        clustering to inherit from) on an executor thread; each query
        gets its slice.  A fold that raises hands every query in it the
        exception.
        """
        loop = asyncio.get_running_loop()
        fold: list = []
        try:
            while self._label_queue:
                model, first, __ = self._label_queue[0]
                fold, rest = [], []
                for query in self._label_queue:
                    same = query[0] is model and query[1].shape[1] == first.shape[1]
                    (fold if same else rest).append(query)
                self._label_queue = rest
                self.metrics.observe("service.label_query_batch", len(fold))
                points = np.concatenate([query[1] for query in fold])
                try:
                    labels, folded = await loop.run_in_executor(
                        None,
                        partial(
                            coverage_labels,
                            points,
                            model,
                            metric=self.config.metric,
                            kernel=self.config.relabel_kernel,
                        ),
                    )
                except Exception as error:
                    for __, __, reply in fold:
                        if not reply.done():
                            reply.set_exception(error)
                else:
                    self.metrics.inc(
                        "service.label_points_from_table", len(labels) - folded
                    )
                    self.metrics.inc("service.label_points_folded", folded)
                    start = 0
                    for __, block, reply in fold:
                        if not reply.done():
                            reply.set_result(labels[start : start + len(block)])
                        start += len(block)
                fold = []
        finally:
            # Cancelled by stop(): the queries of the abandoned fold had
            # their grace.
            for __, __, reply in fold:
                reply.cancel()
            self._label_folds = None

    def _shutdown_notice(self) -> tuple[wire.FrameKind, bytes]:
        """The typed frame an in-flight waiter receives at shutdown."""
        self._n_shutdown_notices += 1
        self.metrics.set("service.shutdown_notices", self._n_shutdown_notices)
        return wire.FrameKind.ERROR, self._status(
            "shutting_down", "service is stopping; no model will be built"
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cap = self.config.max_connections
        if cap is not None and len(self._connections) >= cap:
            self._n_connections_refused += 1
            self.metrics.set(
                "service.connections_refused", self._n_connections_refused
            )
            task = asyncio.ensure_future(self._refuse_connection(writer))
        else:
            task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        # A task that :meth:`stop` cancels before its first step never
        # runs its own ``finally``; its socket is closed when it ends.
        task.add_done_callback(lambda __: writer.close())

    async def _refuse_connection(self, writer: asyncio.StreamWriter) -> None:
        """Turn one connection away with a typed ``overloaded`` frame —
        never a silent drop, so the client backs off instead of hanging."""
        try:
            await self._reply(
                writer,
                wire.FrameKind.ERROR,
                self._status(
                    "overloaded",
                    f"{len(self._connections)} connections active "
                    f"(cap {self.config.max_connections})",
                    retry_after=True,
                ),
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _should_shed(self, kind: wire.FrameKind) -> bool:
        """Whether one more request of ``kind`` exceeds the admission cap.

        Only *work* kinds count toward (and against) the in-flight
        budget: parked MODEL_DELTA waiters hold no CPU
        and shedding on them would deadlock sessions whose workers park
        while their peers still need to submit.
        """
        cap = self.config.max_inflight_requests
        return (
            cap is not None and kind in _WORK_KINDS and self._inflight >= cap
        )

    async def _read_frame(self, reader: asyncio.StreamReader) -> wire.Frame | None:
        """Read one frame under the per-connection deadline.

        The deadline is a single budget for the *whole* frame: the
        payload read only gets whatever the header read left over, so a
        client dribbling bytes cannot hold the connection longer than
        ``idle_timeout_s`` per frame.

        Returns ``None`` on clean EOF.  Raises :class:`wire.WireError`
        on protocol violations and :class:`asyncio.TimeoutError` when
        the frame deadline passes.
        """
        loop = asyncio.get_event_loop()
        deadline = loop.time() + self.config.idle_timeout_s
        try:
            header = await asyncio.wait_for(
                reader.readexactly(wire.HEADER_SIZE), self.config.idle_timeout_s
            )
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF between frames
            raise wire.FrameTruncated(
                f"connection closed mid-header ({len(error.partial)} bytes)"
            ) from error
        # Validate the header (magic/version/kind/length) before reading
        # the payload, then decode the whole frame once; CRC verdicts are
        # delegated to the handlers so a corrupt upload can be
        # quarantined instead of dropped.
        declared = wire.declared_payload_len(
            header, max_payload=self.config.max_frame_bytes
        )
        payload = b""
        if declared:
            try:
                payload = await asyncio.wait_for(
                    reader.readexactly(declared), max(deadline - loop.time(), 0.0)
                )
            except asyncio.IncompleteReadError as error:
                raise wire.FrameTruncated(
                    f"connection closed mid-payload "
                    f"({len(error.partial)}/{declared} bytes)"
                ) from error
        frame, __ = wire.decode_frame(
            header + payload,
            max_payload=self.config.max_frame_bytes,
            verify_crc=False,
        )
        return frame

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("service.connections")
        try:
            while not self._shutdown.is_set():
                try:
                    frame = await self._read_frame(reader)
                except asyncio.TimeoutError:
                    self.metrics.inc("service.connection_deadline_closes")
                    break
                except wire.WireError as error:
                    self.metrics.inc("service.frame_errors")
                    await self._reply(
                        writer,
                        wire.FrameKind.ERROR,
                        self._status("protocol_error", str(error)),
                    )
                    break
                if frame is None:
                    break
                recv_wall = time.perf_counter()
                self._frames_total += 1
                kind_label = frame.kind.name.lower()
                self.metrics.inc(f"service.frames[{kind_label}]")
                # Payload bytes only — the accounting SimulatedNetwork
                # keeps in bytes_by_kind, so both backends reconcile.
                self.metrics.inc(
                    f"service.frame_bytes_received[{kind_label}]",
                    len(frame.payload),
                )
                self.metrics.observe(
                    f"service.request_payload_bytes[{kind_label}]",
                    float(len(frame.payload)),
                )
                if self._should_shed(frame.kind):
                    # Bounded admission: shed with a typed reply and a
                    # retry hint — the connection stays open, nothing
                    # queues unboundedly, nothing hangs.
                    self._n_load_shed += 1
                    self.metrics.inc(f"service.load_shed[{kind_label}]")
                    self.metrics.set(
                        "service.overloaded_replies", self._n_load_shed
                    )
                    await self._reply(
                        writer,
                        wire.FrameKind.ERROR,
                        self._status(
                            "overloaded",
                            f"{self._inflight} requests in flight "
                            f"(cap {self.config.max_inflight_requests})",
                            retry_after=True,
                        ),
                    )
                    continue
                # Mark this connection busy while a request is in flight:
                # stop() waits for busy connections (grace-bounded) so a
                # released waiter can flush its shutting_down frame
                # instead of being torn down mid-write.
                task = asyncio.current_task()
                assert task is not None
                work = frame.kind in _WORK_KINDS
                if work:
                    self._inflight += 1
                self._busy.add(task)
                try:
                    kind, payload = await self._dispatch(frame, recv_wall)
                    await self._reply(writer, kind, payload)
                finally:
                    self._busy.discard(task)
                    if work:
                        self._inflight -= 1
                if frame.kind == wire.FrameKind.SHUTDOWN:
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _reply(
        self, writer: asyncio.StreamWriter, kind: wire.FrameKind, payload: bytes
    ) -> None:
        # Count before writing: a client that has read the reply must be
        # able to observe the counter (payload bytes, the accounting
        # SimulatedNetwork keeps in bytes_by_kind).
        self.metrics.inc(
            f"service.frame_bytes_sent[{kind.name.lower()}]", len(payload)
        )
        writer.write(wire.encode_frame(kind, payload, site_id=wire.SERVER_ID))
        await writer.drain()

    async def _dispatch(
        self, frame: wire.Frame, recv_wall: float
    ) -> tuple[wire.FrameKind, bytes]:
        """Answer one request frame; always returns a response frame.

        ``recv_wall`` is the ``perf_counter`` read taken right after the
        frame was read off the wire — it anchors per-kind latency
        histograms and the clock-sync handshake's receive stamp.
        """
        try:
            result = await self._dispatch_inner(frame, recv_wall)
        except wire.WireError as error:
            self.metrics.inc("service.frame_errors")
            result = wire.FrameKind.ERROR, self._status(
                "bad_request", str(error)
            )
        except Exception as error:  # never let one request kill the loop
            self.metrics.inc("service.internal_errors")
            result = wire.FrameKind.ERROR, self._status(
                "internal_error", f"{type(error).__name__}: {error}"
            )
        self.metrics.observe(
            f"service.dispatch_seconds[{frame.kind.name.lower()}]",
            time.perf_counter() - recv_wall,
        )
        return result

    def _context_attrs(self, frame: wire.Frame) -> dict:
        """Trace-context span attributes from a version-2 frame (the
        caller guards on ``self.tracer.enabled``)."""
        attrs: dict = {}
        if frame.context is not None:
            attrs["trace_id"] = f"{frame.context.trace_id:032x}"
            attrs["parent_span_id"] = f"{frame.context.span_id:016x}"
        return attrs

    async def _dispatch_inner(
        self, frame: wire.Frame, recv_wall: float
    ) -> tuple[wire.FrameKind, bytes]:
        kind = frame.kind
        if kind == wire.FrameKind.LOCAL_MODEL:
            decision = self._admit(frame)
            if self.tracer.enabled:
                attrs = {
                    "process": "server",
                    "site": int(frame.site_id),
                    "verdict": decision.verdict,
                    "payload_bytes": len(frame.payload),
                    **self._context_attrs(frame),
                }
                if decision.round_index >= 0:
                    attrs["round"] = decision.round_index
                self.tracer.record(
                    "serve[local_model]",
                    wall_start=recv_wall,
                    wall_end=time.perf_counter(),
                    attrs=attrs,
                )
            return self._reply_for(decision)
        if kind == wire.FrameKind.ROUND_OPEN:
            return self._reply_for(
                self._open_round(wire.decode_round_open(frame.payload))
            )
        if kind == wire.FrameKind.ROUND_COMMIT:
            return self._reply_for(
                self._commit_round(wire.decode_round_commit(frame.payload))
            )
        if kind == wire.FrameKind.MODEL_DELTA:
            round_index, known_reps, timeout_s = wire.decode_delta_request(
                frame.payload
            )
            if round_index < 0:
                # No round -1 ever commits: answer now, not at the timeout.
                return wire.FrameKind.ERROR, self._status(
                    "bad_round", f"no round {round_index}: rounds count from 0"
                )
            timeout = min(timeout_s, self.config.await_timeout_cap_s)
            outcome = await self._await_commit(round_index, timeout)
            if outcome == "shutting_down":
                return self._shutdown_notice()
            if outcome == "timeout":
                return wire.FrameKind.ERROR, self._status(
                    "no_model",
                    f"round {round_index} not committed after {timeout:.3f}s",
                )
            # Every commit leaves a committed model behind.
            model = self.server.committed
            if not 0 <= known_reps <= len(model):
                return wire.FrameKind.ERROR, self._status(
                    "bad_delta",
                    f"known_reps {known_reps} out of range [0, {len(model)}]",
                )
            encode_start = time.perf_counter()
            delta = wire.delta_from_model(model, known_reps)
            payload = wire.encode_model_delta(delta)
            if self.tracer.enabled:
                # Covers the delta encode only — the wait before it is
                # the *client's* await_delta time, not server work.
                self.tracer.record(
                    "serve[model_delta]",
                    wall_start=encode_start,
                    wall_end=time.perf_counter(),
                    attrs={
                        "process": "server",
                        "site": int(frame.site_id),
                        "round": round_index,
                        "waited_s": encode_start - recv_wall,
                        "payload_bytes": len(payload),
                        **self._context_attrs(frame),
                    },
                )
            return wire.FrameKind.MODEL_DELTA, payload
        if kind == wire.FrameKind.LABEL_QUERY:
            points = wire.decode_points(frame.payload)
            model = self.server.committed
            if model is None:
                return wire.FrameKind.ERROR, self._status(
                    "no_model", "no round has committed yet"
                )
            try:
                require_model_dimensionality(points, model)
            except ValueError as error:
                return wire.FrameKind.ERROR, self._status(
                    "bad_request", str(error)
                )
            start = time.perf_counter()
            if len(points) and len(model):
                labels = await self._fold_labels(points, model)
                if labels is None:
                    return self._shutdown_notice()
            else:
                # Nothing to join: every point (if any) is noise.
                labels = np.full(len(points), NOISE, dtype=np.intp)
            self.metrics.observe(
                "service.label_query_seconds", time.perf_counter() - start
            )
            self.metrics.inc("service.labels_served", int(labels.size))
            return wire.FrameKind.LABEL_REPLY, wire.encode_labels(labels)
        if kind == wire.FrameKind.TRACE_UPLOAD:
            document = wire.decode_json(frame.payload)
            if document.get("probe"):
                # Clock-sync handshake: echo the server's receive/send
                # perf_counter stamps so the client can estimate the
                # offset NTP-style.
                return wire.FrameKind.TRACE_REPLY, wire.encode_json(
                    {
                        "server_recv_wall": recv_wall,
                        "server_send_wall": time.perf_counter(),
                    }
                )
            required = ("process", "wall_origin", "clock_offset_s", "spans")
            missing = [key for key in required if key not in document]
            if missing:
                return wire.FrameKind.ERROR, self._status(
                    "bad_trace", f"trace upload missing keys {missing}"
                )
            self._remote_traces.append(document)
            self.metrics.inc("service.trace_uploads")
            return wire.FrameKind.ACK, self._status(
                "trace_recorded",
                f"{len(document['spans'])} root spans from "
                f"{document['process']}",
            )
        if kind == wire.FrameKind.HEALTH:
            return wire.FrameKind.HEALTH_REPLY, wire.encode_json(self.health())
        if kind == wire.FrameKind.METRICS:
            text = render_registry(self.metrics.to_dict())
            return wire.FrameKind.METRICS_REPLY, text.encode("utf-8")
        if kind == wire.FrameKind.SHUTDOWN:
            return wire.FrameKind.ACK, self._status("shutting_down")
        return wire.FrameKind.ERROR, self._status(
            "unexpected_frame", f"cannot serve {kind.name} requests"
        )

    def health(self) -> dict:
        """The service's health document (HEALTH frames serve this)."""
        server = self.server
        model = server.committed
        return {
            "status": "serving" if not self._shutdown.is_set() else "stopping",
            "uptime_s": round(self.uptime_s, 6),
            "sites_admitted": len(server.local_models),
            "sites_quarantined": len(server.quarantined_models),
            "sites_rejected": len(server.rejected_models),
            "expected_sites": self.config.expected_sites,
            "quorum_met": server.quorum_met,
            "model_built": model is not None,
            "model_builds": server.n_builds,
            "n_representatives": len(model) if model is not None else 0,
            "connections_active": len(self._connections),
            "frames_total": self._frames_total,
            "protocol_version": wire.PROTOCOL_VERSION,
            "rounds_committed": server.rounds_committed,
            "round_open": server.round_index,
            "shutdown_notices": self._n_shutdown_notices,
            "trace_uploads": len(self._remote_traces),
            "epoch": self._epoch,
            "journal_enabled": self._journal is not None,
            "recovered_models": self._recovered_models,
            "duplicate_uploads": self._n_duplicate_uploads,
            "load_shed": self._n_load_shed,
            "connections_refused": self._n_connections_refused,
        }

    # ------------------------------------------------------------------
    # distributed-trace merge
    # ------------------------------------------------------------------
    def merged_trace_document(self) -> dict:
        """One trace document covering every process of the session.

        The server's own spans form the base document; each
        ``TRACE_UPLOAD`` forest is shifted onto the server's timeline
        (remote origin + estimated clock offset − server origin), its
        roots stamped with ``process``/``site`` attributes so the
        Chrome export gives every remote process its own pid lane, and
        the top-level ``processes`` map records the per-connection
        clock-offset estimates.
        """
        doc = trace_document(self.tracer, self.metrics)
        processes: dict[str, dict] = {
            "server": {
                "site": None,
                "clock_offset_s": 0.0,
                "rtt_s": 0.0,
                "n_spans": len(self.tracer.roots),
            }
        }
        for upload in self._remote_traces:
            delta = (
                float(upload["wall_origin"])
                + float(upload["clock_offset_s"])
                - self.tracer.wall_origin
            )
            process = str(upload["process"])
            site = upload.get("site")
            for root in upload["spans"]:
                shifted = shift_span_times(root, delta)
                attrs = dict(shifted.get("attrs", {}))
                attrs.setdefault("process", process)
                if site is not None:
                    attrs.setdefault("site", int(site))
                shifted["attrs"] = attrs
                doc["spans"].append(shifted)
            entry = processes.setdefault(
                process,
                {
                    "site": int(site) if site is not None else None,
                    "clock_offset_s": float(upload["clock_offset_s"]),
                    "rtt_s": float(upload.get("rtt_s", 0.0)),
                    "n_spans": 0,
                },
            )
            entry["n_spans"] += len(upload["spans"])
        doc["processes"] = processes
        return doc

    # ------------------------------------------------------------------
    # HTTP metrics endpoint
    # ------------------------------------------------------------------
    async def _on_http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One-shot plaintext HTTP: GET /metrics serves OpenMetrics."""
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), self.config.idle_timeout_s
            )
            # Drain headers until the blank line; ignore their content.
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), self.config.idle_timeout_s
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            if parts and parts[0] == "GET" and path.split("?")[0] in (
                "/metrics",
                "/metrics/",
            ):
                self.metrics.inc("service.metrics_scrapes")
                body = render_registry(self.metrics.to_dict()).encode("utf-8")
                status = "200 OK"
                content_type = OPENMETRICS_CONTENT_TYPE
            else:
                body = b"only GET /metrics is served\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


def _placeholder_model(site_id: int) -> LocalModel:
    """A minimal stand-in for an upload that would not even decode, so
    the quarantine bookkeeping can still name the offending site."""
    return LocalModel(
        site_id=max(int(site_id), 0),
        points=np.empty((0, 0)),
        eps_ranges=[],
        local_cluster_ids=[],
        n_objects=0,
        scheme="unknown",
        eps_local=0.0,
        min_pts_local=0,
    )


@dataclass
class ServiceHandle:
    """A :class:`DBDCService` running on a dedicated thread's event loop.

    The synchronous world (tests, the bench, the CLI) starts the service
    with :meth:`start`, talks to ``host:port`` with blocking clients,
    and tears it down with :meth:`stop`.  The handle surfaces any
    exception the service thread died with.
    """

    service: DBDCService
    host: str = ""
    port: int = 0
    metrics_port: int | None = None
    _thread: threading.Thread | None = None
    _loop: asyncio.AbstractEventLoop | None = None
    _ready: threading.Event = field(default_factory=threading.Event)
    _error: BaseException | None = None
    _killed: bool = False

    @classmethod
    def start(
        cls,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        timeout_s: float = 10.0,
    ) -> "ServiceHandle":
        """Boot a service thread and block until it is accepting."""
        handle = cls(service=DBDCService(config, metrics=metrics, tracer=tracer))
        handle._thread = threading.Thread(
            target=handle._thread_main, name="dbdc-service", daemon=True
        )
        handle._thread.start()
        if not handle._ready.wait(timeout_s):
            raise RuntimeError("DBDCService did not start in time")
        if handle._error is not None:
            raise RuntimeError("DBDCService failed to start") from handle._error
        return handle

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # surfaced via .stop()/start()
            # A hard kill() stops the loop dead, which asyncio.run
            # reports as a RuntimeError — that is the crash being
            # simulated, not a service failure to surface.
            if not self._killed:
                self._error = error
            self._ready.set()

    async def _serve(self) -> None:
        service = self.service
        await service.start()
        self._loop = asyncio.get_event_loop()
        self.host = service.config.host
        self.port = service.bound_port
        self.metrics_port = service.metrics_bound_port
        self._ready.set()
        await service._shutdown.wait()
        await service.stop()

    def merged_trace(self, timeout_s: float = 10.0) -> dict:
        """The merged distributed-trace document (thread-safe).

        While the service loop is running the merge executes *on* the
        loop (its state is loop-owned); after :meth:`stop` the thread is
        gone and the direct call is safe.
        """
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._merged_trace_on_loop(), loop
            )
            return future.result(timeout_s)
        return self.service.merged_trace_document()

    async def _merged_trace_on_loop(self) -> dict:
        return self.service.merged_trace_document()

    def kill(self, timeout_s: float = 10.0) -> None:
        """Hard-kill the service thread — a crash, not a shutdown.

        The event loop is stopped dead between callbacks: no drain, no
        shutdown notices.  Connections
        are severed mid-whatever and clients see raw socket errors —
        exactly what a ``kill -9`` of a service process produces, which
        is what the crash-recovery tests simulate in-process.  The
        journal directory is left as the crash left it; a new
        :meth:`start` against the same directory replays it.  What the
        OS would reclaim from a killed process — the listening sockets
        and the journal's file handle — is released afterwards, writing
        nothing.
        """
        self._killed = True
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass  # loop already closed: the thread is on its way out
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise RuntimeError("DBDCService thread survived kill()")
        # A stopped-dead loop leaks its listening sockets (a real kill -9
        # would have the OS reclaim the fds).  Server.close() is safe on
        # a closed loop and closes the actual socket objects — closing
        # the raw fds instead would leave the dead objects believing
        # they still own those fd numbers and re-close them (possibly
        # recycled by a restarted server) at garbage collection.
        for listener in (
            self.service._asyncio_server,
            self.service._http_server,
        ):
            if listener is not None:
                try:
                    listener.close()
                except (OSError, RuntimeError):
                    pass
        # The journal's append handle likewise: every append already
        # flushed and fsynced its record, so closing it writes nothing.
        if self.service._journal is not None:
            self.service._journal.close()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Request shutdown and join the service thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.service.request_stop)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise RuntimeError("DBDCService thread did not stop in time")
        if self._error is not None:
            raise RuntimeError("DBDCService thread failed") from self._error

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
