"""The central server as a *sans-I/O* round protocol.

:class:`RoundCore` is the paper's server (§2, Figure 2): it admits the
sites' local models through an integrity/deadline gate and clusters
their representatives, DBSCAN(``Eps_global``, ``MinPts_global = 2``),
into the global model.  Models are admitted only inside a round, so
the paper's one-shot protocol is round 0, and Section 6's incremental
server ("the incremental version of DBSCAN allows us to start with the
construction of the global model after the first representatives of any
local model come in") is one round per arriving model: every commit
folds the round's models into the committed global model.

Every entry point drives this one object: the in-process
:class:`~repro.distributed.runner.DistributedRunner`, the streaming
oracle :func:`~repro.distributed.streaming.run_streaming_session`, and
the socket :class:`~repro.service.server.DBDCService` with its
write-ahead journal.  It has no sockets, clock or files: events go in
(round opened at ``t``, model arrived at ``t``, commit requested),
:class:`Decision` objects come out, and :meth:`RoundCore.apply` turns a
decision into state.  A caller that journals writes each decision down
*between* deciding and applying, and recovery applies the decoded
records — so a replayed core equals an uninterrupted one by
construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.clustering.dbscan import global_radius
from repro.core.global_model import GlobalModelRepairer, build_global_model
from repro.core.models import GlobalModel, LocalModel
from repro.data.distance import Metric, get_metric
from repro.obs import NULL_METRICS

__all__ = [
    "Decision",
    "RoundCore",
    "count_setting",
    "round_deadline",
    "round_sites",
    "seconds_setting",
]


def seconds_setting(
    name: str, seconds: float, *, zero: bool = False, finite: bool = False
) -> float:
    """Check a duration ``name`` in seconds: positive (with ``zero``, at
    least 0) and never NaN, which every comparison reads as false and so
    would silently turn its guard off; infinite means "never" unless
    ``finite`` refuses it.  Returned as a float.

    Raises:
        ValueError: naming ``name`` and its value.
    """
    value = float(seconds)
    if not (value >= 0 if zero else value > 0) or (finite and math.isinf(value)):
        bound = "at least 0" if zero else "positive"
        kind = "finite and " if finite else ""
        raise ValueError(f"{name} must be {kind}{bound}, got {seconds}")
    return value


def count_setting(name: str, count: int, *, minimum: int = 1) -> int:
    """Check a count or cap ``name``: a whole number of at least
    ``minimum`` (whole-valued floats and NumPy integers are accepted),
    returned as an int.

    Raises:
        ValueError: naming ``name`` and its value.
    """
    value = float(count)
    if not (math.isfinite(value) and value.is_integer() and value >= minimum):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {count}")
    return int(value)


def round_deadline(deadline_s: float | None) -> float | None:
    """Check a round's admission deadline ``deadline_s``: ``None`` (never
    reject) or positive seconds, ``+inf`` included, returned as a float
    (see :func:`seconds_setting`).

    Raises:
        ValueError: naming ``deadline_s`` and its value.
    """
    return None if deadline_s is None else seconds_setting("deadline_s", deadline_s)


def round_sites(expected_sites: int | None) -> int | None:
    """Check the sites of one round ``expected_sites``: ``None`` (a round
    closes only on an explicit commit) or a whole number of at least one,
    returned as an int (see :func:`count_setting`).

    Raises:
        ValueError: naming ``expected_sites`` and its value.
    """
    if expected_sites is None:
        return None
    return count_setting("expected_sites", expected_sites)


def _by_site(models: list[LocalModel]) -> list[LocalModel]:
    return sorted(models, key=lambda model: model.site_id)


@dataclass(frozen=True)
class Decision:
    """One protocol decision of :class:`RoundCore`.

    Attributes:
        verdict: what the sender is told — ``"admitted"``,
            ``"quarantined"``, ``"deadline_missed"``, ``"duplicate"`` or
            ``"no_round_open"`` for an arrival; ``"round_open"``,
            ``"round_committed"`` or ``"bad_round"`` for a round event.
        record: the journal record kind that makes the decision durable
            (``"MODEL_ADMITTED"``, ``"QUARANTINE"``, ``"ROUND_OPEN"`` or
            ``"ROUND_COMMIT"``); ``None`` when it changes no durable state.
        round_index: the round it belongs to (``-1`` when no round is
            open).
        model: the arrived local model (arrivals).
        detail: quarantine reason, or a human explanation of the verdict.
        at_s: when the round opened (``ROUND_OPEN``), on the caller's clock.
        deadline_s: admission deadline relative to ``at_s`` (``ROUND_OPEN``).
    """

    verdict: str
    record: str | None = None
    round_index: int = -1
    model: LocalModel | None = None
    detail: str = ""
    at_s: float = 0.0
    deadline_s: float | None = None


class RoundCore:
    """The central server: the one object every caller feeds events to.

    Models are admitted only into an open round: :meth:`open_round`
    opens the next numbered round, and committing it
    (:meth:`commit_round`) makes its models part of the committed global
    model — the only model reads are served from.  A round with no base
    model — none yet, or one without representatives, so ``eps_global``
    never got a real value — commits by the site-sorted build over every
    admitted model, so the global model does not depend on arrival
    order; later rounds fold their models, sorted by site id, into the
    base through :class:`~repro.core.global_model.GlobalModelRepairer`
    with ``eps_global`` frozen.  Every commit sets the
    ``server.representatives`` and ``server.clusters`` gauges of the
    committed model and adds what it changed to the
    ``server.label_churn`` and ``server.cluster_merges`` counters.

    :meth:`arrive` decides, in this order: a model from a site already
    admitted is a ``duplicate`` (acknowledged, never merged twice); one
    arriving while no round is open is ``no_round_open``; a payload whose
    checksum failed, a model that fails
    :meth:`~repro.core.models.LocalModel.validate`, or a non-empty model
    without coordinates or of another dimensionality than the first
    admitted non-empty one is ``quarantined`` — poison regardless of when
    it arrived; a model arriving more than the round's deadline after the
    round opened is ``deadline_missed`` — arrival exactly *at* the
    deadline is admitted.  Re-opening the open round and re-committing a
    committed one are acknowledged and change nothing.  :attr:`quorum_met`
    only reports whether the current round admitted enough models: the
    server clusters whatever it admitted — "the server clusters whatever
    representatives it receives".

    Args:
        eps_global: merge radius, positive and finite; ``None`` → the
            paper's default (max ε_r of the first build's models).
        metric: distance metric.
        quorum: minimum fraction of expected sites a round must admit
            for :attr:`quorum_met` (``0`` = any).
        expected_sites: how many sites should report, a whole number of
            at least one (``None`` → inferred from the models seen,
            admitted or rejected; see :func:`round_sites`); it also marks
            an open round holding that many models as :attr:`round_full`.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; admission
            decisions, builds and commits record ``server.*`` metrics.
    """

    def __init__(
        self,
        eps_global: float | None = None,
        *,
        metric: str | Metric = "euclidean",
        quorum: float = 0.0,
        expected_sites: int | None = None,
        metrics=None,
    ) -> None:
        if not 0.0 <= quorum <= 1.0:
            raise ValueError(f"quorum must be in [0, 1], got {quorum}")
        self.eps_global = global_radius(eps_global)
        self.metric = get_metric(metric)
        self.quorum = quorum
        self.expected_sites = round_sites(expected_sites)
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.local_models: list[LocalModel] = []
        self.rejected_models: list[LocalModel] = []
        # (model, reason) pairs the integrity gate refused — corrupt
        # payloads and semantically invalid models never reach the global
        # DBSCAN.
        self.quarantined_models: list[tuple[LocalModel, str]] = []
        # Wall-clock seconds of the last global build (perf_counter delta).
        self.global_seconds = 0.0
        self.n_builds = 0
        self.n_repairs = 0
        self.round_index: int | None = None
        self.rounds_committed = 0
        # The current round's admitted models and deadline misses: the
        # open round's, else the last committed round's.
        self.round_models: list[LocalModel] = []
        self._round_missed = 0
        # The open round's clock: arrival deadlines count from _opened_s.
        self._opened_s = 0.0
        self._deadline_s: float | None = None
        self._admitted_ids: set[int] = set()
        self._committed: GlobalModel | None = None
        self._repairer: GlobalModelRepairer | None = None

    # ------------------------------------------------------------------
    # decisions (pure: they read state, never change it)
    # ------------------------------------------------------------------
    def arrive(
        self, model: LocalModel, *, at_s: float | None = 0.0, crc_ok: bool = True
    ) -> Decision:
        """Decide on one arrived local model.

        Args:
            model: the site's local model.
            at_s: arrival time on the caller's clock (``None`` = unknown:
                no deadline applies).
            crc_ok: whether the transport's checksum check passed.
        """
        index = self.round_index
        site = model.site_id
        if crc_ok and site in self._admitted_ids:
            return Decision(
                "duplicate",
                round_index=-1 if index is None else index,
                model=model,
                detail=f"duplicate upload from site {site} ignored",
            )
        if index is None:
            return Decision(
                "no_round_open",
                model=model,
                detail="no round is open; send ROUND_OPEN first",
            )
        problems = ["checksum_mismatch"] if not crc_ok else model.validate()
        if not problems:
            problems = self.dimensionality_problems(model)
        if problems:
            return Decision(
                "quarantined", "QUARANTINE", index, model, "; ".join(problems)
            )
        deadline = self._deadline_s
        if (
            at_s is not None
            and deadline is not None
            and at_s - self._opened_s > deadline
        ):
            return Decision("deadline_missed", None, index, model)
        return Decision("admitted", "MODEL_ADMITTED", index, model)

    def dimensionality_problems(self, model: LocalModel) -> list[str]:
        """A non-empty model needs coordinates, as many as every admitted
        one has: the representatives of one global model share a space.
        An empty model has none to check."""
        if not len(model):
            return []
        if not model.dim:
            return ["representatives have no coordinates"]
        dim = next((m.dim for m in self.local_models if len(m)), model.dim)
        if model.dim != dim:
            return [f"dimensionality {model.dim} differs from the session's {dim}"]
        return []

    def open_round(
        self,
        round_index: int,
        *,
        at_s: float = 0.0,
        deadline_s: float | None = None,
    ) -> Decision:
        """Decide on opening round ``round_index`` at time ``at_s``.

        Args:
            round_index: the round to open.
            at_s: when it opens, on the caller's clock; arrival deadlines
                count from here.
            deadline_s: the round's admission deadline relative to
                ``at_s``, positive (``None`` = never reject; see
                :func:`round_deadline`).

        Raises:
            ValueError: for a NaN, zero or negative ``deadline_s``.
        """
        deadline_s = round_deadline(deadline_s)
        if self.round_index is not None:
            if round_index == self.round_index:
                return Decision(
                    "round_open",
                    round_index=round_index,
                    detail=f"round {round_index} already open",
                )
            return Decision(
                "bad_round",
                round_index=round_index,
                detail=f"round {self.round_index} is open; cannot open "
                f"{round_index}",
            )
        if 0 <= round_index < self.rounds_committed:
            # A reconnecting site may re-open a round that committed while
            # its acknowledgement was lost: answer idempotently.
            return Decision(
                "round_committed",
                round_index=round_index,
                detail=f"round {round_index} already committed",
            )
        if round_index != self.rounds_committed:
            return Decision(
                "bad_round",
                round_index=round_index,
                detail=f"next round is {self.rounds_committed}, got {round_index}",
            )
        return Decision(
            "round_open",
            "ROUND_OPEN",
            round_index,
            detail=f"round {round_index} open",
            at_s=at_s,
            deadline_s=deadline_s,
        )

    def commit_round(self, round_index: int) -> Decision:
        """Decide on committing round ``round_index``: the open round
        commits, a committed one is acknowledged, and any other index —
        a negative one included — is ``bad_round``."""
        if round_index == self.round_index:
            return Decision(
                "round_committed",
                "ROUND_COMMIT",
                round_index,
                detail=f"round {round_index} committed",
            )
        if 0 <= round_index < self.rounds_committed:
            return Decision(
                "round_committed",
                round_index=round_index,
                detail=f"round {round_index} already committed",
            )
        return Decision(
            "bad_round",
            round_index=round_index,
            detail=f"cannot commit round {round_index} (open: "
            f"{self.round_index}, committed: {self.rounds_committed})",
        )

    @property
    def admitted_site_ids(self) -> list[int]:
        """Sites whose models were admitted, in admission order."""
        return [model.site_id for model in self.local_models]

    @property
    def rejected_site_ids(self) -> list[int]:
        """Sites whose models missed the deadline, in arrival order."""
        return [model.site_id for model in self.rejected_models]

    @property
    def quarantined_site_ids(self) -> list[int]:
        """Sites whose models the integrity gate refused, in arrival order."""
        return [model.site_id for model, __ in self.quarantined_models]

    @property
    def quorum_met(self) -> bool:
        """Whether the current round — the open one, else the last
        committed one — admitted ``quorum`` of its expected sites
        (``expected_sites``, else its admitted plus deadline-missed
        models)."""
        admitted = len(self.round_models)
        expected = self.expected_sites
        if expected is None:
            expected = admitted + self._round_missed
        if expected == 0:
            return True
        return admitted / expected >= self.quorum

    @property
    def round_full(self) -> bool:
        """Whether the open round holds ``expected_sites`` models."""
        return (
            self.round_index is not None
            and self.expected_sites is not None
            and len(self.round_models) >= self.expected_sites
        )

    @property
    def committed(self) -> GlobalModel | None:
        """The global model reads are served from: the last committed
        round's (``None`` before the first commit)."""
        return self._committed

    # ------------------------------------------------------------------
    # applying decisions
    # ------------------------------------------------------------------
    def apply(self, decision: Decision) -> GlobalModel | None:
        """Turn one decision into state.

        Returns:
            The committed global model for a ``ROUND_COMMIT`` decision,
            ``None`` otherwise.
        """
        record = decision.record
        model = decision.model
        metrics = self.metrics
        if record == "ROUND_OPEN":
            self.round_index = decision.round_index
            self.round_models = []
            self._round_missed = 0
            self._opened_s = decision.at_s
            self._deadline_s = decision.deadline_s
        elif record == "ROUND_COMMIT":
            return self._commit()
        elif record == "MODEL_ADMITTED":
            self.local_models.append(model)
            self.round_models.append(model)
            self._admitted_ids.add(model.site_id)
            metrics.inc("server.models_admitted")
            metrics.observe("server.representatives_per_model", len(model))
        elif record == "QUARANTINE":
            self.quarantined_models.append((model, decision.detail))
            metrics.inc("server.models_quarantined")
        elif decision.verdict == "deadline_missed":
            self.rejected_models.append(model)
            self._round_missed += 1
            metrics.inc("server.models_rejected")
        return None

    def _build(self) -> tuple[GlobalModel, int]:
        """Step 3: cluster every admitted model, sorted by site id (an
        empty global model when none was admitted — every site failed).

        Returns:
            The global model and its number of clusters.
        """
        self.n_builds += 1
        if not self.local_models:
            self.global_seconds = 0.0
            empty = GlobalModel(
                np.empty((0, 0)), [], [], [], [],
                eps_global=float(self.eps_global or 0.0),
            )
            return empty, 0
        start = time.perf_counter()
        model, stats = build_global_model(
            _by_site(self.local_models),
            eps_global=self.eps_global,
            metric=self.metric,
        )
        self.global_seconds = time.perf_counter() - start
        self.metrics.inc("server.builds")
        self.metrics.set("server.global_build_wall_seconds", self.global_seconds)
        return model, stats.n_merged_clusters + stats.n_singletons

    def _commit(self) -> GlobalModel:
        base = self._committed
        churn = merges = 0
        if base is None or not len(base):
            self._committed, n_clusters = self._build()
            self._repairer = None
        else:
            repairer = self._repairer
            if repairer is None:
                repairer = self._repairer = GlobalModelRepairer(
                    base, metric=self.metric
                )
            for model in _by_site(self.round_models):
                self._committed, __ = repairer.add_model(model)
                self.n_repairs += 1
                churn += repairer.last_fold.label_churn
                merges += repairer.last_fold.cluster_merges
            n_clusters = repairer.last_fold.n_clusters
        self.metrics.set("server.representatives", len(self._committed))
        self.metrics.set("server.clusters", n_clusters)
        self.metrics.inc("server.label_churn", churn)
        self.metrics.inc("server.cluster_merges", merges)
        self.rounds_committed = self.round_index + 1
        self.round_index = None
        return self._committed
