"""The benchmark's workloads and the inputs they are made from.

Every workload has the same four steps:

* ``setup()`` makes the inputs from the seed, brings the system to the
  point where it serves operations, and runs one untimed warm-up
  operation;
* ``measure(seconds, gauge)`` runs operations for ``seconds`` and returns
  a :class:`Measurement` whose times are corrected to reference speed
  with ``gauge`` (see ``speed.py``);
* ``verify()`` runs after the timed loop and returns how many operations
  produced output that differs from an independent in-process oracle;
* ``close()`` stops whatever ``setup()`` started.

The inputs are the paper's data sets as the repository reconstructs them
(``repro.data.datasets``, at their default seeds), and every size, site
count, round count, client count and query batch is one the repository's
own commands run by default.  The seed decides how the points reach the
sites, as the partition seed of ``repro serve-bench`` does, or, for the
query storm, which queries the clients send.  The data sets stay fixed,
because data set A's cluster layout, and with it the cost of a run,
changes with its seed; so does the storm's model, whose size the
partition moves by up to 10%, and with it the cost of every query.

* ``dbdc-a`` and ``dbdc-b`` are ``repro run`` (4 sites, the data set's
  recommended ``Eps``/``MinPts``) on data set A at the paper's 8,700
  points and on data set B, the paper's noisy set (40% noise), at its
  4,000 points;
* ``session`` streams what ``repro serve`` deploys by default (data set
  A, 8,700 points, 4 sites) in the 3 round-robin rounds ``repro
  serve-trace`` runs, against a service that journals as ``repro
  serve-bench`` does;
* ``query-storm`` is the query phase of ``repro serve-bench`` (data set
  A, 2,000 points on 4 sites, 8 clients, 256-point queries over slices
  of the stored points).

Each ``WORKLOAD_LAYERS`` entry names the layers (``layers.py``) a workload
must reach; a traced run in which one of them records no call is marked
incorrect.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.clustering.dbscan import dbscan
from repro.clustering.labels import NOISE
from repro.core.dbdc import DBDCConfig, run_dbdc_partitioned
from repro.core.relabel import relabel_site
from repro.data.datasets import dataset_a, dataset_b
from repro.distributed.partition import partition, split
from repro.distributed.runner import DistributedRunConfig, DistributedRunner
from repro.distributed.streaming import run_streaming_session
from repro.quality.qdbdc import q_dbdc_p2
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceHandle
from repro.service.worker import run_site_worker, run_site_worker_session
from speed import SpeedGauge

# A sequential workload runs at least this many operations, so its tail
# percentile has samples beyond it even on a slow machine.
MIN_OPS = 20


def _run_threads(target, n: int) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@dataclass
class Measurement:
    """What one timed loop observed.

    Attributes:
        latencies: reference-speed seconds of every answered operation.
        attempted: operations started.
        failed: operations that raised or were refused.
        points: points the answered operations processed.
        busy_seconds: the reference-speed time the points were processed in.
        scales: the speed corrections applied (see ``speed.py``).
    """

    latencies: list
    attempted: int
    failed: int
    points: int
    busy_seconds: float
    scales: list


class _Sequential:
    """A workload whose operations run one after another."""

    def op(self) -> tuple[float, int]:
        """One operation; returns its wall seconds and points processed."""
        raise NotImplementedError

    def measure(self, seconds: float, gauge: SpeedGauge) -> Measurement:
        latencies: list[float] = []
        scales: list[float] = []
        points = 0
        start = time.perf_counter()
        gauge.mark()
        while len(latencies) < MIN_OPS or time.perf_counter() - start < seconds:
            op_seconds, op_points = self.op()
            scales.append(gauge.scale())
            latencies.append(op_seconds * scales[-1])
            points += op_points
        ran = self.outputs[-len(latencies) :]
        n_failed = sum(output is None for output in ran)
        return Measurement(
            latencies, len(ran), n_failed, points, sum(latencies), scales
        )

    def close(self) -> None:
        pass


class _InProcessRun(_Sequential):
    """One in-process DBDC run as ``repro run`` does it: partition the data
    set over the sites, local DBSCAN and local model on every site, global
    model, relabel."""

    N_SITES = 4
    TAIL_PERCENTILE = 75
    # The oracle's labels must agree this well with central DBSCAN
    # (the paper's P^II), so the input gives DBDC real clusters to find.
    MIN_QUALITY = 0.9

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.outputs: list[np.ndarray | None] = []

    def make_data(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.data = self.make_data()
        self.config = DistributedRunConfig(
            eps_local=self.data.eps_local,
            min_pts_local=self.data.min_pts,
            seed=self.seed,
        )
        self.runner = DistributedRunner(self.config)
        self.outputs = []
        self.op()

    def op(self) -> tuple[float, int]:
        start = time.perf_counter()
        report = self.runner.run(self.data.points, self.N_SITES)
        seconds = time.perf_counter() - start
        self.outputs.append(report.labels_in_original_order())
        return seconds, self.data.n

    def verify(self) -> int:
        data = self.data
        assignment = partition(
            data.points, self.N_SITES, self.config.partition_strategy, self.seed
        )
        oracle = run_dbdc_partitioned(
            data.points,
            assignment,
            DBDCConfig(eps_local=data.eps_local, min_pts_local=data.min_pts),
        ).labels_in_original_order()
        central = dbscan(data.points, data.eps_local, data.min_pts).labels
        if q_dbdc_p2(oracle, central) < self.MIN_QUALITY:
            return len(self.outputs)
        return sum(not np.array_equal(out, oracle) for out in self.outputs)


class DBDCA(_InProcessRun):
    """Data set A at the paper's cardinality: 13 Gaussian clusters of
    varying size and spread, 5% noise."""

    def make_data(self):
        return dataset_a()


class DBDCB(_InProcessRun):
    """Data set B at the paper's cardinality: 5 clusters under 40% uniform
    noise, so many region queries find too few neighbours to expand."""

    def make_data(self):
        return dataset_b()


class Session(_Sequential):
    """One multi-round streaming session over real sockets: every site
    opens each round, clusters its batch, submits its local model and
    relabels all it has seen against the committed model.  The service
    journals every admission with fsync before acknowledging it."""

    N_SITES = 4
    N_ROUNDS = 3
    TAIL_PERCENTILE = 75

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.n_sessions = 0
        self.outputs: list[list | None] = []

    def setup(self) -> None:
        self.data = dataset_a()
        # The seed decides the order the points arrive in.
        points = self.data.points[
            np.random.default_rng(self.seed).permutation(self.data.n)
        ]
        chunk = self.data.n // self.N_ROUNDS
        self.batches = [
            [
                points[r * chunk : (r + 1) * chunk][site :: self.N_SITES]
                for site in range(self.N_SITES)
            ]
            for r in range(self.N_ROUNDS)
        ]
        self.outputs = []
        self.op()

    def op(self) -> tuple[float, int]:
        """Boot a service on an empty journal, run one session, stop the
        service; only the session is timed."""
        journal_dir = self.workdir / f"journal-{self.n_sessions}"
        self.n_sessions += 1
        results: dict[int, object] = {}
        with ServiceHandle.start(
            ServiceConfig(
                expected_sites=self.N_SITES,
                metrics_port=None,
                journal_dir=str(journal_dir),
            )
        ) as handle:

            def work(site: int) -> None:
                results[site] = run_site_worker_session(
                    handle.host,
                    handle.port,
                    site,
                    [self.batches[r][site] for r in range(self.N_ROUNDS)],
                    n_sites=self.N_SITES,
                    eps_local=self.data.eps_local,
                    min_pts_local=self.data.min_pts,
                )

            start = time.perf_counter()
            _run_threads(work, self.N_SITES)
            seconds = time.perf_counter() - start
        shutil.rmtree(journal_dir, ignore_errors=True)
        ok = len(results) == self.N_SITES and all(
            not result.error and result.verdicts == ["admitted"] * self.N_ROUNDS
            for result in results.values()
        )
        self.outputs.append(
            [results[site].labels for site in range(self.N_SITES)] if ok else None
        )
        return seconds, self.N_ROUNDS * (self.data.n // self.N_ROUNDS)

    def verify(self) -> int:
        oracle = run_streaming_session(
            self.batches,
            eps_local=self.data.eps_local,
            min_pts_local=self.data.min_pts,
        )

        def matches(output) -> bool:
            return output is not None and all(
                np.array_equal(output[site][r], oracle.labels[r][site])
                for site in range(self.N_SITES)
                for r in range(self.N_ROUNDS)
            )

        return sum(not matches(output) for output in self.outputs)


class QueryStorm:
    """Concurrent label queries against a live service that holds a
    committed global model: a closed loop of N_CLIENTS clients, each
    sending its next batch of QUERY_POINTS points when its last reply
    lands."""

    N_POINTS = 2_000
    N_SITES = 4
    N_CLIENTS = 8
    QUERY_POINTS = 256
    POOL = 32
    # serve-bench's default partition seed.
    PARTITION_SEED = 42
    SLICE_S = 1.0
    # A client that neither finishes its slice nor fails within this long
    # breaks the storm, which is then counted as failed.
    BARRIER_TIMEOUT_S = 30.0
    TAIL_PERCENTILE = 90

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.n_services = 0
        self.handle: ServiceHandle | None = None

    def setup(self) -> None:
        self.close()
        self.data = dataset_a(self.N_POINTS)
        points = self.data.points
        self.config = DistributedRunConfig(
            eps_local=self.data.eps_local,
            min_pts_local=self.data.min_pts,
            seed=self.PARTITION_SEED,
        )
        self.assignment = partition(
            points,
            self.N_SITES,
            self.config.partition_strategy,
            self.PARTITION_SEED,
        )
        parts = split(points, self.assignment)
        # Queries are slices of the stored points, laid out as serve-bench
        # walks them.
        span = self.N_POINTS - self.QUERY_POINTS
        self.pool = [
            points[lo : lo + self.QUERY_POINTS]
            for lo in (i * self.QUERY_POINTS % span for i in range(self.POOL))
        ]
        journal_dir = self.workdir / f"journal-{self.n_services}"
        self.n_services += 1
        self.handle = ServiceHandle.start(
            ServiceConfig(
                expected_sites=self.N_SITES,
                metrics_port=None,
                relabel_kernel=self.config.relabel_kernel,
                journal_dir=str(journal_dir),
            )
        )
        results: dict[int, object] = {}

        def upload(site: int) -> None:
            results[site] = run_site_worker(
                self.handle.host,
                self.handle.port,
                site,
                parts[site],
                eps_local=self.data.eps_local,
                min_pts_local=self.data.min_pts,
            )

        _run_threads(upload, self.N_SITES)
        verdicts = [result.verdict for result in results.values()]
        if verdicts != ["admitted"] * self.N_SITES:
            raise RuntimeError(f"model upload failed: {verdicts}")
        self.replies: dict[int, np.ndarray] = {}
        self.mismatched = 0
        with ServiceClient(self.handle.host, self.handle.port) as service:
            for which, batch in enumerate(self.pool):
                self.replies[which] = service.query(batch)

    def measure(self, seconds: float, gauge: SpeedGauge) -> Measurement:
        """The storm runs in slices of SLICE_S seconds; between slices the
        clients hold their connections and wait while the speed gauge is
        read, and each slice's latencies are corrected by its own scale."""
        n_slices = max(1, round(seconds / self.SLICE_S))
        # latencies[client] holds (slice, seconds) pairs.
        latencies: list[list] = [[] for __ in range(self.N_CLIENTS)]
        failed = [0] * self.N_CLIENTS
        lock = threading.Lock()
        barrier = threading.Barrier(
            self.N_CLIENTS + 1, timeout=self.BARRIER_TIMEOUT_S
        )
        deadline = [0.0]

        def client(index: int) -> None:
            rng = np.random.default_rng([self.seed, index])
            mine = latencies[index]
            try:
                with ServiceClient(self.handle.host, self.handle.port) as service:
                    for part in range(n_slices):
                        barrier.wait()
                        while time.perf_counter() < deadline[0]:
                            which = int(rng.integers(self.POOL))
                            sent = time.perf_counter()
                            labels = service.query(self.pool[which])
                            mine.append((part, time.perf_counter() - sent))
                            if not np.array_equal(self.replies[which], labels):
                                with lock:
                                    self.mismatched += 1
                        barrier.wait()
            except threading.BrokenBarrierError:
                pass  # the storm was broken; counted below
            except Exception:
                failed[index] += 1
                barrier.abort()

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        scales: list[float] = []
        busy = 0.0
        gauge.mark()
        try:
            for __ in range(n_slices):
                start = time.perf_counter()
                deadline[0] = start + self.SLICE_S
                barrier.wait()
                barrier.wait()
                wall = time.perf_counter() - start
                scales.append(gauge.scale())
                busy += wall * scales[-1]
        except threading.BrokenBarrierError:
            barrier.abort()
        for thread in threads:
            thread.join()
        answered = [
            elapsed * scales[part]
            for mine in latencies
            for part, elapsed in mine
            if part < len(scales)
        ]
        n_failed = sum(failed)
        if len(scales) < n_slices:
            n_failed = max(n_failed, 1)
        return Measurement(
            answered,
            len(answered) + n_failed,
            n_failed,
            len(answered) * self.QUERY_POINTS,
            busy,
            scales,
        )

    def verify(self) -> int:
        """Replies must equal a pure-coverage relabel against the model an
        in-process DBDC run builds from the same site split."""
        model = run_dbdc_partitioned(
            self.data.points,
            self.assignment,
            DBDCConfig(
                eps_local=self.data.eps_local, min_pts_local=self.data.min_pts
            ),
        ).result.global_model
        wrong = self.mismatched
        for which, labels in self.replies.items():
            batch = self.pool[which]
            expected, __ = relabel_site(
                batch,
                np.full(batch.shape[0], NOISE, dtype=np.intp),
                model,
                site_id=None,
            )
            wrong += not np.array_equal(labels, expected)
        return wrong

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None


WORKLOADS = {
    "dbdc-a": DBDCA,
    "dbdc-b": DBDCB,
    "session": Session,
    "query-storm": QueryStorm,
}

_LOCAL = {"local_model", "dbscan", "index_build", "region_query"}
WORKLOAD_LAYERS = {
    "dbdc-a": _LOCAL | {"global_build", "relabel"},
    "dbdc-b": _LOCAL | {"global_build", "relabel"},
    "session": _LOCAL
    | {
        "global_build",
        "repair",
        "relabel",
        "admission",
        "round_commit",
        "journal_append",
        "fsync",
        "wire_codec",
        "rpc_wait",
    },
    "query-storm": {"relabel", "wire_codec", "rpc_wait"},
}
