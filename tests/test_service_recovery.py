"""Crash-restart recovery and overload protection.

The pinned guarantee: kill the server (event loop torn down, no
shutdown grace) after round ``k`` of an N-round streaming socket
session, restart it from the write-ahead journal on the same port, let
the workers reconnect and finish — and every per-round label array plus
the final global model is **bit-identical** to an uninterrupted
in-process streaming run.  Around it: epoch surfacing, idempotent
resubmission, a kill after two committed rounds, and the typed
``overloaded`` shed path under a query storm.
"""

from __future__ import annotations

import os
import socket
import threading

import numpy as np
import pytest

from repro.core.global_model import build_global_model
from repro.core.relabel import relabel_site
from repro.data.datasets import load_dataset
from repro.distributed.site import ClientSite
from repro.distributed.streaming import run_streaming_session
from repro.core.models import LocalModel
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    journal,
    wire,
)
from repro.scenario import Scenario, run
from repro.service.worker import run_site_worker_session

N_SITES = 2
N_ROUNDS = 3
SEED = 0


def _free_port() -> int:
    """A port the OS just handed out — free to bind again immediately,
    and stable across the kill/restart pair (the server must come back
    on the address the workers are retrying)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _models_identical(model, oracle_model) -> bool:
    """Every column (points, ε-ranges, ids, labels) and scalar equal."""
    return model is not None and model == oracle_model


@pytest.fixture(scope="module")
def stream_workload():
    """Per-round batches + the in-process streaming oracle."""
    data = load_dataset("A", cardinality=480, seed=SEED)
    points = data.points
    chunk = points.shape[0] // N_ROUNDS
    batches = []
    for round_index in range(N_ROUNDS):
        block = points[round_index * chunk : (round_index + 1) * chunk]
        batches.append([block[i::N_SITES] for i in range(N_SITES)])
    oracle = run_streaming_session(
        batches, eps_local=data.eps_local, min_pts_local=data.min_pts
    )
    return {"data": data, "batches": batches, "oracle": oracle}


def _run_crash_session(workload, journal_dir, *, kill_after_round=0):
    """An N-round session with an in-flight server kill + journal restart.

    All workers rendezvous at the end of round ``kill_after_round``
    (round committed, nothing in flight), worker 0 kills the server's
    event loop and restarts it on the same port from the same journal
    directory, and everyone resumes through the reconnect seam.
    """
    data = workload["data"]
    config = ServiceConfig(
        expected_sites=N_SITES,
        metrics_port=None,
        port=_free_port(),
        journal_dir=str(journal_dir),
    )
    handles = [ServiceHandle.start(config)]
    barrier = threading.Barrier(N_SITES, timeout=60)
    restarted = threading.Event()
    hook_errors: list[BaseException] = []

    def make_hook(site_id: int):
        def hook(round_index: int, model) -> None:
            if round_index != kill_after_round:
                return
            try:
                barrier.wait()
                if site_id == 0:
                    handles[-1].kill()
                    handles.append(ServiceHandle.start(config))
                    restarted.set()
                else:
                    assert restarted.wait(60), "restart never happened"
            except BaseException as exc:
                hook_errors.append(exc)
                raise

        return hook

    results: dict[int, object] = {}

    def work(site_id: int) -> None:
        results[site_id] = run_site_worker_session(
            config.host,
            config.port,
            site_id,
            [workload["batches"][r][site_id] for r in range(N_ROUNDS)],
            n_sites=N_SITES,
            eps_local=data.eps_local,
            min_pts_local=data.min_pts,
            timeout_s=10.0,
            max_reconnects=60,
            round_hook=make_hook(site_id),
        )

    threads = [
        threading.Thread(target=work, args=(site_id,))
        for site_id in range(N_SITES)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServiceClient(config.host, config.port) as client:
            health = client.health()
            full_model = client.await_model_delta(0, None, timeout_s=5.0)
        gauges = handles[-1].service.metrics.to_dict()["gauges"]
    finally:
        for handle in handles:
            handle.stop()
    assert not hook_errors
    return {
        "results": results,
        "health": health,
        "full_model": full_model,
        "gauges": gauges,
    }


@pytest.fixture(scope="module")
def crash_session(stream_workload, tmp_path_factory):
    """Kill after round 0 of 3, restart from the journal, finish."""
    return _run_crash_session(
        stream_workload, tmp_path_factory.mktemp("wal-crash")
    )


class TestCrashRestartBitIdentity:
    def test_per_round_labels_match_oracle(self, stream_workload, crash_session):
        """The ISSUE's pinned acceptance: every (round, site) label
        array from the killed-and-recovered session is bit-identical to
        the uninterrupted in-process oracle."""
        oracle = stream_workload["oracle"]
        results = crash_session["results"]
        assert sorted(results) == list(range(N_SITES))
        for site_id, result in results.items():
            assert result.error == ""
            assert result.verdicts == ["admitted"] * N_ROUNDS
            for round_index in range(N_ROUNDS):
                assert np.array_equal(
                    result.labels[round_index],
                    oracle.labels[round_index][site_id],
                ), f"round {round_index}, site {site_id} labels diverge"

    def test_final_model_matches_oracle(self, stream_workload, crash_session):
        oracle = stream_workload["oracle"]
        for result in crash_session["results"].values():
            assert _models_identical(result.model, oracle.model)
        assert _models_identical(crash_session["full_model"], oracle.model)

    def test_workers_crossed_the_epoch_boundary(self, crash_session):
        """Each worker saw both server generations and survived at least
        one reconnect — the kill really severed live connections."""
        for result in crash_session["results"].values():
            assert result.epochs == [1, 2]
            assert result.reconnects >= 1

    def test_recovered_server_state(self, crash_session):
        health = crash_session["health"]
        assert health["epoch"] == 2
        assert health["journal_enabled"] is True
        # Round 0 had one admitted model per site to replay.
        assert health["recovered_models"] == N_SITES
        gauges = crash_session["gauges"]
        assert gauges["service.epoch"] == 2.0
        assert gauges["service.recovered_models"] == float(N_SITES)
        assert gauges["service.recovered_rounds"] == 1.0
        assert gauges["service.journal_records"] > 0
        assert gauges["service.journal_bytes"] > 0
        assert gauges["service.recovery_wall_seconds"] >= 0.0
        assert gauges["service.journal_truncated_bytes"] == 0.0


class TestKillAfterRoundOne:
    def test_two_committed_rounds_replay_bit_identical(
        self, stream_workload, tmp_path_factory
    ):
        """A kill after round 1 makes the restart replay two committed
        rounds from the log — and the outcome must not change by a bit."""
        session = _run_crash_session(
            stream_workload,
            tmp_path_factory.mktemp("wal-round-1"),
            kill_after_round=1,
        )
        oracle = stream_workload["oracle"]
        for site_id, result in session["results"].items():
            assert result.verdicts == ["admitted"] * N_ROUNDS
            for round_index in range(N_ROUNDS):
                assert np.array_equal(
                    result.labels[round_index],
                    oracle.labels[round_index][site_id],
                )
            assert _models_identical(result.model, oracle.model)
        assert session["health"]["recovered_models"] == 2 * N_SITES
        assert session["gauges"]["service.recovered_rounds"] == 2.0


def _open_handles(path) -> int:
    """This process's file descriptors open on ``path``."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") == str(path)
        except OSError:
            pass  # the descriptor closed while listing
    return count


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestKillReleasesTheJournal:
    def test_kill_closes_the_log_handle_and_writes_nothing(self, tmp_path):
        """The OS closes a killed process's files; ``kill()`` releases
        the journal's append handle the same way, writing nothing."""
        config = ServiceConfig(
            expected_sites=N_SITES, metrics_port=None, journal_dir=str(tmp_path)
        )
        log = (tmp_path / "wal.log").resolve()
        handle = ServiceHandle.start(config)
        with ServiceClient(handle.host, handle.port) as client:
            assert client.open_round(0) == "round_open"
        written = log.read_bytes()
        assert written and _open_handles(log) == 1
        handle.kill()
        assert _open_handles(log) == 0
        assert log.read_bytes() == written
        with ServiceHandle.start(config) as restarted:
            with ServiceClient(restarted.host, restarted.port) as client:
                assert client.open_round(0) == "round_open"
                assert client.server_epoch == 2


class TestDimensionalityGate:
    def test_another_dimensionality_is_quarantined_and_replayed(self, tmp_path):
        """A 3-D upload after a 2-D one is quarantined, journaled with
        its reason; once the partial round 0 commits, label queries keep
        answering, also after a restart from the journal."""
        config = ServiceConfig(
            expected_sites=2, metrics_port=None, journal_dir=str(tmp_path)
        )
        queries = np.asarray([[0.5, 0.0], [5.0, 5.5], [9.0, 9.0]])
        with ServiceHandle.start(config) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_model(0, 2)) == "admitted"
            with ServiceClient(handle.host, handle.port, site_id=1) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_model(1, 3))
                assert excinfo.value.status == "quarantined"
                assert "dimensionality 3 differs from the session's 2" in str(
                    excinfo.value
                )
                assert client.commit_round(0) == "round_committed"
                labels = client.query(queries)
                health = client.health()
            counters = handle.service.metrics.to_dict()["counters"]
        assert labels.tolist() == [0, 1, -1]
        assert health["model_built"] and health["sites_quarantined"] == 1
        assert "service.internal_errors" not in counters
        with ServiceHandle.start(config) as restarted:
            with ServiceClient(restarted.host, restarted.port) as client:
                np.testing.assert_array_equal(client.query(queries), labels)
                health = client.health()
            counters = restarted.service.metrics.to_dict()["counters"]
        assert health["model_built"] and health["sites_quarantined"] == 1
        assert "service.internal_errors" not in counters

    def test_a_journal_from_before_the_gate_boots(self, tmp_path):
        """A journal that recorded a 3-D admission after a 2-D one (as
        the service did before the dimensionality gate) boots: replay
        applies the 3-D model as the quarantine the gate records, and
        recovery journals nothing for it."""
        with journal.WriteAheadJournal(tmp_path) as wal:
            wal.append(journal.RecordKind.EPOCH, journal.encode_epoch(1))
            for site_id, dim in ((0, 2), (1, 3)):
                payload = wire.encode_local_model(_model(site_id, dim))
                wal.append(
                    journal.RecordKind.MODEL_ADMITTED,
                    journal.encode_admitted(-1, payload),
                )
        config = ServiceConfig(
            expected_sites=2, metrics_port=None, journal_dir=str(tmp_path)
        )
        queries = np.asarray([[0.5, 0.0], [5.0, 5.5], [9.0, 9.0]])
        with ServiceHandle.start(config) as handle:
            server = handle.service.server
            assert [m.site_id for m in server.local_models] == [0]
            (__, reason), = server.quarantined_models
            assert "dimensionality 3 differs from the session's 2" in reason
            assert handle.service.metrics.to_dict()["counters"][
                "server.models_quarantined"
            ] == 1
            records = journal.WriteAheadJournal(tmp_path).recover().records
            assert [r.kind for r in records] == [
                journal.RecordKind.EPOCH,
                journal.RecordKind.MODEL_ADMITTED,
                journal.RecordKind.MODEL_ADMITTED,
                journal.RecordKind.EPOCH,
            ]
            with ServiceClient(handle.host, handle.port, site_id=1) as client:
                assert client.submit(_model(1, 2)) == "admitted"
                labels = client.query(queries)
            counters = handle.service.metrics.to_dict()["counters"]
        assert labels.tolist() == [0, 1, -1]
        assert "service.internal_errors" not in counters
        with ServiceHandle.start(config) as restarted:
            with ServiceClient(restarted.host, restarted.port) as client:
                np.testing.assert_array_equal(client.query(queries), labels)
                health = client.health()
        assert health["model_built"] and health["sites_quarantined"] == 1


    def test_a_one_shot_journal_boots_as_round_zero(self, tmp_path):
        """A journal of one-shot uploads outside any round (round -1, as
        services wrote before a one-shot deployment became round 0)
        replays them into round 0, which commits at ``expected_sites``:
        the restart journals only its epoch and that commit, and serves
        the labels of the site-sorted build over those models."""
        models = [_model(1, 2, at=(9.0, 9.0)), _model(0, 2)]
        with journal.WriteAheadJournal(tmp_path) as wal:
            wal.append(journal.RecordKind.EPOCH, journal.encode_epoch(1))
            for model in models:
                wal.append(
                    journal.RecordKind.MODEL_ADMITTED,
                    journal.encode_admitted(-1, wire.encode_local_model(model)),
                )
        queries = np.asarray([[0.5, 0.0], [5.0, 5.5], [9.0, 9.5], [20.0, 0.0]])
        built, __ = build_global_model(sorted(models, key=lambda m: m.site_id))
        expected, __ = relabel_site(
            queries, np.full(4, -1, dtype=np.intp), built, site_id=None
        )
        config = ServiceConfig(
            expected_sites=2, metrics_port=None, journal_dir=str(tmp_path)
        )
        with ServiceHandle.start(config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                labels = client.query(queries)
                health = client.health()
        records = journal.WriteAheadJournal(tmp_path).recover().records
        assert [r.kind for r in records] == [
            journal.RecordKind.EPOCH,
            journal.RecordKind.MODEL_ADMITTED,
            journal.RecordKind.MODEL_ADMITTED,
            journal.RecordKind.EPOCH,
            journal.RecordKind.ROUND_COMMIT,
        ]
        assert journal.decode_round_marker(records[-1].payload) == 0
        np.testing.assert_array_equal(labels, expected)
        assert len(set(expected.tolist())) == 4  # three clusters and noise
        assert health["rounds_committed"] == 1 and health["epoch"] == 2


def _model(site_id: int, dim: int, at=(0.0, 0.0)) -> LocalModel:
    """Three representatives in two local clusters, in ``dim`` dimensions,
    moved by ``at`` in the first two."""
    points = np.asarray([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
    points[:, :2] += at
    return LocalModel(
        site_id, points[:, :dim], [1.0] * 3, [0, 0, 1], 3, "rep_scor", 0.5, 2
    )


class TestIdempotentResubmission:
    def test_duplicate_upload_reacknowledged_not_readmitted(
        self, stream_workload, tmp_path
    ):
        """A resubmission after a lost ACK (the crash window) is
        re-acknowledged ``admitted`` without double-admitting."""
        data = stream_workload["data"]
        config = ServiceConfig(
            expected_sites=N_SITES, metrics_port=None, journal_dir=str(tmp_path)
        )
        with ServiceHandle.start(config) as handle:
            site = ClientSite(
                0,
                stream_workload["batches"][0][0],
                eps_local=data.eps_local,
                min_pts_local=data.min_pts,
            )
            model = site.run_local_clustering()
            with ServiceClient(handle.host, handle.port) as client:
                assert client.open_round(0) == "round_open"
                assert client.submit(model) == "admitted"
                assert client.submit(model) == "admitted"
                assert client.server_epoch == 1
                health = client.health()
            assert health["duplicate_uploads"] == 1
            gauges = handle.service.metrics.to_dict()["gauges"]
            assert gauges["service.duplicate_uploads"] == 1.0


class TestOverloadProtection:
    def test_storm_sheds_typed_and_every_query_lands(self, stream_workload):
        """With the admission budget capped at one in-flight request, a
        concurrent query storm must shed with *typed* ``overloaded``
        replies carrying ``retry_after`` — never an untyped failure, a
        hung client, or a dropped query."""
        data = stream_workload["data"]
        report = run(Scenario(
            cardinality=(data.n,), data_seed=SEED, sites=N_SITES,
            server="thread", queries=48, clients=6, query_batch=160,
            max_inflight=1,
        ))
        metrics = report.metrics
        assert metrics["serve.overload_typed_ok"] == 1.0
        assert metrics["serve.overload_shed_count"] > 0
        assert metrics["serve.query_failed"] == 0.0
        assert metrics["serve.queries_count"] == 48.0
        assert report.problems == []
