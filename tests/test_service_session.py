"""Streaming sessions over sockets vs the in-process oracle.

The load-bearing guarantee (ISSUE 8): an N-round (N >= 3) streaming
socket session — ROUND_OPEN, per-round uploads, MODEL_DELTA — produces
labels **bit-identical** to N sequential in-process incremental rounds
through :func:`~repro.distributed.streaming.run_streaming_session`.
Around it: the delta chain reconstructs exactly the model a full
fetch (``await_model_delta(0, None)``) returns, a one-shot deployment is
round 0 of a session (a bare upload opens it), and every round protocol
violation surfaces as a typed error (``bad_round`` / ``no_round_open`` /
``bad_delta`` / ``bad_request``).
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.distributed.server import RoundCore
from repro.distributed.streaming import run_streaming_session
from repro.obs import MetricsRegistry
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    journal,
    wire,
)
from repro.service.worker import run_site_worker, run_site_worker_session

N_SITES = 2
N_ROUNDS = 3
SEED = 0


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
    registry = MetricsRegistry()
    oracle = run_streaming_session(
        batches,
        eps_local=data.eps_local,
        min_pts_local=data.min_pts,
        metrics=registry,
    )
    return {
        "data": data,
        "batches": batches,
        "oracle": oracle,
        "oracle_metrics": registry.to_dict(),
    }


@pytest.fixture(scope="module")
def socket_session(stream_workload):
    """One N-round streaming session over real sockets, both workers
    concurrent, plus the state an operator observes afterwards."""
    data = stream_workload["data"]
    results: dict[int, object] = {}

    def work(site_id: int) -> None:
        results[site_id] = run_site_worker_session(
            handle.host,
            handle.port,
            site_id,
            [stream_workload["batches"][r][site_id] for r in range(N_ROUNDS)],
            n_sites=N_SITES,
            eps_local=data.eps_local,
            min_pts_local=data.min_pts,
        )

    with ServiceHandle.start(
        ServiceConfig(expected_sites=N_SITES, metrics_port=None)
    ) as handle:
        threads = [
            threading.Thread(target=work, args=(site_id,))
            for site_id in range(N_SITES)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServiceClient(handle.host, handle.port) as client:
            health = client.health()
            full_model = client.await_model_delta(0, None, timeout_s=5.0)
        snapshot = handle.service.metrics.to_dict()
    return {
        "results": results,
        "health": health,
        "full_model": full_model,
        "gauges": snapshot["gauges"],
        "counters": snapshot["counters"],
    }


class TestStreamingBitIdentity:
    def test_three_round_session_matches_in_process_rounds(
        self, stream_workload, socket_session
    ):
        """The pinned guarantee: every (round, site) label array from the
        socket session is bit-identical to the in-process oracle's."""
        oracle = stream_workload["oracle"]
        results = socket_session["results"]
        assert sorted(results) == list(range(N_SITES))
        for site_id, result in results.items():
            assert result.error == ""
            assert result.verdicts == ["admitted"] * N_ROUNDS
            assert result.n_rounds == N_ROUNDS
            assert len(result.labels) == N_ROUNDS
            for round_index in range(N_ROUNDS):
                assert np.array_equal(
                    result.labels[round_index],
                    oracle.labels[round_index][site_id],
                ), f"round {round_index}, site {site_id} labels diverge"

    def test_final_session_model_matches_oracle(
        self, stream_workload, socket_session
    ):
        oracle = stream_workload["oracle"]
        for result in socket_session["results"].values():
            model = result.model
            assert model is not None
            assert model.eps_global == oracle.model.eps_global
            assert np.array_equal(
                model.global_labels, oracle.model.global_labels
            )
            assert len(model) == len(oracle.model)
            assert np.array_equal(model.site_ids, oracle.model.site_ids)
            assert np.array_equal(
                model.local_cluster_ids, oracle.model.local_cluster_ids
            )
            assert np.array_equal(model.points, oracle.model.points)
            assert model == oracle.model

    def test_delta_chain_equals_full_fetch(self, socket_session):
        """A fresh full fetch returns exactly the model the per-round
        MODEL_DELTA chain assembled client-side."""
        full = socket_session["full_model"]
        for result in socket_session["results"].values():
            assert np.array_equal(
                full.global_labels, result.model.global_labels
            )
            assert len(full) == len(result.model)

    def test_session_bookkeeping(self, stream_workload, socket_session):
        health = socket_session["health"]
        assert health["rounds_committed"] == N_ROUNDS
        assert health["round_open"] is None
        gauges = socket_session["gauges"]
        assert gauges["service.rounds_committed"] == N_ROUNDS
        # Rounds beyond the first repair once per admitted model.
        oracle = stream_workload["oracle"]
        assert oracle.n_repairs == (N_ROUNDS - 1) * N_SITES
        assert gauges["service.model_repairs"] == oracle.n_repairs


    def test_model_gauges_match_the_oracle(self, stream_workload, socket_session):
        """The service reports the model it serves, as the oracle does."""
        oracle = stream_workload["oracle"]
        expected = stream_workload["oracle_metrics"]
        gauges, counters = socket_session["gauges"], socket_session["counters"]
        assert gauges["server.representatives"] == len(oracle.model)
        assert gauges["server.clusters"] == oracle.model.n_global_clusters
        for name in ("server.representatives", "server.clusters"):
            assert gauges[name] == expected["gauges"][name]
        for name in ("server.label_churn", "server.cluster_merges"):
            assert counters[name] == expected["counters"][name]


class TestRoundProtocolErrors:
    def test_opening_the_wrong_round_is_bad_round(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.open_round(2)
                assert excinfo.value.status == "bad_round"

    def test_upload_outside_an_open_round_is_typed(self):
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                # expected_sites=1: this upload auto-commits round 0.
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_tiny_model(1))
                assert excinfo.value.status == "no_round_open"

    def test_a_bare_upload_opens_round_zero(self, tmp_path):
        """A one-shot upload is round 0 of a session: the service journals
        ``ROUND_OPEN(0)`` before its admission, a later ``ROUND_OPEN(0)``
        is acknowledged, and the round commits at ``expected_sites``."""
        config = ServiceConfig(
            expected_sites=2, metrics_port=None, journal_dir=str(tmp_path)
        )
        with ServiceHandle.start(config) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_model(0)) == "admitted"
                assert client.open_round(0) == "round_open"
                assert client.health()["round_open"] == 0
                assert client.submit(_tiny_model(1)) == "admitted"
                model = client.await_model_delta(0, None, timeout_s=5.0)
                health = client.health()
        assert len(model) == 2
        assert health["rounds_committed"] == 1 and health["round_open"] is None
        records = journal.WriteAheadJournal(tmp_path).recover().records
        kinds = journal.RecordKind
        assert [r.kind for r in records] == [
            kinds.EPOCH,
            kinds.ROUND_OPEN,
            kinds.MODEL_ADMITTED,
            kinds.MODEL_ADMITTED,
            kinds.ROUND_COMMIT,
        ]
        assert journal.decode_round_marker(records[1].payload) == 0
        assert [journal.decode_admitted(r.payload)[0] for r in records[2:4]] == [
            0,
            0,
        ]
        assert journal.decode_round_marker(records[4].payload) == 0

    def test_a_late_bare_upload_is_refused_no_round_open(self):
        """After round 0 committed, a bare upload from a new site gets
        the session's typed refusal and changes nothing served; the
        admitted site's resubmission is still acknowledged."""
        queries = np.asarray([[0.0, 0.0], [0.5, 0.0], [9.0, 9.0]])
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_model(0)) == "admitted"
                before = client.query(queries)
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_tiny_model(1, at=(9.0, 9.0)))
                assert excinfo.value.status == "no_round_open"
                np.testing.assert_array_equal(client.query(queries), before)
                assert client.health()["n_representatives"] == 1
                assert client.submit(_tiny_model(0)) == "admitted"
        assert before.tolist() == [0, 0, -1]

    def test_a_label_query_before_round_zero_commits_is_no_model(self):
        with ServiceHandle.start(
            ServiceConfig(expected_sites=2, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.query(np.zeros((2, 2)))
                assert excinfo.value.status == "no_model"
                assert client.submit(_tiny_model(1)) == "admitted"
                assert client.query(np.zeros((2, 2))).tolist() == [0, 0]

    def test_a_round_that_never_commits_fails_its_workers_typed(
        self, stream_workload
    ):
        """Workers whose round 0 does not commit in time come home with
        the typed ``no_model`` and no labels (the session worker used to
        raise reading the labels of a batch no model had reached)."""
        data = stream_workload["data"]
        batches = stream_workload["batches"][0]
        kwargs = dict(
            eps_local=data.eps_local, min_pts_local=data.min_pts, await_global_s=0.2
        )
        with ServiceHandle.start(
            ServiceConfig(expected_sites=3, metrics_port=None)
        ) as handle:
            session = run_site_worker_session(
                handle.host, handle.port, 0, [batches[0]], n_sites=3, **kwargs
            )
            one_shot = run_site_worker(
                handle.host, handle.port, 1, batches[1], **kwargs
            )
        assert session.verdicts == ["admitted"]
        assert session.error.startswith("no_model")
        assert session.labels == [] and session.model is None
        assert one_shot.verdict == "failed"
        assert one_shot.error.startswith("no_model")
        assert one_shot.labels.size == 0 and one_shot.upload_attempts == 1

    @pytest.mark.parametrize("timeout", [math.nan, -1.0])
    def test_a_nan_or_negative_delta_timeout_is_a_bad_request(self, timeout):
        """Such a wait used to be answered at once with ``no_model``; the
        connection survives the refusal."""
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.await_model_delta(0, None, timeout_s=timeout)
                assert excinfo.value.status == "bad_request"
                assert "timeout" in excinfo.value.detail
                assert client.query(np.zeros((1, 2))).tolist() == [0]

    def test_explicit_commit_closes_a_partial_round(self):
        """Without ``expected_sites`` a round only closes on an explicit
        ROUND_COMMIT — the degraded path when some sites are known lost."""
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                assert client.open_round(0) == "round_open"  # idempotent
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.commit_round(1)
                assert excinfo.value.status == "bad_round"
                assert client.commit_round(0) == "round_committed"
                assert client.commit_round(0) == "round_committed"  # idem.
                model = client.await_model_delta(0, None, timeout_s=5.0)
                assert len(model) == 1

    def test_committing_a_negative_round_is_bad_round(self):
        """No round -1 exists, before or after a commit: the core used to
        answer ``round_committed`` ("already committed"), so a
        ``ROUND_COMMIT(-1)`` frame got an ACK."""
        core = RoundCore()
        assert core.commit_round(-1).verdict == "bad_round"
        core.apply(core.open_round(0))
        assert core.commit_round(-1).verdict == "bad_round"
        core.apply(core.commit_round(0))
        decision = core.commit_round(-1)
        assert (decision.verdict, decision.record) == ("bad_round", None)
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                assert client.commit_round(0) == "round_committed"
                with pytest.raises(ServiceError) as excinfo:
                    client.commit_round(-1)
                assert excinfo.value.status == "bad_round"
                assert client.health()["rounds_committed"] == 1

    def test_a_delta_for_a_negative_round_is_bad_round_at_once(self):
        """A MODEL_DELTA for round -1 used to wait out its timeout and
        then answer ``no_model``; the connection survives the refusal."""
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.submit(_tiny_model(0)) == "admitted"
                start = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.await_model_delta(-1, None, timeout_s=5.0)
                assert time.monotonic() - start < 2.5
                assert excinfo.value.status == "bad_round"
                assert len(client.await_model_delta(0, None, timeout_s=5.0)) == 1

    def test_delta_claiming_unknown_reps_is_bad_delta(self):
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                assert client.submit(_tiny_model(0)) == "admitted"
                with pytest.raises(ServiceError) as excinfo:
                    client.transport.request(
                        wire.FrameKind.MODEL_DELTA,
                        wire.encode_delta_request(0, 50, 1.0),
                    )
                assert excinfo.value.status == "bad_delta"

    def test_delta_for_uncommitted_round_times_out_typed(self):
        with ServiceHandle.start(ServiceConfig(metrics_port=None)) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.await_model_delta(0, None, timeout_s=0.1)
                assert excinfo.value.status == "no_model"

    def test_polled_rounds_leave_no_state_behind(self):
        """200 timeout-0 polls for rounds 1000-1199 leave nothing in the
        service (it used to keep one commit event per polled round for
        its lifetime), and waiters parked before a commit still get their
        deltas: one on the open round, one on the round after it, which
        sees round 0 commit first and waits on."""
        with ServiceHandle.start(
            ServiceConfig(expected_sites=1, metrics_port=None)
        ) as handle:
            service = handle.service
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                before = _container_sizes(service)
                for round_index in range(1000, 1200):
                    with pytest.raises(ServiceError) as excinfo:
                        client.await_model_delta(round_index, None, timeout_s=0.0)
                    assert excinfo.value.status == "no_model"
                assert _container_sizes(service) == before
                models: dict[int, object] = {}

                def wait(round_index: int) -> None:
                    with ServiceClient(handle.host, handle.port) as waiter:
                        models[round_index] = waiter.await_model_delta(
                            round_index, None, timeout_s=10.0
                        )

                threads = [
                    threading.Thread(target=wait, args=(r,)) for r in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                time.sleep(0.4)  # let both waiters block server-side
                assert client.submit(_tiny_model(0)) == "admitted"
                assert client.open_round(1) == "round_open"
                assert client.submit(_tiny_model(1, at=(5.0, 0.0))) == "admitted"
                for thread in threads:
                    thread.join(10.0)
                    assert not thread.is_alive()
        assert [len(models[r]) for r in (0, 1)] == [1, 2]

    def test_health_quorum_counts_the_current_round(self):
        """Quorum 1.0 of two expected sites: round 0 admits two models,
        round 1 one, so round 1 missed its quorum.  The service used to
        count all three admitted models against one round's two sites."""
        with ServiceHandle.start(
            ServiceConfig(expected_sites=2, quorum=1.0, metrics_port=None)
        ) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                assert client.submit(_tiny_model(0)) == "admitted"
                assert client.submit(_tiny_model(1, at=(5.0, 0.0))) == "admitted"
                assert client.health()["quorum_met"] is True
                assert client.open_round(1) == "round_open"
                assert client.submit(_tiny_model(2, at=(9.0, 0.0))) == "admitted"
                health = client.health()
        assert (health["rounds_committed"], health["round_open"]) == (1, 1)
        assert health["sites_admitted"] == 3
        assert health["quorum_met"] is False


def _container_sizes(service) -> dict[str, int]:
    """The size of every container the service object holds directly,
    but for its open connections and in-flight requests, which a reply
    races."""
    return {
        name: len(value)
        for name, value in vars(service).items()
        if isinstance(value, (dict, list, set, tuple))
        and name not in ("_connections", "_busy")
    }


def _tiny_model(site_id: int, at=(0.0, 0.0)):
    from repro.core.models import LocalModel

    return LocalModel(
        site_id=site_id,
        points=[list(at)],
        eps_ranges=[1.0],
        local_cluster_ids=[0],
        n_objects=1,
        scheme="rep_scor",
        eps_local=1.0,
        min_pts_local=1,
    )
