"""Protocol rules the round core applies for every caller.

* A round committed onto a base model without representatives rebuilds
  instead of folding with ``eps_global = 0`` — in the streaming oracle
  and over a real socket session.
* The global model is built in site order, so a fault plan that only
  delays messages leaves the runner's labels and model bit-identical to
  a clean run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.global_model import build_global_model
from repro.data.datasets import load_dataset
from repro.distributed.runner import DistributedRunConfig, DistributedRunner
from repro.distributed.site import ClientSite
from repro.distributed.streaming import run_streaming_session
from repro.faults import FaultPlan, LinkFaults
from repro.service import ServiceClient, ServiceConfig, ServiceHandle

N_SITES = 2


@pytest.fixture(scope="module")
def empty_first_round():
    """Round 0 too sparse to cluster, round 1 the whole of data set A
    (480 points) over two sites, and the one-shot build of round 1's
    models — what the session model must equal after round 1."""
    data = load_dataset("A", cardinality=480, seed=0)
    sparse = [data.points[i : i + 1] for i in range(N_SITES)]
    full = [data.points[i::N_SITES] for i in range(N_SITES)]
    models = [
        ClientSite(
            N_SITES + i,  # round 1's effective site ids
            batch,
            eps_local=data.eps_local,
            min_pts_local=data.min_pts,
        ).run_local_clustering()
        for i, batch in enumerate(full)
    ]
    one_shot, __ = build_global_model(models)
    return {
        "data": data,
        "batches": [sparse, full],
        "models": models,
        "one_shot": one_shot,
    }


def _assert_same_model(model, expected):
    assert model.eps_global == expected.eps_global
    np.testing.assert_array_equal(model.global_labels, expected.global_labels)
    np.testing.assert_array_equal(model.site_ids, expected.site_ids)
    np.testing.assert_array_equal(
        model.local_cluster_ids, expected.local_cluster_ids
    )


class TestEmptyBaseRebuilds:
    def test_oracle_rebuilds_after_an_empty_first_round(self, empty_first_round):
        workload = empty_first_round
        data = workload["data"]
        one_shot = workload["one_shot"]
        assert one_shot.eps_global > 0
        result = run_streaming_session(
            workload["batches"],
            eps_local=data.eps_local,
            min_pts_local=data.min_pts,
        )
        _assert_same_model(result.model, one_shot)
        assert result.model.n_global_clusters == one_shot.n_global_clusters
        assert result.n_repairs == 0

    def test_socket_session_rebuilds_after_an_empty_round(
        self, empty_first_round
    ):
        """An explicit ROUND_COMMIT(0) with no uploads must not freeze
        ``eps_global`` at 0 for the rounds after it."""
        workload = empty_first_round
        config = ServiceConfig(expected_sites=N_SITES, metrics_port=None)
        with ServiceHandle.start(config) as handle:
            with ServiceClient(handle.host, handle.port, site_id=0) as client:
                assert client.open_round(0) == "round_open"
                assert client.commit_round(0) == "round_committed"
                assert client.open_round(1) == "round_open"
                for model in workload["models"]:
                    assert client.submit(model) == "admitted"
                model = client.await_model_delta(1, None, timeout_s=5.0)
                health = client.health()
        _assert_same_model(model, workload["one_shot"])
        assert health["rounds_committed"] == 2


class TestSiteOrderedBuild:
    @pytest.mark.parametrize("seed", range(4))
    def test_delay_only_plan_matches_clean_run(self, seed):
        """Jitter and reordering deliver every message, only later: the
        labels and the global model must equal the clean run's bit for
        bit."""
        data = load_dataset("C", cardinality=600)
        config = DistributedRunConfig(
            eps_local=data.eps_local, min_pts_local=data.min_pts, seed=3
        )
        clean = DistributedRunner(config).run(data.points, 8)
        plan = FaultPlan(
            seed=seed, link=LinkFaults(jitter_s=0.5, reorder_prob=0.5)
        )
        delayed = DistributedRunner(config, fault_plan=plan).run(data.points, 8)
        assert delayed.failed_sites == []
        assert delayed.round_sim_seconds > 0
        np.testing.assert_array_equal(
            delayed.labels_in_original_order(),
            clean.labels_in_original_order(),
        )
        assert delayed.global_model.to_bytes() == clean.global_model.to_bytes()
