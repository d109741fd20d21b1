"""Tests for the multi-round streaming scenario."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generators import gaussian_blobs
from repro.distributed.scenario import StreamingScenario


def _arrivals(n_sites, centers, count=25, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for __ in range(n_sites):
        points, __labels = gaussian_blobs(
            [count] * len(centers), np.asarray(centers), 0.8, seed=rng
        )
        out.append(points)
    return out


class TestValidation:
    def test_rejects_zero_sites(self):
        with pytest.raises(ValueError, match="n_sites"):
            StreamingScenario(0, eps_local=1.0, min_pts_local=4)

    def test_rejects_wrong_arrival_count(self):
        scenario = StreamingScenario(2, eps_local=1.0, min_pts_local=4)
        with pytest.raises(ValueError, match="arrival"):
            scenario.run_round([np.zeros((1, 2))])

    def test_rejects_wrong_departure_count(self):
        scenario = StreamingScenario(2, eps_local=1.0, min_pts_local=4)
        with pytest.raises(ValueError, match="departure"):
            scenario.run_round(
                [np.zeros((0, 2)), np.zeros((0, 2))], departures=[[]]
            )

    def test_global_model_guard(self):
        scenario = StreamingScenario(1, eps_local=1.0, min_pts_local=4)
        with pytest.raises(RuntimeError, match="no round"):
            __ = scenario.global_model


class TestRounds:
    def test_first_round_every_site_uploads(self):
        scenario = StreamingScenario(3, eps_local=1.0, min_pts_local=4)
        stats = scenario.run_round(_arrivals(3, [[0.0, 0.0]]))
        assert stats.sites_transmitted == 3
        assert stats.bytes_up > 0
        assert stats.n_global_clusters >= 1

    def test_stable_rounds_upload_nothing(self):
        scenario = StreamingScenario(3, eps_local=1.0, min_pts_local=4)
        scenario.run_round(_arrivals(3, [[0.0, 0.0]], seed=1))
        stats = scenario.run_round(_arrivals(3, [[0.0, 0.0]], seed=2))
        assert stats.sites_transmitted == 0
        assert stats.bytes_up == 0

    def test_new_region_triggers_uploads(self):
        scenario = StreamingScenario(2, eps_local=1.0, min_pts_local=4)
        scenario.run_round(_arrivals(2, [[0.0, 0.0]], seed=1))
        stats = scenario.run_round(_arrivals(2, [[30.0, 30.0]], seed=2))
        assert stats.sites_transmitted == 2
        assert stats.n_global_clusters >= 2

    def test_departures_processed(self):
        scenario = StreamingScenario(1, eps_local=1.0, min_pts_local=4)
        arrivals = _arrivals(1, [[0.0, 0.0]], count=30)
        scenario.run_round(arrivals)
        stats = scenario.run_round(
            [np.empty((0, 2))], departures=[[0, 1, 2]]
        )
        assert stats.departures == 3
        assert scenario.sites[0].n_objects == 27

    def test_history_accumulates(self):
        scenario = StreamingScenario(1, eps_local=1.0, min_pts_local=4)
        for i in range(3):
            scenario.run_round(_arrivals(1, [[0.0, 0.0]], seed=i))
        assert [s.round_index for s in scenario.history] == [0, 1, 2]

    def test_lazy_cheaper_than_eager(self):
        scenario = StreamingScenario(2, eps_local=1.0, min_pts_local=4)
        for i in range(4):
            scenario.run_round(_arrivals(2, [[0.0, 0.0]], seed=i))
        assert scenario.total_bytes_up() < scenario.eager_bytes_up()

    def test_default_eps_global_is_twice_local(self):
        scenario = StreamingScenario(1, eps_local=1.5, min_pts_local=4)
        assert scenario.eps_global == 3.0

    def test_global_model_merges_across_sites(self):
        """Two sites see the same hotspot: one global cluster."""
        scenario = StreamingScenario(2, eps_local=1.0, min_pts_local=4)
        stats = scenario.run_round(_arrivals(2, [[5.0, 5.0]], seed=3))
        assert stats.n_global_clusters == 1
        assert stats.n_representatives >= 2  # at least one rep per site


class TestRefusedRound:
    """A round refused for a bad input on a later site changes nothing."""

    @staticmethod
    def _scenario():
        scenario = StreamingScenario(2, eps_local=1.0, min_pts_local=4)
        scenario.run_round(_arrivals(2, [[0.0, 0.0]], count=20, seed=1))
        return scenario

    @staticmethod
    def _state(scenario):
        return (
            [site.n_objects for site in scenario.sites],
            [site.current_model() for site in scenario.sites],
            list(scenario.history),
            scenario.total_bytes_up(),
            scenario.global_model,
        )

    @staticmethod
    def _nan_in_row_2(arrivals):
        arrivals = [points.copy() for points in arrivals]
        arrivals[1][2, 0] = np.nan
        return arrivals

    @pytest.mark.parametrize(
        "spoil,departures,error",
        [
            (None, [[0], [999]], KeyError),
            (None, [[0], [3, 3]], KeyError),
            ("nan", [[0], [1]], ValueError),
            ("shape", [[0], [1]], ValueError),
        ],
        ids=["unknown-id", "repeated-id", "nan-arrival", "3-d-arrival"],
    )
    def test_refused_round_changes_no_site(self, spoil, departures, error):
        arrivals = _arrivals(2, [[0.0, 0.0]], count=5, seed=2)
        if spoil == "nan":
            bad_arrivals = self._nan_in_row_2(arrivals)
        elif spoil == "shape":
            bad_arrivals = [arrivals[0], np.zeros((5, 3))]
        else:
            bad_arrivals = arrivals
        scenario = self._scenario()
        before = self._state(scenario)
        with pytest.raises(error, match="site 1"):
            scenario.run_round(bad_arrivals, departures)
        assert self._state(scenario) == before

        # The corrected round departs one object that arrives in it.
        corrected = [[0, 1], [2, 22]]
        stats = scenario.run_round(arrivals, corrected)
        untouched = self._scenario()
        assert stats == untouched.run_round(arrivals, corrected)
        assert stats.departures == 4
        assert self._state(scenario) == self._state(untouched)

    def test_empty_arrival_of_any_shape_is_allowed(self):
        scenario = self._scenario()
        stats = scenario.run_round([np.empty((0,)), np.empty((0, 5))])
        assert stats.arrivals == 0
        assert [site.n_objects for site in scenario.sites] == [20, 20]


class TestScenarioTransport:
    def _scenario(self, plan, **policy_kwargs):
        from repro.distributed.network import SimulatedNetwork
        from repro.faults.transport import ResilientTransport, TransportPolicy

        network = SimulatedNetwork()
        policy = TransportPolicy(**policy_kwargs) if policy_kwargs else None
        return StreamingScenario(
            2,
            eps_local=1.0,
            min_pts_local=4,
            network=network,
            transport=ResilientTransport(network, plan, policy),
        )

    def test_rejects_transport_on_foreign_network(self):
        from repro.distributed.network import SimulatedNetwork
        from repro.faults.plan import FaultPlan
        from repro.faults.transport import ResilientTransport

        with pytest.raises(ValueError, match="network"):
            StreamingScenario(
                2,
                eps_local=1.0,
                min_pts_local=4,
                transport=ResilientTransport(SimulatedNetwork(), FaultPlan.none()),
            )

    def test_clean_transport_matches_plain_rounds(self):
        from repro.faults.plan import FaultPlan

        scenario = self._scenario(FaultPlan.none())
        stats = scenario.run_round(_arrivals(2, [[0.0, 0.0]]))
        assert stats.sites_transmitted == 2
        assert stats.sites_failed == 0
        assert stats.bytes_up > 0

    def test_lost_upload_retried_next_round(self):
        """A site whose upload exhausts its retry budget is served from
        its stale model and re-transmits on the next round."""
        from repro.faults.plan import FaultPlan

        scenario = self._scenario(
            FaultPlan.lossy_links(0.995, seed=5), max_attempts=2
        )
        first = scenario.run_round(_arrivals(2, [[0.0, 0.0]]))
        assert first.sites_failed > 0
        # Failed attempts still hit the wire and were accounted.
        assert first.bytes_up > 0
        # No arrivals, no drift — yet the failed sites retransmit.
        quiet = scenario.run_round([np.zeros((0, 2)), np.zeros((0, 2))])
        assert quiet.sites_transmitted + quiet.sites_failed == first.sites_failed
