"""Unit tests for the incremental client site and its drift policy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local import build_rep_scor_model
from repro.data.distance import minkowski_metric
from repro.data.generators import gaussian_blobs
from repro.distributed import incremental_site
from repro.distributed.incremental_site import (
    IncrementalClientSite,
    model_drift,
)
from repro.distributed.scenario import StreamingScenario


@pytest.fixture
def blob(rng):
    points, __ = gaussian_blobs([80], np.asarray([[0.0, 0.0]]), 0.8, seed=42)
    return points


class TestDriftMeasure:
    def _model(self, points, site_id=0):
        outcome = build_rep_scor_model(points, 1.0, 4, site_id=site_id)
        return outcome.model

    def test_zero_for_identical_models(self, blob):
        model = self._model(blob)
        report = model_drift(model, model)
        assert report.uncovered_fraction == 0.0
        assert report.cluster_count_delta == 0
        assert report.drift == 0.0

    def test_large_for_new_region(self, blob):
        old = self._model(blob)
        far, __ = gaussian_blobs([80], np.asarray([[30.0, 30.0]]), 0.8, seed=1)
        new = self._model(np.concatenate([blob, far]))
        report = model_drift(old, new)
        assert report.uncovered_fraction > 0.2
        assert report.cluster_count_delta == 1
        assert report.drift > 1.0

    def test_symmetricish_direction(self, blob):
        """Removing a cluster is as much drift as adding one."""
        small = self._model(blob)
        far, __ = gaussian_blobs([80], np.asarray([[30.0, 30.0]]), 0.8, seed=1)
        big = self._model(np.concatenate([blob, far]))
        assert model_drift(small, big).drift == pytest.approx(
            model_drift(big, small).drift
        )

    def test_empty_models(self, blob):
        from repro.core.models import LocalModel

        empty = LocalModel(0, np.empty((0, 0)), [], [], 0, "rep_scor", 1.0, 4)
        assert model_drift(empty, empty).drift == 0.0
        nonempty = self._model(blob)
        assert model_drift(empty, nonempty).uncovered_fraction == 1.0


class TestIncrementalClientSite:
    def _site(self, **kwargs):
        defaults = dict(
            eps_local=1.0, min_pts_local=4, dim=2, drift_threshold=0.2
        )
        defaults.update(kwargs)
        return IncrementalClientSite(0, **defaults)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            self._site(drift_threshold=-0.1)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            self._site(drift_threshold=math.nan)

    def test_first_transmission_always_happens(self, blob):
        site = self._site()
        site.add_objects(blob)
        model = site.maybe_transmit()
        assert model is not None
        assert site.n_transmissions == 1

    def test_no_retransmit_on_same_area_growth(self, blob):
        site = self._site()
        site.add_objects(blob[:60])
        site.maybe_transmit()
        site.add_objects(blob[60:])
        assert site.maybe_transmit() is None
        assert site.n_transmissions == 1

    def test_retransmit_on_new_cluster(self, blob):
        site = self._site()
        site.add_objects(blob)
        site.maybe_transmit()
        far, __ = gaussian_blobs([60], np.asarray([[25.0, 25.0]]), 0.8, seed=2)
        site.add_objects(far)
        assert site.maybe_transmit() is not None
        assert site.n_transmissions == 2

    def test_retransmit_after_mass_deletion(self, blob):
        site = self._site()
        ids = site.add_objects(blob)
        far, __ = gaussian_blobs([60], np.asarray([[25.0, 25.0]]), 0.8, seed=2)
        site.add_objects(far)
        site.maybe_transmit()
        for i in ids:  # the first cluster disappears entirely
            site.remove_object(i)
        report = site.drift_since_transmission()
        assert report.cluster_count_delta >= 1
        assert site.maybe_transmit() is not None

    def test_current_model_is_valid_rep_scor(self, blob):
        site = self._site()
        site.add_objects(blob)
        model = site.current_model()
        assert model.scheme == "rep_scor"
        assert len(model) >= 1
        assert model.n_objects == blob.shape[0]

    def test_counts_track_state(self, blob):
        site = self._site()
        ids = site.add_objects(blob)
        assert site.n_objects == blob.shape[0]
        assert site.n_local_clusters == 1
        site.remove_object(ids[0])
        assert site.n_objects == blob.shape[0] - 1

    def test_model_interoperates_with_server(self, blob):
        """The incremental site's model plugs into the normal server."""
        from repro.distributed.server import RoundCore

        site = self._site()
        site.add_objects(blob)
        server = RoundCore()
        server.apply(server.open_round(0))
        server.apply(server.arrive(site.maybe_transmit()))
        assert server.admitted_site_ids == [site.site_id]
        global_model = server.apply(server.commit_round(0))
        assert global_model.n_global_clusters >= 1

    def test_malformed_batch_adds_nothing(self, blob):
        site = self._site()
        site.add_objects(blob[:10])
        bad = blob[10:20].copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            site.add_objects(bad)
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            site.add_objects(np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"\(2,\)"):
            site.add_object([0.0, 0.0, 0.0])
        assert site.n_objects == 10
        assert site.add_objects(blob[10:12]) == [10, 11]

    def test_appends_grow_the_buffer_geometrically(self):
        """``add_object`` in a loop copies the site O(log n) times."""
        site = self._site()
        capacities = set()
        for i in range(1000):
            assert site.add_object([float(i), 0.0]) == i
            capacities.add(site._points.shape[0])
        assert len(capacities) <= 11


class TestFitOncePerChange:
    def test_readers_of_an_unchanged_site_share_one_fit(self, blob, monkeypatch):
        fits = []
        fit = incremental_site.build_rep_scor_model

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(incremental_site, "build_rep_scor_model", counting_fit)
        scenario = StreamingScenario(1, eps_local=1.0, min_pts_local=4)
        site = scenario.sites[0]
        site.add_objects(blob)
        assert site.maybe_transmit() is not None
        site.drift_since_transmission()
        assert site.n_local_clusters == 1
        assert site.maybe_transmit() is None
        scenario.eager_bytes_up()
        assert len(fits) == 1
        site.remove_object(0)
        site.drift_since_transmission()
        assert site.n_local_clusters == 1
        assert len(fits) == 2


# Batches of 0-40 rows: a Gaussian blob, one point repeated, or an integer
# lattice at half the fit's Eps, whose neighbour distances hit Eps exactly.
@st.composite
def _batches(draw):
    k = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("blob", "duplicates", "lattice")))
    if kind == "blob":
        return rng.uniform(-4.0, 4.0, size=2) + rng.normal(0.0, 0.6, size=(k, 2))
    if kind == "duplicates":
        return np.repeat(rng.uniform(-4.0, 4.0, size=(1, 2)), k, axis=0)
    return rng.integers(-3, 4, size=(k, 2)) * 0.5


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _batches()),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("remove_all"), st.none()),
    ),
    max_size=8,
)


class TestBookkeeping:
    """After any sequence of arrivals and departures the site sends the
    model of a fresh fit over its surviving objects, in id order."""

    @staticmethod
    def _assert_matches_fresh_fit(site, rows, live, metric):
        survivors = np.asarray([rows[i] for i in live], dtype=float).reshape(-1, 2)
        fresh = build_rep_scor_model(survivors, 1.0, 3, site_id=7, metric=metric)
        assert site.current_model() == fresh.model
        assert site.n_objects == len(live)
        assert site.n_local_clusters == fresh.clustering.n_clusters
        for dead in sorted(set(range(-1, len(rows) + 1)) - set(live)):
            with pytest.raises(KeyError):
                site.remove_object(dead)

    @pytest.mark.parametrize(
        "metric",
        ["euclidean", "squared_euclidean", minkowski_metric(3)],
        ids=["euclidean", "squared_euclidean", "minkowski3"],
    )
    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_model_is_a_fresh_fit_of_the_live_rows(self, metric, steps):
        site = IncrementalClientSite(
            7, eps_local=1.0, min_pts_local=3, dim=2, metric=metric
        )
        rows: list[np.ndarray] = []  # every row ever added, by id
        live: list[int] = []  # live ids, ascending
        self._assert_matches_fresh_fit(site, rows, live, metric)
        for op, arg in steps:
            if op == "add":
                ids = site.add_objects(arg)
                assert ids == list(range(len(rows), len(rows) + len(arg)))
                rows.extend(arg)
                live.extend(ids)
            elif op == "remove" and live:
                site.remove_object(live.pop(arg % len(live)))
            elif op == "remove_all":
                for object_id in live:
                    site.remove_object(object_id)
                live.clear()
            self._assert_matches_fresh_fit(site, rows, live, metric)
