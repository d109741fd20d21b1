"""Incremental site benchmark — a streaming site that re-fits per model.

The extension the paper motivates in §4: a site's data evolves and it
derives a fresh local model only now and then (once per round in
:class:`~repro.distributed.StreamingScenario`).  The site keeps its live
objects and re-fits them with DBSCAN when it derives a model, so an
arrival or a departure costs only bookkeeping and a derived model costs
one batch fit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import dbscan
from repro.distributed.incremental_site import IncrementalClientSite

N_STREAM = 400
EPS, MIN_PTS = 1.2, 5
ARRIVALS_PER_MODEL = 10


@pytest.fixture(scope="module")
def stream(bench_dataset_small):
    rng = np.random.default_rng(3)
    points = bench_dataset_small.points
    chosen = rng.choice(points.shape[0], size=N_STREAM, replace=False)
    return points[chosen]


def _site() -> IncrementalClientSite:
    return IncrementalClientSite(0, eps_local=EPS, min_pts_local=MIN_PTS, dim=2)


def test_site_insert_stream(benchmark, stream):
    """One object at a time, a model derived every tenth arrival."""

    def run():
        site = _site()
        for i, p in enumerate(stream, start=1):
            site.add_object(p)
            if i % ARRIVALS_PER_MODEL == 0:
                site.current_model()
        return site

    site = benchmark.pedantic(run, rounds=3, iterations=1)
    assert site.n_local_clusters > 0


def test_repeated_batch_reclustering(benchmark, stream):
    """A bare DBSCAN over the same prefixes: the site's floor."""

    def run():
        last = None
        for end in range(ARRIVALS_PER_MODEL, N_STREAM + 1, ARRIVALS_PER_MODEL):
            last = dbscan(stream[:end], EPS, MIN_PTS)
        return last

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.n_clusters > 0


def test_site_mixed_workload(benchmark, stream):
    """Arrivals with random departures, a model every tenth arrival."""

    def run():
        site = _site()
        live = []
        rng = np.random.default_rng(4)
        for i, p in enumerate(stream, start=1):
            live.append(site.add_object(p))
            if len(live) > 50 and rng.random() < 0.2:
                site.remove_object(live.pop(int(rng.integers(len(live)))))
            if i % ARRIVALS_PER_MODEL == 0:
                site.current_model()
        return site

    site = benchmark.pedantic(run, rounds=2, iterations=1)
    assert site.n_objects > 0
