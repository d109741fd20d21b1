"""Label queries share folds: concurrent queries against one committed
model are labeled by one ``coverage_labels`` call, and every reply equals
a lone relabel of its own points bit for bit.

The folds are made deterministic by wrapping the service module's
``coverage_labels``: the first fold waits for a release event while the
test queues more queries behind it, so the second fold's make-up is
known.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.clustering.labels import NOISE
from repro.core.local import build_local_model
from repro.core.relabel import coverage_labels, relabel_site
from repro.data.datasets import load_dataset
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    wire,
)
from repro.service import server as server_module
from tests.model_rows import local_model


class HeldFolds:
    """Stands in for the service's ``coverage_labels``: records each
    fold's row count, holds the first fold until :attr:`release` is set,
    and raises in the folds numbered in ``fail``."""

    def __init__(self, fail: tuple[int, ...] = ()) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self.rows: list[int] = []
        self.fail = fail

    def __call__(self, points, *args, **kwargs):
        self.rows.append(points.shape[0])
        if len(self.rows) == 1:
            self.entered.set()
            assert self.release.wait(30.0)
        if len(self.rows) in self.fail:
            raise RuntimeError(f"fold {len(self.rows)} failed")
        return coverage_labels(points, *args, **kwargs)


@pytest.fixture()
def held(monkeypatch):
    folds = HeldFolds()
    monkeypatch.setattr(server_module, "coverage_labels", folds)
    yield folds
    folds.release.set()


@pytest.fixture(scope="module")
def data():
    return load_dataset("A", cardinality=600, seed=0)


def _site_model(data, site_id: int):
    """Site ``site_id``'s local model: the left (0) or right (1) half of
    the data, so a model of one half leaves the other mostly uncovered."""
    left = data.points[:, 0] < np.median(data.points[:, 0])
    points = data.points[left if site_id == 0 else ~left]
    return build_local_model(
        points, data.eps_local, data.min_pts, site_id=site_id
    ).model


def _start(**config) -> ServiceHandle:
    return ServiceHandle.start(ServiceConfig(metrics_port=None, **config))


def _commit(handle: ServiceHandle, round_index: int, *models):
    """Commit one round of ``models``; returns the served model."""
    with ServiceClient(handle.host, handle.port) as client:
        if round_index:
            client.open_round(round_index)
        for model in models:
            client.submit(model)
        client.commit_round(round_index)
    return handle.service.server.committed


def _lone(points: np.ndarray, model) -> np.ndarray:
    labels, __ = relabel_site(
        points, np.full(points.shape[0], NOISE, dtype=np.intp), model, site_id=None
    )
    return labels


def _wait_for(condition, timeout_s: float = 20.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.002)


class Queries:
    """Label queries sent from their own threads and connections; each
    outcome is the labels, the ``ServiceError`` or the socket error."""

    def __init__(self, handle: ServiceHandle) -> None:
        self.handle = handle
        self.outcomes: dict[int, object] = {}
        self.threads: list[threading.Thread] = []

    def send(self, key: int, points: np.ndarray) -> threading.Thread:
        def ask() -> None:
            try:
                with ServiceClient(self.handle.host, self.handle.port) as client:
                    self.outcomes[key] = client.query(points)
            except (ServiceError, OSError, wire.WireError) as error:
                self.outcomes[key] = error

        thread = threading.Thread(target=ask, daemon=True)
        thread.start()
        self.threads.append(thread)
        return thread

    def queued(self, k: int) -> None:
        """Wait until ``k`` queries are queued for the next fold."""
        _wait_for(lambda: len(self.handle.service._label_queue) == k)

    def join(self) -> dict[int, object]:
        for thread in self.threads:
            thread.join(30.0)
            assert not thread.is_alive()
        return self.outcomes


def _batch_histogram(handle: ServiceHandle) -> dict:
    return handle.service.metrics.to_dict()["histograms"]["service.label_query_batch"]


def test_queued_queries_are_answered_by_one_fold(data, held):
    with _start() as handle:
        model = _commit(handle, 0, _site_model(data, 0), _site_model(data, 1))
        blocks = [data.points[lo : lo + 64 + 7 * lo % 50] for lo in range(0, 500, 90)]
        queries = Queries(handle)
        queries.send(0, blocks[0])
        assert held.entered.wait(10.0)
        for key, block in enumerate(blocks[1:], start=1):
            queries.send(key, block)
        queries.queued(len(blocks) - 1)
        held.release.set()
        outcomes = queries.join()
        histogram = _batch_histogram(handle)
    assert held.rows == [len(blocks[0]), sum(map(len, blocks[1:]))]
    assert (histogram["count"], histogram["sum"]) == (2, len(blocks))
    for key, block in enumerate(blocks):
        assert np.array_equal(outcomes[key], _lone(block, model)), key


def test_mixed_sizes_with_empty_and_single_row_queries(data, held):
    with _start() as handle:
        model = _commit(handle, 0, _site_model(data, 0), _site_model(data, 1))
        points = data.points
        blocks = [points[:256], points[300:301], points[:0], points[10:47], points[5:6]]
        queries = Queries(handle)
        queries.send(0, blocks[0])
        assert held.entered.wait(10.0)
        for key in (1, 3, 4):
            queries.send(key, blocks[key])
        # A query without rows joins no fold: it is answered while the
        # first fold is still held.
        queries.send(2, blocks[2]).join(10.0)
        assert np.array_equal(queries.outcomes[2], np.empty(0, dtype=np.intp))
        queries.queued(3)
        held.release.set()
        outcomes = queries.join()
        served = handle.service.metrics.value("service.labels_served")
    assert held.rows == [256, 1 + 37 + 1]
    assert served == 256 + 1 + 37 + 1
    for key, block in enumerate(blocks):
        assert np.array_equal(outcomes[key], _lone(block, model)), key


def test_the_counters_split_each_folds_points_between_table_and_fold(data):
    """``service.label_points_from_table`` and ``service.label_points_folded``
    add up to the points queried, and the folded ones are the points
    ``coverage_labels`` sends through ``relabel_site``."""
    with _start() as handle:
        model = _commit(handle, 0, _site_model(data, 0), _site_model(data, 1))
        blocks = [data.points[:256], data.points[256:600]]
        with ServiceClient(handle.host, handle.port) as client:
            outcomes = [client.query(block) for block in blocks]
        from_table = handle.service.metrics.value("service.label_points_from_table")
        folded = handle.service.metrics.value("service.label_points_folded")
    assert folded == sum(coverage_labels(block, model)[1] for block in blocks)
    assert from_table + folded == 600
    assert from_table > folded
    for outcome, block in zip(outcomes, blocks):
        assert np.array_equal(outcome, _lone(block, model))


def test_an_empty_model_answers_either_dimensionality_without_a_fold(held):
    with _start() as handle:
        model = _commit(handle, 0, local_model(0, []), local_model(1, []))
        assert len(model) == 0
        blocks = [np.arange(10.0).reshape(5, 2), np.arange(9.0).reshape(3, 3)]
        queries = Queries(handle)
        for key, block in enumerate(blocks):
            queries.send(key, block)
        outcomes = queries.join()
    assert held.rows == []
    for key, block in enumerate(blocks):
        assert np.array_equal(outcomes[key], np.full(len(block), NOISE))
        assert np.array_equal(outcomes[key], _lone(block, model))


def test_queries_either_side_of_a_commit_get_the_model_they_arrived_at(data, held):
    with _start() as handle:
        first = _commit(handle, 0, _site_model(data, 0))
        right = data.points[data.points[:, 0] >= np.median(data.points[:, 0])]
        blocks = [right[:40], right[40:120], right[120:200], right[200:260]]
        queries = Queries(handle)
        queries.send(0, blocks[0])
        assert held.entered.wait(10.0)
        queries.send(1, blocks[1])
        queries.queued(1)
        second = _commit(handle, 1, _site_model(data, 1))
        assert second is not first
        queries.send(2, blocks[2])
        queries.send(3, blocks[3])
        queries.queued(3)
        held.release.set()
        outcomes = queries.join()
        histogram = _batch_histogram(handle)
    # The query queued before the commit folds alone, against its model.
    assert held.rows == [40, 80, 80 + 60]
    assert (histogram["count"], histogram["sum"]) == (3, 4)
    models = [first, first, second, second]
    for key, block in enumerate(blocks):
        assert np.array_equal(outcomes[key], _lone(block, models[key])), key
    assert not np.array_equal(_lone(blocks[1], first), _lone(blocks[1], second))


def test_a_fold_that_raises_fails_its_queries_and_the_next_is_served(
    data, monkeypatch
):
    folds = HeldFolds(fail=(2,))
    monkeypatch.setattr(server_module, "coverage_labels", folds)
    try:
        with _start() as handle:
            model = _commit(handle, 0, _site_model(data, 0), _site_model(data, 1))
            blocks = [data.points[:30], data.points[30:90], data.points[90:100]]
            queries = Queries(handle)
            queries.send(0, blocks[0])
            assert folds.entered.wait(10.0)
            queries.send(1, blocks[1])
            queries.send(2, blocks[2])
            queries.queued(2)
            folds.release.set()
            outcomes = queries.join()
            with ServiceClient(handle.host, handle.port) as client:
                after = client.query(data.points[200:280])
            errors = handle.service.metrics.value("service.internal_errors")
    finally:
        folds.release.set()
    assert folds.rows == [30, 70, 80]
    assert np.array_equal(outcomes[0], _lone(blocks[0], model))
    for key in (1, 2):
        assert isinstance(outcomes[key], ServiceError)
        assert outcomes[key].status == "internal_error"
        assert "fold 2 failed" in outcomes[key].detail
    assert errors == 2
    assert np.array_equal(after, _lone(data.points[200:280], model))


def test_stop_during_a_held_fold_leaves_nothing_pending(data, held):
    handle = _start(shutdown_grace_s=0.2)
    service = handle.service
    leftover: list = []
    stop = service.stop

    async def stop_and_look() -> None:
        await stop()
        leftover.extend(
            task for task in asyncio.all_tasks() if task is not asyncio.current_task()
        )

    service.stop = stop_and_look
    _commit(handle, 0, _site_model(data, 0), _site_model(data, 1))
    queries = Queries(handle)
    queries.send(0, data.points[:50])
    assert held.entered.wait(10.0)
    queries.send(1, data.points[50:60])
    queries.send(2, data.points[60:70])
    queries.queued(2)
    stopper = threading.Thread(target=handle.stop, daemon=True)
    stopper.start()
    # The queued queries hold no work: they hear of the stop at once.
    # The held fold's query is cut off after the grace.
    outcomes = queries.join()
    held.release.set()
    stopper.join(20.0)
    assert not stopper.is_alive()
    for key in (1, 2):
        assert isinstance(outcomes[key], ServiceError)
        assert outcomes[key].status == "shutting_down"
    assert isinstance(outcomes[0], (OSError, wire.WireError))
    assert leftover == []
    assert service._label_queue == [] and service._label_folds is None
    assert service.metrics.value("service.shutdown_notices") == 2
