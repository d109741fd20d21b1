"""The relabel fold: a site's cover memo ≡ a fresh relabel, every round.

:func:`~repro.core.relabel.relabel_site` keeps, per object, the nearest
covering representative over the model prefix a
:class:`~repro.core.relabel.CoverMemo` has seen, and a model that
extends that prefix folds in only its appended representatives.  The
contract is bit-identity with a relabel from scratch:

* generated streaming sessions drive the round core (open round, arrive,
  commit) with random batches per site and round — clumped and
  scattered points, and integer lattices where a representative lies at
  exactly ε_r from an object or several lie at equal distance — and
  after every commit each batch seen so far, relabeled through its
  site's memo, equals a fresh :func:`relabel_site` and
  :func:`relabel_site_reference` in labels, :class:`RelabelStats` and
  the memo's own state;
* the memo binds to its model prefix by value: an equal model refetched
  from scratch continues it, and anything it was not built from — a
  prefix rebuilt in another order or differing in one coordinate or one
  ε_r, other points, another metric, a shorter model — restarts it from
  empty;
* a fold first joins at ρ, a quarter of the largest folded ε_r, and
  only the objects with no cover within ρ, found or kept, go on to the
  cover grid's join: layouts on that boundary (a cover at exactly ρ, an
  ε_r below ρ, ties on either side of it, a kept cover at exactly ρ)
  equal the reference, and a 5-d fold, whose grids have no query table,
  takes the single join.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import relabel
from repro.core.global_model import GlobalModelRepairer, build_global_model
from repro.core.local import build_local_model
from repro.core.relabel import CoverMemo, relabel_site, relabel_site_reference
from repro.distributed.server import RoundCore
from repro.distributed.site import ClientSite
from repro.index.grid import GridIndex
from repro.service import wire
from tests.model_rows import Row, global_model, rows_of

GRID_METRICS = ["euclidean", "manhattan", "chebyshev", "squared_euclidean"]


def _batch(rng, layout: str, n: int) -> np.ndarray:
    if layout == "lattice":
        return rng.integers(0, 6, size=(n, 2)).astype(float)
    # Clumps around a few shared centres, so later rounds' representatives
    # land between earlier clusters and folds merge them.
    centres = np.asarray([[0.0, 0.0], [3.0, 0.0], [6.0, 1.0]])
    clumped = centres[rng.integers(0, 3, n // 2)] + rng.normal(
        0, 0.6, size=(n // 2, 2)
    )
    scattered = rng.uniform(-3, 9, size=(n - n // 2, 2))
    return np.concatenate([clumped, scattered])


def _fresh(points, labels, model, site_id, metric):
    memo = CoverMemo()
    fresh = relabel_site(
        points, labels, model, site_id=site_id, metric=metric, memo=memo
    )
    reference = relabel_site_reference(
        points, labels, model, site_id=site_id, metric=metric
    )
    return fresh, reference, memo


def _assert_identical(got, *expected):
    for labels, stats in expected:
        np.testing.assert_array_equal(got[0], labels)
        assert got[1] == stats


def _assert_same_memo(memo, fresh):
    np.testing.assert_array_equal(memo.nearest, fresh.nearest)
    np.testing.assert_array_equal(memo.distance, fresh.distance)


@given(
    seed=st.integers(0, 100_000),
    layout=st.sampled_from(["clumped", "lattice"]),
    metric=st.sampled_from(GRID_METRICS),
    n_sites=st.integers(1, 3),
    n_rounds=st.integers(2, 4),
    sizes=st.lists(st.integers(0, 60), min_size=12, max_size=12),
    min_pts=st.integers(2, 4),
)
@settings(max_examples=60, deadline=None)
def test_generated_session_folds_equal_fresh_relabels(
    seed, layout, metric, n_sites, n_rounds, sizes, min_pts
):
    rng = np.random.default_rng(seed)
    eps = 1.0 if layout == "lattice" else 0.8
    core = RoundCore(None, metric=metric)
    seen: list[ClientSite] = []
    for round_index in range(n_rounds):
        core.apply(core.open_round(round_index))
        for site_index in range(n_sites):
            n = sizes[round_index * n_sites + site_index]
            site = ClientSite(
                site_index + round_index * n_sites,
                _batch(rng, layout, n),
                eps_local=eps,
                min_pts_local=min_pts,
                metric=metric,
            )
            core.apply(core.arrive(site.run_local_clustering()))
            seen.append(site)
        model = core.apply(core.commit_round(round_index))
        for site in seen:
            site.receive_global_model(model)
            fresh, reference, memo = _fresh(
                site.points,
                site.local_outcome.clustering.labels,
                model,
                site.site_id,
                metric,
            )
            _assert_identical(
                (site.global_labels, site.relabel_stats), fresh, reference
            )
            _assert_same_memo(site._cover_memo, memo)


# ----------------------------------------------------------------------
# directed cases
# ----------------------------------------------------------------------
def _rep(x, y, eps_range=1.0, site_id=0, local_cluster_id=0):
    return Row((x, y), eps_range, site_id, local_cluster_id)


def _model(reps, labels):
    return global_model(reps, labels, eps_global=1.0)


def _relabel(points, model, memo, metric="euclidean"):
    labels = np.full(points.shape[0], -1, dtype=np.intp)
    return relabel_site(points, labels, model, metric=metric, memo=memo)


def _assert_fresh(points, model, memo, metric="euclidean"):
    """``memo`` is in the state of a fold from empty over ``model``."""
    fresh = CoverMemo()
    _relabel(points, model, fresh, metric)
    _assert_same_memo(memo, fresh)


POINTS = np.asarray([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 5.0]])


def test_a_tie_across_folds_keeps_the_kept_cover():
    """An appended representative exactly as near as the kept one does
    not replace it (the reference argmin keeps the lower index)."""
    kept = _rep(0.0, 1.0)
    base = _model([kept], [0])
    memo = CoverMemo()
    _relabel(POINTS, base, memo)
    grown = _model([kept, _rep(0.0, -1.0)], [0, 1])
    labels, stats = _relabel(POINTS, grown, memo)
    assert labels[0] == 0 and memo.nearest[0] == 0
    np.testing.assert_array_equal(
        labels, relabel_site_reference(POINTS, np.full(4, -1), grown)[0]
    )
    assert stats == relabel_site(POINTS, np.full(4, -1), grown)[1]


def test_a_strictly_nearer_appended_cover_wins():
    kept = _rep(0.0, 1.0, eps_range=1.5)
    memo = CoverMemo()
    _relabel(POINTS, _model([kept], [0]), memo)
    grown = _model([kept, _rep(0.5, 0.0)], [0, 1])
    labels, __ = _relabel(POINTS, grown, memo)
    assert labels[0] == 1 and labels[1] == 1
    _assert_fresh(POINTS, grown, memo)


def test_a_merge_reaches_objects_whose_cover_did_not_change():
    left, right = _rep(0.0, 0.0), _rep(2.0, 0.0)
    memo = CoverMemo()
    labels, __ = _relabel(POINTS, _model([left, right], [0, 1]), memo)
    assert labels.tolist() == [0, 0, 1, -1]
    # The fold appends a far representative and merges the two clusters.
    merged = _model([left, right, _rep(9.0, 9.0)], [0, 0, 2])
    labels, __ = _relabel(POINTS, merged, memo)
    assert labels.tolist() == [0, 0, 0, -1]


def test_a_rebuilt_model_restarts_the_memo():
    """A rebuild commit that reorders the representatives keeps the
    memo's prefix length but not its value, so it restarts the memo."""
    reps = [_rep(0.0, 0.0), _rep(2.0, 0.0)]
    memo = CoverMemo()
    _relabel(POINTS, _model(reps, [0, 1]), memo)
    # The same count of leading representatives, rebuilt in another
    # order: trusting the prefix would keep covers that now point at the
    # wrong representatives.
    rebuilt = _model([reps[1], reps[0], _rep(5.0, 5.0)], [0, 1, 2])
    labels, __ = _relabel(POINTS, rebuilt, memo)
    assert labels.tolist() == [1, 0, 0, 2]
    _assert_fresh(POINTS, rebuilt, memo)


@pytest.fixture()
def fold_starts(monkeypatch):
    """The first folded model index of every join the memos run."""
    starts: list[int] = []
    fold_in = CoverMemo._fold_in

    def spy(self, points, metric, model, base):
        starts.append(base)
        return fold_in(self, points, metric, model, base)

    monkeypatch.setattr(CoverMemo, "_fold_in", spy)
    return starts


def _refetched(model, known=None):
    """``model`` as a client rebuilds it from MODEL_DELTA payloads: a new
    object, from ``known`` (``None``: a fetch with ``known_reps=0``)."""
    n = 0 if known is None else len(known)
    payload = wire.encode_model_delta(wire.delta_from_model(model, n))
    return wire.apply_model_delta(known, wire.decode_model_delta(payload))


def test_an_equal_model_refetched_from_scratch_continues_the_memo(fold_starts):
    reps = [_rep(0.0, 0.0), _rep(2.0, 0.0), _rep(5.0, 5.0)]
    base = _model(reps[:2], [0, 1])
    memo = CoverMemo()
    _relabel(POINTS, base, memo)
    refetched = _refetched(base)
    assert refetched is not base and refetched == base
    labels, stats = _relabel(POINTS, refetched, memo)
    grown = _refetched(_model(reps, [0, 0, 2]))
    grown_labels, __ = _relabel(POINTS, grown, memo)
    # The refetch joined nothing; the grown refetch joined only its tail.
    assert fold_starts == [0, 2]
    for model, got in ((refetched, (labels, stats)), (grown, (grown_labels,))):
        expected = relabel_site_reference(POINTS, np.full(4, -1), model)
        np.testing.assert_array_equal(got[0], expected[0])
    assert stats == relabel_site_reference(POINTS, np.full(4, -1), base)[1]
    _assert_fresh(POINTS, grown, memo)


@pytest.mark.parametrize(
    "changed",
    [
        _rep(-1.0, 0.0),  # one coordinate of the first representative
        _rep(0.0, 0.0, eps_range=0.5),  # its ε_r alone
    ],
    ids=["coordinate", "eps_range"],
)
def test_a_prefix_differing_in_one_value_restarts_the_memo(fold_starts, changed):
    reps = [_rep(0.0, 0.0), _rep(2.0, 0.0)]
    memo = CoverMemo()
    _relabel(POINTS, _model(reps, [0, 1]), memo)
    model = _model([changed, reps[1], _rep(5.0, 5.0)], [0, 1, 2])
    labels, stats = _relabel(POINTS, model, memo)
    assert fold_starts == [0, 0]
    # Kept, the old cover of (1, 0) — the first representative at
    # distance 1 — would survive; it no longer covers that object.
    assert labels.tolist() == [0, 1, 1, 2]
    expected = relabel_site_reference(POINTS, np.full(4, -1), model)
    np.testing.assert_array_equal(labels, expected[0])
    assert stats == expected[1]
    _assert_fresh(POINTS, model, memo)


def test_other_points_restart_the_memo():
    reps = [_rep(0.0, 0.0), _rep(2.0, 0.0)]
    memo = CoverMemo()
    _relabel(POINTS, _model(reps[:1], [0]), memo)
    shifted = POINTS + [2.0, 0.0]
    model = _model(reps, [0, 1])
    labels, __ = _relabel(shifted, model, memo)
    assert labels.tolist() == [1, 1, -1, -1]
    _assert_fresh(shifted, model, memo)


def test_another_metric_restarts_the_memo():
    reps = [_rep(0.0, 0.0, eps_range=1.2), _rep(5.0, 5.0)]
    points = np.asarray([[1.0, 1.0], [3.0, 3.0]])
    memo = CoverMemo()
    labels, __ = _relabel(points, _model(reps[:1], [0]), memo, "chebyshev")
    assert labels.tolist() == [0, -1]
    model = _model(reps, [0, 1])
    labels, __ = _relabel(points, model, memo, "euclidean")
    assert labels.tolist() == [-1, -1]
    _assert_fresh(points, model, memo, "euclidean")


def test_a_shorter_model_restarts_the_memo():
    reps = [_rep(0.0, 0.0), _rep(1.0, 0.0), _rep(2.0, 0.0)]
    memo = CoverMemo()
    _relabel(POINTS, _model(reps, [0, 1, 2]), memo)
    shorter = _model(reps[:1], [0])
    labels, __ = _relabel(POINTS, shorter, memo)
    assert labels.tolist() == [0, 0, -1, -1]
    _assert_fresh(POINTS, shorter, memo)


def test_an_empty_model_between_two_folds():
    reps = [_rep(0.0, 0.0), _rep(2.0, 0.0)]
    memo = CoverMemo()
    _relabel(POINTS, _model(reps[:1], [0]), memo)
    labels, stats = _relabel(POINTS, _model([], []), memo)
    assert labels.tolist() == [-1] * 4 and stats.n_covered == 0
    model = _model(reps, [0, 1])
    labels, __ = _relabel(POINTS, model, memo)
    assert labels.tolist() == [0, 0, 1, -1]
    _assert_fresh(POINTS, model, memo)


def test_a_zero_point_site():
    empty = np.empty((0, 2))
    memo = CoverMemo()
    for reps in ([_rep(0.0, 0.0)], [_rep(0.0, 0.0), _rep(1.0, 1.0)]):
        model = _model(reps, list(range(len(reps))))
        labels, stats = _relabel(empty, model, memo)
        assert labels.size == 0 and stats.n_objects == 0
        assert stats == relabel_site_reference(empty, labels, model)[1]


@pytest.mark.parametrize("metric", GRID_METRICS)
def test_a_repairer_fold_of_every_site_model_equals_fresh(metric):
    """Sites relabeled against a base model, then against the repairer's
    fold of more sites (whose model keeps the base's representatives as
    its prefix), match a fresh relabel against the fold."""
    rng = np.random.default_rng(7)
    sites = [_batch(rng, "clumped", 80) for __ in range(6)]
    outcomes = [
        build_local_model(points, 0.8, 3, site_id=i, metric=metric)
        for i, points in enumerate(sites)
    ]
    base, __ = build_global_model([o.model for o in outcomes[:3]], metric=metric)
    repairer = GlobalModelRepairer(base, metric=metric)
    for outcome in outcomes[3:]:
        repairer.add_model(outcome.model)
    folded = repairer.model()
    assert rows_of(folded)[: len(base)] == rows_of(base)
    for i, (points, outcome) in enumerate(zip(sites[:3], outcomes)):
        memo = CoverMemo()
        labels = outcome.clustering.labels
        relabel_site(points, labels, base, site_id=i, metric=metric, memo=memo)
        got = relabel_site(
            points, labels, folded, site_id=i, metric=metric, memo=memo
        )
        fresh, reference, fresh_memo = _fresh(points, labels, folded, i, metric)
        _assert_identical(got, fresh, reference)
        _assert_same_memo(memo, fresh_memo)


def test_the_reference_kernel_ignores_the_memo():
    memo = CoverMemo()
    model = _model([_rep(0.0, 0.0)], [0])
    labels = np.full(4, -1)
    got = relabel_site(POINTS, labels, model, kernel="reference", memo=memo)
    np.testing.assert_array_equal(got[0], [0, 0, -1, -1])
    assert memo.nearest.size == 0


def test_client_site_keeps_one_memo_across_relabels():
    points = _batch(np.random.default_rng(3), "clumped", 60)
    site = ClientSite(0, points, eps_local=0.8, min_pts_local=3)
    local = site.run_local_clustering()
    repairer = GlobalModelRepairer(build_global_model([local])[0])
    site.receive_global_model(repairer.model())
    memo = site._cover_memo
    other = ClientSite(1, points + 0.3, eps_local=0.8, min_pts_local=3)
    repairer.add_model(other.run_local_clustering())
    site.receive_global_model(repairer.model())
    assert site._cover_memo is memo
    _assert_same_memo(memo, _fresh(
        points, site.local_outcome.clustering.labels, repairer.model(), 0,
        "euclidean",
    )[2])



# ----------------------------------------------------------------------
# the near stage's boundary
# ----------------------------------------------------------------------
#: Far representatives, one per cell of either grid, so a fold's cover
#: grid (cell edge 4) and near grid (cell edge ρ = 1) both fill enough
#: cells for a query table and the near stage runs.  They cover none of
#: the objects below.
FILLER = [
    _rep(100.0 + 10 * i, 100.0 + 10 * j) for i in range(4) for j in range(4)
]

#: The objects of the boundary layouts, ten apart so that no
#: representative placed for one reaches another.
OBJECTS = np.asarray([[0.0, 10.0 * k] for k in range(6)])


@pytest.fixture()
def small_folds_staged(monkeypatch):
    """Let folds of a few objects take the near stage, which by default
    waits for ``_NEAR_MIN_OBJECTS`` (a speed choice, not an exactness
    one)."""
    monkeypatch.setattr(relabel, "_NEAR_MIN_OBJECTS", 0)


@pytest.fixture()
def joins(monkeypatch):
    """``(cell edge, queries)`` of every grid join a fold makes."""
    calls: list[tuple[float, np.ndarray]] = []
    join = GridIndex.join

    def spy(self, queries, eps, **kwargs):
        calls.append((self.cell_size, np.array(queries)))
        return join(self, queries, eps, **kwargs)

    monkeypatch.setattr(GridIndex, "join", spy)
    return calls


def _labels_equal_reference(points, model, metric="euclidean"):
    memo = CoverMemo()
    got = _relabel(points, model, memo, metric)
    expected = relabel_site_reference(
        points, np.full(len(points), -1), model, metric=metric
    )
    np.testing.assert_array_equal(got[0], expected[0])
    assert got[1] == expected[1]
    return memo


def _boundary_model():
    reps = [
        _rep(3.0, 0.0, 4.0),  # 0: covers object 0 at 3
        _rep(1.0, 0.0, 4.0),  # 1: covers object 0 at exactly ρ
        _rep(0.0, 10.5, 0.25),  # 2: ε_r below ρ, misses object 1 at 0.5
        _rep(0.0, 12.0, 4.0),  # 3: covers object 1 at 2
        _rep(0.0, 20.25, 0.5),  # 4: ε_r below ρ, covers object 2 at 0.25
        _rep(2.0, 30.0, 4.0),  # 5: ties with 6 at 2 for object 3
        _rep(-2.0, 30.0, 4.0),  # 6
        _rep(0.0, 41.0, 1.0),  # 7: ε_r = ρ, ties with 8 at exactly ρ
        _rep(0.0, 39.0, 4.0),  # 8
        *FILLER,  # object 5 has no cover
    ]
    return _model(reps, range(len(reps)))


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
def test_covers_within_rho_resolve_in_the_near_join(
    small_folds_staged, joins, metric
):
    """ρ is 1 (the largest ε_r is 4).  Each object's representatives lie
    on one axis, so the three metrics measure the same distances."""
    memo = _labels_equal_reference(OBJECTS, _boundary_model(), metric)
    assert memo.nearest.tolist() == [1, 3, 4, 5, 7, -1]
    assert memo.distance.tolist() == [1.0, 2.0, 0.25, 2.0, 1.0, np.inf]
    assert [cell for cell, __ in joins] == [1.0, 4.0]
    np.testing.assert_array_equal(joins[0][1], OBJECTS)
    # Only the objects with no cover within ρ reach the cover grid's join.
    np.testing.assert_array_equal(joins[1][1], OBJECTS[[1, 3, 5]])


def test_a_fold_of_few_objects_takes_the_single_join(joins):
    """Below ``_NEAR_MIN_OBJECTS`` objects a second join costs more than
    the pairs it saves, so the cover grid's join runs alone."""
    assert len(OBJECTS) < relabel._NEAR_MIN_OBJECTS
    memo = _labels_equal_reference(OBJECTS, _boundary_model())
    assert memo.nearest.tolist() == [1, 3, 4, 5, 7, -1]
    assert [cell for cell, __ in joins] == [4.0]


def test_a_cover_kept_at_exactly_rho_skips_the_cover_join(
    small_folds_staged, joins
):
    """Kept covers at exactly the fold's ρ (1) and beyond it: an object
    whose kept cover is within ρ has nothing strictly nearer beyond ρ, so
    it goes no further than the near join."""
    points = OBJECTS[:5]
    base_reps = [
        _rep(1.0, 0.0, 4.0),  # object 0 kept at exactly ρ
        _rep(1.0, 10.0, 4.0),  # object 1 kept at exactly ρ
        _rep(0.0, 22.0, 4.0),  # object 2 kept at 2
        _rep(0.0, 32.0, 4.0),  # object 3 kept at 2
        _rep(0.0, 41.0, 4.0),  # object 4 kept at exactly ρ
    ]
    appended = [
        _rep(0.0, 1.0, 4.0),  # ties object 0's kept cover: not taken
        _rep(0.0, 10.5, 4.0),  # strictly nearer for object 1
        _rep(1.5, 20.0, 4.0),  # strictly nearer for object 2, beyond ρ
        _rep(0.0, 27.0, 4.0),  # farther than object 3's kept cover
        _rep(0.0, 42.5, 4.0),  # covers object 4 beyond ρ only
        *FILLER,
    ]
    memo = CoverMemo()
    _relabel(points, _model(base_reps, range(5)), memo)
    joins.clear()
    reps = base_reps + appended
    model = _model(reps, range(len(reps)))
    labels, stats = _relabel(points, model, memo)
    expected = relabel_site_reference(points, np.full(5, -1), model)
    np.testing.assert_array_equal(labels, expected[0])
    assert stats == expected[1]
    assert memo.nearest.tolist() == [0, 6, 7, 3, 4]
    assert memo.distance.tolist() == [1.0, 0.5, 1.5, 2.0, 1.0]
    assert [cell for cell, __ in joins] == [1.0, 4.0]
    np.testing.assert_array_equal(joins[1][1], points[[2, 3]])
    _assert_fresh(points, model, memo)


def test_a_five_dimensional_fold_takes_the_single_join(small_folds_staged, joins):
    """3^5 stencil cells outnumber the cover grid's occupied cells, so it
    has no query table and the fold makes the cover grid's join alone."""
    rng = np.random.default_rng(5)
    reps = [
        Row(tuple(point), float(eps), 0, 0)
        for point, eps in zip(
            rng.integers(0, 8, size=(60, 5)).astype(float),
            rng.choice([0.5, 1.0, 2.0, 4.0], size=60),
        )
    ]
    model = _model(reps, rng.integers(0, 6, size=60))
    points = rng.integers(0, 16, size=(200, 5)) / 2.0
    memo = _labels_equal_reference(points, model)
    assert (memo.nearest >= 0).sum() > 50
    assert [cell for cell, __ in joins] == [4.0]
    (__, cover), (__, near) = model._cover_grids.values()
    assert near is None and cover.n_occupied_cells < 3**5
