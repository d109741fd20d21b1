"""Replaying the round core's decision log equals the live core.

:class:`~repro.distributed.server.RoundCore` is the sans-I/O round
protocol behind the in-process runner, the streaming oracle and the
socket service, whose journal holds the core's decisions.  Generated
schedules of opens, arrivals (valid, corrupt, invalid, duplicate, late)
and commits drive a live core, and every schedule checks that:

* applying the decision log to a fresh core reproduces the live state
  at every record boundary (a journal cut anywhere replays cleanly);
* a decision without a journal record — a duplicate, a late model, a
  re-opened or re-committed round — changes no durable state;
* the model folded round by round equals a from-scratch build up to
  label names.

The same replay runs once more through the service's real journal: a
write-ahead log that spans three server generations, cut at every
record boundary, restarts to the state the live service had when it
wrote that record — once for a streaming session, once for a one-shot
deployment driven by bare uploads alone (round 0 opened by the first).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.global_model import build_global_model
from repro.core.models import LocalModel
from repro.distributed.server import RoundCore
from repro.service import ServiceConfig, journal, wire
from repro.service.server import DBDCService

DEADLINE_S = 1.0
#: Representative positions on a coarse grid, so folds both merge and
#: add singletons.
_SPOTS = [(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (5.5, 5.0), (9.0, 0.0)]


def _model(site_id: int, spots: list[int], *, claimed_site: int | None = None):
    claimed = site_id if claimed_site is None else claimed_site
    return LocalModel(
        site_id=site_id,
        points=np.asarray([_SPOTS[spot] for spot in spots]).reshape(len(spots), 2),
        eps_ranges=[0.8] * len(spots),
        local_cluster_ids=list(range(len(spots))),
        site_ids=[claimed] * len(spots),
        n_objects=len(spots),
        scheme="rep_scor",
        eps_local=0.5,
        min_pts_local=2,
    )


_SPOT_LIST = st.lists(st.integers(0, len(_SPOTS) - 1), min_size=1, max_size=3)
_ARRIVAL = st.tuples(
    st.just("arrive"),
    st.sampled_from(["valid", "valid", "corrupt", "invalid", "duplicate", "late"]),
    # Mostly models with representatives; now and then an empty one.
    st.one_of(_SPOT_LIST, _SPOT_LIST, _SPOT_LIST, st.just([])),
)
#: Round offsets relative to the next valid index: mostly valid, and now
#: and then a stale or premature one.
_OFFSET = st.sampled_from([0, 0, 0, -1, 1])
#: One round: open, a few arrivals, commit.
_ROUND = st.tuples(_OFFSET, st.lists(_ARRIVAL, max_size=5), _OFFSET).map(
    lambda drawn: [("open", drawn[0]), *drawn[1], ("commit", drawn[2])]
)
_STEP = st.one_of(
    st.tuples(st.just("open"), _OFFSET), _ARRIVAL, st.tuples(st.just("commit"), _OFFSET)
)
#: A schedule: maybe a few arrivals before any round (refused: no round
#: is open), then rounds, then loose steps in any order.
_SCHEDULE = st.tuples(
    st.one_of(st.just([]), st.just([]), st.just([]), st.lists(_ARRIVAL, max_size=2)),
    st.lists(_ROUND, min_size=1, max_size=5),
    st.lists(_STEP, max_size=6),
).map(
    lambda drawn: drawn[0]
    + [step for round_ in drawn[1] for step in round_]
    + drawn[2]
)


def _fingerprint(core: RoundCore):
    model = core.committed
    return (
        None
        if model is None
        else (
            model.eps_global,
            model.global_labels.tolist(),
            list(zip(model.site_ids.tolist(), model.local_cluster_ids.tolist())),
        ),
        core.rounds_committed,
        core.round_index,
        core.admitted_site_ids,
        [(model.site_id, reason) for model, reason in core.quarantined_models],
        core.n_repairs,
    )


def _run_schedule(steps):
    """Drive a live core through ``steps``; return its decision log and
    the live fingerprint after every logged decision.  A decision without
    a journal record must leave the fingerprint as it was."""
    core = RoundCore(expected_sites=None)
    log, snapshots = [], [_fingerprint(core)]
    now = 0.0
    next_site = 0
    opened_at = 0.0
    for step in steps:
        now += 0.01  # a whole schedule stays inside one deadline
        if step[0] == "open":
            index = core.rounds_committed + step[1]
            decision = core.open_round(index, at_s=now, deadline_s=DEADLINE_S)
            if decision.record:
                opened_at = now
        elif step[0] == "commit":
            target = core.round_index
            index = (core.rounds_committed if target is None else target) + step[1]
            decision = core.commit_round(index)
        else:
            __, kind, spots = step
            at_s = now
            crc_ok = True
            if kind == "duplicate" and core.admitted_site_ids:
                model = _model(core.admitted_site_ids[-1], spots)
            else:
                model = _model(
                    next_site,
                    spots,
                    claimed_site=next_site + 1 if kind == "invalid" else None,
                )
                next_site += 1
                crc_ok = kind != "corrupt"
                if kind == "late":
                    at_s = opened_at + DEADLINE_S + 0.5
            decision = core.arrive(model, at_s=at_s, crc_ok=crc_ok)
        core.apply(decision)
        if decision.record is not None:
            log.append(decision)
            snapshots.append(_fingerprint(core))
        else:
            assert _fingerprint(core) == snapshots[-1], decision
    return core, log, snapshots


def _same_partition(a, b) -> bool:
    """Whether two label vectors differ only by a renaming of ids."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len({x for x, __ in pairs}) == len({y for __, y in pairs})


class TestReplayEqualsLive:
    @settings(max_examples=150, deadline=None)
    @given(steps=_SCHEDULE)
    def test_decision_log_replays_to_the_live_core(self, steps):
        live, log, snapshots = _run_schedule(steps)
        for cut in range(len(log) + 1):
            replayed = RoundCore(expected_sites=None)
            for decision in log[:cut]:
                replayed.apply(decision)
            assert _fingerprint(replayed) == snapshots[cut]
        assert snapshots[-1] == _fingerprint(live)

    @settings(max_examples=100, deadline=None)
    @given(steps=_SCHEDULE)
    def test_folded_model_equals_a_rebuild(self, steps):
        """Repair equals rebuild up to label names: the session model
        the core folded round by round clusters its representatives as a
        from-scratch build over every admitted model does (all
        representatives share one radius, so the frozen ``eps_global``
        is the rebuild's default too)."""
        live, __, __ = _run_schedule(steps)
        if live.round_index is not None:
            live.apply(live.commit_round(live.round_index))
        if live.committed is None:
            return
        rebuilt, __ = build_global_model(
            sorted(live.local_models, key=lambda model: model.site_id)
        )
        folded = live.committed
        np.testing.assert_array_equal(folded.site_ids, rebuilt.site_ids)
        np.testing.assert_array_equal(
            folded.local_cluster_ids, rebuilt.local_cluster_ids
        )
        assert folded.eps_global == rebuilt.eps_global
        assert _same_partition(folded.global_labels, rebuilt.global_labels)

    def test_schedule_exercises_every_verdict(self):
        """The generator's vocabulary reaches every admission verdict."""
        steps = [
            ("open", 0),
            ("arrive", "valid", [0, 1]),
            ("arrive", "duplicate", [0]),
            ("arrive", "corrupt", [2]),
            ("arrive", "invalid", [3]),
            ("arrive", "late", [4]),
            ("commit", 0),
            ("arrive", "valid", [2]),
            ("open", 0),
            ("open", 0),
            ("arrive", "valid", [2, 3]),
            ("commit", 0),
            ("commit", -1),
        ]
        live, log, __ = _run_schedule(steps)
        assert [d.record for d in log] == [
            "ROUND_OPEN",
            "MODEL_ADMITTED",
            "QUARANTINE",
            "QUARANTINE",
            "ROUND_COMMIT",
            "ROUND_OPEN",
            "MODEL_ADMITTED",
            "ROUND_COMMIT",
        ]
        assert live.rounds_committed == 2
        assert live.n_repairs == 1
        assert live.rejected_site_ids == [3]


def _upload(model: LocalModel, *, corrupt: bool = False) -> wire.Frame:
    data = bytearray(
        wire.encode_frame(
            wire.FrameKind.LOCAL_MODEL,
            wire.encode_local_model(model),
            site_id=model.site_id,
        )
    )
    if corrupt:
        data[-1] ^= 0xFF  # a representative byte: the site id survives
    frame, __ = wire.decode_frame(bytes(data), verify_crc=False)
    return frame


def _booted(directory, expected_sites=None) -> DBDCService:
    """A socket-free service recovered from the journal in ``directory``."""
    service = DBDCService(
        ServiceConfig(
            journal_dir=str(directory),
            metrics_port=None,
            expected_sites=expected_sites,
        )
    )
    service._recover_from_journal()
    return service


class TestServiceJournalReplay:
    def test_journal_cut_at_every_record_restarts_to_the_live_state(
        self, tmp_path
    ):
        """One ``wal.log`` spans three server generations: a restart
        between rounds and one mid-round each replay to the state the
        live service had, and a cut at every record boundary of the
        whole log restarts to the live state at that record."""
        directory = tmp_path / "live"
        live = _booted(directory)
        snapshots = [_fingerprint(live.server)]  # after the EPOCH record

        def restart():
            nonlocal live
            before = _fingerprint(live.server)
            live._journal.close()
            live = _booted(directory)
            assert _fingerprint(live.server) == before

        steps = [
            lambda: live._open_round(0),
            lambda: live._admit(_upload(_model(0, [0, 1]))),
            lambda: live._admit(_upload(_model(1, [2]), corrupt=True)),
            # More representatives than objects: fails validate().
            lambda: live._admit(
                _upload(dataclasses.replace(_model(2, [3, 4]), n_objects=1))
            ),
            lambda: live._admit(_upload(_model(0, [4]))),  # duplicate
            lambda: live._admit(_upload(_model(3, [2, 4]))),
            lambda: live._commit_round(0),
            restart,  # between rounds
            lambda: live._open_round(1),
            lambda: live._admit(_upload(_model(4, [1, 3]))),
            restart,  # mid-round
            lambda: live._commit_round(1),
            lambda: live._open_round(2),
            lambda: live._admit(_upload(_model(5, [0]))),
        ]
        for step in steps:
            journal_before = live._journal
            written = journal_before.records_written
            step()
            if live._journal is not journal_before or (
                live._journal.records_written > written
            ):
                snapshots.append(_fingerprint(live.server))
        live._journal.close()
        assert live._epoch == 3
        assert [path.name for path in directory.iterdir()] == ["wal.log"]
        records = live._journal.recover().records
        assert len(records) == len(snapshots) == 14
        assert [r.kind for r in records].count(journal.RecordKind.EPOCH) == 3
        assert live.server.n_repairs == 1
        assert live.server.quarantined_site_ids == [1, 2]
        for cut in range(1, len(records) + 1):
            cut_dir = tmp_path / f"cut-{cut}"
            cut_dir.mkdir()
            (cut_dir / "wal.log").write_bytes(
                b"".join(
                    journal.encode_record(r.kind, r.seq, r.payload)
                    for r in records[:cut]
                )
            )
            restarted = _booted(cut_dir)
            assert _fingerprint(restarted.server) == snapshots[cut - 1], cut
            restarted._journal.close()


    def test_one_shot_journal_cut_at_every_record_restarts_to_the_live_state(
        self, tmp_path
    ):
        """Bare uploads alone: the first opens round 0 (``ROUND_OPEN(0)``
        before its admission), an admission and a quarantine follow, the
        service restarts mid-round, the round auto-commits at
        ``expected_sites``, and a late bare upload is refused
        ``no_round_open`` without a record.  A cut at every record
        boundary restarts to the live state at that record; a cut
        between the filling admission and its commit restarts to the
        committed state, since recovery commits a full round."""
        directory = tmp_path / "live"
        live = _booted(directory, expected_sites=3)
        snapshots = [_fingerprint(live.server)]  # after each record

        def track(service):
            apply = service._apply

            def tracked(decision):
                apply(decision)
                if decision.record is not None:
                    snapshots.append(_fingerprint(service.server))

            service._apply = tracked
            return service

        def restart():
            nonlocal live
            before = _fingerprint(live.server)
            live._journal.close()
            live = track(_booted(directory, expected_sites=3))
            snapshots.append(before)  # the new EPOCH record
            assert _fingerprint(live.server) == before

        track(live)
        verdicts = [
            live._admit(_upload(_model(0, [0, 1]))).verdict,
            live._admit(_upload(_model(1, [2]), corrupt=True)).verdict,
        ]
        restart()  # mid round 0
        verdicts.append(live._admit(_upload(_model(2, [3]))).verdict)
        verdicts.append(live._admit(_upload(_model(3, [2, 4]))).verdict)
        committed = _fingerprint(live.server)
        late = live._admit(_upload(_model(4, [4])))
        assert late.verdict == "no_round_open" and late.record is None
        assert _fingerprint(live.server) == committed
        live._journal.close()

        assert verdicts == ["admitted", "quarantined", "admitted", "admitted"]
        assert live.server.rounds_committed == 1
        assert live.server.admitted_site_ids == [0, 2, 3]
        assert live.server.quarantined_site_ids == [1]
        kinds = journal.RecordKind
        records = live._journal.recover().records
        assert [r.kind for r in records] == [
            kinds.EPOCH,
            kinds.ROUND_OPEN,
            kinds.MODEL_ADMITTED,
            kinds.QUARANTINE,
            kinds.EPOCH,
            kinds.MODEL_ADMITTED,
            kinds.MODEL_ADMITTED,
            kinds.ROUND_COMMIT,
        ]
        assert journal.decode_round_marker(records[1].payload) == 0
        assert len(snapshots) == len(records)
        for cut in range(1, len(records) + 1):
            cut_dir = tmp_path / f"cut-{cut}"
            cut_dir.mkdir()
            (cut_dir / "wal.log").write_bytes(
                b"".join(
                    journal.encode_record(r.kind, r.seq, r.payload)
                    for r in records[:cut]
                )
            )
            restarted = _booted(cut_dir, expected_sites=3)
            want = snapshots[cut - 1]
            if cut < len(records) and records[cut].kind == kinds.ROUND_COMMIT:
                want = snapshots[cut]
            assert _fingerprint(restarted.server) == want, cut
            restarted._journal.close()


def _cube(site_id: int, dim: int, n: int = 3) -> LocalModel:
    """``n`` representatives of ``dim`` coordinates each."""
    return LocalModel(
        site_id=site_id,
        points=np.arange(n * dim, dtype=float).reshape(n, dim),
        eps_ranges=[0.8] * n,
        local_cluster_ids=list(range(n)),
        n_objects=n,
        scheme="rep_scor",
        eps_local=0.5,
        min_pts_local=2,
    )


class TestDimensionalityGate:
    """Every representative of one global model shares one space: a
    non-empty model of another dimensionality than the admitted ones, or
    one without coordinates, is quarantined with its reason and never
    reaches the build or a fold."""

    def _arrive(self, core: RoundCore, model: LocalModel):
        decision = core.arrive(model)
        core.apply(decision)
        return decision

    def test_one_shot(self):
        core = RoundCore(None)
        core.apply(core.open_round(0))
        assert self._arrive(core, _cube(0, 2)).verdict == "admitted"
        deep = self._arrive(core, _cube(1, 3))
        assert deep.verdict == "quarantined"
        assert deep.detail == "dimensionality 3 differs from the session's 2"
        flat = self._arrive(core, _cube(2, 0))
        assert flat.verdict == "quarantined"
        assert flat.detail == "representatives have no coordinates"
        assert self._arrive(core, _cube(3, 5, n=0)).verdict == "admitted"
        assert self._arrive(core, _cube(4, 2)).verdict == "admitted"
        model = core.apply(core.commit_round(0))
        assert model.dim == 2 and len(model) == 6
        assert core.quarantined_site_ids == [1, 2]

    def test_a_session_round_one_fold(self):
        core = RoundCore(None)
        core.apply(core.open_round(0))
        assert self._arrive(core, _cube(0, 2)).verdict == "admitted"
        committed = core.apply(core.commit_round(0))
        core.apply(core.open_round(1))
        deep = self._arrive(core, _cube(1, 3))
        assert deep.verdict == "quarantined"
        assert deep.detail == "dimensionality 3 differs from the session's 2"
        assert self._arrive(core, _cube(2, 2)).verdict == "admitted"
        folded = core.apply(core.commit_round(1))
        assert folded.dim == 2 and len(folded) == len(committed) + 3
        assert core.quarantined_site_ids == [1]

    def test_the_first_non_empty_model_sets_the_dimensionality(self):
        core = RoundCore(None)
        core.apply(core.open_round(0))
        assert self._arrive(core, _cube(0, 4, n=0)).verdict == "admitted"
        core.apply(core.commit_round(0))
        core.apply(core.open_round(1))
        assert self._arrive(core, _cube(1, 3)).verdict == "admitted"
        assert self._arrive(core, _cube(2, 2)).verdict == "quarantined"
        assert core.apply(core.commit_round(1)).dim == 3
