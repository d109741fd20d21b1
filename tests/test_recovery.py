"""Recovery rounds, payload integrity and repair-equivalence tests.

Pins the three robustness guarantees of the recovery extension:

* a pinned crash scenario where ``max_recovery_rounds = 0`` reproduces
  today's degraded behavior and ``>= 1`` lets the crashed sites rejoin,
* the incremental :class:`GlobalModelRepairer` maintains exactly the
  partition a from-scratch rebuild over the same representatives (at the
  same frozen ``eps_global``) would produce, with stable label names,
* the server's admission gate orders integrity before deadlines, admits
  arrivals exactly *at* the deadline, and applies quorum as a fraction.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.labels import NOISE
from repro.core.global_model import GlobalModelRepairer, build_global_model
from repro.core.models import GlobalModel
from repro.data.generators import gaussian_blobs
from repro.distributed.partition import split, uniform_random
from repro.distributed.runner import (
    DistributedRunConfig,
    DistributedRunner,
    RecoveryPolicy,
    RoundPolicy,
)
from repro.distributed.server import RoundCore
from repro.faults import FaultPlan, LinkFaults, SiteFaults
from tests.model_rows import Row, local_model

N_SITES = 8


def assert_perm_equivalent(a: np.ndarray, b: np.ndarray) -> None:
    """The two label arrays describe the same partition: a bijection maps
    a's labels onto b's, and noise maps to noise."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for la, lb in zip(a.tolist(), b.tolist()):
        if la == NOISE or lb == NOISE:
            assert la == lb, f"noise mismatch: {la} vs {lb}"
            continue
        assert forward.setdefault(la, lb) == lb, f"{la} maps to both {forward[la]} and {lb}"
        assert backward.setdefault(lb, la) == la, f"{lb} mapped from both {backward[lb]} and {la}"


def _partition(model: GlobalModel) -> set[frozenset]:
    """A model's partition keyed by representative identity (so two models
    holding the same representatives in different orders compare equal)."""
    groups: dict[int, set] = {}
    for site_id, local_id, point, label in zip(
        model.site_ids.tolist(),
        model.local_cluster_ids.tolist(),
        model.points,
        model.global_labels.tolist(),
    ):
        groups.setdefault(label, set()).add((site_id, local_id, point.tobytes()))
    return {frozenset(members) for members in groups.values()}


def _rep(x, y, eps_range=1.0, site_id=0, local_cluster_id=0):
    return Row((x, y), eps_range, site_id, local_cluster_id)


def _model(site_id, reps, n_objects=100):
    return local_model(site_id, reps, n_objects=n_objects)


@pytest.fixture(scope="module")
def workload():
    points, __ = gaussian_blobs(
        [200, 200], np.asarray([[0.0, 0.0], [15.0, 0.0]]), 1.0, seed=21
    )
    assignment = uniform_random(points.shape[0], N_SITES, seed=8)
    return split(points, assignment), assignment


CONFIG = DistributedRunConfig(eps_local=1.0, min_pts_local=5)

# Pinned scenario: of 8 sites, site 1 dies before its local phase and
# site 5 dies right after uploading (it misses the broadcast).
CRASH_PLAN = FaultPlan(
    seed=7,
    site_overrides={
        1: SiteFaults(crash_before_local_prob=1.0),
        5: SiteFaults(crash_after_send_prob=1.0),
    },
)


def _run(workload, *, rounds, plan=CRASH_PLAN, config=CONFIG):
    site_points, assignment = workload
    return DistributedRunner(
        config,
        fault_plan=plan,
        recovery_policy=RecoveryPolicy(max_recovery_rounds=rounds),
    ).run_on_sites(site_points, assignment)


class TestRecoveryPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_recovery_rounds"):
            RecoveryPolicy(max_recovery_rounds=-1)
        with pytest.raises(ValueError, match="deadline_s"):
            RecoveryPolicy(deadline_s=0.0)
        with pytest.raises(ValueError, match="rejoin_backoff_s"):
            RecoveryPolicy(rejoin_backoff_s=-0.5)
        with pytest.raises(ValueError, match="backoff_multiplier"):
            RecoveryPolicy(backoff_multiplier=0.9)

    def test_enabled(self):
        assert not RecoveryPolicy().enabled
        assert RecoveryPolicy(max_recovery_rounds=2).enabled

    def test_backoff_grows_geometrically(self):
        policy = RecoveryPolicy(
            max_recovery_rounds=3, rejoin_backoff_s=0.5, backoff_multiplier=2.0
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.5)
        assert policy.backoff_seconds(2) == pytest.approx(1.0)
        assert policy.backoff_seconds(3) == pytest.approx(2.0)


class TestPinnedCrashRecovery:
    """The ISSUE's pinned scenario: 2 of 8 sites crash; rounds=0 keeps
    today's degraded outcome, rounds>=1 brings both sites back."""

    def test_rounds_zero_pins_degraded_behavior(self, workload):
        report = _run(workload, rounds=0)
        assert report.failed_sites == [1, 5]
        assert report.degraded
        assert report.recovered_sites == []
        assert report.recovery_rounds_used == 0
        assert report.recovery_rounds == []
        assert 1 not in report.participating_sites
        # Site 5's model made it to the server before the crash.
        assert 5 in report.participating_sites

    def test_one_round_recovers_both_sites(self, workload):
        report = _run(workload, rounds=1)
        assert report.recovered_sites == [1, 5]
        assert report.failed_sites == []
        assert report.stale_sites == []
        assert not report.degraded
        assert sorted(report.participating_sites) == list(range(N_SITES))
        assert report.recovery_rounds_used == 1
        (stats,) = report.recovery_rounds
        assert stats.round_index == 1
        assert stats.attempted_sites == [1, 5]
        assert stats.recovered_sites == [1, 5]
        assert stats.still_failed_sites == []
        for site in report.sites:
            assert site.failure is None

    def test_extra_rounds_converge_after_one(self, workload):
        one = _run(workload, rounds=1)
        three = _run(workload, rounds=3)
        assert three.recovery_rounds_used == 1
        np.testing.assert_array_equal(
            one.labels_in_original_order(), three.labels_in_original_order()
        )

    def test_recovered_labels_match_full_run_at_frozen_eps(self, workload):
        """Post-recovery labels are equivalent (up to label permutation)
        to a fault-free run over all 8 sites at the repaired model's
        frozen eps_global."""
        recovered = _run(workload, rounds=1)
        clean = DistributedRunner(
            dataclasses.replace(
                CONFIG, eps_global=recovered.global_model.eps_global
            )
        ).run_on_sites(*workload)
        assert_perm_equivalent(
            recovered.labels_in_original_order(),
            clean.labels_in_original_order(),
        )

    def test_repaired_model_equals_rebuild(self, workload):
        """The incrementally repaired global model holds exactly the
        partition a from-scratch rebuild over the same representatives
        produces."""
        report = _run(workload, rounds=1)
        models = [site.run_local_clustering() for site in report.sites]
        rebuilt, __ = build_global_model(
            models, eps_global=report.global_model.eps_global
        )
        assert _partition(report.global_model) == _partition(rebuilt)

    def test_recovery_run_is_deterministic(self, workload):
        a = _run(workload, rounds=1)
        b = _run(workload, rounds=1)
        np.testing.assert_array_equal(
            a.labels_in_original_order(), b.labels_in_original_order()
        )
        assert a.recovered_sites == b.recovered_sites
        assert a.network.bytes_total == b.network.bytes_total
        assert a.round_sim_seconds == b.round_sim_seconds

    def test_enabled_recovery_leaves_clean_runs_untouched(self, workload):
        """With no faults firing, a recovery-enabled run never enters the
        recovery loop and stays bit-identical to the plain run."""
        site_points, assignment = workload
        plain = DistributedRunner(CONFIG).run_on_sites(site_points, assignment)
        guarded = _run(workload, rounds=2, plan=FaultPlan.none(seed=5))
        np.testing.assert_array_equal(
            plain.labels_in_original_order(), guarded.labels_in_original_order()
        )
        assert guarded.recovery_rounds_used == 0
        assert guarded.network.bytes_total == plain.network.bytes_total


class TestCorruptionQuarantine:
    """A permanently corrupting link: the site's model is quarantined at
    admission, counted as failed, and recovery re-attempts keep failing
    (the link stays poisoned) — deterministic either way."""

    PLAN = FaultPlan(seed=11, link_overrides={2: LinkFaults(corrupt_prob=1.0)})

    def test_quarantined_site_counts_as_failed(self, workload):
        report = _run(workload, rounds=0, plan=self.PLAN)
        assert report.quarantined_sites == [2]
        assert 2 in report.failed_sites
        assert 2 not in report.participating_sites
        assert report.degraded
        assert report.transport_stats.n_corrupted >= 1

    def test_poisoned_link_stays_quarantined_through_recovery(self, workload):
        report = _run(workload, rounds=2, plan=self.PLAN)
        assert report.quarantined_sites == [2]
        assert 2 in report.failed_sites
        assert report.recovered_sites == []
        assert report.recovery_rounds_used == 2
        for stats in report.recovery_rounds:
            assert stats.attempted_sites == [2]
            assert stats.quarantined_sites == [2]
            assert stats.recovered_sites == []


def _open(*, deadline_s=None, **kwargs) -> RoundCore:
    """A core with round 0 open at time 0."""
    core = RoundCore(**kwargs)
    core.apply(core.open_round(0, deadline_s=deadline_s))
    return core


def _arrive(core, model, *, at_s=0.0, crc_ok=True) -> str:
    """Run one arrival through the core's gate and apply the decision."""
    decision = core.arrive(model, at_s=at_s, crc_ok=crc_ok)
    core.apply(decision)
    return decision.verdict


class TestAdmissionGate:
    def test_arrival_exactly_at_deadline_admitted(self):
        core = _open(deadline_s=5.0)
        assert _arrive(core, _model(0, [_rep(0, 0)]), at_s=5.0) == "admitted"

    def test_arrival_just_after_deadline_rejected(self):
        core = _open(deadline_s=5.0)
        verdict = _arrive(core, _model(0, [_rep(0, 0)]), at_s=5.0 + 1e-9)
        assert verdict == "deadline_missed"
        assert core.rejected_site_ids == [0]

    def test_checksum_failure_beats_deadline(self):
        """A corrupt payload is poison regardless of when it arrived: it
        must land in quarantine, not in the late bucket."""
        core = _open(deadline_s=5.0)
        verdict = _arrive(core, _model(0, [_rep(0, 0)]), at_s=99.0, crc_ok=False)
        assert verdict == "quarantined"
        assert core.quarantined_site_ids == [0]
        assert core.rejected_site_ids == []
        assert core.quarantined_models[0][1] == "checksum_mismatch"

    def test_invalid_model_quarantined_with_reason(self):
        core = _open()
        bad = _model(0, [_rep(0, 0, site_id=3)])
        assert _arrive(core, bad) == "quarantined"
        assert "claims site" in core.quarantined_models[0][1]

    def test_a_later_rounds_deadline_replaces_the_earlier_one(self):
        """Recovery rounds run their own deadline, counted from their own
        open: round 1 admits what round 0's deadline refused, and a round
        opened without one admits at any time."""
        core = _open(deadline_s=5.0)
        assert _arrive(core, _model(0, [_rep(0, 0)]), at_s=6.0) == "deadline_missed"
        core.apply(core.commit_round(0))
        core.apply(core.open_round(1, at_s=10.0, deadline_s=60.0))
        assert _arrive(core, _model(0, [_rep(0, 0)]), at_s=69.0) == "admitted"
        core.apply(core.commit_round(1))
        core.apply(core.open_round(2, at_s=100.0))
        late = _model(1, [_rep(5.0, 0.0, site_id=1)])
        assert _arrive(core, late, at_s=1e9) == "admitted"
        assert core.admitted_site_ids == [0, 1]
        assert core.rejected_site_ids == [0]

    def test_full_quorum_with_one_failed_site(self):
        core = _open(quorum=1.0, expected_sites=4)
        for site_id in range(3):
            _arrive(core, _model(site_id, [_rep(site_id, 0.0, site_id=site_id)]))
        assert not core.quorum_met
        _arrive(core, _model(3, [_rep(3.0, 0.0, site_id=3)]))
        assert core.quorum_met

    def test_quorum_is_a_fraction_not_a_rounded_count(self):
        """1 of 3 admitted is 33.3%: it meets quorum=1/3 exactly but not
        quorum=0.34 — no hidden rounding either way."""
        met = _open(quorum=1.0 / 3.0, expected_sites=3)
        _arrive(met, _model(0, [_rep(0, 0)]))
        assert met.quorum_met
        missed = _open(quorum=0.34, expected_sites=3)
        _arrive(missed, _model(0, [_rep(0, 0)]))
        assert not missed.quorum_met

    def test_quorum_counts_the_current_round(self):
        """Two models in round 0 and one in round 1 of two expected
        sites: round 1 missed its quorum.  The core used to divide every
        model admitted in the session by one round's sites (3 / 2)."""
        core = _open(quorum=1.0, expected_sites=2)
        for site_id in range(2):
            _arrive(core, _model(site_id, [_rep(site_id, 0.0, site_id=site_id)]))
        core.apply(core.commit_round(0))
        assert core.quorum_met
        core.apply(core.open_round(1))
        _arrive(core, _model(2, [_rep(2.0, 0.0, site_id=2)]))
        assert not core.quorum_met
        core.apply(core.commit_round(1))
        assert not core.quorum_met

    def test_quorum_without_expected_sites_counts_the_rounds_misses(self):
        """Without ``expected_sites`` a round expects its admitted plus
        deadline-missed models; round 0's miss does not count in round 1."""
        core = _open(quorum=1.0, deadline_s=5.0)
        _arrive(core, _model(0, [_rep(0, 0)]), at_s=6.0)
        assert not core.quorum_met
        core.apply(core.commit_round(0))
        core.apply(core.open_round(1))
        assert _arrive(core, _model(0, [_rep(0, 0)])) == "admitted"
        assert core.quorum_met

    def test_round_policy_validation(self):
        with pytest.raises(ValueError, match="deadline_s"):
            RoundPolicy(deadline_s=-1.0)


class TestGlobalModelRepairer:
    def _base(self):
        """Two separated pairs: labels {0, 0, 1, 1} at eps_global=1.0."""
        base = _model(0, [_rep(0, 0), _rep(1, 0), _rep(10, 0), _rep(11, 0)])
        model, __ = build_global_model([base], eps_global=1.0)
        return model

    def test_disjoint_insertion_keeps_old_labels(self):
        model = self._base()
        before = model.global_labels.copy()
        repairer = GlobalModelRepairer(model)
        repaired, relabeled = repairer.add_model(
            _model(1, [_rep(20, 0), _rep(21, 0)])
        )
        assert not relabeled
        np.testing.assert_array_equal(repaired.global_labels[:4], before)
        # The new pair forms one fresh cluster beyond every old id.
        new = repaired.global_labels[4:]
        assert new[0] == new[1]
        assert new[0] > before.max()

    def test_joining_insertion_keeps_cluster_id(self):
        model = self._base()
        repairer = GlobalModelRepairer(model)
        repaired, relabeled = repairer.add_model(_model(1, [_rep(1.5, 0)]))
        assert not relabeled  # old members kept their label
        assert repaired.global_labels[4] == repaired.global_labels[0]

    def test_merge_adopts_smallest_participating_id(self):
        base = _model(0, [_rep(0, 0), _rep(1, 0), _rep(3, 0), _rep(4, 0)])
        model, __ = build_global_model([base], eps_global=1.0)
        a, b = int(model.global_labels[0]), int(model.global_labels[2])
        assert a != b
        repairer = GlobalModelRepairer(model)
        repaired, relabeled = repairer.add_model(_model(1, [_rep(2, 0)]))
        assert relabeled
        assert set(repaired.global_labels.tolist()) == {min(a, b)}

    def test_empty_model_changes_nothing(self):
        model = self._base()
        repairer = GlobalModelRepairer(model)
        repaired, relabeled = repairer.add_model(_model(1, [], n_objects=0))
        assert not relabeled
        assert _partition(repaired) == _partition(model)

    def test_repair_matches_rebuild_pinned(self):
        late = _model(1, [_rep(1.8, 0), _rep(9.2, 0), _rep(30, 0)])
        repairer = GlobalModelRepairer(self._base())
        repaired, __ = repairer.add_model(late)
        base = _model(0, [_rep(0, 0), _rep(1, 0), _rep(10, 0), _rep(11, 0)])
        rebuilt, __ = build_global_model([base, late], eps_global=1.0)
        assert _partition(repaired) == _partition(rebuilt)


class TestRepairEquivalenceProperties:
    """Because MinPts_global = 2 every non-noise representative is core,
    so incremental maintenance is *exactly* partition-equivalent to a
    from-scratch rebuild — for any split into base and late models."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_repair_equals_rebuild(self, data):
        n_total = data.draw(st.integers(3, 14), label="n_total")
        coords = data.draw(
            st.lists(
                st.tuples(st.integers(0, 12), st.integers(0, 12)),
                min_size=n_total,
                max_size=n_total,
                unique=True,
            ),
            label="coords",
        )
        n_base = data.draw(st.integers(1, n_total - 1), label="n_base")
        reps = [
            _rep(1.5 * x, 1.5 * y, site_id=0 if i < n_base else 1)
            for i, (x, y) in enumerate(coords)
        ]
        base = _model(0, reps[:n_base], n_objects=n_base)
        late = _model(1, reps[n_base:], n_objects=n_total - n_base)
        base_model, __ = build_global_model([base], eps_global=2.0)
        repairer = GlobalModelRepairer(base_model)
        repaired, __ = repairer.add_model(late)
        rebuilt, __ = build_global_model([base, late], eps_global=2.0)
        assert _partition(repaired) == _partition(rebuilt)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_incremental_label_stability(self, data):
        """Whatever is inserted, a pre-existing representative's label
        only changes when its cluster merged — and then onto a smaller
        existing id, never onto a fresh one."""
        coords = data.draw(
            st.lists(
                st.tuples(st.integers(0, 10), st.integers(0, 10)),
                min_size=4,
                max_size=12,
                unique=True,
            ),
            label="coords",
        )
        n_base = len(coords) // 2
        reps = [_rep(1.5 * x, 1.5 * y) for x, y in coords]
        base_model, __ = build_global_model(
            [_model(0, reps[:n_base], n_objects=n_base)], eps_global=2.0
        )
        before = base_model.global_labels.copy()
        repairer = GlobalModelRepairer(base_model)
        repaired, relabeled = repairer.add_model(
            _model(1, reps[n_base:], n_objects=len(reps) - n_base)
        )
        after = repaired.global_labels[:n_base]
        if not relabeled:
            np.testing.assert_array_equal(after, before)
        else:
            changed = after != before
            assert changed.any()
            # A changed label merged onto a smaller pre-existing id.
            assert (after[changed] < before[changed]).all()
            assert set(after[changed].tolist()) <= set(before.tolist())


# Small shared workload for the end-to-end determinism property (module
# level: hypothesis forbids function-scoped fixtures).
_SMALL_POINTS, __ = gaussian_blobs(
    [40, 40], np.asarray([[0.0, 0.0], [12.0, 0.0]]), 1.0, seed=3
)
_SMALL_ASSIGNMENT = uniform_random(_SMALL_POINTS.shape[0], 3, seed=4)
_SMALL_SITES = split(_SMALL_POINTS, _SMALL_ASSIGNMENT)


class TestRecoveryDeterminismProperty:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_identical_runs_identical_outcomes(self, seed):
        def run():
            return DistributedRunner(
                DistributedRunConfig(eps_local=1.0, min_pts_local=5),
                fault_plan=FaultPlan.chaos(0.5, seed=seed),
                recovery_policy=RecoveryPolicy(max_recovery_rounds=2),
            ).run_on_sites(_SMALL_SITES, _SMALL_ASSIGNMENT)

        a, b = run(), run()
        np.testing.assert_array_equal(
            a.labels_in_original_order(), b.labels_in_original_order()
        )
        assert a.failed_sites == b.failed_sites
        assert a.recovered_sites == b.recovered_sites
        assert a.quarantined_sites == b.quarantined_sites
        assert a.stale_sites == b.stale_sites
        assert a.recovery_rounds_used == b.recovery_rounds_used
        assert a.network.bytes_total == b.network.bytes_total
        assert a.round_sim_seconds == b.round_sim_seconds
