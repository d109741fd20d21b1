"""A deterministic, seed-driven fault-injection plan.

The paper treats the federation as loosely coupled — "the sites can be
seen as independent" and the server simply clusters whatever local models
it receives.  A :class:`FaultPlan` makes that robustness claim testable:
it describes *which* faults a run should experience (lossy links, site
crashes, stragglers) as pure data, and every random decision is derived
from the plan's seed plus the *identity* of the event (site id, message
kind, attempt number).  Two runs with the same plan therefore inject the
exact same faults — retry counts included — which is what lets the chaos
experiments and the determinism property tests pin their outputs.

The plan only *describes* faults; :mod:`repro.faults.transport` and the
degraded-mode path of :class:`~repro.distributed.runner.DistributedRunner`
act on it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinkFaults", "SiteFaults", "SiteBehavior", "FaultPlan"]


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-attempt failure modes of one client↔server link.

    Attributes:
        drop_prob: probability that an attempt is lost in flight (the
            sender learns about it only through its timeout).
        duplicate_prob: probability that a delivered message arrives twice
            (the duplicate's bytes are accounted, the payload is ignored).
        reorder_prob: probability that a delivered message takes a slow
            route and arrives ``reorder_delay_s`` later — enough to arrive
            after messages sent afterwards (out-of-order delivery).
        reorder_delay_s: the extra delay a reordered message suffers.
        jitter_s: uniform latency jitter added to every delivered attempt.
        truncate_prob: probability that the payload arrives truncated; the
            receiver detects the short read and the attempt counts as
            failed.
        corrupt_prob: probability that a *delivered* payload arrives with
            flipped bytes.  Unlike truncation the transfer looks
            successful — only the receiver's checksum
            (:class:`~repro.distributed.network.Message` stamps a CRC-32)
            reveals the damage, and only admission-time validation keeps
            the poisoned model out of the global DBSCAN.
    """

    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay_s: float = 0.5
    jitter_s: float = 0.0
    truncate_prob: float = 0.0
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "drop_prob",
            "duplicate_prob",
            "reorder_prob",
            "truncate_prob",
            "corrupt_prob",
        ):
            _check_prob(name, getattr(self, name))
        if self.jitter_s < 0:
            raise ValueError(f"jitter_s must be >= 0, got {self.jitter_s}")
        if self.reorder_delay_s < 0:
            raise ValueError(
                f"reorder_delay_s must be >= 0, got {self.reorder_delay_s}"
            )

    @property
    def active(self) -> bool:
        """Whether any link fault can actually fire."""
        return (
            self.drop_prob > 0
            or self.duplicate_prob > 0
            or self.reorder_prob > 0
            or self.jitter_s > 0
            or self.truncate_prob > 0
            or self.corrupt_prob > 0
        )


@dataclass(frozen=True)
class SiteFaults:
    """Per-round failure modes of one client site.

    Attributes:
        crash_before_local_prob: probability the site dies before its local
            clustering even starts — it contributes nothing to the round
            and its objects end up unlabeled (noise).
        crash_after_send_prob: probability the site dies right after
            uploading its local model — the server still merges it, but
            the site cannot receive the broadcast and keeps local labels.
        straggler_prob: probability the site is slowed down this round.
        straggler_factor: multiplier on the straggler's simulated local
            compute time (≥ 1).
    """

    crash_before_local_prob: float = 0.0
    crash_after_send_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "crash_before_local_prob",
            "crash_after_send_prob",
            "straggler_prob",
        ):
            _check_prob(name, getattr(self, name))
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )

    @property
    def active(self) -> bool:
        """Whether any site fault can actually fire."""
        return (
            self.crash_before_local_prob > 0
            or self.crash_after_send_prob > 0
            or self.straggler_prob > 0
        )


@dataclass(frozen=True)
class SiteBehavior:
    """The resolved (deterministic) behavior of one site for one round.

    Attributes:
        site_id: the site.
        crashes_before_local: dies before computing anything.
        crashes_after_send: dies after uploading its local model.
        slowdown: multiplier on the site's simulated local compute time.
    """

    site_id: int
    crashes_before_local: bool = False
    crashes_after_send: bool = False
    slowdown: float = 1.0

    @property
    def alive_for_broadcast(self) -> bool:
        """Whether the site can still receive the global model."""
        return not (self.crashes_before_local or self.crashes_after_send)


@dataclass(frozen=True)
class FaultPlan:
    """Everything that can go wrong in one distributed round, as data.

    All randomness is derived from ``seed`` and the identity of the event
    being decided, never from shared mutable RNG state — so the injected
    faults do not depend on execution order (parallel local phases see the
    same faults as sequential ones) and identical plans produce identical
    runs.

    Attributes:
        seed: master seed for every fault decision.
        link: default link fault rates (all client↔server links).
        site: default site fault rates (all sites).
        link_overrides: per-site link fault overrides (keyed by the client
            end of the link).
        site_overrides: per-site fault overrides.
    """

    seed: int = 0
    link: LinkFaults = field(default_factory=LinkFaults)
    site: SiteFaults = field(default_factory=SiteFaults)
    link_overrides: dict[int, LinkFaults] = field(default_factory=dict)
    site_overrides: dict[int, SiteFaults] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """A plan that injects nothing (the runner sends each message
        once for it and runs no simulated clock)."""
        return cls(seed=seed)

    @classmethod
    def site_failures(cls, prob: float, *, seed: int = 0) -> "FaultPlan":
        """Every site independently crashes before its local phase with
        probability ``prob`` — the chaos sweep's main axis."""
        return cls(seed=seed, site=SiteFaults(crash_before_local_prob=prob))

    @classmethod
    def lossy_links(cls, drop_prob: float, *, seed: int = 0) -> "FaultPlan":
        """Every message attempt is dropped with probability
        ``drop_prob`` (retries may still get it through)."""
        return cls(seed=seed, link=LinkFaults(drop_prob=drop_prob))

    @classmethod
    def corrupted_payloads(cls, corrupt_prob: float, *, seed: int = 0) -> "FaultPlan":
        """Every delivered payload arrives bit-flipped with probability
        ``corrupt_prob`` — exercises the checksum/quarantine path."""
        return cls(seed=seed, link=LinkFaults(corrupt_prob=corrupt_prob))

    @classmethod
    def chaos(cls, intensity: float, *, seed: int = 0) -> "FaultPlan":
        """A bit of everything, scaled by ``intensity`` in ``[0, 1]``:
        crashes, drops, duplicates, jitter, corruption, stragglers."""
        _check_prob("intensity", intensity)
        return cls(
            seed=seed,
            link=LinkFaults(
                drop_prob=0.5 * intensity,
                duplicate_prob=0.2 * intensity,
                reorder_prob=0.2 * intensity,
                jitter_s=0.05 * intensity,
                truncate_prob=0.1 * intensity,
                corrupt_prob=0.1 * intensity,
            ),
            site=SiteFaults(
                crash_before_local_prob=0.5 * intensity,
                crash_after_send_prob=0.25 * intensity,
                straggler_prob=0.5 * intensity,
            ),
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def is_active(self) -> bool:
        """Whether this plan can inject any fault at all."""
        return (
            self.link.active
            or self.site.active
            or any(f.active for f in self.link_overrides.values())
            or any(f.active for f in self.site_overrides.values())
        )

    def rng_for(self, *key: int | str) -> np.random.Generator:
        """A generator whose stream depends only on ``seed`` and ``key``.

        String key parts are hashed with CRC-32 (stable across processes,
        unlike ``hash``), so the stream identity survives process
        boundaries and is independent of call order.
        """
        parts = [self.seed & 0xFFFFFFFF]
        for part in key:
            if isinstance(part, str):
                parts.append(zlib.crc32(part.encode("utf-8")))
            else:
                parts.append(int(part) & 0xFFFFFFFF)
        return np.random.default_rng(np.random.SeedSequence(parts))

    def link_faults_for(self, site_id: int) -> LinkFaults:
        """The link fault rates of ``site_id``'s link to the server."""
        return self.link_overrides.get(site_id, self.link)

    def site_faults_for(self, site_id: int) -> SiteFaults:
        """The site fault rates of ``site_id``."""
        return self.site_overrides.get(site_id, self.site)

    def resolve_site(self, site_id: int) -> SiteBehavior:
        """Decide, deterministically, what happens to ``site_id``.

        Crash-before-local wins over crash-after-send (a site cannot do
        both); stragglers compose with either a clean round or a
        crash-after-send.
        """
        faults = self.site_faults_for(site_id)
        rng = self.rng_for("site", site_id)
        # Three independent draws, always consumed in the same order so a
        # change to one probability does not shift the others' decisions.
        u_before, u_after, u_straggle = rng.random(3)
        crashes_before = u_before < faults.crash_before_local_prob
        crashes_after = (not crashes_before) and u_after < faults.crash_after_send_prob
        slowdown = (
            faults.straggler_factor
            if u_straggle < faults.straggler_prob
            else 1.0
        )
        return SiteBehavior(
            site_id=site_id,
            crashes_before_local=crashes_before,
            crashes_after_send=crashes_after,
            slowdown=slowdown,
        )
