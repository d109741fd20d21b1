"""A transport that survives the faults a :class:`FaultPlan` injects.

:class:`ResilientTransport` wraps the accounting-only
:class:`~repro.distributed.network.SimulatedNetwork` with the standard
unreliable-network machinery: per-message timeouts, capped exponential
backoff with deterministic jitter, and a per-link retry budget.  Every
attempt — including dropped, truncated and duplicated ones — is recorded
on the underlying network, so the byte/sim-time accounting reflects what
the wire actually carried, not just what got through.

Simulated time, not wall time, drives everything: a dropped attempt costs
the sender its timeout, a retry costs the backoff delay, a delivered
attempt costs the link's transfer time plus jitter.  All of it derives
from the plan's seeded RNG streams, so the same plan yields the same
retry counts and the same simulated clock, every run.

Two integrity/health mechanisms ride on top:

* every delivered payload is checked against the CRC-32 the sender
  stamped on the :class:`~repro.distributed.network.Message`, so the
  ``corrupt_prob`` fault (flipped bytes in flight) is *detectable* —
  the outcome reports ``checksum_ok=False`` and the receiver decides
  (the central server quarantines, see ``RoundCore.arrive``);
* an optional per-link circuit breaker (:class:`BreakerPolicy`)
  fast-fails messages to links that keep failing, instead of burning the
  full retry budget every time, and re-probes on a deterministic
  simulated-clock schedule (closed → open → half-open).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.integrity import crc_matches
from repro.faults.plan import FaultPlan
from repro.obs import NULL_METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.distributed.network import SimulatedNetwork

__all__ = [
    "TransportPolicy",
    "BreakerPolicy",
    "DeliveryOutcome",
    "TransportStats",
    "ResilientTransport",
]


@dataclass(frozen=True)
class TransportPolicy:
    """Retry/backoff behavior of the transport.

    Attributes:
        timeout_s: how long the sender waits before declaring an attempt
            lost (simulated seconds).
        max_attempts: per-message attempt budget (1 = no retries).
        backoff_base_s: first retry delay; attempt ``k`` waits
            ``min(backoff_cap_s, backoff_base_s · 2^(k-1))``.
        backoff_cap_s: upper bound on a single backoff delay.
        backoff_jitter: fraction of the backoff delay added as
            deterministic jitter (decorrelates retry storms).
    """

    timeout_s: float = 1.0
    max_attempts: int = 4
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0
    backoff_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )

    def backoff_seconds(self, attempt: int, jitter_u: float) -> float:
        """Backoff before retry number ``attempt`` (1-based), with a
        deterministic jitter draw ``jitter_u`` in ``[0, 1)``."""
        base = min(self.backoff_cap_s, self.backoff_base_s * 2.0 ** (attempt - 1))
        return base * (1.0 + self.backoff_jitter * jitter_u)


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-link circuit breaker parameters.

    The breaker protects the *sender's* retry budget from links that keep
    failing: after ``failure_threshold`` consecutive failed messages on a
    link the breaker **opens** and every message to that link fast-fails
    (0 attempts, 0 simulated seconds, no bytes) until ``cooldown_s``
    simulated seconds have passed.  The first message after the cooldown
    is the **half-open** probe: if it gets through, the breaker closes;
    if not, the breaker re-opens for another cooldown.  Everything runs
    on the simulated clock, so breaker behavior is as deterministic as
    the fault plan driving it.

    Attributes:
        failure_threshold: consecutive failed messages that trip the
            breaker open.
        cooldown_s: simulated seconds an open breaker waits before
            letting a half-open probe through.
    """

    failure_threshold: int = 3
    cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {self.cooldown_s}")


class _LinkBreaker:
    """Health state of one client↔server link (simulated-clock driven)."""

    __slots__ = ("policy", "state", "failures", "open_until", "state_changes")

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = "closed"
        self.failures = 0
        self.open_until = 0.0
        self.state_changes = 0

    def _transition(self, state: str) -> None:
        if self.state != state:
            self.state = state
            self.state_changes += 1

    def allow(self, now_s: float) -> bool:
        """Whether a message may be attempted at simulated time ``now_s``."""
        if self.state == "open":
            if now_s < self.open_until:
                return False
            self._transition("half_open")
        return True

    def record(self, delivered: bool, now_s: float) -> None:
        """Feed one message outcome back into the breaker."""
        if delivered:
            self.failures = 0
            self._transition("closed")
            return
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.policy.failure_threshold:
            self._transition("open")
            self.open_until = max(self.open_until, now_s + self.policy.cooldown_s)


@dataclass(frozen=True)
class DeliveryOutcome:
    """What happened to one logical message.

    Attributes:
        delivered: whether any attempt got through intact.
        attempts: attempts made (1 when the first try succeeded).
        retries: ``attempts - 1``.
        sim_seconds: simulated time from first send to delivery (or to
            giving up): transfer times, jitter, timeouts and backoffs.
        arrival_s: absolute simulated arrival time (``start_s`` +
            ``sim_seconds``); meaningful only when delivered.
        n_dropped: attempts lost in flight.
        n_truncated: attempts that arrived corrupt.
        n_duplicates: extra copies the receiver saw.
        bytes_sent: total bytes put on the wire across all attempts and
            duplicates.
        payload: the bytes the receiver actually got (``None`` unless
            delivered) — differs from what was sent when the corruption
            fault fired.
        checksum_ok: whether the received payload matches the CRC-32 the
            sender stamped on the message (vacuously true for undelivered
            messages; the receiver must treat a delivered-but-corrupt
            payload as poison).
        n_corrupted: delivered attempts whose payload was bit-flipped.
        fast_failed: the message never hit the wire because the link's
            circuit breaker was open (0 attempts, 0 simulated seconds).
    """

    delivered: bool
    attempts: int
    sim_seconds: float
    arrival_s: float
    n_dropped: int = 0
    n_truncated: int = 0
    n_duplicates: int = 0
    bytes_sent: int = 0
    payload: bytes | None = None
    checksum_ok: bool = True
    n_corrupted: int = 0
    fast_failed: bool = False

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(0, self.attempts - 1)


@dataclass
class TransportStats:
    """Aggregate transport bookkeeping across all messages.

    Attributes:
        n_messages: logical messages handed to the transport.
        n_delivered: messages that eventually got through.
        n_failed: messages that exhausted their attempt budget.
        n_attempts: wire attempts (includes retries, excludes duplicates).
        n_retries: attempts beyond each message's first.
        n_dropped: attempts lost in flight.
        n_truncated: attempts that arrived corrupt.
        n_duplicates: duplicate copies delivered.
        n_corrupted: delivered payloads that arrived bit-flipped
            (checksum mismatch at the receiver).
        n_fast_failed: messages an open circuit breaker refused without
            touching the wire.
        n_breaker_state_changes: breaker transitions across all links
            (closed → open → half-open → …).
    """

    n_messages: int = 0
    n_delivered: int = 0
    n_failed: int = 0
    n_attempts: int = 0
    n_retries: int = 0
    n_dropped: int = 0
    n_truncated: int = 0
    n_duplicates: int = 0
    n_corrupted: int = 0
    n_fast_failed: int = 0
    n_breaker_state_changes: int = 0


@dataclass
class _LinkSequence:
    """Per-link logical-message counter (diversifies the RNG streams)."""

    next_seq: int = 0

    def take(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq


class ResilientTransport:
    """Timeout/retry/backoff delivery over a :class:`SimulatedNetwork`.

    Args:
        network: the accounting network every attempt is recorded on.
        plan: the fault plan deciding what goes wrong.
        policy: retry/backoff parameters.
        breaker_policy: optional per-link circuit breaker; ``None`` (the
            default) disables breakers entirely — existing runs are
            bit-identical.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; every
            delivery records ``transport.*`` counters (attempts, retries,
            drops, truncations, duplicates, corruptions, bytes per
            message kind) and ``breaker.*`` counters when breakers are
            enabled.
        retryable_errors: exception types from ``network.send`` treated
            as a lost attempt (charged a timeout, retried with backoff)
            instead of propagating.  The socket path passes ``OSError``
            and :class:`~repro.service.wire.WireError` here so real
            connection failures drive the same retry loop the simulated
            drops do.  The default ``()`` catches nothing — simulated
            runs are byte-identical to before this seam existed.
        sleep: optional callable taking seconds; when set, backoff
            delays are *really* slept (socket mode), not only added to
            the simulated clock.
    """

    def __init__(
        self,
        network: "SimulatedNetwork",
        plan: FaultPlan,
        policy: TransportPolicy | None = None,
        *,
        breaker_policy: BreakerPolicy | None = None,
        metrics=None,
        retryable_errors: tuple = (),
        sleep=None,
    ) -> None:
        self.network = network
        self.plan = plan
        self.policy = policy or TransportPolicy()
        self.breaker_policy = breaker_policy
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.retryable_errors = tuple(retryable_errors)
        self._sleep = sleep
        self.stats = TransportStats()
        self._sequences: dict[tuple[int, int, str], _LinkSequence] = {}
        self._breakers: dict[int, _LinkBreaker] = {}

    def _sequence(self, sender: int, receiver: int, kind: str) -> int:
        key = (sender, receiver, kind)
        if key not in self._sequences:
            self._sequences[key] = _LinkSequence()
        return self._sequences[key].take()

    def _breaker_for(self, site_end: int) -> "_LinkBreaker | None":
        if self.breaker_policy is None:
            return None
        if site_end not in self._breakers:
            self._breakers[site_end] = _LinkBreaker(self.breaker_policy)
        return self._breakers[site_end]

    def breaker_state(self, site_end: int) -> str:
        """Current breaker state of one link (``"closed"`` without one)."""
        breaker = self._breakers.get(site_end)
        return breaker.state if breaker is not None else "closed"

    @staticmethod
    def _flip_bytes(payload: bytes, rng: np.random.Generator) -> bytes:
        """Deterministically corrupt ``payload`` (at least one byte changes)."""
        data = bytearray(payload)
        n_flips = int(rng.integers(1, 9))
        positions = rng.integers(0, len(data), size=n_flips)
        masks = rng.integers(1, 256, size=n_flips)
        for pos, mask in zip(positions, masks):
            data[int(pos)] ^= int(mask)
        if bytes(data) == payload:  # two flips on one byte can cancel out
            data[0] ^= 0xFF
        return bytes(data)

    def deliver(
        self,
        sender: int,
        receiver: int,
        kind: str,
        payload: bytes,
        *,
        start_s: float = 0.0,
        receiver_down: bool = False,
    ) -> DeliveryOutcome:
        """Try to move one message, retrying through injected faults.

        Args:
            sender: site id, or a negative server id.
            receiver: site id, or a negative server id.
            kind: message tag (drives the per-kind byte accounting).
            payload: serialized content.
            start_s: simulated time at which the first attempt starts.
            receiver_down: the receiver has already crashed but the
                sender does not know.  Every attempt still reaches the
                wire (and is charged bytes and a timeout, like an
                in-flight drop), the full retry budget burns, and the
                message can never be delivered.  This is how a broadcast
                to a crash-after-send site is accounted: the server is
                not omniscient, so the bytes still hit the network.

        Returns:
            A :class:`DeliveryOutcome`; every attempt was recorded on the
            underlying network either way.
        """
        # The client end identifies the link (the other end is a server).
        site_end = sender if receiver < 0 else receiver
        breaker = self._breaker_for(site_end)
        if breaker is not None and not breaker.allow(start_s):
            # Open breaker: fail fast, no wire traffic, no RNG draws (the
            # per-message streams are keyed, so skipping one perturbs
            # nothing else).  The sequence number is not consumed either.
            self.stats.n_messages += 1
            self.stats.n_failed += 1
            self.stats.n_fast_failed += 1
            self.metrics.inc("transport.messages")
            self.metrics.inc("transport.failed")
            self.metrics.inc("breaker.fast_fails")
            return DeliveryOutcome(
                delivered=False,
                attempts=0,
                sim_seconds=0.0,
                arrival_s=start_s,
                fast_failed=True,
            )
        faults = self.plan.link_faults_for(site_end)
        seq = self._sequence(sender, receiver, kind)
        policy = self.policy

        elapsed = 0.0
        n_dropped = 0
        n_truncated = 0
        n_corrupted = 0
        n_duplicates = 0
        bytes_sent = 0
        delivered = False
        checksum_ok = True
        payload_out: bytes | None = None
        attempts = 0
        for attempt in range(1, policy.max_attempts + 1):
            attempts = attempt
            rng = self.plan.rng_for("link", site_end, kind, seq, attempt)
            # Fixed draw order keeps decisions independent of which fault
            # rates are enabled.
            u_drop, u_trunc, u_dup, u_jitter, u_reorder, u_backoff = rng.random(6)
            jitter = faults.jitter_s * u_jitter

            if receiver_down:
                # Dead receiver: the attempt is sent and charged like any
                # other, no ack ever comes back, the sender burns its
                # timeout.  (The RNG was still drawn above so the link's
                # other messages keep their streams.)
                self.network.send(sender, receiver, kind, payload)
                bytes_sent += len(payload)
                n_dropped += 1
                elapsed += policy.timeout_s
            elif u_drop < faults.drop_prob:
                # Lost in flight: the bytes left the sender, the receiver
                # saw nothing, the sender burns its timeout.
                self.network.send(sender, receiver, kind, payload)
                bytes_sent += len(payload)
                n_dropped += 1
                elapsed += policy.timeout_s
            elif u_trunc < faults.truncate_prob:
                # Short read: fraction of the payload arrives, receiver
                # detects the corruption after the (partial) transfer.
                keep = max(1, int(len(payload) * (0.1 + 0.8 * rng.random())))
                message = self.network.send(sender, receiver, kind, payload[:keep])
                bytes_sent += message.n_bytes
                n_truncated += 1
                elapsed += message.sim_seconds + jitter
            else:
                try:
                    message = self.network.send(sender, receiver, kind, payload)
                except self.retryable_errors:
                    # A real transport failure (socket reset, truncated
                    # response, injected fault): charge it like an
                    # in-flight drop and let the retry loop run.
                    bytes_sent += len(payload)
                    n_dropped += 1
                    elapsed += policy.timeout_s
                    if attempt < policy.max_attempts:
                        backoff = policy.backoff_seconds(attempt, u_backoff)
                        elapsed += backoff
                        if self._sleep is not None:
                            self._sleep(backoff)
                    continue
                bytes_sent += message.n_bytes
                elapsed += message.sim_seconds + jitter
                if u_reorder < faults.reorder_prob:
                    # Slow route: arrives late enough to land behind
                    # messages sent after it.
                    elapsed += faults.reorder_delay_s
                if u_dup < faults.duplicate_prob:
                    duplicate = self.network.send(sender, receiver, kind, payload)
                    bytes_sent += duplicate.n_bytes
                    n_duplicates += 1
                # Corruption draw: branch-local and *after* every decision
                # draw of this attempt, so enabling corrupt_prob cannot
                # shift any other fault's stream (the attempt's RNG is
                # keyed to this message alone and nothing draws after it).
                u_corrupt = rng.random()
                payload_out = payload
                if payload and u_corrupt < faults.corrupt_prob:
                    # Flipped in flight: the transfer *looks* successful;
                    # only the receiver's CRC check catches it.
                    payload_out = self._flip_bytes(payload, rng)
                    n_corrupted += 1
                checksum_ok = crc_matches(payload_out, message.payload_crc)
                delivered = True
                break

            if attempt < policy.max_attempts:
                elapsed += policy.backoff_seconds(attempt, u_backoff)

        if breaker is not None:
            # A delivered-but-corrupt message still counts as a success for
            # link *health*: the link moved bytes end to end.
            breaker.record(delivered, start_s + elapsed)
            self.stats.n_breaker_state_changes = sum(
                b.state_changes for b in self._breakers.values()
            )
        self.stats.n_messages += 1
        self.stats.n_attempts += attempts
        self.stats.n_retries += attempts - 1
        self.stats.n_dropped += n_dropped
        self.stats.n_truncated += n_truncated
        self.stats.n_duplicates += n_duplicates
        self.stats.n_corrupted += n_corrupted
        if delivered:
            self.stats.n_delivered += 1
        else:
            self.stats.n_failed += 1
        metrics = self.metrics
        metrics.inc("transport.messages")
        metrics.inc("transport.attempts", attempts)
        metrics.inc("transport.retries", attempts - 1)
        if n_dropped:
            metrics.inc("transport.drops", n_dropped)
        if n_truncated:
            metrics.inc("transport.truncated", n_truncated)
        if n_duplicates:
            metrics.inc("transport.duplicates", n_duplicates)
        if n_corrupted:
            metrics.inc("transport.corrupted", n_corrupted)
        if breaker is not None:
            metrics.set("breaker.state_changes", self.stats.n_breaker_state_changes)
        metrics.inc("transport.delivered" if delivered else "transport.failed")
        metrics.inc(f"transport.bytes[{kind}]", bytes_sent)
        metrics.observe("transport.sim_seconds", elapsed)
        return DeliveryOutcome(
            delivered=delivered,
            attempts=attempts,
            sim_seconds=elapsed,
            arrival_s=start_s + elapsed,
            n_dropped=n_dropped,
            n_truncated=n_truncated,
            n_duplicates=n_duplicates,
            bytes_sent=bytes_sent,
            payload=payload_out if delivered else None,
            checksum_ok=checksum_ok,
            n_corrupted=n_corrupted,
        )
