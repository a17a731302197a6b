"""Resilience policies: retry, circuit breaker, quarantine.

The paper's ``W^τ`` worst case gives every consumer of the analysis a sound
fallback answer, which turns "keep the service up" from a best-effort goal
into a contract: *any* failure short of an untypeable input can be absorbed
by degrading, retrying, or isolating — never by refusing to answer.  This
module holds the policy pieces: the supervised batch driver
(:mod:`repro.batch`) runs its own retry loop with :class:`RetryPolicy` and
:class:`Quarantine`, and the ``repro serve`` daemon (:mod:`repro.serve`)
keeps one :class:`CircuitBreaker`:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  **deterministic** jitter: the delay for ``(key, attempt)`` is a pure
  function of the policy seed, so a failing schedule replays exactly (the
  same property :mod:`repro.robust.faults` gives fault injection).
* :class:`CircuitBreaker` — per-target failure accounting.  A target that
  keeps failing trips open; while open, callers short-circuit to the
  degraded answer immediately instead of burning a worker on a known-bad
  target; after a cooldown one probe (half-open) decides whether to close.
* :class:`Quarantine` — the terminal state for poison inputs: a target
  that exhausted its attempts is recorded (with every attempt's reason)
  and excluded, so one pathological file can never sink a batch or pin a
  worker pool.

Every decision is observable: ``retry``, ``timeout``, ``quarantine`` and
``circuit_state`` events flow through :mod:`repro.obs` (schema-validated
like every other event), and consumers fold counts into the
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.obs import tracer as obs

__all__ = ["RetryPolicy", "CircuitBreaker", "Quarantine", "QuarantineEntry"]


# -- retry with deterministic jitter -----------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry a failed target, and how long to wait.

    ``delay(key, attempt)`` is exponential backoff with multiplicative
    jitter derived from ``sha256(seed, key, attempt)`` — deterministic per
    (policy, target, attempt), decorrelated across targets, so a fleet of
    retrying workers never thunders in lockstep *and* a chaos run replays
    bit-identically under the same seed.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    #: total jitter band as a fraction of the capped delay: the jittered
    #: delay lies in ``[delay * (1 - jitter/2), delay * (1 + jitter/2)]``.
    jitter: float = 0.5
    seed: int = 0

    def jitter_fraction(self, key: str, attempt: int) -> float:
        """The deterministic uniform-in-[0,1) draw for ``(key, attempt)``."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based: the
        delay taken *after* the ``attempt``-th failure)."""
        raw = self.base_delay_s * self.multiplier ** max(0, attempt - 1)
        capped = min(self.max_delay_s, raw)
        fraction = self.jitter_fraction(key, attempt)
        return capped * (1.0 - self.jitter / 2.0 + self.jitter * fraction)

    def should_retry(self, attempt: int) -> bool:
        """True while ``attempt`` (1-based, just failed) leaves attempts."""
        return attempt < self.max_attempts


# -- circuit breaker ---------------------------------------------------------


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class _Circuit:
    __slots__ = ("state", "failures", "opened_at")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0


class CircuitBreaker:
    """Per-target three-state breaker (closed → open → half-open).

    ``failure_threshold`` consecutive failures open a target's circuit;
    while open, :meth:`allow` refuses; after ``cooldown_s`` the next caller
    is admitted as the half-open probe, and its outcome closes or re-opens
    the circuit.  The clock is injectable so tests (and the chaos harness)
    need no real waiting.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self._circuits: dict[str, _Circuit] = {}

    def _transition(self, target: str, circuit: _Circuit, state: str) -> None:
        if circuit.state != state:
            circuit.state = state
            obs.emit("circuit_state", target=target, state=state)

    def state(self, target: str) -> str:
        """The target's current state (cooldown expiry applied lazily)."""
        circuit = self._circuits.get(target)
        if circuit is None:
            return CLOSED
        if (
            circuit.state == OPEN
            and self.clock() - circuit.opened_at >= self.cooldown_s
        ):
            self._transition(target, circuit, HALF_OPEN)
        return circuit.state

    def allow(self, target: str) -> bool:
        """May a call to ``target`` proceed right now?  Half-open admits
        exactly the callers that arrive before the probe's verdict."""
        return self.state(target) != OPEN

    def record_success(self, target: str) -> None:
        # A target that never failed has no circuit and stays without one:
        # ``state`` answers closed for it, and a service that sees a new
        # target per request must not keep (and snapshot) one per success.
        circuit = self._circuits.get(target)
        if circuit is None:
            return
        circuit.failures = 0
        self._transition(target, circuit, CLOSED)

    def record_failure(self, target: str) -> None:
        circuit = self._circuits.setdefault(target, _Circuit())
        circuit.failures += 1
        if circuit.state == HALF_OPEN or circuit.failures >= self.failure_threshold:
            circuit.opened_at = self.clock()
            self._transition(target, circuit, OPEN)

    def snapshot(self) -> dict[str, str]:
        """Target → state, for ``/metrics`` and reports."""
        return {target: self.state(target) for target in sorted(self._circuits)}


# -- quarantine --------------------------------------------------------------


@dataclass
class QuarantineEntry:
    """One poisoned target: who, how many attempts, and why each failed."""

    key: str
    attempts: int
    reason: str
    errors: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "attempts": self.attempts,
            "reason": self.reason,
            "errors": list(self.errors),
        }


class Quarantine:
    """The registry of inputs that exhausted their attempts.

    Quarantine beats fail-fast for a service: the run keeps its throughput,
    the poison input keeps its full failure history in the report, and the
    caller still gets the sound degraded answer for it — nothing is
    silently dropped and nothing sinks the fleet.
    """

    def __init__(self) -> None:
        self._entries: dict[str, QuarantineEntry] = {}

    def add(self, key: str, attempts: int, reason: str, errors=()) -> QuarantineEntry:
        entry = QuarantineEntry(
            key=key, attempts=attempts, reason=reason, errors=list(errors)
        )
        self._entries[key] = entry
        obs.emit("quarantine", key=key, attempts=attempts, reason=reason)
        return entry

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[QuarantineEntry]:
        return [self._entries[key] for key in sorted(self._entries)]

    def to_json(self) -> list[dict]:
        return [entry.to_json() for entry in self.entries()]
