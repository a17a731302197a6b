"""The per-target circuit breaker of the ``repro serve`` daemon.

The paper's ``W^τ`` worst case gives every consumer of the analysis a sound
fallback answer, which turns "keep the service up" from a best-effort goal
into a contract: *any* failure short of an untypeable input can be absorbed
by degrading, retrying, or isolating — never by refusing to answer.  The
supervised batch driver (:mod:`repro.batch`) keeps that contract with an
attempt count and a quarantine event; the daemon (:mod:`repro.serve`)
keeps one :class:`CircuitBreaker`: per-target failure accounting.  A
target that keeps failing trips open; while open, callers short-circuit to
the degraded answer immediately instead of burning a worker on a known-bad
target; after a cooldown one probe (half-open) decides whether to close.

Every transition is observable: ``circuit_state`` events flow through
:mod:`repro.obs` (schema-validated like every other event), and consumers
fold counts into the :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import time

from repro.obs import tracer as obs

__all__ = ["CircuitBreaker"]


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
