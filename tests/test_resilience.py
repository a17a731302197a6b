"""The daemon's per-target circuit breaker: transitions follow closed →
open → half-open → {closed, open} under an injected clock (no real
waiting), and every transition is a schema-valid ``circuit_state`` event.
"""

from __future__ import annotations

import pytest

from repro.obs import RingBufferSink, Tracer, activate
from repro.obs.events import validate_trace
from repro.robust.resilience import CircuitBreaker


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_breaker_opens_at_threshold_and_refuses():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0, clock=clock)
    assert breaker.allow("t")
    breaker.record_failure("t")
    breaker.record_failure("t")
    assert breaker.state("t") == "closed" and breaker.allow("t")
    breaker.record_failure("t")
    assert breaker.state("t") == "open" and not breaker.allow("t")
    # other targets are unaffected
    assert breaker.allow("elsewhere")


def test_breaker_half_open_probe_closes_on_success():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
    breaker.record_failure("t")
    assert not breaker.allow("t")
    clock.advance(5.0)
    assert breaker.state("t") == "half-open" and breaker.allow("t")
    breaker.record_success("t")
    assert breaker.state("t") == "closed"


def test_breaker_half_open_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, cooldown_s=5.0, clock=clock)
    breaker.record_failure("t")
    breaker.record_failure("t")
    clock.advance(5.0)
    assert breaker.state("t") == "half-open"
    breaker.record_failure("t")  # one probe failure suffices in half-open
    assert breaker.state("t") == "open" and not breaker.allow("t")
    # ... and the cooldown restarts from the re-open
    clock.advance(4.9)
    assert not breaker.allow("t")
    clock.advance(0.1)
    assert breaker.allow("t")


def test_breaker_success_resets_failure_count():
    breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
    breaker.record_failure("t")
    breaker.record_success("t")
    breaker.record_failure("t")
    assert breaker.state("t") == "closed"


def test_breaker_snapshot_and_transition_events():
    ring = RingBufferSink(capacity=None)
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
    with activate(Tracer(sinks=[ring])):
        breaker.record_failure("t")
        clock.advance(1.0)
        breaker.state("t")
        breaker.record_success("t")
    states = [e["state"] for e in ring.events if e["type"] == "circuit_state"]
    assert states == ["open", "half-open", "closed"]
    assert breaker.snapshot() == {"t": "closed"}
    validate_trace(ring.events)


def test_breaker_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
