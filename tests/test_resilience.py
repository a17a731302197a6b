"""Resilience policies: deterministic backoff, the per-target circuit
breaker, and poison-input quarantine.

The properties that matter for the always-answer contract: delays are a
pure function of ``(seed, key, attempt)`` (chaos runs replay exactly),
breaker transitions follow closed → open → half-open → {closed, open}
under an injected clock (no real waiting), and quarantine keeps the full
failure history.
"""

from __future__ import annotations

import pytest

from repro.obs import RingBufferSink, Tracer, activate
from repro.obs.events import validate_trace
from repro.robust.resilience import CircuitBreaker, Quarantine, RetryPolicy


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_per_seed_key_attempt():
    a = RetryPolicy(seed=7)
    b = RetryPolicy(seed=7)
    for attempt in (1, 2, 3, 9):
        assert a.delay("x.nml", attempt) == b.delay("x.nml", attempt)
        assert a.jitter_fraction("x.nml", attempt) == b.jitter_fraction(
            "x.nml", attempt
        )


def test_backoff_decorrelates_across_seeds_and_keys():
    policy = RetryPolicy(seed=0)
    other_seed = RetryPolicy(seed=1)
    assert policy.delay("a.nml", 1) != other_seed.delay("a.nml", 1)
    assert policy.delay("a.nml", 1) != policy.delay("b.nml", 1)


def test_backoff_grows_exponentially_within_the_jitter_band():
    policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=100.0, jitter=0.5)
    for attempt in range(1, 6):
        capped = 0.1 * 2.0 ** (attempt - 1)
        delay = policy.delay("k", attempt)
        assert capped * 0.75 <= delay <= capped * 1.25


def test_backoff_caps_at_max_delay():
    policy = RetryPolicy(base_delay_s=1.0, multiplier=10.0, max_delay_s=2.0, jitter=0.0)
    assert policy.delay("k", 5) == 2.0


def test_zero_jitter_is_pure_exponential():
    policy = RetryPolicy(base_delay_s=0.5, multiplier=2.0, max_delay_s=100.0, jitter=0.0)
    assert [policy.delay("k", n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]


def test_should_retry_boundary():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(1) and policy.should_retry(2)
    assert not policy.should_retry(3)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# quarantine
# ---------------------------------------------------------------------------


def test_quarantine_records_full_history():
    ring = RingBufferSink(capacity=None)
    quarantine = Quarantine()
    with activate(Tracer(sinks=[ring])):
        quarantine.add("bad.nml", attempts=3, reason="analysis-error", errors=["a", "b"])
    assert "bad.nml" in quarantine and len(quarantine) == 1
    assert quarantine.to_json() == [
        {
            "key": "bad.nml",
            "attempts": 3,
            "reason": "analysis-error",
            "errors": ["a", "b"],
        }
    ]
    assert [e["type"] for e in ring.events] == ["quarantine"]
    validate_trace(ring.events)
