"""The crash flight recorder: an always-on black box for degraded runs.

A :class:`FlightRecorder` is a tracer sink that keeps the last
``capacity`` events in a bounded ring — the same near-zero cost profile
as :class:`~repro.obs.sinks.RingBufferSink` — and *auto-dumps* a
validated trace artifact the moment a trigger event flows through it:

* ``degradation`` — the hardened engine fell back toward W^τ (exit 3);
* ``quarantine`` — the batch driver excluded a poison input;
* ``worker_restart`` — the supervisor replaced a crashed/hung worker;
* ``check_rule_fired`` with severity ``error`` — the auditor found an
  unsound optimization (exit 4).

The dump is a JSONL file headed by a synthetic ``flight_dump`` event
recording why and how much was captured, with the captured events
re-sequenced from 1 so the artifact passes :func:`validate_trace` as-is
— every flight dump is immediately `repro explain`-able.

Because the recorder is *always on* (the CLI installs one around every
command), triggers fire inside the process where degradation happened,
so the black box captures the causal run-up even when the process then
dies.  Dump files are only written when a dump directory is configured
(``--flight-dir`` / ``REPRO_FLIGHT_DIR``); without one the ring still
records and can be snapshotted on demand (``GET /debug/flight``).
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path

#: Default ring bound: enough for a full single-query run-up (the worklist
#: engine emits ~hundreds of events per solve), small enough to be cheap.
DEFAULT_FLIGHT_CAPACITY = 4_096

#: Cap on dump files per recorder, and on the worker dumps of one batch run
#: (:mod:`repro.batch` stops handing workers the dump directory once their
#: answers have brought back this many), so a pathological run (every file
#: of a large batch degrading) cannot fill the disk with near-identical boxes.
DEFAULT_MAX_DUMPS = 8

#: Event types that trip an automatic dump.
TRIGGER_EVENTS = frozenset({"degradation", "quarantine", "worker_restart"})

#: Environment variable naming the dump directory (the CLI flag wins).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"


def _is_trigger(event: dict) -> "str | None":
    """The trigger reason if ``event`` should trip a dump, else ``None``."""
    etype = event["type"]
    if etype in TRIGGER_EVENTS:
        return etype
    if etype == "check_rule_fired" and event.get("severity") == "error":
        return "checker_error"
    return None


class FlightRecorder:
    """A bounded ring sink that dumps a validated black box on trouble."""

    def __init__(
        self,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        dump_dir: "str | Path | None" = None,
        max_dumps: int = DEFAULT_MAX_DUMPS,
        label: str = "flight",
    ):
        self.capacity = capacity
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.max_dumps = max_dumps
        self.label = label
        self._ring: deque[dict] = deque(maxlen=capacity)
        self.total = 0
        self.triggers = 0
        self.dumps: list[Path] = []

    # -- sink protocol -------------------------------------------------------

    def write(self, event: dict) -> None:
        self._ring.append(event)
        self.total += 1
        reason = _is_trigger(event)
        if reason is not None:
            self.triggers += 1
            if self.dump_dir is not None and len(self.dumps) < self.max_dumps:
                self.dumps.append(self._dump_to_dir(reason))

    # -- snapshots & dumps ---------------------------------------------------

    def snapshot(self) -> list[dict]:
        """The ring's contents right now, oldest first."""
        return list(self._ring)

    def dump_events(self, reason: str) -> list[dict]:
        """The black-box artifact as events: a synthetic ``flight_dump``
        header (seq 0) plus the captured window re-sequenced from 1, so
        the whole artifact passes ``validate_trace``."""
        captured = self.snapshot()
        header = {
            "seq": 0,
            "ts": 0.0,
            "type": "flight_dump",
            "reason": reason,
            "captured": len(captured),
            "total": self.total,
        }
        out = [header]
        for offset, event in enumerate(captured, start=1):
            copy = dict(event)
            copy["src_seq"] = copy.get("seq", offset)
            copy["seq"] = offset
            out.append(copy)
        return out

    def dump(self, path: "str | Path", reason: str = "manual") -> Path:
        """Write the black box to ``path`` as JSONL; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for event in self.dump_events(reason):
                handle.write(json.dumps(event, default=str) + "\n")
        os.replace(tmp, path)
        return path

    def _dump_to_dir(self, reason: str) -> Path:
        assert self.dump_dir is not None
        name = f"{self.label}-{len(self.dumps):03d}-{reason}.jsonl"
        return self.dump(self.dump_dir / name, reason)


# -- the process-wide recorder ------------------------------------------------
#
# The CLI installs one recorder per process (always on); components that
# need the black box on demand — the serve daemon's /debug/flight, the
# CLI's belt-and-braces dump on exit 3/4 — fetch it here.

_installed: FlightRecorder | None = None


def install(flight: "FlightRecorder | None") -> "FlightRecorder | None":
    """Make ``flight`` the process-wide recorder (``None`` uninstalls);
    returns it."""
    global _installed
    _installed = flight
    return flight


def recorder() -> FlightRecorder | None:
    """The process-wide recorder, or ``None`` before :func:`install`."""
    return _installed


def dump_dir_from_env() -> "Path | None":
    """The dump directory named by ``REPRO_FLIGHT_DIR``, if set."""
    value = os.environ.get(FLIGHT_DIR_ENV)
    return Path(value) if value else None
