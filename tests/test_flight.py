"""The crash flight recorder (:mod:`repro.obs.flight`): ring bounds,
trigger-driven dumps, dump validity, and the chaos acceptance story — a
seeded chaos batch run leaves a black box that ``validate_trace``
accepts and ``repro explain`` can reconstruct the degraded query from."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lang.prelude import prelude_source
from repro.obs import Tracer, activate, emit
from repro.obs.events import validate_trace, validate_trace_file
from repro.obs.explain import explain_binding
from repro.obs.flight import (
    DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_MAX_DUMPS,
    FLIGHT_DIR_ENV,
    FlightRecorder,
    dump_dir_from_env,
    install,
    recorder,
)


def _event(seq, etype, **fields):
    return {"seq": seq, "ts": float(seq), "type": etype, **fields}


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        flight = FlightRecorder(capacity=4)
        for seq in range(10):
            flight.write(_event(seq, "store_reap", count=seq))
        assert flight.total == 10
        window = flight.snapshot()
        assert len(window) == 4
        assert [e["count"] for e in window] == [6, 7, 8, 9]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_CAPACITY

    def test_trigger_dumps_to_dir(self, tmp_path):
        flight = FlightRecorder(dump_dir=tmp_path)
        flight.write(_event(0, "store_reap", count=0))
        flight.write(_event(1, "degradation", reason="deadline", stage="solve"))
        assert flight.triggers == 1
        assert len(flight.dumps) == 1
        dump = flight.dumps[0]
        assert dump.parent == tmp_path
        assert "degradation" in dump.name
        validate_trace_file(dump)

    def test_no_dump_dir_still_counts_triggers(self):
        flight = FlightRecorder()
        flight.write(_event(0, "quarantine", key="x", attempts=3, reason="boom"))
        assert flight.triggers == 1
        assert flight.dumps == []

    def test_max_dumps_cap(self, tmp_path):
        flight = FlightRecorder(dump_dir=tmp_path, max_dumps=2)
        for seq in range(5):
            flight.write(
                _event(seq, "worker_restart", key="f", attempt=seq, cause="crash")
            )
        assert flight.triggers == 5
        assert len(flight.dumps) == 2

    def test_checker_error_is_a_trigger_warning_is_not(self, tmp_path):
        flight = FlightRecorder(dump_dir=tmp_path)
        flight.write(
            _event(0, "check_rule_fired", rule="r", severity="warning", **{"pass": "lint"})
        )
        assert flight.triggers == 0
        flight.write(
            _event(1, "check_rule_fired", rule="r", severity="error", **{"pass": "audit"})
        )
        assert flight.triggers == 1
        assert "checker_error" in flight.dumps[0].name

    def test_dump_events_validate_with_header(self):
        flight = FlightRecorder()
        flight.write(_event(0, "store_reap", count=1))
        flight.write(_event(1, "degradation", reason="deadline", stage="solve"))
        events = flight.dump_events("manual")
        validate_trace(events)
        header = events[0]
        assert header["type"] == "flight_dump"
        assert header["reason"] == "manual"
        assert header["captured"] == 2
        assert header["total"] == 2
        # Captured events are re-sequenced after the header, originals kept.
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert [e["src_seq"] for e in events[1:]] == [0, 1]

    def test_install_and_env_dir(self, tmp_path, monkeypatch):
        # Put the process-wide recorder back after the test.
        monkeypatch.setattr("repro.obs.flight._installed", None)
        flight = FlightRecorder()
        assert install(flight) is flight
        assert recorder() is flight
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        assert dump_dir_from_env() is None
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        assert dump_dir_from_env() == tmp_path

    def test_recorder_captures_via_tracer(self):
        flight = FlightRecorder()
        with activate(Tracer(sinks=[flight])):
            emit("store_reap", count=3)
        assert flight.total == 1
        assert flight.snapshot()[0]["count"] == 3


APPEND = prelude_source(["append"], "append [1, 2] [3]")
REV = prelude_source(["append", "rev"], "rev [1, 2, 3]")
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


class TestChaosAcceptance:
    """The acceptance story: a seeded chaos run (injected worker crash +
    budget degradation) must leave a validated black box from which the
    degraded query's causal chain can be reconstructed."""

    @pytest.fixture
    def corpus(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "append.nml").write_text(APPEND)
        (root / "rev.nml").write_text(REV)
        return root

    def test_chaos_run_leaves_an_explainable_black_box(
        self, corpus, tmp_path, monkeypatch
    ):
        from repro.batch import run_batch
        from repro.robust.faults import FaultPlan

        box = tmp_path / "black-box"
        flight = FlightRecorder(dump_dir=box)
        # Every worker attempt dumps into the installed recorder's directory.
        monkeypatch.setattr("repro.obs.flight._installed", flight)
        plan = FaultPlan(worker_crash_at=1)
        with activate(Tracer(sinks=[flight])):
            report = run_batch(
                [corpus],
                store_root=None,
                jobs=1,
                deadline_ms=0.0001,
                max_attempts=2,
                fault_plan=plan,
                trace=True,
            )
        # The injected crash was retried (the driver's trigger) and the tiny
        # deadline degraded every solve (the workers' triggers).
        assert flight.triggers >= 1 and flight.dumps
        assert report.degraded_files
        assert report.exit_code() == 3
        dumps = sorted(box.glob("*.jsonl"))
        assert set(flight.dumps) < set(dumps)

        # Every dump is a schema-valid trace in its own right.
        for dump in dumps:
            validate_trace_file(dump)

        # And a black box alone reconstructs the degraded query's causal
        # chain: the binding was found, its degradation recorded.
        degraded = next(r for r in report.reports if r.degraded)
        binding = "rev" if "rev" in degraded.path else "append"

        def explains(dump) -> bool:
            events = [json.loads(line) for line in dump.read_text().splitlines()]
            explanation = explain_binding(events, binding)
            return (
                explanation.found
                and bool(explanation.degradations)
                and degraded.trace_id in explanation.trace_ids
            )

        explained = [dump for dump in dumps if explains(dump)]
        assert explained

        # The CLI agrees: `repro explain` on the dump file exits 0 and
        # renders the degradation chain.
        assert main(["explain", str(explained[0]), "--binding", binding]) == 0

    def test_cli_batch_degradation_dumps_with_flight_dir(
        self, corpus, tmp_path, capsys
    ):
        box = tmp_path / "box"
        code = main(
            [
                "--flight-dir",
                str(box),
                "batch",
                str(corpus),
                "--no-store",
                "--deadline-ms",
                "0.0001",
            ]
        )
        assert code == 3
        dumps = sorted(box.glob("*.jsonl"))
        assert dumps
        for dump in dumps:
            validate_trace_file(dump)

    def test_flight_dir_reaches_the_workers(self, tmp_path, monkeypatch, capsys):
        # The workers' own recorders hold the degraded queries' run-up; the
        # driver sees only their exit code.
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "partition_sort.nml").write_text(
            (EXAMPLES / "partition_sort.nml").read_text()
        )
        box = tmp_path / "box"
        code = main(
            [
                "--flight-dir",
                str(box),
                "batch",
                str(corpus),
                "--no-store",
                "--deadline-ms",
                "0.0001",
                "--jobs",
                "2",
            ]
        )
        assert code == 3

        def breaches(dump) -> list:
            events = [json.loads(line) for line in dump.read_text().splitlines()]
            explanation = explain_binding(events, "ps")
            return [d for d in explanation.degradations if d["function"] == "ps"]

        explained = [dump for dump in sorted(box.glob("*.jsonl")) if breaches(dump)]
        assert explained
        assert main(["explain", str(explained[0]), "--binding", "ps"]) == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_dumps_are_capped_per_run(self, tmp_path, jobs, capsys):
        # Every file degrades, but the workers stop dumping once the run has
        # DEFAULT_MAX_DUMPS boxes; each running worker may finish its own.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(3 * DEFAULT_MAX_DUMPS):
            (corpus / f"f{i:02d}.nml").write_text(APPEND)
        box = tmp_path / "box"
        argv = ["--flight-dir", str(box), "batch", str(corpus), "--no-store"]
        argv += ["--deadline-ms", "0.0001", "--jobs", str(jobs)]
        assert main(argv) == 3
        dumps = list(box.glob("worker-flight-*.jsonl"))
        assert DEFAULT_MAX_DUMPS <= len(dumps) <= jobs * DEFAULT_MAX_DUMPS

    def test_cli_no_flight_dir_writes_nothing(self, corpus, tmp_path, monkeypatch):
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        code = main(["batch", str(corpus), "--no-store", "--deadline-ms", "0.0001"])
        assert code == 3
        assert list(tmp_path.glob("*.jsonl")) == []
