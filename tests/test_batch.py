"""The parallel batch driver (:mod:`repro.batch`) and its ``repro batch``
CLI: corpus collection, serial and process-parallel runs through a shared
store, warm-run accounting, error containment, and the long-lived worker
pool."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import BatchReport, FileReport, analyze_one, collect_inputs, run_batch
from repro.cli import main
from repro.lang.prelude import prelude_source
from repro.obs import RingBufferSink, Tracer, activate
from repro.obs.events import validate_trace
from repro.robust.faults import FaultPlan, SlowStage
from repro.robust.resilience import RetryPolicy

APPEND = prelude_source(["append"], "append [1, 2] [3]")
REV = prelude_source(["append", "rev"], "rev [1, 2, 3]")


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    (root / "nested").mkdir(parents=True)
    (root / "append.nml").write_text(APPEND)
    (root / "nested" / "rev.nml").write_text(REV)
    return root


class TestCollectInputs:
    def test_directories_recurse_sorted(self, corpus):
        found = collect_inputs([corpus])
        assert [p.name for p in found] == ["append.nml", "rev.nml"]

    def test_duplicates_dropped_files_pass_through(self, corpus):
        direct = corpus / "append.nml"
        found = collect_inputs([direct, corpus])
        assert [p.name for p in found] == ["append.nml", "rev.nml"]

    def test_non_nml_files_ignored_in_directories(self, corpus):
        (corpus / "README.md").write_text("not a program")
        assert len(collect_inputs([corpus])) == 2


class TestAnalyzeOne:
    def test_reports_functions_and_stats(self, corpus):
        report = analyze_one(str(corpus / "append.nml"), None)
        assert report.ok
        assert report.functions == 1
        assert report.d >= 1
        assert report.stats["iterations"] > 0
        assert "ok" in report.line()

    def test_bad_file_is_contained(self, tmp_path):
        bad = tmp_path / "bad.nml"
        bad.write_text("this is not ( valid")
        report = analyze_one(str(bad), None)
        assert not report.ok
        assert report.error
        assert "ERROR" in report.line()

    def test_report_is_picklable(self, corpus):
        import pickle

        report = analyze_one(str(corpus / "append.nml"), None)
        assert pickle.loads(pickle.dumps(report)) == report


class TestRunBatch:
    def test_serial_cold_then_warm(self, corpus, tmp_path):
        store = tmp_path / "store"
        cold = run_batch([corpus], store_root=store, jobs=1, d=2)
        assert cold.ok
        assert cold.totals()["iterations"] > 0
        assert cold.totals()["store_writes"] > 0
        # append is one typed SCC shared by both files at pinned d: the
        # second file decodes the first file's fixpoint even in run one.
        assert cold.totals()["store_hits"] >= 1

        warm = run_batch([corpus], store_root=store, jobs=1, d=2)
        totals = warm.totals()
        assert totals["scc_misses"] == 0
        assert totals["iterations"] == 0
        assert totals["store_misses"] == 0
        assert totals["store_hits"] == cold.totals()["scc_hits"] + cold.totals()[
            "scc_misses"
        ]

    def test_parallel_warm_run_does_no_fixpoint_work(self, corpus, tmp_path):
        store = tmp_path / "store"
        run_batch([corpus], store_root=store, jobs=1, d=2)
        warm = run_batch([corpus], store_root=store, jobs=2, d=2)
        assert warm.jobs == 2
        assert warm.totals()["iterations"] == 0
        assert warm.totals()["scc_misses"] == 0

    def test_parallel_matches_serial_results(self, corpus, tmp_path):
        serial = run_batch([corpus], jobs=1)
        parallel = run_batch([corpus], store_root=tmp_path / "store", jobs=2)
        assert [r.path for r in parallel.reports] == [r.path for r in serial.reports]
        assert [(r.ok, r.d, r.functions) for r in parallel.reports] == [
            (r.ok, r.d, r.functions) for r in serial.reports
        ]

    def test_no_store_runs_standalone(self, corpus):
        report = run_batch([corpus], store_root=None, jobs=1)
        assert report.ok
        assert report.store_root is None
        assert report.totals().get("store_hits", 0) == 0

    def test_unbreached_deadline_reports_what_no_deadline_does(self, corpus):
        def facts(report):
            return [(r.path, r.d, r.functions, r.stats, r.degraded) for r in report.reports]

        exact = facts(run_batch([corpus], jobs=1))
        assert facts(run_batch([corpus], jobs=1, deadline_ms=600_000)) == exact

    def test_failed_file_does_not_sink_the_batch(self, corpus):
        (corpus / "bad.nml").write_text("][")
        report = run_batch([corpus], jobs=1)
        assert not report.ok
        assert sum(1 for r in report.reports if r.ok) == 2
        assert "1 failed" in report.summary()

    def test_empty_batch_is_not_ok(self):
        assert not BatchReport(reports=[], jobs=1, store_root=None).ok

    def test_run_sweeps_stale_tmp_files_once(self, corpus, tmp_path, monkeypatch):
        from repro.store import DEFAULT_REAP_AGE_S, AnalysisStore

        store = tmp_path / "store"
        stale = store / "ab" / ".orphan.tmp"
        stale.parent.mkdir(parents=True)
        stale.write_text("{")
        old = time.time() - DEFAULT_REAP_AGE_S - 60
        os.utime(stale, (old, old))
        sweeps = []
        original = AnalysisStore.tmp_files
        monkeypatch.setattr(
            AnalysisStore,
            "tmp_files",
            lambda self: sweeps.append(1) or original(self),
        )
        assert run_batch([corpus], store_root=store, jobs=1).ok
        assert not stale.exists()
        assert len(sweeps) == 1  # at the start of the run, not per file

    def test_in_process_snapshot_worker_does_not_sweep(
        self, corpus, tmp_path, monkeypatch
    ):
        from repro.diff.snapshot import snapshot_one
        from repro.store import AnalysisStore

        def no_sweep(self):
            raise AssertionError("a worker swept the store")

        monkeypatch.setattr(AnalysisStore, "tmp_files", no_sweep)
        report = snapshot_one(
            str(corpus / "append.nml"),
            str(tmp_path / "store"),
            out_dir=str(tmp_path / "out"),
            rel="append.nml",
        )
        assert report.ok

    def test_totals_skip_failed_files_and_bools(self):
        report = BatchReport(
            reports=[
                FileReport(path="a", ok=True, stats={"iterations": 2, "store": {"hits": 1}}),
                FileReport(path="b", ok=False, error="x", stats={"iterations": 99}),
            ],
            jobs=1,
            store_root=None,
        )
        assert report.totals() == {"iterations": 2, "store_hits": 1}


class TestBatchCli:
    def test_batch_text_output(self, corpus, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["batch", str(corpus), "--store", store, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "append.nml: ok" in out
        assert "rev.nml: ok" in out
        assert "-- 2 file(s), 1 job(s)" in out
        assert f"store: {store}" in out

    def test_batch_default_store_next_to_corpus(self, corpus, capsys):
        assert main(["batch", str(corpus)]) == 0
        assert (corpus / ".repro-store").is_dir()

    def test_batch_no_store(self, corpus, capsys):
        assert main(["batch", str(corpus), "--no-store"]) == 0
        assert not (corpus / ".repro-store").exists()
        assert "no store" in capsys.readouterr().out

    def test_batch_json_warm_run_reports_zero_misses(self, corpus, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["batch", str(corpus), "--jobs", "2", "--store", store, "--d", "2", "--json"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        assert doc["jobs"] == 2
        assert doc["totals"]["scc_misses"] == 0
        assert doc["totals"]["iterations"] == 0
        assert {f["path"].rsplit("/", 1)[-1] for f in doc["files"]} == {
            "append.nml",
            "rev.nml",
        }

    def test_batch_error_exit_code(self, corpus, capsys):
        (corpus / "bad.nml").write_text("][")
        assert main(["batch", str(corpus), "--no-store"]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_batch_empty_corpus_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 1
        assert "error" in capsys.readouterr().err


class TestSupervisedFailures:
    """The supervised worker pool: hung workers are preempted, crashed
    workers are replaced, poison inputs are quarantined — and every path
    is deterministic under a seeded plan."""

    RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, seed=1)

    def test_hung_worker_is_killed_and_retried(self, corpus, tmp_path):
        ring = RingBufferSink(capacity=None)
        plan = FaultPlan(slow_stages=(SlowStage("worker", at=1, seconds=10.0),))
        with activate(Tracer(sinks=[ring])):
            report = run_batch(
                [corpus],
                store_root=tmp_path / "store",
                jobs=2,
                timeout_s=0.4,
                retry=self.RETRY,
                fault_plan=plan,
            )
        assert report.ok and report.answered
        assert max(r.attempts for r in report.reports) == 2
        types = [e["type"] for e in ring.events]
        assert "timeout" in types and "retry" in types
        restarts = [e for e in ring.events if e["type"] == "worker_restart"]
        assert [e["cause"] for e in restarts] == ["timeout"]
        validate_trace(ring.events)

    def test_crashed_worker_is_replaced(self, corpus, tmp_path):
        ring = RingBufferSink(capacity=None)
        plan = FaultPlan(worker_crash_at=1)
        with activate(Tracer(sinks=[ring])):
            report = run_batch(
                [corpus],
                store_root=tmp_path / "store",
                jobs=2,
                timeout_s=5.0,
                retry=self.RETRY,
                fault_plan=plan,
            )
        assert report.ok
        assert max(r.attempts for r in report.reports) == 2
        restarts = [e for e in ring.events if e["type"] == "worker_restart"]
        assert [e["cause"] for e in restarts] == ["worker-crashed"]
        validate_trace(ring.events)

    def test_always_hanging_file_is_quarantined_not_fatal(self, corpus, tmp_path):
        plan = FaultPlan(slow_stages=(SlowStage("worker", at=1, every=1, seconds=10.0),))
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02, seed=1)
        report = run_batch(
            [corpus], jobs=2, timeout_s=0.25, retry=retry, fault_plan=plan
        )
        assert report.answered and not report.ok
        assert not report.hard_failures
        assert len(report.quarantined_files) == len(report.reports)
        assert report.exit_code() == 3
        quarantined = report.reports[0]
        assert quarantined.attempts == 2
        assert "QUARANTINED" in quarantined.line()
        doc = report.to_json()
        assert doc["exit_code"] == 3 and doc["quarantined"] == len(report.reports)

    def test_serial_injected_crash_retries_with_deterministic_jitter(
        self, corpus, tmp_path
    ):
        ring = RingBufferSink(capacity=None)
        plan = FaultPlan(worker_crash_at=1)
        with activate(Tracer(sinks=[ring])):
            report = run_batch(
                [corpus], jobs=1, retry=self.RETRY, fault_plan=plan
            )
        assert report.ok
        retries = [e for e in ring.events if e["type"] == "retry"]
        assert len(retries) == 1
        failed = report.reports[0]
        assert failed.attempts == 2
        # the delay taken is exactly the policy's pure function of
        # (seed, key, attempt) — a chaos schedule replays bit-identically
        assert retries[0]["delay_s"] == round(self.RETRY.delay(failed.path, 1), 9)
        assert retries[0]["key"] == failed.path

    def test_quarantined_file_carries_failure_history(self, corpus):
        plan = FaultPlan(slow_stages=(SlowStage("worker", at=1, every=1, seconds=10.0),))
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02, seed=1)
        report = run_batch([corpus], jobs=1, timeout_s=0.25, retry=retry, fault_plan=plan)
        doc = report.to_json()
        entry = next(f for f in doc["files"] if f["quarantined"])
        assert entry["attempts"] == 2 and not entry["ok"]


class TestExitCodeTaxonomy:
    """``repro batch`` honors the 0/1/3/4 contract end to end."""

    def test_degraded_only_run_exits_3(self, corpus, capsys):
        args = [
            "batch", str(corpus), "--no-store", "--deadline-ms", "0.0001", "--json",
        ]
        assert main(args) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["answered"]
        assert doc["exit_code"] == 3 and doc["degraded"] == len(doc["files"])
        assert all(f["degraded"] for f in doc["files"])

    def test_clean_run_still_exits_0(self, corpus):
        assert main(["batch", str(corpus), "--no-store"]) == 0

    def test_hard_failure_beats_degraded(self, corpus, capsys):
        (corpus / "bad.nml").write_text("][")
        args = ["batch", str(corpus), "--no-store", "--deadline-ms", "0.0001"]
        assert main(args) == 1


class TestInputValidation:
    """collect_inputs rejects bad paths loudly (exit 2 at the CLI) instead
    of silently analyzing an empty or aliased corpus."""

    def test_nonexistent_path_raises(self, tmp_path):
        from repro.batch import BatchInputError

        with pytest.raises(BatchInputError, match="no such file"):
            collect_inputs([tmp_path / "ghost"])

    def test_non_nml_explicit_file_raises(self, tmp_path):
        from repro.batch import BatchInputError

        readme = tmp_path / "README.md"
        readme.write_text("not a program")
        with pytest.raises(BatchInputError, match="not a .nml program"):
            collect_inputs([readme])

    def test_returns_resolved_paths_deduped_across_aliases(self, corpus):
        # The same file via its directory and via a ./-style alias must
        # collapse to ONE resolved entry, not two spellings of it.
        alias = corpus / "nested" / ".." / "append.nml"
        found = collect_inputs([alias, corpus])
        assert [p.name for p in found] == ["append.nml", "rev.nml"]
        assert all(p.is_absolute() and ".." not in p.parts for p in found)

    def test_cli_exits_2_on_bad_input(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "ghost")]) == 2
        assert "no such file" in capsys.readouterr().err


def pid_worker(*args) -> FileReport:
    """:func:`analyze_one`, plus the pid of the process that answered."""
    report = analyze_one(*args)
    report.stats["pid"] = os.getpid()
    return report


@pytest.fixture
def wide_corpus(tmp_path):
    root = tmp_path / "wide"
    root.mkdir()
    for i in range(6):
        (root / f"f{i}.nml").write_text(prelude_source(["append"], f"append [{i}] [3]"))
    return root


def _pids(report: BatchReport) -> set[int]:
    return {r.stats["pid"] for r in report.reports}


class TestWorkerPool:
    """``jobs`` long-lived workers answer the whole corpus; a worker is
    replaced only when it crashes or overruns a deadline."""

    RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, seed=1)

    def test_clean_run_is_answered_by_jobs_workers(self, wide_corpus):
        report = run_batch([wide_corpus], jobs=2, worker=pid_worker)
        assert report.ok
        assert len(_pids(report)) == 2
        assert os.getpid() not in _pids(report)
        assert all(r.attempts == 1 for r in report.reports)

    @pytest.mark.parametrize("crash_at, answering", [(1, 2), (3, 3)])
    def test_crash_replaces_only_the_crashed_worker(
        self, wide_corpus, crash_at, answering
    ):
        # Dispatch follows corpus order, so launch n carries file n - 1.
        # The worker that dies on launch 1 never answered; the one that
        # dies on launch 3 answered a file first.  Either way exactly one
        # replacement is forked and answers.
        report = run_batch(
            [wide_corpus],
            jobs=2,
            retry=self.RETRY,
            fault_plan=FaultPlan(worker_crash_at=crash_at),
            worker=pid_worker,
        )
        assert report.ok
        assert len(_pids(report)) == answering
        assert [r.attempts for r in report.reports] == [
            2 if i == crash_at - 1 else 1 for i in range(6)
        ]

    def test_timeout_retries_only_the_hung_file(self, wide_corpus):
        # Launch 1 hangs; every later attempt takes 0.3 s, so when the hung
        # worker is killed at 1 s its peer is in the middle of a file.
        ring = RingBufferSink(capacity=None)
        plan = FaultPlan(
            slow_stages=(
                SlowStage("worker", at=1, seconds=10.0),
                SlowStage("worker", at=2, every=1, seconds=0.3),
            )
        )
        with activate(Tracer(sinks=[ring])):
            report = run_batch(
                [wide_corpus],
                jobs=2,
                timeout_s=1.0,
                retry=self.RETRY,
                fault_plan=plan,
                worker=pid_worker,
            )
        assert report.ok
        assert [r.attempts for r in report.reports] == [2, 1, 1, 1, 1, 1]
        restarts = [e for e in ring.events if e["type"] == "worker_restart"]
        assert [(e["cause"], e["key"]) for e in restarts] == [
            ("timeout", report.reports[0].path)
        ]

    @pytest.mark.parametrize(
        "plan, timeout_s",
        [
            (None, None),
            (FaultPlan(worker_crash_at=2), 5.0),
            (FaultPlan(slow_stages=(SlowStage("worker", at=1, every=1, seconds=10.0),)), 0.25),
        ],
        ids=["clean", "crash", "quarantine"],
    )
    def test_no_worker_outlives_the_run(self, corpus, plan, timeout_s):
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02, seed=1)
        report = run_batch(
            [corpus], jobs=2, timeout_s=timeout_s, retry=retry, fault_plan=plan
        )
        assert report.answered
        assert multiprocessing.active_children() == []


def _state(pid: int) -> str:
    """The process state letter from ``/proc/PID/stat`` ("" once reaped)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return ""


def _children(ppid: int) -> list[int]:
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == ppid and fields[0] != "Z":
            children.append(int(stat.parent.name))
    return children


_DRIVER = """
import sys
from repro.batch import run_batch
from repro.robust.faults import FaultPlan, SlowStage

plan = FaultPlan(slow_stages=(SlowStage("worker", at=1, every=1, seconds=0.5),))
run_batch([sys.argv[1]], jobs=2, fault_plan=plan)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_workers_exit_when_the_driver_is_killed(wide_corpus):
    """A worker blocked on its Pipe sees end-of-file once the driver is
    gone, because no process but the driver holds the driver's ends."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    driver = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, str(wide_corpus)], cwd=root, env=env
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert driver.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
            workers = _children(driver.pid)
        driver.kill()
        driver.wait(30)
        deadline = time.monotonic() + 30
        while any(_state(pid) not in ("", "Z") for pid in workers):
            assert time.monotonic() < deadline, "workers outlived their driver"
            time.sleep(0.05)
    finally:
        driver.kill()
        driver.wait(30)
        for pid in workers:
            if _state(pid) not in ("", "Z"):
                os.kill(pid, signal.SIGKILL)


_ONE_WORKER = """
import json, os, sys

import repro.diff.snapshot as snapshot

original = snapshot.snapshot_one


def pid_snapshot(*args):
    report = original(*args)
    report.stats["pid"] = os.getpid()
    return report


snapshot.snapshot_one = pid_snapshot
corpus, out = sys.argv[1:]
one = snapshot.snapshot_corpus([corpus], out + "/one", jobs=1, timeout_s=60)
three = snapshot.snapshot_corpus([corpus], out + "/three", jobs=3)
print(json.dumps({
    "ok": one.ok and three.ok,
    "pids": len({r.stats["pid"] for r in one.reports}),
    "one": snapshot.tree_digest(out + "/one"),
    "three": snapshot.tree_digest(out + "/three"),
}))
"""


def test_one_worker_writes_what_three_write(tmp_path):
    """A worker's earlier files must not change a later file's artifact.

    Scheme texts depend on the type-variable counter a file starts from,
    so a worker restores the counter it was forked with before each file.
    ``gen-0004.nml`` renders differently from a low and a high counter;
    it is second in the corpus, so one worker reaches it with the counter
    ``gen-0003.nml`` advanced, while one of three workers starts on it.
    The run is a fresh interpreter, whose counter is low at fork time, as
    in ``repro diff snapshot``."""
    root = Path(__file__).resolve().parents[1]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("gen-0003.nml", "gen-0004.nml", "gen-0005.nml"):
        source = root / "examples" / "generated" / name
        (corpus / name).write_text(source.read_text())
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("REPRO_FLIGHT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_WORKER, str(corpus), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["ok"]
    assert doc["pids"] == 1
    assert doc["one"] == doc["three"]
