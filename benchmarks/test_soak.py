"""SK1 — the chaos soak: always answered, never unsound, nothing leaked.

The resilience PR's contract is Definition 2 operationalized: under
injected worker crashes, hung workers, torn store writes, failed store
loads, and faulted/stalled service requests, **every** batch file and
**every** daemon request still produces an answer — exact when possible,
the flagged ``W^τ`` worst case when degraded, a quarantine record with
full failure history at worst.  Soundness is not taken on faith: every
non-degraded optimize response is re-audited by the :mod:`repro.check`
static auditor against the program the service actually returned.

The acceptance gate asserted here (and exported to ``BENCH_soak.json``):
100% of files and requests answered, zero auditor findings, zero orphaned
``*.tmp`` files after the post-run reap, zero hung worker processes.
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

from repro.batch import run_batch
from repro.bench.tables import print_table
from repro.lang.prelude import prelude_source
from repro.robust.chaos import (
    SoakReport,
    finish_store_hygiene,
    soak_batch,
    soak_serve,
)
from repro.robust.faults import FaultPlan, SlowStage

SEED = 20260808

CORPUS = {
    "partition_sort.nml": prelude_source(["ps"], "ps [5, 2, 7, 1, 3, 4]"),
    "reverse.nml": prelude_source(["append", "rev"], "rev [1, 2, 3, 4]"),
    "concat.nml": prelude_source(["append", "concat"], "concat [[1], [2, 3]]"),
}

SERVE_SOURCES = [
    prelude_source(["append"], "append [1, 2] [3]"),
    prelude_source(["append", "rev"], "rev [4, 5, 6]"),
]


def _write_corpus(root: Path) -> Path:
    corpus = root / "corpus"
    corpus.mkdir()
    for name, source in CORPUS.items():
        (corpus / name).write_text(source)
    return corpus


def test_sk1_chaos_soak_always_answers(tmp_path):
    corpus = _write_corpus(tmp_path)
    store = tmp_path / "store"
    report = SoakReport(seed=SEED)

    # Seeded fault rounds against the supervised batch driver.
    soak_batch(
        [corpus],
        store_root=store,
        report=report,
        rounds=3,
        seed=SEED,
        jobs=2,
        timeout_s=0.6,
        deadline_ms=2000.0,
    )

    # A poison round: every worker launch hangs, so every file must walk
    # the full timeout → retry → quarantine path and still be answered.
    poison = run_batch(
        [corpus],
        store_root=store,
        jobs=2,
        timeout_s=0.3,
        max_attempts=2,
        fault_plan=FaultPlan(
            slow_stages=(SlowStage("worker", at=1, every=1, seconds=5.0),)
        ),
    )
    assert poison.answered and not poison.ok
    assert poison.exit_code() == 3
    assert len(poison.quarantined_files) == len(CORPUS)
    report.rounds += 1
    report.files_total += len(poison.reports)
    report.files_answered += len(poison.reports)
    report.files_quarantined += len(poison.reports)
    report.retries_quarantine_attempts += sum(
        file_report.attempts for file_report in poison.reports
    )
    report.hung_processes += len(multiprocessing.active_children())

    # A torn-write round on a fresh store: every persist attempt tears
    # mid-write (truncated final entry + orphaned tmp file), yet the
    # answers stay exact — the store degrades to a no-op cache, never to
    # a wrong answer.
    torn_store = tmp_path / "torn-store"
    torn = run_batch(
        [corpus],
        store_root=torn_store,
        jobs=1,
        fault_plan=FaultPlan(torn_write_every=1),
    )
    assert torn.ok
    report.rounds += 1
    report.files_total += len(torn.reports)
    report.files_answered += len(torn.reports)
    report.files_exact += len(torn.reports)

    # Seeded fault rounds against a live daemon over loopback HTTP.
    serve_store = tmp_path / "serve-store"
    soak_serve(
        SERVE_SOURCES,
        report=report,
        rounds=2,
        seed=SEED,
        store_root=str(serve_store),
    )

    # Post-run hygiene: torn-write residue exists, the reap removes it.
    for root in (store, torn_store, serve_store):
        finish_store_hygiene(report, root)
    assert report.orphan_tmp_before_reap > 0

    # The acceptance gate.
    assert (
        report.files_exact
        + report.files_degraded
        + report.files_quarantined
        + report.files_failed_hard
        == report.files_total
    )
    assert report.files_answered == report.files_total
    assert report.requests_answered == report.requests_total
    assert report.optimize_audited > 0
    assert report.optimize_audit_findings == 0
    assert report.orphan_tmp_after_reap == 0
    assert report.hung_processes == 0
    assert report.always_answered
    # The schedule genuinely hurt: degraded answers and quarantines
    # happened, 5xx bodies were still structured JSON answers.
    assert report.files_quarantined >= len(CORPUS)
    assert report.requests_degraded > 0

    print_table(
        ["side", "total", "answered", "degraded", "quarantined", "5xx"],
        [
            [
                "batch files",
                report.files_total,
                report.files_answered,
                report.files_degraded,
                report.files_quarantined,
                "-",
            ],
            [
                "serve requests",
                report.requests_total,
                report.requests_answered,
                report.requests_degraded,
                "-",
                report.responses_5xx,
            ],
        ],
        title="SK1: chaos soak under seeded faults",
    )

    out = Path(__file__).resolve().parent.parent / "BENCH_soak.json"
    out.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
