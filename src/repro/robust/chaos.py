"""Seeded chaos schedules and the always-answer soak harness.

The point of the resilience layer is a single invariant: **every question
put to the system gets a sound answer — exact when possible, the ``W^τ``
worst case when not, a flagged quarantine record at worst — and the system
itself outlives the failure.**  This module turns that sentence into a
measured artifact:

* :func:`seeded_batch_plan` / :func:`seeded_serve_plan` derive a
  :class:`~repro.robust.faults.FaultPlan` per round from one RNG seed —
  worker crashes, hung workers, torn store writes, failed store loads,
  stalled and faulted request stages — so a soak run is exactly
  replayable;
* :func:`soak_batch` drives the supervised batch driver through several
  rounds of those plans over one shared store;
* :func:`soak_serve` drives a live ``repro serve`` daemon (real HTTP over
  a loopback socket) through a request schedule under injected service
  faults;
* :class:`SoakReport` accumulates both and checks the invariant:
  100% of files and requests answered (degraded allowed), zero orphaned
  ``*.tmp`` files after the post-run reap, zero hung worker processes,
  and — the soundness cross-check — the :mod:`repro.check` auditor finds
  nothing wrong with any *non-degraded* optimize response.

The benchmark (``benchmarks/test_soak.py``) runs a full schedule and
exports ``BENCH_soak.json``; CI runs a short schedule as ``soak-smoke``.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.robust.faults import FaultPlan, SlowStage, StageFault

__all__ = [
    "seeded_batch_plan",
    "seeded_serve_plan",
    "soak_batch",
    "soak_serve",
    "finish_store_hygiene",
    "SoakReport",
]


# -- seeded schedules --------------------------------------------------------


def seeded_batch_plan(rng: random.Random, timeout_s: float) -> FaultPlan:
    """One batch round's faults, drawn deterministically from ``rng``:
    maybe a worker crash, maybe a hung worker (sleeping well past the
    supervisor's timeout), maybe torn store writes, maybe failed store
    loads."""
    slow: tuple[SlowStage, ...] = ()
    if rng.random() < 0.5:
        slow = (
            SlowStage(
                "worker", at=rng.randint(1, 3), seconds=max(2.0, timeout_s * 6)
            ),
        )
    stage_faults: tuple[StageFault, ...] = ()
    if rng.random() < 0.5:
        stage_faults = (StageFault("store_load", at=rng.randint(1, 4)),)
    return FaultPlan(
        worker_crash_at=rng.choice([None, 1, 2, 3]),
        slow_stages=slow,
        stage_faults=stage_faults,
        torn_write_at=rng.choice([None, 1, 2]),
        torn_write_every=rng.choice([None, None, 3]),
    )


def seeded_serve_plan(rng: random.Random, requests: int) -> FaultPlan:
    """One serve round's faults: a few request executions raise (the
    breaker's food), a few stall briefly, and store writes tear under the
    same fault kinds as the batch."""
    ordinals = rng.sample(range(1, requests + 1), k=min(2, requests))
    stage_faults = tuple(StageFault("serve", at=at) for at in sorted(ordinals))
    slow = (
        (SlowStage("serve", at=rng.randint(1, requests), seconds=0.02),)
        if rng.random() < 0.5
        else ()
    )
    return FaultPlan(
        stage_faults=stage_faults,
        slow_stages=slow,
        torn_write_at=rng.choice([None, 1]),
    )


# -- the report --------------------------------------------------------------


@dataclass
class SoakReport:
    """What a soak run observed, and whether the invariant held."""

    seed: int = 0
    rounds: int = 0
    # batch side
    files_total: int = 0
    files_answered: int = 0
    files_exact: int = 0
    files_degraded: int = 0
    files_quarantined: int = 0
    files_failed_hard: int = 0
    retries_quarantine_attempts: int = 0
    # serve side
    requests_total: int = 0
    requests_answered: int = 0
    requests_degraded: int = 0
    requests_coalesced: int = 0
    responses_4xx: int = 0
    responses_5xx: int = 0
    # soundness cross-check (repro.check auditor over optimize responses)
    optimize_audited: int = 0
    optimize_audit_findings: int = 0
    # hygiene
    orphan_tmp_before_reap: int = 0
    orphan_tmp_after_reap: int = 0
    hung_processes: int = 0
    faults_scheduled: list = field(default_factory=list)

    @property
    def always_answered(self) -> bool:
        """The invariant: every file and every request produced an answer
        (exact, degraded, flagged quarantine, or a structured error body —
        never silence, never a hang), nothing leaked, nothing unsound
        slipped past the auditor."""
        return (
            self.files_answered == self.files_total
            and self.requests_answered == self.requests_total
            and self.optimize_audit_findings == 0
            and self.orphan_tmp_after_reap == 0
            and self.hung_processes == 0
        )

    def to_json(self) -> dict:
        doc = {k: v for k, v in self.__dict__.items()}
        doc["always_answered"] = self.always_answered
        return doc


def _describe_plan(plan: FaultPlan) -> dict:
    return {
        "worker_crash_at": plan.worker_crash_at,
        "slow_stages": [
            {"stage": s.stage, "at": s.at, "seconds": s.seconds, "every": s.every}
            for s in plan.slow_stages
        ],
        "stage_faults": [
            {"stage": f.stage, "at": f.at} for f in plan.stage_faults
        ],
        "torn_write_at": plan.torn_write_at,
        "torn_write_every": plan.torn_write_every,
    }


# -- batch soak --------------------------------------------------------------


def soak_batch(
    corpus: "list[str | Path]",
    store_root: "str | Path",
    report: SoakReport,
    rounds: int = 4,
    seed: int = 0,
    jobs: int = 2,
    timeout_s: float = 0.75,
    deadline_ms: "float | None" = 500.0,
) -> list:
    """Run ``rounds`` supervised batch passes over ``corpus`` through one
    shared store, each under a fresh seeded fault plan; fold the outcomes
    into ``report`` and return the per-round :class:`~repro.batch
    .BatchReport`\\ s."""
    from repro.batch import run_batch

    rng = random.Random(seed)
    batch_reports = []
    for round_index in range(rounds):
        plan = seeded_batch_plan(rng, timeout_s)
        report.faults_scheduled.append({"batch_round": round_index, **_describe_plan(plan)})
        batch = run_batch(
            corpus,
            store_root=store_root,
            jobs=jobs,
            deadline_ms=deadline_ms,
            timeout_s=timeout_s,
            fault_plan=plan,
        )
        batch_reports.append(batch)
        report.rounds += 1
        report.files_total += len(batch.reports)
        for file_report in batch.reports:
            if file_report.ok or file_report.quarantined:
                report.files_answered += 1
            if file_report.quarantined:
                report.files_quarantined += 1
                report.retries_quarantine_attempts += file_report.attempts
            elif file_report.ok and file_report.degraded:
                report.files_degraded += 1
            elif file_report.ok:
                report.files_exact += 1
            else:
                report.files_failed_hard += 1
    report.hung_processes += len(multiprocessing.active_children())
    return batch_reports


# -- serve soak --------------------------------------------------------------


def _http_json(url: str, payload: "dict | None" = None, timeout: float = 30.0):
    """POST (or GET when ``payload`` is None) and decode; HTTP errors with
    JSON bodies are *answers*, so they decode too."""
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", errors="replace")
        try:
            return error.code, json.loads(body)
        except ValueError:
            return error.code, None


def soak_serve(
    sources: list[str],
    report: SoakReport,
    rounds: int = 3,
    seed: int = 0,
    store_root: "str | None" = None,
) -> None:
    """Stand up a real daemon on a loopback socket and push a seeded
    request schedule through it under injected service faults; every
    response (including structured 4xx/5xx bodies) counts as answered,
    and every *non-degraded* optimize response is cross-checked by the
    static auditor — the soundness half of the invariant."""
    from repro.check import check_program
    from repro.lang.parser import parse_program
    from repro.robust import faults
    from repro.serve import AnalysisService, make_server

    rng = random.Random(seed + 1)
    service = AnalysisService(store_root=store_root, default_deadline_ms=2000.0)
    server = make_server("127.0.0.1", 0, service)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://{host}:{port}"
    try:
        for round_index in range(rounds):
            schedule = []
            for source in sources:
                schedule.append(("analyze", {"source": source}))
                schedule.append(("check", {"source": source}))
                schedule.append(("optimize", {"source": source}))
                # a starved request: must come back degraded, not broken
                schedule.append(
                    ("analyze", {"source": source, "deadline_ms": 0.0001})
                )
            rng.shuffle(schedule)
            plan = seeded_serve_plan(rng, len(schedule))
            report.faults_scheduled.append(
                {"serve_round": round_index, **_describe_plan(plan)}
            )
            with faults.inject(plan):
                for endpoint, payload in schedule:
                    report.requests_total += 1
                    status, doc = _http_json(f"{base}/{endpoint}", payload)
                    if doc is None:
                        continue  # unanswered: a non-JSON body breaks the invariant
                    report.requests_answered += 1
                    if doc.get("degraded"):
                        report.requests_degraded += 1
                    if doc.get("coalesced"):
                        report.requests_coalesced += 1
                    if 400 <= status < 500:
                        report.responses_4xx += 1
                    elif status >= 500:
                        report.responses_5xx += 1
                    if endpoint == "optimize" and status == 200 and "program" in doc:
                        # Strictly stronger than the acceptance bar (which
                        # only demands auditing *non-degraded* responses):
                        # every returned program — even one where some
                        # optimization step was skipped — must audit clean.
                        audited = check_program(
                            parse_program(doc["program"]), passes=["audit"]
                        )
                        report.optimize_audited += 1
                        report.optimize_audit_findings += audited.counts()["error"]
        status, _ = _http_json(f"{base}/healthz")
        assert status == 200
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)


def finish_store_hygiene(report: SoakReport, store_root: "str | Path") -> None:
    """The post-run sweep for one store root: count torn-write residue,
    then prove the reap leaves the directory clean.  Accumulates, so call
    it once per store the soak touched."""
    from repro.store import AnalysisStore

    store = AnalysisStore(store_root, reap=False)
    report.orphan_tmp_before_reap += len(store.tmp_files())
    store.reap_tmp(max_age_s=0.0)
    report.orphan_tmp_after_reap += len(store.tmp_files())
