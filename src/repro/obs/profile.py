"""Profile reports and trace replay — answers from a trace, not a re-run.

Everything here consumes a list of decoded events (live from a
:class:`~repro.obs.sinks.RingBufferSink` or loaded with
:func:`~repro.obs.sinks.read_trace`):

* :func:`span_profile` — per-span-name totals (count, total, self time),
  the top-N table of ``--profile``;
* :func:`cache_stats` — solve/SCC cache hits and misses plus aggregated
  query stats, replayed from ``solve`` / ``scc_solve_finish`` /
  ``query_stats`` events;
* :func:`iteration_table` — the Appendix A.1 fixpoint table (per-binding
  evaluation counts, per-iteration lattice values, convergence), replayed
  from ``fixpoint_iteration`` / ``fixpoint_converged`` /
  ``fixpoint_widened`` events;
* :func:`worklist_stats` — the worklist engine's per-instruction transfer
  costs and queue activity, replayed from ``transfer_eval`` /
  ``worklist_push`` / ``worklist_pop`` / ``ir_lower`` events;
* :func:`profile_report` — the human-readable roll-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class SpanStats:
    """Aggregated timing for one span name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_profile(events: Iterable[dict]) -> list[SpanStats]:
    """Per-name span totals, sorted by self time (descending)."""
    by_name: dict[str, SpanStats] = {}
    for event in events:
        if event.get("type") != "span_end":
            continue
        stats = by_name.setdefault(event["name"], SpanStats(event["name"]))
        stats.count += 1
        stats.total_s += event["dur_s"]
        stats.self_s += event["self_s"]
    return sorted(by_name.values(), key=lambda s: s.self_s, reverse=True)


def cache_stats(events: Iterable[dict]) -> dict[str, int]:
    """Cache and work accounting replayed from the trace."""
    out = {
        "solve_hits": 0,
        "solve_misses": 0,
        "scc_hits": 0,
        "scc_misses": 0,
        "iterations": 0,
        "queries": 0,
        "eval_steps": 0,
        "store_hits": 0,
        "store_misses": 0,
        "store_writes": 0,
        "worklist_evals": 0,
    }
    for event in events:
        etype = event.get("type")
        if etype == "solve":
            out["solve_hits" if event["cache"] == "hit" else "solve_misses"] += 1
        elif etype == "scc_solve_finish":
            out["scc_hits" if event["cache"] == "hit" else "scc_misses"] += 1
            out["iterations"] += event["iterations"]
        elif etype == "query_stats":
            out["queries"] += 1
            out["eval_steps"] += event["eval_steps"]
            # Optional extra (absent in older traces).
            out["worklist_evals"] += event.get("worklist_evals", 0)
        elif etype == "store_hit":
            out["store_hits"] += 1
        elif etype == "store_miss":
            out["store_misses"] += 1
        elif etype == "store_write":
            out["store_writes"] += 1
    return out


@dataclass
class BindingIterations:
    """The replayed fixpoint history of one letrec binding — one row of
    the Appendix A.1 iteration table."""

    name: str
    #: per-iteration lattice value of the binding (``f⁽¹⁾, f⁽²⁾, ...``)
    values: list[str] = field(default_factory=list)
    converged: bool = False
    widened: bool = False

    @property
    def iterations(self) -> int:
        """Body re-evaluations performed (matches
        :attr:`~repro.escape.abstract.FixpointTrace.iterations`)."""
        return len(self.values)


def iteration_table(events: Iterable[dict]) -> dict[str, BindingIterations]:
    """Replay the per-binding fixpoint histories from a trace.

    A binding solved more than once (e.g. by a later pinned variant) keeps
    its *first* complete history — the base solve, which is what the
    Appendix A.1 table shows.
    """
    table: dict[str, BindingIterations] = {}
    current: dict[str, BindingIterations] = {}
    for event in events:
        etype = event.get("type")
        if etype == "fixpoint_iteration":
            for name, value in event["values"].items():
                if event["iteration"] == 1:
                    row = BindingIterations(name)
                    current[name] = row
                    table.setdefault(name, row)
                row = current.get(name)
                if row is not None:
                    row.values.append(value)
        elif etype == "fixpoint_converged":
            for name in event["names"]:
                row = current.get(name)
                if row is not None:
                    row.converged = True
        elif etype == "fixpoint_widened":
            for name in event["names"]:
                row = current.get(name)
                if row is not None:
                    row.widened = True
    return table


@dataclass
class InstrCost:
    """Replayed execution cost of one IR instruction."""

    block: str
    index: int
    op: str
    count: int = 0


@dataclass
class WorklistStats:
    """The worklist engine's activity, replayed from a trace alone."""

    #: Bindings queued because an input's fingerprint changed.
    pushes: int = 0
    #: Bindings taken off the worklist (= binding evaluations + re-checks).
    pops: int = 0
    #: Top-level blocks lowered to IR, with instruction counts.
    lowered: dict[str, int] = field(default_factory=dict)
    #: Per-instruction transfer-eval counts, keyed ``(block, index)``.
    instr_costs: dict[tuple, InstrCost] = field(default_factory=dict)

    @property
    def transfer_evals(self) -> int:
        return sum(cost.count for cost in self.instr_costs.values())

    def hottest(self, n: int = 10) -> list[InstrCost]:
        """The ``n`` most-executed instructions, hottest first."""
        return sorted(
            self.instr_costs.values(), key=lambda c: c.count, reverse=True
        )[:n]


def worklist_stats(events: Iterable[dict]) -> WorklistStats:
    """Replay the worklist engine's per-instruction costs from a trace.

    Needs only the trace: ``transfer_eval`` events carry cumulative counts
    per (block, instruction) flushed at the end of each solve, so the
    hottest transfer functions are identified without re-running anything.
    """
    stats = WorklistStats()
    for event in events:
        etype = event.get("type")
        if etype == "worklist_push":
            stats.pushes += 1
        elif etype == "worklist_pop":
            stats.pops += 1
        elif etype == "ir_lower":
            stats.lowered[event["name"]] = event["instructions"]
        elif etype == "transfer_eval":
            key = (event["block"], event["index"])
            cost = stats.instr_costs.get(key)
            if cost is None:
                cost = InstrCost(event["block"], event["index"], event["op"])
                stats.instr_costs[key] = cost
            cost.count += event["count"]
    return stats


def runtime_stats(events: Iterable[dict]) -> dict[str, int]:
    """Storage-event totals replayed from the trace."""
    out: dict[str, int] = {}
    for event in events:
        etype = event.get("type")
        if etype == "cell_alloc":
            out[f"allocs_{event['kind']}"] = out.get(f"allocs_{event['kind']}", 0) + 1
        elif etype == "cell_reuse":
            out["reused"] = out.get("reused", 0) + 1
        elif etype == "cell_reclaim":
            key = f"reclaimed_{event['cause']}"
            out[key] = out.get(key, 0) + event["count"]
        elif etype == "gc_run":
            out["gc_runs"] = out.get("gc_runs", 0) + 1
            out["gc_marked"] = out.get("gc_marked", 0) + event["marked"]
            out["gc_swept"] = out.get("gc_swept", 0) + event["swept"]
    return out


def profile_report(events: "list[dict]", top: int = 10, total: int | None = None) -> str:
    """The human-readable profile: top spans by self time, cache hit
    ratios, per-binding iteration counts, runtime storage totals.

    ``total`` is the number of events *emitted* (e.g. a bounded
    RingBufferSink's ``total``); when it exceeds ``len(events)``, the
    report notes that it was built from the truncated tail.
    """
    lines = ["=== profile ==="]
    if total is not None and total > len(events):
        lines.append(
            f"(truncated: report built from the last {len(events)} of "
            f"{total} event(s); early counts are undercounted)"
        )

    spans = span_profile(events)
    if spans:
        lines.append(f"top {min(top, len(spans))} span(s) by self time:")
        lines.append(f"  {'span':<20} {'count':>6} {'total':>10} {'self':>10}")
        for stats in spans[:top]:
            lines.append(
                f"  {stats.name:<20} {stats.count:>6} "
                f"{stats.total_s * 1000:>8.2f}ms {stats.self_s * 1000:>8.2f}ms"
            )

    caches = cache_stats(events)
    solve_total = caches["solve_hits"] + caches["solve_misses"]
    scc_total = caches["scc_hits"] + caches["scc_misses"]
    if solve_total or scc_total:
        lines.append("cache hit ratios:")
        if solve_total:
            lines.append(
                f"  solve: {caches['solve_hits']}/{solve_total} "
                f"({caches['solve_hits'] / solve_total:.0%})"
            )
        if scc_total:
            lines.append(
                f"  scc:   {caches['scc_hits']}/{scc_total} "
                f"({caches['scc_hits'] / scc_total:.0%})"
            )
        work_line = (
            f"  {caches['queries']} query(ies), {caches['iterations']} fixpoint "
            f"iteration(s), {caches['eval_steps']} eval step(s)"
        )
        if caches["worklist_evals"]:
            work_line += f" ({caches['worklist_evals']} transfer eval(s))"
        lines.append(work_line)
        store_reads = caches["store_hits"] + caches["store_misses"]
        if store_reads or caches["store_writes"]:
            lines.append(
                f"  store: {caches['store_hits']}/{store_reads} hit(s) "
                f"({caches['store_hits'] / store_reads:.0%}), "
                f"{caches['store_writes']} write(s)"
                if store_reads
                else f"  store: {caches['store_writes']} write(s)"
            )

    table = iteration_table(events)
    if table:
        lines.append("fixpoint iterations per binding:")
        for name, row in sorted(table.items()):
            status = "widened" if row.widened else (
                "converged" if row.converged else "incomplete"
            )
            ascent = " → ".join(row.values)
            lines.append(f"  {name}: {row.iterations} ({status})  {ascent}")

    worklist = worklist_stats(events)
    if worklist.instr_costs or worklist.pops:
        lines.append(
            f"worklist: {worklist.pops} pop(s), {worklist.pushes} push(es), "
            f"{worklist.transfer_evals} transfer eval(s) over "
            f"{len(worklist.instr_costs)} instruction(s)"
        )
        hottest = worklist.hottest(min(top, 5))
        if hottest:
            lines.append("  hottest instructions:")
            for cost in hottest:
                lines.append(
                    f"    {cost.block}:%{cost.index} {cost.op:<7} {cost.count}"
                )

    runtime = runtime_stats(events)
    if runtime:
        lines.append("storage events:")
        for key in sorted(runtime):
            lines.append(f"  {key}: {runtime[key]}")

    if len(lines) == 1:
        lines.append("(no events)")
    return "\n".join(lines) + "\n"
