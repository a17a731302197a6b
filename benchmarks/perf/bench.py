"""PF1: the end-to-end and per-layer wall-clock benchmark.

Run from the repository root::

    python3 benchmarks/perf/bench.py --workload cli-cold --seed 1 --seconds 26 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs the traced layer probes over the same seeded
inputs, writes the span file (``--trace-out``, default
``.perf-out/trace-<workload>-<seed>.json``), prints the per-layer
self-time table recomputed from it, and reports the per-layer metrics.
Every metric prints by name with its unit; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The run is hermetic: scratch files live in ``.perf-tmp/`` and are
removed, child processes get explicit ``--store``/``--out`` directories
and no flight-recorder directory, and the run fails if any file of the
checkout changed meanwhile.  The script exits 2 without a result when the
checkout lacks the program or its corpus, and 1 when an output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import golden  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metric -> unit, as BENCHMARK.json lists them.
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "cold_pass_s": "s",
    "warm_pass_s": "s",
    "peak_rss_mb": "MB",
}

#: Directories the run may write (or other tools may), skipped by the
#: unchanged-checkout check.
UNWATCHED = {".git", "__pycache__", ".perf-tmp", ".perf-out", ".bench_build",
             ".pytest_cache", ".hypothesis"}


def tree_state(root: Path) -> dict[str, tuple[int, int]]:
    """Every watched file of the checkout -> (size, mtime_ns)."""
    state = {}
    for folder, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in UNWATCHED]
        for name in files:
            path = Path(folder, name)
            info = path.stat()
            state[path.relative_to(root).as_posix()] = (info.st_size, info.st_mtime_ns)
    return state


def peak_rss_mb() -> float:
    """Largest resident set in the run's process tree: this process and
    every child it reaped.  The kernel folds grandchildren (batch workers)
    into their parent, and charges a child with its parent's resident
    pages at the time it was spawned, so a child alone cannot be told
    apart from this process."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def e2e_metrics(outcome: workloads.Outcome) -> dict[str, dict]:
    """Every metric is a median over the run (or a peak), so a burst of
    load from elsewhere on a shared host that slows a minority of the
    operations or passes moves none of them."""
    passes = outcome.passes
    values = {
        "setup_s": statistics.median(outcome.setup_s),
        "latency_p50_ms": 1000.0 * statistics.median(outcome.latencies_s),
        "ops_per_s": statistics.median(ops / seconds for _, seconds, ops in passes),
        "cold_pass_s": statistics.median(s for kind, s, _ in passes if kind == "cold"),
        "warm_pass_s": statistics.median(s for kind, s, _ in passes if kind == "warm"),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def p90_ms(outcome: workloads.Outcome) -> float:
    """The tail, printed but not gated: over one window on a shared host it
    swings with the share of operations that load elsewhere delays."""
    return 1000.0 * statistics.quantiles(outcome.latencies_s, n=10, method="inclusive")[8]


def measure(workload: str, seed: int, seconds: float, trace: bool = False,
            trace_out: "Path | None" = None, min_ops: "int | None" = None) -> dict:
    """One run of ``workload``; returns the result document (plus
    ``errors``, and ``table``: text printed before the metrics).
    ``min_ops`` overrides the workload's operation floor (the smoke test
    runs one pair of passes)."""
    golden.require_checkout(ROOT)
    expected = golden.load_expected()
    scratch = ROOT / ".perf-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    before = tree_state(ROOT)
    try:
        ctx = workloads.Context(ROOT, tmp, expected, golden.corpus_files(ROOT))
        if trace:
            import layers  # only here: it would add to this process's peak_rss_mb

            out = trace_out or ROOT / ".perf-out" / f"trace-{workload}-{seed}.json"
            result = layers.traced_run(ctx, workload, seed, out)
        else:
            floor = {} if min_ops is None else {"min_ops": min_ops}
            outcome = workloads.RUNNERS[workload](ctx, seed, seconds, **floor)
            result = {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": e2e_metrics(outcome),
                "errors": outcome.errors,
                "table": f"{'p90 latency (not gated)':<34} {p90_ms(outcome):>16.6f} ms"
                         f" over {len(outcome.latencies_s)} operations",
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    changed = sorted(set(before.items()) ^ set(tree_state(ROOT).items()))
    if changed:
        result["correct"] = False
        result["errors"].append(f"the checkout changed during the run: {changed[0][0]}")
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="length of the timed window (default: 26)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the traced layer probes instead")
    parser.add_argument("--trace-out", type=Path, metavar="FILE",
                        help="where --trace 1 writes its spans")
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.trace_out)
    except golden.CorpusError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for message in result.pop("errors"):
        print(f"error: {message}", file=sys.stderr)
    table = result.pop("table", None)
    if table:
        print(table)
    for name, metric in result["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'error_rate':<34} {result['failed']:>9} / {result['attempted']:<6} failed/attempted")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
