"""A counter fence for the standard-semantics interpreter.

Every other layer uses the interpreter as its oracle, so its work counts
are part of its contract, not an implementation detail: ``eval_steps``
goes up once per node evaluated, ``applications`` once per ``apply``,
every application is a safepoint taken before its function is evaluated,
and each collection sees the same roots.  These tests pin the exact
:meth:`~repro.semantics.metrics.StorageMetrics.snapshot` of the paper's
programs on fixed inputs and the per-collector totals over the whole
corpus, so a change to how the interpreter evaluates cannot change what it
counts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.heap_liveness import analyze_program
from repro.bench.workloads import (
    literal,
    ps_create_list_program,
    ps_program,
    random_int_list,
    rev_program,
)
from repro.lang.parser import parse_program
from repro.opt.driver import apply_plan, plan_optimizations
from repro.opt.pipeline import paper_ps_double_prime, paper_rev_prime
from repro.opt.stack_alloc import stack_allocate_body
from repro.robust import faults
from repro.robust.faults import FaultPlan
from repro.semantics.gc import COLLECTORS
from repro.semantics.interp import Interpreter

REPO = Path(__file__).resolve().parent.parent
XS = random_int_list(40, seed=7)
GC_FIELDS = ("gc_runs", "gc_marked", "gc_swept")

PROGRAMS = {
    "ps": lambda: ps_program(XS),
    "ps''": lambda: paper_ps_double_prime(f"ps {literal(XS)}").program,
    "ps-planned": lambda: apply_plan(plan_optimizations(ps_program(XS))).program,
    "rev": lambda: rev_program(XS),
    "rev'": lambda: paper_rev_prime(f"rev {literal(XS)}").program,
    "ps-stack": lambda: stack_allocate_body(ps_program(XS)).program,
    "ps-block": lambda: apply_plan(plan_optimizations(ps_create_list_program(30))).program,
}

EXPECTED_VALUES = {
    "ps": sorted(XS),
    "ps''": sorted(XS),
    "ps-planned": sorted(XS),
    "rev": XS[::-1],
    "rev'": XS[::-1],
    "ps-stack": sorted(XS),
    "ps-block": list(range(1, 31)),
}


def _counts(
    heap_allocs, eval_steps, applications, reused=0, region=None, stack=0, block=0
):
    snapshot = {
        "heap_allocs": heap_allocs,
        "region_allocs": sum(region.values()) if region else 0,
        "reused": reused,
        "dcons_fallback": 0,
        "stack_reclaimed": stack,
        "block_reclaimed": block,
        "gc_runs": 0,
        "gc_marked": 0,
        "gc_swept": 0,
        "eval_steps": eval_steps,
        "applications": applications,
    }
    for key, count in (region or {}).items():
        snapshot[f"region_allocs{{kind={key}}}"] = count
    return snapshot


#: The snapshot of each program run without a collector.
NO_GC = {
    "ps": _counts(669, 16471, 6235),
    "ps''": _counts(550, 16709, 6354, reused=119),
    "ps-planned": _counts(629, 16551, 6275, reused=40),
    "rev": _counts(860, 15209, 5902),
    "rev'": _counts(40, 16849, 6722, reused=820),
    "ps-stack": _counts(629, 16471, 6235, region={"stack:activation": 40}, stack=40),
    "ps-block": _counts(
        1245, 35178, 13280, region={"block:create_list": 30}, block=30
    ),
}

#: ``(gc_runs, gc_marked, gc_swept)`` at ``gc_threshold=256``; every
#: collector reads the same on these programs, and a collection changes no
#: other counter.
GC_AT_256 = {
    "ps": (2, 227, 369),
    "ps''": (2, 208, 371),
    "ps-planned": (2, 207, 376),
    "rev": (3, 211, 741),
    "rev'": (0, 0, 0),
    "ps-stack": (2, 206, 416),
    "ps-block": (4, 1196, 840),
}


def _budgets(program):
    """The liveness collector's budgets, as ``repro run --gc liveness``
    computes them."""
    facts = analyze_program(program)
    return None if facts.degraded else facts.budget_map()


def _interpreter(program, collector, **kwargs):
    if collector is None:
        return Interpreter(**kwargs)
    budgets = _budgets(program) if collector == "liveness" else None
    return Interpreter(auto_gc=True, collector=collector, liveness=budgets, **kwargs)


@pytest.fixture(scope="module")
def programs():
    return {name: build() for name, build in PROGRAMS.items()}


@pytest.mark.parametrize("collector", [None, *COLLECTORS], ids=str)
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_paper_programs_keep_every_counter(programs, name, collector):
    program = programs[name]
    interp = _interpreter(program, collector, gc_threshold=256)
    assert interp.to_python(interp.run(program)) == EXPECTED_VALUES[name]
    expected = dict(NO_GC[name])
    if collector is not None:
        expected.update(zip(GC_FIELDS, GC_AT_256[name]))
    assert interp.metrics.snapshot() == expected


@pytest.mark.parametrize("collector", COLLECTORS)
def test_forced_collections_take_one_token_per_safepoint(programs, collector):
    """Every application is a safepoint: a fault plan's forced collection
    runs first, then the allocation-budget trigger."""
    program = programs["ps-stack"]
    with faults.inject(FaultPlan(gc_every=50)) as injector:
        interp = _interpreter(program, collector, gc_threshold=4, sanitize=True)
        assert interp.to_python(interp.run(program)) == sorted(XS)
    assert injector.safepoints == interp.metrics.applications == 6235
    assert len(injector.fired) == 124
    expected = dict(NO_GC["ps-stack"])
    expected.update(gc_runs=244, gc_marked=24364, gc_swept=573)
    assert interp.metrics.snapshot() == expected
    assert interp.sanitizer.clean


#: GC1's dead-data programs (``benchmarks/test_collector_zoo.py``), where
#: the liveness budgets prune what reachability must mark.
DEAD_DATA = {
    "dead-binding": (
        "junk = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];\n"
        "f l = if null l then 10 else 20;\nf junk",
        {"mark-sweep": (1, 12, 0), "liveness": (1, 0, 12), "copying": (1, 12, 0)},
        (12, 58, 26),
    ),
    "null-only-walk": (
        "g l = if null l then 1 else 2;\n"
        "a = [1, 2, 3, 4, 5, 6];\nb = [7, 8, 9, 10, 11, 12];\n"
        "(g a) + (g b)",
        {"mark-sweep": (2, 18, 0), "liveness": (2, 0, 12), "copying": (2, 18, 0)},
        (12, 70, 30),
    ),
    "spine-only-length": (
        "length l = if null l then 0 else 1 + length (cdr l);\n"
        "xs = [1, 2, 3, 4, 5, 6, 7, 8];\nlength xs",
        {"mark-sweep": (1, 8, 0), "liveness": (1, 8, 0), "copying": (1, 8, 0)},
        (8, 146, 58),
    ),
}


@pytest.mark.parametrize("collector", COLLECTORS)
@pytest.mark.parametrize("name", list(DEAD_DATA))
def test_liveness_budgets_keep_their_counts(name, collector):
    source, gc_counts, (heap_allocs, eval_steps, applications) = DEAD_DATA[name]
    program = parse_program(source)
    interp = _interpreter(program, collector, gc_threshold=2, sanitize=True)
    interp.run(program)
    expected = _counts(heap_allocs, eval_steps, applications)
    expected.update(zip(GC_FIELDS, gc_counts[collector]))
    assert interp.metrics.snapshot() == expected


#: Totals of every counter over the 202 corpus files at ``gc_threshold=2``
#: with the sanitizer on; no corpus file allocates in a region or reuses.
CORPUS_TOTALS = {
    collector: {
        **_counts(668, 6676, 2584),
        "gc_runs": 123,
        "gc_marked": 700,
        "gc_swept": 57,
    }
    for collector in COLLECTORS
}


@pytest.mark.parametrize("collector", COLLECTORS)
def test_corpus_totals_per_collector(collector):
    files = sorted(REPO.glob("examples/*.nml"))
    files += sorted(REPO.glob("examples/generated/*.nml"))
    assert len(files) == 202
    totals: dict[str, int] = {}
    for path in files:
        program = parse_program(path.read_text())
        interp = _interpreter(program, collector, gc_threshold=2, sanitize=True)
        interp.run(program)
        assert interp.sanitizer.clean, path
        for key, count in interp.metrics.snapshot().items():
            totals[key] = totals.get(key, 0) + count
    assert totals == CORPUS_TOTALS[collector]
