"""Shared fixtures: the paper's programs and a corpus of prelude functions
with concrete test inputs (used by the safety validation property tests)."""

from __future__ import annotations

import pytest

from repro.escape.analyzer import EscapeAnalysis
from repro.lang.prelude import paper_map_pair, paper_partition_sort, prelude_program


@pytest.fixture
def partition_sort():
    return paper_partition_sort()


@pytest.fixture
def map_pair():
    return paper_map_pair()


@pytest.fixture
def ps_analysis(partition_sort):
    return EscapeAnalysis(partition_sort)


@pytest.fixture
def work_counts(monkeypatch):
    """Live counts of type inferences and query sessions for noise-free
    work gates: ``{"infer": n, "sessions": m}``.  Every ``repro`` module's
    ``infer_program`` and ``AnalysisSession.__init__`` are wrapped for the
    test's duration."""
    import sys

    import repro.query as query
    import repro.types.infer as infer

    counts = {"infer": 0, "sessions": 0}
    original_infer = infer.infer_program

    def counting_infer(*args, **kwargs):
        counts["infer"] += 1
        return original_infer(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "infer_program", None) is original_infer
        ):
            monkeypatch.setattr(module, "infer_program", counting_infer)
    original_init = query.AnalysisSession.__init__

    def counting_init(self, *args, **kwargs):
        counts["sessions"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(query.AnalysisSession, "__init__", counting_init)
    return counts


#: (prelude functions to load, function under test, concrete args, 1-based
#: interesting index) — every entry is exercised by the observer-vs-abstract
#: safety tests and by differential interpreter tests.
CORPUS: list[tuple[list[str], str, list, int]] = [
    (["append"], "append", [[1, 2, 3], [4, 5]], 1),
    (["append"], "append", [[1, 2, 3], [4, 5]], 2),
    (["append"], "append", [[], [4, 5]], 2),
    (["rev"], "rev", [[1, 2, 3, 4]], 1),
    (["length"], "length", [[1, 2, 3]], 1),
    (["sum"], "sum", [[1, 2, 3]], 1),
    (["last"], "last", [[1, 2, 3]], 1),
    (["take"], "take", [2, [1, 2, 3, 4]], 2),
    (["drop"], "drop", [2, [1, 2, 3, 4]], 2),
    (["copy"], "copy", [[1, 2, 3]], 1),
    (["iota"], "iota", [5], 1),
    (["member"], "member", [2, [1, 2, 3]], 2),
    (["interleave"], "interleave", [[1, 2], [3, 4, 5]], 1),
    (["interleave"], "interleave", [[1, 2], [3, 4, 5]], 2),
    (["snoc"], "snoc", [[1, 2], 9], 1),
    (["nth"], "nth", [1, [1, 2, 3]], 2),
    (["insert"], "insert", [2, [1, 3, 5]], 2),
    (["isort"], "isort", [[3, 1, 2]], 1),
    (["concat"], "concat", [[[1, 2], [3], []]], 1),
    (["heads"], "heads", [[[1, 2], [3, 4]]], 1),
    (["tails_tops"], "tails_tops", [[[1, 2], [3, 4]]], 1),
    (["ps"], "ps", [[5, 2, 7, 1, 3, 4]], 1),
    (["split"], "split", [3, [5, 2, 7, 1], [], []], 2),
    (["split"], "split", [3, [5, 2, 7, 1], [0], []], 3),
    (["split"], "split", [3, [5, 2, 7, 1], [], [9]], 4),
    (["rev_acc"], "rev_acc", [[1, 2, 3], []], 1),
    (["rev_acc"], "rev_acc", [[1, 2, 3], [0]], 2),
]


@pytest.fixture(params=CORPUS, ids=lambda c: f"{c[1]}@{c[3]}")
def corpus_case(request):
    names, function, args, index = request.param
    return prelude_program(names), function, args, index
