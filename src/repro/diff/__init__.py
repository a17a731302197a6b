"""``repro.diff`` — the corpus-scale differential regression harness.

The paper's value proposition is that escape facts *license* storage
optimizations; the scariest regression is therefore a silent one — a
change that loses a decision, weakens a lattice value, or alters machine
code on some program nobody hand-tests.  This package turns the repo's
existing differential methodology (Kleene reference vs. worklist, fact
by fact) on its third axis: **two git revisions of the whole
toolchain**, compared over a generated corpus.

* :mod:`repro.diff.snapshot` — run analyze + optimize + check over a
  corpus and write one canonical JSON artifact per file (lattice
  fingerprints and values, sharing classes, audit-certified optimization
  decisions, checker findings, machine-code digest and instruction
  counts), byte-stable across processes and hash seeds;
* :mod:`repro.diff.compare` — pair two artifact trees by corpus-relative
  path and report a categorized summary ordered by the lattice's own ⊑,
  with per-category gating so CI can fail on "decisions lost" while
  tolerating benign churn;
* :mod:`repro.diff.corpus` — materialize the property suite's program
  distribution into a committed, seed-manifested ``examples/generated/``
  corpus.
"""

from repro import _lazy_exports

# The artifact format lives here, not in ``repro.diff.snapshot``, so that
# ``repro.diff.compare`` can read it without loading the analysis stack
# the snapshot module preloads for its workers.

#: Bumped whenever the artifact layout changes incompatibly; compare
#: refuses to pair artifacts across schema versions.
#: 2: artifacts carry a canonical per-binding heap-liveness section.
ARTIFACT_SCHEMA = 2

#: The snapshot tree's index file (not a per-file artifact).
INDEX_NAME = "_snapshot.json"

#: Per-file artifacts are ``<corpus-relative path> + ARTIFACT_SUFFIX``.
ARTIFACT_SUFFIX = ".json"

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.diff.compare": ("Comparison", "compare_trees"),
        "repro.diff.snapshot": ("snapshot_corpus", "snapshot_program"),
    },
)
