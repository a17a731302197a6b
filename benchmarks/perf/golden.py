"""The benchmark's corpus and its golden outputs (``expected.json``).

The corpus is every ``examples/*.nml`` file plus the seed-manifested
``examples/generated/`` programs, named by their path relative to
``examples/``.  ``expected.json`` pins, for each file:

* ``sha256`` of the source (the generated files are also checked against
  ``examples/generated/MANIFEST.json``);
* ``run``: what ``repro run FILE`` prints;
* ``analyze_sha256``: the sha256 of the canonical
  ``repro analyze FILE --json`` stdout, and ``check_sha256`` that of
  ``repro check FILE --json`` without its timings (:func:`check_digest`);
* ``artifact_digest``: the digest of the file's ``repro diff snapshot``
  artifact without its type-scheme texts (:func:`artifact_digest`);
* ``optimize_degraded``: whether ``repro optimize --robust FILE`` (the
  daemon's ``/optimize``) answers degraded — 46 files do, because a
  skipped optimization counts as a degradation, so ``serve-keepalive``
  sends only the other files;

and, for the whole corpus, the ``tree_digest`` of the snapshot tree.

Regenerate after a deliberate output change (from the repo root)::

    python3 benchmarks/perf/golden.py

Every golden value comes from a fresh ``python -m repro`` process, exactly
as the benchmark's operations produce them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = Path(__file__).resolve().parent / "expected.json"
EXAMPLES = "examples"


class CorpusError(RuntimeError):
    """The checkout cannot run the benchmark: files missing or changed."""


def require_checkout(root: Path = ROOT) -> None:
    """Refuse to run without the program's sources and corpus."""
    for needed in ("src/repro/__init__.py", "src/repro/cli.py",
                   "examples/generated/MANIFEST.json"):
        if not (root / needed).is_file():
            raise CorpusError(f"{needed} is missing; run from a full checkout")


def corpus_files(root: Path = ROOT) -> list[str]:
    """Corpus-relative paths: ``examples/*.nml`` then ``examples/generated``."""
    examples = root / EXAMPLES
    files = sorted(examples.glob("*.nml")) + sorted(examples.glob("generated/*.nml"))
    return [path.relative_to(examples).as_posix() for path in files]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(stdout: str) -> str:
    """sha256 of ``repro check --json`` output minus its wall-clock
    ``pass_timings``, the one part that differs between runs."""
    doc = json.loads(stdout)
    for entry in doc["files"]:
        entry.pop("pass_timings", None)
    return sha256_text(json.dumps(doc, sort_keys=True))


def artifact_digest(data: bytes) -> str:
    """sha256 of a snapshot artifact without the bindings' ``scheme``
    texts.  Those depend on the process-wide type-variable counter: an
    in-process snapshot of many files (``snapshot_corpus(jobs=1)``)
    renders some schemes differently from a process-per-file one."""
    doc = json.loads(data)
    for entry in doc.get("bindings", {}).values():
        entry.pop("scheme", None)
    return sha256_text(json.dumps(doc, sort_keys=True))


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def verify_corpus(expected: dict, root: Path = ROOT) -> None:
    """Check every corpus file against the manifest and the golden file.
    Raises :class:`CorpusError` on any mismatch."""
    files = corpus_files(root)
    if set(files) != set(expected["files"]):
        raise CorpusError("the corpus file set differs from expected.json")
    manifest = json.loads(
        (root / EXAMPLES / "generated" / "MANIFEST.json").read_text(encoding="utf-8")
    )
    pinned = {f"generated/{p['file']}": p["sha256"] for p in manifest["programs"]}
    for rel in files:
        digest = sha256_file(root / EXAMPLES / rel)
        if rel in pinned and digest != pinned[rel]:
            raise CorpusError(f"{rel} does not match MANIFEST.json")
        if digest != expected["files"][rel]["sha256"]:
            raise CorpusError(f"{rel} does not match expected.json")
    missing = set(pinned) - set(files)
    if missing:
        raise CorpusError(f"manifested files missing: {sorted(missing)[:3]}")


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for ``python -m repro`` children: the checkout's
    sources, no flight-recorder dumps, temp files inside ``tmp``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FLIGHT_DIR", None)
    env["TMPDIR"] = str(tmp)
    return env


def _cli(args: list[str], env: dict, codes: tuple[int, ...] = (0,)) -> "tuple[int, str]":
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if done.returncode not in codes:
        raise CorpusError(f"repro {' '.join(args)} exited {done.returncode}: {done.stderr}")
    return done.returncode, done.stdout


def _golden_file(rel: str, env: dict) -> dict:
    path = f"{EXAMPLES}/{rel}"
    robust, _ = _cli(["optimize", path, "--robust"], env, codes=(0, 3))
    return {
        "sha256": sha256_file(ROOT / path),
        "run": _cli(["run", path], env)[1].strip(),
        "analyze_sha256": sha256_text(_cli(["analyze", path, "--json"], env)[1]),
        "check_sha256": check_digest(_cli(["check", path, "--json"], env)[1]),
        "optimize_degraded": robust == 3,
    }


def regenerate() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.diff.snapshot import tree_digest

    require_checkout()
    tmp = Path(tempfile.mkdtemp(prefix="perf-golden-", dir=ROOT))
    try:
        env = child_env(ROOT, tmp)
        files = corpus_files()
        with ThreadPoolExecutor(max_workers=2) as pool:
            goldens = dict(zip(files, pool.map(lambda rel: _golden_file(rel, env), files)))
        store = tmp / "store"
        digests = []
        for name in ("cold", "warm"):
            out = tmp / name
            _cli(["diff", "snapshot", EXAMPLES, "--jobs", "2",
                  "--store", str(store), "--out", str(out)], env)
            digests.append(tree_digest(out))
        if digests[0] != digests[1]:
            raise CorpusError("cold and warm snapshot trees differ")
        for rel in files:
            goldens[rel]["artifact_digest"] = artifact_digest(
                (tmp / "cold" / f"{rel}.json").read_bytes()
            )
        return {"tree_digest": digests[0], "files": goldens}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    document = regenerate()
    EXPECTED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED} ({len(document['files'])} files)")
