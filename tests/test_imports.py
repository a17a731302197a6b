"""Import discipline: each command loads only what it runs.

Every check runs in a fresh interpreter, because ``sys.modules`` in the
test process already holds whatever earlier tests imported.  The checks
compare exact module sets, so they do not depend on timing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = "examples/partition_sort.nml"

#: Prints the ``repro`` modules loaded by the end of the snippet it follows.
_PRINT_MODULES = """
import json as _json, sys as _sys
print(_json.dumps(sorted(
    m for m in _sys.modules if m == "repro" or m.startswith("repro.")
)))
"""

#: ``python -m repro ARGS`` in-process, then the modules it loaded.
_CLI = """
import contextlib, io, runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert not exit.code, exit.code
""" + _PRINT_MODULES


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_FLIGHT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def _under(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


def test_import_repro_loads_no_submodule():
    assert _last_json(_python("import repro" + _PRINT_MODULES)) == ["repro"]


@pytest.mark.parametrize("command", ["optimize", "run"])
def test_optimize_and_run_load_no_analysis(command):
    modules = _last_json(_python(_CLI, command, PROGRAM))
    assert "repro.lang.parser" in modules
    heavy = (
        "repro.escape", "repro.query", "repro.types", "repro.check",
        "repro.machine", "repro.opt",
    )
    assert _under(modules, heavy) == []


def test_analyze_json_loads_no_runtime_optimizer_or_checker():
    modules = _last_json(_python(_CLI, "analyze", PROGRAM, "--json"))
    assert "repro.escape.analyzer" in modules
    heavy = ("repro.semantics.heap", "repro.machine", "repro.opt", "repro.check")
    assert _under(modules, heavy) == []


def test_diff_compare_loads_no_analysis(tmp_path):
    """Comparing artifact trees reads JSON; it needs no analysis stack."""
    from repro.diff.snapshot import snapshot_corpus

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(ROOT / PROGRAM, corpus)
    snapshot_corpus([corpus], tmp_path / "base")
    shutil.copytree(tmp_path / "base", tmp_path / "head")
    modules = _last_json(
        _python(_CLI, "diff", "compare", str(tmp_path / "base"), str(tmp_path / "head"))
    )
    assert "repro.diff.compare" in modules
    heavy = (
        "repro.query", "repro.types", "repro.check", "repro.opt",
        "repro.machine", "repro.batch", "repro.store",
    )
    assert _under(modules, heavy) == []


_EXPORTS = """
import importlib, json, pkgutil
import repro

packages = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)
resolved = {}
for name in packages:
    package = importlib.import_module(name)
    resolved[name] = {attr: getattr(package, attr) for attr in package.__all__}
# Importing every module binds each submodule on its package; an export
# that shares a submodule's name (repro.lang.pretty) must keep its value.
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
changed = [
    f"{name}.{attr}"
    for name, values in resolved.items()
    for attr, value in values.items()
    if getattr(importlib.import_module(name), attr) is not value
]
print(json.dumps({"packages": packages, "changed": changed,
                  "pretty": type(repro.lang.pretty).__name__,
                  "spines": type(repro.types.spines).__name__}))
"""


def test_every_exported_name_resolves():
    doc = _last_json(_python(_EXPORTS))
    assert {"repro", "repro.lang", "repro.obs", "repro.robust"} <= set(doc["packages"])
    assert doc["changed"] == []
    assert doc["pretty"] == doc["spines"] == "function"


def test_analyze_front_door_in_a_fresh_process():
    code = """
import repro
program = repro.parse_program(
    "append x y = if (null x) then y else cons (car x) (append (cdr x) y);"
    " append [1, 2] [3]"
)
print(repro.analyze(program).global_test("append", 1).describe())
print(repro.analyze("f x = x; f [1]").global_test("f", 1))
"""
    out = _python(code).splitlines()
    assert "spine" in out[0]
    assert out[1] == "G(f, 1) = <1,0>"


_WORKER = """
import sys, tempfile
import {module}
from {module} import {worker}

before = set(sys.modules)
tmp = tempfile.mkdtemp()
for path in ("examples/partition_sort.nml", "examples/reverse.nml"):
    report = {call}
    assert report.ok, report.error
print(sorted(m for m in set(sys.modules) - before if m.startswith("repro")))
"""


@pytest.mark.parametrize(
    "module, worker, call",
    [
        (
            "repro.batch",
            "analyze_one",
            'analyze_one(path, tmp + "/store", check=True, collector="liveness")',
        ),
        (
            "repro.batch",
            "analyze_one",
            'analyze_one(path, tmp + "/store", deadline_ms=60000.0)',
        ),
        (
            "repro.diff.snapshot",
            "snapshot_one",
            'snapshot_one(path, tmp + "/store", out_dir=tmp + "/out", '
            'rels={path: path.rsplit("/", 1)[-1]})',
        ),
    ],
    ids=["batch", "batch-hardened", "snapshot"],
)
def test_worker_bodies_run_on_the_preloaded_set(module, worker, call):
    """What a forked worker runs is already imported by the module that forks it."""
    out = _python(_WORKER.format(module=module, worker=worker, call=call))
    assert out.strip() == "[]"


_SERVE = """
import io, json, os, signal, sys, threading, urllib.request

from repro.cli import main

source = open("examples/partition_sort.nml").read()
ports = []
listening = threading.Event()


class Stderr(io.StringIO):
    # passes stderr through, noting the port of the listening line
    def write(self, text):
        if "listening on" in text:
            ports.append(text.rsplit(":", 1)[1].strip())
            listening.set()
        return sys.__stderr__.write(text)


def client():
    try:
        assert listening.wait(60)
        before = set(sys.modules)
        for endpoint, extra in (("analyze", {}), ("check", {}),
                                ("optimize", {"validate": True})):
            request = urllib.request.Request(
                f"http://127.0.0.1:{ports[0]}/{endpoint}",
                data=json.dumps({"source": source, **extra}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert json.loads(response.read())["ok"], endpoint
        added = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
        print(json.dumps(added), flush=True)
    finally:
        os.kill(os.getpid(), signal.SIGTERM)


threading.Thread(target=client, daemon=True).start()
sys.stderr = Stderr()
assert main(["serve", "--port", "0"]) == 0
"""


def test_serve_requests_import_nothing_once_listening():
    assert _last_json(_python(_SERVE)) == []


def test_rules_table_lists_every_pass_in_a_fresh_process():
    """Rules register on import; ``--rules`` must load every pass first."""
    out = _python("import sys; from repro.cli import main; sys.exit(main())",
                  "check", "--rules")
    ids = [line.split()[0] for line in out.splitlines()[1:]]
    expected = (
        ["CHK001"]
        + [f"LNT{i:03d}" for i in range(1, 7)]
        + [f"AUD{i:03d}" for i in range(1, 11)]
        + [f"MCH{i:03d}" for i in range(1, 8)]
    )
    assert sorted(ids) == sorted(expected)
