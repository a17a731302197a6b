"""repro — a full reproduction of *Escape Analysis on Lists*
(Young Gil Park and Benjamin Goldberg, PLDI 1992).

The package provides, end to end:

* the paper's language **nml** (lexer, parser, Hindley-Milner types)
  — :mod:`repro.lang`, :mod:`repro.types`;
* its standard semantics on an instrumented heap with regions and a
  mark-sweep GC — :mod:`repro.semantics`;
* the exact and abstract **escape semantics**, the global/local escape
  tests, and polymorphic invariance — :mod:`repro.escape`;
* **sharing analysis** from escape information — :mod:`repro.analysis`;
* the three storage **optimizations**: in-place reuse (DCONS), stack
  allocation, block allocation/reclamation — :mod:`repro.opt`.

Quickstart::

    from repro import analyze, parse_program

    program = parse_program('''
        append x y = if (null x) then y
                     else cons (car x) (append (cdr x) y);
        append [1, 2] [3]
    ''')
    analysis = analyze(program)
    print(analysis.global_test("append", 1).describe())

Every package root exports lazily (:func:`_lazy_exports`): importing
``repro`` or a subpackage loads nothing else until a name is looked up.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType

__version__ = "1.0.0"


class _LazyPackage(ModuleType):
    """A package root whose exported names outrank same-named submodules.

    Importing a submodule binds it on its package, so the first import of
    ``repro.types.spines`` (the module) would otherwise replace the export
    ``repro.types.spines`` (the function from ``repro.types.types``)."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and name in self._exported_from:
            return
        super().__setattr__(name, value)


def _lazy_exports(package: str, exports: dict, modules: tuple = ()):
    """Install PEP 562 lazy exports on the package root ``package``.

    ``exports`` maps each defining module to the names the root exports
    from it; ``modules`` names submodules the root exports as modules.
    Nothing is imported until a name is first looked up, after which it
    is cached on the package.  Returns ``(__getattr__, __dir__,
    __all__)`` for the root to bind.  The root's own functions must
    import what they use: global-name lookups inside a module never
    reach its ``__getattr__``.
    """
    exported_from = {
        name: module for module, names in exports.items() for name in names
    }
    root = sys.modules[package]
    root._exported_from = exported_from
    root.__class__ = _LazyPackage

    def __getattr__(name: str):
        if name in modules:
            return importlib.import_module(f"{package}.{name}")
        if name not in exported_from:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exported_from[name]), name)
        setattr(root, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(root)) | set(exported_from) | set(modules))

    return __getattr__, __dir__, [*exported_from, *modules]


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.sharing": ("sharing_global", "sharing_local"),
        "repro.escape.analyzer": ("EscapeAnalysis",),
        "repro.escape.lattice": ("BeChain", "Escapement"),
        "repro.escape.results": ("EscapeTestResult",),
        "repro.escape.domain": ("EscapeValue",),
        "repro.escape.exact": ("Source", "exact_escape", "observe_escape"),
        "repro.escape.report": ("analysis_report",),
        "repro.escape.poly": ("check_invariance",),
        "repro.lang.errors": ("NmlError",),
        "repro.lang.ast": ("Program",),
        "repro.lang.prelude": (
            "paper_map_pair", "paper_partition_sort", "prelude_program",
        ),
        "repro.lang.parser": ("parse_expr", "parse_program"),
        "repro.lang.pretty": ("pretty", "pretty_program"),
        "repro.machine.machine": ("Machine", "run_compiled"),
        "repro.opt.driver": ("apply_plan", "plan_optimizations"),
        "repro.opt.block_alloc": ("block_allocate_producer",),
        "repro.opt.reuse": ("make_reuse_specialization",),
        "repro.opt.stack_alloc": ("stack_allocate_body",),
        "repro.semantics.interp": ("Interpreter", "run_program"),
        "repro.semantics.metrics": ("StorageMetrics",),
        "repro.types.infer": ("infer_program",),
    },
)
__all__ += ["analyze", "__version__"]


def analyze(program_or_source: "Program | str", **kwargs) -> "EscapeAnalysis":
    """Build an :class:`EscapeAnalysis` from a program or source text."""
    from repro.escape.analyzer import EscapeAnalysis
    from repro.lang.parser import parse_program

    program = (
        parse_program(program_or_source)
        if isinstance(program_or_source, str)
        else program_or_source
    )
    return EscapeAnalysis(program, **kwargs)
