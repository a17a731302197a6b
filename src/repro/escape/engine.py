"""Engine selection for the escape-analysis fixpoint core.

Two interchangeable engines compute the Section-4 lattice values:

* ``"worklist"`` (the default) — :class:`~repro.escape.worklist.WorklistEvaluator`,
  which lowers each letrec binding to the flat IR of :mod:`repro.ir` and
  solves the fixpoint with a worklist: only bindings whose inputs changed
  are re-evaluated, and within a binding only the instructions whose
  dependencies changed are re-executed.
* ``"legacy"`` — :class:`~repro.escape.abstract.AbstractEvaluator`, the
  paper's Kleene iteration over the AST.  It is kept as the
  differential-testing oracle: on the same program both engines must
  produce bit-identical per-binding lattice fingerprints (the least
  fixpoint of monotone transfer functions does not depend on evaluation
  order), so any divergence is a bug in one of them.

The engine is an *analysis-relevant* configuration axis: every SCC
provenance digest (:func:`repro.query.scc_digest`) chains the engine name,
so results from different engines can never collide in the on-disk store.

``default_engine()`` resolves the process-wide default, which the CLI's
``--engine`` flag overrides via :func:`use_engine`; library callers pass
``engine=`` explicitly instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.escape.abstract import AbstractEvaluator
from repro.escape.worklist import WorklistEvaluator
from repro.lang.errors import AnalysisError
from repro.options import DEFAULT_ENGINE, ENGINES

if TYPE_CHECKING:  # pragma: no cover
    from repro.escape.lattice import BeChain
    from repro.robust.budget import BudgetMeter

_current_default = DEFAULT_ENGINE

#: The one deprecation text for the legacy engine, shared by every caller.
LEGACY_DEPRECATION = (
    "warning: --engine legacy is deprecated; it is kept only as the "
    "differential-testing oracle for the worklist engine"
)

_legacy_warned = False


def warn_legacy_engine(stream=None) -> bool:
    """Emit the legacy-engine deprecation warning **at most once per
    process** and return whether this call emitted it.

    Every driver-side entry point that resolves ``engine="legacy"`` (the
    CLI's ``--engine`` scope, the batch driver) funnels through here, so a
    fan-out over worker processes or repeated engine resolution cannot
    multiply the warning.  ``stream`` defaults to ``sys.stderr``.
    """
    global _legacy_warned
    if _legacy_warned:
        return False
    _legacy_warned = True
    import sys

    print(LEGACY_DEPRECATION, file=stream if stream is not None else sys.stderr)
    return True


def reset_legacy_warning() -> None:
    """Forget that the deprecation was emitted (test isolation hook)."""
    global _legacy_warned
    _legacy_warned = False


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise AnalysisError(
            f"unknown analysis engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def default_engine() -> str:
    """The engine used by sessions constructed without an explicit one."""
    return _current_default


@contextmanager
def use_engine(engine: str) -> Iterator[str]:
    """Scope a process-wide default engine (what ``--engine`` installs for
    the duration of one CLI command)."""
    global _current_default
    previous = _current_default
    _current_default = validate_engine(engine)
    try:
        yield engine
    finally:
        _current_default = previous


def make_evaluator(
    engine: str,
    chain: "BeChain",
    max_iterations: int | None = None,
    meter: "BudgetMeter | None" = None,
) -> "AbstractEvaluator":
    """Construct the evaluator for ``engine`` (both expose the same
    surface: ``eval``, ``solve_bindings``, ``steps``, ``traces``,
    ``iterates``, ``memo``, ``values_equal`` / ``value_leq``)."""
    validate_engine(engine)
    if engine == "worklist":
        return WorklistEvaluator(chain, max_iterations=max_iterations, meter=meter)
    return AbstractEvaluator(chain, max_iterations=max_iterations, meter=meter)
