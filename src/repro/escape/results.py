"""Result types shared by the global and local escape tests (§4), and the
:class:`EscapeResults` protocol every analysis consumer goes through."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.escape.lattice import Escapement
from repro.types.types import Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.lang.ast import Expr
    from repro.query import SessionStats, SolvedProgram
    from repro.robust.errors import Degradation


@dataclass(frozen=True)
class EscapeTestResult:
    """The outcome of one escape test for one parameter position.

    ``result`` is the paper's ``G(f, i, env_e)`` (or ``L(...)``) value:

    * ``⟨0,0⟩`` — no part of the ``i``-th argument escapes;
    * ``⟨1,k⟩`` with ``param_spines ≥ 1`` — the top ``param_spines − k``
      spines never escape; the bottom ``k`` spines may;
    * ``⟨1,0⟩`` with ``param_spines = 0`` — the (non-list) argument may
      escape.

    A budgeted analysis whose query was cut short answers with the ``W^τ``
    worst case ``⟨1, sᵢ⟩`` (Definition 2), sound for every application,
    and records why in ``degradation``.
    """

    function: str
    param_index: int  # 1-based, as in the paper
    param_spines: int  # s_i
    param_type: Type
    result: Escapement
    kind: str  # "global" or "local"
    degradation: "Degradation | None" = None

    @property
    def degraded(self) -> bool:
        return self.degradation is not None

    @property
    def nothing_escapes(self) -> bool:
        return self.result.is_none

    @property
    def escaping_spines(self) -> int:
        """``esc_i``: how many bottom spines may escape (0 when nothing
        does).  For non-list parameters this is 0 even when the whole
        object may escape — check :attr:`nothing_escapes` instead."""
        return self.result.spines if self.result.escapes else 0

    @property
    def non_escaping_spines(self) -> int:
        """The top ``s_i − k`` spines that provably do not escape — the
        polymorphically invariant quantity of Theorem 1, and the prefix the
        optimizations may stack-allocate or reuse."""
        if self.result.is_none:
            return self.param_spines
        return self.param_spines - self.result.spines

    def describe(self) -> str:
        """A paper-style sentence summarizing the conclusion (§4.1)."""
        where = (
            "in any possible application" if self.kind == "global" else "in this call"
        )
        subject = f"parameter {self.param_index} of {self.function}"
        if self.result.is_none:
            return f"none of {subject} escapes {where}"
        if self.param_spines == 0:
            return f"{subject} (not a list) could escape {where}"
        top = self.non_escaping_spines
        bottom = self.result.spines
        if top == 0:
            return f"all {bottom} spine(s) of {subject} could escape {where}"
        return (
            f"the top {top} spine(s) of {subject} do not escape {where}; "
            f"the bottom {bottom} spine(s) could escape"
        )

    def __str__(self) -> str:
        return f"{self.kind[0].upper()}({self.function}, {self.param_index}) = {self.result}"


@runtime_checkable
class EscapeResults(Protocol):
    """What a consumer of the escape analysis may depend on.

    The optimizations (:mod:`repro.opt`), the static checker
    (:mod:`repro.check`), and the sharing analysis
    (:mod:`repro.analysis.sharing`) all take their facts through this
    surface, never through the evaluator's internals, so the fixpoint
    solver behind :class:`~repro.escape.analyzer.EscapeAnalysis` can change
    without touching them.
    """

    def solve(self, pins: "dict[str, Type] | None" = None) -> "SolvedProgram": ...

    def global_test(
        self,
        function: str,
        i: int,
        instance: "Type | None" = None,
        n_args: "int | None" = None,
    ) -> EscapeTestResult: ...

    def global_all(
        self,
        function: str,
        instance: "Type | None" = None,
        n_args: "int | None" = None,
    ) -> "list[EscapeTestResult]": ...

    def local_test(self, call: "Expr | str", i: "int | None" = None): ...

    def binding_type(
        self, name: str, solved: "SolvedProgram | None" = None
    ) -> Type: ...

    def escaping_spines(self, function: str) -> "list[int]": ...

    def arg_spine_counts(self, function: str) -> "list[int]": ...

    @property
    def stats(self) -> "SessionStats": ...
