"""Human-readable analysis reports, in the style of Appendix A.

``analysis_report`` renders, for one program: the source, the spine bound
``d``, the fixpoint iteration summary (A.1), the global escape table (A.1),
and the sharing facts (A.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.escape.analyzer import EscapeAnalysis
from repro.escape.results import EscapeTestResult
from repro.lang.ast import Program
from repro.lang.errors import AnalysisError
from repro.lang.pretty import pretty_program
from repro.types.types import arity


@dataclass
class FunctionReport:
    name: str
    scheme: str
    results: list[EscapeTestResult]
    iterations: int
    converged: bool

    def lines(self) -> list[str]:
        out = [f"{self.name} : {self.scheme}"]
        status = "converged" if self.converged else "WIDENED"
        out.append(f"  fixpoint: {self.iterations} iteration(s), {status}")
        for result in self.results:
            out.append(f"  G({self.name}, {result.param_index}) = {result.result}")
            out.append(f"    {result.describe()}")
        return out


def analysis_report(
    program: Program,
    include_sharing: bool = True,
    include_stats: bool = False,
) -> str:
    """A full paper-style report for every top-level function.

    ``include_stats`` appends the query-session accounting (cache hits and
    misses, fixpoint iterations, eval steps) — the report asks one global
    question per function, so the session's solve cache serves every
    question after the first from the same fixpoint.
    """
    analysis = EscapeAnalysis(program)
    sections: list[str] = []

    sections.append("=== program ===")
    sections.append(pretty_program(program).rstrip())

    solved = analysis.solve(None)
    sections.append("")
    sections.append(f"=== escape analysis (B_e chain: d = {solved.d}) ===")

    for name in program.binding_names():
        scheme = analysis.scheme(name)
        if arity(scheme.body) == 0:
            sections.append(f"{name} : {scheme} (not a function; skipped)")
            continue
        results = analysis.global_all(name)
        assert analysis.last_solved is not None
        trace = analysis.last_solved.trace(name)
        report = FunctionReport(
            name=name,
            scheme=str(scheme),
            results=results,
            iterations=trace.iterations,
            converged=trace.converged,
        )
        sections.extend(report.lines())

    if include_sharing:
        # Imported here: repro.analysis depends on repro.escape, so a
        # module-level import would be circular.
        from repro.analysis.sharing import sharing_global

        sections.append("")
        sections.append("=== sharing (Theorem 2, clause 2) ===")
        for name in program.binding_names():
            try:
                info = sharing_global(analysis, name)
            except AnalysisError:
                continue
            sections.append(f"  {info.describe()}")

    if include_stats:
        sections.append("")
        sections.append("=== query session ===")
        sections.append(f"  {analysis.stats.summary()}")

    return "\n".join(sections) + "\n"


def result_dict(result: EscapeTestResult) -> dict:
    """A machine-readable form of one escape-test result (``--json``)."""
    return {
        "kind": result.kind,
        "function": result.function,
        "param_index": result.param_index,
        "param_spines": result.param_spines,
        "result": str(result.result),
        "escaping_spines": result.escaping_spines,
        "non_escaping_spines": result.non_escaping_spines,
        "description": result.describe(),
    }


def robust_result_dict(result: EscapeTestResult) -> dict:
    """:func:`result_dict` plus whether the answer degraded, and why — one
    entry of ``analyze --robust --json`` and of serve's ``/analyze``."""
    entry = result_dict(result)
    entry["degraded"] = result.degraded
    if result.degradation is not None:
        entry["degradation"] = {
            "reason": result.degradation.reason,
            "stage": result.degradation.stage,
        }
    return entry


def stats_dict(stats) -> dict:
    """Query-session accounting as a plain dict (``--json``)."""
    doc = {
        "solve_hits": stats.solve_hits,
        "solve_misses": stats.solve_misses,
        "scc_hits": stats.scc_hits,
        "scc_misses": stats.scc_misses,
        "iterations": stats.iterations,
        "eval_steps": stats.eval_steps,
        "worklist_evals": getattr(stats, "worklist_evals", 0),
        "store": {
            "hits": getattr(stats, "store_hits", 0),
            "misses": getattr(stats, "store_misses", 0),
            "writes": getattr(stats, "store_writes", 0),
        },
    }
    queries = getattr(stats, "queries", None)
    if queries is not None:
        doc["queries"] = queries
    return doc


def report_json(
    program: Program,
    include_sharing: bool = True,
    include_stats: bool = False,
) -> dict:
    """The full analysis report as a JSON-serializable document: the same
    content as :func:`analysis_report`, structured for machines."""
    analysis = EscapeAnalysis(program)
    solved = analysis.solve(None)
    doc: dict = {"d": solved.d, "functions": []}

    for name in program.binding_names():
        scheme = analysis.scheme(name)
        if arity(scheme.body) == 0:
            doc["functions"].append(
                {"name": name, "scheme": str(scheme), "is_function": False}
            )
            continue
        results = analysis.global_all(name)
        assert analysis.last_solved is not None
        trace = analysis.last_solved.trace(name)
        doc["functions"].append(
            {
                "name": name,
                "scheme": str(scheme),
                "is_function": True,
                "iterations": trace.iterations,
                "converged": trace.converged,
                "results": [result_dict(r) for r in results],
            }
        )

    if include_sharing:
        from repro.analysis.sharing import sharing_global

        sharing = []
        for name in program.binding_names():
            try:
                info = sharing_global(analysis, name)
            except AnalysisError:
                continue
            sharing.append({"function": name, "description": info.describe()})
        doc["sharing"] = sharing

    if include_stats:
        doc["stats"] = stats_dict(analysis.stats)
    return doc


def fixpoint_derivation(program: Program, function: str, i: int) -> list[str]:
    """Replay Appendix A.1's derivation: the value ``G(function, i)`` would
    take at each fixpoint iterate ``f⁽⁰⁾, f⁽¹⁾, ...``.

    Returns lines like ``G(append, 1) @ append^(1) = <1,0>``.  The value at
    the final iterate is the analysis' answer; earlier iterates show the
    ascent from bottom exactly as the paper writes it out.
    """
    from repro.escape.global_test import run_global_test

    analysis = EscapeAnalysis(program)
    solved = analysis.solve(None)
    fn_type = analysis._binding_type(solved, function)

    lines: list[str] = []
    for k, iterate in enumerate(solved.iterates_for(function)):
        env = dict(iterate)
        result = run_global_test(solved.evaluator, env, function, fn_type, i)
        lines.append(f"G({function}, {i}) @ {function}^({k}) = {result.result}")
    return lines


def global_table(program: Program) -> list[EscapeTestResult]:
    """Every global escape result of the program, flattened — the rows of
    the Appendix A.1 table."""
    analysis = EscapeAnalysis(program)
    rows: list[EscapeTestResult] = []
    for name in program.binding_names():
        if arity(analysis.scheme(name).body) == 0:
            continue
        rows.extend(analysis.global_all(name))
    return rows
