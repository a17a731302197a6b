"""The optimization auditor: independent re-derivation of every storage
decision baked into a program.

The optimizers leave two kinds of footprints: ``dcons`` sites (the §6
in-place reuse) and region annotations (``alloc = "region"`` cons sites
under a ``region`` scope, §A.3.1/§A.3.3).  This pass does **not** trust the
optimizer's own plan or log — it re-derives, from the escape lattice values
(:class:`~repro.escape.analyzer.EscapeAnalysis`), the Theorem-2 sharing
facts (:func:`~repro.analysis.sharing.sharing_global`), and the liveness
scan (:mod:`repro.opt.liveness`), an independent justification for each
footprint, and reports:

* **errors** where no justification re-derives — an unsound transform
  (donor spine escapes, donor still live after the ``dcons``, two reuses of
  one donor on a single path, an unjustified region);
* **warnings** where soundness rests on an obligation the auditor cannot
  discharge statically (a call passes a possibly-shared argument into a
  donor position);
* **hints** where the analysis provably licenses an optimization the
  program does not use.
"""

from __future__ import annotations

from repro.analysis.sharing import sharing_global
from repro.check.diagnostics import CheckSeverity, Diagnostic, rule
from repro.escape.analyzer import EscapeAnalysis
from repro.escape.results import EscapeResults
from repro.lang.ast import (
    App,
    Expr,
    If,
    Prim,
    Program,
    Var,
    apply_n,
    clone,
    transform,
    uncurry_app,
    uncurry_lambda,
    walk,
)
from repro.lang.errors import AnalysisError, NmlError
from repro.opt.liveness import var_used_after

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.query import AnalysisSession

AUD001 = rule(
    "AUD001",
    "dcons-donor-not-variable",
    CheckSeverity.ERROR,
    "audit",
    "a dcons donor is not a variable; no cell to legally recycle",
)
AUD002 = rule(
    "AUD002",
    "dcons-donor-not-parameter",
    CheckSeverity.ERROR,
    "audit",
    "a dcons donor is not a parameter of its function",
)
AUD003 = rule(
    "AUD003",
    "unsound-reuse-escape",
    CheckSeverity.ERROR,
    "audit",
    "a dcons donor's top spine may escape; reuse mutates live cells",
)
AUD004 = rule(
    "AUD004",
    "unsound-reuse-liveness",
    CheckSeverity.ERROR,
    "audit",
    "a dcons donor is still used after the reuse site",
)
AUD005 = rule(
    "AUD005",
    "double-reuse-on-path",
    CheckSeverity.ERROR,
    "audit",
    "two dcons sites recycle one donor on the same execution path",
)
AUD006 = rule(
    "AUD006",
    "sharing-obligation-open",
    CheckSeverity.WARNING,
    "audit",
    "a call passes a possibly-shared argument into a donor position",
)
AUD007 = rule(
    "AUD007",
    "unjustified-region",
    CheckSeverity.ERROR,
    "audit",
    "a stack/block region is not justified by the local escape test",
)
AUD008 = rule(
    "AUD008",
    "missed-reuse",
    CheckSeverity.HINT,
    "audit",
    "the analysis licenses an in-place reuse the program does not do",
)
AUD009 = rule(
    "AUD009",
    "missed-stack-alloc",
    CheckSeverity.HINT,
    "audit",
    "a literal argument's non-escaping spine could be stack-allocated",
)
AUD010 = rule(
    "AUD010",
    "reuse-unverifiable",
    CheckSeverity.ERROR,
    "audit",
    "the escape analysis cannot re-derive a justification for a dcons",
)


def _saturated_prim_sites(body: Expr, name: str, arity: int) -> list[App]:
    return [
        node
        for node in walk(body)
        if isinstance(node, App)
        and isinstance(uncurry_app(node)[0], Prim)
        and uncurry_app(node)[0].name == name  # type: ignore[union-attr]
        and len(uncurry_app(node)[1]) == arity
    ]


def _branch_chain(node: Expr, parents: dict[int, Expr]) -> dict[int, str]:
    chain: dict[int, str] = {}
    current = node
    while current.uid in parents:
        parent = parents[current.uid]
        if isinstance(parent, If):
            if current is parent.then:
                chain[parent.uid] = "then"
            elif current is parent.otherwise:
                chain[parent.uid] = "else"
        current = parent
    return chain


def _path_disjoint(a: Expr, b: Expr, parents: dict[int, Expr]) -> bool:
    """True iff some ``if`` separates ``a`` and ``b`` into opposite
    branches, so at most one evaluates per execution.  (Re-derived here —
    the audit must not trust the optimizer's own site selection.)"""
    chain_a = _branch_chain(a, parents)
    chain_b = _branch_chain(b, parents)
    return any(
        chain_b.get(if_uid) not in (None, side) for if_uid, side in chain_a.items()
    )


def _cdr_chain_base(expr: Expr) -> str | None:
    """The variable at the bottom of a ``cdr (cdr ... x)`` chain, if any."""
    while True:
        if isinstance(expr, Var):
            return expr.name
        if isinstance(expr, App):
            head, args = uncurry_app(expr)
            if isinstance(head, Prim) and head.name == "cdr" and len(args) == 1:
                expr = args[0]
                continue
        return None


def _erase_dcons(program: Program) -> Program:
    """The program with every ``dcons x e1 e2`` back-substituted to
    ``cons e1 e2`` — the *specification* a reuse specialization claims to
    implement.  Escape and sharing facts must be re-derived on this erased
    program: in the transformed function the donor cell deliberately
    becomes part of the result (that is the optimization), so a test on the
    transformed body always reports the donor escaping.  What justifies the
    recycling is the erased function's fact — exactly what the optimizer
    had in hand when it decided."""

    def go(node: Expr) -> Expr | None:
        if isinstance(node, App):
            head, args = uncurry_app(node)
            if isinstance(head, Prim) and head.name == "dcons" and len(args) == 3:
                return apply_n(
                    Prim(span=head.span, name="cons"),
                    args[1],
                    args[2],
                    span=node.span,
                )
        return None

    letrec = transform(clone(program.letrec), go)
    return Program(letrec=letrec, source=program.source)  # type: ignore[arg-type]


def audit_program(
    program: Program, session: "AnalysisSession | None" = None
) -> list[Diagnostic]:
    """Every finding against ``program``'s storage footprints.

    The facts come from the dcons-erased program, analyzed afresh or —
    given ``session`` — through a session derived from it, which answers
    from the shared caches only the questions whose inputs fingerprint
    identically (a transform bug changes the program, hence the keys)."""
    out: list[Diagnostic] = []
    erased = _erase_dcons(program)
    if session is None:
        analysis = EscapeAnalysis(erased)
    else:
        analysis = EscapeAnalysis(erased, session=session.derive(erased))

    #: function -> donor parameter names with at least one dcons site
    donors_by_function: dict[str, set[str]] = {}
    #: function -> {param name -> 1-based index}
    param_index: dict[str, dict[str, int]] = {}
    #: function -> cached global test results (None = analysis failed)
    global_cache: dict[str, list | None] = {}
    #: lazily computed interprocedural heap-liveness facts (False = failed)
    liveness_cache: list = []

    def global_results(name: str):
        # Any engine failure — typed AnalysisError or an internal crash on
        # an exotic-but-parseable program — degrades to "unverifiable"
        # (AUD010 at the sites), never sinks the whole pass.
        if name not in global_cache:
            try:
                global_cache[name] = analysis.global_all(name)
            except (AnalysisError, NmlError):
                global_cache[name] = None
            except Exception:
                global_cache[name] = None
        return global_cache[name]

    def donor_dead_after(fn_name: str, site_uid: int, donor: str) -> bool:
        # Interprocedural sharpening of the AUD004 liveness justification:
        # heap-liveness facts (repro.analysis.heap_liveness) can certify a
        # donor dead past the reuse even when the syntactic scan sees a
        # later occurrence (e.g. a null test, or a call whose summary never
        # reads that parameter's cells).  Certifications only ever compose
        # by OR with the syntactic answer, so the audit never certifies
        # *fewer* decisions than before; any failure keeps the
        # conservative answer.
        if not liveness_cache:
            try:
                from repro.analysis.heap_liveness import analyze_program

                liveness_cache.append(analyze_program(program))
            except Exception:
                liveness_cache.append(None)
        facts = liveness_cache[0]
        if facts is None or facts.degraded:
            return False
        from repro.analysis.heap_liveness import donor_live_after

        try:
            return donor_live_after(program, fn_name, site_uid, donor, facts) is False
        except Exception:
            return False

    for binding in program.bindings:
        params, body = uncurry_lambda(binding.expr)
        param_index[binding.name] = {p: i for i, p in enumerate(params, start=1)}
        _audit_dcons_sites(
            binding.name,
            params,
            body,
            analysis,
            global_results,
            donor_dead_after,
            donors_by_function,
            out,
        )
        # Hints scan the erased body: a dcons the function already does is
        # not a missed opportunity, and fresh cons sites read identically.
        erased_body = uncurry_lambda(erased.binding(binding.name).expr)[1]
        _hint_missed_reuse(
            binding.name, params, erased_body, global_results, donors_by_function, out
        )

    _audit_sharing_obligations(
        program, analysis, donors_by_function, param_index, out
    )
    _audit_regions(erased, analysis, out)
    return out


def _audit_dcons_sites(
    name: str,
    params: list[str],
    body: Expr,
    analysis: EscapeResults,
    global_results,
    donor_dead_after,
    donors_by_function: dict[str, set[str]],
    out: list[Diagnostic],
) -> None:
    sites = _saturated_prim_sites(body, "dcons", 3)
    if not sites:
        return
    parents = {
        child.uid: node for node in walk(body) for child in node.children()
    }
    sites_by_donor: dict[str, list[App]] = {}
    for site in sites:
        donor = uncurry_app(site)[1][0]
        if not isinstance(donor, Var):
            out.append(
                Diagnostic(
                    AUD001,
                    "dcons donor must be a variable naming a live cell, "
                    f"got {type(donor).__name__}",
                    span=site.span,
                    context=name,
                )
            )
            continue
        if donor.name not in params:
            out.append(
                Diagnostic(
                    AUD002,
                    f"dcons donor {donor.name!r} is not a parameter of "
                    f"{name!r}; its escape behaviour has no global test",
                    span=site.span,
                    context=name,
                )
            )
            continue
        sites_by_donor.setdefault(donor.name, []).append(site)

    results = global_results(name)
    for donor, donor_sites in sites_by_donor.items():
        donors_by_function.setdefault(name, set()).add(donor)
        index = params.index(donor) + 1

        # -- escape justification (§4.1): the donated top spine must not
        #    escape any possible application of the function.
        if results is None:
            out.append(
                Diagnostic(
                    AUD010,
                    f"cannot analyze {name!r}; its dcons on {donor!r} is "
                    "unverifiable",
                    span=donor_sites[0].span,
                    context=name,
                )
            )
        elif index > len(results):
            out.append(
                Diagnostic(
                    AUD010,
                    f"no global escape fact for parameter {index} of {name!r}",
                    span=donor_sites[0].span,
                    context=name,
                )
            )
        else:
            fact = results[index - 1]
            if fact.param_spines < 1 or fact.non_escaping_spines < 1:
                out.append(
                    Diagnostic(
                        AUD003,
                        f"G({name}, {index}) = {fact.result}: every spine of "
                        f"donor {donor!r} may escape; recycling its cells "
                        "mutates data a caller can still reach",
                        span=donor_sites[0].span,
                        context=name,
                    )
                )

        # -- liveness justification (§6): no further use of the donor after
        #    the reuse site, on any path — certified either by the
        #    syntactic scan or by the interprocedural heap-liveness facts.
        for site in donor_sites:
            if var_used_after(body, site.uid, donor) is not False and not (
                donor_dead_after(name, site.uid, donor)
            ):
                out.append(
                    Diagnostic(
                        AUD004,
                        f"donor {donor!r} may be read after this dcons "
                        "recycles its cell",
                        span=site.span,
                        context=name,
                    )
                )

        # -- one reuse per donor per execution path.
        for i, first in enumerate(donor_sites):
            for second in donor_sites[i + 1 :]:
                if not _path_disjoint(first, second, parents):
                    out.append(
                        Diagnostic(
                            AUD005,
                            f"donor {donor!r} is recycled twice on one "
                            "execution path",
                            span=second.span,
                            context=name,
                        )
                    )


def _hint_missed_reuse(
    name: str,
    params: list[str],
    body: Expr,
    global_results,
    donors_by_function: dict[str, set[str]],
    out: list[Diagnostic],
) -> None:
    from repro.opt.reuse import select_reuse_sites

    results = global_results(name)
    if results is None:
        return
    used_donors = donors_by_function.get(name, set())
    for fact in results:
        if fact.param_spines < 1 or fact.non_escaping_spines < 1:
            continue
        if fact.param_index > len(params):
            continue
        param = params[fact.param_index - 1]
        if param in used_donors:
            continue
        sites = select_reuse_sites(body, param, donor_type=fact.param_type)
        if sites:
            out.append(
                Diagnostic(
                    AUD008,
                    f"G({name}, {fact.param_index}) = {fact.result} licenses "
                    f"reusing {param!r}'s top spine at {len(sites)} cons "
                    "site(s), but the program allocates fresh cells",
                    span=sites[0].span,
                    context=name,
                )
            )


def _audit_sharing_obligations(
    program: Program,
    analysis: EscapeResults,
    donors_by_function: dict[str, set[str]],
    param_index: dict[str, dict[str, int]],
    out: list[Diagnostic],
) -> None:
    """Theorem 2: every call that feeds a donor position must pass a list
    whose top spine is unshared — fresh (a literal chain), a cdr-suffix of
    the callee's own donor (inductively covered by the original caller's
    obligation), or the result of a function whose clause-2 sharing fact
    proves an unshared top spine."""
    from repro.opt.driver import _is_literal_chain

    sharing_cache: dict[str, int | None] = {}

    def unshared_result_spines(fn: str) -> int | None:
        if fn not in sharing_cache:
            try:
                sharing_cache[fn] = sharing_global(analysis, fn).unshared_top_spines
            except Exception:  # engine failure -> obligation stays open
                sharing_cache[fn] = None
        return sharing_cache[fn]

    scopes: list[tuple[str, Expr]] = [("<body>", program.body)]
    scopes.extend(
        (b.name, uncurry_lambda(b.expr)[1]) for b in program.bindings
    )

    def maximal_apps(body: Expr) -> "list[App]":
        """Outermost applications only — walking into an application's
        curried spine would double-count each call per argument."""
        found: list[App] = []
        stack = [body]
        while stack:
            node = stack.pop()
            if isinstance(node, App):
                head, args = uncurry_app(node)
                found.append(node)
                stack.extend(args)
                if not isinstance(head, (Var, Prim)):
                    stack.append(head)
            else:
                stack.extend(node.children())
        return found

    for caller, body in scopes:
        for node in maximal_apps(body):
            head, args = uncurry_app(node)
            if not (isinstance(head, Var) and head.name in donors_by_function):
                continue
            callee = head.name
            for donor in donors_by_function[callee]:
                index = param_index[callee].get(donor)
                if index is None or index > len(args):
                    continue
                actual = args[index - 1]
                if _is_literal_chain(actual):
                    continue  # fresh construction is unshared by definition
                if caller == callee and _cdr_chain_base(actual) == donor:
                    continue  # recursion walks the donor's own unshared spine
                arg_head, arg_args = uncurry_app(actual)
                if (
                    isinstance(arg_head, Var)
                    and arg_args
                    and arg_head.name in program.binding_names()
                ):
                    unshared = unshared_result_spines(arg_head.name)
                    if unshared is not None and unshared >= 1:
                        continue  # Theorem 2 clause 2 discharges it
                    reason = (
                        f"Theorem 2 gives {arg_head.name!r} only "
                        f"{unshared or 0} unshared result spine(s)"
                    )
                else:
                    reason = "its top-spine sharing is unknown here"
                out.append(
                    Diagnostic(
                        AUD006,
                        f"argument {index} of this {callee!r} call feeds the "
                        f"donor {donor!r}, but {reason}",
                        span=actual.span,
                        context=caller,
                    )
                )


def _audit_regions(
    program: Program, analysis: EscapeResults, out: list[Diagnostic]
) -> None:
    """Re-justify region annotations on the result call via the local
    escape test (§4.2), and hint at provably missed stack allocations."""
    from repro.opt.driver import _is_literal_chain

    body = program.body
    region = body.annotations.get("region")
    head, args = uncurry_app(body)

    if region is None and not args:
        return
    try:
        locals_ = analysis.local_test(body) if args and isinstance(head, Var) else []
    except Exception:  # engine failure -> region stays unjustified
        locals_ = None

    if region is not None:
        kind = region.get("kind", "block")
        if locals_ is None or not locals_:
            out.append(
                Diagnostic(
                    AUD007,
                    f"the result call opens a {kind} region but the local "
                    "escape test cannot be re-derived for it",
                    span=body.span,
                    context="<body>",
                )
            )
        elif not any(
            r.param_spines >= 1 and r.non_escaping_spines >= 1 for r in locals_
        ):
            results = ", ".join(f"L{r.param_index} = {r.result}" for r in locals_)
            out.append(
                Diagnostic(
                    AUD007,
                    f"every argument spine may escape the call ({results}); "
                    f"closing the {kind} region would free live cells",
                    span=body.span,
                    context="<body>",
                )
            )
        return

    # No region: hint when a literal argument provably could live on the
    # stack (§A.3.1 licensed but unused).
    if not locals_:
        return
    for fact, arg in zip(locals_, args):
        if (
            fact.param_spines >= 1
            and fact.non_escaping_spines >= 1
            and _is_literal_chain(arg)
            and not isinstance(arg, Var)
            and any(
                isinstance(n, App)
                and isinstance(uncurry_app(n)[0], Prim)
                and uncurry_app(n)[0].name == "cons"  # type: ignore[union-attr]
                for n in walk(arg)
            )
        ):
            out.append(
                Diagnostic(
                    AUD009,
                    f"L({fact.param_index}) = {fact.result}: the top "
                    f"{fact.non_escaping_spines} spine(s) of this literal die "
                    "with the call; its cells could live on the stack",
                    span=arg.span,
                    context="<body>",
                )
            )
