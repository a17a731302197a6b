"""Compare two snapshot trees, category by category, in lattice order.

Artifacts are paired by corpus-relative path and compared *semantically*:

* decisions by identity ``(kind, function, param_index)`` — lost, gained,
  or changed (same identity, different justification/span);
* lattice values through the ``B_e`` order ``⊑`` — a head value strictly
  above the base value is a **weakening** (the analysis claims less), one
  strictly below is a strengthening; string equality would miscount both
  directions as the same kind of churn;
* heap-liveness facts through the live-depth order ``0 ⊑ 1 ⊑ … ⊑ ⊤``: a
  binder whose joined use depth goes up — or a fact set that degrades to
  all-``⊤`` — is a **weakening** (the liveness-directed collector loses
  reclaim opportunities), a depth that goes down is a strengthening;
* diagnostics by :meth:`repro.check.diagnostics.Diagnostic.identity`
  (rule + span + context, not message wording);
* machine code by listing digest, with per-opcode size deltas.

Categories split into a **gate set** (regressions: lost decisions, lost
files, weakened lattice values, new error findings, decertifications) and
benign churn; ``Comparison.exit_code()`` maps that to the CLI taxonomy —
0 identical, 3 benign differences only, 4 gated regressions — so CI can
fail a PR for losing a decision while tolerating a resolved hint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.diff import ARTIFACT_SCHEMA, ARTIFACT_SUFFIX, INDEX_NAME
from repro.escape.lattice import Escapement

#: Category names, in reporting order.  ``*_head``/``new``/``lost``/
#: ``weakened`` lean regression; the rest are churn.
CATEGORIES = (
    "file_missing_head",
    "file_missing_base",
    "file_error_new",
    "file_error_resolved",
    "decision_lost",
    "decision_gained",
    "decision_changed",
    "decision_decertified",
    "lattice_weakened",
    "lattice_strengthened",
    "liveness_weakened",
    "liveness_strengthened",
    "binding_changed",
    "sharing_changed",
    "diagnostic_new_error",
    "diagnostic_new",
    "diagnostic_resolved",
    "code_changed",
    "provenance_changed",
)

#: The default regression gate: what CI fails on.
DEFAULT_GATE = frozenset(
    {
        "file_missing_head",
        "file_error_new",
        "decision_lost",
        "decision_decertified",
        "lattice_weakened",
        "liveness_weakened",
        "diagnostic_new_error",
    }
)


class CompareError(ValueError):
    """A tree cannot be compared (missing, empty, or schema-skewed)."""


@dataclass
class Comparison:
    """The categorized outcome of one tree-vs-tree compare."""

    base: str
    head: str
    compared: int
    entries: dict[str, list[dict]] = field(default_factory=dict)
    gate: frozenset = DEFAULT_GATE

    def add(self, category: str, **entry) -> None:
        assert category in CATEGORIES, category
        self.entries.setdefault(category, []).append(entry)

    def counts(self) -> dict[str, int]:
        return {cat: len(self.entries.get(cat, [])) for cat in CATEGORIES}

    @property
    def empty(self) -> bool:
        return not any(self.entries.values())

    def gated(self) -> list[str]:
        """The gate categories that actually fired, in reporting order."""
        return [c for c in CATEGORIES if c in self.gate and self.entries.get(c)]

    def exit_code(self) -> int:
        """0 identical; 4 gated regressions present; 3 benign churn only."""
        if self.empty:
            return 0
        return 4 if self.gated() else 3

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "head": self.head,
            "compared": self.compared,
            "counts": {k: v for k, v in self.counts().items() if v},
            "gate": sorted(self.gate),
            "gated": self.gated(),
            "exit_code": self.exit_code(),
            "categories": {
                cat: self.entries[cat]
                for cat in CATEGORIES
                if self.entries.get(cat)
            },
        }

    def render(self) -> str:
        """The human summary: counts first, then every entry, regressions
        leading."""
        lines = [f"compared {self.compared} artifact(s): {self.base} -> {self.head}"]
        if self.empty:
            lines.append("no differences")
            return "\n".join(lines) + "\n"
        for category in CATEGORIES:
            entries = self.entries.get(category)
            if not entries:
                continue
            marker = "!" if category in self.gate else "~"
            lines.append(f"{marker} {category}: {len(entries)}")
            for entry in entries:
                detail = ", ".join(
                    f"{key}={value}" for key, value in entry.items() if value is not None
                )
                lines.append(f"    {detail}")
        fired = self.gated()
        lines.append(
            f"gate: {'FAIL (' + ', '.join(fired) + ')' if fired else 'pass'}"
        )
        return "\n".join(lines) + "\n"


def load_tree(root: "str | Path") -> dict[str, dict]:
    """Artifacts of one snapshot tree, keyed by corpus-relative path."""
    base = Path(root)
    if not base.is_dir():
        raise CompareError(f"{base}: not a snapshot directory")
    tree: dict[str, dict] = {}
    for path in sorted(base.rglob("*" + ARTIFACT_SUFFIX)):
        if path.name == INDEX_NAME:
            continue
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise CompareError(f"{path}: not a JSON artifact: {error}") from error
        if not isinstance(document, dict) or "schema" not in document:
            continue  # foreign JSON in the tree; not ours to compare
        if document["schema"] != ARTIFACT_SCHEMA:
            raise CompareError(
                f"{path}: artifact schema {document['schema']} != "
                f"{ARTIFACT_SCHEMA}; re-snapshot with this toolchain"
            )
        tree[document.get("path", path.stem)] = document
    if not tree:
        raise CompareError(f"{base}: no artifacts found")
    return tree


def _escapement(value: dict) -> Escapement:
    return Escapement(value["escapes"], value["escape_depth"])


def _decision_key(record: dict) -> tuple:
    return (record["kind"], record["function"], record["param_index"])


def _compare_decisions(rel: str, base: dict, head: dict, out: Comparison) -> None:
    base_map = {_decision_key(r): r for r in base.get("decisions", [])}
    head_map = {_decision_key(r): r for r in head.get("decisions", [])}
    head_decert = {_decision_key(r): r for r in head.get("decertified", [])}
    for key, record in base_map.items():
        if key in head_map:
            other = head_map[key]
            if (
                record["justification"] != other["justification"]
                or record["span"] != other["span"]
            ):
                out.add(
                    "decision_changed",
                    path=rel,
                    kind=key[0],
                    function=key[1],
                    param_index=key[2],
                    base=record["justification"],
                    head=other["justification"],
                )
            continue
        category = "decision_decertified" if key in head_decert else "decision_lost"
        entry = {
            "path": rel,
            "kind": key[0],
            "function": key[1],
            "param_index": key[2],
            "span": record["span"],
            "justification": record["justification"],
        }
        if key in head_decert:
            entry["condemned_by"] = head_decert[key].get("condemned_by", [])
        out.add(category, **entry)
    for key, record in head_map.items():
        if key not in base_map:
            out.add(
                "decision_gained",
                path=rel,
                kind=key[0],
                function=key[1],
                param_index=key[2],
                span=record["span"],
                justification=record["justification"],
            )


def _compare_bindings(rel: str, base: dict, head: dict, out: Comparison) -> None:
    base_bindings = base.get("bindings", {})
    head_bindings = head.get("bindings", {})
    for name in sorted(set(base_bindings) | set(head_bindings)):
        b = base_bindings.get(name)
        h = head_bindings.get(name)
        if b is None or h is None:
            out.add(
                "binding_changed",
                path=rel,
                binding=name,
                change="added" if b is None else "removed",
            )
            continue
        if b.get("error") or h.get("error"):
            if b.get("error") != h.get("error"):
                out.add(
                    "binding_changed",
                    path=rel,
                    binding=name,
                    change="analysis-error",
                    base=b.get("error"),
                    head=h.get("error"),
                )
            continue
        base_params = {p["index"]: p for p in b.get("params", [])}
        head_params = {p["index"]: p for p in h.get("params", [])}
        for index in sorted(set(base_params) | set(head_params)):
            bp, hp = base_params.get(index), head_params.get(index)
            if bp is None or hp is None:
                out.add(
                    "binding_changed",
                    path=rel,
                    binding=name,
                    change=f"param {index} {'appeared' if bp is None else 'vanished'}",
                )
                continue
            base_value, head_value = _escapement(bp), _escapement(hp)
            if base_value == head_value:
                continue
            weakened = base_value.leq(head_value)
            out.add(
                "lattice_weakened" if weakened else "lattice_strengthened",
                path=rel,
                binding=name,
                param_index=index,
                base=bp["value"],
                head=hp["value"],
            )
        if (
            b.get("fingerprint") != h.get("fingerprint")
            and base_params
            and {i: base_params[i]["value"] for i in base_params}
            == {i: p["value"] for i, p in head_params.items()}
        ):
            # Same surface lattice values, different extensional image —
            # still a semantic change worth surfacing.
            out.add(
                "binding_changed", path=rel, binding=name, change="fingerprint"
            )
        elif not base_params and b.get("fingerprint") != h.get("fingerprint"):
            out.add(
                "binding_changed", path=rel, binding=name, change="fingerprint"
            )
    if base.get("sharing") != head.get("sharing"):
        changed = sorted(
            name
            for name in set(base.get("sharing", {})) | set(head.get("sharing", {}))
            if base.get("sharing", {}).get(name) != head.get("sharing", {}).get(name)
        )
        out.add("sharing_changed", path=rel, bindings=changed)


def _depth_leq(a: "int | None", b: "int | None") -> bool:
    """``a ⊑ b`` in the live-depth order (``None`` is ``⊤``)."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


def _decode_depth(text: str) -> "int | None":
    return None if text == "top" else int(text)


def _compare_liveness(rel: str, base: dict, head: dict, out: Comparison) -> None:
    base_live = base.get("liveness", {})
    head_live = head.get("liveness", {})
    if base_live == head_live:
        return
    if not base_live.get("degraded") and head_live.get("degraded"):
        out.add("liveness_weakened", path=rel, change="facts degraded to ⊤")
        return
    if base_live.get("degraded") and not head_live.get("degraded"):
        out.add("liveness_strengthened", path=rel, change="facts recovered")
        return
    base_use = base_live.get("use", {})
    head_use = head_live.get("use", {})
    for name in sorted(set(base_use) & set(head_use)):
        if base_use[name] == head_use[name]:
            continue
        b, h = _decode_depth(base_use[name]), _decode_depth(head_use[name])
        out.add(
            "liveness_weakened" if _depth_leq(b, h) else "liveness_strengthened",
            path=rel,
            binding=name,
            base=base_use[name],
            head=head_use[name],
        )


def _finding_key(finding: dict) -> tuple:
    return (finding["rule"], finding["span"] or "", finding["context"])


def _compare_diagnostics(rel: str, base: dict, head: dict, out: Comparison) -> None:
    base_findings = {
        _finding_key(f): f for f in base.get("diagnostics", {}).get("findings", [])
    }
    head_findings = {
        _finding_key(f): f for f in head.get("diagnostics", {}).get("findings", [])
    }
    for key in sorted(set(head_findings) - set(base_findings)):
        finding = head_findings[key]
        category = (
            "diagnostic_new_error"
            if finding["severity"] == "error"
            else "diagnostic_new"
        )
        out.add(
            category,
            path=rel,
            rule=finding["rule"],
            severity=finding["severity"],
            span=finding["span"],
            context=finding["context"],
        )
    for key in sorted(set(base_findings) - set(head_findings)):
        finding = base_findings[key]
        out.add(
            "diagnostic_resolved",
            path=rel,
            rule=finding["rule"],
            severity=finding["severity"],
            span=finding["span"],
            context=finding["context"],
        )


def _compare_machine(rel: str, base: dict, head: dict, out: Comparison) -> None:
    base_machine = base.get("machine", {})
    head_machine = head.get("machine", {})
    if base_machine.get("digest") == head_machine.get("digest"):
        return
    base_ops = base_machine.get("by_opcode", {})
    head_ops = head_machine.get("by_opcode", {})
    deltas = {
        op: head_ops.get(op, 0) - base_ops.get(op, 0)
        for op in sorted(set(base_ops) | set(head_ops))
        if head_ops.get(op, 0) != base_ops.get(op, 0)
    }
    out.add(
        "code_changed",
        path=rel,
        base_instructions=base_machine.get("instructions", 0),
        head_instructions=head_machine.get("instructions", 0),
        delta=head_machine.get("instructions", 0) - base_machine.get("instructions", 0),
        by_opcode=deltas,
    )


def compare_artifacts(rel: str, base: dict, head: dict, out: Comparison) -> None:
    """Fold one artifact pair's differences into ``out``."""
    if not base.get("ok") or not head.get("ok"):
        if base.get("ok") and not head.get("ok"):
            out.add("file_error_new", path=rel, error=head.get("error", ""))
        elif not base.get("ok") and head.get("ok"):
            out.add("file_error_resolved", path=rel)
        elif base.get("error") != head.get("error"):
            out.add(
                "file_error_new",
                path=rel,
                error=head.get("error", ""),
                previous=base.get("error", ""),
            )
        return
    if base.get("provenance") != head.get("provenance"):
        out.add(
            "provenance_changed",
            path=rel,
            base=base.get("provenance"),
            head=head.get("provenance"),
        )
    _compare_bindings(rel, base, head, out)
    _compare_liveness(rel, base, head, out)
    _compare_decisions(rel, base, head, out)
    _compare_diagnostics(rel, base, head, out)
    _compare_machine(rel, base, head, out)


def compare_trees(
    base_dir: "str | Path",
    head_dir: "str | Path",
    gate: "frozenset | None" = None,
) -> Comparison:
    """Compare two snapshot trees; raises :class:`CompareError` for
    unusable inputs, never for mere differences."""
    base_tree = load_tree(base_dir)
    head_tree = load_tree(head_dir)
    out = Comparison(
        base=str(base_dir),
        head=str(head_dir),
        compared=len(set(base_tree) & set(head_tree)),
        gate=DEFAULT_GATE if gate is None else frozenset(gate),
    )
    for rel in sorted(set(base_tree) | set(head_tree)):
        if rel not in head_tree:
            out.add("file_missing_head", path=rel)
        elif rel not in base_tree:
            out.add("file_missing_base", path=rel)
        else:
            compare_artifacts(rel, base_tree[rel], head_tree[rel], out)
    return out
