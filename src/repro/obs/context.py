"""Trace context propagation: one trace identity across processes.

A :class:`TraceContext` names *one causal chain* — a serve request, or
one file of a batch run — with a 128-bit ``trace_id``, the 64-bit
``span_id`` of the current hop, and the parent hop's span id.  The
format follows the W3C ``traceparent`` header
(``00-<32 hex trace_id>-<16 hex span_id>-01``) so external callers can
hand the daemon a context and correlate our trace with theirs.

The context is *ambient*: :func:`attach` installs one for a scope, and
the :class:`~repro.obs.tracer.Tracer` stamps every event it emits with
the current ``trace_id`` and ``hop`` count.  The hop count increases by
one per :meth:`TraceContext.child` — driver → worker → nested stage —
which is what lets :func:`merge_traces` order per-process JSONL shards
causally without synchronized clocks: within one trace, the driver-side
events (hop 0) sort before the worker-side events (hop 1) they caused.

This module deliberately does not import the tracer (the tracer imports
*us*); it only owns the identity and its serialized forms.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: The only version of the traceparent format we mint or accept.
TRACEPARENT_VERSION = "00"

_HEX = set("0123456789abcdef")


def _hex_id(bits: int) -> str:
    return os.urandom(bits // 8).hex()


def _is_hex(text: str, length: int) -> bool:
    # All-zero ids are invalid per the traceparent spec.
    return (
        len(text) == length
        and set(text) <= _HEX
        and any(c != "0" for c in text)
    )


@dataclass(frozen=True)
class TraceContext:
    """One hop of one causal chain: ``trace_id`` names the chain,
    ``span_id`` this hop, ``parent_id`` the hop that caused it."""

    trace_id: str
    span_id: str
    parent_id: str | None = None
    hop: int = 0

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh root context (hop 0, no parent)."""
        return cls(trace_id=_hex_id(128), span_id=_hex_id(64))

    def child(self) -> "TraceContext":
        """The next hop of the same trace: new span id, this hop as the
        parent, hop count bumped — the id a driver hands a worker."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_hex_id(64),
            parent_id=self.span_id,
            hop=self.hop + 1,
        )

    # -- wire formats -------------------------------------------------------

    def to_traceparent(self) -> str:
        """The W3C-style header value ``00-<trace_id>-<span_id>-01``."""
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext | None":
        """Parse a ``traceparent`` header into the *caller's* context, or
        ``None`` when the header is absent or malformed (a bad header
        must never fail a request — we just mint a fresh trace)."""
        if not header:
            return None
        parts = header.strip().lower().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, _flags = parts
        if version != TRACEPARENT_VERSION:
            return None
        if not _is_hex(trace_id, 32) or not _is_hex(span_id, 16):
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def to_wire(self) -> dict:
        """A picklable/JSON-able dict for the supervised-worker Pipe."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "hop": self.hop,
        }

    @classmethod
    def from_wire(cls, wire: dict | None) -> "TraceContext | None":
        if not wire:
            return None
        return cls(
            trace_id=wire["trace_id"],
            span_id=wire["span_id"],
            parent_id=wire.get("parent_id"),
            hop=int(wire.get("hop", 0)),
        )


# -- the ambient context ------------------------------------------------------
#
# Thread-local, not a module global: the serve daemon handles concurrent
# requests on separate threads, each with its own trace identity.

_state = threading.local()


def current() -> TraceContext | None:
    """The ambient context, or ``None`` outside any :func:`attach` scope."""
    return getattr(_state, "ctx", None)


@contextmanager
def attach(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``ctx`` as the ambient context for a scope (scopes nest;
    attaching ``None`` explicitly clears the context)."""
    previous = getattr(_state, "ctx", None)
    _state.ctx = ctx
    try:
        yield ctx
    finally:
        _state.ctx = previous


# -- shard merging ------------------------------------------------------------


def merge_traces(
    shards: Sequence[Iterable[dict]],
    labels: Sequence[str] | None = None,
) -> list[dict]:
    """Merge per-process event shards into one schema-valid, causally
    ordered trace.

    Ordering is *causal*, not wall-clock: per-process clocks are not
    comparable, but hop counts are — within one trace, lower hops
    (the driver events that caused the work) sort before higher hops
    (the worker events they caused), and within one hop the shard's own
    emission order is preserved.  Distinct traces keep the order in
    which they first appear across the shards.  Each merged event is
    re-sequenced (``seq`` 0..n-1) with its original position preserved
    as ``src_seq`` and its origin shard as ``shard``.
    """
    if labels is not None and len(labels) != len(shards):
        raise ValueError("labels must match shards one-to-one")
    trace_order: dict[str, int] = {}
    keyed: list[tuple[tuple, dict]] = []
    for shard_index, shard in enumerate(shards):
        label = labels[shard_index] if labels else f"shard-{shard_index}"
        for position, event in enumerate(shard):
            trace_id = event.get("trace_id", "")
            if trace_id not in trace_order:
                trace_order[trace_id] = len(trace_order)
            key = (
                trace_order[trace_id],
                event.get("hop", 0),
                shard_index,
                position,
            )
            keyed.append((key, dict(event, shard=label)))
    keyed.sort(key=lambda pair: pair[0])
    merged = []
    for seq, (_, event) in enumerate(keyed):
        event["src_seq"] = event.get("seq", seq)
        event["seq"] = seq
        merged.append(event)
    return merged


def merge_trace_files(paths: Sequence, out_path) -> int:
    """Merge JSONL shard files into ``out_path``; returns the merged
    event count.  Shards are labelled by file stem."""
    from .sinks import read_trace

    shards = []
    labels = []
    for path in paths:
        shards.append(read_trace(path))
        stem = getattr(path, "stem", None)
        labels.append(stem if stem is not None else str(path).rsplit("/", 1)[-1])
    merged = merge_traces(shards, labels)
    with open(out_path, "w", encoding="utf-8") as handle:
        for event in merged:
            handle.write(json.dumps(event) + "\n")
    return len(merged)
