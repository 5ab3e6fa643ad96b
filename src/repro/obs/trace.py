"""Seq-correlated batch tracing.

One trace per ingested batch: a :class:`TraceContext` (trace id +
span id) is created at ingest admission, carried through
``IngestQueue`` entries and batcher flushes, stamped on backend
maintenance and delta publish, and propagated over the wire via the
``X-Repro-Trace`` HTTP header and a delta-envelope ``trace`` field so
router → shard → subscriber hops join one trace.

Stages, in causal order for a single batch:

``admission``
    the service (or router) accepted the batch; exactly one per seq,
    carrying ``seq`` and ``relation`` — the anchor for seq coverage.
``scatter``
    (router only) one per shard the batch was fanned out to.
``flush``
    the batcher drained queue entries into one inner call; a coalesced
    flush merges batches from several traces, so the span joins the
    max-seq entry's trace and records **all** merged seqs in
    ``attrs["seqs"]``.
``maintain``
    the inner backend applied the delta (child of ``admission`` for
    sync views, of ``flush`` for async views).
``publish``
    the service computed a view delta and handed it to subscribers.
``merge``
    (router only) the router re-stamped a shard delta into the merged
    output order.
``deliver``
    a network stream wrote the delta envelope to one subscriber.

Two durability stages sit outside the per-batch causal chain (they
belong to the service lifecycle, not to one seq):

``recover``
    a :class:`~repro.durability.DurableViewService` rebuilt its state
    at startup; attrs record the checkpoint seq, the number of WAL
    batches replayed, and the final seq.
``checkpoint``
    the durable service captured a drained state and truncated the
    WAL prefix it covers; attrs record the checkpointed seq and the
    next WAL segment.

Spans go to a pluggable sink: an in-memory ring buffer by default
(served by ``GET /trace/recent``), optionally tee'd to an NDJSON file
via ``--trace-out``.  A disabled tracer costs one attribute check per
span — the overhead guardrail (``benchmarks/test_obs_overhead.py``)
holds the default ring-buffer mode to ≤5% vs off.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "NULL_TRACER",
    "Span",
    "SpanHandle",
    "TraceContext",
    "Tracer",
    "TRACE_HEADER",
    "assemble",
]

#: HTTP request header carrying ``<trace_id>/<span_id>``
TRACE_HEADER = "X-Repro-Trace"

_span_counter = itertools.count(1)
_span_prefix = f"{os.getpid():x}-{uuid.uuid4().hex[:6]}"


def _new_span_id() -> str:
    return f"{_span_prefix}-{next(_span_counter):x}"


def _new_trace_id() -> str:
    # os.urandom beats uuid4 ~3x and this runs once per ingested batch
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """What travels between stages: which trace, and which parent span."""

    trace_id: str
    span_id: str

    def header(self) -> str:
        return f"{self.trace_id}/{self.span_id}"

    @classmethod
    def parse(cls, text: str | None) -> "TraceContext | None":
        """Parse a header value; tolerant — bad input yields ``None``."""
        if not text:
            return None
        trace_id, sep, span_id = text.strip().partition("/")
        if not sep or not trace_id or not span_id:
            return None
        return cls(trace_id, span_id)

    @classmethod
    def from_wire(cls, obj) -> "TraceContext | None":
        """Parse the delta-envelope ``trace`` field."""
        if not isinstance(obj, dict):
            return None
        trace_id, span_id = obj.get("id"), obj.get("span")
        if not trace_id or not span_id:
            return None
        return cls(str(trace_id), str(span_id))

    def to_wire(self) -> dict:
        return {"id": self.trace_id, "span": self.span_id}


@dataclass(slots=True)
class Span:
    """One completed stage of one batch's journey."""

    trace_id: str
    span_id: str
    parent_id: str | None
    stage: str
    start: float  # wall clock (time.time) — comparable across processes
    dur_s: float
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "stage": self.stage,
            "start": self.start,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            trace_id=d["trace_id"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            stage=d["stage"],
            start=d["start"],
            dur_s=d["dur_s"],
            attrs=d.get("attrs", {}),
        )


class SpanHandle:
    """Context manager for an in-flight span.

    ``handle.ctx`` is the child :class:`TraceContext` to hand to the
    next stage.  Extra attributes may be attached before exit via
    :meth:`set`.  The disabled-tracer singleton has ``ctx = None`` and
    does nothing.
    """

    __slots__ = ("tracer", "ctx", "stage", "attrs", "_parent", "_start",
                 "_t0")

    def __init__(self, tracer, ctx, stage, parent_id, attrs):
        self.tracer = tracer
        self.ctx = ctx
        self.stage = stage
        self.attrs = attrs
        self._parent = parent_id
        self._start = time.time()
        self._t0 = time.perf_counter()

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.finish()
        return False

    def finish(self) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        self.tracer = None  # emit exactly once
        tracer._emit(Span(
            self.ctx.trace_id,
            self.ctx.span_id,
            self._parent,
            self.stage,
            self._start,
            time.perf_counter() - self._t0,
            self.attrs,
        ))


class _NullHandle:
    """Shared do-nothing handle returned by a disabled tracer."""

    __slots__ = ()
    ctx = None
    attrs: dict = {}

    def set(self, **attrs) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def finish(self) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Span factory + sink: ring buffer always, NDJSON tee optionally.

    The ring buffer (``deque(maxlen=capacity)``; appends are atomic
    under the GIL) backs ``GET /trace/recent`` even when ``out=`` is
    set, so tee'ing to a file never disables the endpoint.
    """

    def __init__(self, capacity: int = 4096, enabled: bool = True,
                 out: str | None = None):
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._out_path = out
        self._out_file = None
        self._out_lock = threading.Lock()
        if out is not None:
            self._out_file = open(out, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def span(self, stage: str, parent: TraceContext | None = None,
             **attrs) -> SpanHandle | _NullHandle:
        """Open a span; ``parent=None`` starts a fresh trace."""
        if not self.enabled:
            return _NULL_HANDLE
        if parent is None:
            ctx = TraceContext(_new_trace_id(), _new_span_id())
            parent_id = None
        else:
            ctx = TraceContext(parent.trace_id, _new_span_id())
            parent_id = parent.span_id
        # ``attrs`` is already a fresh dict (built from **kwargs): hand
        # it over without copying — this path runs on every batch.
        return SpanHandle(self, ctx, stage, parent_id, attrs)

    def _emit(self, span: Span) -> None:
        self._ring.append(span)
        f = self._out_file
        if f is not None:
            line = json.dumps(span.to_dict(), separators=(",", ":"))
            with self._out_lock:
                f.write(line + "\n")
                f.flush()

    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        return list(self._ring)

    def recent(self, view: str | None = None, seq: int | None = None,
               trace_id: str | None = None, limit: int = 50) -> list[dict]:
        """Assembled span trees for recent traces, newest first.

        A trace matches when *any* of its spans carries the requested
        ``view``/``seq`` attribute (coalesced flush spans match via
        their ``seqs`` list).
        """
        trees = assemble(self.spans())
        if trace_id is not None:
            trees = [t for t in trees if t["trace_id"] == trace_id]
        if view is not None:
            trees = [t for t in trees if _tree_matches(t, "view", view)]
        if seq is not None:
            trees = [t for t in trees if _tree_matches_seq(t, seq)]
        trees.reverse()  # assemble() is oldest-first
        return trees[:max(0, limit)]

    def close(self) -> None:
        f, self._out_file = self._out_file, None
        if f is not None:
            f.close()


#: default tracer for components constructed without one
NULL_TRACER = Tracer(enabled=False)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def assemble(spans: list[Span]) -> list[dict]:
    """Group spans by trace id into parent/child trees.

    Returns one dict per trace (ordered by earliest span start):
    ``{"trace_id", "start", "spans": [roots...]}`` where each node is
    the span's ``to_dict()`` plus a ``children`` list.  A span whose
    parent is missing from the window (evicted from the ring, or
    emitted by another process) becomes a root — partial traces are
    still viewable.
    """
    by_trace: dict[str, list[Span]] = {}
    for s in spans:
        by_trace.setdefault(s.trace_id, []).append(s)

    trees = []
    for trace_id, group in by_trace.items():
        nodes = {}
        for s in group:
            node = s.to_dict()
            node["children"] = []
            nodes[s.span_id] = node
        roots = []
        for s in sorted(group, key=lambda s: (s.start, s.span_id)):
            node = nodes[s.span_id]
            parent = nodes.get(s.parent_id) if s.parent_id else None
            if parent is not None and parent is not node:
                parent["children"].append(node)
            else:
                roots.append(node)
        trees.append({
            "trace_id": trace_id,
            "start": min(s.start for s in group),
            "spans": roots,
        })
    trees.sort(key=lambda t: t["start"])
    return trees


def _iter_nodes(tree: dict):
    stack = list(tree["spans"])
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["children"])


def _tree_matches(tree: dict, key: str, value) -> bool:
    want = str(value)
    for node in _iter_nodes(tree):
        if str(node["attrs"].get(key)) == want:
            return True
    return False


def _tree_matches_seq(tree: dict, seq: int) -> bool:
    for node in _iter_nodes(tree):
        attrs = node["attrs"]
        if attrs.get("seq") == seq:
            return True
        seqs = attrs.get("seqs")
        if isinstance(seqs, (list, tuple)) and seq in seqs:
            return True
    return False
