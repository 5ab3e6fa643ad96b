"""Spans recorded from outside the program.

Nothing under ``src/`` knows about the benchmark.  A traced run wraps
the *public* functions at each layer boundary (``ViewService.on_batch``,
``wire.decode_gmr``, ``WriteAheadLog.append_batch``, ``ShardMap.split``
...) with a timing closure and keeps the spans in memory until the run
ends.  Server processes get the same wrappers through ``shim.py``.

A span is ``(id, parent, name, start, end, n, batch)``:

* ``name`` is ``<layer>.<call>`` (``exec.on_batch:Q3`` carries the view
  it served after the colon);
* ``parent`` is the enclosing span on the same thread (0 for none);
* ``start``/``end`` are ``time.perf_counter()`` — CLOCK_MONOTONIC on
  Linux, so spans of different processes on one host share a clock;
* ``n`` is the count at that boundary: tuples of a base batch (one per
  unit of |multiplicity|), rows of a view delta (whose multiplicities
  are aggregate values, not counts), bytes of an encoded line;
* ``batch`` is the trace id the load generator put on the batch
  (``TraceContext.trace_id``), which the program already propagates
  through ``X-Repro-Trace`` and the delta envelopes, so spans of one
  batch join across threads and processes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter


def tuples_of(gmr) -> int:
    """Tuples in a GMR, one per unit of |multiplicity| (the harness
    convention)."""
    return sum(abs(m) for m in gmr.data.values())


class Recorder:
    """In-memory span and count sink of one process."""

    def __init__(self, proc: str = "load"):
        self.proc = proc
        self.spans: list[tuple] = []
        #: ``(name, time, n)`` count events (bytes on the wire); a list
        #: because ``append`` is atomic where ``d[k] += n`` is not
        self.counts: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def wrap(self, name, fn, *, n_of=None, batch_of=None):
        """A timing closure around ``fn``.

        ``n_of(args, kwargs, result)`` gives the span's count and
        ``batch_of(args, kwargs)`` its batch id (default: the enclosing
        span's).
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, batch = stack[-1] if stack else (0, None)
            if batch_of is not None:
                found = batch_of(args, kwargs)
                if found is not None:
                    batch = found
            sid = next(ids)
            stack.append((sid, batch))
            n = 0
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if n_of is not None:
                    n = n_of(args, kwargs, result)
                return result
            finally:
                end = _clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, n, batch))

        return traced

    def count(self, name: str, n: int) -> None:
        self.counts.append((name, _clock(), n))

    def payload(self) -> dict:
        """Everything recorded so far, as :class:`Analysis` reads it."""
        return {
            "proc": self.proc,
            "pid": os.getpid(),
            "spans": list(self.spans),
            "counts": list(self.counts),
        }

    def dump(self, path: str) -> None:
        """Write the payload (atomic rename, so a reader polling for
        the file never sees half of it)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.payload(), f)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _patch_function(rec: Recorder, module, attr: str, name: str, **kw):
    """Wrap a module-level function *everywhere it was imported to*:
    ``from repro.net.wire import decode_gmr`` copies the reference, so
    patching ``wire.decode_gmr`` alone would miss the server."""
    orig = getattr(module, attr)
    _rebind(attr, orig, rec.wrap(name, orig, **kw))


def _rebind(attr: str, orig, wrapped) -> None:
    """Point every ``repro`` module's ``attr`` that is ``orig`` at
    ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        if getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapped)


def _patch_method(rec: Recorder, cls, attr: str, name: str, **kw) -> None:
    if attr in cls.__dict__:  # wrap where defined; subclasses inherit
        setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], **kw))


def _trace_id(args, kwargs, pos: int):
    trace = kwargs.get("trace")
    if trace is None and len(args) > pos:
        trace = args[pos]
    return getattr(trace, "trace_id", None)


def _gmr_arg(pos: int, key: str):
    """An ``n_of`` counting the tuples of the GMR argument at ``pos``
    (or keyword ``key``)."""
    def n_of(args, kwargs, result=None) -> int:
        gmr = kwargs.get(key, args[pos] if len(args) > pos else None)
        return tuples_of(gmr) if gmr is not None else 0
    return n_of


#: ``n`` of ``f(self, relation, batch, ...)``: tuples in the batch
_batch_arg = _gmr_arg(2, "batch")


def _install_engine(rec: Recorder) -> None:
    """compiler + exec: every engine is born in ``create_backend``, so
    wrapping it times compilation and lets each instance's ``on_batch``
    / ``last_delta`` be wrapped under the name of the view it serves.

    An engine whose spec streams only shared-node changefeeds is one of
    the service's alias consumers: the trivial re-key program the DAG
    runs once per re-spelled view.  Its calls are recorded as
    ``service.fanout`` — work that exists because of the service's
    sharing design and scales with views, not tuples — and count rows,
    since a changefeed's multiplicities are aggregate values.
    """
    import repro.exec as rexec
    from repro.service.dag import NODE_PREFIX

    orig = rexec.create_backend

    def create_and_wrap(name, spec, **options):
        engine = orig(name, spec, **options)
        view = getattr(spec, "name", "?")
        streams = getattr(spec, "updatable", ())
        consumer = bool(streams) and all(
            r.startswith(NODE_PREFIX) for r in streams
        )
        try:
            engine.on_batch = rec.wrap(
                f"service.fanout:{view}" if consumer
                else f"exec.on_batch:{view}",
                engine.on_batch,
                n_of=(lambda a, k, r: len(a[1])) if consumer
                else _gmr_arg(1, "batch"),
            )
            engine.last_delta = rec.wrap(
                f"exec.last_delta:{view}", engine.last_delta,
                n_of=lambda a, k, r: len(r),
            )
        except AttributeError:
            pass  # an engine with __slots__ stays untimed, not broken
        return engine

    functools.update_wrapper(create_and_wrap, orig)
    _rebind(
        "create_backend", orig,
        rec.wrap("compiler.create_backend", create_and_wrap),
    )


def _install_service(rec: Recorder) -> None:
    from repro.service import ViewService

    _patch_method(rec, ViewService, "create_view", "compiler.create_view")
    _patch_method(
        rec, ViewService, "on_batch", "service.on_batch",
        n_of=_batch_arg, batch_of=lambda a, k: _trace_id(a, k, 3),
    )
    _patch_method(
        rec, ViewService, "snapshot", "service.snapshot",
        n_of=lambda a, k, r: len(r),
    )
    _patch_method(rec, ViewService, "drain", "service.drain")

    subscribe = ViewService.__dict__["subscribe"]

    @functools.wraps(subscribe)
    def subscribe_timed(self, name, callback, **kw):
        timed = rec.wrap(
            "service.callback", callback,
            n_of=lambda a, k, r: len(a[0].delta),
        )
        return subscribe(self, name, timed, **kw)

    ViewService.subscribe = subscribe_timed


def _install_durability(rec: Recorder) -> None:
    from repro.durability import DurableViewService
    from repro.durability.wal import WriteAheadLog

    _patch_method(
        rec, DurableViewService, "on_batch", "service.on_batch",
        n_of=_batch_arg, batch_of=lambda a, k: _trace_id(a, k, 3),
    )
    _patch_method(rec, DurableViewService, "create_view",
                  "compiler.create_view")
    _patch_method(rec, DurableViewService, "checkpoint",
                  "durability.checkpoint")
    _patch_method(rec, WriteAheadLog, "append_batch", "durability.append",
                  n_of=_gmr_arg(3, "batch"))
    _patch_method(rec, WriteAheadLog, "append_delta", "durability.append",
                  n_of=lambda a, k, r: len(k.get("delta", a[4:5] and a[4])))
    # The WAL calls os.fsync inline from its append; the os module is
    # the only boundary at which the sync can be told from the encode.
    os.fsync = rec.wrap("durability.sync", os.fsync)


def _install_net_server(rec: Recorder) -> None:
    import repro.net.server as server
    import repro.net.wire as wire
    from repro.obs import TRACE_HEADER

    def header_trace(args, kwargs):
        text = args[0].headers.get(TRACE_HEADER)
        return text.partition("/")[0] if text else None

    _patch_method(rec, server.JsonHttpHandler, "do_POST", "net.handler",
                  batch_of=header_trace)
    do_get = server.JsonHttpHandler.__dict__["do_GET"]
    timed_get = rec.wrap("net.handler", do_get)

    @functools.wraps(do_get)
    def get_unless_stream(self):
        # A delta stream holds its handler for the life of the
        # subscription, almost all of it blocked on an empty queue: a
        # span over it would count idle time as busy.  Its encodes are
        # recorded on their own.
        if self.path.split("?", 1)[0].endswith("/deltas"):
            return do_get(self)
        return timed_get(self)

    server.JsonHttpHandler.do_GET = get_unless_stream
    _patch_function(rec, wire, "decode_gmr", "net.decode",
                    n_of=lambda a, k, r: len(r))
    _patch_function(rec, wire, "encode_gmr", "net.encode_gmr",
                    n_of=lambda a, k, r: len(r))
    _patch_function(
        rec, wire, "encode_delta", "net.encode_delta",
        n_of=lambda a, k, r: len(r["delta"]),
        batch_of=lambda a, k: getattr(a[0].trace, "trace_id", None),
    )
    _patch_function(rec, wire, "dump_line", "net.dump_line",
                    n_of=lambda a, k, r: len(r))


def _install_http_bytes(rec: Recorder) -> None:
    """Bytes on the wire, counted at the stdlib HTTP client every
    ``repro.net.Client`` (load generator, router) goes through."""
    import http.client as hc

    request = hc.HTTPConnection.request

    @functools.wraps(request)
    def request_counted(self, method, url, body=None, headers={}, **kw):
        if body is not None:
            rec.count("net.bytes_in", len(body))
        return request(self, method, url, body=body, headers=headers, **kw)

    hc.HTTPConnection.request = request_counted
    read, readline = hc.HTTPResponse.read, hc.HTTPResponse.readline

    @functools.wraps(read)
    def read_counted(self, *args, **kw):
        data = read(self, *args, **kw)
        if data:
            rec.count("net.bytes_out", len(data))
        return data

    @functools.wraps(readline)
    def readline_counted(self, *args, **kw):
        data = readline(self, *args, **kw)
        # A chunked response (the NDJSON delta stream) reads its lines
        # through self.read(), which has counted them already.
        if data and not self.chunked:
            rec.count("net.bytes_out", len(data))
        return data

    hc.HTTPResponse.read = read_counted
    hc.HTTPResponse.readline = readline_counted


def _install_client(rec: Recorder, post_name: str, snap_name: str,
                    drain_name: str) -> None:
    from repro.net import Client

    _patch_method(
        rec, Client, "batch", post_name,
        n_of=_batch_arg, batch_of=lambda a, k: _trace_id(a, k, 3),
    )
    _patch_method(rec, Client, "snapshot", snap_name,
                  n_of=lambda a, k, r: len(r))
    _patch_method(rec, Client, "drain_info", drain_name)
    _install_http_bytes(rec)


def _install_cluster(rec: Recorder) -> None:
    from repro.cluster import ClusterRouter, ShardMap

    _patch_method(rec, ShardMap, "split", "cluster.split", n_of=_batch_arg)
    _patch_method(
        rec, ClusterRouter, "ingest", "cluster.ingest",
        n_of=_batch_arg, batch_of=lambda a, k: _trace_id(a, k, 3),
    )
    _patch_method(rec, ClusterRouter, "snapshot", "cluster.gather",
                  n_of=lambda a, k, r: len(r))
    _patch_method(rec, ClusterRouter, "drain", "cluster.barrier")


def install(rec: Recorder, role: str) -> None:
    """Install the wrappers one process needs.

    ``inproc``: the load generator hosts the service itself.
    ``client``: the load generator of a served workload.
    ``server``: a ``repro serve --port`` process.
    ``router``: a ``repro route`` process.
    """
    if role == "inproc":
        _install_engine(rec)
        _install_service(rec)
    elif role == "client":
        _install_client(rec, "net.post", "net.snapshot", "net.drain")
    elif role == "server":
        _install_engine(rec)
        _install_service(rec)
        _install_durability(rec)
        _install_net_server(rec)
    elif role == "router":
        _install_cluster(rec)
        _install_net_server(rec)
        _install_client(rec, "cluster.scatter", "cluster.gather_call",
                        "cluster.barrier_call")
    else:
        raise ValueError(f"unknown role {role!r}")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Analysis:
    """Self times and counts of the spans of every process of one run.

    Self time is a span's duration minus the part of it that its
    children cover (their union: the router's parallel scatter calls
    overlap).  A span with no parent on its own thread is adopted by
    the tightest span of the same batch that contains it, in any
    process — which is how a server's handler becomes the child of the
    generator's ``Client.batch`` call that caused it.
    """

    def __init__(self, dumps: list[dict]):
        self.spans: list[list] = []   # [key, parent_key, name, s, e, n, batch]
        self.counts: list[tuple] = []
        for index, dump in enumerate(dumps):
            for sid, parent, name, start, end, n, batch in dump["spans"]:
                self.spans.append([
                    (index, sid), (index, parent) if parent else None,
                    name, start, end, n, batch,
                ])
            self.counts.extend(tuple(c) for c in dump["counts"])
        self._adopt()
        self.children: dict = {}
        for span in self.spans:
            if span[1] is not None:
                self.children.setdefault(span[1], []).append(span)

    def _adopt(self) -> None:
        by_batch: dict = {}
        for span in self.spans:
            if span[6] is not None:
                by_batch.setdefault(span[6], []).append(span)
        slack = 1e-4  # clocks agree; this only forgives call overhead
        for group in by_batch.values():
            for span in group:
                if span[1] is not None:
                    continue
                length = span[4] - span[3]
                best = None
                for other in group:
                    # Strictly longer containers only: that excludes the
                    # span itself and everything beneath it.
                    if (
                        other[4] - other[3] > length
                        and other[3] - slack <= span[3]
                        and span[4] <= other[4] + slack
                        and (best is None
                             or other[4] - other[3] < best[4] - best[3])
                    ):
                        best = other
                if best is not None:
                    span[1] = best[0]

    def window_of(self, name: str) -> tuple[float, float]:
        """``[start, end]`` of the (single) span called ``name``."""
        for span in self.spans:
            if span[2] == name:
                return span[3], span[4]
        raise KeyError(f"no span named {name!r}")

    def _self_time(self, span, t0: float, t1: float) -> tuple[float, float]:
        """``(self, total)`` seconds of ``span`` inside ``[t0, t1]``."""
        s, e = max(span[3], t0), min(span[4], t1)
        if e <= s:
            return 0.0, 0.0
        kids = [
            (max(c[3], s), min(c[4], e))
            for c in self.children.get(span[0], ())
            if c[4] > s and c[3] < e
        ]
        return (e - s) - _covered(kids), e - s

    def totals(self, t0: float, t1: float) -> dict[str, dict]:
        """Per span name, inside ``[t0, t1]``: ``self_s`` (summed self
        time), ``busy_s`` (summed duration), ``calls`` and ``n``."""
        out: dict[str, dict] = {}
        for span in self.spans:
            if span[4] <= t0 or span[3] >= t1:
                continue
            own, total = self._self_time(span, t0, t1)
            row = out.setdefault(
                span[2], {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "n": 0}
            )
            row["self_s"] += own
            row["busy_s"] += total
            row["calls"] += 1
            row["n"] += span[5]
        return out

    def rooted_self(self, root_names) -> float:
        """Summed self time of the spans under (and including) the
        spans named in ``root_names``, each clipped to its root: how
        much of the generator's timed phases the trace explains, which
        falls short when a process's spans fail to join."""
        by_key = {span[0]: span for span in self.spans}
        roots: dict = {}

        def root_of(span):
            chain = []
            while span[0] not in roots and span[1] in by_key:
                chain.append(span)
                span = by_key[span[1]]
            root = roots.setdefault(span[0], span)
            for link in chain:
                roots[link[0]] = root
            return root

        total = 0.0
        for span in self.spans:
            root = root_of(span)
            if root[2] in root_names:
                total += self._self_time(span, root[3], root[4])[0]
        return total

    def count_total(self, name: str, t0: float, t1: float) -> int:
        return sum(n for c, t, n in self.counts if c == name and t0 <= t <= t1)


def sum_prefix(totals: dict[str, dict], prefix: str, field: str = "self_s"):
    """Sum ``field`` over span names equal to ``prefix`` or starting
    with ``prefix:`` (the per-view variants of one call)."""
    return sum(
        row[field] for name, row in totals.items()
        if name == prefix or name.startswith(prefix + ":")
    )


def layer_shares(totals: dict[str, dict], window_s: float) -> dict[str, float]:
    """Share of the window each layer's self time covers."""
    shares: dict[str, float] = {}
    for name, row in totals.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / window_s
    return shares
