"""The multi-view serving session.

A :class:`ViewService` is the system the paper describes from the
outside: SQL (or algebra) view definitions go in, and as base-relation
update batches stream through, every registered view stays fresh.  The
service owns

* one shared **catalog** (table name -> column names) against which SQL
  view definitions are parsed;
* one shared **base database** recording the accumulated contents of
  every streamed relation, so views created mid-stream initialize warm;
* any number of **views**, each an independently chosen
  :class:`~repro.exec.ExecutionBackend` maintaining one top-level
  query;
* per-view **subscriptions** that receive push-based
  :class:`ViewDelta` events computed from each backend's changefeed
  (:meth:`~repro.exec.ExecutionBackend.last_delta`).

Routing is dependency-driven: an incoming batch for relation ``R`` is
delivered once to every view whose spec streams ``R`` and skipped for
the rest, so N views over one stream cost only what their maintenance
actually requires.

Usage::

    svc = ViewService(catalog={"R": ("a", "b"), "S": ("b", "c")})
    svc.create_view("per_b", "SELECT R.b, COUNT(*) FROM R, S "
                             "WHERE R.b = S.b GROUP BY R.b")
    sub = svc.subscribe("per_b", print)
    svc.on_batch("R", GMR({(1, 10): 1}))
    svc.snapshot("per_b")
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.compiler import canonicalize, fingerprint, is_shareable, shareable_subtrees
from repro.eval import Database
from repro.exec import (
    ExecutionBackend,
    available_backends,
    create_backend,
    is_registered,
    reject_nested_async,
)
from repro.ingest import AsyncIngestBackend
from repro.obs import Counter, MetricsRegistry, TraceContext, Tracer
from repro.query.ast import Rel, Sum
from repro.query.schema import base_relations, out_cols, substitute
from repro.ring import GMR
from repro.service.dag import NODE_PREFIX, SharedNode, SubplanDAG
from repro.workloads.spec import QuerySpec, as_query_spec

__all__ = [
    "ServiceError",
    "Subscription",
    "ViewDelta",
    "ViewHandle",
    "ViewService",
]

#: backend used for shared nodes materialized from scratch (cheapest
#: native-changefeed engine); promoted nodes keep the engine the
#: promoted view already ran
_NODE_BACKEND = "rivm-batch"


class ServiceError(ValueError):
    """Raised for invalid service operations (duplicate or unknown view
    names, SQL definitions without a catalog, unknown backends)."""


@dataclass(frozen=True)
class ViewDelta:
    """One push notification: the net change of a view after a batch.

    ``relation`` names the base relation whose batch caused the change
    (``None`` for synthetic events: the initial snapshot of
    ``subscribe(..., initial=True)``, or a coalesced flush triggered by
    another subscriber joining); ``seq`` is the service-wide batch
    sequence number.  Accumulating ``delta`` over a subscription's
    lifetime reproduces ``snapshot(view)`` exactly.
    """

    view: str
    relation: str | None
    seq: int
    delta: GMR
    #: trace context of the publish span that produced this event, so
    #: downstream delivery (the network stream pump) joins the batch's
    #: trace; ``None`` when tracing is disabled
    trace: TraceContext | None = None


class Subscription:
    """A cancellable push-based change subscription on one view."""

    def __init__(self, view: str, callback: Callable[[ViewDelta], None]):
        self.view = view
        self.callback = callback
        self.active = True

    def cancel(self) -> None:
        """Stop delivery; the subscription is removed lazily."""
        self.active = False

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        return f"Subscription({self.view!r}, {state})"


@dataclass
class ViewHandle:
    """One registered view: its spec, backend, and delivery stats.

    The per-view stats live in registry :class:`~repro.obs.Counter`
    objects rather than plain ints: ``deltas_delivered`` is incremented
    from async batcher threads *without* the service lock, and a bare
    ``+= 1`` there loses increments under producer concurrency (the
    read-modify-write is not atomic).  The counters' own locks make the
    updates atomic, and the same objects are what ``/metrics`` exports.
    """

    name: str
    spec: QuerySpec
    backend_name: str
    backend: ExecutionBackend
    subscriptions: list[Subscription] = field(default_factory=list)
    #: counter behind :attr:`batches_applied` (service-installed
    #: registry child; standalone handles get a private one)
    batches_counter: Counter = field(default_factory=Counter, repr=False)
    #: counter behind :attr:`deltas_delivered`
    deltas_counter: Counter = field(default_factory=Counter, repr=False)
    #: the view's label scope in the service registry (closed on drop)
    metrics_scope: object = field(default=None, repr=False)
    #: shared per-view maintenance-latency histogram
    maintain_hist: object = field(default=None, repr=False)
    #: base relations routed directly into this view's backend; equals
    #: ``spec.updatable`` when the view is unshared
    route_rels: frozenset[str] = frozenset()
    #: internal shared nodes whose changefeeds feed this view
    consumes: tuple[str, ...] = ()
    #: the program the backend actually maintains — the spec factored
    #: against the service's subplan DAG (``spec`` itself when unshared)
    exec_spec: QuerySpec | None = field(default=None, repr=False)

    @property
    def batches_applied(self) -> int:
        """Batches routed to this view (relation matched
        ``spec.updatable``)."""
        return int(self.batches_counter.value)

    @property
    def deltas_delivered(self) -> int:
        """Non-empty deltas pushed to at least one subscriber."""
        return int(self.deltas_counter.value)

    @property
    def relations(self) -> frozenset[str]:
        """The relations this view streams (its routing key)."""
        return self.spec.updatable

    def __repr__(self) -> str:
        return (
            f"ViewHandle({self.name!r}, backend={self.backend_name!r}, "
            f"streams={sorted(self.relations)})"
        )


class ViewService:
    """A session hosting many maintained views over shared base streams.

    ``catalog`` seeds the table catalog for SQL view definitions (more
    tables can be added with :meth:`register_table`).  ``base`` seeds
    the shared base database — typically pre-loaded static dimension
    tables; the service copies it per view at creation, so load static
    tables *before* creating views.  ``track_base=False`` disables
    accumulating streamed batches into the shared base database (views
    created mid-stream then initialize cold); the harness uses it to
    keep measured windows free of bookkeeping.

    **Threading model.**  The session is safe for multiple producer
    threads: one re-entrant lock serializes ``on_batch``,
    ``create_view``/``drop_view``, ``subscribe`` and the catalog/base
    mutators, so the service-wide ``seq`` is assigned atomically with
    the routing it describes and every subscriber sees strictly
    increasing ``seq`` values — the invariant the network frontend
    (:mod:`repro.net`) relies on.  Async-backed views publish from
    their batcher thread *without* taking the service lock (their
    events carry the seq stamped at enqueue time), so a drain or close
    can never deadlock against a producer.
    """

    def __init__(
        self,
        catalog: dict[str, tuple[str, ...]] | None = None,
        base: Database | None = None,
        track_base: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        sharing: bool = True,
    ):
        self.catalog: dict[str, tuple[str, ...]] = {
            t: tuple(cols) for t, cols in (catalog or {}).items()
        }
        self.base = base if base is not None else Database()
        self.track_base = track_base
        self.sharing = sharing
        #: the shared-subplan DAG (``None`` with ``sharing=False`` — the
        #: differential baseline where every view runs its full program)
        self._dag: SubplanDAG | None = SubplanDAG() if sharing else None
        #: whole-query sharing key -> name of a live, sync, unshared
        #: view that can be *promoted* into a shared node on second use
        self._view_keys: dict[object, str] = {}
        #: sharing key -> (subtree spelling, updatable set) of every
        #: shareable subplan any view has mentioned; second mention
        #: materializes a fresh node from the shared base database
        self._subplan_keys: dict[object, tuple[object, frozenset[str]]] = {}
        self._views: dict[str, ViewHandle] = {}
        self._seq = 0
        # Re-entrant: a subscriber callback delivered under the lock may
        # legitimately call back into the service (create/drop/snapshot).
        self._lock = threading.RLock()
        #: unified metrics registry — per-service rather than global so
        #: in-process multi-shard deployments (and tests) stay isolated
        self.registry = registry if registry is not None else MetricsRegistry()
        #: span sink for the seq-correlated batch traces
        self.tracer = tracer if tracer is not None else Tracer()
        self._relation_counters: dict[str, Counter] = {}
        self.registry.gauge_fn(
            "repro_service_seq", lambda: self._seq,
            help="service-wide sequence number of the latest batch",
        )
        self.registry.gauge_fn(
            "repro_service_views", lambda: len(self._views),
            help="registered views",
        )
        self.registry.gauge_fn(
            "repro_service_shared_subviews",
            lambda: len(self._dag) if self._dag is not None else 0,
            help="internal shared sub-views materialized by the subplan DAG",
        )

    # ------------------------------------------------------------------
    # Catalog and base data
    # ------------------------------------------------------------------
    def register_table(self, name: str, columns) -> None:
        """Add (or redefine) a table in the SQL catalog."""
        with self._lock:
            self.catalog[name] = tuple(columns)

    def load(self, relation: str, rows) -> None:
        """Bulk-insert plain tuples into the shared base database.

        Rows loaded before a view is created are part of its warm
        initialization; rows loaded afterwards are routed to it only if
        delivered through :meth:`on_batch`, so treat ``load`` as static
        preloading.
        """
        with self._lock:
            self.base.insert_rows(relation, rows)

    # ------------------------------------------------------------------
    # View lifecycle
    # ------------------------------------------------------------------
    def create_view(
        self,
        name: str,
        source,
        backend: str = "rivm-batch",
        *,
        updatable: frozenset[str] | None = None,
        key_hints: dict[str, tuple[str, ...]] | None = None,
        **options,
    ) -> ViewHandle:
        """Register a view and start maintaining it.

        ``source`` is a SQL string (parsed against the service catalog),
        a query-algebra ``Expr``, or a pre-built ``QuerySpec`` — all
        three share one creation path (:func:`~repro.workloads.as_query_spec`).
        ``backend`` names any registered execution backend — including
        the ``async:<backend>`` ingestion wrappers, which give the view
        per-view admission control (``admission="block"|"shed"|"coalesce"``
        plus the batching-policy knobs, all via ``options``): a full
        queue then sheds or coalesces instead of stalling the shared
        stream, so one slow backend cannot hold every other view's
        freshness hostage.  ``options`` are forwarded to the factory
        (``counters=``, ``n_workers=``, ``use_compiled=``, ...).  The
        view initializes from the current shared base database, and its
        changefeed is baselined so subscription deltas describe only
        changes after creation.
        """
        # Nested wrappers fail here with the explanatory ValueError
        # (naming the inner backend) rather than the generic unknown-
        # backend ServiceError below.
        reject_nested_async(backend)
        with self._lock:
            if name in self._views:
                raise ServiceError(
                    f"view {name!r} already exists; drop_view() it first"
                )
            if name.startswith(NODE_PREFIX):
                raise ServiceError(
                    f"view names starting with {NODE_PREFIX!r} are "
                    "reserved for internal shared sub-views"
                )
            if not is_registered(backend):
                raise ServiceError(
                    f"unknown backend {backend!r}; registered backends: "
                    + ", ".join(available_backends())
                    + " (each also available as 'async:<backend>')"
                )
            try:
                spec = as_query_spec(
                    source,
                    name=name,
                    catalog=self.catalog or None,
                    updatable=updatable,
                    key_hints=key_hints,
                )
            except TypeError as exc:
                raise ServiceError(str(exc)) from exc
            if any(r.startswith(NODE_PREFIX) for r in base_relations(spec.query)):
                raise ServiceError(
                    f"relation names starting with {NODE_PREFIX!r} are "
                    "reserved for internal shared sub-views"
                )
            # Factor the program against the shared-subplan DAG: the
            # returned spec references internal node relations instead
            # of re-deriving subplans another view already maintains.
            exec_spec, consumes = (
                self._factor_spec(spec)
                if self._dag is not None
                else (spec, ())
            )
            try:
                engine = create_backend(backend, exec_spec, **options)
                init_db = self.base.copy()
                for node_name in consumes:
                    # Consumed nodes appear to the program as warm base
                    # relations holding the node's current contents.
                    node = self._dag.nodes[node_name]
                    init_db.apply_update(
                        node_name, GMR(dict(node.backend.snapshot().data))
                    )
                engine.initialize(init_db)
                # Baseline the changefeed: the warm-start contents are
                # delivered through subscribe(initial=True), not as the
                # first batch delta.
                engine.last_delta()
            except BaseException:
                # Release the consumer edges taken during factoring so
                # a failed creation never strands a fresh node.
                for node_name in consumes:
                    self._close_freed(self._dag.release(node_name))
                raise
            handle = ViewHandle(name, spec, backend, engine)
            handle.exec_spec = exec_spec
            handle.consumes = consumes
            handle.route_rels = frozenset(
                r for r in exec_spec.updatable if not r.startswith(NODE_PREFIX)
            )
            if self._dag is not None:
                self._index_keys(handle)
            self._register_view_metrics(handle)
            if isinstance(engine, AsyncIngestBackend):
                # Async views publish from the batcher thread, once per
                # flush (a coalesced flush is one event) — the stream
                # loop only enqueues.  Subscriber callbacks therefore
                # run on the view's batcher thread and must not issue
                # blocking reads of the same view.  The published seq is
                # the one stamped on each entry at enqueue time (the
                # highest actually merged into the flush) — reading the
                # service seq at flush time would misattribute coalesced
                # flushes to batches they do not include.  ``trace`` is
                # the flush span's context, parent of the publish span.
                engine.tracer = self.tracer
                engine.trace_view = name
                engine.on_flush = (
                    lambda relation, delta_source, seq, trace=None,
                            seqs=None, h=handle:
                        self._publish(h, relation, seq, delta_source,
                                      parent=trace, seqs=seqs)
                )
            self._views[name] = handle
            return handle

    # ------------------------------------------------------------------
    # Cross-view sharing (the shared-subplan DAG)
    # ------------------------------------------------------------------
    def _share_key(self, expr, updatable: frozenset[str]):
        """The sharing key of a shareable (sub)expression, or ``None``.

        The key pairs the canonical form with the set of relations the
        expression actually streams: two views whose identical subplan
        disagrees on which inputs are updatable must not share one
        maintenance program.
        """
        if not is_shareable(expr):
            return None
        streamed = frozenset(updatable) & base_relations(expr)
        if not streamed:
            return None  # fully static: would never receive a batch
        canon, _ = canonicalize(expr)
        return (canon, streamed)

    def _can_materialize(self) -> bool:
        # A fresh node initializes from the shared base database; with
        # base tracking off that database is stale after the first
        # batch, so mid-stream materialization would start wrong.
        return self.track_base or self._seq == 0

    def _node_ref(self, node: SharedNode, expr) -> Rel | None:
        """A ``Rel`` reference to ``node`` spelled in ``expr``'s own
        column names: position ``j`` names the consumer's column for the
        node's ``j``-th physical output column, translated through the
        two canonical mappings.  ``None`` when they do not line up (a
        defensive guard; equal canonical forms always align)."""
        _, mapping = canonicalize(expr)
        inverse = {c: o for o, c in mapping.items()}
        cols = []
        for rep_col in node.rep_cols:
            local = inverse.get(node.mapping.get(rep_col))
            if local is None:
                return None
            cols.append(local)
        return Rel(node.name, tuple(cols))

    def _alias_spec(self, view_name: str, expr, node: SharedNode):
        """The whole-query consumer program: a multiplicity-preserving
        re-key of the node's changefeed into the view's column names and
        output order — identical results at O(|delta|) per batch."""
        ref = self._node_ref(node, expr)
        if ref is None:
            return None
        return QuerySpec(
            name=view_name,
            query=Sum(out_cols(expr), ref),
            updatable=frozenset({node.name}),
        )

    def _materialize(self, key, expr, streamed: frozenset[str]) -> SharedNode:
        """Maintain subplan ``expr`` once, as a fresh internal node.

        The node's physical tuple order must be ``out_cols(expr)`` —
        that is what consumers' alias programs assume when they read
        the changefeed positionally.  A compiled engine only guarantees
        that for a ``Sum`` top (tuple order = ``group_by``); any other
        top is wrapped in the identity re-key ``Sum(out_cols(expr))``,
        which preserves multiplicities and pins the order.
        """
        name = self._dag.next_name()
        query = expr if isinstance(expr, Sum) else Sum(out_cols(expr), expr)
        node_spec = QuerySpec(
            name=name, query=query, updatable=frozenset(streamed)
        )
        engine = create_backend(_NODE_BACKEND, node_spec)
        engine.initialize(self.base.copy())
        engine.last_delta()
        _, mapping = canonicalize(expr)
        return self._dag.add(SharedNode(
            name=name,
            spec=node_spec,
            backend=engine,
            backend_name=_NODE_BACKEND,
            key=key,
            mapping=mapping,
            rep_cols=out_cols(expr),
            direct_rels=frozenset(streamed),
            fingerprint=fingerprint(expr),
        ))

    def _promote(self, handle: ViewHandle, key) -> SharedNode | None:
        """Turn a live, unshared, synchronous view into a shared node.

        The view's engine — whose state is already exact — becomes the
        internal node, and the view itself is rebuilt as the node's
        first changefeed consumer.  Not every view is promotable:
        async admission policy is per-view and a node must be
        synchronous under the service lock, and any backend that owns
        external resources (a ``close`` method: batcher threads,
        worker processes) must stay attached to its user view, whose
        creator may hold ``view(name).backend`` for lifecycle
        management.  Callers then fall back to materializing a fresh
        node.
        """
        if handle.consumes or hasattr(handle.backend, "close"):
            return None
        expr = handle.spec.query
        if not isinstance(expr, Sum):
            # Only a Sum top guarantees the engine's physical tuple
            # order is out_cols(expr), which consumers assume; other
            # tops fall back to a fresh (re-key-wrapped) node.
            return None
        # Flush changefeed owed to current subscribers, then baseline:
        # from here on this engine's changefeed feeds the DAG.
        self._publish(handle, None, self._seq)
        handle.backend.last_delta()
        name = self._dag.next_name()
        _, mapping = canonicalize(expr)
        node = self._dag.add(SharedNode(
            name=name,
            spec=QuerySpec(name=name, query=expr, updatable=frozenset(key[1])),
            backend=handle.backend,
            backend_name=handle.backend_name,
            key=key,
            mapping=mapping,
            rep_cols=out_cols(expr),
            direct_rels=frozenset(key[1]),
            fingerprint=fingerprint(expr),
        ))
        alias_spec = self._alias_spec(handle.name, expr, node)
        alias = create_backend(_NODE_BACKEND, alias_spec)
        init_db = Database()
        init_db.apply_update(name, GMR(dict(node.backend.snapshot().data)))
        alias.initialize(init_db)
        alias.last_delta()
        handle.backend = alias
        handle.exec_spec = alias_spec
        handle.route_rels = frozenset()
        handle.consumes = (name,)
        node.refcount += 1
        self._view_keys.pop(key, None)
        return node

    def _factor_spec(self, spec: QuerySpec) -> tuple[QuerySpec, tuple[str, ...]]:
        """Factor a new view's program against the DAG.

        Returns ``(exec_spec, consumed_node_names)`` with the consumer
        edges' refcounts already taken.  Falls back to ``(spec, ())`` —
        the full unshared program — whenever sharing is not clearly
        sound: no match, mappings that do not line up, or inputs whose
        upstream base relations overlap (each batch must reach a view
        through exactly one input, or per-view seq monotonicity and
        delta accounting would break).
        """
        from repro.query.ast import children as ast_children

        expr = spec.query
        # Whole-query match first — the strongest form: the view becomes
        # a pure changefeed consumer of one node.
        key = self._share_key(expr, spec.updatable)
        if key is not None:
            node = self._dag.by_key.get(key)
            if node is None:
                owner = self._view_keys.get(key)
                if owner is not None and owner in self._views:
                    node = self._promote(self._views[owner], key)
                if (
                    node is None
                    and key in self._subplan_keys
                    and self._can_materialize()
                ):
                    node = self._materialize(key, expr, key[1])
            if node is not None:
                alias_spec = self._alias_spec(spec.name, expr, node)
                if alias_spec is not None:
                    node.refcount += 1
                    return alias_spec, (node.name,)
        # Subtree factoring: replace shareable subplans some view has
        # already spelled with references to their nodes.  Selection
        # runs before any node is materialized, so bailing out is free.
        chosen: list[tuple[object, object, SharedNode | None]] = []
        claimed: set[str] = set()
        taken_keys: set = set()

        def _occurs_in(needle, hay) -> bool:
            if hay == needle:
                return True
            return any(_occurs_in(needle, c) for c in ast_children(hay))

        def consider(sub) -> bool:
            k = self._share_key(sub, spec.updatable)
            if k is None or k in taken_keys:
                return False
            node = self._dag.by_key.get(k)
            if node is None and (
                k not in self._subplan_keys or not self._can_materialize()
            ):
                return False
            if k[1] & claimed:
                return False  # would double-deliver a base relation
            # substitute() replaces by structural equality: a candidate
            # nested inside (or containing) an earlier pick would break
            # the earlier replacement when rebuilt.
            for _, prev_sub, _ in chosen:
                if _occurs_in(sub, prev_sub) or _occurs_in(prev_sub, sub):
                    return False
            chosen.append((k, sub, node))
            claimed.update(k[1])
            taken_keys.add(k)
            return True

        def walk(node_expr) -> None:
            for c in ast_children(node_expr):
                if consider(c):
                    continue
                walk(c)

        walk(expr)
        if not chosen:
            return spec, ()
        fresh: list[SharedNode] = []

        def bail() -> tuple[QuerySpec, tuple[str, ...]]:
            # Fresh nodes carry no consumer edges yet: discard directly.
            for node in fresh:
                self._dag.nodes.pop(node.name, None)
                self._dag.by_key.pop(node.key, None)
            return spec, ()

        replacements: dict = {}
        consumed: list[SharedNode] = []
        for k, sub, node in chosen:
            if node is None:
                node = self._materialize(k, sub, k[1])
                fresh.append(node)
            ref = self._node_ref(node, sub)
            if ref is None:
                continue
            replacements[sub] = ref
            consumed.append(node)
        if not replacements:
            return bail()
        for node in fresh:
            if node not in consumed:
                # Materialized but its reference failed to line up:
                # discard rather than strand an unconsumed node.
                self._dag.nodes.pop(node.name, None)
                self._dag.by_key.pop(node.key, None)
        factored = substitute(expr, replacements)
        direct = spec.updatable & frozenset(
            r for r in base_relations(factored)
            if not r.startswith(NODE_PREFIX)
        )
        upstream: set[str] = set()
        for node in consumed:
            upstream |= node.direct_rels
        if direct & upstream:
            return bail()
        if out_cols(factored) != out_cols(expr):
            if set(out_cols(factored)) != set(out_cols(expr)):
                return bail()
            # Restore the original output order with an identity re-key.
            factored = Sum(out_cols(expr), factored)
        for node in consumed:
            node.refcount += 1
        names = tuple(node.name for node in consumed)
        exec_spec = QuerySpec(
            name=spec.name,
            query=factored,
            updatable=frozenset(direct) | frozenset(names),
            key_hints={
                r: h for r, h in spec.key_hints.items() if r in direct
            },
            notes=spec.notes,
        )
        return exec_spec, names

    def _index_keys(self, handle: ViewHandle) -> None:
        """Record the spellings this view contributes to future sharing:
        every shareable subtree (first spelling wins), and — for fully
        unshared synchronous views — the whole query as a promotion
        candidate."""
        spec = handle.spec
        for sub in shareable_subtrees(spec.query):
            k = self._share_key(sub, spec.updatable)
            if k is not None and k not in self._subplan_keys:
                self._subplan_keys[k] = (sub, k[1])
        if not handle.consumes and not isinstance(
            handle.backend, AsyncIngestBackend
        ):
            k = self._share_key(spec.query, spec.updatable)
            if (
                k is not None
                and k not in self._view_keys
                and k not in self._dag.by_key
            ):
                self._view_keys[k] = handle.name

    @staticmethod
    def _close_freed(
        node: SharedNode | None,
        errors: list[tuple[str, BaseException]] | None = None,
    ) -> None:
        """Close the backend of a node freed by its last consumer."""
        if node is None:
            return
        close = getattr(node.backend, "close", None)
        if not callable(close):
            return
        try:
            close()
        except Exception as exc:
            if errors is not None:
                errors.append((node.name, exc))

    def dag_dump(self) -> dict:
        """A JSON-friendly picture of the shared-subplan DAG: internal
        nodes with their consumers, plus each view's inputs (direct
        base relations and consumed nodes)."""
        with self._lock:
            consumers: dict[str, list[str]] = {}
            views: dict[str, dict] = {}
            for handle in self._views.values():
                for node_name in handle.consumes:
                    consumers.setdefault(node_name, []).append(handle.name)
                views[handle.name] = {
                    "streams": sorted(handle.relations),
                    "direct": sorted(handle.route_rels),
                    "consumes": list(handle.consumes),
                    "backend": handle.backend_name,
                    "shared": bool(handle.consumes),
                }
            return {
                "sharing": self._dag is not None,
                "nodes": self._dag.dump(consumers) if self._dag else [],
                "views": views,
                "maintenance_programs": self.maintenance_programs(),
            }

    def maintenance_programs(self) -> int:
        """Full maintenance programs the service runs: internal shared
        nodes plus views still streaming base relations directly (pure
        changefeed consumers run only a trivial re-key program)."""
        with self._lock:
            full = sum(1 for h in self._views.values() if h.route_rels)
            return full + (len(self._dag) if self._dag is not None else 0)

    def _register_view_metrics(self, handle: ViewHandle) -> None:
        """Create the view's label scope and re-home its stats counters
        and the backend's island metrics into the service registry."""
        scope = self.registry.scope(view=handle.name)
        handle.metrics_scope = scope
        handle.batches_counter = scope.counter(
            "repro_view_batches_total",
            help="batches routed to this view",
        )
        handle.deltas_counter = scope.counter(
            "repro_view_deltas_total",
            help="non-empty deltas pushed to subscribers",
        )
        handle.maintain_hist = scope.histogram(
            "repro_view_maintain_seconds",
            help="inner-backend maintenance wall time per applied batch",
        )
        scope.gauge_fn(
            "repro_view_subscribers",
            lambda h=handle: sum(1 for s in h.subscriptions if s.active),
            help="active subscriptions",
        )
        scope.gauge_fn(
            "repro_view_fan_in",
            lambda h=handle: len(h.route_rels) + len(h.consumes),
            help="inputs feeding this view (direct base relations "
                 "plus consumed shared sub-views)",
        )
        engine = handle.backend
        if isinstance(engine, AsyncIngestBackend):
            scope.gauge_fn(
                "repro_ingest_queue_depth",
                lambda e=engine: len(e.queue),
                help="entries waiting in the ingest queue",
            )
            engine.metrics.bind(scope, maintain_hist=handle.maintain_hist)
            inner_counters = getattr(engine.inner, "counters", None)
        else:
            inner_counters = getattr(engine, "counters", None)
            # e.g. the multiproc backend's ParallelMetrics
            island = getattr(engine, "metrics", None)
            if island is not None and hasattr(island, "bind"):
                island.bind(scope)
        if inner_counters is not None and hasattr(inner_counters, "bind"):
            inner_counters.bind(scope)

    def drop_view(self, name: str) -> None:
        """Unregister a view.

        The view leaves the routing table first (no new batch can reach
        it), then an async-wrapped backend is *closed with a drain* —
        updates already admitted to its queue still flush and their
        :class:`ViewDelta` events still reach subscribers — and only
        then are the subscriptions cancelled.  Cancelling before the
        drain would flush the queued updates into the inner backend but
        silently never deliver their deltas.

        Teardown is exception-safe: even when the backend's ``close``
        raises, the subscriptions are cancelled, the metrics scope is
        removed, and the view's consumer edges on shared nodes are
        released (a node freed by its last consumer is torn down with
        it — dropping one consumer never kills a node others use).
        The first error is re-raised after cleanup completes.
        """
        with self._lock:
            handle = self._handle(name)
            del self._views[name]
            if self._view_keys:
                # Drop promotion candidates pointing at this view.
                self._view_keys = {
                    k: v for k, v in self._view_keys.items() if v != name
                }
        errors: list[tuple[str, BaseException]] = []
        try:
            # Close outside the service lock: the drain joins the
            # batcher thread, whose flush hook publishes to the (still
            # active) subscribers and must not wait on this caller.
            if isinstance(handle.backend, AsyncIngestBackend):
                handle.backend.close()
        except Exception as exc:
            errors.append((name, exc))
        for sub in handle.subscriptions:
            sub.cancel()
        if handle.metrics_scope is not None:
            # Remove the view's label series so create/drop churn does
            # not grow the registry without bound.
            handle.metrics_scope.close()
        if handle.consumes and self._dag is not None:
            freed: list[SharedNode] = []
            with self._lock:
                for node_name in handle.consumes:
                    node = self._dag.release(node_name)
                    if node is not None:
                        freed.append(node)
            for node in freed:
                self._close_freed(node, errors)
        if errors:
            raise errors[0][1]

    def views(self) -> tuple[str, ...]:
        """Names of the registered views, sorted."""
        with self._lock:
            return tuple(sorted(self._views))

    def view(self, name: str) -> ViewHandle:
        """The handle of a registered view."""
        with self._lock:
            return self._handle(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._views

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """The service-wide sequence number of the latest batch (0
        before any batch); every :class:`ViewDelta` carries the seq of
        the batch (or, for coalesced async flushes, the highest-seq
        batch) it describes."""
        with self._lock:
            return self._seq

    def on_batch(
        self,
        relation: str,
        batch: GMR,
        trace: TraceContext | None = None,
    ) -> tuple[str, ...]:
        """Route one update batch to every dependent view.

        The batch reaches each view whose spec streams ``relation``
        (others are skipped), subscribers of touched views receive the
        per-view :class:`ViewDelta`, and — unless ``track_base`` is off —
        the shared base database absorbs the batch so later
        ``create_view`` calls initialize warm.  Returns the names of the
        views that received the batch.

        Safe to call from several producer threads: the whole routing
        pass runs under the service lock, so ``seq`` assignment, view
        maintenance, and delta delivery stay atomic per batch and every
        subscriber observes strictly increasing ``seq``.  Note the
        flip side: a *blocking* admission on a full async queue (or a
        slow synchronous backend) holds the lock and stalls other
        producers for its duration — give contended async views
        ``shed``/``coalesce`` admission if that matters.

        If a view's backend raises, the batch is still routed to every
        other dependent view and the base update still applies —
        routing is not left half-done — and the first error is then
        re-raised (its type preserved, e.g. the transient
        :class:`~repro.ingest.IngestOverflow`).  The failed view has
        permanently missed this batch, and views that accepted it keep
        it: re-sending the same batch would double-apply it to them.

        ``trace`` joins an existing trace (the network frontend passes
        the parsed ``X-Repro-Trace`` context); ``None`` starts a fresh
        one.  Exactly one ``admission`` span is emitted per seq.
        """
        with self._lock:
            self._seq += 1
            seq = self._seq
            admission = self.tracer.span(
                "admission", trace, relation=relation, seq=seq,
            )
            ctr = self._relation_counters.get(relation)
            if ctr is None:
                ctr = self.registry.counter(
                    "repro_service_batches_total",
                    help="batches ingested, by base relation",
                    labels={"relation": relation},
                )
                self._relation_counters[relation] = ctr
            ctr.inc()
            touched: list[str] = []
            failures: list[tuple[str, BaseException]] = []
            # Topological stage 1: advance the shared sub-views this
            # relation streams into, collecting each node's changefeed
            # delta for its consumers below.  Nodes are synchronous and
            # run under the service lock, so the deltas are exact for
            # this seq.
            derived: dict[str, GMR] = {}
            if self._dag is not None and self._dag.nodes:
                with self.tracer.span(
                    "factor", admission.ctx, relation=relation, seq=seq,
                ):
                    for node in list(self._dag.nodes.values()):
                        if relation not in node.direct_rels:
                            continue
                        try:
                            node.backend.on_batch(relation, batch)
                        except Exception as exc:
                            # Consumers of this node permanently miss
                            # the batch, like a failing view does.
                            failures.append((node.name, exc))
                            continue
                        node.batches += 1
                        delta = node.backend.last_delta()
                        if not delta.is_zero():
                            derived[node.name] = delta
            # Topological stage 2: user views — fed either the base
            # batch directly or the delta of a node they consume (at
            # most one input per batch: factoring enforces disjoint
            # upstream base relations).  Snapshot the view list: a
            # subscriber callback may create or drop views mid-batch.
            for handle in list(self._views.values()):
                if relation in handle.route_rels:
                    rel_in, delta_in = relation, batch
                else:
                    rel_in = None
                    for node_name in handle.consumes:
                        if node_name in derived:
                            rel_in, delta_in = node_name, derived[node_name]
                            break
                    if rel_in is None:
                        continue
                try:
                    if isinstance(handle.backend, AsyncIngestBackend):
                        # Enqueue only, stamping the seq on the entry;
                        # the batcher publishes from its own thread
                        # after each flush (the on_flush hook installed
                        # at creation) with the highest seq actually
                        # merged — publishing here would drain and
                        # re-couple the stream to the slowest backend.
                        handle.backend.on_batch(
                            rel_in, delta_in, seq=seq, trace=admission.ctx
                        )
                    else:
                        with self.tracer.span(
                            "maintain", admission.ctx,
                            relation=rel_in, seq=seq, view=handle.name,
                        ):
                            start = time.perf_counter()
                            handle.backend.on_batch(rel_in, delta_in)
                            handle.maintain_hist.observe(
                                time.perf_counter() - start
                            )
                        self._publish(handle, rel_in, seq,
                                      parent=admission.ctx)
                except Exception as exc:
                    # Keep routing: one view's overflow/failure must not
                    # leave the batch half-delivered to the others.
                    failures.append((handle.name, exc))
                    continue
                handle.batches_counter.inc()
                touched.append(handle.name)
            if self.track_base:
                self.base.apply_update(relation, batch)
            admission.set(touched=len(touched))
            admission.finish()
            if failures:
                raise failures[0][1]
            return tuple(touched)

    def ingest(
        self,
        relation: str,
        batch: GMR,
        trace: TraceContext | None = None,
    ) -> tuple[int, tuple[str, ...]]:
        """:meth:`on_batch` plus the seq it assigned, read atomically.

        The network frontend echoes the seq to the producing client so
        it can correlate its batch with subscription deltas; reading
        ``service.seq`` after ``on_batch`` returns would race other
        producers and report someone else's batch.
        """
        with self._lock:
            touched = self.on_batch(relation, batch, trace=trace)
            return self._seq, touched

    def drain(self, name: str | None = None, timeout: float | None = None):
        """Barrier for async-ingesting views: block until everything
        admitted to their queues is flushed (and its deltas pushed).

        ``name`` drains one view, ``None`` all of them; synchronous
        views are already current and are skipped.  A wedged batcher
        raises :class:`~repro.exec.BackendError` after its drain
        timeout instead of hanging the caller.
        """
        with self._lock:
            handles = (
                [self._handle(name)] if name is not None
                else list(self._views.values())
            )
        # Wait outside the service lock: the batcher's flush hook
        # publishes without it, so producers stay unblocked while the
        # barrier waits.
        for handle in handles:
            if isinstance(handle.backend, AsyncIngestBackend):
                handle.backend.drain(timeout)
            # Flush changefeed coalesced during a no-subscriber window
            # (publishes skip delta computation with nobody listening):
            # a subscriber that joined after the window must receive the
            # catch-up *before* any post-drain mark, or accumulation
            # would diverge from the snapshot the barrier promises.
            self._publish(handle, None, self._seq)

    def _publish(
        self,
        handle: ViewHandle,
        relation: str | None,
        seq: int | None = None,
        delta_source: Callable[[], GMR] | None = None,
        parent: TraceContext | None = None,
        seqs: list[int] | None = None,
    ) -> None:
        """Compute, log and fan out one changefeed event.

        When no subscription is active and the service keeps no delta
        log, the (O(|view|)) delta is not computed; the backend's
        changefeed accumulates, so a later subscriber's first event
        covers everything since the last delivery and accumulation
        stays exact.  A computed, non-empty delta goes through
        :meth:`_log_delta` *before* any subscriber sees it.
        ``delta_source`` overrides where the delta is read from (the
        async flush hook passes the inner changefeed; the default is
        the backend's own ``last_delta``).  ``seq`` stamps the event:
        producers pass the seq they assigned under the lock, the async
        flush hook passes the highest seq merged into the flush;
        ``None`` (unstamped entries from callers outside the service)
        falls back to the current service seq.  ``seqs`` is the flush
        hook's full seq-coverage list (every batch merged into a
        coalesced event) — recorded on the publish span and passed to
        the delta log.

        Deliberately takes **no** service lock: it runs both on
        producer threads (already holding the lock) and on async
        batcher threads (which must never need it, or ``drop_view``'s
        close-with-drain could deadlock against a blocked producer).
        """
        live = [s for s in handle.subscriptions if s.active]
        if len(live) != len(handle.subscriptions):
            # Prune cancelled subscriptions one by one instead of
            # replacing the list: this runs on the batcher thread for
            # async views, and a wholesale `[:] = live` would silently
            # drop a subscription the producer thread appends
            # concurrently.
            for sub in [s for s in handle.subscriptions if not s.active]:
                try:
                    handle.subscriptions.remove(sub)
                except ValueError:
                    pass
        if not live and not self._keeps_delta_log:
            return
        delta = (
            delta_source() if delta_source is not None
            else handle.backend.last_delta()
        )
        if delta.is_zero():
            return
        seq_val = self._seq if seq is None else seq
        self._log_delta(handle, relation, seq_val, delta, seqs)
        if not live:
            return
        # The publish span parents the downstream deliver spans (the
        # network pump reads the context off the event).
        span = self.tracer.span(
            "publish", parent,
            view=handle.name, relation=relation, seq=seq_val,
            subscribers=len(live),
            **({"seqs": list(seqs)} if seqs else {}),
        )
        event = ViewDelta(
            handle.name, relation, seq_val, delta, trace=span.ctx
        )
        # Counter, not `+= 1`: this path runs on batcher threads without
        # the service lock, racing producer-thread publishes.
        handle.deltas_counter.inc()
        for sub in live:
            if sub.active:
                sub.callback(event)
        span.finish()

    #: whether :meth:`_log_delta` records deltas: if it does, every
    #: seq's delta is computed even while nobody is subscribed
    _keeps_delta_log = False

    def _log_delta(
        self,
        handle: ViewHandle,
        relation: str | None,
        seq: int,
        delta: GMR,
        seqs: list[int] | None,
    ) -> None:
        """Record one computed delta before it is delivered; a no-op
        here (the durable subclass appends it to its write-ahead log)."""

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def snapshot(self, name: str, consistent: bool = True) -> GMR:
        """Pull the current contents of a view (a defensive copy).

        ``consistent=False`` skips the drain barrier for async-backed
        views and serves the last *flushed* state instead — a
        bounded-staleness read that never waits on the batcher (the
        snapshot-isolation mode replica readers and the cluster
        router's round-robin reads use).  Synchronous views are always
        current, so the flag is a no-op for them.
        """
        with self._lock:
            backend = self._handle(name).backend
            if not isinstance(backend, AsyncIngestBackend):
                # Sync engines mutate their state inside on_batch, which
                # runs under this lock — read under it too.
                return GMR(dict(backend.snapshot().data))
        if not consistent:
            # No barrier: the wrapper's inner_lock alone serializes the
            # read against an in-progress flush.
            return backend.peek_snapshot()
        # Async reads drain first (waiting on the batcher): do that
        # outside the service lock so producers are not stalled behind
        # the barrier; the wrapper's inner_lock serializes the read.
        return GMR(dict(backend.snapshot().data))

    def subscribe(
        self,
        name: str,
        callback: Callable[[ViewDelta], None],
        *,
        initial: bool = False,
    ) -> Subscription:
        """Receive a :class:`ViewDelta` after every batch that changes
        the view.

        With ``initial=True`` the callback is first invoked with a
        synthetic event carrying the current snapshot (``relation=None``),
        so accumulation equals ``snapshot(name)`` even when the view was
        warm at subscribe time.

        Call this from the producer thread (the one driving
        ``on_batch``).  For async-backed views that discipline is what
        makes ``initial=True`` exact: the internal drain empties the
        view's queue and no new batch can arrive before the snapshot
        event is delivered, so nothing is both pushed and included in
        the snapshot.  Subscribing from a second thread while another
        streams has no such guarantee.
        """
        if initial:
            with self._lock:
                backend = self._handle(name).backend
            if isinstance(backend, AsyncIngestBackend):
                # Work the backlog down *outside* the service lock so a
                # long drain does not stall every producer on every
                # view; the last_delta() below re-drains under the lock
                # but only covers the short gap since this barrier.
                backend.drain()
        with self._lock:
            handle = self._handle(name)
            if initial:
                # Flush coalesced changes owed to existing subscribers,
                # then re-baseline the changefeed: the snapshot event
                # below covers everything up to now, so the next
                # per-batch delta must not include it again.
                self._publish(handle, None, self._seq)
                handle.backend.last_delta()
            sub = Subscription(handle.name, callback)
            handle.subscriptions.append(sub)
            if initial:
                snap = self.snapshot(name)
                if not snap.is_zero():
                    callback(ViewDelta(handle.name, None, self._seq, snap))
            return sub

    # ------------------------------------------------------------------
    def _handle(self, name: str) -> ViewHandle:
        try:
            return self._views[name]
        except KeyError:
            known = ", ".join(sorted(self._views)) or "<none>"
            raise ServiceError(
                f"unknown view {name!r}; registered views: {known}"
            ) from None

    def __repr__(self) -> str:
        views = {
            h.name: h.backend_name for h in self._views.values()
        }
        return f"ViewService(views={views}, seq={self._seq})"
