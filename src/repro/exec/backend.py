"""The unified execution-backend interface and registry.

Every way of running a maintenance workload — the recursive IVM engine,
the storage-specialized engine, the classical-IVM and re-evaluation
baselines, the simulated cluster — implements the same three-method
surface:

* ``initialize(base)`` — populate materialized state from a loaded
  :class:`~repro.eval.Database` (static dimension tables, warm starts);
* ``on_batch(relation, batch)`` — process one update batch;
* ``snapshot()`` — the current contents of the top-level view.

Backends register themselves by name in a process-wide registry, so
engine selection is one lookup shared by the CLI (``--backend``), the
harness, the baselines, and the benchmarks; adding a backend touches no
caller.  See ARCHITECTURE.md for the how-to.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.eval import Database
from repro.ring import GMR


class BackendError(RuntimeError):
    """An execution backend failed irrecoverably.

    Raised by backends whose execution substrate can fail independently
    of the maintenance logic — e.g. the process-parallel backend when a
    worker process dies mid-batch or stops answering.  Backends may
    absorb such failures internally first: the multiproc backend
    restarts a dead worker and replays its partition from the
    supervisor's journal, and raises this error only once its restart
    budget is exhausted (or immediately with ``restart_budget=0``, or
    on an in-band worker error that a restart would deterministically
    hit again).  Once raised, the backend is poisoned — it refuses
    further use rather than serve partial state.  Callers that host
    backends (the view service, the harness) can catch this to fail one
    view without taking down the session.
    """


class ExecutionBackend(abc.ABC):
    """Common surface of every maintenance execution backend."""

    @abc.abstractmethod
    def initialize(self, base: Database) -> None:
        """Populate materialized state from a loaded database."""

    @abc.abstractmethod
    def on_batch(self, relation: str, batch: GMR):
        """Process one update batch for ``relation``.

        Backends may return a backend-specific measurement (the cluster
        returns its modeled latency); callers that only maintain views
        ignore the return value.

        **Changefeed-as-input contract.**  ``relation`` need not name a
        base table: the view service's shared-subplan DAG feeds views
        from *other views' changefeeds* by streaming one view's
        :meth:`last_delta` in as another's update batch (the batch is
        then a delta GMR — deletions appear as negative multiplicities,
        exactly like base-table deletes).  Backends must therefore
        treat relation names as opaque stream identifiers declared by
        their compiled spec, never as a fixed base-schema vocabulary,
        and must stay correct under mixed-sign batches.  Every
        registered backend already satisfies this; it is what makes
        views-maintaining-views composition work on any engine.
        """

    @abc.abstractmethod
    def snapshot(self) -> GMR:
        """Current contents of the top-level materialized view."""

    def last_delta(self) -> GMR:
        """Change in :meth:`snapshot` since the previous call.

        This is the changefeed hook behind the view service's push
        subscriptions: callers invoke it once after each ``on_batch``
        and receive the net effect of everything processed since the
        last invocation.  The first call returns the full current
        snapshot (the delta from the empty view), so a fresh changefeed
        always accumulates to ``snapshot()``.

        The default implementation diffs defensive copies of
        ``snapshot()`` — correct for every backend, at O(|view|) per
        call.  Backends that track their own top-level delta may
        override with a native changefeed.
        """
        current = GMR(dict(self.snapshot().data))
        prev = getattr(self, "_changefeed_prev", None)
        self._changefeed_prev = current
        if prev is None:
            return GMR(dict(current.data))
        return current - prev


class NativeChangefeed:
    """Mixin for engines that track their top-level delta natively.

    The recursive engines compute the top-level view's change inside
    their triggers anyway; this mixin accumulates it so
    :meth:`last_delta` costs O(|delta|) instead of the base class's
    snapshot diffing.  The engine calls :meth:`_feed_merge` when a
    trigger statement ``+=``s into the top view, and
    :meth:`_feed_replace` (with the view's *current* contents, before
    the write) when a statement ``:=``-re-evaluates it — the same
    convention covers warm ``initialize`` loads.
    """

    def _init_changefeed(self) -> None:
        self._delta_acc = GMR()

    def _feed_merge(self, value: GMR) -> None:
        self._delta_acc.add_inplace(value)

    def _feed_replace(self, value: GMR, current: GMR) -> None:
        self._delta_acc.add_inplace(value - current)

    def last_delta(self) -> GMR:
        """Native changefeed: the top-level delta the triggers already
        computed, returned in O(|delta|) — no snapshot diffing."""
        delta = self._delta_acc
        self._delta_acc = GMR()
        return delta


#: Factory: ``factory(spec, **options) -> ExecutionBackend``.  Factories
#: accept the shared option set (``counters``, ``cache_sim``,
#: ``use_compiled``) plus backend-specific keywords, and must tolerate
#: unused shared options.
BackendFactory = Callable[..., ExecutionBackend]


@dataclass(frozen=True)
class BackendInfo:
    name: str
    factory: BackendFactory
    description: str


_REGISTRY: dict[str, BackendInfo] = {}

#: prefix selecting the async ingestion wrapper: ``async:<backend>``
#: resolves for every registered backend (bounded ingest queue +
#: batcher thread in front of the inner backend's ``on_batch``)
ASYNC_PREFIX = "async:"


def reject_nested_async(name: str) -> None:
    """Raise ``ValueError`` for ``async:async:<b>`` (and deeper) names.

    The async wrapper already owns one bounded queue and one batcher
    thread per view; stacking a second wrapper would double both for no
    semantic gain (two FIFO queues compose to one) while hiding the
    extra thread from every drain/close path.  The rejection names the
    inner backend so the caller knows which single wrap they wanted.
    """
    if not name.startswith(ASYNC_PREFIX):
        return
    inner = name[len(ASYNC_PREFIX):]
    if inner.startswith(ASYNC_PREFIX):
        while inner.startswith(ASYNC_PREFIX):
            inner = inner[len(ASYNC_PREFIX):]
        raise ValueError(
            f"nested async wrapper {name!r}: {inner!r} is already "
            f"wrapped once by 'async:{inner}' (one bounded queue + "
            "batcher thread per view); double wrapping would stack a "
            f"second of each — use 'async:{inner}'"
        )


def register_backend(
    name: str, factory: BackendFactory, description: str = ""
) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _REGISTRY[name] = BackendInfo(name, factory, description)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a backend.

    True for explicitly registered names and for ``async:<inner>``
    wrapper names whose inner backend is registered.  Nested wrappers
    (``async:async:<b>``) are never valid — resolving one raises the
    explanatory ``ValueError`` of :func:`reject_nested_async`, so this
    predicate returns ``False`` for them.
    """
    if name in _REGISTRY:
        return True
    if name.startswith(ASYNC_PREFIX):
        inner = name[len(ASYNC_PREFIX):]
        return not inner.startswith(ASYNC_PREFIX) and inner in _REGISTRY
    return False


def backend_info(name: str) -> BackendInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    reject_nested_async(name)
    if name.startswith(ASYNC_PREFIX):
        inner = name[len(ASYNC_PREFIX):]
        if inner in _REGISTRY:
            # Synthesized on demand so async:<x> works for any
            # registered backend, including ones added at runtime.
            from repro.ingest import make_async_factory

            return BackendInfo(
                name,
                make_async_factory(inner),
                f"async ingestion (bounded queue + batcher thread) "
                f"over {inner!r}",
            )
    known = ", ".join(sorted(_REGISTRY)) or "<none>"
    raise KeyError(
        f"unknown backend {name!r}; registered backends: {known} "
        "(each also available wrapped as 'async:<backend>')"
    ) from None


def create_backend(
    name: str,
    spec,
    *,
    catalog: dict[str, tuple[str, ...]] | None = None,
    view_name: str | None = None,
    **options,
) -> ExecutionBackend:
    """Instantiate a backend for a view definition.

    ``spec`` may be a :class:`~repro.workloads.QuerySpec`, a bare query
    :class:`~repro.query.Expr`, or a SQL string (which requires
    ``catalog``, mapping table names to column tuples); everything is
    coerced through :func:`repro.workloads.as_query_spec`, so SQL views
    and pre-built workload specs share one creation path.  ``options``
    are forwarded to the factory (``counters=``, ``cache_sim=``,
    ``use_compiled=``, and backend-specific knobs like ``n_workers=``).
    """
    from repro.workloads.spec import as_query_spec

    spec = as_query_spec(spec, name=view_name, catalog=catalog)
    return backend_info(name).factory(spec, **options)
