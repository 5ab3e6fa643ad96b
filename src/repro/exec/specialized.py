"""Storage-specialized execution (paper Section 5).

:class:`SpecializedIVMEngine` runs a compiled program against
:class:`~repro.storage.RecordPool` views with automatically selected
indexes.  Relational terms lower to the three concrete operations of
§5.1 — ``foreach`` (scan), ``get`` (unique-index lookup), ``slice``
(non-unique-index scan) — and every record touch can feed a cache
simulator, which is how Table 2 is reproduced.

Statements execute through the same compile-once closure pipelines as
the recursive engine (pools expose the GMR read surface, so lowered
pipelines run against them unchanged); ``use_compiled=False`` selects
the interpreted reference evaluator.
"""

from __future__ import annotations

from repro.compiler.ir import TriggerProgram
from repro.compiler.plancache import compile_program
from repro.eval import CompiledEvaluator, Database, Evaluator
from repro.exec.backend import ExecutionBackend, NativeChangefeed
from repro.metrics import CacheSimulator, Counters
from repro.ring import GMR
from repro.storage import RecordPool, build_storage


class _PoolDatabase(Database):
    """A Database whose views are record pools.

    Pools satisfy the GMR read surface, so the evaluator and the
    statement interpreter work unchanged; writes go through
    ``add_inplace`` / ``replace_contents`` which maintain the pools'
    indexes (and emit the cache trace).  Compiled slices probe those
    same pool indexes, so the trace touches only the records in the
    probed bucket.
    """

    def __init__(self, pools: dict[str, RecordPool]):
        super().__init__()
        self.views.update(pools)

    def slice_index(self, name, positions, counters=None):
        """Answer from the pool's own slice index on ``positions``;
        ``None`` (the caller builds a per-statement index) when the
        pool has none — e.g. under ``enable_indexes=False``."""
        pool = self.views.get(name)
        if not isinstance(pool, RecordPool):
            return None
        cols = tuple(pool.cols[i] for i in positions)
        index_id = pool.slice_index_for(frozenset(cols))
        if index_id is None or pool.slice_index_columns[index_id] != cols:
            return None
        slice_ = pool.slice
        if len(positions) == 1:
            return lambda k: list(slice_(index_id, (k,)))
        return lambda k: list(slice_(index_id, k))

    def set_view(self, name, contents) -> None:
        pool = self.views.get(name)
        if isinstance(pool, RecordPool):
            pool.replace_contents(contents)
        else:
            self.views[name] = contents


class SpecializedIVMEngine(NativeChangefeed, ExecutionBackend):
    """Pool-backed engine with optional cache-trace collection."""

    def __init__(
        self,
        program: TriggerProgram,
        mode: str = "batch",
        counters: Counters | None = None,
        cache_sim: CacheSimulator | None = None,
        enable_indexes: bool = True,
        use_compiled: bool = True,
    ):
        if mode not in ("batch", "single"):
            raise ValueError(f"unknown mode {mode!r}")
        self.program = program
        self.mode = mode
        self.use_compiled = use_compiled
        self.counters = counters if counters is not None else Counters()
        self.cache_sim = cache_sim
        tracer = cache_sim.access_record if cache_sim is not None else None
        self.pools = build_storage(
            program, tracer=tracer, enable_indexes=enable_indexes
        )
        self.db = _PoolDatabase(self.pools)
        if use_compiled:
            self.plans = compile_program(program)
            self._evaluator = CompiledEvaluator(
                self.db, self.counters, plans=self.plans
            )
        else:
            self.plans = None
            self._evaluator = Evaluator(self.db, self.counters)
        self._init_changefeed()

    # ------------------------------------------------------------------
    def initialize(self, base: Database) -> None:
        evaluator = Evaluator(base)
        top = self.program.top_view
        for info in self.program.views.values():
            contents = evaluator.evaluate(info.definition)
            if info.name == top:
                self._feed_replace(contents, GMR(self.pools[top].data))
            self.pools[info.name].replace_contents(contents)

    def on_batch(self, relation: str, batch: GMR) -> None:
        trigger = self.program.triggers.get(relation)
        if trigger is None:
            raise KeyError(f"no trigger for relation {relation!r}")
        if self.mode == "single":
            for t, m in batch.items():
                self._fire(trigger, relation, GMR.unsafe({t: m}))
        else:
            self._fire(trigger, relation, batch)

    def _fire(self, trigger, relation: str, batch: GMR) -> None:
        db = self.db
        counters = self.counters
        evaluate = self._evaluator.evaluate
        top = self.program.top_view
        counters.triggers_fired += 1
        db.set_delta(relation, batch)
        batch_names: list[str] = []
        for stmt in trigger.statements:
            counters.statements_executed += 1
            value = evaluate(stmt.expr)
            if stmt.scope == "batch":
                counters.batches_materialized += 1
                db.set_delta(stmt.target, value)
                batch_names.append(stmt.target)
            elif stmt.op == "+=":
                if stmt.target == top:
                    self._feed_merge(value)
                self.pools[stmt.target].add_inplace(value)
            else:
                if stmt.target == top:
                    self._feed_replace(value, GMR(self.pools[top].data))
                self.pools[stmt.target].replace_contents(value)
        db.deltas.pop(relation, None)
        for name in batch_names:
            db.deltas.pop(name, None)

    # ------------------------------------------------------------------
    def snapshot(self) -> GMR:
        return GMR(self.pools[self.program.top_view].data)

    def view(self, name: str) -> GMR:
        return GMR(self.pools[name].data)

    def cache_report(self) -> dict[str, int]:
        if self.cache_sim is None:
            return {}
        return self.cache_sim.report()
