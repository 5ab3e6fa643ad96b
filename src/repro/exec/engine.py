"""The recursive IVM execution engine.

Two execution modes mirror the paper's Section 3.3 comparison:

* ``mode="batch"`` — one trigger invocation per update batch.  The
  program should have been passed through
  :func:`~repro.compiler.apply_batch_preaggregation`, so each trigger
  begins by materializing the filtered/projected batch.
* ``mode="single"`` — one trigger invocation per tuple.  The update's
  fields are bound directly into the evaluation environment (the
  equivalent of DBToaster inlining trigger parameters), no batch is
  materialized, and one-element loops disappear into point lookups.

By default statements execute through compile-once closure pipelines
(:mod:`repro.eval.compiled`): every statement is lowered exactly once
at engine construction, and the batch loop runs the lowered pipelines.
``use_compiled=False`` falls back to the interpreted reference
evaluator — the ablation toggle that isolates the lowering win.
"""

from __future__ import annotations

from repro.compiler.ir import TriggerProgram
from repro.compiler.plancache import compile_program
from repro.eval import CompiledEvaluator, Database, Evaluator
from repro.exec.backend import ExecutionBackend, NativeChangefeed
from repro.metrics import Counters
from repro.ring import GMR


class RecursiveIVMEngine(NativeChangefeed, ExecutionBackend):
    """Executes a compiled maintenance program over a stream of batches."""

    def __init__(
        self,
        program: TriggerProgram,
        mode: str = "batch",
        counters: Counters | None = None,
        use_compiled: bool = True,
    ):
        if mode not in ("batch", "single"):
            raise ValueError(f"unknown mode {mode!r}")
        self.program = program
        self.mode = mode
        self.use_compiled = use_compiled
        self.counters = counters if counters is not None else Counters()
        self.db = Database()
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
    # Initialization
    # ------------------------------------------------------------------
    def initialize(self, base: Database) -> None:
        """Populate every materialized view from a loaded database.

        Streams normally start empty; this exists for tests and for
        warm-starting from a snapshot.
        """
        evaluator = Evaluator(base)
        top = self.program.top_view
        for info in self.program.views.values():
            contents = evaluator.materialize(info.definition)
            if info.name == top:
                self._feed_replace(contents, self.db.get_view(top))
            self.db.set_view(info.name, contents)

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------
    def on_batch(self, relation: str, batch: GMR) -> None:
        """Process one update batch for ``relation``."""
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
                db.apply_update(stmt.target, value)
            else:  # ':=' re-evaluation
                if stmt.target == top:
                    self._feed_replace(value, db.get_view(top))
                db.set_view(stmt.target, value)
        db.deltas.pop(relation, None)
        for name in batch_names:
            db.deltas.pop(name, None)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> GMR:
        """Current contents of the top-level materialized view."""
        return self.db.get_view(self.program.top_view)

    def view(self, name: str) -> GMR:
        return self.db.get_view(name)

    def memory_footprint(self) -> int:
        """Total number of tuples across all materialized views."""
        return sum(len(g) for g in self.db.views.values())
