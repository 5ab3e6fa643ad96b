"""Design-choice ablations (run by ``benchmarks/test_ablations.py``).

These go beyond the paper's figures: each runner isolates one of the
system's design decisions and measures the cost of turning it off.

* domain extraction (Section 3.2.2) — without it, nested-aggregate
  deltas recompute the whole assignment twice per batch;
* batch pre-aggregation (Section 3.3) — without it, triggers loop over
  the raw batch in every statement;
* storage specialization (Section 5.2) — without automatic indexes,
  slice operations degrade to full scans;
* compile-once pipelines — without lowering, every statement of every
  batch re-interprets the algebra AST (per-node dispatch, per-call
  schema derivation and join planning).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import apply_batch_preaggregation, compile_query
from repro.exec import RecursiveIVMEngine, SpecializedIVMEngine
from repro.harness.setup import PreparedStream, prepare_stream
from repro.metrics import Counters
from repro.workloads import QuerySpec


@dataclass
class AblationResult:
    """One on/off comparison on a single query."""

    query: str
    knob: str
    on_virtual_instructions: int
    off_virtual_instructions: int
    on_elapsed_s: float
    off_elapsed_s: float

    @property
    def virtual_speedup(self) -> float:
        """How many times cheaper the enabled variant is (in virtual
        instructions) — deterministic across runs."""
        if self.on_virtual_instructions <= 0:
            return float("inf")
        return self.off_virtual_instructions / self.on_virtual_instructions

    @property
    def wall_speedup(self) -> float:
        if self.on_elapsed_s <= 0:
            return float("inf")
        return self.off_elapsed_s / self.on_elapsed_s


def _timed_run(engine, prepared: PreparedStream, counters: Counters):
    import time

    engine.initialize(prepared.fresh_static())
    counters.reset()
    start = time.perf_counter()
    for relation, batch in prepared.batches:
        engine.on_batch(relation, batch)
    elapsed = time.perf_counter() - start
    return counters.virtual_instructions(), elapsed, engine.snapshot()


def domain_extraction_ablation(
    spec: QuerySpec,
    batch_size: int = 100,
    workload: str = "tpch",
    sf: float = 0.0005,
    seed: int = 42,
    max_batches: int | None = None,
    warm_fraction: float = 0.9,
) -> AblationResult:
    """Compare maintenance with and without domain extraction.

    Only meaningful for queries with nested aggregates (e.g. TPC-H
    Q17/Q22); flat queries compile identically under both settings.
    Correctness is asserted: both variants must produce the same view.

    Runs warm by default (``warm_fraction``): domain extraction's
    advantage is |batch domain| vs |materialized state|, which only
    shows once the state is much larger than one batch.
    """
    prepared = prepare_stream(
        spec, batch_size, workload=workload, sf=sf, seed=seed,
        max_batches=max_batches, warm_fraction=warm_fraction,
    )

    on_counters = Counters()
    program_on = compile_query(
        spec.query, spec.name, updatable=spec.updatable
    )
    program_on = apply_batch_preaggregation(program_on)
    engine_on = RecursiveIVMEngine(
        program_on, mode="batch", counters=on_counters
    )
    on_vi, on_s, on_result = _timed_run(engine_on, prepared, on_counters)

    off_counters = Counters()
    program_off = compile_query(
        spec.query, spec.name, updatable=spec.updatable, use_domain=False
    )
    program_off = apply_batch_preaggregation(program_off)
    engine_off = RecursiveIVMEngine(
        program_off, mode="batch", counters=off_counters
    )
    off_vi, off_s, off_result = _timed_run(engine_off, prepared, off_counters)

    if on_result != off_result:
        raise AssertionError(
            f"{spec.name}: domain extraction changed the result"
        )
    return AblationResult(
        query=spec.name,
        knob="domain-extraction",
        on_virtual_instructions=on_vi,
        off_virtual_instructions=off_vi,
        on_elapsed_s=on_s,
        off_elapsed_s=off_s,
    )


def preaggregation_ablation(
    spec: QuerySpec,
    batch_size: int = 1_000,
    workload: str = "tpch",
    sf: float = 0.0005,
    seed: int = 42,
    max_batches: int | None = None,
) -> AblationResult:
    """Compare batched maintenance with and without pre-aggregation.

    Mirrors the Section 3.3 analysis: pre-aggregation wins big when the
    batch projects onto a small domain (Q1, Q20, Q22), and only adds
    materialization overhead when the aggregated columns functionally
    depend on the delta's key (Q4, Q13).
    """
    prepared = prepare_stream(
        spec, batch_size, workload=workload, sf=sf, seed=seed,
        max_batches=max_batches,
    )

    base_program = compile_query(
        spec.query, spec.name, updatable=spec.updatable
    )

    on_counters = Counters()
    engine_on = RecursiveIVMEngine(
        apply_batch_preaggregation(base_program),
        mode="batch",
        counters=on_counters,
    )
    on_vi, on_s, on_result = _timed_run(engine_on, prepared, on_counters)

    off_counters = Counters()
    engine_off = RecursiveIVMEngine(
        base_program, mode="batch", counters=off_counters
    )
    off_vi, off_s, off_result = _timed_run(engine_off, prepared, off_counters)

    if on_result != off_result:
        raise AssertionError(
            f"{spec.name}: pre-aggregation changed the result"
        )
    return AblationResult(
        query=spec.name,
        knob="batch-preaggregation",
        on_virtual_instructions=on_vi,
        off_virtual_instructions=off_vi,
        on_elapsed_s=on_s,
        off_elapsed_s=off_s,
    )


def compilation_ablation(
    spec: QuerySpec,
    batch_size: int = 100,
    workload: str = "tpch",
    sf: float = 0.0005,
    seed: int = 42,
    max_batches: int | None = None,
    warm_fraction: float = 0.0,
) -> AblationResult:
    """Compare compile-once pipelines against the interpreted evaluator.

    Both variants run the identical maintenance program through
    :class:`RecursiveIVMEngine`; the knob toggles ``use_compiled``, so
    the measured difference is exactly the cost of re-interpreting the
    AST in the batch loop.  Virtual instructions count the same logical
    work on both paths (lowering may skip index builds the interpreter
    performs eagerly), so the interesting ratio here is wall time.
    Correctness is asserted: both variants must produce the same view.
    """
    prepared = prepare_stream(
        spec, batch_size, workload=workload, sf=sf, seed=seed,
        max_batches=max_batches, warm_fraction=warm_fraction,
    )

    program = compile_query(spec.query, spec.name, updatable=spec.updatable)
    program = apply_batch_preaggregation(program)

    on_counters = Counters()
    engine_on = RecursiveIVMEngine(
        program, mode="batch", counters=on_counters, use_compiled=True
    )
    on_vi, on_s, on_result = _timed_run(engine_on, prepared, on_counters)

    off_counters = Counters()
    engine_off = RecursiveIVMEngine(
        program, mode="batch", counters=off_counters, use_compiled=False
    )
    off_vi, off_s, off_result = _timed_run(engine_off, prepared, off_counters)

    if on_result != off_result:
        raise AssertionError(
            f"{spec.name}: compile-once lowering changed the result"
        )
    return AblationResult(
        query=spec.name,
        knob="compiled-pipelines",
        on_virtual_instructions=on_vi,
        off_virtual_instructions=off_vi,
        on_elapsed_s=on_s,
        off_elapsed_s=off_s,
    )


def specialization_ablation(
    spec: QuerySpec,
    batch_size: int = 500,
    workload: str = "tpch",
    sf: float = 0.0005,
    seed: int = 42,
    max_batches: int | None = None,
) -> AblationResult:
    """Compare pool-backed execution with and without index support.

    The OFF variant disables non-unique (slice) indexes, so every slice
    lowers to a full scan — the paper's argument for automatic index
    selection (Section 5.2.1).
    """
    prepared = prepare_stream(
        spec, batch_size, workload=workload, sf=sf, seed=seed,
        max_batches=max_batches,
    )

    program = compile_query(spec.query, spec.name, updatable=spec.updatable)
    program = apply_batch_preaggregation(program)

    on_counters = Counters()
    engine_on = SpecializedIVMEngine(
        program, mode="batch", counters=on_counters
    )
    on_vi, on_s, on_result = _timed_run(engine_on, prepared, on_counters)

    off_counters = Counters()
    engine_off = SpecializedIVMEngine(
        program, mode="batch", counters=off_counters, enable_indexes=False
    )
    off_vi, off_s, off_result = _timed_run(engine_off, prepared, off_counters)

    if on_result != off_result:
        raise AssertionError(
            f"{spec.name}: index specialization changed the result"
        )
    return AblationResult(
        query=spec.name,
        knob="index-specialization",
        on_virtual_instructions=on_vi,
        off_virtual_instructions=off_vi,
        on_elapsed_s=on_s,
        off_elapsed_s=off_s,
    )
