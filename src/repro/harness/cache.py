"""Cache-locality experiment (paper Table 2, Appendix B.2).

The paper profiles TPC-H Q3 with perf counters while varying the batch
size.  Our substitute for perf drives a two-level LRU data-cache
simulator from the storage layer's record-access trace and reports the
evaluator's virtual-instruction count in place of retired instructions.
The quantity under study — the U-shape across batch sizes, with ~10x
more instructions at batch 1 than at batch 1,000 and worst locality at
the extremes — is produced by the same mechanism (per-trigger constant
overheads at small batches, working sets exceeding cache at large
ones).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.setup import prepare_stream, run_engine
from repro.metrics import CacheSimulator
from repro.workloads import QuerySpec


@dataclass
class CacheRow:
    """One Table 2 column: counters for a single batch size."""

    batch_label: str
    virtual_instructions: int
    l1_refs: int
    l1_misses: int
    llc_refs: int
    llc_misses: int

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.l1_refs if self.l1_refs else 0.0

    @property
    def llc_miss_rate(self) -> float:
        return self.llc_misses / self.llc_refs if self.llc_refs else 0.0


def cache_locality_run(
    spec: QuerySpec,
    batch_size: int | None,
    workload: str = "tpch",
    sf: float = 0.0005,
    seed: int = 42,
    l1_bytes: int = 32 * 1024,
    llc_bytes: int = 512 * 1024,
    max_batches: int | None = None,
) -> CacheRow:
    """Run Q3 (or any query) at one batch size with the cache simulator
    attached; ``batch_size=None`` measures the single-tuple engine."""
    sim = CacheSimulator(l1_bytes=l1_bytes, llc_bytes=llc_bytes)
    if batch_size is None:
        prepared = prepare_stream(
            spec, 100, workload=workload, sf=sf, seed=seed,
            max_batches=max_batches,
        )
        # The single-tuple engine also runs over pools so its accesses
        # feed the same trace.
        outcome = _run_specialized(prepared, "single", sim)
        label = "Single"
    else:
        prepared = prepare_stream(
            spec, batch_size, workload=workload, sf=sf, seed=seed,
            max_batches=max_batches,
        )
        outcome = _run_specialized(prepared, "batch", sim)
        label = str(batch_size)
    report = sim.report()
    return CacheRow(
        batch_label=label,
        virtual_instructions=outcome.virtual_instructions,
        l1_refs=report["l1_refs"],
        l1_misses=report["l1_misses"],
        llc_refs=report["llc_refs"],
        llc_misses=report["llc_misses"],
    )


def _run_specialized(prepared, mode: str, sim: CacheSimulator):
    """Run the pool-backed engine in the requested trigger mode."""
    import time

    from repro.compiler import apply_batch_preaggregation, compile_query
    from repro.exec import SpecializedIVMEngine
    from repro.harness.setup import RunOutcome
    from repro.metrics import Counters

    spec = prepared.spec
    program = compile_query(spec.query, spec.name, updatable=spec.updatable)
    if mode == "batch":
        program = apply_batch_preaggregation(program)
    counters = Counters()
    engine = SpecializedIVMEngine(
        program, mode=mode, counters=counters, cache_sim=sim
    )
    engine.initialize(prepared.fresh_static())
    sim.reset()
    counters.reset()

    start = time.perf_counter()
    for relation, batch in prepared.batches:
        engine.on_batch(relation, batch)
    elapsed = time.perf_counter() - start
    return RunOutcome(
        strategy=f"rivm-specialized/{mode}",
        elapsed_s=elapsed,
        n_tuples=prepared.n_tuples,
        virtual_instructions=counters.virtual_instructions(),
        result=engine.snapshot(),
    )
