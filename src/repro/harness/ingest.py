"""Async-ingestion experiments: the split latency story.

Where :func:`~repro.harness.local.measure_throughput` sweeps the batch
size *statically* (the paper's fig7/fig12 knob), this runner streams a
prepared workload through an ``async:<inner>`` backend and reports what
the decoupling makes separately measurable: ingestion latency (enqueue
wait + queue residency) versus maintenance latency (the inner engine's
per-flush trigger time), per batching policy.
``benchmarks/test_async_ingestion.py`` sweeps the policies on Q1/Q6/Q17
and asserts ingestion stays cheaper than maintenance under each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.exec import create_backend
from repro.harness.setup import PreparedStream
from repro.metrics import IngestMetrics
from repro.ring import GMR


@dataclass
class IngestionResult:
    """One async-ingestion run: throughput plus the split latencies."""

    query: str
    inner: str
    policy: str
    n_tuples: int
    n_batches: int
    elapsed_s: float
    snapshot: GMR
    metrics: IngestMetrics

    @property
    def throughput(self) -> float:
        """End-to-end streamed tuples per second (enqueue through the
        final drain barrier)."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.n_tuples / self.elapsed_s

    def summary(self) -> dict:
        """JSON-friendly record: identifiers, throughput, and the
        metrics' percentile summary."""
        return {
            "query": self.query,
            "inner": self.inner,
            "policy": self.policy,
            "n_tuples": self.n_tuples,
            "n_batches": self.n_batches,
            "elapsed_s": self.elapsed_s,
            "throughput_tps": self.throughput,
            **self.metrics.summary(),
        }


def measure_ingestion(
    prepared: PreparedStream,
    inner: str = "rivm-batch",
    policy: str = "fixed",
    use_compiled: bool = True,
    **async_options,
) -> IngestionResult:
    """Stream a prepared workload through ``async:<inner>``.

    The producer loop enqueues every batch, then drains — so
    ``elapsed_s`` is end-to-end and the final snapshot covers the whole
    stream (callers differential-test it against the bare inner
    engine).  ``async_options`` reach the wrapper factory (``max_batch``,
    ``max_delay_s``, ``queue_capacity``, ``admission``, ...; anything
    else is forwarded to the inner factory).
    """
    backend = create_backend(
        f"async:{inner}",
        prepared.spec,
        policy=policy,
        use_compiled=use_compiled,
        **async_options,
    )
    try:
        backend.initialize(prepared.fresh_static())
        start = time.perf_counter()
        for relation, batch in prepared.batches:
            backend.on_batch(relation, batch)
        backend.drain()
        elapsed = time.perf_counter() - start
        snapshot = GMR(dict(backend.snapshot().data))
    finally:
        backend.close()
    return IngestionResult(
        query=prepared.spec.name,
        inner=inner,
        policy=policy,
        n_tuples=prepared.n_tuples,
        n_batches=len(prepared.batches),
        elapsed_s=elapsed,
        snapshot=snapshot,
        metrics=backend.metrics,
    )
