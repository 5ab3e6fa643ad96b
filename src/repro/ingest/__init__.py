"""Async ingestion: decoupling stream arrival from trigger execution.

The subsystem behind the ``async:<backend>`` names in the execution
registry.  A bounded :class:`IngestQueue` admits update batches (with
``block`` / ``shed`` / ``coalesce`` admission control when full), a
:class:`Batcher` thread coalesces them under a pluggable
:class:`~repro.ingest.policy.BatchPolicy` (fixed size, max delay, or
closed-loop adaptive sizing from observed maintenance latency), and an
:class:`AsyncIngestBackend` presents the whole thing as a regular
:class:`~repro.exec.ExecutionBackend` — so every engine, including the
process-parallel one, gains asynchronous ingestion without changing.

Ingestion latency (enqueue wait, queue residency) and maintenance
latency (inner ``on_batch`` per flush) are recorded separately in
:class:`~repro.metrics.IngestMetrics`; ``benchmarks/
test_async_ingestion.py`` sweeps the policies.  See ARCHITECTURE.md
("Async ingestion").
"""

from repro.ingest.backend import (
    ASYNC_OPTION_NAMES,
    AsyncIngestBackend,
    make_async_factory,
)
from repro.ingest.batcher import Batcher
from repro.ingest.policy import (
    AdaptivePolicy,
    BatchPolicy,
    FixedSizePolicy,
    MaxDelayPolicy,
    make_policy,
)
from repro.ingest.queue import (
    ADMISSION_POLICIES,
    IngestOverflow,
    IngestQueue,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ASYNC_OPTION_NAMES",
    "AdaptivePolicy",
    "AsyncIngestBackend",
    "BatchPolicy",
    "Batcher",
    "FixedSizePolicy",
    "IngestOverflow",
    "IngestQueue",
    "MaxDelayPolicy",
    "make_async_factory",
    "make_policy",
]
