"""Instrumentation: operation counters and the data-cache simulator.

Real hardware counters (Table 2 of the paper) are substituted by
*virtual instructions* — the tuple visits, lookups, and emissions the
engines perform — plus a two-level set-associative LRU cache simulator
driven by the storage layer's record-access trace.  Both count the
events behind the phenomena under study — per-trigger constant work at
small batches, and records touched per tuple — so the shapes carry over
even though the absolute numbers do not.
"""

from repro.metrics.counters import Counters
from repro.metrics.cachesim import CacheLevel, CacheSimulator
from repro.metrics.ingest import IngestMetrics, percentile

__all__ = [
    "Counters",
    "CacheLevel",
    "CacheSimulator",
    "IngestMetrics",
    "percentile",
]
