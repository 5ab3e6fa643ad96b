"""Async ingestion: the paper's batch-size tradeoff, split and closed.

The fig7/fig12 sweeps show throughput rising with batch size while
per-update latency falls apart — but a synchronous harness can only
measure the *sum* of ingestion and maintenance.  This bench streams
TPC-H Q1/Q6/Q17 through ``async:rivm-batch`` under three batching
policies (fixed size, max delay, closed-loop adaptive) and reports the
two latencies separately:

* **ingestion** — enqueue wait (producer blocking) and queue residency
  (enqueue until the owning flush completes);
* **maintenance** — the inner engine's ``on_batch`` wall time per
  flush.

Every configuration is differential-tested against the synchronous
``rivm-batch`` run on the identical stream — the wrapper re-times
maintenance, never changes its result.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    format_table,
    measure_ingestion,
    prepare_stream,
    run_engine,
)
from repro.workloads import TPCH_QUERIES

#: producer-side stream chunking: small entries give every policy room
#: to coalesce (or not) according to its own rules
PARAMS = {
    "Q1": dict(batch_size=250, sf=0.004, max_batches=24),
    "Q6": dict(batch_size=250, sf=0.004, max_batches=24),
    "Q17": dict(batch_size=100, sf=0.001, max_batches=10),
}

POLICIES = {
    "fixed": dict(policy="fixed", max_batch=2000),
    "delay": dict(policy="delay", max_delay_s=0.005, max_batch=100_000),
    "adaptive": dict(
        policy="adaptive", target_latency_s=0.003, min_batch=50,
        max_delay_s=0.01,
    ),
}


@pytest.mark.paper_experiment("async ingestion: split latency per policy")
def test_async_ingestion_split_latency():
    rows = []
    for query, params in PARAMS.items():
        prepared = prepare_stream(
            TPCH_QUERIES[query],
            params["batch_size"],
            sf=params["sf"],
            max_batches=params["max_batches"],
        )
        reference = run_engine(prepared, "rivm-batch")
        for policy_name, options in POLICIES.items():
            result = measure_ingestion(prepared, "rivm-batch", **options)
            assert result.snapshot == reference.result, (
                f"{query}/{policy_name} diverged from the synchronous run"
            )
            summary = result.summary()
            enqueue_p50 = summary["enqueue_wait_s"]["p50"]
            maintenance_p50 = summary["maintenance_s"]["p50"]
            assert enqueue_p50 < maintenance_p50, (
                f"{query}/{policy_name}: ingestion (enqueue p50 "
                f"{enqueue_p50:.6f}s) should be decoupled from, and far "
                f"cheaper than, maintenance (p50 {maintenance_p50:.6f}s)"
            )
            rows.append(
                (
                    query,
                    policy_name,
                    summary["flushes"],
                    f"{summary['mean_flush_size']:.0f}",
                    f"{enqueue_p50 * 1e6:.1f}",
                    f"{summary['ingest_delay_s']['p50'] * 1e3:.2f}",
                    f"{maintenance_p50 * 1e3:.2f}",
                    f"{summary['maintenance_s']['p95'] * 1e3:.2f}",
                )
            )
    print()
    print(
        format_table(
            ("query", "policy", "flushes", "mean flush",
             "enq p50 (us)", "ingest p50 (ms)", "maint p50 (ms)",
             "maint p95 (ms)"),
            rows,
            title="async ingestion: ingestion vs maintenance latency",
        )
    )
