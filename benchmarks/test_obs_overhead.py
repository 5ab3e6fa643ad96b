"""Telemetry overhead guardrail: tracing must stay out of the hot path.

Streams TPC-H Q1/Q6/Q17 through a ``ViewService`` (synchronous
``rivm-batch`` views, one trivial subscriber so the publish stage runs)
under three trace sinks:

* **off** — ``Tracer(enabled=False)``: one attribute check per span
  site (the baseline);
* **ring** — the default in-memory ring buffer behind
  ``GET /trace/recent``;
* **ndjson** — ring plus the ``--trace-out`` NDJSON tee.

Runs are interleaved (off/ring/ndjson, repeated) so drift hits every
mode equally, and per-mode *minimums* are compared — the noise-robust
estimator for a CPU-bound loop, since scheduler jitter only ever adds
time.  The guardrail asserted here — ring-mode ingest time within 5%
of off — is the budget ISSUE 8 grants the always-on default; the
NDJSON tee is reported but unasserted (it pays a write+flush per span
by design).
"""

from __future__ import annotations

import time

import pytest

from repro.harness import format_table, prepare_stream
from repro.obs import Tracer
from repro.service import ViewService
from repro.workloads import TPCH_QUERIES

# Streams sized so one run takes a few hundred ms: the per-span cost
# is ~5µs, so short runs drown the signal in scheduler noise and the
# min-of-repeats estimator needs real work to converge on.
PARAMS = {
    "Q1": dict(batch_size=200, sf=0.01, max_batches=120),
    "Q6": dict(batch_size=200, sf=0.01, max_batches=120),
    "Q17": dict(batch_size=100, sf=0.002, max_batches=25),
}

REPEATS = 7

#: the ISSUE 8 budget for the always-on ring sink
RING_BUDGET = 1.05


def _run_once(prepared, tracer: Tracer) -> float:
    """Seconds to ingest the whole prepared stream under one sink."""
    service = ViewService(
        base=prepared.fresh_static(), track_base=False, tracer=tracer
    )
    service.create_view(prepared.spec.name, prepared.spec,
                        backend="rivm-batch")
    sub = service.subscribe(prepared.spec.name, lambda event: None)
    try:
        start = time.perf_counter()
        for relation, batch in prepared.batches:
            service.on_batch(relation, batch)
        elapsed = time.perf_counter() - start
    finally:
        sub.cancel()
        service.drop_view(prepared.spec.name)
    return elapsed


@pytest.mark.paper_experiment("telemetry overhead: trace sinks vs off")
def test_tracing_overhead_within_budget(tmp_path):
    rows = []
    for query, params in PARAMS.items():
        prepared = prepare_stream(TPCH_QUERIES[query], **params)

        def make_sinks():
            return {
                "off": Tracer(enabled=False),
                "ring": Tracer(),
                "ndjson": Tracer(
                    out=str(tmp_path / f"{query}.ndjson")
                ),
            }

        times: dict[str, list[float]] = {"off": [], "ring": [], "ndjson": []}
        _run_once(prepared, Tracer(enabled=False))  # warm caches
        for _ in range(REPEATS):
            sinks = make_sinks()
            for mode, tracer in sinks.items():
                times[mode].append(_run_once(prepared, tracer))
                tracer.close()
        best = {m: min(ts) for m, ts in times.items()}
        ratios = {m: best[m] / best["off"] for m in best}
        rows.append((
            query,
            len(prepared.batches),
            round(best["off"], 4),
            round(best["ring"], 4),
            round(best["ndjson"], 4),
            f"{ratios['ring']:.3f}",
            f"{ratios['ndjson']:.3f}",
        ))
        assert ratios["ring"] <= RING_BUDGET, (
            f"{query}: ring-buffer tracing cost {ratios['ring']:.3f}x "
            f"the disabled tracer (budget {RING_BUDGET}x)"
        )

    print()
    print(format_table(
        ("query", "batches", "off (s)", "ring (s)", "ndjson (s)",
         "ring/off", "ndjson/off"),
        rows,
        title="trace-sink overhead (best ingest time)",
    ))
