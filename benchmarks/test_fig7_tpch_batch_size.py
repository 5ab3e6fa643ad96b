"""Figure 7: normalized throughput of batched recursive IVM on TPC-H
across batch sizes, with single-tuple execution as the baseline.

The paper's two panels split the queries by effect size:

* left panel (linear scale): for almost half the queries batching is
  at best marginally better than specialized single-tuple processing
  (Q4, Q5, Q9, Q12, Q13, Q16, Q18, Q21 ...); filtering queries gain
  from pre-aggregation (Q3, Q7, Q8, Q10, Q14); Q1 gains from its tiny
  aggregate domain;
* right panel (log scale): Q11, Q15, Q19, Q20, Q22 gain large factors
  — Q20/Q22 by 3+ orders of magnitude in the paper — because batch
  pre-aggregation collapses the update onto a small key domain.

The bench regenerates the normalized series for every TPC-H query and
asserts the headline shapes.
"""

from __future__ import annotations

import pytest

from repro.harness import format_table, normalized_sweep
from repro.workloads import TPCH_QUERIES

from benchmarks.conftest import BATCH_SIZES, LOCAL_SF

#: the paper's right-panel queries (log scale, large batching gains)
LOG_PANEL = ("Q11", "Q15", "Q19", "Q20", "Q22")

#: queries for which the paper reports batching near or below baseline
MODEST_QUERIES = ("Q4", "Q5", "Q9", "Q12", "Q13", "Q18")

#: sweeps are deterministic (virtual-instruction ratios), so they are
#: computed once per query and shared across this module's tests
_SWEEP_CACHE: dict[str, dict[int, float]] = {}


def _sweep(name: str) -> dict[int, float]:
    cached = _SWEEP_CACHE.get(name)
    if cached is None:
        cached = _SWEEP_CACHE[name] = normalized_sweep(
            TPCH_QUERIES[name],
            batch_sizes=BATCH_SIZES,
            sf=LOCAL_SF,
            max_batches=None,
        )
    return cached


@pytest.mark.paper_experiment("fig7")
@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_fig7_normalized_throughput(benchmark, name):
    """One bar group of Figure 7: normalized throughput per batch size."""
    series = benchmark.pedantic(_sweep, args=(name,), rounds=1, iterations=1)

    rows = [(name, bs, round(v, 3)) for bs, v in sorted(series.items())]
    print()
    print(
        format_table(
            ("query", "batch size", "normalized throughput"),
            rows,
            title=f"Figure 7 — {name} (baseline: single-tuple = 1.0)",
        )
    )
    # Every measurement must be positive and finite.
    assert all(v > 0 for v in series.values())


@pytest.mark.paper_experiment("fig7")
def test_fig7_log_panel_queries_are_the_outliers():
    """The right-panel queries gain far more from batching than the
    left-panel ones.

    Our single-tuple baseline is an interpreter (per-trigger dispatch is
    genuinely expensive), so *all* batching gains sit above the paper's
    absolute numbers; the reproducible shape is the relative ordering:
    the log-panel queries are the outliers, by a wide margin.
    """
    log_gains = {name: max(_sweep(name).values()) for name in LOG_PANEL}
    modest_gains = {
        name: max(_sweep(name).values()) for name in MODEST_QUERIES
    }
    print()
    print(
        format_table(
            ("panel", "query", "peak normalized throughput"),
            [("log", n, round(g, 1)) for n, g in sorted(log_gains.items())]
            + [
                ("linear", n, round(g, 1))
                for n, g in sorted(modest_gains.items())
            ],
            title="Figure 7 — peak batching gains by panel",
        )
    )
    best_log = max(log_gains.values())
    median_modest = sorted(modest_gains.values())[len(modest_gains) // 2]
    assert best_log > 2 * median_modest, (
        f"log-panel peak {best_log:.0f}x not clearly above the "
        f"left-panel median {median_modest:.0f}x"
    )
    # Every log-panel query gains substantially from batching.
    for name, gain in log_gains.items():
        assert gain > 3.0, f"{name}: expected a large batching gain, got {gain:.2f}"


@pytest.mark.paper_experiment("fig7")
def test_fig7_modest_queries_keep_bounded_gains():
    """Left-panel queries: batching gains stay within the range the
    trigger-amortization baseline explains — far below the log-panel
    explosions (the paper's refutation of "batching always wins" shows
    up as this panel split)."""
    peaks = {name: max(_sweep(name).values()) for name in MODEST_QUERIES}
    # Q13-style simple two-way joins barely benefit even here.
    assert min(peaks.values()) < 30.0, peaks


@pytest.mark.paper_experiment("fig7")
def test_fig7_batch1_is_slower_than_specialized_single():
    """Batch size 1 pays materialization/looping overhead over the
    specialized single-tuple engine (normalized < 1 for most queries)."""
    below = 0
    total = 0
    for name in sorted(TPCH_QUERIES):
        series = _sweep(name)
        total += 1
        if series[1] < 1.0:
            below += 1
    # The paper's Table 1 shows batch-1 losing to Single nearly always.
    assert below >= total * 0.6, f"only {below}/{total} queries slower at batch 1"
