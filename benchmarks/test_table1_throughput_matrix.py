"""Table 1: the full strategy x batch-size x query throughput matrix.

The paper's Table 1 reports tuples/second for re-evaluation and
classical IVM (PostgreSQL) and recursive IVM (generated C++, plus the
Single column) for all 22 TPC-H and 13 TPC-DS queries at batch sizes
1-100,000.  Headline: "in all but four cases, recursive view
maintenance outperforms classical view maintenance by orders of
magnitude, even when processing large batches".

The full matrix at paper batch sizes takes hours in Python, so the
default bench covers a representative query subset at scaled batch
sizes; set ``REPRO_TABLE1_FULL=1`` to sweep every query.
"""

from __future__ import annotations

import os

import pytest

from repro.harness import format_table, strategy_matrix
from repro.workloads import TPCDS_QUERIES, TPCH_QUERIES

from benchmarks.conftest import LOCAL_SF

BATCHES = (1, 10, 100, 1_000)

#: representative rows: cheap flat query, join pipelines, nested aggs
DEFAULT_TPCH = ("Q1", "Q3", "Q4", "Q6", "Q12", "Q14", "Q17", "Q22")
DEFAULT_TPCDS = ("DS3", "DS42", "DS52")


def _selected():
    if os.environ.get("REPRO_TABLE1_FULL"):
        tpch = sorted(TPCH_QUERIES)
        tpcds = sorted(TPCDS_QUERIES)
    else:
        tpch = [q for q in DEFAULT_TPCH if q in TPCH_QUERIES]
        tpcds = [q for q in DEFAULT_TPCDS if q in TPCDS_QUERIES]
    return [("tpch", q) for q in tpch] + [("tpcds", q) for q in tpcds]


@pytest.mark.paper_experiment("table1")
@pytest.mark.parametrize("workload,name", _selected())
def test_table1_row(benchmark, workload, name):
    """One Table 1 row-group: three strategies x batch sizes."""
    spec = (TPCH_QUERIES if workload == "tpch" else TPCDS_QUERIES)[name]

    def run():
        # Warm store: the paper's numbers reflect base
        # tables far larger than one batch; classical IVM's delta joins
        # and re-evaluation then pay realistic full-table costs.
        return strategy_matrix(
            spec,
            batch_sizes=BATCHES,
            strategies=("reeval", "civm", "rivm-batch"),
            workload=workload,
            sf=LOCAL_SF,
            max_batches=60,
            warm_fraction=0.6,
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (r.query, r.strategy, r.batch_label, round(r.throughput))
        for r in results
    ]
    print()
    print(
        format_table(
            ("query", "strategy", "batch", "tuples/s"),
            rows,
            title=f"Table 1 — {name} throughput by strategy and batch size",
        )
    )

    by = {(r.strategy, r.batch_size): r for r in results}
    # Recursive IVM must dominate classical IVM for every batch size
    # (the paper's exceptions are re-evaluation-bound queries like
    # Q11/Q15, which the default subset deliberately leaves out of the
    # strict assertion).
    lenient = name in ("Q11", "Q15")
    for bs in BATCHES:
        rivm = by[("rivm-batch", bs)].virtual_throughput
        civm = by[("civm", bs)].virtual_throughput
        if not lenient:
            assert rivm >= civm, (
                f"{name} batch {bs}: RIVM ({rivm:.3g}) below classical "
                f"IVM ({civm:.3g})"
            )


@pytest.mark.paper_experiment("table1")
def test_table1_orders_of_magnitude_summary():
    """Across the selected queries, median RIVM/classical-IVM gain at
    batch 100 is at least one order of magnitude (paper: 2-4 orders)."""
    gains = []
    for workload, name in _selected():
        spec = (TPCH_QUERIES if workload == "tpch" else TPCDS_QUERIES)[name]
        results = strategy_matrix(
            spec,
            batch_sizes=(100,),
            strategies=("civm", "rivm-batch"),
            workload=workload,
            sf=LOCAL_SF,
            include_single=False,
            max_batches=40,
            warm_fraction=0.6,
        )
        by = {r.strategy: r for r in results}
        gains.append(
            (
                name,
                by["rivm-batch"].virtual_throughput
                / by["civm"].virtual_throughput,
            )
        )
    print()
    print(
        format_table(
            ("query", "RIVM / classical-IVM gain at batch 100"),
            [(n, round(g, 1)) for n, g in gains],
            title="Table 1 summary — recursive vs classical IVM",
        )
    )
    ordered = sorted(g for _, g in gains)
    median = ordered[len(ordered) // 2]
    assert median > 10.0, f"median gain only {median:.1f}x"
