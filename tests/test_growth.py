"""Growth guard: maintenance cost follows the batch, not the database.

The paper's central promise is that the work per update batch depends
on the batch (and the join degree), not on how much state the views
hold.  This test streams one seeded TPC-H ORDERS+LINEITEM prefix — each
step an ORDERS batch followed by the LINEITEM batch of those orders —
into Q1, Q6, Q12 and Q3, once to state S and once to state 4S, and
compares the late-stream ``tuples_scanned`` per input tuple.  The
counters are exact, so the check has no host noise.

A join level that rebuilt its slice index from the whole view on every
statement scans ~4x more per tuple at 4S; probing indexes that persist
across batches keeps the ratio near 1.
"""

from __future__ import annotations

import pytest

from repro.exec import create_backend
from repro.metrics import Counters
from repro.ring import GMR
from repro.workloads import TPCH_QUERIES, generate_tpch

#: orders per step; lineitems follow their orders in the next batch
ORDERS_PER_STEP = 50
#: orders streamed at state S (4S streams four times as many)
ORDERS_AT_S = 800
#: the last LATE_SHARE of the steps is "late stream"
LATE_SHARE = 1 / 8
#: allowed growth of late-stream scans per tuple from S to 4S
MAX_GROWTH = 1.25

_TABLES = generate_tpch(sf=0.0025, seed=7)  # 3750 orders, 15000 lineitems


def _steps(n_orders: int) -> list[list[tuple[str, GMR]]]:
    """One step per ORDERS_PER_STEP orders: ``[ORDERS batch, LINEITEM
    batch]`` with the generator's lineitems of exactly those orders."""
    by_order: dict[int, list[tuple]] = {}
    for row in _TABLES["LINEITEM"]:
        by_order.setdefault(row[0], []).append(row)
    steps = []
    orders = _TABLES["ORDERS"][:n_orders]
    for lo in range(0, n_orders, ORDERS_PER_STEP):
        chunk = orders[lo : lo + ORDERS_PER_STEP]
        lines = [row for o in chunk for row in by_order.get(o[0], ())]
        steps.append(
            [
                ("ORDERS", GMR.from_pairs((o, 1) for o in chunk)),
                ("LINEITEM", GMR.from_pairs((r, 1) for r in lines)),
            ]
        )
    return steps


def _late_scans_per_tuple(backend: str, query: str, n_orders: int) -> float:
    counters = Counters()
    engine = create_backend(backend, TPCH_QUERIES[query], counters=counters)
    triggers = engine.program.triggers
    if "CUSTOMER" in triggers:
        engine.on_batch(
            "CUSTOMER", GMR.from_pairs((c, 1) for c in _TABLES["CUSTOMER"])
        )
    steps = _steps(n_orders)
    late_from = len(steps) - max(1, int(len(steps) * LATE_SHARE))
    scanned = tuples = 0
    for i, step in enumerate(steps):
        for relation, batch in step:
            if relation not in triggers:
                continue
            before = counters.tuples_scanned
            engine.on_batch(relation, batch)
            if i >= late_from:
                scanned += counters.tuples_scanned - before
                tuples += sum(abs(m) for _, m in batch.items())
    return scanned / tuples


@pytest.mark.parametrize("backend", ["rivm-batch", "rivm-specialized"])
@pytest.mark.parametrize("query", ["Q1", "Q6", "Q12", "Q3"])
def test_late_scans_per_tuple_do_not_grow_with_state(backend, query):
    at_s = _late_scans_per_tuple(backend, query, ORDERS_AT_S)
    at_4s = _late_scans_per_tuple(backend, query, 4 * ORDERS_AT_S)
    assert at_s > 0
    assert at_4s <= MAX_GROWTH * at_s, (
        f"{query} on {backend}: {at_s:.2f} -> {at_4s:.2f} tuples scanned "
        f"per input tuple from S to 4S ({at_4s / at_s:.2f}x)"
    )
