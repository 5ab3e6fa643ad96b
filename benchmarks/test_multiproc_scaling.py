"""Process-parallel scaling: multiproc workers vs one compiled process.

Throughput of the `multiproc` backend at 1/2/4 workers on TPC-H
Q1/Q6/Q17, on **both data planes** (``pickle``: whole GMRs pickled
through pipes; ``shm``: columnar blocks in shared memory, descriptors
through pipes), against the single-process compiled engine
(`rivm-batch`) on the identical stream.  Results are asserted identical
across every configuration — the backend is a distribution of the same
maintenance program, not an approximation.

Two throughputs are reported per configuration:

* ``wall`` — measured wall-clock.  Meaningful only when the machine
  has at least ``workers`` free cores; CI boxes usually don't.
* ``scaleout`` — the critical-path estimate from
  :class:`~repro.parallel.ParallelMetrics`: wall time minus the
  oversubscription penalty of each distributed block, computed from
  the workers' self-reported per-block CPU times on their real
  partitions.  This is the number a genuinely parallel deployment
  would see, and the scaling assertion below uses it (the repo's
  precedent: virtual instructions for noise-free ratios, the simulated
  cluster for modeled latency).  Coordinator-side data movement counts
  *fully* in both numbers — which is exactly what the shm plane
  attacks.

The ROADMAP targets (Q1 scaleout >= 3.2x at 4 workers; 4-worker wall
throughput at least single-process on Q1/Q6) are recorded in the
payload with ``met`` flags; the wall-parity target is hard-asserted
only where it is physically observable (cpu_count >= 4 — on a 1-core
runner all four workers time-share one core, so wall clock measures
the OS scheduler, not the data plane).
"""

from __future__ import annotations

import os

import pytest

from repro.exec import create_backend
from repro.harness import (
    format_table,
    prepare_stream,
    run_engine,
)
from repro.workloads import TPCH_QUERIES

WORKER_COUNTS = (1, 2, 4)
DATA_PLANES = ("pickle", "shm")

#: per-query stream parameters: Q17's distributed plan is repartition-
#: heavy (nested aggregate over co-partitioned views), so its stream is
#: kept small to bound bench runtime on 1-core boxes
PARAMS = {
    "Q1": dict(batch_size=4000, sf=0.015, max_batches=4),
    "Q6": dict(batch_size=4000, sf=0.015, max_batches=4),
    "Q17": dict(batch_size=300, sf=0.001, max_batches=3),
}

#: ROADMAP targets for the shm plane at 4 workers
TARGET_Q1_SCALEOUT = 3.2
WALL_PARITY_QUERIES = ("Q1", "Q6")


@pytest.mark.paper_experiment("process-parallel scale-out")
def test_multiproc_scaling_vs_single_process():
    rows = []
    payload = {
        "bench": "multiproc_scaling",
        "unit": "tuples_per_second",
        "throughput_semantics": (
            "scaleout = critical-path estimate (wall minus per-block "
            "oversubscription penalty from worker-reported CPU times); "
            "wall = raw wall clock, core-count limited"
        ),
        "worker_counts": list(WORKER_COUNTS),
        "data_planes": list(DATA_PLANES),
        "queries": {},
    }
    best_shm_speedup = 0.0
    for name, params in PARAMS.items():
        prepared = prepare_stream(
            TPCH_QUERIES[name],
            params["batch_size"],
            sf=params["sf"],
            max_batches=params["max_batches"],
        )
        n = prepared.n_tuples
        baseline = run_engine(prepared, "rivm-batch")
        entry = {
            "params": params,
            "n_tuples": n,
            "single_process_tps": baseline.throughput,
            "planes": {},
        }
        reference = baseline.result
        for plane in DATA_PLANES:
            plane_entry = {"workers": {}}
            scaleout_at = {}
            wall_at = {}
            for w in WORKER_COUNTS:
                backend = create_backend(
                    "multiproc", prepared.spec, n_workers=w,
                    data_plane=plane,
                )
                try:
                    backend.initialize(prepared.fresh_static())
                    for relation, batch in prepared.batches:
                        backend.on_batch(relation, batch)
                    assert backend.snapshot() == reference, (
                        f"{name}@{w} workers ({plane}) diverged from the "
                        "single-process engine"
                    )
                    m = backend.metrics
                    wall_at[w] = n / m.total_wall_s
                    scaleout_at[w] = n / m.total_scaleout_s
                    plane_entry["workers"][str(w)] = {
                        "wall_tps": wall_at[w],
                        "scaleout_tps": scaleout_at[w],
                        "balance": m.balance(),
                    }
                finally:
                    backend.close()
            speedup = scaleout_at[4] / scaleout_at[1]
            plane_entry["scaleout_speedup_4w_vs_1w"] = speedup
            plane_entry["wall_tps_4w_over_single"] = (
                wall_at[4] / baseline.throughput
            )
            entry["planes"][plane] = plane_entry
            if plane == "shm":
                best_shm_speedup = max(best_shm_speedup, speedup)
            rows.append(
                (
                    name,
                    plane,
                    f"{baseline.throughput:,.0f}",
                    *(f"{scaleout_at[w]:,.0f}" for w in WORKER_COUNTS),
                    f"{speedup:.2f}x",
                    f"{wall_at[4]:,.0f}",
                )
            )
        payload["queries"][name] = entry

    shm_q1 = payload["queries"]["Q1"]["planes"]["shm"]
    targets = {
        "q1_shm_scaleout_speedup_4w": {
            "target": TARGET_Q1_SCALEOUT,
            "achieved": shm_q1["scaleout_speedup_4w_vs_1w"],
            "met": shm_q1["scaleout_speedup_4w_vs_1w"] >= TARGET_Q1_SCALEOUT,
        },
        "wall_parity_4w": {
            "target": "wall_tps(4w, shm) >= single_process_tps on Q1/Q6",
            "observable": (os.cpu_count() or 1) >= 4,
            "achieved": {
                q: payload["queries"][q]["planes"]["shm"][
                    "wall_tps_4w_over_single"
                ]
                for q in WALL_PARITY_QUERIES
            },
        },
    }
    payload["roadmap_targets"] = targets
    payload["best_shm_scaleout_speedup_4w_vs_1w"] = best_shm_speedup
    print()
    print(
        format_table(
            ("query", "plane", "1-proc t/s", "w1 t/s", "w2 t/s", "w4 t/s",
             "4w/1w", "w4 wall t/s"),
            rows,
            title="process-parallel scale-out (critical-path throughput)",
        )
    )

    # Scaling must come from the parallelism, not the plane: the
    # critical-path speedup is CPU-count independent, so it is asserted
    # everywhere.
    assert best_shm_speedup > 1.0, (
        "4 shm workers were no faster than 1 on every query "
        f"(best {best_shm_speedup:.2f}x)"
    )
    assert targets["q1_shm_scaleout_speedup_4w"]["met"], (
        "ROADMAP target missed: Q1 shm scaleout speedup at 4 workers is "
        f"{shm_q1['scaleout_speedup_4w_vs_1w']:.2f}x < "
        f"{TARGET_Q1_SCALEOUT}x"
    )
    # The shm plane exists to beat pickle where data movement dominates:
    # compare like against like at 4 workers on the big-batch queries.
    for q in WALL_PARITY_QUERIES:
        shm_wall = payload["queries"][q]["planes"]["shm"]["workers"]["4"][
            "wall_tps"
        ]
        pickle_wall = payload["queries"][q]["planes"]["pickle"]["workers"][
            "4"
        ]["wall_tps"]
        assert shm_wall >= pickle_wall * 0.9, (
            f"{q}: shm wall throughput at 4 workers regressed vs pickle "
            f"({shm_wall:,.0f} vs {pickle_wall:,.0f} t/s)"
        )
    # Wall parity with single-process needs real cores to be visible.
    if (os.cpu_count() or 1) >= 4:
        for q in WALL_PARITY_QUERIES:
            ratio = payload["queries"][q]["planes"]["shm"][
                "wall_tps_4w_over_single"
            ]
            assert ratio >= 1.0, (
                f"{q}: 4-worker shm wall throughput below single-process "
                f"({ratio:.2f}x)"
            )
