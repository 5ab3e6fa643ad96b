"""Design-choice ablations — benches beyond the paper's figures that
isolate each of the system's key mechanisms.

* domain extraction (Section 3.2.2): without it, nested-aggregate
  deltas use the recompute-twice rule;
* batch pre-aggregation (Section 3.3): the mechanism behind the
  Figure 7 right panel;
* index specialization (Section 5.2.1): "the benefit of creating
  these indexes greatly outperforms their maintenance overheads";
* compile-once pipelines: without lowering, every statement of every
  batch re-interprets the algebra AST;
* cross-view sharing: without it, overlapping views each run their
  own maintenance program;
* the write-ahead log: what durability costs on ingest, and how
  recovery time grows with the log tail.

Each ablation also asserts result equality between the ON and OFF
variants, so the knobs are semantics-preserving by construction.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.durability import DurableViewService
from repro.harness import (
    compilation_ablation,
    domain_extraction_ablation,
    format_table,
    preaggregation_ablation,
    specialization_ablation,
)
from repro.ring import GMR
from repro.service import ViewService
from repro.workloads import MICRO_QUERIES, TPCH_QUERIES

from benchmarks.conftest import LOCAL_SF


@pytest.mark.paper_experiment("ablation")
@pytest.mark.parametrize(
    "name,floor",
    [("M2", 1.5), ("M3", 1.2)],
)
def test_ablation_domain_extraction_micro(benchmark, name, floor):
    """Unguarded correlated nested aggregates (the paper's Examples
    3.1/3.2): domain-restricted deltas beat the recompute-twice rule.
    Run warm — the advantage is |batch domain| vs |state|."""

    def run():
        return domain_extraction_ablation(
            MICRO_QUERIES[name],
            batch_size=20,
            workload="micro",
            sf=0.3,
            max_batches=6,
            warm_fraction=0.9,
        )

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ("query", "knob", "ON vinstr", "OFF vinstr", "speedup"),
            [
                (
                    r.query,
                    r.knob,
                    r.on_virtual_instructions,
                    r.off_virtual_instructions,
                    round(r.virtual_speedup, 2),
                )
            ],
            title=f"Ablation — domain extraction on {name}",
        )
    )
    assert r.virtual_speedup > floor, (
        f"{name}: domain extraction did not pay off ({r.virtual_speedup:.2f}x)"
    )


@pytest.mark.paper_experiment("ablation")
@pytest.mark.parametrize("name", ["Q17", "Q22"])
def test_ablation_domain_extraction_tpch_not_harmful(name):
    """On TPC-H nested-aggregate queries the highly selective static
    predicates (e.g. Q17's brand/container) already prune the outer
    scan before the nested aggregate is reached, masking the domain
    advantage at bench scale; the revised rule must at least not
    regress materially."""
    r = domain_extraction_ablation(
        TPCH_QUERIES[name], batch_size=50, sf=LOCAL_SF, max_batches=20,
        warm_fraction=0.5,
    )
    assert r.virtual_speedup > 0.5, (
        f"{name}: domain extraction regressed {1/r.virtual_speedup:.1f}x"
    )


@pytest.mark.paper_experiment("ablation")
def test_ablation_batch_preaggregation_pays_off(benchmark):
    """Filtering/join-pipeline cases: pre-aggregation wins.

    Q19's static predicates prune the batch during pre-aggregation;
    M1's batch collapses onto the small join-key domain.  (The paper's
    Q20/Q22-style multi-thousand-x gains rely on per-tuple generated
    code with no cross-tuple sharing; our reference evaluator's
    statement-level CSE already harvests the key-dedup saving, so the
    on/off gap here is the *residual* benefit.)
    """

    def run():
        q19 = preaggregation_ablation(
            TPCH_QUERIES["Q19"], batch_size=500, sf=LOCAL_SF, max_batches=12
        )
        m1 = preaggregation_ablation(
            MICRO_QUERIES["M1"], batch_size=500, workload="micro",
            sf=0.5, max_batches=10,
        )
        return q19, m1

    q19, m1 = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ("query", "ON vinstr", "OFF vinstr", "speedup"),
            [
                (
                    r.query,
                    r.on_virtual_instructions,
                    r.off_virtual_instructions,
                    round(r.virtual_speedup, 2),
                )
                for r in (q19, m1)
            ],
            title="Ablation — batch pre-aggregation",
        )
    )
    assert q19.virtual_speedup > 1.1, "Q19: pre-aggregation did not pay off"
    assert m1.virtual_speedup > 1.1, "M1: pre-aggregation did not pay off"


@pytest.mark.paper_experiment("ablation")
@pytest.mark.parametrize("name", ["Q4", "Q22"])
def test_ablation_preaggregation_overhead_case(name):
    """Key-preserving queries (Section 3.3): pre-aggregation cannot
    collapse the batch, so the paper observes pure materialization
    overhead.  The overhead must stay bounded (no large regression) and
    no large win should appear out of nowhere."""
    r = preaggregation_ablation(
        TPCH_QUERIES[name], batch_size=500, sf=LOCAL_SF, max_batches=12
    )
    assert 0.5 < r.virtual_speedup < 5.0, (
        f"{name}: unexpected pre-aggregation effect "
        f"({r.virtual_speedup:.2f}x)"
    )


@pytest.mark.paper_experiment("ablation")
@pytest.mark.parametrize("name", ["Q3", "Q10"])
def test_ablation_index_specialization(benchmark, name):
    """Slice-heavy queries: automatic non-unique indexes beat
    full-scan fallback."""

    def run():
        return specialization_ablation(
            TPCH_QUERIES[name], batch_size=200, sf=LOCAL_SF, max_batches=15
        )

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ("query", "ON vinstr", "OFF vinstr", "speedup"),
            [
                (
                    r.query,
                    r.on_virtual_instructions,
                    r.off_virtual_instructions,
                    round(r.virtual_speedup, 2),
                )
            ],
            title=f"Ablation — index specialization on {name}",
        )
    )
    assert r.virtual_speedup > 1.0, f"{name}: indexes saved nothing"


#: the compiled path must be no slower than the interpreter; the
#: tolerance absorbs scheduler noise without letting a real
#: regression through
COMPILED_NOISE_TOLERANCE = 1.10


@pytest.mark.paper_experiment("ablation")
def test_ablation_compiled_pipelines():
    """Compile-once lowering vs the interpreted evaluator running the
    identical maintenance program: same view (asserted by the runner),
    and the compiled path is no slower, best of three paired runs."""
    rows = []
    for name in ("Q1", "Q6", "Q17"):
        r = max(
            (
                compilation_ablation(
                    TPCH_QUERIES[name], batch_size=100, sf=LOCAL_SF,
                    max_batches=25,
                )
                for _ in range(3)
            ),
            key=lambda r: r.wall_speedup,
        )
        rows.append((
            name, round(r.off_elapsed_s, 4), round(r.on_elapsed_s, 4),
            round(r.wall_speedup, 2),
        ))
        assert r.wall_speedup >= 1 / COMPILED_NOISE_TOLERANCE, (
            f"{name}: compiled path slower than interpreted "
            f"({r.on_elapsed_s:.4f}s vs {r.off_elapsed_s:.4f}s)"
        )
    print()
    print(format_table(
        ("query", "interpreted (s)", "compiled (s)", "speedup"),
        rows,
        title="Ablation — compile-once pipelines",
    ))


SHARING_CATALOG = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "d")}

#: three join+aggregate shapes as alias templates: distinct aliases per
#: view exercise the canonicalisation pass, not string identity
SHARED_SHAPES = [
    "SELECT {x}.a, COUNT(*) FROM R {x}, S {y} "
    "WHERE {x}.b = {y}.b GROUP BY {x}.a",
    "SELECT {x}.b, COUNT(*) FROM S {y}, R {x} "
    "WHERE {x}.b = {y}.b GROUP BY {x}.b",
    "SELECT {y}.d, COUNT(*) FROM R {x}, T {y} "
    "WHERE {x}.a = {y}.a GROUP BY {y}.d",
]


def _sharing_stream(n_batches, rows):
    """Insert+delete batches over R/S/T: a quarter of the rows retract
    a live tuple of the batch's relation."""
    rng = random.Random(1234)
    domains = {
        "R": lambda: (rng.randint(1, 50), rng.randint(1, 80)),
        "S": lambda: (rng.randint(1, 80), rng.randint(1, 10)),
        "T": lambda: (rng.randint(1, 50), rng.randint(1, 20)),
    }
    live = {r: [] for r in domains}
    out = []
    for _ in range(n_batches):
        relation = rng.choice(sorted(domains))
        data: dict = {}
        for _ in range(rows):
            if live[relation] and rng.random() < 0.25:
                t = live[relation].pop(rng.randrange(len(live[relation])))
                data[t] = data.get(t, 0) - 1
            else:
                t = domains[relation]()
                live[relation].append(t)
                data[t] = data.get(t, 0) + 1
        out.append((relation, GMR({t: m for t, m in data.items() if m})))
    return out


def _sharing_run(n_views, stream, sharing):
    """(ingest seconds, maintenance programs, snapshots) for one arm:
    ~90% re-spellings of the shared shapes, ~10% unique queries."""
    service = ViewService(catalog=SHARING_CATALOG, sharing=sharing)
    names = [f"view_{i}" for i in range(n_views)]
    for i, name in enumerate(names):
        if i % 10 == 9:  # unique: a literal no other view uses
            sql = f"SELECT a, COUNT(*) FROM R WHERE R.b > {i} GROUP BY a"
        else:
            sql = SHARED_SHAPES[i % 3].format(x=f"x{i}", y=f"y{i}")
        service.create_view(name, sql)
        service.subscribe(name, lambda event: None)
    start = time.perf_counter()
    for relation, batch in stream:
        service.on_batch(relation, GMR(dict(batch.data)))
    elapsed = time.perf_counter() - start
    snapshots = {name: service.snapshot(name) for name in names}
    return elapsed, service.maintenance_programs(), snapshots


@pytest.mark.paper_experiment("ablation")
def test_ablation_view_sharing():
    """100 views, ~90% overlapping: with sharing each distinct shape is
    maintained once, so ingest is at least 3x faster than without."""
    stream = _sharing_stream(n_batches=40, rows=40)
    # Interleaved best-of-three: drift hits both arms alike.
    runs = [_sharing_run(100, stream, sharing)
            for _ in range(3) for sharing in (True, False)]
    shared = min(runs[0::2], key=lambda run: run[0])
    unshared = min(runs[1::2], key=lambda run: run[0])
    speedup = unshared[0] / shared[0]
    print()
    print(format_table(
        ("views", "programs (shared/unshared)", "shared (s)",
         "unshared (s)", "speedup"),
        [(100, f"{shared[1]}/{unshared[1]}", round(shared[0], 4),
          round(unshared[0], 4), round(speedup, 2))],
        title="Ablation — cross-view sharing (~90% overlap)",
    ))
    assert shared[2] == unshared[2], "sharing changed a view"
    assert shared[1] < unshared[1]
    assert speedup >= 3.0, f"sharing gave only {speedup:.2f}x at 100 views"


@pytest.mark.paper_experiment("ablation")
def test_ablation_write_ahead_log(tmp_path):
    """The WAL is pure overhead: no fsync policy changes the view, the
    unsynced log stays within 10x of plain ingest, and recovery replays
    its tail in linear time."""
    catalog = {"R": ("a", "b")}
    sql = "SELECT R.a, COUNT(*) FROM R GROUP BY R.a"
    rng = random.Random(1789)
    batches = [
        GMR({(rng.randint(1, 500), rng.randint(1, 10_000)): 1
             for _ in range(20)})
        for _ in range(800)
    ]

    def ingest(service, n):
        service.create_view("cnt", sql)
        start = time.perf_counter()
        for batch in batches[:n]:
            service.on_batch("R", GMR(dict(batch.data)))
        service.drain()
        return time.perf_counter() - start, service.snapshot("cnt")

    plain_s, expected = ingest(ViewService(catalog=catalog), 600)
    timings = {"no-wal": plain_s}
    for policy in ("off", "interval", "always"):
        service = DurableViewService(
            str(tmp_path / f"ingest-{policy}"), catalog=catalog,
            fsync=policy,
        )
        timings[f"wal-{policy}"], snapshot = ingest(service, 600)
        service.close()
        assert snapshot == expected, f"fsync={policy} changed the view"

    per_batch = []
    for tail in (100, 400, 800):
        wal_dir = str(tmp_path / f"recover-{tail}")
        service = DurableViewService(wal_dir, catalog=catalog, fsync="off")
        _, expected = ingest(service, tail)
        service.close()
        start = time.perf_counter()
        recovered = DurableViewService(wal_dir, catalog=catalog, fsync="off")
        per_batch.append((time.perf_counter() - start) / tail)
        assert recovered.seq == tail
        assert recovered.recovered["replayed"] == tail
        assert recovered.snapshot("cnt") == expected
        recovered.close()

    print()
    print(format_table(
        ("mode", "seconds", "vs no-wal"),
        [(m, round(t, 3), round(t / plain_s, 2)) for m, t in timings.items()],
        title="Ablation — write-ahead log (600 batches x 20 rows)",
    ))
    assert timings["wal-off"] <= 10 * plain_s, timings
    assert max(per_batch) <= 5 * min(per_batch), per_batch
