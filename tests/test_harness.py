"""The experiment harness: stream preparation, engine factories, and
the experiment runners (scaled far down — these are correctness tests,
the benchmarks measure)."""

import pytest

from repro.harness import (
    STRATEGIES,
    cache_locality_run,
    format_series,
    format_table,
    jobs_stages_table,
    make_engine,
    measure_throughput,
    normalized_sweep,
    prepare_stream,
    run_engine,
    strategy_matrix,
    weak_scaling,
)
from repro.harness.scaling import optimization_ablation, strong_scaling
from repro.workloads import MICRO_QUERIES, TPCH_QUERIES


# ----------------------------------------------------------------------
# prepare_stream
# ----------------------------------------------------------------------


def test_prepare_stream_batches_only_updatable():
    spec = TPCH_QUERIES["Q3"]
    prepared = prepare_stream(spec, 20, sf=0.0002)
    streamed = {rel for rel, _ in prepared.batches}
    assert streamed <= spec.updatable
    assert prepared.n_tuples > 0


def test_prepare_stream_static_holds_dimensions():
    spec = TPCH_QUERIES["Q3"]  # NATION etc. static
    prepared = prepare_stream(spec, 20, sf=0.0002)
    for name in prepared.static.views:
        assert name not in spec.updatable or prepared.static.views[name]


def test_prepare_stream_batch_sizes():
    spec = TPCH_QUERIES["Q6"]
    prepared = prepare_stream(spec, 25, sf=0.0002)
    sizes = [
        sum(abs(m) for m in batch.data.values())
        for _, batch in prepared.batches
    ]
    assert all(s <= 25 for s in sizes)
    assert sizes[:-1] == [25] * (len(sizes) - 1)


def test_prepare_stream_max_batches():
    spec = TPCH_QUERIES["Q6"]
    prepared = prepare_stream(spec, 10, sf=0.0002, max_batches=3)
    assert len(prepared.batches) == 3


def test_prepare_stream_warm_fraction_moves_rows_to_static():
    spec = TPCH_QUERIES["Q6"]
    cold = prepare_stream(spec, 50, sf=0.0002, warm_fraction=0.0)
    warm = prepare_stream(spec, 50, sf=0.0002, warm_fraction=0.8)
    assert warm.n_tuples < cold.n_tuples
    assert len(warm.static.get_view("LINEITEM")) > 0
    # Warm rows + streamed rows = all rows.
    streamed_warm = sum(
        sum(abs(m) for m in b.data.values()) for _, b in warm.batches
    )
    assert len(warm.static.get_view("LINEITEM")) + streamed_warm == (
        cold.n_tuples
    )


def test_prepare_stream_rejects_unknown_workload():
    with pytest.raises(ValueError):
        prepare_stream(TPCH_QUERIES["Q6"], 10, workload="nope")


def test_fresh_static_is_independent():
    spec = TPCH_QUERIES["Q3"]
    prepared = prepare_stream(spec, 20, sf=0.0002)
    a = prepared.fresh_static()
    b = prepared.fresh_static()
    a.get_view("NATION").add_tuple((99, 99), 1)
    assert a.get_view("NATION") != b.get_view("NATION")


# ----------------------------------------------------------------------
# Engines and timed runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_make_engine_all_strategies(strategy):
    engine = make_engine(TPCH_QUERIES["Q6"], strategy)
    assert hasattr(engine, "on_batch")
    assert hasattr(engine, "snapshot")


def test_make_engine_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        make_engine(TPCH_QUERIES["Q6"], "magic")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_all_strategies_agree_on_q6(strategy):
    """Every strategy computes the same view over the same stream."""
    spec = TPCH_QUERIES["Q6"]
    prepared = prepare_stream(spec, 30, sf=0.0002)
    reference = run_engine(prepared, "reeval").result
    outcome = run_engine(prepared, strategy)
    assert outcome.result == reference, strategy


def test_run_engine_reports_tuples_and_time():
    spec = TPCH_QUERIES["Q6"]
    prepared = prepare_stream(spec, 30, sf=0.0002)
    outcome = run_engine(prepared, "rivm-batch")
    assert outcome.n_tuples == prepared.n_tuples
    assert outcome.elapsed_s > 0
    assert outcome.virtual_instructions > 0
    assert outcome.throughput > 0
    assert outcome.virtual_throughput > 0


# ----------------------------------------------------------------------
# Local experiment runners
# ----------------------------------------------------------------------


def test_measure_throughput_single_mode():
    r = measure_throughput(
        TPCH_QUERIES["Q6"], "rivm-single", None, sf=0.0002, max_batches=5
    )
    assert r.batch_size is None
    assert r.batch_label == "Single"
    assert r.throughput > 0


def test_normalized_sweep_keys_and_positivity():
    series = normalized_sweep(
        TPCH_QUERIES["Q6"], batch_sizes=(1, 50), sf=0.0001, max_batches=10
    )
    assert set(series) == {1, 50}
    assert all(v > 0 for v in series.values())


def test_strategy_matrix_shape():
    rows = strategy_matrix(
        TPCH_QUERIES["Q6"],
        batch_sizes=(10,),
        strategies=("reeval", "rivm-batch"),
        sf=0.0001,
        max_batches=5,
    )
    labels = [(r.strategy, r.batch_label) for r in rows]
    assert labels == [
        ("rivm-single", "Single"),
        ("reeval", "10"),
        ("rivm-batch", "10"),
    ]


# ----------------------------------------------------------------------
# Cache-locality runner
# ----------------------------------------------------------------------


def test_cache_locality_run_counts():
    row = cache_locality_run(
        TPCH_QUERIES["Q3"], 50, sf=0.0002, max_batches=5
    )
    assert row.batch_label == "50"
    assert row.virtual_instructions > 0
    assert row.l1_refs >= row.l1_misses >= 0
    assert row.llc_refs >= row.llc_misses >= 0
    assert 0.0 <= row.l1_miss_rate <= 1.0
    assert 0.0 <= row.llc_miss_rate <= 1.0


def test_cache_locality_llc_refs_are_l1_misses():
    """Two-level inclusive simulation: LLC sees only L1 misses."""
    row = cache_locality_run(
        TPCH_QUERIES["Q3"], 25, sf=0.0002, max_batches=5
    )
    assert row.llc_refs == row.l1_misses


# ----------------------------------------------------------------------
# Distributed experiment runners
# ----------------------------------------------------------------------


def test_weak_scaling_returns_one_point_per_worker_count():
    points = weak_scaling(
        TPCH_QUERIES["Q6"], workers=(2, 4), tuples_per_worker=30,
        sf=0.0005, max_batches=2,
    )
    assert [p.n_workers for p in points] == [2, 4]
    assert [p.batch_size for p in points] == [60, 120]
    assert all(p.median_latency_s > 0 for p in points)


def test_strong_scaling_series_per_batch_size():
    series = strong_scaling(
        TPCH_QUERIES["Q6"], workers=(2, 4), batch_sizes=(50, 100),
        sf=0.0005, max_batches=2,
    )
    assert set(series) == {50, 100}
    for points in series.values():
        assert [p.n_workers for p in points] == [2, 4]


def test_optimization_ablation_levels_and_ordering():
    out = optimization_ablation(
        TPCH_QUERIES["Q3"], workers=(4,), batch_size=200,
        sf=0.0005, max_batches=2,
    )
    assert set(out) == {"O0-naive", "O1-simplify", "O2-fusion", "O3-cse-dce"}
    o0 = out["O0-naive"][0].median_latency_s
    o3 = out["O3-cse-dce"][0].median_latency_s
    assert o3 <= o0 * 1.001


def test_jobs_stages_table_covers_all_queries():
    rows = jobs_stages_table(
        {k: TPCH_QUERIES[k] for k in ("Q1", "Q6", "Q3")}
    )
    names = [r.query for r in rows]
    assert names == ["Q1", "Q3", "Q6"]
    for r in rows:
        assert r.jobs >= 1
        assert r.stages >= 1
        assert r.per_trigger


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------


def test_format_table_alignment_and_title():
    out = format_table(
        ("a", "bb"), [(1, 2.5), (33, 0.0001)], title="T"
    )
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_series():
    out = format_series("s", [(1, 2.0), (2, 4.0)], x_label="n", y_label="v")
    assert out.splitlines()[0] == "s:"
    assert "n=1" in out and "v=4" in out
