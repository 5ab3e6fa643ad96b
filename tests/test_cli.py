"""The command-line interface."""

import pytest

from repro.cli import main


def test_list_queries(capsys):
    assert main(["list-queries"]) == 0
    out = capsys.readouterr().out
    assert "Q3" in out
    assert "tpcds" in out
    assert "M2" in out


def test_compile_workload_query(capsys):
    assert main(["compile", "Q6"]) == 0
    out = capsys.readouterr().out
    assert "ON UPDATE LINEITEM" in out
    assert "materialized views" in out


def test_compile_with_preagg(capsys):
    assert main(["compile", "Q6", "--preagg"]) == 0
    out = capsys.readouterr().out
    assert "_PRE" in out


def test_compile_adhoc_sql(capsys):
    rc = main(
        ["compile", "--sql", "SELECT COUNT(*) FROM R, S WHERE R.b = S.b"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ON UPDATE R" in out
    assert "ON UPDATE S" in out


def test_run_reports_throughput(capsys):
    rc = main(
        [
            "run", "Q6", "--batch-size", "50", "--sf", "0.0002",
            "--max-batches", "4",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "tuples/s" in out
    assert "rivm-batch" in out


def test_run_single_tuple_mode(capsys):
    rc = main(
        [
            "run", "Q6", "--backend", "rivm-single", "--batch-size", "0",
            "--sf", "0.0002", "--max-batches", "3",
        ]
    )
    assert rc == 0
    assert "Single" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_rejects_non_positive_workers(workers):
    with pytest.raises(SystemExit, match=r"--workers must be at least 1"):
        main(
            [
                "run", "Q6", "--backend", "multiproc",
                "--workers", workers, "--sf", "0.0002",
            ]
        )


def test_serve_rejects_non_positive_workers():
    with pytest.raises(SystemExit, match=r"--workers must be at least 1"):
        main(
            [
                "serve", "M1", "--workload", "micro",
                "--backends", "multiproc", "--workers", "0",
            ]
        )


def test_run_multiproc_data_plane_flag(capsys):
    rc = main(
        [
            "run", "M1", "--workload", "micro", "--backend", "multiproc",
            "--workers", "2", "--data-plane", "shm", "--sf", "0.02",
            "--max-batches", "3", "--batch-size", "20",
        ]
    )
    assert rc == 0
    assert "multiproc" in capsys.readouterr().out


def test_run_unknown_backend_exits():
    with pytest.raises(SystemExit, match="unknown backend"):
        main(["run", "Q6", "--backend", "warp-drive"])


def test_serve_hosts_multiple_views(capsys):
    rc = main(
        [
            "serve", "Q6", "M2",
            "--sql", "RS=SELECT COUNT(*) FROM R, S WHERE R.b = S.b",
            "--backends", "rivm-batch,reeval",
            "--batch-size", "30", "--workload", "micro",
            "--sf", "0.002", "--max-batches", "8",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "serving 3 views over one stream" in captured.out
    assert "RS" in captured.out
    assert "tuples/s routed" in captured.out
    # Q6 streams LINEITEM, which the micro workload never generates:
    # the run succeeds but warns that the view is starved.
    assert "will stay empty" in captured.err
    assert "'Q6'" in captured.err


def test_serve_requires_a_view():
    with pytest.raises(SystemExit, match="at least one view"):
        main(["serve"])


def test_serve_rejects_malformed_sql_option():
    with pytest.raises(SystemExit, match="NAME=SELECT"):
        main(["serve", "--sql", "no-equals-sign"])


def test_serve_rejects_unknown_backend():
    with pytest.raises(SystemExit, match="unknown backend"):
        main(["serve", "Q6", "--backends", "warp-drive"])


def test_serve_rejects_empty_backend_list():
    with pytest.raises(SystemExit, match="at least one backend"):
        main(["serve", "Q6", "--backends", ","])


def test_serve_rejects_duplicate_view_names():
    with pytest.raises(SystemExit, match="duplicate view name"):
        main(["serve", "Q6", "Q6"])


def test_serve_prefers_requested_workload_for_colliding_names(capsys):
    """Q3 exists in both TPC-H and TPC-DS; --workload tpcds must bind
    the TPC-DS one (whose stream actually feeds it)."""
    rc = main(
        [
            "serve", "Q3", "--workload", "tpcds", "--batch-size", "30",
            "--sf", "0.0005", "--max-batches", "6",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "STORE_SALES" in out          # TPC-DS relations, not LINEITEM
    import re

    n_tuples = int(re.search(r"(\d+) streamed tuples", out).group(1))
    assert n_tuples > 0


def test_run_async_end_to_end(capsys):
    rc = main(
        [
            "run", "M1", "--workload", "micro", "--async",
            "--policy", "adaptive", "--max-batch", "40",
            "--sf", "0.01", "--max-batches", "4",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "async:rivm-batch" in out
    assert "tuples/s" in out


def test_run_async_flags_reach_backend_factory(monkeypatch):
    """--async/--policy/--max-batch/--max-delay/--workers land in the
    backend name and backend_options handed to the harness."""
    from repro.harness import LocalResult

    seen = {}

    def fake_measure_throughput(spec, backend, batch_size, **kwargs):
        seen["backend"] = backend
        seen["kwargs"] = kwargs
        return LocalResult(
            query=spec.name, strategy=backend, batch_size=batch_size,
            throughput=1.0, virtual_throughput=1.0, n_tuples=1,
            elapsed_s=0.1,
        )

    monkeypatch.setattr(
        "repro.harness.measure_throughput", fake_measure_throughput
    )
    rc = main(
        [
            "run", "Q6", "--backend", "multiproc", "--workers", "3",
            "--async", "--policy", "delay", "--max-batch", "64",
            "--max-delay", "0.01",
        ]
    )
    assert rc == 0
    assert seen["backend"] == "async:multiproc"
    assert seen["kwargs"]["n_workers"] == 3
    assert seen["kwargs"]["policy"] == "delay"
    assert seen["kwargs"]["max_batch"] == 64
    assert seen["kwargs"]["max_delay_s"] == 0.01


def test_run_async_knobs_require_async_flag():
    with pytest.raises(SystemExit, match="--async"):
        main(["run", "Q6", "--policy", "adaptive"])
    with pytest.raises(SystemExit, match="--async"):
        main(["serve", "M1", "--workload", "micro", "--max-batch", "10"])


def test_run_accepts_explicit_async_backend_name(monkeypatch):
    """async:<backend> is a first-class --backend value: the async
    knobs apply without a redundant --async, and the name is never
    double-wrapped (even with --async given too)."""
    from repro.harness import LocalResult

    seen = {}

    def fake_measure_throughput(spec, backend, batch_size, **kwargs):
        seen["backend"] = backend
        seen["kwargs"] = kwargs
        return LocalResult(
            query=spec.name, strategy=backend, batch_size=batch_size,
            throughput=1.0, virtual_throughput=1.0, n_tuples=1,
            elapsed_s=0.1,
        )

    monkeypatch.setattr(
        "repro.harness.measure_throughput", fake_measure_throughput
    )
    assert main(["run", "Q6", "--backend", "async:reeval"]) == 0
    assert seen["backend"] == "async:reeval"
    assert "policy" not in seen["kwargs"]
    rc = main(
        [
            "run", "Q6", "--backend", "async:reeval", "--async",
            "--policy", "adaptive",
        ]
    )
    assert rc == 0
    assert seen["backend"] == "async:reeval"  # not async:async:reeval
    assert seen["kwargs"]["policy"] == "adaptive"
    assert main(
        ["run", "Q6", "--backend", "async:reeval", "--max-batch", "9"]
    ) == 0
    assert seen["kwargs"]["max_batch"] == 9  # implied by the name


def test_serve_async_flags_reach_view_defs(monkeypatch):
    """serve --async wraps every round-robin backend and forwards the
    ingestion options into each ViewDef."""
    from repro.harness import ServiceResult, ViewStats

    seen = {}

    def fake_measure_service_throughput(defs, batch_size, **kwargs):
        seen["defs"] = list(defs)
        return ServiceResult(
            views=[
                ViewStats(
                    name=d.name, backend=d.backend, streamed=("R",),
                    batches_applied=1, deltas_delivered=1,
                    snapshot_tuples=1,
                )
                for d in seen["defs"]
            ],
            n_tuples=1, routed_tuples=1, n_batches=1, elapsed_s=0.1,
        )

    monkeypatch.setattr(
        "repro.harness.measure_service_throughput",
        fake_measure_service_throughput,
    )
    rc = main(
        [
            "serve", "M1", "M2", "--workload", "micro",
            "--backends", "rivm-batch,reeval", "--workers", "2",
            "--async", "--policy", "fixed", "--max-batch", "32",
        ]
    )
    assert rc == 0
    assert [d.backend for d in seen["defs"]] == [
        "async:rivm-batch", "async:reeval",
    ]
    for d in seen["defs"]:
        assert d.options["policy"] == "fixed"
        assert d.options["max_batch"] == 32
        assert d.options["n_workers"] == 2


def test_serve_mixed_async_list_scopes_knobs(monkeypatch):
    """An explicitly async backend in a mixed --backends list implies
    the knobs for *its* views only; synchronous backends stay
    synchronous and unconfigured."""
    from repro.harness import ServiceResult, ViewStats

    seen = {}

    def fake_measure_service_throughput(defs, batch_size, **kwargs):
        seen["defs"] = list(defs)
        return ServiceResult(
            views=[
                ViewStats(
                    name=d.name, backend=d.backend, streamed=("R",),
                    batches_applied=1, deltas_delivered=1,
                    snapshot_tuples=1,
                )
                for d in seen["defs"]
            ],
            n_tuples=1, routed_tuples=1, n_batches=1, elapsed_s=0.1,
        )

    monkeypatch.setattr(
        "repro.harness.measure_service_throughput",
        fake_measure_service_throughput,
    )
    rc = main(
        [
            "serve", "M1", "M2", "--workload", "micro",
            "--backends", "async:rivm-batch,rivm-single",
            "--max-batch", "64",
        ]
    )
    assert rc == 0
    first, second = seen["defs"]
    assert first.backend == "async:rivm-batch"
    assert first.options["max_batch"] == 64
    assert second.backend == "rivm-single"
    assert "max_batch" not in second.options


def test_serve_async_end_to_end(capsys):
    rc = main(
        [
            "serve", "M1", "M2", "--workload", "micro", "--async",
            "--max-batch", "25", "--batch-size", "30",
            "--sf", "0.002", "--max-batches", "8",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "async:rivm-batch" in out
    assert "serving 2 views over one stream" in out


def test_distributed_plan(capsys):
    assert main(["distributed", "Q3"]) == 0
    out = capsys.readouterr().out
    assert "BLOCK" in out
    assert "distributed program" in out


def test_distributed_sweep(capsys):
    rc = main(
        [
            "distributed", "Q6", "--workers", "2,4",
            "--tuples-per-worker", "30", "--sf", "0.0005",
            "--max-batches", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "weak scaling" in out


def test_advise(capsys):
    assert main(["advise", "Q3"]) == 0
    out = capsys.readouterr().out
    assert "default" in out
    assert "driver-only" in out


def test_unknown_query_exits():
    with pytest.raises(SystemExit):
        main(["compile", "NOPE"])


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
