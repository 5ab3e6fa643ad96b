"""One workload, one run, one JSON object of named metrics.

    python3 bench/run.py --workload inproc-tpch --seed 1 --seconds 20 --trace 0

starts a fresh system under test, streams the seeded sliding-window
workload through it for ``--seconds``, checks every view against the
interpreted ``repro.eval.Evaluator`` and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json`` as the last line of standard output.  The exit code
is non-zero when anything failed, any view differs from the reference,
or a validity guard refused the measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

T_COMMAND = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from driver import (  # noqa: E402 - needs the path set up above
    Phase,
    check_views,
    closed_loop,
    freshness_ms,
    median_over,
    open_loop,
    percentile,
)
from spans import Analysis, Recorder, install, layer_shares, sum_prefix  # noqa: E402
from sut import BenchError, Collector, make_workdir, remove_workdir  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: share of a traced run's ``--seconds`` spent on an untraced closed
#: loop, the base of ``obs.trace_overhead_share``
CALIBRATION_SHARE = 0.25
#: share of a served run's ``--seconds`` in the open loop (phase A)
OPEN_SHARE = 0.5

_clock = time.perf_counter


def environment(sut) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "processes": sut.n_processes,
    }


def _new_collector(workload, inject: str | None) -> Collector:
    return Collector(
        [v[0] for v in workload.views], workload.probe_views,
        drop_nth_delta=5 if inject == "drop-delta" else None,
        log_views=workload.log_views,
    )


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, report)``."""
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    seconds = float(args.seconds)
    stages: dict[str, float] = {"imports": _clock() - T_COMMAND}
    mark = _clock()

    def stage(name: str) -> None:
        nonlocal mark
        now = _clock()
        stages[name] = now - mark
        mark = now

    stream = workload.stream(args.seed)
    specs = workload.specs()
    stage("datagen")

    workroot = os.path.join(HERE, ".work")
    workdir = make_workdir(workroot)
    sut = None
    try:
        rec = counters = None
        untraced_tps = 0.0
        if traced:
            # Same commit, same stream, wrappers not yet installed: the
            # base the traced throughput is compared with.
            sut = workload.start(stream, _new_collector(workload, None),
                                 make_workdir(workdir), traced=False)
            calibration = closed_loop(
                sut, stream, 0, seconds * CALIBRATION_SHARE,
                tag="c", traced=False,
            )
            untraced_tps = median_over(
                calibration.slices, lambda s: s[2] / s[0]
            )
            sut.close()
            sut = None
            seconds *= 1.0 - CALIBRATION_SHARE
            stage("calibration")
            rec = Recorder("load")
            install(rec, workload.role)
            if workload.role == "inproc":
                from repro.metrics import Counters

                counters = Counters()

        setups = []
        for _ in range(1 if traced else SETUP_REPEATS):
            if sut is not None:
                sut.close()
            collector = _new_collector(workload, args.inject)
            t0 = _clock()
            sut = workload.start(stream, collector, make_workdir(workdir),
                                 traced, counters=counters)
            setups.append(_clock() - t0)
        stage("setups")
        first_batch_s = _clock() - T_COMMAND
        env = environment(sut)
        programs, shared_nodes = sut.programs(), sut.shared_nodes()
        scrape0 = sut.scrape() if traced else {}

        def timed(name, fn, *a, **kw):
            return (rec.wrap(name, fn) if traced else fn)(*a, **kw)

        phase_a = None
        if workload.open_rate is not None:
            phase_a = timed(
                "load.open", open_loop, sut, stream, 0, seconds * OPEN_SHARE,
                workload.open_rate, tag="a", traced=traced,
                snapshot_view=workload.snapshot_view,
            )
            phase_b = timed(
                "load.closed", closed_loop, sut, stream, phase_a.steps,
                seconds * (1.0 - OPEN_SHARE), tag="b", traced=traced,
                until=workload.align(sut),
            )
        else:
            phase_b = timed(
                "load.closed", closed_loop, sut, stream, 0, seconds,
                tag="b", traced=traced,
                snapshot_view=workload.snapshot_view,
            )
        stage("timed")
        steps_done = (phase_a.steps if phase_a else 0) + phase_b.steps
        peak_rss = sut.peak_rss_mb()
        scrape1 = sut.scrape() if traced else {}
        if traced:
            sut.collect_spans()  # before finish() may kill a server

        # Correctness: accumulated deltas == snapshot == reference.
        base = stream.base_after(
            steps_done, drop_chunk=args.inject == "drop-ref-batch"
        )
        wrong = check_views(sut.snapshot, specs, base, collector.acc)
        stage("check")
        extra, extra_attempted, extra_failed = workload.finish(
            sut, stream, steps_done, specs
        )
        stage("finish")
        dumps = sut.dumps
    finally:
        if sut is not None:
            sut.close()
        remove_workdir(workdir)

    phases = [p for p in (phase_a, phase_b) if p is not None]
    probe_phase = phase_a or phase_b
    fresh_slices = freshness_ms(collector, probe_phase)
    fresh = [v for s in fresh_slices for v in s]
    fresh_closed = [v for s in freshness_ms(collector, phase_b) for v in s]
    snapshots_s = [s for p in phases for s in p.snapshot_s]
    undelivered = collector.undelivered()
    attempted = (
        sum(p.batches + p.steps for p in phases)
        + len(snapshots_s) + sum(p.failed_snapshots for p in phases)
        + len(specs) + extra_attempted
    )
    failed = (
        sum(p.failed_sends + p.failed_snapshots for p in phases)
        + undelivered + len(wrong) + extra_failed
    )
    correct = not wrong and extra_failed == 0

    # Rates and percentiles are medians over ~1 s slices (driver.SLICE_S).
    throughput = median_over(phase_b.slices, lambda s: s[2] / s[0])
    end_to_end = {
        "throughput_tps": throughput,
        "cpu_us_per_tuple":
            median_over(phase_b.slices, lambda s: s[1] / s[2] * 1e6),
        "fresh_p50_ms": median_over(fresh_slices, lambda s: percentile(s, 50)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
    }
    samples = {
        "slices_closed": len(phase_b.slices),
        "slices_fresh": len(fresh_slices),
        "throughput_tps": phase_b.tuples,
        "cpu_us_per_tuple": phase_b.tuples,
        "fresh_p50_ms": len(fresh),
        "load.snapshot_p50_ms": len(snapshots_s),
        "setup_s": len(setups),
        "peak_rss_mb": sut.n_processes,
    }
    report = {
        "claim": None,  # the ledger's definition claims no gain
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": int(traced),
        "environment": env,
        "samples": samples,
        "setups_s": setups,
        "stages_s": stages,
        "command_to_first_batch_s": first_batch_s,
        "slices": {
            "closed": phase_b.slices,
            "fresh_p50_ms": [percentile(x, 50) for x in fresh_slices],
            "fresh_p90_ms": [percentile(x, 90) for x in fresh_slices],
            "snapshot_ms": [x * 1e3 for x in snapshots_s],
        },
        "wrong_views": wrong,
        "undelivered_probes": undelivered,
        "phases": {
            name: {"steps": p.steps, "tuples": p.tuples,
                   "elapsed_s": p.elapsed, "cpu_s": p.cpu_s}
            for name, p in (("open", phase_a), ("closed", phase_b))
            if p is not None
        },
    }
    if not traced:
        metrics = end_to_end
    else:
        sched = phase_a.sched_lag_s if phase_a else [0.0]
        metrics = {
            "compiler.programs": programs,
            "service.shared_nodes": shared_nodes,
            "eval.virtual_instructions":
                counters.virtual_instructions() if counters else 0,
            "load.tuples": sum(p.tuples for p in phases),
            "load.batches": sum(p.batches for p in phases),
            "load.post_p50_ms":
                percentile([s for p in phases for s in p.post_s], 50) * 1e3,
            "load.sched_lag_p99_ms": percentile(sched, 99) * 1e3,
            "load.fresh_p90_ms":
                median_over(fresh_slices, lambda s: percentile(s, 90)),
            "load.fresh_p99_ms": percentile(fresh, 99),
            "load.snapshot_p50_ms": percentile(snapshots_s, 50) * 1e3,
            "load.fresh_closed_p50_ms": percentile(fresh_closed, 50),
            "load.datagen_s": stages["datagen"],
            "obs.trace_overhead_share": 1.0 - throughput / untraced_tps,
        }
        metrics.update(extra)
        layer, shares = layer_metrics(
            [rec.payload(), *dumps], phases, scrape0, scrape1
        )
        metrics.update(layer)
        report["layer_shares_closed"] = shares
        report["untraced_tps"] = untraced_tps
        report["traced_tps"] = throughput
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    return result, report


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
def layer_metrics(dumps, phases: list[Phase], scrape0, scrape1):
    """The span- and ``/metrics``-derived per-layer numbers over the
    timed phases, and each layer's share of the closed-loop window."""
    analysis = Analysis(dumps)
    totals: dict[str, dict] = {}
    for phase in phases:
        for name, row in analysis.totals(phase.start, phase.end).items():
            into = totals.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    window = sum(p.elapsed for p in phases)
    tuples = sum(p.tuples for p in phases)

    def get(name: str, key: str = "self_s"):
        return totals.get(name, {}).get(key, 0)

    def scraped(name: str) -> float:
        return scrape1.get(name, 0.0) - scrape0.get(name, 0.0)

    def counted(name: str) -> int:
        return sum(
            analysis.count_total(name, p.start, p.end) for p in phases
        )

    ingest = totals.get("cluster.ingest", {})
    bytes_in, bytes_out = counted("net.bytes_in"), counted("net.bytes_out")
    t_first, t_last = phases[0].start, phases[-1].end
    shard_tuples = [
        sum(s[5] for s in d["spans"] if s[2].startswith("exec.on_batch")
            and t_first <= s[3] and s[4] <= t_last)
        for d in dumps if d["proc"].startswith("server")
    ]
    wal_bytes = scraped("repro_wal_bytes_total")
    metrics = {
        "compiler.create_view_s": sum(
            s[4] - s[3] for s in analysis.spans
            if s[2] == "compiler.create_view"
        ),
        "exec.on_batch_busy_s": sum_prefix(totals, "exec.on_batch"),
        "exec.last_delta_busy_s": sum_prefix(totals, "exec.last_delta"),
        "exec.tuples_in": sum_prefix(totals, "exec.on_batch", "n"),
        "exec.delta_tuples_out": sum_prefix(totals, "exec.last_delta", "n"),
        "service.on_batch_self_s": get("service.on_batch"),
        "service.fanout_busy_s": sum_prefix(totals, "service.fanout"),
        "service.callback_busy_s": get("service.callback", "busy_s"),
        "service.deliveries": get("service.callback", "calls"),
        "service.snapshot_busy_s": get("service.snapshot", "busy_s"),
        "service.drain_busy_s": get("service.drain", "busy_s"),
        "durability.append_busy_s": get("durability.append"),
        "durability.sync_busy_s": get("durability.sync", "busy_s"),
        "durability.checkpoint_busy_s": get("durability.checkpoint", "busy_s"),
        "durability.checkpoints": scraped("repro_service_checkpoints_total"),
        "durability.wal_bytes": wal_bytes,
        "durability.wal_bytes_per_tuple": wal_bytes / tuples,
        "net.decode_busy_s": get("net.decode"),
        "net.encode_busy_s": get("net.encode_delta") + get("net.dump_line")
        + get("net.encode_gmr"),
        "net.handler_self_s": get("net.handler"),
        "net.post_self_s": get("net.post"),
        "net.bytes_in": bytes_in,
        "net.bytes_out": bytes_out,
        "net.bytes_per_tuple": (bytes_in + bytes_out) / tuples,
        "net.deliveries": scraped("repro_server_deliveries_total")
        + scraped("repro_router_deliveries_total"),
        "net.lag_drops": scraped("repro_server_stream_lag_drops_total")
        + scraped("repro_router_stream_lag_drops_total"),
        "cluster.split_busy_s": get("cluster.split", "busy_s"),
        "cluster.ingest_self_s": ingest.get("self_s", 0),
        "cluster.scatter_wait_s": ingest.get("busy_s", 0)
        - ingest.get("self_s", 0) - get("cluster.split", "busy_s"),
        "cluster.merged": scraped("repro_router_merged_total"),
        "cluster.shard_skew": (
            max(shard_tuples) / (sum(shard_tuples) / len(shard_tuples))
            if len(shard_tuples) > 1 and sum(shard_tuples) else 0.0
        ),
        "cluster.gather_busy_s": get("cluster.gather", "busy_s"),
        "cluster.barrier_busy_s": get("cluster.barrier", "busy_s"),
        "load.generator_self_s": get("load.open") + get("load.closed"),
        "obs.accounted_share": analysis.rooted_self(
            ("load.open", "load.closed")
        ) / window,
        "obs.spans": len(analysis.spans),
    }
    for view in ("Q1", "Q6", "Q12", "Q3"):
        metrics[f"exec.on_batch_busy_s.{view}"] = get(f"exec.on_batch:{view}")
    closed = phases[-1]
    shares = layer_shares(
        analysis.totals(closed.start, closed.end), closed.elapsed
    )
    return metrics, shares


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _emit(result: dict, trace: int) -> dict:
    """Keep exactly the metrics ``BENCHMARK.json`` names for this mode,
    with their units; a per-layer metric that does not apply is 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in result["metrics"] and not trace:
            raise BenchError(f"end-to-end metric {name!r} was not measured")
        out[name] = {
            "value": float(result["metrics"].get(name, 0.0)),
            "unit": entry["unit"],
        }
    unknown = set(result["metrics"]) - set(out)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return dict(result, metrics=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write the full report (environment, sample counts, "
             "phases) to DIR/<workload>-seed<N>-trace<T>.json",
    )
    parser.add_argument(
        "--inject", default=None, choices=["drop-delta", "drop-ref-batch"],
        help="negative test: lose one delivered delta, or one live chunk "
             "of the reference — the run must then exit non-zero",
    )
    args = parser.parse_args(argv)
    try:
        result, report = run(args)
        result = _emit(result, args.trace)
    except BenchError as exc:
        print(f"benchmark invalid: {exc}", file=sys.stderr)
        return 2
    report["result"] = result
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    print("environment:", json.dumps(report["environment"], sort_keys=True))
    print("samples:", json.dumps(report["samples"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
