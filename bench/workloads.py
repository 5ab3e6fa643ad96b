"""The four workloads of the ledger.

Each fixes a system under test, its views, a stream shape and — for the
served pair — the open-loop rate.  ``why`` is what ``BENCHMARK.json``
records; the README carries the longer argument.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.net import Client
from repro.ring import GMR
from repro.workloads import (
    MICRO_TABLES,
    TPCH_QUERIES,
    TPCH_TABLES,
    as_query_spec,
)

import streams
from driver import check_views
from sut import BenchError, InprocSut, ServedSut, ServerProc

_clock = time.perf_counter


@dataclass
class Workload:
    name: str
    why: str
    #: ``[(view, source, create_view options)]``
    views: list
    catalog: dict
    probe_views: tuple[str, ...]
    snapshot_view: str
    #: open-loop steps per second; ``None``: closed loop only
    open_rate: float | None = None
    #: span-wrapper role of the load generator process
    role: str = "inproc"
    #: views whose every delivered ``(seq, delta)`` the collector keeps
    log_views: tuple[str, ...] = ()

    def stream(self, seed: int) -> streams.Stream:
        raise NotImplementedError

    def start(self, stream, collector, workdir: str, traced: bool,
              counters=None):
        raise NotImplementedError

    def specs(self) -> dict:
        """View name → ``QuerySpec``, for the reference evaluation."""
        out = {}
        for name, source, options in self.views:
            out[name] = as_query_spec(
                source, name=name, catalog=self.catalog,
                updatable=options.get("updatable"),
            )
        return out

    def align(self, sut):
        """An ``until(steps_sent)`` predicate that extends the closed
        loop to a point the closing phase needs, or ``None``."""
        return None

    def finish(self, sut, stream, steps_done: int, specs):
        """Workload-specific closing phase: ``(metrics, attempted,
        failed)``."""
        return {}, 0, 0


# ----------------------------------------------------------------------
# In-process
# ----------------------------------------------------------------------
class InprocTpch(Workload):
    def __init__(self):
        streamed = frozenset({"ORDERS", "LINEITEM"})
        views = [
            (q, TPCH_QUERIES[q], {"updatable": TPCH_QUERIES[q].updatable & streamed})
            for q in ("Q1", "Q6", "Q12", "Q3")
        ]
        super().__init__(
            name="inproc-tpch",
            why="in-process service, Q1 Q6 Q12 Q3 over 1000-tuple refresh "
                "pairs: view maintenance dominates, no wire, WAL or router",
            views=views, catalog=dict(TPCH_TABLES),
            probe_views=("Q3",), snapshot_view="Q3",
        )

    def stream(self, seed):
        return streams.tpch_stream(
            seed, window=40, pool=100, orders=100, lines=4,
            with_orders=True, probe_view="Q3",
        )

    def start(self, stream, collector, workdir, traced, counters=None):
        return InprocSut(self.views, self.catalog, stream, collector,
                         counters=counters)


#: the three shared shapes of benchmarks/test_shared_views.py, as alias
#: templates: distinct alias pairs exercise canonicalisation, not
#: string identity
_SHAPES = (
    "SELECT {x}.a, COUNT(*) FROM R {x}, S {y} "
    "WHERE {x}.b = {y}.b GROUP BY {x}.a",
    "SELECT {x}.b, COUNT(*) FROM S {y}, R {x} "
    "WHERE {x}.b = {y}.b GROUP BY {x}.b",
    "SELECT {y}.d, COUNT(*) FROM R {x}, T {y} "
    "WHERE {x}.a = {y}.a GROUP BY {y}.d",
)
_RST = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "d")}


class InprocShared(Workload):
    N_VIEWS = 200

    def __init__(self):
        views = []
        for i in range(self.N_VIEWS):
            if i % 10 == 9:  # unique: a literal no other view uses
                sql = f"SELECT a, COUNT(*) FROM R WHERE R.b > {i} GROUP BY a"
            else:
                sql = _SHAPES[i % 3].format(x=f"x{i}", y=f"y{i}")
            views.append((f"view_{i}", sql, {}))
        super().__init__(
            name="inproc-shared",
            why="in-process sharing service, 200 overlapping views over "
                "50-row batches: routing, DAG fan-out and publish dominate, "
                "per-view maintenance is tiny",
            views=views, catalog=dict(_RST),
            # view_1 groups R⋈S by b, view_2 groups R⋈T by d
            probe_views=("view_1", "view_2"), snapshot_view="view_1",
        )

    def specs(self):
        # A re-spelling means what its template means: evaluate the
        # reference once per template (views 0, 1, 2) and hold every
        # re-spelling to it, instead of 180 identical evaluations.
        specs = super().specs()
        for i in range(self.N_VIEWS):
            if i % 10 != 9:
                specs[f"view_{i}"] = specs[f"view_{i % 3}"]
        return specs

    def stream(self, seed):
        return streams.rst_stream(
            seed, relations=("R", "S", "T"), window=60, pool=120, rows=25,
            probes={"R": "view_1", "S": "view_1", "T": "view_2"},
        )

    def start(self, stream, collector, workdir, traced, counters=None):
        return InprocSut(self.views, self.catalog, stream, collector,
                         counters=counters)


# ----------------------------------------------------------------------
# Served
# ----------------------------------------------------------------------
_ORDER_REVENUE = "SELECT L.okey, SUM(L.eprice) FROM LINEITEM L GROUP BY L.okey"


class HttpDurable(Workload):
    CHECKPOINT_EVERY = 2000
    #: batches between the last checkpoint and the kill: the WAL tail
    #: that ``from_seq`` and recovery replay is the same every run
    TAIL = 1500

    def __init__(self):
        super().__init__(
            name="http-durable",
            why="one durable HTTP server, 40-tuple batches: per-request "
                "cost (HTTP, JSON wire, WAL append, checkpoint, NDJSON "
                "delivery) dominates; ends with from_seq replay and "
                "kill -9 recovery",
            views=[
                ("Q1", TPCH_QUERIES["Q1"], {}),
                ("Q6", TPCH_QUERIES["Q6"], {}),
                ("order_revenue", _ORDER_REVENUE, {}),
            ],
            catalog=dict(TPCH_TABLES),
            probe_views=("order_revenue",), snapshot_view="order_revenue",
            open_rate=OPEN_RATES["http-durable"], role="client",
            # the from_seq replay is compared with the live deltas
            log_views=("Q1", "Q6", "order_revenue"),
        )

    def stream(self, seed):
        return streams.tpch_stream(
            seed, window=400, pool=2000, orders=5, lines=4,
            with_orders=False, probe_view="order_revenue",
        )

    def _serve(self, workdir: str, traced: bool, name: str) -> ServerProc:
        return ServerProc(
            name,
            ["serve", "Q1", "Q6", "--sql", f"order_revenue={_ORDER_REVENUE}",
             "--port", "0", "--wal-dir", os.path.join(workdir, "wal"),
             "--fsync", "interval",
             "--checkpoint-every", str(self.CHECKPOINT_EVERY)],
            workdir, "server", traced,
        )

    def start(self, stream, collector, workdir, traced, counters=None):
        proc = self._serve(workdir, traced, "server")
        return ServedSut([proc], proc, [v[0] for v in self.views], stream,
                         collector, workdir)

    def align(self, sut):
        """``until`` of the closed loop: stop ``TAIL`` batches after a
        checkpoint (every step is one batch, so seq advances by one)."""
        seq0 = sut.client.health()["seq"]
        return lambda sent: (
            (seq0 + sent) % self.CHECKPOINT_EVERY == self.TAIL
        )

    def finish(self, sut, stream, steps_done, specs):
        health = sut.client.health()
        seq, horizon = health["seq"], health["resume_horizon"]
        if seq - horizon != self.TAIL:
            raise BenchError(
                f"expected the kill {self.TAIL} batches after a checkpoint, "
                f"found seq {seq} and resume horizon {horizon}"
            )
        metrics, failed = {}, 0
        # from_seq catch-up: replay the tail from the WAL and compare it
        # with what the live streams delivered for the same seqs.
        replay_s = 0.0
        for view in sut.views:
            live = GMR()
            for delta_seq, delta in sut.collector.log[view]:
                if delta_seq > horizon:
                    live.add_inplace(delta)
            t0 = _clock()
            with sut.reader.subscribe(view, from_seq=horizon) as replay:
                token = sut.client.drain(view)
                deltas = replay.read_until_mark(token)
            replay_s += _clock() - t0
            replayed = GMR()
            for event in deltas:
                replayed.add_inplace(event.delta)
            if replayed != live:
                failed += 1
        metrics["durability.replay_s"] = replay_s

        t_kill = _clock()
        sut.stop(signal.SIGKILL)
        new = self._serve(sut.workdir, False, "recovered")
        metrics["durability.recover_s"] = _clock() - t_kill
        sut.procs[:] = [new]
        sut.front = new
        with Client(new.host, new.port, timeout=60.0) as client:
            after = client.health()
            metrics["durability.replayed_batches"] = (
                (after.get("recovered") or {}).get("replayed", 0)
            )
            if after["seq"] != seq:
                failed += 1
            failed += len(check_views(
                client.snapshot, specs, stream.base_after(steps_done)
            ))
        return metrics, 2 * len(sut.views) + 1, failed


_PER_B = "SELECT R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.b"


class Cluster2Shard(Workload):
    def __init__(self):
        super().__init__(
            name="cluster-2shard",
            why="router over two shard servers, R and S alternating in "
                "100-row batches: the only workload where split, scatter, "
                "merge and the cross-shard barrier run",
            views=[("per_b", _PER_B, {})],
            catalog=dict(MICRO_TABLES),
            probe_views=("per_b",), snapshot_view="per_b",
            open_rate=OPEN_RATES["cluster-2shard"], role="client",
        )

    def stream(self, seed):
        return streams.rst_stream(
            seed, relations=("R", "S"), window=100, pool=200, rows=50,
            probes={"R": "per_b", "S": "per_b"},
        )

    def start(self, stream, collector, workdir, traced, counters=None):
        procs = []
        try:
            for i in range(2):
                procs.append(ServerProc(
                    f"shard{i}",
                    ["serve", "--workload", "micro", "--port", "0"],
                    workdir, "server", traced,
                ))
            shards = ",".join(f"{p.host}:{p.port}" for p in procs)
            router = ServerProc(
                "router",
                ["route", "--shards", shards, "--sql", f"per_b={_PER_B}",
                 "--backend", "rivm-batch", "--port", "0"],
                workdir, "router", traced,
            )
            procs.append(router)
            return ServedSut(procs, router, ["per_b"], stream, collector,
                             workdir)
        except BaseException:
            for proc in procs:
                proc.kill()
            raise


#: Open-loop rates, steps per second.  Frozen constants: about 40% of
#: the closed-loop rate this host sustained when the ledger was defined
#: (README, "Frozen rates"), so that latency is measured below
#: saturation and compared across commits at equal offered load.
OPEN_RATES = {"http-durable": 170.0, "cluster-2shard": 100.0}

WORKLOADS = {
    w.name: w
    for w in (InprocTpch(), InprocShared(), HttpDurable(), Cluster2Shard())
}
